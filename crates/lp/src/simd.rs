//! Runtime SIMD dispatch for the workspace's hot kernels, plus the
//! vectorized uniform-grid quantizer shared by the INT and fixed-point
//! `SliceQuantizer::UniformGrid` kernels and the gather tier of the
//! decode-table quantizer.
//!
//! ## Dispatch tiers
//!
//! Every SIMD-accelerated kernel in the workspace (the GEMM microkernel in
//! `dnn::tensor`, the packed panel decode, the uniform-grid kernel and the
//! decode-table kernels here) has exactly two tiers:
//!
//! 1. an explicit `core::arch::x86_64` **AVX2 path**, selected at runtime
//!    by [`is_x86_feature_detected!`] — chosen because the default
//!    `x86-64` compilation target only guarantees SSE2, so
//!    auto-vectorization leaves half the vector width (and all of
//!    `roundpd`/`gatherps`) on the table;
//! 2. a **portable unrolled fallback** in plain safe Rust, used on
//!    non-x86_64 targets, on x86_64 without AVX2, and whenever the
//!    [`PORTABLE_ENV`] environment variable is set (which is how CI proves
//!    the fallback stays bit-identical and green).
//!
//! **No FMA anywhere.** The workspace's bit-identity chain (see
//! `ARCHITECTURE.md`) requires every product to be rounded once and then
//! added with a second rounding, exactly like the scalar reference
//! kernels; a fused multiply-add rounds once per MAC and would change
//! result bits. The AVX2 paths therefore emit `vmulps`/`vaddps`
//! (`vmulpd`/`vaddpd`) pairs, never `vfmadd*`, and the portable paths are
//! plain `a * b` + `+` expressions that rustc does not contract (Rust
//! never enables floating-point contraction).
//!
//! The intrinsics are confined to this module (and `dnn`'s microkernel
//! module); both are the documented `allow(unsafe_code)` islands in
//! otherwise `deny(unsafe_code)` crates.

use crate::codec::DecodeTable;
use std::sync::OnceLock;

/// Environment variable that forces the portable fallback tier when set
/// to any non-empty value other than `0`: `LP_PORTABLE_KERNELS=1 cargo
/// test` runs every kernel through the plain-Rust paths. Read once per
/// process and cached.
pub const PORTABLE_ENV: &str = "LP_PORTABLE_KERNELS";

/// Whether [`PORTABLE_ENV`] requests the portable tier (cached).
pub fn force_portable() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var(PORTABLE_ENV)
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Whether the explicit AVX2 intrinsics tier is active: x86_64 with AVX2
/// detected at runtime and not overridden by [`PORTABLE_ENV`].
pub fn intrinsics_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            !force_portable() && std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// The active dispatch tier as a stable string (`"avx2"` or
/// `"portable"`), recorded in the BENCH JSON artifacts so measurements
/// are self-describing.
pub fn kernel_tier() -> &'static str {
    if intrinsics_enabled() {
        "avx2"
    } else {
        "portable"
    }
}

/// Quantizes `xs` in place onto the symmetric uniform grid
/// `{-levels..levels} × step`, bit-identical to the scalar reference
/// `((v / step).round_ties_even().clamp(-levels, levels) * step) as f32`
/// for finite inputs and `NaN` otherwise — the shared kernel behind the
/// INT and fixed-point [`SliceQuantizer::UniformGrid`] kernels.
///
/// The AVX2 tier runs four `f64` lanes per iteration (`vdivpd` /
/// `vroundpd` nearest-even / `vminpd`+`vmaxpd` / `vmulpd`), which is
/// bit-identical lane-for-lane to the scalar expression because every
/// IEEE-754 operation in the chain is correctly rounded in both forms.
///
/// [`SliceQuantizer::UniformGrid`]: crate::quantizer::SliceQuantizer::UniformGrid
#[allow(unsafe_code)] // dispatch into the runtime-feature-checked AVX2 tier
pub fn uniform_grid_quantize_slice(xs: &mut [f32], step: f64, levels: f64) {
    #[cfg(target_arch = "x86_64")]
    if intrinsics_enabled() {
        // SAFETY: `intrinsics_enabled` returns true only when AVX2 was
        // detected at runtime on this CPU.
        unsafe { avx2::uniform_grid(xs, step, levels) };
        return;
    }
    uniform_grid_portable(xs, step, levels);
}

/// The portable tier of [`uniform_grid_quantize_slice`] — also the
/// remainder-lane kernel of the AVX2 tier.
fn uniform_grid_portable(xs: &mut [f32], step: f64, levels: f64) {
    for x in xs.iter_mut() {
        let v = f64::from(*x);
        *x = if v.is_finite() {
            ((v / step).round_ties_even().clamp(-levels, levels) * step) as f32
        } else {
            f32::NAN
        };
    }
}

/// Runs the AVX2 tier of [`DecodeTable::quantize_slice`] over the
/// longest multiple-of-8 prefix of `xs` and returns its length; returns 0
/// (nothing done) when the tier is inactive, leaving the whole slice to
/// the portable tier.
#[allow(unsafe_code)] // dispatch into the runtime-feature-checked AVX2 tier
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn decode_table_quantize(t: &DecodeTable, xs: &mut [f32]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if intrinsics_enabled() {
        // SAFETY: `intrinsics_enabled` returns true only when AVX2 was
        // detected at runtime on this CPU.
        return unsafe { avx2::decode_table_quantize(t, xs) };
    }
    0
}

/// Runs the AVX2 tier of [`DecodeTable::quantize_batch_into`] over the
/// longest multiple-of-8 prefix of `xs`, appending its codes to `out`,
/// and returns its length (0 when the tier is inactive).
#[allow(unsafe_code)] // dispatch into the runtime-feature-checked AVX2 tier
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn decode_table_codes(t: &DecodeTable, xs: &[f32], out: &mut Vec<u16>) -> usize {
    #[cfg(target_arch = "x86_64")]
    if intrinsics_enabled() {
        // SAFETY: as in `decode_table_quantize`.
        return unsafe { avx2::decode_table_codes(t, xs, out) };
    }
    0
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    //! The AVX2 tier. The only unsafe in the `lp` crate: every function
    //! here is `target_feature(enable = "avx2")` and must only be called
    //! after a runtime `is_x86_feature_detected!("avx2")` check (enforced
    //! by routing all calls through [`super::intrinsics_enabled`]).

    use crate::codec::DecodeTable;
    use core::arch::x86_64::*;

    /// `f32` lanes per step of the decode-table kernels: one AVX2 vector.
    const QUANT_LANES: usize = 8;

    /// Four-lane `f64` uniform-grid quantization; see
    /// [`super::uniform_grid_quantize_slice`] for the contract.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (runtime-checked by the caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn uniform_grid(xs: &mut [f32], step: f64, levels: f64) {
        let vstep = _mm256_set1_pd(step);
        let vhi = _mm256_set1_pd(levels);
        let vlo = _mm256_set1_pd(-levels);
        let nan = _mm_set1_ps(f32::NAN);
        let n = xs.len();
        let ptr = xs.as_mut_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            let p = ptr.add(i);
            let x4 = _mm_loadu_ps(p);
            let v = _mm256_cvtps_pd(x4);
            // One correctly-rounded op per step, matching the scalar
            // expression term for term: divide, round-to-nearest-even,
            // clamp, multiply, narrow to f32.
            let q = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
                _mm256_div_pd(v, vstep),
            );
            let q = _mm256_min_pd(_mm256_max_pd(q, vlo), vhi);
            let r = _mm256_cvtpd_ps(_mm256_mul_pd(q, vstep));
            // finite(x) ⇔ x - x == 0 (NaN and ±∞ both yield NaN).
            let fin = _mm_cmpeq_ps(_mm_sub_ps(x4, x4), _mm_setzero_ps());
            let out = _mm_or_ps(_mm_and_ps(fin, r), _mm_andnot_ps(fin, nan));
            _mm_storeu_ps(p, out);
            i += 4;
        }
        super::uniform_grid_portable(&mut xs[i..], step, levels);
    }

    /// The broadcast per-table operands of the decode-table kernels.
    struct TableLanes<'a> {
        table: &'a DecodeTable,
        mag_lo: __m256i,
        mag_hi: __m256i,
        block_lo: __m256i,
        per_sign: __m256i,
        /// The zero interval's flush for positive and negative inputs.
        zero_from: (__m256, __m256),
        last: __m256i,
    }

    impl<'a> TableLanes<'a> {
        /// Broadcasts `t`'s operands after checking the conditions that
        /// keep every gather of [`TableLanes::lanes`] in bounds.
        ///
        /// # Safety
        ///
        /// Requires AVX2, like every function in this module.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn new(t: &'a DecodeTable) -> Self {
            let index = &t.index;
            // A clamped magnitude `m ∈ [mag_lo, mag_hi]` (< 2³¹, so the
            // signed clamp is exact) has `(m >> 16) − (mag_lo >> 16) <
            // per_sign`, so the entry position is `< 2 · per_sign`, the
            // entry count; a non-empty table has a valid `len − 1`.
            assert!(index.mag_lo <= index.mag_hi && index.mag_hi <= i32::MAX as u32);
            assert_eq!(
                (index.mag_hi >> 16) - (index.mag_lo >> 16) + 1,
                index.per_sign
            );
            assert_eq!(index.entries.len(), 2 * index.per_sign as usize);
            assert!(!t.is_empty());
            TableLanes {
                table: t,
                mag_lo: _mm256_set1_epi32(index.mag_lo as i32),
                mag_hi: _mm256_set1_epi32(index.mag_hi as i32),
                block_lo: _mm256_set1_epi32((index.mag_lo >> 16) as i32),
                per_sign: _mm256_set1_epi32(index.per_sign as i32),
                zero_from: (
                    _mm256_set1_ps(t.zero_from[0]),
                    _mm256_set1_ps(t.zero_from[1]),
                ),
                last: _mm256_set1_epi32(t.len() as i32 - 1),
            }
        }

        /// Resolves eight lanes the way `DecodeTable::quantize_one` indexes
        /// one finite non-zero input: the value indices (clamped to the table) and the `movemask` of
        /// the lanes that must be redone by the scalar path (±0.0,
        /// non-finite, or a multi-boundary block).
        ///
        /// Both gathers stay in bounds for *every* input bit pattern: the
        /// magnitude is clamped into the indexed range before the entry
        /// gather (so a NaN `0x7FFF_FFFF` reads the last positive entry),
        /// and the value index is clamped to `len − 1`.
        ///
        /// # Safety
        ///
        /// Requires AVX2.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn lanes(&self, x: __m256) -> (__m256i, i32) {
            let low16 = _mm256_set1_epi32(0xFFFF);
            let bits = _mm256_castps_si256(x);
            let neg = _mm256_srai_epi32::<31>(bits);
            let abs = _mm256_and_si256(bits, _mm256_set1_epi32(i32::MAX));
            // Magnitude bits are < 2³¹, so the signed min/max are exact.
            let mag = _mm256_min_epi32(_mm256_max_epi32(abs, self.mag_lo), self.mag_hi);
            let block = _mm256_sub_epi32(_mm256_srli_epi32::<16>(mag), self.block_lo);
            let pos = _mm256_add_epi32(block, _mm256_and_si256(neg, self.per_sign));
            let entries = self.table.index.entries.as_ptr().cast::<i32>();
            // SAFETY: `pos` is in bounds of `entries` by the clamp above
            // and the conditions `TableLanes::new` asserts.
            let e = _mm256_i32gather_epi32::<4>(entries, pos);
            let base = _mm256_and_si256(e, low16);
            // The low half of the clamped sort key; then
            // idx = base + (key & 0xFFFF >= split) = base + 1 − (split > key & 0xFFFF),
            // exact as a signed compare because both halves are < 2¹⁶.
            let key_low = _mm256_and_si256(_mm256_xor_si256(mag, neg), low16);
            let below = _mm256_cmpgt_epi32(_mm256_srli_epi32::<16>(e), key_low);
            let idx = _mm256_add_epi32(_mm256_add_epi32(base, _mm256_set1_epi32(1)), below);
            let idx = _mm256_min_epi32(idx, self.last);
            let multi = _mm256_cmpeq_epi32(base, low16);
            let zero = _mm256_cmpeq_epi32(abs, _mm256_setzero_si256());
            let nonfinite = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(f32::MAX.to_bits() as i32));
            let slow = _mm256_or_si256(_mm256_or_si256(multi, zero), nonfinite);
            (idx, _mm256_movemask_ps(_mm256_castsi256_ps(slow)))
        }
    }

    /// Eight-lane `DecodeTable::quantize_slice` over the longest
    /// multiple-of-8 prefix of `xs`; returns its length.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (runtime-checked by the caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode_table_quantize(t: &DecodeTable, xs: &mut [f32]) -> usize {
        let lanes = TableLanes::new(t);
        let values = t.values().as_ptr();
        let done = xs.len() - xs.len() % QUANT_LANES;
        for chunk in xs[..done].chunks_exact_mut(QUANT_LANES) {
            let x = _mm256_loadu_ps(chunk.as_ptr());
            let (idx, slow) = lanes.lanes(x);
            // SAFETY: `lanes` clamps every index to `len − 1`.
            let v = _mm256_i32gather_ps::<4>(values, idx);
            // The zero interval's sign-preserving flush, on x's sign bit.
            let flush = _mm256_blendv_ps(lanes.zero_from.0, lanes.zero_from.1, x);
            let is_zero = _mm256_cmp_ps::<_CMP_EQ_OQ>(v, _mm256_setzero_ps());
            _mm256_storeu_ps(chunk.as_mut_ptr(), _mm256_blendv_ps(v, flush, is_zero));
            if slow != 0 {
                // Redo slow lanes from the original input, still in `x`.
                let mut orig = [0f32; QUANT_LANES];
                _mm256_storeu_ps(orig.as_mut_ptr(), x);
                for (l, (o, &x)) in chunk.iter_mut().zip(&orig).enumerate() {
                    if slow & (1 << l) != 0 {
                        *o = t.quantize_one(x);
                    }
                }
            }
        }
        done
    }

    /// Eight-lane `DecodeTable::quantize_batch_into` over the longest
    /// multiple-of-8 prefix of `xs`, appending to `out`; returns its
    /// length.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (runtime-checked by the caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode_table_codes(
        t: &DecodeTable,
        xs: &[f32],
        out: &mut Vec<u16>,
    ) -> usize {
        let lanes = TableLanes::new(t);
        let done = xs.len() - xs.len() % QUANT_LANES;
        for chunk in xs[..done].chunks_exact(QUANT_LANES) {
            let (idx, slow) = lanes.lanes(_mm256_loadu_ps(chunk.as_ptr()));
            // Narrow to u16 (indices are < 2¹⁶): `packus` interleaves the
            // 128-bit halves, the permute brings lanes 0–7 to the bottom.
            let packed = _mm256_permute4x64_epi64::<0b10_00>(_mm256_packus_epi32(idx, idx));
            let mut codes = [0u16; QUANT_LANES];
            _mm_storeu_si128(codes.as_mut_ptr().cast(), _mm256_castsi256_si128(packed));
            if slow != 0 {
                for (l, (c, &x)) in codes.iter_mut().zip(chunk).enumerate() {
                    if slow & (1 << l) != 0 {
                        *c = t.code_one(x);
                    }
                }
            }
            out.extend_from_slice(&codes);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_is_consistent() {
        // Whatever the tier, it must be stable across calls.
        assert_eq!(kernel_tier(), kernel_tier());
        if force_portable() {
            assert_eq!(kernel_tier(), "portable");
        }
    }

    #[test]
    fn uniform_grid_matches_scalar_reference() {
        let mut probes: Vec<f32> = vec![
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN,
            f32::MAX,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-40,
            -1e-40,
            0.5,
            -0.5,
        ];
        for i in 0..997 {
            let t = (i as f32 * 0.618_034).fract();
            let mag = (t * 40.0 - 20.0).exp2();
            probes.push(if i % 2 == 0 { mag } else { -mag });
        }
        for (step, levels) in [(0.037f64, 127.0f64), (0.25, 7.0), (16.0, 32767.0)] {
            let mut fast = probes.clone();
            uniform_grid_quantize_slice(&mut fast, step, levels);
            for (&x, &got) in probes.iter().zip(&fast) {
                let v = f64::from(x);
                let want = if v.is_finite() {
                    ((v / step).round_ties_even().clamp(-levels, levels) * step) as f32
                } else {
                    f32::NAN
                };
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "step {step} levels {levels} input {x:?}"
                );
            }
        }
    }

    #[test]
    fn uniform_grid_handles_odd_lengths() {
        // Lengths around the 4-lane block so remainder lanes are covered.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9] {
            let mut xs: Vec<f32> = (0..len).map(|i| i as f32 * 0.3 - 1.0).collect();
            let want: Vec<f32> = xs
                .iter()
                .map(|&x| ((f64::from(x) / 0.1).round_ties_even().clamp(-7.0, 7.0) * 0.1) as f32)
                .collect();
            uniform_grid_quantize_slice(&mut xs, 0.1, 7.0);
            assert_eq!(xs, want, "len {len}");
        }
    }
}

//! Runtime SIMD dispatch for the workspace's two hot kernels, plus the
//! vectorized uniform-grid quantizer shared by the INT and fixed-point
//! `SliceQuantizer::UniformGrid` kernels.
//!
//! ## Dispatch tiers
//!
//! Every SIMD-accelerated kernel in the workspace (the GEMM microkernel in
//! `dnn::tensor`, the packed panel decode, and the uniform-grid kernel
//! here) has exactly two tiers:
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

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    //! The AVX2 tier. The only unsafe in the `lp` crate: every function
    //! here is `target_feature(enable = "avx2")` and must only be called
    //! after a runtime `is_x86_feature_detected!("avx2")` check (enforced
    //! by routing all calls through [`super::intrinsics_enabled`]).

    use core::arch::x86_64::*;

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

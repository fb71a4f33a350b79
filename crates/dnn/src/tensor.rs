//! Dense `f32` tensors, packed quantized tensors ([`QTensor`]), and the
//! GEMM kernels the model zoo needs. Row-major storage, explicit shapes,
//! no broadcasting beyond what the ops require.
//!
//! ## The blocked GEMM kernel
//!
//! Every matrix product in the crate funnels into one cache-blocked
//! kernel (the private `gemm_t_panels`): the right-hand operand is packed
//! (or, for packed weights, *decoded*) tile by tile into a `[kb, nb]`
//! panel that stays L1-resident, and the compute is a register-tiled
//! microkernel — [`GEMM_MR`] left-hand rows at a time against the panel,
//! holding an `MR × `[`GEMM_NR`] block of `f32` accumulators in vector
//! registers for the whole `kb` depth. The microkernel has two dispatch
//! tiers (see `lp::simd`): an explicit AVX2 path selected by runtime
//! feature detection, and a portable unrolled fallback. Both are checked
//! and measured against the dot-product oracle [`Tensor::matmul_t_naive`]
//! (see `BENCH_gemm.json`).
//!
//! Products are accumulated into each output element strictly in
//! ascending-`k` order, one **separately rounded** multiply and add per
//! product — never an FMA, whose single rounding would diverge — exactly
//! the order of the naive kernel. Register accumulators don't change
//! that: a partial sum stored to `out` between k-tiles and reloaded is an
//! exact `f32` round-trip, so holding it in a register instead produces
//! the same bit sequence. The blocked path is therefore **bit-identical**
//! to the naive kernel in every tier, and row `i` of the output depends
//! only on row `i` of the left operand, which is what makes batched
//! forwards bit-identical to per-input forwards.
//!
//! ## Packed weights
//!
//! A [`QTensor`] stores `u16` codes from `lp::codec::quantize_batch` plus
//! the shared [`DecodeTable`] that decodes them — 2 bytes per element
//! instead of 4, and the code buffer is `Arc`-shared so clones (e.g. the
//! same weights registered under several serving scenarios) cost nothing.
//! [`Tensor::matmul_t_packed`] decodes codes through the table *inside*
//! the blocked loop, into the same panel layout the dense kernel uses, so
//! packed forwards are bit-identical to forwards over the dequantized
//! `f32` copy.

use lp::codec::{self, DecodeTable};
use lp::Quantizer;
use std::fmt;
use std::sync::Arc;

/// A dense row-major `f32` tensor.
///
/// # Examples
///
/// ```
/// use dnn::tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} does not match data length {}",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "cannot reshape {:?} to {shape:?}",
            self.shape
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Stacks equal-shaped tensors along a new leading (batch) axis:
    /// `B` tensors of shape `[…]` become one `[B, …]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the shapes differ.
    pub fn stack(parts: &[Tensor]) -> Tensor {
        let first = parts.first().expect("stack needs at least one tensor");
        let mut data = Vec::with_capacity(parts.len() * first.len());
        for t in parts {
            assert_eq!(t.shape, first.shape, "stack requires matching shapes");
            data.extend_from_slice(&t.data);
        }
        let mut shape = vec![parts.len()];
        shape.extend_from_slice(&first.shape);
        Tensor { shape, data }
    }

    /// Splits along the leading (batch) axis: the inverse of
    /// [`Tensor::stack`], one `[…]` tensor per index of a `[B, …]` tensor.
    ///
    /// # Panics
    ///
    /// Panics on a rank-0 tensor.
    pub fn unstack(&self) -> Vec<Tensor> {
        let (&b, elem) = self.shape.split_first().expect("unstack needs rank >= 1");
        let len = elem.iter().product::<usize>();
        (0..b)
            .map(|e| Tensor::from_vec(elem, self.data[e * len..(e + 1) * len].to_vec()))
            .collect()
    }

    /// Element-wise addition. Shapes must match exactly.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "add requires matching shapes");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Matrix multiplication `self[M,K] × rhs[K,N] → [M,N]`, on the shared
    /// blocked kernel.
    ///
    /// The former per-MAC `a == 0.0` sparsity shortcut is gone: on dense
    /// layers it was a branch per multiply for nothing (1.2× the
    /// branch-free blocked kernel on a dense 256³ product), and real
    /// sparsity is better exploited at the format level (LP's zero code)
    /// than in the inner loop.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching inner
    /// dimensions.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank-2");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let bd = &rhs.data;
        // rhs is [K,N]: a panel row is a contiguous slice of a rhs row.
        gemm_t_panels(m, k, n, &self.data, &mut out, |jc, nb, pc, kb, panel| {
            for p in 0..kb {
                let src = &bd[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                panel[p * nb..(p + 1) * nb].copy_from_slice(src);
            }
        });
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Matrix multiplication with the second operand transposed:
    /// `self[M,K] × rhs[N,K]ᵀ → [M,N]`, on the shared blocked kernel. This
    /// is the natural layout for linear layers stored as `[out, in]`.
    ///
    /// `rhs` may have any rank ≥ 1: it is read as the row-major
    /// `[shape[0], rest]` matrix its data already is, so a conv filter bank
    /// `[out, in, kh, kw]` multiplies as `[out, in·kh·kw]` with no reshape
    /// copy. `self` may have any rank ≥ 1 too: it is read as the `[rest,
    /// last]` matrix of its rows, so a `[B, T, in]` batch of token rows is
    /// one `[B·T, in]` operand, in place.
    ///
    /// Bit-identical to [`Tensor::matmul_t_naive`] (same per-element
    /// accumulation order), several times faster on layer-sized operands.
    ///
    /// # Panics
    ///
    /// Panics unless both operands have rank ≥ 1 and the inner dimensions
    /// match.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        let (m, k) = lhs_view(&self.shape);
        let (n, k2) = row_view(&rhs.shape);
        assert_eq!(k, k2, "matmul_t inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let bd = &rhs.data;
        // rhs is [N,K]: packing a panel transposes a [nb, kb] block.
        gemm_t_panels(m, k, n, &self.data, &mut out, |jc, nb, pc, kb, panel| {
            for j in 0..nb {
                let src = &bd[(jc + j) * k + pc..(jc + j) * k + pc + kb];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * nb + j] = v;
                }
            }
        });
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// `self[M,K] × rhs[N,K]ᵀ → [M,N]` over **packed** weights: codes are
    /// decoded through the table into the blocked kernel's panel scratch,
    /// so the `f32` weight matrix is never materialized — the panel
    /// (≤ [`GEMM_KC`]·[`GEMM_NC`] floats) is the only decoded state, reused
    /// across all `M` left-hand rows of the batch.
    ///
    /// Like [`Tensor::matmul_t`], `self` is read as `[rest, last]` and
    /// `rhs` as `[shape[0], rest]`, both of any rank ≥ 1.
    ///
    /// Bit-identical to `self.matmul_t(&rhs.dequantize())`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands have rank ≥ 1 and the inner dimensions
    /// match.
    pub fn matmul_t_packed(&self, rhs: &QTensor) -> Tensor {
        let (m, k) = lhs_view(&self.shape);
        let (n, k2) = row_view(rhs.shape());
        assert_eq!(k, k2, "matmul_t inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        // The fill widens + gathers codes through the table (AVX2 tier)
        // or decodes scalar-wise (portable tier); either way the panel
        // contents are identical to the dense transpose fill over the
        // dequantized weights.
        gemm_t_panels(m, k, n, &self.data, &mut out, |jc, nb, pc, kb, panel| {
            microkernel::fill_panel_packed(rhs, jc, nb, pc, kb, panel);
        });
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// The pre-blocking `matmul_t` (row × row dot products, one serial
    /// accumulator). Kept as the measured baseline for `BENCH_gemm.json`
    /// and the bit-identity reference for the blocked kernel; not used by
    /// any forward path.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank-2 with matching `K`.
    pub fn matmul_t_naive(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul_t lhs must be rank-2");
        assert_eq!(rhs.shape.len(), 2, "matmul_t rhs must be rank-2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul_t inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &rhs.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out[i * n + j] = acc;
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Returns the index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Mean of all elements (`0.0` for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

/// A row-major tensor shape read as the matrix of its last-axis rows,
/// `[rest, last]`.
fn lhs_view(shape: &[usize]) -> (usize, usize) {
    let (&k, rows) = shape
        .split_last()
        .expect("matmul_t lhs must have rank >= 1");
    (rows.iter().product(), k)
}

/// A row-major tensor shape read as a matrix `[shape[0], rest]`.
fn row_view(shape: &[usize]) -> (usize, usize) {
    assert!(!shape.is_empty(), "matmul_t rhs must have rank >= 1");
    (shape[0], shape[1..].iter().product())
}

/// K-depth of one GEMM panel tile.
pub const GEMM_KC: usize = 128;
/// Output-column width of one GEMM panel tile. `KC × NC` floats (32 KB)
/// bound the panel to L1-cache size.
pub const GEMM_NC: usize = 64;
/// Left-hand rows processed together by one microkernel call: enough
/// independent accumulator chains to hide the (FMA-free) add latency
/// without spilling the `MR × NR` register block.
pub const GEMM_MR: usize = 4;
/// Accumulator width of the microkernel in `f32` lanes — one AVX2 vector.
pub const GEMM_NR: usize = 8;

/// The shared cache-blocked GEMM core: `out[M,N] += A[M,K] · Bᵀ`, with the
/// right-hand operand delivered panel-wise by `fill`.
///
/// `fill(jc, nb, pc, kb, panel)` must write `panel[p * nb + j] =
/// B[jc + j][pc + p]` for `p < kb, j < nb` — a `[kb, nb]` transposed tile.
/// Dense callers copy, packed callers decode `u16` codes through their
/// table; the compute is identical either way (the register-tiled
/// [`microkernel`]), which is what makes packed and dense forwards
/// bit-identical.
///
/// Accumulation order per output element is strictly ascending `k`, one
/// separately-rounded product at a time (no FMA) — the same order as the
/// naive dot-product kernel, and independent of `M`, so results never
/// depend on how many left-hand rows are stacked into one call.
fn gemm_t_panels<F>(m: usize, k: usize, n: usize, a: &[f32], out: &mut [f32], mut fill: F)
where
    F: FnMut(usize, usize, usize, usize, &mut [f32]),
{
    let mut panel = vec![0.0f32; GEMM_KC.min(k.max(1)) * GEMM_NC.min(n.max(1))];
    let mut jc = 0;
    while jc < n {
        let nb = GEMM_NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kb = GEMM_KC.min(k - pc);
            fill(jc, nb, pc, kb, &mut panel[..kb * nb]);
            microkernel::compute_tile(a, out, k, n, m, jc, nb, pc, kb, &panel[..kb * nb]);
            pc += kb;
        }
        jc += nb;
    }
}

mod microkernel {
    //! The register-tiled GEMM microkernel and the packed panel decode, in
    //! their two dispatch tiers (see `lp::simd` for the tier policy).
    //!
    //! Both tiers compute, for each output element, the identical sequence
    //! `acc = out[i][j]; for p in 0..kb { acc += a[i][p] * b[p][j] }` with
    //! one rounded multiply and one rounded add per step. The AVX2 tier
    //! issues explicit `_mm256_mul_ps` + `_mm256_add_ps` pairs — **never**
    //! FMA, whose single rounding per MAC would break the bit-identity
    //! contract with `matmul_t_naive` — and per-lane vector IEEE ops are
    //! identical to their scalar counterparts, so every tier produces the
    //! same bits. This module is `dnn`'s one sanctioned `unsafe` island
    //! (the crate is otherwise `deny(unsafe_code)`): intrinsics are
    //! unsafe by signature, and every call is guarded by runtime feature
    //! detection.
    #![allow(unsafe_code)]

    use super::{QTensor, GEMM_MR, GEMM_NR};

    /// Computes `out[i, jc..jc+nb] += A[i, pc..pc+kb] · panel` for all `m`
    /// rows against one `[kb, nb]` panel, dispatching between tiers.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn compute_tile(
        a: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        jc: usize,
        nb: usize,
        pc: usize,
        kb: usize,
        panel: &[f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if lp::simd::intrinsics_enabled() {
            // SAFETY: AVX2 presence is runtime-checked by
            // `intrinsics_enabled`, and the index bounds below are the
            // same ones the safe portable tier proves in-bounds.
            unsafe { compute_tile_avx2(a, out, k, n, m, jc, nb, pc, kb, panel) };
            return;
        }
        compute_tile_portable(a, out, k, n, m, jc, nb, pc, kb, panel);
    }

    /// Portable tier: full `MR`-row groups, then single-row remainder.
    #[allow(clippy::too_many_arguments)]
    fn compute_tile_portable(
        a: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        jc: usize,
        nb: usize,
        pc: usize,
        kb: usize,
        panel: &[f32],
    ) {
        let mut i = 0;
        while i + GEMM_MR <= m {
            rows_portable::<GEMM_MR>(a, out, k, n, i, jc, nb, pc, kb, panel);
            i += GEMM_MR;
        }
        while i < m {
            rows_portable::<1>(a, out, k, n, i, jc, nb, pc, kb, panel);
            i += 1;
        }
    }

    /// `MR` rows × `GEMM_NR`-wide register block, unrolled so the
    /// accumulator arrays stay in vector registers; scalar column tail.
    #[allow(clippy::too_many_arguments)]
    fn rows_portable<const MR: usize>(
        a: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        i0: usize,
        jc: usize,
        nb: usize,
        pc: usize,
        kb: usize,
        panel: &[f32],
    ) {
        let mut j = 0;
        while j + GEMM_NR <= nb {
            let mut acc = [[0.0f32; GEMM_NR]; MR];
            for (r, accr) in acc.iter_mut().enumerate() {
                accr.copy_from_slice(&out[(i0 + r) * n + jc + j..][..GEMM_NR]);
            }
            for p in 0..kb {
                let b: &[f32; GEMM_NR] = panel[p * nb + j..][..GEMM_NR].try_into().unwrap();
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = a[(i0 + r) * k + pc + p];
                    for (ac, &bv) in accr.iter_mut().zip(b) {
                        *ac += av * bv;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i0 + r) * n + jc + j..][..GEMM_NR].copy_from_slice(accr);
            }
            j += GEMM_NR;
        }
        while j < nb {
            let mut acc = [0.0f32; MR];
            for (r, ac) in acc.iter_mut().enumerate() {
                *ac = out[(i0 + r) * n + jc + j];
            }
            for p in 0..kb {
                let bv = panel[p * nb + j];
                for (r, ac) in acc.iter_mut().enumerate() {
                    *ac += a[(i0 + r) * k + pc + p] * bv;
                }
            }
            for (r, &ac) in acc.iter().enumerate() {
                out[(i0 + r) * n + jc + j] = ac;
            }
            j += 1;
        }
    }

    /// AVX2 tier: the same tiling as the portable path with the
    /// `MR = 4 × NR = 8` block held in four `ymm` accumulators, one
    /// `vbroadcastss` per left row and explicit `vmulps` + `vaddps` pairs
    /// per step (no FMA).
    ///
    /// # Safety
    ///
    /// Requires AVX2 (runtime-checked by [`compute_tile`]). Pointer
    /// arithmetic stays within the `a`/`out`/`panel` slices for the same
    /// index bounds the portable tier uses.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn compute_tile_avx2(
        a: &[f32],
        out: &mut [f32],
        k: usize,
        n: usize,
        m: usize,
        jc: usize,
        nb: usize,
        pc: usize,
        kb: usize,
        panel: &[f32],
    ) {
        use core::arch::x86_64::*;
        debug_assert!(m * k <= a.len() && m * n <= out.len() && kb * nb <= panel.len());
        let ap = a.as_ptr();
        let op = out.as_mut_ptr();
        let pp = panel.as_ptr();
        let mut i = 0;
        while i + GEMM_MR <= m {
            let a0 = ap.add(i * k + pc);
            let a1 = ap.add((i + 1) * k + pc);
            let a2 = ap.add((i + 2) * k + pc);
            let a3 = ap.add((i + 3) * k + pc);
            let o0 = op.add(i * n + jc);
            let o1 = op.add((i + 1) * n + jc);
            let o2 = op.add((i + 2) * n + jc);
            let o3 = op.add((i + 3) * n + jc);
            let mut j = 0;
            while j + GEMM_NR <= nb {
                let mut acc0 = _mm256_loadu_ps(o0.add(j));
                let mut acc1 = _mm256_loadu_ps(o1.add(j));
                let mut acc2 = _mm256_loadu_ps(o2.add(j));
                let mut acc3 = _mm256_loadu_ps(o3.add(j));
                let mut bp = pp.add(j);
                for p in 0..kb {
                    let b = _mm256_loadu_ps(bp);
                    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(*a0.add(p)), b));
                    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(*a1.add(p)), b));
                    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(*a2.add(p)), b));
                    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(*a3.add(p)), b));
                    bp = bp.add(nb);
                }
                _mm256_storeu_ps(o0.add(j), acc0);
                _mm256_storeu_ps(o1.add(j), acc1);
                _mm256_storeu_ps(o2.add(j), acc2);
                _mm256_storeu_ps(o3.add(j), acc3);
                j += GEMM_NR;
            }
            while j < nb {
                let mut s0 = *o0.add(j);
                let mut s1 = *o1.add(j);
                let mut s2 = *o2.add(j);
                let mut s3 = *o3.add(j);
                for p in 0..kb {
                    let bv = *pp.add(p * nb + j);
                    s0 += *a0.add(p) * bv;
                    s1 += *a1.add(p) * bv;
                    s2 += *a2.add(p) * bv;
                    s3 += *a3.add(p) * bv;
                }
                *o0.add(j) = s0;
                *o1.add(j) = s1;
                *o2.add(j) = s2;
                *o3.add(j) = s3;
                j += 1;
            }
            i += GEMM_MR;
        }
        while i < m {
            let ar = ap.add(i * k + pc);
            let or = op.add(i * n + jc);
            let mut j = 0;
            while j + GEMM_NR <= nb {
                let mut acc = _mm256_loadu_ps(or.add(j));
                let mut bp = pp.add(j);
                for p in 0..kb {
                    let b = _mm256_loadu_ps(bp);
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(*ar.add(p)), b));
                    bp = bp.add(nb);
                }
                _mm256_storeu_ps(or.add(j), acc);
                j += GEMM_NR;
            }
            while j < nb {
                let mut s = *or.add(j);
                for p in 0..kb {
                    s += *ar.add(p) * *pp.add(p * nb + j);
                }
                *or.add(j) = s;
                j += 1;
            }
            i += 1;
        }
    }

    /// Fills the `[kb, nb]` transposed panel from a packed weight tensor:
    /// `panel[p * nb + j] = values[codes[(jc + j) * k + pc + p]]`, with an
    /// AVX2 tier that widens eight `u16` codes at a time and gathers their
    /// table values (`vpmovzxwd` + `vgatherdps`).
    ///
    /// Takes the [`QTensor`] rather than raw parts because the gather's
    /// bounds safety rests on the tensor's construction invariant: every
    /// code indexes into its table (`QTensor::from_parts` asserts it,
    /// quantization produces it).
    pub(super) fn fill_panel_packed(
        qt: &QTensor,
        jc: usize,
        nb: usize,
        pc: usize,
        kb: usize,
        panel: &mut [f32],
    ) {
        let codes = qt.codes();
        let values = qt.table().values();
        let k = super::row_view(qt.shape()).1;
        #[cfg(target_arch = "x86_64")]
        if lp::simd::intrinsics_enabled() {
            // SAFETY: AVX2 runtime-checked; every code < values.len() by
            // QTensor's construction invariant.
            unsafe { fill_panel_packed_avx2(codes, values, k, jc, nb, pc, kb, panel) };
            return;
        }
        for j in 0..nb {
            let src = &codes[(jc + j) * k + pc..(jc + j) * k + pc + kb];
            for (p, &c) in src.iter().enumerate() {
                panel[p * nb + j] = values[usize::from(c)];
            }
        }
    }

    /// AVX2 tier of the packed panel fill.
    ///
    /// # Safety
    ///
    /// Requires AVX2, and every element of `codes` must be a valid index
    /// into `values` (the gather reads `values.as_ptr() + code * 4`
    /// without bounds checks).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn fill_panel_packed_avx2(
        codes: &[u16],
        values: &[f32],
        k: usize,
        jc: usize,
        nb: usize,
        pc: usize,
        kb: usize,
        panel: &mut [f32],
    ) {
        use core::arch::x86_64::*;
        debug_assert!(kb * nb <= panel.len());
        let vp = values.as_ptr();
        let pl = panel.as_mut_ptr();
        for j in 0..nb {
            let row = codes.as_ptr().add((jc + j) * k + pc);
            let mut p = 0;
            while p + 8 <= kb {
                let c = _mm_loadu_si128(row.add(p) as *const __m128i);
                let idx = _mm256_cvtepu16_epi32(c);
                let v = _mm256_i32gather_ps::<4>(vp, idx);
                let mut tmp = [0.0f32; 8];
                _mm256_storeu_ps(tmp.as_mut_ptr(), v);
                for (l, &t) in tmp.iter().enumerate() {
                    *pl.add((p + l) * nb + j) = t;
                }
                p += 8;
            }
            while p < kb {
                *pl.add(p * nb + j) = *vp.add(usize::from(*row.add(p)));
                p += 1;
            }
        }
    }
}

/// A quantized tensor stored as `u16` table codes plus the shared
/// [`DecodeTable`] that decodes them — the paper's "weights live as narrow
/// words, decoded in the datapath" storage model. 2 bytes per element
/// instead of 4, and the code buffer is `Arc`-shared: cloning (or
/// [`QTensor::reshaped`]) costs a pointer bump, so serving scenarios that
/// agree on a layer's codec key share one resident copy of its codes.
///
/// # Examples
///
/// ```
/// use dnn::tensor::{QTensor, Tensor};
/// use lp::format::LpParams;
///
/// let w = Tensor::from_vec(&[2, 4], vec![0.3, -0.7, 0.1, 0.9, -0.2, 0.4, -1.1, 0.6]);
/// let q = LpParams::clamped(8, 2, 3, 0.0);
/// let packed = QTensor::quantize(&w, &q);
/// assert_eq!(packed.shape(), &[2, 4]);
/// assert_eq!(packed.resident_bytes(), 16); // u16 codes: half of f32
/// // Decoding reproduces the fake-quantized f32 tensor exactly.
/// let mut fq = w.clone();
/// use lp::Quantizer;
/// q.quantize_slice(fq.data_mut());
/// assert_eq!(packed.dequantize().data(), fq.data());
/// ```
#[derive(Clone)]
pub struct QTensor {
    shape: Vec<usize>,
    codes: Arc<[u16]>,
    table: Arc<DecodeTable>,
}

impl fmt::Debug for QTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QTensor{:?} [{} @ {} bits]",
            self.shape,
            self.table.codec_key(),
            self.table.bits()
        )
    }
}

impl QTensor {
    /// Quantizes a dense tensor into codes through `q`'s cached decode
    /// table (`lp::codec::quantize_batch`).
    pub fn quantize<Q: Quantizer + ?Sized>(t: &Tensor, q: &Q) -> QTensor {
        let (codes, table) = codec::quantize_batch(q, t.data());
        QTensor {
            shape: t.shape().to_vec(),
            codes: codes.into(),
            table,
        }
    }

    /// Assembles a `QTensor` from parts (codes must index into `table`).
    ///
    /// # Panics
    ///
    /// Panics if the code count does not match the shape's element count
    /// or any code is out of range for the table.
    pub fn from_parts(shape: &[usize], codes: Arc<[u16]>, table: Arc<DecodeTable>) -> QTensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            codes.len(),
            "shape {shape:?} does not match code count {}",
            codes.len()
        );
        assert!(
            codes.iter().all(|&c| usize::from(c) < table.len()),
            "code out of range for decode table"
        );
        QTensor {
            shape: shape.to_vec(),
            codes,
            table,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The packed codes.
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// The decode table the codes index into.
    pub fn table(&self) -> &Arc<DecodeTable> {
        &self.table
    }

    /// Stable identity of the shared code buffer — two `QTensor`s with the
    /// same `codes_ptr` hold the *same* resident memory (used to account
    /// for cross-scenario sharing without double counting).
    pub fn codes_ptr(&self) -> usize {
        self.codes.as_ptr() as usize
    }

    /// Bytes of resident storage held by the codes (2 per element). Shared
    /// clones count the same bytes; dedupe by [`QTensor::codes_ptr`] when
    /// aggregating.
    pub fn resident_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<u16>()
    }

    /// Decodes back to a dense `f32` tensor (bit-identical to the
    /// fake-quantized copy the codes were measured from, modulo the
    /// collapsed sign of flushed zeros).
    pub fn dequantize(&self) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.table.dequantize_batch(&self.codes),
        }
    }

    /// Returns a reshaped view sharing the same codes (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(&self, shape: &[usize]) -> QTensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.codes.len(),
            "cannot reshape {:?} to {shape:?}",
            self.shape
        );
        QTensor {
            shape: shape.to_vec(),
            codes: Arc::clone(&self.codes),
            table: Arc::clone(&self.table),
        }
    }
}

/// Numerically stable softmax over the last axis of a rank-2 tensor, in
/// place.
///
/// # Panics
///
/// Panics if `t` is not rank-2.
pub fn softmax_rows(t: &mut Tensor) {
    assert_eq!(t.shape().len(), 2, "softmax_rows requires rank-2");
    let cols = t.shape()[1];
    for row in t.data.chunks_mut(cols) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_from_vec() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.data().iter().all(|&v| v == 0.0));
        let u = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(u.shape(), &[2, 2]);
        assert!(!u.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn from_vec_checks_shape() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_t_matches_matmul() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.3 - 1.0).collect());
        // Build bᵀ explicitly.
        let mut bt = Tensor::zeros(&[4, 3]);
        for i in 0..3 {
            for j in 0..4 {
                bt.data_mut()[j * 3 + i] = b.data()[i * 4 + j];
            }
        }
        let c1 = a.matmul(&b);
        let c2 = a.matmul_t(&bt);
        for (x, y) in c1.data().iter().zip(c2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_checks_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_and_mean() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![0.5, 0.5, 0.5]);
        let c = a.add(&b);
        assert_eq!(c.data(), &[1.5, 2.5, 3.5]);
        assert!((c.mean() - 2.5).abs() < 1e-6);
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::from_vec(&[4], vec![1.0, 3.0, 3.0, 2.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let mut t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        softmax_rows(&mut t);
        for row in t.data().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v > 0.0));
        }
        // Monotone: larger logits → larger probabilities.
        assert!(t.data()[2] > t.data()[1]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut t = Tensor::from_vec(&[1, 2], vec![1000.0, 1001.0]);
        softmax_rows(&mut t);
        assert!(t.data().iter().all(|v| v.is_finite()));
        assert!((t.data()[0] + t.data()[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.reshaped(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    fn pseudo_tensor(shape: &[usize], seed: f32) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..len)
                .map(|i| ((i as f32 * 0.7391 + seed).sin()) * 1.3)
                .collect(),
        )
    }

    #[test]
    fn blocked_matmul_t_is_bit_identical_to_naive() {
        // Sizes straddling the tile boundaries (KC = 128, NC = 64),
        // including degenerate m = 1 and exact-multiple shapes.
        for (m, k, n) in [
            (1usize, 300usize, 70usize),
            (5, 128, 64),
            (7, 129, 65),
            (3, 1, 1),
            (2, 257, 130),
        ] {
            let a = pseudo_tensor(&[m, k], 0.1);
            let b = pseudo_tensor(&[n, k], 0.7);
            let fast = a.matmul_t(&b);
            let naive = a.matmul_t_naive(&b);
            assert_eq!(fast.shape(), naive.shape());
            for (i, (x, y)) in fast.data().iter().zip(naive.data()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n}) elem {i}");
            }
        }
    }

    #[test]
    fn blocked_matmul_matches_matmul_t_bitwise() {
        // matmul(a, b) and matmul_t(a, bᵀ) share the kernel and must agree
        // bit-for-bit (identical panel contents, identical order).
        let (m, k, n) = (6usize, 150, 90);
        let a = pseudo_tensor(&[m, k], 0.3);
        let b = pseudo_tensor(&[k, n], 0.9);
        let mut bt = Tensor::zeros(&[n, k]);
        for i in 0..k {
            for j in 0..n {
                bt.data_mut()[j * k + i] = b.data()[i * n + j];
            }
        }
        let c1 = a.matmul(&b);
        let c2 = a.matmul_t(&bt);
        for (x, y) in c1.data().iter().zip(c2.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn packed_matmul_matches_dense_on_decoded_weights() {
        use lp::format::LpParams;
        let (m, k, n) = (9usize, 140, 70);
        let a = pseudo_tensor(&[m, k], 0.2);
        let w = pseudo_tensor(&[n, k], 0.5);
        let q = LpParams::clamped(8, 2, 3, 0.0);
        let packed = QTensor::quantize(&w, &q);
        let dense = packed.dequantize();
        let c_packed = a.matmul_t_packed(&packed);
        let c_dense = a.matmul_t(&dense);
        for (x, y) in c_packed.data().iter().zip(c_dense.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn matmul_t_reads_filter_banks_as_rows() {
        // A conv filter bank [out, in, kh, kw] multiplies as the
        // [out, in·kh·kw] matrix it already is, dense and packed.
        use lp::format::LpParams;
        let a = pseudo_tensor(&[5, 18], 0.6);
        let bank = pseudo_tensor(&[4, 2, 3, 3], 0.8);
        let (c4, c2) = (a.matmul_t(&bank), a.matmul_t(&bank.reshaped(&[4, 18])));
        for (x, y) in c4.data().iter().zip(c2.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let packed = QTensor::quantize(&bank, &LpParams::clamped(8, 2, 3, 0.0));
        let c4 = a.matmul_t_packed(&packed);
        let c2 = a.matmul_t_packed(&packed.reshaped(&[4, 18]));
        assert_eq!(c4.shape(), &[5, 4]);
        for (x, y) in c4.data().iter().zip(c2.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn qtensor_roundtrip_shares_codes_and_halves_bytes() {
        use lp::format::LpParams;
        let w = pseudo_tensor(&[8, 16], 0.4);
        let q = LpParams::clamped(8, 2, 3, 0.0);
        let packed = QTensor::quantize(&w, &q);
        assert_eq!(packed.len(), 128);
        assert_eq!(packed.resident_bytes() * 2, w.len() * 4);
        // Reshape and clone share the code buffer.
        let r = packed.reshaped(&[16, 8]);
        assert_eq!(r.codes_ptr(), packed.codes_ptr());
        assert_eq!(packed.clone().codes_ptr(), packed.codes_ptr());
        // Decoding equals in-place fake quantization.
        let mut fq = w.clone();
        use lp::Quantizer;
        q.quantize_slice(fq.data_mut());
        assert_eq!(packed.dequantize().data(), fq.data());
    }

    #[test]
    #[should_panic(expected = "does not match code count")]
    fn qtensor_from_parts_checks_shape() {
        use lp::format::LpParams;
        let q = LpParams::clamped(8, 2, 3, 0.0);
        let table = lp::Quantizer::decode_table(&q);
        let _ = QTensor::from_parts(&[3], vec![0u16; 2].into(), table);
    }
}

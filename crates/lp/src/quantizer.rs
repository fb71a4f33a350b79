//! A uniform, **batch-first** [`Quantizer`] interface over every number
//! format in this crate, plus tensor-adaptive constructors. This is the
//! abstraction the `dnn` crate uses for fake-quantized inference and the
//! `bench` crate uses for the format-comparison figures.
//!
//! The hot path is [`Quantizer::quantize_slice`], which routes through the
//! lazily-cached [`DecodeTable`] of the
//! [`crate::codec`] module — a sorted-value binary search instead of
//! per-element transcendentals. The scalar [`Quantizer::quantize`] remains
//! the semantic reference (and is what the table is measured from).

use crate::adaptivfloat::AdaptivFloat;
use crate::baselines::{FixedPoint, IntQuantizer, LnsQuantizer, MiniFloat};
use crate::codec::{self, DecodeTable};
use crate::error::LpError;
use crate::format::LpParams;
use crate::posit::PositParams;
use std::fmt;
use std::sync::Arc;

/// A quantization function with a known bit budget.
///
/// Implementors round a real value to their nearest representable value
/// ([`Quantizer::quantize`], the scalar reference path) and enumerate their
/// full value set ([`Quantizer::enumerate_values`]), from which the batch
/// path derives a cached decode table. The trait is object-safe so
/// heterogeneous format lists (as in the Fig. 5(b) comparison) can be
/// stored as `Vec<Box<dyn Quantizer + Send + Sync>>`.
pub trait Quantizer: fmt::Debug {
    /// Short human-readable format name (e.g. `"LP"`, `"Posit"`).
    fn name(&self) -> &'static str;

    /// Storage bits per element.
    fn bits(&self) -> u32;

    /// Rounds `v` to the nearest representable value (scalar reference
    /// path; the batch path is bit-identical by construction).
    fn quantize(&self, v: f64) -> f64;

    /// Every representable value of this format (order and duplicates are
    /// irrelevant; NaN entries are ignored). At most 2¹⁶ entries.
    fn enumerate_values(&self) -> Vec<f64>;

    /// Stable identity for the decode-table cache: two quantizers with the
    /// same key must quantize identically. The default derives it from the
    /// `Debug` representation, which covers every parameter field of the
    /// formats in this crate.
    fn codec_key(&self) -> String {
        format!("{}:{:?}", self.name(), self)
    }

    /// This format's decode table from the process-wide cache (built on
    /// first use).
    fn decode_table(&self) -> Arc<DecodeTable> {
        codec::cached_table(self)
    }

    /// This format's batch kernel with its setup resolved: the decode-table
    /// lookup (a formatted [`Quantizer::codec_key`] plus the global cache
    /// lock) happens here, once, so a caller quantizing many slices of one
    /// format — a batch's activations at one layer — pays it once instead
    /// of once per slice.
    ///
    /// This is the one customization point of the batch path: formats
    /// with a faster kernel than the table (INT, fixed point) override
    /// this, never [`Quantizer::quantize_slice`].
    fn slice_quantizer(&self) -> SliceQuantizer {
        SliceQuantizer::Table(self.decode_table())
    }

    /// Quantizes a slice of `f32` in place via the format's
    /// [`SliceQuantizer`] (the cached decode table unless the format
    /// overrides [`Quantizer::slice_quantizer`]).
    ///
    /// Bit-identical to mapping [`Quantizer::quantize`] over the slice,
    /// ~an order of magnitude faster for transcendental-heavy formats.
    fn quantize_slice(&self, xs: &mut [f32]) {
        self.slice_quantizer().quantize_slice(xs);
    }

    /// The pre-codec scalar path (one `quantize` call per element), kept
    /// as the benchmark baseline and for equivalence testing.
    fn quantize_slice_scalar(&self, xs: &mut [f32]) {
        for x in xs.iter_mut() {
            *x = self.quantize(f64::from(*x)) as f32;
        }
    }
}

/// A format's batch-quantization kernel, resolved once by
/// [`Quantizer::slice_quantizer`] and then applied to any number of
/// slices.
#[derive(Debug)]
pub enum SliceQuantizer {
    /// The shared decode-table path (bisected boundaries, vectorized
    /// lookup).
    Table(Arc<DecodeTable>),
    /// The table-free uniform-grid kernel of INT and fixed point:
    /// round `x / step` to an integer clamped to `±levels`.
    UniformGrid {
        /// Grid spacing.
        step: f64,
        /// Largest grid index magnitude.
        levels: f64,
    },
}

impl SliceQuantizer {
    /// Quantizes `xs` in place; bit-identical to the format's
    /// [`Quantizer::quantize_slice`].
    pub fn quantize_slice(&self, xs: &mut [f32]) {
        match self {
            SliceQuantizer::Table(table) => table.quantize_slice(xs),
            SliceQuantizer::UniformGrid { step, levels } => {
                crate::simd::uniform_grid_quantize_slice(xs, *step, *levels)
            }
        }
    }
}

impl Quantizer for LpParams {
    fn name(&self) -> &'static str {
        "LP"
    }
    fn bits(&self) -> u32 {
        self.n()
    }
    fn quantize(&self, v: f64) -> f64 {
        LpParams::quantize(self, v)
    }
    fn enumerate_values(&self) -> Vec<f64> {
        self.values().map(|(_, v)| v).collect()
    }
}

impl Quantizer for PositParams {
    fn name(&self) -> &'static str {
        "Posit"
    }
    fn bits(&self) -> u32 {
        self.n()
    }
    fn quantize(&self, v: f64) -> f64 {
        PositParams::quantize(self, v)
    }
    fn enumerate_values(&self) -> Vec<f64> {
        self.representable_values()
    }
}

impl Quantizer for AdaptivFloat {
    fn name(&self) -> &'static str {
        "AdaptivFloat"
    }
    fn bits(&self) -> u32 {
        self.n()
    }
    fn quantize(&self, v: f64) -> f64 {
        AdaptivFloat::quantize(self, v)
    }
    fn enumerate_values(&self) -> Vec<f64> {
        self.representable_values()
    }
}

impl Quantizer for IntQuantizer {
    fn name(&self) -> &'static str {
        "INT"
    }
    fn bits(&self) -> u32 {
        self.n()
    }
    fn quantize(&self, v: f64) -> f64 {
        IntQuantizer::quantize(self, v)
    }
    fn enumerate_values(&self) -> Vec<f64> {
        self.representable_values()
    }
    /// Uniform-grid fast path: a hoisted-constant divide + round + clamp
    /// per element, skipping the decode table entirely (for uniform grids
    /// the scalar arithmetic *is* the floor a lookup can only match — see
    /// ROADMAP "INT/fixed fast path"). Routed through the vectorized
    /// [`crate::simd::uniform_grid_quantize_slice`] kernel, whose both
    /// tiers keep the arithmetic term-for-term identical to
    /// [`IntQuantizer::quantize`], so this stays bit-identical to the
    /// scalar map and the table path.
    fn slice_quantizer(&self) -> SliceQuantizer {
        SliceQuantizer::UniformGrid {
            step: self.scale(),
            levels: ((1u32 << (self.n() - 1)) - 1) as f64,
        }
    }
}

impl Quantizer for FixedPoint {
    fn name(&self) -> &'static str {
        "Fixed"
    }
    fn bits(&self) -> u32 {
        self.n()
    }
    fn quantize(&self, v: f64) -> f64 {
        FixedPoint::quantize(self, v)
    }
    fn enumerate_values(&self) -> Vec<f64> {
        self.representable_values()
    }
    /// Uniform-grid fast path (see the [`IntQuantizer`] impl): the
    /// power-of-two step is hoisted out of the loop and no table is
    /// consulted, with the divide/round/clamp chain running through the
    /// vectorized [`crate::simd::uniform_grid_quantize_slice`] kernel.
    /// Bit-identical to [`FixedPoint::quantize`] by using the same
    /// arithmetic.
    fn slice_quantizer(&self) -> SliceQuantizer {
        SliceQuantizer::UniformGrid {
            step: (-f64::from(self.frac_bits())).exp2(),
            levels: ((1u32 << (self.n() - 1)) - 1) as f64,
        }
    }
}

impl Quantizer for MiniFloat {
    fn name(&self) -> &'static str {
        "Float"
    }
    fn bits(&self) -> u32 {
        self.n()
    }
    fn quantize(&self, v: f64) -> f64 {
        MiniFloat::quantize(self, v)
    }
    fn enumerate_values(&self) -> Vec<f64> {
        self.representable_values()
    }
}

impl Quantizer for LnsQuantizer {
    fn name(&self) -> &'static str {
        "LNS"
    }
    fn bits(&self) -> u32 {
        self.n()
    }
    fn quantize(&self, v: f64) -> f64 {
        LnsQuantizer::quantize(self, v)
    }
    fn enumerate_values(&self) -> Vec<f64> {
        self.representable_values()
    }
}

/// The format families compared in the paper's Fig. 5(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatKind {
    /// Logarithmic posit (this paper).
    Lp,
    /// Standard posit.
    Posit,
    /// AdaptivFloat (Tambe et al.).
    AdaptivFloat,
    /// IEEE-style minifloat.
    Float,
    /// Symmetric uniform integer.
    Int,
    /// Power-of-two fixed point.
    Fixed,
    /// Plain logarithmic number system.
    Lns,
}

impl FormatKind {
    /// All format kinds, in the order the paper plots them.
    pub const ALL: [FormatKind; 7] = [
        FormatKind::Lp,
        FormatKind::Posit,
        FormatKind::AdaptivFloat,
        FormatKind::Float,
        FormatKind::Int,
        FormatKind::Fixed,
        FormatKind::Lns,
    ];
}

impl fmt::Display for FormatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FormatKind::Lp => "LP",
            FormatKind::Posit => "Posit",
            FormatKind::AdaptivFloat => "AdaptivFloat",
            FormatKind::Float => "Float",
            FormatKind::Int => "INT",
            FormatKind::Fixed => "Fixed",
            FormatKind::Lns => "LNS",
        };
        f.write_str(s)
    }
}

/// Mean squared quantization error of `q` over (a subsample of) `data`.
fn mse_on(q: &dyn Quantizer, data: &[f32]) -> f64 {
    // Cap the evaluation cost on huge tensors; a strided subsample keeps
    // the fit deterministic.
    let stride = (data.len() / 4096).max(1);
    let mut acc = 0.0;
    let mut count = 0usize;
    for &x in data.iter().step_by(stride) {
        let d = q.quantize(f64::from(x)) - f64::from(x);
        acc += d * d;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        acc / count as f64
    }
}

/// Builds an `n`-bit quantizer of the given kind with parameters adapted to
/// `data`.
///
/// Mirroring the paper's evaluation protocol ("LPQ is utilized for
/// quantization of all data types, with modified search parameters suited
/// to each data type for a fair comparison"), each format gets a small
/// deterministic parameter search minimizing MSE on the tensor:
///
/// * **LP** — grid over `es`, `rs` and scale-factor offsets around the
///   fitted center (the full genetic search lives in the `lpq` crate);
/// * **INT** — clip-ratio search (scale as a fraction of the max);
/// * **AdaptivFloat / Float / LNS** — exponent/fraction split search;
/// * **Posit / Fixed** — `es` / fractional-bit search.
///
/// # Errors
///
/// Returns [`LpError`] when `n` is unsupported for the requested kind
/// (e.g. floats need `n ≥ 3`).
pub fn fit_quantizer(
    kind: FormatKind,
    n: u32,
    data: &[f32],
) -> Result<Box<dyn Quantizer + Send + Sync>, LpError> {
    fn pick_best(
        cands: impl IntoIterator<Item = Box<dyn Quantizer + Send + Sync>>,
        data: &[f32],
    ) -> Option<Box<dyn Quantizer + Send + Sync>> {
        cands
            .into_iter()
            .map(|q| {
                let e = mse_on(q.as_ref(), data);
                (q, e)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(q, _)| q)
    }

    Ok(match kind {
        FormatKind::Lp => {
            let sf0 = LpParams::fit_sf(data);
            let mut cands: Vec<Box<dyn Quantizer + Send + Sync>> = Vec::new();
            for es in 0..=n.saturating_sub(3).min(4) {
                for rs in 2u32.min(n - 1)..=(n - 1).min(6) {
                    for step in -8..=8 {
                        let dsf = f64::from(step) * 0.25;
                        if let Ok(p) = LpParams::new(n, es, rs, sf0 + dsf) {
                            cands.push(Box::new(p));
                        }
                    }
                }
            }
            pick_best(cands, data).ok_or(LpError::InvalidWidth { n })?
        }
        FormatKind::Posit => {
            let cands: Vec<Box<dyn Quantizer + Send + Sync>> = (0..=(n - 2).min(3))
                .filter_map(|es| PositParams::new(n, es).ok())
                .map(|p| Box::new(p) as Box<dyn Quantizer + Send + Sync>)
                .collect();
            pick_best(cands, data).ok_or(LpError::InvalidWidth { n })?
        }
        FormatKind::AdaptivFloat => {
            // Faithful to the DAC'20 design: a fixed 3-bit exponent field
            // (clamped for very narrow widths); only the *bias* adapts to
            // the tensor. This is exactly the "adapts only the dynamic
            // range" limitation the LP paper contrasts against.
            let e = 3u32.clamp(1, n - 2);
            Box::new(AdaptivFloat::for_tensor(n, e, data)?)
        }
        FormatKind::Float => {
            // Standard IEEE-style split (E4M3 at 8 bits); fixed, no
            // adaptation — the plain "Float" baseline.
            let e = (n / 2).clamp(2, 5).min(n - 1);
            Box::new(MiniFloat::new(n, e)?)
        }
        FormatKind::Int => {
            let base = IntQuantizer::for_tensor(n, data)?;
            let cands: Vec<Box<dyn Quantizer + Send + Sync>> = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
                .iter()
                .filter_map(|&clip| IntQuantizer::new(n, base.scale() * clip).ok())
                .map(|q| Box::new(q) as Box<dyn Quantizer + Send + Sync>)
                .collect();
            pick_best(cands, data).ok_or(LpError::InvalidWidth { n })?
        }
        FormatKind::Fixed => {
            let base = FixedPoint::for_tensor(n, data)?;
            let cands: Vec<Box<dyn Quantizer + Send + Sync>> = (-1..=2)
                .filter_map(|d| FixedPoint::new(n, base.frac_bits() + d).ok())
                .map(|q| Box::new(q) as Box<dyn Quantizer + Send + Sync>)
                .collect();
            pick_best(cands, data).ok_or(LpError::InvalidWidth { n })?
        }
        FormatKind::Lns => {
            let base = LnsQuantizer::for_tensor(n, data)?;
            let mut cands: Vec<Box<dyn Quantizer + Send + Sync>> = Vec::new();
            for f in 1..(n - 1).min(6) {
                for db in [-1.0, 0.0, 1.0] {
                    if let Ok(q) = LnsQuantizer::new(n, f, base.bias() + db) {
                        cands.push(Box::new(q));
                    }
                }
            }
            pick_best(cands, data).ok_or(LpError::InvalidWidth { n })?
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Vec<f32> {
        (0..512)
            .map(|i| {
                let t = i as f32 / 512.0;
                (t * 12.9898).sin() * 0.43758 // deterministic pseudo-noise
            })
            .collect()
    }

    #[test]
    fn all_kinds_fit_and_quantize() {
        let data = sample_data();
        for kind in FormatKind::ALL {
            let q = fit_quantizer(kind, 8, &data).unwrap();
            assert_eq!(q.bits(), 8, "{kind}");
            // Quantizing a representative value must stay within 25% for
            // every adapted 8-bit format on this well-behaved tensor.
            let v = 0.21f64;
            let e = (q.quantize(v) - v).abs() / v;
            assert!(e < 0.25, "{kind}: err {e}");
        }
    }

    /// Deterministic Gaussian-like sample (12-uniform sums) with a few mild
    /// outliers — the per-layer weight-distribution shape of Fig. 1(a).
    fn dnn_layer_like(count: usize, sigma: f32) -> Vec<f32> {
        let mut data: Vec<f32> = (0..count)
            .map(|i| {
                let mut s = 0.0f64;
                let mut x = (i as u64).wrapping_mul(2_654_435_761) & 0xFFFF_FFFF;
                for _ in 0..12 {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407)
                        & 0xFFFF_FFFF;
                    s += x as f64 / 4_294_967_296.0;
                }
                ((s - 6.0) as f32) * sigma
            })
            .filter(|x| x.abs() > 1e-9)
            .collect();
        // ~1% outliers at 4–8σ, as real DNN layers exhibit.
        for i in 0..count / 100 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            data.push(sign * sigma * (4.0 + 0.4 * i as f32));
        }
        data
    }

    fn rmse_of(q: &dyn Quantizer, data: &[f32]) -> f64 {
        let mut acc = 0.0;
        for &x in data {
            let v = f64::from(x);
            let d = q.quantize(v) - v;
            acc += d * d;
        }
        (acc / data.len() as f64).sqrt()
    }

    #[test]
    fn lp_adapts_better_than_flat_formats() {
        // The paper's core claim (Fig. 5(b)): on DNN-like per-layer weight
        // distributions, LP achieves the lowest RMSE at equal bit-width,
        // beating AdaptivFloat (range-adaptive only) and INT (uniform).
        let data = dnn_layer_like(2048, 0.05);
        for n in [6, 8] {
            let lp = fit_quantizer(FormatKind::Lp, n, &data).unwrap();
            let af = fit_quantizer(FormatKind::AdaptivFloat, n, &data).unwrap();
            let int = fit_quantizer(FormatKind::Int, n, &data).unwrap();
            let e_lp = rmse_of(lp.as_ref(), &data);
            let e_af = rmse_of(af.as_ref(), &data);
            let e_int = rmse_of(int.as_ref(), &data);
            assert!(
                e_lp < e_af,
                "n={n}: LP {e_lp} must beat AdaptivFloat {e_af}"
            );
            assert!(e_lp < e_int, "n={n}: LP {e_lp} must beat INT {e_int}");
        }
    }

    #[test]
    fn trait_objects_compose() {
        let data = sample_data();
        let qs: Vec<Box<dyn Quantizer + Send + Sync>> = FormatKind::ALL
            .iter()
            .map(|&k| fit_quantizer(k, 8, &data).unwrap())
            .collect();
        let names: Vec<&str> = qs.iter().map(|q| q.name()).collect();
        assert_eq!(
            names,
            [
                "LP",
                "Posit",
                "AdaptivFloat",
                "Float",
                "INT",
                "Fixed",
                "LNS"
            ]
        );
    }

    #[test]
    fn quantize_slice_default_impl() {
        let data = sample_data();
        let q = fit_quantizer(FormatKind::Lp, 8, &data).unwrap();
        let mut xs = [0.5f32, -0.3, 0.125];
        let expect: Vec<f32> = xs
            .iter()
            .map(|&x| q.quantize(f64::from(x)) as f32)
            .collect();
        q.quantize_slice(&mut xs);
        assert_eq!(xs.to_vec(), expect);
    }

    #[test]
    fn uniform_grid_fast_path_is_bit_identical() {
        // INT/Fixed resolve `slice_quantizer` to a table-free uniform-grid
        // kernel; it must agree bit-for-bit with both the scalar reference
        // map and the decode-table path on every input class.
        let mut probes: Vec<f32> = vec![
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-40, // subnormal
            f32::MAX,
            f32::MIN,
        ];
        for i in 0..4000 {
            let t = (i as f32 * 0.618_034).fract();
            let mag = (t * 40.0 - 20.0).exp2();
            probes.push(if i % 2 == 0 { mag } else { -mag });
        }
        let quantizers: Vec<Box<dyn Quantizer + Send + Sync>> = vec![
            Box::new(IntQuantizer::new(8, 0.037).unwrap()),
            Box::new(IntQuantizer::new(4, 1.5).unwrap()),
            Box::new(FixedPoint::new(8, 4).unwrap()),
            Box::new(FixedPoint::new(6, -2).unwrap()),
        ];
        for q in &quantizers {
            let mut fast = probes.clone();
            q.quantize_slice(&mut fast);
            let mut scalar = probes.clone();
            q.quantize_slice_scalar(&mut scalar);
            let table = q.decode_table();
            let mut tabled = probes.clone();
            table.quantize_slice(&mut tabled);
            for ((&x, &a), (&b, &c)) in probes.iter().zip(&fast).zip(scalar.iter().zip(&tabled)) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: fast!=scalar at {x:?}",
                    q.codec_key()
                );
                assert_eq!(
                    a.to_bits(),
                    c.to_bits(),
                    "{}: fast!=table at {x:?}",
                    q.codec_key()
                );
            }
        }
    }

    #[test]
    fn slice_quantizer_is_reusable_and_matches_scalar_map() {
        // One resolved kernel applied to several slices must equal the
        // scalar map on each — and INT/Fixed must keep their table-free
        // kernel rather than fall back to a table.
        let data = sample_data();
        let slices: [Vec<f32>; 3] = [
            vec![0.5, -0.3, 0.125, 0.0, -0.0, f32::NAN, f32::INFINITY],
            data.clone(),
            vec![1e-40, -7.5, 3.25],
        ];
        for kind in FormatKind::ALL {
            let q = fit_quantizer(kind, 8, &data).unwrap();
            let sq = q.slice_quantizer();
            assert_eq!(
                matches!(sq, SliceQuantizer::UniformGrid { .. }),
                matches!(kind, FormatKind::Int | FormatKind::Fixed),
                "{kind}"
            );
            for xs in &slices {
                let mut fast = xs.clone();
                sq.quantize_slice(&mut fast);
                let mut scalar = xs.clone();
                q.quantize_slice_scalar(&mut scalar);
                for (&a, &b) in fast.iter().zip(&scalar) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{kind}");
                }
            }
        }
    }

    #[test]
    fn display_of_kinds() {
        assert_eq!(FormatKind::Lp.to_string(), "LP");
        assert_eq!(FormatKind::Lns.to_string(), "LNS");
        assert_eq!(FormatKind::ALL.len(), 7);
    }

    #[test]
    fn low_bit_widths_still_fit() {
        let data = sample_data();
        for n in [3, 4] {
            for kind in [FormatKind::Lp, FormatKind::Posit, FormatKind::Int] {
                assert!(fit_quantizer(kind, n, &data).is_ok(), "{kind} n={n}");
            }
        }
        // n = 2 works for LP, posit and INT.
        assert!(fit_quantizer(FormatKind::Lp, 2, &data).is_ok());
        assert!(fit_quantizer(FormatKind::Int, 2, &data).is_ok());
    }
}

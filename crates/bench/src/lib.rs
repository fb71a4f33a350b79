//! Shared helpers for the per-table/figure harness binaries in `src/bin/`.
//!
//! Each binary regenerates one table or figure of the paper and prints the
//! paper's published values alongside the measured ones. Set
//! `LPQ_PRESET=paper` for the full-budget genetic search (the default
//! `quick` preset runs the same algorithm with smaller budgets).

#![forbid(unsafe_code)]

use dnn::graph::{Model, QuantScheme};
use dnn::{data, models};
use lp::format::LpParams;
use lp::quantizer::{fit_quantizer, FormatKind};
use lpq::search::{Lpq, LpqConfig, LpqResult};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fully evaluated quantization run on one model.
#[derive(Debug, Clone)]
pub struct QuantRun {
    /// Model name.
    pub model: String,
    /// Parameter-weighted average weight bits.
    pub weight_bits: f64,
    /// Average activation bits.
    pub act_bits: f64,
    /// Model size in MB.
    pub size_mb: f64,
    /// Teacher-agreement top-1 accuracy (weights + activations quantized).
    pub top1: f64,
    /// The paper's FP32 baseline.
    pub baseline: f64,
    /// Per-layer weight bit-widths (for the hardware simulator).
    pub layer_bits: Vec<u32>,
    /// The searched result (schemes, history).
    pub result: LpqResult,
}

/// Runs LPQ on a model and evaluates deployment accuracy on the
/// margin-filtered test set.
pub fn run_lpq(model: &Model, cfg: LpqConfig) -> QuantRun {
    let result = Lpq::new(model, cfg).run();
    let test = data::test_set(model);
    let teacher = data::predictions(model, &test);
    let top1 = data::quantized_accuracy(model, &result.scheme(), &test, &teacher);
    QuantRun {
        model: model.name().to_string(),
        weight_bits: result.avg_weight_bits,
        act_bits: result.avg_activation_bits,
        size_mb: result.model_size_mb,
        top1,
        baseline: model.baseline_top1(),
        layer_bits: result.best.layers.iter().map(|l| l.n).collect(),
        result,
    }
}

/// The LPQ configuration for a model: transformers use their attention
/// blocks as regeneration blocks (`block_size = 0`), CNNs use `B = 4`.
pub fn config_for(model: &Model) -> LpqConfig {
    let mut cfg = LpqConfig::from_env();
    if model.name().contains("vit")
        || model.name().contains("deit")
        || model.name().contains("swin")
    {
        cfg.block_size = 0;
        // Transformers are far more quantization-sensitive than CNNs (the
        // paper's Table 2 drops exceed Table 1's): a sharper contrastive
        // temperature makes the fitness punish representational damage
        // harder before the compression term can reward it.
        cfg.tau = 0.25;
    }
    cfg
}

/// Quantizes every layer uniformly with a fitted format of the given kind
/// and bit-width and returns the teacher-agreement top-1. Activations are
/// optionally quantized with the same format family at `act_bits`.
pub fn uniform_accuracy(model: &Model, kind: FormatKind, bits: u32, act_bits: Option<u32>) -> f64 {
    let weights = model.layer_weights();
    let mut scheme = QuantScheme::identity(model.num_quant_layers());
    for (i, w) in scheme.weights.iter_mut().enumerate() {
        let q = fit_quantizer(kind, bits, weights[i]).expect("valid fit");
        *w = Some(Arc::from(q));
    }
    if let Some(ab) = act_bits {
        // Activation quantizers fitted on calibration IRs.
        let cal: Vec<_> = data::calibration_set(model).into_iter().take(8).collect();
        let traces: Vec<_> = data::par_map(&cal, |x| model.forward_traced(x, None, true));
        for (l, a) in scheme.activations.iter_mut().enumerate() {
            let mut buf = Vec::new();
            for t in &traces {
                buf.extend_from_slice(t.irs[l].data());
            }
            let q = fit_quantizer(kind, ab, &buf).expect("valid fit");
            *a = Some(Arc::from(q));
        }
    }
    scheme_accuracy(model, &scheme)
}

/// Builds a uniform LP weight scheme at the given width with per-layer
/// fitted parameters (the LPA-8 / LPA-2 ablation rows of Table 4).
pub fn uniform_lp_scheme(model: &Model, bits: u32) -> QuantScheme {
    let weights = model.layer_weights();
    let mut scheme = QuantScheme::identity(model.num_quant_layers());
    for (i, w) in scheme.weights.iter_mut().enumerate() {
        let q = fit_quantizer(FormatKind::Lp, bits, weights[i]).expect("valid fit");
        *w = Some(Arc::from(q));
    }
    scheme
}

/// Evaluates a weight scheme's teacher-agreement top-1.
pub fn scheme_accuracy(model: &Model, scheme: &QuantScheme) -> f64 {
    let test = data::test_set(model);
    let teacher = data::predictions(model, &test);
    data::quantized_accuracy(model, scheme, &test, &teacher)
}

/// Fits one format per layer at a fixed width and returns per-layer RMSE
/// (for Fig. 5(b)).
pub fn per_layer_rmse(model: &Model, kind: FormatKind, bits: u32) -> Vec<f64> {
    model
        .layer_weights()
        .iter()
        .map(|w| {
            let q = fit_quantizer(kind, bits, w).expect("valid fit");
            let mut qd = w.to_vec();
            q.quantize_slice(&mut qd);
            lp::accuracy::rmse(w, &qd)
        })
        .collect()
}

/// Renders a crude ASCII sparkline for a numeric series.
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['1', '2', '3', '4', '5', '6', '7', '8'];
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    if !min.is_finite() || !max.is_finite() || min == max {
        return "4".repeat(values.len());
    }
    values
        .iter()
        .map(|&v| {
            let t = ((v - min) / (max - min) * 7.0).round() as usize;
            GLYPHS[t.min(7)]
        })
        .collect()
}

/// Loads a zoo model by name (re-export convenience for the binaries).
pub fn model(name: &str) -> Model {
    models::by_name(name)
}

/// Deterministic pseudo-random tensor (seeded sine series) shared by the
/// bench binaries' synthetic GEMM/serving inputs.
pub fn pseudo_tensor(shape: &[usize], seed: f32) -> dnn::Tensor {
    let len = shape.iter().product();
    dnn::Tensor::from_vec(
        shape,
        (0..len)
            .map(|i| ((i as f32 * 0.61803 + seed).sin()) * 0.8)
            .collect(),
    )
}

/// Positive-integer environment knob shared by the bench binaries:
/// `default` unless `key` parses to a positive integer.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Guard for benchmark JSON fields: a metric that is NaN, infinite, zero
/// or negative means the bench is broken (a timer that never ran, a
/// division by zero, an empty sample set) — fail the run loudly instead
/// of writing a silently-wrong artifact.
///
/// # Panics
///
/// Panics unless `value` is finite and strictly positive.
pub fn check_metric(name: &str, value: f64) {
    assert!(
        value.is_finite() && value > 0.0,
        "bench metric {name} = {value} is not finite-positive; refusing to write broken JSON"
    );
}

/// Where a bench writes its JSON artifact `name`: under `--out <dir>`
/// when the command line names one (`--out .` from the repository root
/// refreshes the committed copies), else under the workspace's
/// `target/bench/`, so smoke and local runs leave the source tree as it
/// was.
///
/// # Panics
///
/// Panics if `--out` has no value or the directory cannot be created.
pub fn artifact_path(name: &str) -> PathBuf {
    let mut args = std::env::args().skip(1);
    let mut dir = None;
    while let Some(arg) = args.next() {
        if arg == "--out" {
            dir = Some(PathBuf::from(args.next().expect("--out needs a directory")));
        }
    }
    let dir =
        dir.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench"));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("could not create {}: {e}", dir.display()));
    dir.join(name)
}

/// The quick/paper preset name currently selected by the environment.
pub fn preset_name() -> &'static str {
    match std::env::var("LPQ_PRESET").as_deref() {
        Ok("paper") => "paper",
        _ => "quick",
    }
}

/// Per-layer fitted LP parameters at a fixed width (convenience for
/// examples).
pub fn fitted_lp(model: &Model, bits: u32) -> Vec<LpParams> {
    model
        .layer_weights()
        .iter()
        .map(|w| {
            let base = LpParams::clamped(i64::from(bits), 2, 3, 0.0);
            base.with_sf(base.fit_sf_saturating(w))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shapes() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('1'));
        assert!(s.ends_with('8'));
        assert_eq!(sparkline(&[1.0, 1.0]), "44");
    }

    #[test]
    fn per_layer_rmse_has_one_entry_per_layer() {
        let m = model("deit_s");
        let r = per_layer_rmse(&m, FormatKind::Lp, 6);
        assert_eq!(r.len(), m.num_quant_layers());
        assert!(r.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn config_for_picks_blocks() {
        assert_eq!(config_for(&model("vit_b")).block_size, 0);
        assert!(config_for(&model("resnet18")).block_size > 0);
    }
}

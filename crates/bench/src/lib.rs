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

/// One model's line of a table's shape check. The reference is the best
/// printed uniform row (`(label, weight bits, top-1)`) whose weight width is
/// at least LPQ's average weight bits; LPQ passes if its top-1 is within
/// 1.0 point of that row's. With no such row, LPQ fails.
pub fn shape_check(
    model: &str,
    lpq_bits: f64,
    lpq_top1: f64,
    uniform: &[(&str, u32, f64)],
) -> String {
    let lpq = format!("LPQ MP{lpq_bits:.1} at {lpq_top1:.2}");
    let reference = uniform
        .iter()
        .filter(|(_, bits, _)| f64::from(*bits) >= lpq_bits)
        .max_by(|a, b| a.2.total_cmp(&b.2));
    match reference {
        Some((label, bits, top1)) => {
            let verdict = if lpq_top1 >= top1 - 1.0 {
                "PASS"
            } else {
                "FAIL"
            };
            format!("{verdict} {model}: {lpq} vs {label} (W{bits}) at {top1:.2}")
        }
        None => format!("FAIL {model}: {lpq}, no uniform baseline at ≥ MP{lpq_bits:.1}"),
    }
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

/// A JSON value for the bench artifacts. Numbers are stored rendered, so
/// each field picks its own precision ([`Json::fixed`]); [`Json::render`]
/// quotes strings and places the commas and indentation.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number or literal, already rendered (`12`, `0.125`, `null`).
    Raw(String),
    /// A string, escaped when rendered.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, fields in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::field`].
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// `value` with `digits` decimals, or `null` if it is not finite.
    pub fn fixed(value: f64, digits: usize) -> Self {
        Json::Raw(if value.is_finite() {
            format!("{value:.digits$}")
        } else {
            "null".to_string()
        })
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::field on a non-object: {other:?}"),
        }
        self
    }

    /// The value as pretty-printed JSON text: one object field per line,
    /// arrays of scalars on one line, and each element of an array of
    /// arrays or objects on its own line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Writes the value at indent level `depth`, or on one line if `None`.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Raw(s) => out.push_str(s),
            Json::Str(s) => quote(out, s),
            Json::Array(items) => {
                let lines = depth.filter(|_| {
                    items
                        .iter()
                        .any(|v| matches!(v, Json::Array(_) | Json::Object(_)))
                });
                write_seq(out, ['[', ']'], items.len(), lines, |out, i| {
                    items[i].write(out, None);
                });
            }
            Json::Object(fields) => write_seq(out, ['{', '}'], fields.len(), depth, |out, i| {
                let (key, value) = &fields[i];
                quote(out, key);
                out.push_str(": ");
                value.write(out, depth.map(|d| d + 1));
            }),
        }
    }
}

/// Writes `n` items between `brackets`, one per line at indent level
/// `depth + 1` or all on one line if `depth` is `None`.
fn write_seq(
    out: &mut String,
    brackets: [char; 2],
    n: usize,
    depth: Option<usize>,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(brackets[0]);
    for i in 0..n {
        match depth {
            Some(d) => {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                out.push_str(&"  ".repeat(d + 1));
            }
            None if i > 0 => out.push_str(", "),
            None => {}
        }
        item(out, i);
    }
    if let Some(d) = depth.filter(|_| n > 0) {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(brackets[1]);
}

/// Writes `s` as a quoted JSON string.
fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Raw(v.to_string())
            }
        }
    )*};
}
json_from_display!(u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Renders `json` to the artifact `name` (see [`artifact_path`]) and
/// prints where it went.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_artifact(name: &str, json: &Json) {
    let path = artifact_path(name);
    std::fs::write(&path, json.render())
        .unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
    println!("wrote {}", path.display());
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
    fn shape_check_compares_against_the_best_row_at_or_above_lpq_bits() {
        let rows = [("INT8", 8, 68.53), ("INT4", 4, 30.0), ("AF8", 8, 69.0)];
        assert_eq!(
            shape_check("m", 8.0, 55.78, &rows),
            "FAIL m: LPQ MP8.0 at 55.78 vs AF8 (W8) at 69.00"
        );
        assert!(shape_check("m", 5.2, 68.0, &rows).starts_with("PASS m:"));
        assert_eq!(
            shape_check("m", 7.9, 77.31, &[("INT6", 6, 70.0)]),
            "FAIL m: LPQ MP7.9 at 77.31, no uniform baseline at ≥ MP7.9"
        );
    }

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
    fn json_renders_nesting_commas_and_quotes() {
        let json = Json::object()
            .field("name", "a \"b\"\\\n")
            .field("n", 3usize)
            .field("x", Json::fixed(0.5, 3))
            .field("nan", Json::fixed(f64::NAN, 3))
            .field("shares", vec![1u32, 2])
            .field("empty", Json::object())
            .field(
                "rows",
                vec![
                    Json::object().field("a", 1u64).field("b", "c"),
                    Json::object(),
                ],
            )
            .field("inner", Json::object().field("k", "v"));
        assert_eq!(
            json.render(),
            "{\n  \"name\": \"a \\\"b\\\"\\\\\\u000a\",\n  \"n\": 3,\n  \"x\": 0.500,\n  \
             \"nan\": null,\n  \"shares\": [1, 2],\n  \"empty\": {},\n  \"rows\": [\n    \
             {\"a\": 1, \"b\": \"c\"},\n    {}\n  ],\n  \"inner\": {\n    \"k\": \"v\"\n  }\n}\n"
        );
    }

    #[test]
    fn config_for_picks_blocks() {
        assert_eq!(config_for(&model("vit_b")).block_size, 0);
        assert!(config_for(&model("resnet18")).block_size > 0);
    }
}

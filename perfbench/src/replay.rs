//! Benchmark-side spans and the per-layer replays of the traced run.
//!
//! Layers are measured from outside: each replay calls one public function
//! of a layer (`Model::forward_batch_quant`, `Tensor::matmul_t_packed`,
//! `DecodeTable::build`, `Quantizer::quantize_slice`) on the workload's own
//! packed models and records every call as a span. A metric is the median
//! span duration over the repetitions.

use crate::wire::{median, MAX_BATCH};
use dnn::graph::{Model, Op, QuantScheme, WeightStorage};
use dnn::Tensor;
use lp::DecodeTable;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One recorded span: a named interval and the span that enclosed it.
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// In-memory span log of one run, written out when the run ends.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span, and returns its result with the span's duration in seconds.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, f64) {
        let id = self.spans.len();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_s = self.epoch.elapsed().as_secs_f64();
        self.spans[id].end_s = end_s;
        (out, end_s - start_s)
    }

    /// Runs `f` `reps` times, each in its own span, and returns the median
    /// duration in milliseconds.
    pub fn median_ms(&mut self, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
        let mut ds: Vec<f64> = (0..reps.max(1))
            .map(|_| self.time(name, |_| f()).1 * 1e3)
            .collect();
        median(&mut ds)
    }

    /// Prints count, total and self time per span name (self time is a
    /// span's duration minus the part its child spans cover).
    pub fn print_summary(&self) {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end_s - s.start_s;
            }
        }
        let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.end_s - s.start_s;
            e.2 += s.end_s - s.start_s - child_s[i];
        }
        println!("  spans (benchmark side): name, count, total ms, self ms");
        for (name, (n, total, own)) in by_name {
            println!(
                "    {name:<44} {n:>6} {:>12.3} {:>12.3}",
                total * 1e3,
                own * 1e3
            );
        }
    }
}

/// One weighted layer's GEMM as the batched forward issues it: `rows`
/// left-hand rows per input against the layer's weights viewed as `[n, k]`.
struct Gemm {
    rows: usize,
    k: usize,
    n: usize,
    weight: WeightStorage,
}

/// The GEMM shape of every GEMM-backed weighted layer of `packed`, derived
/// from the IR shapes a capturing forward of `dense` (same graph) records.
/// Depthwise convolutions are not GEMM-backed and are left out.
fn gemm_shapes(dense: &Model, packed: &Model, input: &Tensor) -> Vec<Gemm> {
    let irs = dense.forward_traced(input, None, true).irs;
    let weighted = packed.nodes().iter().filter(|n| n.op.is_weighted());
    let mut out = Vec::new();
    for (node, ir) in weighted.zip(&irs) {
        let ws = node.op.storage().expect("weighted op has storage");
        let shape = ws.shape();
        let (n, k) = (shape[0], shape[1..].iter().product::<usize>());
        let rows = match &node.op {
            // IR [c_out, oh, ow]: one im2col row per output position.
            Op::Conv2d { .. } => ir.shape()[1] * ir.shape()[2],
            // IR [T, out] or [out].
            Op::Linear { .. } => {
                if ir.shape().len() == 2 {
                    ir.shape()[0]
                } else {
                    1
                }
            }
            // IR [T + 1, dim]: the class token is not a GEMM row.
            Op::PatchEmbed { .. } => ir.shape()[0] - 1,
            // IR [(g/2)², out].
            Op::TokenMerge { .. } => ir.shape()[0],
            _ => continue,
        };
        out.push(Gemm {
            rows,
            k,
            n,
            weight: ws.reshaped(&[n, k]),
        });
    }
    out
}

/// Per-layer replay results for one packed model.
pub struct ModelReplay {
    /// Median batch-of-1 forward, ms.
    pub forward_ms_b1: f64,
    /// Median batch-of-[`MAX_BATCH`] forward, ms.
    pub forward_ms_bmax: f64,
    /// Median summed GEMM time of one batch-of-[`MAX_BATCH`] forward, ms.
    pub gemm_ms_bmax: f64,
    /// Floating-point operations of those GEMMs.
    pub gemm_flops: f64,
    /// Bytes those GEMMs read and write, computed from tensor sizes:
    /// `f32` left-hand side and output, `u16` packed weight codes.
    pub gemm_bytes: f64,
    /// Median activation fake-quant cost, ns per element.
    pub act_quant_ns_per_elem: f64,
}

/// Replays one packed model's forward, GEMMs and activation quantization.
pub fn replay_model(
    spans: &mut Spans,
    label: &str,
    dense: &Model,
    packed: &Model,
    scheme: &QuantScheme,
    inputs: &[Tensor],
    reps: usize,
) -> ModelReplay {
    let bmax = MAX_BATCH;
    let batch: Vec<Tensor> = inputs.iter().cycle().take(bmax).cloned().collect();
    // Untimed: the first pass may still build decode tables.
    black_box(packed.forward_batch_quant(&batch, Some(scheme)));
    let forward_ms_b1 = spans.median_ms(&format!("graph.forward_b1/{label}"), reps, || {
        black_box(packed.forward_batch_quant(&batch[..1], Some(scheme)));
    });
    let forward_ms_bmax = spans.median_ms(&format!("graph.forward_bmax/{label}"), reps, || {
        black_box(packed.forward_batch_quant(&batch, Some(scheme)));
    });

    let gemms = gemm_shapes(dense, packed, &batch[0]);
    let lhs: Vec<Tensor> = gemms
        .iter()
        .map(|g| pseudo_tensor(&[g.rows * bmax, g.k]))
        .collect();
    let mut totals = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let (_, s) = spans.time(format!("tensor.gemm_bmax/{label}"), |sp| {
            for (g, x) in gemms.iter().zip(&lhs) {
                sp.time("tensor.matmul_t_packed", |_| match &g.weight {
                    WeightStorage::Packed(q) => black_box(x.matmul_t_packed(q)),
                    WeightStorage::Dense(w) => black_box(x.matmul_t(w)),
                });
            }
        });
        totals.push(s * 1e3);
    }
    let gemm_ms_bmax = median(&mut totals);
    let (mut flops, mut bytes) = (0.0, 0.0);
    for g in &gemms {
        let m = (g.rows * bmax) as f64;
        let (k, n) = (g.k as f64, g.n as f64);
        flops += 2.0 * m * k * n;
        let weight_bytes = if g.weight.is_packed() { 2.0 } else { 4.0 };
        bytes += 4.0 * m * k + weight_bytes * n * k + 4.0 * m * n;
    }

    let irs = packed.forward_traced(&batch[0], None, true).irs;
    let elems: usize = irs.iter().map(Tensor::len).sum();
    let ms = spans.median_ms(&format!("codec.act_quant/{label}"), reps, || {
        for (ir, q) in irs.iter().zip(&scheme.activations) {
            if let Some(q) = q {
                let mut x = ir.data().to_vec();
                q.quantize_slice(&mut x);
                black_box(x);
            }
        }
    });
    ModelReplay {
        forward_ms_b1,
        forward_ms_bmax,
        gemm_ms_bmax,
        gemm_flops: flops,
        gemm_bytes: bytes,
        act_quant_ns_per_elem: ms * 1e6 / elems.max(1) as f64,
    }
}

/// Median time to build the decode table of every distinct format in
/// `schemes` (weights and activations), ms.
pub fn replay_table_builds(spans: &mut Spans, schemes: &[&QuantScheme], reps: usize) -> f64 {
    let mut formats: BTreeMap<String, &(dyn lp::Quantizer + Send + Sync)> = BTreeMap::new();
    for s in schemes {
        for q in s.weights.iter().chain(&s.activations).flatten() {
            formats.entry(q.codec_key()).or_insert(q.as_ref());
        }
    }
    spans.median_ms("codec.table_build_all", reps, || {
        for q in formats.values() {
            black_box(DecodeTable::build(*q));
        }
    })
}

/// Adds the metrics of several replayed models, averaged so each
/// registration counts once (requests are spread evenly over them).
pub fn report_replays(report: &mut crate::report::Report, replays: &[ModelReplay]) {
    let n = replays.len().max(1) as f64;
    let mean = |f: fn(&ModelReplay) -> f64| replays.iter().map(f).sum::<f64>() / n;
    let gemm_ms = mean(|r| r.gemm_ms_bmax);
    let forward_ms = mean(|r| r.forward_ms_bmax);
    report.set("graph.forward_ms_b1", mean(|r| r.forward_ms_b1));
    report.set("graph.forward_ms_bmax", forward_ms);
    report.set("graph.non_gemm_ms_bmax", forward_ms - gemm_ms);
    report.set("tensor.gemm_ms_bmax", gemm_ms);
    report.set(
        "tensor.gemm_gflops",
        mean(|r| r.gemm_flops) / (gemm_ms * 1e-3) / 1e9,
    );
    report.set("tensor.bytes_moved", mean(|r| r.gemm_bytes));
    report.set(
        "codec.act_quant_ns_per_elem",
        mean(|r| r.act_quant_ns_per_elem),
    );
    report.set("codec.tables", lp::codec::cached_table_count() as f64);
    // The split is a definition, so the sum check guards the arithmetic;
    // the GEMM replay exceeding the whole forward would mean the replayed
    // shapes do not match the forward's.
    report.check(
        "layer sum: tensor.gemm_ms_bmax + graph.non_gemm_ms_bmax == graph.forward_ms_bmax",
        ((gemm_ms + (forward_ms - gemm_ms)) - forward_ms).abs() <= 1e-9 * forward_ms,
    );
    report.check(
        "layer sum: tensor.gemm_ms_bmax <= graph.forward_ms_bmax",
        gemm_ms <= forward_ms,
    );
}

/// A deterministic dense tensor of the given shape (replay inputs only).
fn pseudo_tensor(shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..len)
            .map(|i| ((i as f32 * 0.618_034).sin()) * 0.8)
            .collect(),
    )
}

//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared once in [`END_TO_END`]
//! or [`PER_LAYER`], with its unit, its better direction and, for a
//! per-layer metric, the end-to-end metric (and workload) it is expected
//! to move. `BENCHMARK.json` at the repository root is rendered from these
//! tables (`--emit-benchmark-json`) and the benchmark's own test checks the
//! committed file against them, so the two cannot drift.

use std::collections::HashMap;
use std::fmt::Write as _;

/// One named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// deit_s served over TCP under two quantization scenarios.
    VitWire,
    /// resnet18 and mobilenetv2 served over TCP, requests alternating.
    CnnWire,
    /// The LPQ genetic search on resnet18, in process.
    LpqSearch,
    /// A 64-byte echo registration over TCP.
    EdgeEcho,
}

use Workload::{CnnWire, EdgeEcho, LpqSearch, VitWire};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [VitWire, CnnWire, LpqSearch, EdgeEcho];

const WIRE: &[Workload] = &[VitWire, CnnWire, EdgeEcho];
const MODELS: &[Workload] = &[VitWire, CnnWire, LpqSearch];
const SERVED: &[Workload] = &[VitWire, CnnWire];
const ALL: &[Workload] = &WORKLOADS;

impl Workload {
    /// The name passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            VitWire => "vit_wire",
            CnnWire => "cnn_wire",
            LpqSearch => "lpq_search",
            EdgeEcho => "edge_echo",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            VitWire => {
                "deit_s over TCP, per-layer LP8 and mixed 4/8-bit scenarios: non-GEMM ops \
                 (GELU, attention) dominate the forward and batching barely amortizes them"
            }
            CnnWire => {
                "resnet18 and mobilenetv2 over TCP, requests alternating: conv GEMM and \
                 depthwise conv, batching amortizes, the scheduler rotates two registrations"
            }
            LpqSearch => {
                "LPQ quick search on resnet18 with no server or socket: traced forwards, \
                 fake-quant weights, codec, contrastive fitness and pool fan-out"
            }
            EdgeEcho => {
                "64-byte echo over TCP with no model, so the network edge and the \
                 admission/queue/completion path dominate and model changes should not show"
            }
        }
    }

    /// Parses a `--workload` argument.
    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, failures).
    Lower,
    /// Larger is better (rates, counts of useful work, accuracy).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric declaration.
#[derive(Debug)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Per-layer metrics: the end-to-end metric and workload it should
    /// move.
    pub target: &'static str,
    /// Workloads that exercise the metric; the others print 0.
    pub on: &'static [Workload],
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        target: "",
        on: ALL,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [Workload],
    target: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        target,
        on,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured on the untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_rps", "1/s", Higher, 0.2),
    e2e("latency_p50_ms", "ms", Lower, 0.2),
    e2e("latency_p99_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("quant_top1", "%", Higher, 0.05),
];

/// Per-layer metrics, measured on the traced run (`--trace 1`).
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    layer("traced.throughput_rps", "1/s", Higher, ALL,
          "tracing overhead: compare with throughput_rps of the untraced run"),
    layer("net.edge_ms_mean", "ms", Lower, WIRE,
          "latency_p50_ms and throughput_rps on edge_echo; no visible effect on vit_wire or cnn_wire"),
    layer("net.frames_in", "count", Higher, WIRE, "throughput_rps on edge_echo"),
    layer("net.frames_out", "count", Higher, WIRE, "throughput_rps on edge_echo"),
    layer("net.bytes_per_req", "B", Lower, WIRE, "latency_p50_ms on edge_echo"),
    layer("net.inflight_rejections", "count", Lower, WIRE, "throughput_rps on edge_echo"),
    layer("server.queue_wait_ms_p50", "ms", Lower, WIRE,
          "latency_p99_ms on vit_wire and cnn_wire (queue wait rises before throughput stalls)"),
    layer("server.queue_wait_ms_p99", "ms", Lower, WIRE, "latency_p99_ms on vit_wire and cnn_wire"),
    layer("server.service_ms_p50", "ms", Lower, WIRE, "throughput_rps on vit_wire and cnn_wire"),
    layer("server.delivery_ms_p50", "ms", Lower, WIRE, "latency_p50_ms on edge_echo"),
    layer("server.batch_mean", "count", Higher, WIRE, "throughput_rps on cnn_wire"),
    layer("server.batch_fill", "ratio", Higher, WIRE, "throughput_rps on cnn_wire"),
    layer("server.shed_total", "count", Lower, WIRE, "throughput_rps on every wire workload"),
    layer("server.passed_over", "count", Lower, WIRE, "latency_p99_ms on cnn_wire"),
    layer("pool.executed", "count", Higher, ALL, "cpu_ms_per_op on edge_echo and lpq_search"),
    layer("pool.steal_success", "ratio", Higher, ALL, "cpu_ms_per_op on edge_echo and lpq_search"),
    layer("pool.parks_per_task", "ratio", Lower, ALL, "cpu_ms_per_op on edge_echo and lpq_search"),
    layer("setup.model_build_ms", "ms", Lower, MODELS, "setup_s on vit_wire and cnn_wire"),
    layer("setup.fit_ms", "ms", Lower, SERVED, "setup_s on vit_wire and cnn_wire"),
    layer("setup.pack_ms", "ms", Lower, SERVED, "setup_s and peak_rss_mb on vit_wire and cnn_wire"),
    layer("setup.expected_ms", "ms", Lower, ALL,
          "setup_s on every workload (reference outputs the checks compare against)"),
    layer("setup.edge_start_ms", "ms", Lower, WIRE, "setup_s on vit_wire and cnn_wire"),
    layer("setup.warmup_ms", "ms", Lower, WIRE, "setup_s on vit_wire and cnn_wire"),
    layer("serving.resident_weight_bytes", "B", Lower, SERVED,
          "peak_rss_mb on vit_wire and cnn_wire"),
    layer("serving.weight_cache_reuse", "ratio", Higher, SERVED,
          "setup_s and peak_rss_mb on vit_wire and cnn_wire"),
    layer("graph.forward_ms_b1", "ms", Lower, MODELS, "throughput_rps on vit_wire"),
    layer("graph.forward_ms_bmax", "ms", Lower, MODELS, "throughput_rps on vit_wire"),
    layer("graph.non_gemm_ms_bmax", "ms", Lower, MODELS, "throughput_rps on vit_wire"),
    layer("tensor.gemm_ms_bmax", "ms", Lower, MODELS, "throughput_rps on cnn_wire"),
    layer("tensor.gemm_gflops", "GFLOP/s", Higher, MODELS, "throughput_rps on cnn_wire"),
    layer("tensor.bytes_moved", "B", Lower, MODELS,
          "throughput_rps on cnn_wire (computed from tensor sizes, not measured)"),
    layer("codec.table_build_ms", "ms", Lower, MODELS, "setup_s on vit_wire"),
    layer("codec.tables", "count", Lower, MODELS, "setup_s on vit_wire"),
    layer("codec.act_quant_ns_per_elem", "ns", Lower, MODELS, "throughput_rps on lpq_search"),
    layer("lpq.new_ms", "ms", Lower, &[LpqSearch], "setup_s on lpq_search"),
    layer("lpq.evaluate_ms", "ms", Lower, &[LpqSearch], "throughput_rps on lpq_search"),
    layer("lpq.quantize_weights_ms", "ms", Lower, &[LpqSearch], "throughput_rps on lpq_search"),
    layer("lpq.calib_forward_ms", "ms", Lower, &[LpqSearch], "throughput_rps on lpq_search"),
    layer("lpq.fitness_ms", "ms", Lower, &[LpqSearch], "throughput_rps on lpq_search"),
    layer("lpq.evaluations", "count", Higher, &[LpqSearch], "throughput_rps on lpq_search"),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Renders `BENCHMARK.json` from the registry.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    s.push_str("  ],\n");
    for (key, defs, last) in [
        ("end_to_end", END_TO_END, false),
        ("per_layer", PER_LAYER, true),
    ] {
        let _ = writeln!(s, "  \"{key}\": [");
        for (i, d) in defs.iter().enumerate() {
            let comma = if i + 1 < defs.len() { "," } else { "" };
            let bound = d
                .bound
                .map(|b| format!(", \"bound\": {b}"))
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}{comma}",
                d.name,
                d.unit,
                d.better.as_str()
            );
        }
        s.push_str(if last { "  ]\n" } else { "  ],\n" });
    }
    s.push_str("}\n");
    s
}

/// What one run measured: op counts, named checks and metric values.
pub struct Report {
    workload: Workload,
    traced: bool,
    /// Ops the run attempted (every request sent, or every candidate
    /// evaluation), warm-up included.
    pub attempted: u64,
    /// Attempted ops that failed: a non-Ok status or an output that differs
    /// from the expected one.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    values: HashMap<&'static str, f64>,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: Workload, traced: bool) -> Report {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            values: HashMap::new(),
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Records one metric value. Setting a metric the current mode does not
    /// print is allowed (and ignored at output), so workload code measures
    /// without branching on the mode.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    /// A value recorded with [`Report::set`].
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a named invariant check; any failed check makes the result
    /// incorrect.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Adds `n` attempted ops of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Prints the human-readable lines and returns the result line.
    ///
    /// # Errors
    ///
    /// A metric this workload exercises was never set, or is not finite —
    /// a broken measurement, reported instead of printed as a number.
    pub fn finish(&self) -> Result<String, String> {
        let defs = if self.traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let exercised = d.on.contains(&self.workload);
            let value = match (exercised, self.values.get(d.name)) {
                (true, Some(&v)) if v.is_finite() => v,
                (true, Some(&v)) => return Err(format!("metric {} is {v}", d.name)),
                (true, None) => return Err(format!("metric {} was not measured", d.name)),
                (false, _) => 0.0,
            };
            let note = if !exercised {
                "  (not exercised by this workload)".to_string()
            } else if self.traced {
                format!("  -> {}", d.target)
            } else {
                String::new()
            };
            println!("  {:<32} {value:>16.6} {:<8}{note}", d.name, d.unit);
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        for (name, ok) in &self.checks {
            println!("  check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        let correct = self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok);
        println!(
            "  ops attempted {}, succeeded {}, failed {}",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
        if self.attempted == 0 {
            return Err("no op was attempted".into());
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

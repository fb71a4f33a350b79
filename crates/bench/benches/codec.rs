//! Codec benchmarks: the software cost of the quantization pipeline.
//!
//! Two layers:
//!
//! 1. criterion-style microbenches of the raw encode/decode primitives;
//! 2. the headline scalar-vs-table comparison — `quantize_slice` on a
//!    layer-sized tensor for every 8-bit format, scalar reference path vs
//!    the `lp::codec` decode-table path vs the production batch dispatch
//!    (vectorized table path; SIMD uniform-grid override for INT/Fixed) —
//!    written to `BENCH_codec.json` so the perf trajectory is
//!    machine-trackable across PRs.
//!
//! Run with `cargo bench --bench codec`. The JSON goes under
//! `target/bench/`; `cargo bench --bench codec -- --out ../..` refreshes
//! the committed copy (cargo runs benches from the package directory).
//! `CODEC_BENCH_ELEMS` sets the
//! comparison tensor size (default 1,000,000; CI smoke runs use a small
//! value so the gate is correctness + metric sanity, not throughput).
//! `LP_PORTABLE_KERNELS=1` forces the portable tier; the JSON records
//! which tier ran in `kernel_tier`.

use bench::Json;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lp::adaptivfloat::AdaptivFloat;
use lp::baselines::{FixedPoint, IntQuantizer, LnsQuantizer, MiniFloat};
use lp::format::LpParams;
use lp::posit::PositParams;
use lp::Quantizer;
use std::time::Instant;

fn values() -> Vec<f64> {
    (0..1024)
        .map(|i| ((i as f64) * 0.37).sin() * 4.0 + 0.001)
        .collect()
}

fn bench_codecs(c: &mut Criterion) {
    let vs = values();
    let lp = LpParams::new(8, 2, 3, 0.25).unwrap();
    c.bench_function("lp8_encode_1k", |b| {
        b.iter(|| {
            for &v in &vs {
                black_box(lp.encode(black_box(v)));
            }
        })
    });
    let words: Vec<_> = vs.iter().map(|&v| lp.encode(v)).collect();
    c.bench_function("lp8_decode_1k", |b| {
        b.iter(|| {
            for &w in &words {
                black_box(lp.decode(black_box(w)));
            }
        })
    });
    let fs: Vec<f32> = vs.iter().map(|&v| v as f32).collect();
    let table = lp.decode_table();
    c.bench_function("lp8_table_quantize_1k", |b| {
        b.iter(|| {
            let mut buf = fs.clone();
            table.quantize_slice(black_box(&mut buf));
            black_box(buf)
        })
    });
    let posit = PositParams::new(8, 2).unwrap();
    c.bench_function("posit8_quantize_1k", |b| {
        b.iter(|| {
            for &v in &vs {
                black_box(posit.quantize(black_box(v)));
            }
        })
    });
    let af = AdaptivFloat::new(8, 3, 2).unwrap();
    c.bench_function("adaptivfloat8_quantize_1k", |b| {
        b.iter(|| {
            for &v in &vs {
                black_box(af.quantize(black_box(v)));
            }
        })
    });
    let int = IntQuantizer::new(8, 0.05).unwrap();
    c.bench_function("int8_quantize_1k", |b| {
        b.iter(|| {
            for &v in &vs {
                black_box(int.quantize(black_box(v)));
            }
        })
    });
}

/// One scalar-vs-table-vs-batch measurement on `n` elements. "Batch" is
/// the production `Quantizer::quantize_slice` dispatch: the decode table
/// for most formats, the table-free scalar kernel for the uniform-grid
/// INT/Fixed overrides.
struct Comparison {
    format: String,
    scalar_elems_per_s: f64,
    table_elems_per_s: f64,
    batch_elems_per_s: f64,
    /// Tail latency of the batch path across repetitions, in seconds per
    /// pass (p50/p99 over per-rep wall clock; see `criterion::BenchStats`).
    batch_p50_s: f64,
    batch_p99_s: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.table_elems_per_s / self.scalar_elems_per_s
    }

    fn batch_speedup(&self) -> f64 {
        self.batch_elems_per_s / self.scalar_elems_per_s
    }
}

/// Times `f` over `reps` runs and returns each run's wall-clock seconds.
fn timed_seconds(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Best (minimum) of `reps` timed runs.
fn best_seconds(reps: usize, f: impl FnMut()) -> f64 {
    timed_seconds(reps, f)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

fn comparison_tensor() -> Vec<f32> {
    // A DNN-layer-like magnitude profile: bulk near ±0.05, mild outliers.
    let n = bench::env_usize("CODEC_BENCH_ELEMS", 1_000_000);
    (0..n)
        .map(|i| {
            let t = (i as f32 * 0.618_034).fract() - 0.5;
            let outlier = if i % 97 == 0 { 8.0 } else { 1.0 };
            t * 0.1 * outlier
        })
        .collect()
}

fn compare_paths(c: &mut Criterion) {
    let xs = comparison_tensor();
    let quantizers: Vec<Box<dyn Quantizer + Send + Sync>> = vec![
        Box::new(LpParams::new(8, 2, 3, 4.25).unwrap()),
        Box::new(PositParams::new(8, 2).unwrap()),
        Box::new(AdaptivFloat::for_tensor(8, 3, &xs).unwrap()),
        Box::new(MiniFloat::new(8, 4).unwrap()),
        Box::new(IntQuantizer::new(8, 0.005).unwrap()),
        Box::new(FixedPoint::new(8, 8).unwrap()),
        Box::new(LnsQuantizer::new(8, 3, 4.0).unwrap()),
    ];
    let n = xs.len();
    // Each measured pass must start from unquantized input; restore by
    // memcpy into a preallocated buffer and subtract the measured cost of
    // that restore so the recorded rates are for quantization alone.
    let mut buf = xs.clone();
    let restore = best_seconds(5, || {
        buf.copy_from_slice(black_box(&xs));
        black_box(&buf);
    });
    let mut rows = Vec::new();
    println!();
    println!(
        "{:<14} {:>16} {:>16} {:>16} {:>9} {:>9}",
        "format", "scalar Melem/s", "table Melem/s", "batch Melem/s", "tbl-spd", "bat-spd"
    );
    for q in &quantizers {
        // Warm the table outside the timed region (builds are amortized by
        // the process-wide cache in real use).
        let table = q.decode_table();
        let scalar_s = best_seconds(3, || {
            buf.copy_from_slice(&xs);
            q.quantize_slice_scalar(black_box(&mut buf));
            black_box(&buf);
        }) - restore;
        let table_s = best_seconds(3, || {
            buf.copy_from_slice(&xs);
            table.quantize_slice(black_box(&mut buf));
            black_box(&buf);
        }) - restore;
        // The production dispatch (fast-path override for INT/Fixed).
        // 1 + 100 reps with the first (cold) pass discarded: nearest-rank
        // p99 over 100 warm samples is a real tail, not just the max.
        let batch_samples_ns: Vec<f64> = timed_seconds(101, || {
            buf.copy_from_slice(&xs);
            q.quantize_slice(black_box(&mut buf));
            black_box(&buf);
        })
        .into_iter()
        .skip(1)
        .map(|s| (s - restore).max(1e-9) * 1e9)
        .collect();
        let batch_stats =
            criterion::BenchStats::from_ns_samples(&batch_samples_ns).expect("nonempty samples");
        let batch_s = batch_samples_ns
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b))
            / 1e9;
        let row = Comparison {
            format: q.name().to_string(),
            scalar_elems_per_s: n as f64 / scalar_s.max(1e-9),
            table_elems_per_s: n as f64 / table_s.max(1e-9),
            batch_elems_per_s: n as f64 / batch_s.max(1e-9),
            batch_p50_s: batch_stats.p50_ns / 1e9,
            batch_p99_s: batch_stats.p99_ns / 1e9,
        };
        println!(
            "{:<14} {:>16.1} {:>16.1} {:>16.1} {:>8.2}x {:>8.2}x",
            row.format,
            row.scalar_elems_per_s / 1e6,
            row.table_elems_per_s / 1e6,
            row.batch_elems_per_s / 1e6,
            row.speedup(),
            row.batch_speedup()
        );
        rows.push(row);
    }
    write_json(&rows, n);
    // Also register the LP comparison with criterion so it shows up in the
    // standard bench listing.
    let lp = LpParams::new(8, 2, 3, 4.25).unwrap();
    let table = lp.decode_table();
    c.bench_function("lp8_scalar_quantize_1M", |b| {
        b.iter(|| {
            buf.copy_from_slice(&xs);
            lp.quantize_slice_scalar(black_box(&mut buf));
            black_box(buf.len())
        })
    });
    c.bench_function("lp8_table_quantize_1M", |b| {
        b.iter(|| {
            buf.copy_from_slice(&xs);
            table.quantize_slice(black_box(&mut buf));
            black_box(buf.len())
        })
    });
}

/// Writes `BENCH_codec.json`.
fn write_json(rows: &[Comparison], elements: usize) {
    // Headline gate for the vectorized uniform-grid override: the worse of
    // INT and Fixed batch throughput relative to its scalar baseline. The
    // table formats already clear scalar by an order of magnitude; these
    // two only win through the SIMD fast path, so this is the metric that
    // regresses first.
    let int_fixed_batch_speedup = rows
        .iter()
        .filter(|r| r.format == "INT" || r.format == "Fixed")
        .map(Comparison::batch_speedup)
        .fold(f64::INFINITY, f64::min);
    bench::check_metric("int_fixed_batch_speedup", int_fixed_batch_speedup);
    let formats: Vec<Json> = rows
        .iter()
        .map(|r| {
            bench::check_metric("batch_speedup", r.batch_speedup());
            Json::object()
                .field("format", r.format.as_str())
                .field("scalar", Json::fixed(r.scalar_elems_per_s, 0))
                .field("table", Json::fixed(r.table_elems_per_s, 0))
                .field("batch", Json::fixed(r.batch_elems_per_s, 0))
                .field("speedup", Json::fixed(r.speedup(), 3))
                .field("batch_speedup", Json::fixed(r.batch_speedup(), 3))
                .field("batch_pass_p50_s", Json::fixed(r.batch_p50_s, 6))
                .field("batch_pass_p99_s", Json::fixed(r.batch_p99_s, 6))
        })
        .collect();
    let json = Json::object()
        .field("elements", elements)
        .field("unit", "elements_per_second")
        .field("kernel_tier", lp::simd::kernel_tier())
        .field(
            "int_fixed_batch_speedup",
            Json::fixed(int_fixed_batch_speedup, 3),
        )
        .field("formats", formats);
    println!();
    bench::write_artifact("BENCH_codec.json", &json);
}

criterion_group!(benches, bench_codecs, compare_paths);
criterion_main!(benches);

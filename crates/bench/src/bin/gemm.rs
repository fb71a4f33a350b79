//! GEMM kernel benchmark: the naive dot-product loop vs the
//! register-tiled microkernel (the production `matmul_t`) vs the packed
//! (code-decoding) kernel, a batch-amortization study, the im2col fill
//! that feeds the convolution GEMMs and the depthwise convolution kernel,
//! writing `BENCH_gemm.json` under `target/bench/` (or the directory given
//! as `--out <dir>`).
//!
//! Four questions this answers with numbers:
//!
//! 1. **Kernel tier** — what the cache-blocked, register-tiled (and, when
//!    the CPU has AVX2, intrinsics-vectorized) microkernel gains over the
//!    naive dot-product oracle on a square layer-sized product, and what
//!    decoding packed codes inside it costs. The `kernel_tier` field
//!    records which dispatch tier actually ran (`avx2` or `portable`).
//! 2. **Batch amortization** — what stacking a serving micro-batch into
//!    one GEMM buys at batch 1/2/4/16, dense and packed: the per-panel
//!    weight transpose/decode is paid once per batch instead of once per
//!    input, which is the `forward_batch` win on rank-1 layers. At batch
//!    1 the packed kernel pays its whole decode for a single matvec.
//! 3. **im2col fill** — what `dnn::graph::im2col` costs per operand
//!    element at B=8 on every resnet18 conv shape, on mobilenetv2's
//!    pointwise shapes and on deit_s's patch embedding, each checked bit
//!    for bit against `im2col_oracle` first.
//! 4. **Depthwise convolution** — what `dnn::graph::dwconv2d` costs at
//!    B=8 on each of mobilenetv2's depthwise shapes, with packed LP8
//!    weights as served, per call and per in-bounds multiply-add, each
//!    checked bit for bit against `dwconv2d_oracle` first; and the sum
//!    over all 13 depthwise layers of one forward.
//!
//! Environment knobs: `GEMM_BENCH_SIZE` (square size, default 256),
//! `GEMM_BENCH_DIM` (batch-study layer width, default 512),
//! `GEMM_BENCH_REPS` (best-of repetitions, default 5), `GEMM_BENCH_ITERS`
//! (timed iterations per rep in the batch study, default 20). Set
//! `LP_PORTABLE_KERNELS=1` to force the portable tier. CI runs the smoke
//! configuration (tiny sizes); defaults produce the README numbers.

use bench::{check_metric, Json};
use dnn::graph::{dwconv2d, dwconv2d_oracle, im2col, im2col_oracle};
use dnn::tensor::{QTensor, Tensor};
use lp::format::LpParams;
use std::time::Instant;

/// The im2col window shapes timed in part 3, as `(c, h, w, k, stride,
/// pad)`: an image `[c, h, w]` under a `k × k` kernel. Rows 1–8 are
/// resnet18's 3×3 convs, rows 9–11 its strided 1×1 downsample skips,
/// rows 12–14 mobilenetv2's pointwise 1×1 convs, and the last deit_s's
/// 4×4 patch embedding.
const FILL_SHAPES: [(usize, usize, usize, usize, usize, usize); 15] = [
    (3, 16, 16, 3, 1, 1),
    (8, 16, 16, 3, 1, 1),
    (8, 16, 16, 3, 2, 1),
    (16, 8, 8, 3, 1, 1),
    (16, 8, 8, 3, 2, 1),
    (32, 4, 4, 3, 1, 1),
    (32, 4, 4, 3, 2, 1),
    (64, 2, 2, 3, 1, 1),
    (8, 16, 16, 1, 2, 0),
    (16, 8, 8, 1, 2, 0),
    (32, 4, 4, 1, 2, 0),
    (8, 16, 16, 1, 1, 0),
    (32, 8, 8, 1, 1, 0),
    (64, 2, 2, 1, 1, 0),
    (3, 16, 16, 4, 4, 0),
];

/// mobilenetv2's depthwise layers timed in part 4, as `(c, h, w, stride,
/// layers)`: an image `[c, h, w]` under a 3×3 kernel with padding 1, and
/// how many of the model's 13 depthwise layers have that shape.
const DW_SHAPES: [(usize, usize, usize, usize, usize); 9] = [
    (8, 16, 16, 1, 1),
    (32, 16, 16, 2, 1),
    (48, 8, 8, 1, 1),
    (48, 8, 8, 2, 1),
    (64, 4, 4, 1, 2),
    (64, 4, 4, 2, 1),
    (96, 2, 2, 1, 3),
    (128, 2, 2, 1, 2),
    (192, 2, 2, 1, 1),
];

/// In-bounds taps summed over the outputs along one axis: `n` inputs
/// under a `k`-tap kernel at `stride` with `pad` zeros on each border.
fn axis_taps(n: usize, k: usize, stride: usize, pad: usize) -> usize {
    let outs = (n + 2 * pad - k) / stride + 1;
    (0..outs)
        .map(|o| {
            (0..k)
                .filter(|&t| (o * stride + t).checked_sub(pad).is_some_and(|i| i < n))
                .count()
        })
        .sum()
}

/// The bit patterns of `v`, for exact comparison against an oracle.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Best-of-`reps` wall time of `f`, with the result kept live.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(r);
    }
    best
}

fn main() {
    let size = bench::env_usize("GEMM_BENCH_SIZE", 256);
    let dim = bench::env_usize("GEMM_BENCH_DIM", 512);
    let reps = bench::env_usize("GEMM_BENCH_REPS", 5);
    let iters = bench::env_usize("GEMM_BENCH_ITERS", 20);

    // ------------------------------------------------------------------
    // Part 1: kernel comparison on a size³ product.
    // ------------------------------------------------------------------
    let a = bench::pseudo_tensor(&[size, size], 0.1);
    let bt = bench::pseudo_tensor(&[size, size], 0.7); // [N,K] layout for matmul_t
    let q = LpParams::clamped(8, 2, 3, 0.0);
    let packed = QTensor::quantize(&bt, &q);
    let dequant = packed.dequantize();

    // Correctness gates before timing: the microkernel must be
    // bit-identical to the naive kernel, and the packed kernel to the
    // dense kernel over the decoded weights.
    assert_eq!(
        a.matmul_t(&bt).data(),
        a.matmul_t_naive(&bt).data(),
        "microkernel diverged from naive"
    );
    assert_eq!(
        a.matmul_t_packed(&packed).data(),
        a.matmul_t(&dequant).data(),
        "packed kernel diverged from dense-on-decoded"
    );

    let tier = lp::simd::kernel_tier();
    let naive_s = best_of(reps, || a.matmul_t_naive(&bt));
    let simd_s = best_of(reps, || a.matmul_t(&bt));
    let packed_s = best_of(reps, || a.matmul_t_packed(&packed));
    let simd_speedup = naive_s / simd_s.max(1e-12);
    println!(
        "gemm {size}x{size}x{size} [{tier}]: naive {:.2} ms, \
         simd {:.2} ms ({simd_speedup:.2}x vs naive), packed {:.2} ms",
        naive_s * 1e3,
        simd_s * 1e3,
        packed_s * 1e3
    );
    check_metric("naive_s", naive_s);
    check_metric("simd_s", simd_s);
    check_metric("packed_s", packed_s);
    check_metric("simd_speedup_vs_naive", simd_speedup);
    let kernels = Json::object()
        .field("naive_s", Json::fixed(naive_s, 6))
        .field("simd_s", Json::fixed(simd_s, 6))
        .field("packed_s", Json::fixed(packed_s, 6))
        .field("simd_speedup_vs_naive", Json::fixed(simd_speedup, 3));

    // ------------------------------------------------------------------
    // Part 2: batch amortization on a [dim, dim] linear layer.
    // ------------------------------------------------------------------
    let w = bench::pseudo_tensor(&[dim, dim], 0.3);
    let wq = QTensor::quantize(&w, &q);
    let wd = wq.dequantize(); // dense f32 copy of the same quantized values
    let mut rows = Vec::new();
    for batch in [1usize, 2, 4, 16] {
        let stacked = bench::pseudo_tensor(&[batch, dim], 0.9);
        let singles: Vec<Tensor> = (0..batch)
            .map(|i| Tensor::from_vec(&[1, dim], stacked.data()[i * dim..(i + 1) * dim].to_vec()))
            .collect();
        let per_input = best_of(reps, || {
            for _ in 0..iters {
                for s in &singles {
                    std::hint::black_box(s.matmul_t(&wd));
                }
            }
        });
        let batched_dense = best_of(reps, || {
            for _ in 0..iters {
                std::hint::black_box(stacked.matmul_t(&wd));
            }
        });
        let batched_packed = best_of(reps, || {
            for _ in 0..iters {
                std::hint::black_box(stacked.matmul_t_packed(&wq));
            }
        });
        let scale = 1e6 / (iters * batch) as f64; // µs per input
        let (per_input_us, dense_us, packed_us) = (
            per_input * scale,
            batched_dense * scale,
            batched_packed * scale,
        );
        println!(
            "batch {batch:>2} on [{dim},{dim}]: per-input {per_input_us:.1} us/item, \
             batched dense {dense_us:.1} us/item, batched packed {packed_us:.1} us/item"
        );
        check_metric("per_input_dense_us", per_input_us);
        check_metric("batched_dense_us", dense_us);
        check_metric("batched_packed_us", packed_us);
        rows.push(
            Json::object()
                .field("batch", batch)
                .field("per_input_dense_us", Json::fixed(per_input_us, 3))
                .field("batched_dense_us", Json::fixed(dense_us, 3))
                .field("batched_packed_us", Json::fixed(packed_us, 3))
                .field(
                    "batched_dense_speedup",
                    Json::fixed(per_input_us / dense_us.max(1e-12), 3),
                )
                .field(
                    "batched_packed_speedup",
                    Json::fixed(per_input_us / packed_us.max(1e-12), 3),
                ),
        );
    }

    // ------------------------------------------------------------------
    // Part 3: the im2col fill at B=8, checked against the oracle.
    // ------------------------------------------------------------------
    const FILL_BATCH: usize = 8;
    let mut fills = Vec::new();
    for (i, &(c, h, w, k, stride, pad)) in FILL_SHAPES.iter().enumerate() {
        let images: Vec<Tensor> = (0..FILL_BATCH)
            .map(|e| bench::pseudo_tensor(&[c, h, w], (i * FILL_BATCH + e) as f32))
            .collect();
        let xs = Tensor::stack(&images);
        let got = im2col(&xs, k, k, stride, pad);
        let want: Vec<f32> = images
            .iter()
            .flat_map(|x| im2col_oracle(x, k, k, stride, pad))
            .collect();
        let shape = format!("{c}x{h}x{w} k{k} s{stride} p{pad}");
        assert_eq!(
            bits(got.data()),
            bits(&want),
            "im2col {shape} diverged from the oracle"
        );
        // Enough calls per rep for ~`iters`·200k operand elements.
        let elems = got.len();
        let calls = (iters * 200_000).div_ceil(elems);
        let secs = best_of(reps, || {
            for _ in 0..calls {
                std::hint::black_box(im2col(std::hint::black_box(&xs), k, k, stride, pad));
            }
        });
        let ns_per_elem = secs * 1e9 / (calls * elems) as f64;
        println!("im2col {shape:<20} B={FILL_BATCH}: {ns_per_elem:.3} ns/elem ({elems} elems)");
        check_metric(&format!("im2col {shape} ns_per_elem"), ns_per_elem);
        fills.push(
            Json::object()
                .field("shape", shape)
                .field("elems", elems)
                .field("ns_per_elem", Json::fixed(ns_per_elem, 4)),
        );
    }

    // ------------------------------------------------------------------
    // Part 4: depthwise convolution at B=8, checked against the oracle.
    // ------------------------------------------------------------------
    let mut dws = Vec::new();
    let mut dw_total_us = 0.0;
    for (i, &(c, h, w, stride, layers)) in DW_SHAPES.iter().enumerate() {
        let images: Vec<Tensor> = (0..FILL_BATCH)
            .map(|e| bench::pseudo_tensor(&[c, h, w], (i * FILL_BATCH + e) as f32))
            .collect();
        let xs = Tensor::stack(&images);
        let weight = QTensor::quantize(&bench::pseudo_tensor(&[c, 3, 3], i as f32 + 0.5), &q);
        let values = weight.dequantize();
        let weight = weight.into();
        let bias = bench::pseudo_tensor(&[c], i as f32 + 0.25).into_data();
        let shape = format!("{c}x{h}x{w} s{stride}");
        for (x, got) in images
            .iter()
            .zip(dwconv2d(&xs, &weight, &bias, stride, 1).unstack())
        {
            let want = dwconv2d_oracle(x, &values, &bias, stride, 1);
            assert_eq!(
                bits(got.data()),
                bits(want.data()),
                "dwconv {shape} diverged from the oracle"
            );
        }
        // Enough calls per rep for ~`iters`·1M multiply-adds.
        let macs = FILL_BATCH * c * axis_taps(h, 3, stride, 1) * axis_taps(w, 3, stride, 1);
        let calls = (iters * 1_000_000).div_ceil(macs);
        let secs = best_of(reps, || {
            for _ in 0..calls {
                std::hint::black_box(dwconv2d(
                    std::hint::black_box(&xs),
                    &weight,
                    &bias,
                    stride,
                    1,
                ));
            }
        });
        let us = secs * 1e6 / calls as f64;
        let ns_per_mac = secs * 1e9 / (calls * macs) as f64;
        dw_total_us += us * layers as f64;
        println!(
            "dwconv {shape:<14} B={FILL_BATCH}: {us:.2} us, {ns_per_mac:.3} ns/mac (x{layers})"
        );
        check_metric(&format!("dwconv {shape} us"), us);
        check_metric(&format!("dwconv {shape} ns_per_mac"), ns_per_mac);
        dws.push(
            Json::object()
                .field("shape", shape)
                .field("layers", layers)
                .field("macs", macs)
                .field("us", Json::fixed(us, 3))
                .field("ns_per_mac", Json::fixed(ns_per_mac, 4)),
        );
    }
    println!("dwconv all 13 mobilenetv2 layers B={FILL_BATCH}: {dw_total_us:.1} us");
    check_metric("dwconv total_us", dw_total_us);

    let json = Json::object()
        .field("size", size)
        .field("kernel_tier", tier)
        .field("kernels", kernels)
        .field(
            "batch_study",
            Json::object().field("dim", dim).field("rows", rows),
        )
        .field(
            "im2col",
            Json::object()
                .field("batch", FILL_BATCH)
                .field("shapes", fills),
        )
        .field(
            "dwconv",
            Json::object()
                .field("batch", FILL_BATCH)
                .field("weights", "packed lp8")
                .field("total_us", Json::fixed(dw_total_us, 2))
                .field("shapes", dws),
        );
    bench::write_artifact("BENCH_gemm.json", &json);
}

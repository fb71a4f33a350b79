//! Property suite for the packed-weights + batched-GEMM hot path:
//!
//! * [`Model::forward_batch`] over `B` stacked inputs is **bit-identical**
//!   to `B` single [`Model::forward`] calls (the blocked kernel computes
//!   each output row from its own left-hand row, in a `k`-ascending
//!   accumulation order independent of how many rows are stacked) — for
//!   MLP, CNN and transformer-block graphs, the last two also with LP8
//!   activation quantization, which pins the kernel-routed attention, the
//!   memoized GELU, the stacked im2col fill (3×3 at strides 1 and 2, 1×1
//!   unpadded) and the channel-vectorized depthwise convolution (strides
//!   1 and 2, over one full 8-channel group plus a tail)
//!   across batch sizes — and for the zoo's deit_s (patch embedding with
//!   a class token) and swin_t (patch embedding without one, token
//!   merging, token pooling) at batch sizes 1, 3 and 8;
//! * packed-weight forwards ([`Model::quantize_weights_packed`]) are
//!   bit-identical to fake-quantized `f32` forwards
//!   ([`Model::quantize_weights`]) for **all 7 format families**;
//! * the dispatched microkernel GEMM ([`Tensor::matmul_t`]) and the
//!   naive dot-product reference ([`Tensor::matmul_t_naive`]) agree
//!   bit-for-bit (modulo unspecified NaN payload bits) — including
//!   operands salted with ±0.0 / NaN / ±∞ / subnormals — as does
//!   [`Tensor::matmul_t_packed`] against the dense
//!   kernel over dequantized weights (including the `m = 1` serving
//!   matvec shape);
//! * a forward resumed from a [`Snapshot`] at any weighted-layer boundary
//!   ([`Model::resume_observed`]) gives outputs and observed layer outputs
//!   bit-identical to a full forward ([`Model::forward_observed`]) — also
//!   when the layers after the boundary carry different weights, which is
//!   how LPQ reuses a parent candidate's prefix — for the zoo's resnet18,
//!   mobilenetv2 and deit_s and for random MLP and CNN graphs, at batch
//!   sizes 1, 3 and 8, with and without activation quantization.

use dnn::graph::{LayerObserver, Model, Op, QuantScheme, Snapshot};
use dnn::tensor::{QTensor, Tensor};
use lp::quantizer::{fit_quantizer, FormatKind};
use proptest::prelude::*;
use std::sync::Arc;

fn vecf(n: usize) -> impl Strategy<Value = Vec<f32>> {
    // `+ 0.0` normalizes a sampled -0.0 to +0.0: packed codes collapse the
    // sign of flushed zeros, which is observable only through a layer
    // *parameter* that is exactly -0.0.
    prop::collection::vec((-1.5f32..1.5).prop_map(|v| v + 0.0), n)
}

/// A small random MLP: linear → relu → linear → layer-norm → linear.
fn mlp(w1: Vec<f32>, w2: Vec<f32>, w3: Vec<f32>, b: Vec<f32>) -> Model {
    let mut m = Model::new("p_mlp", &[5], 3);
    let x = m.input_node();
    let l1 = m.push(
        Op::Linear {
            weight: Tensor::from_vec(&[7, 5], w1).into(),
            bias: b[..7].to_vec(),
        },
        &[x],
    );
    let r = m.push(Op::Relu, &[l1]);
    let l2 = m.push(
        Op::Linear {
            weight: Tensor::from_vec(&[6, 7], w2).into(),
            bias: b[7..13].to_vec(),
        },
        &[r],
    );
    let ln = m.push(
        Op::LayerNorm {
            gamma: vec![1.0; 6],
            beta: vec![0.02; 6],
        },
        &[l2],
    );
    let l3 = m.push(
        Op::Linear {
            weight: Tensor::from_vec(&[3, 6], w3).into(),
            bias: b[13..16].to_vec(),
        },
        &[ln],
    );
    m.set_output(l3);
    m
}

/// Input shape of [`cnn`]: odd spatial sides, so strided windows end on a
/// partial border.
const CNN_IN: [usize; 3] = [2, 7, 7];
const CNN_LEN: usize = 2 * 7 * 7;
/// Weight and bias counts of [`cnn`]'s seven weighted layers.
const CNN_WEIGHTS: usize = 180 + 90 + 360 + 40 + 48 + 108 + 36;
const CNN_BIASES: usize = 10 + 10 + 4 + 4 + 12 + 12 + 3;

/// A small random CNN covering every im2col and depthwise fast path:
/// conv 3×3 → relu → depthwise 3×3 → {conv 3×3 stride 2, conv 1×1 stride
/// 2 skip} → add → conv 1×1 → relu → depthwise 3×3 stride 2 →
/// global-avg-pool → linear, on a `[2, 7, 7]` input. The depthwise
/// layers have 10 and 12 channels: one full group of the kernel's 8
/// channel lanes plus a tail.
fn cnn(w: Vec<f32>, b: Vec<f32>) -> Model {
    let mut m = Model::new("p_cnn", &CNN_IN, 3);
    let x = m.input_node();
    let (mut wo, mut bo) = (0, 0);
    let mut params = |shape: &[usize]| {
        let (len, out) = (shape.iter().product::<usize>(), shape[0]);
        let weight = Tensor::from_vec(shape, w[wo..wo + len].to_vec());
        let bias = b[bo..bo + out].to_vec();
        (wo, bo) = (wo + len, bo + out);
        (weight, bias)
    };
    // The weight's rank picks the op: `[c, k, k]` depthwise, `[out, in,
    // k, k]` convolution, `[out, in]` linear.
    let mut layer = |m: &mut Model, input: usize, shape: &[usize], stride: usize, pad: usize| {
        let (weight, bias) = params(shape);
        let op = if shape.len() == 3 {
            Op::DwConv2d {
                weight: weight.into(),
                bias,
                stride,
                pad,
            }
        } else if shape.len() == 4 {
            Op::Conv2d {
                weight: weight.into(),
                bias,
                stride,
                pad,
            }
        } else {
            Op::Linear {
                weight: weight.into(),
                bias,
            }
        };
        m.push(op, &[input])
    };
    let c1 = layer(&mut m, x, &[10, 2, 3, 3], 1, 1);
    let r1 = m.push(Op::Relu, &[c1]);
    let d1 = layer(&mut m, r1, &[10, 3, 3], 1, 1);
    let c2 = layer(&mut m, d1, &[4, 10, 3, 3], 2, 1);
    let skip = layer(&mut m, d1, &[4, 10, 1, 1], 2, 0);
    let sum = m.push(Op::Add, &[c2, skip]);
    let c3 = layer(&mut m, sum, &[12, 4, 1, 1], 1, 0);
    let r3 = m.push(Op::Relu, &[c3]);
    let d2 = layer(&mut m, r3, &[12, 3, 3], 2, 1);
    let g = m.push(Op::GlobalAvgPool, &[d2]);
    let l = layer(&mut m, g, &[3, 12], 1, 0);
    m.set_output(l);
    m
}

/// Transformer block geometry: `T` tokens of width `D`, `H` heads, MLP
/// width `F`, `O` outputs per token.
const T: usize = 5;
const D: usize = 6;
const H: usize = 2;
const F: usize = 8;
const O: usize = 3;
/// Weight and bias counts of [`transformer`]'s six linear layers.
const TF_WEIGHTS: usize = 4 * D * D + F * D + O * F;
const TF_BIASES: usize = 4 * D + F + O;

/// A small random transformer block: layer-norm → q/k/v linear → mha →
/// proj → linear → gelu → linear.
fn transformer(w: Vec<f32>, b: Vec<f32>) -> Model {
    let mut m = Model::new("p_transformer", &[T, D], O);
    let x = m.input_node();
    let ln = m.push(
        Op::LayerNorm {
            gamma: vec![1.0; D],
            beta: vec![0.03; D],
        },
        &[x],
    );
    let (mut wo, mut bo) = (0, 0);
    let mut linear = |m: &mut Model, input: usize, out_f: usize, in_f: usize| {
        let weight = Tensor::from_vec(&[out_f, in_f], w[wo..wo + out_f * in_f].to_vec());
        let bias = b[bo..bo + out_f].to_vec();
        (wo, bo) = (wo + out_f * in_f, bo + out_f);
        m.push(
            Op::Linear {
                weight: weight.into(),
                bias,
            },
            &[input],
        )
    };
    let q = linear(&mut m, ln, D, D);
    let k = linear(&mut m, ln, D, D);
    let v = linear(&mut m, ln, D, D);
    let attn = m.push(Op::Mha { heads: H }, &[q, k, v]);
    let proj = linear(&mut m, attn, D, D);
    let fc1 = linear(&mut m, proj, F, D);
    let g = m.push(Op::Gelu, &[fc1]);
    let fc2 = linear(&mut m, g, O, F);
    m.set_output(fc2);
    m
}

/// Per-layer LP8 activation quantizers fitted to one forward's IRs, as
/// the serving scenarios fit them.
fn lp8_activations(m: &Model, calib: &Tensor) -> QuantScheme {
    let irs = m.forward_traced(calib, None, true).irs;
    let mut scheme = QuantScheme::identity(m.num_quant_layers());
    for (a, ir) in scheme.activations.iter_mut().zip(&irs) {
        *a = Some(Arc::from(
            fit_quantizer(FormatKind::Lp, 8, ir.data()).unwrap(),
        ));
    }
    scheme
}

fn assert_bitwise_eq(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: elem {i}: {x:?} vs {y:?}");
    }
}

/// Per-layer fitted scheme of one format family over a model's weights.
fn fitted_scheme(m: &Model, kind: FormatKind, bits: u32) -> QuantScheme {
    let weights = m.layer_weights();
    let mut scheme = QuantScheme::identity(m.num_quant_layers());
    for (i, w) in scheme.weights.iter_mut().enumerate() {
        *w = Some(Arc::from(fit_quantizer(kind, bits, weights[i]).unwrap()));
    }
    scheme
}

/// Records each weighted layer's observed outputs and, when `snap_all`,
/// a snapshot at every weighted-layer boundary.
#[derive(Default)]
struct Recorder {
    snap_all: bool,
    outs: Vec<(usize, Vec<Tensor>)>,
    snaps: Vec<Snapshot>,
}

impl LayerObserver for Recorder {
    fn layer_output(&mut self, layer: usize, out: &Tensor) {
        self.outs.push((layer, out.unstack()));
    }

    fn wants_snapshot(&self, _layer: usize) -> bool {
        self.snap_all
    }

    fn snapshot(&mut self, snap: Snapshot) {
        self.snaps.push(snap);
    }
}

/// `m.forward_batch_quant(inputs, act)` ≡ one
/// `m.forward_traced(input, act, false)` per input, bit for bit.
fn assert_batch_matches_singles(
    m: &Model,
    inputs: &[Tensor],
    act: Option<&QuantScheme>,
    ctx: &str,
) {
    let batched = m.forward_batch_quant(inputs, act);
    assert_eq!(batched.len(), inputs.len(), "{ctx}: batch");
    for (input, got) in inputs.iter().zip(&batched) {
        assert_bitwise_eq(got, &m.forward_traced(input, act, false).output, ctx);
    }
}

fn assert_all_bitwise_eq(got: &[Tensor], want: &[Tensor], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: batch");
    for (g, w) in got.iter().zip(want) {
        assert_bitwise_eq(g, w, ctx);
    }
}

/// Snapshots a full forward of `m` at every weighted-layer boundary and
/// resumes from each: outputs and observed layer outputs must equal a
/// full forward bit for bit. With `retune`, the model resumed is `m` with
/// every layer from the boundary on re-quantized (fitted LP, 6 bits), and
/// the reference is a full forward of that model.
fn assert_resume_matches_full(
    m: &Model,
    inputs: &[Tensor],
    act: Option<&QuantScheme>,
    retune: bool,
    ctx: &str,
) {
    let mut full = Recorder {
        snap_all: true,
        ..Recorder::default()
    };
    let want = m.forward_observed(inputs, act, &mut full);
    let layers = m.num_quant_layers();
    assert_eq!(full.snaps.len(), layers, "{ctx}: one snapshot per layer");
    for (l, snap) in full.snaps.iter().enumerate() {
        let ctx = format!("{ctx}: resumed at layer {l}");
        assert_eq!(snap.layer(), l, "{ctx}");
        let (target, want, want_outs) = if retune {
            let weights = m.layer_weights();
            let mut scheme = QuantScheme::identity(layers);
            for (i, w) in scheme.weights.iter_mut().enumerate().skip(l) {
                *w = Some(Arc::from(
                    fit_quantizer(FormatKind::Lp, 6, weights[i]).unwrap(),
                ));
            }
            let target = m.quantize_weights(&scheme);
            let mut rec = Recorder::default();
            let want = target.forward_observed(inputs, act, &mut rec);
            (target, want, rec.outs)
        } else {
            (m.clone(), want.clone(), full.outs.clone())
        };
        let mut resumed = Recorder::default();
        let got = target.resume_observed(snap, act, &mut resumed);
        assert_all_bitwise_eq(&got, &want, &ctx);
        assert_eq!(resumed.outs.len(), layers - l, "{ctx}: observed layers");
        for ((gl, g), (wl, w)) in resumed.outs.iter().zip(&want_outs[l..]) {
            assert_eq!(gl, wl, "{ctx}");
            assert_all_bitwise_eq(g, w, &format!("{ctx}: layer {gl} output"));
        }
    }
}

/// Resume ≡ full over a zoo model at batch sizes 1, 3 and 8, with no
/// activation quantization and with fitted LP8 activations.
fn assert_zoo_resume_matches_full(name: &str) {
    let m = dnn::models::by_name(name);
    let calib = dnn::data::calibration_set(&m);
    let act = lp8_activations(&m, &calib[0]);
    for b in [1, 3, 8] {
        let inputs = &calib[..b];
        assert_resume_matches_full(&m, inputs, None, false, &format!("{name} B={b}"));
        assert_resume_matches_full(&m, inputs, Some(&act), false, &format!("{name} B={b} lp8"));
    }
}

/// Batch ≡ singles over a zoo model at batch sizes 1, 3 and 8, with no
/// activation quantization and with fitted LP8 activations.
fn assert_zoo_batch_matches_singles(name: &str) {
    let m = dnn::models::by_name(name);
    let calib = dnn::data::calibration_set(&m);
    let act = lp8_activations(&m, &calib[0]);
    for b in [1, 3, 8] {
        let inputs = &calib[..b];
        assert_batch_matches_singles(&m, inputs, None, &format!("{name} B={b}"));
        assert_batch_matches_singles(&m, inputs, Some(&act), &format!("{name} B={b} lp8"));
    }
}

#[test]
fn batched_forward_is_bit_identical_to_singles_deit_s() {
    assert_zoo_batch_matches_singles("deit_s");
}

#[test]
fn batched_forward_is_bit_identical_to_singles_swin_t() {
    assert_zoo_batch_matches_singles("swin_t");
}

#[test]
fn resumed_forward_is_bit_identical_to_full_resnet18() {
    assert_zoo_resume_matches_full("resnet18");
}

#[test]
fn resumed_forward_is_bit_identical_to_full_mobilenetv2() {
    assert_zoo_resume_matches_full("mobilenetv2");
}

#[test]
fn resumed_forward_is_bit_identical_to_full_deit_s() {
    assert_zoo_resume_matches_full("deit_s");
}

/// Batch sizes of the random-graph resume properties.
fn resume_batch() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [1, 3, 8][i])
}

proptest! {
    #[test]
    fn resumed_forward_is_bit_identical_to_full_mlp(
        w1 in vecf(35), w2 in vecf(42), w3 in vecf(18), b in vecf(16),
        xs in prop::collection::vec(vecf(5), 8), batch in resume_batch(),
        quant_acts in prop::bool::ANY,
    ) {
        let m = mlp(w1, w2, w3, b);
        let inputs: Vec<Tensor> =
            xs.into_iter().take(batch).map(|d| Tensor::from_vec(&[5], d)).collect();
        let act = quant_acts.then(|| lp8_activations(&m, &inputs[0]));
        assert_resume_matches_full(&m, &inputs, act.as_ref(), true, "mlp");
    }

    #[test]
    fn resumed_forward_is_bit_identical_to_full_cnn(
        w in vecf(CNN_WEIGHTS), b in vecf(CNN_BIASES),
        xs in prop::collection::vec(vecf(CNN_LEN), 8), batch in resume_batch(),
        quant_acts in prop::bool::ANY,
    ) {
        let m = cnn(w, b);
        let inputs: Vec<Tensor> =
            xs.into_iter().take(batch).map(|d| Tensor::from_vec(&CNN_IN, d)).collect();
        let act = quant_acts.then(|| lp8_activations(&m, &inputs[0]));
        assert_resume_matches_full(&m, &inputs, act.as_ref(), true, "cnn");
    }
}

proptest! {
    #[test]
    fn batched_forward_is_bit_identical_to_singles_mlp(
        w1 in vecf(35), w2 in vecf(42), w3 in vecf(18), b in vecf(16),
        xs in prop::collection::vec(vecf(5), 1..5),
    ) {
        let m = mlp(w1, w2, w3, b);
        let inputs: Vec<Tensor> = xs.into_iter().map(|d| Tensor::from_vec(&[5], d)).collect();
        assert_batch_matches_singles(&m, &inputs, None, "mlp batch-vs-single");
    }

    #[test]
    fn batched_forward_is_bit_identical_to_singles_cnn(
        w in vecf(CNN_WEIGHTS), b in vecf(CNN_BIASES),
        xs in prop::collection::vec(vecf(CNN_LEN), 1..4),
    ) {
        let m = cnn(w, b);
        let inputs: Vec<Tensor> = xs
            .into_iter()
            .map(|d| Tensor::from_vec(&CNN_IN, d))
            .collect();
        assert_batch_matches_singles(&m, &inputs, None, "cnn batch-vs-single");
        let scheme = lp8_activations(&m, &inputs[0]);
        assert_batch_matches_singles(&m, &inputs, Some(&scheme), "cnn lp8-activations batch-vs-single");
    }

    #[test]
    fn batched_forward_is_bit_identical_to_singles_transformer(
        w in vecf(TF_WEIGHTS), b in vecf(TF_BIASES),
        xs in prop::collection::vec(vecf(T * D), 1..5),
    ) {
        let m = transformer(w, b);
        let inputs: Vec<Tensor> = xs.into_iter().map(|d| Tensor::from_vec(&[T, D], d)).collect();
        assert_batch_matches_singles(&m, &inputs, None, "transformer batch-vs-single");
        let scheme = lp8_activations(&m, &inputs[0]);
        assert_batch_matches_singles(&m, &inputs, Some(&scheme), "transformer lp8-activations batch-vs-single");
    }

    #[test]
    fn packed_forward_matches_fake_quant_for_all_formats_mlp(
        w1 in vecf(35), w2 in vecf(42), w3 in vecf(18), b in vecf(16),
        x in vecf(5),
    ) {
        let m = mlp(w1, w2, w3, b);
        let inputs = [Tensor::from_vec(&[5], x)];
        for kind in FormatKind::ALL {
            let scheme = fitted_scheme(&m, kind, 6);
            let dense = m.quantize_weights(&scheme);
            let packed = m.quantize_weights_packed(&scheme);
            let want = dense.forward(&inputs[0]);
            assert_bitwise_eq(
                &packed.forward(&inputs[0]),
                &want,
                &format!("{kind} packed single"),
            );
            assert_bitwise_eq(
                &packed.forward_batch(&inputs)[0],
                &want,
                &format!("{kind} packed batched"),
            );
        }
    }

    #[test]
    fn packed_forward_matches_fake_quant_for_all_formats_cnn(
        w in vecf(CNN_WEIGHTS), b in vecf(CNN_BIASES),
        xs in prop::collection::vec(vecf(CNN_LEN), 1..3),
    ) {
        let m = cnn(w, b);
        let inputs: Vec<Tensor> = xs
            .into_iter()
            .map(|d| Tensor::from_vec(&CNN_IN, d))
            .collect();
        for kind in FormatKind::ALL {
            let scheme = fitted_scheme(&m, kind, 6);
            let dense = m.quantize_weights(&scheme);
            let packed = m.quantize_weights_packed(&scheme);
            let batched = packed.forward_batch(&inputs);
            for (input, got) in inputs.iter().zip(&batched) {
                let want = dense.forward(input);
                assert_bitwise_eq(&packed.forward(input), &want, &format!("{kind} packed cnn"));
                assert_bitwise_eq(got, &want, &format!("{kind} packed cnn batched"));
            }
        }
    }

    #[test]
    fn packed_forward_matches_fake_quant_for_all_formats_transformer(
        w in vecf(TF_WEIGHTS), b in vecf(TF_BIASES),
        xs in prop::collection::vec(vecf(T * D), 1..4),
    ) {
        let m = transformer(w, b);
        let inputs: Vec<Tensor> = xs.into_iter().map(|d| Tensor::from_vec(&[T, D], d)).collect();
        let act = lp8_activations(&m, &inputs[0]);
        for kind in FormatKind::ALL {
            let mut scheme = fitted_scheme(&m, kind, 6);
            scheme.activations = act.activations.clone();
            let dense = m.quantize_weights(&scheme);
            let packed = m.quantize_weights_packed(&scheme);
            let got = packed.forward_batch_quant(&inputs, Some(&scheme));
            for (input, g) in inputs.iter().zip(&got) {
                assert_bitwise_eq(
                    g,
                    &dense.forward_traced(input, Some(&scheme), false).output,
                    &format!("{kind} packed transformer"),
                );
            }
        }
    }

    #[test]
    fn blocked_matmul_t_is_bit_identical_to_naive_kernel(
        m in 1usize..6, k in 1usize..200, n in 1usize..90,
        seed in 0u64..1000,
    ) {
        let fill = |len: usize, salt: u64| -> Vec<f32> {
            (0..len)
                .map(|i| (((i as u64).wrapping_mul(2654435761).wrapping_add(seed + salt)
                    % 10007) as f32 / 10007.0 - 0.5) * 3.0)
                .collect()
        };
        let a = Tensor::from_vec(&[m, k], fill(m * k, 1));
        let b = Tensor::from_vec(&[n, k], fill(n * k, 2));
        let fast = a.matmul_t(&b);
        let naive = a.matmul_t_naive(&b);
        for (x, y) in fast.data().iter().zip(naive.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn simd_and_naive_kernels_agree_including_specials(
        m in 1usize..6, k in 1usize..200, n in 1usize..90,
        seed in 0u64..1000,
    ) {
        // Bit identity of the microkernel and the naive kernel on
        // operands salted with IEEE specials: per-lane vector mul/add are
        // the same IEEE operations as their scalar forms (and never an
        // FMA), so signed zeros, infinities and subnormals must
        // round-trip identically through the microkernel. NaN outputs
        // are compared as "both NaN": IEEE-754 (and LLVM, which freely commutes fmul/fadd
        // operands) leaves NaN sign/payload propagation unspecified, so
        // exact NaN bits are not a cross-kernel invariant even between
        // two scalar loops.
        let a = Tensor::from_vec(&[m, k], salted(m * k, seed, 1));
        let b = Tensor::from_vec(&[n, k], salted(n * k, seed, 2));
        let simd = a.matmul_t(&b);
        let naive = a.matmul_t_naive(&b);
        for (x, z) in simd.data().iter().zip(naive.data()) {
            prop_assert!(bits_eq_mod_nan(*x, *z), "simd {x:?} vs naive {z:?}");
        }
    }

    #[test]
    fn packed_matmul_is_bit_identical_to_dense_over_dequantized(
        m in 1usize..5, k in 1usize..150, n in 1usize..80,
        seed in 0u64..1000,
    ) {
        // The packed panel decode (gather tier or scalar tier) must stage
        // exactly the dequantized weights, so the packed product matches
        // the dense kernel bit-for-bit — including m = 1, the batch-1
        // serving matvec whose fast path rides the single-row microkernel.
        use lp::format::LpParams;
        let a = Tensor::from_vec(&[m, k], salted(m * k, seed, 3));
        let w = Tensor::from_vec(&[n, k], salted(n * k, seed.wrapping_add(7), 0));
        let q = LpParams::clamped(8, 2, 3, 0.0);
        let packed = QTensor::quantize(&w, &q);
        let dense = packed.dequantize();
        let c_packed = a.matmul_t_packed(&packed);
        let c_dense = a.matmul_t(&dense);
        for (x, y) in c_packed.data().iter().zip(c_dense.data()) {
            prop_assert!(
                bits_eq_mod_nan(*x, *y),
                "packed {x:?} vs dense {y:?} (m={})", m
            );
        }
    }
}

/// Exact bit equality, except NaN compares equal to NaN regardless of
/// sign/payload (IEEE-754 leaves NaN propagation bits unspecified and
/// LLVM commutes fmul/fadd operands, so payloads differ even between two
/// scalar kernels).
fn bits_eq_mod_nan(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Deterministic pseudo-random data with IEEE specials (±0.0, NaN, ±∞,
/// subnormals) injected at seed-chosen positions.
fn salted(len: usize, seed: u64, salt: u64) -> Vec<f32> {
    const SPECIALS: [f32; 8] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-42,
        -1e-42,
        f32::MIN_POSITIVE,
    ];
    let mut data: Vec<f32> = (0..len)
        .map(|i| {
            (((i as u64)
                .wrapping_mul(2654435761)
                .wrapping_add(seed + salt)
                % 10007) as f32
                / 10007.0
                - 0.5)
                * 3.0
        })
        .collect();
    let count = (len / 7).min(6) + 1;
    for t in 0..count as u64 {
        let h = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(t.wrapping_mul(104729).wrapping_add(salt));
        data[(h % len as u64) as usize] = SPECIALS[((seed.wrapping_add(t)) % 8) as usize];
    }
    data
}

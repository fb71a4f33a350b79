//! Synthetic calibration/test data and teacher-agreement accuracy.
//!
//! The paper calibrates LPQ on 128 unlabeled ImageNet images and reports
//! top-1 accuracy on the validation set. Without ImageNet, this module
//! substitutes (a) synthetic, spatially correlated input images and (b) a
//! *teacher-agreement* accuracy: the full-precision model is the teacher,
//! and a quantized model's top-1 accuracy is the paper's FP32 baseline
//! scaled by the fraction of test inputs on which the quantized argmax
//! agrees with the teacher's. An unquantized model therefore reproduces the
//! paper's baseline row exactly, and accuracy degrades monotonically with
//! representational divergence — the same quantity the paper's metric
//! tracks (see `DESIGN.md`, substitution 2).

use crate::graph::{Model, QuantScheme};
use crate::tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The paper's calibration-set size (§6: "128 randomly sampled images").
pub const CALIBRATION_SIZE: usize = 128;

/// Default test-set size for teacher-agreement accuracy.
pub const TEST_SIZE: usize = 256;

/// Generates `count` synthetic images of the given shape: iid Gaussian
/// pixels smoothed with a 3×3 box filter for spatial correlation, then
/// per-image standardized. Deterministic in `seed`.
pub fn synthetic_images(count: usize, shape: &[usize], seed: u64) -> Vec<Tensor> {
    assert_eq!(shape.len(), 3, "expected [C, H, W] shape");
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut raw = vec![0.0f32; c * h * w];
            for v in &mut raw {
                *v = rng.gen_range(-1.0f32..1.0);
            }
            // 3×3 box blur per channel for spatial correlation.
            let mut img = vec![0.0f32; c * h * w];
            for ch in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = 0.0f32;
                        let mut n = 0.0f32;
                        for dy in -1i32..=1 {
                            for dx in -1i32..=1 {
                                let yy = y as i32 + dy;
                                let xx = x as i32 + dx;
                                if yy >= 0 && yy < h as i32 && xx >= 0 && xx < w as i32 {
                                    acc += raw[ch * h * w + yy as usize * w + xx as usize];
                                    n += 1.0;
                                }
                            }
                        }
                        img[ch * h * w + y * w + x] = acc / n;
                    }
                }
            }
            // Standardize.
            let mean: f32 = img.iter().sum::<f32>() / img.len() as f32;
            let var: f32 =
                img.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / img.len() as f32;
            let inv = 1.0 / (var.sqrt() + 1e-6);
            for v in &mut img {
                *v = (*v - mean) * inv;
            }
            Tensor::from_vec(shape, img)
        })
        .collect()
}

/// The standard calibration set for a model (seed 42, paper size 128).
pub fn calibration_set(model: &Model) -> Vec<Tensor> {
    synthetic_images(CALIBRATION_SIZE, model.input_shape(), 42)
}

/// The standard held-out test set for a model (disjoint seed from the
/// calibration set).
///
/// Trained networks are *confident* on most validation images: the top-1
/// logit margin is large relative to quantization noise, which is why PTQ
/// at moderate bit-widths barely moves top-1 accuracy. Randomly initialized
/// models lack that property, so this function restores it by margin
/// filtering: it generates `4 × TEST_SIZE` candidates and keeps the
/// `TEST_SIZE` inputs on which the FP model's normalized top-1 margin is
/// largest (see `DESIGN.md`, substitution 2).
pub fn test_set(model: &Model) -> Vec<Tensor> {
    let candidates = synthetic_images(4 * TEST_SIZE, model.input_shape(), 4242);
    let margins = par_map(&candidates, |x| margin_of(&model.forward(x)));
    let mut idx: Vec<usize> = (0..candidates.len()).collect();
    idx.sort_by(|&a, &b| margins[b].total_cmp(&margins[a]));
    idx.truncate(TEST_SIZE);
    idx.sort_unstable(); // keep generation order for determinism of iteration
    idx.into_iter().map(|i| candidates[i].clone()).collect()
}

/// Normalized top-1 margin of a logit vector: `(top1 − top2) / std`.
fn margin_of(logits: &Tensor) -> f64 {
    let d = logits.data();
    if d.len() < 2 {
        return 0.0;
    }
    let (mut top1, mut top2) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
    for &v in d {
        if v > top1 {
            top2 = top1;
            top1 = v;
        } else if v > top2 {
            top2 = v;
        }
    }
    let mean: f32 = d.iter().sum::<f32>() / d.len() as f32;
    let var: f32 = d.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d.len() as f32;
    f64::from(top1 - top2) / (f64::from(var).sqrt() + 1e-9)
}

/// Maps `f` over `items` in parallel, preserving order. Thin shim over the
/// pooled work-stealing executor ([`serve::pool`]): the fan-out runs on the
/// process-wide worker pool instead of spawning scoped threads per call.
/// Small inputs (< 4 items) take a sequential fast path on the caller.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    serve::pool::par_map_pooled(items, f)
}

/// Teacher predictions: argmax class of the model on each input.
pub fn predictions(model: &Model, inputs: &[Tensor]) -> Vec<usize> {
    par_map(inputs, |x| model.forward(x).argmax())
}

/// Fraction of inputs where `quantized`'s argmax matches the `teacher`
/// predictions (computed on the same inputs).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn agreement(quantized: &Model, inputs: &[Tensor], teacher: &[usize]) -> f64 {
    assert_eq!(
        inputs.len(),
        teacher.len(),
        "inputs/teacher length mismatch"
    );
    if inputs.is_empty() {
        return 1.0;
    }
    let preds = predictions(quantized, inputs);
    let hits = preds.iter().zip(teacher).filter(|(p, t)| p == t).count();
    hits as f64 / inputs.len() as f64
}

/// Teacher-agreement top-1 accuracy of a quantization scheme: the paper's
/// FP32 baseline for this model scaled by argmax agreement on `inputs`.
///
/// The weight quantizers in `scheme` are applied once; the activation
/// quantizers are applied during each forward pass.
pub fn quantized_accuracy(
    model: &Model,
    scheme: &QuantScheme,
    inputs: &[Tensor],
    teacher: &[usize],
) -> f64 {
    let qm = model.quantize_weights(scheme);
    let preds = par_map(inputs, |x| {
        qm.forward_traced(x, Some(scheme), false).output.argmax()
    });
    let hits = preds.iter().zip(teacher).filter(|(p, t)| p == t).count();
    let agree = if inputs.is_empty() {
        1.0
    } else {
        hits as f64 / inputs.len() as f64
    };
    model.baseline_top1() * agree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn images_are_deterministic_and_standardized() {
        let a = synthetic_images(4, &[3, 8, 8], 7);
        let b = synthetic_images(4, &[3, 8, 8], 7);
        assert_eq!(a[2].data(), b[2].data());
        let c = synthetic_images(4, &[3, 8, 8], 8);
        assert_ne!(a[0].data(), c[0].data());
        for img in &a {
            let mean = img.mean();
            assert!(mean.abs() < 1e-3, "mean {mean}");
        }
    }

    #[test]
    fn images_are_spatially_correlated() {
        let imgs = synthetic_images(2, &[1, 16, 16], 1);
        // Lag-1 autocorrelation of a blurred field is strongly positive.
        let d = imgs[0].data();
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for y in 0..16 {
            for x in 0..15 {
                num += f64::from(d[y * 16 + x]) * f64::from(d[y * 16 + x + 1]);
                den += f64::from(d[y * 16 + x]).powi(2);
            }
        }
        assert!(num / den > 0.3, "autocorr {}", num / den);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        // Small inputs take the sequential path.
        let small = par_map(&[1, 2], |&x: &i32| x + 1);
        assert_eq!(small, vec![2, 3]);
        let empty: Vec<i32> = par_map(&[] as &[i32], |&x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn identity_scheme_reproduces_baseline() {
        let m = models::resnet18_like();
        let inputs = synthetic_images(16, m.input_shape(), 9);
        let teacher = predictions(&m, &inputs);
        let scheme = QuantScheme::identity(m.num_quant_layers());
        let acc = quantized_accuracy(&m, &scheme, &inputs, &teacher);
        assert!((acc - m.baseline_top1()).abs() < 1e-9);
    }

    #[test]
    fn harsh_quantization_degrades_accuracy() {
        use lp::format::LpParams;
        use std::sync::Arc;
        let m = models::resnet18_like();
        let inputs = synthetic_images(24, m.input_shape(), 10);
        let teacher = predictions(&m, &inputs);
        let layers = m.num_quant_layers();
        let mut scheme = QuantScheme::identity(layers);
        for w in &mut scheme.weights {
            // 2-bit LP destroys nearly all information.
            *w = Some(Arc::new(LpParams::new(2, 0, 1, 0.0).unwrap()));
        }
        let acc = quantized_accuracy(&m, &scheme, &inputs, &teacher);
        assert!(
            acc < m.baseline_top1() * 0.6,
            "2-bit quantization should collapse accuracy, got {acc}"
        );
    }

    #[test]
    fn gentle_quantization_preserves_accuracy() {
        use lp::format::LpParams;
        use std::sync::Arc;
        let m = models::vit_b_like();
        // Margin-filtered inputs, as real confident validation images.
        let inputs: Vec<_> = test_set(&m).into_iter().take(64).collect();
        let teacher = predictions(&m, &inputs);
        let layers = m.num_quant_layers();
        let mut scheme = QuantScheme::identity(layers);
        let weights = m.layer_weights();
        for (i, w) in scheme.weights.iter_mut().enumerate() {
            let sf = LpParams::fit_sf(weights[i]);
            *w = Some(Arc::new(LpParams::new(8, 2, 3, sf).unwrap()));
        }
        let acc = quantized_accuracy(&m, &scheme, &inputs, &teacher);
        assert!(
            acc > m.baseline_top1() * 0.9,
            "8-bit LP should preserve accuracy, got {acc} vs {}",
            m.baseline_top1()
        );
    }
}

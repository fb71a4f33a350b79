//! End-to-end LPQ: quantize the ResNet-18 analogue post-training with the
//! genetic search and evaluate deployment accuracy.
//!
//! Run with: `cargo run --release --example quantize_cnn`
//! (set `LPQ_PRESET=paper` for the full search budget).

use dnn::{data, models};
use lpq::search::{Lpq, LpqConfig};

fn main() {
    let model = models::resnet18_like();
    println!(
        "model: {} ({} weighted layers, {} params, FP32 baseline {:.2})",
        model.name(),
        model.num_quant_layers(),
        model.num_params(),
        model.baseline_top1()
    );

    let cfg = LpqConfig::from_env();
    println!(
        "LPQ search: K={} P={} C={} B={} ({} calibration images)",
        cfg.population, cfg.passes, cfg.cycles, cfg.block_size, cfg.calib_size
    );
    let result = Lpq::new(&model, cfg).run();
    println!(
        "searched {} candidates; avg weight bits {:.2}, activation bits {:.2}",
        result.evaluations, result.avg_weight_bits, result.avg_activation_bits
    );
    let p = result.profile;
    let per_eval = |ms: f64| ms / result.evaluations.max(1) as f64;
    println!(
        "per evaluation: weight quantization {:.2} ms (table builds included), calibration \
         forwards {:.2} ms, fitness {:.2} ms; {:.1}% of calibration node work resumed from \
         a cached prefix",
        per_eval(p.quantize_ms),
        per_eval(p.forward_ms),
        per_eval(p.fitness_ms),
        100.0 * p.resumed_share()
    );
    println!(
        "per-layer weight bits: {:?}",
        result.best.layers.iter().map(|l| l.n).collect::<Vec<_>>()
    );
    println!(
        "model size: {:.3} MB ({:.1}x compression vs FP32)",
        result.model_size_mb,
        32.0 / result.avg_weight_bits
    );

    // Deployment evaluation: weights + activations quantized, accuracy
    // measured as teacher agreement on the margin-filtered test set.
    let test = data::test_set(&model);
    let teacher = data::predictions(&model, &test);
    let acc = data::quantized_accuracy(&model, &result.scheme(), &test, &teacher);
    println!(
        "top-1: {:.2} (baseline {:.2}, drop {:.2})",
        acc,
        model.baseline_top1(),
        model.baseline_top1() - acc
    );
}

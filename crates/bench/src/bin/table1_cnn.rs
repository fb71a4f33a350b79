//! Table 1: PTQ accuracy on the CNN family (ResNet-18, ResNet-50,
//! MobileNetV2) — LPQ against uniform-format baselines, with the paper's
//! published rows printed for comparison.
//!
//! The published competitors (EMQ, HAWQ-V3, AFP, ANT, BRECQ) are separate
//! frameworks; here each is represented by its *number format* under the
//! same per-tensor fitting, so the comparison isolates the format + LPQ
//! search contributions (see EXPERIMENTS.md).

use lp::quantizer::FormatKind;

fn main() {
    println!(
        "=== Table 1: CNN quantization accuracy (preset: {}) ===\n",
        bench::preset_name()
    );
    // Paper rows: (model, method, W/A, size MB, top-1).
    #[allow(clippy::type_complexity)] // literal table mirroring the paper
    let paper: [(&str, &[(&str, &str, f64, f64)]); 3] = [
        (
            "resnet18",
            &[
                ("Baseline", "32/32", 44.60, 71.08),
                ("ANT [7]", "MP/MP", 5.87, 70.30),
                ("BRECQ [12]", "MP/8", 5.10, 68.88),
                ("LPQ (paper)", "MP4.2/MP5.5", 4.10, 70.30),
            ],
        ),
        (
            "resnet50",
            &[
                ("Baseline", "32/32", 97.80, 77.72),
                ("ANT [7]", "MP/MP", 14.54, 76.70),
                ("AFP [14]", "MP4.8/MP", 13.20, 76.09),
                ("LPQ (paper)", "MP5.3/MP5.9", 14.0, 76.98),
            ],
        ),
        (
            "mobilenetv2",
            &[
                ("Baseline", "32/32", 13.40, 72.49),
                ("ANT [7]", "MP/MP", 1.84, 70.74),
                ("BRECQ [12]", "MP/8", 1.30, 68.99),
                ("LPQ (paper)", "MP4.1/MP4.98", 1.30, 71.20),
            ],
        ),
    ];

    let mut checks = Vec::new();
    for (name, rows) in paper {
        let m = bench::model(name);
        println!("--- {name} (baseline top-1 {:.2}) ---", m.baseline_top1());
        println!(
            "{:<22} {:>12} {:>10} {:>8}",
            "method", "W/A", "size(MB)", "top-1"
        );
        for (method, wa, size, acc) in rows {
            println!("{method:<22} {wa:>12} {size:>10.2} {acc:>8.2}   [paper]");
        }
        // Our measured rows: FP32 baseline, uniform INT8/INT4, AF8, LPQ.
        let fp_size = m.num_params() as f64 * 4.0 / 1e6;
        println!(
            "{:<22} {:>12} {:>10.3} {:>8.2}   [ours]",
            "Baseline (ours)",
            "32/32",
            fp_size,
            m.baseline_top1()
        );
        let mut uniform = Vec::new();
        for (label, kind, bits, act) in [
            ("INT8 uniform", FormatKind::Int, 8u32, Some(8u32)),
            ("INT4 uniform", FormatKind::Int, 4, Some(8)),
            ("AdaptivFloat-8", FormatKind::AdaptivFloat, 8, Some(8)),
        ] {
            let acc = bench::uniform_accuracy(&m, kind, bits, act);
            uniform.push((label, bits, acc));
            let size = m.num_params() as f64 * f64::from(bits) / 8.0 / 1e6;
            println!(
                "{label:<22} {:>12} {size:>10.3} {acc:>8.2}   [ours]",
                format!("{bits}/8")
            );
        }
        let run = bench::run_lpq(&m, bench::config_for(&m));
        println!(
            "{:<22} {:>12} {:>10.3} {:>8.2}   [ours]  (compression {:.1}x, {} evals)",
            "LPQ (ours)",
            format!("MP{:.1}/MP{:.1}", run.weight_bits, run.act_bits),
            run.size_mb,
            run.top1,
            32.0 / run.weight_bits,
            run.result.evaluations,
        );
        println!();
        checks.push(bench::shape_check(
            name,
            run.weight_bits,
            run.top1,
            &uniform,
        ));
    }
    println!("Shape check (paper: LPQ within ~1 point of FP32 at MP4.1-5.3):");
    for line in checks {
        println!("{line}");
    }
}

//! Table 2: PTQ accuracy on Vision Transformers (ViT-B, DeiT-S, Swin-T) —
//! LPQ against the W4/A8 uniform-integer setting that Evol-Q and FQ-ViT
//! evaluate, with the paper's published rows alongside.

use lp::quantizer::FormatKind;

fn main() {
    println!(
        "=== Table 2: ViT quantization accuracy (preset: {}) ===\n",
        bench::preset_name()
    );
    #[allow(clippy::type_complexity)] // literal table mirroring the paper
    let paper: [(&str, &[(&str, &str, f64)]); 3] = [
        (
            "vit_b",
            &[
                ("Baseline", "32/32", 84.53),
                ("Evol-Q [6]", "4/8", 79.50),
                ("FQ-ViT [13]", "4/8", 78.73),
                ("LPQ (paper)", "MP4.7/MP6.3", 80.14),
            ],
        ),
        (
            "deit_s",
            &[
                ("Baseline", "32/32", 79.80),
                ("Evol-Q [6]", "4/8", 77.06),
                ("FQ-ViT [13]", "4/8", 76.93),
                ("LPQ (paper)", "MP3.9/MP5.5", 78.01),
            ],
        ),
        (
            "swin_t",
            &[
                ("Baseline", "32/32", 81.20),
                ("Evol-Q [6]", "4/8", 80.43),
                ("FQ-ViT [13]", "4/8", 80.73),
                ("LPQ (paper)", "MP4.5/MP6.2", 80.98),
            ],
        ),
    ];

    let mut checks = Vec::new();
    for (name, rows) in paper {
        let m = bench::model(name);
        println!("--- {name} (baseline top-1 {:.2}) ---", m.baseline_top1());
        println!("{:<22} {:>14} {:>8}", "method", "W/A", "top-1");
        for (method, wa, acc) in rows {
            println!("{method:<22} {wa:>14} {acc:>8.2}   [paper]");
        }
        println!(
            "{:<22} {:>14} {:>8.2}   [ours]",
            "Baseline (ours)",
            "32/32",
            m.baseline_top1()
        );
        // The Evol-Q / FQ-ViT setting: uniform INT weights at 4 and 6 bits,
        // INT8 activations.
        let mut uniform = Vec::new();
        for (label, bits) in [("INT6 uniform", 6u32), ("INT4 uniform", 4)] {
            let acc = bench::uniform_accuracy(&m, FormatKind::Int, bits, Some(8));
            println!(
                "{label:<22} {:>14} {acc:>8.2}   [ours]",
                format!("{bits}/8")
            );
            uniform.push((label, bits, acc));
        }
        let run = bench::run_lpq(&m, bench::config_for(&m));
        println!(
            "{:<22} {:>14} {:>8.2}   [ours]  ({} evals)",
            "LPQ (ours)",
            format!("MP{:.1}/MP{:.1}", run.weight_bits, run.act_bits),
            run.top1,
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
    println!("Shape check (paper: LPQ at MP3.9-4.7 beats 4/8 uniform INT):");
    for line in checks {
        println!("{line}");
    }
}

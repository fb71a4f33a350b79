//! Cross-crate integration: the LPA hardware model against the software
//! golden model — bit-level decode agreement, functional GEMM fidelity,
//! and cycle/energy bookkeeping against real model workloads.

use dnn::models;
use lp::format::{LpParams, LpWord};
use lpa::decode::{decode_lane, decode_packed};
use lpa::pe::PeMode;
use lpa::sim::{execute, extract_workload, reference_workload};
use lpa::systolic::{gemm_functional, ArrayConfig};
use lpa::Design;

#[test]
fn hardware_decoder_matches_software_codec_for_all_packable_formats() {
    // Every ⟨n, es, rs⟩ the LPQ hardware-constrained search can emit.
    for (n, es_max) in [(2u32, 0u32), (4, 1), (8, 5)] {
        for es in 0..=es_max {
            for rs in 2u32.min(n - 1)..=(n - 1) {
                let p = LpParams::new(n, es, rs, 0.25).unwrap();
                for w in 0..(1u16 << n) {
                    let hw = decode_lane(w as u8, &p);
                    let sw = p.decode(LpWord::from_bits(w));
                    if sw == 0.0 || sw.is_nan() {
                        assert!(hw.zero);
                        continue;
                    }
                    let rel = ((hw.value() - sw) / sw).abs();
                    // sf quantization to Q·8 bounds the decoder deviation.
                    assert!(rel < 0.01, "LP<{n},{es},{rs}> word {w:#b}: {rel}");
                }
            }
        }
    }
}

#[test]
fn packed_modes_agree_with_lane_decode() {
    let p2 = LpParams::new(2, 0, 1, 0.0).unwrap();
    let p4 = LpParams::new(4, 1, 3, 0.0).unwrap();
    for word in 0..=255u8 {
        for (mode, p) in [(PeMode::A, &p2), (PeMode::B, &p4)] {
            let lanes = decode_packed(word, mode, p);
            assert_eq!(lanes.len(), mode.lanes());
        }
    }
}

#[test]
fn functional_gemm_reproduces_dnn_linear_layer() {
    // A real linear layer computed by the tensor library and by the PE
    // array must agree within the log-linear converter's error.
    let model = models::deit_s_like();
    let node = model
        .nodes()
        .iter()
        .find(|n| matches!(n.op, dnn::graph::Op::Linear { .. }))
        .expect("has a linear layer");
    let (w, out_f, in_f) = match &node.op {
        dnn::graph::Op::Linear { weight, .. } => {
            let dense = weight.as_dense().expect("the zoo builds dense weights");
            (dense.data().to_vec(), weight.shape()[0], weight.shape()[1])
        }
        _ => unreachable!(),
    };
    // x[1, in] × wᵀ[in, out] with the weight transposed into [K, N] layout.
    let x: Vec<f64> = (0..in_f).map(|i| ((i as f64) * 0.13).sin()).collect();
    let mut wt = vec![0.0f64; in_f * out_f];
    for o in 0..out_f {
        for i in 0..in_f {
            wt[i * out_f + o] = f64::from(w[o * in_f + i]);
        }
    }
    let got = gemm_functional(&x, &wt, 1, in_f, out_f, PeMode::C);
    for o in 0..out_f {
        let exact: f64 = (0..in_f).map(|i| x[i] * f64::from(w[o * in_f + i])).sum();
        let tol = 0.01
            * (0..in_f)
                .map(|i| (x[i] * f64::from(w[o * in_f + i])).abs())
                .sum::<f64>()
            + 1e-9;
        assert!(
            (got[o] - exact).abs() <= tol,
            "output {o}: {} vs {exact}",
            got[o]
        );
    }
}

#[test]
fn workload_mac_counts_match_layer_shapes() {
    let model = models::resnet18_like();
    let bits = vec![8u32; model.num_quant_layers()];
    let workload = extract_workload(&model, &bits);
    // Stem conv: 256 positions × 27 reduction × 8 outputs.
    assert_eq!(workload[0].macs(), 256 * 27 * 8);
    // Reference scale multiplies MACs by 49 (spatial) × 64 (channels²) for
    // convs.
    let reference = reference_workload(&model, &bits);
    assert_eq!(reference[0].macs(), workload[0].macs() * 49 * 64);
}

#[test]
fn design_comparison_is_stable_across_models() {
    // On every zoo model, the Table-3 design ordering must hold for a
    // mixed allocation: LPA fastest, AdaptivFloat least dense.
    let cfg = ArrayConfig::default();
    for name in ["resnet18", "resnet50", "mobilenetv2", "vit_b"] {
        let model = models::by_name(name);
        let bits: Vec<u32> = (0..model.num_quant_layers())
            .map(|i| [4u32, 8][i % 2])
            .collect();
        let w = reference_workload(&model, &bits);
        let lpa = execute(Design::Lpa, &cfg, &w);
        let ant = execute(Design::Ant, &cfg, &w);
        let af = execute(Design::AdaptivFloat, &cfg, &w);
        assert!(lpa.cycles < ant.cycles, "{name}: LPA must beat ANT");
        assert!(lpa.cycles < af.cycles, "{name}: LPA must beat AdaptivFloat");
        assert_eq!(lpa.macs, ant.macs, "{name}: same workload, same MACs");
    }
}

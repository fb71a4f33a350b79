//! LPQ search results pinned bit for bit.
//!
//! The constants below were recorded before calibration forwards learned to
//! resume from a cached prefix, to run in batches and to pool statistics
//! inside the forward. Those are pure scheduling changes: the same ops run
//! on the same values, so every fitness bit, the winner and the evaluation
//! count must stay exactly as recorded. Each `best_history[i]` is also
//! re-evaluated on a fresh engine (a full, non-resumed evaluation), which
//! must reproduce `fitness_history[i]` bit for bit.

use dnn::models;
use lpq::search::{Lpq, LpqConfig, LpqResult};

/// A search outcome: `fitness_history` as `f64` bits, the winner as
/// `(n, es, rs, sf bits)` per layer, and the evaluation count.
struct Golden {
    history: &'static [u64],
    best: &'static [(u32, u32, u32, u64)],
    evaluations: usize,
}

fn tiny_config() -> LpqConfig {
    LpqConfig {
        population: 4,
        passes: 1,
        cycles: 1,
        block_size: 8,
        diversity_children: 2,
        calib_size: 8,
        max_population: 8,
        ..LpqConfig::paper()
    }
}

/// The result in the syntax of a [`Golden`] literal, so a mismatch prints
/// the values to pin.
fn render(r: &LpqResult) -> String {
    let history: Vec<String> = r
        .fitness_history
        .iter()
        .map(|f| format!("{:#018x}", f.to_bits()))
        .collect();
    let best: Vec<String> = r
        .best
        .layers
        .iter()
        .map(|l| format!("({}, {}, {}, {:#018x})", l.n, l.es, l.rs, l.sf.to_bits()))
        .collect();
    format!(
        "Golden {{\n    history: &[{}],\n    best: &[{}],\n    evaluations: {},\n}}",
        history.join(", "),
        best.join(", "),
        r.evaluations
    )
}

fn check(model_name: &str, cfg: LpqConfig, want: &Golden) {
    let model = models::by_name(model_name);
    let result = Lpq::new(&model, cfg.clone()).run();
    let got = render(&result);
    let history: Vec<u64> = result.fitness_history.iter().map(|f| f.to_bits()).collect();
    let best: Vec<(u32, u32, u32, u64)> = result
        .best
        .layers
        .iter()
        .map(|l| (l.n, l.es, l.rs, l.sf.to_bits()))
        .collect();
    assert!(
        history == want.history && best == want.best && result.evaluations == want.evaluations,
        "{model_name}: search drifted from the pinned result; got\n{got}"
    );
    let mut fresh = Lpq::new(&model, cfg);
    for (i, (cand, &fit)) in result
        .best_history
        .iter()
        .zip(&result.fitness_history)
        .enumerate()
    {
        let again = fresh.evaluate(cand);
        assert_eq!(
            again.to_bits(),
            fit.to_bits(),
            "{model_name}: best_history[{i}] re-evaluates to {again}, recorded {fit}"
        );
    }
}

#[test]
fn tiny_resnet18_is_pinned() {
    check("resnet18", tiny_config(), &RESNET18_TINY);
}

#[test]
fn tiny_mobilenetv2_is_pinned() {
    check("mobilenetv2", tiny_config(), &MOBILENETV2_TINY);
}

#[test]
fn tiny_deit_s_model_blocks_is_pinned() {
    let cfg = LpqConfig {
        block_size: 0,
        ..tiny_config()
    };
    check("deit_s", cfg, &DEIT_S_TINY);
}

#[test]
fn quick_resnet18_is_pinned() {
    check("resnet18", LpqConfig::quick(), &RESNET18_QUICK);
}

const RESNET18_TINY: Golden = Golden {
    history: &[0x3ff611c2de0b6191, 0x3ff5edbefbe561ff, 0x3ff594b833e72d9c],
    best: &[
        (8, 2, 3, 0x40064470d4e7529a),
        (8, 2, 3, 0x4007459cdb003252),
        (8, 2, 3, 0x400818aee20884dd),
        (8, 2, 3, 0x40054b928d78e1fb),
        (8, 2, 3, 0x4008a6fc0b09ca73),
        (8, 2, 3, 0x400ec3f79e182474),
        (8, 2, 3, 0x401353c953fe4e49),
        (8, 2, 3, 0x4009d849d222fa2d),
        (8, 2, 2, 0x4013158c16d9f059),
        (8, 2, 2, 0x400fe852345ae93f),
        (8, 2, 3, 0x400b5768cab73dd9),
        (8, 2, 2, 0x400cb6d5b69aeea5),
        (8, 1, 2, 0x3ffe56c544545ab5),
        (8, 1, 4, 0x401073a7d7e05e46),
        (8, 1, 2, 0x40130a764115b890),
        (4, 1, 3, 0x401546d9a1bf4647),
        (4, 1, 2, 0x4017e1e8f7222b66),
        (8, 2, 3, 0x400f3f0b490a622c),
        (8, 0, 2, 0x4013d8650e6e208b),
        (8, 2, 2, 0x4010fc9e74fcaf15),
        (8, 3, 2, 0x4003c81df4a471c7),
    ],
    evaluations: 13,
};

const MOBILENETV2_TINY: Golden = Golden {
    history: &[
        0x3ffacbab0b21cfcc,
        0x3ffacbab0b21cfcc,
        0x3ffacbab0b21cfcc,
        0x3ffacbab0b21cfcc,
        0x3ffacbab0b21cfcc,
        0x3ffa99f1fa284dc4,
    ],
    best: &[
        (8, 2, 3, 0x40061428ec2e4bc0),
        (8, 2, 3, 0x3ff45c120d6cabdf),
        (8, 2, 3, 0x3ff705630e4b2f5d),
        (8, 2, 3, 0x3fec8a857fb32396),
        (8, 2, 3, 0x3ff8feb1093b1977),
        (8, 2, 3, 0x400938521c77be2f),
        (8, 2, 3, 0x4008763a93810ccc),
        (8, 2, 3, 0x400b215d88572e52),
        (8, 2, 3, 0x400f889409404c27),
        (8, 2, 3, 0x4000822c5e4c27ed),
        (8, 2, 3, 0x3ff61853567d78a8),
        (8, 2, 3, 0x400121a77b33342a),
        (8, 2, 3, 0x3fff2025ea833540),
        (8, 2, 3, 0x3ffa9d36b91a9693),
        (8, 2, 3, 0x400e182e8260acb0),
        (8, 2, 3, 0x400a1cf5e766d162),
        (8, 2, 3, 0x40086edb6048cabc),
        (8, 2, 3, 0x4011cd301c36fb32),
        (8, 2, 3, 0x400302171529a4f0),
        (8, 2, 3, 0x3ff3bd6c83618dfd),
        (8, 2, 3, 0x400369ac90d71db1),
        (8, 2, 3, 0x3ffed4b0d2e05ff9),
        (8, 2, 3, 0x4001b11992a567ea),
        (8, 2, 3, 0x40102a904ac2c18a),
        (8, 2, 3, 0x400c99d4c3c80a90),
        (8, 2, 3, 0x400844f1913a814f),
        (8, 2, 3, 0x40113d4b43c75f74),
        (8, 2, 3, 0x40085b0608f3eced),
        (8, 2, 3, 0x3ff50c068eedbf27),
        (8, 2, 3, 0x40058aae66e69e00),
        (8, 2, 3, 0x400123890edb89e1),
        (8, 2, 3, 0x3ffa78358301dd33),
        (8, 2, 3, 0x4012fb071235958f),
        (8, 2, 3, 0x400e0bccb7ba562f),
        (8, 2, 3, 0x400762087bc8a908),
        (8, 2, 3, 0x40120c8ef9733535),
        (8, 2, 3, 0x40091da877d109dc),
        (8, 2, 3, 0x3ffb77b0f1db4192),
        (8, 2, 3, 0x4009c029dcb5804b),
        (8, 2, 3, 0x4002bba824410306),
        (8, 2, 2, 0x400992606a7c7fdf),
    ],
    evaluations: 22,
};

const DEIT_S_TINY: Golden = Golden {
    history: &[
        0x3ff625b1d0f4047d,
        0x3ff625b1d0f4047d,
        0x3ff625b1d0f4047d,
        0x3ff625b1d0f4047d,
        0x3ff625b1d0f4047d,
        0x3ff615d1e859a62a,
        0x3ff615d1e859a62a,
        0x3ff5faabb6ade6e4,
        0x3ff5faabb6ade6e4,
        0x3ff5ecd7bcb69956,
        0x3ff5ecd7bcb69956,
        0x3ff5e07abbda743b,
        0x3ff5df609e6d5b34,
        0x3ff5df609e6d5b34,
    ],
    best: &[
        (8, 2, 3, 0x4009cbd99560acd0),
        (8, 2, 3, 0x40003e8bb5eee374),
        (8, 2, 3, 0x400253703a45e6a4),
        (8, 2, 3, 0x3ffd909f3408f0bb),
        (8, 2, 3, 0x400289dc0a4865a0),
        (8, 2, 3, 0x40088ca1882e6071),
        (8, 2, 3, 0x4012815d8a70d927),
        (8, 2, 3, 0x40109ea242fb661c),
        (8, 2, 3, 0x400b1f516819e733),
        (8, 2, 3, 0x40050b5dc96abcb4),
        (8, 2, 3, 0x40006f63da78a9ba),
        (8, 2, 3, 0x3ffc2cf80b45fd9f),
        (8, 2, 3, 0x400a18b1be0a841c),
        (8, 2, 3, 0x40034ddf2fd0e86b),
        (8, 2, 3, 0x4007b4a1ef9a97b9),
        (8, 2, 3, 0x400cd486f52afd5e),
        (8, 2, 3, 0x400cb379abbf0789),
        (8, 2, 3, 0x400dc3aa18d2cb87),
        (8, 2, 3, 0x400d0930e0cd316b),
        (8, 2, 3, 0x3fff3799709a39fc),
        (8, 2, 3, 0x3ffc70fd228fbc82),
        (8, 2, 3, 0x3ffd96047850fa34),
        (8, 2, 3, 0x4006824d4fdf592f),
        (8, 2, 3, 0x400841a3b4430476),
        (8, 2, 3, 0x401218e6ec0b3e2a),
        (8, 3, 3, 0x400dffc978aacaa7),
        (8, 3, 2, 0x400ad1fc9fdbd1d8),
        (8, 3, 4, 0x4009195bac3dbda1),
        (8, 2, 2, 0x3ffff6c9c41d7213),
        (8, 1, 4, 0x3ffbc789bf522602),
        (8, 1, 2, 0x400697d5bf7fa2aa),
        (8, 2, 3, 0x400416a6cdff1c55),
        (8, 2, 3, 0x400c7a0e5648771e),
        (8, 2, 3, 0x400cf607b5bd650e),
        (8, 2, 3, 0x400c4af1e091f174),
        (8, 2, 3, 0x400a34a50281175a),
        (8, 2, 3, 0x400d0b29931169b2),
        (8, 0, 2, 0x4003ab245fdddec1),
        (8, 2, 2, 0x3ffb7418b3ca0a76),
        (8, 2, 2, 0x3fff1577969ba20c),
        (8, 4, 4, 0x4003851d2e96c21d),
        (4, 1, 2, 0x40093b17db31da0f),
        (8, 4, 3, 0x4013f3d3efd2e6fd),
        (8, 2, 3, 0x400de41397b51914),
        (8, 2, 3, 0x400906db296df37e),
        (8, 2, 3, 0x4004c7fd717751b5),
        (8, 2, 3, 0x3ffff4435b159bd5),
        (8, 2, 3, 0x4001459fc89513b8),
        (8, 2, 3, 0x4006f35f78bbc7ae),
        (8, 3, 2, 0x4003ba7d4446e097),
        (4, 0, 2, 0x40091d103dc1a029),
        (8, 2, 2, 0x400c4bcbfde18eb1),
        (8, 4, 2, 0x4010112a19f1e3d6),
        (4, 1, 2, 0x400a49baeeaa3249),
        (8, 3, 5, 0x400d3bbfbfbdb0e8),
        (8, 2, 3, 0x3fff2b3d6789a5b4),
        (8, 2, 3, 0x3ffa81bf4eeaa263),
        (8, 2, 3, 0x400297ad953c78b2),
        (8, 2, 3, 0x4003452cc01a556c),
        (8, 2, 3, 0x4008d06632bb987f),
        (8, 2, 3, 0x4012a062087f9d73),
        (8, 2, 2, 0x400e146050a226d4),
        (8, 1, 2, 0x400cf28c2e344045),
        (8, 1, 2, 0x4003e3f9d40cbc7e),
        (4, 1, 3, 0x3fff5856b5b8acfb),
        (8, 3, 2, 0x3ff8bf566553e8b6),
        (4, 0, 2, 0x4008604e4f5405a4),
        (8, 1, 3, 0x40094f92442d2004),
        (4, 0, 2, 0x40095e43de6943a0),
        (8, 4, 2, 0x400c9bfc9af47ba8),
        (8, 2, 2, 0x400df310ae4b1a1d),
        (8, 3, 2, 0x400a84c02e66c3ac),
        (8, 1, 2, 0x400f748a8d284c7e),
        (8, 2, 3, 0x3ffff6b13240756a),
    ],
    evaluations: 46,
};

const RESNET18_QUICK: Golden = Golden {
    history: &[
        0x400daa269cf4ae7b,
        0x400daa269cf4ae7b,
        0x400daa269cf4ae7b,
        0x400daa269cf4ae7b,
        0x400daa269cf4ae7b,
        0x400daa269cf4ae7b,
    ],
    best: &[
        (8, 2, 3, 0x40064470d4e7529a),
        (8, 2, 3, 0x4007459cdb003252),
        (8, 2, 3, 0x400818aee20884dd),
        (8, 2, 3, 0x40054b928d78e1fb),
        (8, 2, 3, 0x4008a6fc0b09ca73),
        (8, 2, 3, 0x400ec3f79e182474),
        (8, 2, 3, 0x401353c953fe4e49),
        (8, 2, 3, 0x4009d849d222fa2d),
        (8, 2, 3, 0x4012a6fe90e9261d),
        (8, 2, 3, 0x400f9d065f915ad0),
        (8, 2, 3, 0x400ab90d3f069df3),
        (8, 2, 3, 0x400c1b47d5b8fab3),
        (8, 2, 3, 0x3ffd8f59ed45bc36),
        (8, 2, 3, 0x4010bed2ed78df6c),
        (8, 2, 3, 0x40133c0683f66a84),
        (8, 2, 3, 0x40157e5b9ff771b6),
        (8, 2, 3, 0x4017f75d8822b3bc),
        (8, 2, 3, 0x400f6c5fef508526),
        (8, 2, 3, 0x4013e580d3284e54),
        (8, 2, 3, 0x40114a0083235513),
        (8, 2, 3, 0x4003584e833ed99d),
    ],
    evaluations: 32,
};

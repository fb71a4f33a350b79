//! Property-based equivalence of the table codec against the scalar path:
//! for every format family and bit width 2–16 (3–16 for AdaptivFloat and
//! minifloat, which need a sign, an exponent and a mantissa bit, and for
//! LNS, whose constructor accepts n ≥ 3),
//! `DecodeTable`-based batch
//! quantization must be **bit-identical** (`f32::to_bits`) to the scalar
//! `quantize` reference — including signed zeros, NaR/non-finite inputs,
//! saturation at ±max, and inputs deep in the subnormal/flush region.

use lp::adaptivfloat::AdaptivFloat;
use lp::baselines::{FixedPoint, IntQuantizer, LnsQuantizer, MiniFloat};
use lp::format::LpParams;
use lp::posit::PositParams;
use lp::Quantizer;
use proptest::prelude::*;

/// Builds one valid quantizer of the chosen family, deriving in-range
/// parameters from the raw knobs. The knob grids are deliberately small and
/// discrete so the process-wide table cache amortizes builds across cases.
fn make(kind: usize, n: u32, a: u32, b: u32, sf_step: i32) -> Box<dyn Quantizer + Send + Sync> {
    let sf = f64::from(sf_step) * 0.5;
    match kind {
        0 => {
            let es = a.min(n.saturating_sub(3)).min(5);
            let rs_lo = 2u32.min(n - 1);
            let rs = (rs_lo + b).min(n - 1);
            Box::new(LpParams::new(n, es, rs, sf).unwrap())
        }
        1 => {
            let es = a.min(n - 2);
            Box::new(PositParams::new(n, es).unwrap())
        }
        2 => {
            let n = n.max(3);
            let e = (1 + a).clamp(1, n - 1);
            Box::new(AdaptivFloat::new(n, e, sf_step - 1).unwrap())
        }
        3 => {
            let n = n.max(3);
            let e = (1 + a).clamp(1, n - 1);
            Box::new(MiniFloat::new(n, e).unwrap())
        }
        4 => {
            let scale = f64::from(1 + a) * 0.05 * f64::from(b + 1);
            Box::new(IntQuantizer::new(n, scale).unwrap())
        }
        5 => Box::new(FixedPoint::new(n, a as i32 * 3 - 2).unwrap()),
        _ => {
            let f = (1 + a).min(n.max(3) - 2);
            Box::new(LnsQuantizer::new(n.max(3), f, sf).unwrap())
        }
    }
}

/// Inputs spanning normal magnitudes, saturation, and the flush-to-zero /
/// subnormal region, both signs.
fn inputs() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        (-48.0f64..48.0, prop::bool::ANY).prop_map(|(l, neg)| {
            let v = l.exp2() as f32;
            if neg {
                -v
            } else {
                v
            }
        }),
        1..64,
    )
}

/// The adversarial fixed probes appended to every case.
fn specials() -> Vec<f32> {
    vec![
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN,
        f32::MAX,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1e-40,
        -1e-40, // f32 subnormals
        1.0,
        -1.0,
        // The NaNs with the largest keys of either sign.
        f32::from_bits(0x7FFF_FFFF),
        f32::from_bits(0xFFFF_FFFF),
    ]
}

proptest! {
    #[test]
    fn table_is_bit_identical_to_scalar(
        kind in 0usize..7,
        n in 2u32..=16,
        a in 0u32..2,
        b in 0u32..2,
        sf_step in -1i32..=1,
        xs in inputs(),
    ) {
        let q = make(kind, n, a, b, sf_step);
        let mut xs = xs;
        xs.extend(specials());

        let mut table_path = xs.clone();
        q.quantize_slice(&mut table_path);

        let mut scalar_path = xs.clone();
        q.quantize_slice_scalar(&mut scalar_path);

        for ((x, t), s) in xs.iter().zip(&table_path).zip(&scalar_path) {
            prop_assert_eq!(
                t.to_bits(),
                s.to_bits(),
                "{}: input {:?} ({:#010x}): table {:?} vs scalar {:?}",
                q.codec_key(), x, x.to_bits(), t, s
            );
        }
    }

    #[test]
    fn batch_codes_decode_to_table_values(
        kind in 0usize..7,
        n in 2u32..=10,
        xs in inputs(),
    ) {
        let q = make(kind, n, 1, 1, 0);
        let table = q.decode_table();
        let finite: Vec<f32> = xs.into_iter().filter(|x| x.is_finite()).collect();
        let codes = table.quantize_batch(&finite);
        let decoded = table.dequantize_batch(&codes);
        let mut expect = finite.clone();
        table.quantize_slice(&mut expect);
        for ((x, d), e) in finite.iter().zip(&decoded).zip(&expect) {
            // Codes collapse the sign of flushed zeros (datapath
            // semantics); values must otherwise agree exactly.
            prop_assert_eq!(
                d.to_bits(),
                if *e == 0.0 { 0.0f32.to_bits() } else { e.to_bits() },
                "{}: input {:?}",
                q.codec_key(), x
            );
        }
    }

    #[test]
    fn quantize_batch_into_matches_wrapper_and_reuses_buffer(
        kind in 0usize..7,
        n in 2u32..=16,
        a in 0u32..2,
        xs in inputs(),
    ) {
        // The vectorized zero-allocation entry point must produce exactly
        // the wrapper's codes — including non-finite specials and
        // non-multiple-of-8 lengths — and must reuse the output buffer's
        // capacity across calls.
        let q = make(kind, n, a, 1, 0);
        let table = q.decode_table();
        let mut xs = xs;
        xs.extend(specials());

        let mut out = Vec::new();
        table.quantize_batch_into(&xs, &mut out);
        prop_assert_eq!(&out, &table.quantize_batch(&xs), "{}", q.codec_key());

        let cap = out.capacity();
        let ptr = out.as_ptr();
        table.quantize_batch_into(&xs[..xs.len() / 2], &mut out);
        prop_assert_eq!(out.len(), xs.len() / 2);
        prop_assert_eq!(out.capacity(), cap, "capacity must be reused");
        prop_assert_eq!(out.as_ptr(), ptr, "allocation must be reused");
    }

    #[test]
    fn quantize_batch_is_idempotent_through_values(
        kind in 0usize..7,
        n in 2u32..=10,
        xs in inputs(),
    ) {
        // Re-quantizing the decoded values must be the identity on codes
        // (every table value is a fixed point of its own quantizer).
        let q = make(kind, n, 0, 1, 1);
        let table = q.decode_table();
        let finite: Vec<f32> = xs.into_iter().filter(|x| x.is_finite()).collect();
        let codes = table.quantize_batch(&finite);
        let decoded = table.dequantize_batch(&codes);
        let codes2 = table.quantize_batch(&decoded);
        prop_assert_eq!(codes, codes2, "{}", q.codec_key());
    }
}

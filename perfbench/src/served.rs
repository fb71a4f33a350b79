//! `vit_wire` and `cnn_wire`: zoo models packed into LP codes and served
//! over TCP, every response checked bit for bit.

use crate::replay::{self, Spans};
use crate::report::{Report, Workload};
use crate::wire::{self, BatchFn, Target, Wire, WireConfig, MAX_BATCH};
use crate::{ms_since, Opts};
use dnn::graph::{Model, QuantScheme, WeightCache};
use dnn::{data, models, Tensor};
use lp::{LpParams, Quantizer};
use serve::server::ScenarioSpec;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

type Q = Arc<dyn Quantizer + Send + Sync>;

/// How a scenario picks each weighted layer's weight width.
#[derive(Clone, Copy)]
enum Widths {
    /// 8 bits everywhere.
    Lp8,
    /// 4 bits on odd layers, 8 bits on even ones and on the classifier.
    Mixed48,
}

impl Widths {
    fn bits(self, layer: usize, layers: usize) -> u32 {
        match self {
            Widths::Mixed48 if layer % 2 == 1 && layer + 1 < layers => 4,
            _ => 8,
        }
    }
}

/// `(model, scenario, widths)` of each registration of a workload.
fn plan(w: Workload) -> Vec<(&'static str, &'static str, Widths)> {
    match w {
        Workload::VitWire => vec![
            ("deit_s", "lp8", Widths::Lp8),
            ("deit_s", "mixed48", Widths::Mixed48),
        ],
        Workload::CnnWire => vec![
            ("resnet18", "lp8", Widths::Lp8),
            ("mobilenetv2", "lp8", Widths::Lp8),
        ],
        _ => unreachable!("not a served-model workload"),
    }
}

/// One registration: the dense model, its packed copy and the scheme.
struct Reg {
    model: Arc<Model>,
    packed: Arc<Model>,
    scheme: Arc<QuantScheme>,
    scenario: &'static str,
    inputs: Vec<Tensor>,
}

/// An LP format with es = 2, rs = 3 and the scale factor fitted so the
/// largest magnitude in `data` does not saturate.
fn fitted(bits: u32, data: &[f32]) -> Q {
    let base = LpParams::clamped(i64::from(bits), 2, 3, 0.0);
    Arc::new(base.with_sf(base.fit_sf_saturating(data)))
}

/// Each weighted layer's outputs over eight calibration images, the data
/// activation formats are fitted on.
fn calibration_irs(model: &Model) -> Vec<Vec<f32>> {
    let traces: Vec<_> = data::calibration_set(model)
        .iter()
        .take(8)
        .map(|x| model.forward_traced(x, None, true))
        .collect();
    (0..model.num_quant_layers())
        .map(|l| {
            traces
                .iter()
                .flat_map(|t| t.irs[l].data().iter().copied())
                .collect()
        })
        .collect()
}

/// Input stream `stream` of run seed `seed`.
pub fn input_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream
}

/// Runs `vit_wire` or `cnn_wire`.
///
/// # Errors
///
/// Set-up, socket or `/proc` failures.
pub fn run(
    opts: &Opts,
    report: &mut Report,
    started: Instant,
    spans: &mut Spans,
) -> Result<(), String> {
    let plan = plan(opts.workload);
    let cfg = WireConfig {
        // Two full batches per registration in flight: one running, one
        // filling, so alternating requests still dispatch full batches.
        window: 2 * MAX_BATCH * plan.len(),
        warmup: if opts.tiny { 32 } else { 256 },
    };
    let n_inputs = if opts.tiny { 16 } else { 256 };

    let t = Instant::now();
    let mut names: Vec<&str> = plan.iter().map(|p| p.0).collect();
    names.dedup();
    let built: Vec<Arc<Model>> = names.iter().map(|n| Arc::new(models::by_name(n))).collect();
    report.set("setup.model_build_ms", ms_since(t));

    let t = Instant::now();
    let irs: Vec<Vec<Vec<f32>>> = built.iter().map(|m| calibration_irs(m)).collect();
    let schemes: Vec<QuantScheme> = plan
        .iter()
        .map(|&(name, _, widths)| {
            let mi = names.iter().position(|n| *n == name).expect("built");
            let m = &built[mi];
            let layers = m.num_quant_layers();
            let weights = m
                .layer_weights()
                .iter()
                .enumerate()
                .map(|(l, w)| Some(fitted(widths.bits(l, layers), w)))
                .collect();
            let acts = irs[mi].iter().map(|buf| Some(fitted(8, buf))).collect();
            QuantScheme::new(weights, acts)
        })
        .collect();
    report.set("setup.fit_ms", ms_since(t));

    let t = Instant::now();
    let caches: Vec<Arc<WeightCache>> = built.iter().map(|_| Arc::default()).collect();
    let mut regs: Vec<Reg> = plan
        .iter()
        .zip(schemes)
        .map(|(&(name, scenario, _), scheme)| {
            let mi = names.iter().position(|n| *n == name).expect("built");
            let scheme = Arc::new(scheme.with_shared_cache(Arc::clone(&caches[mi])));
            Reg {
                model: Arc::clone(&built[mi]),
                packed: Arc::new(built[mi].quantize_weights_packed(&scheme)),
                scheme,
                scenario,
                inputs: Vec::new(),
            }
        })
        .collect();
    report.set("setup.pack_ms", ms_since(t));

    let t = Instant::now();
    let mut targets = Vec::with_capacity(regs.len());
    for (ri, reg) in regs.iter_mut().enumerate() {
        reg.inputs = data::synthetic_images(
            n_inputs,
            reg.model.input_shape(),
            input_seed(opts.seed, ri as u64),
        );
        let expected = reg
            .inputs
            .chunks(MAX_BATCH)
            .flat_map(|c| reg.packed.forward_batch_quant(c, Some(&reg.scheme)))
            .map(|y| wire::encode_tensor(&y))
            .collect();
        targets.push(Target {
            model: reg.model.name().to_string(),
            scenario: reg.scenario.to_string(),
            payloads: reg.inputs.iter().map(wire::encode_tensor).collect(),
            expected,
        });
    }
    targets[0].corrupt(opts.corrupt);
    report.set("setup.expected_ms", ms_since(t));

    let t = Instant::now();
    let fns: Vec<(ScenarioSpec, BatchFn)> = regs
        .iter()
        .map(|r| {
            let f: BatchFn = Box::new(wire::packed_batch_fn(
                Arc::clone(&r.packed),
                Arc::clone(&r.scheme),
            ));
            (ScenarioSpec::new(r.model.name(), r.scenario), f)
        })
        .collect();
    let mut wire = Wire::start(cfg, fns)?;
    report.set("setup.edge_start_ms", ms_since(t));
    let t = Instant::now();
    wire.warm_up(&targets, report)?;
    report.set("setup.warmup_ms", ms_since(t));
    report.set("setup_s", started.elapsed().as_secs_f64());
    if opts.probe {
        wire.shutdown();
        return Ok(());
    }

    wire.measure(&targets, opts.seconds, report)?;
    wire.shutdown();
    serving_metrics(&regs, &caches, report);
    if report.traced() {
        replays(opts, &regs, spans, report);
    } else {
        quant_top1(&regs, report);
    }
    Ok(())
}

/// Resident packed-weight bytes (shared code buffers counted once) and
/// how much the weight caches were reused across registrations.
fn serving_metrics(regs: &[Reg], caches: &[Arc<WeightCache>], report: &mut Report) {
    let mut seen = HashSet::new();
    let mut bytes = 0usize;
    for r in regs {
        for s in r.packed.layer_storages() {
            match s.as_packed() {
                Some(q) if !seen.insert(q.codes_ptr()) => {}
                _ => bytes += s.resident_bytes(),
            }
        }
    }
    let slots: usize = regs.iter().map(|r| r.model.num_quant_layers()).sum();
    let entries: usize = caches.iter().map(|c| c.len()).sum();
    report.set("serving.resident_weight_bytes", bytes as f64);
    report.set(
        "serving.weight_cache_reuse",
        1.0 - entries as f64 / slots.max(1) as f64,
    );
    println!(
        "  weight caches: {entries} packed layer tensors for {slots} (registration, layer) \
         slots"
    );
}

/// Teacher-agreement top-1 of each served scheme on `dnn::data::test_set`,
/// run through the same packed model and batch path the server uses;
/// the metric is the mean over registrations.
fn quant_top1(regs: &[Reg], report: &mut Report) {
    let mut sum = 0.0;
    let mut teacher_of: Vec<(String, Vec<Tensor>, Vec<usize>)> = Vec::new();
    for r in regs {
        if !teacher_of.iter().any(|(n, _, _)| n == r.model.name()) {
            let test = data::test_set(&r.model);
            let teacher = data::predictions(&r.model, &test);
            teacher_of.push((r.model.name().to_string(), test, teacher));
        }
        let (_, test, teacher) = teacher_of
            .iter()
            .find(|(n, _, _)| n == r.model.name())
            .expect("computed above");
        let hits = test
            .chunks(MAX_BATCH)
            .flat_map(|c| r.packed.forward_batch_quant(c, Some(&r.scheme)))
            .zip(teacher)
            .filter(|(y, &t)| y.argmax() == t)
            .count();
        let top1 = r.model.baseline_top1() * hits as f64 / test.len() as f64;
        println!(
            "  quant_top1 {}/{}: {top1:.3} % (FP32 baseline {:.2} %)",
            r.model.name(),
            r.scenario,
            r.model.baseline_top1()
        );
        sum += top1;
    }
    report.set("quant_top1", sum / regs.len() as f64);
}

/// The traced run's graph, tensor and codec replays on the served models.
fn replays(opts: &Opts, regs: &[Reg], spans: &mut Spans, report: &mut Report) {
    let reps = if opts.tiny { 2 } else { 15 };
    let results: Vec<_> = regs
        .iter()
        .map(|r| {
            let label = format!("{}/{}", r.model.name(), r.scenario);
            replay::replay_model(
                spans, &label, &r.model, &r.packed, &r.scheme, &r.inputs, reps,
            )
        })
        .collect();
    replay::report_replays(report, &results);
    let schemes: Vec<&QuantScheme> = regs.iter().map(|r| r.scheme.as_ref()).collect();
    report.set(
        "codec.table_build_ms",
        replay::replay_table_builds(spans, &schemes, if opts.tiny { 1 } else { 3 }),
    );
}

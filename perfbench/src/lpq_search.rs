//! `lpq_search`: the LPQ genetic search on resnet18, in process. An op is
//! one candidate fitness evaluation.

use crate::replay::{self, Spans};
use crate::report::Report;
use crate::served::input_seed;
use crate::wire::{fast_tenth, percentile, pool_metrics, print_trace_counts, MAX_BATCH};
use crate::{host, ms_since, Opts};
use dnn::graph::QuantScheme;
use dnn::{data, models};
use lpq::objective::FitnessEvaluator;
use lpq::search::{Lpq, LpqConfig, LpqResult};
use serve::pool::{par_map_pooled, Pool};
use serve::trace;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consecutive searches per latency chunk.
const SEARCHES_PER_CHUNK: usize = 4;

/// The search configuration of search `k` of a run: the quick preset (a
/// smaller one for `--tiny`) seeded from the run seed.
fn config(opts: &Opts, k: u64) -> LpqConfig {
    let mut cfg = LpqConfig::quick();
    if opts.tiny {
        cfg.population = 4;
        cfg.passes = 1;
        cfg.diversity_children = 2;
        cfg.calib_size = 8;
    }
    cfg.seed = input_seed(opts.seed, k);
    cfg
}

/// Runs `lpq_search`.
///
/// # Errors
///
/// An unreadable `/proc`.
pub fn run(
    opts: &Opts,
    report: &mut Report,
    started: Instant,
    spans: &mut Spans,
) -> Result<(), String> {
    let t = Instant::now();
    let model = models::by_name("resnet18");
    report.set("setup.model_build_ms", ms_since(t));

    let t = Instant::now();
    let test = data::test_set(&model);
    let teacher = data::predictions(&model, &test);
    report.set("setup.expected_ms", ms_since(t));

    // The set-up search engine: calibration set, FP reference traces and
    // scale-factor centers. The timed searches each build their own; this
    // one re-evaluates the winner afterwards.
    let t = Instant::now();
    let cfg = config(opts, 0);
    let mut probe = Lpq::new(&model, cfg.clone());
    report.set("lpq.new_ms", ms_since(t));
    let expected_evals = cfg.population
        + cfg.passes * probe.blocks().len() * cfg.cycles * (1 + cfg.diversity_children);
    report.set("setup_s", started.elapsed().as_secs_f64());
    if opts.probe {
        return Ok(());
    }
    println!(
        "  config: LPQ quick preset (population {}, passes {}, cycles {}, block size {}, \
         {} diversity children, {} calibration images), {} blocks, {} evaluations per search, \
         global pool {} threads",
        cfg.population,
        cfg.passes,
        cfg.cycles,
        cfg.block_size,
        cfg.diversity_children,
        cfg.calib_size,
        probe.blocks().len(),
        expected_evals,
        Pool::global().threads()
    );

    if report.traced() {
        trace::clear();
        trace::set_enabled(true);
    }
    let pool0 = Pool::global().stats();
    let window = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut evals = 0usize;
    // Per search: wall ms per evaluation, evaluations per second, process
    // CPU ms per evaluation. Each search is one slice of the window.
    let (mut per_eval_ms, mut rates, mut cpu_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<LpqResult> = None;
    let mut all_ok = true;
    for k in 0.. {
        let cfg = config(opts, k);
        let cpu0 = host::cpu_seconds()?;
        let (res, secs) = spans.time("lpq.search", |_| Lpq::new(&model, cfg).run());
        let cpu_s = host::cpu_seconds()? - cpu0;
        let ok = res.evaluations == expected_evals
            && res.fitness_history.windows(2).all(|w| w[1] <= w[0]);
        all_ok &= ok;
        report.count(
            res.evaluations as u64,
            if ok { 0 } else { res.evaluations as u64 },
        );
        let n = res.evaluations.max(1) as f64;
        evals += res.evaluations;
        per_eval_ms.push(secs * 1e3 / n);
        rates.push(n / secs);
        cpu_ms.push(cpu_s * 1e3 / n);
        first.get_or_insert(res);
        if start.elapsed() >= window {
            break;
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let pool1 = Pool::global().stats();
    if report.traced() {
        trace::set_enabled(false);
        print_trace_counts();
    }
    let first = first.expect("at least one search ran");
    report.check(
        format!(
            "every search ran {expected_evals} evaluations with a non-increasing fitness_history"
        ),
        all_ok,
    );

    println!("  per-search ms per evaluation: {per_eval_ms:.2?}");
    let throughput = fast_tenth(&mut rates, true);
    report.set("throughput_rps", throughput);
    report.set("traced.throughput_rps", throughput);
    // Latency chunks of four consecutive searches: each chunk's median and
    // slowest per-evaluation time stand for its p50 and p99.
    let (mut p50, mut p99): (Vec<f64>, Vec<f64>) = per_eval_ms
        .chunks(SEARCHES_PER_CHUNK)
        .map(|c| {
            let mut c = c.to_vec();
            c.sort_by(f64::total_cmp);
            (percentile(&c, 50.0), percentile(&c, 99.0))
        })
        .unzip();
    report.set("latency_p50_ms", fast_tenth(&mut p50, false));
    report.set("latency_p99_ms", fast_tenth(&mut p99, false));
    report.set("cpu_ms_per_op", fast_tenth(&mut cpu_ms, false));
    report.set("lpq.evaluations", evals as f64);
    pool_metrics(&pool0, &pool1, report);
    println!(
        "  window: {window_s:.3} s, {} searches, {evals} evaluations; each search is one slice \
         (throughput and CPU per op are fast-tenth values over them), latency percentiles are \
         fast-tenth values over chunks of {SEARCHES_PER_CHUNK} searches' wall time per evaluation",
        per_eval_ms.len()
    );

    // Re-evaluating the winner must reproduce its fitness bit for bit.
    let mut want = *first
        .fitness_history
        .last()
        .ok_or("the search recorded no fitness")?;
    if opts.corrupt > 0 {
        want = f64::from_bits(want.to_bits() ^ 1);
    }
    let got = probe.evaluate(&first.best);
    report.count(1, u64::from(got.to_bits() != want.to_bits()));
    println!("  winner fitness {want:.9}, re-evaluated {got:.9}");

    if report.traced() {
        replays(opts, &model, &mut probe, &first, spans, report);
    } else {
        let top1 = data::quantized_accuracy(&model, &first.scheme(), &test, &teacher);
        println!(
            "  quant_top1 of the first search's scheme: {top1:.3} % (FP32 baseline {:.2} %, \
             {:.2} weight bits, {:.2} activation bits)",
            model.baseline_top1(),
            first.avg_weight_bits,
            first.avg_activation_bits
        );
        report.set("quant_top1", top1);
    }
    Ok(())
}

/// The traced run's replays: one evaluation and its parts, plus the graph,
/// tensor and codec replays on the winner's packed model.
fn replays(
    opts: &Opts,
    model: &dnn::Model,
    probe: &mut Lpq<'_>,
    first: &LpqResult,
    spans: &mut Spans,
    report: &mut Report,
) {
    let reps = if opts.tiny { 2 } else { 9 };
    let cfg = config(opts, 0);
    let best = &first.best;
    let evaluate_ms = spans.median_ms("lpq.evaluate", reps, || {
        black_box(probe.evaluate(best));
    });
    report.set("lpq.evaluate_ms", evaluate_ms);

    // The parts of one evaluation, called the way `Lpq::evaluate` calls
    // them: weights through a search-wide cache, then traced forwards over
    // the calibration set on the pool, then the fitness.
    let weights = QuantScheme::new(
        probe
            .resolve(best)
            .into_iter()
            .map(|p| Some(Arc::new(p) as Arc<dyn lp::Quantizer + Send + Sync>))
            .collect(),
        vec![None; best.len()],
    );
    let qm = model.quantize_weights(&weights);
    report.set(
        "lpq.quantize_weights_ms",
        spans.median_ms("lpq.quantize_weights", reps, || {
            black_box(model.quantize_weights(&weights));
        }),
    );
    let calib: Vec<_> = data::calibration_set(model)
        .into_iter()
        .take(cfg.calib_size)
        .collect();
    let fp = par_map_pooled(&calib, |x| model.forward_traced(x, None, true));
    let evaluator = FitnessEvaluator::new(
        cfg.objective,
        cfg.tau,
        cfg.lambda,
        &fp,
        model.layer_param_counts(),
    );
    let capture = evaluator.needs_irs();
    let q_traces = par_map_pooled(&calib, |x| qm.forward_traced(x, None, capture));
    report.set(
        "lpq.calib_forward_ms",
        spans.median_ms("lpq.calib_forward", reps, || {
            black_box(par_map_pooled(&calib, |x| {
                qm.forward_traced(x, None, capture)
            }));
        }),
    );
    report.set(
        "lpq.fitness_ms",
        spans.median_ms("lpq.fitness", reps, || {
            black_box(evaluator.fitness(&q_traces, best));
        }),
    );

    let scheme = first.scheme();
    let packed = model.quantize_weights_packed(&scheme);
    let inputs = data::synthetic_images(MAX_BATCH, model.input_shape(), input_seed(opts.seed, 0));
    let replay = replay::replay_model(
        spans,
        "resnet18/lpq",
        model,
        &packed,
        &scheme,
        &inputs,
        if opts.tiny { 2 } else { 15 },
    );
    replay::report_replays(report, &[replay]);
    report.set(
        "codec.table_build_ms",
        replay::replay_table_builds(spans, &[&scheme], if opts.tiny { 1 } else { 3 }),
    );
}

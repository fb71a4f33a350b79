//! Serving-policy benchmark: the studies of the `serve` scheduler,
//! overload control and tracing that the end-to-end benchmark
//! (`perfbench/`) does not run. It writes `BENCH_serve.json` and
//! `TRACE_serve.json` (under `target/bench/`, or the directory given as
//! `--out <dir>`).
//!
//! Each study is one function: it runs, asserts its own gates, guards
//! its numbers with [`bench::check_metric`], prints one line and returns
//! its JSON section, which also records the parameters it ran with.
//!
//! 1. **Policy study** (`policy_study`): the pluggable scheduling layer on
//!    dedicated sleep-calibrated servers, so the numbers measure the
//!    *scheduler* rather than GEMM speed. (a) Three scenarios at WFQ
//!    weights 1/2/4 under full saturation, whose throughput shares must
//!    land within ±20% of the configured weights. (b) A strict-priority
//!    pair where class-0 probes overtake a deep class-5 backlog (p99 ratio
//!    and starvation counter). (c) An overloaded deadline scenario whose
//!    expired requests are shed with `DeadlineExpired` at dispatch while
//!    the p99 of *accepted* requests stays under the budget.
//! 2. **Predictive overload** (`overload_study`): at least 80% of a
//!    doomed burst's sheds happen at submit, and accepted p99 stays under
//!    the budget.
//! 3. **Reserved lane** (`reserved_lane_study`): a reserved high-lane
//!    worker cuts class-0 p99 at least 3× against a plain pool.
//! 4. **Admission-cap shedding** (`load_shedding`): a burst far beyond a
//!    packed MLP registration's queue cap is shed with
//!    `ServeError::Rejected` while queue depth stays under the cap.
//! 5. **Trace overhead** (`trace_overhead`): the same packed registration
//!    driven through the async front with ring-buffer event recording off
//!    and on (`serve::trace::set_enabled`, interleaved reps, best of
//!    each), asserting the traced path costs less than the overhead
//!    budget. A short traced run is then exported as Chrome trace-event
//!    JSON to `TRACE_serve.json` (load it in Perfetto or
//!    `chrome://tracing`).
//!
//! Environment knobs (all optional): `SERVE_BENCH_WFQ_BACKLOG`
//! (per-scenario backlog, default 1200), `SERVE_BENCH_PRIO_BACKLOG` /
//! `SERVE_BENCH_PRIO_PROBES` (defaults 60 / 20),
//! `SERVE_BENCH_DEADLINE_BUDGET_MS` / `SERVE_BENCH_DEADLINE_BURST`
//! (defaults 1000 / 4096), `SERVE_BENCH_OVERLOAD_BUDGET_MS` /
//! `SERVE_BENCH_OVERLOAD_SERVICE_MS` / `SERVE_BENCH_OVERLOAD_BURST`
//! (defaults 150 / 15 / 256), `SERVE_BENCH_RESERVED_BACKLOG` /
//! `SERVE_BENCH_RESERVED_PROBES` / `SERVE_BENCH_RESERVED_LOW_MS`
//! (defaults 40 / 12 / 25), `SERVE_BENCH_QUEUE_CAP` /
//! `SERVE_BENCH_SHED_OFFERED` (defaults 64 / 2048),
//! `SERVE_BENCH_TRACE_REQUESTS` / `SERVE_BENCH_TRACE_REPS` /
//! `SERVE_BENCH_TRACE_INFLIGHT` (defaults 2048 / 3 / 256),
//! `SERVE_BENCH_TRACE_MAX_OVERHEAD_PCT` (overhead budget in percent,
//! default 5; CI smoke runs relax it because tiny runs are
//! noise-dominated, and the committed artifact comes from a full run),
//! and `SERVE_THREADS` (global pool size, used by studies 4 and 5; the
//! scheduler studies run on their own fixed 1- and 2-worker pools so
//! their shares and sheds do not depend on the box). CI runs this in
//! smoke mode with tiny counts; the defaults produce a meaningful
//! measurement.

use bench::{check_metric, env_usize, Json};
use dnn::graph::{Model, Op};
use dnn::serving::ServedModel;
use dnn::Tensor;
use serve::pool::Pool;
use serve::server::{BatchPolicy, ScenarioSpec, ServeError, Server};
use serve::{trace, StrictPriority, WeightedFair};
use std::time::{Duration, Instant};

fn main() {
    // The overload study admits right up to the forecast boundary, so a
    // safety factor above 1 is what keeps accepted tail latency strictly
    // inside the budget. Default it before the first predictive submit
    // can latch the process-wide value; an explicit environment override
    // still wins.
    if std::env::var_os(serve::overload::SAFETY_ENV).is_none() {
        std::env::set_var(serve::overload::SAFETY_ENV, "1.5");
    }
    let pool_threads = Pool::global().threads();
    println!("serve_throughput: {pool_threads} global pool workers");
    let json = Json::object()
        .field("pool_threads", pool_threads)
        .field(
            "policy_study",
            Json::object()
                .field("wfq", wfq_study())
                .field("strict_priority", prio_study())
                .field("deadline", deadline_study()),
        )
        .field("overload_study", overload_study())
        .field("reserved_lane_study", reserved_lane_study())
        .field("load_shedding", load_shedding_study())
        .field("trace_overhead", trace_overhead_study());
    bench::write_artifact("BENCH_serve.json", &json);
}

/// An MLP whose layers see rank-1 inputs, served packed by the
/// admission-cap and trace-overhead studies.
fn mlp_model() -> Model {
    let dims = [256usize, 512, 512, 100];
    let mut m = Model::new("mlp_256", &[dims[0]], dims[3]);
    let mut x = m.input_node();
    for li in 0..dims.len() - 1 {
        let (inf, outf) = (dims[li], dims[li + 1]);
        let w: Vec<f32> = (0..inf * outf)
            .map(|i| ((i as f32 * 0.3719 + li as f32).sin()) * (1.6 / (inf as f32).sqrt()))
            .collect();
        x = m.push(
            Op::Linear {
                weight: Tensor::from_vec(&[outf, inf], w).into(),
                bias: vec![0.01; outf],
            },
            &[x],
        );
        if li + 2 < dims.len() {
            x = m.push(Op::Relu, &[x]);
        }
    }
    m.set_output(x);
    m
}

/// A server on the global pool with one packed LP8 registration of the
/// MLP under `scenario`, capped at `queue_cap` outstanding requests, and
/// 16 inputs to drive it with.
fn mlp_server(scenario: &str, queue_cap: usize) -> (Server<Tensor, Tensor>, Vec<Tensor>) {
    let server = Server::new(
        Pool::global().clone(),
        BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(2),
        },
    );
    let mlp = ServedModel::new(mlp_model());
    mlp.register_spec(
        &server,
        ScenarioSpec::new("", scenario).queue_cap(queue_cap),
        bench::uniform_lp_scheme(mlp.model(), 8),
    )
    .expect("mlp registration failed");
    let inputs = (0..16)
        .map(|s| bench::pseudo_tensor(&[256], s as f32 * 1.77))
        .collect();
    (server, inputs)
}

/// Drives the trace study's registration from **one** thread through the
/// completion-queue front-end, keeping up to `window` tickets in flight;
/// returns req/s.
fn async_single_driver(
    server: &Server<Tensor, Tensor>,
    inputs: &[Tensor],
    window: usize,
    total: usize,
) -> f64 {
    let cq = server.async_client();
    let ep = cq.endpoint("mlp_256", "lp8_trace").expect("endpoint");
    let mut submitted = 0usize;
    let mut completed = 0usize;
    let t0 = Instant::now();
    while completed < total {
        // Top the window up: outstanding = in flight + completed-but-not-
        // yet-harvested. Submission never blocks.
        while submitted < total && cq.in_flight() + cq.completed_waiting() < window {
            ep.submit(inputs[submitted % inputs.len()].clone())
                .expect("registration capped above the window must admit");
            submitted += 1;
        }
        // Harvest: block for one completion, then drain whatever else is
        // already done without blocking.
        let c = cq
            .wait(Duration::from_secs(60))
            .expect("completion lost — reactor starved");
        c.result.expect("async request failed");
        completed += 1;
        while let Some(c) = cq.poll() {
            c.result.expect("async request failed");
            completed += 1;
        }
    }
    total as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

/// A batch function that sleeps a fixed time and echoes its inputs --
/// box-independent service time, so the policy studies measure the
/// scheduler, not the GEMM kernels.
fn sleepy(ms: u64) -> impl Fn(&[u64]) -> Vec<u64> + Send + Sync + 'static {
    move |xs: &[u64]| {
        std::thread::sleep(Duration::from_millis(ms));
        xs.to_vec()
    }
}

/// Weighted-fair shares: three scenarios at weights 1/2/4 on a dedicated
/// 2-worker pool, every queue saturated with `backlog` requests. Shares
/// are the completions between two stats snapshots: the first once every
/// scenario has completed a batch, so the scheduler's start-up round
/// (every queue served once before the deficits take hold) stays out of
/// the window, and the second `backlog` completions later, while every
/// queue still holds work. They must split in proportion to the weights.
fn wfq_study() -> Json {
    let backlog = env_usize("SERVE_BENCH_WFQ_BACKLOG", 1200);
    let weights = [1u32, 2, 4];
    let scenarios = ["wfq_w1", "wfq_w2", "wfq_w4"];
    let server: Server<u64, u64> = Server::with_policy(
        Pool::new(2),
        BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
        },
        Box::new(WeightedFair::default()),
    );
    for (scenario, &w) in scenarios.iter().zip(&weights) {
        server
            .register(ScenarioSpec::new("policy", scenario).weight(w), sleepy(1))
            .expect("wfq registration failed");
    }
    let cq = server.async_client();
    for scenario in &scenarios {
        let ep = cq.endpoint("policy", scenario).expect("endpoint");
        for i in 0..backlog {
            ep.submit(i as u64).expect("unbounded queue must admit");
        }
    }
    let snapshot = || -> Vec<u64> {
        scenarios
            .iter()
            .map(|s| server.stats("policy", s).expect("stats").count)
            .collect()
    };
    let stall_deadline = Instant::now() + Duration::from_secs(60);
    let wait_for = |done: &dyn Fn(&[u64]) -> bool| -> Vec<u64> {
        loop {
            let c = snapshot();
            if done(&c) {
                return c;
            }
            assert!(
                Instant::now() < stall_deadline,
                "wfq study made no progress: counts {c:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    let start = wait_for(&|c| c.iter().all(|&n| n > 0));
    // Cut off at `backlog` completions past the start: the weight-4
    // scenario owns 4/7 of those, safely below what is left of its own
    // backlog -- no queue runs dry inside the measurement window.
    let cutoff = backlog as u64 + start.iter().sum::<u64>();
    let end = wait_for(&|c| c.iter().sum::<u64>() >= cutoff);
    assert!(
        end.iter().all(|&n| n < backlog as u64),
        "a wfq queue ran dry inside the window: counts {end:?} of {backlog} each"
    );
    let counts: Vec<u64> = end.iter().zip(&start).map(|(e, s)| e - s).collect();
    server.shutdown();
    let total: u64 = counts.iter().sum();
    let weight_sum: u32 = weights.iter().sum();
    let shares: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / total.max(1) as f64)
        .collect();
    let expected: Vec<f64> = weights
        .iter()
        .map(|&w| f64::from(w) / f64::from(weight_sum))
        .collect();
    let max_rel_err = shares
        .iter()
        .zip(&expected)
        .map(|(s, e)| (s - e).abs() / e)
        .fold(0.0f64, f64::max);
    println!(
        "policy_study wfq (weights {weights:?}, backlog {backlog} each): counts {counts:?}, \
         shares {shares:.3?} vs expected {expected:.3?}, max rel err {max_rel_err:.3}"
    );
    assert!(
        max_rel_err <= 0.20,
        "WFQ throughput shares must track weights within 20%: rel err {max_rel_err:.3}"
    );
    for (w, &share) in weights.iter().zip(&shares) {
        check_metric(&format!("wfq_share_w{w}"), share);
    }
    let fixed4 = |v: &[f64]| -> Vec<Json> { v.iter().map(|&x| Json::fixed(x, 4)).collect() };
    Json::object()
        .field("policy", "weighted_fair")
        .field("weights", weights.to_vec())
        .field("backlog_per_scenario", backlog)
        .field("counts", counts)
        .field("shares", fixed4(&shares))
        .field("expected_shares", fixed4(&expected))
        .field("max_rel_err", Json::fixed(max_rel_err, 4))
        .field("tolerance", Json::fixed(0.20, 2))
}

/// Strict priority: class-0 probes fired into a deep class-5 backlog on
/// a single-worker pool. The probes' p99 stays at the scale of one
/// in-flight low batch; the backlog's p99 is the whole queue -- and every
/// bypass is visible in the low class's starvation counter.
fn prio_study() -> Json {
    let low_backlog = env_usize("SERVE_BENCH_PRIO_BACKLOG", 60);
    let probes = env_usize("SERVE_BENCH_PRIO_PROBES", 20);
    let server: Server<u64, u64> = Server::with_policy(
        Pool::new(1),
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_millis(0),
        },
        Box::new(StrictPriority),
    );
    server
        .register(ScenarioSpec::new("policy", "low").priority(5), sleepy(5))
        .expect("low registration failed");
    server
        .register(
            ScenarioSpec::new("policy", "high").priority(0),
            |xs: &[u64]| xs.to_vec(),
        )
        .expect("high registration failed");
    let cq_low = server.async_client();
    let ep_low = cq_low.endpoint("policy", "low").expect("endpoint");
    for i in 0..low_backlog {
        ep_low.submit(i as u64).expect("unbounded queue must admit");
    }
    std::thread::sleep(Duration::from_millis(12));
    let cq_high = server.async_client();
    for i in 0..probes {
        cq_high
            .submit("policy", "high", i as u64)
            .expect("probe submit failed");
        std::thread::sleep(Duration::from_millis(5));
    }
    for _ in 0..probes {
        cq_high
            .wait(Duration::from_secs(60))
            .expect("probe completion lost")
            .result
            .expect("probe failed");
    }
    let high = server.stats("policy", "high").expect("high stats");
    // Flush the remaining backlog so the low class's p99 covers the full
    // queue it actually sat in.
    server.shutdown();
    let low = server.stats("policy", "low").expect("low stats");
    let (high_p99_ms, low_p99_ms) = (high.p99_s * 1e3, low.p99_s * 1e3);
    println!(
        "policy_study strict_priority ({low_backlog} low backlog, {probes} class-0 probes): \
         high p99 {high_p99_ms:.1} ms vs low p99 {low_p99_ms:.1} ms, low passed_over {}",
        low.passed_over
    );
    assert!(
        high_p99_ms < low_p99_ms,
        "class 0 must not wait behind the class-5 backlog"
    );
    assert!(
        low.passed_over > 0,
        "bypasses must be visible in the starvation counter"
    );
    check_metric("prio_high_p99_ms", high_p99_ms);
    check_metric("prio_low_p99_ms", low_p99_ms);
    Json::object()
        .field("policy", "strict_priority")
        .field("low_class", 5u32)
        .field("high_class", 0u32)
        .field("low_backlog", low_backlog)
        .field("high_probes", probes)
        .field("high_p99_ms", Json::fixed(high_p99_ms, 3))
        .field("low_p99_ms", Json::fixed(low_p99_ms, 3))
        .field("low_passed_over", low.passed_over)
}

/// Deadline shedding under a worker stall. Phase one serves a fast
/// burst from an empty queue (every request completes far inside the
/// budget). Phase two plugs every pool slot with long-running batches
/// from a second registration and then offers the overload burst to the
/// deadline registration: by the time a slot frees, the whole backlog
/// has outwaited the budget and is shed with `DeadlineExpired` at
/// dispatch. The two phases are separated by more than the budget, so
/// accepted-request latencies sit far below it -- the `accepted_p99 <
/// budget` invariant is structural, not a timing race.
fn deadline_study() -> Json {
    let budget_ms = env_usize("SERVE_BENCH_DEADLINE_BUDGET_MS", 1000) as u64;
    let offered = env_usize("SERVE_BENCH_DEADLINE_BURST", 4096);
    let workers = 2;
    let server: Server<u64, u64> = Server::new(
        Pool::new(workers),
        BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(0),
        },
    );
    server
        .register(
            ScenarioSpec::new("policy", "deadline").deadline(Duration::from_millis(budget_ms)),
            sleepy(1),
        )
        .expect("deadline registration failed");
    // The plug: single-request batches that each occupy a dispatch slot
    // for longer than the whole budget, so the first slot frees only
    // after every queued burst request has expired. The pacing target is
    // 2 batches per worker, so 2 * workers plugs stall every slot.
    let plugs = 2 * workers;
    server
        .register(
            ScenarioSpec::new("policy", "plug").max_batch(1),
            sleepy(budget_ms + 200),
        )
        .expect("plug registration failed");
    let cq = server.async_client();
    let ep = cq.endpoint("policy", "deadline").expect("endpoint");
    // Phase 1: a fast burst against an idle server -- drains in a small
    // fraction of the budget (4 requests per 1ms batch, 2 workers).
    let fast = 400usize.min(offered);
    for i in 0..fast {
        ep.submit(i as u64).expect("unbounded queue must admit");
    }
    let mut completed = 0u64;
    for _ in 0..fast {
        let c = cq.wait(Duration::from_secs(60)).expect("fast burst lost");
        c.result
            .expect("fast burst must complete inside the budget");
        completed += 1;
    }
    // Phase 2: plug every dispatch slot, then pile up the overload
    // burst. The plugs execute two-deep per worker, so the first slot
    // frees only after the queued burst has aged past the budget -- the
    // next drain sheds it wholesale.
    let cq_plug = server.async_client();
    for _ in 0..plugs {
        cq_plug
            .submit("policy", "plug", 0)
            .expect("plug submit failed");
    }
    // Wait until every plug batch is actually dispatched (the batch-size
    // log records a dispatch as it happens) before offering the burst:
    // otherwise the Fifo scheduler, seeing both queues due, would keep
    // feeding the earlier-registered deadline queue and the plugs would
    // never stall it.
    while server
        .batch_size_stats("policy", "plug")
        .expect("plug stats")
        .count
        < plugs as u64
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let burst = offered.saturating_sub(fast).max(1);
    for i in 0..burst {
        ep.submit(i as u64).expect("unbounded queue must admit");
    }
    let mut shed = 0u64;
    for _ in 0..burst {
        let c = cq
            .wait(Duration::from_secs(60))
            .expect("deadline-study completion lost");
        match c.result {
            Ok(_) => completed += 1,
            Err(ServeError::DeadlineExpired { .. }) => shed += 1,
            Err(e) => panic!("unexpected deadline-study error: {e}"),
        }
    }
    for _ in 0..plugs {
        cq_plug
            .wait(Duration::from_secs(60))
            .expect("plug completion lost")
            .result
            .expect("plug failed");
    }
    let snap = server.stats("policy", "deadline").expect("deadline stats");
    server.shutdown();
    assert_eq!(snap.shed_deadline, shed, "stats must count every shed");
    let accepted_p99_ms = snap.p99_s * 1e3;
    println!(
        "policy_study deadline (budget {budget_ms} ms, burst {offered}): completed \
         {completed}, shed {shed} expired at dispatch, accepted p99 {accepted_p99_ms:.1} ms"
    );
    assert!(shed > 0, "the overload burst must shed expired work");
    assert!(
        accepted_p99_ms < budget_ms as f64,
        "accepted p99 {accepted_p99_ms:.1} ms must stay under the {budget_ms} ms budget"
    );
    check_metric("deadline_accepted_p99_ms", accepted_p99_ms);
    Json::object()
        .field("budget_ms", budget_ms)
        .field("offered_burst", offered)
        .field("completed", completed)
        .field("shed_deadline", shed)
        .field("accepted_p99_ms", Json::fixed(accepted_p99_ms, 3))
}

/// Predictive admission under a doomed burst. Warm-up teaches the
/// service histogram the true batch cost against an empty queue; the
/// burst then piles up orders of magnitude faster than one worker can
/// drain, so nearly every submission's forecast queue wait exceeds the
/// budget and it is refused at *submit* with `PredictedOverload` — the
/// reactive deadline check at dispatch is left with (almost) nothing to
/// shed, and the handful of admitted requests complete inside the
/// budget because the forecast admitted them only while the backlog
/// still fit it.
fn overload_study() -> Json {
    let budget_ms = env_usize("SERVE_BENCH_OVERLOAD_BUDGET_MS", 150) as u64;
    let service_ms = env_usize("SERVE_BENCH_OVERLOAD_SERVICE_MS", 15) as u64;
    let burst = env_usize("SERVE_BENCH_OVERLOAD_BURST", 256);
    let server: Server<u64, u64> = Server::new(
        Pool::new(1),
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_millis(0),
        },
    );
    server
        .register(
            ScenarioSpec::new("overload", "predictive")
                .max_batch(1)
                .deadline(Duration::from_millis(budget_ms))
                .predictive(),
            sleepy(service_ms),
        )
        .expect("predictive registration failed");
    // Warm the predictor: sequential sync requests each meet an empty
    // queue (outstanding 0 is always admitted) while the service
    // histogram learns that a batch costs ~service_ms.
    let warmups = 8usize;
    let client = server.client();
    for i in 0..warmups {
        client
            .infer("overload", "predictive", i as u64)
            .expect("warm-up against an empty queue must be admitted");
    }
    // A sync request is fulfilled just before the dispatch task
    // releases its admission slot; let the last warm-up slot drain so
    // the burst starts from a provably empty queue.
    std::thread::sleep(Duration::from_millis(20));
    // The burst: submissions are microseconds apart while a batch costs
    // `service_ms`, so observed depth climbs one per admission and the
    // forecast crosses the budget within a handful of submits.
    let cq = server.async_client();
    let ep = cq.endpoint("overload", "predictive").expect("endpoint");
    let mut accepted = 0u64;
    let mut shed_predicted = 0u64;
    for i in 0..burst {
        match ep.submit(i as u64) {
            Ok(_) => accepted += 1,
            Err(ServeError::PredictedOverload {
                predicted_wait,
                budget,
                retry_after,
                ..
            }) => {
                assert!(predicted_wait > budget, "forecast must exceed the budget");
                assert!(retry_after > Duration::ZERO, "retry hint must be usable");
                shed_predicted += 1;
            }
            Err(e) => panic!("unexpected overload-study error: {e}"),
        }
    }
    let mut completed = 0u64;
    let mut shed_deadline = 0u64;
    for _ in 0..accepted {
        let c = cq
            .wait(Duration::from_secs(60))
            .expect("overload-study completion lost");
        match c.result {
            Ok(_) => completed += 1,
            Err(ServeError::DeadlineExpired { .. }) => shed_deadline += 1,
            Err(e) => panic!("unexpected overload-study completion: {e}"),
        }
    }
    let snap = server.stats("overload", "predictive").expect("stats");
    server.shutdown();
    assert_eq!(
        snap.shed_predicted, shed_predicted,
        "stats must count every predictive shed"
    );
    let safety = serve::overload::safety_factor();
    let early_shed_fraction =
        shed_predicted as f64 / (shed_predicted + shed_deadline).max(1) as f64;
    let accepted_p99_ms = snap.p99_s * 1e3;
    println!(
        "overload_study predictive (budget {budget_ms} ms, {service_ms} ms batches, burst \
         {burst}, safety {safety:.2}): accepted {accepted}, completed {completed}, shed \
         {shed_predicted} at submit + {shed_deadline} at dispatch (early fraction \
         {early_shed_fraction:.3}), accepted p99 {accepted_p99_ms:.1} ms"
    );
    assert!(
        shed_predicted > 0 && completed >= 1,
        "the burst must split into admitted and predictively shed requests"
    );
    assert!(
        early_shed_fraction >= 0.8,
        "at least 80% of sheds must happen at submit, not dispatch: {early_shed_fraction:.3}"
    );
    assert!(
        accepted_p99_ms < budget_ms as f64,
        "accepted p99 {accepted_p99_ms:.1} ms must stay under the {budget_ms} ms budget"
    );
    check_metric("predictive_accepted_p99_ms", accepted_p99_ms);
    Json::object()
        .field("budget_ms", budget_ms)
        .field("service_ms", service_ms)
        .field("warmups", warmups)
        .field("offered_burst", burst)
        .field("safety_factor", Json::fixed(safety, 3))
        .field("accepted", accepted)
        .field("completed", completed)
        .field("shed_predicted", shed_predicted)
        .field("shed_deadline", shed_deadline)
        .field("early_shed_fraction", Json::fixed(early_shed_fraction, 4))
        .field("early_shed_fraction_floor", Json::fixed(0.8, 1))
        .field("accepted_p99_ms", Json::fixed(accepted_p99_ms, 3))
}

/// Reserved-lane A/B: the identical low-saturation + class-0 probe load
/// on a plain 2-worker pool vs one with a reserved high-lane worker.
/// StrictPriority alone dequeues the probe first, but on the plain pool
/// it still waits behind whichever long low batches already occupy every
/// worker; with `Pool::with_reserved(2, 1)` the low class can never
/// occupy the reserved worker, so a probe starts immediately.
fn reserved_lane_study() -> Json {
    let low_backlog = env_usize("SERVE_BENCH_RESERVED_BACKLOG", 40);
    let probes = env_usize("SERVE_BENCH_RESERVED_PROBES", 12);
    let low_ms = env_usize("SERVE_BENCH_RESERVED_LOW_MS", 25) as u64;
    let run = |reserved: usize| -> f64 {
        let pool = if reserved > 0 {
            Pool::with_reserved(2, reserved)
        } else {
            Pool::new(2)
        };
        let server: Server<u64, u64> = Server::with_policy(
            pool,
            BatchPolicy {
                max_batch: 1,
                max_wait: Duration::from_millis(0),
            },
            Box::new(StrictPriority),
        );
        server
            .register(ScenarioSpec::new("lane", "low").priority(5), sleepy(low_ms))
            .expect("low registration failed");
        server
            .register(
                ScenarioSpec::new("lane", "high").priority(0),
                |xs: &[u64]| xs.to_vec(),
            )
            .expect("high registration failed");
        let cq_low = server.async_client();
        let ep_low = cq_low.endpoint("lane", "low").expect("endpoint");
        for i in 0..low_backlog {
            ep_low.submit(i as u64).expect("unbounded queue must admit");
        }
        // Let the low class saturate every worker it is allowed to hold
        // before the first probe lands.
        std::thread::sleep(Duration::from_millis(low_ms));
        let cq_high = server.async_client();
        for i in 0..probes {
            cq_high
                .submit("lane", "high", i as u64)
                .expect("probe submit failed");
            std::thread::sleep(Duration::from_millis((low_ms / 2).max(1)));
        }
        for _ in 0..probes {
            cq_high
                .wait(Duration::from_secs(60))
                .expect("probe completion lost")
                .result
                .expect("probe failed");
        }
        let high = server.stats("lane", "high").expect("high stats");
        server.shutdown();
        high.p99_s * 1e3
    };
    let baseline_ms = run(0);
    let reserved_ms = run(1);
    let improvement = baseline_ms / reserved_ms.max(1e-9);
    println!(
        "reserved_lane_study ({low_backlog} low backlog of {low_ms} ms batches, {probes} \
         class-0 probes): high p99 {baseline_ms:.1} ms on the plain pool vs {reserved_ms:.2} \
         ms with a reserved worker = {improvement:.1}x"
    );
    assert!(
        improvement >= 3.0,
        "a reserved lane must cut high-class p99 at least 3x: {baseline_ms:.1} ms -> \
         {reserved_ms:.2} ms ({improvement:.1}x)"
    );
    check_metric("reserved_high_p99_ms", reserved_ms);
    Json::object()
        .field("pool_threads", 2usize)
        .field("reserved_threads", 1usize)
        .field("low_backlog", low_backlog)
        .field("low_batch_ms", low_ms)
        .field("high_probes", probes)
        .field("baseline_high_p99_ms", Json::fixed(baseline_ms, 3))
        .field("reserved_high_p99_ms", Json::fixed(reserved_ms, 3))
        .field("improvement", Json::fixed(improvement, 3))
        .field("improvement_floor", Json::fixed(3.0, 1))
}

/// Admission-cap shedding: a burst far beyond a packed registration's
/// queue cap must be shed with the typed error while accepted requests
/// keep bounded queue depth (and therefore bounded p99).
fn load_shedding_study() -> Json {
    let queue_cap = env_usize("SERVE_BENCH_QUEUE_CAP", 64);
    let offered = env_usize("SERVE_BENCH_SHED_OFFERED", 2048);
    let (server, inputs) = mlp_server("lp8_shed", queue_cap);
    let cq = server.async_client();
    let ep = cq.endpoint("mlp_256", "lp8_shed").expect("endpoint");
    let mut accepted = 0usize;
    let mut shed = 0usize;
    for i in 0..offered {
        match ep.submit(inputs[i % inputs.len()].clone()) {
            Ok(_) => accepted += 1,
            Err(ServeError::Rejected { .. }) => shed += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    for _ in 0..accepted {
        cq.wait(Duration::from_secs(60))
            .expect("shed-study completion lost")
            .result
            .expect("accepted request failed");
    }
    let snap = server.stats("mlp_256", "lp8_shed").expect("shed stats");
    server.shutdown();
    let p99_ms = snap.p99_s * 1e3;
    println!(
        "load_shedding (cap {queue_cap}): offered {offered} in a burst, accepted {accepted}, \
         shed {shed} ({:.1}%), accepted p99 {p99_ms:.3} ms, max queue depth {}",
        100.0 * shed as f64 / offered.max(1) as f64,
        snap.max_queue_depth
    );
    assert!(shed > 0, "offered {offered} must overrun cap {queue_cap}");
    assert_eq!(snap.shed, shed as u64, "stats must count every shed");
    assert!(
        snap.max_queue_depth <= queue_cap,
        "cap must bound queue depth: {} > {queue_cap}",
        snap.max_queue_depth
    );
    check_metric("shed_p99_ms", p99_ms);
    Json::object()
        .field("model", "mlp_256")
        .field("queue_cap", queue_cap)
        .field("offered_burst", offered)
        .field("accepted", accepted)
        .field("shed", shed)
        .field(
            "shed_fraction",
            Json::fixed(shed as f64 / offered.max(1) as f64, 4),
        )
        .field("accepted_p99_ms", Json::fixed(p99_ms, 3))
        .field("max_queue_depth", snap.max_queue_depth)
}

/// What does observability cost? The packed MLP registration driven
/// through the async front with ring-buffer event recording off and on,
/// interleaved; then a short traced run exported as a Chrome trace to
/// `TRACE_serve.json`.
fn trace_overhead_study() -> Json {
    let requests = env_usize("SERVE_BENCH_TRACE_REQUESTS", 2048);
    let reps = env_usize("SERVE_BENCH_TRACE_REPS", 3);
    let window = env_usize("SERVE_BENCH_TRACE_INFLIGHT", 256);
    let max_overhead_frac = env_usize("SERVE_BENCH_TRACE_MAX_OVERHEAD_PCT", 5) as f64 / 100.0;
    let (server, inputs) = mlp_server("lp8_trace", window * 2);
    let was = trace::enabled();
    // Warm both modes with one untimed rep of the timed shape. A smaller
    // warm-up left the first timed rep, always untraced, faster than
    // every later one in some processes, and best-of handed that outlier
    // to the untraced side.
    for on in [false, true] {
        trace::set_enabled(on);
        async_single_driver(&server, &inputs, window, requests);
    }
    let (mut untraced_rps, mut traced_rps) = (0.0f64, 0.0f64);
    for _ in 0..reps {
        trace::set_enabled(false);
        let rps = async_single_driver(&server, &inputs, window, requests);
        untraced_rps = untraced_rps.max(rps);
        trace::set_enabled(true);
        let rps = async_single_driver(&server, &inputs, window, requests);
        traced_rps = traced_rps.max(rps);
    }
    // Capture run for the committed trace artifact: small enough to
    // stay inside the default ring capacity so Submit→Complete pairs
    // survive for every request.
    trace::set_enabled(true);
    trace::clear();
    let capture = requests.min(256);
    async_single_driver(&server, &inputs, window.min(capture), capture);
    let chrome = trace::export_chrome();
    assert!(
        chrome.contains("\"ph\": \"s\"") && chrome.contains("\"ph\": \"f\""),
        "exported trace must pair request flow events"
    );
    let tstats = trace::stats();
    trace::set_enabled(was);
    server.shutdown();
    let trace_path = bench::artifact_path("TRACE_serve.json");
    std::fs::write(&trace_path, &chrome)
        .unwrap_or_else(|e| panic!("could not write {}: {e}", trace_path.display()));
    println!("wrote {} ({} bytes)", trace_path.display(), chrome.len());
    let overhead_frac = 1.0 - traced_rps / untraced_rps.max(1e-12);
    println!(
        "trace_overhead (window {window}, {requests} requests x {reps} reps): untraced \
         {untraced_rps:.0} req/s, traced {traced_rps:.0} req/s, overhead {:.2}% (budget \
         {:.0}%), {} events in {} rings",
        overhead_frac * 100.0,
        max_overhead_frac * 100.0,
        tstats.recorded,
        tstats.rings
    );
    assert!(
        overhead_frac < max_overhead_frac,
        "event recording overhead {:.2}% exceeds the {:.0}% budget",
        overhead_frac * 100.0,
        max_overhead_frac * 100.0
    );
    check_metric("trace_untraced_rps", untraced_rps);
    check_metric("trace_traced_rps", traced_rps);
    check_metric("trace_events_recorded", tstats.recorded as f64);
    Json::object()
        .field("model", "mlp_256")
        .field("requests", requests)
        .field("inflight_window", window)
        .field("reps", reps)
        .field("untraced_rps", Json::fixed(untraced_rps, 1))
        .field("traced_rps", Json::fixed(traced_rps, 1))
        .field("overhead_frac", Json::fixed(overhead_frac, 5))
        .field("max_overhead_frac", Json::fixed(max_overhead_frac, 3))
        .field("ring_cap", trace::ring_capacity())
        .field("events_recorded", tstats.recorded)
        .field("trace_rings", tstats.rings)
}

//! Multi-model batch-inference serving benchmark.
//!
//! Exercises the whole `serve` subsystem end to end and writes
//! `BENCH_serve.json` (under `target/bench/`, or the directory given as
//! `--out <dir>`):
//!
//! 1. **Batched vs per-input serving** — the same model + scheme served
//!    two ways on identical load: the retired per-input fan-out over a
//!    fake-quantized **f32 copy** (`ServedModel::register_per_input`) and
//!    the packed batched hot path (`ServedModel::register`: `u16` codes,
//!    one stacked GEMM per layer via `Model::forward_batch`). Reports
//!    req/s for both and the resident-weight-bytes delta.
//! 2. **Async vs sync front-end** (`async_vs_sync`) — the same packed
//!    batched registration driven two ways at the same offered load:
//!    thread-per-request synchronous `Client`s (one blocked OS thread per
//!    outstanding request) vs **one** driver thread holding the whole
//!    window in flight as tickets through the completion-queue
//!    [`serve::async_front::AsyncClient`]. A second, capped registration
//!    is then deliberately overloaded to show admission control shedding
//!    (`ServeError::Rejected`) with bounded queue depth and p99.
//! 3. **Policy study** (`policy_study`) — the pluggable scheduling layer
//!    on dedicated sleep-calibrated servers, so the numbers measure the
//!    *scheduler* rather than GEMM speed: (a) three scenarios at WFQ
//!    weights 1/2/4 under full saturation, whose measured throughput
//!    shares must land within ±20% of the configured weights; (b) a
//!    strict-priority pair where class-0 probes overtake a deep class-5
//!    backlog (p99 ratio + starvation counter); (c) an overloaded
//!    deadline scenario whose expired requests are shed with
//!    `DeadlineExpired` at dispatch while the p99 of *accepted* requests
//!    stays under the budget.
//! 4. **Multi-model serving** — two models × two quantization scenarios
//!    (plus a duplicate scenario proving code sharing) registered on one
//!    batching server, hammered by concurrent synchronous clients;
//!    reports requests/s, per-registration mean/p50/p99 latency **and
//!    per-stage (queue-wait / service / delivery) histogram quantiles**,
//!    submitted/per-reason-shed/queue-depth counters, and the pool's
//!    per-worker executed/stolen/steal-failure/park counters — all
//!    printed through the shared [`Server::report`] table.
//! 5. **Trace overhead** (`trace_overhead`) — the observability gate:
//!    the same packed registration driven through the async front with
//!    ring-buffer event recording toggled off and on
//!    (`serve::trace::set_enabled`, interleaved reps, best of each),
//!    asserting the traced path costs less than the configured overhead
//!    budget; a short traced run is then exported as Chrome trace-event
//!    JSON to `TRACE_serve.json` beside `BENCH_serve.json` (load it in
//!    Perfetto / `chrome://tracing`).
//!
//! Environment knobs (all optional): `SERVE_BENCH_REQUESTS` (total
//! requests in phase 4, default 240), `SERVE_BENCH_CLIENTS` (client
//! threads, default 8), `SERVE_BENCH_AB_REQUESTS` /
//! `SERVE_BENCH_AB_CLIENTS` (phase-1 load, defaults 600 / 16),
//! `SERVE_BENCH_INFLIGHT` (phase-2 in-flight window = sync client
//! threads, default 1536), `SERVE_BENCH_ASYNC_REQUESTS` (phase-2 total,
//! default 4096), `SERVE_BENCH_QUEUE_CAP` / `SERVE_BENCH_SHED_OFFERED`
//! (phase-2 overload study, defaults 64 / 2048),
//! `SERVE_BENCH_WFQ_BACKLOG` (phase-3 per-scenario backlog, default
//! 1200), `SERVE_BENCH_PRIO_BACKLOG` / `SERVE_BENCH_PRIO_PROBES`
//! (phase-3 strict-priority study, defaults 60 / 20),
//! `SERVE_BENCH_DEADLINE_BUDGET_MS` / `SERVE_BENCH_DEADLINE_BURST`
//! (phase-3 deadline study, defaults 1000 / 4096),
//! `SERVE_BENCH_NET_CONNS` / `SERVE_BENCH_NET_INFLIGHT` /
//! `SERVE_BENCH_NET_REQUESTS` / `SERVE_BENCH_NET_PAYLOAD` (phase-3d
//! loopback wire study: connections, per-connection in-flight window,
//! requests per connection, payload bytes; defaults 4 / 8 / 1000 / 64),
//! `SERVE_BENCH_TRACE_REQUESTS` / `SERVE_BENCH_TRACE_REPS` /
//! `SERVE_BENCH_TRACE_INFLIGHT` (phase-5 A/B load, defaults 2048 / 3 /
//! 256), `SERVE_BENCH_TRACE_MAX_OVERHEAD_PCT` (phase-5 overhead budget
//! in percent, default 5; CI smoke runs relax it because tiny runs are
//! noise-dominated — the committed artifact comes from a full run), and
//! `SERVE_THREADS` (pool size; the phase-3 studies run on their own
//! fixed 2-worker / 1-worker pools so their shares and sheds are
//! box-independent). CI runs
//! this in smoke mode with tiny counts; the defaults produce a meaningful
//! measurement. Every knob's resolved value is recorded in the JSON
//! (`config`), so runs are self-describing.

use dnn::data;
use dnn::graph::{Model, Op};
use dnn::serving::ServedModel;
use dnn::Tensor;
use serve::net::{NetClient, NetConfig, NetServer, Status};
use serve::pool::Pool;
use serve::server::{BatchPolicy, ScenarioSpec, ServeError, Server};
use serve::{trace, StrictPriority, WeightedFair};
use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An MLP whose layers see rank-1 inputs — the workload where batching
/// amortizes weight traversal hardest (every per-input GEMM is `m = 1`).
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

/// Hammers one `(model, scenario)` registration with `clients` concurrent
/// synchronous clients issuing `requests` total requests; returns req/s.
fn hammer(
    server: &Server<Tensor, Tensor>,
    combos: &[(String, String)],
    inputs: &[Tensor],
    clients: usize,
    requests: usize,
) -> (f64, f64) {
    let counter = Arc::new(AtomicUsize::new(0));
    let t0 = Instant::now();
    let mut joins = Vec::new();
    for _ in 0..clients {
        let client = server.client();
        let counter = Arc::clone(&counter);
        let combos = combos.to_vec();
        let inputs = inputs.to_vec();
        joins.push(std::thread::spawn(move || loop {
            let i = counter.fetch_add(1, Ordering::Relaxed); // ordering: relaxed work-claim counter; joins order the results
            if i >= requests {
                break;
            }
            let (model, scenario) = &combos[i % combos.len()];
            let input = inputs[i % inputs.len()].clone();
            client
                .infer(model, scenario, input)
                .expect("request failed");
        }));
    }
    for j in joins {
        j.join().expect("client thread panicked");
    }
    let wall_s = t0.elapsed().as_secs_f64();
    (wall_s, requests as f64 / wall_s.max(1e-12))
}

/// Drives one registration with `threads` synchronous clients — one
/// blocked OS thread per outstanding request, the baseline concurrency
/// model — issuing `total` requests; returns req/s.
fn sync_thread_per_request(
    server: &Server<Tensor, Tensor>,
    model: &str,
    scenario: &str,
    inputs: &[Tensor],
    threads: usize,
    total: usize,
) -> f64 {
    let counter = Arc::new(AtomicUsize::new(0));
    // Share the input set across the (possibly thousands of) client
    // threads; the per-request `.clone()` below makes the owned tensor.
    let inputs: Arc<[Tensor]> = inputs.into();
    let t0 = Instant::now();
    let mut joins = Vec::with_capacity(threads);
    for _ in 0..threads {
        let client = server.client();
        let counter = Arc::clone(&counter);
        let (model, scenario) = (model.to_string(), scenario.to_string());
        let inputs = Arc::clone(&inputs);
        let builder = std::thread::Builder::new().stack_size(512 * 1024);
        joins.push(
            builder
                .spawn(move || loop {
                    let i = counter.fetch_add(1, Ordering::Relaxed); // ordering: relaxed work-claim counter; joins order the results
                    if i >= total {
                        break;
                    }
                    client
                        .infer(&model, &scenario, inputs[i % inputs.len()].clone())
                        .expect("sync request failed");
                })
                .expect("spawn sync client"),
        );
    }
    for j in joins {
        j.join().expect("sync client panicked");
    }
    total as f64 / t0.elapsed().as_secs_f64().max(1e-12)
}

/// Drives the same registration from **one** thread through the
/// completion-queue front-end, keeping up to `window` tickets in flight;
/// returns `(req/s, max observed in-flight tickets)`.
fn async_single_driver(
    server: &Server<Tensor, Tensor>,
    model: &str,
    scenario: &str,
    inputs: &[Tensor],
    window: usize,
    total: usize,
) -> (f64, usize) {
    let cq = server.async_client();
    let ep = cq.endpoint(model, scenario).expect("endpoint");
    let mut submitted = 0usize;
    let mut completed = 0usize;
    let mut max_inflight = 0usize;
    let t0 = Instant::now();
    while completed < total {
        // Top the window up: outstanding = in flight + completed-but-not-
        // yet-harvested. Submission never blocks.
        while submitted < total && cq.in_flight() + cq.completed_waiting() < window {
            ep.submit(inputs[submitted % inputs.len()].clone())
                .expect("uncapped registration must admit");
            submitted += 1;
            max_inflight = max_inflight.max(cq.in_flight());
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
    (
        total as f64 / t0.elapsed().as_secs_f64().max(1e-12),
        max_inflight,
    )
}

struct ShedResult {
    queue_cap: usize,
    offered: usize,
    accepted: usize,
    shed: usize,
    p99_ms: f64,
    max_queue_depth: usize,
}

struct AsyncVsSync {
    total: usize,
    window: usize,
    sync_rps: f64,
    async_rps: f64,
    max_inflight: usize,
    throughput_queue_cap: usize,
    shed: ShedResult,
}

struct ServingRow {
    model: String,
    scenario: String,
    count: u64,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    queue_wait_p50_ms: f64,
    queue_wait_p99_ms: f64,
    service_p50_ms: f64,
    service_p99_ms: f64,
    delivery_p50_ms: f64,
    delivery_p99_ms: f64,
    submitted: u64,
    shed: u64,
    shed_deadline: u64,
    shed_predicted: u64,
    passed_over: u64,
    max_queue_depth: usize,
}

struct TraceOverhead {
    requests: usize,
    window: usize,
    reps: usize,
    untraced_rps: f64,
    traced_rps: f64,
    overhead_frac: f64,
    max_overhead_frac: f64,
    ring_cap: usize,
    events_recorded: u64,
    trace_rings: usize,
}

struct AbResult {
    requests: usize,
    clients: usize,
    policy: BatchPolicy,
    per_input_rps: f64,
    batched_rps: f64,
    mean_batch: f64,
}

struct MemoryResult {
    scenarios: usize,
    dense_equiv_bytes: usize,
    packed_bytes: usize,
}

struct WfqStudy {
    weights: [u32; 3],
    backlog: usize,
    counts: [u64; 3],
    shares: [f64; 3],
    expected: [f64; 3],
    max_rel_err: f64,
}

struct PrioStudy {
    low_backlog: usize,
    probes: usize,
    high_p99_ms: f64,
    low_p99_ms: f64,
    low_passed_over: u64,
}

struct DeadlineStudy {
    budget_ms: u64,
    offered: usize,
    completed: u64,
    shed_deadline: u64,
    accepted_p99_ms: f64,
}

struct PolicyStudy {
    wfq: WfqStudy,
    prio: PrioStudy,
    deadline: DeadlineStudy,
}

struct OverloadStudy {
    budget_ms: u64,
    service_ms: u64,
    warmups: usize,
    burst: usize,
    safety: f64,
    accepted: u64,
    completed: u64,
    shed_predicted: u64,
    shed_deadline: u64,
    early_shed_fraction: f64,
    accepted_p99_ms: f64,
}

struct ReservedLaneStudy {
    low_backlog: usize,
    probes: usize,
    low_ms: u64,
    baseline_high_p99_ms: f64,
    reserved_high_p99_ms: f64,
    improvement: f64,
}

struct NetLoopback {
    connections: usize,
    in_flight: usize,
    requests_per_conn: usize,
    payload_bytes: usize,
    total_requests: usize,
    wall_s: f64,
    req_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    frames_in: u64,
    frames_out: u64,
    protocol_errors: u64,
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
fn wfq_study(backlog: usize) -> WfqStudy {
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
    let mut shares = [0.0f64; 3];
    let mut expected = [0.0f64; 3];
    let weight_sum: u32 = weights.iter().sum();
    let mut max_rel_err = 0.0f64;
    for i in 0..3 {
        shares[i] = counts[i] as f64 / total.max(1) as f64;
        expected[i] = f64::from(weights[i]) / f64::from(weight_sum);
        max_rel_err = max_rel_err.max((shares[i] - expected[i]).abs() / expected[i]);
    }
    WfqStudy {
        weights,
        backlog,
        counts: [counts[0], counts[1], counts[2]],
        shares,
        expected,
        max_rel_err,
    }
}

/// Strict priority: class-0 probes fired into a deep class-5 backlog on
/// a single-worker pool. The probes' p99 stays at the scale of one
/// in-flight low batch; the backlog's p99 is the whole queue -- and every
/// bypass is visible in the low class's starvation counter.
fn prio_study(low_backlog: usize, probes: usize) -> PrioStudy {
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
    PrioStudy {
        low_backlog,
        probes,
        high_p99_ms: high.p99_s * 1e3,
        low_p99_ms: low.p99_s * 1e3,
        low_passed_over: low.passed_over,
    }
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
fn deadline_study(budget_ms: u64, offered: usize) -> DeadlineStudy {
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
    DeadlineStudy {
        budget_ms,
        offered,
        completed,
        shed_deadline: shed,
        accepted_p99_ms: snap.p99_s * 1e3,
    }
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
fn overload_study(budget_ms: u64, service_ms: u64, burst: usize) -> OverloadStudy {
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
    let total_shed = shed_predicted + shed_deadline;
    OverloadStudy {
        budget_ms,
        service_ms,
        warmups,
        burst,
        safety: serve::overload::safety_factor(),
        accepted,
        completed,
        shed_predicted,
        shed_deadline,
        early_shed_fraction: shed_predicted as f64 / total_shed.max(1) as f64,
        accepted_p99_ms: snap.p99_s * 1e3,
    }
}

/// Reserved-lane A/B: the identical low-saturation + class-0 probe load
/// on a plain 2-worker pool vs one with a reserved high-lane worker.
/// StrictPriority alone dequeues the probe first, but on the plain pool
/// it still waits behind whichever long low batches already occupy every
/// worker; with `Pool::with_reserved(2, 1)` the low class can never
/// occupy the reserved worker, so a probe starts immediately.
fn reserved_lane_study(low_backlog: usize, probes: usize, low_ms: u64) -> ReservedLaneStudy {
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
    let baseline_high_p99_ms = run(0);
    let reserved_high_p99_ms = run(1);
    ReservedLaneStudy {
        low_backlog,
        probes,
        low_ms,
        baseline_high_p99_ms,
        reserved_high_p99_ms,
        improvement: baseline_high_p99_ms / reserved_high_p99_ms.max(1e-9),
    }
}

/// Loopback TCP study of the network edge: an echo server behind
/// `NetServer` on an ephemeral port, `conns` client threads each keeping
/// `window` request frames in flight on its own socket. Measures
/// end-to-end wire throughput and submit-to-response latency — framing,
/// the reactor hop, CQ admission, and the response flush all included —
/// the socket-facing analogue of the in-process async-vs-sync phase.
fn net_loopback_study(
    conns: usize,
    window: usize,
    requests_per_conn: usize,
    payload_bytes: usize,
) -> NetLoopback {
    let server: Server<Vec<u8>, Vec<u8>> = Server::new(
        Pool::new(4),
        BatchPolicy {
            max_batch: 16,
            max_wait: Duration::from_micros(200),
        },
    );
    server
        .register(ScenarioSpec::new("echo", "wire"), |xs: &[Vec<u8>]| {
            xs.to_vec()
        })
        .expect("echo registration failed");
    let net = NetServer::bind(
        &server,
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            reactors: 2,
            per_conn_inflight: window.max(1),
        },
    )
    .expect("bind loopback");
    let addr = net.local_addr();

    let start = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..conns {
        handles.push(std::thread::spawn(move || -> Vec<f64> {
            let mut client = NetClient::connect(addr).expect("connect loopback");
            let payload = vec![0u8; payload_bytes];
            let mut sent_at: HashMap<u64, Instant> = HashMap::new();
            let mut lat_ms = Vec::with_capacity(requests_per_conn);
            let mut sent = 0usize;
            while lat_ms.len() < requests_per_conn {
                while sent < requests_per_conn && sent_at.len() < window {
                    let corr = client.submit("echo", "wire", &payload).expect("submit");
                    sent_at.insert(corr, Instant::now());
                    sent += 1;
                }
                let resp = client.recv().expect("recv");
                assert_eq!(resp.status, Status::Ok, "echo over the wire must be Ok");
                let t0 = sent_at
                    .remove(&resp.corr)
                    .expect("response for unknown corr");
                lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            lat_ms
        }));
    }
    let mut lat_ms: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("net client thread panicked"))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("latency is finite"));
    let total = conns * requests_per_conn;
    let stats = net.stats();
    net.shutdown();
    server.shutdown();
    NetLoopback {
        connections: conns,
        in_flight: window,
        requests_per_conn,
        payload_bytes,
        total_requests: total,
        wall_s,
        req_per_s: total as f64 / wall_s.max(1e-12),
        p50_ms: serve::percentile(&lat_ms, 50.0),
        p99_ms: serve::percentile(&lat_ms, 99.0),
        frames_in: stats.frames_in,
        frames_out: stats.frames_out,
        protocol_errors: stats.protocol_errors,
    }
}

fn main() {
    // The overload study admits right up to the forecast boundary, so a
    // safety factor above 1 is what keeps accepted tail latency strictly
    // inside the budget. Default it before the first predictive submit
    // can latch the process-wide value; an explicit environment override
    // still wins.
    if std::env::var_os(serve::overload::SAFETY_ENV).is_none() {
        std::env::set_var(serve::overload::SAFETY_ENV, "1.5");
    }
    let requests = bench::env_usize("SERVE_BENCH_REQUESTS", 240);
    let clients = bench::env_usize("SERVE_BENCH_CLIENTS", 8);
    let pool = Pool::global();
    println!(
        "serve_throughput: {} pool workers, {requests} requests, {clients} clients",
        pool.threads()
    );

    // ------------------------------------------------------------------
    // Part 1: batched packed serving vs per-input f32 fan-out, same model,
    // same scheme, same load. max_batch 4 with more clients than batch
    // slots keeps several batches in flight, so both paths saturate the
    // pool and the delta isolates the hot path itself.
    // ------------------------------------------------------------------
    let ab_requests = bench::env_usize("SERVE_BENCH_AB_REQUESTS", 600);
    let ab_clients = bench::env_usize("SERVE_BENCH_AB_CLIENTS", 16);
    let ab_policy = BatchPolicy {
        max_batch: 4,
        max_wait: Duration::from_millis(2),
    };
    let mlp = ServedModel::new(mlp_model());
    let mlp_inputs: Vec<Tensor> = (0..16)
        .map(|s| bench::pseudo_tensor(&[256], s as f32 * 1.77))
        .collect();
    let mlp_combo = vec![("mlp_256".to_string(), "lp8".to_string())];
    let per_input_rps = {
        let server: Server<Tensor, Tensor> = Server::new(pool.clone(), ab_policy);
        mlp.register_per_input(&server, "lp8", bench::uniform_lp_scheme(mlp.model(), 8))
            .expect("per-input registration failed");
        // Warm up outside the timed window.
        let _ = hammer(&server, &mlp_combo, &mlp_inputs, ab_clients, ab_clients * 2);
        let (_, rps) = hammer(&server, &mlp_combo, &mlp_inputs, ab_clients, ab_requests);
        server.shutdown();
        rps
    };
    let (batched_rps, mean_batch) = {
        let server: Server<Tensor, Tensor> = Server::new(pool.clone(), ab_policy);
        mlp.register(&server, "lp8", bench::uniform_lp_scheme(mlp.model(), 8))
            .expect("batched registration failed");
        // Warm up against a twin registration (cache-shared codes, same
        // model) so the timed registration's batch-size totals count
        // *only* the timed window's dispatches.
        mlp.register(
            &server,
            "lp8_warmup",
            bench::uniform_lp_scheme(mlp.model(), 8),
        )
        .expect("warmup registration failed");
        let warm_combo = vec![("mlp_256".to_string(), "lp8_warmup".to_string())];
        let _ = hammer(
            &server,
            &warm_combo,
            &mlp_inputs,
            ab_clients,
            ab_clients * 2,
        );
        let (_, rps) = hammer(&server, &mlp_combo, &mlp_inputs, ab_clients, ab_requests);
        let mean_batch = server
            .batch_size_stats("mlp_256", "lp8")
            .expect("batch sizes")
            .mean();
        server.shutdown();
        (rps, mean_batch)
    };
    let ab = AbResult {
        requests: ab_requests,
        clients: ab_clients,
        policy: ab_policy,
        per_input_rps,
        batched_rps,
        mean_batch,
    };
    println!(
        "batched vs per-input (mlp_256, {ab_clients} clients, max_batch 4): \
         per-input {per_input_rps:.0} req/s, batched packed {batched_rps:.0} req/s \
         ({:.2}x), mean dispatched batch {mean_batch:.2}",
        batched_rps / per_input_rps.max(1e-12)
    );

    // ------------------------------------------------------------------
    // Part 2: async completion-queue front-end vs thread-per-request
    // synchronous clients, same registration, same offered load — then an
    // overload study on a capped registration to exercise load shedding.
    // ------------------------------------------------------------------
    let window = bench::env_usize("SERVE_BENCH_INFLIGHT", 1536);
    let async_total = bench::env_usize("SERVE_BENCH_ASYNC_REQUESTS", 4096);
    let queue_cap = bench::env_usize("SERVE_BENCH_QUEUE_CAP", 64);
    let shed_offered = bench::env_usize("SERVE_BENCH_SHED_OFFERED", 2048);
    let avs = {
        let server: Server<Tensor, Tensor> = Server::new(pool.clone(), ab_policy);
        // Throughput registration: cap well above the window so the
        // comparison itself never sheds. (The codes are shared with the
        // part-1 registrations through the model's weight cache — packing
        // here costs nothing.)
        let throughput_cap = window * 2;
        mlp.register_spec(
            &server,
            ScenarioSpec::new("", "lp8_async").queue_cap(throughput_cap),
            bench::uniform_lp_scheme(mlp.model(), 8),
        )
        .expect("async registration failed");
        // Warm both faces briefly outside the timed windows, scaled down
        // from the real window so tiny smoke configurations (window <
        // cap-sized warm-up loads) cannot trip admission control.
        let warm_window = (window / 4).clamp(1, 64);
        let _ = sync_thread_per_request(
            &server,
            "mlp_256",
            "lp8_async",
            &mlp_inputs,
            warm_window,
            warm_window * 2,
        );
        let _ = async_single_driver(
            &server,
            "mlp_256",
            "lp8_async",
            &mlp_inputs,
            warm_window,
            warm_window * 2,
        );
        let sync_rps = sync_thread_per_request(
            &server,
            "mlp_256",
            "lp8_async",
            &mlp_inputs,
            window,
            async_total,
        );
        let (async_rps, max_inflight) = async_single_driver(
            &server,
            "mlp_256",
            "lp8_async",
            &mlp_inputs,
            window,
            async_total,
        );

        // Overload study: a burst far beyond the cap must be shed with the
        // typed error while accepted requests keep bounded queue depth
        // (and therefore bounded p99).
        mlp.register_spec(
            &server,
            ScenarioSpec::new("", "lp8_shed").queue_cap(queue_cap),
            bench::uniform_lp_scheme(mlp.model(), 8),
        )
        .expect("capped registration failed");
        let cq = server.async_client();
        let ep = cq.endpoint("mlp_256", "lp8_shed").expect("endpoint");
        let mut accepted = 0usize;
        let mut shed = 0usize;
        for i in 0..shed_offered {
            match ep.submit(mlp_inputs[i % mlp_inputs.len()].clone()) {
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
        assert!(
            shed > 0,
            "offered {shed_offered} must overrun cap {queue_cap}"
        );
        assert_eq!(snap.shed, shed as u64, "stats must count every shed");
        assert!(
            snap.max_queue_depth <= queue_cap,
            "cap must bound queue depth: {} > {queue_cap}",
            snap.max_queue_depth
        );
        server.shutdown();
        AsyncVsSync {
            total: async_total,
            window,
            sync_rps,
            async_rps,
            max_inflight,
            throughput_queue_cap: throughput_cap,
            shed: ShedResult {
                queue_cap,
                offered: shed_offered,
                accepted,
                shed,
                p99_ms: snap.p99_s * 1e3,
                max_queue_depth: snap.max_queue_depth,
            },
        }
    };
    println!(
        "async vs sync (mlp_256, window {}, {} requests): sync thread-per-request \
         {:.0} req/s ({} OS threads), async completion-queue {:.0} req/s \
         (1 driver thread, max {} tickets in flight) = {:.2}x",
        avs.window,
        avs.total,
        avs.sync_rps,
        avs.window,
        avs.async_rps,
        avs.max_inflight,
        avs.async_rps / avs.sync_rps.max(1e-12)
    );
    println!(
        "load shedding (cap {}): offered {} in a burst, accepted {}, shed {} \
         ({:.1}%), accepted p99 {:.3} ms, max queue depth {}",
        avs.shed.queue_cap,
        avs.shed.offered,
        avs.shed.accepted,
        avs.shed.shed,
        100.0 * avs.shed.shed as f64 / avs.shed.offered.max(1) as f64,
        avs.shed.p99_ms,
        avs.shed.max_queue_depth
    );

    // ------------------------------------------------------------------
    // Part 3: the pluggable scheduling layer, on dedicated fixed-size
    // pools with sleep-calibrated batch functions (box-independent).
    // ------------------------------------------------------------------
    let wfq_backlog = bench::env_usize("SERVE_BENCH_WFQ_BACKLOG", 1200);
    let prio_backlog = bench::env_usize("SERVE_BENCH_PRIO_BACKLOG", 60);
    let prio_probes = bench::env_usize("SERVE_BENCH_PRIO_PROBES", 20);
    let deadline_budget_ms = bench::env_usize("SERVE_BENCH_DEADLINE_BUDGET_MS", 1000) as u64;
    let deadline_burst = bench::env_usize("SERVE_BENCH_DEADLINE_BURST", 4096);
    let policy = PolicyStudy {
        wfq: wfq_study(wfq_backlog),
        prio: prio_study(prio_backlog, prio_probes),
        deadline: deadline_study(deadline_budget_ms, deadline_burst),
    };
    println!(
        "policy_study wfq (weights {:?}, backlog {} each): counts {:?}, \
         shares [{:.3}, {:.3}, {:.3}] vs expected [{:.3}, {:.3}, {:.3}], \
         max rel err {:.3}",
        policy.wfq.weights,
        policy.wfq.backlog,
        policy.wfq.counts,
        policy.wfq.shares[0],
        policy.wfq.shares[1],
        policy.wfq.shares[2],
        policy.wfq.expected[0],
        policy.wfq.expected[1],
        policy.wfq.expected[2],
        policy.wfq.max_rel_err
    );
    assert!(
        policy.wfq.max_rel_err <= 0.20,
        "WFQ throughput shares must track weights within 20%: rel err {:.3}",
        policy.wfq.max_rel_err
    );
    println!(
        "policy_study strict_priority ({} low backlog, {} class-0 probes): \
         high p99 {:.1} ms vs low p99 {:.1} ms, low passed_over {}",
        policy.prio.low_backlog,
        policy.prio.probes,
        policy.prio.high_p99_ms,
        policy.prio.low_p99_ms,
        policy.prio.low_passed_over
    );
    assert!(
        policy.prio.high_p99_ms < policy.prio.low_p99_ms,
        "class 0 must not wait behind the class-5 backlog"
    );
    assert!(
        policy.prio.low_passed_over > 0,
        "bypasses must be visible in the starvation counter"
    );
    println!(
        "policy_study deadline (budget {} ms, burst {}): completed {}, \
         shed {} expired at dispatch, accepted p99 {:.1} ms",
        policy.deadline.budget_ms,
        policy.deadline.offered,
        policy.deadline.completed,
        policy.deadline.shed_deadline,
        policy.deadline.accepted_p99_ms
    );
    assert!(
        policy.deadline.shed_deadline > 0,
        "the overload burst must shed expired work"
    );
    assert!(
        policy.deadline.accepted_p99_ms < policy.deadline.budget_ms as f64,
        "accepted p99 {:.1} ms must stay under the {} ms budget",
        policy.deadline.accepted_p99_ms,
        policy.deadline.budget_ms
    );

    // ------------------------------------------------------------------
    // Part 3b: the overload-control layer — predictive admission under a
    // doomed burst, and the reserved high-lane A/B.
    // ------------------------------------------------------------------
    let overload_budget_ms = bench::env_usize("SERVE_BENCH_OVERLOAD_BUDGET_MS", 150) as u64;
    let overload_service_ms = bench::env_usize("SERVE_BENCH_OVERLOAD_SERVICE_MS", 15) as u64;
    let overload_burst = bench::env_usize("SERVE_BENCH_OVERLOAD_BURST", 256);
    let overload = overload_study(overload_budget_ms, overload_service_ms, overload_burst);
    println!(
        "overload_study predictive (budget {} ms, {} ms batches, burst {}, \
         safety {:.2}): accepted {}, completed {}, shed {} at submit + {} at \
         dispatch (early fraction {:.3}), accepted p99 {:.1} ms",
        overload.budget_ms,
        overload.service_ms,
        overload.burst,
        overload.safety,
        overload.accepted,
        overload.completed,
        overload.shed_predicted,
        overload.shed_deadline,
        overload.early_shed_fraction,
        overload.accepted_p99_ms
    );
    assert!(
        overload.shed_predicted > 0 && overload.completed >= 1,
        "the burst must split into admitted and predictively shed requests"
    );
    assert!(
        overload.early_shed_fraction >= 0.8,
        "at least 80% of sheds must happen at submit, not dispatch: {:.3}",
        overload.early_shed_fraction
    );
    assert!(
        overload.accepted_p99_ms < overload.budget_ms as f64,
        "accepted p99 {:.1} ms must stay under the {} ms budget",
        overload.accepted_p99_ms,
        overload.budget_ms
    );
    let lane_backlog = bench::env_usize("SERVE_BENCH_RESERVED_BACKLOG", 40);
    let lane_probes = bench::env_usize("SERVE_BENCH_RESERVED_PROBES", 12);
    let lane_low_ms = bench::env_usize("SERVE_BENCH_RESERVED_LOW_MS", 25) as u64;
    let lanes = reserved_lane_study(lane_backlog, lane_probes, lane_low_ms);
    println!(
        "reserved_lane_study ({} low backlog of {} ms batches, {} class-0 \
         probes): high p99 {:.1} ms on the plain pool vs {:.2} ms with a \
         reserved worker = {:.1}x",
        lanes.low_backlog,
        lanes.low_ms,
        lanes.probes,
        lanes.baseline_high_p99_ms,
        lanes.reserved_high_p99_ms,
        lanes.improvement
    );
    assert!(
        lanes.improvement >= 3.0,
        "a reserved lane must cut high-class p99 at least 3x: {:.1} ms -> {:.2} ms ({:.1}x)",
        lanes.baseline_high_p99_ms,
        lanes.reserved_high_p99_ms,
        lanes.improvement
    );

    // ------------------------------------------------------------------
    // Part 3d: the network edge. Loopback TCP echo through the framed
    // wire protocol — N connections x M in-flight frames per connection.
    // ------------------------------------------------------------------
    let net_conns = bench::env_usize("SERVE_BENCH_NET_CONNS", 4);
    let net_window = bench::env_usize("SERVE_BENCH_NET_INFLIGHT", 8);
    let net_requests = bench::env_usize("SERVE_BENCH_NET_REQUESTS", 1000);
    let net_payload = bench::env_usize("SERVE_BENCH_NET_PAYLOAD", 64);
    let net = net_loopback_study(net_conns, net_window, net_requests, net_payload);
    println!(
        "net_loopback ({} conns x {} in flight, {} reqs/conn, {} B payload): \
         {:.0} req/s, p50 {:.3} ms, p99 {:.3} ms",
        net.connections,
        net.in_flight,
        net.requests_per_conn,
        net.payload_bytes,
        net.req_per_s,
        net.p50_ms,
        net.p99_ms
    );
    assert_eq!(
        net.frames_in, net.total_requests as u64,
        "every request frame must be decoded exactly once"
    );
    assert_eq!(
        net.frames_out, net.total_requests as u64,
        "exactly one response frame per accepted request"
    );
    assert_eq!(net.protocol_errors, 0, "a clean run has no framing errors");

    // ------------------------------------------------------------------
    // Part 4: multi-model multi-scenario serving on the packed batched
    // path, with resident-weight accounting.
    // ------------------------------------------------------------------
    let server: Server<Tensor, Tensor> = Server::new(
        pool.clone(),
        BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        },
    );
    let model_names = ["resnet18", "deit_s"];
    let scenario_bits = [("lp8", 8u32), ("lp4", 4u32)];
    let mut combos: Vec<(String, String)> = Vec::new();
    let mut served_models = Vec::new();
    let mut packed_models: Vec<Arc<Model>> = Vec::new();
    for name in model_names {
        let m = bench::model(name);
        let served = ServedModel::new(m);
        for (scenario, bits) in scenario_bits {
            let scheme = bench::uniform_lp_scheme(served.model(), bits);
            let packed = served
                .register(&server, scenario, scheme)
                .expect("registration failed");
            packed_models.push(packed);
            combos.push((name.to_string(), scenario.to_string()));
        }
        served_models.push(served);
    }
    // Code-sharing evidence: re-registering the lp8 scheme under a new
    // scenario name must not grow the model's weight cache, and the new
    // packed model must hold the *same* code buffers.
    let first = &served_models[0];
    let before = first.cache_len();
    let mirror = bench::uniform_lp_scheme(first.model(), 8);
    let mirror_model = first
        .register(&server, "lp8_mirror", mirror)
        .expect("mirror registration failed");
    packed_models.push(mirror_model);
    let after = first.cache_len();
    assert_eq!(
        before, after,
        "identical scenario must reuse cached packed weights"
    );
    println!(
        "weight-cache reuse: {} entries before and after registering a \
         duplicate scenario of {} ({} layers)",
        before,
        first.model().name(),
        first.model().num_quant_layers()
    );

    // Resident weight bytes: the retired path materialized one f32 copy
    // per scenario; the packed path holds u16 codes shared across
    // scenarios with the same codec key (dedupe by code-buffer identity).
    let dense_equiv_bytes: usize = packed_models.iter().map(|m| m.num_params() * 4).sum();
    let mut seen = HashSet::new();
    let mut packed_bytes = 0usize;
    for m in &packed_models {
        for s in m.layer_storages() {
            match s.as_packed() {
                Some(q) => {
                    if seen.insert(q.codes_ptr()) {
                        packed_bytes += q.resident_bytes();
                    }
                }
                None => packed_bytes += s.resident_bytes(),
            }
        }
    }
    let memory = MemoryResult {
        scenarios: packed_models.len(),
        dense_equiv_bytes,
        packed_bytes,
    };
    println!(
        "resident weights over {} scenario registrations: f32-copy equivalent \
         {:.2} MB, packed codes {:.2} MB ({:.2}x smaller)",
        memory.scenarios,
        memory.dense_equiv_bytes as f64 / 1e6,
        memory.packed_bytes as f64 / 1e6,
        memory.dense_equiv_bytes as f64 / memory.packed_bytes.max(1) as f64
    );

    let inputs: Vec<Tensor> = data::synthetic_images(16, &dnn::models::INPUT_SHAPE, 99);
    let (wall_s, rps) = hammer(&server, &combos, &inputs, clients, requests);
    println!("served {requests} requests in {wall_s:.3}s = {rps:.1} req/s");

    let mut rows = Vec::new();
    for (model, scenario) in &combos {
        let snap = server.stats(model, scenario).expect("stats exist");
        rows.push(ServingRow {
            model: model.clone(),
            scenario: scenario.clone(),
            count: snap.count,
            mean_ms: snap.mean_s * 1e3,
            p50_ms: snap.p50_s * 1e3,
            p99_ms: snap.p99_s * 1e3,
            queue_wait_p50_ms: snap.queue_wait.p50_s * 1e3,
            queue_wait_p99_ms: snap.queue_wait.p99_s * 1e3,
            service_p50_ms: snap.service.p50_s * 1e3,
            service_p99_ms: snap.service.p99_s * 1e3,
            delivery_p50_ms: snap.delivery.p50_s * 1e3,
            delivery_p99_ms: snap.delivery.p99_s * 1e3,
            submitted: snap.submitted,
            shed: snap.shed,
            shed_deadline: snap.shed_deadline,
            shed_predicted: snap.shed_predicted,
            passed_over: snap.passed_over,
            max_queue_depth: snap.max_queue_depth,
        });
    }
    // The shared stats table (latency + stage breakdown + pool counters)
    // every bench bin prints instead of rolling its own.
    print!("{}", server.report());
    server.shutdown();

    let pool_stats = pool.stats();

    // ------------------------------------------------------------------
    // Part 5: what does observability cost? The same packed registration
    // driven through the async front with ring-buffer event recording
    // off and on, interleaved; then a short traced run exported as a
    // Chrome trace for TRACE_serve.json.
    // ------------------------------------------------------------------
    let trace_requests = bench::env_usize("SERVE_BENCH_TRACE_REQUESTS", 2048);
    let trace_reps = bench::env_usize("SERVE_BENCH_TRACE_REPS", 3);
    let trace_window = bench::env_usize("SERVE_BENCH_TRACE_INFLIGHT", 256);
    let max_overhead_frac =
        bench::env_usize("SERVE_BENCH_TRACE_MAX_OVERHEAD_PCT", 5) as f64 / 100.0;
    let trace_oh = {
        let server: Server<Tensor, Tensor> = Server::new(pool.clone(), ab_policy);
        mlp.register_spec(
            &server,
            ScenarioSpec::new("", "lp8_trace").queue_cap(trace_window * 2),
            bench::uniform_lp_scheme(mlp.model(), 8),
        )
        .expect("trace registration failed");
        let was = trace::enabled();
        // Warm both modes outside the timed windows.
        let warm = (trace_window / 4).clamp(1, 64);
        for on in [false, true] {
            trace::set_enabled(on);
            let _ =
                async_single_driver(&server, "mlp_256", "lp8_trace", &mlp_inputs, warm, warm * 2);
        }
        let (mut best_off, mut best_on) = (0.0f64, 0.0f64);
        for _ in 0..trace_reps.max(1) {
            trace::set_enabled(false);
            let (rps, _) = async_single_driver(
                &server,
                "mlp_256",
                "lp8_trace",
                &mlp_inputs,
                trace_window,
                trace_requests,
            );
            best_off = best_off.max(rps);
            trace::set_enabled(true);
            let (rps, _) = async_single_driver(
                &server,
                "mlp_256",
                "lp8_trace",
                &mlp_inputs,
                trace_window,
                trace_requests,
            );
            best_on = best_on.max(rps);
        }
        // Capture run for the committed trace artifact: small enough to
        // stay inside the default ring capacity so Submit→Complete pairs
        // survive for every request.
        trace::set_enabled(true);
        trace::clear();
        let capture = trace_requests.min(256);
        let _ = async_single_driver(
            &server,
            "mlp_256",
            "lp8_trace",
            &mlp_inputs,
            trace_window.min(capture),
            capture,
        );
        let chrome = trace::export_chrome();
        assert!(
            chrome.contains("\"ph\": \"s\"") && chrome.contains("\"ph\": \"f\""),
            "exported trace must pair request flow events"
        );
        let tstats = trace::stats();
        trace::set_enabled(was);
        server.shutdown();
        let trace_path = bench::artifact_path("TRACE_serve.json");
        match std::fs::write(&trace_path, &chrome) {
            Ok(()) => println!("wrote {} ({} bytes)", trace_path.display(), chrome.len()),
            Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
        }
        TraceOverhead {
            requests: trace_requests,
            window: trace_window,
            reps: trace_reps,
            untraced_rps: best_off,
            traced_rps: best_on,
            overhead_frac: 1.0 - best_on / best_off.max(1e-12),
            max_overhead_frac,
            ring_cap: trace::ring_capacity(),
            events_recorded: tstats.recorded,
            trace_rings: tstats.rings,
        }
    };
    println!(
        "trace_overhead (window {}, {} requests x {} reps): untraced {:.0} req/s, \
         traced {:.0} req/s, overhead {:.2}% (budget {:.0}%), {} events in {} rings",
        trace_oh.window,
        trace_oh.requests,
        trace_oh.reps,
        trace_oh.untraced_rps,
        trace_oh.traced_rps,
        trace_oh.overhead_frac * 100.0,
        trace_oh.max_overhead_frac * 100.0,
        trace_oh.events_recorded,
        trace_oh.trace_rings
    );
    assert!(
        trace_oh.overhead_frac < trace_oh.max_overhead_frac,
        "event recording overhead {:.2}% exceeds the {:.0}% budget",
        trace_oh.overhead_frac * 100.0,
        trace_oh.max_overhead_frac * 100.0
    );

    // Fail loudly on broken measurements before writing the artifact.
    bench::check_metric("per_input_rps", ab.per_input_rps);
    bench::check_metric("batched_rps", ab.batched_rps);
    bench::check_metric("mean_batch", ab.mean_batch);
    bench::check_metric("sync_rps", avs.sync_rps);
    bench::check_metric("async_rps", avs.async_rps);
    bench::check_metric("max_inflight", avs.max_inflight as f64);
    bench::check_metric("shed_count", avs.shed.shed as f64);
    bench::check_metric("shed_p99_ms", avs.shed.p99_ms);
    bench::check_metric("requests_per_s", rps);
    for (i, &share) in policy.wfq.shares.iter().enumerate() {
        bench::check_metric(&format!("wfq_share_w{}", policy.wfq.weights[i]), share);
    }
    bench::check_metric("prio_high_p99_ms", policy.prio.high_p99_ms);
    bench::check_metric("prio_low_p99_ms", policy.prio.low_p99_ms);
    bench::check_metric("prio_low_passed_over", policy.prio.low_passed_over as f64);
    bench::check_metric("deadline_shed_count", policy.deadline.shed_deadline as f64);
    bench::check_metric("deadline_accepted_p99_ms", policy.deadline.accepted_p99_ms);
    bench::check_metric("predictive_shed_count", overload.shed_predicted as f64);
    bench::check_metric(
        "predictive_early_shed_fraction",
        overload.early_shed_fraction,
    );
    bench::check_metric("predictive_accepted_p99_ms", overload.accepted_p99_ms);
    bench::check_metric("reserved_baseline_high_p99_ms", lanes.baseline_high_p99_ms);
    bench::check_metric("reserved_high_p99_ms", lanes.reserved_high_p99_ms);
    bench::check_metric("reserved_improvement", lanes.improvement);
    bench::check_metric("net_req_per_s", net.req_per_s);
    bench::check_metric("net_p50_ms", net.p50_ms);
    bench::check_metric("net_p99_ms", net.p99_ms);
    bench::check_metric("net_frames_in", net.frames_in as f64);
    bench::check_metric("net_frames_out", net.frames_out as f64);
    bench::check_metric("dense_equiv_bytes", memory.dense_equiv_bytes as f64);
    bench::check_metric("packed_bytes", memory.packed_bytes as f64);
    bench::check_metric("pool_executed", pool_stats.total_executed() as f64);
    // Stage breakdowns: every part-5 combo received traffic, so each
    // stage histogram must hold samples (p99 of an empty histogram is 0
    // and would trip the check).
    let stage_max = |get: fn(&ServingRow) -> f64| rows.iter().map(get).fold(0.0f64, f64::max);
    bench::check_metric(
        "serving_queue_wait_p99_ms",
        stage_max(|r| r.queue_wait_p99_ms),
    );
    bench::check_metric("serving_service_p99_ms", stage_max(|r| r.service_p99_ms));
    bench::check_metric("serving_delivery_p99_ms", stage_max(|r| r.delivery_p99_ms));
    bench::check_metric("trace_untraced_rps", trace_oh.untraced_rps);
    bench::check_metric("trace_traced_rps", trace_oh.traced_rps);
    bench::check_metric("trace_events_recorded", trace_oh.events_recorded as f64);
    // Positive iff the measured overhead sits under the budget — turns
    // the <5% gate into a checked metric, not just prose.
    bench::check_metric(
        "trace_headroom",
        trace_oh.max_overhead_frac - trace_oh.overhead_frac,
    );

    write_json(
        pool.threads(),
        &ab,
        &avs,
        &policy,
        &overload,
        &lanes,
        &net,
        &memory,
        requests,
        wall_s,
        rps,
        (before, first.model().num_quant_layers()),
        &rows,
        &pool_stats,
        &trace_oh,
    );
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    threads: usize,
    ab: &AbResult,
    avs: &AsyncVsSync,
    policy: &PolicyStudy,
    overload: &OverloadStudy,
    lanes: &ReservedLaneStudy,
    net: &NetLoopback,
    memory: &MemoryResult,
    requests: usize,
    wall_s: f64,
    rps: f64,
    cache: (usize, usize),
    rows: &[ServingRow],
    pool_stats: &serve::pool::PoolStats,
    trace_oh: &TraceOverhead,
) {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"pool_threads\": {threads},\n"));
    // Run configuration, so every artifact is self-describing: the thread
    // count, batching policy, load, and queue caps that produced it.
    out.push_str("  \"config\": {\n");
    // Validate rather than quote: SERVE_THREADS is numeric or absent, and
    // embedding an arbitrary env string could break the JSON.
    out.push_str(&format!(
        "    \"serve_threads_env\": {},\n",
        std::env::var("SERVE_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or_else(|| "null".to_string(), |n| n.to_string())
    ));
    out.push_str(&format!("    \"pool_threads\": {threads},\n"));
    out.push_str(&format!("    \"ab_max_batch\": {},\n", ab.policy.max_batch));
    out.push_str(&format!(
        "    \"ab_max_wait_ms\": {},\n",
        ab.policy.max_wait.as_millis()
    ));
    out.push_str(&format!("    \"ab_requests\": {},\n", ab.requests));
    out.push_str(&format!("    \"ab_clients\": {},\n", ab.clients));
    out.push_str(&format!("    \"async_inflight_window\": {},\n", avs.window));
    out.push_str(&format!("    \"async_requests\": {},\n", avs.total));
    out.push_str(&format!(
        "    \"async_throughput_queue_cap\": {},\n",
        avs.throughput_queue_cap
    ));
    out.push_str(&format!(
        "    \"shed_queue_cap\": {},\n",
        avs.shed.queue_cap
    ));
    out.push_str(&format!("    \"shed_offered\": {},\n", avs.shed.offered));
    out.push_str(&format!("    \"wfq_backlog\": {},\n", policy.wfq.backlog));
    out.push_str(&format!(
        "    \"prio_backlog\": {},\n",
        policy.prio.low_backlog
    ));
    out.push_str(&format!("    \"prio_probes\": {},\n", policy.prio.probes));
    out.push_str(&format!(
        "    \"deadline_budget_ms\": {},\n",
        policy.deadline.budget_ms
    ));
    out.push_str(&format!(
        "    \"deadline_burst\": {},\n",
        policy.deadline.offered
    ));
    out.push_str(&format!(
        "    \"overload_budget_ms\": {},\n",
        overload.budget_ms
    ));
    out.push_str(&format!(
        "    \"overload_service_ms\": {},\n",
        overload.service_ms
    ));
    out.push_str(&format!("    \"overload_burst\": {},\n", overload.burst));
    out.push_str(&format!(
        "    \"predict_safety_factor\": {:.3},\n",
        overload.safety
    ));
    out.push_str(&format!(
        "    \"reserved_backlog\": {},\n",
        lanes.low_backlog
    ));
    out.push_str(&format!("    \"reserved_probes\": {},\n", lanes.probes));
    out.push_str(&format!("    \"reserved_low_ms\": {},\n", lanes.low_ms));
    out.push_str(&format!("    \"net_connections\": {},\n", net.connections));
    out.push_str(&format!("    \"net_inflight\": {},\n", net.in_flight));
    out.push_str(&format!(
        "    \"net_requests_per_conn\": {},\n",
        net.requests_per_conn
    ));
    out.push_str(&format!(
        "    \"net_payload_bytes\": {},\n",
        net.payload_bytes
    ));
    out.push_str(&format!("    \"serving_requests\": {requests}\n"));
    out.push_str("  },\n");
    out.push_str("  \"batched_vs_per_input\": {\n");
    out.push_str("    \"model\": \"mlp_256\",\n");
    out.push_str(&format!("    \"requests\": {},\n", ab.requests));
    out.push_str(&format!("    \"clients\": {},\n", ab.clients));
    out.push_str(&format!("    \"max_batch\": {},\n", ab.policy.max_batch));
    out.push_str(&format!(
        "    \"per_input_f32_rps\": {:.1},\n",
        ab.per_input_rps
    ));
    out.push_str(&format!(
        "    \"batched_packed_rps\": {:.1},\n",
        ab.batched_rps
    ));
    out.push_str(&format!(
        "    \"batched_speedup\": {:.3},\n",
        ab.batched_rps / ab.per_input_rps.max(1e-12)
    ));
    out.push_str(&format!(
        "    \"mean_dispatched_batch\": {:.2}\n",
        ab.mean_batch
    ));
    out.push_str("  },\n");
    out.push_str("  \"async_vs_sync\": {\n");
    out.push_str("    \"model\": \"mlp_256\",\n");
    out.push_str(&format!("    \"requests\": {},\n", avs.total));
    out.push_str(&format!("    \"inflight_window\": {},\n", avs.window));
    out.push_str("    \"async_driver_threads\": 1,\n");
    out.push_str(&format!("    \"sync_client_threads\": {},\n", avs.window));
    out.push_str(&format!(
        "    \"sync_thread_per_request_rps\": {:.1},\n",
        avs.sync_rps
    ));
    out.push_str(&format!(
        "    \"async_completion_queue_rps\": {:.1},\n",
        avs.async_rps
    ));
    out.push_str(&format!(
        "    \"async_over_sync\": {:.3},\n",
        avs.async_rps / avs.sync_rps.max(1e-12)
    ));
    out.push_str(&format!(
        "    \"max_inflight_tickets\": {},\n",
        avs.max_inflight
    ));
    out.push_str(&format!(
        "    \"throughput_queue_cap\": {},\n",
        avs.throughput_queue_cap
    ));
    out.push_str("    \"load_shedding\": {\n");
    out.push_str(&format!("      \"queue_cap\": {},\n", avs.shed.queue_cap));
    out.push_str(&format!("      \"offered_burst\": {},\n", avs.shed.offered));
    out.push_str(&format!("      \"accepted\": {},\n", avs.shed.accepted));
    out.push_str(&format!("      \"shed\": {},\n", avs.shed.shed));
    out.push_str(&format!(
        "      \"shed_fraction\": {:.4},\n",
        avs.shed.shed as f64 / avs.shed.offered.max(1) as f64
    ));
    out.push_str(&format!(
        "      \"accepted_p99_ms\": {:.3},\n",
        avs.shed.p99_ms
    ));
    out.push_str(&format!(
        "      \"max_queue_depth\": {}\n",
        avs.shed.max_queue_depth
    ));
    out.push_str("    }\n");
    out.push_str("  },\n");
    out.push_str("  \"policy_study\": {\n");
    out.push_str("    \"wfq\": {\n");
    out.push_str("      \"policy\": \"weighted_fair\",\n");
    out.push_str(&format!(
        "      \"weights\": [{}, {}, {}],\n",
        policy.wfq.weights[0], policy.wfq.weights[1], policy.wfq.weights[2]
    ));
    out.push_str(&format!(
        "      \"backlog_per_scenario\": {},\n",
        policy.wfq.backlog
    ));
    out.push_str(&format!(
        "      \"counts\": [{}, {}, {}],\n",
        policy.wfq.counts[0], policy.wfq.counts[1], policy.wfq.counts[2]
    ));
    out.push_str(&format!(
        "      \"shares\": [{:.4}, {:.4}, {:.4}],\n",
        policy.wfq.shares[0], policy.wfq.shares[1], policy.wfq.shares[2]
    ));
    out.push_str(&format!(
        "      \"expected_shares\": [{:.4}, {:.4}, {:.4}],\n",
        policy.wfq.expected[0], policy.wfq.expected[1], policy.wfq.expected[2]
    ));
    out.push_str(&format!(
        "      \"max_rel_err\": {:.4},\n",
        policy.wfq.max_rel_err
    ));
    out.push_str("      \"tolerance\": 0.20\n");
    out.push_str("    },\n");
    out.push_str("    \"strict_priority\": {\n");
    out.push_str("      \"policy\": \"strict_priority\",\n");
    out.push_str("      \"low_class\": 5,\n");
    out.push_str("      \"high_class\": 0,\n");
    out.push_str(&format!(
        "      \"low_backlog\": {},\n",
        policy.prio.low_backlog
    ));
    out.push_str(&format!("      \"high_probes\": {},\n", policy.prio.probes));
    out.push_str(&format!(
        "      \"high_p99_ms\": {:.3},\n",
        policy.prio.high_p99_ms
    ));
    out.push_str(&format!(
        "      \"low_p99_ms\": {:.3},\n",
        policy.prio.low_p99_ms
    ));
    out.push_str(&format!(
        "      \"low_passed_over\": {}\n",
        policy.prio.low_passed_over
    ));
    out.push_str("    },\n");
    out.push_str("    \"deadline\": {\n");
    out.push_str(&format!(
        "      \"budget_ms\": {},\n",
        policy.deadline.budget_ms
    ));
    out.push_str(&format!(
        "      \"offered_burst\": {},\n",
        policy.deadline.offered
    ));
    out.push_str(&format!(
        "      \"completed\": {},\n",
        policy.deadline.completed
    ));
    out.push_str(&format!(
        "      \"shed_deadline\": {},\n",
        policy.deadline.shed_deadline
    ));
    out.push_str(&format!(
        "      \"accepted_p99_ms\": {:.3}\n",
        policy.deadline.accepted_p99_ms
    ));
    out.push_str("    }\n");
    out.push_str("  },\n");
    out.push_str("  \"overload_study\": {\n");
    out.push_str(&format!("    \"budget_ms\": {},\n", overload.budget_ms));
    out.push_str(&format!("    \"service_ms\": {},\n", overload.service_ms));
    out.push_str(&format!("    \"warmups\": {},\n", overload.warmups));
    out.push_str(&format!("    \"offered_burst\": {},\n", overload.burst));
    out.push_str(&format!("    \"safety_factor\": {:.3},\n", overload.safety));
    out.push_str(&format!("    \"accepted\": {},\n", overload.accepted));
    out.push_str(&format!("    \"completed\": {},\n", overload.completed));
    out.push_str(&format!(
        "    \"shed_predicted\": {},\n",
        overload.shed_predicted
    ));
    out.push_str(&format!(
        "    \"shed_deadline\": {},\n",
        overload.shed_deadline
    ));
    out.push_str(&format!(
        "    \"early_shed_fraction\": {:.4},\n",
        overload.early_shed_fraction
    ));
    out.push_str("    \"early_shed_fraction_floor\": 0.8,\n");
    out.push_str(&format!(
        "    \"accepted_p99_ms\": {:.3}\n",
        overload.accepted_p99_ms
    ));
    out.push_str("  },\n");
    out.push_str("  \"reserved_lane_study\": {\n");
    out.push_str("    \"pool_threads\": 2,\n");
    out.push_str("    \"reserved_threads\": 1,\n");
    out.push_str(&format!("    \"low_backlog\": {},\n", lanes.low_backlog));
    out.push_str(&format!("    \"low_batch_ms\": {},\n", lanes.low_ms));
    out.push_str(&format!("    \"high_probes\": {},\n", lanes.probes));
    out.push_str(&format!(
        "    \"baseline_high_p99_ms\": {:.3},\n",
        lanes.baseline_high_p99_ms
    ));
    out.push_str(&format!(
        "    \"reserved_high_p99_ms\": {:.3},\n",
        lanes.reserved_high_p99_ms
    ));
    out.push_str(&format!("    \"improvement\": {:.3},\n", lanes.improvement));
    out.push_str("    \"improvement_floor\": 3.0\n");
    out.push_str("  },\n");
    out.push_str("  \"net_loopback\": {\n");
    out.push_str("    \"model\": \"echo\",\n");
    out.push_str(&format!("    \"connections\": {},\n", net.connections));
    out.push_str(&format!("    \"in_flight\": {},\n", net.in_flight));
    out.push_str(&format!(
        "    \"requests_per_conn\": {},\n",
        net.requests_per_conn
    ));
    out.push_str(&format!("    \"payload_bytes\": {},\n", net.payload_bytes));
    out.push_str(&format!(
        "    \"total_requests\": {},\n",
        net.total_requests
    ));
    out.push_str(&format!("    \"wall_s\": {:.6},\n", net.wall_s));
    out.push_str(&format!("    \"req_per_s\": {:.1},\n", net.req_per_s));
    out.push_str(&format!("    \"p50_ms\": {:.3},\n", net.p50_ms));
    out.push_str(&format!("    \"p99_ms\": {:.3},\n", net.p99_ms));
    out.push_str(&format!("    \"frames_in\": {},\n", net.frames_in));
    out.push_str(&format!("    \"frames_out\": {},\n", net.frames_out));
    out.push_str(&format!(
        "    \"protocol_errors\": {}\n",
        net.protocol_errors
    ));
    out.push_str("  },\n");
    out.push_str("  \"resident_weight_bytes\": {\n");
    out.push_str(&format!(
        "    \"scenario_registrations\": {},\n",
        memory.scenarios
    ));
    out.push_str(&format!(
        "    \"dense_f32_equivalent\": {},\n",
        memory.dense_equiv_bytes
    ));
    out.push_str(&format!("    \"packed_codes\": {},\n", memory.packed_bytes));
    out.push_str(&format!(
        "    \"reduction\": {:.3}\n",
        memory.dense_equiv_bytes as f64 / memory.packed_bytes.max(1) as f64
    ));
    out.push_str("  },\n");
    out.push_str("  \"serving\": {\n");
    out.push_str(&format!("    \"total_requests\": {requests},\n"));
    out.push_str(&format!("    \"wall_s\": {wall_s:.6},\n"));
    out.push_str(&format!("    \"requests_per_s\": {rps:.1},\n"));
    out.push_str(&format!(
        "    \"weight_cache_entries_after_duplicate_scenario\": {},\n",
        cache.0
    ));
    out.push_str(&format!("    \"layers_per_model\": {},\n", cache.1));
    out.push_str("    \"registrations\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"model\": \"{}\", \"scenario\": \"{}\", \"count\": {}, \
             \"mean_ms\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"queue_wait_p50_ms\": {:.4}, \"queue_wait_p99_ms\": {:.4}, \
             \"service_p50_ms\": {:.4}, \"service_p99_ms\": {:.4}, \
             \"delivery_p50_ms\": {:.4}, \"delivery_p99_ms\": {:.4}, \
             \"submitted\": {}, \"shed\": {}, \"shed_deadline\": {}, \
             \"shed_predicted\": {}, \"passed_over\": {}, \"max_queue_depth\": {}}}{}\n",
            r.model,
            r.scenario,
            r.count,
            r.mean_ms,
            r.p50_ms,
            r.p99_ms,
            r.queue_wait_p50_ms,
            r.queue_wait_p99_ms,
            r.service_p50_ms,
            r.service_p99_ms,
            r.delivery_p50_ms,
            r.delivery_p99_ms,
            r.submitted,
            r.shed,
            r.shed_deadline,
            r.shed_predicted,
            r.passed_over,
            r.max_queue_depth,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("    ]\n  },\n");
    out.push_str("  \"trace_overhead\": {\n");
    out.push_str(&format!("    \"requests\": {},\n", trace_oh.requests));
    out.push_str(&format!("    \"inflight_window\": {},\n", trace_oh.window));
    out.push_str(&format!("    \"reps\": {},\n", trace_oh.reps));
    out.push_str(&format!(
        "    \"untraced_rps\": {:.1},\n",
        trace_oh.untraced_rps
    ));
    out.push_str(&format!(
        "    \"traced_rps\": {:.1},\n",
        trace_oh.traced_rps
    ));
    out.push_str(&format!(
        "    \"overhead_frac\": {:.5},\n",
        trace_oh.overhead_frac
    ));
    out.push_str(&format!(
        "    \"max_overhead_frac\": {:.3},\n",
        trace_oh.max_overhead_frac
    ));
    out.push_str(&format!("    \"ring_cap\": {},\n", trace_oh.ring_cap));
    out.push_str(&format!(
        "    \"events_recorded\": {},\n",
        trace_oh.events_recorded
    ));
    out.push_str(&format!("    \"trace_rings\": {}\n", trace_oh.trace_rings));
    out.push_str("  },\n");
    out.push_str("  \"pool\": {\n");
    out.push_str(&format!(
        "    \"total_executed\": {},\n",
        pool_stats.total_executed()
    ));
    out.push_str(&format!(
        "    \"total_stolen\": {},\n",
        pool_stats.total_stolen()
    ));
    out.push_str(&format!(
        "    \"total_steal_failures\": {},\n",
        pool_stats.total_steal_failures()
    ));
    out.push_str(&format!(
        "    \"total_parks\": {},\n",
        pool_stats.total_parks()
    ));
    out.push_str(&format!(
        "    \"total_unparks\": {},\n",
        pool_stats.total_unparks()
    ));
    out.push_str("    \"workers\": [\n");
    for (i, w) in pool_stats.workers.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"executed\": {}, \"stolen\": {}, \"steal_failures\": {}, \
             \"parks\": {}, \"unparks\": {}}}{}\n",
            w.executed,
            w.stolen,
            w.steal_failures,
            w.parks,
            w.unparks,
            if i + 1 == pool_stats.workers.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("    ],\n");
    out.push_str(&format!(
        "    \"external\": {{\"executed\": {}, \"stolen\": {}, \"steal_failures\": {}}}\n",
        pool_stats.external.executed,
        pool_stats.external.stolen,
        pool_stats.external.steal_failures
    ));
    out.push_str("  }\n}\n");
    let path = bench::artifact_path("BENCH_serve.json");
    match std::fs::write(&path, &out) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

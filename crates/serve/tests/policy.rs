//! Integration tests for the pluggable scheduling layer: weighted-fair
//! shares, strict-priority latency isolation, deadline shedding, and
//! deregistration draining — each on a dedicated small pool with
//! sleep-calibrated batch functions so the assertions are about the
//! *scheduler*, not about the speed of the box.

use serve::pool::Pool;
use serve::server::{BatchPolicy, ScenarioSpec, ServeError, Server};
use serve::{StrictPriority, WeightedFair};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn sleepy(ms: u64) -> impl Fn(&[u64]) -> Vec<u64> + Send + Sync + 'static {
    move |xs: &[u64]| {
        std::thread::sleep(Duration::from_millis(ms));
        xs.to_vec()
    }
}

/// Under a saturated pool, WeightedFair throughput shares track the
/// configured weights (deficit round robin awards credit proportional to
/// weight per round, so dispatches converge to weight shares).
#[test]
fn wfq_shares_track_weights_under_saturation() {
    let server: Server<u64, u64> = Server::with_policy(
        Pool::new(2),
        BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
        },
        Box::new(WeightedFair::default()),
    );
    let weights = [1u32, 2, 4];
    let scenarios = ["w1", "w2", "w4"];
    for (scenario, &w) in scenarios.iter().zip(&weights) {
        server
            .register(ScenarioSpec::new("m", scenario).weight(w), sleepy(1))
            .unwrap();
    }
    // Deep backlog on every registration: all three queues stay due for
    // the whole measurement window, the regime where DRR's shares are
    // exact.
    let cq = server.async_client();
    const BACKLOG: usize = 800;
    for scenario in &scenarios {
        let ep = cq.endpoint("m", scenario).unwrap();
        for i in 0..BACKLOG {
            ep.submit(i as u64).unwrap();
        }
    }
    // Sample completion counts mid-flight, well before any queue can
    // empty (the weight-4 queue owns 4/7 of ~700 < 800).
    let deadline = Instant::now() + Duration::from_secs(30);
    let counts = loop {
        let counts: Vec<u64> = scenarios
            .iter()
            .map(|s| server.stats("m", s).unwrap().count)
            .collect();
        if counts.iter().sum::<u64>() >= 700 {
            break counts;
        }
        assert!(Instant::now() < deadline, "server made no progress");
        std::thread::sleep(Duration::from_millis(2));
    };
    let total: u64 = counts.iter().sum();
    for ((&count, &w), scenario) in counts.iter().zip(&weights).zip(&scenarios) {
        let share = count as f64 / total as f64;
        let expect = f64::from(w) / 7.0;
        let rel_err = (share - expect).abs() / expect;
        assert!(
            rel_err < 0.25,
            "{scenario}: share {share:.3} vs expected {expect:.3} \
             (rel err {rel_err:.3}, counts {counts:?})"
        );
    }
    // Shutdown (via drop) flushes the rest; nothing is stranded.
}

/// Under StrictPriority, a class-0 burst overtakes a deep class-5
/// backlog: the high-class requests complete while most of the low-class
/// queue is still waiting, and the bypasses show up in the low class's
/// starvation counter.
#[test]
fn strict_priority_high_class_overtakes_low_backlog() {
    let server: Server<u64, u64> = Server::with_policy(
        Pool::new(1),
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_millis(0),
        },
        Box::new(StrictPriority),
    );
    let low_done = Arc::new(AtomicUsize::new(0));
    {
        let low_done = Arc::clone(&low_done);
        server
            .register(ScenarioSpec::new("m", "low").priority(5), move |xs| {
                std::thread::sleep(Duration::from_millis(5));
                low_done.fetch_add(xs.len(), Ordering::Relaxed);
                xs.to_vec()
            })
            .unwrap();
    }
    server
        .register(
            ScenarioSpec::new("m", "high").priority(0),
            |xs: &[u64]| xs.to_vec(),
        )
        .unwrap();
    // 40 slow low-class requests: 200ms of single-worker backlog.
    let cq_low = server.async_client();
    let ep_low = cq_low.endpoint("m", "low").unwrap();
    for i in 0..40 {
        ep_low.submit(i).unwrap();
    }
    // Let the backlog start executing, then fire the high-class burst.
    std::thread::sleep(Duration::from_millis(12));
    let cq_high = server.async_client();
    for i in 0..5 {
        cq_high.submit("m", "high", i).unwrap();
    }
    for _ in 0..5 {
        let c = cq_high
            .wait(Duration::from_secs(10))
            .expect("high-class completion lost");
        assert!(c.result.is_ok());
    }
    // Only the batches already in flight (pacing keeps ~2 per worker)
    // plus a couple more can have slipped in ahead of the burst.
    let low_at_high_done = low_done.load(Ordering::Relaxed);
    assert!(
        low_at_high_done <= 10,
        "class 0 waited behind the class-5 queue: {low_at_high_done}/40 \
         low requests finished first"
    );
    // The low class watched dispatches go past it — visible starvation.
    assert!(
        server.stats("m", "low").unwrap().passed_over > 0,
        "bypassed low class must record passed_over"
    );
    assert_eq!(server.stats("m", "high").unwrap().passed_over, 0);
}

/// With a reserved worker ([`Pool::with_reserved`]), a class-0 request
/// completes while long low-class batches still occupy every ordinary
/// worker: the server routes class-0 batches onto the pool's high lane,
/// which only reserved workers and idle ordinary workers drain, and the
/// per-lane pacing gauges keep a saturated low lane from blocking the
/// dispatch. 60 ms low batches bound the no-reserve alternative from
/// below (~50 ms wait); the reserved lane must beat it comfortably.
#[test]
fn reserved_lane_bounds_high_class_latency_under_low_saturation() {
    let server: Server<u64, u64> = Server::with_policy(
        Pool::with_reserved(2, 1),
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_millis(0),
        },
        Box::new(StrictPriority),
    );
    server
        .register(ScenarioSpec::new("m", "low").priority(5), sleepy(60))
        .unwrap();
    server
        .register(
            ScenarioSpec::new("m", "high").priority(0),
            |xs: &[u64]| xs.to_vec(),
        )
        .unwrap();
    // Saturate the single ordinary worker with 6 × 60 ms batches.
    let cq = server.async_client();
    let ep_low = cq.endpoint("m", "low").unwrap();
    for i in 0..6 {
        ep_low.submit(i).unwrap();
    }
    // Once the backlog is executing, a class-0 request must ride the
    // reserved lane instead of waiting out a 60 ms batch.
    std::thread::sleep(Duration::from_millis(10));
    let t0 = Instant::now();
    assert_eq!(server.client().infer("m", "high", 7), Ok(7));
    let high_latency = t0.elapsed();
    assert!(
        high_latency < Duration::from_millis(40),
        "reserved lane failed to isolate class 0: {high_latency:?} \
         (a 60ms low batch was in flight)"
    );
    // Drain the low completions so shutdown strands nothing.
    for _ in 0..6 {
        assert!(cq.wait(Duration::from_secs(10)).is_some());
    }
}

/// Requests that outwait their deadline budget are shed with
/// `DeadlineExpired` at dispatch and never reach the inference function;
/// everything accepted gets exactly one completion either way.
#[test]
fn deadline_sheds_expired_requests_before_infer() {
    let server: Server<u64, u64> = Server::new(
        Pool::new(1),
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_millis(0),
        },
    );
    let executed = Arc::new(Mutex::new(Vec::<u64>::new()));
    {
        let executed = Arc::clone(&executed);
        server
            .register(
                ScenarioSpec::new("m", "s").deadline(Duration::from_millis(50)),
                move |xs: &[u64]| {
                    executed.lock().unwrap().extend_from_slice(xs);
                    std::thread::sleep(Duration::from_millis(20));
                    xs.to_vec()
                },
            )
            .unwrap();
    }
    // 10 requests against a 50 req/s single worker: the tail of the
    // queue ages past 50ms and must be shed, not served.
    let cq = server.async_client();
    for i in 0..10u64 {
        cq.submit("m", "s", i).unwrap();
    }
    let mut ok = Vec::new();
    let mut shed = 0u64;
    for _ in 0..10 {
        let c = cq
            .wait(Duration::from_secs(10))
            .expect("completion lost — deadline shed must still complete");
        match c.result {
            Ok(v) => ok.push(v),
            Err(ServeError::DeadlineExpired {
                model,
                scenario,
                budget,
            }) => {
                assert_eq!((model.as_str(), scenario.as_str()), ("m", "s"));
                assert_eq!(budget, Duration::from_millis(50));
                shed += 1;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(cq.poll().is_none(), "exactly one completion per submission");
    assert!(shed >= 1, "a 200ms backlog must overrun the 50ms budget");
    assert!(!ok.is_empty(), "the queue head must still be served");
    // The shed requests never reached the batch function.
    let mut ran = executed.lock().unwrap().clone();
    ran.sort_unstable();
    ok.sort_unstable();
    assert_eq!(ran, ok, "executed set must be exactly the Ok completions");
    let snap = server.stats("m", "s").unwrap();
    assert_eq!(snap.shed_deadline, shed, "deadline sheds counted as such");
    assert_eq!(snap.shed, 0, "no cap sheds in this scenario");
    assert_eq!(snap.count, ok.len() as u64);
}

/// Deregistration fails queued requests with the typed error, delivers
/// exactly one completion per accepted submission, refuses stale-handle
/// submissions, and releases the key for re-registration.
#[test]
fn deregister_drains_with_exactly_one_completion_each() {
    let server: Server<u64, u64> = Server::new(
        Pool::new(1),
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_millis(0),
        },
    );
    server
        .register(ScenarioSpec::new("m", "s"), sleepy(10))
        .unwrap();
    let cq = server.async_client();
    let ep = cq.endpoint("m", "s").unwrap();
    const N: usize = 12;
    for i in 0..N {
        ep.submit(i as u64).unwrap();
    }
    // Let a couple of batches get in flight, then rip the registration
    // out from under the rest.
    std::thread::sleep(Duration::from_millis(25));
    server.deregister("m", "s").unwrap();
    let mut served = 0usize;
    let mut failed = 0usize;
    for _ in 0..N {
        let c = cq
            .wait(Duration::from_secs(10))
            .expect("deregistration dropped a completion");
        match c.result {
            Ok(_) => served += 1,
            Err(ServeError::Deregistered { model, scenario }) => {
                assert_eq!((model.as_str(), scenario.as_str()), ("m", "s"));
                failed += 1;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(served + failed, N);
    assert!(served >= 1, "in-flight batches run to completion");
    assert!(failed >= 1, "queued requests fail with the typed error");
    assert!(cq.poll().is_none(), "exactly one completion each");
    assert_eq!(cq.in_flight(), 0);
    // A handle resolved before the deregistration is refused (typed), a
    // fresh lookup is UnknownModel, and the key is free again.
    assert!(matches!(
        ep.submit(99),
        Err(ServeError::Deregistered { .. })
    ));
    assert!(matches!(
        server.client().infer("m", "s", 99),
        Err(ServeError::UnknownModel { .. })
    ));
    server
        .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| {
            xs.iter().map(|x| x + 1).collect()
        })
        .unwrap();
    assert_eq!(server.client().infer("m", "s", 41), Ok(42));
}

/// A synchronous `infer` waiting in the queue when its registration is
/// removed gets exactly one typed `Deregistered` answer: the sync face
/// completes through the same queue path as tickets.
#[test]
fn deregister_fails_a_queued_sync_request_once() {
    let server: Server<u64, u64> = Server::new(
        Pool::new(1),
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_millis(0),
        },
    );
    // Batches block until the gate opens, so nothing completes while the
    // test arranges the queue.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let g = Arc::clone(&gate);
    server
        .register(ScenarioSpec::new("m", "s"), move |xs: &[u64]| {
            let (open, cv) = &*g;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            xs.to_vec()
        })
        .unwrap();
    // Two dispatched batches fill the one worker's pacing window (two
    // batches in flight per worker), so the next request stays queued.
    let cq = server.async_client();
    for i in 0..2 {
        cq.submit("m", "s", i).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let settle = |done: &dyn Fn() -> bool| {
        while !done() {
            assert!(Instant::now() < deadline, "server never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    settle(&|| server.batch_size_stats("m", "s").unwrap().count == 2);
    let client = server.client();
    let waiter = std::thread::spawn(move || client.infer("m", "s", 7));
    settle(&|| server.stats("m", "s").unwrap().submitted == 3);
    server.deregister("m", "s").unwrap();
    match waiter.join().unwrap() {
        Err(ServeError::Deregistered { model, scenario }) => {
            assert_eq!((model.as_str(), scenario.as_str()), ("m", "s"));
        }
        other => panic!("expected Deregistered, got {other:?}"),
    }
    // The dispatched batches still run to completion, once each.
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    for _ in 0..2 {
        let c = cq.wait(Duration::from_secs(10)).expect("completion lost");
        assert!(c.result.is_ok());
    }
    assert!(cq.poll().is_none());
}

/// The default policy is Fifo and specs with defaults reproduce the
/// legacy registration: plain request/response round-trips, batch caps,
/// and shed-free stats — the bit-identical-behavior guard for the API
/// redesign.
#[test]
fn default_spec_on_fifo_matches_legacy_behavior() {
    let server: Server<u64, u64> = Server::new(
        Pool::new(4),
        BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
        },
    );
    assert_eq!(server.sched_policy_name(), "fifo");
    server
        .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| {
            xs.iter().map(|x| x * 3).collect()
        })
        .unwrap();
    let spec = server.spec("m", "s").unwrap();
    assert_eq!(spec.priority_class(), 0);
    assert_eq!(spec.wfq_weight(), 1);
    assert_eq!(spec.deadline_budget(), None);
    assert_eq!(spec.admission_policy().queue_cap, usize::MAX);
    let mut joins = Vec::new();
    for i in 0..32u64 {
        let client = server.client();
        joins.push(std::thread::spawn(move || {
            client.infer("m", "s", i).unwrap()
        }));
    }
    let mut out: Vec<u64> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    out.sort_unstable();
    assert_eq!(out, (0..32).map(|x| x * 3).collect::<Vec<_>>());
    let snap = server.stats("m", "s").unwrap();
    assert_eq!(snap.count, 32);
    assert_eq!(snap.shed_total(), 0);
    let sizes = server.batch_size_stats("m", "s").unwrap();
    assert_eq!(sizes.sum, 32.0);
    assert!(sizes.max <= 4, "{sizes:?}");
}

//! Chaos suite: drives the serving stack through the `serve::faults`
//! injection harness and asserts the robustness guarantees hold under
//! induced failure — exactly one completion per submission, pool
//! survival across worker panics, honest stage accounting under added
//! latency, and predictive shedding + retry under induced slowness.
//!
//! Fault state is process-global, so every test takes the same mutex
//! and disarms injection on drop (even when an assertion fails, the
//! next test starts clean).

use serve::faults::{self, FaultPlan};
use serve::net::{NetClient, NetConfig, NetServer, Status};
use serve::overload::RetryPolicy;
use serve::pool::Pool;
use serve::server::{BatchPolicy, ScenarioSpec, ServeError, Server};
// The arm/disarm mutex + Drop-guard pattern lives in the library now
// (`serve::test_support`), shared with the faults unit tests and the
// wire-protocol suites instead of being re-rolled per suite.
use serve::test_support::arm_faults as arm;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A server that forms one batch per request (deterministic fault
/// cadences: batch k is infer hit k).
fn one_per_batch_server(pool: Pool) -> Server<u64, u64> {
    Server::new(
        pool,
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_millis(0),
        },
    )
}

/// Fires `n` concurrent sync requests and returns every result —
/// exactly one per submission, or the join itself would hang/fail.
fn fire(server: &Server<u64, u64>, n: u64) -> Vec<Result<u64, ServeError>> {
    let mut joins = Vec::new();
    for i in 0..n {
        let client = server.client();
        joins.push(std::thread::spawn(move || client.infer("m", "s", i)));
    }
    joins
        .into_iter()
        .map(|j| j.join().expect("client thread must not die"))
        .collect()
}

#[test]
fn injected_infer_panics_fail_only_their_batch_exactly_once() {
    let _armed = arm(FaultPlan {
        infer_panic_every: 2,
        ..FaultPlan::default()
    });
    let server = one_per_batch_server(Pool::new(2));
    server
        .register(ScenarioSpec::new("m", "s").max_batch(1), |xs: &[u64]| {
            xs.iter().map(|x| x * 10).collect()
        })
        .unwrap();
    // 12 requests → 12 single-request batches → infer hits 2,4,…,12
    // panic: exactly 6 failures, 6 responses, 12 completions total.
    let results = fire(&server, 12);
    assert_eq!(results.len(), 12, "exactly one completion per submission");
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let failed = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::InferenceFailed)))
        .count();
    assert_eq!((ok, failed), (6, 6), "every 2nd batch must panic");
    assert_eq!(faults::stats().infer_panics, 6);
    let snap = server.stats("m", "s").unwrap();
    assert_eq!(snap.count, 6, "only answered requests count as completed");
    // The server survives its panicking batches: nothing is stranded
    // (shutdown would hang on a leaked completion) and a fresh request
    // still works once injection stops.
    faults::set_enabled(false);
    assert_eq!(server.client().infer("m", "s", 7), Ok(70));
    server.shutdown();
}

#[test]
fn malformed_batches_surface_as_inference_failed() {
    let _armed = arm(FaultPlan {
        malform_every: 2,
        ..FaultPlan::default()
    });
    let server = one_per_batch_server(Pool::new(2));
    server
        .register(ScenarioSpec::new("m", "s").max_batch(1), |xs: &[u64]| {
            xs.to_vec()
        })
        .unwrap();
    // Sequential submissions: batch k is malform hit k, so results
    // alternate ok, truncated, ok, truncated …
    let client = server.client();
    let results: Vec<Result<u64, ServeError>> = (0..8).map(|i| client.infer("m", "s", i)).collect();
    for (i, r) in results.iter().enumerate() {
        if (i + 1) % 2 == 0 {
            assert_eq!(
                *r,
                Err(ServeError::InferenceFailed),
                "truncated batch {i} must fail its request"
            );
        } else {
            assert_eq!(*r, Ok(i as u64), "untouched batch {i} must answer");
        }
    }
    assert_eq!(faults::stats().malformed, 4);
    server.shutdown();
}

#[test]
fn pool_survives_worker_panics_without_losing_tasks() {
    let _armed = arm(FaultPlan {
        worker_panic_every: 1,
        ..FaultPlan::default()
    });
    let pool = Pool::new(2);
    // Every single task is followed by an injected worker panic; all 24
    // tasks must still execute and every worker must stay alive.
    let done = Arc::new(AtomicUsize::new(0));
    for _ in 0..24 {
        let done = Arc::clone(&done);
        pool.spawn(move || {
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while done.load(Ordering::SeqCst) < 24 {
        assert!(Instant::now() < deadline, "tasks lost to worker panics");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        faults::stats().worker_panics >= 24,
        "a panic must have fired after every task"
    );
    // Workers survived: the pool still runs a full par_map afterwards.
    faults::set_enabled(false);
    let items: Vec<u64> = (0..64).collect();
    let out = pool.par_map(&items, |&x| x + 1);
    assert_eq!(out, (1..=64).collect::<Vec<_>>());
}

#[test]
fn injected_latency_inflates_the_service_stage() {
    let _armed = arm(FaultPlan {
        infer_delay: Duration::from_millis(20),
        infer_delay_every: 1,
        ..FaultPlan::default()
    });
    let server = one_per_batch_server(Pool::new(2));
    server
        .register(ScenarioSpec::new("m", "s").max_batch(1), |xs: &[u64]| {
            xs.to_vec()
        })
        .unwrap();
    let client = server.client();
    for i in 0..4 {
        assert_eq!(client.infer("m", "s", i), Ok(i));
    }
    assert_eq!(faults::stats().infer_delays, 4);
    let snap = server.stats("m", "s").unwrap();
    // The sleep runs inside the dispatch closure's service window, so
    // the service histogram — the overload predictor's signal — sees it.
    assert!(
        snap.service.p50_s >= 0.015,
        "20ms injected delay must show in service p50, got {}s",
        snap.service.p50_s
    );
    server.shutdown();
}

#[test]
fn predictive_admission_sheds_under_induced_slowness_and_retry_recovers() {
    let _armed = arm(FaultPlan {
        infer_delay: Duration::from_millis(30),
        infer_delay_every: 1,
        ..FaultPlan::default()
    });
    let server = one_per_batch_server(Pool::new(1));
    server
        .register(
            ScenarioSpec::new("m", "s")
                .max_batch(1)
                .deadline(Duration::from_millis(10))
                .predictive(),
            |xs: &[u64]| xs.to_vec(),
        )
        .unwrap();
    // Warm the predictor: sequential requests submit against an empty
    // queue (outstanding = 0 → always admitted) while teaching the
    // service histogram that a batch costs ~30 ms.
    let client = server.client();
    for i in 0..6 {
        // The sync client is fulfilled just *before* the dispatch task
        // releases its outstanding slot; pause between warm-ups so every
        // submit truly sees an empty queue (otherwise a warm predictor
        // can shed the tail of the warm-up itself).
        assert_eq!(client.infer("m", "s", i), Ok(i), "warm-up must be admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Give the last warm-up slot a moment to drain — the burst below
    // must start from depth 0.
    std::thread::sleep(Duration::from_millis(10));
    // Burst without waiting: the first submission lands on an empty
    // queue, every following one sees outstanding ≥ 1 → forecast ≥
    // 30 ms against a 10 ms budget → shed at submit, typed and hinted.
    let cq = server.async_client();
    let mut accepted = 0u64;
    let mut shed = 0u64;
    for i in 0..10 {
        match cq.submit("m", "s", i) {
            Ok(_) => accepted += 1,
            Err(ServeError::PredictedOverload {
                predicted_wait,
                budget,
                retry_after,
                ..
            }) => {
                assert!(predicted_wait > budget, "forecast must exceed budget");
                assert!(retry_after > Duration::ZERO, "hint must be usable");
                shed += 1;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(accepted >= 1, "an empty queue must admit");
    assert!(
        shed >= 5,
        "a deep doomed burst must shed early, shed {shed}"
    );
    assert_eq!(server.stats("m", "s").unwrap().shed_predicted, shed);
    // The shed shows up per reason on the metrics face.
    let metrics = server.metrics_text();
    assert!(
        metrics.contains(&format!(
            "serve_shed_total{{model=\"m\",scenario=\"s\",reason=\"predicted\"}} {shed}"
        )),
        "metrics must expose the predicted-shed counter:\n{metrics}"
    );
    // A retrying client rides the backoff (floored by retry_after) until
    // the backlog drains, then gets a real answer.
    let out = RetryPolicy {
        max_attempts: 50,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(40),
    }
    .run(|| client.infer("m", "s", 99));
    assert_eq!(out, Ok(99), "retry policy must outlast the backlog");
    // Drain accepted completions so shutdown has nothing to strand.
    for _ in 0..accepted {
        cq.wait(Duration::from_secs(10)).expect("completion lost");
    }
    server.shutdown();
}

#[test]
fn chaos_over_the_wire_yields_exactly_one_response_per_frame() {
    // Injected infer panics (every 3rd batch) and delays (every 2nd)
    // while requests arrive over a loopback socket: the wire must keep
    // the core's exactly-one-completion guarantee — exactly one
    // response frame per accepted request frame — and failed batches
    // must surface as typed, wire-visible statuses.
    let _armed = arm(FaultPlan {
        infer_panic_every: 3,
        infer_delay: Duration::from_millis(2),
        infer_delay_every: 2,
        ..FaultPlan::default()
    });
    let server: Server<Vec<u8>, Vec<u8>> = Server::new(
        Pool::new(2),
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_millis(0),
        },
    );
    server
        .register(
            ScenarioSpec::new("m", "s").max_batch(1),
            |xs: &[Vec<u8>]| xs.to_vec(),
        )
        .unwrap();
    let net = NetServer::bind(
        &server,
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            reactors: 1,
            per_conn_inflight: 64,
        },
    )
    .expect("bind loopback");

    const TOTAL: usize = 30;
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    let payloads: Vec<Vec<u8>> = (0..TOTAL).map(|i| vec![i as u8; 8]).collect();
    let responses = client
        .call_pipelined("m", "s", &payloads, 8)
        .expect("pipelined run");

    // Exactly one response per frame, correlated back to its payload.
    assert_eq!(responses.len(), TOTAL, "one response per accepted frame");
    let ok = responses.iter().filter(|r| r.status == Status::Ok).count();
    let failed = responses
        .iter()
        .filter(|r| r.status == Status::InferenceFailed)
        .count();
    assert_eq!(ok + failed, TOTAL, "no third status under infer faults");
    for (i, r) in responses.iter().enumerate() {
        if r.status == Status::Ok {
            assert_eq!(r.payload, payloads[i], "echo must match its frame");
        } else {
            assert!(
                !r.payload.is_empty(),
                "error responses carry a message payload"
            );
        }
    }
    // With max_batch=1, batch k is infer hit k: every 3rd panics, so a
    // third of the wire traffic must come back InferenceFailed.
    assert_eq!(failed, TOTAL / 3, "every 3rd batch panic must be visible");
    assert!(faults::stats().infer_panics >= (TOTAL / 3) as u64);
    assert!(faults::stats().infer_delays > 0, "delays must have fired");

    // The accounting closes: every decoded frame was answered.
    let ns = net.stats();
    assert_eq!(ns.frames_in, TOTAL as u64);
    assert_eq!(ns.frames_out, TOTAL as u64);
    assert_eq!(ns.protocol_errors, 0);

    // Injection off, the same connection still serves cleanly.
    faults::set_enabled(false);
    let r = client
        .call("m", "s", b"after-chaos")
        .expect("post-chaos call");
    assert_eq!(
        (r.status, r.payload.as_slice()),
        (Status::Ok, &b"after-chaos"[..])
    );

    drop(client);
    net.shutdown();
    server.shutdown();
}

//! Poll/completion-queue async front-end for [`crate::server`].
//!
//! The synchronous [`Client`](crate::server::Client) burns one blocked OS
//! thread per outstanding request, so concurrency scales with threads —
//! the wrong axis for a server meant to hold thousands of requests in
//! flight. This module adds a second face onto the *same* per-`(model,
//! scenario)` queues, scheduler and statistics.
//!
//! [`AsyncClient::submit`] admits a request and returns a [`Ticket`]
//! **immediately** — nothing blocks. When the micro-batch containing the
//! request finishes, the dispatcher pushes `(ticket, result)` onto the
//! client's completion queue, which the submitting thread harvests with
//! [`AsyncClient::poll`] (non-blocking) or [`AsyncClient::wait`]
//! (blocking with timeout). One driver thread keeps an arbitrary window
//! of tickets in flight — the io_uring/NIC-completion-ring model:
//!
//! ```text
//! driver thread                 scheduler          pool workers
//!   submit ──► queue ──────────► micro-batch ─────► infer(batch)
//!   submit ──► queue …                                   │
//!   poll   ◄── completion queue ◄───────── fulfill ──────┘
//! ```
//!
//! The completion queue is the server's only completion path: a
//! synchronous [`Client::infer`](crate::server::Client::infer) is a
//! private one-slot queue — one submit, then an untimed wait.
//!
//! Backpressure is explicit: every registration's
//! [`AdmissionPolicy`](crate::server::AdmissionPolicy) caps its
//! outstanding requests, and a submission over the cap returns
//! [`ServeError::Rejected`] without
//! enqueuing anything (load shedding — counted in
//! [`StatsSnapshot::shed`](crate::stats::StatsSnapshot::shed)).
//!
//! Every accepted submission gets **exactly one completion** — also
//! through server shutdown, where queued requests are fulfilled with
//! `ShuttingDown` rather than dropped, so a driver loop counting
//! completions can never hang.

use crate::server::{Inner, Registration, ServeError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Opaque identity of one accepted asynchronous submission. Process-wide
/// unique; the matching [`Completion`] carries the same ticket, and the
/// same number is the request's trace correlation id — grep for it in
/// [`crate::trace`] snapshots or follow its flow arrow in an exported
/// Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The raw request id (diagnostics / map keys).
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// One finished request popped off a completion queue.
#[derive(Debug)]
pub struct Completion<O> {
    /// The ticket [`AsyncClient::submit`] returned for this request.
    pub ticket: Ticket,
    /// The response, or the error that terminated the request.
    pub result: Result<O, ServeError>,
}

/// The completion queue one [`AsyncClient`] owns: finished `(id, result)`
/// pairs plus the in-flight count. Every queued request carries its
/// submitter's queue, and the dispatcher fulfills it there.
pub(crate) struct CqShared<O> {
    done: Mutex<VecDeque<(u64, Result<O, ServeError>)>>,
    ready: Condvar,
    /// Accepted submissions whose completion has not yet been pushed.
    in_flight: AtomicUsize,
}

impl<O> CqShared<O> {
    fn new() -> Self {
        CqShared {
            done: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// Dispatcher-side delivery: push the completion and wake any waiter.
    pub(crate) fn fulfill(&self, id: u64, r: Result<O, ServeError>) {
        self.done.lock().expect("cq poisoned").push_back((id, r));
        self.in_flight.fetch_sub(1, Ordering::Relaxed); // ordering: relaxed observer gauge; waiters sync on the done mutex, not this counter
        self.ready.notify_all();
    }
}

/// Asynchronous request handle onto a [`Server`](crate::server::Server),
/// created by [`Server::async_client`](crate::server::Server::async_client).
///
/// Each clone shares one completion queue, so a driver thread and its
/// helpers see one stream of completions. For independent streams, take
/// separate `async_client()` handles.
///
/// # Examples
///
/// One thread holding a whole window of requests in flight:
///
/// ```
/// use serve::pool::Pool;
/// use serve::server::{BatchPolicy, ScenarioSpec, Server};
///
/// let server: Server<u64, u64> = Server::new(Pool::new(2), BatchPolicy::default());
/// server
///     .register(ScenarioSpec::new("echo", "x2"), |xs: &[u64]| {
///         xs.iter().map(|x| x * 2).collect()
///     })
///     .unwrap();
///
/// let cq = server.async_client();
/// // Submit 100 requests without blocking once…
/// let tickets: Vec<_> = (0..100u64)
///     .map(|i| cq.submit("echo", "x2", i).unwrap())
///     .collect();
/// // Every ticket is now in flight or already completed (the server
/// // started serving while we submitted).
/// // …harvest all 100 completions from the queue.
/// let mut done = 0;
/// while done < tickets.len() {
///     let c = cq.wait(std::time::Duration::from_secs(5)).expect("lost completion");
///     assert!(c.result.is_ok());
///     done += 1;
/// }
/// assert_eq!(cq.in_flight(), 0);
/// ```
pub struct AsyncClient<I: Send + 'static, O: Send + 'static> {
    inner: Arc<Inner<I, O>>,
    cq: Arc<CqShared<O>>,
}

impl<I: Send + 'static, O: Send + 'static> Clone for AsyncClient<I, O> {
    fn clone(&self) -> Self {
        AsyncClient {
            inner: Arc::clone(&self.inner),
            cq: Arc::clone(&self.cq),
        }
    }
}

impl<I: Send + 'static, O: Send + 'static> std::fmt::Debug for AsyncClient<I, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncClient")
            .field("in_flight", &self.in_flight())
            .field("completed_waiting", &self.completed_waiting())
            .finish()
    }
}

impl<I: Send + 'static, O: Send + 'static> AsyncClient<I, O> {
    pub(crate) fn new(inner: Arc<Inner<I, O>>) -> Self {
        AsyncClient {
            inner,
            cq: Arc::new(CqShared::new()),
        }
    }

    /// Submits one request without blocking; its completion will appear
    /// on this client's queue. Returns the [`Ticket`] identifying it.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered key,
    /// [`ServeError::Rejected`] when admission control sheds the request
    /// (backlog at cap — nothing was enqueued, no completion will
    /// arrive),
    /// and [`ServeError::ShuttingDown`] once shutdown began.
    pub fn submit(&self, model: &str, scenario: &str, input: I) -> Result<Ticket, ServeError> {
        let reg = self.inner.lookup(model, scenario)?;
        self.submit_reg(&reg, input)
    }

    /// Resolves `(model, scenario)` once, returning an [`Endpoint`] whose
    /// `submit` skips the per-call registry lookup (and its key-string
    /// allocations) — the handle a hot driver loop should hold.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered key.
    pub fn endpoint(&self, model: &str, scenario: &str) -> Result<Endpoint<I, O>, ServeError> {
        let reg = self.inner.lookup(model, scenario)?;
        Ok(Endpoint {
            client: self.clone(),
            reg,
        })
    }

    fn submit_reg(&self, reg: &Arc<Registration<I, O>>, input: I) -> Result<Ticket, ServeError> {
        // Count before enqueuing so a completion racing in from the pool
        // can never underflow the in-flight counter.
        // ordering: relaxed — the underflow guard is program order (count before enqueue);
        // the gauge itself is observational (single_thread_drives_a_large_inflight_window
        // and shutdown_fails_inflight_tickets_instead_of_hanging pin its bookkeeping).
        self.cq.in_flight.fetch_add(1, Ordering::Relaxed);
        match self.inner.submit_to(reg, input, &self.cq) {
            Ok(id) => Ok(Ticket(id)),
            Err(e) => {
                self.cq.in_flight.fetch_sub(1, Ordering::Relaxed); // ordering: relaxed; same observer gauge
                Err(e)
            }
        }
    }

    /// Pops one completion if any is ready (non-blocking).
    pub fn poll(&self) -> Option<Completion<O>> {
        self.pop(&mut self.cq.done.lock().expect("cq poisoned"))
    }

    /// Blocks up to `timeout` for a completion. `None` on timeout —
    /// which, with in-flight tickets, means they are still being served.
    /// A `timeout` too large to add to the clock (such as
    /// [`Duration::MAX`]) waits without one.
    pub fn wait(&self, timeout: Duration) -> Option<Completion<O>> {
        self.wait_until(Instant::now().checked_add(timeout))
    }

    /// Blocks until a completion arrives or `deadline` passes (`None`:
    /// no deadline, so the result is always `Some`).
    pub(crate) fn wait_until(&self, deadline: Option<Instant>) -> Option<Completion<O>> {
        let mut done = self.cq.done.lock().expect("cq poisoned");
        loop {
            if let Some(c) = self.pop(&mut done) {
                return Some(c);
            }
            done = match deadline {
                None => self.cq.ready.wait(done).expect("cq poisoned"),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.cq
                        .ready
                        .wait_timeout(done, left)
                        .expect("cq poisoned")
                        .0
                }
            };
        }
    }

    fn pop(&self, done: &mut VecDeque<(u64, Result<O, ServeError>)>) -> Option<Completion<O>> {
        done.pop_front().map(|(id, result)| Completion {
            ticket: Ticket(id),
            result,
        })
    }

    /// Accepted submissions whose completion has not yet been delivered
    /// to the queue (being batched or executing).
    pub fn in_flight(&self) -> usize {
        self.cq.in_flight.load(Ordering::Relaxed) // ordering: relaxed observer read; momentary staleness is inherent to a gauge
    }

    /// Completions delivered but not yet popped by [`AsyncClient::poll`] /
    /// [`AsyncClient::wait`].
    pub fn completed_waiting(&self) -> usize {
        self.cq.done.lock().expect("cq poisoned").len()
    }
}

/// A pre-resolved `(model, scenario)` submission handle from
/// [`AsyncClient::endpoint`]: completions land on the originating
/// client's queue, but submission skips the registry lookup.
pub struct Endpoint<I: Send + 'static, O: Send + 'static> {
    client: AsyncClient<I, O>,
    reg: Arc<Registration<I, O>>,
}

impl<I: Send + 'static, O: Send + 'static> Clone for Endpoint<I, O> {
    fn clone(&self) -> Self {
        Endpoint {
            client: self.client.clone(),
            reg: Arc::clone(&self.reg),
        }
    }
}

impl<I: Send + 'static, O: Send + 'static> Endpoint<I, O> {
    /// Submits one request to this endpoint (see [`AsyncClient::submit`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] on shed, [`ServeError::ShuttingDown`]
    /// once shutdown began.
    pub fn submit(&self, input: I) -> Result<Ticket, ServeError> {
        self.client.submit_reg(&self.reg, input)
    }

    /// The owning [`AsyncClient`] (for polling completions).
    pub fn client(&self) -> &AsyncClient<I, O> {
        &self.client
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;
    use crate::server::{BatchPolicy, ScenarioSpec, Server};
    use std::collections::HashSet;

    fn test_server(max_batch: usize, max_wait_ms: u64) -> Server<u64, u64> {
        Server::new(
            Pool::new(4),
            BatchPolicy {
                max_batch,
                max_wait: Duration::from_millis(max_wait_ms),
            },
        )
    }

    #[test]
    fn single_thread_drives_a_large_inflight_window() {
        let server = test_server(64, 1);
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| {
                xs.iter().map(|x| x * 3).collect()
            })
            .unwrap();
        let cq = server.async_client();
        const N: u64 = 1500;
        // One thread, zero blocking: the whole window goes in flight
        // before the first completion is harvested.
        let mut expected: Vec<Option<u64>> = Vec::new();
        let mut index_of = std::collections::HashMap::new();
        for i in 0..N {
            let t = cq.submit("m", "s", i).unwrap();
            index_of.insert(t, expected.len());
            expected.push(Some(i * 3));
        }
        let mut seen = 0u64;
        while seen < N {
            let c = cq.wait(Duration::from_secs(10)).expect("completion lost");
            let idx = index_of.remove(&c.ticket).expect("unknown ticket");
            assert_eq!(c.result, Ok(expected[idx].take().expect("duplicate")));
            seen += 1;
        }
        assert_eq!(cq.in_flight(), 0);
        assert!(cq.poll().is_none(), "exactly one completion per ticket");
    }

    #[test]
    fn endpoint_submission_matches_named_submission() {
        let server = test_server(8, 1);
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| {
                xs.iter().map(|x| x + 7).collect()
            })
            .unwrap();
        let cq = server.async_client();
        let ep = cq.endpoint("m", "s").unwrap();
        assert!(matches!(
            cq.endpoint("m", "nope"),
            Err(ServeError::UnknownModel { .. })
        ));
        let mut tickets = HashSet::new();
        for i in 0..32 {
            assert!(tickets.insert(ep.submit(i).unwrap()), "tickets unique");
        }
        let mut got: Vec<u64> = (0..32)
            .map(|_| {
                ep.client()
                    .wait(Duration::from_secs(5))
                    .expect("completion lost")
                    .result
                    .unwrap()
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (7..39).collect::<Vec<_>>());
    }

    #[test]
    fn queue_cap_sheds_with_typed_error_and_counts() {
        // max_batch 1 and a slow infer fn: the queue backs up instantly.
        let server = Server::new(
            Pool::new(1),
            BatchPolicy {
                max_batch: 1,
                max_wait: Duration::from_millis(0),
            },
        );
        const CAP: usize = 8;
        server
            .register(
                ScenarioSpec::new("m", "s").queue_cap(CAP),
                |xs: &[u64]| {
                    std::thread::sleep(Duration::from_millis(3));
                    xs.to_vec()
                },
            )
            .unwrap();
        let cq = server.async_client();
        let mut accepted = 0usize;
        let mut shed = 0usize;
        for i in 0..200u64 {
            match cq.submit("m", "s", i) {
                Ok(_) => accepted += 1,
                Err(ServeError::Rejected {
                    model,
                    scenario,
                    cap,
                }) => {
                    assert_eq!((model.as_str(), scenario.as_str()), ("m", "s"));
                    assert_eq!(cap, CAP);
                    shed += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(shed > 0, "a tight submit loop must overrun cap {CAP}");
        // Every accepted ticket still completes (no deadlock, no loss).
        for _ in 0..accepted {
            let c = cq.wait(Duration::from_secs(10)).expect("completion lost");
            assert!(c.result.is_ok());
        }
        let snap = server.stats("m", "s").unwrap();
        assert_eq!(snap.shed, shed as u64);
        assert_eq!(snap.submitted, accepted as u64);
        assert!(
            snap.max_queue_depth <= CAP,
            "cap bounds the queue: {}",
            snap.max_queue_depth
        );
    }

    #[test]
    fn sync_client_sheds_too() {
        let server = Server::new(
            Pool::new(1),
            BatchPolicy {
                max_batch: 1,
                max_wait: Duration::from_millis(0),
            },
        );
        server
            .register(ScenarioSpec::new("m", "s").queue_cap(1), |xs: &[u64]| {
                std::thread::sleep(Duration::from_millis(20));
                xs.to_vec()
            })
            .unwrap();
        // Fill the queue from the async face, then hit the cap from the
        // sync face: admission control is shared.
        let cq = server.async_client();
        while cq.submit("m", "s", 1).is_ok() {}
        assert!(matches!(
            server.client().infer("m", "s", 2),
            Err(ServeError::Rejected { .. })
        ));
    }

    #[test]
    fn shutdown_fails_inflight_tickets_instead_of_hanging() {
        let server = test_server(1024, 10_000);
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| xs.to_vec())
            .unwrap();
        let cq = server.async_client();
        // Parked far from both batch triggers; only shutdown's flush can
        // complete them.
        let mut accepted = 0;
        for i in 0..64 {
            if cq.submit("m", "s", i).is_ok() {
                accepted += 1;
            }
        }
        server.shutdown();
        let mut done = 0;
        while done < accepted {
            let c = cq
                .wait(Duration::from_secs(5))
                .expect("shutdown must deliver every completion");
            // The scheduler's final sweep dispatches what it can; anything
            // left is failed with ShuttingDown — but nothing is dropped.
            assert!(matches!(c.result, Ok(_) | Err(ServeError::ShuttingDown)));
            done += 1;
        }
        assert_eq!(cq.in_flight(), 0);
        assert!(matches!(
            cq.submit("m", "s", 1),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn wait_times_out_when_nothing_is_inflight() {
        let server = test_server(4, 1);
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| xs.to_vec())
            .unwrap();
        let cq = server.async_client();
        let t0 = Instant::now();
        assert!(cq.wait(Duration::from_millis(30)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert!(cq.poll().is_none());
    }

    #[test]
    fn wait_without_a_representable_deadline_still_completes() {
        // The batch blocks until the gate opens, so the ticket is still in
        // flight when the wait starts; a `now + Duration::MAX` deadline
        // would overflow the clock.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let server = test_server(1, 0);
        server
            .register(ScenarioSpec::new("m", "s"), move |xs: &[u64]| {
                let (open, cv) = &*g;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                xs.iter().map(|x| x + 1).collect()
            })
            .unwrap();
        let cq = server.async_client();
        let t = cq.submit("m", "s", 41).unwrap();
        assert_eq!(cq.in_flight(), 1);
        let opener = std::thread::spawn(move || {
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
        });
        let c = cq.wait(Duration::MAX).expect("untimed wait returns");
        opener.join().unwrap();
        assert_eq!((c.ticket, c.result), (t, Ok(42)));
        assert_eq!(cq.in_flight(), 0);
    }
}

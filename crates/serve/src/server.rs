//! A multi-model micro-batching inference server.
//!
//! Registrations are keyed by `(model, scenario)` — a scenario being one
//! quantization configuration of a model (e.g. `"lp8"`, `"lp4"`). Each
//! registration is described by a [`ScenarioSpec`] (admission policy,
//! priority class, weighted-fair weight, deadline budget, batch-policy
//! override) and supplies a **batch inference function** `&[I] -> Vec<O>`
//! through the single entry point [`Server::register`]; the server owns
//! the queues, the batching and scheduling policies and the statistics,
//! and stays fully generic over the tensor types so the runtime layer
//! carries no model dependencies (`dnn::serving` provides the glue that
//! registers quantized DNN models with shared weight caches).
//!
//! ## Batching and scheduling
//!
//! Requests accumulate in a per-registration queue. A queue is **due**
//! as soon as **either** `max_batch` requests are waiting **or** the
//! oldest request has waited `max_wait` (per-registration overrides via
//! [`ScenarioSpec::batch`], otherwise the server default). The scheduler
//! thread consults a pluggable [`SchedPolicy`]
//! to pick *which* due registration to drain next — [`Fifo`] (the
//! default, scan order), [`StrictPriority`](crate::sched::StrictPriority)
//! (classes, most-urgent first) or
//! [`WeightedFair`](crate::sched::WeightedFair) (deficit round robin) —
//! and dispatches the drained micro-batch onto the work-stealing
//! [`Pool`]. Dispatch is *paced*: the scheduler keeps at most a couple of
//! batches per pool worker in flight, so backlog waits in the
//! registration queues where the policy can still reorder it (and where
//! deadline budgets can shed it), not in the pool's FIFO run queue where
//! it could not.
//!
//! ## Clients
//!
//! [`Client::infer`] is synchronous: it enqueues the request and blocks the
//! *calling* thread until its response is ready. Call it from request
//! threads, not from inside pool tasks. For thousands of in-flight
//! requests from one thread, use the asynchronous front-end instead
//! ([`Server::async_client`] → [`crate::async_front`]): both faces share
//! the queues, the scheduling policy, the statistics and the completion
//! path — a synchronous call is a private one-slot completion queue that
//! its caller waits on.
//!
//! ## Admission control and deadlines
//!
//! Every registration carries an [`AdmissionPolicy`]. When its `queue_cap`
//! of **outstanding** (accepted, unfulfilled) requests is reached, further
//! submissions are refused with [`ServeError::Rejected`] instead of
//! growing the backlog without bound. A [`ScenarioSpec::deadline`] budget
//! additionally sheds *accepted* requests at dispatch when they have
//! already waited longer than the budget — [`ServeError::DeadlineExpired`]
//! — so a stale request never wastes a batch slot. Registrations that
//! opt in via [`ScenarioSpec::predictive`] go one step further: at
//! submit, the live service histograms forecast the queue wait a new
//! request would see, and a request whose forecast already exceeds the
//! budget is refused immediately with
//! [`ServeError::PredictedOverload`] — carrying a `retry_after` hint —
//! instead of aging in the queue only to expire at dispatch (the
//! predictor math lives in [`crate::overload`]). The shed reasons are
//! counted separately in [`StatsSnapshot`].

use crate::async_front::{AsyncClient, CqShared};
use crate::pool::Pool;
use crate::sched::{DueEntry, Fifo, SchedPolicy};
use crate::stats::{BatchSizeStats, StageHistograms, StatsCollector, StatsSnapshot};
use crate::trace::{self, ShedReason, TraceEvent};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Micro-batch formation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Dispatch as soon as this many requests are queued.
    pub max_batch: usize,
    /// Dispatch a partial batch once its oldest request has waited this
    /// long.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// Batches each registration may have in flight per pool worker before
/// the scheduler stops dispatching and lets backlog queue: enough to
/// double-buffer every worker (no idle gap between batches) without
/// flushing whole queues into the pool's FIFO run queue, where the
/// scheduling policy could no longer reorder them and deadline budgets
/// could no longer shed them.
const INFLIGHT_BATCHES_PER_WORKER: usize = 2;

/// Serving errors surfaced to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No registration under this `(model, scenario)` key.
    UnknownModel {
        /// Requested model name.
        model: String,
        /// Requested scenario name.
        scenario: String,
    },
    /// A registration under this key already exists.
    DuplicateRegistration {
        /// Registered model name.
        model: String,
        /// Registered scenario name.
        scenario: String,
    },
    /// The submission was refused at admission: the registration already
    /// held `cap` outstanding requests ([`AdmissionPolicy`]). This is
    /// *load shedding* — retry later or slow down; the request was never
    /// enqueued and consumed no server resources.
    Rejected {
        /// Model name of the overloaded registration.
        model: String,
        /// Scenario name of the overloaded registration.
        scenario: String,
        /// The queue cap that was reached.
        cap: usize,
    },
    /// The request was accepted but waited in the queue longer than the
    /// registration's [`ScenarioSpec::deadline`] budget; the scheduler
    /// shed it at dispatch rather than spend a batch slot on a response
    /// nobody is still waiting for. Counted in
    /// [`StatsSnapshot::shed_deadline`], separately from cap-shedding.
    DeadlineExpired {
        /// Model name of the registration.
        model: String,
        /// Scenario name of the registration.
        scenario: String,
        /// The deadline budget that expired.
        budget: Duration,
    },
    /// The submission was refused at submit by predictive admission
    /// ([`ScenarioSpec::predictive`]): the forecast queue wait for the
    /// current backlog already exceeds the registration's deadline
    /// budget, so accepting the request would only let it age into a
    /// [`ServeError::DeadlineExpired`] at dispatch. `retry_after`
    /// estimates how long the backlog needs to drain before a new
    /// submission can fit the budget — [`crate::overload::RetryPolicy`]
    /// honors it as a floor on its backoff. Counted in
    /// [`StatsSnapshot::shed_predicted`].
    PredictedOverload {
        /// Model name of the overloaded registration.
        model: String,
        /// Scenario name of the overloaded registration.
        scenario: String,
        /// Forecast queue wait for a request admitted now.
        predicted_wait: Duration,
        /// The deadline budget the forecast exceeds.
        budget: Duration,
        /// Suggested wait before retrying.
        retry_after: Duration,
    },
    /// The registration was removed ([`Server::deregister`]) while this
    /// request was queued, or the submission raced a deregistration.
    Deregistered {
        /// Model name of the removed registration.
        model: String,
        /// Scenario name of the removed registration.
        scenario: String,
    },
    /// The batch function panicked or returned a malformed batch.
    InferenceFailed,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel { model, scenario } => {
                write!(f, "no registration for ({model}, {scenario})")
            }
            ServeError::DuplicateRegistration { model, scenario } => {
                write!(f, "({model}, {scenario}) is already registered")
            }
            ServeError::Rejected {
                model,
                scenario,
                cap,
            } => {
                write!(
                    f,
                    "({model}, {scenario}) shed the request: backlog at cap {cap}"
                )
            }
            ServeError::DeadlineExpired {
                model,
                scenario,
                budget,
            } => {
                write!(
                    f,
                    "({model}, {scenario}) shed the request: deadline budget {budget:?} expired \
                     before dispatch"
                )
            }
            ServeError::PredictedOverload {
                model,
                scenario,
                predicted_wait,
                budget,
                retry_after,
            } => {
                write!(
                    f,
                    "({model}, {scenario}) shed the request: predicted queue wait \
                     {predicted_wait:?} exceeds deadline budget {budget:?}; retry after \
                     {retry_after:?}"
                )
            }
            ServeError::Deregistered { model, scenario } => {
                write!(f, "({model}, {scenario}) was deregistered")
            }
            ServeError::InferenceFailed => write!(f, "batch inference failed"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Admission control for one registration.
///
/// `queue_cap` bounds the registration's **outstanding** requests:
/// accepted but not yet fulfilled, whether still queued or already
/// dispatched to the pool. A submission that would exceed the cap is
/// refused with [`ServeError::Rejected`] and counted in
/// [`StatsSnapshot::shed`](crate::stats::StatsSnapshot::shed).
///
/// Counting outstanding (not merely queued) requests is what makes the
/// bound real: an accepted request has at most `queue_cap - 1` requests
/// of its registration ahead of it anywhere in the system, so its wait
/// is bounded by `ceil(queue_cap / max_batch)` batch executions (plus
/// pool contention from *other* registrations) no matter how far the
/// offered load exceeds capacity — overload moves the excess into shed
/// counts, not into p99 (`load_shedding` in `BENCH_serve.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum outstanding (accepted, unfulfilled) requests the
    /// registration may hold. `usize::MAX` (the default) means
    /// unbounded — never shed.
    pub queue_cap: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            queue_cap: usize::MAX,
        }
    }
}

impl AdmissionPolicy {
    /// An admission policy shedding load beyond `queue_cap` outstanding
    /// requests.
    pub fn capped(queue_cap: usize) -> Self {
        assert!(queue_cap >= 1, "queue_cap must be at least 1");
        AdmissionPolicy { queue_cap }
    }
}

/// Builder-style description of one `(model, scenario)` registration —
/// the single control-plane surface for every serving knob: admission
/// cap, priority class, weighted-fair weight, deadline budget and
/// batch-policy override. Pass it to [`Server::register`].
///
/// Every knob defaults to the pre-spec behavior (unbounded queue, one
/// priority class, weight 1, no deadline, server-wide batch policy), so
/// `ScenarioSpec::new(model, scenario)` is exactly the old plain
/// registration.
///
/// # Examples
///
/// ```
/// use serve::server::ScenarioSpec;
/// use std::time::Duration;
///
/// let spec = ScenarioSpec::new("resnet18", "lp4")
///     .queue_cap(256)                         // shed beyond 256 outstanding
///     .priority(1)                            // class 1 (0 is most urgent)
///     .weight(4)                              // 4x share under WeightedFair
///     .deadline(Duration::from_millis(50))    // shed if queued > 50ms
///     .max_batch(16);                         // per-scenario batch override
/// assert_eq!(spec.model(), "resnet18");
/// assert_eq!(spec.scenario(), "lp4");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    model: String,
    scenario: String,
    admission: AdmissionPolicy,
    priority: u8,
    weight: u32,
    deadline: Option<Duration>,
    /// Each batch knob overrides independently: an unset half falls back
    /// to the server-wide policy at registration, so `.max_batch(n)`
    /// alone cannot silently change the effective `max_wait`.
    batch_max: Option<usize>,
    batch_wait: Option<Duration>,
    predictive: bool,
}

impl ScenarioSpec {
    /// A spec with every knob at its default (unbounded queue, priority
    /// class 0, weight 1, no deadline, server-wide batch policy,
    /// predictive admission off).
    pub fn new(model: &str, scenario: &str) -> Self {
        ScenarioSpec {
            model: model.to_string(),
            scenario: scenario.to_string(),
            admission: AdmissionPolicy::default(),
            priority: 0,
            weight: 1,
            deadline: None,
            batch_max: None,
            batch_wait: None,
            predictive: false,
        }
    }

    /// Replaces the model name (used by glue layers that derive the name
    /// from the model object rather than the caller).
    pub fn with_model(mut self, model: &str) -> Self {
        self.model = model.to_string();
        self
    }

    /// Sets the full admission policy.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Shorthand for [`ScenarioSpec::admission`] with
    /// [`AdmissionPolicy::capped`]: shed submissions beyond `cap`
    /// outstanding requests.
    pub fn queue_cap(self, cap: usize) -> Self {
        self.admission(AdmissionPolicy::capped(cap))
    }

    /// Sets the strict-priority class. **Smaller is more urgent**: under
    /// [`StrictPriority`](crate::sched::StrictPriority), class 0 is
    /// always dispatched before class 1. Ignored by [`Fifo`] and
    /// [`WeightedFair`](crate::sched::WeightedFair).
    pub fn priority(mut self, class: u8) -> Self {
        self.priority = class;
        self
    }

    /// Sets the weighted-fair share weight (≥ 1). Under
    /// [`WeightedFair`](crate::sched::WeightedFair), saturated
    /// registrations receive throughput proportional to their weights.
    /// Ignored by [`Fifo`] and
    /// [`StrictPriority`](crate::sched::StrictPriority).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is 0.
    pub fn weight(mut self, weight: u32) -> Self {
        assert!(weight >= 1, "weight must be at least 1");
        self.weight = weight;
        self
    }

    /// Sets the deadline budget: an accepted request that has already
    /// waited longer than `budget` when the scheduler drains it is shed
    /// with [`ServeError::DeadlineExpired`] instead of dispatched.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Enables predictive admission: at submit, the registration's live
    /// service histograms forecast the queue wait a new request would
    /// see, and a request whose forecast already exceeds the deadline
    /// budget is refused immediately with
    /// [`ServeError::PredictedOverload`] instead of aging in the queue
    /// until the budget expires at dispatch. No effect unless a
    /// [`ScenarioSpec::deadline`] is also set; silent until the
    /// registration has served a few batches (see [`crate::overload`]
    /// for the predictor math and the `SERVE_PREDICT_SAFETY` knob).
    pub fn predictive(mut self) -> Self {
        self.predictive = true;
        self
    }

    /// Overrides both halves of the server-wide [`BatchPolicy`] for this
    /// registration.
    pub fn batch(self, policy: BatchPolicy) -> Self {
        self.max_batch(policy.max_batch).max_wait(policy.max_wait)
    }

    /// Overrides only `max_batch`; the server's `max_wait` still applies
    /// (resolved at registration).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is 0.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        self.batch_max = Some(max_batch);
        self
    }

    /// Overrides only `max_wait`; the server's `max_batch` still applies
    /// (resolved at registration).
    pub fn max_wait(mut self, max_wait: Duration) -> Self {
        self.batch_wait = Some(max_wait);
        self
    }

    /// The model name.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The scenario name.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// The admission policy.
    pub fn admission_policy(&self) -> AdmissionPolicy {
        self.admission
    }

    /// The strict-priority class (smaller = more urgent).
    pub fn priority_class(&self) -> u8 {
        self.priority
    }

    /// The weighted-fair weight.
    pub fn wfq_weight(&self) -> u32 {
        self.weight
    }

    /// The deadline budget, if any.
    pub fn deadline_budget(&self) -> Option<Duration> {
        self.deadline
    }

    /// The `max_batch` override, if any.
    pub fn max_batch_override(&self) -> Option<usize> {
        self.batch_max
    }

    /// The `max_wait` override, if any.
    pub fn max_wait_override(&self) -> Option<Duration> {
        self.batch_wait
    }

    /// Whether predictive admission is enabled.
    pub fn predictive_admission(&self) -> bool {
        self.predictive
    }
}

/// A drained run of queued requests (an expired prefix or a micro-batch).
type Drained<I, O> = Vec<Pending<I, O>>;

/// A queued request.
struct Pending<I, O> {
    /// Process-unique request id (the ticket number on the async path).
    id: u64,
    input: I,
    enqueued: Instant,
    /// The submitter's completion queue.
    cq: Arc<CqShared<O>>,
}

/// Process-wide request id source (ids are unique across servers, so a
/// ticket can never be confused between completion queues — and the same
/// id correlates a request's trace events end to end).
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(0);

/// Process-wide registration id source. Seqs stay ascending per server
/// (all any scheduling policy needs) while being unique across servers,
/// so trace queue tracks keyed by seq can never collide.
static NEXT_REG_SEQ: AtomicU64 = AtomicU64::new(0);

/// The batch inference function type for one registration.
pub type InferFn<I, O> = Arc<dyn Fn(&[I]) -> Vec<O> + Send + Sync>;

pub(crate) struct Registration<I, O> {
    /// The `(model, scenario)` key, kept for error construction.
    key: (String, String),
    /// Stable per-server registration id (ascending registration order);
    /// the identity scheduling policies key their state on.
    seq: u64,
    infer: InferFn<I, O>,
    admission: AdmissionPolicy,
    /// Strict-priority class (smaller = more urgent).
    priority: u8,
    /// Weighted-fair weight (≥ 1).
    weight: u32,
    /// Deadline budget: queued requests older than this are shed at
    /// dispatch with [`ServeError::DeadlineExpired`].
    deadline: Option<Duration>,
    /// Predictive admission: shed at submit when the forecast queue wait
    /// already exceeds the deadline budget ([`crate::overload`]).
    predictive: bool,
    /// Effective batch policy (spec override or the server default,
    /// resolved once at registration).
    batch: BatchPolicy,
    /// Set by [`Server::deregister`]: refuses new submissions and hides
    /// the queue from the scheduler while the deregistration drain runs.
    closed: AtomicBool,
    /// Accepted requests not yet fulfilled — queued **or** dispatched.
    /// Admission gates on this (not on queue length) so the cap bounds
    /// the whole per-registration backlog; incremented only via a
    /// guarded `fetch_update` in [`Inner::submit_to`], decremented once
    /// per fulfilled/withdrawn request.
    outstanding: AtomicUsize,
    queue: Mutex<Vec<Pending<I, O>>>,
    stats: StatsCollector,
}

impl<I, O> Registration<I, O> {
    /// Reconstructs the registration's spec (diagnostics surface).
    fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            model: self.key.0.clone(),
            scenario: self.key.1.clone(),
            admission: self.admission,
            priority: self.priority,
            weight: self.weight,
            deadline: self.deadline,
            batch_max: Some(self.batch.max_batch),
            batch_wait: Some(self.batch.max_wait),
            predictive: self.predictive,
        }
    }

    /// Whether the queue holds a due batch, and its scheduling facts if
    /// so. `force` (shutdown drain) makes any non-empty queue due.
    fn due_entry(&self, force: bool) -> Option<DueEntry> {
        // ordering: Acquire; pairs with deregister's Release close
        if self.closed.load(Ordering::Acquire) {
            return None;
        }
        let q = self.queue.lock().expect("queue poisoned");
        let len = q.len();
        let due = len >= self.batch.max_batch
            || (len > 0 && (force || q[0].enqueued.elapsed() >= self.batch.max_wait));
        due.then(|| DueEntry {
            id: self.seq,
            priority: self.priority,
            weight: self.weight,
            queued: len,
            next_batch: len.min(self.batch.max_batch),
        })
    }
}

/// Registration table keyed by `(model, scenario)`.
type Registry<I, O> = HashMap<(String, String), Arc<Registration<I, O>>>;

/// Scheduler signaling shared between submitters, the scheduler thread
/// and dispatched batch tasks. Kept in its own `Arc`, **separate from
/// [`Inner`]**, so a batch task running on a pool worker never holds the
/// pool handle itself: if it did, a worker could drop the last `Pool`
/// handle and try to join its own thread during pool teardown.
struct SchedSignal {
    /// Ordinary-lane batches dispatched to the pool and not yet
    /// completed (the pacing gauge).
    inflight: AtomicUsize,
    /// High-lane batches in flight, paced separately when the pool has
    /// reserved workers: the ordinary lane filling its target must not
    /// stop class-0 dispatches the reserved lane could run right now.
    inflight_high: AtomicUsize,
    /// Scheduler wakeup channel. The bool is a dirty flag: set by
    /// [`SchedSignal::wake`], consumed by the scheduler before it
    /// waits — so a wakeup fired between the scheduler's queue scan and
    /// its wait is never lost (it would otherwise nap up to its idle
    /// timeout with a request already queued).
    tick: Mutex<bool>,
    tick_cv: Condvar,
}

impl SchedSignal {
    fn wake(&self) {
        *self.tick.lock().expect("tick poisoned") = true;
        self.tick_cv.notify_all();
    }
}

pub(crate) struct Inner<I, O> {
    pool: Pool,
    policy: BatchPolicy,
    /// Name of the scheduling policy (the policy itself lives on the
    /// scheduler thread).
    sched_name: &'static str,
    registry: RwLock<Registry<I, O>>,
    shutdown: AtomicBool,
    signal: Arc<SchedSignal>,
}

impl<I: Send + 'static, O: Send + 'static> Inner<I, O> {
    fn wake_scheduler(&self) {
        self.signal.wake();
    }

    /// Resolves `(model, scenario)` to its registration.
    pub(crate) fn lookup(
        &self,
        model: &str,
        scenario: &str,
    ) -> Result<Arc<Registration<I, O>>, ServeError> {
        let key = (model.to_string(), scenario.to_string());
        self.registry
            .read()
            .expect("registry poisoned")
            .get(&key)
            .map(Arc::clone)
            .ok_or_else(|| ServeError::UnknownModel {
                model: model.to_string(),
                scenario: scenario.to_string(),
            })
    }

    /// Admits one request into `reg`'s queue — the single submission path
    /// both front-ends share. Applies admission control (sheds with
    /// [`ServeError::Rejected`] at the queue cap), wakes the scheduler,
    /// and closes the shutdown/deregistration races; returns the request
    /// id that will be fulfilled on `cq`.
    pub(crate) fn submit_to(
        &self,
        reg: &Arc<Registration<I, O>>,
        input: I,
        cq: &Arc<CqShared<O>>,
    ) -> Result<u64, ServeError> {
        // ordering: Acquire; pairs with shutdown()'s Release store
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        // ordering: Acquire; pairs with deregister's Release close
        if reg.closed.load(Ordering::Acquire) {
            return Err(ServeError::Deregistered {
                model: reg.key.0.clone(),
                scenario: reg.key.1.clone(),
            });
        }
        // Admission gate: claim an outstanding slot if one is free. The
        // guarded increment makes the cap exact under concurrent
        // submitters, and counting *outstanding* (not queued) requests
        // means the scheduler draining the queue into the pool cannot
        // defeat the cap — slots free up only when requests finish.
        let cap = reg.admission.queue_cap;
        // The id is allocated before the admission gate so even a shed
        // submission has a correlation id on the trace timeline.
        let id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed); // ordering: relaxed id allocation; uniqueness needs only atomicity
        trace::record(id, reg.seq, TraceEvent::Submit);
        // Predictive admission (opt-in): before claiming a slot, forecast
        // the queue wait the request would see behind the current backlog
        // and refuse it now if the forecast already blows the deadline
        // budget — the request would only age into a DeadlineExpired at
        // dispatch. Sits before the cap gate so a predictive shed never
        // touches (and never has to release) an outstanding slot.
        if reg.predictive {
            if let Some(budget) = reg.deadline {
                let depth = reg.outstanding.load(Ordering::Acquire); // ordering: Acquire to see the freshest depth; the forecast is advisory either way
                let (service, batches) = reg.stats.admission_rates();
                if let Some(ov) = crate::overload::assess(
                    service,
                    batches,
                    depth,
                    budget,
                    crate::overload::safety_factor(),
                ) {
                    reg.stats.record_shed_predicted();
                    trace::record(
                        id,
                        reg.seq,
                        TraceEvent::Shed {
                            reason: ShedReason::Predicted,
                        },
                    );
                    return Err(ServeError::PredictedOverload {
                        model: reg.key.0.clone(),
                        scenario: reg.key.1.clone(),
                        predicted_wait: ov.predicted_wait,
                        budget,
                        retry_after: ov.retry_after,
                    });
                }
            }
        }
        if reg
            .outstanding
            // ordering: AcqRel claim: seeing a freed slot also orders the delivery that freed it
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_err()
        {
            reg.stats.record_shed();
            trace::record(
                id,
                reg.seq,
                TraceEvent::Shed {
                    reason: ShedReason::Cap,
                },
            );
            return Err(ServeError::Rejected {
                model: reg.key.0.clone(),
                scenario: reg.key.1.clone(),
                cap,
            });
        }
        trace::record(id, reg.seq, TraceEvent::Admit);
        let depth = {
            let mut q = reg.queue.lock().expect("queue poisoned");
            q.push(Pending {
                id,
                input,
                enqueued: Instant::now(),
                cq: Arc::clone(cq),
            });
            q.len()
        };
        // Stats take their own lock; record outside the queue lock so a
        // stats convoy can never stall the scheduler or other submitters.
        reg.stats.record_enqueue(depth);
        trace::record(
            id,
            reg.seq,
            TraceEvent::Enqueue {
                depth: depth.min(u32::MAX as usize) as u32,
            },
        );
        // Wake the scheduler out of its nap: it decides whether the queue
        // is due (full batch) or needs a max_wait timer.
        self.wake_scheduler();
        // Close the shutdown/deregistration races: if either flag flipped
        // between the checks above and our enqueue, the final drain may
        // already have swept the queue — nobody would ever dispatch us.
        // Any enqueue that happened before the flag was visible is seen
        // by the draining pass (both sides go through the queue mutex),
        // so it suffices to withdraw our own entry when a flag is set
        // now; if it is no longer queued it was drained (into a batch or
        // by the final sweep) and it will be fulfilled.
        // ordering: the Acquire flag loads pair with the Release stores in shutdown()/deregister.
        let shutting_down = self.shutdown.load(Ordering::Acquire);
        if shutting_down || reg.closed.load(Ordering::Acquire) {
            let withdrawn = {
                let mut q = reg.queue.lock().expect("queue poisoned");
                q.iter()
                    .position(|p| p.id == id)
                    .map(|pos| q.remove(pos))
                    .is_some()
            };
            if withdrawn {
                reg.outstanding.fetch_sub(1, Ordering::AcqRel); // ordering: AcqRel slot release; pairs with the admission gate's fetch_update
                let reason = if shutting_down {
                    ShedReason::Shutdown
                } else {
                    ShedReason::Deregistered
                };
                trace::record(id, reg.seq, TraceEvent::Shed { reason });
                return Err(if shutting_down {
                    ServeError::ShuttingDown
                } else {
                    ServeError::Deregistered {
                        model: reg.key.0.clone(),
                        scenario: reg.key.1.clone(),
                    }
                });
            }
        }
        Ok(id)
    }

    /// Sheds `reg`'s expired queue prefix (requests older than the
    /// deadline budget), then drains and dispatches one due batch if the
    /// remaining queue still holds one. Returns
    /// `(requests shed, dispatched batch size if any)`.
    fn drain_one(
        self: &Arc<Self>,
        reg: &Arc<Registration<I, O>>,
        force: bool,
    ) -> (usize, Option<usize>) {
        let (expired, batch): (Drained<I, O>, Option<Drained<I, O>>) = {
            let mut q = reg.queue.lock().expect("queue poisoned");
            // The queue is FIFO and the budget uniform, so expiry is
            // monotone from the front: the expired entries are exactly a
            // prefix.
            let n_exp = match reg.deadline {
                Some(budget) => q
                    .iter()
                    .take_while(|p| p.enqueued.elapsed() >= budget)
                    .count(),
                None => 0,
            };
            let expired: Drained<I, O> = q.drain(..n_exp).collect();
            // Re-evaluate due-ness on what is left: shedding may have
            // taken the queue below both triggers.
            let len = q.len();
            let due = len >= reg.batch.max_batch
                || (len > 0 && (force || q[0].enqueued.elapsed() >= reg.batch.max_wait));
            let batch = due.then(|| {
                let take = len.min(reg.batch.max_batch);
                q.drain(..take).collect()
            });
            (expired, batch)
        };
        let n_exp = expired.len();
        if n_exp > 0 {
            let budget = reg.deadline.expect("expiry implies a deadline");
            for p in expired {
                reg.stats.record_shed_deadline();
                trace::record(
                    p.id,
                    reg.seq,
                    TraceEvent::Shed {
                        reason: ShedReason::Deadline,
                    },
                );
                p.cq.fulfill(
                    p.id,
                    Err(ServeError::DeadlineExpired {
                        model: reg.key.0.clone(),
                        scenario: reg.key.1.clone(),
                        budget,
                    }),
                );
            }
            reg.outstanding.fetch_sub(n_exp, Ordering::AcqRel); // ordering: AcqRel slot release; pairs with the admission gate's fetch_update
        }
        let Some(batch) = batch else {
            return (n_exp, None);
        };
        let n = batch.len();
        reg.stats.record_batch(n);
        // Most-urgent-class batches ride the pool's high lane: they jump
        // the injector backlog and are the only server batches reserved
        // workers ([`Pool::with_reserved`]) execute, so a long run of
        // low-class batches can never occupy every worker ahead of them.
        // With reserved workers present the lane also paces on its own
        // gauge (see `SchedSignal::inflight_high`).
        let high_lane = reg.priority == 0;
        let high_gauge = high_lane && self.pool.reserved_threads() > 0;
        if high_gauge {
            self.signal.inflight_high.fetch_add(1, Ordering::Relaxed); // ordering: relaxed pacing gauge; signal.wake()'s tick mutex orders it for the scheduler
        } else {
            self.signal.inflight.fetch_add(1, Ordering::Relaxed); // ordering: relaxed pacing gauge; signal.wake()'s tick mutex orders it for the scheduler
        }
        let reg = Arc::clone(reg);
        let signal = Arc::clone(&self.signal);
        let task = move || {
            let mut owned: Vec<I> = Vec::with_capacity(batch.len());
            let mut waiters: Vec<(u64, Instant, Arc<CqShared<O>>)> =
                Vec::with_capacity(batch.len());
            for p in batch {
                owned.push(p.input);
                waiters.push((p.id, p.enqueued, p.cq));
            }
            let started = Instant::now();
            trace::record(
                0,
                reg.seq,
                TraceEvent::BatchStart {
                    batch_size: owned.len() as u32,
                },
            );
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                // Fault injection (no-op unless SERVE_FAULTS is on):
                // injected delays/panics land inside the same
                // catch_unwind as a real inference fault.
                crate::faults::infer_fault();
                let mut outputs = (reg.infer)(&owned);
                if crate::faults::take_malform() {
                    // A malformed batch: wrong output count, caught by
                    // the length check below exactly like a buggy infer
                    // fn would be.
                    outputs.pop();
                }
                outputs
            }));
            let infer_done = Instant::now();
            let service = infer_done.duration_since(started);
            trace::record(
                0,
                reg.seq,
                TraceEvent::BatchEnd {
                    batch_size: owned.len() as u32,
                    service_ns: service.as_nanos() as u64,
                },
            );
            let fulfilled = waiters.len();
            let mut outputs = match result {
                Ok(outputs) if outputs.len() == owned.len() => Some(outputs.into_iter()),
                _ => None,
            };
            for (id, enqueued, cq) in waiters {
                let r = match outputs.as_mut().and_then(Iterator::next) {
                    Some(out) => {
                        // All three stages are cut from shared instants,
                        // so total == queue_wait + service + delivery to
                        // the nanosecond. Delivery grows down the fan-out
                        // loop: it prices sequential handoff.
                        let now = Instant::now();
                        let queue_wait = started.saturating_duration_since(enqueued);
                        let delivery = now.saturating_duration_since(infer_done);
                        let total = now.saturating_duration_since(enqueued);
                        reg.stats
                            .record_request(total, queue_wait, service, delivery);
                        trace::record(id, reg.seq, TraceEvent::Complete);
                        Ok(out)
                    }
                    None => Err(ServeError::InferenceFailed),
                };
                cq.fulfill(id, r);
            }
            // Release the admission slots only after delivery, so the cap
            // is never momentarily exceeded.
            // ordering: AcqRel; pairs with the admission gate's fetch_update.
            reg.outstanding.fetch_sub(fulfilled, Ordering::AcqRel);
            if high_gauge {
                signal.inflight_high.fetch_sub(1, Ordering::Relaxed); // ordering: relaxed pacing gauge; signal.wake()'s tick mutex orders it for the scheduler
            } else {
                signal.inflight.fetch_sub(1, Ordering::Relaxed); // ordering: relaxed pacing gauge; signal.wake()'s tick mutex orders it for the scheduler
            }
            signal.wake();
        };
        if high_lane {
            self.pool.spawn_high(task);
        } else {
            self.pool.spawn(task);
        }
        (n_exp, Some(n))
    }

    fn scheduler_loop(self: Arc<Self>, mut policy: Box<dyn SchedPolicy>) {
        // Each lane paces on its own workers: with reserved workers the
        // ordinary target shrinks to the workers low-lane batches can
        // actually occupy, and the high lane gets its own target so a
        // saturated ordinary lane never stalls class-0 dispatch.
        let reserved = self.pool.reserved_threads();
        let ordinary_workers = self.pool.threads().saturating_sub(reserved).max(1);
        let inflight_target = (ordinary_workers * INFLIGHT_BATCHES_PER_WORKER).max(1);
        let high_target = (reserved * INFLIGHT_BATCHES_PER_WORKER).max(1);
        loop {
            let draining = self.shutdown.load(Ordering::Acquire); // ordering: Acquire; pairs with shutdown()'s Release store
            let mut regs: Vec<Arc<Registration<I, O>>> = self
                .registry
                .read()
                .expect("registry poisoned")
                .values()
                .map(Arc::clone)
                .collect();
            // Stable scan order: the policy sees entries sorted by
            // registration id, and Fifo drains in registration order.
            regs.sort_unstable_by_key(|r| r.seq);
            // Pick-and-dispatch until nothing is due or the in-flight
            // pacing target is reached (backlog then waits in the
            // registration queues, where the policy can reorder it).
            // The due list is rebuilt from scratch per dispatch — one
            // short queue-lock per registration — because age-based
            // due-ness changes with no event to observe; at realistic
            // registration counts the rescan is nanoseconds against a
            // batch execution.
            loop {
                let ord_full = self.signal.inflight.load(Ordering::Relaxed) >= inflight_target; // ordering: relaxed gauge read; staleness only mis-paces one tick
                let high_full = reserved > 0
                    && self.signal.inflight_high.load(Ordering::Relaxed) >= high_target; // ordering: relaxed gauge read; staleness only mis-paces one tick
                if ord_full && (reserved == 0 || high_full) {
                    break;
                }
                let mut due_idx: Vec<usize> = Vec::new();
                let mut entries: Vec<DueEntry> = Vec::new();
                for (i, reg) in regs.iter().enumerate() {
                    // A queue whose lane is at its pacing target is
                    // invisible this round: the policy must not pick it,
                    // and it must not count others as passed over.
                    let full = if reserved > 0 && reg.priority == 0 {
                        high_full
                    } else {
                        ord_full
                    };
                    if full {
                        continue;
                    }
                    if let Some(e) = reg.due_entry(draining) {
                        due_idx.push(i);
                        entries.push(e);
                    }
                }
                if entries.is_empty() {
                    break;
                }
                let choice = policy.pick(&entries).min(entries.len() - 1);
                let picked = &regs[due_idx[choice]];
                // A `None` dispatch is a shed-only drain (the whole due
                // prefix had expired) or a pick that raced to not-due (a
                // concurrent deregistration emptied it). Keep scanning
                // either way — other queues may still be due, and the
                // race cannot spin: entries only leave a queue through a
                // drain, and a closed registration drops out of the next
                // due scan.
                let (_shed, dispatched) = self.drain_one(picked, draining);
                if let Some(n) = dispatched {
                    trace::record(
                        0,
                        picked.seq,
                        TraceEvent::PolicyPick {
                            policy: self.sched_name,
                            batch_size: n as u32,
                        },
                    );
                    policy.charge(entries[choice].id, n);
                    // Starvation accounting: every other due queue just
                    // watched a dispatch go elsewhere.
                    for (k, &i) in due_idx.iter().enumerate() {
                        if k != choice {
                            regs[i].stats.record_passed_over();
                        }
                    }
                }
            }
            // Sleep planning: nothing due (or pacing is at target) —
            // find the nearest max_wait expiry among non-empty queues.
            let mut queued = false;
            let mut nearest: Option<Duration> = None;
            for reg in &regs {
                let q = reg.queue.lock().expect("queue poisoned");
                if let Some(front) = q.first() {
                    queued = true;
                    let age = front.enqueued.elapsed();
                    let left = reg.batch.max_wait.saturating_sub(age);
                    nearest = Some(nearest.map_or(left, |n| n.min(left)));
                }
            }
            // ordering: relaxed gauge reads — the dispatch task decrements before signal.wake(),
            // whose tick mutex the loop takes below, so the drain re-check cannot miss the zero.
            let inflight_now = self.signal.inflight.load(Ordering::Relaxed)
                + self.signal.inflight_high.load(Ordering::Relaxed);
            if draining && !queued && inflight_now == 0 {
                return;
            }
            // ordering: relaxed gauge reads, as above.
            let at_capacity = self.signal.inflight.load(Ordering::Relaxed) >= inflight_target
                && (reserved == 0
                    || self.signal.inflight_high.load(Ordering::Relaxed) >= high_target); // ordering: relaxed gauge read, as above
            let mut dirty = self.signal.tick.lock().expect("tick poisoned");
            if !*dirty {
                // At the pacing target the max_wait timer is moot (no
                // dispatch can happen until a batch completes, which
                // wakes us); otherwise wake for the nearest due time.
                let timeout = if at_capacity {
                    Duration::from_millis(50)
                } else {
                    nearest
                        .unwrap_or(Duration::from_millis(50))
                        .max(Duration::from_micros(100))
                };
                let (guard, _) = self
                    .signal
                    .tick_cv
                    .wait_timeout(dirty, timeout)
                    .expect("tick poisoned");
                dirty = guard;
            }
            *dirty = false;
        }
    }
}

/// The multi-model batch-inference server. Generic over the request (`I`)
/// and response (`O`) payload types.
///
/// # Examples
///
/// ```
/// use serve::pool::Pool;
/// use serve::server::{BatchPolicy, ScenarioSpec, Server};
///
/// let server: Server<f32, f32> = Server::new(Pool::new(2), BatchPolicy::default());
/// server
///     .register(ScenarioSpec::new("toy", "double"), |xs: &[f32]| {
///         xs.iter().map(|x| x * 2.0).collect()
///     })
///     .unwrap();
/// let client = server.client();
/// assert_eq!(client.infer("toy", "double", 21.0), Ok(42.0));
/// ```
pub struct Server<I: Send + 'static, O: Send + 'static> {
    inner: Arc<Inner<I, O>>,
    scheduler: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<I: Send + 'static, O: Send + 'static> Server<I, O> {
    /// Starts a server (and its scheduler thread) over `pool` with the
    /// default [`Fifo`] scheduling policy — behaviorally identical to the
    /// pre-policy server.
    pub fn new(pool: Pool, policy: BatchPolicy) -> Self {
        Server::with_policy(pool, policy, Box::new(Fifo::default()))
    }

    /// Starts a server whose scheduler consults `sched` to pick which due
    /// registration to drain next — [`Fifo`],
    /// [`StrictPriority`](crate::sched::StrictPriority),
    /// [`WeightedFair`](crate::sched::WeightedFair), or any custom
    /// [`SchedPolicy`].
    pub fn with_policy(pool: Pool, policy: BatchPolicy, sched: Box<dyn SchedPolicy>) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        let inner = Arc::new(Inner {
            pool,
            policy,
            sched_name: sched.name(),
            registry: RwLock::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            signal: Arc::new(SchedSignal {
                inflight: AtomicUsize::new(0),
                inflight_high: AtomicUsize::new(0),
                tick: Mutex::new(false),
                tick_cv: Condvar::new(),
            }),
        });
        let sched_thread = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-scheduler".into())
                .spawn(move || inner.scheduler_loop(sched))
                .expect("failed to spawn scheduler")
        };
        Server {
            inner,
            scheduler: Mutex::new(Some(sched_thread)),
        }
    }

    /// Registers a batch inference function under `spec` — the single
    /// registration entry point. Every control-plane knob (admission cap,
    /// priority class, WFQ weight, deadline budget, batch override) rides
    /// the [`ScenarioSpec`].
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateRegistration`] if the `(model, scenario)`
    /// key is taken, [`ServeError::ShuttingDown`] after shutdown began.
    ///
    /// # Panics
    ///
    /// Panics if a [`ScenarioSpec::batch`] override has `max_batch == 0`.
    pub fn register(
        &self,
        spec: ScenarioSpec,
        infer: impl Fn(&[I]) -> Vec<O> + Send + Sync + 'static,
    ) -> Result<(), ServeError> {
        // ordering: Acquire; pairs with shutdown()'s Release store
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let batch = BatchPolicy {
            max_batch: spec.batch_max.unwrap_or(self.inner.policy.max_batch),
            max_wait: spec.batch_wait.unwrap_or(self.inner.policy.max_wait),
        };
        assert!(batch.max_batch >= 1, "max_batch must be at least 1");
        let key = (spec.model.clone(), spec.scenario.clone());
        let mut reg = self.inner.registry.write().expect("registry poisoned");
        if reg.contains_key(&key) {
            return Err(ServeError::DuplicateRegistration {
                model: spec.model,
                scenario: spec.scenario,
            });
        }
        // ordering: relaxed id allocation; uniqueness needs only atomicity
        let seq = NEXT_REG_SEQ.fetch_add(1, Ordering::Relaxed);
        // Label the registration's trace track up front (control-plane
        // rate), so enabling tracing later never yields unnamed tracks.
        trace::name_track(seq, format!("{}/{}", key.0, key.1));
        reg.insert(
            key.clone(),
            Arc::new(Registration {
                key,
                seq,
                infer: Arc::new(infer),
                admission: spec.admission,
                priority: spec.priority,
                weight: spec.weight,
                deadline: spec.deadline,
                predictive: spec.predictive,
                batch,
                closed: AtomicBool::new(false),
                outstanding: AtomicUsize::new(0),
                queue: Mutex::new(Vec::new()),
                stats: StatsCollector::default(),
            }),
        );
        Ok(())
    }

    /// Removes the `(model, scenario)` registration and releases its
    /// slot: new submissions fail (typed), requests still queued are
    /// failed with [`ServeError::Deregistered`] (exactly one completion
    /// each, never dropped), and batches already dispatched to the pool
    /// run to completion normally. The key may be re-registered
    /// immediately; handles resolved before the deregistration (e.g.
    /// [`crate::async_front::Endpoint`]) keep pointing at the removed
    /// registration and get [`ServeError::Deregistered`] on submit.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if no such registration exists.
    pub fn deregister(&self, model: &str, scenario: &str) -> Result<(), ServeError> {
        let key = (model.to_string(), scenario.to_string());
        let reg = self
            .inner
            .registry
            .write()
            .expect("registry poisoned")
            .remove(&key)
            .ok_or_else(|| ServeError::UnknownModel {
                model: model.to_string(),
                scenario: scenario.to_string(),
            })?;
        // Close first, then drain: submit_to re-checks `closed` after its
        // enqueue and withdraws, so every request is either withdrawn by
        // its submitter, drained (and failed) here, or was already
        // dispatched — exactly one completion in every case.
        // ordering: Release close; pairs with the Acquire re-checks in submit_to.
        reg.closed.store(true, Ordering::Release);
        let stranded: Vec<Pending<I, O>> = reg
            .queue
            .lock()
            .expect("queue poisoned")
            .drain(..)
            .collect();
        for p in &stranded {
            trace::record(
                p.id,
                reg.seq,
                TraceEvent::Shed {
                    reason: ShedReason::Deregistered,
                },
            );
            p.cq.fulfill(
                p.id,
                Err(ServeError::Deregistered {
                    model: model.to_string(),
                    scenario: scenario.to_string(),
                }),
            );
        }
        if !stranded.is_empty() {
            reg.outstanding.fetch_sub(stranded.len(), Ordering::AcqRel); // ordering: AcqRel slot release; pairs with the admission gate's fetch_update
        }
        // The registration set changed under the scheduler; wake it so a
        // pass whose wakeup was already consumed re-plans against the
        // remaining queues instead of napping out its timeout.
        self.inner.wake_scheduler();
        Ok(())
    }

    /// A cheap cloneable handle for submitting requests.
    pub fn client(&self) -> Client<I, O> {
        Client {
            inner: Arc::clone(&self.inner),
        }
    }

    /// An asynchronous front-end handle with its own completion queue:
    /// [`AsyncClient::submit`] returns a
    /// [`Ticket`](crate::async_front::Ticket) immediately, and finished
    /// responses are harvested with
    /// [`AsyncClient::poll`] / [`AsyncClient::wait`] — one thread can keep
    /// thousands of requests in flight. See [`crate::async_front`].
    pub fn async_client(&self) -> AsyncClient<I, O> {
        AsyncClient::new(Arc::clone(&self.inner))
    }

    /// Registered `(model, scenario)` keys, sorted.
    pub fn registrations(&self) -> Vec<(String, String)> {
        let mut keys: Vec<_> = self
            .inner
            .registry
            .read()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect();
        keys.sort();
        keys
    }

    /// The name of the scheduling policy this server runs
    /// (`"fifo"`, `"strict_priority"`, `"weighted_fair"`, …).
    pub fn sched_policy_name(&self) -> &'static str {
        self.inner.sched_name
    }

    /// The effective [`ScenarioSpec`] of one registration (`None` if
    /// unknown). The batch field carries the *resolved* policy (override
    /// or server default).
    pub fn spec(&self, model: &str, scenario: &str) -> Option<ScenarioSpec> {
        let key = (model.to_string(), scenario.to_string());
        self.inner
            .registry
            .read()
            .expect("registry poisoned")
            .get(&key)
            .map(|r| r.spec())
    }

    /// Latency statistics for one registration (`None` if unknown).
    pub fn stats(&self, model: &str, scenario: &str) -> Option<StatsSnapshot> {
        let key = (model.to_string(), scenario.to_string());
        self.inner
            .registry
            .read()
            .expect("registry poisoned")
            .get(&key)
            .map(|r| r.stats.snapshot())
    }

    /// Latency statistics aggregated **per priority class**, ascending
    /// (class 0 — the most urgent — first): counts and shed counters sum
    /// across the registrations of a class, and percentiles come from the
    /// merged histograms (exactly those of one registration fed the whole
    /// class's traffic). The surface for "is my high class
    /// actually faster" questions under
    /// [`StrictPriority`](crate::sched::StrictPriority).
    pub fn stats_by_class(&self) -> Vec<(u8, StatsSnapshot)> {
        let registry = self.inner.registry.read().expect("registry poisoned");
        let mut by_class: HashMap<u8, Vec<&StatsCollector>> = HashMap::new();
        for reg in registry.values() {
            by_class.entry(reg.priority).or_default().push(&reg.stats);
        }
        let mut out: Vec<(u8, StatsSnapshot)> = by_class
            .into_iter()
            .map(|(class, collectors)| (class, StatsCollector::merged(collectors)))
            .collect();
        out.sort_unstable_by_key(|(class, _)| *class);
        out
    }

    /// Batch-size totals (dispatch count, requests dispatched, largest
    /// batch) for one registration (`None` if unknown).
    pub fn batch_size_stats(&self, model: &str, scenario: &str) -> Option<BatchSizeStats> {
        let key = (model.to_string(), scenario.to_string());
        self.inner
            .registry
            .read()
            .expect("registry poisoned")
            .get(&key)
            .map(|r| r.stats.batch_sizes())
    }

    /// Renders every serving counter and histogram in Prometheus text
    /// exposition format — the scrape face a future network edge can
    /// serve verbatim. Families:
    ///
    /// * `serve_scheduler_info{policy}` — constant 1 with the policy name;
    /// * per registration (`model`/`scenario` labels):
    ///   `serve_requests_total`, `serve_submitted_total`,
    ///   `serve_shed_total{reason="cap"|"deadline"|"predicted"}`,
    ///   `serve_passed_over_total`, `serve_batches_total`,
    ///   `serve_max_queue_depth` and the end-to-end
    ///   `serve_latency_seconds` summary (exact `_sum`/`_count`);
    /// * `serve_stage_latency_seconds` — one histogram series per
    ///   registration and `stage` (`queue_wait` | `service` |
    ///   `delivery`), with cumulative `_bucket{le=...}` lines at
    ///   power-of-two boundaries of the underlying log-linear
    ///   [`Histogram`](crate::trace::Histogram) (so each boundary count
    ///   is exact), `+Inf`, `_sum` and `_count`;
    /// * pool rows (`worker` label, plus `external`):
    ///   `serve_pool_tasks_total`, `serve_pool_steals_total`,
    ///   `serve_pool_steal_failures_total`, `serve_pool_parks_total`,
    ///   `serve_pool_unparks_total`.
    ///
    /// Output is sorted by registration key, so two calls under the same
    /// traffic are textually comparable.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        }
        struct Row {
            labels: String,
            snap: StatsSnapshot,
            batches: BatchSizeStats,
            stages: StageHistograms,
        }
        let mut regs: Vec<Arc<Registration<I, O>>> = self
            .inner
            .registry
            .read()
            .expect("registry poisoned")
            .values()
            .map(Arc::clone)
            .collect();
        regs.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        let rows: Vec<Row> = regs
            .iter()
            .map(|r| Row {
                labels: format!("model=\"{}\",scenario=\"{}\"", esc(&r.key.0), esc(&r.key.1)),
                snap: r.stats.snapshot(),
                batches: r.stats.batch_sizes(),
                stages: r.stats.stages(),
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# HELP serve_scheduler_info Scheduling policy of this server (value is always 1)."
        );
        let _ = writeln!(out, "# TYPE serve_scheduler_info gauge");
        let _ = writeln!(
            out,
            "serve_scheduler_info{{policy=\"{}\"}} 1",
            esc(self.inner.sched_name)
        );
        type Getter<'a, T> = &'a dyn Fn(&T) -> u64;
        let counters: [(&str, &str, Getter<Row>); 4] = [
            (
                "serve_requests_total",
                "Requests completed with a response.",
                &|r| r.snap.count,
            ),
            (
                "serve_submitted_total",
                "Requests admitted into a queue.",
                &|r| r.snap.submitted,
            ),
            (
                "serve_passed_over_total",
                "Scheduling rounds in which this due queue watched a dispatch go elsewhere.",
                &|r| r.snap.passed_over,
            ),
            (
                "serve_batches_total",
                "Micro-batches dispatched to the pool.",
                &|r| r.batches.count,
            ),
        ];
        for (name, help, get) in counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for r in &rows {
                let _ = writeln!(out, "{name}{{{}}} {}", r.labels, get(r));
            }
        }
        let _ = writeln!(
            out,
            "# HELP serve_shed_total Requests shed without a response, by reason."
        );
        let _ = writeln!(out, "# TYPE serve_shed_total counter");
        for r in &rows {
            let _ = writeln!(
                out,
                "serve_shed_total{{{},reason=\"cap\"}} {}",
                r.labels, r.snap.shed
            );
            let _ = writeln!(
                out,
                "serve_shed_total{{{},reason=\"deadline\"}} {}",
                r.labels, r.snap.shed_deadline
            );
            let _ = writeln!(
                out,
                "serve_shed_total{{{},reason=\"predicted\"}} {}",
                r.labels, r.snap.shed_predicted
            );
        }
        let _ = writeln!(
            out,
            "# HELP serve_max_queue_depth High-water mark of the registration queue."
        );
        let _ = writeln!(out, "# TYPE serve_max_queue_depth gauge");
        for r in &rows {
            let _ = writeln!(
                out,
                "serve_max_queue_depth{{{}}} {}",
                r.labels, r.snap.max_queue_depth
            );
        }
        let _ = writeln!(
            out,
            "# HELP serve_latency_seconds End-to-end request latency (exact sum/count)."
        );
        let _ = writeln!(out, "# TYPE serve_latency_seconds summary");
        for r in &rows {
            let sum_s = r.snap.mean_s * r.snap.count as f64;
            let _ = writeln!(out, "serve_latency_seconds_sum{{{}}} {}", r.labels, sum_s);
            let _ = writeln!(
                out,
                "serve_latency_seconds_count{{{}}} {}",
                r.labels, r.snap.count
            );
        }
        let _ = writeln!(
            out,
            "# HELP serve_stage_latency_seconds Per-stage request latency \
             (queue_wait | service | delivery)."
        );
        let _ = writeln!(out, "# TYPE serve_stage_latency_seconds histogram");
        for r in &rows {
            for (stage, h) in [
                ("queue_wait", &r.stages.queue_wait),
                ("service", &r.stages.service),
                ("delivery", &r.stages.delivery),
            ] {
                let labels = format!("{},stage=\"{stage}\"", r.labels);
                for (bound_s, below) in h.cumulative_octaves() {
                    let _ = writeln!(
                        out,
                        "serve_stage_latency_seconds_bucket{{{labels},le=\"{bound_s}\"}} {below}"
                    );
                }
                let _ = writeln!(
                    out,
                    "serve_stage_latency_seconds_bucket{{{labels},le=\"+Inf\"}} {}",
                    h.count()
                );
                let _ = writeln!(
                    out,
                    "serve_stage_latency_seconds_sum{{{labels}}} {}",
                    h.sum_s()
                );
                let _ = writeln!(
                    out,
                    "serve_stage_latency_seconds_count{{{labels}}} {}",
                    h.count()
                );
            }
        }
        let pool = self.inner.pool.stats();
        let pool_counters: [(&str, &str, Getter<crate::pool::WorkerStats>); 5] = [
            (
                "serve_pool_tasks_total",
                "Tasks claimed and run by this pool participant.",
                &|w| w.executed,
            ),
            (
                "serve_pool_steals_total",
                "Tasks stolen from a sibling's deque.",
                &|w| w.stolen,
            ),
            (
                "serve_pool_steal_failures_total",
                "Empty-handed scans across every queue.",
                &|w| w.steal_failures,
            ),
            (
                "serve_pool_parks_total",
                "Times the worker went to sleep on the parking lot.",
                &|w| w.parks,
            ),
            (
                "serve_pool_unparks_total",
                "Times the worker was woken from the lot.",
                &|w| w.unparks,
            ),
        ];
        for (name, help, get) in pool_counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for (i, w) in pool.workers.iter().enumerate() {
                let _ = writeln!(out, "{name}{{worker=\"{i}\"}} {}", get(w));
            }
            let _ = writeln!(out, "{name}{{worker=\"external\"}} {}", get(&pool.external));
        }
        out
    }

    /// Stops accepting requests, flushes every queued request, waits for
    /// in-flight batches, and joins the scheduler.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release); // ordering: Release; pairs with the Acquire loads in submit_to and the scheduler
        self.inner.wake_scheduler();
        if let Some(h) = self
            .scheduler
            .lock()
            .expect("scheduler handle poisoned")
            .take()
        {
            let _ = h.join();
        }
        // Defense in depth: the scheduler drained everything it could see
        // and clients withdraw entries they enqueue after the flag, but if
        // anything slipped through both nets, fail it rather than leave a
        // `Client::infer` blocked forever.
        let regs: Vec<Arc<Registration<I, O>>> = self
            .inner
            .registry
            .read()
            .expect("registry poisoned")
            .values()
            .map(Arc::clone)
            .collect();
        for reg in regs {
            let stranded: Vec<Pending<I, O>> = reg
                .queue
                .lock()
                .expect("queue poisoned")
                .drain(..)
                .collect();
            for p in &stranded {
                trace::record(
                    p.id,
                    reg.seq,
                    TraceEvent::Shed {
                        reason: ShedReason::Shutdown,
                    },
                );
                p.cq.fulfill(p.id, Err(ServeError::ShuttingDown));
            }
            reg.outstanding.fetch_sub(stranded.len(), Ordering::AcqRel); // ordering: AcqRel slot release; pairs with the admission gate's fetch_update
        }
    }
}

impl<I: Send + 'static, O: Send + 'static> Drop for Server<I, O> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<I: Send + 'static, O: Send + 'static> std::fmt::Debug for Server<I, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("registrations", &self.registrations().len())
            .field("policy", &self.inner.policy)
            .field("sched", &self.inner.sched_name)
            .finish()
    }
}

/// Synchronous request handle onto a [`Server`]: one blocked OS thread
/// per outstanding request; [`Server::async_client`] holds many requests
/// in flight from one thread.
///
/// # Examples
///
/// ```
/// use serve::pool::Pool;
/// use serve::server::{BatchPolicy, ScenarioSpec, Server};
///
/// let server: Server<u64, u64> = Server::new(Pool::new(2), BatchPolicy::default());
/// server
///     .register(ScenarioSpec::new("echo", "x10"), |xs: &[u64]| {
///         xs.iter().map(|x| x * 10).collect()
///     })
///     .unwrap();
///
/// let client = server.client();
/// assert_eq!(client.infer("echo", "x10", 7), Ok(70));
/// // Unregistered keys fail fast, without enqueuing anything:
/// assert!(client.infer("echo", "nope", 7).is_err());
/// ```
pub struct Client<I: Send + 'static, O: Send + 'static> {
    inner: Arc<Inner<I, O>>,
}

impl<I: Send + 'static, O: Send + 'static> Clone for Client<I, O> {
    fn clone(&self) -> Self {
        Client {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<I: Send + 'static, O: Send + 'static> Client<I, O> {
    /// Submits one request and blocks until its response arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered key,
    /// [`ServeError::Rejected`] when the registration's queue cap sheds
    /// the request, [`ServeError::PredictedOverload`] when predictive
    /// admission ([`ScenarioSpec::predictive`]) forecast the wait would
    /// blow the budget (wrap calls in a
    /// [`RetryPolicy`](crate::overload::RetryPolicy) to back off and
    /// retry sheds), [`ServeError::DeadlineExpired`] when the request
    /// outwaited the registration's deadline budget,
    /// [`ServeError::Deregistered`] if the registration was removed,
    /// [`ServeError::ShuttingDown`] once shutdown began, and
    /// [`ServeError::InferenceFailed`] if the batch function misbehaved.
    pub fn infer(&self, model: &str, scenario: &str, input: I) -> Result<O, ServeError> {
        // A private one-slot completion queue: the same path as the async
        // face, with an untimed wait for its single completion.
        let cq = AsyncClient::new(Arc::clone(&self.inner));
        cq.submit(model, scenario, input)?;
        cq.wait_until(None)
            .expect("an untimed wait returns a completion")
            .result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server(max_batch: usize, max_wait_ms: u64) -> Server<u64, u64> {
        Server::new(
            Pool::new(4),
            BatchPolicy {
                max_batch,
                max_wait: Duration::from_millis(max_wait_ms),
            },
        )
    }

    /// Fires `n` concurrent `infer` calls against one registration and
    /// returns the responses.
    fn fire(server: &Server<u64, u64>, model: &str, scenario: &str, n: u64) -> Vec<u64> {
        let mut joins = Vec::new();
        for i in 0..n {
            let client = server.client();
            let (model, scenario) = (model.to_string(), scenario.to_string());
            joins.push(std::thread::spawn(move || {
                client.infer(&model, &scenario, i).expect("infer failed")
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    }

    #[test]
    fn responses_match_requests() {
        let server = test_server(4, 1);
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| {
                xs.iter().map(|x| x * 10).collect()
            })
            .unwrap();
        let mut out = fire(&server, "m", "s", 32);
        out.sort_unstable();
        assert_eq!(out, (0..32).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn batching_respects_max_batch() {
        let server = test_server(4, 50);
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| {
                // Slow enough that a burst piles up behind the first batch.
                std::thread::sleep(Duration::from_millis(5));
                xs.to_vec()
            })
            .unwrap();
        let _ = fire(&server, "m", "s", 23);
        let sizes = server.batch_size_stats("m", "s").unwrap();
        assert_eq!(sizes.sum, 23.0);
        assert!(sizes.max <= 4, "batch exceeded max_batch: {sizes:?}");
        assert!(
            sizes.max > 1,
            "burst of 23 should produce at least one multi-request batch: {sizes:?}"
        );
        assert!(sizes.count >= 6, "23 requests need at least 6 batches of 4");
    }

    #[test]
    fn per_registration_batch_override_wins() {
        // Server default max_batch 16; the spec overrides only max_batch
        // to 2 — the server's max_wait must survive untouched.
        let server = test_server(16, 50);
        server
            .register(ScenarioSpec::new("m", "s").max_batch(2), |xs: &[u64]| {
                std::thread::sleep(Duration::from_millis(5));
                xs.to_vec()
            })
            .unwrap();
        let _ = fire(&server, "m", "s", 11);
        let sizes = server.batch_size_stats("m", "s").unwrap();
        assert_eq!(sizes.sum, 11.0);
        assert!(
            sizes.max <= 2,
            "spec max_batch must override the server default: {sizes:?}"
        );
        let spec = server.spec("m", "s").unwrap();
        assert_eq!(spec.max_batch_override(), Some(2));
        assert_eq!(
            spec.max_wait_override(),
            Some(Duration::from_millis(50)),
            "a max_batch-only override must keep the SERVER's max_wait"
        );
        // And symmetrically: a max_wait-only override keeps the server's
        // max_batch.
        server
            .register(
                ScenarioSpec::new("m", "w").max_wait(Duration::from_millis(1)),
                |xs: &[u64]| xs.to_vec(),
            )
            .unwrap();
        let spec = server.spec("m", "w").unwrap();
        assert_eq!(spec.max_batch_override(), Some(16));
        assert_eq!(spec.max_wait_override(), Some(Duration::from_millis(1)));
    }

    #[test]
    fn max_wait_flushes_partial_batches() {
        // max_batch 64 can never fill from one request; only the max_wait
        // timer can dispatch it.
        let server = test_server(64, 5);
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| xs.to_vec())
            .unwrap();
        let t0 = Instant::now();
        let out = server.client().infer("m", "s", 7).unwrap();
        let waited = t0.elapsed();
        assert_eq!(out, 7);
        assert!(
            waited >= Duration::from_millis(4),
            "partial batch left before max_wait: {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(2),
            "partial batch never flushed: {waited:?}"
        );
        let sizes = server.batch_size_stats("m", "s").unwrap();
        assert!(sizes.count == 1 && sizes.sum == 1.0, "{sizes:?}");
    }

    #[test]
    fn models_and_scenarios_are_isolated() {
        let server = test_server(8, 1);
        server
            .register(ScenarioSpec::new("a", "x2"), |xs: &[u64]| {
                xs.iter().map(|x| x * 2).collect()
            })
            .unwrap();
        server
            .register(ScenarioSpec::new("a", "x3"), |xs: &[u64]| {
                xs.iter().map(|x| x * 3).collect()
            })
            .unwrap();
        server
            .register(ScenarioSpec::new("b", "x2"), |xs: &[u64]| {
                xs.iter().map(|x| x * 5).collect()
            })
            .unwrap();
        let c = server.client();
        assert_eq!(c.infer("a", "x2", 4), Ok(8));
        assert_eq!(c.infer("a", "x3", 4), Ok(12));
        assert_eq!(c.infer("b", "x2", 4), Ok(20));
        assert_eq!(server.registrations().len(), 3);
    }

    #[test]
    fn unknown_and_duplicate_keys_error() {
        let server = test_server(4, 1);
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| xs.to_vec())
            .unwrap();
        assert!(matches!(
            server.register(ScenarioSpec::new("m", "s"), |xs: &[u64]| xs.to_vec()),
            Err(ServeError::DuplicateRegistration { .. })
        ));
        assert!(matches!(
            server.client().infer("m", "nope", 1),
            Err(ServeError::UnknownModel { .. })
        ));
    }

    #[test]
    fn spec_admission_caps_the_queue() {
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
        let cq = server.async_client();
        while cq.submit("m", "s", 1).is_ok() {}
        assert!(matches!(
            server.client().infer("m", "s", 2),
            Err(ServeError::Rejected { cap: 1, .. })
        ));
        assert_eq!(
            server.spec("m", "s").unwrap().admission_policy(),
            AdmissionPolicy::capped(1)
        );
    }

    #[test]
    fn panicking_batch_fn_fails_requests_not_server() {
        let server = test_server(4, 1);
        server
            .register(ScenarioSpec::new("m", "boom"), |_: &[u64]| panic!("kaboom"))
            .unwrap();
        server
            .register(ScenarioSpec::new("m", "ok"), |xs: &[u64]| xs.to_vec())
            .unwrap();
        assert_eq!(
            server.client().infer("m", "boom", 1),
            Err(ServeError::InferenceFailed)
        );
        // The server keeps serving other registrations afterwards.
        assert_eq!(server.client().infer("m", "ok", 9), Ok(9));
    }

    #[test]
    fn stats_accumulate_with_ordered_percentiles() {
        let server = test_server(4, 1);
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| xs.to_vec())
            .unwrap();
        let _ = fire(&server, "m", "s", 16);
        let snap = server.stats("m", "s").unwrap();
        assert_eq!(snap.count, 16);
        assert!(snap.mean_s > 0.0);
        assert!(snap.p50_s <= snap.p99_s, "p50 must not exceed p99");
    }

    #[test]
    fn stats_by_class_groups_registrations() {
        let server = test_server(4, 1);
        server
            .register(ScenarioSpec::new("m", "hi").priority(0), |xs: &[u64]| {
                xs.to_vec()
            })
            .unwrap();
        server
            .register(
                ScenarioSpec::new("m", "lo_a").priority(3),
                |xs: &[u64]| xs.to_vec(),
            )
            .unwrap();
        server
            .register(
                ScenarioSpec::new("m", "lo_b").priority(3),
                |xs: &[u64]| xs.to_vec(),
            )
            .unwrap();
        let _ = fire(&server, "m", "hi", 4);
        let _ = fire(&server, "m", "lo_a", 3);
        let _ = fire(&server, "m", "lo_b", 5);
        let by_class = server.stats_by_class();
        assert_eq!(by_class.len(), 2);
        assert_eq!(by_class[0].0, 0);
        assert_eq!(by_class[0].1.count, 4);
        assert_eq!(by_class[1].0, 3);
        assert_eq!(by_class[1].1.count, 8, "class 3 merges both scenarios");
    }

    #[test]
    fn shutdown_flushes_and_rejects_new_requests() {
        let server = test_server(64, 1000);
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| xs.to_vec())
            .unwrap();
        // A request parked far from both triggers (max_batch 64, 1 s wait):
        // shutdown must force-flush it rather than strand the client.
        let client = server.client();
        let waiter = std::thread::spawn(move || client.infer("m", "s", 3));
        std::thread::sleep(Duration::from_millis(20));
        server.shutdown();
        assert_eq!(waiter.join().unwrap(), Ok(3));
        assert_eq!(
            server.client().infer("m", "s", 4),
            Err(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn deregister_releases_slot_and_fails_lookups() {
        let server = test_server(4, 1);
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| xs.to_vec())
            .unwrap();
        assert_eq!(server.client().infer("m", "s", 5), Ok(5));
        server.deregister("m", "s").unwrap();
        assert!(matches!(
            server.client().infer("m", "s", 6),
            Err(ServeError::UnknownModel { .. })
        ));
        assert!(matches!(
            server.deregister("m", "s"),
            Err(ServeError::UnknownModel { .. })
        ));
        // The slot is free again: re-registering the key succeeds and
        // serves (with fresh stats).
        server
            .register(ScenarioSpec::new("m", "s"), |xs: &[u64]| {
                xs.iter().map(|x| x + 100).collect()
            })
            .unwrap();
        assert_eq!(server.client().infer("m", "s", 5), Ok(105));
        assert_eq!(server.stats("m", "s").unwrap().count, 1);
    }
}

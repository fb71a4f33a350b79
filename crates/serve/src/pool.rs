//! A pooled work-stealing executor.
//!
//! The pre-existing `dnn::data::par_map` spawned `available_parallelism`
//! scoped OS threads *per call* — fine for one long map, wasteful for the
//! thousands of small fan-outs an LPQ search or a serving workload issues.
//! This module keeps a fixed set of worker threads alive for the process
//! and hands them work through the classic work-stealing arrangement:
//!
//! * one global **injector** queue fed by external (non-worker) threads;
//! * one **deque per worker**: a worker pushes its own spawns to the back
//!   and pops from the back (LIFO, cache-warm), and when it runs dry it
//!   takes from the injector front or **steals** from the front of a
//!   sibling's deque (FIFO, oldest first — the standard Chase–Lev
//!   discipline, here with plain mutexed deques since the workloads are
//!   coarse-grained forward passes, not nanosecond tasks);
//! * blocked callers **help**: a thread waiting on a [`Pool::scope`] drains
//!   tasks itself instead of sleeping, so nested `par_map`/`scope` calls
//!   from inside a worker can never deadlock the pool.
//!
//! Worker count comes from `SERVE_THREADS` (clamped to `[1, 256]`), falling
//! back to [`std::thread::available_parallelism`].
//!
//! # Two-lane dispatch (reserved workers)
//!
//! [`Pool::with_reserved`] sets aside the last `reserved` workers as a
//! **high lane**: they run only tasks submitted through
//! [`Pool::spawn_high`] (plus tasks those spawn transitively), never
//! tasks from the shared injector and never steals from ordinary
//! workers' deques. Ordinary workers and external helpers drain the
//! high queue *first*, so high-lane tasks get every worker's attention —
//! but the reverse is forbidden, which is the point: however long the
//! backlog of ordinary (low-priority) batches, at least `reserved`
//! workers are always idle-or-working-on-high, bounding high-class
//! latency at roughly one high task's own service time. With
//! `reserved == 0` (the [`Pool::new`] default) the high queue is simply
//! an extra front-of-line queue and scheduling is otherwise unchanged.
//!
//! # Panic semantics
//!
//! Panics inside [`Pool::scope`] / [`Pool::par_map`] closures are caught on
//! the worker, carried to the owning scope, and resumed on the caller once
//! every task of that scope has finished — same contract as
//! `std::thread::scope`. Panics in detached [`Pool::spawn`] tasks are
//! swallowed (the worker survives), mirroring detached-thread behavior.

use crate::trace::{self, TraceEvent};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Per-participant task counters (lock-free; incremented as tasks are
/// claimed in [`PoolInner::find_task`]).
#[derive(Default)]
struct Counters {
    executed: AtomicU64,
    stolen: AtomicU64,
    steal_failures: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
}

/// Executed/stolen task counts for one pool participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this participant claimed and ran (own deque, injector, or
    /// steals — `stolen` is the subset taken from a sibling's deque).
    pub executed: u64,
    /// Tasks this participant stole from another worker's deque.
    pub stolen: u64,
    /// Empty-handed scans: the participant checked its own deque, the
    /// injector *and* every sibling deque and found nothing. For workers
    /// each park is preceded by at least one of these; a high rate with
    /// low `executed` means threads outnumber the offered load.
    pub steal_failures: u64,
    /// Times a worker went to sleep on the parking lot (always 0 for the
    /// external row — helpers nap on their scope, not the lot).
    pub parks: u64,
    /// Times a parked worker was woken. `parks - unparks ∈ {0, 1}` at
    /// any instant (a worker currently asleep); persistent gaps would
    /// mean lost wakeups.
    pub unparks: u64,
}

/// Point-in-time snapshot of the pool's scheduling counters: one row per
/// worker plus an `external` row for non-worker threads that helped while
/// waiting on a [`Pool::scope`]. Steal traffic is the observable that
/// makes scheduler regressions visible in the `serve_pool_*` series of
/// [`Server::metrics_text`](crate::server::Server::metrics_text) directly
/// (a dead work-stealing path shows up as `total_stolen == 0` under a
/// skewed load, long before it shows up as throughput).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Counters per worker thread, by worker index.
    pub workers: Vec<WorkerStats>,
    /// Counters for non-worker threads helping from `scope`/`par_map`.
    pub external: WorkerStats,
}

impl PoolStats {
    /// Total tasks executed by every participant.
    pub fn total_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.executed).sum::<u64>() + self.external.executed
    }

    /// Total tasks that moved between deques (stolen).
    pub fn total_stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum::<u64>() + self.external.stolen
    }

    /// Total empty-handed scans across every participant.
    pub fn total_steal_failures(&self) -> u64 {
        self.workers.iter().map(|w| w.steal_failures).sum::<u64>() + self.external.steal_failures
    }

    /// Total worker parks (sleeps on the lot).
    pub fn total_parks(&self) -> u64 {
        self.workers.iter().map(|w| w.parks).sum::<u64>()
    }

    /// Total worker unparks (wakeups from the lot).
    pub fn total_unparks(&self) -> u64 {
        self.workers.iter().map(|w| w.unparks).sum::<u64>()
    }
}

/// A unit of queued work. The `'static` bound is what scoped APIs erase —
/// see the safety argument in [`Scope::spawn`].
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Upper bound on configured workers (guards against absurd env values).
const MAX_THREADS: usize = 256;

/// How long a scope waiter naps when no task is available to help with.
/// Scope completion is condvar-notified; the timeout only covers the
/// benign race of a completion landing between the waiter's last check
/// and its wait.
const IDLE_RECHECK: Duration = Duration::from_millis(2);

static POOL_IDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool worker.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// Shared state between pool handles and workers.
struct PoolInner {
    /// Identity for the thread-local worker tag.
    id: usize,
    /// Global FIFO fed by non-worker threads.
    injector: Mutex<VecDeque<Task>>,
    /// High-lane FIFO ([`Pool::spawn_high`]): drained before the
    /// injector by everyone, and the *only* shared queue reserved
    /// workers may take from.
    high: Mutex<VecDeque<Task>>,
    /// Workers at the tail of `deques` that serve only the high lane.
    reserved: usize,
    /// Per-worker deques (owner pops back, thieves pop front).
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Worker parking lot.
    lot: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Round-robin cursor so thieves don't all hammer deque 0.
    steal_cursor: AtomicUsize,
    /// One counter row per worker plus a trailing row for external
    /// (non-worker) helpers.
    counters: Vec<Counters>,
}

impl PoolInner {
    /// The counter row for a participant (`None` = external helper).
    fn counters_of(&self, own: Option<usize>) -> &Counters {
        &self.counters[own.unwrap_or(self.deques.len())]
    }

    /// Whether worker `index` belongs to the reserved high lane.
    fn is_reserved(&self, index: usize) -> bool {
        index >= self.deques.len() - self.reserved
    }

    /// Pops the next task for a **reserved** worker: own deque back
    /// (children of high tasks), then the high queue front. Reserved
    /// workers never touch the injector and never steal — that is the
    /// lane guarantee. A miss counts as a steal failure so the
    /// `steal_failures ≥ parks` invariant holds for every row.
    fn find_reserved_task(&self, i: usize) -> Option<(Task, bool)> {
        if let Some(t) = self.deques[i].lock().expect("deque poisoned").pop_back() {
            self.counters[i].executed.fetch_add(1, Ordering::Relaxed); // ordering: relaxed tally; claims are serialized by the queue mutexes
            return Some((t, false));
        }
        if let Some(t) = self.high.lock().expect("high lane poisoned").pop_front() {
            self.counters[i].executed.fetch_add(1, Ordering::Relaxed); // ordering: relaxed tally; claims are serialized by the queue mutexes
            return Some((t, false));
        }
        self.counters[i]
            .steal_failures
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed tally; claims are serialized by the queue mutexes
        None
    }

    /// Pops the next task: own deque back (workers only), then high-lane
    /// front, then injector front, then steal a sibling's front. Tallies
    /// the claim into the participant's [`Counters`] row; the `bool` says
    /// whether the task was stolen. A full miss (nothing anywhere,
    /// including every sibling's deque) counts as a steal failure.
    fn find_task(&self, own: Option<usize>) -> Option<(Task, bool)> {
        if let Some(i) = own {
            if let Some(t) = self.deques[i].lock().expect("deque poisoned").pop_back() {
                self.counters[i].executed.fetch_add(1, Ordering::Relaxed); // ordering: relaxed tally; claims are serialized by the queue mutexes
                return Some((t, false));
            }
        }
        if let Some(t) = self.high.lock().expect("high lane poisoned").pop_front() {
            self.counters_of(own)
                .executed
                .fetch_add(1, Ordering::Relaxed); // ordering: relaxed tally; claims are serialized by the queue mutexes
            return Some((t, false));
        }
        if let Some(t) = self.injector.lock().expect("injector poisoned").pop_front() {
            self.counters_of(own)
                .executed
                .fetch_add(1, Ordering::Relaxed); // ordering: relaxed tally; claims are serialized by the queue mutexes
            return Some((t, false));
        }
        let n = self.deques.len();
        let start = self.steal_cursor.fetch_add(1, Ordering::Relaxed); // ordering: relaxed rotation hint; any starting victim is correct
        for k in 0..n {
            let victim = (start + k) % n;
            if own == Some(victim) {
                continue;
            }
            if let Some(t) = self.deques[victim]
                .lock()
                .expect("deque poisoned")
                .pop_front()
            {
                let row = self.counters_of(own);
                // ordering: relaxed tallies; claims are serialized by the queue mutexes.
                row.executed.fetch_add(1, Ordering::Relaxed);
                row.stolen.fetch_add(1, Ordering::Relaxed);
                return Some((t, true));
            }
        }
        self.counters_of(own)
            .steal_failures
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed tally; claims are serialized by the queue mutexes
        None
    }

    /// Runs one claimed task, swallowing panics, and — when tracing is
    /// enabled — records its run/steal span on the executing thread's
    /// trace ring.
    fn run_task(&self, own: Option<usize>, task: Task, stolen: bool) {
        let t0 = trace::enabled().then(Instant::now);
        // Keep the executor alive across panicking detached tasks; scoped
        // tasks carry their own catch + rethrow protocol. The fault hooks
        // bracket the task *inside* the catch so injected worker faults
        // exercise exactly this survival path: the pre-task hook may only
        // sleep (a pre-task panic would drop the task and strand its
        // requests), the post-task hook may panic.
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            crate::faults::worker_delay();
            task();
            crate::faults::worker_panic();
        }));
        if let Some(t0) = t0 {
            trace::record(
                0,
                own.map_or(0, |i| i as u64),
                TraceEvent::TaskEnd {
                    run_ns: t0.elapsed().as_nanos() as u64,
                    stolen,
                },
            );
        }
    }

    /// Enqueues a task: onto the current worker's own deque when the caller
    /// is a worker of *this* pool, else onto the injector.
    fn push_task(&self, task: Task) {
        let own = WORKER.with(|w| w.get()).filter(|(id, _)| *id == self.id);
        match own {
            Some((_, i)) => self.deques[i]
                .lock()
                .expect("deque poisoned")
                .push_back(task),
            None => self
                .injector
                .lock()
                .expect("injector poisoned")
                .push_back(task),
        }
        // Notify after releasing the queue lock (lock order: queue ≺ lot).
        // With a reserved lane, `notify_one` could land on a reserved
        // worker that (correctly) finds nothing for it and parks again,
        // consuming the wakeup while an ordinary worker sleeps — so wake
        // everyone. Tasks are coarse batches; the cost is negligible.
        let _g = self.lot.lock().expect("lot poisoned");
        if self.reserved == 0 {
            self.wake.notify_one();
        } else {
            self.wake.notify_all();
        }
    }

    /// Enqueues a high-lane task ([`Pool::spawn_high`]). A single wakeup
    /// suffices: whichever worker it lands on — reserved or not — checks
    /// the high queue before parking again.
    fn push_high(&self, task: Task) {
        self.high
            .lock()
            .expect("high lane poisoned")
            .push_back(task);
        let _g = self.lot.lock().expect("lot poisoned");
        self.wake.notify_one();
    }

    /// Whether any queue (high lane, injector or any deque) holds a task
    /// — the idle-worker re-check performed under the lot lock before an
    /// **ordinary** worker parks.
    fn has_work(&self) -> bool {
        if !self.high.lock().expect("high lane poisoned").is_empty() {
            return true;
        }
        if !self.injector.lock().expect("injector poisoned").is_empty() {
            return true;
        }
        self.deques
            .iter()
            .any(|d| !d.lock().expect("deque poisoned").is_empty())
    }

    /// The pre-park re-check for a **reserved** worker: only its own
    /// deque and the high lane can feed it.
    fn has_reserved_work(&self, i: usize) -> bool {
        !self.deques[i].lock().expect("deque poisoned").is_empty()
            || !self.high.lock().expect("high lane poisoned").is_empty()
    }

    fn worker_loop(self: &Arc<Self>, index: usize) {
        WORKER.with(|w| w.set(Some((self.id, index))));
        let reserved = self.is_reserved(index);
        loop {
            let found = if reserved {
                self.find_reserved_task(index)
            } else {
                self.find_task(Some(index))
            };
            if let Some((task, stolen)) = found {
                self.run_task(Some(index), task, stolen);
                continue;
            }
            let guard = self.lot.lock().expect("lot poisoned");
            // ordering: Acquire; pairs with PoolOwner::drop's Release store
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Wakeup protocol: pushers release the queue lock, then notify
            // while holding the lot. Re-checking the queues *under the lot*
            // therefore closes the lost-wakeup window — a push completed
            // before we acquired the lot is visible to `has_work`, and a
            // later push cannot notify until we are parked in `wait` — so
            // the wait needs no timeout and idle workers burn no CPU.
            let work = if reserved {
                self.has_reserved_work(index)
            } else {
                self.has_work()
            };
            if work {
                continue;
            }
            self.counters[index].parks.fetch_add(1, Ordering::Relaxed); // ordering: relaxed park/unpark tally; the lot mutex orders the waits
            drop(self.wake.wait(guard).expect("lot poisoned"));
            self.counters[index].unparks.fetch_add(1, Ordering::Relaxed); // ordering: relaxed park/unpark tally; the lot mutex orders the waits
        }
    }
}

/// Pool ownership: the last [`Pool`] handle to drop signals shutdown and
/// joins the workers.
struct PoolOwner {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for PoolOwner {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release); // ordering: Release; pairs with the workers' Acquire check under the lot
        {
            let _g = self.inner.lot.lock().expect("lot poisoned");
            self.inner.wake.notify_all();
        }
        for h in self.handles.lock().expect("handles poisoned").drain(..) {
            let _ = h.join();
        }
    }
}

/// A handle to a fixed-size work-stealing thread pool. Cloning is cheap
/// (`Arc`); the workers exit when the last handle drops.
///
/// # Examples
///
/// ```
/// let pool = serve::pool::Pool::new(4);
/// let doubled = pool.par_map(&[1, 2, 3, 4, 5, 6, 7, 8], |&x: &i32| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6, 8, 10, 12, 14, 16]);
/// ```
#[derive(Clone)]
pub struct Pool {
    owner: Arc<PoolOwner>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .field("reserved", &self.reserved_threads())
            .finish()
    }
}

impl Pool {
    /// Spawns a pool with `threads` workers (clamped to `[1, 256]`) and
    /// no reserved lane.
    pub fn new(threads: usize) -> Self {
        Pool::with_reserved(threads, 0)
    }

    /// Spawns a pool with `threads` workers of which the last `reserved`
    /// serve only the high lane (see the module docs); `reserved` is
    /// clamped so at least one ordinary worker always remains.
    /// `with_reserved(n, 0)` is exactly [`Pool::new`].
    pub fn with_reserved(threads: usize, reserved: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let reserved = reserved.min(threads - 1);
        let inner = Arc::new(PoolInner {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed), // ordering: relaxed id allocation; uniqueness needs only atomicity
            injector: Mutex::new(VecDeque::new()),
            high: Mutex::new(VecDeque::new()),
            reserved,
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            lot: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            steal_cursor: AtomicUsize::new(0),
            counters: (0..=threads).map(|_| Counters::default()).collect(),
        });
        let handles = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let name = if inner.is_reserved(i) {
                    format!("serve-reserved-{i}")
                } else {
                    format!("serve-worker-{i}")
                };
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || inner.worker_loop(i))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool {
            owner: Arc::new(PoolOwner {
                inner,
                handles: Mutex::new(handles),
            }),
        }
    }

    /// The process-wide pool: `SERVE_THREADS` workers when set, else
    /// [`std::thread::available_parallelism`]. Built on first use and never
    /// torn down.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// Number of worker threads (ordinary + reserved).
    pub fn threads(&self) -> usize {
        self.owner.inner.deques.len()
    }

    /// Number of workers reserved for the high lane (0 unless built with
    /// [`Pool::with_reserved`]).
    pub fn reserved_threads(&self) -> usize {
        self.owner.inner.reserved
    }

    /// Snapshot of the per-worker scheduling counters — executed/stolen
    /// tasks, empty-handed steal scans, parks/unparks — plus the
    /// external-helper row. Counters are cumulative for the pool's
    /// lifetime.
    pub fn stats(&self) -> PoolStats {
        let inner = &self.owner.inner;
        let read = |c: &Counters| WorkerStats {
            // ordering: relaxed counter reads — the snapshot is telemetry, not a sync point.
            executed: c.executed.load(Ordering::Relaxed),
            stolen: c.stolen.load(Ordering::Relaxed),
            steal_failures: c.steal_failures.load(Ordering::Relaxed),
            parks: c.parks.load(Ordering::Relaxed),
            unparks: c.unparks.load(Ordering::Relaxed),
        };
        let threads = inner.deques.len();
        PoolStats {
            workers: inner.counters[..threads].iter().map(read).collect(),
            external: read(&inner.counters[threads]),
        }
    }

    /// Runs a detached `'static` task on the pool (fire-and-forget).
    /// Panics in `f` are swallowed; use [`Pool::scope`] for propagation.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.owner.inner.push_task(Box::new(f));
    }

    /// Runs a detached task on the **high lane**: every worker prefers it
    /// over injector work, and it is the only kind of task the reserved
    /// workers of a [`Pool::with_reserved`] pool will run. With no
    /// reserved workers this is simply a front-of-line [`Pool::spawn`].
    pub fn spawn_high(&self, f: impl FnOnce() + Send + 'static) {
        self.owner.inner.push_high(Box::new(f));
    }

    /// Runs `op` with a [`Scope`] onto which borrowed tasks can be
    /// spawned; returns once every spawned task (transitively) finished.
    /// While waiting, the calling thread executes pool tasks itself, so
    /// scopes opened from inside pool tasks make progress instead of
    /// deadlocking. The first panic from `op` or any task is resumed here.
    ///
    /// The two lifetimes mirror [`std::thread::scope`]: `'env` is the
    /// borrowed environment tasks may capture, `'scope` the scope itself.
    pub fn scope<'env, R>(
        &self,
        op: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    ) -> R {
        let scope = Scope {
            inner: Arc::clone(&self.owner.inner),
            state: Arc::new(ScopeState::default()),
            scope_marker: PhantomData,
            env_marker: PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| op(&scope)));
        self.help_until_done(&scope.state);
        // `op`'s own panic wins; otherwise surface the first task panic.
        match result {
            Err(p) => panic::resume_unwind(p),
            Ok(r) => {
                let task_panic = scope
                    .state
                    .panic
                    .lock()
                    .expect("panic slot poisoned")
                    .take();
                if let Some(p) = task_panic {
                    panic::resume_unwind(p);
                }
                r
            }
        }
    }

    /// Maps `f` over `items` on the pool, preserving order. Inputs shorter
    /// than 4 elements (or a single-worker pool) run sequentially on the
    /// caller — the small-input fast path. The caller participates in the
    /// map, so nested calls from pool workers are safe and make progress.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let n = items.len();
        if n < 4 || self.threads() <= 1 {
            return items.iter().map(&f).collect();
        }
        // Helpers claim indices from a shared cursor: granularity is one
        // item, so skewed per-item costs balance across workers naturally.
        // Each participant accumulates `(index, value)` locally and merges
        // once at the end — no per-item synchronization.
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
        let drain = |()| {
            let mut local: Vec<(usize, U)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed); // ordering: relaxed work-claim index; results merge under the collector mutex
                if i >= n {
                    break;
                }
                local.push((i, f(&items[i])));
            }
            collected.lock().expect("collector poisoned").extend(local);
        };
        let helpers = self.threads().min(n).saturating_sub(1);
        self.scope(|s| {
            for _ in 0..helpers {
                s.spawn(|| drain(()));
            }
            drain(()); // the caller is the final participant
        });
        let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
        for (i, v) in collected.into_inner().expect("collector poisoned") {
            out[i] = Some(v);
        }
        out.into_iter()
            .map(|v| v.expect("par_map slot left unfilled"))
            .collect()
    }

    /// Executes queued tasks until `state` reports zero pending, napping
    /// only when there is nothing to help with.
    fn help_until_done(&self, state: &ScopeState) {
        let inner = &self.owner.inner;
        let own = WORKER
            .with(|w| w.get())
            .filter(|(id, _)| *id == inner.id)
            .map(|(_, i)| i);
        loop {
            if state.idle() {
                return;
            }
            if let Some((task, stolen)) = inner.find_task(own) {
                inner.run_task(own, task, stolen);
                continue;
            }
            let pending = state.pending.lock().expect("pending poisoned");
            if *pending == 0 {
                return;
            }
            let _ = state
                .done
                .wait_timeout(pending, IDLE_RECHECK)
                .expect("pending poisoned");
        }
    }
}

/// The global pool's worker-thread count: `SERVE_THREADS` when set, else
/// [`std::thread::available_parallelism`], clamped to `[1, 256]`.
fn default_threads() -> usize {
    std::env::var("SERVE_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, MAX_THREADS)
}

#[derive(Default)]
struct ScopeState {
    /// Tasks spawned but not yet finished (transitively: a task that
    /// spawns holds its own count until it returns, so this only reaches
    /// zero when the whole task tree is done).
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by any task of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl ScopeState {
    fn idle(&self) -> bool {
        *self.pending.lock().expect("pending poisoned") == 0
    }
}

/// Spawn surface handed to [`Pool::scope`] closures. Tasks may borrow
/// anything in the caller's environment (`'env`) as well as the scope
/// itself (`'scope`), enabling tasks that spawn further scope tasks.
pub struct Scope<'scope, 'env: 'scope> {
    inner: Arc<PoolInner>,
    state: Arc<ScopeState>,
    scope_marker: PhantomData<&'scope mut &'scope ()>,
    env_marker: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns `f` onto the pool. May be called from inside other tasks of
    /// the same scope (the scope stays open until all of them finish).
    pub fn spawn<F: FnOnce() + Send + 'scope>(&'scope self, f: F) {
        *self.state.pending.lock().expect("pending poisoned") += 1;
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(f)) {
                state
                    .panic
                    .lock()
                    .expect("panic slot poisoned")
                    .get_or_insert(p);
            }
            let mut pending = state.pending.lock().expect("pending poisoned");
            *pending -= 1;
            if *pending == 0 {
                drop(pending);
                state.done.notify_all();
            }
        });
        // SAFETY: erasing `'scope` to `'static` is sound because
        // `Pool::scope` does not return (normally or by unwind) until
        // `pending` reaches zero, which happens only after every spawned
        // closure has run to completion and dropped — i.e. every borrow
        // carried by `f` is dead before the borrowed frame can be popped.
        // Both trait objects have identical (fat-pointer) layout; only the
        // lifetime parameter differs.
        #[allow(unsafe_code)]
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) }; // conformance: allow(unsafe-islands) — the one sanctioned scope-transmute
        self.inner.push_task(task);
    }
}

/// Maps `f` over `items` on the [global pool](Pool::global), preserving
/// order — the drop-in replacement for the scoped-thread `par_map` this
/// module retires.
pub fn par_map_pooled<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    Pool::global().par_map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    #[test]
    fn par_map_preserves_order_and_values() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..257).collect();
        let out = pool.par_map(&items, |&x| x * 3);
        assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn small_inputs_run_sequentially() {
        let pool = Pool::new(4);
        let tid = std::thread::current().id();
        let out = pool.par_map(&[1, 2, 3], |&x: &i32| {
            assert_eq!(std::thread::current().id(), tid, "must stay on caller");
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
        let empty: Vec<i32> = pool.par_map(&[] as &[i32], |&x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn work_stealing_balances_skewed_task_sizes() {
        // One 80 ms task plus 40 tiny ones on 4 workers: if the tiny tasks
        // queued behind the big one with no stealing, wall-clock would be
        // ~80 ms + 40·2 ms = 160 ms. With stealing the tiny tasks drain on
        // the other workers while one worker chews the big task.
        let pool = Pool::new(4);
        let mut durations = vec![80u64];
        durations.extend(std::iter::repeat_n(2u64, 40));
        let t0 = Instant::now();
        let out = pool.par_map(&durations, |&ms| {
            std::thread::sleep(Duration::from_millis(ms));
            ms
        });
        let elapsed = t0.elapsed();
        assert_eq!(out.len(), 41);
        assert!(
            elapsed < Duration::from_millis(140),
            "skewed map took {elapsed:?}; stealing is not balancing"
        );
    }

    #[test]
    fn panic_propagates_to_caller() {
        let pool = Pool::new(2);
        let items: Vec<usize> = (0..64).collect();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&x| {
                if x == 33 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 33"), "got {msg:?}");
        // The pool survives a propagated panic.
        assert_eq!(pool.par_map(&items, |&x| x), items);
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        // Depth-2 nesting on a pool smaller than the fan-out: inner maps
        // run from inside worker tasks and must help instead of blocking.
        let pool = Pool::new(2);
        let outer: Vec<usize> = (0..8).collect();
        let pool2 = pool.clone();
        let out = pool.par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..8).collect();
            pool2.par_map(&inner, |&j| i * 10 + j).iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn scope_runs_borrowing_tasks() {
        let pool = Pool::new(3);
        let counter = AtomicUsize::new(0);
        let data = vec![1usize, 2, 3, 4, 5];
        let counter_ref = &counter;
        pool.scope(|s| {
            for &v in &data {
                s.spawn(move || {
                    counter_ref.fetch_add(v, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn scope_tasks_can_spawn_more_scope_tasks() {
        let pool = Pool::new(2);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
                s.spawn(|| {
                    counter.fetch_add(10, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn detached_spawn_runs() {
        let pool = Pool::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(move || {
            tx.send(42usize).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = Pool::new(3);
        let _ = pool.par_map(&(0..32).collect::<Vec<usize>>(), |&x| x);
        drop(pool); // must not hang
    }

    #[test]
    fn stats_count_every_executed_task() {
        let pool = Pool::new(3);
        let items: Vec<usize> = (0..100).collect();
        let _ = pool.par_map(&items, |&x| x + 1);
        let stats = pool.stats();
        // par_map spawns `threads.min(n) - 1` helper tasks; every one of
        // them was claimed through find_task and counted exactly once.
        assert_eq!(stats.total_executed(), 2, "helpers spawned by par_map");
        assert_eq!(stats.workers.len(), 3);
        assert!(stats.total_stolen() <= stats.total_executed());
    }

    #[test]
    fn skewed_spawns_register_steals() {
        // Four spawner tasks each enqueue 8 sleepy children and then hold
        // their thread for 30 ms. At most one spawner runs on the helping
        // caller (children → injector); the other ≥ 3 run on workers, so
        // their children sit in worker deques whose owners are asleep —
        // the only way those children execute in time is theft, which the
        // counters must record.
        let pool = Pool::new(4);
        let done = AtomicUsize::new(0);
        let done_ref = &done;
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    for _ in 0..8 {
                        s.spawn(|| {
                            std::thread::sleep(Duration::from_millis(3));
                            done_ref.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    std::thread::sleep(Duration::from_millis(30));
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 32);
        let stats = pool.stats();
        assert_eq!(stats.total_executed(), 36);
        assert!(
            stats.total_stolen() >= 1,
            "deque-local children of sleeping owners must be stolen: {stats:?}"
        );
    }

    #[test]
    fn idle_workers_park_and_account_for_it() {
        let pool = Pool::new(2);
        let items: Vec<usize> = (0..64).collect();
        let _ = pool.par_map(&items, |&x| x);
        // Let the workers drain and go back to sleep.
        std::thread::sleep(Duration::from_millis(30));
        let stats = pool.stats();
        assert!(
            stats.total_parks() >= 1,
            "idle workers must park, not spin: {stats:?}"
        );
        for w in &stats.workers {
            assert!(
                w.steal_failures >= w.parks,
                "every park is preceded by an empty-handed scan: {stats:?}"
            );
            assert!(w.unparks <= w.parks, "unpark without a park: {stats:?}");
        }
        assert_eq!(stats.external.parks, 0, "external helpers never park");
        assert_eq!(stats.external.unparks, 0);
    }

    #[test]
    fn reserved_workers_never_run_ordinary_tasks() {
        let pool = Pool::with_reserved(2, 1);
        assert_eq!(pool.threads(), 2);
        assert_eq!(pool.reserved_threads(), 1);
        let names: Arc<Mutex<Vec<(bool, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..32 {
            let high = i % 4 == 0;
            let names = Arc::clone(&names);
            let tx = tx.clone();
            let task = move || {
                let name = std::thread::current().name().unwrap_or("").to_string();
                names.lock().unwrap().push((high, name));
                tx.send(()).unwrap();
            };
            if high {
                pool.spawn_high(task);
            } else {
                pool.spawn(task);
            }
        }
        for _ in 0..32 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        for (high, name) in names.lock().unwrap().iter() {
            if !high {
                assert!(
                    !name.starts_with("serve-reserved"),
                    "ordinary task ran on the reserved lane ({name})"
                );
            }
        }
    }

    #[test]
    fn high_lane_probe_overtakes_deep_ordinary_backlog() {
        // One ordinary worker chews a ~240 ms backlog of sleepy tasks;
        // a high-lane probe submitted after the backlog must complete on
        // the reserved worker in roughly its own service time.
        let pool = Pool::with_reserved(2, 1);
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..8 {
            pool.spawn(|| std::thread::sleep(Duration::from_millis(30)));
        }
        let t0 = Instant::now();
        pool.spawn_high(move || {
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let waited = t0.elapsed();
        assert!(
            waited < Duration::from_millis(100),
            "high probe waited {waited:?} behind the ordinary backlog"
        );
    }

    #[test]
    fn spawn_high_works_without_reserved_workers() {
        let pool = Pool::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn_high(move || {
            tx.send(7usize).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
        // par_map still balances on a reserved-lane pool: the reserved
        // worker abstains, but the ordinary workers and the caller help.
        let pool = Pool::with_reserved(3, 1);
        let items: Vec<usize> = (0..64).collect();
        assert_eq!(pool.par_map(&items, |&x| x + 1).len(), 64);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = Pool::global();
        let b = Pool::global();
        assert!(Arc::ptr_eq(&a.owner, &b.owner));
        assert!(a.threads() >= 1);
    }
}

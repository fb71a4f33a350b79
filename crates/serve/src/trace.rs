//! Low-overhead structured tracing for the serving stack, plus the
//! log-linear [`Histogram`] the per-stage latency breakdowns ride on.
//!
//! ## Lifecycle events
//!
//! Every request carries a process-unique id (the async front-end's
//! ticket number); this module uses it as the **correlation id** for a
//! [`TraceEvent`] stream covering the whole request path: `Submit` →
//! `Admit` → `Enqueue{depth}` at the front door, `PolicyPick{policy,
//! batch_size}` on the scheduler thread, `BatchStart`/`BatchEnd` around
//! the batch function on a pool worker, `Complete` at delivery — with
//! `Shed{reason}` wherever a request leaves early, and `TaskEnd`
//! run/steal spans from the pool workers so scheduler decisions and
//! worker occupancy land on the same timeline.
//!
//! Events are recorded into **fixed-capacity per-thread ring buffers**
//! with monotonic timestamps (nanoseconds since a process-wide epoch).
//! Each thread owns its ring, so recording is an uncontended mutex plus
//! a ring-slot write; when a ring wraps, the oldest events are
//! overwritten — the newest always survive. Rings grow lazily up to
//! [`ring_capacity`] events (`TRACE_RING_CAP`, default 4096), so a
//! thread that records three events costs three slots, not a
//! pre-allocated ring.
//!
//! ## Gating
//!
//! Tracing is **off by default**. The `SERVE_TRACE` environment
//! variable (any non-empty value other than `"0"`) enables it at
//! startup; [`set_enabled`] flips it at runtime (the overhead benchmark
//! uses this to A/B the same process). The flag is a `OnceLock`'d
//! `AtomicBool` — same pattern as `lp::simd`'s kernel-tier gate — so the
//! disabled hot path is one predictable branch on a relaxed load, and
//! disabled-mode threads never allocate a ring at all.
//!
//! ## Export
//!
//! [`export_chrome`] renders every ring as Chrome trace-event JSON
//! (loadable in `chrome://tracing` and Perfetto): registration queues
//! become named tracks carrying the lifecycle instants, batches and pool
//! tasks become duration slices, and each request's `Submit` → `Complete`
//! pair becomes a flow arrow across tracks. The Prometheus face lives on
//! the server ([`Server::metrics_text`](crate::server::Server::metrics_text)),
//! which renders the per-registration counters and stage histograms in
//! text exposition format.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Environment variable that enables tracing at startup (any non-empty
/// value other than `"0"`).
pub const TRACE_ENV: &str = "SERVE_TRACE";

/// Environment variable bounding each per-thread ring (events), clamped
/// to `[64, 1048576]`; default 4096.
pub const RING_CAP_ENV: &str = "TRACE_RING_CAP";

/// Why a request left the system without a response payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Refused at admission: the registration's queue cap was reached.
    Cap,
    /// Accepted but outwaited its deadline budget; shed at dispatch.
    Deadline,
    /// Refused at submit: the overload predictor estimated the queue
    /// wait would already exceed the deadline budget.
    Predicted,
    /// Withdrawn because the server began shutting down mid-submit.
    Shutdown,
    /// Withdrawn because the registration was removed mid-submit.
    Deregistered,
}

impl ShedReason {
    /// Stable lowercase label (used in trace args and metric labels).
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::Cap => "cap",
            ShedReason::Deadline => "deadline",
            ShedReason::Predicted => "predicted",
            ShedReason::Shutdown => "shutdown",
            ShedReason::Deregistered => "deregistered",
        }
    }
}

/// One lifecycle or executor event. Request-scoped variants are
/// correlated by the process-unique request id riding in the enclosing
/// [`TraceRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A submission entered `submit_to` (before admission control).
    Submit,
    /// The submission claimed an admission slot.
    Admit,
    /// The request left without a response ([`ShedReason`]).
    Shed {
        /// Why it was shed.
        reason: ShedReason,
    },
    /// The request was appended to its registration queue.
    Enqueue {
        /// Queue depth observed at enqueue, including this request.
        depth: u32,
    },
    /// The scheduling policy picked this registration's due queue.
    PolicyPick {
        /// Name of the scheduling policy that made the pick.
        policy: &'static str,
        /// Size of the batch the pick dispatched.
        batch_size: u32,
    },
    /// A dispatched batch began executing on a pool worker.
    BatchStart {
        /// Requests in the batch.
        batch_size: u32,
    },
    /// The batch function returned.
    BatchEnd {
        /// Requests in the batch.
        batch_size: u32,
        /// Batch-function wall time in nanoseconds.
        service_ns: u64,
    },
    /// The request's response was handed to its completion queue.
    Complete,
    /// A pool participant finished running one task (the run/steal span;
    /// the recording thread identifies the worker).
    TaskEnd {
        /// Task wall time in nanoseconds.
        run_ns: u64,
        /// Whether the task was stolen from another worker's deque.
        stolen: bool,
    },
    /// A network connection was adopted by a reactor ([`crate::net`]);
    /// the record's id is the connection id and its track the
    /// connection's dedicated trace track.
    ConnOpen,
    /// A network connection was torn down by its reactor.
    ConnClose {
        /// Request frames decoded on the connection over its lifetime.
        frames_in: u64,
        /// Response frames written to the connection over its lifetime.
        frames_out: u64,
    },
}

impl TraceEvent {
    /// Stable event name (Chrome trace `name` field, test assertions).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Submit => "Submit",
            TraceEvent::Admit => "Admit",
            TraceEvent::Shed { .. } => "Shed",
            TraceEvent::Enqueue { .. } => "Enqueue",
            TraceEvent::PolicyPick { .. } => "PolicyPick",
            TraceEvent::BatchStart { .. } => "BatchStart",
            TraceEvent::BatchEnd { .. } => "BatchEnd",
            TraceEvent::Complete => "Complete",
            TraceEvent::TaskEnd { .. } => "TaskEnd",
            TraceEvent::ConnOpen => "ConnOpen",
            TraceEvent::ConnClose { .. } => "ConnClose",
        }
    }
}

/// A timestamped [`TraceEvent`] as stored in a ring.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// Monotonic timestamp: nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Request id for request-scoped events (`Submit`, `Admit`, `Shed`,
    /// `Enqueue`, `Complete`); 0 and meaningless otherwise.
    pub id: u64,
    /// Registration track for queue events (the registration's stable
    /// id); the recording thread's identity carries the rest.
    pub track: u64,
    /// What happened.
    pub event: TraceEvent,
}

/// The shared enabled flag: initialized once from [`TRACE_ENV`], then
/// flippable at runtime ([`set_enabled`]).
fn flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let on = std::env::var(TRACE_ENV)
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        AtomicBool::new(on)
    })
}

/// Whether tracing is currently enabled. The disabled path of every
/// recording hook is this one relaxed load and a branch.
#[inline]
pub fn enabled() -> bool {
    flag().load(Ordering::Relaxed) // ordering: advisory gate; a stale read only delays enable/disable
}

/// Enables or disables tracing at runtime, overriding the [`TRACE_ENV`]
/// startup value. The overhead benchmark uses this to measure traced vs
/// untraced throughput in one process.
pub fn set_enabled(on: bool) {
    flag().store(on, Ordering::Relaxed); // ordering: advisory gate; a stale read only delays enable/disable
}

/// Per-thread ring capacity in events: [`RING_CAP_ENV`] clamped to
/// `[64, 1048576]`, default 4096. Read once per process.
pub fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var(RING_CAP_ENV)
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .map_or(4096, |n| n.clamp(64, 1 << 20))
    })
}

/// The process-wide trace epoch (first use wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One thread's fixed-capacity event ring.
struct Ring {
    /// Name of the owning thread at ring creation (export track label).
    thread: String,
    /// Export thread id (registration order, starting at 1).
    tid: u64,
    cap: usize,
    state: Mutex<RingState>,
}

#[derive(Default)]
struct RingState {
    /// Grows lazily to `cap`, then becomes a circular buffer.
    buf: Vec<TraceRecord>,
    /// Oldest slot once the buffer has wrapped.
    head: usize,
    /// Events ever recorded (including overwritten ones).
    recorded: u64,
}

impl Ring {
    fn push(&self, rec: TraceRecord) {
        let mut st = self.state.lock().expect("trace ring poisoned");
        if st.buf.len() < self.cap {
            st.buf.push(rec);
        } else {
            let head = st.head;
            st.buf[head] = rec;
            st.head = (head + 1) % self.cap;
        }
        st.recorded += 1;
    }

    /// Events oldest-first.
    fn in_order(&self) -> (Vec<TraceRecord>, u64) {
        let st = self.state.lock().expect("trace ring poisoned");
        let mut v = Vec::with_capacity(st.buf.len());
        v.extend_from_slice(&st.buf[st.head..]);
        v.extend_from_slice(&st.buf[..st.head]);
        (v, st.recorded)
    }

    fn clear(&self) {
        let mut st = self.state.lock().expect("trace ring poisoned");
        st.buf.clear();
        st.head = 0;
        st.recorded = 0;
    }
}

/// Every ring ever created, kept alive past thread death so export sees
/// the full timeline.
fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registration-track names (`track` → `"model/scenario"`), fed by
/// `Server::register` so exports can label queue tracks.
fn track_names() -> &'static Mutex<HashMap<u64, String>> {
    static NAMES: OnceLock<Mutex<HashMap<u64, String>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(HashMap::new()))
}

thread_local! {
    static THREAD_RING: std::cell::OnceCell<Arc<Ring>> =
        const { std::cell::OnceCell::new() };
}

/// The calling thread's ring, created and registered on first use.
fn thread_ring() -> Arc<Ring> {
    THREAD_RING.with(|cell| {
        Arc::clone(cell.get_or_init(|| {
            let name = std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string();
            // Assign the export tid under the registry lock so tids are
            // dense and unique.
            let mut rings = registry().lock().expect("trace registry poisoned");
            let ring = Arc::new(Ring {
                thread: name,
                tid: rings.len() as u64 + 1,
                cap: ring_capacity(),
                state: Mutex::new(RingState::default()),
            });
            rings.push(Arc::clone(&ring));
            ring
        }))
    })
}

/// Records one event on the calling thread's ring. The disabled path is
/// one branch; the enabled path is a timestamp, an uncontended lock and
/// a slot write.
#[inline]
pub(crate) fn record(id: u64, track: u64, event: TraceEvent) {
    if !enabled() {
        return;
    }
    record_enabled(id, track, event);
}

#[cold]
fn record_enabled(id: u64, track: u64, event: TraceEvent) {
    thread_ring().push(TraceRecord {
        ts_ns: now_ns(),
        id,
        track,
        event,
    });
}

/// Names a registration track for exports (`"model/scenario"`). Called
/// once per registration — control-plane rate, so it is recorded even
/// while tracing is disabled (a later [`set_enabled`] must not produce
/// unlabeled tracks).
pub(crate) fn name_track(track: u64, name: String) {
    track_names()
        .lock()
        .expect("trace names poisoned")
        .insert(track, name);
}

/// Whether the calling thread has allocated a trace ring — the
/// observable for "disabled mode allocates no rings".
pub fn has_thread_ring() -> bool {
    THREAD_RING.with(|cell| cell.get().is_some())
}

/// Point-in-time totals over every ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Rings allocated so far (one per thread that recorded while
    /// enabled).
    pub rings: usize,
    /// Events ever recorded, including ones a wrap has overwritten.
    pub recorded: u64,
    /// Per-ring capacity in events.
    pub ring_capacity: usize,
}

/// Totals over every ring (rings, events recorded, capacity).
pub fn stats() -> TraceStats {
    let rings = registry().lock().expect("trace registry poisoned");
    let recorded = rings
        .iter()
        .map(|r| r.state.lock().expect("trace ring poisoned").recorded)
        .sum();
    TraceStats {
        rings: rings.len(),
        recorded,
        ring_capacity: ring_capacity(),
    }
}

/// One thread's retained events, oldest-first.
#[derive(Debug, Clone)]
pub struct ThreadEvents {
    /// Name of the thread that owns the ring.
    pub thread: String,
    /// Export thread id (dense, starting at 1).
    pub tid: u64,
    /// Events still held by the ring, oldest-first.
    pub events: Vec<TraceRecord>,
    /// Events ever recorded on this ring (≥ `events.len()`).
    pub recorded: u64,
}

/// Copies out every ring's retained events, grouped by thread and
/// oldest-first within each thread.
pub fn snapshot() -> Vec<ThreadEvents> {
    let rings: Vec<Arc<Ring>> = registry()
        .lock()
        .expect("trace registry poisoned")
        .iter()
        .map(Arc::clone)
        .collect();
    rings
        .iter()
        .map(|r| {
            let (events, recorded) = r.in_order();
            ThreadEvents {
                thread: r.thread.clone(),
                tid: r.tid,
                events,
                recorded,
            }
        })
        .collect()
}

/// Empties every ring (the rings stay registered; capacities are
/// unchanged). The benchmark uses this to capture a clean window.
pub fn clear() {
    for r in registry().lock().expect("trace registry poisoned").iter() {
        r.clear();
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Export tid for a registration queue track (worker rings use their
/// dense ids starting at 1; queue tracks sit far above them).
const QUEUE_TID_BASE: u64 = 1000;

/// Renders every ring as Chrome trace-event JSON, loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev):
///
/// * each **registration queue** is a named track (`queue model/scenario`)
///   carrying the lifecycle instants (`Submit`, `Admit`, `Shed`,
///   `Enqueue`, `PolicyPick`) and `batch` duration slices;
/// * each **thread** that recorded events is a track carrying its pool
///   `task` run/steal slices;
/// * each request that reached `Complete` contributes a **flow arrow**
///   (`ph: "s"` at `Submit` → `ph: "f"` at `Complete`) keyed by the
///   process-unique request id.
///
/// Timestamps are microseconds since the process trace epoch.
pub fn export_chrome() -> String {
    let rings = snapshot();
    let names = track_names().lock().expect("trace names poisoned").clone();
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&line);
    };
    push(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
         \"args\": {\"name\": \"serve\"}}"
            .to_string(),
        &mut out,
    );
    for r in &rings {
        push(
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                r.tid,
                json_escape(&r.thread)
            ),
            &mut out,
        );
    }
    // Queue tracks referenced by any event get a name (registered name
    // when known, the raw track id otherwise).
    let mut queue_tracks: Vec<u64> = rings
        .iter()
        .flat_map(|r| r.events.iter())
        .filter(|e| !matches!(e.event, TraceEvent::TaskEnd { .. }))
        .map(|e| e.track)
        .collect();
    queue_tracks.sort_unstable();
    queue_tracks.dedup();
    for &t in &queue_tracks {
        let label = names
            .get(&t)
            .map_or_else(|| format!("queue #{t}"), |n| format!("queue {n}"));
        push(
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                QUEUE_TID_BASE + t,
                json_escape(&label)
            ),
            &mut out,
        );
    }
    for r in &rings {
        for e in &r.events {
            let us = e.ts_ns as f64 / 1e3;
            let line = match e.event {
                TraceEvent::Submit => format!(
                    "{{\"name\": \"Submit\", \"cat\": \"request\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}}}}},\n  \
                     {{\"name\": \"req\", \"cat\": \"request\", \"ph\": \"s\", \"id\": {}, \
                     \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}}}",
                    QUEUE_TID_BASE + e.track,
                    e.id,
                    e.id,
                    QUEUE_TID_BASE + e.track,
                ),
                TraceEvent::Admit => format!(
                    "{{\"name\": \"Admit\", \"cat\": \"request\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}}}}}",
                    QUEUE_TID_BASE + e.track,
                    e.id,
                ),
                TraceEvent::Shed { reason } => format!(
                    "{{\"name\": \"Shed\", \"cat\": \"request\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}, \
                     \"args\": {{\"id\": {}, \"reason\": \"{}\"}}}}",
                    QUEUE_TID_BASE + e.track,
                    e.id,
                    reason.as_str(),
                ),
                TraceEvent::Enqueue { depth } => format!(
                    "{{\"name\": \"Enqueue\", \"cat\": \"request\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}, \
                     \"args\": {{\"id\": {}, \"depth\": {depth}}}}}",
                    QUEUE_TID_BASE + e.track,
                    e.id,
                ),
                TraceEvent::PolicyPick { policy, batch_size } => format!(
                    "{{\"name\": \"PolicyPick\", \"cat\": \"sched\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}, \
                     \"args\": {{\"policy\": \"{}\", \"batch_size\": {batch_size}}}}}",
                    QUEUE_TID_BASE + e.track,
                    json_escape(policy),
                ),
                TraceEvent::BatchStart { batch_size } => format!(
                    "{{\"name\": \"BatchStart\", \"cat\": \"batch\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}, \
                     \"args\": {{\"batch_size\": {batch_size}}}}}",
                    QUEUE_TID_BASE + e.track,
                ),
                TraceEvent::BatchEnd {
                    batch_size,
                    service_ns,
                } => {
                    let dur_us = service_ns as f64 / 1e3;
                    let start_us = (e.ts_ns.saturating_sub(service_ns)) as f64 / 1e3;
                    format!(
                        "{{\"name\": \"batch\", \"cat\": \"batch\", \"ph\": \"X\", \
                         \"ts\": {start_us:.3}, \"dur\": {dur_us:.3}, \"pid\": 1, \"tid\": {}, \
                         \"args\": {{\"batch_size\": {batch_size}}}}}",
                        QUEUE_TID_BASE + e.track,
                    )
                }
                TraceEvent::Complete => format!(
                    "{{\"name\": \"Complete\", \"cat\": \"request\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}}}}},\n  \
                     {{\"name\": \"req\", \"cat\": \"request\", \"ph\": \"f\", \"bp\": \"e\", \
                     \"id\": {}, \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}}}",
                    QUEUE_TID_BASE + e.track,
                    e.id,
                    e.id,
                    QUEUE_TID_BASE + e.track,
                ),
                TraceEvent::TaskEnd { run_ns, stolen } => {
                    let dur_us = run_ns as f64 / 1e3;
                    let start_us = (e.ts_ns.saturating_sub(run_ns)) as f64 / 1e3;
                    format!(
                        "{{\"name\": \"task\", \"cat\": \"pool\", \"ph\": \"X\", \
                         \"ts\": {start_us:.3}, \"dur\": {dur_us:.3}, \"pid\": 1, \"tid\": {}, \
                         \"args\": {{\"stolen\": {stolen}}}}}",
                        r.tid,
                    )
                }
                TraceEvent::ConnOpen => format!(
                    "{{\"name\": \"ConnOpen\", \"cat\": \"net\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"conn\": {}}}}}",
                    QUEUE_TID_BASE + e.track,
                    e.id,
                ),
                TraceEvent::ConnClose {
                    frames_in,
                    frames_out,
                } => format!(
                    "{{\"name\": \"ConnClose\", \"cat\": \"net\", \"ph\": \"i\", \"s\": \"t\", \
                     \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}, \
                     \"args\": {{\"conn\": {}, \"frames_in\": {frames_in}, \
                     \"frames_out\": {frames_out}}}}}",
                    QUEUE_TID_BASE + e.track,
                    e.id,
                ),
            };
            push(line, &mut out);
        }
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------

/// Sub-bucket resolution: `2^SUB_BITS` linear sub-buckets per power of
/// two, bounding the relative quantization error at `2^-SUB_BITS`.
const SUB_BITS: usize = 5;
/// Sub-buckets per octave (and the width of the initial linear region).
const SUB: usize = 1 << SUB_BITS;
/// Total buckets covering the full `u64` nanosecond range.
const BUCKETS: usize = SUB + (64 - SUB_BITS) * SUB;

/// A log-linear (HDR-style) latency histogram over nanosecond values.
///
/// Values are bucketed by binary exponent with 32 linear
/// sub-buckets per octave, so every bucket's width is at most
/// [`Histogram::RELATIVE_ERROR`] (= 1/32 ≈ 3.1%) of the values it holds:
/// quantiles come back within ~3.1% of the true value, at any scale from
/// 1 ns to hours, from a fixed ~15 KiB table. `record` and `merge` are
/// O(1) and O(buckets) respectively, and the bucket counts are
/// **exact**: every recorded value lands in exactly one bucket forever,
/// so quantile ranks never decay with volume and merged histograms
/// answer exactly as one histogram fed every value. It is the serving
/// stack's one latency store ([`crate::stats`]).
///
/// # Examples
///
/// ```
/// use serve::trace::Histogram;
/// use std::time::Duration;
///
/// let mut h = Histogram::new();
/// for ms in [1u64, 2, 3, 4, 100] {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 5);
/// let p99 = h.quantile(99.0);
/// assert!((p99 - 0.1).abs() / 0.1 <= Histogram::RELATIVE_ERROR);
/// ```
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: f64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean_s", &self.mean_s())
            .field("max_s", &self.max_s())
            .finish()
    }
}

/// Bucket index for a nanosecond value (total order, O(1)).
fn index_for(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let p = 63 - ns.leading_zeros() as usize; // p >= SUB_BITS
    let off = ((ns >> (p - SUB_BITS)) - SUB as u64) as usize;
    SUB + (p - SUB_BITS) * SUB + off
}

/// Lower bound and width of bucket `idx` in nanoseconds.
fn bucket_lower_width(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let block = (idx - SUB) / SUB;
    let off = (idx - SUB) % SUB;
    (((SUB + off) as u64) << block, 1u64 << block)
}

impl Histogram {
    /// Worst-case relative width of any bucket: quantile estimates are
    /// within this factor of the true value.
    pub const RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0.0,
            max_ns: 0,
        }
    }

    /// Records one duration (O(1)).
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one nanosecond value (O(1)).
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[index_for(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as f64;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records one value given in seconds (negative values clamp to 0).
    pub fn record_secs(&mut self, s: f64) {
        let ns = (s.max(0.0) * 1e9).min(u64::MAX as f64);
        self.record_ns(ns as u64);
    }

    /// Adds every bucket of `other` into `self` (O(buckets), no
    /// precision loss — the shared bucket grid makes merge exact).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Length of the bucket table (fixed at construction).
    #[cfg(test)]
    pub(crate) fn table_len(&self) -> usize {
        self.counts.len()
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values, in seconds.
    pub fn sum_s(&self) -> f64 {
        self.sum_ns / 1e9
    }

    /// Exact mean in seconds (0.0 if empty).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns / self.count as f64 / 1e9
        }
    }

    /// Largest recorded value in seconds (exact, not bucketed).
    pub fn max_s(&self) -> f64 {
        self.max_ns as f64 / 1e9
    }

    /// Nearest-rank `q`-percentile in seconds over the **exact** bucket
    /// counts, reported as the midpoint of the rank's bucket — within
    /// [`Histogram::RELATIVE_ERROR`] of the true order statistic.
    /// Returns 0.0 on an empty histogram; monotone in `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = (((q / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let (lower, width) = bucket_lower_width(idx);
                return (lower as f64 + width as f64 / 2.0) / 1e9;
            }
        }
        self.max_s()
    }

    /// Cumulative bucket boundaries for text exposition: `(upper bound
    /// in seconds, values strictly below it)` at every power-of-two
    /// nanosecond boundary spanning the recorded range, coarse enough to
    /// print (≤ ~40 lines) while staying exact at each boundary. Empty
    /// if nothing was recorded.
    pub fn cumulative_octaves(&self) -> Vec<(f64, u64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let lo = self
            .counts
            .iter()
            .position(|&c| c > 0)
            .map(|idx| bucket_lower_width(idx).0)
            .unwrap_or(1);
        // First power of two strictly above the smallest bucket's lower
        // bound, through the first one covering the max.
        let mut k = 63 - lo.max(1).leading_zeros();
        let mut out = Vec::new();
        loop {
            k += 1;
            if k >= 64 {
                break;
            }
            let bound = 1u64 << k;
            let below: u64 = self.counts[..index_for(bound)].iter().sum();
            out.push((bound as f64 / 1e9, below));
            if bound > self.max_ns {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global enabled flag.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        match GUARD.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn ring_wraparound_keeps_newest_in_order() {
        let ring = Ring {
            thread: "t".into(),
            tid: 99,
            cap: 8,
            state: Mutex::new(RingState::default()),
        };
        for i in 0..20u64 {
            ring.push(TraceRecord {
                ts_ns: i,
                id: i,
                track: 0,
                event: TraceEvent::Submit,
            });
        }
        let (events, recorded) = ring.in_order();
        assert_eq!(recorded, 20, "every push counted, even overwritten ones");
        assert_eq!(events.len(), 8, "capacity bounds retention");
        let ids: Vec<u64> = events.iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            (12..20).collect::<Vec<_>>(),
            "newest survive, in order"
        );
    }

    #[test]
    fn disabled_mode_records_nothing_and_allocates_no_ring() {
        let _g = guard();
        let prior = enabled();
        set_enabled(false);
        let before = stats();
        std::thread::spawn(|| {
            record(1, 0, TraceEvent::Submit);
            record(2, 0, TraceEvent::Complete);
            assert!(
                !has_thread_ring(),
                "disabled-mode recording must not allocate a ring"
            );
        })
        .join()
        .unwrap();
        let after = stats();
        assert_eq!(after.rings, before.rings, "no new ring registered");
        assert_eq!(after.recorded, before.recorded, "nothing recorded");
        set_enabled(prior);
    }

    #[test]
    fn enabled_threads_get_rings_with_per_thread_order() {
        let _g = guard();
        let prior = enabled();
        set_enabled(true);
        let joins: Vec<_> = (0..4)
            .map(|t| {
                std::thread::Builder::new()
                    .name(format!("trace-test-{t}"))
                    .spawn(move || {
                        for i in 0..50u64 {
                            record(t * 1000 + i, 7, TraceEvent::Enqueue { depth: i as u32 });
                        }
                        assert!(has_thread_ring());
                    })
                    .unwrap()
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        set_enabled(prior);
        let mut seen = std::collections::HashSet::new();
        let mut threads_found = 0;
        for te in snapshot() {
            if !te.thread.starts_with("trace-test-") {
                continue;
            }
            threads_found += 1;
            let mut prev = 0u64;
            for e in &te.events {
                assert!(e.ts_ns >= prev, "per-thread timestamps must be monotone");
                prev = e.ts_ns;
                assert!(seen.insert(e.id), "id {} appeared twice across rings", e.id);
            }
        }
        assert_eq!(threads_found, 4, "each enabled thread owns one ring");
        assert_eq!(seen.len(), 200, "all 200 events retained (under capacity)");
    }

    #[test]
    fn histogram_buckets_are_a_partition() {
        // index_for must be monotone and every bucket boundary exact.
        let mut prev = 0usize;
        for &ns in &[
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            1000,
            4095,
            4096,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let idx = index_for(ns);
            assert!(idx >= prev || ns == 0, "index must be monotone in value");
            let (lower, width) = bucket_lower_width(idx);
            assert!(
                lower <= ns && (ns - lower) < width,
                "value {ns} outside bucket [{lower}, {lower}+{width})"
            );
            prev = idx;
        }
        assert!(index_for(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (1..=10_000u64).map(|i| i * i).collect();
        for &v in &values {
            h.record_ns(v);
        }
        assert_eq!(h.count(), 10_000);
        for q in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = (((q / 100.0) * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1] as f64 / 1e9;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact <= Histogram::RELATIVE_ERROR,
                "q={q}: got {got}, exact {exact}"
            );
        }
        // Exact aggregates survive bucketing.
        let sum: f64 = values.iter().map(|&v| v as f64).sum();
        assert!((h.sum_s() - sum / 1e9).abs() < 1e-9);
        assert_eq!(h.max_s(), (10_000f64 * 10_000.0) / 1e9);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for i in 0..5_000u64 {
            let v = (i * 7919) % 1_000_003;
            if i % 2 == 0 {
                a.record_ns(v);
            } else {
                b.record_ns(v);
            }
            all.record_ns(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.counts, all.counts, "merge must hit identical buckets");
        assert_eq!(a.quantile(99.0), all.quantile(99.0));
    }

    #[test]
    fn histogram_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.quantile(50.0), 0.0, "empty histogram");
        assert_eq!(h.mean_s(), 0.0);
        assert!(h.cumulative_octaves().is_empty());
        let mut h = Histogram::new();
        h.record(Duration::from_micros(3));
        for q in [0.0, 50.0, 100.0] {
            let got = h.quantile(q);
            assert!(
                (got - 3e-6).abs() / 3e-6 <= Histogram::RELATIVE_ERROR,
                "single sample at any q: {got}"
            );
        }
        let octaves = h.cumulative_octaves();
        assert!(!octaves.is_empty());
        assert_eq!(octaves.last().unwrap().1, 1, "last boundary covers all");
        // Cumulative counts are monotone.
        for w in octaves.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn chrome_export_pairs_flow_events() {
        let _g = guard();
        let prior = enabled();
        set_enabled(true);
        clear();
        name_track(42, "m/chrome_test".to_string());
        record(777_001, 42, TraceEvent::Submit);
        record(777_001, 42, TraceEvent::Enqueue { depth: 1 });
        record(
            0,
            42,
            TraceEvent::BatchEnd {
                batch_size: 1,
                service_ns: 1_000,
            },
        );
        record(777_001, 42, TraceEvent::Complete);
        let json = export_chrome();
        set_enabled(prior);
        assert!(json.contains("\"ph\": \"s\""), "flow start missing");
        assert!(json.contains("\"ph\": \"f\""), "flow finish missing");
        assert!(json.contains("\"id\": 777001"), "correlation id missing");
        assert!(json.contains("queue m/chrome_test"), "track name missing");
        assert!(json.contains("\"ph\": \"X\""), "batch slice missing");
        // Balanced braces/brackets — the cheap structural sanity check
        // (CI parses the emitted artifact with a real JSON parser).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}

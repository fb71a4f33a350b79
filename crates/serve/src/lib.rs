//! `serve` — the serving runtime for the LP reproduction stack.
//!
//! Two layers, both free of model dependencies so the whole workspace can
//! build on them without cycles:
//!
//! * [`pool`] — a pooled work-stealing executor (fixed workers, per-worker
//!   deques plus a global injector, scoped spawns and an order-preserving
//!   [`pool::Pool::par_map`]). This replaces the scoped-thread-per-call
//!   fan-out that `dnn::data::par_map` used to spawn.
//! * [`server`] — a multi-model micro-batching inference server generic
//!   over request/response payloads: per-`(model, scenario)` queues
//!   described by a builder-style [`server::ScenarioSpec`] (admission
//!   cap, priority class, weighted-fair weight, deadline budget, batch
//!   override) and registered through the single
//!   [`server::Server::register`] entry point; a max-batch/max-wait
//!   scheduler consulting a pluggable [`sched::SchedPolicy`]
//!   ([`sched::Fifo`] | [`sched::StrictPriority`] |
//!   [`sched::WeightedFair`]) to pick which due queue to drain onto the
//!   pool; synchronous [`server::Client`] handles; per-registration
//!   admission control ([`server::AdmissionPolicy`] queue caps) and
//!   deadline budgets, each shedding with its own typed error; and
//!   per-registration [`stats`] (count, mean, p50/p99 latency from
//!   exact-count histograms, batch-size totals, per-reason shed /
//!   queue-depth / starvation counters, plus per-priority-class
//!   aggregation).
//!
//! On top of the server sits [`async_front`] — the poll/completion-queue
//! asynchronous face: [`async_front::AsyncClient::submit`] returns a
//! [`async_front::Ticket`] without blocking and completions are
//! harvested from a completion queue, so a single driver thread sustains
//! thousands of in-flight requests where the synchronous
//! [`server::Client`] needs a blocked OS thread each. The completion
//! queue is the only completion path: a synchronous call is a private
//! one-slot queue.
//!
//! Cross-cutting both layers sits [`trace`] — the observability
//! substrate: request-lifecycle [`trace::TraceEvent`]s (Submit → Admit →
//! Enqueue → PolicyPick → BatchStart/End → Complete, plus per-reason
//! sheds and pool task spans) recorded into per-thread ring buffers
//! behind a `SERVE_TRACE` gate whose disabled path is one branch;
//! always-on end-to-end and per-stage latency [`trace::Histogram`]s
//! (queue wait / service / delivery) behind every
//! [`stats::StatsSnapshot`]; and two export
//! faces — [`trace::export_chrome`] (Chrome trace-event JSON, Perfetto-
//! loadable) and [`server::Server::metrics_text`] (Prometheus text
//! exposition).
//!
//! Two robustness layers round the runtime out. [`overload`] adds
//! *predictive* admission: registrations opting in via
//! [`server::ScenarioSpec::predictive`] forecast the queue wait from
//! their live service histograms and shed doomed requests at submit
//! ([`server::ServeError::PredictedOverload`], with a `retry_after`
//! hint honored by the client-side [`overload::RetryPolicy`]), while
//! [`pool::Pool::with_reserved`] keeps a reserved high-lane of workers
//! that low-priority batches may never occupy. [`faults`] is the
//! matching fault-injection harness (`SERVE_FAULTS`, zero-cost when
//! off) that injects panics, latency, and malformed batches into infer
//! fns and pool workers so those guarantees are tested under induced
//! failure.
//!
//! At the outermost boundary sits [`net`] — the network edge: a
//! std-only TCP daemon ([`net::NetServer`], listener thread +
//! connection-reactor threads) speaking a length-prefixed binary
//! framing protocol whose resumable [`net::FrameParser`] state machines
//! keep partial reads from ever blocking another connection. Request
//! frames ride the [`async_front`] completion queue (ticket ids double
//! as wire correlation ids, so responses complete out of order) and
//! every typed [`server::ServeError`] maps to a stable wire
//! [`net::Status`] code — remote [`net::NetClient`]s get the same
//! backpressure semantics, including the `PredictedOverload`
//! `retry_after` hint, as in-process callers.
//!
//! `dnn::serving` supplies the glue that registers quantized DNN models
//! here with weight caches shared across scenarios; see
//! `crates/bench/src/bin/serve_throughput.rs` for the scheduling,
//! overload and tracing studies, and `ARCHITECTURE.md` at the repo root
//! for the life of a request.
//! [`test_support`] carries the cross-suite test scaffolding (the
//! fault-harness arm/disarm guard).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod async_front;
pub mod faults;
pub mod net;
pub mod overload;
pub mod pool;
pub mod sched;
pub mod server;
pub mod stats;
pub mod test_support;
pub mod trace;

pub use async_front::{AsyncClient, Completion, Ticket};
pub use faults::{FaultPlan, FaultStats};
pub use net::{
    Frame, FrameParser, NetClient, NetConfig, NetServer, NetStatsSnapshot, RequestFrame,
    ResponseFrame, Status, WireError,
};
pub use overload::{Overload, RetryPolicy};
pub use pool::{par_map_pooled, Pool};
pub use sched::{DueEntry, Fifo, SchedPolicy, StrictPriority, WeightedFair};
pub use server::{AdmissionPolicy, BatchPolicy, Client, ScenarioSpec, ServeError, Server};
pub use stats::{
    percentile, BatchSizeStats, StageHistograms, StageSummary, StatsCollector, StatsSnapshot,
};
pub use trace::{Histogram, ShedReason, TraceEvent, TraceRecord, TraceStats};

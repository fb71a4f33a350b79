//! Latency/throughput accounting for the batch server.
//!
//! Each `(model, scenario)` registration owns one [`StatsCollector`]; the
//! dispatcher records every completed request (enqueue → response, i.e.
//! queue wait plus batch execution) and every dispatched batch size.
//! Snapshots expose count, mean and p50/p99 tail latency plus the
//! backpressure counters the admission-control and scheduling layers
//! feed: accepted submissions, requests shed **per reason** (queue cap vs
//! expired deadline vs predicted overload), the queue-depth high-water
//! mark, and the scheduler's pass-over (starvation) counter — the
//! numbers `BENCH_serve.json` reports.
//!
//! ## One latency store
//!
//! Every latency lives in a **log-linear [`Histogram`]**: one for the
//! end-to-end latency and three splitting it into *queue wait* (enqueue
//! → batch start), *service* (the batch function) and *delivery* (batch
//! end → completion-queue handoff). Every request lands in a bucket
//! forever, so counts and sums are exact, quantiles are bucket midpoints
//! within [`Histogram::RELATIVE_ERROR`] of the true order statistic, and
//! memory is a fixed ~15 KiB per histogram however much traffic passes.
//! Merging collectors (the per-priority-class aggregate) adds bucket
//! counts, so a merged quantile is exactly the quantile of one
//! histogram fed every request. Batch sizes keep only count, sum and
//! max ([`BatchSizeStats`]).

use crate::trace::Histogram;
use std::sync::Mutex;
use std::time::Duration;

/// Exact batch-size totals of one registration: how many batches were
/// dispatched, how many requests they carried, and the largest one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchSizeStats {
    /// Batches dispatched.
    pub count: u64,
    /// Requests dispatched across all batches.
    pub sum: f64,
    /// Largest batch dispatched (0 before the first).
    pub max: usize,
}

impl BatchSizeStats {
    /// Mean dispatched batch size (0.0 before the first batch).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn record(&mut self, n: usize) {
        self.count += 1;
        self.sum += n as f64;
        self.max = self.max.max(n);
    }
}

/// Point-in-time summary of one latency **stage** (queue wait, service
/// or delivery), derived from that stage's exact-count log-linear
/// [`Histogram`]: quantiles are within
/// [`Histogram::RELATIVE_ERROR`] of the true order statistics, and
/// count/mean/max are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSummary {
    /// Requests measured in this stage.
    pub count: u64,
    /// Exact mean stage latency in seconds.
    pub mean_s: f64,
    /// Median stage latency in seconds (bucket-midpoint estimate).
    pub p50_s: f64,
    /// 99th-percentile stage latency in seconds (bucket-midpoint
    /// estimate).
    pub p99_s: f64,
    /// Largest stage latency in seconds (exact, not bucketed).
    pub max_s: f64,
}

impl StageSummary {
    /// An all-zero summary (no traffic yet).
    pub fn empty() -> Self {
        StageSummary {
            count: 0,
            mean_s: 0.0,
            p50_s: 0.0,
            p99_s: 0.0,
            max_s: 0.0,
        }
    }

    fn of(h: &Histogram) -> Self {
        StageSummary {
            count: h.count(),
            mean_s: h.mean_s(),
            p50_s: h.quantile(50.0),
            p99_s: h.quantile(99.0),
            max_s: h.max_s(),
        }
    }
}

/// Point-in-time summary of one registration's latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Requests completed (exact).
    pub count: u64,
    /// Mean end-to-end latency in seconds (exact).
    pub mean_s: f64,
    /// Median end-to-end latency in seconds (bucket-midpoint estimate,
    /// within [`Histogram::RELATIVE_ERROR`]).
    pub p50_s: f64,
    /// 99th-percentile end-to-end latency in seconds (bucket-midpoint
    /// estimate, within [`Histogram::RELATIVE_ERROR`]).
    pub p99_s: f64,
    /// Requests admitted into the queue (accepted submissions).
    pub submitted: u64,
    /// Requests refused at admission because the registration's queue cap
    /// was reached ([`crate::server::ServeError::Rejected`]). One shed
    /// *reason* of [`StatsSnapshot::shed_total`].
    pub shed: u64,
    /// Accepted requests shed at dispatch because their deadline budget
    /// had already expired
    /// ([`crate::server::ServeError::DeadlineExpired`]) — counted
    /// separately from cap-shedding so overload diagnosis can tell "queue
    /// full at the door" from "waited too long inside".
    pub shed_deadline: u64,
    /// Requests refused at submit because the overload predictor
    /// estimated their queue wait would already exceed the deadline
    /// budget ([`crate::server::ServeError::PredictedOverload`]) — the
    /// *early* form of a deadline shed: the request never enters the
    /// queue, so no capacity is wasted dispatching a doomed request.
    pub shed_predicted: u64,
    /// Largest queue depth observed at any admission, including the
    /// admitted request itself — the backpressure high-water mark.
    pub max_queue_depth: usize,
    /// Times the scheduler found this registration's queue due but the
    /// scheduling policy picked another registration instead — the
    /// starvation counter. Under
    /// [`StrictPriority`](crate::sched::StrictPriority) this counts
    /// exactly the dispatches a lower class ceded to a higher one.
    pub passed_over: u64,
    /// Enqueue → batch-start latency breakdown (exact-count histogram).
    pub queue_wait: StageSummary,
    /// Batch-function wall time breakdown (exact-count histogram). Every
    /// request in a batch records the same service time.
    pub service: StageSummary,
    /// Batch-end → completion-queue handoff latency breakdown (exact-count
    /// histogram): fan-out cost of delivering each response in turn.
    pub delivery: StageSummary,
}

impl StatsSnapshot {
    /// An all-zero snapshot (no traffic yet).
    pub fn empty() -> Self {
        StatsSnapshot {
            count: 0,
            mean_s: 0.0,
            p50_s: 0.0,
            p99_s: 0.0,
            submitted: 0,
            shed: 0,
            shed_deadline: 0,
            shed_predicted: 0,
            max_queue_depth: 0,
            passed_over: 0,
            queue_wait: StageSummary::empty(),
            service: StageSummary::empty(),
            delivery: StageSummary::empty(),
        }
    }

    /// Requests shed for any reason (admission cap + expired deadline +
    /// predicted overload).
    pub fn shed_total(&self) -> u64 {
        self.shed + self.shed_deadline + self.shed_predicted
    }
}

#[derive(Default)]
struct StatsState {
    latency: Histogram,
    queue_wait: Histogram,
    service: Histogram,
    delivery: Histogram,
    batches: BatchSizeStats,
    submitted: u64,
    shed: u64,
    shed_deadline: u64,
    shed_predicted: u64,
    max_queue_depth: usize,
    passed_over: u64,
}

impl StatsState {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            count: self.latency.count(),
            mean_s: self.latency.mean_s(),
            p50_s: self.latency.quantile(50.0),
            p99_s: self.latency.quantile(99.0),
            submitted: self.submitted,
            shed: self.shed,
            shed_deadline: self.shed_deadline,
            shed_predicted: self.shed_predicted,
            max_queue_depth: self.max_queue_depth,
            passed_over: self.passed_over,
            queue_wait: StageSummary::of(&self.queue_wait),
            service: StageSummary::of(&self.service),
            delivery: StageSummary::of(&self.delivery),
        }
    }
}

/// Cloned-out per-stage [`Histogram`]s of one collector, for callers that
/// need the full distributions rather than a [`StageSummary`] — the
/// server's Prometheus exposition renders their cumulative buckets.
#[derive(Debug, Clone)]
pub struct StageHistograms {
    /// Enqueue → batch-start wait.
    pub queue_wait: Histogram,
    /// Batch-function wall time.
    pub service: Histogram,
    /// Batch-end → completion-queue handoff.
    pub delivery: Histogram,
}

/// Thread-safe latency and batch-size accumulator with fixed memory.
#[derive(Default)]
pub struct StatsCollector {
    state: Mutex<StatsState>,
}

impl StatsCollector {
    /// Records one completed request with its full stage breakdown —
    /// end-to-end `total` plus `queue_wait` / `service` / `delivery` into
    /// their histograms, all under one lock acquisition. The dispatcher
    /// measures the stages from shared instants, so `total = queue_wait
    /// + service + delivery` to the nanosecond.
    pub fn record_request(
        &self,
        total: Duration,
        queue_wait: Duration,
        service: Duration,
        delivery: Duration,
    ) {
        let mut st = self.state.lock().expect("stats poisoned");
        st.latency.record(total);
        st.queue_wait.record(queue_wait);
        st.service.record(service);
        st.delivery.record(delivery);
    }

    /// Records one dispatched batch of `n` requests.
    pub fn record_batch(&self, n: usize) {
        self.state.lock().expect("stats poisoned").batches.record(n);
    }

    /// Batch-size totals recorded so far.
    pub fn batch_sizes(&self) -> BatchSizeStats {
        self.state.lock().expect("stats poisoned").batches
    }

    /// Clones out the three stage histograms (full distributions; see
    /// [`StageHistograms`]).
    pub fn stages(&self) -> StageHistograms {
        let st = self.state.lock().expect("stats poisoned");
        StageHistograms {
            queue_wait: st.queue_wait.clone(),
            service: st.service.clone(),
            delivery: st.delivery.clone(),
        }
    }

    /// Records one admitted submission and the queue depth it observed
    /// (including itself). Fed by the server's admission check.
    pub fn record_enqueue(&self, depth: usize) {
        let mut st = self.state.lock().expect("stats poisoned");
        st.submitted += 1;
        st.max_queue_depth = st.max_queue_depth.max(depth);
    }

    /// Records one request refused at admission (queue cap reached).
    pub fn record_shed(&self) {
        self.state.lock().expect("stats poisoned").shed += 1;
    }

    /// Records one accepted request shed at dispatch because its deadline
    /// budget expired while it waited.
    pub fn record_shed_deadline(&self) {
        self.state.lock().expect("stats poisoned").shed_deadline += 1;
    }

    /// Records one request refused at submit because the overload
    /// predictor estimated its queue wait would exceed the deadline
    /// budget.
    pub fn record_shed_predicted(&self) {
        self.state.lock().expect("stats poisoned").shed_predicted += 1;
    }

    /// The predictive admission gate's inputs under one lock acquisition:
    /// `(requests served, mean service seconds)` of the service-stage
    /// histogram and `(batches dispatched, requests dispatched)` — the
    /// scalars [`crate::overload::assess`] takes. Cloning the full
    /// distributions via [`StatsCollector::stages`] copies three ~15 KiB
    /// bucket tables and is far too heavy for the submit hot path.
    pub fn admission_rates(&self) -> ((u64, f64), (u64, f64)) {
        let st = self.state.lock().expect("stats poisoned");
        (
            (st.service.count(), st.service.mean_s()),
            (st.batches.count, st.batches.sum),
        )
    }

    /// Records one scheduling round in which this registration had a due
    /// batch but the policy dispatched another registration instead.
    pub fn record_passed_over(&self) {
        self.state.lock().expect("stats poisoned").passed_over += 1;
    }

    /// Summarizes everything recorded so far.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.state.lock().expect("stats poisoned").snapshot()
    }

    /// Merges several collectors into one snapshot: counts and sheds sum,
    /// the depth high-water mark is the max, and every histogram adds its
    /// buckets — so the merged percentiles are exactly those of one
    /// collector fed every request. This is how the server aggregates
    /// **per-priority-class** latency across the registrations sharing a
    /// class.
    pub fn merged<'a>(collectors: impl IntoIterator<Item = &'a StatsCollector>) -> StatsSnapshot {
        let mut acc = StatsState::default();
        for c in collectors {
            let st = c.state.lock().expect("stats poisoned");
            acc.latency.merge(&st.latency);
            acc.queue_wait.merge(&st.queue_wait);
            acc.service.merge(&st.service);
            acc.delivery.merge(&st.delivery);
            acc.submitted += st.submitted;
            acc.shed += st.shed;
            acc.shed_deadline += st.shed_deadline;
            acc.shed_predicted += st.shed_predicted;
            acc.passed_over += st.passed_over;
            acc.max_queue_depth = acc.max_queue_depth.max(st.max_queue_depth);
        }
        acc.snapshot()
    }
}

impl std::fmt::Debug for StatsCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("StatsCollector")
            .field("count", &snap.count)
            .field("mean_s", &snap.mean_s)
            .finish()
    }
}

/// Nearest-rank percentile of an **ascending-sorted** slice: the smallest
/// element with at least `q`% of the data at or below it. Monotone in `q`
/// by construction; returns 0.0 on an empty slice.
///
/// Edge cases: `q` outside `[0, 100]` clamps; `q = 0` returns the minimum (the rank
/// floor is 1); `q = 100` returns the maximum; a single-sample slice
/// returns that sample at every `q`.
///
/// `vendor/criterion` carries an intentional copy of this function (the
/// offline stub must stay dependency-free); keep the rank rule in sync so
/// "p99" means the same thing in every JSON artifact.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 100.0);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records one request whose whole latency is queue wait.
    fn record(c: &StatsCollector, d: Duration) {
        c.record_request(d, d, Duration::ZERO, Duration::ZERO);
    }

    #[test]
    fn percentile_is_monotone_and_bounded() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut prev = f64::NEG_INFINITY;
        for q in 0..=100 {
            let p = percentile(&sorted, f64::from(q));
            assert!(p >= prev, "percentile must be monotone in q");
            assert!((1.0..=100.0).contains(&p));
            prev = p;
        }
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 1.0), 7.5);
    }

    #[test]
    fn snapshot_reports_mean_and_tails() {
        let c = StatsCollector::default();
        for ms in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 100] {
            record(&c, Duration::from_millis(ms));
        }
        let s = c.snapshot();
        assert_eq!(s.count, 10);
        assert!((s.mean_s - 0.0145).abs() < 1e-9, "mean {}", s.mean_s);
        assert!(s.p50_s <= s.p99_s, "percentiles must be ordered");
        assert!(
            (s.p99_s - 0.1).abs() / 0.1 <= Histogram::RELATIVE_ERROR,
            "p99 captures the outlier"
        );
    }

    #[test]
    fn backpressure_counters_accumulate_per_reason() {
        let c = StatsCollector::default();
        assert_eq!(c.snapshot(), StatsSnapshot::empty());
        c.record_enqueue(3);
        c.record_enqueue(7);
        c.record_enqueue(2);
        c.record_shed();
        c.record_shed();
        c.record_shed_deadline();
        c.record_shed_predicted();
        c.record_shed_predicted();
        c.record_shed_predicted();
        c.record_shed_predicted();
        c.record_passed_over();
        c.record_passed_over();
        c.record_passed_over();
        let s = c.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.shed, 2, "cap sheds counted on their own");
        assert_eq!(s.shed_deadline, 1, "deadline sheds counted separately");
        assert_eq!(s.shed_predicted, 4, "predictive sheds counted separately");
        assert_eq!(s.shed_total(), 7);
        assert_eq!(s.passed_over, 3);
        assert_eq!(s.max_queue_depth, 7, "high-water mark, not last depth");
        // Sheds alone (nothing completed) must not fake latency numbers.
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_s, 0.0);
    }

    /// Volume never costs memory or count: past 2^17 requests (where the
    /// earlier sampling store thinned its samples) the latency table
    /// keeps its construction-time size and the count stays exact.
    #[test]
    fn thinning_bounds_memory_but_keeps_count() {
        let c = StatsCollector::default();
        let table = Histogram::new().table_len();
        let n = (1u64 << 17) + 123;
        for _ in 0..n {
            record(&c, Duration::from_micros(10));
        }
        let s = c.snapshot();
        assert_eq!(s.count, n);
        let st = c.state.lock().unwrap();
        assert_eq!(st.latency.table_len(), table, "memory is fixed");
        assert_eq!(st.queue_wait.table_len(), table);
        drop(st);
        assert!(
            (s.p50_s - 1e-5).abs() / 1e-5 <= Histogram::RELATIVE_ERROR,
            "p50 {}",
            s.p50_s
        );
    }

    /// Volume never costs precision: past 2^17 requests the mean is
    /// exact and p50 stays within one bucket width.
    #[test]
    fn reservoir_thins_but_mean_stays_exact() {
        let c = StatsCollector::default();
        let n = (1u64 << 17) + 7;
        for i in 0..n {
            record(&c, Duration::from_micros(10 + i % 10));
        }
        let s = c.snapshot();
        assert_eq!(s.count, n);
        let exact_mean_us = (0..n).map(|i| (10 + i % 10) as f64).sum::<f64>() / n as f64;
        assert!(
            (s.mean_s * 1e6 - exact_mean_us).abs() < 1e-9,
            "mean {}",
            s.mean_s
        );
        assert!(
            (s.p50_s - 14e-6).abs() / 14e-6 <= Histogram::RELATIVE_ERROR,
            "p50 {}",
            s.p50_s
        );
    }

    /// A merged class weights each collector by its real traffic: a
    /// high-volume fast collector A and a slow collector B carrying under
    /// 1% of the requests merge to a p99 at A's latency.
    #[test]
    fn merged_weights_samples_by_thinning_rate() {
        let a = StatsCollector::default();
        let n = 1u64 << 17;
        for _ in 0..n {
            record(&a, Duration::from_millis(1));
        }
        let b = StatsCollector::default();
        for _ in 0..600 {
            record(&b, Duration::from_millis(100));
        }
        let m = StatsCollector::merged([&a, &b]);
        assert_eq!(m.count, n + 600);
        assert!(
            (m.p99_s - 0.001).abs() / 0.001 <= Histogram::RELATIVE_ERROR,
            "p99 must track the 99%-of-traffic collector, got {}",
            m.p99_s
        );
        // B's tail still shows in the mean, which is exact.
        let exact_mean = (n as f64 * 0.001 + 600.0 * 0.1) / (n + 600) as f64;
        assert!((m.mean_s - exact_mean).abs() < 1e-9, "mean {}", m.mean_s);
    }

    /// The histogram's quantiles agree with the exact nearest-rank
    /// [`percentile`] of every recorded latency within one bucket width,
    /// at the median, the tail and the extremes of `q`.
    #[test]
    fn reservoir_percentiles_track_exact_histogram() {
        let c = StatsCollector::default();
        // Deterministic LCG; skewed latencies in [1ms, ~33ms].
        let mut x = 0x2545f4914f6cdd1du64;
        let n = (1usize << 17) + 321;
        let mut exact = Vec::with_capacity(n);
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ms = 1.0 + ((x >> 40) as f64 / (1u64 << 24) as f64).powi(3) * 32.0;
            let d = Duration::from_secs_f64(ms / 1e3);
            record(&c, d);
            exact.push(d.as_secs_f64());
        }
        exact.sort_by(f64::total_cmp);
        let s = c.snapshot();
        assert_eq!(s.count, n as u64);
        assert_eq!(s.queue_wait.count, n as u64);
        for (est, q) in [(s.p50_s, 50.0), (s.p99_s, 99.0)] {
            let want = percentile(&exact, q);
            let rel = (est - want).abs() / want;
            assert!(
                rel <= Histogram::RELATIVE_ERROR,
                "q={q}: histogram {est} vs exact {want} ({rel:.4} rel)"
            );
        }
        let h = &c.state.lock().unwrap().latency;
        assert!(h.quantile(0.0) <= h.quantile(100.0));
        assert_eq!(h.max_s(), percentile(&exact, 100.0), "max is exact");
        let lo = percentile(&exact, 0.0);
        assert!(
            (h.quantile(0.0) - lo).abs() / lo <= Histogram::RELATIVE_ERROR,
            "q=0 tracks the true min"
        );
    }

    #[test]
    fn batch_sizes_keep_count_sum_and_max() {
        let c = StatsCollector::default();
        assert_eq!(c.batch_sizes(), BatchSizeStats::default());
        assert_eq!(c.batch_sizes().mean(), 0.0);
        for n in [4usize, 1, 7, 4] {
            c.record_batch(n);
        }
        let b = c.batch_sizes();
        assert_eq!((b.count, b.sum, b.max), (4, 16.0, 7));
        assert_eq!(b.mean(), 4.0);
        record(&c, Duration::from_millis(2));
        assert_eq!(c.admission_rates(), ((1, 0.0), (4, 16.0)));
    }

    /// The per-class aggregate is exact: merging collectors with skewed
    /// traffic gives the count, mean and quantiles of one collector fed
    /// every request, so a low-traffic slow registration can neither
    /// vanish from nor dominate its class.
    #[test]
    fn merged_matches_one_collector_fed_every_request() {
        let parts: Vec<StatsCollector> = (0..3).map(|_| StatsCollector::default()).collect();
        let all = StatsCollector::default();
        // Deterministic LCG: 99.3% of traffic at 1–2 ms on collector 0,
        // a 0.5% trickle at 100 ms on collector 1, 0.2% at 5 ms on 2.
        let mut x = 0x2545f4914f6cdd1du64;
        for i in 0..40_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let jitter = (x >> 44) as f64 / (1u64 << 20) as f64;
            let (k, ms) = match i % 1000 {
                0..=4 => (1, 100.0 + jitter),
                5..=6 => (2, 5.0 + jitter),
                _ => (0, 1.0 + jitter),
            };
            let d = Duration::from_secs_f64(ms / 1e3);
            record(&parts[k], d);
            record(&all, d);
        }
        let m = StatsCollector::merged(&parts);
        let s = all.snapshot();
        assert_eq!(m.count, s.count);
        assert_eq!(m.mean_s, s.mean_s);
        assert_eq!(m.p50_s, s.p50_s);
        assert_eq!(m.p99_s, s.p99_s);
        assert_eq!(m.queue_wait, s.queue_wait);
        // The slow 0.7% sits above the 99th percentile: p99 stays at the
        // bulk's latency.
        assert!(m.p99_s < 0.003, "p99 {}", m.p99_s);
    }

    #[test]
    fn record_request_feeds_stage_histograms() {
        let c = StatsCollector::default();
        for i in 1..=32u64 {
            c.record_request(
                Duration::from_millis(i + 6),
                Duration::from_millis(i),
                Duration::from_millis(5),
                Duration::from_millis(1),
            );
        }
        let s = c.snapshot();
        assert_eq!(s.count, 32);
        assert_eq!(s.queue_wait.count, 32);
        assert_eq!(s.service.count, 32);
        assert_eq!(s.delivery.count, 32);
        // Stage means are exact, so they must add up to the total mean.
        let stage_sum = s.queue_wait.mean_s + s.service.mean_s + s.delivery.mean_s;
        assert!(
            (stage_sum - s.mean_s).abs() < 1e-9,
            "stages {stage_sum} vs total {}",
            s.mean_s
        );
        // Quantiles land within the histogram's bucket-width bound.
        let p99 = s.queue_wait.p99_s;
        assert!(
            (p99 - 0.032).abs() / 0.032 <= Histogram::RELATIVE_ERROR,
            "queue-wait p99 {p99}"
        );
        assert!(s.service.p50_s > 0.0 && s.delivery.p50_s > 0.0);
        assert_eq!(s.queue_wait.max_s, 0.032, "max is exact, not bucketed");
        // Merging carries the histograms along.
        let m = StatsCollector::merged([&c]);
        assert_eq!(m.queue_wait, s.queue_wait);
        assert_eq!(m.service, s.service);
    }

    #[test]
    fn merged_combines_counts_and_samples() {
        let a = StatsCollector::default();
        let b = StatsCollector::default();
        record(&a, Duration::from_millis(1));
        record(&a, Duration::from_millis(2));
        record(&b, Duration::from_millis(100));
        a.record_enqueue(4);
        b.record_enqueue(9);
        b.record_shed();
        b.record_shed_deadline();
        a.record_shed_predicted();
        a.record_passed_over();
        let m = StatsCollector::merged([&a, &b]);
        assert_eq!(m.count, 3);
        assert_eq!(m.submitted, 2);
        assert_eq!(m.shed, 1);
        assert_eq!(m.shed_deadline, 1);
        assert_eq!(m.shed_predicted, 1);
        assert_eq!(m.passed_over, 1);
        assert_eq!(m.max_queue_depth, 9);
        assert!((m.mean_s - (0.001 + 0.002 + 0.1) / 3.0).abs() < 1e-9);
        assert!(
            (m.p99_s - 0.1).abs() / 0.1 <= Histogram::RELATIVE_ERROR,
            "p99 spans both collectors"
        );
    }
}

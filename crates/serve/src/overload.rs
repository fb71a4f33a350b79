//! Predictive overload control: shed doomed requests at **submit**, not
//! at dispatch.
//!
//! The deadline mechanism ([`ScenarioSpec::deadline`]) is reactive — an
//! overloaded registration accepts every request, lets it age in the
//! queue, and sheds it at dispatch once the budget has already expired
//! ([`ServeError::DeadlineExpired`]). Correct, but wasteful twice over:
//! the caller learns of the failure a whole budget *late*, and the
//! request occupied an admission slot the entire time.
//!
//! This module turns the exact per-stage service histograms of
//! [`StatsCollector`](crate::stats::StatsCollector) into a *forecast*.
//! At submit, the predicted queue wait for a new request is
//!
//! ```text
//! predicted_wait = (outstanding / mean_batch_size) · mean_service · safety
//! ```
//!
//! — outstanding requests ahead of it, divided into the batches the
//! dispatcher will actually form, each costing the registration's
//! observed mean batch service time, scaled by a configurable safety
//! factor ([`SAFETY_ENV`], default 1). When that forecast already
//! exceeds the deadline budget, the request is refused immediately with
//! [`ServeError::PredictedOverload`], carrying a `retry_after` hint
//! (how long until the backlog should have drained below the budget).
//! The estimate is deliberately **serial** (it ignores pool
//! parallelism): under the sustained saturation that makes prediction
//! matter, batches of one registration effectively serialize behind the
//! shared pool anyway, and a conservative forecast sheds a borderline
//! request early rather than letting it expire late.
//!
//! The predictor is **opt-in per registration**
//! ([`ScenarioSpec::predictive`]) and silent until warm: with fewer
//! than [`WARMUP_BATCHES`] completed batches there is no service
//! evidence, so everything is admitted and the deadline mechanism
//! remains the backstop (it also stays the backstop for mid-queue
//! slowdowns the forecast missed).
//!
//! The client-side counterpart is [`RetryPolicy`]: capped exponential
//! backoff that **honors `retry_after`** — the server's hint is a floor
//! on the sleep, so a retrying client cannot hammer a backlogged queue
//! faster than it can possibly drain.
//!
//! [`ScenarioSpec::deadline`]: crate::server::ScenarioSpec::deadline
//! [`ScenarioSpec::predictive`]: crate::server::ScenarioSpec::predictive
//! [`ServeError::DeadlineExpired`]: crate::server::ServeError::DeadlineExpired
//! [`ServeError::PredictedOverload`]: crate::server::ServeError::PredictedOverload

use crate::server::ServeError;
use std::sync::OnceLock;
use std::time::Duration;

/// Environment variable scaling the predicted wait (a float, clamped to
/// `[0.1, 10.0]`, default `1.0`). Values above 1 shed earlier
/// (conservative); below 1 admit deeper backlogs (optimistic).
pub const SAFETY_ENV: &str = "SERVE_PREDICT_SAFETY";

/// Completed batches a registration must have served before the
/// predictor trusts its service-rate estimate. Below this, every
/// submission is admitted (the deadline backstop still applies).
pub const WARMUP_BATCHES: u64 = 4;

/// The process-wide safety factor: [`SAFETY_ENV`] clamped to
/// `[0.1, 10.0]`, default 1.0. Read once per process.
pub fn safety_factor() -> f64 {
    static SAFETY: OnceLock<f64> = OnceLock::new();
    *SAFETY.get_or_init(|| {
        std::env::var(SAFETY_ENV)
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|f| f.is_finite())
            .map_or(1.0, |f| f.clamp(0.1, 10.0))
    })
}

/// A shed decision from [`assess`]: the forecast that exceeded the
/// budget, and the retry hint derived from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overload {
    /// Forecast queue wait for a request admitted now.
    pub predicted_wait: Duration,
    /// The deadline budget the forecast exceeded.
    pub budget: Duration,
    /// How long until the backlog should have drained enough for a new
    /// request to fit the budget again (`predicted_wait - budget`,
    /// floored at 100 µs so the hint is never a busy-loop invitation).
    pub retry_after: Duration,
}

/// Evaluates the predictive admission gate for one registration.
///
/// * `service` — `(requests served, mean batch service seconds)` from
///   [`StatsCollector::admission_rates`](crate::stats::StatsCollector::admission_rates)
///   (the service histogram records one sample per *request*, but every
///   request of a batch records the same batch wall time, so its mean
///   is the mean batch service time).
/// * `batches` — `(dispatch count, total requests dispatched)` from the
///   same call; their ratio is the mean batch size the dispatcher has
///   been achieving.
/// * `outstanding` — accepted-but-unfulfilled requests ahead of the
///   candidate (queued or already dispatched).
/// * `budget` — the registration's deadline budget.
/// * `safety` — multiplier on the forecast ([`safety_factor`]).
///
/// Returns `Some(Overload)` when the candidate should be shed, `None`
/// when it should be admitted (including whenever the estimate is still
/// cold: fewer than [`WARMUP_BATCHES`] dispatched batches).
pub fn assess(
    service: (u64, f64),
    batches: (u64, f64),
    outstanding: usize,
    budget: Duration,
    safety: f64,
) -> Option<Overload> {
    let (served, mean_service_s) = service;
    let (dispatches, requests_dispatched) = batches;
    if served == 0 || dispatches < WARMUP_BATCHES || outstanding == 0 {
        return None;
    }
    let mean_batch = (requests_dispatched / dispatches as f64).max(1.0);
    let batches_ahead = outstanding as f64 / mean_batch;
    let wait_s = batches_ahead * mean_service_s * safety;
    if !wait_s.is_finite() || wait_s <= budget.as_secs_f64() {
        return None;
    }
    let predicted_wait = Duration::from_secs_f64(wait_s);
    let retry_after = predicted_wait
        .saturating_sub(budget)
        .max(Duration::from_micros(100));
    Some(Overload {
        predicted_wait,
        budget,
        retry_after,
    })
}

/// Client-side capped exponential backoff for shed submissions.
///
/// Wrap any submit closure — sync [`Client::infer`] or async
/// [`AsyncClient::submit`] both return `Result<_, ServeError>` — in
/// [`RetryPolicy::run`]: retryable sheds ([`ServeError::Rejected`] and
/// [`ServeError::PredictedOverload`]) are retried up to `max_attempts`
/// times with exponentially growing sleeps (`base · 2^attempt`, capped
/// at `cap`); every other error, and a still-shed final attempt, is
/// returned as-is. A `PredictedOverload`'s `retry_after` hint acts as a
/// **floor** on the sleep — the server knows how fast its backlog
/// drains, and retrying sooner can only be shed again.
///
/// [`Client::infer`]: crate::server::Client::infer
/// [`AsyncClient::submit`]: crate::async_front::AsyncClient::submit
///
/// # Examples
///
/// ```
/// use serve::overload::RetryPolicy;
/// use std::time::Duration;
///
/// let policy = RetryPolicy::default();
/// // Exponential growth, capped…
/// assert!(policy.backoff(0, None) < policy.backoff(3, None));
/// assert!(policy.backoff(30, None) <= policy.cap);
/// // …and the server's retry_after hint is a floor:
/// let hint = Duration::from_millis(200);
/// assert_eq!(policy.backoff(0, Some(hint)), hint);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries). 1 means no retries.
    pub max_attempts: u32,
    /// Sleep before the first retry (doubles each further retry).
    pub base: Duration,
    /// Upper bound on the exponential term (`retry_after` hints may
    /// exceed it — the server's drain estimate wins).
    pub cap: Duration,
}

impl Default for RetryPolicy {
    /// 5 attempts, 1 ms initial backoff, 100 ms cap.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based): the capped
    /// exponential `min(base · 2^attempt, cap)`, floored by the server's
    /// `retry_after` hint when one rode in on the shed error.
    pub fn backoff(&self, attempt: u32, retry_after: Option<Duration>) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        match retry_after {
            Some(hint) => exp.max(hint),
            None => exp,
        }
    }

    /// Runs `op` until it succeeds, fails non-retryably, or exhausts
    /// `max_attempts`; sleeps [`RetryPolicy::backoff`] between attempts.
    /// Returns the last error when attempts run out.
    pub fn run<T>(&self, mut op: impl FnMut() -> Result<T, ServeError>) -> Result<T, ServeError> {
        let attempts = self.max_attempts.max(1);
        let mut last: Option<ServeError> = None;
        for attempt in 0..attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let hint = match &e {
                        ServeError::PredictedOverload { retry_after, .. } => Some(*retry_after),
                        ServeError::Rejected { .. } => None,
                        // Anything else is not a load-shed: retrying
                        // cannot help (unknown key, shutdown, …).
                        _ => return Err(e),
                    };
                    last = Some(e);
                    if attempt + 1 < attempts {
                        std::thread::sleep(self.backoff(attempt, hint)); // conformance: allow(no-sleep-in-library) — the retry backoff is RetryPolicy's documented contract
                    }
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A warm estimate: 10 batches of mean size 4, 20 ms mean service.
    const SERVICE: (u64, f64) = (40, 0.020);
    const BATCHES: (u64, f64) = (10, 40.0);

    #[test]
    fn cold_estimates_admit_everything() {
        let budget = Duration::from_millis(1);
        // No service evidence at all.
        assert_eq!(assess((0, 0.0), (0, 0.0), 1000, budget, 1.0), None);
        // Below the batch warm-up threshold.
        assert_eq!(
            assess((4, 0.020), (WARMUP_BATCHES - 1, 12.0), 1000, budget, 1.0),
            None
        );
        // Warm but idle: nothing ahead, nothing to predict.
        assert_eq!(assess(SERVICE, BATCHES, 0, budget, 1.0), None);
    }

    #[test]
    fn forecast_scales_with_backlog_and_safety() {
        // 40 outstanding / mean batch 4 = 10 batches · 20 ms = 200 ms.
        let budget = Duration::from_millis(100);
        let ov = assess(SERVICE, BATCHES, 40, budget, 1.0).expect("must shed");
        assert!(
            (ov.predicted_wait.as_secs_f64() - 0.200).abs() < 1e-9,
            "predicted {:?}",
            ov.predicted_wait
        );
        assert_eq!(ov.budget, budget);
        assert_eq!(ov.retry_after, Duration::from_millis(100));
        // The same backlog under a roomier budget is admitted…
        assert_eq!(
            assess(SERVICE, BATCHES, 40, Duration::from_millis(250), 1.0),
            None
        );
        // …unless the safety factor scales the forecast past it.
        assert!(assess(SERVICE, BATCHES, 40, Duration::from_millis(250), 2.0).is_some());
    }

    #[test]
    fn retry_after_is_floored_not_zero() {
        // Forecast barely over budget: the hint must still be usable.
        let budget = Duration::from_millis(199);
        let ov = assess(SERVICE, BATCHES, 40, budget, 1.0).expect("must shed");
        assert!(ov.retry_after >= Duration::from_micros(100));
        assert!(ov.retry_after <= Duration::from_millis(2));
    }

    #[test]
    fn backoff_grows_caps_and_honors_hints() {
        let p = RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
        };
        assert_eq!(p.backoff(0, None), Duration::from_millis(1));
        assert_eq!(p.backoff(2, None), Duration::from_millis(4));
        assert_eq!(p.backoff(3, None), Duration::from_millis(8));
        assert_eq!(p.backoff(10, None), Duration::from_millis(8), "capped");
        // A hint above the cap wins (the server's drain estimate rules).
        let hint = Duration::from_millis(50);
        assert_eq!(p.backoff(0, Some(hint)), hint);
        // A hint below the exponential term does not shrink the sleep.
        assert_eq!(
            p.backoff(3, Some(Duration::from_millis(1))),
            Duration::from_millis(8)
        );
    }

    #[test]
    fn run_retries_sheds_and_stops_on_hard_errors() {
        let p = RetryPolicy {
            max_attempts: 4,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(100),
        };
        // Shed twice, then succeed.
        let mut calls = 0;
        let out = p.run(|| {
            calls += 1;
            if calls < 3 {
                Err(ServeError::Rejected {
                    model: "m".into(),
                    scenario: "s".into(),
                    cap: 1,
                })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));
        // Predicted overload retries too, and exhaustion returns the
        // last shed error.
        let mut calls = 0;
        let out: Result<(), _> = p.run(|| {
            calls += 1;
            Err(ServeError::PredictedOverload {
                model: "m".into(),
                scenario: "s".into(),
                predicted_wait: Duration::from_millis(2),
                budget: Duration::from_millis(1),
                retry_after: Duration::from_micros(50),
            })
        });
        assert_eq!(calls, 4, "every attempt consumed");
        assert!(matches!(out, Err(ServeError::PredictedOverload { .. })));
        // Hard errors return immediately, unretried.
        let mut calls = 0;
        let out: Result<(), _> = p.run(|| {
            calls += 1;
            Err(ServeError::ShuttingDown)
        });
        assert_eq!(calls, 1);
        assert_eq!(out, Err(ServeError::ShuttingDown));
    }
}

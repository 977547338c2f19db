//! Resilient agent I/O: retries, backoff and timeouts.
//!
//! The paper's agent is a long-lived daemon whose every cycle shells out
//! twice — `ss -i` to observe, `ip route` to act (§III, Fig. 8). Both
//! calls fail in production: polls time out, installs race route churn.
//! This module wraps the agent's two seams with the behaviours those
//! failures demand; the simulator's fault-injected hosts run them:
//!
//! * [`BackoffPolicy`] / [`retry_with_backoff`] — bounded retries with
//!   exponential backoff and an optional total time budget (the agent
//!   cannot let one cycle's retries bleed into the next `i_u` interval);
//! * [`ResilientObserver`] — retries a [`FallibleObserver`], charging
//!   each timed-out attempt against the cycle budget, and reports
//!   failure only when the budget or attempts are exhausted — at which
//!   point the caller runs [`RiptideAgent::tick_degraded`] instead of
//!   guessing;
//! * [`ResilientController`] — retries a [`RouteController`] per call.
//!
//! [`RiptideAgent::tick_degraded`]: crate::agent::RiptideAgent::tick_degraded

use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::time::SimDuration;

use crate::control::{ControlError, RouteController};
use crate::observe::{CwndObservation, FallibleObserver, ObserveError};
use crate::telemetry::IoCounters;

/// Exponential-backoff retry schedule for one I/O call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub initial: SimDuration,
    /// Multiplier applied to the delay after each retry.
    pub factor: f64,
    /// Upper bound on any single delay.
    pub cap: SimDuration,
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
}

impl BackoffPolicy {
    /// The agent's deployment schedule: 4 attempts, 50 ms → 100 ms →
    /// 200 ms between them — all retries finish well inside the 1 s
    /// update interval of Table I.
    pub fn agent_default() -> Self {
        BackoffPolicy {
            initial: SimDuration::from_millis(50),
            factor: 2.0,
            cap: SimDuration::from_secs(1),
            max_attempts: 4,
        }
    }

    /// No retries: one attempt, report the first error.
    pub fn none() -> Self {
        BackoffPolicy {
            max_attempts: 1,
            ..BackoffPolicy::agent_default()
        }
    }

    /// The delay to wait before retry number `retry` (1-based: the delay
    /// between attempt `retry` and attempt `retry + 1`), capped.
    pub fn delay_before_retry(&self, retry: u32) -> SimDuration {
        let scaled = self.initial.as_secs_f64() * self.factor.powi(retry.saturating_sub(1) as i32);
        SimDuration::from_secs_f64(scaled.min(self.cap.as_secs_f64()))
    }

    /// Checks the schedule is usable.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1".to_string());
        }
        if self.factor < 1.0 || self.factor.is_nan() {
            return Err(format!("backoff factor {} must be >= 1", self.factor));
        }
        Ok(())
    }
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy::agent_default()
    }
}

/// What a retried call ended as.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryOutcome<T, E> {
    /// The final result: the first success, or the last error.
    pub result: Result<T, E>,
    /// Attempts made (1 = succeeded first try).
    pub attempts: u32,
    /// Modeled time consumed by failed attempts and backoff delays.
    pub spent: SimDuration,
}

/// Runs `op` under `policy`, retrying failures with exponential backoff.
///
/// Time here is *modeled*, not wall-clock — the agent runs on simulated
/// time. `cost` charges each error with the time the failed attempt
/// itself consumed (a timeout costs its full deadline; an immediate
/// refusal costs nothing), and `budget` bounds the call's total
/// modeled time: a retry that would push `spent` past the budget is not
/// attempted.
pub fn retry_with_backoff<T, E>(
    policy: &BackoffPolicy,
    budget: Option<SimDuration>,
    mut cost: impl FnMut(&E) -> SimDuration,
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> RetryOutcome<T, E> {
    debug_assert!(policy.validate().is_ok());
    let mut spent = SimDuration::ZERO;
    let mut attempt = 1u32;
    loop {
        match op(attempt) {
            Ok(v) => {
                return RetryOutcome {
                    result: Ok(v),
                    attempts: attempt,
                    spent,
                }
            }
            Err(e) => {
                spent += cost(&e);
                let delay = policy.delay_before_retry(attempt);
                let out_of_attempts = attempt >= policy.max_attempts;
                let out_of_budget = budget.is_some_and(|b| spent + delay > b);
                if out_of_attempts || out_of_budget {
                    return RetryOutcome {
                        result: Err(e),
                        attempts: attempt,
                        spent,
                    };
                }
                spent += delay;
                attempt += 1;
            }
        }
    }
}

/// Counters for one resilient I/O wrapper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Logical calls made through the wrapper.
    pub calls: u64,
    /// Extra attempts beyond the first, summed over all calls.
    pub retries: u64,
    /// Calls that failed even after retrying.
    pub gave_up: u64,
    /// Individual attempts that timed out.
    pub timeouts: u64,
}

/// Wraps a [`FallibleObserver`] with retry-with-backoff and a per-cycle
/// time budget.
///
/// Every timed-out attempt is charged `per_call` (the poll's own
/// deadline) against `budget`; when the budget or the policy's attempts
/// run out, [`ResilientObserver::observe`] returns the error and the
/// caller must degrade (freeze updates, let TTL expiry run) rather than
/// reuse stale rows.
#[derive(Debug)]
pub struct ResilientObserver<O> {
    inner: O,
    policy: BackoffPolicy,
    per_call: SimDuration,
    budget: SimDuration,
    stats: IoStats,
    counters: Option<IoCounters>,
}

impl<O: FallibleObserver> ResilientObserver<O> {
    /// Wraps `inner`. `per_call` is the modeled cost of one timed-out
    /// poll; `budget` bounds one logical observation including backoff
    /// (typically the agent's update interval).
    pub fn new(
        inner: O,
        policy: BackoffPolicy,
        per_call: SimDuration,
        budget: SimDuration,
    ) -> Self {
        assert!(policy.validate().is_ok(), "invalid backoff policy");
        ResilientObserver {
            inner,
            policy,
            per_call,
            budget,
            stats: IoStats::default(),
            counters: None,
        }
    }

    /// Mirrors this wrapper's [`IoStats`] increments into shared
    /// telemetry counters (see [`crate::telemetry`]).
    pub fn set_counters(&mut self, counters: IoCounters) {
        self.counters = Some(counters);
    }

    /// One logical observation: up to `max_attempts` polls.
    ///
    /// # Errors
    ///
    /// Returns the last attempt's [`ObserveError`] when every retry
    /// failed or the budget ran out.
    pub fn observe(&mut self) -> Result<Vec<CwndObservation>, ObserveError> {
        self.stats.calls += 1;
        let inner = &mut self.inner;
        let per_call = self.per_call;
        let timeouts = &mut self.stats.timeouts;
        let timeout_counter = self.counters.as_ref().map(|c| c.timeouts.clone());
        let outcome = retry_with_backoff(
            &self.policy,
            Some(self.budget),
            |e: &ObserveError| {
                if *e == ObserveError::Timeout {
                    *timeouts += 1;
                    if let Some(c) = &timeout_counter {
                        c.inc();
                    }
                    per_call
                } else {
                    SimDuration::ZERO
                }
            },
            |_attempt| inner.try_observe(),
        );
        self.stats.retries += u64::from(outcome.attempts - 1);
        if outcome.result.is_err() {
            self.stats.gave_up += 1;
        }
        if let Some(c) = &self.counters {
            c.calls.inc();
            c.retries.add(u64::from(outcome.attempts - 1));
            if outcome.result.is_err() {
                c.gave_up.inc();
            }
        }
        outcome.result
    }

    /// Counters so far.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// The wrapped observer.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

/// Wraps a [`RouteController`] with per-call retry-with-backoff: a
/// transiently failing `ip route` (netlink busy, route churn) is retried
/// per the policy before the error is surfaced to the agent.
#[derive(Debug)]
pub struct ResilientController<C> {
    inner: C,
    policy: BackoffPolicy,
    stats: IoStats,
    counters: Option<IoCounters>,
}

impl<C: RouteController> ResilientController<C> {
    /// Wraps `inner` under `policy`.
    pub fn new(inner: C, policy: BackoffPolicy) -> Self {
        assert!(policy.validate().is_ok(), "invalid backoff policy");
        ResilientController {
            inner,
            policy,
            stats: IoStats::default(),
            counters: None,
        }
    }

    /// Mirrors this wrapper's [`IoStats`] increments into shared
    /// telemetry counters (see [`crate::telemetry`]).
    pub fn set_counters(&mut self, counters: IoCounters) {
        self.counters = Some(counters);
    }

    /// Counters so far.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps.
    pub fn into_inner(self) -> C {
        self.inner
    }

    fn retried(
        &mut self,
        mut op: impl FnMut(&mut C) -> Result<(), ControlError>,
    ) -> Result<(), ControlError> {
        self.stats.calls += 1;
        let inner = &mut self.inner;
        let outcome = retry_with_backoff(
            &self.policy,
            None,
            |_e: &ControlError| SimDuration::ZERO,
            |_attempt| op(inner),
        );
        self.stats.retries += u64::from(outcome.attempts - 1);
        if outcome.result.is_err() {
            self.stats.gave_up += 1;
        }
        if let Some(c) = &self.counters {
            c.calls.inc();
            c.retries.add(u64::from(outcome.attempts - 1));
            if outcome.result.is_err() {
                c.gave_up.inc();
            }
        }
        outcome.result
    }
}

impl<C: RouteController> RouteController for ResilientController<C> {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        self.retried(|c| c.set_initcwnd(key, window))
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        self.retried(|c| c.clear_initcwnd(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::FnFallibleObserver;
    use riptide_linuxnet::route::RouteTable;
    use std::net::Ipv4Addr;

    fn key(n: u8) -> Ipv4Prefix {
        Ipv4Prefix::host(Ipv4Addr::new(10, 0, 1, n))
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = BackoffPolicy::agent_default();
        assert_eq!(p.delay_before_retry(1), SimDuration::from_millis(50));
        assert_eq!(p.delay_before_retry(2), SimDuration::from_millis(100));
        assert_eq!(p.delay_before_retry(3), SimDuration::from_millis(200));
        assert_eq!(p.delay_before_retry(10), SimDuration::from_secs(1), "cap");
    }

    #[test]
    fn backoff_policy_validation() {
        let mut p = BackoffPolicy::agent_default();
        p.max_attempts = 0;
        assert!(p.validate().is_err());
        p = BackoffPolicy::agent_default();
        p.factor = 0.5;
        assert!(p.validate().is_err());
        assert!(BackoffPolicy::none().validate().is_ok());
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        let mut failures_left = 2;
        let outcome = retry_with_backoff(
            &BackoffPolicy::agent_default(),
            None,
            |_: &&str| SimDuration::ZERO,
            |attempt| {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err("transient")
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(outcome.result, Ok(3));
        assert_eq!(outcome.attempts, 3);
        // Backoffs before the 2nd and 3rd attempts: 50 + 100 ms.
        assert_eq!(outcome.spent, SimDuration::from_millis(150));
    }

    #[test]
    fn retry_stops_at_max_attempts() {
        let mut calls = 0;
        let outcome = retry_with_backoff(
            &BackoffPolicy::agent_default(),
            None,
            |_: &&str| SimDuration::ZERO,
            |_| -> Result<(), &str> {
                calls += 1;
                Err("down")
            },
        );
        assert_eq!(outcome.result, Err("down"));
        assert_eq!(outcome.attempts, 4);
        assert_eq!(calls, 4);
    }

    #[test]
    fn retry_respects_the_time_budget() {
        // Each failure costs 600 ms; after two failures 1.2 s is spent,
        // past the 1 s budget, so the third attempt is never made.
        let mut calls = 0;
        let outcome = retry_with_backoff(
            &BackoffPolicy::agent_default(),
            Some(SimDuration::from_secs(1)),
            |_: &&str| SimDuration::from_millis(600),
            |_| -> Result<(), &str> {
                calls += 1;
                Err("slow")
            },
        );
        assert_eq!(calls, 2, "third attempt would blow the budget");
        assert!(outcome.result.is_err());
        // The overshoot is bounded by the in-flight attempt's own cost.
        assert_eq!(
            outcome.spent,
            SimDuration::from_millis(600 + 50 + 600),
            "two attempt costs plus one backoff delay"
        );
    }

    #[test]
    fn single_attempt_policy_never_retries() {
        let outcome = retry_with_backoff(
            &BackoffPolicy::none(),
            None,
            |_: &&str| SimDuration::ZERO,
            |_| -> Result<(), &str> { Err("no") },
        );
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.spent, SimDuration::ZERO);
    }

    #[test]
    fn resilient_observer_retries_then_succeeds() {
        let mut polls = 0;
        let inner = FnFallibleObserver(|| {
            polls += 1;
            if polls < 3 {
                Err(ObserveError::Timeout)
            } else {
                Ok(vec![CwndObservation {
                    dst: Ipv4Addr::new(10, 0, 1, 1),
                    cwnd: 42,
                    bytes_acked: 0,
                    retrans: 0,
                    ecn_marks: 0,
                }])
            }
        });
        let mut obs = ResilientObserver::new(
            inner,
            BackoffPolicy::agent_default(),
            SimDuration::from_millis(100),
            SimDuration::from_secs(1),
        );
        let rows = obs.observe().unwrap();
        assert_eq!(rows[0].cwnd, 42);
        let s = obs.stats();
        assert_eq!((s.calls, s.retries, s.timeouts, s.gave_up), (1, 2, 2, 0));
    }

    #[test]
    fn resilient_observer_gives_up_within_budget() {
        let inner = FnFallibleObserver(|| Err(ObserveError::Timeout));
        // 500 ms per timed-out poll, 1 s budget: the second retry (1 s
        // spent + 100 ms backoff) must not be attempted.
        let mut obs = ResilientObserver::new(
            inner,
            BackoffPolicy::agent_default(),
            SimDuration::from_millis(500),
            SimDuration::from_secs(1),
        );
        assert_eq!(obs.observe(), Err(ObserveError::Timeout));
        let s = obs.stats();
        assert_eq!(s.gave_up, 1);
        assert_eq!(s.timeouts, 2, "two polls fit the budget");
    }

    #[test]
    fn resilient_controller_retries_transient_install_failures() {
        struct Flaky {
            table: RouteTable,
            failures_left: u32,
        }
        impl RouteController for Flaky {
            fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
                if self.failures_left > 0 {
                    self.failures_left -= 1;
                    return Err(ControlError::new("netlink busy"));
                }
                self.table.set_initcwnd(key, window)
            }
            fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
                self.table.clear_initcwnd(key)
            }
        }
        let mut ctl = ResilientController::new(
            Flaky {
                table: RouteTable::new(),
                failures_left: 2,
            },
            BackoffPolicy::agent_default(),
        );
        ctl.set_initcwnd(key(1), 80).unwrap();
        assert_eq!(
            ctl.inner().table.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)),
            Some(80)
        );
        assert_eq!(ctl.stats().retries, 2);

        // A permanent failure still surfaces after max_attempts.
        let mut dead = ResilientController::new(
            Flaky {
                table: RouteTable::new(),
                failures_left: u32::MAX,
            },
            BackoffPolicy::agent_default(),
        );
        assert!(dead.set_initcwnd(key(2), 50).is_err());
        assert_eq!(dead.stats().gave_up, 1);
    }

    #[test]
    fn io_counters_mirror_io_stats() {
        use crate::telemetry::{IoCounters, MetricsRegistry};

        let registry = MetricsRegistry::new();
        let inner = FnFallibleObserver(|| Err(ObserveError::Timeout));
        let mut obs = ResilientObserver::new(
            inner,
            BackoffPolicy::agent_default(),
            SimDuration::from_millis(100),
            SimDuration::from_secs(1),
        );
        obs.set_counters(IoCounters::attach(&registry));
        let _ = obs.observe();
        let s = obs.stats();
        let snap = registry.snapshot();
        assert_eq!(snap.value("riptide_io_calls_total"), Some(s.calls));
        assert_eq!(snap.value("riptide_io_retries_total"), Some(s.retries));
        assert_eq!(snap.value("riptide_io_timeouts_total"), Some(s.timeouts));
        assert_eq!(snap.value("riptide_io_gave_up_total"), Some(s.gave_up));
        assert!(s.gave_up == 1 && s.timeouts > 0);

        // The controller shares the same counters on the same registry.
        struct Refusing;
        impl RouteController for Refusing {
            fn set_initcwnd(&mut self, _: Ipv4Prefix, _: u32) -> Result<(), ControlError> {
                Err(ControlError::new("refused"))
            }
            fn clear_initcwnd(&mut self, _: Ipv4Prefix) -> Result<(), ControlError> {
                Err(ControlError::new("refused"))
            }
        }
        let mut ctl = ResilientController::new(Refusing, BackoffPolicy::none());
        ctl.set_counters(IoCounters::attach(&registry));
        let _ = ctl.set_initcwnd(key(1), 80);
        let snap = registry.snapshot();
        assert_eq!(snap.value("riptide_io_calls_total"), Some(s.calls + 1));
        assert_eq!(snap.value("riptide_io_gave_up_total"), Some(s.gave_up + 1));
    }
}

//! Edge cases of the resilient I/O layer that the unit tests inside
//! `resilience.rs` do not pin down: the cycle budget cutting a retry
//! schedule short, the final allowed attempt deciding the outcome, and
//! an agent leaving and re-entering degraded mode across cycles.

use std::net::Ipv4Addr;

use riptide::prelude::*;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::time::{SimDuration, SimTime};

fn obs(dst: [u8; 4], cwnd: u32) -> CwndObservation {
    CwndObservation {
        dst: Ipv4Addr::from(dst),
        cwnd,
        bytes_acked: 1_000_000,
        retrans: 0,
        ecn_marks: 0,
    }
}

// ---------------------------------------------------------------------
// Budget exhausted mid-retry
// ---------------------------------------------------------------------

#[test]
fn budget_cuts_the_retry_schedule_short() {
    // agent_default allows 4 attempts (delays 50/100/200 ms), but each
    // timed-out poll costs 200 ms against a 500 ms budget: attempt 1
    // (spent 200 ms, +50 ms delay = 250) and attempt 2 (spent 450 ms)
    // fit; the 100 ms delay before attempt 3 would push past the budget,
    // so the call gives up after exactly two attempts.
    let policy = BackoffPolicy::agent_default();
    let outcome = retry_with_backoff(
        &policy,
        Some(SimDuration::from_millis(500)),
        |_e: &ObserveError| SimDuration::from_millis(200),
        |_attempt| -> Result<(), ObserveError> { Err(ObserveError::Timeout) },
    );
    assert!(outcome.result.is_err());
    assert_eq!(outcome.attempts, 2, "budget must stop the third attempt");
    // 200 (attempt 1) + 50 (backoff) + 200 (attempt 2); the never-taken
    // delay before attempt 3 is not charged.
    assert_eq!(outcome.spent, SimDuration::from_millis(450));

    // The same schedule through the observer wrapper: one logical call,
    // one retry, two timeouts, one give-up.
    let mut observer = ResilientObserver::new(
        FnFallibleObserver(|| -> Result<Vec<CwndObservation>, ObserveError> {
            Err(ObserveError::Timeout)
        }),
        policy,
        SimDuration::from_millis(200),
        SimDuration::from_millis(500),
    );
    assert!(observer.observe().is_err());
    let s = observer.stats();
    assert_eq!((s.calls, s.retries, s.timeouts, s.gave_up), (1, 1, 2, 1));
}

#[test]
fn budget_never_blocks_the_first_attempt() {
    // A budget smaller than one poll still lets the first attempt run —
    // the budget bounds *retrying*, not calling.
    let outcome = retry_with_backoff(
        &BackoffPolicy::agent_default(),
        Some(SimDuration::ZERO),
        |_e: &ObserveError| SimDuration::from_millis(200),
        |_attempt| -> Result<(), ObserveError> { Err(ObserveError::Timeout) },
    );
    assert_eq!(outcome.attempts, 1);
    assert!(outcome.result.is_err());
}

// ---------------------------------------------------------------------
// The final allowed attempt decides the outcome
// ---------------------------------------------------------------------

#[test]
fn success_on_the_final_attempt_is_a_success() {
    let policy = BackoffPolicy::agent_default();
    let max = policy.max_attempts;
    let outcome = retry_with_backoff(
        &policy,
        None,
        |_e: &ObserveError| SimDuration::ZERO,
        |attempt| {
            if attempt < max {
                Err(ObserveError::Timeout)
            } else {
                Ok(attempt)
            }
        },
    );
    assert_eq!(outcome.result, Ok(max));
    assert_eq!(outcome.attempts, max);
}

#[test]
fn timeout_on_the_final_attempt_gives_up_with_full_counts() {
    let policy = BackoffPolicy::agent_default();
    let mut observer = ResilientObserver::new(
        FnFallibleObserver(|| -> Result<Vec<CwndObservation>, ObserveError> {
            Err(ObserveError::Timeout)
        }),
        policy,
        SimDuration::from_millis(1),
        // Roomy budget: only max_attempts can end the call.
        SimDuration::from_secs(60),
    );
    assert_eq!(observer.observe(), Err(ObserveError::Timeout));
    let s = observer.stats();
    assert_eq!(s.calls, 1);
    assert_eq!(s.retries, u64::from(policy.max_attempts - 1));
    assert_eq!(s.timeouts, u64::from(policy.max_attempts));
    assert_eq!(s.gave_up, 1);

    // A later clean poll is a fresh logical call: the wrapper carries no
    // failure state across cycles.
    let mut recovered = ResilientObserver::new(
        FnFallibleObserver(|| Ok(vec![obs([10, 0, 0, 1], 40)])),
        policy,
        SimDuration::from_millis(1),
        SimDuration::from_secs(60),
    );
    assert_eq!(recovered.observe().map(|rows| rows.len()), Ok(1));
    assert_eq!(recovered.stats().gave_up, 0);
}

// ---------------------------------------------------------------------
// Degraded-mode re-entry
// ---------------------------------------------------------------------

#[test]
fn agent_reenters_degraded_mode_and_recovers_between_episodes() {
    let cfg = RiptideConfig::builder()
        .policy(LearningPolicy::None)
        .build()
        .unwrap();
    let mut agent = RiptideAgent::new(cfg).unwrap();
    agent.attach_telemetry(AgentTelemetry::standalone(32));
    let mut routes = RouteTable::new();
    let policy = BackoffPolicy::none();

    // Each cycle polls through a fresh wrapper, as the deployment loop
    // does; `Ok(window)` scripts a clean poll, `Err` a dead one.
    let cycle = |agent: &mut RiptideAgent,
                 routes: &mut RouteTable,
                 t: u64,
                 poll: Result<u32, ObserveError>| {
        let mut observer = ResilientObserver::new(
            FnFallibleObserver(|| poll.clone().map(|w| vec![obs([10, 0, 7, 1], w)])),
            policy,
            SimDuration::from_millis(200),
            SimDuration::from_secs(1),
        );
        let now = SimTime::from_secs(t);
        match observer.observe() {
            Ok(rows) => {
                let mut replay = FnObserver(move || rows.clone());
                agent.tick(now, &mut replay, routes);
            }
            Err(_) => {
                agent.tick_degraded(now, routes);
            }
        }
    };

    cycle(&mut agent, &mut routes, 1, Ok(80)); // learn + install
    cycle(&mut agent, &mut routes, 2, Err(ObserveError::Timeout)); // episode 1
    assert_eq!(
        routes.initcwnd_for(Ipv4Addr::new(10, 0, 7, 1)),
        Some(80),
        "degraded cycle must not withdraw a live route"
    );
    cycle(&mut agent, &mut routes, 3, Ok(40)); // recovery relearns
    assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 7, 1)), Some(40));
    // Episode 2, still degraded when the TTL horizon passes: expiry
    // keeps running without polls.
    cycle(&mut agent, &mut routes, 4, Err(ObserveError::Timeout));
    cycle(&mut agent, &mut routes, 300, Err(ObserveError::Timeout));

    let s = agent.stats();
    assert_eq!(s.ticks, 5, "degraded cycles still count as ticks");
    assert_eq!(s.degraded_ticks, 3, "two episodes, three degraded cycles");
    assert_eq!(s.route_updates, 2, "one install per clean cycle");
    assert_eq!(s.route_expirations, 1, "TTL sweep ran while degraded");
    assert_eq!(
        routes.initcwnd_for(Ipv4Addr::new(10, 0, 7, 1)),
        None,
        "expired route withdrawn during the degraded episode"
    );
    // Telemetry mirrors the stats through both episodes.
    let snap = agent.telemetry().unwrap().registry().snapshot();
    assert_eq!(snap.value("riptide_degraded_ticks_total"), Some(3));
    assert_eq!(snap.value("riptide_route_updates_total"), Some(2));
    assert_eq!(snap.value("riptide_installed_routes"), Some(0));
}

//! Loss-aware guardrails: a per-destination circuit breaker over the
//! retransmit counters `ss` already reports.
//!
//! Riptide's no-harm argument (§IV-D of the paper) rests on the learned
//! window being *what the path recently sustained*. When the path
//! degrades faster than the EWMA forgets — a peering shift, a
//! newly-congested middle mile — a jump-started connection slams a
//! 50-segment burst into a path that now drops it, and the "optimization"
//! becomes the harm. The guard closes that loop: it differentiates each
//! destination's cumulative retransmit counter into a per-interval loss
//! rate and, when a *jump-started* destination runs hot, demotes it back
//! to the kernel-default window until the path proves itself again.
//!
//! The breaker is three-state, in the classic circuit-breaker shape:
//!
//! * **Closed** — healthy; the learned window installs normally.
//! * **Open** — tripped; the destination is pinned to the probe window
//!   (kernel default) and learning output is suppressed.
//! * **Half-open** — the damping penalty has decayed below the reuse
//!   threshold; the destination still runs at the probe window while the
//!   guard counts clean intervals. Enough clean probes close the breaker;
//!   one lossy interval re-trips it.
//!
//! Re-trip hysteresis borrows BGP flap damping (RFC 2439): each trip adds
//! a fixed penalty, the penalty decays exponentially with a configured
//! half-life, and the destination is suppressed while the penalty sits
//! above the suppress threshold and only reconsidered once it has decayed
//! below the (lower) reuse threshold. A destination that flaps
//! repeatedly therefore stays demoted for exponentially longer than one
//! that tripped once.

use std::collections::BTreeMap;

use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::time::{SimDuration, SimTime};

use crate::config::ConfigError;

/// Bytes per segment assumed when converting `bytes_acked` deltas into a
/// delivered-segment estimate (standard Ethernet MSS).
pub const SEGMENT_BYTES: u64 = 1448;

/// Tunables for the loss guard.
///
/// Defaults are conservative: a 5% per-interval retransmit rate on a
/// destination we jump-started trips the breaker, and the RFC 2439-style
/// penalty numbers (1000 per trip, suppress at 1000, reuse at 500,
/// half-life 60 s) mean a single trip demotes the destination for one
/// half-life and repeated trips for multiples of it.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// Per-interval retransmit rate (retransmitted / (retransmitted +
    /// delivered) segments) above which a jump-started destination trips.
    pub retrans_threshold: f64,
    /// Minimum segments (delivered + retransmitted) an interval must
    /// carry before the guard judges it — tiny samples are noise.
    pub min_samples: u64,
    /// The demoted window installed while Open or Half-open: the kernel
    /// default, so a tripped destination behaves exactly as if Riptide
    /// never touched it.
    pub probe_window: u32,
    /// Penalty added per trip (RFC 2439 figure: 1000).
    pub trip_penalty: f64,
    /// Penalty at or above which the destination is suppressed (Open).
    pub suppress_threshold: f64,
    /// Penalty below which a suppressed destination becomes Half-open.
    pub reuse_threshold: f64,
    /// Ceiling on accumulated penalty, bounding worst-case demotion time.
    pub penalty_cap: f64,
    /// Exponential-decay half-life of the penalty.
    pub half_life: SimDuration,
    /// Consecutive clean Half-open intervals required to close.
    pub clean_probes: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            retrans_threshold: 0.05,
            min_samples: 50,
            probe_window: 10,
            trip_penalty: 1000.0,
            suppress_threshold: 1000.0,
            reuse_threshold: 500.0,
            penalty_cap: 4000.0,
            // RFC 2439 deployments damp for minutes, not seconds: one
            // trip suppresses for ~5 min, a relapsing destination for up
            // to ~10 (cap = 4 trips, two half-lives to reuse).
            half_life: SimDuration::from_secs(300),
            clean_probes: 3,
        }
    }
}

impl GuardConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if thresholds are out of range or ordered
    /// inconsistently (e.g. reuse above suppress, which could never
    /// re-admit a destination).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.retrans_threshold > 0.0 && self.retrans_threshold < 1.0) {
            return Err(ConfigError::new("retrans_threshold must be in (0, 1)"));
        }
        if self.probe_window == 0 {
            return Err(ConfigError::new("probe_window must be at least 1"));
        }
        if self.trip_penalty.is_nan() || self.trip_penalty <= 0.0 {
            return Err(ConfigError::new("trip_penalty must be positive"));
        }
        if !(self.reuse_threshold > 0.0 && self.reuse_threshold <= self.suppress_threshold) {
            return Err(ConfigError::new(
                "need 0 < reuse_threshold <= suppress_threshold",
            ));
        }
        if self.penalty_cap < self.suppress_threshold {
            return Err(ConfigError::new(
                "penalty_cap below suppress_threshold could never suppress",
            ));
        }
        if self.half_life.is_zero() {
            return Err(ConfigError::new("half_life must be non-zero"));
        }
        if self.clean_probes == 0 {
            return Err(ConfigError::new("clean_probes must be at least 1"));
        }
        Ok(())
    }
}

/// The circuit-breaker state of one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: the learned window installs normally.
    #[default]
    Closed,
    /// Tripped: pinned to the probe window, penalty above reuse.
    Open,
    /// Probing: still at the probe window, counting clean intervals.
    HalfOpen,
}

/// What one guard update decided, for stats and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardVerdict {
    /// The breaker state after this update.
    pub state: BreakerState,
    /// Whether this update tripped the breaker (Closed→Open or a
    /// Half-open re-trip).
    pub tripped: bool,
}

#[derive(Debug, Clone)]
struct DestState {
    breaker: BreakerState,
    /// Flap-damping penalty as of `penalty_at` (decays lazily).
    penalty: f64,
    penalty_at: SimTime,
    /// Cumulative (retransmits, bytes_acked) at the previous update —
    /// the baseline the next interval differentiates against.
    last_totals: Option<(u64, u64)>,
    clean_streak: u32,
}

impl DestState {
    fn new(now: SimTime) -> Self {
        DestState {
            breaker: BreakerState::Closed,
            penalty: 0.0,
            penalty_at: now,
            last_totals: None,
            clean_streak: 0,
        }
    }
}

/// The per-destination loss guard: differentiates cumulative retransmit
/// counters into interval rates and runs the damped circuit breaker.
///
/// # Examples
///
/// ```
/// use riptide::guard::{BreakerState, GuardConfig, LossGuard};
/// use riptide_linuxnet::prefix::Ipv4Prefix;
/// use riptide_simnet::time::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut guard = LossGuard::new(GuardConfig::default());
/// let key = Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 1));
/// // Baseline interval, then a 50%-loss interval on a jump-started path:
/// guard.update(key, 0, 1_000_000, true, SimTime::from_secs(1));
/// let v = guard.update(key, 500, 2_000_000, true, SimTime::from_secs(2));
/// assert!(v.tripped);
/// assert_eq!(guard.state(&key), BreakerState::Open);
/// assert!(guard.suppressed(&key));
/// ```
#[derive(Debug, Clone)]
pub struct LossGuard {
    config: GuardConfig,
    states: BTreeMap<Ipv4Prefix, DestState>,
    trips: u64,
}

impl LossGuard {
    /// Creates a guard with the given tunables.
    pub fn new(config: GuardConfig) -> Self {
        LossGuard {
            config,
            states: BTreeMap::new(),
            trips: 0,
        }
    }

    /// The guard's configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// Total breaker trips over the guard's lifetime.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Destinations with live guard state.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the guard tracks no destinations.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Destinations per breaker state, as `(closed, open, half_open)` —
    /// the telemetry gauges' source.
    pub fn breaker_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for s in self.states.values() {
            match s.breaker {
                BreakerState::Closed => counts.0 += 1,
                BreakerState::Open => counts.1 += 1,
                BreakerState::HalfOpen => counts.2 += 1,
            }
        }
        counts
    }

    /// The breaker state for `key` (Closed when untracked).
    pub fn state(&self, key: &Ipv4Prefix) -> BreakerState {
        self.states.get(key).map(|s| s.breaker).unwrap_or_default()
    }

    /// Whether installs for `key` must be demoted to the probe window.
    pub fn suppressed(&self, key: &Ipv4Prefix) -> bool {
        !matches!(self.state(key), BreakerState::Closed)
    }

    /// The flap-damping penalty for `key` decayed to `now`.
    pub fn penalty(&self, key: &Ipv4Prefix, now: SimTime) -> f64 {
        self.states
            .get(key)
            .map(|s| decayed(s.penalty, s.penalty_at, now, self.config.half_life))
            .unwrap_or(0.0)
    }

    /// Drops all state for `key` (TTL expiry or table eviction: with the
    /// learned entry gone, there is nothing left to demote).
    pub fn forget(&mut self, key: &Ipv4Prefix) {
        self.states.remove(key);
    }

    /// Feeds one interval's cumulative counters for `key` and advances
    /// the breaker.
    ///
    /// `retrans_total` and `bytes_acked_total` are the *cumulative* sums
    /// over the destination group (straight off `ss`); the guard
    /// differentiates them against the previous update. `jump_started`
    /// says whether the currently installed window exceeds the probe
    /// window — only then can a lossy interval be *our* harm, so only
    /// then does a Closed breaker trip.
    pub fn update(
        &mut self,
        key: Ipv4Prefix,
        retrans_total: u64,
        bytes_acked_total: u64,
        jump_started: bool,
        now: SimTime,
    ) -> GuardVerdict {
        let config = self.config.clone();
        let state = self
            .states
            .entry(key)
            .or_insert_with(|| DestState::new(now));

        // Differentiate the cumulative counters. Saturating: connection
        // churn can make per-group sums regress, which must read as "no
        // new loss", never wrap.
        let (rate, volume) = match state.last_totals {
            Some((prev_retrans, prev_bytes)) => {
                let d_retrans = retrans_total.saturating_sub(prev_retrans);
                let d_segments = bytes_acked_total.saturating_sub(prev_bytes) / SEGMENT_BYTES;
                let total = d_retrans.saturating_add(d_segments);
                let rate = if total > 0 {
                    d_retrans as f64 / total as f64
                } else {
                    0.0
                };
                (rate, total)
            }
            // First sighting: no baseline, no judgement.
            None => (0.0, 0),
        };
        state.last_totals = Some((retrans_total, bytes_acked_total));

        // Decay the penalty to now.
        state.penalty = decayed(state.penalty, state.penalty_at, now, config.half_life);
        state.penalty_at = now;

        let judged = volume >= config.min_samples;
        let lossy = judged && rate > config.retrans_threshold;
        let mut tripped = false;

        match state.breaker {
            BreakerState::Closed => {
                if lossy && jump_started {
                    state.penalty = (state.penalty + config.trip_penalty).min(config.penalty_cap);
                    state.breaker = BreakerState::Open;
                    state.clean_streak = 0;
                    tripped = true;
                }
            }
            BreakerState::Open => {
                if state.penalty < config.reuse_threshold {
                    state.breaker = BreakerState::HalfOpen;
                    state.clean_streak = 0;
                }
            }
            BreakerState::HalfOpen => {
                if lossy {
                    // Still lossy at the kernel default: the path itself
                    // is sick. Re-trip with a fresh penalty on top of
                    // whatever remains — the flap-damping accumulation.
                    state.penalty = (state.penalty + config.trip_penalty).min(config.penalty_cap);
                    state.breaker = BreakerState::Open;
                    state.clean_streak = 0;
                    tripped = true;
                } else if judged {
                    state.clean_streak += 1;
                    if state.clean_streak >= config.clean_probes {
                        state.breaker = BreakerState::Closed;
                        state.clean_streak = 0;
                    }
                }
            }
        }

        if tripped {
            self.trips += 1;
        }
        GuardVerdict {
            state: state.breaker,
            tripped,
        }
    }
}

/// One destination's breaker state, exported for persistence.
///
/// The differentiation baseline (`last_totals`) is deliberately *not*
/// part of the export: cumulative `ss` counters do not survive a restart,
/// so a restored destination starts a fresh baseline and its first
/// post-restore interval is never judged — exactly the behaviour of a
/// first sighting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardExport {
    /// The destination key.
    pub key: Ipv4Prefix,
    /// Breaker state at export time.
    pub breaker: BreakerState,
    /// Flap-damping penalty as of `penalty_at`.
    pub penalty: f64,
    /// When `penalty` was last materialised.
    pub penalty_at: SimTime,
    /// Consecutive clean Half-open intervals counted so far.
    pub clean_streak: u32,
}

impl LossGuard {
    /// Exports every destination's breaker state in key order, for the
    /// persistence snapshot.
    pub fn export_states(&self) -> Vec<GuardExport> {
        self.states
            .iter()
            .map(|(key, s)| GuardExport {
                key: *key,
                breaker: s.breaker,
                penalty: s.penalty,
                penalty_at: s.penalty_at,
                clean_streak: s.clean_streak,
            })
            .collect()
    }

    /// Restores exported breaker states, replacing any state already
    /// held for the same keys. Restored destinations get a fresh
    /// differentiation baseline (see [`GuardExport`]); penalties keep
    /// decaying from their recorded `penalty_at`, so an Open breaker
    /// that would have reached reuse during the downtime does so on its
    /// first post-restore update.
    pub fn restore_states(&mut self, exports: &[GuardExport]) {
        for e in exports {
            self.states.insert(
                e.key,
                DestState {
                    breaker: e.breaker,
                    penalty: e.penalty,
                    penalty_at: e.penalty_at,
                    last_totals: None,
                    clean_streak: e.clean_streak,
                },
            );
        }
    }
}

/// Exponential decay: `penalty * 0.5^(Δt / half_life)`.
fn decayed(penalty: f64, since: SimTime, now: SimTime, half_life: SimDuration) -> f64 {
    if penalty == 0.0 {
        return 0.0;
    }
    let dt = now.saturating_since(since);
    if dt.is_zero() {
        return penalty;
    }
    let halves = dt.as_secs_f64() / half_life.as_secs_f64();
    penalty * 0.5f64.powf(halves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(n: u8) -> Ipv4Prefix {
        Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, n))
    }

    /// 1 MB per interval ≈ 690 segments — comfortably above min_samples.
    const MEG: u64 = 1_000_000;

    fn baseline(guard: &mut LossGuard, k: Ipv4Prefix) {
        let v = guard.update(k, 0, 0, true, SimTime::from_secs(0));
        assert_eq!(v.state, BreakerState::Closed);
        assert!(!v.tripped, "first sighting never judges");
    }

    #[test]
    fn clean_traffic_stays_closed() {
        let mut g = LossGuard::new(GuardConfig::default());
        baseline(&mut g, key(1));
        for t in 1..20 {
            let v = g.update(key(1), 0, t * MEG, true, SimTime::from_secs(t));
            assert_eq!(v.state, BreakerState::Closed);
        }
        assert_eq!(g.trips(), 0);
        assert_eq!(g.penalty(&key(1), SimTime::from_secs(20)), 0.0);
    }

    #[test]
    fn lossy_jump_started_destination_trips() {
        let mut g = LossGuard::new(GuardConfig::default());
        baseline(&mut g, key(1));
        // 200 retransmits against ~690 delivered segments: ~22% loss.
        let v = g.update(key(1), 200, MEG, true, SimTime::from_secs(1));
        assert!(v.tripped);
        assert_eq!(v.state, BreakerState::Open);
        assert!(g.suppressed(&key(1)));
        assert_eq!(g.trips(), 1);
    }

    #[test]
    fn loss_at_kernel_default_never_trips() {
        // Not jump-started: the kernel default can't be Riptide's harm.
        let mut g = LossGuard::new(GuardConfig::default());
        baseline(&mut g, key(1));
        let v = g.update(key(1), 500, MEG, false, SimTime::from_secs(1));
        assert!(!v.tripped);
        assert_eq!(v.state, BreakerState::Closed);
    }

    #[test]
    fn tiny_samples_are_not_judged() {
        let mut g = LossGuard::new(GuardConfig::default());
        baseline(&mut g, key(1));
        // 3 retransmits, ~7 delivered: 30% "rate" on 10 segments — noise.
        let v = g.update(key(1), 3, 10_000, true, SimTime::from_secs(1));
        assert!(!v.tripped, "below min_samples");
        assert_eq!(v.state, BreakerState::Closed);
    }

    #[test]
    fn penalty_decays_through_half_open_to_closed() {
        let mut g = LossGuard::new(GuardConfig::default());
        baseline(&mut g, key(1));
        g.update(key(1), 200, MEG, true, SimTime::from_secs(1));
        assert_eq!(g.state(&key(1)), BreakerState::Open);

        // Immediately after the trip the penalty is ~1000; one half-life
        // (300 s) later it is ~500, just at reuse; a bit more and we are
        // below.
        let p0 = g.penalty(&key(1), SimTime::from_secs(1));
        assert!((p0 - 1000.0).abs() < 1e-9);
        assert!(g.penalty(&key(1), SimTime::from_secs(301)) <= 500.0 + 1e-9);

        // Clean intervals while Open: first crossing below reuse moves to
        // HalfOpen, then clean_probes clean intervals close it.
        let mut t = 302;
        let v = g.update(key(1), 200, 2 * MEG, false, SimTime::from_secs(t));
        assert_eq!(v.state, BreakerState::HalfOpen);
        let mut state = v.state;
        for i in 1..=3u64 {
            t += 1;
            let v = g.update(key(1), 200, (2 + i) * MEG, false, SimTime::from_secs(t));
            state = v.state;
        }
        assert_eq!(state, BreakerState::Closed);
        assert!(!g.suppressed(&key(1)));
    }

    #[test]
    fn half_open_relapse_re_trips_with_accumulated_penalty() {
        let mut g = LossGuard::new(GuardConfig::default());
        baseline(&mut g, key(1));
        g.update(key(1), 200, MEG, true, SimTime::from_secs(1));
        // Decay to half-open…
        let v = g.update(key(1), 200, 2 * MEG, false, SimTime::from_secs(310));
        assert_eq!(v.state, BreakerState::HalfOpen);
        // …then a lossy probe interval: re-trip, penalty stacks above a
        // single trip's worth, so the second demotion outlasts the first.
        let v = g.update(key(1), 500, 3 * MEG, false, SimTime::from_secs(311));
        assert!(v.tripped);
        assert_eq!(v.state, BreakerState::Open);
        assert!(g.penalty(&key(1), SimTime::from_secs(311)) > 1000.0);
        assert_eq!(g.trips(), 2);
    }

    #[test]
    fn penalty_is_capped() {
        let mut g = LossGuard::new(GuardConfig::default());
        baseline(&mut g, key(1));
        let mut bytes = MEG;
        let mut t = 1;
        // Flap hard: loss every interval, alternating through half-open.
        for _ in 0..50 {
            g.update(key(1), 1_000_000, bytes, true, SimTime::from_secs(t));
            bytes += MEG;
            t += 1;
        }
        assert!(g.penalty(&key(1), SimTime::from_secs(t)) <= 4000.0);
    }

    #[test]
    fn counter_regression_reads_as_no_loss() {
        let mut g = LossGuard::new(GuardConfig::default());
        g.update(key(1), 500, 10 * MEG, true, SimTime::from_secs(0));
        // Connection churn: cumulative sums go backwards. Saturating
        // deltas must treat this as a quiet interval, not wrap.
        let v = g.update(key(1), 100, MEG, true, SimTime::from_secs(1));
        assert!(!v.tripped);
        assert_eq!(v.state, BreakerState::Closed);
    }

    #[test]
    fn a_counter_at_its_ceiling_saturates_the_interval() {
        // One row going from `retrans:0` to
        // `retrans:0/18446744073709551615` while bytes flow: the
        // interval's retransmits plus its segments used to overflow.
        let mut g = LossGuard::new(GuardConfig::default());
        g.update(key(1), 0, MEG, true, SimTime::from_secs(0));
        let v = g.update(key(1), u64::MAX, 2 * MEG, true, SimTime::from_secs(1));
        assert!(v.tripped, "all loss, on a jump-started destination");
    }

    #[test]
    fn forget_clears_state() {
        let mut g = LossGuard::new(GuardConfig::default());
        baseline(&mut g, key(1));
        g.update(key(1), 200, MEG, true, SimTime::from_secs(1));
        assert!(g.suppressed(&key(1)));
        g.forget(&key(1));
        assert!(g.is_empty());
        assert_eq!(g.state(&key(1)), BreakerState::Closed);
    }

    #[test]
    fn config_validation_catches_inconsistencies() {
        let ok = GuardConfig::default();
        ok.validate().unwrap();
        let bad = GuardConfig {
            reuse_threshold: 2000.0,
            ..GuardConfig::default()
        };
        assert!(bad.validate().is_err(), "reuse above suppress");
        let bad = GuardConfig {
            retrans_threshold: 0.0,
            ..GuardConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = GuardConfig {
            penalty_cap: 10.0,
            ..GuardConfig::default()
        };
        assert!(bad.validate().is_err(), "cap below suppress");
        let bad = GuardConfig {
            half_life: SimDuration::ZERO,
            ..GuardConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = GuardConfig {
            clean_probes: 0,
            ..GuardConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn export_restore_round_trips_breaker_state() {
        let mut g = LossGuard::new(GuardConfig::default());
        baseline(&mut g, key(1));
        g.update(key(1), 200, MEG, true, SimTime::from_secs(1));
        g.update(key(2), 0, 0, true, SimTime::from_secs(1));
        assert_eq!(g.state(&key(1)), BreakerState::Open);

        let exports = g.export_states();
        assert_eq!(exports.len(), 2);
        let mut restored = LossGuard::new(GuardConfig::default());
        restored.restore_states(&exports);
        assert_eq!(restored.state(&key(1)), BreakerState::Open);
        assert_eq!(restored.state(&key(2)), BreakerState::Closed);
        assert_eq!(
            restored.penalty(&key(1), SimTime::from_secs(1)),
            g.penalty(&key(1), SimTime::from_secs(1))
        );
        // The baseline was dropped: the first post-restore interval is a
        // first sighting, so even a lossy interval is not judged.
        let v = restored.update(key(2), 900, MEG, true, SimTime::from_secs(2));
        assert!(!v.tripped, "no baseline after restore");
        // Penalty keeps decaying across the downtime: an Open breaker
        // reaches Half-open on its first update past the reuse point.
        let v = restored.update(key(1), 0, 0, false, SimTime::from_secs(600));
        assert_eq!(v.state, BreakerState::HalfOpen);
    }

    #[test]
    fn destinations_are_independent() {
        let mut g = LossGuard::new(GuardConfig::default());
        baseline(&mut g, key(1));
        g.update(key(2), 0, 0, true, SimTime::from_secs(0));
        g.update(key(1), 200, MEG, true, SimTime::from_secs(1));
        g.update(key(2), 0, MEG, true, SimTime::from_secs(1));
        assert!(g.suppressed(&key(1)));
        assert!(!g.suppressed(&key(2)));
        assert_eq!(g.len(), 2);
    }
}

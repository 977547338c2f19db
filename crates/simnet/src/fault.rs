//! Deterministic fault injection (the chaos layer).
//!
//! Production Riptide agents live on hosts where `ss` polls time out or
//! return truncated tables, `ip route` invocations fail or land late,
//! daemons crash and restart with their learned state gone, and links go
//! through loss bursts. A [`FaultPlan`] describes how often each of those
//! happens; a [`FaultInjector`] turns the plan into a deterministic
//! sequence of fault decisions drawn from [`DetRng`] streams forked off
//! the owning shard's seed — so chaos runs are exactly as reproducible as
//! clean ones.
//!
//! Two properties the experiment engine relies on:
//!
//! * **Zero is free.** [`DetRng::chance`] consumes no draw at `p = 0`,
//!   and forking a stream never advances its parent, so a disabled plan
//!   ([`FaultPlan::none`]) leaves every other RNG stream — and therefore
//!   the whole simulation — bit-identical to a build without the fault
//!   layer.
//! * **Category independence.** Each fault category draws from its own
//!   forked stream, so (for example) the link-burst schedule of a control
//!   run matches the riptide run with the same seed even though only the
//!   latter draws agent-facing faults.

use crate::rng::DetRng;
use crate::time::SimDuration;

/// Fault rates and shape parameters for one simulated deployment.
///
/// All `*_rate` fields are probabilities in `[0, 1]`, evaluated once per
/// opportunity: per observation poll, per route install, per agent tick
/// (crash), and per burst-check interval (link bursts).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that an `ss` poll times out entirely (per attempt).
    pub observe_timeout: f64,
    /// Probability that a poll returns truncated (partial) output.
    pub observe_partial: f64,
    /// Probability that an `ip route` invocation fails (per attempt).
    pub install_error: f64,
    /// Probability that a route install is accepted but applied late.
    pub install_delay: f64,
    /// How late a delayed install lands.
    pub install_delay_for: SimDuration,
    /// Probability, per agent tick, that the agent crashes and loses its
    /// learned table.
    pub crash: f64,
    /// Downtime between a crash and the restarted agent's first tick.
    pub restart_after: SimDuration,
    /// Whether a crash also resets the host's TCP connections — a
    /// machine restart (power cycle, kernel panic) rather than a daemon
    /// crash. A restarted daemon on a surviving machine re-learns its
    /// table within a poll or two from still-established connections; a
    /// restarted *machine* has nothing to observe until traffic returns,
    /// which is the cold-start ramp the `coldstart` experiment measures.
    pub crash_resets_connections: bool,
    /// Probability, per burst-check interval, that a randomly chosen
    /// link enters a loss burst.
    pub burst_start: f64,
    /// Packet loss rate applied to a link while a burst is active.
    pub burst_loss: f64,
    /// Burst duration.
    pub burst_for: SimDuration,
    /// How often burst start/stop decisions are evaluated.
    pub burst_check_every: SimDuration,
    /// Probability, per agent tick, that an external actor perturbs the
    /// kernel route table behind the agent's back: deleting one of the
    /// agent's installs, or injecting an orphan/foreign route (the drift
    /// a reconciler audit must repair).
    pub route_churn: f64,
    /// Probability, per jump-start install, that the destination's path
    /// immediately enters a loss episode — the adversarial case for the
    /// loss guard, where the learned window itself becomes the harm.
    pub targeted_loss: f64,
    /// Packet loss rate applied during a targeted loss episode.
    pub targeted_loss_rate: f64,
    /// Targeted loss episode duration.
    pub targeted_loss_for: SimDuration,
}

impl FaultPlan {
    /// The disabled plan: every rate is zero and the injector never
    /// draws. This is the [`Default`].
    pub fn none() -> Self {
        FaultPlan {
            observe_timeout: 0.0,
            observe_partial: 0.0,
            install_error: 0.0,
            install_delay: 0.0,
            install_delay_for: SimDuration::from_secs(2),
            crash: 0.0,
            restart_after: SimDuration::from_secs(10),
            crash_resets_connections: false,
            burst_start: 0.0,
            burst_loss: 0.0,
            burst_for: SimDuration::from_secs(30),
            burst_check_every: SimDuration::from_secs(10),
            route_churn: 0.0,
            targeted_loss: 0.0,
            targeted_loss_rate: 0.25,
            // Long enough to cover a full default agent poll interval, so
            // the loss is visible in at least one observation window.
            targeted_loss_for: SimDuration::from_secs(90),
        }
    }

    /// The guardrail plan: only the closed-loop-safety categories fire —
    /// external route churn at `rate` per tick and a targeted loss
    /// episode following `rate` of jump-start installs. Everything the
    /// chaos sweep exercises (poll/install/crash/burst faults) stays
    /// zero, so guardrail runs isolate the new failure modes.
    pub fn guardrail(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate {rate} outside [0, 1]"
        );
        FaultPlan {
            route_churn: rate,
            targeted_loss: rate,
            ..FaultPlan::none()
        }
    }

    /// A bursts-only plan: transient link loss episodes fire at `rate`
    /// per check interval with 20% in-burst loss, and every other
    /// category stays zero. This is the overlay scenario specs use for
    /// "episodically lossy" regimes — the path itself misbehaves while
    /// agents, polls and installs stay healthy, so any policy-ranking
    /// shift is attributable to the wire alone.
    pub fn loss_bursts(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate {rate} outside [0, 1]"
        );
        FaultPlan {
            burst_start: rate,
            burst_loss: 0.2,
            ..FaultPlan::none()
        }
    }

    /// A plan with every per-opportunity rate set to `rate` — the knob the
    /// `chaos` experiment sweeps.
    ///
    /// Crash probability is scaled down by 50× (a 20% fault rate would
    /// otherwise crash every fifth one-second tick, which models a
    /// dead host, not a flaky one): `uniform(0.20)` crashes each agent
    /// about once every 250 ticks. Bursts inflict `10 × rate` packet
    /// loss, capped at 30%.
    pub fn uniform(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate {rate} outside [0, 1]"
        );
        FaultPlan {
            observe_timeout: rate,
            observe_partial: rate,
            install_error: rate,
            install_delay: rate,
            crash: rate / 50.0,
            burst_start: rate,
            burst_loss: (rate * 10.0).min(0.3),
            ..FaultPlan::none()
        }
    }

    /// `true` if any fault category can ever fire.
    pub fn is_enabled(&self) -> bool {
        [
            self.observe_timeout,
            self.observe_partial,
            self.install_error,
            self.install_delay,
            self.crash,
            self.burst_start,
            self.route_churn,
            self.targeted_loss,
        ]
        .iter()
        .any(|&r| r > 0.0)
    }

    /// Checks that all rates are probabilities and durations are positive.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("observe_timeout", self.observe_timeout),
            ("observe_partial", self.observe_partial),
            ("install_error", self.install_error),
            ("install_delay", self.install_delay),
            ("crash", self.crash),
            ("burst_start", self.burst_start),
            ("burst_loss", self.burst_loss),
            ("route_churn", self.route_churn),
            ("targeted_loss", self.targeted_loss),
            ("targeted_loss_rate", self.targeted_loss_rate),
        ];
        for (name, r) in rates {
            if !(0.0..=1.0).contains(&r) || r.is_nan() {
                return Err(format!("{name} = {r} is not a probability"));
            }
        }
        if self.burst_check_every == SimDuration::ZERO {
            return Err("burst_check_every must be positive".to_string());
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// The outcome of one observation (`ss` poll) attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveFault {
    /// The poll succeeded.
    None,
    /// The poll timed out; no rows were returned.
    Timeout,
    /// The poll returned truncated output: only the first `keep` rows
    /// survived.
    Partial {
        /// Number of leading rows that parsed before the truncation point.
        keep: usize,
    },
}

/// The outcome of one route-install (`ip route`) attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallFault {
    /// The install succeeded immediately.
    None,
    /// The install failed, as an `ip route` that exits non-zero does.
    Failed,
    /// The install was accepted but will only take effect after
    /// [`FaultPlan::install_delay_for`].
    Delayed,
}

/// What one route-churn event does to the kernel table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnFault {
    /// No churn this opportunity.
    None,
    /// Delete the `pick`-th (in key order) of the agent's installed
    /// routes — the "operator flushed our route" drift.
    DeleteInstalled {
        /// Index into the agent's installed routes, key-ordered.
        pick: usize,
    },
    /// Inject a route carrying Riptide's exact signature at a prefix the
    /// agent never learned — the "crashed predecessor's orphan" drift.
    InjectOrphan {
        /// Last octet of the orphan's destination host.
        octet: u8,
        /// The orphan's initcwnd value.
        window: u32,
    },
    /// Inject a route *without* Riptide's signature — foreign state the
    /// reconciler must observe but never touch.
    InjectForeign {
        /// Last octet of the foreign route's destination host.
        octet: u8,
    },
}

/// Counters for every fault the injector has fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Observation polls that timed out.
    pub observe_timeouts: u64,
    /// Observation polls that returned partial output.
    pub observe_partials: u64,
    /// Route installs that failed outright.
    pub install_errors: u64,
    /// Route installs that were delayed.
    pub install_delays: u64,
    /// Agent crashes.
    pub crashes: u64,
    /// Link loss bursts started.
    pub bursts: u64,
    /// External route-table churn events fired.
    pub route_churns: u64,
    /// Targeted loss episodes started on jump-started destinations.
    pub targeted_bursts: u64,
}

/// Draws deterministic fault decisions according to a [`FaultPlan`].
///
/// Each category owns an independent [`DetRng`] stream forked from the
/// seed RNG handed to [`FaultInjector::new`], so the draw cadence of one
/// category never perturbs another.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    observe_rng: DetRng,
    install_rng: DetRng,
    crash_rng: DetRng,
    burst_rng: DetRng,
    churn_rng: DetRng,
    targeted_rng: DetRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector drawing from streams forked off `rng`.
    ///
    /// `rng` itself is not advanced ([`DetRng::fork`] is pure), so
    /// attaching an injector to an existing simulation does not shift any
    /// of its random sequences.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan, rng: &DetRng) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        FaultInjector {
            plan,
            observe_rng: rng.fork(0xFA01),
            install_rng: rng.fork(0xFA02),
            crash_rng: rng.fork(0xFA03),
            burst_rng: rng.fork(0xFA04),
            churn_rng: rng.fork(0xFA05),
            targeted_rng: rng.fork(0xFA06),
            stats: FaultStats::default(),
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counts of every fault fired so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decides the fate of one observation poll that would return `rows`
    /// rows on success.
    pub fn observe_fault(&mut self, rows: usize) -> ObserveFault {
        if self.observe_rng.chance(self.plan.observe_timeout) {
            self.stats.observe_timeouts += 1;
            return ObserveFault::Timeout;
        }
        if rows > 0 && self.observe_rng.chance(self.plan.observe_partial) {
            self.stats.observe_partials += 1;
            return ObserveFault::Partial {
                keep: self.observe_rng.below(rows),
            };
        }
        ObserveFault::None
    }

    /// Decides the fate of one route-install attempt.
    pub fn install_fault(&mut self) -> InstallFault {
        if self.install_rng.chance(self.plan.install_error) {
            self.stats.install_errors += 1;
            return InstallFault::Failed;
        }
        if self.install_rng.chance(self.plan.install_delay) {
            self.stats.install_delays += 1;
            return InstallFault::Delayed;
        }
        InstallFault::None
    }

    /// Decides whether the agent crashes on this tick.
    pub fn crashes_now(&mut self) -> bool {
        let crashed = self.crash_rng.chance(self.plan.crash);
        if crashed {
            self.stats.crashes += 1;
        }
        crashed
    }

    /// Decides whether a link loss burst starts at this burst check;
    /// on `Some`, the caller picks the link using the returned draw
    /// helper values `(a, b)` with `a != b` guaranteed when `pops >= 2`.
    pub fn burst_starts(&mut self, pops: usize) -> Option<(usize, usize)> {
        if pops < 2 || !self.burst_rng.chance(self.plan.burst_start) {
            return None;
        }
        self.stats.bursts += 1;
        let a = self.burst_rng.below(pops);
        let mut b = self.burst_rng.below(pops - 1);
        if b >= a {
            b += 1;
        }
        Some((a, b))
    }

    /// Decides whether (and how) external route churn strikes this tick,
    /// given how many routes the agent currently has `installed`.
    ///
    /// Deletions target an existing install; when there is nothing to
    /// delete the event falls through to an injection, so an enabled
    /// churn plan always produces drift.
    pub fn churn_fault(&mut self, installed: usize) -> ChurnFault {
        if !self.churn_rng.chance(self.plan.route_churn) {
            return ChurnFault::None;
        }
        self.stats.route_churns += 1;
        let kind = self.churn_rng.below(3);
        if kind == 0 && installed > 0 {
            return ChurnFault::DeleteInstalled {
                pick: self.churn_rng.below(installed),
            };
        }
        let octet = self.churn_rng.below(256) as u8;
        if kind == 1 {
            ChurnFault::InjectOrphan {
                octet,
                // An in-bounds-looking but stale window, like a crashed
                // predecessor would leave.
                window: 10 + self.churn_rng.below(91) as u32,
            }
        } else {
            ChurnFault::InjectForeign { octet }
        }
    }

    /// Decides whether a jump-start install is punished with a targeted
    /// loss episode on its destination's path.
    pub fn targeted_burst(&mut self) -> bool {
        let fired = self.targeted_rng.chance(self.plan.targeted_loss);
        if fired {
            self.stats.targeted_bursts += 1;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_recognised_and_draw_free() {
        let plan = FaultPlan::none();
        assert!(!plan.is_enabled());
        let rng = DetRng::from_seed(7);
        let mut inj = FaultInjector::new(plan, &rng);
        // With all rates zero no stream is ever advanced, so every
        // decision is the no-fault one.
        for _ in 0..100 {
            assert_eq!(inj.observe_fault(5), ObserveFault::None);
            assert_eq!(inj.install_fault(), InstallFault::None);
            assert!(!inj.crashes_now());
            assert_eq!(inj.burst_starts(10), None);
            assert_eq!(inj.churn_fault(4), ChurnFault::None);
            assert!(!inj.targeted_burst());
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn forking_the_injector_does_not_advance_the_parent_stream() {
        let rng = DetRng::from_seed(99);
        let mut before = rng.clone();
        let _inj = FaultInjector::new(FaultPlan::uniform(0.5), &rng);
        let mut after = rng.clone();
        assert_eq!(before.next_u64(), after.next_u64());
    }

    #[test]
    fn uniform_plan_fires_all_categories() {
        let rng = DetRng::from_seed(42);
        let mut inj = FaultInjector::new(FaultPlan::uniform(0.5), &rng);
        for _ in 0..400 {
            inj.observe_fault(8);
            inj.install_fault();
            inj.crashes_now();
            inj.burst_starts(10);
        }
        let s = inj.stats();
        assert!(s.observe_timeouts > 0, "{s:?}");
        assert!(s.observe_partials > 0, "{s:?}");
        assert!(s.install_errors > 0, "{s:?}");
        assert!(s.install_delays > 0, "{s:?}");
        assert!(s.crashes > 0, "{s:?}");
        assert!(s.bursts > 0, "{s:?}");
    }

    #[test]
    fn loss_bursts_plan_fires_only_the_burst_category() {
        let plan = FaultPlan::loss_bursts(0.5);
        plan.validate().unwrap();
        assert!(plan.is_enabled());
        let rng = DetRng::from_seed(42);
        let mut inj = FaultInjector::new(plan, &rng);
        for _ in 0..400 {
            inj.observe_fault(8);
            inj.install_fault();
            inj.crashes_now();
            inj.burst_starts(10);
        }
        let s = inj.stats();
        assert!(s.bursts > 0, "{s:?}");
        assert_eq!(s.observe_timeouts, 0, "{s:?}");
        assert_eq!(s.observe_partials, 0, "{s:?}");
        assert_eq!(s.install_errors, 0, "{s:?}");
        assert_eq!(s.install_delays, 0, "{s:?}");
        assert_eq!(s.crashes, 0, "{s:?}");
        assert!(!FaultPlan::loss_bursts(0.0).is_enabled());
    }

    #[test]
    fn fault_sequences_are_deterministic() {
        let run = |seed: u64| {
            let rng = DetRng::from_seed(seed);
            let mut inj = FaultInjector::new(FaultPlan::uniform(0.2), &rng);
            (0..200)
                .map(|_| (inj.observe_fault(4), inj.install_fault(), inj.crashes_now()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn burst_picks_distinct_pops() {
        let rng = DetRng::from_seed(3);
        let mut inj = FaultInjector::new(FaultPlan::uniform(1.0), &rng);
        for _ in 0..200 {
            if let Some((a, b)) = inj.burst_starts(5) {
                assert_ne!(a, b);
                assert!(a < 5 && b < 5);
            }
        }
        assert_eq!(inj.burst_starts(1), None, "single-pop world has no links");
    }

    #[test]
    fn category_streams_are_independent() {
        // Drawing heavily from one category must not change another
        // category's sequence.
        let rng = DetRng::from_seed(11);
        let mut a = FaultInjector::new(FaultPlan::uniform(0.3), &rng);
        let mut b = FaultInjector::new(FaultPlan::uniform(0.3), &rng);
        for _ in 0..500 {
            a.observe_fault(4); // perturb only a's observe stream
        }
        let draws_a: Vec<_> = (0..100).map(|_| a.install_fault()).collect();
        let draws_b: Vec<_> = (0..100).map(|_| b.install_fault()).collect();
        assert_eq!(draws_a, draws_b);
    }

    #[test]
    fn guardrail_plan_fires_only_its_own_categories() {
        let plan = FaultPlan::guardrail(0.5);
        assert!(plan.is_enabled());
        plan.validate().unwrap();
        let rng = DetRng::from_seed(21);
        let mut inj = FaultInjector::new(plan, &rng);
        let mut churn_kinds = [0usize; 3];
        for _ in 0..400 {
            // Legacy categories are zero-rate: no draws, no faults.
            assert_eq!(inj.observe_fault(5), ObserveFault::None);
            assert_eq!(inj.install_fault(), InstallFault::None);
            assert!(!inj.crashes_now());
            match inj.churn_fault(3) {
                ChurnFault::None => {}
                ChurnFault::DeleteInstalled { pick } => {
                    assert!(pick < 3);
                    churn_kinds[0] += 1;
                }
                ChurnFault::InjectOrphan { window, .. } => {
                    assert!((10..=100).contains(&window));
                    churn_kinds[1] += 1;
                }
                ChurnFault::InjectForeign { .. } => churn_kinds[2] += 1,
            }
            inj.targeted_burst();
        }
        let s = inj.stats();
        assert!(churn_kinds.iter().all(|&k| k > 0), "{churn_kinds:?}");
        assert!(s.route_churns > 0 && s.targeted_bursts > 0, "{s:?}");
        assert_eq!(s.observe_timeouts + s.install_errors + s.crashes, 0);
    }

    #[test]
    fn churn_with_nothing_installed_never_deletes() {
        let rng = DetRng::from_seed(8);
        let mut inj = FaultInjector::new(FaultPlan::guardrail(1.0), &rng);
        for _ in 0..100 {
            let fault = inj.churn_fault(0);
            assert!(
                !matches!(fault, ChurnFault::DeleteInstalled { .. }),
                "deletion falls through to injection when the table is empty"
            );
            assert_ne!(fault, ChurnFault::None, "rate 1.0 always churns");
        }
    }

    #[test]
    fn churn_stream_is_independent_of_legacy_streams() {
        // A plan that also draws observe/install faults must produce the
        // same churn sequence as one that draws only churn.
        let rng = DetRng::from_seed(17);
        let mut only_churn = FaultInjector::new(FaultPlan::guardrail(0.4), &rng);
        let mut plan = FaultPlan::uniform(0.4);
        plan.route_churn = 0.4;
        plan.targeted_loss = 0.4;
        let mut both = FaultInjector::new(plan, &rng);
        for _ in 0..300 {
            both.observe_fault(6);
            both.install_fault();
        }
        let a: Vec<_> = (0..100).map(|_| only_churn.churn_fault(5)).collect();
        let b: Vec<_> = (0..100).map(|_| both.churn_fault(5)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let mut p = FaultPlan::none();
        p.crash = 1.5;
        assert!(p.validate().is_err());
        p.crash = f64::NAN;
        assert!(p.validate().is_err());
        assert!(FaultPlan::uniform(0.0).validate().is_ok());
        assert!(FaultPlan::uniform(1.0).validate().is_ok());
    }
}

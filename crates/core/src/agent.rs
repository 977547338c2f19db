//! The Riptide agent: Algorithm 1 of the paper.
//!
//! Every `i_u` seconds the agent:
//!
//! 1. polls the current congestion windows of all open connections
//!    (via a [`WindowObserver`]);
//! 2. groups them by destination at the configured granularity;
//! 3. combines each group to one value (average in the deployment);
//! 4. blends it with the destination's history (EWMA with weight `α`);
//! 5. clamps into `[c_min, c_max]` and installs the result as a
//!    per-destination route `initcwnd` (via a [`RouteController`]);
//! 6. expires entries unseen for longer than `t`, withdrawing their
//!    routes so new connections fall back to the kernel default.
//!
//! Each tick decides all of this (plus capacity eviction and prefix
//! aggregation, when configured) before it issues any route command, so
//! it never installs a route that it withdraws in the same tick.
//!
//! The agent is deliberately a pure state machine over those two traits:
//! it can be driven from a simulation clock or a real one, and its
//! actuator can be an in-process table or a shell running `ip route`.

use std::collections::BTreeMap;

use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::time::SimTime;

use crate::advisory::Advisory;
use crate::aggregate::{AggregationPass, Aggregator};
use crate::config::{ConfigError, RiptideConfig};
use crate::control::{ControlError, RouteController};
use crate::guard::{BreakerState, LossGuard};
use crate::observe::WindowObserver;
use crate::persist::{SnapshotEntry, TableSnapshot};
use crate::policy::PolicyInput;
use crate::sync::{clamp_merge, remote_wins, SyncEntry};
use crate::table::{FinalEntry, FinalTable};
use crate::telemetry::{AgentTelemetry, DecisionAction, DecisionCause, DecisionRecord};

/// What one agent tick did, for logging and tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickReport {
    /// Established connections observed this tick.
    pub observed_connections: usize,
    /// Destination groups formed.
    pub groups: usize,
    /// Routes installed or updated: `(key, clamped window)`. A key this
    /// tick evicts, or that an aggregate covers at the end of the tick,
    /// is not installed and not listed.
    pub updates: Vec<(Ipv4Prefix, u32)>,
    /// Destinations whose entries (and routes) expired this tick.
    pub expired: Vec<Ipv4Prefix>,
    /// Destinations evicted by the table's capacity bound this tick. Each
    /// one's route is withdrawn if it had one before the tick; an install
    /// the tick decided for it is never issued.
    pub evicted: Vec<Ipv4Prefix>,
    /// Covering routes installed (or retuned) by the aggregation pass:
    /// `(covering prefix, aggregate window)`.
    pub merged: Vec<(Ipv4Prefix, u32)>,
    /// Covering routes dissolved by the aggregation pass; their members
    /// were reinstalled individually in the same tick.
    pub disaggregated: Vec<Ipv4Prefix>,
    /// Destinations the loss guard tripped this tick (demoted to the
    /// probe window).
    pub guard_trips: Vec<Ipv4Prefix>,
    /// Route-control failures (the agent continues past them, as a
    /// production tool must).
    pub errors: Vec<ControlError>,
    /// Whether this was a degraded tick ([`RiptideAgent::tick_degraded`]):
    /// the poll failed, so no advisory state was updated.
    pub degraded: bool,
}

/// Cumulative counters over the agent's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Observations consumed.
    pub observations: u64,
    /// Route installs/updates issued.
    pub route_updates: u64,
    /// Route withdrawals issued by TTL expiry.
    pub route_expirations: u64,
    /// Control errors encountered.
    pub errors: u64,
    /// Degraded ticks: cycles whose observation poll failed outright, so
    /// only TTL expiry ran.
    pub degraded_ticks: u64,
    /// Loss-guard breaker trips (destinations demoted to the probe
    /// window because their post-install retransmit rate ran hot).
    pub guard_trips: u64,
    /// Destinations evicted by the learned table's capacity bound.
    pub table_evictions: u64,
    /// Drift repairs performed by reconciler audits (re-installs of
    /// externally deleted routes plus withdrawals of orphans).
    pub reconcile_repairs: u64,
    /// Sibling host routes coalesced into a covering aggregate route.
    pub aggregate_merges: u64,
    /// Aggregates dissolved back into individual member routes.
    pub aggregate_splits: u64,
    /// Routes reinstalled from a persisted state file at warm restart.
    pub restored_routes: u64,
    /// Entries accepted from gossip peers (newest-stamp conflict rule).
    pub sync_merges: u64,
    /// Installs the loss guard demoted to the probe window.
    pub suppressed_installs: u64,
    /// Learned installs whose blended window the `[c_min, c_max]` clamp
    /// changed.
    pub clamped_installs: u64,
    /// Routes withdrawn by the graceful-shutdown sweep (also counted in
    /// `route_expirations`).
    pub shutdown_withdrawals: u64,
    /// Snapshot entries a restore found dropped at decode for unknown
    /// history tags.
    pub persist_skipped_entries: u64,
    /// Learned entries the ticks' sweeps visited, degraded ticks' expiry
    /// sweeps included: what a tick's walk of its table costs, as a
    /// count. Not exported as telemetry.
    pub swept_entries: u64,
    /// Learned entries the aggregation passes read. Not exported as
    /// telemetry.
    pub pass_members: u64,
}

impl std::ops::AddAssign for AgentStats {
    /// Sums two agents' counters, field by field. The literal names every
    /// field, so a count added to the struct does not compile until it is
    /// summed here.
    fn add_assign(&mut self, rhs: Self) {
        *self = AgentStats {
            ticks: self.ticks + rhs.ticks,
            observations: self.observations + rhs.observations,
            route_updates: self.route_updates + rhs.route_updates,
            route_expirations: self.route_expirations + rhs.route_expirations,
            errors: self.errors + rhs.errors,
            degraded_ticks: self.degraded_ticks + rhs.degraded_ticks,
            guard_trips: self.guard_trips + rhs.guard_trips,
            table_evictions: self.table_evictions + rhs.table_evictions,
            reconcile_repairs: self.reconcile_repairs + rhs.reconcile_repairs,
            aggregate_merges: self.aggregate_merges + rhs.aggregate_merges,
            aggregate_splits: self.aggregate_splits + rhs.aggregate_splits,
            restored_routes: self.restored_routes + rhs.restored_routes,
            sync_merges: self.sync_merges + rhs.sync_merges,
            suppressed_installs: self.suppressed_installs + rhs.suppressed_installs,
            clamped_installs: self.clamped_installs + rhs.clamped_installs,
            shutdown_withdrawals: self.shutdown_withdrawals + rhs.shutdown_withdrawals,
            persist_skipped_entries: self.persist_skipped_entries + rhs.persist_skipped_entries,
            swept_entries: self.swept_entries + rhs.swept_entries,
            pass_members: self.pass_members + rhs.pass_members,
        };
    }
}

/// The Riptide agent.
///
/// # Examples
///
/// ```
/// use riptide::prelude::*;
/// use riptide_linuxnet::route::RouteTable;
/// use riptide_simnet::time::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut agent = RiptideAgent::new(RiptideConfig::deployment())?;
/// let mut routes = RouteTable::new();
///
/// // One poll observed two connections to the same host, windows 60/100.
/// let mut observer = FnObserver(|| {
///     vec![
///         CwndObservation { dst: Ipv4Addr::new(10, 0, 1, 1), cwnd: 60, bytes_acked: 1 << 20, retrans: 0, ecn_marks: 0 },
///         CwndObservation { dst: Ipv4Addr::new(10, 0, 1, 1), cwnd: 100, bytes_acked: 1 << 20, retrans: 0, ecn_marks: 0 },
///     ]
/// });
/// let report = agent.tick(SimTime::from_secs(1), &mut observer, &mut routes);
/// assert_eq!(report.updates, vec![("10.0.1.1".parse()?, 80)]);
/// assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(80));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RiptideAgent {
    config: RiptideConfig,
    table: FinalTable,
    stats: AgentStats,
    advisory: Advisory,
    /// Loss-aware circuit breaker, present when the config enables it.
    guard: Option<LossGuard>,
    /// Prefix aggregation pass, present when the config enables it.
    /// Learning stays at the configured granularity; this only changes
    /// what is *installed*: agreeing siblings share one covering route.
    aggregator: Option<Aggregator>,
    /// Covering prefixes with a member whose window moved, or that
    /// arrived or left, since the last aggregation pass: the next pass
    /// re-decides only these. Stays empty without aggregation.
    dirty: Vec<Ipv4Prefix>,
    /// Whether the next pass must re-decide every covering prefix: true
    /// until the first tick, and after a restore or a gossip merge, which
    /// change the table (or the live aggregates) without marking it.
    full_pass_due: bool,
    /// The agent's view of what it has installed in the kernel: key →
    /// last window issued through the controller. This is the expected
    /// state reconciler audits diff against, and the withdrawal list a
    /// graceful shutdown walks.
    installed: BTreeMap<Ipv4Prefix, u32>,
    /// Optional observability bundle; `None` means zero telemetry work.
    telemetry: Option<AgentTelemetry>,
    /// `stats` as of the last [`RiptideAgent::publish`]: what the
    /// registry's counters already hold of them.
    published: AgentStats,
    /// The most recent tick instant, used to stamp journal records for
    /// actions that happen outside a tick (reconcile, shutdown).
    last_now: SimTime,
}

/// Notes that `key`'s covering prefix, if it has one, needs the next
/// aggregation pass. Callers mostly walk keys in ascending order, so a
/// prefix marked twice in a row is noted once.
fn mark_dirty(aggregator: Option<&Aggregator>, dirty: &mut Vec<Ipv4Prefix>, key: &Ipv4Prefix) {
    if let Some(covering) = aggregator.and_then(|agg| agg.policy().covering_of(key)) {
        if dirty.last() != Some(&covering) {
            dirty.push(covering);
        }
    }
}

/// Whether a live aggregate covers `key`. Callers walk keys in ascending
/// order, so all members of one covering prefix are consecutive: `last`
/// keeps the answer for the latest covering prefix, and the aggregator is
/// asked once per prefix.
///
/// Inlined: the sweep asks once per destination, and as a call this cost
/// a million-destination tick about 5 ms.
#[inline(always)]
fn covered_by(
    aggregator: Option<&Aggregator>,
    key: &Ipv4Prefix,
    last: &mut Option<(Ipv4Prefix, bool)>,
) -> bool {
    let Some(covering) = aggregator.and_then(|agg| agg.policy().covering_of(key)) else {
        return false;
    };
    match *last {
        Some((prefix, live)) if prefix == covering => live,
        _ => {
            let live = aggregator.is_some_and(|agg| agg.window_of(&covering).is_some());
            *last = Some((covering, live));
            live
        }
    }
}

impl RiptideAgent {
    /// Creates an agent with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(config: RiptideConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let table = config
            .table_capacity
            .map_or_else(FinalTable::new, FinalTable::bounded);
        let guard = config.guard.clone().map(LossGuard::new);
        let aggregator = config.aggregation.map(Aggregator::new);
        Ok(RiptideAgent {
            config,
            table,
            stats: AgentStats::default(),
            advisory: Advisory::Normal,
            guard,
            aggregator,
            dirty: Vec::new(),
            full_pass_due: true,
            installed: BTreeMap::new(),
            telemetry: None,
            published: AgentStats::default(),
            last_now: SimTime::ZERO,
        })
    }

    /// Attaches an observability bundle: from here on every tick updates
    /// its counters and gauges and every route decision is journaled.
    /// Agents without one (the default) skip all telemetry work.
    ///
    /// The counters start from here: what the agent counted before the
    /// bundle was attached is never added to it.
    pub fn attach_telemetry(&mut self, telemetry: AgentTelemetry) {
        self.telemetry = Some(telemetry);
        self.published = self.stats;
    }

    /// The attached observability bundle, if any.
    pub fn telemetry(&self) -> Option<&AgentTelemetry> {
        self.telemetry.as_ref()
    }

    /// Sets the control-plane advisory shaping future installs (§V).
    ///
    /// # Errors
    ///
    /// Returns the advisory's validation error, if any.
    pub fn set_advisory(&mut self, advisory: Advisory) -> Result<(), ConfigError> {
        advisory.validate().map_err(ConfigError::new)?;
        self.advisory = advisory;
        Ok(())
    }

    /// The currently active advisory.
    pub fn advisory(&self) -> Advisory {
        self.advisory
    }

    /// The agent's configuration.
    pub fn config(&self) -> &RiptideConfig {
        &self.config
    }

    /// The live final-values table.
    pub fn table(&self) -> &FinalTable {
        &self.table
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// The window currently learned for a destination address, if any.
    pub fn learned_window(&self, dst: std::net::Ipv4Addr) -> Option<u32> {
        let key = self.config.granularity.key(dst);
        self.table.window(&key)
    }

    /// The agent's view of what it has installed in the kernel: one
    /// `(key, window)` pair per route issued and not yet withdrawn.
    pub fn installed_view(&self) -> &BTreeMap<Ipv4Prefix, u32> {
        &self.installed
    }

    /// The loss guard, when the configuration enables one.
    pub fn guard(&self) -> Option<&LossGuard> {
        self.guard.as_ref()
    }

    /// The prefix aggregator, when the configuration enables one.
    pub fn aggregator(&self) -> Option<&Aggregator> {
        self.aggregator.as_ref()
    }

    /// Runs one cycle of Algorithm 1 at simulated instant `now`.
    ///
    /// Route installs are issued only when the clamped window for a
    /// destination actually changed — repeating an identical `ip route
    /// replace` every second would be pure overhead (the stored TTL is
    /// refreshed regardless, as the paper requires).
    ///
    /// The tick decides, then issues. Steps 1–5 learn and record each
    /// destination's install; steps 6–8 decide expiry, capacity eviction
    /// and the aggregation pass; step 9 sends the commands in that order.
    /// An install is left out when the same tick evicts its key or an
    /// aggregate covers the key at the end of the tick, and so is that
    /// key's withdrawal when it had no route before the tick: no tick
    /// installs a route it withdraws. Without aggregation or a capacity
    /// bound nothing is ever left out.
    pub fn tick<O, C>(&mut self, now: SimTime, observer: &mut O, controller: &mut C) -> TickReport
    where
        O: WindowObserver + ?Sized,
        C: RouteController + ?Sized,
    {
        let mut report = TickReport::default();
        self.stats.ticks += 1;
        self.last_now = now;

        // 1. observed table ← current windows of all connections.
        let mut observations = observer.observe();
        report.observed_connections = observations.len();
        self.stats.observations += observations.len() as u64;

        // 2. group by destination: a stable sort by key makes each run of
        // equal keys one group, visited in ascending key order — the same
        // groups, group order, and within-group order a BTreeMap of Vecs
        // would produce, without its per-destination allocations.
        let granularity = self.config.granularity;
        observations.sort_by_key(|obs| granularity.key(obs.dst));

        // 3–6 are one ordered sweep: the groups and the learned table are
        // both in key order, so a single cursor over the table hands each
        // group its entry in place (first-seen keys are buffered and
        // inserted when the sweep is settled), and every entry the cursor
        // passes that no group asked for is age-checked on the way — the
        // expiry scan, for free.
        let mut sweep = self.table.sweep(now, self.config.ttl);
        let mut covered_under = None;
        // The installs the sweep decides on; step 9 issues them.
        let mut installs: Vec<(Ipv4Prefix, u32, DecisionCause)> = Vec::new();

        // 3–5. combine, blend with history, shape (trend + advisory),
        // clamp, guard, decide the install.
        for group in observations.chunk_by(|a, b| granularity.key(a.dst) == granularity.key(b.dst))
        {
            let key = granularity.key(group[0].dst);
            report.groups += 1;
            let Some(fresh) = self.config.combine.combine(group) else {
                continue;
            };
            // The group's cumulative loss counters feed both the
            // loss-aware policies and (below) the guard.
            // Saturating: the counters are `ss` text, and two rows near
            // `u64::MAX` must read as "a lot", not wrap to "nothing".
            let (mut retrans_total, mut ecn_total, mut bytes_total) = (0u64, 0u64, 0u64);
            for o in group {
                retrans_total = retrans_total.saturating_add(o.retrans);
                ecn_total = ecn_total.saturating_add(o.ecn_marks);
                bytes_total = bytes_total.saturating_add(o.bytes_acked);
            }
            let (entry, previous_fresh) = match sweep.seek(&key) {
                Some(entry) => {
                    let previous = entry.last_fresh;
                    (entry, Some(previous))
                }
                None => {
                    let first_seen = FinalEntry::new(&self.config.policy, fresh, now);
                    (sweep.insert(key, first_seen), None)
                }
            };
            let blended = entry.observe(
                &PolicyInput {
                    fresh,
                    retrans: retrans_total,
                    ecn_marks: ecn_total,
                    bytes_acked: bytes_total,
                },
                &self.config.policy,
                now,
            );
            let (shaped, trend_damped) = match &self.config.trend {
                Some(trend) => {
                    let s =
                        trend.shape(previous_fresh, fresh, blended, self.config.cwnd_min as f64);
                    (s, s != blended)
                }
                None => (blended, false),
            };
            let Some(shaped) = self.advisory.shape(shaped) else {
                // Suspended: keep learning but install nothing.
                continue;
            };
            let window = self.config.clamp(shaped);
            let clamped = window as f64 != shaped.round();
            if entry.window != window {
                mark_dirty(self.aggregator.as_ref(), &mut self.dirty, &key);
            }
            entry.window = window;

            // A key covered by a live aggregate already rides its
            // covering route: learning (and the guard) keep running, but
            // no individual route is issued. Divergence dissolves the
            // aggregate in this tick's pass, which reinstalls the key
            // individually.
            let covered = covered_by(self.aggregator.as_ref(), &key, &mut covered_under);

            // The window issued for the key, read once for the guard's
            // jump-start test and the install's changed-window test (a
            // covered key without a guard needs neither).
            let issued = match (&self.guard, covered) {
                (None, true) => None,
                _ => self.installed.get(&key).copied(),
            };

            // Guard: feed the group's cumulative loss counters and, when
            // the breaker is not Closed, demote the install to the probe
            // window — the kernel default, as if Riptide never touched
            // this destination.
            let mut effective = window;
            let mut suppressed_by = None;
            if let Some(guard) = &mut self.guard {
                let probe_window = guard.config().probe_window;
                let jump_started = issued.is_some_and(|w| w > probe_window);
                let verdict = guard.update(key, retrans_total, bytes_total, jump_started, now);
                if verdict.tripped {
                    self.stats.guard_trips += 1;
                    report.guard_trips.push(key);
                }
                if verdict.state != BreakerState::Closed {
                    effective = self.config.clamp(probe_window as f64);
                    suppressed_by = Some(verdict.state);
                }
            }

            // Install only when the issued window would actually change —
            // repeating an identical `ip route replace` is pure churn.
            if !covered && issued != Some(effective) {
                let cause = match suppressed_by {
                    Some(state) => DecisionCause::Guard { state },
                    None => DecisionCause::Learned {
                        fresh: fresh.round() as u32,
                        clamped,
                        trend_damped,
                        policy: self.config.policy.name(),
                    },
                };
                installs.push((key, effective, cause));
            }
        }
        // The sweep's groups borrow the observations; nothing after it
        // does, so a cold tick's million rows go before the table grows.
        drop(observations);

        // 6. expire stale destinations.
        let swept = sweep.finish();
        self.stats.swept_entries += swept.visited() as u64;
        let expired = self.table.settle(swept);
        for key in &expired {
            mark_dirty(self.aggregator.as_ref(), &mut self.dirty, key);
        }

        // 7. enforce the table's capacity bound. With aggregation on, an
        // aggregate's members are charged as ONE entry and evicted as a
        // unit; its covering route is withdrawn by this tick's pass (step
        // 8), which sees the member group vanish.
        let evicted = match self.aggregator.as_ref() {
            Some(agg) => self
                .table
                .enforce_capacity_grouped(|key| agg.covering_of(key)),
            None => self.table.enforce_capacity(),
        };
        for key in &evicted {
            mark_dirty(self.aggregator.as_ref(), &mut self.dirty, key);
        }

        // 8. aggregation: coalesce agreeing siblings into one covering
        // route, dissolve diverged or emptied aggregates back into
        // member routes. A no-op unless the config enables it. Only the
        // covering prefixes marked since the last pass are re-decided, so
        // a tick where nothing moved runs no pass at all.
        let pass = self.aggregator.as_mut().and_then(|agg| {
            let (pass, read) = if std::mem::take(&mut self.full_pass_due) {
                (agg.pass(&self.table), self.table.len())
            } else if self.dirty.is_empty() {
                return None;
            } else {
                agg.pass_over(&self.table, &mut self.dirty)
            };
            self.dirty.clear();
            self.stats.pass_members += read as u64;
            Some(pass)
        });

        // 9. issue, in the order decided: installs, expiry withdrawals,
        // eviction withdrawals, then the pass's merges, retunes and
        // splits. An install the tick would undo is left out: its key was
        // evicted, or an aggregate covers it now. The view still holds
        // what the key had before the tick, so its withdrawal goes out
        // only if it had a route of its own to begin with.
        let mut evicted_keys = evicted.clone();
        evicted_keys.sort_unstable();
        let mut covered_under = None;
        for (key, window, cause) in installs {
            if evicted_keys.binary_search(&key).is_ok()
                || covered_by(self.aggregator.as_ref(), &key, &mut covered_under)
            {
                continue;
            }
            if self.install(key, window, cause, controller, &mut report.errors) {
                report.updates.push((key, window));
            }
        }
        self.withdraw_expired(expired, controller, &mut report);
        for key in evicted {
            self.stats.table_evictions += 1;
            report.evicted.push(key);
            if let Some(guard) = &mut self.guard {
                guard.forget(&key);
            }
            // The eviction is journalled whether or not the key had a
            // route of its own; the withdrawal adds no second record.
            self.journal(key, DecisionAction::Evict, DecisionCause::Capacity);
            self.withdraw(key, None, controller, &mut report.errors);
        }
        if let Some(pass) = pass {
            self.apply_aggregation(&pass, controller, &mut report);
        }

        self.publish();
        self.refresh_gauges();
        report
    }

    /// Applies one [`AggregationPass`] through the
    /// controller: merges withdraw the member routes the view holds and
    /// install the covering route at the member-minimum window; splits
    /// withdraw the covering route and reinstall every surviving member at
    /// its learned window. Every action is journal-attributed to the
    /// merge/split that caused it.
    fn apply_aggregation<C>(
        &mut self,
        pass: &AggregationPass,
        controller: &mut C,
        report: &mut TickReport,
    ) where
        C: RouteController + ?Sized,
    {
        // A merge folds its members' routes into the covering one; a
        // retune only moves the covering window.
        let merged = pass.merged.iter().map(|m| (m, true));
        let retuned = pass.retuned.iter().map(|m| (m, false));
        for (merge, fresh) in merged.chain(retuned) {
            let cause = DecisionCause::Aggregated {
                members: merge.members.len() as u32,
                spread: merge.spread,
            };
            if fresh {
                self.stats.aggregate_merges += 1;
                for &member in &merge.members {
                    self.withdraw(member, Some(cause), controller, &mut report.errors);
                }
            }
            let (key, window) = (merge.covering, merge.window);
            if self.install(key, window, cause, controller, &mut report.errors) {
                report.merged.push((key, window));
            }
        }
        for split in &pass.split {
            self.stats.aggregate_splits += 1;
            report.disaggregated.push(split.covering);
            let cause = DecisionCause::Disaggregated {
                members: split.members.len() as u32,
                spread: split.spread,
            };
            self.withdraw(split.covering, Some(cause), controller, &mut report.errors);
            // Surviving members come back as individual routes at their
            // learned windows. (A guard-suppressed member re-demotes to
            // the probe window on its next observed tick.)
            for &(member, window) in &split.members {
                self.install(member, window, cause, controller, &mut report.errors);
            }
        }
    }

    /// Issues `key`'s window — the one place a route is installed. The
    /// view records what was *issued*, accepted or not (a failed install
    /// is repaired by the next reconciler audit, not by hammering the
    /// controller every tick); a refusal is counted and handed to
    /// `errors`; a success is journalled under `cause`, which also says
    /// where it counts: a restored or gossiped route is not a route
    /// update, a guard demotion is a suppressed one. Returns whether the
    /// controller accepted.
    ///
    /// Inlined: a tick issues one per destination whose window moved, and
    /// as a call this cost a 5 000-destination tick a tenth of its time.
    #[inline(always)]
    fn install<C>(
        &mut self,
        key: Ipv4Prefix,
        window: u32,
        cause: DecisionCause,
        controller: &mut C,
        errors: &mut Vec<ControlError>,
    ) -> bool
    where
        C: RouteController + ?Sized,
    {
        let issued = controller.set_initcwnd(key, window);
        self.installed.insert(key, window);
        if let Err(e) = issued {
            self.stats.errors += 1;
            errors.push(e);
            return false;
        }
        let action = match cause {
            DecisionCause::Guard { .. } => DecisionAction::Suppress { window },
            _ => DecisionAction::Install { window },
        };
        match cause {
            DecisionCause::Restored { .. } => self.stats.restored_routes += 1,
            // Counted by the caller: once per accepted entry, issued or not.
            DecisionCause::SyncMerged { .. } => {}
            _ => {
                let suppressed = matches!(cause, DecisionCause::Guard { .. });
                let clamped = matches!(cause, DecisionCause::Learned { clamped: true, .. });
                self.stats.route_updates += 1;
                self.stats.suppressed_installs += u64::from(suppressed);
                self.stats.clamped_installs += u64::from(clamped);
                if let Some(t) = &self.telemetry {
                    t.installed_window.observe(window as u64);
                }
            }
        }
        self.journal(key, action, cause);
        true
    }

    /// Withdraws `key`'s route — the one place a route is cleared. The
    /// key leaves the view and, if the view held it, its route is
    /// cleared: a refusal is counted and handed to `errors`, a success is
    /// counted and journalled under `cause` (`None`: the caller already
    /// journalled what happened to the key). A key the view does not hold
    /// has no route of its own (it rides a covering aggregate, or was
    /// never installed) — except that without aggregation a TTL expiry
    /// is withdrawn regardless, as ever: a failed install may have left
    /// the kernel ahead of the view. Returns `false` only on a refusal.
    /// Inlined for the same reason as [`RiptideAgent::install`].
    #[inline(always)]
    fn withdraw<C>(
        &mut self,
        key: Ipv4Prefix,
        cause: Option<DecisionCause>,
        controller: &mut C,
        errors: &mut Vec<ControlError>,
    ) -> bool
    where
        C: RouteController + ?Sized,
    {
        let held = self.installed.remove(&key).is_some();
        let regardless = cause == Some(DecisionCause::TtlExpired) && self.aggregator.is_none();
        if !held && !regardless {
            return true;
        }
        if let Err(e) = controller.clear_initcwnd(key) {
            self.stats.errors += 1;
            errors.push(e);
            return false;
        }
        match cause {
            Some(DecisionCause::TtlExpired) => self.stats.route_expirations += 1,
            Some(DecisionCause::Shutdown) => {
                self.stats.route_expirations += 1;
                self.stats.shutdown_withdrawals += 1;
            }
            _ => {}
        }
        if let Some(cause) = cause {
            self.journal(key, DecisionAction::Withdraw, cause);
        }
        true
    }

    /// Journals one decision, stamped with the current cycle's instant.
    fn journal(&self, key: Ipv4Prefix, action: DecisionAction, cause: DecisionCause) {
        if let Some(t) = &self.telemetry {
            t.journal().record(DecisionRecord {
                at: self.last_now,
                key,
                action,
                cause,
            });
        }
    }

    /// Adds what `stats` gained since the last call to the registry's
    /// counters. Every public entry point that counts ends with this, so
    /// the agent increments one thing — `stats` — and the registry
    /// follows by construction.
    fn publish(&mut self) {
        let Some(t) = &self.telemetry else { return };
        t.publish(&self.stats, &self.published);
        self.published = self.stats;
    }

    /// Re-derives the point-in-time gauges from live state. Cheap enough
    /// to run at the end of every tick.
    fn refresh_gauges(&self) {
        let Some(t) = &self.telemetry else { return };
        t.table_entries.set(self.table.len() as u64);
        t.installed_routes.set(self.installed.len() as u64);
        let (_, open, half_open) = self
            .guard
            .as_ref()
            .map_or((0, 0, 0), |g| g.breaker_counts());
        t.breaker_open.set(open as u64);
        t.breaker_half_open.set(half_open as u64);
    }

    /// Runs one reconciler audit cycle against a kernel route dump:
    /// re-installs externally deleted or rewritten routes, withdraws
    /// orphaned Riptide-signature routes, and leaves foreign routes
    /// untouched (see [`crate::reconcile`]).
    pub fn reconcile<C>(
        &mut self,
        kernel: &riptide_linuxnet::route::RouteTable,
        controller: &mut C,
    ) -> crate::reconcile::AuditReport
    where
        C: RouteController + ?Sized,
    {
        let bounds = (self.config.cwnd_min, self.config.cwnd_max);
        let report = crate::reconcile::audit(&self.installed, kernel, bounds, controller);
        self.stats.reconcile_repairs += report.repairs() as u64;
        self.stats.errors += report.errors.len() as u64;
        let cause = DecisionCause::Reconcile {
            verdict: report.verdict(),
        };
        let reinstalled = report.reinstalled.iter().map(|&(k, w)| (k, Some(w)));
        let withdrawn = report.withdrawn.iter().map(|&k| (k, None));
        for (key, window) in reinstalled.chain(withdrawn) {
            self.journal(key, DecisionAction::Repair { window }, cause);
        }
        self.publish();
        report
    }

    /// Gracefully shuts the agent down: withdraws every route it believes
    /// it has installed, so the host reverts to kernel-default behavior
    /// the moment the agent exits. Returns the keys withdrawn.
    ///
    /// Withdrawal failures are counted but do not stop the sweep — on the
    /// way out, every remaining route must still get its chance.
    pub fn shutdown<C>(&mut self, controller: &mut C) -> Vec<Ipv4Prefix>
    where
        C: RouteController + ?Sized,
    {
        let keys: Vec<Ipv4Prefix> = self.installed.keys().copied().collect();
        // Nothing carries a refusal out of here; it is counted.
        let mut refused = Vec::new();
        for &key in &keys {
            self.withdraw(key, Some(DecisionCause::Shutdown), controller, &mut refused);
        }
        self.publish();
        self.refresh_gauges();
        keys
    }

    /// Captures the agent's full learned state — table entries with
    /// their history and TTL stamps, the installed-routes view, and the
    /// loss guard's breaker states — as a persistable
    /// [`TableSnapshot`] stamped `now`.
    pub fn snapshot_state(&self, now: SimTime) -> TableSnapshot {
        TableSnapshot {
            taken_at: now,
            entries: self
                .table
                .iter()
                .map(|(k, e)| SnapshotEntry {
                    key: *k,
                    window: e.window,
                    last_fresh: e.last_fresh,
                    last_updated: e.last_updated,
                    history: e.history.clone(),
                })
                .collect(),
            installs: self.installed.iter().map(|(k, w)| (*k, *w)).collect(),
            guards: self
                .guard
                .as_ref()
                .map_or_else(Vec::new, |g| g.export_states()),
            skipped_entries: 0,
        }
    }

    /// Warm-restarts the agent from a decoded snapshot: rebuilds the
    /// learned table, guard state, and installed routes, reissuing each
    /// surviving route through `controller`.
    ///
    /// Safety rules, in order:
    ///
    /// * **TTL keeps running across the downtime** — an entry whose
    ///   `last_updated` is more than `t` seconds before `now` is dropped,
    ///   not resurrected; its route is never reissued.
    /// * **Windows are clamped into `[c_min, c_max]`** on the way in, so
    ///   a corrupt or foreign-config state file cannot install an
    ///   out-of-bounds window.
    /// * **History re-seeds on policy mismatch** — a persisted history
    ///   whose variant does not match the configured learning policy
    ///   ([`LearningPolicy::state_matches`]) is replaced by a fresh state
    ///   seeded with one blend of the entry's `last_fresh` (never fed to
    ///   [`LearningPolicy::observe`] raw, which would panic on the
    ///   mismatch).
    /// * **Entries the decoder skipped are surfaced** — a snapshot whose
    ///   decode dropped entries with unknown history tags (written by a
    ///   newer version) counts them in
    ///   [`AgentStats::persist_skipped_entries`] (published as
    ///   `riptide_persist_skipped_entries_total`).
    /// * **Only routes with a surviving table entry are reinstalled** —
    ///   or, for a covering aggregate (which has no entry of its own),
    ///   with at least `min_siblings` surviving members, in which case the
    ///   aggregate is live again and the next tick issues nothing for it.
    ///   Each is journalled as [`DecisionCause::Restored`]; foreign routes
    ///   are never touched (the controller only writes Riptide-signature
    ///   routes).
    ///
    /// Returns the `(key, window)` pairs reinstalled.
    ///
    /// [`LearningPolicy::state_matches`]: crate::policy::LearningPolicy::state_matches
    /// [`LearningPolicy::observe`]: crate::policy::LearningPolicy::observe
    pub fn restore_state<C>(
        &mut self,
        state: &TableSnapshot,
        now: SimTime,
        controller: &mut C,
    ) -> Vec<(Ipv4Prefix, u32)>
    where
        C: RouteController + ?Sized,
    {
        self.last_now = now;
        self.stats.persist_skipped_entries += state.skipped_entries as u64;
        let (lo, hi) = (self.config.cwnd_min, self.config.cwnd_max);
        // One batch, built at exactly the size of the surviving entries:
        // a snapshot's entries are in key order already, so into an
        // empty table the batch becomes the table with no sort, no merge
        // and no spare capacity.
        let alive = |e: &&SnapshotEntry| now.saturating_since(e.last_updated) <= self.config.ttl;
        let mut batch = Vec::with_capacity(state.entries.iter().filter(alive).count());
        batch.extend(state.entries.iter().filter(alive).map(|e| {
            let history = if self.config.policy.state_matches(&e.history) {
                e.history.clone()
            } else {
                self.config.policy.seeded(e.last_fresh)
            };
            let entry = FinalEntry {
                window: e.window.clamp(lo, hi),
                history,
                last_fresh: e.last_fresh,
                last_updated: e.last_updated,
            };
            (e.key, entry)
        }));
        self.table.insert_batch(batch);
        if let Some(guard) = &mut self.guard {
            guard.restore_states(&state.guards);
        }
        // A covering aggregate has no table entry of its own — its
        // members do — so the aggregator decides which ones survive.
        if let Some(agg) = &mut self.aggregator {
            let clamped = state.installs.iter().map(|&(k, w)| (k, w.clamp(lo, hi)));
            agg.restore(clamped, &self.table);
        }
        self.full_pass_due = true;
        let cause = DecisionCause::Restored {
            age_secs: now.saturating_since(state.taken_at).as_secs_f64() as u32,
        };
        let mut reinstalled = Vec::new();
        // Nothing carries a refusal out of here; it is counted.
        let mut refused = Vec::new();
        for &(key, window) in &state.installs {
            // A route whose entry (or, for an aggregate, whose members)
            // expired during the downtime or was filtered above stays
            // withdrawn — the restart withdrew everything, so silence is
            // already the correct state.
            let live_aggregate = self
                .aggregator
                .as_ref()
                .is_some_and(|agg| agg.window_of(&key).is_some());
            if self.table.get(&key).is_none() && !live_aggregate {
                continue;
            }
            let window = window.clamp(lo, hi);
            if self.install(key, window, cause, controller, &mut refused) {
                reinstalled.push((key, window));
            }
        }
        self.publish();
        self.refresh_gauges();
        reinstalled
    }

    /// Merges a gossip delta from a peer into the learned table under
    /// the anti-entropy conflict rules of [`crate::sync`]:
    ///
    /// * **Newest `last_updated` wins** — a remote entry older than (or
    ///   tied with) the local one is ignored.
    /// * **Windows clamp-merge into `[c_min, c_max]`** — a peer with a
    ///   wider configuration can never push an out-of-bounds window.
    /// * **TTL applies** — a remote entry that would already have
    ///   expired here is ignored, not resurrected.
    /// * **Foreign routes are never touched** — accepted entries go
    ///   through the same controller path as learned ones, which only
    ///   writes Riptide-signature routes; keys covered by a live
    ///   aggregate ride their covering route, as in [`RiptideAgent::tick`].
    ///
    /// A locally known key keeps its history accumulator (the peer sent
    /// a window, not observations); an unknown key's history is seeded
    /// with the merged window. Every acceptance is journalled as
    /// [`DecisionCause::SyncMerged`]. Returns the `(key, window)` pairs
    /// accepted.
    pub fn merge_remote<C>(
        &mut self,
        delta: &[SyncEntry],
        now: SimTime,
        controller: &mut C,
    ) -> Vec<(Ipv4Prefix, u32)>
    where
        C: RouteController + ?Sized,
    {
        self.last_now = now;
        let mut accepted = Vec::new();
        // Nothing carries a refusal out of here; it is counted.
        let mut refused = Vec::new();
        // The accepted entries, written to the table as one batch at the
        // end. A key the delta repeats is judged against the entry its
        // earlier occurrence wrote.
        let mut written: BTreeMap<Ipv4Prefix, FinalEntry> = BTreeMap::new();
        for remote in delta {
            if now.saturating_since(remote.last_updated) > self.config.ttl {
                continue;
            }
            let known = written
                .get(&remote.key)
                .or_else(|| self.table.get(&remote.key));
            let local = known.map(|e| SyncEntry {
                key: remote.key,
                window: e.window,
                last_updated: e.last_updated,
            });
            if !remote_wins(local.as_ref(), remote) {
                continue;
            }
            let window = clamp_merge(remote.window, self.config.cwnd_min, self.config.cwnd_max);
            let clamped = window != remote.window;
            let (history, last_fresh) = match known {
                Some(e) => (e.history.clone(), e.last_fresh),
                None => (self.config.policy.seeded(window as f64), window as f64),
            };
            written.insert(
                remote.key,
                FinalEntry {
                    window,
                    history,
                    last_fresh,
                    last_updated: remote.last_updated,
                },
            );
            let covered = self
                .aggregator
                .as_ref()
                .and_then(|agg| agg.covering_of(&remote.key))
                .is_some();
            if !covered && self.installed.get(&remote.key).copied() != Some(window) {
                let cause = DecisionCause::SyncMerged { clamped };
                self.install(remote.key, window, cause, controller, &mut refused);
            }
            self.stats.sync_merges += 1;
            accepted.push((remote.key, window));
        }
        if !written.is_empty() {
            self.table.insert_batch(written.into_iter().collect());
            self.full_pass_due = true;
        }
        self.publish();
        if !accepted.is_empty() {
            self.refresh_gauges();
        }
        accepted
    }

    /// Runs one *degraded* cycle: the observation poll failed (timed out,
    /// subprocess died, unusable output), so the agent must not guess.
    ///
    /// Degraded semantics, per the no-harm requirement of §IV-D:
    ///
    /// * **Freeze** — no advisory/window state is updated; the agent
    ///   never extrapolates windows from polls it did not get.
    /// * **Decay** — TTL expiry still runs, so if polls keep failing,
    ///   every learned route is withdrawn within `t` seconds and new
    ///   connections fall back to the kernel default (`initcwnd=10`).
    ///
    /// A run of failed polls therefore converges to exactly the state of
    /// a host that never ran Riptide.
    pub fn tick_degraded<C>(&mut self, now: SimTime, controller: &mut C) -> TickReport
    where
        C: RouteController + ?Sized,
    {
        let mut report = TickReport {
            degraded: true,
            ..TickReport::default()
        };
        self.stats.ticks += 1;
        self.stats.degraded_ticks += 1;
        self.last_now = now;
        self.stats.swept_entries += self.table.len() as u64;
        let expired = self.table.expire(now, self.config.ttl);
        for key in &expired {
            mark_dirty(self.aggregator.as_ref(), &mut self.dirty, key);
        }
        self.withdraw_expired(expired, controller, &mut report);
        self.publish();
        self.refresh_gauges();
        report
    }

    /// Withdraws the routes of destinations the learned table just
    /// dropped for age, in the order given (key order). A member riding
    /// an aggregate has no route of its own; the aggregate itself
    /// dissolves via the pass once its member group thins out.
    fn withdraw_expired<C>(
        &mut self,
        expired: Vec<Ipv4Prefix>,
        controller: &mut C,
        report: &mut TickReport,
    ) where
        C: RouteController + ?Sized,
    {
        for key in expired {
            if let Some(guard) = &mut self.guard {
                guard.forget(&key);
            }
            let cause = Some(DecisionCause::TtlExpired);
            if self.withdraw(key, cause, controller, &mut report.errors) {
                report.expired.push(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::CombineStrategy;
    use crate::granularity::Granularity;
    use crate::observe::{CwndObservation, FnObserver};
    use crate::policy::LearningPolicy;
    use riptide_linuxnet::route::RouteTable;
    use std::net::Ipv4Addr;

    fn obs(dst: [u8; 4], cwnd: u32) -> CwndObservation {
        CwndObservation {
            dst: Ipv4Addr::from(dst),
            cwnd,
            bytes_acked: 1_000_000,
            retrans: 0,
            ecn_marks: 0,
        }
    }

    fn agent(config: RiptideConfig) -> (RiptideAgent, RouteTable) {
        (RiptideAgent::new(config).unwrap(), RouteTable::new())
    }

    fn no_history() -> RiptideConfig {
        RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .build()
            .unwrap()
    }

    #[test]
    fn fig7_average_of_observed_windows() {
        // The paper's Fig. 7: observed windows average 80 → initcwnd 80.
        let (mut a, mut routes) = agent(no_history());
        let mut o = FnObserver(|| {
            vec![
                obs([10, 0, 1, 1], 60),
                obs([10, 0, 1, 1], 80),
                obs([10, 0, 1, 1], 100),
            ]
        });
        let r = a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(r.observed_connections, 3);
        assert_eq!(r.groups, 1);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(80));
    }

    #[test]
    fn clamping_applies_both_bounds() {
        let (mut a, mut routes) = agent(no_history());
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 500), obs([10, 0, 2, 1], 2)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(
            routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)),
            Some(100),
            "c_max caps"
        );
        assert_eq!(
            routes.initcwnd_for(Ipv4Addr::new(10, 0, 2, 1)),
            Some(10),
            "c_min floors"
        );
    }

    #[test]
    fn ewma_damps_across_ticks() {
        let cfg = RiptideConfig::builder().alpha(0.7).build().unwrap();
        let (mut a, mut routes) = agent(cfg);
        let mut o1 = FnObserver(|| vec![obs([10, 0, 1, 1], 40)]);
        a.tick(SimTime::from_secs(1), &mut o1, &mut routes);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(40));
        // Windows spike to 100; EWMA moves only 30% of the way: 58.
        let mut o2 = FnObserver(|| vec![obs([10, 0, 1, 1], 100)]);
        a.tick(SimTime::from_secs(2), &mut o2, &mut routes);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(58));
    }

    #[test]
    fn ttl_expiry_withdraws_route() {
        let (mut a, mut routes) = agent(no_history());
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 50)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)).is_some());
        // No connections for > 90 s: route withdrawn, default restored.
        let mut silent = FnObserver(Vec::new);
        let r = a.tick(SimTime::from_secs(95), &mut silent, &mut routes);
        assert_eq!(r.expired.len(), 1);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), None);
        assert!(a.table().is_empty());
    }

    #[test]
    fn continued_observation_refreshes_ttl() {
        let (mut a, mut routes) = agent(no_history());
        for t in (0..200).step_by(10) {
            let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 50)]);
            let r = a.tick(SimTime::from_secs(t), &mut o, &mut routes);
            assert!(r.expired.is_empty(), "t={t}: live traffic never expires");
        }
    }

    #[test]
    fn unchanged_window_is_not_reinstalled() {
        let (mut a, mut routes) = agent(no_history());
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 50)]);
        let r1 = a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(r1.updates.len(), 1);
        let r2 = a.tick(SimTime::from_secs(2), &mut o, &mut routes);
        assert!(r2.updates.is_empty(), "same value, no route churn");
        assert_eq!(a.stats().route_updates, 1);
    }

    #[test]
    fn prefix_granularity_installs_one_route_per_pop() {
        let cfg = RiptideConfig::builder()
            .granularity(Granularity::Prefix(24))
            .policy(LearningPolicy::None)
            .build()
            .unwrap();
        let (mut a, mut routes) = agent(cfg);
        let mut o = FnObserver(|| {
            vec![
                obs([10, 0, 1, 1], 40),
                obs([10, 0, 1, 2], 60),
                obs([10, 0, 1, 3], 80),
            ]
        });
        let r = a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(r.groups, 1, "three hosts, one /24 group");
        assert_eq!(routes.len(), 1);
        // Any host in the PoP inherits the grouped window.
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 200)), Some(60));
    }

    #[test]
    fn max_strategy_is_more_aggressive_than_average() {
        let base = FnObserver(|| vec![obs([10, 0, 1, 1], 20), obs([10, 0, 1, 1], 90)]);
        let mut o = base;
        let cfg = RiptideConfig::builder()
            .combine(CombineStrategy::Max)
            .policy(LearningPolicy::None)
            .build()
            .unwrap();
        let (mut a, mut routes) = agent(cfg);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(90));
    }

    #[test]
    fn multiple_destinations_update_independently() {
        let (mut a, mut routes) = agent(no_history());
        let mut o = FnObserver(|| {
            vec![
                obs([10, 0, 1, 1], 30),
                obs([10, 0, 2, 1], 70),
                obs([10, 0, 3, 1], 110),
            ]
        });
        let r = a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(r.groups, 3);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(30));
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 2, 1)), Some(70));
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 3, 1)), Some(100));
    }

    #[test]
    fn learned_window_respects_granularity() {
        let cfg = RiptideConfig::builder()
            .granularity(Granularity::Prefix(24))
            .policy(LearningPolicy::None)
            .build()
            .unwrap();
        let (mut a, mut routes) = agent(cfg);
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 64)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(a.learned_window(Ipv4Addr::new(10, 0, 1, 99)), Some(64));
        assert_eq!(a.learned_window(Ipv4Addr::new(10, 0, 2, 1)), None);
    }

    #[test]
    fn empty_observation_is_harmless() {
        let (mut a, mut routes) = agent(no_history());
        let mut o = FnObserver(Vec::new);
        let r = a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(r.groups, 0);
        assert!(r.updates.is_empty() && r.expired.is_empty() && r.errors.is_empty());
        assert!(routes.is_empty());
    }

    #[test]
    fn degraded_tick_freezes_learning_but_still_expires() {
        let (mut a, mut routes) = agent(no_history());
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 50)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(50));

        // Poll failures shortly after: nothing changes, nothing expires.
        let r = a.tick_degraded(SimTime::from_secs(2), &mut routes);
        assert!(r.degraded && r.updates.is_empty() && r.expired.is_empty());
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(50));
        assert_eq!(a.table().len(), 1, "learned state frozen, not dropped");

        // Poll failures past the TTL: the route is withdrawn and the
        // destination falls back to the kernel default.
        let r = a.tick_degraded(SimTime::from_secs(95), &mut routes);
        assert_eq!(r.expired.len(), 1);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), None);
        assert_eq!(a.stats().degraded_ticks, 2);
        assert_eq!(a.stats().ticks, 3);
    }

    #[test]
    fn conservative_advisory_scales_installs() {
        let (mut a, mut routes) = agent(no_history());
        a.set_advisory(Advisory::Conservative { factor: 0.5 })
            .unwrap();
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 80)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(
            routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)),
            Some(40),
            "half of the learned 80"
        );
    }

    #[test]
    fn suspend_advisory_stops_installs_but_keeps_learning() {
        let (mut a, mut routes) = agent(no_history());
        a.set_advisory(Advisory::Suspend).unwrap();
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 80)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert!(routes.is_empty(), "no installs while suspended");
        assert_eq!(a.table().len(), 1, "learning continues");
        // Resume: the learned value lands on the next tick.
        a.set_advisory(Advisory::Normal).unwrap();
        a.tick(SimTime::from_secs(2), &mut o, &mut routes);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(80));
    }

    #[test]
    fn invalid_advisory_rejected() {
        let (mut a, _) = agent(no_history());
        assert!(a
            .set_advisory(Advisory::Conservative { factor: 2.0 })
            .is_err());
        assert_eq!(a.advisory(), Advisory::Normal);
    }

    #[test]
    fn trend_damping_beats_slow_ewma_on_collapse() {
        let cfg = RiptideConfig::builder()
            .alpha(0.9)
            .trend(crate::trend::TrendPolicy::default())
            .build()
            .unwrap();
        let (mut a, mut routes) = agent(cfg);
        let mut high = FnObserver(|| vec![obs([10, 0, 1, 1], 100)]);
        a.tick(SimTime::from_secs(1), &mut high, &mut routes);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(100));
        // Windows collapse to 20; EWMA alone would install 92, the trend
        // override caps at fresh/2 = 10.
        let mut low = FnObserver(|| vec![obs([10, 0, 1, 1], 20)]);
        a.tick(SimTime::from_secs(2), &mut low, &mut routes);
        assert_eq!(
            routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)),
            Some(10),
            "aggressive decrease beyond the blend"
        );
    }

    #[test]
    fn trend_collapse_to_near_zero_still_installs_c_min() {
        use crate::telemetry::{AgentTelemetry, DecisionCause};

        let cfg = RiptideConfig::builder()
            .alpha(0.9)
            .trend(crate::trend::TrendPolicy::default())
            .build()
            .unwrap();
        let (mut a, mut routes) = agent(cfg.clone());
        a.attach_telemetry(AgentTelemetry::standalone(64));
        let mut high = FnObserver(|| vec![obs([10, 0, 1, 1], 100)]);
        a.tick(SimTime::from_secs(1), &mut high, &mut routes);

        // Windows collapse 100 -> 2: the overshoot cap alone would ask
        // for 1, below the kernel floor. The policy's floor keeps the
        // damped value installable, so the journal attributes the low
        // window to trend damping, not to the clamp papering over it.
        let mut low = FnObserver(|| vec![obs([10, 0, 1, 1], 2)]);
        a.tick(SimTime::from_secs(2), &mut low, &mut routes);
        let installed = routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)).unwrap();
        assert_eq!(installed, cfg.cwnd_min, "never below the kernel floor");

        let records = a.telemetry().unwrap().journal().snapshot();
        assert!(
            matches!(
                records.last().unwrap().cause,
                DecisionCause::Learned {
                    trend_damped: true,
                    clamped: false,
                    ..
                }
            ),
            "{:?}",
            records.last().unwrap()
        );
    }

    fn lossy_obs(dst: [u8; 4], cwnd: u32, retrans: u64, bytes: u64) -> CwndObservation {
        CwndObservation {
            dst: Ipv4Addr::from(dst),
            cwnd,
            bytes_acked: bytes,
            retrans,
            ecn_marks: 0,
        }
    }

    fn guarded() -> RiptideConfig {
        RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .guard(crate::guard::GuardConfig::default())
            .build()
            .unwrap()
    }

    #[test]
    fn guard_demotes_lossy_jump_started_destination() {
        let (mut a, mut routes) = agent(guarded());
        // Tick 1: clean traffic, window 80 learned and installed.
        let mut o = FnObserver(|| vec![lossy_obs([10, 0, 1, 1], 80, 0, 1_000_000)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(80));

        // Tick 2: the path turns sour — heavy retransmits on the
        // jump-started destination. The breaker trips and the install is
        // demoted to the kernel-default probe window.
        let mut bad = FnObserver(|| vec![lossy_obs([10, 0, 1, 1], 80, 500, 2_000_000)]);
        let r = a.tick(SimTime::from_secs(2), &mut bad, &mut routes);
        assert_eq!(r.guard_trips, vec!["10.0.1.1".parse().unwrap()]);
        assert_eq!(a.stats().guard_trips, 1);
        assert_eq!(
            routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)),
            Some(10),
            "demoted to the probe window, not left at 80"
        );
        // The learned table keeps learning underneath the demotion.
        assert!(a.table().window(&"10.0.1.1".parse().unwrap()).is_some());
    }

    #[test]
    fn group_counters_saturate_instead_of_overflowing() {
        // `ESTAB 10.0.0.1 10.0.1.1` twice with
        // `bytes_acked:18446744073709551615` (and the other two counters
        // likewise): summing the group used to panic a debug build and
        // wrap in release.
        let (mut a, mut routes) = agent(guarded());
        let max = CwndObservation {
            ecn_marks: u64::MAX,
            ..lossy_obs([10, 0, 1, 1], 80, u64::MAX, u64::MAX)
        };
        let mut o = FnObserver(|| vec![max, max]);
        for second in 1..=3 {
            a.tick(SimTime::from_secs(second), &mut o, &mut routes);
        }
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(80));
    }

    #[test]
    fn guard_never_trips_without_a_jump_start() {
        let (mut a, mut routes) = agent(guarded());
        // Loss from the very first sighting: we never installed anything
        // above the default, so the harm cannot be ours.
        let mut bad = FnObserver(|| vec![lossy_obs([10, 0, 1, 1], 10, 500, 1_000_000)]);
        a.tick(SimTime::from_secs(1), &mut bad, &mut routes);
        let r = a.tick(SimTime::from_secs(2), &mut bad, &mut routes);
        assert!(r.guard_trips.is_empty());
        assert_eq!(a.stats().guard_trips, 0);
    }

    #[test]
    fn guarded_clean_run_matches_unguarded() {
        // The guard must be invisible on a loss-free run: identical
        // installs, identical stats counters that both configs share.
        let (mut plain, mut routes_p) = agent(no_history());
        let (mut armed, mut routes_g) = agent(guarded());
        for t in 1..30 {
            let mk = move || {
                vec![
                    lossy_obs([10, 0, 1, 1], 40 + (t as u32 % 20), 0, t * 1_000_000),
                    lossy_obs([10, 0, 2, 1], 70, 0, t * 500_000),
                ]
            };
            let mut o1 = FnObserver(mk);
            let mut o2 = FnObserver(mk);
            let r1 = plain.tick(SimTime::from_secs(t), &mut o1, &mut routes_p);
            let r2 = armed.tick(SimTime::from_secs(t), &mut o2, &mut routes_g);
            assert_eq!(r1.updates, r2.updates, "t={t}");
        }
        assert_eq!(plain.stats().route_updates, armed.stats().route_updates);
        assert_eq!(armed.stats().guard_trips, 0);
        assert_eq!(routes_p.render(), routes_g.render());
    }

    #[test]
    fn capacity_bound_evicts_and_withdraws() {
        let cfg = RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .table_capacity(2)
            .build()
            .unwrap();
        let (mut a, mut routes) = agent(cfg);
        for (t, n) in [(1u64, 1u8), (2, 2), (3, 3)] {
            let mut o = FnObserver(move || vec![obs([10, 0, n, 1], 50)]);
            a.tick(SimTime::from_secs(t), &mut o, &mut routes);
        }
        // Three destinations through a 2-slot table: the oldest was
        // evicted and its route withdrawn.
        assert_eq!(a.table().len(), 2);
        assert_eq!(a.stats().table_evictions, 1);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), None);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 2, 1)), Some(50));
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 3, 1)), Some(50));
        assert_eq!(a.installed_view().len(), 2);
    }

    fn aggregated() -> RiptideConfig {
        RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .aggregation(crate::aggregate::AggregationPolicy::default())
            .build()
            .unwrap()
    }

    #[test]
    fn aggregation_folds_agreeing_siblings_into_one_covering_route() {
        let (mut a, mut routes) = agent(aggregated());
        let mut o = FnObserver(|| {
            vec![
                obs([10, 0, 1, 1], 40),
                obs([10, 0, 1, 2], 42),
                obs([10, 0, 1, 3], 44),
            ]
        });
        let r = a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert!(
            r.updates.is_empty(),
            "members covered by the end of the tick"
        );
        assert_eq!(r.merged, vec![("10.0.1.0/24".parse().unwrap(), 40)]);
        assert_eq!(routes.len(), 1, "three host routes became one aggregate");
        assert_eq!(
            routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 3)),
            Some(40),
            "member minimum — never widen past a learned window"
        );
        assert_eq!(a.stats().aggregate_merges, 1);
        assert_eq!(a.installed_view().len(), 1);

        // Steady state: covered members issue no individual installs and
        // the unchanged aggregate is not reissued.
        let r2 = a.tick(SimTime::from_secs(2), &mut o, &mut routes);
        assert!(r2.updates.is_empty() && r2.merged.is_empty() && r2.disaggregated.is_empty());
        assert_eq!(a.stats().route_updates, 1, "the covering route, once");
    }

    #[test]
    fn first_tick_after_a_restore_installs_only_the_covering_routes() {
        use crate::control::SharedRouteController;
        use std::cell::RefCell;
        use std::rc::Rc;

        // Three slabs of eight agreeing members, restored from the learned
        // table alone: no covering route comes back with it, so the first
        // tick re-forms the aggregates.
        let member = |slab: u8, host: u8| obs([10, 0, slab, host], 40 + u32::from(slab + host % 4));
        let fleet: Vec<_> = (1..=3u8)
            .flat_map(|slab| (1..=8u8).map(move |host| member(slab, host)))
            .collect();
        let entries = fleet
            .iter()
            .map(|o| SnapshotEntry {
                key: Ipv4Prefix::host(o.dst),
                window: o.cwnd,
                last_fresh: f64::from(o.cwnd),
                last_updated: SimTime::from_secs(10),
                history: crate::policy::HistoryState::None,
            })
            .collect();
        let snap = TableSnapshot {
            taken_at: SimTime::from_secs(10),
            entries,
            ..TableSnapshot::default()
        };
        let (mut a, _) = agent(aggregated());
        let table = Rc::new(RefCell::new(RouteTable::new()));
        let mut ctl = SharedRouteController::new(Rc::clone(&table));
        assert!(a
            .restore_state(&snap, SimTime::from_secs(11), &mut ctl)
            .is_empty());
        assert_eq!(a.table().len(), 24);

        // The sweep observes every member at its restored window.
        let r = a.tick(
            SimTime::from_secs(12),
            &mut FnObserver(|| fleet.clone()),
            &mut ctl,
        );
        let count = |action| {
            let log = ctl.command_log().iter();
            log.filter(|cmd| cmd.action == action).count()
        };
        use riptide_linuxnet::ip_cmd::IpRouteAction::{Del, Replace};
        assert_eq!(
            (count(Replace), count(Del), ctl.command_log().len()),
            (3, 0, 3),
            "one covering route per slab and nothing else: {}",
            ctl.render_log()
        );
        assert!(r.updates.is_empty());
        assert_eq!(r.merged.len(), 3);
        assert_eq!(table.borrow().len(), 3);
        assert_eq!(a.installed_view().len(), 3);
    }

    #[test]
    fn diverging_member_splits_the_aggregate_same_tick() {
        let (mut a, mut routes) = agent(aggregated());
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 40), obs([10, 0, 1, 2], 42)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(routes.len(), 1);

        let mut diverged = FnObserver(|| vec![obs([10, 0, 1, 1], 40), obs([10, 0, 1, 2], 90)]);
        let r = a.tick(SimTime::from_secs(2), &mut diverged, &mut routes);
        assert_eq!(r.disaggregated, vec!["10.0.1.0/24".parse().unwrap()]);
        assert_eq!(a.stats().aggregate_splits, 1);
        assert_eq!(routes.len(), 2, "members reinstalled individually");
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(40));
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 2)), Some(90));
        assert_eq!(
            routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 200)),
            None,
            "no covering route lingers after the split"
        );
    }

    #[test]
    fn aggregate_round_trip_is_deterministic_and_journaled() {
        use crate::telemetry::AgentTelemetry;

        let run = || {
            let (mut a, mut routes) = agent(aggregated());
            a.attach_telemetry(AgentTelemetry::standalone(64));
            let mut converged = FnObserver(|| vec![obs([10, 0, 1, 1], 40), obs([10, 0, 1, 2], 42)]);
            let mut diverged = FnObserver(|| vec![obs([10, 0, 1, 1], 40), obs([10, 0, 1, 2], 90)]);
            a.tick(SimTime::from_secs(1), &mut converged, &mut routes);
            a.tick(SimTime::from_secs(2), &mut diverged, &mut routes);
            a.tick(SimTime::from_secs(3), &mut converged, &mut routes);
            let journal: Vec<String> = a
                .telemetry()
                .unwrap()
                .journal()
                .snapshot()
                .iter()
                .map(|r| r.render())
                .collect();
            (routes.render(), journal, a.stats())
        };
        let (routes_a, journal_a, stats_a) = run();
        let (routes_b, journal_b, stats_b) = run();
        assert_eq!(
            routes_a, routes_b,
            "identical inputs, identical kernel state"
        );
        assert_eq!(journal_a, journal_b, "identical decision history");
        assert_eq!(stats_a, stats_b);
        assert_eq!(stats_a.aggregate_merges, 2, "re-convergence re-merges");
        assert_eq!(stats_a.aggregate_splits, 1);
        assert!(
            journal_a
                .iter()
                .any(|line| line.contains("aggregated members=2 spread=2")),
            "merge attributed: {journal_a:?}"
        );
        assert!(
            journal_a
                .iter()
                .any(|line| line.contains("disaggregated members=2 spread=50")),
            "split attributed: {journal_a:?}"
        );
    }

    #[test]
    fn aggregated_prefix_counts_as_one_capacity_entry() {
        let cfg = RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .aggregation(crate::aggregate::AggregationPolicy::default())
            .table_capacity(2)
            .build()
            .unwrap();
        let (mut a, mut routes) = agent(cfg);
        // Tick 1: three siblings merge into one aggregate.
        let mut o = FnObserver(|| {
            vec![
                obs([10, 0, 1, 1], 40),
                obs([10, 0, 1, 2], 42),
                obs([10, 0, 1, 3], 44),
            ]
        });
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(a.stats().aggregate_merges, 1);
        // Tick 2: a fourth destination. Four learned entries but only two
        // capacity units — the aggregate is charged as ONE entry covering
        // its three learned destinations, so nothing is evicted.
        let mut o2 = FnObserver(|| {
            vec![
                obs([10, 0, 1, 1], 40),
                obs([10, 0, 1, 2], 42),
                obs([10, 0, 1, 3], 44),
                obs([10, 0, 9, 1], 70),
            ]
        });
        let r = a.tick(SimTime::from_secs(2), &mut o2, &mut routes);
        assert!(
            r.evicted.is_empty(),
            "one aggregate + one host fit a 2-slot table"
        );
        assert_eq!(a.table().len(), 4);
        // Tick 3: a third unit. The aggregate is now the stalest unit and
        // is evicted whole; its covering route dissolves the same tick.
        let mut o3 = FnObserver(|| vec![obs([10, 0, 9, 1], 70), obs([10, 0, 10, 1], 80)]);
        let r = a.tick(SimTime::from_secs(3), &mut o3, &mut routes);
        assert_eq!(r.evicted.len(), 3, "the whole unit leaves together");
        assert_eq!(r.disaggregated.len(), 1);
        assert_eq!(
            routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)),
            None,
            "covering route withdrawn with its unit"
        );
        assert_eq!(a.table().len(), 2);
        assert_eq!(a.installed_view().len(), 2);
    }

    #[test]
    fn expired_members_dissolve_their_aggregate() {
        let (mut a, mut routes) = agent(aggregated());
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 40), obs([10, 0, 1, 2], 42)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(routes.len(), 1);

        let mut silent = FnObserver(Vec::new);
        let r = a.tick(SimTime::from_secs(200), &mut silent, &mut routes);
        assert_eq!(r.expired.len(), 2);
        assert_eq!(r.disaggregated.len(), 1);
        assert!(routes.is_empty(), "no orphan covering route");
        assert!(a.installed_view().is_empty());
        assert_eq!(
            a.stats().route_expirations,
            0,
            "covered members had no individual routes to withdraw"
        );
    }

    #[test]
    fn installed_view_tracks_the_kernel() {
        let (mut a, mut routes) = agent(no_history());
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 50), obs([10, 0, 2, 1], 70)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        let view = a.installed_view();
        assert_eq!(view.len(), 2);
        assert_eq!(view.get(&"10.0.1.1".parse().unwrap()), Some(&50));
        // Expiry drops the view entry along with the route.
        let mut silent = FnObserver(Vec::new);
        a.tick(SimTime::from_secs(120), &mut silent, &mut routes);
        assert!(a.installed_view().is_empty());
    }

    #[test]
    fn shutdown_withdraws_every_installed_route() {
        let (mut a, mut routes) = agent(no_history());
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 50), obs([10, 0, 2, 1], 70)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        assert_eq!(routes.len(), 2);
        let withdrawn = a.shutdown(&mut routes);
        assert_eq!(withdrawn.len(), 2);
        assert!(routes.is_empty(), "host reverts to kernel defaults");
        assert!(a.installed_view().is_empty());
        // Idempotent: nothing left to withdraw.
        assert!(a.shutdown(&mut routes).is_empty());
    }

    #[test]
    fn reconcile_repairs_external_drift() {
        let (mut a, mut routes) = agent(no_history());
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 50), obs([10, 0, 2, 1], 70)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);

        // An operator deletes one of our routes and a predecessor's
        // orphan appears.
        routes.clear_initcwnd("10.0.1.1".parse().unwrap()).unwrap();
        routes
            .set_initcwnd("10.0.9.9".parse().unwrap(), 64)
            .unwrap();

        let dump = routes.clone();
        let report = a.reconcile(&dump, &mut routes);
        assert_eq!(report.reinstalled, vec![("10.0.1.1".parse().unwrap(), 50)]);
        assert_eq!(report.withdrawn, vec!["10.0.9.9".parse().unwrap()]);
        assert_eq!(a.stats().reconcile_repairs, 2);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(50));
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 9, 9)), None);

        // Converged: a second audit is a no-op.
        let dump = routes.clone();
        assert!(a.reconcile(&dump, &mut routes).converged());
    }

    #[test]
    fn telemetry_counters_mirror_agent_stats() {
        use crate::telemetry::AgentTelemetry;

        let cfg = RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .guard(crate::guard::GuardConfig::default())
            .table_capacity(2)
            .build()
            .unwrap();
        let (mut a, mut routes) = agent(cfg);
        // What the agent counted before a bundle was attached stays out
        // of it: the registry starts from the attach.
        let mut early = FnObserver(|| vec![obs([10, 0, 9, 1], 30)]);
        a.tick(SimTime::from_secs(1), &mut early, &mut routes);
        let before = a.stats();
        assert!(before.ticks == 1 && before.route_updates == 1);
        a.attach_telemetry(AgentTelemetry::standalone(64));

        // Installs for three destinations through a 2-slot table
        // (evictions; the third window is clamped), then loss trips the
        // guard, then TTL expiry, one more install, and a shutdown.
        for (t, n, w) in [(2u64, 1u8, 50u32), (3, 2, 50), (4, 3, 250)] {
            let mut o = FnObserver(move || vec![obs([10, 0, n, 1], w)]);
            a.tick(SimTime::from_secs(t), &mut o, &mut routes);
        }
        let mut bad = FnObserver(|| vec![lossy_obs([10, 0, 3, 1], 80, 500, 2_000_000)]);
        a.tick(SimTime::from_secs(5), &mut bad, &mut routes);
        a.tick(SimTime::from_secs(6), &mut bad, &mut routes);
        let mut silent = FnObserver(Vec::new);
        a.tick(SimTime::from_secs(200), &mut silent, &mut routes);
        a.tick_degraded(SimTime::from_secs(201), &mut routes);
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 50)]);
        a.tick(SimTime::from_secs(202), &mut o, &mut routes);
        a.shutdown(&mut routes);

        let s = a.stats();
        let snap = a.telemetry().unwrap().registry().snapshot();
        for (name, now, then) in [
            ("riptide_ticks_total", s.ticks, before.ticks),
            (
                "riptide_observations_total",
                s.observations,
                before.observations,
            ),
            (
                "riptide_route_updates_total",
                s.route_updates,
                before.route_updates,
            ),
            ("riptide_route_expirations_total", s.route_expirations, 0),
            ("riptide_control_errors_total", s.errors, 0),
            ("riptide_degraded_ticks_total", s.degraded_ticks, 0),
            ("riptide_guard_trips_total", s.guard_trips, 0),
            ("riptide_table_evictions_total", s.table_evictions, 0),
            ("riptide_reconcile_repairs_total", s.reconcile_repairs, 0),
            (
                "riptide_suppressed_installs_total",
                s.suppressed_installs,
                0,
            ),
            ("riptide_clamped_installs_total", s.clamped_installs, 0),
            (
                "riptide_shutdown_withdrawals_total",
                s.shutdown_withdrawals,
                0,
            ),
        ] {
            assert_eq!(snap.value(name), Some(now - then), "{name}");
        }
        assert!(s.suppressed_installs >= 1 && s.clamped_installs >= 1);
        assert!(s.shutdown_withdrawals >= 1 && s.degraded_ticks == 1);
        assert!(s.guard_trips >= 1 && s.table_evictions >= 1 && s.route_expirations >= 1);
        assert_eq!(
            snap.value("riptide_table_entries"),
            Some(a.table().len() as u64)
        );
        assert_eq!(
            snap.value("riptide_installed_routes"),
            Some(a.installed_view().len() as u64)
        );
    }

    #[test]
    fn journal_records_the_decision_taxonomy() {
        use crate::telemetry::{AgentTelemetry, DecisionAction, DecisionCause};

        let (mut a, mut routes) = agent(guarded());
        a.attach_telemetry(AgentTelemetry::standalone(64));

        let mut o = FnObserver(|| vec![lossy_obs([10, 0, 1, 1], 80, 0, 1_000_000)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        let mut bad = FnObserver(|| vec![lossy_obs([10, 0, 1, 1], 80, 500, 2_000_000)]);
        a.tick(SimTime::from_secs(2), &mut bad, &mut routes);
        let mut silent = FnObserver(Vec::new);
        a.tick(SimTime::from_secs(200), &mut silent, &mut routes);

        let records = a.telemetry().unwrap().journal().snapshot();
        assert!(
            matches!(
                records[0],
                crate::telemetry::DecisionRecord {
                    action: DecisionAction::Install { window: 80 },
                    cause: DecisionCause::Learned { clamped: false, .. },
                    ..
                }
            ),
            "{:?}",
            records[0]
        );
        assert!(
            records
                .iter()
                .any(|r| matches!(r.action, DecisionAction::Suppress { window: 10 })),
            "guard demotion journaled: {records:?}"
        );
        assert!(
            records
                .iter()
                .any(|r| matches!(r.cause, DecisionCause::TtlExpired)),
            "expiry journaled: {records:?}"
        );

        // Shutdown of a fresh install journals a Shutdown withdrawal.
        let mut o = FnObserver(|| vec![obs([10, 0, 2, 1], 50)]);
        a.tick(SimTime::from_secs(201), &mut o, &mut routes);
        a.shutdown(&mut routes);
        let records = a.telemetry().unwrap().journal().snapshot();
        assert!(records
            .iter()
            .any(|r| matches!(r.cause, DecisionCause::Shutdown)));
    }

    #[test]
    fn reconcile_repairs_are_journaled_with_verdict() {
        use crate::telemetry::{AgentTelemetry, DecisionAction, DecisionCause};

        let (mut a, mut routes) = agent(no_history());
        a.attach_telemetry(AgentTelemetry::standalone(64));
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 50)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        routes.clear_initcwnd("10.0.1.1".parse().unwrap()).unwrap();
        routes
            .set_initcwnd("10.0.9.9".parse().unwrap(), 64)
            .unwrap();

        let dump = routes.clone();
        a.reconcile(&dump, &mut routes);
        let records = a.telemetry().unwrap().journal().snapshot();
        assert!(records.iter().any(|r| matches!(
            (r.action, r.cause),
            (
                DecisionAction::Repair { window: Some(50) },
                DecisionCause::Reconcile {
                    verdict: crate::reconcile::AuditVerdict::Repaired
                }
            )
        )));
        assert!(records
            .iter()
            .any(|r| matches!(r.action, DecisionAction::Repair { window: None })));
        let snap = a.telemetry().unwrap().registry().snapshot();
        assert_eq!(snap.value("riptide_reconcile_repairs_total"), Some(2));
    }

    #[test]
    fn snapshot_restore_round_trips_through_the_codec() {
        use crate::telemetry::AgentTelemetry;

        // Learn on one agent, snapshot, encode, decode, restore into a
        // fresh agent — the restarted agent must present the same
        // learned table and kernel routes without re-learning.
        let (mut a, mut routes) = agent(guarded());
        let mut o = FnObserver(|| {
            vec![
                lossy_obs([10, 0, 1, 1], 80, 0, 1_000_000),
                lossy_obs([10, 0, 2, 1], 40, 0, 500_000),
            ]
        });
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        a.tick(SimTime::from_secs(2), &mut o, &mut routes);
        let snap = a.snapshot_state(SimTime::from_secs(2));
        let bytes = crate::persist::encode_state(&snap, &[]);

        let state = crate::persist::decode_state(&bytes).unwrap();
        let replayed = crate::persist::replay(&state.snapshot, &state.journal);
        let (mut b, mut routes_b) = agent(guarded());
        b.attach_telemetry(AgentTelemetry::standalone(16));
        let reinstalled = b.restore_state(&replayed, SimTime::from_secs(10), &mut routes_b);
        assert_eq!(reinstalled.len(), 2);
        assert_eq!(b.stats().restored_routes, 2);
        assert_eq!(routes_b.render(), routes.render(), "same kernel state");
        assert_eq!(
            b.learned_window(Ipv4Addr::new(10, 0, 1, 1)),
            a.learned_window(Ipv4Addr::new(10, 0, 1, 1))
        );
        // Restores are journalled with their on-disk age and counted on
        // the lazily-registered metric.
        let records = b.telemetry().unwrap().journal().snapshot();
        assert!(records
            .iter()
            .all(|r| matches!(r.cause, DecisionCause::Restored { age_secs: 8 })));
        let snap_metrics = b.telemetry().unwrap().registry().snapshot();
        assert_eq!(snap_metrics.value("riptide_restored_routes_total"), Some(2));

        // The restarted agent keeps ticking normally from here.
        let r = b.tick(SimTime::from_secs(11), &mut o, &mut routes_b);
        assert!(r.errors.is_empty());
    }

    #[test]
    fn restore_with_aggregation_brings_the_covering_routes_back() {
        use crate::control::SharedRouteController;
        use std::cell::RefCell;
        use std::rc::Rc;

        // Two slabs fold into aggregates, a third hosts a loner; a
        // fourth slab's aggregate will lose a member to the downtime.
        let sweep = || {
            vec![
                obs([10, 0, 1, 1], 40),
                obs([10, 0, 1, 2], 42),
                obs([10, 0, 1, 3], 44),
                obs([10, 0, 2, 1], 70),
                obs([10, 0, 2, 2], 71),
                obs([10, 0, 9, 1], 90),
            ]
        };
        let (mut a, mut routes) = agent(aggregated());
        a.tick(SimTime::from_secs(1), &mut FnObserver(sweep), &mut routes);
        // 10.0.3.x is seen once, early: by the restart one of its two
        // members has aged out, so its aggregate must not come back.
        let mut early = FnObserver(|| vec![obs([10, 0, 3, 1], 50)]);
        a.tick(SimTime::from_secs(2), &mut early, &mut routes);
        let mut late = FnObserver(|| {
            let mut all = sweep();
            all.extend([obs([10, 0, 3, 1], 50), obs([10, 0, 3, 2], 51)]);
            all
        });
        a.tick(SimTime::from_secs(60), &mut late, &mut routes);
        assert_eq!(a.aggregator().unwrap().len(), 3);
        let before = a.installed_view().clone();
        let snap = a.snapshot_state(SimTime::from_secs(60));

        // Restart at t=100 with 10.0.3.1 artificially aged past the TTL.
        let mut snap_aged = snap.clone();
        for e in &mut snap_aged.entries {
            if e.key == "10.0.3.1".parse().unwrap() {
                e.last_updated = SimTime::from_secs(2);
            }
        }
        let (mut b, _) = agent(aggregated());
        b.attach_telemetry(crate::telemetry::AgentTelemetry::standalone(16));
        let table = Rc::new(RefCell::new(RouteTable::new()));
        let mut ctl = SharedRouteController::new(Rc::clone(&table));
        let reinstalled = b.restore_state(&snap_aged, SimTime::from_secs(100), &mut ctl);
        assert_eq!(
            reinstalled,
            vec![
                ("10.0.1.0/24".parse().unwrap(), 40),
                ("10.0.2.0/24".parse().unwrap(), 70),
                ("10.0.9.1".parse().unwrap(), 90),
            ],
            "two aggregates and the loner; 10.0.3.0/24 lost its quorum"
        );
        assert_eq!(reinstalled.len(), b.installed_view().len());
        assert_eq!(b.aggregator().unwrap().len(), 2);
        assert!(b
            .telemetry()
            .unwrap()
            .journal()
            .snapshot()
            .iter()
            .all(|r| matches!(r.cause, DecisionCause::Restored { age_secs: 40 })));

        // The undamaged snapshot: the view returns whole, and the same
        // sweep then has nothing left to say to the kernel.
        let (mut c, _) = agent(aggregated());
        let table = Rc::new(RefCell::new(RouteTable::new()));
        let mut ctl = SharedRouteController::new(Rc::clone(&table));
        c.restore_state(&snap, SimTime::from_secs(61), &mut ctl);
        assert_eq!(c.installed_view(), &before);
        let issued = ctl.command_log().len();
        let r = c.tick(SimTime::from_secs(62), &mut late, &mut ctl);
        assert_eq!(
            ctl.command_log().len(),
            issued,
            "zero route commands: {}",
            ctl.render_log()
        );
        assert!(r.updates.is_empty() && r.merged.is_empty() && r.disaggregated.is_empty());
        assert_eq!(c.installed_view(), &before);
        assert_eq!(table.borrow().len(), routes.len());
    }

    #[test]
    fn a_restore_into_an_agent_that_ticked_re_decides_every_slab() {
        // The pass re-decides only the slabs the agent marked. A restore
        // replaces entries and live aggregates without marking, so the
        // next tick looks at every slab again — also in an agent past its
        // first tick's full pass.
        let agreeing = || vec![obs([10, 0, 1, 1], 40), obs([10, 0, 1, 2], 42)];
        let (mut a, mut routes) = agent(aggregated());
        a.tick(
            SimTime::from_secs(1),
            &mut FnObserver(agreeing),
            &mut routes,
        );
        assert_eq!(a.aggregator().unwrap().len(), 1);
        // The slab's members drifted apart while its covering route was
        // still installed.
        let mut snap = a.snapshot_state(SimTime::from_secs(1));
        snap.entries[1].window = 90;
        a.restore_state(&snap, SimTime::from_secs(2), &mut routes);
        assert_eq!(a.aggregator().unwrap().len(), 1, "both members survive");
        let r = a.tick(
            SimTime::from_secs(3),
            &mut FnObserver(Vec::new),
            &mut routes,
        );
        assert_eq!(r.disaggregated, vec!["10.0.1.0/24".parse().unwrap()]);
        assert!(a.aggregator().unwrap().is_empty());
    }

    #[test]
    fn restore_drops_expired_entries_and_clamps_windows() {
        let (mut b, mut routes) = agent(no_history());
        let snap = TableSnapshot {
            taken_at: SimTime::from_secs(50),
            entries: vec![
                SnapshotEntry {
                    key: "10.0.0.1".parse().unwrap(),
                    window: 900, // way out of bounds
                    last_fresh: 900.0,
                    last_updated: SimTime::from_secs(50),
                    history: crate::policy::HistoryState::None,
                },
                SnapshotEntry {
                    key: "10.0.0.2".parse().unwrap(),
                    window: 60,
                    last_fresh: 60.0,
                    last_updated: SimTime::from_secs(1), // stale
                    history: crate::policy::HistoryState::None,
                },
            ],
            installs: vec![
                ("10.0.0.1".parse().unwrap(), 900),
                ("10.0.0.2".parse().unwrap(), 60),
            ],
            guards: Vec::new(),
            skipped_entries: 0,
        };
        // Restore at t=100: entry 2 sat unrefreshed for 99 s > 90 s TTL.
        let reinstalled = b.restore_state(&snap, SimTime::from_secs(100), &mut routes);
        assert_eq!(
            reinstalled,
            vec![("10.0.0.1".parse().unwrap(), 100)],
            "out-of-bounds window clamped to c_max, stale route dropped"
        );
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 0, 1)), Some(100));
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 0, 2)), None);
        assert_eq!(b.table().len(), 1);
        // The restored entry expires off its original stamp: by t=145
        // it is 95 s old and goes.
        let mut silent = FnObserver(Vec::new);
        let r = b.tick(SimTime::from_secs(145), &mut silent, &mut routes);
        assert_eq!(r.expired.len(), 1, "TTL kept running across restart");
    }

    #[test]
    fn restore_reseeds_history_on_strategy_mismatch() {
        // State persisted by an EWMA agent, restored into a
        // windowed-mean agent: blending the foreign variant would panic;
        // the restore must re-seed instead.
        let snap = TableSnapshot {
            taken_at: SimTime::from_secs(5),
            entries: vec![SnapshotEntry {
                key: "10.0.0.1".parse().unwrap(),
                window: 48,
                last_fresh: 48.0,
                last_updated: SimTime::from_secs(5),
                history: crate::policy::HistoryState::Ewma { value: Some(48.0) },
            }],
            installs: vec![("10.0.0.1".parse().unwrap(), 48)],
            guards: Vec::new(),
            skipped_entries: 0,
        };
        let cfg = RiptideConfig::builder()
            .policy(LearningPolicy::WindowedMean { window: 3 })
            .build()
            .unwrap();
        let (mut b, mut routes) = agent(cfg);
        b.restore_state(&snap, SimTime::from_secs(6), &mut routes);
        // The next tick blends through the re-seeded window state
        // without panicking: mean(48, 90) = 69.
        let mut o = FnObserver(|| vec![obs([10, 0, 0, 1], 90)]);
        b.tick(SimTime::from_secs(7), &mut o, &mut routes);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 0, 1)), Some(69));
    }

    #[test]
    fn restore_builds_the_table_a_one_by_one_restore_would() {
        // Out of order, with repeated keys (3 and 7), one entry past its
        // TTL (5) and one window past c_max (11): what a hand-edited or
        // foreign state file may hold.
        let host = |n: u8| Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, n));
        let entries = [
            (7u8, 20u32, 50u64),
            (3, 30, 50),
            (5, 40, 1),
            (3, 50, 50),
            (11, 600, 50),
            (1, 70, 50),
            (7, 80, 50),
        ]
        .map(|(n, window, at)| SnapshotEntry {
            key: host(n),
            window,
            last_fresh: window as f64,
            last_updated: SimTime::from_secs(at),
            history: crate::policy::HistoryState::None,
        });
        let snap = TableSnapshot {
            taken_at: SimTime::from_secs(50),
            entries: entries.to_vec(),
            ..TableSnapshot::default()
        };
        let now = SimTime::from_secs(100);
        let rows = |t: &FinalTable| t.iter().map(|(k, e)| (*k, e.clone())).collect::<Vec<_>>();
        // Into an empty agent, into one holding fewer entries than the
        // snapshot (merged in one rebuild) and into one holding more
        // (inserted one at a time).
        for held in [0u8, 3, 12] {
            let (mut b, mut routes) = agent(no_history());
            let sweep: Vec<_> = (1..=held).map(|n| obs([10, 0, 0, n], 33)).collect();
            b.tick(now, &mut FnObserver(|| sweep.clone()), &mut routes);
            let mut want = b.table().clone();
            let (lo, hi) = (b.config().cwnd_min, b.config().cwnd_max);
            for e in &snap.entries {
                if now.saturating_since(e.last_updated) <= b.config().ttl {
                    let entry = FinalEntry {
                        window: e.window.clamp(lo, hi),
                        history: e.history.clone(),
                        last_fresh: e.last_fresh,
                        last_updated: e.last_updated,
                    };
                    want.restore_entry(e.key, entry);
                }
            }
            b.restore_state(&snap, now, &mut routes);
            assert_eq!(rows(b.table()), rows(&want), "into {held} held entries");
            assert_eq!(b.table().window(&host(3)), Some(50), "the last 3 wins");
            assert_eq!(b.table().window(&host(7)), Some(80), "the last 7 wins");
        }
    }

    #[test]
    fn merge_remote_applies_newest_wins_clamp_and_ttl() {
        use crate::telemetry::AgentTelemetry;
        use SyncEntry;

        let (mut a, mut routes) = agent(no_history());
        a.attach_telemetry(AgentTelemetry::standalone(16));
        // Local learns key 1 at t=10.
        let mut o = FnObserver(|| vec![obs([10, 0, 0, 1], 50)]);
        a.tick(SimTime::from_secs(10), &mut o, &mut routes);

        let delta = vec![
            // Older than local: ignored.
            SyncEntry {
                key: "10.0.0.1".parse().unwrap(),
                window: 90,
                last_updated: SimTime::from_secs(5),
            },
            // Unknown key, fresh, out-of-bounds window: clamp-merged.
            SyncEntry {
                key: "10.0.0.2".parse().unwrap(),
                window: 400,
                last_updated: SimTime::from_secs(95),
            },
            // Stamped 100 s before the merge instant — would already be
            // TTL-expired here (t=90): ignored.
            SyncEntry {
                key: "10.0.0.3".parse().unwrap(),
                window: 30,
                last_updated: SimTime::ZERO,
            },
        ];
        let accepted = a.merge_remote(&delta, SimTime::from_secs(100), &mut routes);
        assert_eq!(accepted, vec![("10.0.0.2".parse().unwrap(), 100)]);
        assert_eq!(a.stats().sync_merges, 1);
        assert_eq!(
            routes.initcwnd_for(Ipv4Addr::new(10, 0, 0, 1)),
            Some(50),
            "older remote does not clobber local"
        );
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 0, 2)), Some(100));
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 0, 3)), None);
        let records = a.telemetry().unwrap().journal().snapshot();
        assert!(records
            .iter()
            .any(|r| matches!(r.cause, DecisionCause::SyncMerged { clamped: true })));
        let snap = a.telemetry().unwrap().registry().snapshot();
        assert_eq!(snap.value("riptide_sync_merged_total"), Some(1));

        // A newer remote beats the local entry.
        let newer = vec![SyncEntry {
            key: "10.0.0.1".parse().unwrap(),
            window: 72,
            last_updated: SimTime::from_secs(101),
        }];
        let accepted = a.merge_remote(&newer, SimTime::from_secs(102), &mut routes);
        assert_eq!(accepted, vec![("10.0.0.1".parse().unwrap(), 72)]);
        assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 0, 1)), Some(72));

        // Re-merging the same delta is a no-op (ties keep local).
        assert!(a
            .merge_remote(&newer, SimTime::from_secs(103), &mut routes)
            .is_empty());
    }

    #[test]
    fn sync_merged_counter_counts_every_accepted_entry() {
        use crate::telemetry::AgentTelemetry;

        // "Entries accepted from gossip peers" means accepted, not
        // "accepted and issued as a route of their own": an entry that
        // rides a live aggregate, or whose window the kernel already
        // holds, is accepted all the same.
        let (mut a, mut routes) = agent(aggregated());
        a.attach_telemetry(AgentTelemetry::standalone(16));
        let mut o = FnObserver(|| {
            vec![
                obs([10, 0, 1, 1], 40),
                obs([10, 0, 1, 2], 42),
                obs([10, 0, 9, 1], 90),
            ]
        });
        a.tick(SimTime::from_secs(10), &mut o, &mut routes);
        assert_eq!(a.aggregator().unwrap().len(), 1, "10.0.1.0/24 is live");

        let entry = |key: &str, window| SyncEntry {
            key: key.parse().unwrap(),
            window,
            last_updated: SimTime::from_secs(20),
        };
        let delta = [
            entry("10.0.1.1", 41), // rides 10.0.1.0/24: nothing to issue
            entry("10.0.9.1", 90), // the window already installed
            entry("10.0.8.1", 55), // a route of its own
        ];
        let accepted = a.merge_remote(&delta, SimTime::from_secs(21), &mut routes);
        assert_eq!(accepted.len(), 3);
        assert_eq!(a.stats().sync_merges, 3);
        let snap = a.telemetry().unwrap().registry().snapshot();
        assert_eq!(snap.value("riptide_sync_merged_total"), Some(3));
    }

    #[test]
    fn summing_stats_keeps_every_field() {
        // Every field distinct and non-zero on both sides, written as a
        // literal so that a new field fails to compile here as well.
        let stats = |k: u64| AgentStats {
            ticks: k,
            observations: 2 * k,
            route_updates: 3 * k,
            route_expirations: 4 * k,
            errors: 5 * k,
            degraded_ticks: 6 * k,
            guard_trips: 7 * k,
            table_evictions: 8 * k,
            reconcile_repairs: 9 * k,
            aggregate_merges: 10 * k,
            aggregate_splits: 11 * k,
            restored_routes: 12 * k,
            sync_merges: 13 * k,
            suppressed_installs: 14 * k,
            clamped_installs: 15 * k,
            shutdown_withdrawals: 16 * k,
            persist_skipped_entries: 17 * k,
            swept_entries: 18 * k,
            pass_members: 19 * k,
        };
        let mut total = AgentStats::default();
        total += stats(1);
        total += stats(100);
        assert_eq!(total, stats(101));
    }

    #[test]
    fn stats_accumulate() {
        let (mut a, mut routes) = agent(no_history());
        let mut o = FnObserver(|| vec![obs([10, 0, 1, 1], 50)]);
        a.tick(SimTime::from_secs(1), &mut o, &mut routes);
        let mut silent = FnObserver(Vec::new);
        a.tick(SimTime::from_secs(100), &mut silent, &mut routes);
        let s = a.stats();
        assert_eq!(s.ticks, 2);
        assert_eq!(s.observations, 1);
        assert_eq!(s.route_updates, 1);
        assert_eq!(s.route_expirations, 1);
        assert_eq!(s.errors, 0);
    }
}

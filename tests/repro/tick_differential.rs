//! Differential tests for the agent tick's ordered sweep.
//!
//! `RiptideAgent::tick` walks the sorted observations and the learned
//! table together with one cursor, fuses TTL detection into that walk,
//! and detects aggregate member runs on a key-ordered walk. The reference
//! models here do the same job the slow, obvious way — one map lookup per
//! question, a separate expiry scan, a map of `Vec`s per covering prefix —
//! and every tick must agree with them on everything observable: the
//! report, the controller commands in order, the installed view and the
//! table.
//!
//! The tick also decides before it issues, so that it never installs a
//! route it withdraws in the same tick. The naive model writes that rule
//! the obvious way: it builds the command list of a tick that issues as
//! it decides, then strikes the installs the rest of the tick undoes.
//!
//! The tick re-decides only the covering prefixes whose members changed
//! since its last aggregation pass; the naive model runs a full pass every
//! tick. The random stream interleaves the other writers of the learned
//! table — degraded ticks, gossip merges, and a snapshot restored into a
//! fresh agent — so a change the agent forgets to mark shows up as a live
//! aggregate set that drifts from the model's.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use proptest::prelude::*;
use riptide_repro::linuxnet::prefix::Ipv4Prefix;
use riptide_repro::linuxnet::route::RouteTable;
use riptide_repro::riptide::aggregate::{MergeOutcome, SplitOutcome};
use riptide_repro::riptide::prelude::*;
use riptide_repro::riptide::sync::{clamp_merge, remote_wins};
use riptide_repro::riptide::table::FinalEntry;
use riptide_repro::simnet::rng::DetRng;
use riptide_repro::simnet::time::{SimDuration, SimTime};

/// The grouping pass as it was first written: materialise every covering
/// prefix's members, decide each group, then look for orphans.
fn reference_pass(
    policy: &AggregationPolicy,
    aggregates: &mut BTreeMap<Ipv4Prefix, u32>,
    table: &BTreeMap<Ipv4Prefix, u32>,
) -> AggregationPass {
    let mut groups: BTreeMap<Ipv4Prefix, Vec<(Ipv4Prefix, u32)>> = BTreeMap::new();
    for (key, &window) in table {
        if window == 0 {
            continue;
        }
        if let Some(covering) = policy.covering_of(key) {
            groups.entry(covering).or_default().push((*key, window));
        }
    }
    let mut pass = AggregationPass::default();
    for (covering, members) in &groups {
        let min = members.iter().map(|(_, w)| *w).min().unwrap();
        let max = members.iter().map(|(_, w)| *w).max().unwrap();
        let spread = max - min;
        let agrees = members.len() >= policy.min_siblings && spread <= policy.band;
        let merge = || MergeOutcome {
            covering: *covering,
            window: min,
            members: members.iter().map(|(k, _)| *k).collect(),
            spread,
        };
        match (agrees, aggregates.get(covering).copied()) {
            (true, None) => {
                aggregates.insert(*covering, min);
                pass.merged.push(merge());
            }
            (true, Some(current)) if current != min => {
                aggregates.insert(*covering, min);
                pass.retuned.push(merge());
            }
            (false, Some(_)) => {
                aggregates.remove(covering);
                pass.split.push(SplitOutcome {
                    covering: *covering,
                    members: members.clone(),
                    spread,
                });
            }
            _ => {}
        }
    }
    let orphaned: Vec<Ipv4Prefix> = aggregates
        .keys()
        .filter(|c| !groups.contains_key(*c))
        .copied()
        .collect();
    for covering in orphaned {
        aggregates.remove(&covering);
        pass.split.push(SplitOutcome {
            covering,
            members: Vec::new(),
            spread: 0,
        });
    }
    pass.split.sort_by_key(|s| s.covering);
    pass
}

/// Records every call, in order, with its result, in front of a real
/// route table (so a withdrawal of a route that was never installed
/// fails, as `ip route del` would).
#[derive(Default)]
struct Recorder {
    routes: RouteTable,
    calls: Vec<(Ipv4Prefix, Option<u32>, bool)>,
}

impl RouteController for Recorder {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        let result = self.routes.set_initcwnd(key, window);
        self.calls.push((key, Some(window), result.is_ok()));
        result
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        let result = self.routes.clear_initcwnd(key);
        self.calls.push((key, None, result.is_ok()));
        result
    }
}

/// One route command of a tick, and the report list its success lands in.
#[derive(Clone, Copy)]
enum Step {
    Set(Ipv4Prefix, u32, Feeds),
    Clear(Ipv4Prefix, Feeds),
    /// An expiry reported without a call: with aggregation on, a key with
    /// no route of its own has nothing to withdraw.
    Expired(Ipv4Prefix),
}

#[derive(Clone, Copy, PartialEq)]
enum Feeds {
    Nothing,
    Updates,
    Expired,
    Merged,
}

/// What one step of the stream returned.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// A tick or a degraded tick.
    Tick(TickReport),
    /// `merge_remote`'s accepted entries.
    Merged(Vec<(Ipv4Prefix, u32)>),
    /// `restore_state`'s reinstalled routes.
    Restored(Vec<(Ipv4Prefix, u32)>),
}

/// Algorithm 1 plus guard, capacity bound and aggregation, with none of
/// the tick's shortcuts.
struct NaiveAgent {
    config: RiptideConfig,
    table: BTreeMap<Ipv4Prefix, FinalEntry>,
    /// The view as a tick that issues while it decides leaves it.
    installed: BTreeMap<Ipv4Prefix, u32>,
    guard: Option<LossGuard>,
    aggregates: BTreeMap<Ipv4Prefix, u32>,
    advisory: Advisory,
}

impl NaiveAgent {
    fn new(config: RiptideConfig) -> Self {
        NaiveAgent {
            guard: config.guard.clone().map(LossGuard::new),
            config,
            table: BTreeMap::new(),
            installed: BTreeMap::new(),
            aggregates: BTreeMap::new(),
            advisory: Advisory::Normal,
        }
    }

    fn live_covering(&self, key: &Ipv4Prefix) -> Option<Ipv4Prefix> {
        let covering = self.config.aggregation?.covering_of(key)?;
        self.aggregates.contains_key(&covering).then_some(covering)
    }

    /// One tick: its report, and the view the commands it issued leave
    /// (each applied to the view at the start of the tick, as the agent
    /// records them, accepted or not).
    fn tick(
        &mut self,
        now: SimTime,
        observations: Vec<CwndObservation>,
        controller: &mut Recorder,
    ) -> (TickReport, BTreeMap<Ipv4Prefix, u32>) {
        let mut report = TickReport {
            observed_connections: observations.len(),
            ..TickReport::default()
        };
        let start = self.installed.clone();
        let mut steps = Vec::new();

        let mut groups: BTreeMap<Ipv4Prefix, Vec<CwndObservation>> = BTreeMap::new();
        for obs in observations {
            groups
                .entry(self.config.granularity.key(obs.dst))
                .or_default()
                .push(obs);
        }
        for (key, group) in &groups {
            let key = *key;
            report.groups += 1;
            let fresh = self.config.combine.combine(group).unwrap();
            let total = |counter: fn(&CwndObservation) -> u64| {
                group.iter().map(counter).fold(0, u64::saturating_add)
            };
            let retrans = total(|o| o.retrans);
            let ecn_marks = total(|o| o.ecn_marks);
            let bytes_acked = total(|o| o.bytes_acked);
            let previous_fresh = self.table.get(&key).map(|e| e.last_fresh);
            let policy = &self.config.policy;
            let entry = self.table.entry(key).or_insert_with(|| FinalEntry {
                window: 0,
                history: policy.new_state(),
                last_fresh: fresh,
                last_updated: now,
            });
            entry.last_updated = now;
            let input = PolicyInput {
                fresh,
                retrans,
                ecn_marks,
                bytes_acked,
            };
            let blended = policy.observe(&mut entry.history, &input);
            entry.last_fresh = fresh;
            let shaped = match &self.config.trend {
                Some(trend) => {
                    trend.shape(previous_fresh, fresh, blended, self.config.cwnd_min as f64)
                }
                None => blended,
            };
            let Some(shaped) = self.advisory.shape(shaped) else {
                continue;
            };
            let window = self.config.clamp(shaped);
            self.table.get_mut(&key).unwrap().window = window;

            let mut effective = window;
            if let Some(guard) = &mut self.guard {
                let probe = guard.config().probe_window;
                let jump_started = self.installed.get(&key).is_some_and(|&w| w > probe);
                if guard
                    .update(key, retrans, bytes_acked, jump_started, now)
                    .tripped
                {
                    report.guard_trips.push(key);
                }
                if guard.suppressed(&key) {
                    effective = self.config.clamp(probe as f64);
                }
            }
            if self.live_covering(&key).is_none()
                && self.installed.get(&key).copied() != Some(effective)
            {
                steps.push(Step::Set(key, effective, Feeds::Updates));
                self.installed.insert(key, effective);
            }
        }

        self.expire(now, &mut steps);

        // Capacity: evict the stalest unit, one at a time, until it fits.
        if let Some(cap) = self.config.table_capacity {
            loop {
                let mut units: BTreeMap<Ipv4Prefix, (SimTime, Vec<Ipv4Prefix>)> = BTreeMap::new();
                for (key, entry) in &self.table {
                    let unit = self.live_covering(key).unwrap_or(*key);
                    let slot = units
                        .entry(unit)
                        .or_insert((entry.last_updated, Vec::new()));
                    slot.0 = slot.0.max(entry.last_updated);
                    slot.1.push(*key);
                }
                if self.table.len() <= cap || units.len() <= cap {
                    break;
                }
                let (_, victim) = units.iter().map(|(u, (at, _))| (*at, *u)).min().unwrap();
                for key in &units[&victim].1 {
                    self.table.remove(key);
                    report.evicted.push(*key);
                    if let Some(guard) = &mut self.guard {
                        guard.forget(key);
                    }
                    if self.installed.remove(key).is_some() {
                        steps.push(Step::Clear(*key, Feeds::Nothing));
                    }
                }
            }
        }

        // Aggregation: group, decide, apply.
        if let Some(policy) = self.config.aggregation {
            let windows = self.table.iter().map(|(k, e)| (*k, e.window)).collect();
            let pass = reference_pass(&policy, &mut self.aggregates, &windows);
            for merge in pass.merged.iter().chain(&pass.retuned) {
                // (A retuned aggregate's members hold no routes.)
                for member in &merge.members {
                    if self.installed.remove(member).is_some() {
                        steps.push(Step::Clear(*member, Feeds::Nothing));
                    }
                }
                steps.push(Step::Set(merge.covering, merge.window, Feeds::Merged));
                self.installed.insert(merge.covering, merge.window);
            }
            for split in &pass.split {
                report.disaggregated.push(split.covering);
                if self.installed.remove(&split.covering).is_some() {
                    steps.push(Step::Clear(split.covering, Feeds::Nothing));
                }
                for &(member, window) in &split.members {
                    steps.push(Step::Set(member, window, Feeds::Nothing));
                    self.installed.insert(member, window);
                }
            }
        }

        // The rule: strike the install of every key this tick evicts or
        // leaves covered by an aggregate, and that key's withdrawal when
        // it had no route at the start of the tick.
        let undone: BTreeSet<Ipv4Prefix> = steps
            .iter()
            .filter_map(|step| match *step {
                Step::Set(key, _, Feeds::Updates)
                    if report.evicted.contains(&key) || self.live_covering(&key).is_some() =>
                {
                    Some(key)
                }
                _ => None,
            })
            .collect();
        steps.retain(|step| match *step {
            Step::Set(key, _, Feeds::Updates) => !undone.contains(&key),
            Step::Clear(key, _) => !undone.contains(&key) || start.contains_key(&key),
            _ => true,
        });

        let issued_view = Self::issue(steps, start, controller, &mut report);
        (report, issued_view)
    }

    /// Expiry: its own scan of the whole table.
    fn expire(&mut self, now: SimTime, steps: &mut Vec<Step>) {
        let dead: Vec<Ipv4Prefix> = self
            .table
            .iter()
            .filter(|(_, e)| now.saturating_since(e.last_updated) > self.config.ttl)
            .map(|(k, _)| *k)
            .collect();
        for key in dead {
            self.table.remove(&key);
            let was_installed = self.installed.remove(&key).is_some();
            if let Some(guard) = &mut self.guard {
                guard.forget(&key);
            }
            steps.push(if self.config.aggregation.is_some() && !was_installed {
                Step::Expired(key)
            } else {
                Step::Clear(key, Feeds::Expired)
            });
        }
    }

    /// Issues `steps` in order, filling in `report`, and returns the view
    /// they leave when applied to `start`.
    fn issue(
        steps: Vec<Step>,
        start: BTreeMap<Ipv4Prefix, u32>,
        controller: &mut Recorder,
        report: &mut TickReport,
    ) -> BTreeMap<Ipv4Prefix, u32> {
        let mut issued_view = start;
        for step in steps {
            match step {
                Step::Set(key, window, feeds) => {
                    issued_view.insert(key, window);
                    match controller.set_initcwnd(key, window) {
                        Err(e) => report.errors.push(e),
                        Ok(()) if feeds == Feeds::Updates => report.updates.push((key, window)),
                        Ok(()) if feeds == Feeds::Merged => report.merged.push((key, window)),
                        Ok(()) => {}
                    }
                }
                Step::Clear(key, feeds) => {
                    issued_view.remove(&key);
                    match controller.clear_initcwnd(key) {
                        Err(e) => report.errors.push(e),
                        Ok(()) if feeds == Feeds::Expired => report.expired.push(key),
                        Ok(()) => {}
                    }
                }
                Step::Expired(key) => report.expired.push(key),
            }
        }
        issued_view
    }

    /// A failed poll: expiry alone, no pass.
    fn tick_degraded(&mut self, now: SimTime, controller: &mut Recorder) -> TickReport {
        let mut report = TickReport {
            degraded: true,
            ..TickReport::default()
        };
        let start = self.installed.clone();
        let mut steps = Vec::new();
        self.expire(now, &mut steps);
        Self::issue(steps, start, controller, &mut report);
        report
    }

    /// A gossip delta, one entry at a time: newest stamp wins, the
    /// window is clamped, an entry already past the TTL is ignored, and a
    /// key a live aggregate covers is not installed.
    fn merge_remote(
        &mut self,
        delta: &[SyncEntry],
        now: SimTime,
        controller: &mut Recorder,
    ) -> Vec<(Ipv4Prefix, u32)> {
        let (lo, hi) = (self.config.cwnd_min, self.config.cwnd_max);
        let mut accepted = Vec::new();
        for remote in delta {
            if now.saturating_since(remote.last_updated) > self.config.ttl {
                continue;
            }
            let known = self.table.get(&remote.key);
            let local = known.map(|e| SyncEntry {
                key: remote.key,
                window: e.window,
                last_updated: e.last_updated,
            });
            if !remote_wins(local.as_ref(), remote) {
                continue;
            }
            let window = clamp_merge(remote.window, lo, hi);
            let (history, last_fresh) = match known {
                Some(e) => (e.history.clone(), e.last_fresh),
                None => {
                    let mut history = self.config.policy.new_state();
                    self.config.policy.blend(&mut history, window as f64);
                    (history, window as f64)
                }
            };
            let entry = FinalEntry {
                window,
                history,
                last_fresh,
                last_updated: remote.last_updated,
            };
            self.table.insert(remote.key, entry);
            if self.live_covering(&remote.key).is_none()
                && self.installed.get(&remote.key) != Some(&window)
            {
                self.installed.insert(remote.key, window);
                let _ = controller.set_initcwnd(remote.key, window);
            }
            accepted.push((remote.key, window));
        }
        accepted
    }

    /// A warm restart over an empty kernel table: entries past the TTL
    /// are dropped and the rest clamped; a covering route comes back live
    /// while `min_siblings` of its members survive; every installed route
    /// with a surviving entry (or live aggregate) is reissued.
    fn restart(&mut self, now: SimTime, controller: &mut Recorder) -> Vec<(Ipv4Prefix, u32)> {
        let (lo, hi) = (self.config.cwnd_min, self.config.cwnd_max);
        let ttl = self.config.ttl;
        self.table
            .retain(|_, e| now.saturating_since(e.last_updated) <= ttl);
        for entry in self.table.values_mut() {
            entry.window = entry.window.clamp(lo, hi);
        }
        if let Some(guard) = &mut self.guard {
            let exported = guard.export_states();
            *guard = LossGuard::new(guard.config().clone());
            guard.restore_states(&exported);
        }
        let installs = std::mem::take(&mut self.installed);
        self.aggregates.clear();
        if let Some(policy) = self.config.aggregation {
            for (&key, &window) in &installs {
                let members = self
                    .table
                    .iter()
                    .filter(|(k, e)| e.window != 0 && policy.covering_of(k) == Some(key))
                    .count();
                if key.len() == policy.aggregate_len && members >= policy.min_siblings {
                    self.aggregates.insert(key, window.clamp(lo, hi));
                }
            }
        }
        let mut restored = Vec::new();
        for (key, window) in installs {
            if !self.table.contains_key(&key) && !self.aggregates.contains_key(&key) {
                continue;
            }
            let window = window.clamp(lo, hi);
            self.installed.insert(key, window);
            if controller.set_initcwnd(key, window).is_ok() {
                restored.push((key, window));
            }
        }
        restored
    }
}

/// One destination's cumulative counters, as `ss` would report them.
#[derive(Clone, Copy, Default)]
struct Counters {
    retrans: u64,
    bytes_acked: u64,
}

/// A random agent configuration with every subsystem the tick touches
/// switched on at least some of the time.
fn random_config(rng: &mut DetRng) -> RiptideConfig {
    let mut builder = RiptideConfig::builder()
        .ttl(SimDuration::from_secs(20))
        .guard(GuardConfig::default());
    if rng.chance(0.5) {
        builder = builder.policy(LearningPolicy::None);
    }
    if rng.chance(0.3) {
        builder = builder.trend(TrendPolicy::default());
    }
    if rng.chance(0.8) {
        builder = builder.aggregation(AggregationPolicy {
            min_siblings: 2 + rng.below(2),
            ..AggregationPolicy::default()
        });
    }
    if rng.chance(0.6) {
        builder = builder.table_capacity(2 + rng.below(20));
    }
    builder.build().unwrap()
}

/// One tick of [`run`]: both agents just ran it.
struct Ticked<'a> {
    tick: usize,
    config: &'a RiptideConfig,
    agent: &'a RiptideAgent,
    real: &'a Outcome,
    real_calls: &'a [(Ipv4Prefix, Option<u32>, bool)],
    naive: &'a NaiveAgent,
    want: &'a Outcome,
    want_calls: &'a [(Ipv4Prefix, Option<u32>, bool)],
    /// The view the naive model's issued commands leave.
    issued_view: &'a BTreeMap<Ipv4Prefix, u32>,
}

/// Feeds the tick under test and the naive model the same random stream,
/// and hands every step to `check`: ≤ 64 hosts in ≤ 4 slabs, shuffled
/// sweeps of a changing subset (so first-seen keys arrive between known
/// ones), gaps longer than the TTL, loss bursts for the guard, and a
/// stretch of ticks under a Suspend advisory; between the ticks, degraded
/// ticks, gossip deltas (repeated keys, stale and out-of-bounds entries
/// among them) and warm restarts from a snapshot.
fn run(
    seed: u64,
    mut check: impl FnMut(&Ticked<'_>) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let mut rng = DetRng::for_stream(seed, 0x5449_434b); // "TICK"
    let config = random_config(&mut rng);
    let mut agent = RiptideAgent::new(config.clone()).unwrap();
    let mut naive = NaiveAgent::new(config.clone());
    let (mut real_ctl, mut naive_ctl) = (Recorder::default(), Recorder::default());
    let host = |slab: usize, host: usize| Ipv4Addr::new(10, 0, slab as u8, 1 + host as u8);

    let slabs = 1 + rng.below(4);
    let hosts = 2 + rng.below(15);
    let mut counters = vec![Counters::default(); slabs * hosts];
    // Each slab has a window its hosts mostly agree on.
    let slab_window: Vec<u32> = (0..slabs).map(|_| 15 + rng.below(80) as u32).collect();
    let suspend_from = 3 + rng.below(10);
    let suspend_for = rng.below(4);
    let mut now = SimTime::ZERO;
    for tick in 0..(12 + rng.below(18)) {
        now += SimDuration::from_secs([1, 1, 1, 2, 7, 25][rng.below(6)]);
        let (real, want, issued_view) = match rng.below(10) {
            0 => (
                Outcome::Tick(agent.tick_degraded(now, &mut real_ctl)),
                Outcome::Tick(naive.tick_degraded(now, &mut naive_ctl)),
                naive.installed.clone(),
            ),
            1 => {
                // Keys the fleet has and a few it has not; a key often
                // repeats, stamps reach past the TTL and windows past
                // the clamp.
                let mut delta: Vec<SyncEntry> = Vec::new();
                for _ in 0..1 + rng.below(6) {
                    let key = match delta.last() {
                        Some(last) if rng.chance(0.3) => last.key,
                        _ => Ipv4Prefix::host(host(rng.below(slabs), rng.below(hosts + 2))),
                    };
                    let age = SimDuration::from_secs(rng.below(30) as u64);
                    delta.push(SyncEntry {
                        key,
                        window: 1 + rng.below(150) as u32,
                        last_updated: SimTime::ZERO
                            + now.saturating_since(SimTime::ZERO).saturating_sub(age),
                    });
                }
                (
                    Outcome::Merged(agent.merge_remote(&delta, now, &mut real_ctl)),
                    Outcome::Merged(naive.merge_remote(&delta, now, &mut naive_ctl)),
                    naive.installed.clone(),
                )
            }
            2 if rng.chance(0.5) => {
                // A warm restart into a fresh agent over an empty kernel.
                let snapshot = agent.snapshot_state(now);
                agent = RiptideAgent::new(config.clone()).unwrap();
                (real_ctl, naive_ctl) = (Recorder::default(), Recorder::default());
                (
                    Outcome::Restored(agent.restore_state(&snapshot, now, &mut real_ctl)),
                    Outcome::Restored(naive.restart(now, &mut naive_ctl)),
                    naive.installed.clone(),
                )
            }
            _ => {
                let advisory = if (suspend_from..suspend_from + suspend_for).contains(&tick) {
                    Advisory::Suspend
                } else if rng.chance(0.1) {
                    Advisory::Conservative { factor: 0.5 }
                } else {
                    Advisory::Normal
                };
                agent.set_advisory(advisory).unwrap();
                naive.advisory = advisory;

                let density = [0.0, 0.3, 0.7, 1.0][rng.below(4)];
                let mut sweep = Vec::new();
                for (i, seen) in counters.iter_mut().enumerate() {
                    if !rng.chance(density) {
                        continue;
                    }
                    let slab = i / hosts;
                    for _ in 0..1 + rng.below(3) {
                        seen.bytes_acked += 200_000 + rng.below(400_000) as u64;
                        seen.retrans += if rng.chance(0.05) {
                            50 + rng.below(200) as u64
                        } else {
                            0
                        };
                        let cwnd = if rng.chance(0.15) {
                            1 + rng.below(150) as u32
                        } else {
                            slab_window[slab] + rng.below(6) as u32
                        };
                        sweep.push(CwndObservation {
                            dst: host(slab, i % hosts),
                            cwnd,
                            bytes_acked: seen.bytes_acked,
                            retrans: seen.retrans,
                            ecn_marks: 0,
                        });
                    }
                }
                for i in (1..sweep.len()).rev() {
                    sweep.swap(i, rng.below(i + 1));
                }

                let mut observer = FnObserver(|| sweep.clone());
                let real = agent.tick(now, &mut observer, &mut real_ctl);
                let (want, issued_view) = naive.tick(now, sweep.clone(), &mut naive_ctl);
                (Outcome::Tick(real), Outcome::Tick(want), issued_view)
            }
        };
        check(&Ticked {
            tick,
            config: &config,
            agent: &agent,
            real: &real,
            real_calls: &real_ctl.calls,
            naive: &naive,
            want: &want,
            want_calls: &naive_ctl.calls,
            issued_view: &issued_view,
        })?;
        real_ctl.calls.clear();
        naive_ctl.calls.clear();
    }
    Ok(())
}

proptest! {
    #[test]
    fn tick_matches_the_naive_model(seed in any::<u64>()) {
        run(seed, |t| {
            prop_assert_eq!(t.real, t.want, "tick {} report (config {:?})", t.tick, t.config);
            prop_assert_eq!(t.real_calls, t.want_calls, "tick {} commands", t.tick);
            prop_assert_eq!(t.agent.installed_view(), t.issued_view, "tick {} view", t.tick);
            let table: BTreeMap<Ipv4Prefix, FinalEntry> =
                t.agent.table().iter().map(|(k, e)| (*k, e.clone())).collect();
            prop_assert_eq!(&table, &t.naive.table, "tick {} table", t.tick);
            if let Some(agg) = t.agent.aggregator() {
                let live: BTreeMap<Ipv4Prefix, u32> = agg.iter().map(|(k, w)| (*k, w)).collect();
                prop_assert_eq!(&live, &t.naive.aggregates, "tick {} aggregates", t.tick);
            }
            Ok(())
        })?;
    }

    // The rule's point: a key is installed or withdrawn in one tick,
    // never both.
    #[test]
    fn no_tick_issues_both_a_set_and_a_clear_for_one_key(seed in any::<u64>()) {
        run(seed, |t| {
            let keys = |set: bool| -> BTreeSet<Ipv4Prefix> {
                t.real_calls
                    .iter()
                    .filter(|(_, window, _)| window.is_some() == set)
                    .map(|(key, _, _)| *key)
                    .collect()
            };
            let both: Vec<_> = keys(true).intersection(&keys(false)).copied().collect();
            prop_assert!(both.is_empty(), "tick {} sets and clears {:?}", t.tick, both);
            Ok(())
        })?;
    }

    // What the rule leaves out cancels: the view ends every tick where
    // issuing each command as it is decided would leave it.
    #[test]
    fn the_view_is_the_one_issuing_while_deciding_leaves(seed in any::<u64>()) {
        run(seed, |t| {
            prop_assert_eq!(t.agent.installed_view(), &t.naive.installed, "tick {} view", t.tick);
            Ok(())
        })?;
    }

    // `Aggregator::pass` finds each covering prefix's members as one run
    // of the key-ordered walk. The tables here put everything that can
    // sit inside a /24's address range under it — /32s, /28s, the /24
    // itself, and the /16 and /8 that share slab 0's first address — and
    // churn windows (0 included) and membership between passes, so
    // aggregates form, retune, split and are orphaned.
    #[test]
    fn pass_run_detection_matches_the_grouping_reference(seed in any::<u64>()) {
        let mut rng = DetRng::for_stream(seed, 0x5041_5353); // "PASS"
        let mut universe: Vec<Ipv4Prefix> = vec![
            "10.0.0.0/8".parse().unwrap(),
            "10.0.0.0/16".parse().unwrap(),
        ];
        for slab in 0..3u8 {
            universe.push(Ipv4Prefix::new(Ipv4Addr::new(10, 0, slab, 0), 24));
            for sub in [0u8, 16, 32] {
                universe.push(Ipv4Prefix::new(Ipv4Addr::new(10, 0, slab, sub), 28));
            }
            for host in 0..6u8 {
                universe.push(Ipv4Prefix::host(Ipv4Addr::new(10, 0, slab, host)));
            }
        }
        let policy = AggregationPolicy {
            min_siblings: 2 + rng.below(2),
            ..AggregationPolicy::default()
        };
        let mut aggregator = Aggregator::new(policy);
        let mut reference = BTreeMap::new();
        let mut windows: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for step in 0..8 {
            // Sometimes a whole slab falls silent for a step: its
            // aggregate is orphaned.
            let silent = rng.chance(0.3).then(|| {
                Ipv4Prefix::new(Ipv4Addr::new(10, 0, rng.below(3) as u8, 0), 24)
            });
            windows.retain(|key, _| !silent.is_some_and(|slab| slab.covers(key)));
            for key in &universe {
                if silent.is_some_and(|slab| slab.covers(key)) {
                    continue;
                }
                let window = match rng.below(10) {
                    0 => {
                        windows.remove(key);
                        continue;
                    }
                    1 => 0,
                    2 => 10 + rng.below(90) as u32,
                    3..=6 => 40 + rng.below(9) as u32,
                    _ => continue,
                };
                windows.insert(*key, window);
            }
            let mut table = FinalTable::new();
            for (key, window) in &windows {
                let mut entry = FinalEntry::new(&LearningPolicy::None, 0.0, SimTime::ZERO);
                entry.window = *window;
                table.restore_entry(*key, entry);
            }
            let got = aggregator.pass(&table);
            let want = reference_pass(&policy, &mut reference, &windows);
            prop_assert_eq!(&got, &want, "step {}", step);
            let live: BTreeMap<Ipv4Prefix, u32> = aggregator.iter().map(|(k, w)| (*k, w)).collect();
            prop_assert_eq!(&live, &reference, "step {} live set", step);
        }
    }
}

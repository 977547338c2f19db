//! Prefix aggregation: coalesce sibling host routes into a covering
//! prefix when their learned windows agree, split on divergence.
//!
//! The paper's prefix granularity (§III-B) decides the key space *up
//! front*; at internet scale that choice is wrong in both directions —
//! `/32` learning keeps per-destination fidelity but installs a route
//! per host, `/24` learning caps the table but averages hosts that may
//! genuinely differ. Aggregation (in the spirit of Pied Piper's
//! cross-connection sharing, see PAPERS.md) gets both: the agent keeps
//! **learning at `/32`**, and after every tick a deterministic pass
//! coalesces sibling hosts into one covering route when — and only as
//! long as — their learned windows agree.
//!
//! Invariants (pinned by tests here and in the agent):
//!
//! * **Never widen past the learned band.** An aggregate's window is
//!   the *minimum* of its members' clamped windows, and members only
//!   merge while `max − min ≤ band`. No destination is ever jump-started
//!   harder than its own learned value, and no member's window is
//!   understated by more than the band.
//! * **One pass restores agreement.** The pass is a pure function of
//!   the learned table: any divergence observed in tick *n* dissolves
//!   the aggregate in tick *n*'s pass, reinstalling members at their
//!   individual windows. There is no hysteresis state to drift.
//! * **Every merge and split is journal-attributed** via
//!   [`DecisionCause::Aggregated`] / [`DecisionCause::Disaggregated`].
//!
//! [`DecisionCause::Aggregated`]: crate::telemetry::DecisionCause::Aggregated
//! [`DecisionCause::Disaggregated`]: crate::telemetry::DecisionCause::Disaggregated
//!
//! # Examples
//!
//! ```
//! use riptide::aggregate::{AggregationPolicy, Aggregator};
//! use riptide::policy::LearningPolicy;
//! use riptide::table::FinalTable;
//! use riptide_simnet::time::SimTime;
//!
//! let mut table = FinalTable::new();
//! let strategy = LearningPolicy::None;
//! for (host, w) in [("10.0.1.1", 40u32), ("10.0.1.2", 42), ("10.0.1.3", 41)] {
//!     let key = host.parse()?;
//!     table.blend(key, w as f64, &strategy, SimTime::from_secs(1));
//!     table.set_window(&key, w);
//! }
//!
//! let mut agg = Aggregator::new(AggregationPolicy::default());
//! let pass = agg.pass(&table);
//! // The three /32s agree within the band: one /24 at the member minimum.
//! assert_eq!(pass.merged.len(), 1);
//! assert_eq!(pass.merged[0].covering.to_string(), "10.0.1.0/24");
//! assert_eq!(pass.merged[0].window, 40, "never widen past a member");
//!
//! // A diverging member dissolves the aggregate on the next pass.
//! table.set_window(&"10.0.1.2".parse()?, 90);
//! let pass = agg.pass(&table);
//! assert_eq!(pass.split.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{btree_map, BTreeMap};
use std::iter::Peekable;
use std::net::Ipv4Addr;
use std::ops::RangeInclusive;

use riptide_linuxnet::prefix::Ipv4Prefix;

use crate::table::FinalTable;

/// When and how learned host routes coalesce into covering prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationPolicy {
    /// Length of the covering prefix members coalesce into (the paper's
    /// PoP unit: `/24`).
    pub aggregate_len: u8,
    /// Maximum `max − min` spread of member windows, in segments, for
    /// siblings to count as "agreeing". This is the clamp band the
    /// aggregate may understate a member by.
    pub band: u32,
    /// Minimum number of sibling members before a covering route pays
    /// for itself (a one-member aggregate is just a worse host route).
    pub min_siblings: usize,
}

impl Default for AggregationPolicy {
    /// `/24` aggregates, a band of 8 segments, at least 2 siblings.
    fn default() -> Self {
        AggregationPolicy {
            aggregate_len: 24,
            band: 8,
            min_siblings: 2,
        }
    }
}

impl AggregationPolicy {
    /// Checks the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns a description if the aggregate length is not strictly
    /// inside `(0, 32)` or `min_siblings < 2`.
    pub fn validate(&self) -> Result<(), String> {
        if self.aggregate_len == 0 || self.aggregate_len >= 32 {
            return Err(format!(
                "aggregate length /{} must be between /1 and /31",
                self.aggregate_len
            ));
        }
        if self.min_siblings < 2 {
            return Err(format!(
                "min_siblings {} must be at least 2 (a 1-member aggregate is never a win)",
                self.min_siblings
            ));
        }
        Ok(())
    }

    /// The covering prefix `key` would aggregate into, if `key` is more
    /// specific than the aggregate length.
    pub fn covering_of(&self, key: &Ipv4Prefix) -> Option<Ipv4Prefix> {
        (key.len() > self.aggregate_len).then(|| key.covering(self.aggregate_len))
    }

    /// The keys, in table order, from `covering` to the host route of its
    /// last address: every member of `covering` lies in between. Keys
    /// order by `(network bits, length)`, so a member sharing the
    /// covering prefix's first address is longer and sorts after it; the
    /// only other keys in the span are `covering` itself and shorter
    /// prefixes inside it, which are not members.
    fn span_of(&self, covering: Ipv4Prefix) -> RangeInclusive<Ipv4Prefix> {
        let last = u32::from(covering.network()) | (u32::MAX >> covering.len());
        covering..=Ipv4Prefix::host(Ipv4Addr::from(last))
    }
}

/// A newly formed (or retuned) aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The covering prefix now representing its members.
    pub covering: Ipv4Prefix,
    /// The aggregate window: the minimum of the member windows.
    pub window: u32,
    /// The member keys, in key order.
    pub members: Vec<Ipv4Prefix>,
    /// `max − min` of the member windows at merge time.
    pub spread: u32,
}

/// A dissolved aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitOutcome {
    /// The covering prefix being withdrawn.
    pub covering: Ipv4Prefix,
    /// The members to reinstall individually, with their current
    /// learned windows, in key order. Empty when the members themselves
    /// expired or were evicted.
    pub members: Vec<(Ipv4Prefix, u32)>,
    /// `max − min` of the member windows at split time (0 when no
    /// members remain).
    pub spread: u32,
}

/// What one aggregation pass decided. The route-level consequences
/// (withdraw members / install covering and vice versa) are applied by
/// the agent so they flow through its controller and journal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggregationPass {
    /// Aggregates formed this pass (members → one covering route).
    pub merged: Vec<MergeOutcome>,
    /// Existing aggregates whose window moved with their members.
    pub retuned: Vec<MergeOutcome>,
    /// Aggregates dissolved this pass (covering route → members).
    pub split: Vec<SplitOutcome>,
}

/// The aggregation/splitting pass. Holds the set of live aggregates;
/// [`Aggregator::pass`] diffs that set against what the learned table
/// currently supports.
#[derive(Debug, Clone)]
pub struct Aggregator {
    policy: AggregationPolicy,
    /// Live aggregates: covering prefix → installed aggregate window.
    aggregates: BTreeMap<Ipv4Prefix, u32>,
}

impl Aggregator {
    /// Creates an aggregator with no live aggregates.
    pub fn new(policy: AggregationPolicy) -> Self {
        Aggregator {
            policy,
            aggregates: BTreeMap::new(),
        }
    }

    /// An aggregator that covers nothing, what an agent without
    /// aggregation holds: its aggregates would be `/32`s, and no key is
    /// more specific than that, so no key has a covering prefix and
    /// nothing ever merges. The agent runs none of its passes.
    pub(crate) fn off() -> Self {
        Aggregator::new(AggregationPolicy {
            aggregate_len: 32,
            ..AggregationPolicy::default()
        })
    }

    /// Whether this aggregator covers nothing ([`Aggregator::off`]).
    pub(crate) fn is_off(&self) -> bool {
        self.policy.aggregate_len == 32
    }

    /// The configured policy.
    pub fn policy(&self) -> &AggregationPolicy {
        &self.policy
    }

    /// Number of live aggregates.
    pub fn len(&self) -> usize {
        self.aggregates.len()
    }

    /// Whether no aggregates are live.
    pub fn is_empty(&self) -> bool {
        self.aggregates.is_empty()
    }

    /// The covering prefix of a *live* aggregate covering `key`, if any
    /// — the agent skips individual installs for such keys, and the
    /// grouped capacity accounting charges them as one unit.
    pub fn covering_of(&self, key: &Ipv4Prefix) -> Option<Ipv4Prefix> {
        let covering = self.policy.covering_of(key)?;
        self.aggregates.contains_key(&covering).then_some(covering)
    }

    /// The window of the live aggregate at exactly `covering`.
    pub fn window_of(&self, covering: &Ipv4Prefix) -> Option<u32> {
        self.aggregates.get(covering).copied()
    }

    /// Iterates live aggregates in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Prefix, u32)> {
        self.aggregates.iter().map(|(k, w)| (k, *w))
    }

    /// Runs one aggregation/splitting pass over the learned table and
    /// updates the live-aggregate set. Deterministic: the outcome is a
    /// pure function of `(policy, live aggregates, table)`, and all
    /// outcome lists are in covering-prefix order.
    ///
    /// Entries with a window of 0 (blended but never committed — e.g.
    /// learned under a `Suspend` advisory) are ignored: there is no
    /// window to aggregate.
    ///
    /// One key-ordered walk, no grouping map: keys order by
    /// `(network bits, length)` and a covering prefix owns one contiguous
    /// range of network bits, so its eligible members are one *run* of
    /// the walk (the only other keys inside the range — the covering
    /// prefix itself and shorter ones sharing its first address — are not
    /// eligible and are stepped over). Runs come out in covering order,
    /// the same order the live-aggregate set iterates in, so the two are
    /// merge-joined: a live aggregate no run claims has lost every member
    /// and dissolves with nothing to reinstall.
    pub fn pass(&mut self, table: &FinalTable) -> AggregationPass {
        let mut pass = AggregationPass::default();
        let mut live = self.aggregates.iter().peekable();
        // The current run; reused, so a steady pass allocates nothing.
        let mut run: Vec<(Ipv4Prefix, u32)> = Vec::new();
        let mut run_covering = None;
        for (key, entry) in table.iter() {
            if entry.window == 0 {
                continue;
            }
            let Some(covering) = self.policy.covering_of(key) else {
                continue;
            };
            if run_covering != Some(covering) {
                if let Some(closed) = run_covering.replace(covering) {
                    self.policy.close_run(closed, &run, &mut live, &mut pass);
                    run.clear();
                }
            }
            run.push((*key, entry.window));
        }
        if let Some(closed) = run_covering {
            self.policy.close_run(closed, &run, &mut live, &mut pass);
        }
        for (orphan, &window) in live {
            self.policy.decide(*orphan, &[], Some(window), &mut pass);
        }
        self.commit(&pass);
        pass
    }

    /// The pass over only the covering prefixes in `dirty` — those with a
    /// member whose window moved, or that arrived or left, since the last
    /// pass. Every other covering prefix would decide exactly what the
    /// last pass decided, which left nothing to do for it. Each dirty
    /// prefix's members are read from its span of the table and decided
    /// as [`Aggregator::pass`] decides a run, so the outcome is the one a
    /// full pass would return. Sorts and deduplicates `dirty`; returns
    /// the outcome and how many table entries were read.
    pub(crate) fn pass_over(
        &mut self,
        table: &FinalTable,
        dirty: &mut Vec<Ipv4Prefix>,
    ) -> (AggregationPass, usize) {
        dirty.sort_unstable();
        dirty.dedup();
        let mut pass = AggregationPass::default();
        let mut run: Vec<(Ipv4Prefix, u32)> = Vec::new();
        let mut read = 0;
        for &covering in dirty.iter() {
            run.clear();
            for (key, entry) in table.range(self.policy.span_of(covering)) {
                read += 1;
                if entry.window != 0 && self.policy.covering_of(key) == Some(covering) {
                    run.push((*key, entry.window));
                }
            }
            let current = self.aggregates.get(&covering).copied();
            self.policy.decide(covering, &run, current, &mut pass);
        }
        self.commit(&pass);
        (pass, read)
    }

    /// Updates the live-aggregate set to what `pass` decided.
    fn commit(&mut self, pass: &AggregationPass) {
        for outcome in pass.merged.iter().chain(&pass.retuned) {
            self.aggregates.insert(outcome.covering, outcome.window);
        }
        for outcome in &pass.split {
            self.aggregates.remove(&outcome.covering);
        }
    }

    /// Re-seeds the live-aggregate set at warm restart from the routes
    /// installed before the crash (`installs`, windows already clamped)
    /// and the restored learned `table`: an installed key of aggregate
    /// length was a covering route, and is live again if at least
    /// `min_siblings` of its members survived the downtime. Members that
    /// no longer agree are sorted out by the next [`Aggregator::pass`],
    /// as ever.
    pub(crate) fn restore(
        &mut self,
        installs: impl IntoIterator<Item = (Ipv4Prefix, u32)>,
        table: &FinalTable,
    ) {
        if self.is_off() {
            return;
        }
        let installed: BTreeMap<Ipv4Prefix, u32> = installs
            .into_iter()
            .filter(|(key, _)| key.len() == self.policy.aggregate_len)
            .collect();
        if installed.is_empty() {
            return;
        }
        // Members of one covering prefix are one run of the walk.
        let mut members = table
            .iter()
            .filter(|(_, entry)| entry.window != 0)
            .filter_map(|(key, _)| self.policy.covering_of(key))
            .peekable();
        while let Some(covering) = members.next() {
            let mut siblings = 1;
            while members.next_if_eq(&covering).is_some() {
                siblings += 1;
            }
            if siblings >= self.policy.min_siblings {
                if let Some(&window) = installed.get(&covering) {
                    self.aggregates.insert(covering, window);
                }
            }
        }
    }
}

impl AggregationPolicy {
    /// Closes one finished run of `members` under `covering` in the full
    /// pass: dissolves every live aggregate that sorts before it (no run
    /// claimed those), then decides the run. `live` is the
    /// not-yet-claimed tail of the live aggregates, in covering order.
    fn close_run(
        &self,
        covering: Ipv4Prefix,
        members: &[(Ipv4Prefix, u32)],
        live: &mut Peekable<btree_map::Iter<'_, Ipv4Prefix, u32>>,
        pass: &mut AggregationPass,
    ) {
        while let Some((orphan, &window)) = live.next_if(|(c, _)| **c < covering) {
            self.decide(*orphan, &[], Some(window), pass);
        }
        let current = live.next_if(|(c, _)| **c == covering).map(|(_, w)| *w);
        self.decide(covering, members, current, pass);
    }

    /// Decides one covering prefix, given its eligible `members` in key
    /// order and the window of its live aggregate, if any: merge, retune,
    /// split, or nothing. A live aggregate with no members left splits
    /// with nothing to reinstall. The one decision both passes make.
    fn decide(
        &self,
        covering: Ipv4Prefix,
        members: &[(Ipv4Prefix, u32)],
        current: Option<u32>,
        pass: &mut AggregationPass,
    ) {
        let windows = members.iter().map(|(_, w)| *w);
        let (Some(min), Some(max)) = (windows.clone().min(), windows.max()) else {
            if current.is_some() {
                pass.split.push(SplitOutcome {
                    covering,
                    members: Vec::new(),
                    spread: 0,
                });
            }
            return;
        };
        let spread = max - min;
        let agrees = members.len() >= self.min_siblings && spread <= self.band;
        let merge = || MergeOutcome {
            covering,
            window: min,
            members: members.iter().map(|(k, _)| *k).collect(),
            spread,
        };
        match (agrees, current) {
            (true, None) => pass.merged.push(merge()),
            (true, Some(current)) if current != min => pass.retuned.push(merge()),
            (false, Some(_)) => pass.split.push(SplitOutcome {
                covering,
                members: members.to_vec(),
                spread,
            }),
            (true, Some(_)) | (false, None) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LearningPolicy;
    use riptide_simnet::time::SimTime;
    use std::net::Ipv4Addr;

    fn table_with(entries: &[(&str, u32)]) -> FinalTable {
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::new();
        for (host, w) in entries {
            let key: Ipv4Prefix = host.parse().unwrap();
            t.blend(key, f64::from(*w), &strategy, SimTime::from_secs(1));
            t.set_window(&key, *w);
        }
        t
    }

    #[test]
    fn default_policy_validates() {
        assert!(AggregationPolicy::default().validate().is_ok());
        assert!(
            AggregationPolicy {
                aggregate_len: 32,
                ..AggregationPolicy::default()
            }
            .validate()
            .is_err(),
            "/32 aggregates nothing"
        );
        assert!(AggregationPolicy {
            min_siblings: 1,
            ..AggregationPolicy::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn agreeing_siblings_merge_at_member_minimum() {
        let t = table_with(&[("10.0.1.1", 44), ("10.0.1.2", 40), ("10.0.1.3", 47)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        let pass = agg.pass(&t);
        assert_eq!(pass.merged.len(), 1);
        let m = &pass.merged[0];
        assert_eq!(m.covering, "10.0.1.0/24".parse::<Ipv4Prefix>().unwrap());
        assert_eq!(m.window, 40, "minimum member window — never widen");
        assert_eq!(m.spread, 7);
        assert_eq!(m.members.len(), 3);
        assert_eq!(agg.window_of(&m.covering), Some(40));
    }

    #[test]
    fn divergent_siblings_do_not_merge() {
        let t = table_with(&[("10.0.1.1", 40), ("10.0.1.2", 90)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        let pass = agg.pass(&t);
        assert!(pass.merged.is_empty(), "spread 50 > band 8");
        assert!(agg.is_empty());
    }

    #[test]
    fn lone_host_does_not_merge() {
        let t = table_with(&[("10.0.1.1", 40)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        assert!(agg.pass(&t).merged.is_empty(), "below min_siblings");
    }

    #[test]
    fn divergence_splits_with_members_to_reinstall() {
        let mut t = table_with(&[("10.0.1.1", 40), ("10.0.1.2", 42)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        assert_eq!(agg.pass(&t).merged.len(), 1);

        t.set_window(&"10.0.1.2".parse().unwrap(), 90);
        let pass = agg.pass(&t);
        assert_eq!(pass.split.len(), 1);
        let s = &pass.split[0];
        assert_eq!(s.spread, 50);
        assert_eq!(
            s.members,
            vec![
                ("10.0.1.1".parse().unwrap(), 40),
                ("10.0.1.2".parse().unwrap(), 90),
            ]
        );
        assert!(agg.is_empty());
    }

    #[test]
    fn vanished_members_dissolve_the_aggregate() {
        let t = table_with(&[("10.0.1.1", 40), ("10.0.1.2", 42)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        agg.pass(&t);
        assert_eq!(agg.len(), 1);
        let empty = FinalTable::new();
        let pass = agg.pass(&empty);
        assert_eq!(pass.split.len(), 1);
        assert!(pass.split[0].members.is_empty());
        assert!(agg.is_empty());
    }

    #[test]
    fn member_drift_within_band_retunes_the_window() {
        let mut t = table_with(&[("10.0.1.1", 40), ("10.0.1.2", 42)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        agg.pass(&t);
        // Both members drift down but stay within the band: the
        // aggregate follows the new minimum instead of dissolving.
        t.set_window(&"10.0.1.1".parse().unwrap(), 36);
        t.set_window(&"10.0.1.2".parse().unwrap(), 38);
        let pass = agg.pass(&t);
        assert!(pass.merged.is_empty() && pass.split.is_empty());
        assert_eq!(pass.retuned.len(), 1);
        assert_eq!(pass.retuned[0].window, 36);
        // An identical re-pass is a no-op.
        let pass = agg.pass(&t);
        assert!(pass.merged.is_empty() && pass.retuned.is_empty() && pass.split.is_empty());
    }

    #[test]
    fn merge_split_merge_round_trip_is_deterministic() {
        let converged = table_with(&[("10.0.1.1", 40), ("10.0.1.2", 42), ("10.0.1.3", 44)]);
        let mut diverged = converged.clone();
        diverged.set_window(&"10.0.1.3".parse().unwrap(), 90);

        let run = || {
            let mut agg = Aggregator::new(AggregationPolicy::default());
            let first = agg.pass(&converged);
            let second = agg.pass(&diverged);
            let third = agg.pass(&converged);
            (first, second, third)
        };
        let (a1, a2, a3) = run();
        let (b1, b2, b3) = run();
        assert_eq!(a1.merged, b1.merged);
        assert_eq!(a2.split, b2.split);
        assert_eq!(a3.merged, b3.merged);
        assert_eq!(
            a1.merged, a3.merged,
            "re-convergence reforms the identical aggregate"
        );
    }

    #[test]
    fn windowless_entries_are_ignored() {
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::new();
        for n in 1..=3u8 {
            // blend() without set_window leaves window == 0 (e.g. a
            // Suspend advisory): nothing to aggregate.
            t.blend(
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 1, n)),
                40.0,
                &strategy,
                SimTime::from_secs(1),
            );
        }
        let mut agg = Aggregator::new(AggregationPolicy::default());
        assert!(agg.pass(&t).merged.is_empty());
    }

    #[test]
    fn keys_at_or_above_aggregate_len_are_left_alone() {
        // A learned /24 (prefix granularity) is never nested into
        // another /24, and a /16 is wider than the aggregate.
        let t = table_with(&[("10.0.1.0/24", 40), ("10.1.0.0/16", 42)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        assert!(agg.pass(&t).merged.is_empty());
    }
}

//! The harness agenda: the one clock [`CdnSim::run_for`] reads. All the
//! harness does on its own schedule is an entry `(instant, Activity)` in
//! one min-heap; `run_for` runs the world up to the earliest entry, pops
//! it and fires it, and a periodic activity re-arms itself.
//!
//! Entries order by instant, then by [`Activity`], whose variants are
//! declared in the order same-instant work must happen — so the derived
//! `Ord` *is* the tie-break. Insertion order could not be: a 120 s audit
//! armed at t = 0 would precede the 1 s agent tick re-armed at t = 119 s
//! when both come due at t = 120 s. DESIGN §13 has the reasons.
//!
//! [`CdnSim::run_for`]: crate::sim::CdnSim::run_for

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use riptide_simnet::time::SimTime;

/// One kind of scheduled harness work. Declaration order is firing
/// order among entries due at the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Activity {
    /// The oldest delayed route write lands (chaos layer).
    DelayedInstall,
    /// The oldest link loss burst ends (chaos layer).
    BurstEnd,
    /// The oldest targeted loss episode ends (chaos layer).
    LossEpisodeEnd,
    /// A link may enter a loss burst (chaos layer).
    BurstCheck,
    /// Route churn, then every live daemon's poll: learn, install, and
    /// bring its state file up to date.
    AgentTick,
    /// One anti-entropy round across the fleet.
    GossipRound,
    /// Every live agent audits its kernel table.
    Reconcile,
    /// The per-minute `ss` sweep of live congestion windows.
    CwndSample,
    /// Probing machine `.0` sends its round.
    Probe(usize),
    /// Busy pair `.0` starts its next organic flow.
    Organic(usize),
}

/// The pending harness work, earliest first.
#[derive(Debug, Default)]
pub(crate) struct Agenda {
    heap: BinaryHeap<Reverse<(SimTime, Activity)>>,
}

impl Agenda {
    /// Schedules `activity` to fire at `at`.
    pub(crate) fn arm(&mut self, at: SimTime, activity: Activity) {
        self.heap.push(Reverse((at, activity)));
    }

    /// The instant of the earliest entry.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((at, _))| at)
    }

    /// Removes and returns the earliest entry.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, Activity)> {
        self.heap.pop().map(|Reverse(entry)| entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::GossipConfig;
    use crate::sim::{CdnSim, CdnSimConfig, ResilienceOverlay};
    use crate::topology::TestbedConfig;
    use crate::workload::{OrganicConfig, ProbeConfig};
    use riptide::prelude::*;
    use riptide_simnet::prelude::*;

    #[test]
    fn same_instant_entries_pop_in_ladder_order() {
        use Activity::*;
        let ladder = [
            DelayedInstall,
            BurstEnd,
            LossEpisodeEnd,
            BurstCheck,
            AgentTick,
            GossipRound,
            Reconcile,
            CwndSample,
            Probe(0),
            Probe(1),
            Probe(7),
            Organic(0),
            Organic(3),
        ];
        let at = SimTime::from_secs(120);
        let mut agenda = Agenda::default();
        // Pushed in a fixed shuffle (index * 5 mod 13 visits every slot),
        // with an earlier and a later entry that must not interleave.
        agenda.arm(at + SimDuration::from_nanos(1), DelayedInstall);
        for i in 0..ladder.len() {
            agenda.arm(at, ladder[i * 5 % ladder.len()]);
        }
        agenda.arm(SimTime::from_secs(119), Organic(9));
        assert_eq!(agenda.next_at(), Some(SimTime::from_secs(119)));
        assert_eq!(agenda.pop(), Some((SimTime::from_secs(119), Organic(9))));
        for expected in ladder {
            assert_eq!(agenda.pop(), Some((at, expected)));
        }
        assert_eq!(
            agenda.pop(),
            Some((at + SimDuration::from_nanos(1), DelayedInstall))
        );
        assert_eq!(agenda.pop(), None);
    }

    /// Every overlay at once: all fault categories, audits, state files,
    /// gossip and organic traffic.
    fn everything_on(seed: u64) -> CdnSimConfig {
        CdnSimConfig {
            testbed: TestbedConfig::tiny(3, 2, seed),
            riptide: Some(RiptideConfig::deployment()),
            probes: ProbeConfig {
                interval: SimDuration::from_secs(60),
                ..ProbeConfig::default()
            },
            organic: OrganicConfig::among(vec![0, 1], 0.5),
            cwnd_sample_interval: SimDuration::from_secs(30),
            probe_senders: None,
            telemetry: false,
            resilience: ResilienceOverlay {
                faults: FaultPlan {
                    route_churn: 0.1,
                    targeted_loss: 0.1,
                    crash_resets_connections: true,
                    ..FaultPlan::uniform(0.1)
                },
                reconcile_every: Some(SimDuration::from_secs(45)),
                persistence: true,
                gossip: Some(GossipConfig::default()),
            },
        }
    }

    #[test]
    fn a_run_stepped_in_two_is_the_same_run() {
        let total = SimDuration::from_secs(400);
        let run = |first: SimDuration| {
            let mut sim = CdnSim::new(everything_on(83));
            sim.run_for(first);
            sim.run_for(total - first);
            (
                sim.probe_outcomes().to_vec(),
                sim.chaos_report(),
                sim.coldstart_report(),
                sim.testbed().world.stats(),
            )
        };
        let whole = run(total);
        let (_, chaos, coldstart, _) = &whole;
        // The regime really is on, so the comparison covers every overlay.
        assert!(
            chaos.faults.crashes > 0 && chaos.delayed_applied > 0,
            "{chaos:?}"
        );
        assert!(
            chaos.faults.bursts + chaos.faults.targeted_bursts > 0,
            "{chaos:?}"
        );
        assert!(
            chaos.faults.route_churns > 0 && chaos.reconcile_repairs > 0,
            "{chaos:?}"
        );
        assert!(
            coldstart.snapshots_written > 0 && coldstart.gossip_pairs > 0,
            "{coldstart:?}"
        );
        // Off every schedule; on an agent-tick instant; on the instant
        // where the tick, a gossip round, a sampling sweep and a burst
        // check all come due.
        for first in [137_500, 233_000, 120_000] {
            let first = SimDuration::from_millis(first);
            assert_eq!(run(first), whole, "split at {first:?}");
        }
    }
}

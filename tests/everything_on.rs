//! An experiment family is a config: this file defines one the engine
//! has never heard of — every subsystem switched on *together* — through
//! nothing but the public fan-out, and checks the invariants that must
//! hold across all of them at once (ROADMAP 4c's minimal seed).
//!
//! The regime: RED queues, a lossy last mile in front of every
//! non-sender PoP, guardrail faults (route churn plus loss targeted at
//! jump-started paths), daemon crashes with warm restarts from persisted
//! state, reconciler audits and gossip;
//! a kernel-default control arm beside a guarded, prefix-aggregating
//! Riptide arm.

use riptide_repro::cdn::engine::{PlanArm, RunPlan};
use riptide_repro::cdn::experiment::ExperimentScale;
use riptide_repro::cdn::gossip::GossipConfig;
use riptide_repro::cdn::scenario::ScenarioSpec;
use riptide_repro::cdn::sim::ResilienceOverlay;
use riptide_repro::riptide::aggregate::AggregationPolicy;
use riptide_repro::riptide::config::RiptideConfig;
use riptide_repro::riptide::guard::GuardConfig;
use riptide_repro::simnet::fault::FaultPlan;
use riptide_repro::simnet::time::SimDuration;

fn everything_on(scale: &ExperimentScale) -> ScenarioSpec {
    ScenarioSpec {
        name: "everything-on",
        last_mile: ScenarioSpec::lossy_edge(scale).last_mile,
        resilience: ResilienceOverlay {
            // Crash faults too: a host that is mid-restart at the closing
            // instant has no daemon to audit, so the closing audit waits
            // for the restart recovery to wipe its stale routes first.
            faults: FaultPlan {
                crash: 0.003,
                restart_after: SimDuration::from_secs(30),
                ..FaultPlan::guardrail(0.3)
            },
            reconcile_every: Some(SimDuration::from_secs(120)),
            persistence: true,
            gossip: Some(GossipConfig::default()),
        },
        ..ScenarioSpec::red_drop()
    }
}

fn everything_on_plan(scale: &ExperimentScale) -> RunPlan {
    let riptide = RiptideConfig::builder()
        .guard(GuardConfig::default())
        .aggregation(AggregationPolicy::default())
        .build()
        .expect("guard and aggregation compose with the deployment defaults");
    let arms = vec![
        PlanArm::scenario("control", None, everything_on(scale)),
        PlanArm::scenario("guarded+aggregating", Some(riptide), everything_on(scale)),
    ];
    RunPlan::probe_arms("everything-on", scale, arms, 2)
}

#[test]
fn every_subsystem_on_together_holds_the_cross_cutting_invariants() {
    let scale = ExperimentScale::test();
    let plan = everything_on_plan(&scale);
    // 2 arms x 2 senders x 2 replicates, labelled by the fan-out.
    assert_eq!(plan.shards.len(), 8);
    assert_eq!(plan.shards[4].label, "guarded+aggregating:site0");

    let report = plan.run_with_threads(4);
    assert_eq!(
        report.digest(),
        plan.run_with_threads(1).digest(),
        "1 thread and 4 threads must merge to the same digest"
    );

    let riptide = RiptideConfig::deployment();
    for scenario in [0, 1] {
        let chaos = report.merged_chaos_report(scenario);
        assert_eq!(
            chaos.invariant_breaches, 0,
            "scenario {scenario}: {chaos:?}"
        );
        if let Some((lo, hi)) = chaos.installed_range() {
            assert!(
                lo >= riptide.cwnd_min && hi <= riptide.cwnd_max,
                "scenario {scenario}: installed range [{lo}, {hi}]"
            );
        }
        assert_eq!(chaos.foreign_missing, 0, "scenario {scenario}: {chaos:?}");
        // Audits are scheduled, so the engine closed the run with one.
        assert_eq!(chaos.drift_unrepaired, 0, "scenario {scenario}: {chaos:?}");
        assert!(
            !report.merged_probes(scenario).is_empty(),
            "scenario {scenario}: probes still complete"
        );
    }

    // The regime really was on: every layer left a mark on the Riptide arm.
    let chaos = report.merged_chaos_report(1);
    assert!(chaos.installs > 0, "{chaos:?}");
    assert!(chaos.faults.route_churns > 0, "{chaos:?}");
    assert!(chaos.faults.targeted_bursts > 0, "{chaos:?}");
    assert!(chaos.reconcile_repairs > 0, "{chaos:?}");
    assert!(chaos.faults.crashes > 0, "{chaos:?}");
    let coldstart = report.merged_coldstart_report(1);
    assert!(coldstart.snapshots_written > 0, "{coldstart:?}");
    assert!(coldstart.restored_routes > 0, "{coldstart:?}");
    assert!(coldstart.gossip_rounds > 0, "{coldstart:?}");
    // The control arm has no agents: nothing to install, snapshot or sync.
    assert_eq!(report.merged_chaos_report(0).installs, 0);
    assert_eq!(report.merged_coldstart_report(0).snapshots_written, 0);
}

//! Golden digest test: the engine must reproduce the seed digests
//! event-for-event.
//!
//! `tests/golden/digests.txt` holds the [`RunReport::digest`] of one
//! plan per experiment family. Its `events=`, `retransmits=`,
//! `transfers=`, `seed=` and `label=` tokens have not moved since the
//! first capture (before the PR 5 hot-path work); the `data=` tokens
//! were re-blessed once, when PR 12 replaced `{:?}` hashing with the
//! canonical encoding of DESIGN §9. Event order is part of the
//! simulator's contract — `(SimTime, seq)` determinism in
//! `simnet::event` — and a shard's `events` counter includes every
//! popped event (stale RTO timers included), so any restructuring of
//! the event queue, the sender's bookkeeping, or the engine's digest
//! encoding that changes behaviour in *any* observable way shows up
//! here as a byte diff.
//!
//! To re-bless after an intentional behaviour change:
//!
//! ```text
//! RIPTIDE_BLESS=1 cargo test --release --test repro digest_golden::
//! ```
//!
//! [`RunReport::digest`]: riptide_repro::cdn::engine::RunReport::digest

use std::path::PathBuf;

use riptide_repro::cdn::engine::{PlanArm, RunPlan};
use riptide_repro::cdn::experiment::StackTweaks;
use riptide_repro::riptide::config::RiptideConfig;
use riptide_repro::simnet::time::SimDuration;

use crate::small_scale;

/// Every plan family, at a fixed small scale: the concatenated digests
/// fingerprint all five [`ShardWork`] variants, every `ScenarioSpec`
/// family, the telemetry `metrics=` token path, and one arm per
/// registered learning policy (the policy-ablation arena). New plans
/// are appended, so earlier lines stay comparable across re-blessings.
///
/// [`ShardWork`]: riptide_repro::cdn::engine::ShardWork
fn all_plan_digests() -> String {
    let scale = small_scale();
    let plans = [
        RunPlan::probe_comparison(&scale, 1),
        RunPlan::probe_comparison(&scale, 1).with_telemetry(),
        RunPlan::cwnd_sweep(&scale, &[None, Some(100)], 1),
        RunPlan::chaos_sweep(&scale, &[0.0, 0.2], 1),
        RunPlan::guardrail_sweep(&scale, &[0.3], 1),
        RunPlan::traffic_profile(&scale),
        RunPlan::convergence(&scale, SimDuration::from_secs(120)),
        RunPlan::policy_ablation(&scale, 1),
        RunPlan::scenario_matrix(&scale, 1),
        RunPlan::coldstart_sweep(&scale, &[0.05], 1),
        RunPlan::probe_arms("ack-paths", &scale, ack_path_arms(), 1),
    ];
    let mut out = String::new();
    for plan in &plans {
        out.push_str(&plan.run().digest());
    }
    out
}

/// SACK, delayed ACKs and both, under control and deployed Riptide:
/// every other plan runs the testbed default, which has both off, so
/// these arms are the only ones whose ACKs carry SACK ranges or wait on
/// the delayed-ACK timer.
fn ack_path_arms() -> Vec<PlanArm> {
    let plain = StackTweaks::default();
    let tweaks = [
        (
            "sack",
            StackTweaks {
                sack: true,
                ..plain
            },
        ),
        (
            "delack",
            StackTweaks {
                delayed_ack: true,
                ..plain
            },
        ),
        (
            "sack+delack",
            StackTweaks {
                sack: true,
                delayed_ack: true,
                ..plain
            },
        ),
    ];
    let mut arms = Vec::new();
    for (stack, riptide) in [
        ("control", None),
        ("riptide", Some(RiptideConfig::deployment())),
    ] {
        for (name, tweaks) in tweaks {
            arms.push(PlanArm::stack(
                format!("{stack}/{name}"),
                riptide.clone(),
                tweaks,
            ));
        }
    }
    arms
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("digests.txt")
}

#[test]
fn engine_reproduces_the_seed_digests_event_for_event() {
    let digests = all_plan_digests();
    let path = golden_path();
    if std::env::var("RIPTIDE_BLESS").is_ok() {
        std::fs::write(&path, &digests).expect("write golden digests");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {} ({e}); bless with RIPTIDE_BLESS=1", path.display()));
    assert_eq!(
        digests,
        want,
        "run digests drifted from {} — the simulator's observable \
         behaviour changed; re-bless with RIPTIDE_BLESS=1 only if the \
         change is intentional",
        path.display()
    );
}

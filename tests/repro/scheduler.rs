//! The engine's shard cursor: workers take shards in plan order and the
//! report places every result by its plan index, so
//!
//! 1. **Merge invariance** — digests and merged metrics are the same on
//!    every worker count, whoever ran which shard;
//! 2. **A failing shard fails the run** — a shard whose configuration
//!    is rejected panics [`RunPlan::run_with_threads`] on one worker
//!    and on many, never hangs it or yields a report short of a shard.

use std::panic::{catch_unwind, AssertUnwindSafe};

use riptide_repro::cdn::engine::{RunPlan, ShardWork};

use crate::small_scale;

#[test]
fn digests_and_metrics_are_invariant_under_thread_count() {
    // Telemetry on, so the invariance claim covers the `metrics=`
    // digest tokens and `merged_metrics()` too.
    let plan = RunPlan::probe_comparison(&small_scale(), 1).with_telemetry();
    let serial = plan.run_with_threads(1);
    let (want_digest, want_metrics) = (serial.digest(), serial.merged_metrics());
    // Four shards: from five workers on, the pool clamps to four.
    for threads in 2..9 {
        let report = plan.run_with_threads(threads);
        assert_eq!(
            report.digest(),
            want_digest,
            "digest diverged at threads={threads}"
        );
        assert_eq!(
            report.merged_metrics(),
            want_metrics,
            "merged metrics diverged at threads={threads}"
        );
    }
}

#[test]
fn a_shard_that_fails_validation_panics_the_run() {
    // Four chaos shards at a zero rate; the third gets a fault plan
    // whose install-error rate is not a probability, which `CdnSim::new`
    // rejects.
    let mut plan = RunPlan::chaos_sweep(&small_scale(), &[0.0], 1);
    assert_eq!(plan.shards.len(), 4);
    match &mut plan.shards[2].work {
        ShardWork::ScenarioArm { spec, .. } => spec.resilience.faults.install_error = 1.5,
        other => panic!("chaos shards are scenario arms, got {other:?}"),
    }
    for threads in [1, 4] {
        let panic = catch_unwind(AssertUnwindSafe(|| plan.run_with_threads(threads)))
            .expect_err("an invalid shard must not yield a report");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(
            message.contains("invalid fault plan: install_error = 1.5"),
            "threads={threads}: the shard's own panic propagates, got {message:?}"
        );
    }
}

//! The parallel experiment engine's two load-bearing guarantees:
//!
//! 1. **Thread-count invariance** — the same `RunPlan` produces a
//!    byte-identical merged `RunReport` digest whether it runs on one
//!    worker or eight (the acceptance test for deterministic sharding).
//! 2. **Order-independent merging** — per-shard CDFs (sorted-sample
//!    merge) reduce to the same result in any order, and equal the
//!    unsharded computation (property-tested).

use proptest::prelude::*;
use riptide_repro::cdn::engine::{RunPlan, ShardData};
use riptide_repro::cdn::experiment::ExperimentScale;
use riptide_repro::cdn::stats::Cdf;
use riptide_repro::simnet::time::SimDuration;

fn small_scale() -> ExperimentScale {
    let mut scale = ExperimentScale::test();
    scale.duration = SimDuration::from_secs(300);
    scale
}

#[test]
fn probe_plan_is_thread_count_invariant() {
    // 2 arms x 2 senders x 2 replicates = 8 shards: enough that an
    // 8-worker pool actually interleaves completions.
    let plan = RunPlan::probe_comparison(&small_scale(), 2);
    assert_eq!(plan.shards.len(), 8);
    let serial = plan.run_with_threads(1);
    let parallel = plan.run_with_threads(8);
    assert_eq!(
        serial.digest(),
        parallel.digest(),
        "threads=1 and threads=8 must merge to byte-identical reports"
    );
    // The digest covers real data: both arms produced probes.
    assert!(!serial.merged_probes(0).is_empty());
    assert!(!serial.merged_probes(1).is_empty());
    // And the comparison stays seed-paired through the engine.
    let cmp = serial.comparison();
    assert_eq!(cmp.control.len(), cmp.riptide.len());
}

#[test]
fn cwnd_plan_is_thread_count_invariant_and_merge_order_is_plan_order() {
    let plan = RunPlan::cwnd_sweep(&small_scale(), &[None, Some(100)], 2);
    let serial = plan.run_with_threads(1);
    let parallel = plan.run_with_threads(4);
    assert_eq!(serial.digest(), parallel.digest());
    for scenario in 0..2 {
        let a = serial.merged_cwnd(scenario);
        let b = parallel.merged_cwnd(scenario);
        assert_eq!(a, b, "merged CDFs identical for scenario {scenario}");
        assert!(!a.is_empty());
    }
}

#[test]
fn rerunning_the_same_plan_reproduces_the_digest() {
    let plan = RunPlan::cwnd_sweep(&small_scale(), &[Some(50)], 2);
    let first = plan.run_with_threads(2);
    let second = plan.run_with_threads(3);
    assert_eq!(first.digest(), second.digest());
    // Wall time is the one field allowed to differ; the manifest
    // carries it, the digest must not.
    assert!(first.manifest_jsonl().contains("\"wall_ms\""));
    assert!(!first.digest().contains("wall"));
}

#[test]
fn manifest_counts_events_and_retransmits_per_shard() {
    let mut scale = small_scale();
    // Probe shards on the default testbed include loss, so the
    // retransmit counter should see traffic at this duration.
    scale.duration = SimDuration::from_secs(600);
    let plan = RunPlan::probe_comparison(&scale, 1);
    let report = plan.run_with_threads(2);
    for shard in &report.shards {
        assert!(shard.stats.events > 0, "shard {} ran no events", shard.id);
        let ShardData::Probes { outcomes, .. } = &shard.data else {
            panic!("probe plan produced non-probe data");
        };
        assert!(!outcomes.is_empty(), "shard {} saw no probes", shard.id);
    }
    assert!(
        report
            .shards
            .iter()
            .map(|s| s.stats.retransmits)
            .sum::<u64>()
            > 0,
        "lossy paths should produce at least one retransmission overall"
    );
}

#[test]
fn telemetry_plan_metrics_are_thread_count_invariant() {
    let plan = RunPlan::probe_comparison(&small_scale(), 2).with_telemetry();
    let serial = plan.run_with_threads(1);
    let parallel = plan.run_with_threads(8);
    assert_eq!(
        serial.digest(),
        parallel.digest(),
        "metrics tokens must not break thread-count invariance"
    );
    let merged = serial.merged_metrics();
    assert_eq!(merged, parallel.merged_metrics());
    // The riptide arm produced real counts that survive the merge.
    assert!(merged.value("riptide_ticks_total").unwrap_or(0) > 0);
    assert!(merged.value("riptide_route_updates_total").unwrap_or(0) > 0);
}

#[test]
fn telemetry_off_leaves_digests_bit_identical() {
    let plan = RunPlan::probe_comparison(&small_scale(), 1);
    let with = plan.clone().with_telemetry().run_with_threads(2);
    let without = plan.run_with_threads(2);
    // Attaching the bundle must not perturb the simulation: stripping
    // the metrics tokens from the telemetry run's digest recovers the
    // plain run's digest byte for byte.
    let stripped: String = with
        .digest()
        .lines()
        .map(|l| match l.find(" metrics=") {
            Some(cut) => format!("{}\n", &l[..cut]),
            None => format!("{l}\n"),
        })
        .collect();
    assert_eq!(stripped, without.digest());
    assert!(with.digest().contains(" metrics="));
    assert!(without.merged_metrics().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cdf_shard_merge_is_order_independent_and_equals_unsharded(
        shards in proptest::collection::vec(
            proptest::collection::vec(0.0f64..10_000.0, 0..40),
            1..8,
        ),
        rotate_by in 0usize..8,
    ) {
        let pooled = Cdf::new(shards.iter().flatten().copied());
        let forward = Cdf::merge_all(shards.iter().map(|s| Cdf::new(s.iter().copied())));
        prop_assert_eq!(&forward, &pooled, "sharded merge equals unsharded CDF");

        // Any completion order (modelled as a rotation + reversal of
        // the shard list) merges to the same CDF.
        let mut rotated = shards.clone();
        rotated.rotate_left(rotate_by % shards.len());
        let rotated_merge =
            Cdf::merge_all(rotated.iter().map(|s| Cdf::new(s.iter().copied())));
        prop_assert_eq!(&rotated_merge, &pooled);
        let reversed_merge =
            Cdf::merge_all(shards.iter().rev().map(|s| Cdf::new(s.iter().copied())));
        prop_assert_eq!(&reversed_merge, &pooled);
    }
}

//! The policy-ablation arena's two contracts, at test scale.
//!
//! * **Zero-cost seam**: the arena's control and default-EWMA arms
//!   must reproduce [`RunPlan::probe_comparison`] byte for byte —
//!   outcome vectors equal, and every digest line of the comparison
//!   present verbatim in the arena digest. Sharing one `LearningPolicy`
//!   enum with the competitors may not perturb the deployment path by
//!   a single bit.
//! * **Seed-invariant ranking**: across eight master seeds, every
//!   learning policy's mean median-completion gain vs the paired
//!   control arm stays positive (jump-starting always beats cold
//!   start here), and the conservative p25 policy never out-gains the
//!   other arms. At this scale the EWMA-family arms usually tie
//!   exactly — the observed windows converge and the clamp
//!   quantises them to the same installed cwnd — so the pinned
//!   ordering is `p25 <= others`, not a strict total order.
//!
//! [`RunPlan::probe_comparison`]: riptide_repro::cdn::engine::RunPlan::probe_comparison

use riptide_repro::cdn::engine::RunPlan;
use riptide_repro::cdn::experiment::ExperimentScale;
use riptide_repro::cdn::sim::ProbeOutcome;
use riptide_repro::cdn::stats::Cdf;
use riptide_repro::cdn::workload::ProbeConfig;
use riptide_repro::simnet::time::SimDuration;

fn small_scale() -> ExperimentScale {
    let mut scale = ExperimentScale::test();
    scale.duration = SimDuration::from_secs(300);
    scale
}

#[test]
fn ewma_default_arm_reproduces_probe_comparison_byte_for_byte() {
    let scale = small_scale();
    let arena = RunPlan::policy_ablation(&scale, 1).run();
    let comparison = RunPlan::probe_comparison(&scale, 1).run();

    // Outcome level: the paired arms are indistinguishable.
    assert_eq!(
        arena.merged_probes(0),
        comparison.merged_probes(0),
        "arena control arm diverged from probe_comparison"
    );
    assert_eq!(
        arena.merged_probes(1),
        comparison.merged_probes(1),
        "arena default-EWMA arm diverged from probe_comparison"
    );

    // Digest level: every per-shard line of the comparison — identity,
    // label, seed, counters, data hash — appears verbatim in the arena
    // digest, because the arena keeps the "riptide" label and the
    // seed-pairing excludes the scenario index.
    let arena_digest = arena.digest();
    for line in comparison.digest().lines().skip(1) {
        assert!(
            arena_digest.lines().any(|l| l == line),
            "probe_comparison digest line missing from the arena digest:\n  {line}"
        );
    }
}

fn mean_gain_pct(control: &[ProbeOutcome], treated: &[ProbeOutcome], sizes: &[u64]) -> f64 {
    let mut gains = Vec::new();
    for &size in sizes {
        let median = |probes: &[ProbeOutcome]| {
            let cdf = Cdf::new(
                probes
                    .iter()
                    .filter(|p| p.size == size)
                    .map(|p| p.completion.as_millis_f64()),
            );
            (!cdf.is_empty()).then(|| cdf.median())
        };
        if let (Some(c), Some(t)) = (median(control), median(treated)) {
            gains.push((c - t) / c * 100.0);
        }
    }
    assert!(!gains.is_empty(), "no paired medians at any probe size");
    gains.iter().sum::<f64>() / gains.len() as f64
}

#[test]
fn arena_ranking_is_seed_invariant() {
    let sizes = ProbeConfig::default().sizes;
    for seed in 8..16u64 {
        let mut scale = small_scale();
        scale.seed = seed;
        let report = RunPlan::policy_ablation(&scale, 1).run();
        let control = report.merged_probes(0);
        let names = ["riptide", "ewma-fast", "p25", "p75", "loss-utility"];
        let gains: Vec<f64> = (1..=names.len() as u32)
            .map(|s| mean_gain_pct(&control, &report.merged_probes(s), &sizes))
            .collect();
        let p25 = gains[2];
        for (name, &gain) in names.iter().zip(&gains) {
            // Every learning policy beats the cold-start control arm.
            assert!(
                gain > 0.0,
                "seed {seed}: policy {name} lost to control ({gain:.3}%)"
            );
            // The conservative percentile never out-gains the rest
            // (ties are common — the clamp quantises learned windows).
            assert!(
                p25 <= gain + 1e-9,
                "seed {seed}: p25 ({p25:.3}%) out-gained {name} ({gain:.3}%)"
            );
        }
    }
}

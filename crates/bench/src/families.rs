//! The record-bearing experiment families: sweeps whose simulated
//! outcomes are recorded in a checked-in `BENCH_*.json` and re-checked
//! in CI. Each is one row of [`FAMILIES`]; [`drive`] is the one routine
//! that runs, reports, asserts, and then records or checks any of them.
//!
//! A record carries no host time — only the plan's shape, its run
//! digest, the claims asserted of it and the table it printed — so it
//! re-records identically on any machine, and a matching digest means
//! bit-identical outcomes (which is why `--check` compares nothing
//! else).

use riptide_bench::{
    assert_same_probes, banner, execute_plan, gains_pct, mean, mean_gain_pct, median_ms, quoted,
    reference_probe_run, Baseline, Outcome, RunOptions,
};
use riptide_cdn::engine::{RunPlan, RunReport};
use riptide_cdn::experiment::ExperimentScale;
use riptide_cdn::scenario::{policy_arms, scenario_catalog};
use riptide_cdn::sim::ColdstartReport;
use riptide_cdn::workload::ProbeConfig;

/// One record-bearing family.
pub struct Family {
    /// The experiment name on the command line.
    pub name: &'static str,
    /// Banner title.
    pub title: &'static str,
    /// What it runs, for the banner and `--list`.
    pub about: &'static str,
    /// The checked-in record, relative to the workspace root.
    pub record: &'static str,
    /// The `--scale` the record was taken at: the family's default.
    pub scale: &'static str,
    /// The `--seeds` the record was taken at: the family's default.
    pub seeds: u32,
    /// Builds the family's plan for a scale and replicate count.
    pub plan: fn(&ExperimentScale, u32) -> RunPlan,
    /// Prints the family's table from its run and the fault-free
    /// reference run, asserts its claims, and returns what to record.
    pub report: fn(&RunOptions, &RunReport, &RunReport) -> Findings,
}

/// What a family's report contributes to its record, after the uniform
/// `benchmark` / `scale` / `seeds` / `shards` / `digest_fnv` header.
pub struct Findings {
    /// Scalar lines: claim flags and headline counters, as rendered
    /// JSON values.
    fields: Vec<(&'static str, String)>,
    /// The array of per-row objects: its key and one line per row.
    rows: (&'static str, Vec<String>),
}

/// The four families, in the order `--list` prints them.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "guardrail",
        title: "Guardrail",
        about: "no-harm restoration under targeted loss and route churn (0/10/30% rates)",
        record: "BENCH_guardrail.json",
        scale: "test",
        seeds: 2,
        plan: |scale, seeds| RunPlan::guardrail_sweep(scale, &GUARDRAIL_RATES, seeds),
        report: guardrail,
    },
    Family {
        name: "coldstart",
        title: "Cold start",
        about: "restart ramp-up with persistence off / snapshot / snapshot+gossip",
        record: "BENCH_coldstart.json",
        scale: "test",
        seeds: 2,
        plan: |scale, seeds| RunPlan::coldstart_sweep(scale, &CRASH_RATES, seeds),
        report: coldstart,
    },
    Family {
        name: "policy_arena",
        title: "Policy arena",
        about: "every registered learning policy over the seed-paired probe grid, digest pinned",
        record: "BENCH_policyarena.json",
        scale: "quick",
        seeds: 1,
        plan: RunPlan::policy_ablation,
        report: policy_arena,
    },
    Family {
        name: "scenarios",
        title: "Scenario matrix",
        about: "every registered policy across RED/ECN, lossy-edge, flash-crowd and paced regimes",
        record: "BENCH_scenarios.json",
        scale: "test",
        seeds: 2,
        plan: RunPlan::scenario_matrix,
        report: scenarios,
    },
];

/// Runs one family end to end: its plan, then the fault-free probe
/// comparison its neutrality claims compare against, then its report —
/// which prints the table and asserts the claims in **every** mode.
/// After that a default run rewrites the family's record and `--check`
/// compares against it instead: the run must use the scale and seeds
/// the record was taken with, and reproduce its digest (**drift in any
/// arm is fatal**).
pub fn drive(family: &Family, opts: &RunOptions) -> Outcome {
    banner(family.title, family.about);
    let recorded = if opts.check {
        let base = Baseline::read(opts, family.record)?;
        base.recorded_with("scale", &opts.scale_name)?;
        base.recorded_with("seeds", &opts.seeds.to_string())?;
        Some(base)
    } else {
        None
    };

    let plan = (family.plan)(&opts.scale, opts.seeds);
    let report = execute_plan(opts, &plan);
    let reference = reference_probe_run(opts);
    let findings = (family.report)(opts, &report, &reference);
    let digest = format!("{:016x}", report.digest_fnv64());

    if let Some(base) = recorded {
        base.digest_matches("digest_fnv", &digest, family.name)?;
        println!("# check: claims hold and digest {digest} matches the record");
        return Ok(());
    }
    let mut record = Baseline::create(opts, family.record);
    record.push("benchmark", quoted(&plan.name));
    record.push("scale", quoted(&opts.scale_name));
    record.push("seeds", opts.seeds);
    record.push("shards", plan.shards.len());
    record.push("digest_fnv", quoted(&digest));
    for (key, value) in &findings.fields {
        record.push(key, value);
    }
    record.push_rows(findings.rows.0, &findings.rows.1);
    record.save();
    print!("{}", record.text());
    Ok(())
}

/// The `probe_sizes` line of a record whose rows are per-size gains.
fn probe_sizes_field(sizes: &[u64]) -> (&'static str, String) {
    let listed: Vec<String> = sizes.iter().map(u64::to_string).collect();
    ("probe_sizes", format!("[{}]", listed.join(", ")))
}

const GUARDRAIL_RATES: [f64; 3] = [0.0, 0.1, 0.3];

/// Guardrail: does the closed loop restore §IV-D no-harm when the loss
/// shows up *because of* the jump-start?
///
/// Sweeps [`FaultPlan::guardrail`] rates (route churn behind the
/// agent's back plus loss episodes targeted at freshly jump-started
/// paths) over a three-arm §IV-B2 probe experiment — kernel-default
/// control, unguarded Riptide, and Riptide with the loss-aware circuit
/// breaker — with a reconciler audit every five minutes. Reports per
/// size the three medians and the harm each Riptide arm carries
/// relative to control, and asserts the closed-loop safety claims:
///
/// * the zero-rate control and unguarded arms reproduce the fault-free
///   probe comparison bit for bit;
/// * every injected route drift is repaired (none left at run end) and
///   no foreign route is ever touched;
/// * no installed window ever leaves `[c_min, c_max]`, in any arm;
/// * under targeted loss the breaker trips, and the guarded arm carries
///   less harm than the unguarded arm.
///
/// ```text
/// cargo run --release -p riptide-bench -- guardrail [--check]
/// ```
///
/// [`FaultPlan::guardrail`]: riptide_simnet::fault::FaultPlan::guardrail
fn guardrail(_opts: &RunOptions, report: &RunReport, reference: &RunReport) -> Findings {
    // The zero-churn arms must be bit-identical to the fault-free probe
    // comparison: the guardrail machinery adds nothing until it fires.
    for arm in [0, 1] {
        assert_same_probes(report, arm, reference, arm, "zero-rate guardrail arm");
    }
    println!("# zero-rate arms bit-identical to the fault-free probe comparison");

    let sizes = ProbeConfig::default().sizes;
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "rate", "size_kb", "control_ms", "riptide_ms", "guarded_ms", "rip_harm%", "grd_harm%"
    );
    let mut rows = Vec::new();
    for (i, &rate) in GUARDRAIL_RATES.iter().enumerate() {
        let base = 3 * i as u32;
        let control = report.merged_probes(base);
        let riptide = report.merged_probes(base + 1);
        let guarded = report.merged_probes(base + 2);
        for &size in &sizes {
            let (c, r, g) = match (
                median_ms(&control, size),
                median_ms(&riptide, size),
                median_ms(&guarded, size),
            ) {
                (Some(c), Some(r), Some(g)) => (c, r, g),
                _ => continue,
            };
            println!(
                "{:>6} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>9.1} {:>9.1}",
                rate,
                size / 1000,
                c,
                r,
                g,
                (r - c) / c * 100.0,
                (g - c) / c * 100.0,
            );
        }
        // Mean across probe sizes of the median harm vs control, in
        // percent (positive = slower than control).
        let rip_harm = -mean_gain_pct(&control, &riptide, &sizes);
        let grd_harm = -mean_gain_pct(&control, &guarded, &sizes);

        // Safety counters, both Riptide arms.
        for (arm, scenario) in [("riptide", base + 1), ("guarded", base + 2)] {
            let cr = report.merged_chaos_report(scenario);
            println!(
                "#   rate {rate} {arm}: churns {} (deleted {} / orphaned {} / foreign {}), \
                 repairs {}, foreign seen {}, unrepaired {}, foreign touched {}, \
                 targeted bursts {}, guard trips {}",
                cr.faults.route_churns,
                cr.drift_deleted,
                cr.drift_orphaned,
                cr.foreign_injected,
                cr.reconcile_repairs,
                cr.reconcile_foreign_seen,
                cr.drift_unrepaired,
                cr.foreign_missing,
                cr.faults.targeted_bursts,
                cr.guard_trips,
            );
            // Reconciliation: every injected drift repaired by run end,
            // foreign routes untouched, repairs within bounds.
            assert_eq!(
                cr.drift_unrepaired, 0,
                "rate {rate} {arm}: drift left unrepaired"
            );
            assert_eq!(
                cr.foreign_missing, 0,
                "rate {rate} {arm}: reconciler touched a foreign route"
            );
            if rate > 0.0 {
                assert!(
                    cr.drift_deleted + cr.drift_orphaned > 0,
                    "rate {rate} {arm}: churn injected no agent-facing drift"
                );
                assert!(
                    cr.reconcile_repairs > 0,
                    "rate {rate} {arm}: audits repaired nothing"
                );
            }
        }
        // §IV-D no-harm plumbing: bounds hold in every arm.
        for scenario in [base, base + 1, base + 2] {
            let cr = report.merged_chaos_report(scenario);
            assert_eq!(cr.invariant_breaches, 0, "scenario {scenario}: bounds gate");
            if let Some((lo, hi)) = cr.installed_range() {
                assert!(
                    lo >= 10 && hi <= 100,
                    "scenario {scenario}: installed range [{lo}, {hi}]"
                );
            }
        }
        if rate > 0.0 {
            let guarded_report = report.merged_chaos_report(base + 2);
            assert!(
                guarded_report.guard_trips > 0,
                "rate {rate}: targeted loss never tripped the breaker"
            );
            // The closed-loop claim: the breaker strictly reduces the
            // harm the targeted-loss adversary extracts from
            // jump-starting.
            assert!(
                grd_harm < rip_harm,
                "rate {rate}: guarded harm {grd_harm:.1}% not below unguarded {rip_harm:.1}%"
            );
        }
        println!(
            "#   rate {rate}: mean harm vs control — unguarded {rip_harm:+.1}%, \
             guarded {grd_harm:+.1}%"
        );
        rows.push(format!(
            "{{\"rate\": {rate}, \"unguarded_harm_pct\": {rip_harm:.2}, \
             \"guarded_harm_pct\": {grd_harm:.2}}}"
        ));
    }
    println!("# closed loop: breaker + reconciler held every safety invariant at every rate");

    let top = report.merged_chaos_report(3 * (GUARDRAIL_RATES.len() as u32 - 1) + 2);
    Findings {
        fields: vec![
            ("zero_rate_bit_identical", "true".into()),
            ("drift_unrepaired", top.drift_unrepaired.to_string()),
            ("foreign_touched", top.foreign_missing.to_string()),
            ("invariant_breaches", top.invariant_breaches.to_string()),
            ("guard_trips_top_rate", top.guard_trips.to_string()),
        ],
        rows: ("rates", rows),
    }
}

/// Crash rates swept; the last entry is the rate the ramp floor gates.
const CRASH_RATES: [f64; 2] = [0.0, 0.05];
/// Minimum cold-over-warm mean-ramp ratio demanded of both warm arms at
/// every positive crash rate. A restored table is live the tick the
/// agent comes back, so in practice the ratio is far larger.
const FLOOR_IMPROVEMENT: f64 = 1.5;
const MODES: [&str; 3] = ["cold", "snapshot", "snapshot+gossip"];

/// Mean ramp seconds, or `-1` when the arm never completed a ramp —
/// records stay one scalar per field for the flat scanner.
fn ramp_or_neg(r: &ColdstartReport) -> f64 {
    r.mean_ramp_secs().unwrap_or(-1.0)
}

/// Gate one warm arm against the cold arm: pass when the cold arm never
/// recovered at all (a warm recovery beats an unfinished cold ramp
/// outright), else demand the mean-ramp ratio.
fn warm_beats_cold(cold: &ColdstartReport, warm: &ColdstartReport, arm: &str) -> bool {
    let Some(warm_mean) = warm.mean_ramp_secs() else {
        eprintln!("coldstart: {arm} arm completed no ramp — nothing to gate");
        return false;
    };
    match cold.mean_ramp_secs() {
        None => {
            assert!(
                cold.unrecovered > 0,
                "cold arm has no ramps at a positive crash rate"
            );
            true
        }
        Some(cold_mean) => {
            let ratio = cold_mean / warm_mean.max(1e-9);
            if ratio < FLOOR_IMPROVEMENT {
                eprintln!(
                    "coldstart: RAMP REGRESSION — {arm} arm ramps {warm_mean:.2}s vs cold \
                     {cold_mean:.2}s ({ratio:.2}x, floor {FLOOR_IMPROVEMENT:.1}x)"
                );
                return false;
            }
            true
        }
    }
}

/// Cold-start ramp-up: how fast a crash-restarted PoP agent climbs back
/// to 90% of its pre-crash installed-window mass, with durability off
/// (relearn from scratch), local snapshot+journal restore, and
/// snapshot+gossip anti-entropy fleet sync.
///
/// Sweeps machine-crash rates over the three-arm §IV-B2 probe setup
/// ([`RunPlan::coldstart_sweep`]) — all arms seed-paired, so every mode
/// sees the *same* crash schedule — and reports per rate the tracked
/// restarts, recoveries and mean ramp seconds of each mode. Asserts the
/// durability claims, in `--check` mode as in any other:
///
/// * at a zero crash rate the persistence-off arm reproduces the
///   fault-free Riptide probe arm bit for bit, and the snapshot arm's
///   probes are identical to the persistence-off arm's (journalling and
///   snapshotting are pure bookkeeping until a crash consumes them);
/// * under crashes every arm tracks restarts, and the snapshot arms
///   restore routes and beat the cold arm's mean ramp by at least
///   [`FLOOR_IMPROVEMENT`].
///
/// ```text
/// cargo run --release -p riptide-bench -- coldstart [--check]
/// ```
fn coldstart(_opts: &RunOptions, report: &RunReport, reference: &RunReport) -> Findings {
    // Digest-neutrality gate: at a zero crash rate the persistence-off
    // arm must be bit-identical to the fault-free Riptide probe arm,
    // and the snapshot arm must probe identically to it — durability is
    // pure bookkeeping until a crash consumes it. (Gossip legitimately
    // differs: merged entries jump-start connections.)
    assert_same_probes(report, 0, reference, 1, "zero-rate cold arm");
    assert_same_probes(report, 1, report, 0, "zero-rate snapshot bookkeeping");
    println!("# zero-rate cold arm bit-identical to the fault-free probe comparison");
    println!("# zero-rate snapshot arm probes identical to the cold arm");

    println!(
        "{:>6} {:>16} {:>9} {:>11} {:>11} {:>10} {:>10} {:>9}",
        "rate", "mode", "restarts", "recoveries", "mean_ramp_s", "restored", "snapshots", "journal"
    );
    let mut rows = Vec::new();
    let mut top_rate_restarts = 0;
    for (i, &rate) in CRASH_RATES.iter().enumerate() {
        let base = 3 * i as u32;
        let reports = [base, base + 1, base + 2].map(|s| report.merged_coldstart_report(s));
        for (mode, r) in MODES.iter().zip(&reports) {
            println!(
                "{:>6} {:>16} {:>9} {:>11} {:>11} {:>10} {:>10} {:>9}",
                rate,
                mode,
                r.restarts_tracked,
                r.recoveries,
                r.mean_ramp_secs().map_or("-".into(), |s| format!("{s:.2}")),
                r.restored_routes,
                r.snapshots_written,
                r.journal_records,
            );
            assert!(
                rate == 0.0 || r.restarts_tracked > 0,
                "rate {rate}: the {mode} arm tracked no restarts — the crash schedule went missing"
            );
        }
        let [cold, snap, gossip] = &reports;
        if rate > 0.0 {
            println!(
                "#   rate {rate}: gossip rounds {} / pairs {} / shipped {} / accepted {} / \
                 digests matched {} / backoffs {}",
                gossip.gossip_rounds,
                gossip.gossip_pairs,
                gossip.entries_shipped,
                gossip.entries_accepted,
                gossip.digests_matched,
                gossip.gossip_backoff_skips,
            );
            assert!(
                warm_beats_cold(cold, snap, "snapshot")
                    && warm_beats_cold(cold, gossip, "snapshot+gossip"),
                "rate {rate}: a warm arm failed the {FLOOR_IMPROVEMENT:.1}x ramp floor"
            );
            println!(
                "#   rate {rate}: snapshot ramps {:.2}s, snapshot+gossip {:.2}s vs cold {} \
                 (floor {FLOOR_IMPROVEMENT:.1}x)",
                ramp_or_neg(snap),
                ramp_or_neg(gossip),
                cold.mean_ramp_secs()
                    .map_or("unrecovered".into(), |s| format!("{s:.2}s")),
            );
        }
        top_rate_restarts = reports.iter().map(|r| r.restarts_tracked).sum();
        rows.push(format!(
            "{{\"rate\": {rate}, \"cold_ramp_s\": {:.3}, \"snapshot_ramp_s\": {:.3}, \
             \"gossip_ramp_s\": {:.3}, \"cold_unrecovered\": {}, \"restored_routes\": {}, \
             \"entries_accepted\": {}}}",
            ramp_or_neg(cold),
            ramp_or_neg(snap),
            ramp_or_neg(gossip),
            cold.unrecovered,
            snap.restored_routes + gossip.restored_routes,
            gossip.entries_accepted,
        ));
    }
    println!("# warm arms beat the cold ramp at every positive rate");

    Findings {
        fields: vec![
            ("floor_improvement", format!("{FLOOR_IMPROVEMENT:.1}")),
            ("zero_rate_bit_identical", "true".into()),
            ("top_rate_restarts", top_rate_restarts.to_string()),
        ],
        rows: ("rates", rows),
    }
}

/// Policy-ablation arena: every registered learning policy races over
/// the seed-paired probe grid, with the run digest pinned so the arena
/// doubles as a behaviour-preservation gate.
///
/// ```text
/// cargo run --release -p riptide-bench -- policy_arena [--check]
/// ```
///
/// * A default run executes [`RunPlan::policy_ablation`] — a control
///   arm plus one arm per [`registered_policies`] entry, all
///   seed-paired — and rewrites `BENCH_policyarena.json` with the
///   per-policy gain-vs-harm frontier (median completion time per probe
///   size vs the paired control arm).
/// * `--check` compares against the checked-in record instead: digest
///   drift is behaviour drift in some policy, and always fatal.
/// * In **every** mode the default-EWMA arm must reproduce
///   [`RunPlan::probe_comparison`]'s control and treatment outcomes
///   bit for bit — the trait seam must cost nothing — and the run
///   aborts if it does not.
///
/// [`registered_policies`]: riptide::policy::registered_policies
fn policy_arena(_opts: &RunOptions, report: &RunReport, reference: &RunReport) -> Findings {
    // The trait seam must cost nothing: the arena's control and
    // default-EWMA arms (scenarios 0 and 1) must reproduce the plain
    // probe comparison outcome for outcome, every run, every mode.
    for arm in [0, 1] {
        assert_same_probes(
            report,
            arm,
            reference,
            arm,
            "arena control / default-EWMA arm",
        );
    }
    println!("# ewma arm bit-identical to the probe comparison");

    // Per-policy gain-vs-harm frontier against the paired control arm:
    // per-size median gains, their mean, and the worst (most harmful)
    // size.
    let sizes = ProbeConfig::default().sizes;
    let control = report.merged_probes(0);
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>11} {:>11}",
        "policy", "g10k_%", "g50k_%", "g100k_%", "mean_gain%", "worst_harm%"
    );
    let mut rows = Vec::new();
    for (s, (arm, _)) in policy_arms().iter().enumerate().skip(1) {
        let gains = gains_pct(&control, &report.merged_probes(s as u32), &sizes);
        let mean_gain = mean(&gains);
        let worst_harm = gains.iter().map(|g| -g).fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:>14} {:>10.1} {:>10.1} {:>10.1} {:>11.1} {:>11.1}",
            arm,
            gains.first().copied().unwrap_or(f64::NAN),
            gains.get(1).copied().unwrap_or(f64::NAN),
            gains.get(2).copied().unwrap_or(f64::NAN),
            mean_gain,
            worst_harm,
        );
        let by_size: Vec<String> = gains.iter().map(|g| format!("{g:.2}")).collect();
        rows.push(format!(
            "{{\"policy\": \"{arm}\", \"gain_pct_by_size\": [{}], \
             \"mean_gain_pct\": {mean_gain:.2}, \"worst_harm_pct\": {worst_harm:.2}}}",
            by_size.join(", "),
        ));
    }

    Findings {
        fields: vec![
            ("ewma_bit_identical", "true".into()),
            probe_sizes_field(&sizes),
        ],
        rows: ("policies", rows),
    }
}

/// One matrix cell's outcome: each policy arm's mean gain vs the
/// cell's paired control, and the resulting ranking (best first, ties
/// broken by arm name so the order is a pure function of the data).
struct CellResult {
    name: &'static str,
    arm_gains: Vec<(String, f64)>,
    ranking: Vec<String>,
}

/// Scenario matrix: every registered learning policy raced across the
/// [`scenario_catalog`] regimes (RED/ECN queues, lossy last mile,
/// flash crowds, paced senders), seed-paired, with the run digest
/// pinned so the matrix doubles as a behaviour-preservation gate.
///
/// ```text
/// cargo run --release -p riptide-bench -- scenarios [--check]
/// ```
///
/// * A default run executes [`RunPlan::scenario_matrix`] and rewrites
///   `BENCH_scenarios.json` with per-scenario policy rankings (mean
///   median-completion gain vs each cell's paired control arm).
/// * `--check` compares against the checked-in record instead: digest
///   drift in any cell is fatal.
/// * In **every** mode three claims are enforced:
///   1. the baseline cell's control and default-EWMA arms reproduce
///      [`RunPlan::probe_comparison`] bit for bit (the scenario seam
///      must cost nothing when every knob is off);
///   2. at least two non-baseline scenarios rank the policies
///      differently than the baseline regime does — the matrix
///      actually separates what the flat §IV regime could not;
///   3. on the lossy-edge cell the loss-utility policy out-gains
///      default EWMA — loss-blind averaging must pay for its
///      aggression where random loss punishes big windows.
fn scenarios(opts: &RunOptions, report: &RunReport, reference: &RunReport) -> Findings {
    // Claim 1: with every scenario knob off, the matrix's baseline cell
    // is the plain probe comparison, outcome for outcome.
    for arm in [0, 1] {
        assert_same_probes(report, arm, reference, arm, "baseline-cell arm");
    }
    println!("# baseline cell bit-identical to the probe comparison");

    let sizes = ProbeConfig::default().sizes;
    let arms = policy_arms();
    let mut cells = Vec::new();
    for (c, spec) in scenario_catalog(&opts.scale).iter().enumerate() {
        let base = (arms.len() * c) as u32;
        let control = report.merged_probes(base);
        let mut arm_gains = Vec::new();
        for (arm_idx, (arm, _)) in arms.iter().enumerate().skip(1) {
            let treated = report.merged_probes(base + arm_idx as u32);
            arm_gains.push((arm.to_string(), mean_gain_pct(&control, &treated, &sizes)));
        }
        let mut ranking = arm_gains.clone();
        ranking.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        cells.push(CellResult {
            name: spec.name,
            arm_gains,
            ranking: ranking.into_iter().map(|(a, _)| a).collect(),
        });
    }

    println!(
        "{:>12} {:>46}  ranking",
        "scenario", "mean_gain% per policy arm"
    );
    for cell in &cells {
        let gains: Vec<String> = cell
            .arm_gains
            .iter()
            .map(|(a, g)| format!("{a}={g:.1}"))
            .collect();
        println!(
            "{:>12} {:>46}  {}",
            cell.name,
            gains.join(" "),
            cell.ranking.join(">")
        );
    }

    // Claim 2: the matrix separates the policies — at least two
    // non-baseline regimes produce a different ranking than baseline.
    let divergent: Vec<&str> = cells[1..]
        .iter()
        .filter(|c| c.ranking != cells[0].ranking)
        .map(|c| c.name)
        .collect();
    assert!(
        divergent.len() >= 2,
        "only {} scenario(s) re-ranked the policies ({divergent:?}); \
         the matrix adds no information over the flat regime",
        divergent.len()
    );
    println!(
        "# {} of {} scenarios rank the policies differently than baseline: {}",
        divergent.len(),
        cells.len() - 1,
        divergent.join(", ")
    );

    // Claim 3: where random loss punishes aggressive windows, the
    // loss-aware policy must out-gain loss-blind EWMA.
    let lossy = cells
        .iter()
        .find(|c| c.name == "lossy-edge")
        .expect("catalog has a lossy-edge cell");
    let gain_of = |arm: &str| {
        lossy
            .arm_gains
            .iter()
            .find(|(a, _)| a == arm)
            .map(|(_, g)| *g)
            .expect("arm present")
    };
    let (lu, ewma) = (gain_of("loss-utility"), gain_of("riptide"));
    assert!(
        lu > ewma,
        "loss-utility ({lu:.2}%) must beat EWMA ({ewma:.2}%) on the lossy edge"
    );
    println!("# lossy-edge: loss-utility {lu:.1}% > ewma {ewma:.1}%");

    let rows = cells
        .iter()
        .map(|c| {
            let gains: Vec<String> = c
                .arm_gains
                .iter()
                .map(|(a, g)| format!("{{\"policy\": \"{a}\", \"mean_gain_pct\": {g:.2}}}"))
                .collect();
            let ranking: Vec<String> = c.ranking.iter().map(|a| format!("\"{a}\"")).collect();
            format!(
                "{{\"scenario\": \"{}\", \"ranking\": [{}], \"arms\": [{}]}}",
                c.name,
                ranking.join(", "),
                gains.join(", ")
            )
        })
        .collect();
    Findings {
        fields: vec![
            ("baseline_bit_identical", "true".into()),
            ("ranking_divergent_cells", divergent.len().to_string()),
            ("lossy_edge_loss_utility_beats_ewma", "true".into()),
            probe_sizes_field(&sizes),
        ],
        rows: ("scenarios", rows),
    }
}

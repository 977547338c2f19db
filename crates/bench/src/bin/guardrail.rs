//! Guardrail: does the closed loop restore §IV-D no-harm when the loss
//! shows up *because of* the jump-start?
//!
//! Sweeps [`FaultPlan::guardrail`] rates (route churn behind the
//! agent's back plus loss episodes targeted at freshly jump-started
//! paths) over a three-arm §IV-B2 probe experiment — kernel-default
//! control, unguarded Riptide, and Riptide with the loss-aware circuit
//! breaker — with a reconciler audit every five minutes. Reports per
//! size the three medians and the harm each Riptide arm carries
//! relative to control, and asserts the closed-loop safety claims:
//!
//! * the zero-rate control and unguarded arms reproduce the fault-free
//!   probe comparison bit for bit;
//! * every injected route drift is repaired (none left at run end) and
//!   no foreign route is ever touched;
//! * no installed window ever leaves `[c_min, c_max]`, in any arm;
//! * under targeted loss the breaker trips, and the guarded arm carries
//!   less harm than the unguarded arm.
//!
//! Writes a machine-readable summary to `BENCH_guardrail.json`.
//!
//! ```text
//! cargo run --release --bin guardrail -- --scale test --seeds 2
//! ```
//!
//! [`FaultPlan::guardrail`]: riptide_simnet::fault::FaultPlan::guardrail

use riptide_bench::{banner, execute_plan, parse_args, write_bench_json};
use riptide_cdn::engine::RunPlan;
use riptide_cdn::sim::ProbeOutcome;
use riptide_cdn::stats::Cdf;

const RATES: [f64; 3] = [0.0, 0.1, 0.3];

fn median_ms(probes: &[ProbeOutcome], size: u64) -> Option<f64> {
    let cdf = Cdf::new(
        probes
            .iter()
            .filter(|p| p.size == size)
            .map(|p| p.completion.as_millis_f64()),
    );
    (!cdf.is_empty()).then(|| cdf.median())
}

/// Mean across probe sizes of the median harm vs control, in percent
/// (positive = slower than control).
fn mean_harm(control: &[ProbeOutcome], treated: &[ProbeOutcome], sizes: &[u64]) -> f64 {
    let mut harms = Vec::new();
    for &size in sizes {
        if let (Some(c), Some(t)) = (median_ms(control, size), median_ms(treated, size)) {
            harms.push((t - c) / c * 100.0);
        }
    }
    harms.iter().sum::<f64>() / harms.len().max(1) as f64
}

fn main() {
    let opts = parse_args();
    banner(
        "Guardrail",
        "no-harm restoration under targeted loss and route churn (0/10/30% rates)",
    );
    let plan = RunPlan::guardrail_sweep(&opts.scale, &RATES, opts.seeds as u32);
    let report = execute_plan(&opts, &plan);

    // The zero-churn arms must be bit-identical to the fault-free probe
    // comparison: the guardrail machinery adds nothing until it fires.
    let baseline = execute_plan(
        &opts,
        &RunPlan::probe_comparison(&opts.scale, opts.seeds as u32),
    );
    assert_eq!(
        report.merged_probes(0),
        baseline.merged_probes(0),
        "zero-rate control arm diverged from the fault-free comparison"
    );
    assert_eq!(
        report.merged_probes(1),
        baseline.merged_probes(1),
        "zero-rate riptide arm diverged from the fault-free comparison"
    );
    println!("# zero-rate arms bit-identical to the fault-free probe comparison");

    let sizes = riptide_cdn::workload::ProbeConfig::default().sizes;
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "rate", "size_kb", "control_ms", "riptide_ms", "guarded_ms", "rip_harm%", "grd_harm%"
    );
    let mut summary = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
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
        let rip_harm = mean_harm(&control, &riptide, &sizes);
        let grd_harm = mean_harm(&control, &guarded, &sizes);

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
        summary.push((rate, rip_harm, grd_harm));
    }

    let runs: Vec<String> = summary
        .iter()
        .map(|(rate, rip, grd)| {
            format!(
                "    {{\"rate\": {rate}, \"unguarded_harm_pct\": {rip:.2}, \
                 \"guarded_harm_pct\": {grd:.2}}}"
            )
        })
        .collect();
    let top = report.merged_chaos_report(3 * (RATES.len() as u32 - 1) + 2);
    let json = format!(
        "{{\n  \"benchmark\": \"guardrail-sweep\",\n  \"sites\": {},\n  \
         \"simulated_secs\": {},\n  \"shards\": {},\n  \
         \"zero_rate_bit_identical\": true,\n  \
         \"drift_unrepaired\": {},\n  \"foreign_touched\": {},\n  \
         \"invariant_breaches\": {},\n  \"guard_trips_top_rate\": {},\n  \
         \"rates\": [\n{}\n  ]\n}}\n",
        opts.scale.sites,
        opts.scale.total().as_secs_f64().round() as u64,
        plan.shards.len(),
        top.drift_unrepaired,
        top.foreign_missing,
        top.invariant_breaches,
        top.guard_trips,
        runs.join(",\n")
    );
    write_bench_json(&opts, "BENCH_guardrail.json", &json);
    print!("{json}");
    println!("# closed loop: breaker + reconciler held every safety invariant at every rate");
}

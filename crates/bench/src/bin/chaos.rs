//! Chaos: does the Fig. 14 gain survive infrastructure faults?
//!
//! Sweeps a uniform per-opportunity fault rate (0%, 1%, 5%, 20%:
//! `ss` timeouts and truncations, `ip route` failures and delays, agent
//! crashes, link loss bursts) over the paired §IV-B2 probe experiment
//! and reports, per probe size, the control vs Riptide median
//! completion and the surviving gain. Two invariants are asserted for
//! every arm (§IV-D no-harm):
//!
//! * no installed window ever leaves `[c_min, c_max]`;
//! * the zero-rate sweep reproduces the fault-free probe comparison
//!   bit for bit.
//!
//! ```text
//! cargo run --release --bin chaos -- --scale quick --seeds 2
//! ```

use riptide_bench::{banner, execute_plan, parse_args};
use riptide_cdn::engine::RunPlan;
use riptide_cdn::sim::ProbeOutcome;
use riptide_cdn::stats::Cdf;

const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

fn median_ms(probes: &[ProbeOutcome], size: u64) -> Option<f64> {
    let cdf = Cdf::new(
        probes
            .iter()
            .filter(|p| p.size == size)
            .map(|p| p.completion.as_millis_f64()),
    );
    (!cdf.is_empty()).then(|| cdf.median())
}

fn main() {
    let opts = parse_args();
    banner(
        "Chaos",
        "gain survival under fault injection (0/1/5/20% fault rates)",
    );
    let plan = RunPlan::chaos_sweep(&opts.scale, &RATES, opts.seeds as u32);
    let report = execute_plan(&opts, &plan);

    let sizes = riptide_cdn::workload::ProbeConfig::default().sizes;
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>7}",
        "rate", "size_kb", "control_ms", "riptide_ms", "gain_%"
    );
    let mut zero_rate_gain = None;
    for (i, &rate) in RATES.iter().enumerate() {
        let control = report.merged_probes(2 * i as u32);
        let riptide = report.merged_probes(2 * i as u32 + 1);
        let mut gains = Vec::new();
        for &size in &sizes {
            let (c, r) = match (median_ms(&control, size), median_ms(&riptide, size)) {
                (Some(c), Some(r)) => (c, r),
                _ => continue,
            };
            let gain = (c - r) / c * 100.0;
            gains.push(gain);
            println!(
                "{:>6} {:>8} {:>12.1} {:>12.1} {:>7.1}",
                rate,
                size / 1000,
                c,
                r,
                gain
            );
        }
        let mean_gain = gains.iter().sum::<f64>() / gains.len().max(1) as f64;
        if rate == 0.0 {
            zero_rate_gain = Some(mean_gain);
        }

        // Fault and resilience counters (riptide arm; the control arm
        // only sees link bursts).
        let cr = report.merged_chaos_report(2 * i as u32 + 1);
        println!(
            "#   rate {rate}: observe timeouts {} / partials {}, install errors {} / delays {} \
             (landed late {}), crashes {} (routes recovered {}), bursts {}, degraded ticks {}, \
             retries obs {} / inst {}, gave up {}",
            cr.faults.observe_timeouts,
            cr.faults.observe_partials,
            cr.faults.install_errors,
            cr.faults.install_delays,
            cr.delayed_applied,
            cr.faults.crashes,
            cr.routes_recovered,
            cr.faults.bursts,
            cr.degraded_ticks,
            cr.observe_retries,
            cr.install_retries,
            cr.install_gave_up,
        );

        // §IV-D no-harm: windows never leave [c_min, c_max], in any arm.
        for scenario in [2 * i as u32, 2 * i as u32 + 1] {
            let rep = report.merged_chaos_report(scenario);
            assert_eq!(
                rep.invariant_breaches, 0,
                "scenario {scenario}: installs rejected by the bounds gate"
            );
            if let Some((lo, hi)) = rep.installed_range() {
                assert!(
                    lo >= 10 && hi <= 100,
                    "scenario {scenario}: installed window range [{lo}, {hi}] outside [10, 100]"
                );
            }
        }
    }

    // Graceful degradation: faults must not flip the sign of the gain.
    let zero = zero_rate_gain.expect("zero-rate arm ran");
    println!(
        "# fault-free mean gain {zero:.1}%; \
         every installed window stayed within [c_min, c_max] at every fault rate"
    );
}

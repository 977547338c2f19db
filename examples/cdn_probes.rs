//! The paper's headline experiment, miniaturized: a global CDN where
//! every machine probes every other PoP with 10/50/100 KB objects, run
//! twice — once as a control and once with Riptide on every machine —
//! and compared probe-by-probe. It runs the plan the figure harnesses
//! run: one shard per arm and sender PoP, seed-paired across arms.
//!
//! Run with: `cargo run --release --example cdn_probes`

use riptide_repro::cdn::experiment::{probe_sender_sites, ExperimentScale};
use riptide_repro::cdn::prelude::*;
use riptide_repro::cdn::stats::Cdf;

fn main() {
    // A scaled-down run: 12 PoPs across continents, minutes of
    // simulated time. Swap in `ExperimentScale::quick()` or `paper()`
    // for the full 34-PoP reproduction.
    let scale = ExperimentScale {
        sites: 12,
        machines_per_pop: 2,
        ..ExperimentScale::test()
    };
    println!(
        "simulating {} PoPs x {} machines, {} window...",
        scale.sites, scale.machines_per_pop, scale.duration
    );
    let cmp = RunPlan::probe_comparison(&scale, 1).run().comparison();
    println!(
        "control: {} probes; riptide: {} probes\n",
        cmp.control.len(),
        cmp.riptide.len()
    );

    let sender = probe_sender_sites(&scale)[0];
    println!("probes sent from site {sender} (London):");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>9}",
        "size_kb", "arm", "p50_ms", "p90_ms", "gain_%"
    );
    for &size in &[10_000u64, 50_000, 100_000] {
        let pick = |arm: &[ProbeOutcome]| -> Cdf {
            arm.iter()
                .filter(|p| p.src_site == sender && p.size == size)
                .map(|p| p.completion.as_millis_f64())
                .collect()
        };
        let ctl = pick(&cmp.control);
        let rip = pick(&cmp.riptide);
        let gain = (ctl.median() - rip.median()) / ctl.median() * 100.0;
        println!(
            "{:>8} {:>10} {:>12.1} {:>12.1}",
            size / 1000,
            "control",
            ctl.median(),
            ctl.quantile(0.9)
        );
        println!(
            "{:>8} {:>10} {:>12.1} {:>12.1} {:>9.1}",
            size / 1000,
            "riptide",
            rip.median(),
            rip.quantile(0.9),
            gain
        );
    }
    println!("\nexpected shape: 10 KB unchanged (it fits in the default window);");
    println!("50/100 KB faster with Riptide, by whole round trips on far paths.");
}

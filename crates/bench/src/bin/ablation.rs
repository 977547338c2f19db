//! Quality ablations over the design choices DESIGN.md calls out:
//! combine strategy (average / max / traffic-weighted), history (EWMA α
//! sweep / none / windowed), destination granularity (host vs /24
//! prefix), TTL, and `tcp_slow_start_after_idle`.
//!
//! Every variant runs as seed-paired shards on the parallel engine
//! (one shard per variant × sender × replicate), and the harness
//! reports the median and p90 completion of 100 KB probes, next to the
//! control (no Riptide) and the deployed configuration.

use riptide::prelude::*;
use riptide_bench::{banner, execute_plan, parse_args};
use riptide_cdn::engine::{PlanArm, RunPlan};
use riptide_cdn::experiment::{probe_sender_sites, StackTweaks};
use riptide_cdn::stats::Cdf;
use riptide_simnet::time::SimDuration;

fn completion_cdf(outcomes: &[riptide_cdn::sim::ProbeOutcome], sender: usize, size: u64) -> Cdf {
    Cdf::new(
        outcomes
            .iter()
            .filter(|p| p.src_site == sender && p.size == size)
            .map(|p| p.completion.as_millis_f64()),
    )
}

fn main() {
    let opts = parse_args();
    banner(
        "Ablations",
        "100 KB probe completion under §III-B design alternatives",
    );
    let sender = probe_sender_sites(&opts.scale)[0];

    let ssai = StackTweaks {
        slow_start_after_idle: true,
        ..StackTweaks::default()
    };
    let delack = StackTweaks {
        delayed_ack: true,
        ..StackTweaks::default()
    };
    let no_metrics = StackTweaks {
        no_metrics_cache: true,
        ..StackTweaks::default()
    };
    let plain = StackTweaks::default();
    let variants: Vec<(String, Option<RiptideConfig>, StackTweaks)> = vec![
        ("control".into(), None, plain),
        (
            "deployed(avg,ewma0.7,host)".into(),
            Some(RiptideConfig::deployment()),
            plain,
        ),
        (
            "combine=max".into(),
            Some(
                RiptideConfig::builder()
                    .combine(CombineStrategy::Max)
                    .build()
                    .unwrap(),
            ),
            plain,
        ),
        (
            "combine=traffic-weighted".into(),
            Some(
                RiptideConfig::builder()
                    .combine(CombineStrategy::TrafficWeighted)
                    .build()
                    .unwrap(),
            ),
            plain,
        ),
        (
            "history=none".into(),
            Some(
                RiptideConfig::builder()
                    .history(HistoryStrategy::None)
                    .build()
                    .unwrap(),
            ),
            plain,
        ),
        (
            "history=windowed8".into(),
            Some(
                RiptideConfig::builder()
                    .history(HistoryStrategy::WindowedMean { window: 8 })
                    .build()
                    .unwrap(),
            ),
            plain,
        ),
        (
            "alpha=0.3".into(),
            Some(RiptideConfig::builder().alpha(0.3).build().unwrap()),
            plain,
        ),
        (
            "alpha=0.95".into(),
            Some(RiptideConfig::builder().alpha(0.95).build().unwrap()),
            plain,
        ),
        (
            "granularity=/24".into(),
            Some(
                RiptideConfig::builder()
                    .granularity(Granularity::Prefix(24))
                    .build()
                    .unwrap(),
            ),
            plain,
        ),
        (
            "ttl=10s".into(),
            Some(
                RiptideConfig::builder()
                    .ttl(SimDuration::from_secs(10))
                    .build()
                    .unwrap(),
            ),
            plain,
        ),
        ("ssai=on,control".into(), None, ssai),
        (
            "ssai=on,deployed".into(),
            Some(RiptideConfig::deployment()),
            ssai,
        ),
        ("delack=on,control".into(), None, delack),
        (
            "delack=on,deployed".into(),
            Some(RiptideConfig::deployment()),
            delack,
        ),
        ("no-tcp-metrics,control".into(), None, no_metrics),
        (
            "no-tcp-metrics,deployed".into(),
            Some(RiptideConfig::deployment()),
            no_metrics,
        ),
        (
            "sack=on,control".into(),
            None,
            StackTweaks {
                sack: true,
                ..StackTweaks::default()
            },
        ),
        (
            "sack=on,deployed".into(),
            Some(RiptideConfig::deployment()),
            StackTweaks {
                sack: true,
                ..StackTweaks::default()
            },
        ),
        // §III-C: without raising initrwnd alongside c_max, the boosted
        // first burst stalls on flow control and the gains evaporate.
        (
            "initrwnd=10,deployed".into(),
            Some(RiptideConfig::deployment()),
            StackTweaks {
                initial_rwnd: Some(10),
                ..StackTweaks::default()
            },
        ),
    ];

    let labels: Vec<String> = variants.iter().map(|(l, _, _)| l.clone()).collect();
    let plan = RunPlan::probe_arms(
        "probe-variants",
        &opts.scale,
        variants
            .into_iter()
            .map(|(name, riptide, tweaks)| PlanArm::stack(name, riptide, tweaks))
            .collect(),
        opts.seeds as u32,
    );
    let report = execute_plan(&opts, &plan);

    println!(
        "{:>28} {:>8} {:>10} {:>10} {:>10}",
        "variant", "n", "p50_ms", "p90_ms", "vs_ctl_%"
    );
    let mut control_median = None;
    for (scenario, label) in labels.iter().enumerate() {
        let outcomes = report.merged_probes(scenario as u32);
        let cdf = completion_cdf(&outcomes, sender, 100_000);
        if cdf.is_empty() {
            println!("{label:>28}  (no samples)");
            continue;
        }
        let p50 = cdf.median();
        if label == "control" {
            control_median = Some(p50);
        }
        let vs = control_median.map(|c| (c - p50) / c * 100.0).unwrap_or(0.0);
        println!(
            "{:>28} {:>8} {:>10.1} {:>10.1} {:>10.1}",
            label,
            cdf.len(),
            p50,
            cdf.quantile(0.9),
            vs
        );
    }
    println!("\n# positive vs_ctl_% = faster than the no-Riptide control");
}

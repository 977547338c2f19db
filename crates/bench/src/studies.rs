//! Studies beyond the paper's figures that print a table and keep no
//! record: design ablations, cold-start convergence and the §V kernel
//! trade-off.

use riptide::kernel::KernelAgent;
use riptide::prelude::*;
use riptide_bench::{banner, execute_plan, Outcome, RunOptions};
use riptide_cdn::engine::{PlanArm, RunPlan};
use riptide_cdn::experiment::{probe_sender_sites, StackTweaks};
use riptide_cdn::stats::Cdf;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Quality ablations over the design choices DESIGN.md calls out:
/// combine strategy (average / max / traffic-weighted), history (EWMA α
/// sweep / none / windowed), destination granularity (host vs /24
/// prefix), TTL, and `tcp_slow_start_after_idle`.
///
/// Every variant runs as seed-paired shards on the parallel engine
/// (one shard per variant × sender × replicate), and the harness
/// reports the median and p90 completion of 100 KB probes, next to the
/// control (no Riptide) and the deployed configuration.
pub fn ablation(opts: &RunOptions) -> Outcome {
    banner(
        "Ablations",
        "100 KB probe completion under §III-B design alternatives",
    );
    let sender = probe_sender_sites(&opts.scale)[0];

    let deployed = || Some(RiptideConfig::deployment());
    let built = |b: RiptideConfigBuilder| Some(b.build().expect("a valid ablation config"));
    let plain = StackTweaks::default();
    let ssai = StackTweaks {
        slow_start_after_idle: true,
        ..plain
    };
    let delack = StackTweaks {
        delayed_ack: true,
        ..plain
    };
    let no_metrics = StackTweaks {
        no_metrics_cache: true,
        ..plain
    };
    let sack = StackTweaks {
        sack: true,
        ..plain
    };
    // §III-C: without raising initrwnd alongside c_max, the boosted
    // first burst stalls on flow control and the gains evaporate.
    let small_rwnd = StackTweaks {
        initial_rwnd: Some(10),
        ..plain
    };
    let cfg = RiptideConfig::builder;
    let variants: Vec<(&str, Option<RiptideConfig>, StackTweaks)> = vec![
        ("control", None, plain),
        ("deployed(avg,ewma0.7,host)", deployed(), plain),
        (
            "combine=max",
            built(cfg().combine(CombineStrategy::Max)),
            plain,
        ),
        (
            "combine=traffic-weighted",
            built(cfg().combine(CombineStrategy::TrafficWeighted)),
            plain,
        ),
        (
            "history=none",
            built(cfg().policy(LearningPolicy::None)),
            plain,
        ),
        (
            "history=windowed8",
            built(cfg().policy(LearningPolicy::WindowedMean { window: 8 })),
            plain,
        ),
        ("alpha=0.3", built(cfg().alpha(0.3)), plain),
        ("alpha=0.95", built(cfg().alpha(0.95)), plain),
        (
            "granularity=/24",
            built(cfg().granularity(Granularity::Prefix(24))),
            plain,
        ),
        (
            "ttl=10s",
            built(cfg().ttl(SimDuration::from_secs(10))),
            plain,
        ),
        ("ssai=on,control", None, ssai),
        ("ssai=on,deployed", deployed(), ssai),
        ("delack=on,control", None, delack),
        ("delack=on,deployed", deployed(), delack),
        ("no-tcp-metrics,control", None, no_metrics),
        ("no-tcp-metrics,deployed", deployed(), no_metrics),
        ("sack=on,control", None, sack),
        ("sack=on,deployed", deployed(), sack),
        ("initrwnd=10,deployed", deployed(), small_rwnd),
    ];

    let labels: Vec<&str> = variants.iter().map(|(l, _, _)| *l).collect();
    let plan = RunPlan::probe_arms(
        "probe-variants",
        &opts.scale,
        variants
            .into_iter()
            .map(|(name, riptide, tweaks)| PlanArm::stack(name, riptide, tweaks))
            .collect(),
        opts.seeds,
    );
    let report = execute_plan(opts, &plan);

    println!(
        "{:>28} {:>8} {:>10} {:>10} {:>10}",
        "variant", "n", "p50_ms", "p90_ms", "vs_ctl_%"
    );
    let mut control_median = None;
    for (scenario, label) in labels.iter().enumerate() {
        let cdf = Cdf::new(
            report
                .merged_probes(scenario as u32)
                .iter()
                .filter(|p| p.src_site == sender && p.size == 100_000)
                .map(|p| p.completion.as_millis_f64()),
        );
        if cdf.is_empty() {
            println!("{label:>28}  (no samples)");
            continue;
        }
        let p50 = cdf.median();
        if *label == "control" {
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
    Ok(())
}

/// Beyond the paper: how fast Riptide's learned state converges from a
/// cold start. Justifies the experiment warm-up windows and illustrates
/// §V's point that effectiveness tracks the traffic profile: the learned
/// table fills as fast as traffic touches destinations.
///
/// Runs as a single engine shard (the trajectory is one world stepped
/// through time and cannot be split).
pub fn convergence(opts: &RunOptions) -> Outcome {
    banner(
        "Convergence",
        "mean learned window and live destinations over time from a cold start",
    );
    let plan = RunPlan::convergence(&opts.scale, SimDuration::from_secs(60));
    let report = execute_plan(opts, &plan);
    println!(
        "{:>10} {:>16} {:>14} {:>14}",
        "t_secs", "mean_window", "destinations", "route_updates"
    );
    for (i, point) in report.convergence_points().iter().enumerate() {
        // Print a dense head (first 10 minutes) then every 10 minutes.
        let minute = i + 1;
        if minute <= 10 || minute % 10 == 0 {
            println!(
                "{:>10} {:>16.1} {:>14} {:>14}",
                point.at_secs, point.mean_window, point.destinations, point.route_updates
            );
        }
    }
    println!("\n# reading: destinations covered by learned routes plateau once every");
    println!("# (machine, destination) pair has been touched by probes or organic flows;");
    println!("# the warm-up window in EXPERIMENTS.md is chosen past that plateau.");
    Ok(())
}

/// §V "Kernel Implementation": quantify what moving Riptide into the
/// kernel would buy, exactly along the two axes the paper names —
/// reaction latency (event-driven vs `i_u` polling) and monitoring load
/// (samples on change vs full-table polls).
///
/// Scenario: a destination's live windows sit at 100, then collapse to
/// 12 (the path degraded). We measure how long each design keeps handing
/// the stale window of 100 to *new* connections, and how many
/// observations each consumed.
pub fn kernel_mode(_opts: &RunOptions) -> Outcome {
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 7, 1);
    // Off the polling grid, as real degradations are.
    const COLLAPSE_MS: u64 = 30_500;
    const OPEN_CONNS: usize = 40;
    let window_at = |t_ms: u64| if t_ms < COLLAPSE_MS { 100 } else { 12 };

    banner(
        "Section V (kernel implementation)",
        "reaction latency and monitoring load: userspace polling vs in-kernel events",
    );
    let no_history = RiptideConfig::builder().policy(LearningPolicy::None);

    println!(
        "{:>12} {:>14} {:>16} {:>14}",
        "design", "poll_iu", "stale_for_ms", "observations"
    );

    // Userspace designs at several polling intervals.
    for iu_secs in [1u64, 5, 10] {
        let cfg = no_history
            .clone()
            .update_interval(SimDuration::from_secs(iu_secs))
            .build()
            .expect("valid");
        let mut agent = RiptideAgent::new(cfg).expect("valid");
        let mut routes = RouteTable::new();
        let mut observations = 0u64;
        let mut stale_until_ms = None;
        let mut t_ms = 0;
        while t_ms <= 60_000 {
            // One poll: the agent reads every open connection.
            let w = window_at(t_ms);
            observations += OPEN_CONNS as u64;
            let mut obs = FnObserver(|| {
                (0..OPEN_CONNS)
                    .map(|_| CwndObservation {
                        dst: DST,
                        cwnd: w,
                        bytes_acked: 1 << 20,
                        retrans: 0,
                        ecn_marks: 0,
                    })
                    .collect()
            });
            agent.tick(SimTime::from_millis(t_ms), &mut obs, &mut routes);
            if t_ms >= COLLAPSE_MS
                && stale_until_ms.is_none()
                && routes.initcwnd_for(DST) == Some(12)
            {
                stale_until_ms = Some(t_ms);
            }
            t_ms += iu_secs * 1000;
        }
        let stale_for = stale_until_ms.expect("eventually reacts") - COLLAPSE_MS;
        println!(
            "{:>12} {:>13}s {:>16} {:>14}",
            "userspace", iu_secs, stale_for, observations
        );
    }

    // Kernel design: one sample per window *change* event, zero polling.
    let mut kernel = KernelAgent::new(no_history.build().expect("valid")).expect("valid");
    // Two events total: the steady value, then the collapse.
    kernel.on_window_sample(DST, 100, SimTime::from_millis(0));
    kernel.on_window_sample(DST, 12, SimTime::from_millis(COLLAPSE_MS));
    let at_collapse = kernel.initial_cwnd(DST, SimTime::from_millis(COLLAPSE_MS));
    assert_eq!(at_collapse, Some(12), "reflected in the same instant");
    println!(
        "{:>12} {:>14} {:>16} {:>14}",
        "kernel",
        "event-driven",
        0,
        kernel.samples()
    );

    println!("\n# userspace staleness is bounded by i_u; the kernel variant reacts in-event.");
    println!("# monitoring load: polling reads every open connection every i_u regardless of");
    println!("# change; the kernel hook fires only on actual window transitions.");
    Ok(())
}

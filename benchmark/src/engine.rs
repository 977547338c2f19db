//! The two workloads that go through `cdn::engine`: `probe-fleet` (few
//! long shards, `simnet` does the work) and `scenario-matrix` (many short
//! shards, so building simulators, scheduling and digest rendering show).
//!
//! A repetition is what a figure binary does with a plan: run it, render
//! its digest, merge the control-vs-Riptide comparison. The traced pass
//! repeats that under spans and then drives every shard's simulator
//! directly, so the engine's own share is the difference.

use std::hint::black_box;
use std::time::{Duration, Instant};

use riptide_cdn::engine::{RunPlan, RunReport, ShardSpec, ShardWork};
use riptide_cdn::experiment::{probe_sim_config, ExperimentScale, ProbeComparison};
use riptide_cdn::scenario::scenario_sim_config;
use riptide_cdn::sim::{CdnSim, CdnSimConfig, ProbeOutcome};
use riptide_simnet::time::SimDuration;

use crate::layers;
use crate::span::Tracer;
use crate::stats;
use crate::sys;
use crate::workload::{millis, secs, setup_median, Outcome, RunArgs, Window};

/// Which engine workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `RunPlan::probe_comparison(quick, 1)`.
    ProbeFleet,
    /// `RunPlan::scenario_matrix(test, 2)`.
    ScenarioMatrix,
}

/// Every n-th shard of the scenario matrix makes its warm-up plan: 12
/// shards that between them touch every cell (RED/ECN, paced,
/// lossy-edge, flash-crowd) without paying for all 144.
const MATRIX_WARMUP_STRIDE: usize = 12;

fn plan_for(shape: Shape, args: &RunArgs) -> RunPlan {
    let seeded = |scale: ExperimentScale| ExperimentScale {
        seed: args.seed,
        ..scale
    };
    match shape {
        Shape::ProbeFleet => {
            let scale = if args.smoke {
                ExperimentScale::test()
            } else {
                ExperimentScale::quick()
            };
            RunPlan::probe_comparison(&seeded(scale), 1)
        }
        Shape::ScenarioMatrix => {
            let replicates = if args.smoke { 1 } else { 2 };
            RunPlan::scenario_matrix(&seeded(ExperimentScale::test()), replicates)
        }
    }
}

/// Set-up: generate the plan and run one discarded warm-up through the
/// same code at a fraction of the size.
fn setup(shape: Shape, args: &RunArgs) -> RunPlan {
    let plan = plan_for(shape, args);
    let warmup = match shape {
        // The full fleet for a simulated quarter of an hour: the same
        // 34-PoP build and the same code paths at an eighth of the
        // events (fewer, and the seed's draw of organic transfer sizes
        // moves set-up time more than the machine does).
        Shape::ProbeFleet => RunPlan::probe_comparison(
            &ExperimentScale {
                duration: SimDuration::from_secs(900),
                warmup: SimDuration::from_secs(120),
                ..plan.shards[0].scale.clone()
            },
            1,
        ),
        Shape::ScenarioMatrix => RunPlan {
            shards: plan
                .shards
                .iter()
                .step_by(MATRIX_WARMUP_STRIDE)
                .cloned()
                .collect(),
            ..plan.clone()
        },
    };
    black_box(warmup.run_with_threads(1).digest());
    plan
}

/// The numbers of one repetition that must not depend on how it ran.
fn facts_of(report: &RunReport, cmp: &ProbeComparison) -> Vec<(String, f64)> {
    let mut facts = vec![
        ("events".to_string(), report.total_events() as f64),
        (
            "transfers".to_string(),
            report.shards.iter().map(|s| s.stats.transfers).sum::<u64>() as f64,
        ),
        (
            "retransmits".to_string(),
            report
                .shards
                .iter()
                .map(|s| s.stats.retransmits)
                .sum::<u64>() as f64,
        ),
        ("probes_control".to_string(), cmp.control.len() as f64),
        ("probes_riptide".to_string(), cmp.riptide.len() as f64),
    ];
    let mut sizes: Vec<u64> = cmp.control.iter().map(|p| p.size).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let completions = |arm: &[ProbeOutcome], size: u64| -> Vec<f64> {
        arm.iter()
            .filter(|p| p.size == size)
            .map(|p| p.completion.as_millis_f64())
            .collect()
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut gains = Vec::new();
    for &size in &sizes {
        let (ctl, rip) = (
            completions(&cmp.control, size),
            completions(&cmp.riptide, size),
        );
        if ctl.is_empty() || rip.is_empty() {
            continue;
        }
        facts.push((format!("control_p50_ms_{size}"), stats::median(&ctl)));
        facts.push((format!("riptide_p50_ms_{size}"), stats::median(&rip)));
        gains.push(1.0 - mean(&rip) / mean(&ctl));
    }
    if !gains.is_empty() {
        facts.push(("probe_gain_pct".to_string(), 100.0 * mean(&gains)));
    }
    facts
}

/// One repetition: run, digest, merge.
fn repetition(
    plan: &RunPlan,
    threads: usize,
    tracer: &mut Tracer,
) -> (Duration, RunReport, ProbeComparison) {
    let started = Instant::now();
    let report = tracer.span("cdn.engine.run", 0, || plan.run_with_threads(threads));
    black_box(tracer.span("cdn.engine.digest", 0, || report.digest()));
    let cmp = tracer.span("cdn.engine.merge", 0, || report.comparison());
    (started.elapsed(), report, cmp)
}

/// The simulator configuration the engine derives for `shard`.
fn sim_config(shard: &ShardSpec) -> Option<CdnSimConfig> {
    let mut cfg = match &shard.work {
        ShardWork::ProbeArm {
            riptide,
            tweaks,
            senders,
        } => probe_sim_config(&shard.scale, riptide.clone(), *tweaks, senders.clone()),
        ShardWork::ScenarioArm {
            riptide,
            spec,
            senders,
        } => scenario_sim_config(&shard.scale, riptide.clone(), senders.clone(), spec),
        _ => return None,
    };
    cfg.telemetry = shard.telemetry;
    Some(cfg)
}

/// Checks one arm's outcomes against the window bounds it could have
/// been installed with, returning how many fall outside.
fn out_of_bounds(outcomes: &[ProbeOutcome], lo: u32, hi: u32) -> usize {
    outcomes
        .iter()
        .filter(|p| p.initial_cwnd < lo || p.initial_cwnd > hi)
        .count()
}

/// Runs an engine workload.
pub fn run(shape: Shape, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (plan, setup_s) = setup_median(|| setup(shape, args));
    out.set("setup_s", setup_s);
    // One process, never more threads than the machine has: with a
    // single hardware thread there is no 2-worker run to time, and one
    // worker's time must not be reported under a 2-thread name.
    let two_workers = sys::hardware_threads() >= 2;

    // Untraced pass: 1-thread and 2-thread repetitions, interleaved.
    let mut off = Tracer::off();
    let window = Window::open(args.pass_budget());
    let (mut wall_1t, mut wall_2t) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<(String, f64)>> = None;
    let mut rep = 0;
    while window.wants_more(rep) {
        let (threads, walls) = if two_workers && rep % 2 == 1 {
            (2, &mut wall_2t)
        } else {
            (1, &mut wall_1t)
        };
        rep += 1;
        let (wall, report, cmp) = repetition(&plan, threads, &mut off);
        walls.push(secs(wall));
        out.attempted += report.shards.len() as u64;
        out.failed += report
            .shards
            .iter()
            .filter(|s| s.stats.events == 0 || s.stats.transfers == 0)
            .count() as u64;
        let facts = facts_of(&report, &cmp);
        match &reference {
            None => {
                // Control never leaves the stack default; Riptide stays
                // inside the deployment clamp [c_min, c_max].
                let bad =
                    out_of_bounds(&cmp.control, 10, 10) + out_of_bounds(&cmp.riptide, 10, 100);
                out.require(bad == 0, || {
                    format!("{bad} probe(s) started outside the window bounds")
                });
                out.require(!cmp.control.is_empty() && !cmp.riptide.is_empty(), || {
                    "an arm produced no after-warm-up probes".into()
                });
                reference = Some(facts);
                // Peak memory is read here, after the first 1-thread
                // repetition: the same work on every machine, and which
                // shards overlap on 2 workers is a race that moved the
                // matrix's 9 MB peak by ±9 % between runs of one seed.
                out.read_peak_rss();
            }
            Some(first) => out.require(*first == facts, || {
                format!("a {threads}-thread repetition disagrees with the first: {facts:?} vs {first:?}")
            }),
        }
    }
    let wall_s = out.set_wall("wall_s", &wall_1t, "1-thread repetitions");
    if two_workers {
        let wall_2t_s = out.set_wall("wall_2t_s", &wall_2t, "2-worker repetitions");
        out.set("cdn.engine.par_efficiency_2t", wall_s / (2.0 * wall_2t_s));
    } else {
        out.notes.push(
            "wall_2t_s and cdn.engine.par_efficiency_2t are not measured: \
             this machine has fewer than 2 hardware threads"
                .into(),
        );
    }
    for (name, value) in reference.iter().flatten() {
        if name == "probe_gain_pct" {
            out.set("probe_gain_pct", *value);
        }
        out.fact(name.clone(), *value);
    }

    if args.trace {
        trace_pass(&plan, shape, args, wall_s, &mut out);
        if shape == Shape::ProbeFleet {
            out.set("simnet.world.conn_stat_ns", layers::conn_stat());
        }
    }
    out
}

/// Traced pass: one repetition under spans, then every shard driven
/// directly through `CdnSim::new` / `run_for`.
fn trace_pass(plan: &RunPlan, shape: Shape, args: &RunArgs, wall_s: f64, out: &mut Outcome) {
    let mut tracer = Tracer::on();
    black_box(tracer.span("cdn.engine.plan", 0, || plan_for(shape, args)));
    let (wall, report, _) = repetition(plan, 1, &mut tracer);
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (secs(wall) - wall_s) / wall_s,
    );

    let (mut ticks, mut observations, mut route_updates) = (0u64, 0u64, 0u64);
    let mut world = riptide_simnet::stats::WorldStats::default();
    let mut paths = riptide_simnet::link::PathStats::default();
    for (i, shard) in plan.shards.iter().enumerate() {
        let Some(cfg) = sim_config(shard) else {
            out.problems
                .push(format!("shard {} is not a probe or scenario arm", shard.id));
            continue;
        };
        let id = i as u64;
        let mut sim = tracer.span("cdn.sim.build", id, || CdnSim::new(cfg));
        tracer.span("cdn.sim.run", id, || sim.run_for(shard.scale.total()));
        let stats = sim.testbed().world.stats();
        out.require(
            stats.events_processed == report.shards[i].stats.events,
            || {
                format!(
                    "shard {} driven directly processed {} events, through the engine {}",
                    shard.id, stats.events_processed, report.shards[i].stats.events
                )
            },
        );
        world.events_processed += stats.events_processed;
        world.segments_delivered += stats.segments_delivered;
        world.acks_delivered += stats.acks_delivered;
        world.retransmits += stats.retransmits;
        let agents = sim.agent_stats_total();
        ticks += agents.ticks;
        observations += agents.observations;
        route_updates += agents.route_updates;
        let testbed = sim.testbed();
        for &src in &testbed.pops {
            for &dst in &testbed.pops {
                if let Some(p) = testbed.world.path_stats(src, dst) {
                    paths.lost_overflow += p.lost_overflow;
                    paths.lost_aqm += p.lost_aqm;
                    paths.marked_ecn += p.marked_ecn;
                }
            }
        }
    }

    let ms = |name: &str| tracer.busy_ns(name) as f64 / 1e6;
    let engine_ms = ms("cdn.engine.run");
    let direct_ms = ms("cdn.sim.build") + ms("cdn.sim.run");
    out.set("cdn.sim.build_ms", ms("cdn.sim.build"));
    out.set("cdn.sim.run_ms", ms("cdn.sim.run"));
    out.set(
        "cdn.sim.ns_per_event",
        tracer.busy_ns("cdn.sim.run") as f64 / world.events_processed.max(1) as f64,
    );
    out.set("cdn.sim.agent_ticks", ticks as f64);
    out.set("cdn.sim.observations", observations as f64);
    out.set("cdn.sim.route_updates", route_updates as f64);
    out.set("cdn.engine.run_ms", engine_ms);
    out.set(
        "cdn.engine.overhead_pct",
        100.0 * (engine_ms - direct_ms) / engine_ms,
    );
    out.set("cdn.engine.plan_ms", ms("cdn.engine.plan"));
    out.set("cdn.engine.digest_ms", ms("cdn.engine.digest"));
    out.set("cdn.engine.merge_ms", ms("cdn.engine.merge"));
    let shard_ms: Vec<u64> = report.shards.iter().map(|s| s.stats.wall_millis).collect();
    out.set(
        "cdn.engine.shard_max_share",
        shard_ms.iter().copied().max().unwrap_or(0) as f64
            / shard_ms.iter().sum::<u64>().max(1) as f64,
    );
    out.set("simnet.world.events", world.events_processed as f64);
    out.set("simnet.world.segments", world.segments_delivered as f64);
    out.set("simnet.world.acks", world.acks_delivered as f64);
    out.set("simnet.world.retransmits", world.retransmits as f64);
    out.set("simnet.world.lost_queue", paths.lost_overflow as f64);
    out.set("simnet.world.lost_aqm", paths.lost_aqm as f64);
    out.set("simnet.world.marked_ecn", paths.marked_ecn as f64);
    out.notes.push(format!(
        "traced repetition took {:.1} ms against an untraced wall_s of {:.1} ms",
        millis(wall),
        wall_s * 1e3
    ));
    out.trace = Some(tracer);
}

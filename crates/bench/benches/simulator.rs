//! Simulator throughput: how much simulated transfer work the substrate
//! sustains per wall-clock second — the budget every figure run spends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use riptide_simnet::prelude::*;
use riptide_simnet::time::SimDuration;

fn run_transfers(flows: usize, bytes: u64, loss: f64) -> u64 {
    let mut w = World::new(TcpConfig::default(), 42);
    let a = w.add_pop();
    let b = w.add_pop();
    let h1 = w.add_host(a);
    let h2 = w.add_host(b);
    w.set_symmetric_path(
        a,
        b,
        PathConfig::with_delay(SimDuration::from_millis(40)).loss(loss),
    );
    for _ in 0..flows {
        w.open_and_transfer(h1, h2, bytes);
    }
    w.run_to_quiescence();
    let stats = w.stats();
    assert_eq!(stats.transfers_completed, flows as u64);
    stats.events_processed
}

fn bench_transfer_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_transfers");
    for &flows in &[10usize, 100] {
        group.throughput(Throughput::Elements(flows as u64));
        group.bench_with_input(
            BenchmarkId::new("lossless_100KB", flows),
            &flows,
            |b, &flows| b.iter(|| black_box(run_transfers(flows, 100_000, 0.0))),
        );
        group.bench_with_input(
            BenchmarkId::new("lossy1pct_100KB", flows),
            &flows,
            |b, &flows| b.iter(|| black_box(run_transfers(flows, 100_000, 0.01))),
        );
    }
    group.finish();
}

fn bench_cdn_deployment_minute(c: &mut Criterion) {
    use riptide_cdn::prelude::*;
    let mut group = c.benchmark_group("cdn_sim_minute");
    group.sample_size(10);
    for riptide in [false, true] {
        let label = if riptide { "riptide" } else { "control" };
        group.bench_function(label, |b| {
            b.iter(|| {
                let cfg = CdnSimConfig {
                    testbed: TestbedConfig::tiny(5, 2, 11),
                    riptide: riptide.then(riptide::config::RiptideConfig::deployment),
                    probes: ProbeConfig {
                        interval: SimDuration::from_secs(20),
                        ..ProbeConfig::default()
                    },
                    organic: OrganicConfig::among(vec![0, 1], 0.5),
                    cwnd_sample_interval: SimDuration::from_secs(30),
                    probe_senders: None,
                    telemetry: false,
                    resilience: Default::default(),
                };
                let mut sim = CdnSim::new(cfg);
                sim.run_for(SimDuration::from_secs(60));
                black_box(sim.probe_outcomes().len())
            });
        });
    }
    group.finish();
}

fn bench_parallel_engine(c: &mut Criterion) {
    use riptide_cdn::engine::RunPlan;
    use riptide_cdn::experiment::ExperimentScale;
    let mut scale = ExperimentScale::test();
    scale.duration = SimDuration::from_secs(120);
    let plan = RunPlan::cwnd_sweep(&scale, &[None, Some(50), Some(100), Some(200)], 1);
    let mut group = c.benchmark_group("parallel_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(plan.shards.len() as u64));
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("cwnd_sweep_4shards", threads),
            &threads,
            |b, &threads| b.iter(|| black_box(plan.run_with_threads(threads).total_events())),
        );
    }
    group.finish();
}

/// The hold model — pop the earliest event, schedule one a step later — at
/// the depths and step mixes the repo benchmark's simulator workloads run:
/// `probe-fleet` holds ≈ 550 events a path delay (≥ 1 ms) ahead,
/// `bulk-bottleneck` ≈ 3 700 of which a third are RTO timers (≥ 200 ms).
fn bench_event_queue(c: &mut Criterion) {
    use riptide_simnet::event::EventQueue;
    use riptide_simnet::rng::DetRng;
    use riptide_simnet::time::SimTime;
    let mut group = c.benchmark_group("event_queue_hold");
    group.throughput(Throughput::Elements(1));
    for (name, depth, rto_pct) in [("probe_fleet", 550usize, 0), ("bulk_bottleneck", 3_700, 33)] {
        let mut rng = DetRng::for_stream(2016, depth as u64);
        let mut step = move || {
            let ns = if rng.below(100) < rto_pct {
                200_000_000 + rng.below(50_000_000)
            } else {
                1_000_000 + rng.below(40_000_000)
            };
            SimDuration::from_nanos(ns as u64)
        };
        let mut q = EventQueue::new();
        for i in 0..depth {
            q.schedule(SimTime::ZERO + step(), i);
        }
        group.bench_function(BenchmarkId::new(name, depth), |b| {
            b.iter(|| {
                let (at, payload) = q.pop().expect("the queue holds its depth");
                q.schedule(at + step(), black_box(payload));
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_transfer_batch, bench_cdn_deployment_minute, bench_parallel_engine, bench_event_queue
}
criterion_main!(benches);

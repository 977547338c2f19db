//! `bulk-bottleneck`: `simnet` alone — no `cdn`, no agent. Sixteen bulk
//! flows share one rate-limited, finite-queue path: the
//! N-flows-through-one-bottleneck regime of the AIMD/drop-tail and RED
//! mean-field analyses (PAPERS.md), so the oracles a later issue adds can
//! run on exactly this input.
//!
//! Half of a repetition is Reno over drop-tail, half CUBIC over RED with
//! ECN marking. It is the layer `probe-fleet` spends its time in, used
//! differently: a standing queue and continuous loss recovery instead of
//! thousands of short slow-start-dominated transfers.

use std::time::Instant;

use riptide_simnet::config::TcpConfig;
use riptide_simnet::ids::{HostId, PopId};
use riptide_simnet::link::{AqmPolicy, PathConfig, PathStats};
use riptide_simnet::rng::DetRng;
use riptide_simnet::stats::{TransferRecord, WorldStats};
use riptide_simnet::time::{SimDuration, SimTime};
use riptide_simnet::world::World;

use crate::layers;
use crate::span::Tracer;
use crate::stats;
use crate::workload::{secs, setup_median, Outcome, RunArgs, Window, MIN_REPS};

/// Concurrent flows through the bottleneck.
const FLOWS: usize = 16;
/// Bottleneck rate.
const RATE_BPS: u64 = 200_000_000;
/// One-way propagation delay (RTT 20 ms).
const ONE_WAY_MS: u64 = 10;
/// Queue capacity: one bandwidth-delay product (200 Mb/s × 20 ms, about 330 segments).
const QUEUE_BYTES: u64 = 500_000;
/// Payload per flow: with 16 flows and two halves, about ten million
/// events per repetition.
const FLOW_BYTES: u64 = 110_000_000;
/// Payload per flow at `--smoke` scale and for the set-up warm-up.
const SMALL_FLOW_BYTES: u64 = 5_000_000;
/// Flows start within this window, at seeded offsets, so they do not
/// leave slow start in lockstep.
const START_SPREAD_MS: f64 = 200.0;
/// The world runs in slices of this much simulated time; one span each.
const SLICE: SimDuration = SimDuration::from_secs(1);

/// The two halves of a repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Half {
    RenoDropTail,
    CubicRedEcn,
}

impl Half {
    const BOTH: [Half; 2] = [Half::RenoDropTail, Half::CubicRedEcn];

    fn label(self) -> &'static str {
        match self {
            Half::RenoDropTail => "reno_droptail",
            Half::CubicRedEcn => "cubic_red_ecn",
        }
    }

    fn tcp(self) -> TcpConfig {
        // Windows must be able to fill the pipe and the queue behind it.
        let roomy = |cfg: TcpConfig| TcpConfig {
            max_rwnd: 8192,
            ..cfg
        };
        match self {
            Half::RenoDropTail => roomy(TcpConfig::reno()),
            Half::CubicRedEcn => roomy(TcpConfig {
                ecn: true,
                ..TcpConfig::default()
            }),
        }
    }

    fn aqm(self) -> AqmPolicy {
        match self {
            Half::RenoDropTail => AqmPolicy::DropTail,
            Half::CubicRedEcn => AqmPolicy::red_for_queue(QUEUE_BYTES, true),
        }
    }
}

/// One half, built and with every flow's start time drawn, not yet run.
struct Bottleneck {
    world: World,
    pops: (PopId, PopId),
    flows: Vec<(SimTime, HostId, HostId)>,
    flow_bytes: u64,
}

/// What one half produced.
struct HalfResult {
    world: WorldStats,
    forward: PathStats,
    completed: Vec<TransferRecord>,
    /// Pending events, sampled at the end of every slice.
    depth_samples: Vec<f64>,
}

impl Bottleneck {
    fn build(half: Half, seed: u64, flow_bytes: u64) -> Self {
        let mut world = World::new(half.tcp(), seed);
        let (a, b) = (world.add_pop(), world.add_pop());
        let path = PathConfig::with_delay(SimDuration::from_millis(ONE_WAY_MS))
            .rate_bps(RATE_BPS)
            .queue_bytes(QUEUE_BYTES);
        world.set_path(a, b, path.clone().aqm(half.aqm()));
        // ACKs return over an uncongested drop-tail path.
        world.set_path(b, a, path);
        let mut rng = DetRng::for_stream(seed, half as u64);
        let mut flows: Vec<(SimTime, HostId, HostId)> = (0..FLOWS)
            .map(|_| {
                let at = SimTime::ZERO
                    + SimDuration::from_secs_f64(rng.uniform(0.0, START_SPREAD_MS) / 1e3);
                (at, world.add_host(a), world.add_host(b))
            })
            .collect();
        flows.sort_by_key(|&(at, ..)| at);
        Bottleneck {
            world,
            pops: (a, b),
            flows,
            flow_bytes,
        }
    }

    /// Four times what the link needs for the payload alone: every flow
    /// finishes well inside it, after which the world is idle and free.
    fn horizon(&self) -> SimTime {
        let ideal = (FLOWS as u64 * self.flow_bytes * 8) as f64 / RATE_BPS as f64;
        SimTime::ZERO + SimDuration::from_secs_f64(4.0 * ideal + 2.0)
    }

    fn run(mut self, tracer: &mut Tracer) -> HalfResult {
        for &(at, src, dst) in &self.flows {
            self.world.run_until(at);
            self.world.open_and_transfer(src, dst, self.flow_bytes);
        }
        let horizon = self.horizon();
        let (mut completed, mut depth_samples) = (Vec::new(), Vec::new());
        while self.world.now() < horizon && completed.len() < FLOWS {
            let until = (self.world.now() + SLICE).min(horizon);
            tracer.span("simnet.world.run", 0, || self.world.run_until(until));
            depth_samples.push(self.world.pending_events() as f64);
            completed.extend(self.world.drain_completed());
        }
        HalfResult {
            world: self.world.stats(),
            forward: self
                .world
                .path_stats(self.pops.0, self.pops.1)
                .expect("the forward path was set"),
            completed,
            depth_samples,
        }
    }
}

/// Both halves at `flow_bytes`, built from `seed`.
fn build_both(seed: u64, flow_bytes: u64) -> [Bottleneck; 2] {
    Half::BOTH.map(|half| Bottleneck::build(half, seed, flow_bytes))
}

/// Set-up: build both worlds and run one discarded warm-up at a
/// twentieth of the volume.
fn setup(args: &RunArgs) -> u64 {
    for small in build_both(args.seed, SMALL_FLOW_BYTES) {
        small.run(&mut Tracer::off());
    }
    if args.smoke {
        SMALL_FLOW_BYTES
    } else {
        FLOW_BYTES
    }
}

/// Checks one half's outputs; returns the segments of unfinished flows.
fn check(half: Half, result: &HalfResult, flow_bytes: u64, out: &mut Outcome) -> u64 {
    let tcp = half.tcp();
    let label = half.label();
    let segments_per_flow = tcp.segments_for(flow_bytes);
    let unfinished = (FLOWS - result.completed.len().min(FLOWS)) as u64 * segments_per_flow;
    out.require(unfinished == 0, || {
        format!(
            "{label}: only {} of {FLOWS} flows finished by the horizon",
            result.completed.len()
        )
    });
    if let (Some(first), Some(last)) = (
        result.completed.iter().map(|t| t.requested_at).min(),
        result.completed.iter().map(|t| t.completed_at).max(),
    ) {
        let payload: u64 = result.completed.iter().map(|t| t.bytes).sum();
        let goodput_bps = payload as f64 * 8.0 / last.saturating_since(first).as_secs_f64();
        // Headers ride the same link, so payload goodput sits below the
        // rate by at least their share.
        let ceiling = RATE_BPS as f64 * tcp.mss as f64 / tcp.wire_bytes() as f64;
        out.require(goodput_bps <= ceiling, || {
            format!("{label}: goodput {goodput_bps:.0} b/s exceeds the link's {ceiling:.0} b/s")
        });
        out.require(goodput_bps >= 0.5 * ceiling, || {
            format!("{label}: goodput {goodput_bps:.0} b/s is under half the link — not a bottleneck regime")
        });
    }
    let p = result.forward;
    out.require(
        p.offered == p.delivered + p.lost_total()
            && p.delivered >= FLOWS as u64 * segments_per_flow,
        || format!("{label}: path accounting does not add up: {p:?}"),
    );
    match half {
        Half::RenoDropTail => out.require(
            p.lost_overflow > 0 && p.lost_aqm == 0 && p.marked_ecn == 0,
            || format!("{label}: expected queue drops only, got {p:?}"),
        ),
        Half::CubicRedEcn => out.require(p.marked_ecn > 0 && p.lost_aqm == 0, || {
            format!("{label}: expected ECN marks and no early drops, got {p:?}")
        }),
    }
    unfinished
}

/// One repetition: both halves, checked.
fn repetition(
    args: &RunArgs,
    flow_bytes: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (f64, [HalfResult; 2]) {
    let started = Instant::now();
    let results = build_both(args.seed, flow_bytes).map(|b| b.run(tracer));
    let wall = secs(started.elapsed());
    for (half, result) in Half::BOTH.into_iter().zip(&results) {
        out.attempted += FLOWS as u64 * half.tcp().segments_for(flow_bytes);
        out.failed += check(half, result, flow_bytes, out);
    }
    (wall, results)
}

fn facts_of(results: &[HalfResult; 2]) -> Vec<(String, f64)> {
    let mut facts = Vec::new();
    for (half, r) in Half::BOTH.into_iter().zip(results) {
        let label = half.label();
        for (name, value) in [
            ("events", r.world.events_processed),
            ("segments", r.world.segments_delivered),
            ("acks", r.world.acks_delivered),
            ("retransmits", r.world.retransmits),
            ("lost_queue", r.forward.lost_overflow),
            ("lost_aqm", r.forward.lost_aqm),
            ("marked_ecn", r.forward.marked_ecn),
        ] {
            facts.push((format!("{label}.{name}"), value as f64));
        }
    }
    facts
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (flow_bytes, setup_s) = setup_median(|| setup(args));
    out.set("setup_s", setup_s);

    let mut off = Tracer::off();
    let window = Window::open(args.pass_budget());
    let mut walls = Vec::new();
    let mut reference: Option<Vec<(String, f64)>> = None;
    while window.wants_more(walls.len()) {
        let (wall, results) = repetition(args, flow_bytes, &mut off, &mut out);
        walls.push(wall);
        let facts = facts_of(&results);
        match &reference {
            None => reference = Some(facts),
            Some(first) => out.require(*first == facts, || {
                "a repetition disagrees with the first: the simulator is not deterministic".into()
            }),
        }
        // Every repetition builds the same worlds: after the first few
        // the peak is what it will ever be, on any machine.
        if walls.len() == MIN_REPS {
            out.read_peak_rss();
        }
    }
    let wall_s = out.set_wall("wall_s", &walls, "repetitions");
    for (name, value) in reference.into_iter().flatten() {
        out.fact(name, value);
    }

    if args.trace {
        let mut tracer = Tracer::on();
        let (wall, results) = repetition(args, flow_bytes, &mut tracer, &mut out);
        out.set("bench.trace_overhead_pct", 100.0 * (wall - wall_s) / wall_s);
        let sum = |f: fn(&HalfResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
        let events = sum(|r| r.world.events_processed);
        out.set(
            "simnet.world.ns_per_event",
            tracer.busy_ns("simnet.world.run") as f64 / events,
        );
        out.set("simnet.world.events", events);
        out.set("simnet.world.segments", sum(|r| r.world.segments_delivered));
        out.set("simnet.world.acks", sum(|r| r.world.acks_delivered));
        out.set("simnet.world.retransmits", sum(|r| r.world.retransmits));
        out.set("simnet.world.lost_queue", sum(|r| r.forward.lost_overflow));
        out.set("simnet.world.lost_aqm", sum(|r| r.forward.lost_aqm));
        out.set("simnet.world.marked_ecn", sum(|r| r.forward.marked_ecn));
        let depths: Vec<f64> = results
            .iter()
            .flat_map(|r| r.depth_samples.iter().copied())
            .collect();
        layers::probe_simnet(args.seed, stats::median(&depths) as usize, &mut out);
        out.trace = Some(tracer);
    }
    out
}

//! Unit-cost probes: one tight loop per layer whose cost per operation
//! explains a share of some workload's time (the event queue under the
//! simulator, path admission under every segment, the LPM trie under
//! every route lookup…). What they say is *how much one operation costs
//! here*, to set beside the operation counts a traced workload reports,
//! so each group runs once: in the traced run of the workload whose
//! layer it explains.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use riptide::prelude::*;
use riptide_cdn::megacdn::MegaCdnConfig;
use riptide_linuxnet::ip_cmd::IpRouteCmd;
use riptide_linuxnet::lpm::LpmTrie;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::{RouteAttrs, RouteTable};
use riptide_simnet::config::TcpConfig;
use riptide_simnet::event::EventQueue;
use riptide_simnet::link::{AqmPolicy, Path, PathConfig};
use riptide_simnet::rng::DetRng;
use riptide_simnet::time::{SimDuration, SimTime};
use riptide_simnet::world::World;

use crate::workload::Outcome;

/// Nanoseconds per iteration of `f` over `iterations` calls.
fn ns_per(iterations: u64, mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..iterations {
        f(i);
    }
    started.elapsed().as_nanos() as f64 / iterations as f64
}

/// Depth of the event queue in the reported hold-model probe.
const HOLD_DEPTH: usize = 10_000;

/// The classic hold model: a queue kept at a fixed depth, each operation
/// popping the earliest event and scheduling one a random step ahead.
fn event_queue_hold(seed: u64, depth: usize) -> f64 {
    let mut rng = DetRng::for_stream(seed, 0x4556); // "EV"
    let mut queue = EventQueue::new();
    for i in 0..depth {
        queue.schedule(SimTime::from_nanos(rng.below(1_000_000) as u64), i as u64);
    }
    ns_per(2_000_000, |_| {
        let (at, payload) = queue.pop().expect("the queue holds its depth");
        queue.schedule(
            at + SimDuration::from_nanos(1 + rng.below(1_000_000) as u64),
            payload,
        );
    })
}

/// Queue capacity of the admission probe's path.
const ADMIT_QUEUE_BYTES: u64 = 500_000;

/// `Path::admit_ect` with the queue held half full: one wire-size packet
/// offered per serialization time.
fn path_admit(seed: u64, aqm: AqmPolicy, ect: bool) -> f64 {
    let wire = TcpConfig::default().wire_bytes();
    let config = PathConfig::with_delay(SimDuration::from_millis(10))
        .rate_bps(200_000_000)
        .queue_bytes(ADMIT_QUEUE_BYTES)
        .aqm(aqm);
    let step = config.serialization_time(wire);
    let mut path = Path::new(config, DetRng::for_stream(seed, 0x4c4b)); // "LK"
    for _ in 0..ADMIT_QUEUE_BYTES / 2 / wire as u64 {
        path.admit_ect(SimTime::ZERO, wire, ect);
    }
    let mut now = SimTime::ZERO;
    ns_per(2_000_000, |_| {
        now += step;
        black_box(path.admit_ect(now, wire, ect));
    })
}

/// `probe-fleet`'s probe: `World::each_host_conn_stat`, per connection
/// visited — what every simulated agent tick's `ss` poll pays.
pub fn conn_stat() -> f64 {
    const CONNS: usize = 64;
    let mut world = World::new(TcpConfig::default(), 1);
    let (a, b) = (world.add_pop(), world.add_pop());
    world.set_symmetric_path(a, b, PathConfig::with_delay(SimDuration::from_millis(10)));
    let src = world.add_host(a);
    for _ in 0..CONNS {
        let dst = world.add_host(b);
        world.open_and_transfer(src, dst, 100_000);
    }
    world.run_until(SimTime::from_secs(5));
    let rounds = 20_000;
    let mut acc = 0u64;
    let per_round = ns_per(rounds, |_| {
        world.each_host_conn_stat(src, |c| acc += u64::from(c.cwnd));
    });
    black_box(acc);
    per_round / CONNS as f64
}

/// Shuffled inserts of a million /32s into the trie, then Zipf-popular
/// lookups: `(insert ns, lookup ns, bytes held)`.
fn lpm_million(seed: u64) -> (f64, f64, usize) {
    let cfg = MegaCdnConfig {
        seed,
        ..MegaCdnConfig::quick()
    };
    let n = cfg.total_destinations();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = DetRng::for_stream(seed, 0x5452_4945); // "TRIE"
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut trie: LpmTrie<u32> = LpmTrie::new();
    let insert_ns = ns_per(n as u64, |i| {
        let addr = cfg.addr_of_index(order[i as usize] as usize);
        trie.insert(Ipv4Prefix::host(addr), i as u32);
    });
    let targets = zipf_targets(&cfg, &mut rng, 1 << 20);
    let mut hits = 0u64;
    let lookup_ns = ns_per(targets.len() as u64, |i| {
        hits += u64::from(trie.lookup(targets[i as usize]).is_some());
    });
    assert_eq!(
        hits,
        targets.len() as u64,
        "every destination is in the trie"
    );
    (insert_ns, lookup_ns, trie.mem_bytes())
}

fn zipf_targets(cfg: &MegaCdnConfig, rng: &mut DetRng, count: usize) -> Vec<Ipv4Addr> {
    let zipf = cfg.popularity();
    (0..count)
        .map(|_| cfg.addr_of_index(cfg.rank_to_index(zipf.sample(rng))))
        .collect()
}

/// Zipf lookups against the installed view a converged mega-fleet leaves
/// in the kernel table: one /24 route per slab.
fn route_lookup(seed: u64) -> f64 {
    let cfg = MegaCdnConfig {
        seed,
        ..MegaCdnConfig::quick()
    };
    let mut table = RouteTable::new();
    for index in (0..cfg.total_destinations()).step_by(256) {
        let slab = Ipv4Prefix::of_addr(cfg.addr_of_index(index), 24);
        table.replace(slab, RouteAttrs::initcwnd(40));
    }
    let mut rng = DetRng::for_stream(seed, 0x4c4f_4f4b); // "LOOK"
    let targets = zipf_targets(&cfg, &mut rng, 1 << 19);
    let mut acc = 0u64;
    let ns = ns_per(targets.len() as u64, |i| {
        acc += u64::from(table.initcwnd_for(targets[i as usize]).unwrap_or(0));
    });
    assert_eq!(acc, 40 * targets.len() as u64, "every lookup hits its slab");
    ns
}

/// An `ip route` command rendered to text and parsed back.
fn ip_cmd_roundtrip() -> f64 {
    let base = u32::from(Ipv4Addr::new(10, 64, 0, 0));
    ns_per(200_000, |i| {
        let key = Ipv4Prefix::host(Ipv4Addr::from(base + i as u32));
        let cmd = IpRouteCmd::set_initcwnd(key, 10 + (i % 90) as u32);
        let back: IpRouteCmd = cmd.to_string().parse().expect("rendered commands parse");
        assert_eq!(back, cmd);
    })
}

/// Entries in the table probes: 1 024 aggregation units of 256.
const TABLE_ENTRIES: usize = 1 << 18;

fn table_key(i: usize) -> Ipv4Prefix {
    Ipv4Prefix::host(Ipv4Addr::from(
        u32::from(Ipv4Addr::new(10, 0, 0, 0)) + i as u32,
    ))
}

/// `FinalTable::observe` per key, over a table that already holds them.
fn table_observe() -> f64 {
    let policy = LearningPolicy::default();
    let mut table = FinalTable::new();
    let mut feed = |round: u64| {
        ns_per(TABLE_ENTRIES as u64, |i| {
            let input = PolicyInput {
                fresh: 20.0 + (i % 60) as f64,
                retrans: round,
                ecn_marks: 0,
                bytes_acked: 1_000_000 * (round + 1),
            };
            black_box(table.observe(
                table_key(i as usize),
                &input,
                &policy,
                SimTime::from_secs(round + 1),
            ));
        })
    };
    feed(0);
    feed(1)
}

/// `enforce_capacity_grouped` evicting a quarter of the units, whole.
fn table_evict() -> f64 {
    let policy = AggregationPolicy::default();
    let units = TABLE_ENTRIES / 256;
    let mut table = FinalTable::bounded(units * 3 / 4);
    for i in 0..TABLE_ENTRIES {
        let key = table_key(i);
        table.blend(
            key,
            40.0,
            &HistoryStrategy::None,
            SimTime::from_secs(i as u64 + 1),
        );
        table.set_window(&key, 40);
    }
    let started = Instant::now();
    let evicted = table.enforce_capacity_grouped(|k| policy.covering_of(k));
    let ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        evicted.len(),
        units / 4 * 256,
        "a quarter of the units leave, whole"
    );
    ms
}

/// `LossGuard::update` per destination, clean traffic with the odd burst.
fn guard_update(seed: u64) -> f64 {
    const KEYS: u64 = 5_000;
    let mut rng = DetRng::for_stream(seed, 0x4744); // "GD"
    let mut guard = LossGuard::new(GuardConfig::default());
    let mut retrans = vec![0u64; KEYS as usize];
    ns_per(KEYS * 200, |i| {
        let (k, round) = ((i % KEYS) as usize, i / KEYS);
        if rng.chance(0.005) {
            retrans[k] += 1 + rng.below(3) as u64;
        }
        black_box(guard.update(
            table_key(k),
            retrans[k],
            (round + 1) * 2_000_000,
            true,
            SimTime::from_secs(round + 1),
        ));
    })
}

/// `bulk-bottleneck`'s probes: the event queue and the link under every
/// simulated segment. Call after the traced repetition's `simnet.world.*`
/// metrics are recorded; `depth` is how many events its queue held.
pub fn probe_simnet(seed: u64, depth: usize, out: &mut Outcome) {
    let admit_ns = path_admit(seed, AqmPolicy::DropTail, false);
    out.set("simnet.event.ns_per_op", event_queue_hold(seed, HOLD_DEPTH));
    out.set("simnet.link.admit_ns", admit_ns);
    out.set(
        "simnet.link.admit_red_ns",
        path_admit(
            seed,
            AqmPolicy::red_for_queue(ADMIT_QUEUE_BYTES, true),
            true,
        ),
    );
    // With unit costs for the queue and the link in hand, what is left of
    // an event is the TCP state machines' — an estimate, not a span. The
    // queue's share is a hold at the depth the workload's queue really
    // had: at the reported probe's 10 000 a hold misses the cache and
    // costs nearly as much as a whole simulated event.
    let hold_ns = event_queue_hold(seed, depth.max(1));
    let value = |name: &str| out.values[name];
    let admissions = (value("simnet.world.segments") + value("simnet.world.acks"))
        / value("simnet.world.events");
    out.set(
        "simnet.tcp.ns_per_event_est",
        value("simnet.world.ns_per_event") - hold_ns - admissions * admit_ns,
    );
    out.notes.push(format!(
        "simnet.tcp.ns_per_event_est takes the queue's share from a hold at depth {depth}, \
         the traced repetition's median: {hold_ns:.1} ns"
    ));
}

/// `megafleet-tick`'s probes: the trie and the learned table at fleet size.
pub fn probe_fleet_tables(seed: u64, out: &mut Outcome) {
    let (insert_ns, lookup_ns, mem_bytes) = lpm_million(seed);
    out.set("linuxnet.lpm.insert_ns", insert_ns);
    out.set("linuxnet.lpm.lookup_ns_1m", lookup_ns);
    out.set("linuxnet.lpm.mem_bytes", mem_bytes as f64);
    out.set("linuxnet.route.lookup_ns", route_lookup(seed));
    out.set("core.table.observe_ns", table_observe());
    out.set("core.table.evict_ms", table_evict());
}

/// `daemon-poll`'s probes: the command text and the loss guard.
pub fn probe_daemon_units(seed: u64, out: &mut Outcome) {
    out.set("linuxnet.ip_cmd.roundtrip_ns", ip_cmd_roundtrip());
    out.set("core.guard.update_ns", guard_update(seed));
}

//! Million-prefix destination-table benchmark: the compressed trie,
//! the aggregation pass, capacity-bounded eviction and reconcile
//! audits, all at mega-CDN scale (1 M+ learned destinations at
//! `--scale quick`).
//!
//! ```text
//! cargo run --release --bin megacdn -- [--scale test|quick|paper]
//!     [--check] [--out PATH]
//! ```
//!
//! * Default mode measures and rewrites `BENCH_megacdn.json`.
//! * `--check` regression mode re-measures and compares against the
//!   checked-in baseline instead: a lookup or round-trip digest
//!   mismatch (behaviour drift) is always fatal, as is a structural
//!   gate — the merge/split round trip must be exact, the reconcile
//!   audit must converge, aggregation must fold the table at least
//!   [`MIN_AGGREGATION_RATIO`]×, grouped eviction at `N` entries must
//!   cost no more than [`MAX_EVICT_SCALING`]× the `N/4` run, and a
//!   steady tick must cost no more than [`MAX_TICK_WALK_RATIO`]× one
//!   plain ordered walk of the table it ticks over (both are ratios
//!   measured within the run, so the gates are immune to machine speed).

use std::process::ExitCode;
use std::time::Instant;

use riptide::prelude::*;
use riptide_bench::{banner, Baseline};
use riptide_cdn::megacdn::MegaCdnConfig;
use riptide_linuxnet::lpm::LpmTrie;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::rng::DetRng;
use riptide_simnet::time::SimTime;

const BENCH_FILE: &str = "BENCH_megacdn.json";
/// `--check` fails unless learned entries ≥ this × installed routes.
const MIN_AGGREGATION_RATIO: f64 = 4.0;
/// `--check` fails when grouped eviction at `N` entries costs more
/// than this × the `N/4` run **per evicted entry**. The sorted
/// `O(n + k log k)` implementation's per-entry cost grows only with
/// cache pressure (≈ 2–2.5× here); a repeated-min scan (`O(n·k)`) has
/// per-entry cost proportional to `n` and lands at ≈ 4×.
const MAX_EVICT_SCALING: f64 = 3.5;
/// `--check` fails when a steady tick costs more than this × one plain
/// ordered walk of the same learned table. The tick is
/// one sort, one ordered sweep and one run-detecting pass — a small
/// constant number of walks (≈ 3.7× here); a per-key map descent
/// anywhere in it lands at ≈ 13×.
const MAX_TICK_WALK_RATIO: f64 = 6.0;
/// Steady ticks (and table walks) timed for `tick_walk_ratio`; each side
/// reports its minimum.
const STEADY_TRIALS: usize = 3;
/// Rebuild-and-evict rounds per phase-D arm; each arm reports its
/// minimum, the robust estimator against scheduler noise (a single
/// test-scale eviction is sub-millisecond).
const EVICT_TRIALS: usize = 3;
/// Lookups issued against the trie in phase A.
const LOOKUPS: usize = 1 << 20;

struct Options {
    scale_name: String,
    cfg: MegaCdnConfig,
    check: bool,
    out: std::path::PathBuf,
}

fn parse() -> Options {
    let mut opts = Options {
        scale_name: "quick".into(),
        cfg: MegaCdnConfig::quick(),
        check: false,
        out: std::path::PathBuf::from(BENCH_FILE),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value("--scale");
                opts.cfg = match v.as_str() {
                    "test" => MegaCdnConfig::test(),
                    "quick" => MegaCdnConfig::quick(),
                    "paper" => MegaCdnConfig::paper(),
                    other => panic!("unknown scale {other:?} (test|quick|paper)"),
                };
                opts.scale_name = v;
            }
            "--check" => opts.check = true,
            "--out" => opts.out = std::path::PathBuf::from(value("--out")),
            "--help" | "-h" => {
                println!("usage: megacdn [--scale test|quick|paper] [--check] [--out PATH]");
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}; try --help"),
        }
    }
    opts
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest of an installed-routes view: key order is the `BTreeMap`'s,
/// so equal views digest equal whatever history produced them.
fn digest_view(view: &std::collections::BTreeMap<Ipv4Prefix, u32>) -> u64 {
    let mut text = String::new();
    for (key, window) in view {
        text.push_str(&format!("{key}={window};"));
    }
    fnv1a64(text.as_bytes())
}

/// An observer handing out one pre-built sweep.
struct SweepObserver(Vec<CwndObservation>);
impl WindowObserver for SweepObserver {
    fn observe(&mut self) -> Vec<CwndObservation> {
        std::mem::take(&mut self.0)
    }
}

struct Measured {
    destinations: usize,
    trie_insert_per_sec: f64,
    trie_lookup_ns: f64,
    trie_nodes: usize,
    trie_mem_bytes: usize,
    lookup_digest: String,
    tick_ms: [u64; 3],
    tick_walk_ratio: f64,
    learned_entries: usize,
    installed_routes: usize,
    aggregation_ratio: f64,
    aggregate_merges: u64,
    aggregate_splits: u64,
    roundtrip_digest: String,
    roundtrip_ok: bool,
    reconcile_ms: u64,
    reconcile_converged: bool,
    evict_large_ms: f64,
    evict_small_ms: f64,
    evict_scaling_ratio: f64,
}

/// Phase A: raw trie cost at fleet scale — shuffled inserts, then
/// Zipf-popular lookups with the result stream digested.
fn bench_trie(cfg: &MegaCdnConfig) -> (f64, f64, usize, usize, String) {
    let n = cfg.total_destinations();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = DetRng::for_stream(cfg.seed, 0x5452_4945); // "TRIE"
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }

    let mut trie: LpmTrie<u32> = LpmTrie::new();
    let started = Instant::now();
    for &i in &order {
        let idx = i as usize;
        let (pop, host) = (idx / cfg.hosts_per_pop, idx % cfg.hosts_per_pop);
        let key = Ipv4Prefix::host(cfg.host_addr(pop, host));
        trie.insert(key, cfg.window_for(pop, host, false));
    }
    let insert_secs = started.elapsed().as_secs_f64();
    assert_eq!(trie.len(), n, "every destination inserted exactly once");

    let zipf = cfg.popularity();
    let mut rng = DetRng::for_stream(cfg.seed, 0x4c4f_4f4b); // "LOOK"
    let targets: Vec<std::net::Ipv4Addr> = (0..LOOKUPS)
        .map(|_| cfg.addr_of_index(cfg.rank_to_index(zipf.sample(&mut rng))))
        .collect();
    let started = Instant::now();
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &addr in &targets {
        let hit = trie.lookup(addr).map(|(_, w)| *w).unwrap_or(0);
        acc ^= u64::from(hit);
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let lookup_secs = started.elapsed().as_secs_f64();

    (
        n as f64 / insert_secs.max(1e-9),
        lookup_secs * 1e9 / LOOKUPS as f64,
        trie.node_count(),
        trie.mem_bytes(),
        format!("{acc:016x}"),
    )
}

/// Phase D: grouped-eviction scaling — the same 25%-of-units eviction
/// at `N` and `N/4` learned entries, timed within this run. The ratio
/// is **per evicted entry** (the large run also evicts 4× the
/// entries), so linear-with-size implementations show up directly.
/// Each arm takes the minimum over [`EVICT_TRIALS`] rebuild-and-evict
/// rounds: at test scale a single eviction is sub-millisecond, and the
/// minimum is the standard robust estimator against scheduler noise.
fn bench_eviction(cfg: &MegaCdnConfig) -> (f64, f64, f64) {
    let policy = AggregationPolicy::default();
    let run = |pops: usize| -> (f64, usize) {
        let strategy = HistoryStrategy::None;
        let units = pops * cfg.hosts_per_pop / 256;
        let mut best_ms = f64::INFINITY;
        let mut evicted_len = 0;
        for _ in 0..EVICT_TRIALS {
            let mut table = FinalTable::bounded(units * 3 / 4);
            let mut stamp = 0u64;
            for pop in 0..pops {
                for host in 0..cfg.hosts_per_pop {
                    let key = Ipv4Prefix::host(cfg.host_addr(pop, host));
                    stamp += 1;
                    table.blend(key, 40.0, &strategy, SimTime::from_secs(stamp));
                    table.set_window(&key, 40);
                }
            }
            let started = Instant::now();
            let evicted = table.enforce_capacity_grouped(|k| policy.covering_of(k));
            let elapsed = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                evicted.len(),
                (units / 4) * 256,
                "a quarter of the units leave, whole"
            );
            best_ms = best_ms.min(elapsed);
            evicted_len = evicted.len();
        }
        (best_ms, evicted_len)
    };
    let (large_ms, large_evicted) = run(cfg.pops);
    let (small_ms, small_evicted) = run(cfg.pops / 4);
    let per_entry_ratio =
        (large_ms / large_evicted as f64) / (small_ms / small_evicted as f64).max(1e-9);
    (large_ms, small_ms, per_entry_ratio)
}

fn measure(cfg: &MegaCdnConfig) -> Measured {
    cfg.validate().expect("benchmark shapes are valid");
    let destinations = cfg.total_destinations();
    eprintln!(
        "megacdn: {} PoPs x {} hosts = {destinations} destinations",
        cfg.pops, cfg.hosts_per_pop
    );

    eprintln!("phase A: trie insert/lookup...");
    let (trie_insert_per_sec, trie_lookup_ns, trie_nodes, trie_mem_bytes, lookup_digest) =
        bench_trie(cfg);

    eprintln!("phase B: aggregation arena (converge / diverge / re-converge)...");
    let config = RiptideConfig::builder()
        .history(HistoryStrategy::None)
        .aggregation(AggregationPolicy::default())
        .build()
        .expect("arena config is valid");
    let mut agent = RiptideAgent::new(config).expect("validated above");
    agent.attach_telemetry(AgentTelemetry::standalone(4096));
    let mut routes = RouteTable::new();
    let mut tick_ms = [0u64; 3];
    let mut digests = [0u64; 3];
    for (i, diverge) in [false, true, false].into_iter().enumerate() {
        let mut sweep = SweepObserver(cfg.observations(diverge));
        let started = Instant::now();
        agent.tick(SimTime::from_secs(i as u64 + 1), &mut sweep, &mut routes);
        tick_ms[i] = started.elapsed().as_millis() as u64;
        digests[i] = digest_view(agent.installed_view());
    }
    // The steady tick — the re-converged fleet polled again, nothing to
    // install or withdraw — against its yardstick: the cheapest thing
    // that still visits every learned entry, an ordered walk counting
    // the stale ones. Each is the minimum of [`STEADY_TRIALS`], as in
    // phase D.
    let ttl = agent.config().ttl;
    let (mut steady_tick_secs, mut walk_secs) = (f64::INFINITY, f64::INFINITY);
    for trial in 0..STEADY_TRIALS {
        let now = SimTime::from_secs(4 + trial as u64);
        let mut sweep = SweepObserver(cfg.observations(false));
        let started = Instant::now();
        let report = agent.tick(now, &mut sweep, &mut routes);
        steady_tick_secs = steady_tick_secs.min(started.elapsed().as_secs_f64());
        assert!(
            report.updates.is_empty() && report.merged.is_empty() && report.expired.is_empty(),
            "a steady tick changes nothing"
        );
        let started = Instant::now();
        let stale = agent
            .table()
            .iter()
            .filter(|(_, e)| now.saturating_since(e.last_updated) > ttl)
            .count();
        walk_secs = walk_secs.min(started.elapsed().as_secs_f64());
        assert_eq!(stale, 0, "every destination was just refreshed");
    }
    let tick_walk_ratio = steady_tick_secs / walk_secs.max(1e-9);
    let stats = agent.stats();
    let learned_entries = agent.table().len();
    let installed_routes = agent.installed_view().len();
    let aggregation_ratio = learned_entries as f64 / installed_routes.max(1) as f64;
    let roundtrip_ok = digests[0] == digests[2];

    eprintln!("phase C: reconcile audit over the aggregated view...");
    let dump = routes.clone();
    let started = Instant::now();
    let report = agent.reconcile(&dump, &mut routes);
    let reconcile_ms = started.elapsed().as_millis() as u64;
    let reconcile_converged = report.converged();

    eprintln!("phase D: grouped-eviction scaling...");
    let (evict_large_ms, evict_small_ms, evict_scaling_ratio) = bench_eviction(cfg);

    Measured {
        destinations,
        trie_insert_per_sec,
        trie_lookup_ns,
        trie_nodes,
        trie_mem_bytes,
        lookup_digest,
        tick_ms,
        tick_walk_ratio,
        learned_entries,
        installed_routes,
        aggregation_ratio,
        aggregate_merges: stats.aggregate_merges,
        aggregate_splits: stats.aggregate_splits,
        roundtrip_digest: format!("{:016x}", digests[0]),
        roundtrip_ok,
        reconcile_ms,
        reconcile_converged,
        evict_large_ms,
        evict_small_ms,
        evict_scaling_ratio,
    }
}

fn structural_gates(m: &Measured) -> Result<(), String> {
    if !m.roundtrip_ok {
        return Err(format!(
            "merge/split round trip drifted: tick-1 digest {} != tick-3",
            m.roundtrip_digest
        ));
    }
    if !m.reconcile_converged {
        return Err("reconcile audit over the aggregated view did not converge".into());
    }
    if m.aggregation_ratio < MIN_AGGREGATION_RATIO {
        return Err(format!(
            "aggregation ratio {:.1} below the {MIN_AGGREGATION_RATIO} floor \
             ({} learned / {} installed)",
            m.aggregation_ratio, m.learned_entries, m.installed_routes
        ));
    }
    if m.evict_scaling_ratio > MAX_EVICT_SCALING {
        return Err(format!(
            "grouped eviction scaled superlinearly: 4x the entries cost {:.1}x \
             ({:.1} ms vs {:.1} ms; ceiling {MAX_EVICT_SCALING}x)",
            m.evict_scaling_ratio, m.evict_large_ms, m.evict_small_ms
        ));
    }
    Ok(())
}

/// The `--check`-only gate: at the checked-in (million-destination)
/// scale a steady tick is a few walks of its table. Not part of
/// [`structural_gates`], which also run at test scale, where a
/// sub-millisecond tick is all fixed cost and the ratio says nothing.
fn tick_cost_gate(m: &Measured) -> Result<(), String> {
    if m.tick_walk_ratio > MAX_TICK_WALK_RATIO {
        return Err(format!(
            "a steady tick cost {:.1}x one ordered walk of its table \
             (ceiling {MAX_TICK_WALK_RATIO}x)",
            m.tick_walk_ratio
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = parse();
    banner(
        "Mega-CDN destination table",
        "trie lookup/insert, aggregation round trip, reconcile and eviction at 1M+ prefixes",
    );
    let m = measure(&opts.cfg);

    if opts.check {
        let checked = Baseline::read(&opts.out).and_then(|base| {
            base.recorded_with("scale", &opts.scale_name)?;
            base.digest_matches("lookup_digest", &m.lookup_digest, "the destination table")?;
            base.digest_matches(
                "roundtrip_digest",
                &m.roundtrip_digest,
                "the destination table",
            )
        });
        if let Err(why) = checked {
            eprintln!("megacdn: {why}");
            return ExitCode::FAILURE;
        }
        if let Err(why) = structural_gates(&m).and_then(|()| tick_cost_gate(&m)) {
            eprintln!("megacdn: GATE FAILED — {why}");
            return ExitCode::FAILURE;
        }
        println!(
            "# check: digests ok; ratio {:.0}x over {} destinations; \
             eviction scaling {:.1}x (<= {MAX_EVICT_SCALING}); steady tick {:.1}x a table walk \
             (<= {MAX_TICK_WALK_RATIO}); reconcile {} ms",
            m.aggregation_ratio,
            m.destinations,
            m.evict_scaling_ratio,
            m.tick_walk_ratio,
            m.reconcile_ms
        );
        return ExitCode::SUCCESS;
    }

    if let Err(why) = structural_gates(&m) {
        eprintln!("megacdn: GATE FAILED — {why}");
        return ExitCode::FAILURE;
    }

    let json = format!(
        "{{\n  \"benchmark\": \"megacdn-destination-table\",\n  \
         \"scale\": \"{}\",\n  \"pops\": {},\n  \"hosts_per_pop\": {},\n  \
         \"destinations\": {},\n  \"trie_insert_per_sec\": {:.0},\n  \
         \"trie_lookup_ns\": {:.1},\n  \"trie_nodes\": {},\n  \
         \"peak_table_bytes\": {},\n  \"lookup_digest\": \"{}\",\n  \
         \"tick_converge_ms\": {},\n  \"tick_diverge_ms\": {},\n  \
         \"tick_reconverge_ms\": {},\n  \"tick_walk_ratio\": {:.2},\n  \
         \"learned_entries\": {},\n  \
         \"installed_routes\": {},\n  \"aggregation_ratio\": {:.1},\n  \
         \"aggregate_merges\": {},\n  \"aggregate_splits\": {},\n  \
         \"roundtrip_digest\": \"{}\",\n  \"roundtrip_ok\": {},\n  \
         \"reconcile_ms\": {},\n  \"reconcile_converged\": {},\n  \
         \"evict_large_ms\": {:.1},\n  \"evict_small_ms\": {:.1},\n  \
         \"evict_scaling_ratio\": {:.2}\n}}\n",
        opts.scale_name,
        opts.cfg.pops,
        opts.cfg.hosts_per_pop,
        m.destinations,
        m.trie_insert_per_sec,
        m.trie_lookup_ns,
        m.trie_nodes,
        m.trie_mem_bytes,
        m.lookup_digest,
        m.tick_ms[0],
        m.tick_ms[1],
        m.tick_ms[2],
        m.tick_walk_ratio,
        m.learned_entries,
        m.installed_routes,
        m.aggregation_ratio,
        m.aggregate_merges,
        m.aggregate_splits,
        m.roundtrip_digest,
        m.roundtrip_ok,
        m.reconcile_ms,
        m.reconcile_converged,
        m.evict_large_ms,
        m.evict_small_ms,
        m.evict_scaling_ratio,
    );
    std::fs::write(&opts.out, &json)
        .unwrap_or_else(|e| panic!("writing {}: {e}", opts.out.display()));
    print!("{json}");
    println!(
        "# {} destinations -> {} routes ({:.0}x); trie {:.1} ns/lookup, {} bytes",
        m.destinations, m.installed_routes, m.aggregation_ratio, m.trie_lookup_ns, m.trie_mem_bytes
    );
    ExitCode::SUCCESS
}

//! Million-prefix destination-table gate: the compressed trie, the
//! aggregation pass, capacity-bounded eviction and reconcile audits,
//! all at mega-CDN scale (1 M+ learned destinations at `--scale quick`).
//!
//! ```text
//! cargo run --release -p riptide-bench -- megacdn [--scale test|quick|paper]
//!     [--check] [--out PATH]
//! ```
//!
//! * A default run measures and rewrites `BENCH_megacdn.json`.
//! * `--check` re-measures and compares against the checked-in record
//!   instead: a lookup or round-trip digest mismatch (behaviour drift)
//!   is always fatal, as is a structural gate — the merge/split round
//!   trip must be exact, the reconcile audit must converge, aggregation
//!   must fold the table at least [`MIN_AGGREGATION_RATIO`]×, grouped
//!   eviction at `N` entries must cost no more than
//!   [`MAX_EVICT_SCALING`]× the `N/4` run, and a tick must touch no
//!   more of the learned table than it has to (counted, see
//!   [`tick_count_gate`]). `--check` also gates the steady tick of an
//!   agent warm-restarted from the arena's state file at no more than
//!   [`MAX_RESTART_TICK_RATIO`]× the cold-built agent's in the median
//!   trial (the ratios are measured within the run, so the gates are
//!   immune to machine speed).
//!
//! The record holds shape, digests, counts and the first two ratios — no
//! absolute time. What the trie, a tick, a reconcile or an eviction
//! *costs* is the repo benchmark's business (`linuxnet.lpm.*`,
//! `core.agent.*`, `core.reconcile.ms`, `core.table.evict_ms` on
//! `megafleet-tick`; see `benchmark/README.md`).

use std::time::Instant;

use riptide::prelude::*;
use riptide_bench::{banner, quoted, Baseline, Outcome, RunOptions};
use riptide_cdn::megacdn::MegaCdnConfig;
use riptide_linuxnet::lpm::LpmTrie;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::rng::DetRng;
use riptide_simnet::time::SimTime;

const BENCH_FILE: &str = "BENCH_megacdn.json";
/// The gate fails unless learned entries ≥ this × installed routes.
const MIN_AGGREGATION_RATIO: f64 = 4.0;
/// The gate fails when grouped eviction at `N` entries costs more
/// than this × the `N/4` run **per evicted entry**. The sorted
/// `O(n + k log k)` implementation's per-entry cost grows only with
/// cache pressure (≈ 2–2.5× here); a repeated-min scan (`O(n·k)`) has
/// per-entry cost proportional to `n` and lands at ≈ 4×.
const MAX_EVICT_SCALING: f64 = 3.5;
/// `--check` fails when the steady tick of an agent warm-restarted from
/// the arena's state file costs more than this × the cold-built agent's.
/// A restore builds the learned table as one array laid out like the
/// cold-built one, so it ticks as fast (≈ 1.0× here). The gate catches a
/// restore that leaves the table slower to walk: when the table was a
/// B-tree, one grown by a million single inserts read ≈ 1.35×.
const MAX_RESTART_TICK_RATIO: f64 = 1.15;
/// Steady ticks timed for `restart_tick_ratios`, one per trial. Five, not
/// three: with three, scheduler noise alone pushed one run in five on a
/// shared machine past the restart gate's ceiling (1.18×).
const STEADY_TRIALS: usize = 5;
/// Rebuild-and-evict rounds per phase-D arm; each arm reports its
/// minimum, the robust estimator against scheduler noise (a single
/// test-scale eviction is sub-millisecond).
const EVICT_TRIALS: usize = 3;
/// Lookups issued against the trie in phase A.
const LOOKUPS: usize = 1 << 20;

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

/// What one tick touched of the learned table: [`AgentStats`]'
/// `swept_entries` and `pass_members` over that tick.
#[derive(Debug, Clone, Copy, Default)]
struct TickCounts {
    swept: u64,
    pass_members: u64,
}

impl TickCounts {
    /// Runs `tick` and counts what it touched.
    fn of<T>(agent: &mut RiptideAgent, tick: impl FnOnce(&mut RiptideAgent) -> T) -> (T, Self) {
        let before = agent.stats();
        let out = tick(agent);
        let after = agent.stats();
        let counts = TickCounts {
            swept: after.swept_entries - before.swept_entries,
            pass_members: after.pass_members - before.pass_members,
        };
        (out, counts)
    }
}

/// The `/24` slabs in which the divergent sweep moves some host's window
/// away from the convergent one. Both sweeps list the same destinations
/// in the same order.
fn moved_slabs(cfg: &MegaCdnConfig) -> usize {
    let (calm, diverged) = (cfg.observations(false), cfg.observations(true));
    let mut slabs: Vec<Ipv4Prefix> = calm
        .iter()
        .zip(&diverged)
        .filter(|(a, b)| a.cwnd != b.cwnd)
        .map(|(a, _)| Ipv4Prefix::host(a.dst).covering(24))
        .collect();
    slabs.dedup();
    slabs.len()
}

struct Measured {
    destinations: usize,
    trie_nodes: usize,
    trie_mem_bytes: usize,
    lookup_digest: String,
    /// Learned entries the steady tick swept, and read in its
    /// aggregation pass.
    steady_counts: TickCounts,
    /// The same for the divergent tick.
    divergent_counts: TickCounts,
    /// `/24` slabs with a member whose window the divergent sweep moves.
    moved_slabs: usize,
    /// Per trial, the restarted agent's steady tick over the cold-built
    /// one's, the two timed back to back.
    restart_tick_ratios: [f64; STEADY_TRIALS],
    learned_entries: usize,
    installed_routes: usize,
    aggregation_ratio: f64,
    aggregate_merges: u64,
    aggregate_splits: u64,
    roundtrip_digest: String,
    roundtrip_ok: bool,
    reconcile_converged: bool,
    evict_scaling_ratio: f64,
}

/// Phase A: the trie at fleet scale — shuffled inserts, then
/// Zipf-popular lookups with the result stream digested. Returns the
/// node count, the arena's bytes and the lookup digest.
fn build_and_probe_trie(cfg: &MegaCdnConfig) -> (usize, usize, String) {
    let n = cfg.total_destinations();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = DetRng::for_stream(cfg.seed, 0x5452_4945); // "TRIE"
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }

    let mut trie: LpmTrie<u32> = LpmTrie::new();
    for &i in &order {
        let idx = i as usize;
        let (pop, host) = (idx / cfg.hosts_per_pop, idx % cfg.hosts_per_pop);
        let key = Ipv4Prefix::host(cfg.host_addr(pop, host));
        trie.insert(key, cfg.window_for(pop, host, false));
    }
    assert_eq!(trie.len(), n, "every destination inserted exactly once");

    let zipf = cfg.popularity();
    let mut rng = DetRng::for_stream(cfg.seed, 0x4c4f_4f4b); // "LOOK"
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..LOOKUPS {
        let addr = cfg.addr_of_index(cfg.rank_to_index(zipf.sample(&mut rng)));
        let hit = trie.lookup(addr).map(|(_, w)| *w).unwrap_or(0);
        acc ^= u64::from(hit);
        acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (trie.node_count(), trie.mem_bytes(), format!("{acc:016x}"))
}

/// Phase D: grouped-eviction scaling — the same 25%-of-units eviction
/// at `N` and `N/4` learned entries, timed within this run. The ratio
/// is **per evicted entry** (the large run also evicts 4× the
/// entries), so linear-with-size implementations show up directly.
/// Each arm takes the minimum over [`EVICT_TRIALS`] rebuild-and-evict
/// rounds: at test scale a single eviction is sub-millisecond, and the
/// minimum is the standard robust estimator against scheduler noise.
fn eviction_scaling(cfg: &MegaCdnConfig) -> f64 {
    let policy = AggregationPolicy::default();
    // Seconds per evicted entry at `pops` PoPs.
    let run = |pops: usize| -> f64 {
        let strategy = LearningPolicy::None;
        let units = pops * cfg.hosts_per_pop / 256;
        let mut best = f64::INFINITY;
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
            let elapsed = started.elapsed().as_secs_f64();
            assert_eq!(
                evicted.len(),
                (units / 4) * 256,
                "a quarter of the units leave, whole"
            );
            best = best.min(elapsed / evicted.len() as f64);
        }
        best
    };
    run(cfg.pops) / run(cfg.pops / 4).max(1e-15)
}

/// One steady tick — the re-converged fleet polled again, nothing to
/// install or withdraw — in seconds.
fn steady_tick(
    agent: &mut RiptideAgent,
    routes: &mut RouteTable,
    cfg: &MegaCdnConfig,
    now: SimTime,
) -> f64 {
    let mut sweep = SweepObserver(cfg.observations(false));
    let started = Instant::now();
    let report = agent.tick(now, &mut sweep, routes);
    let secs = started.elapsed().as_secs_f64();
    assert!(
        report.updates.is_empty() && report.merged.is_empty() && report.expired.is_empty(),
        "a steady tick changes nothing"
    );
    secs
}

/// `agent` through a warm restart at `now` as a daemon runs one:
/// snapshot → `encode_state` → `decode_state` → `replay` →
/// `restore_state` into a fresh agent over an empty kernel table.
fn warm_restart(agent: &RiptideAgent, now: SimTime) -> (RiptideAgent, RouteTable) {
    let bytes = encode_state(&agent.snapshot_state(now), &[]);
    let state = decode_state(&bytes).expect("a state file just encoded decodes");
    let replayed = replay(&state.snapshot, &state.journal);
    let mut restarted = RiptideAgent::new(agent.config().clone()).expect("validated before");
    restarted.attach_telemetry(AgentTelemetry::standalone(4096));
    let mut routes = RouteTable::new();
    restarted.restore_state(&replayed, now, &mut routes);
    (restarted, routes)
}

fn measure(cfg: &MegaCdnConfig) -> Measured {
    cfg.validate().expect("benchmark shapes are valid");
    let destinations = cfg.total_destinations();
    eprintln!(
        "megacdn: {} PoPs x {} hosts = {destinations} destinations",
        cfg.pops, cfg.hosts_per_pop
    );

    eprintln!("phase A: trie insert/lookup...");
    let (trie_nodes, trie_mem_bytes, lookup_digest) = build_and_probe_trie(cfg);

    eprintln!("phase B: aggregation arena (converge / diverge / re-converge)...");
    let config = RiptideConfig::builder()
        .policy(LearningPolicy::None)
        .aggregation(AggregationPolicy::default())
        .build()
        .expect("arena config is valid");
    let mut agent = RiptideAgent::new(config).expect("validated above");
    agent.attach_telemetry(AgentTelemetry::standalone(4096));
    let mut routes = RouteTable::new();
    let mut digests = [0u64; 3];
    let mut divergent_counts = TickCounts::default();
    for (i, diverge) in [false, true, false].into_iter().enumerate() {
        let mut sweep = SweepObserver(cfg.observations(diverge));
        let now = SimTime::from_secs(i as u64 + 1);
        let ((), counts) = TickCounts::of(&mut agent, |agent| {
            agent.tick(now, &mut sweep, &mut routes);
        });
        if diverge {
            divergent_counts = counts;
        }
        digests[i] = digest_view(agent.installed_view());
    }
    // The steady tick of the same fleet warm-restarted into a fresh
    // agent, timed right before the cold-built agent's in each trial so
    // both ticks of a trial see the same machine. The restarted agent's
    // first tick re-decides every covering prefix, as the first tick
    // after any restore does, and is not timed: the trials compare how
    // fast the two tables tick, not that one full pass.
    let restart_at = SimTime::from_secs(3);
    let (mut restarted, mut restarted_routes) = warm_restart(&agent, restart_at);
    steady_tick(&mut restarted, &mut restarted_routes, cfg, restart_at);
    let mut restart_tick_ratios = [0.0; STEADY_TRIALS];
    let mut steady_counts = TickCounts::default();
    for (trial, ratio) in restart_tick_ratios.iter_mut().enumerate() {
        let now = SimTime::from_secs(4 + trial as u64);
        let restarted_tick = steady_tick(&mut restarted, &mut restarted_routes, cfg, now);
        let (cold_built, counts) = TickCounts::of(&mut agent, |agent| {
            steady_tick(agent, &mut routes, cfg, now)
        });
        steady_counts = counts;
        *ratio = restarted_tick / cold_built.max(1e-9);
    }
    drop((restarted, restarted_routes));
    let stats = agent.stats();
    let learned_entries = agent.table().len();
    let installed_routes = agent.installed_view().len();

    eprintln!("phase C: reconcile audit over the aggregated view...");
    let dump = routes.clone();
    let reconcile_converged = agent.reconcile(&dump, &mut routes).converged();

    eprintln!("phase D: grouped-eviction scaling...");
    let evict_scaling_ratio = eviction_scaling(cfg);

    Measured {
        destinations,
        trie_nodes,
        trie_mem_bytes,
        lookup_digest,
        steady_counts,
        divergent_counts,
        moved_slabs: moved_slabs(cfg),
        restart_tick_ratios,
        learned_entries,
        installed_routes,
        aggregation_ratio: learned_entries as f64 / installed_routes.max(1) as f64,
        aggregate_merges: stats.aggregate_merges,
        aggregate_splits: stats.aggregate_splits,
        roundtrip_digest: format!("{:016x}", digests[0]),
        roundtrip_ok: digests[0] == digests[2],
        reconcile_converged,
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
            "grouped eviction scaled superlinearly: at 4x the entries an evicted entry cost \
             {:.1}x (ceiling {MAX_EVICT_SCALING}x)",
            m.evict_scaling_ratio
        ));
    }
    tick_count_gate(m)
}

/// What a tick may touch of the learned table, counted rather than
/// timed, so the gate reads the same on every machine and every run: the
/// steady tick (the fleet polled again, nothing moved) sweeps exactly the
/// learned entries and runs no aggregation pass, and the divergent tick's
/// pass reads no more than the address span of the `/24`s it moved.
fn tick_count_gate(m: &Measured) -> Result<(), String> {
    let (steady, learned) = (m.steady_counts, m.learned_entries as u64);
    if steady.swept != learned {
        return Err(format!(
            "a steady tick swept {} learned entries, the table holds {learned}",
            steady.swept
        ));
    }
    if steady.pass_members != 0 {
        return Err(format!(
            "a steady tick's aggregation pass read {} entries; nothing moved",
            steady.pass_members
        ));
    }
    let ceiling = 256 * m.moved_slabs as u64;
    if m.divergent_counts.pass_members > ceiling {
        return Err(format!(
            "the divergent tick's aggregation pass read {} entries, more than the {ceiling} \
             host routes of the {} slabs it moved",
            m.divergent_counts.pass_members, m.moved_slabs
        ));
    }
    Ok(())
}

/// The `--check`-only gate: a warm restart must rebuild a table that
/// ticks as fast as the cold-built one it was snapshotted from. Not part
/// of [`structural_gates`], which also run at test scale, where a
/// sub-millisecond tick is all fixed cost and the ratio says nothing.
/// It gates the median trial: a
/// ratio of two minimums taken trials apart read 1.20–1.40× inside a busy
/// CI run where standalone runs read 0.97–1.06×.
fn restart_tick_gate(m: &Measured) -> Result<(), String> {
    let ratio = m.restart_tick_ratio();
    if ratio > MAX_RESTART_TICK_RATIO {
        return Err(format!(
            "a warm-restarted agent's steady tick cost {ratio:.2}x the cold-built agent's \
             in the median trial (ceiling {MAX_RESTART_TICK_RATIO}x; trials {})",
            m.restart_trials()
        ));
    }
    Ok(())
}

impl Measured {
    /// The median of the per-trial restart ratios.
    fn restart_tick_ratio(&self) -> f64 {
        let mut sorted = self.restart_tick_ratios;
        sorted.sort_by(f64::total_cmp);
        sorted[STEADY_TRIALS / 2]
    }

    /// The per-trial restart ratios, in trial order.
    fn restart_trials(&self) -> String {
        let ratios: Vec<String> = self
            .restart_tick_ratios
            .iter()
            .map(|r| format!("{r:.2}"))
            .collect();
        ratios.join(" ")
    }
}

/// Runs the gate (see the module header); `--scale` picks the
/// [`MegaCdnConfig`] of the same name.
pub fn megacdn(opts: &RunOptions) -> Outcome {
    banner(
        "Mega-CDN destination table",
        "trie digest, aggregation round trip, reconcile and eviction scaling at 1M+ prefixes",
    );
    let cfg = match opts.scale_name.as_str() {
        "test" => MegaCdnConfig::test(),
        "quick" => MegaCdnConfig::quick(),
        "paper" => MegaCdnConfig::paper(),
        other => unreachable!("the parser admits only test|quick|paper, not {other:?}"),
    };
    let m = measure(&cfg);
    let gate_failed = |why| format!("GATE FAILED — {why}");

    if opts.check {
        let base = Baseline::read(opts, BENCH_FILE)?;
        base.recorded_with("scale", &opts.scale_name)?;
        base.digest_matches("lookup_digest", &m.lookup_digest, "the destination table")?;
        base.digest_matches(
            "roundtrip_digest",
            &m.roundtrip_digest,
            "the destination table",
        )?;
        structural_gates(&m)
            .and_then(|()| restart_tick_gate(&m))
            .map_err(gate_failed)?;
        println!(
            "# check: digests ok; ratio {:.0}x over {} destinations; \
             eviction scaling {:.1}x (<= {MAX_EVICT_SCALING}); steady tick swept {} and \
             read {} pass members, divergent tick read {} over {} moved slabs; \
             restarted tick {:.2}x the cold-built one \
             in the median trial (<= {MAX_RESTART_TICK_RATIO}; trials {})",
            m.aggregation_ratio,
            m.destinations,
            m.evict_scaling_ratio,
            m.steady_counts.swept,
            m.steady_counts.pass_members,
            m.divergent_counts.pass_members,
            m.moved_slabs,
            m.restart_tick_ratio(),
            m.restart_trials(),
        );
        return Ok(());
    }

    structural_gates(&m).map_err(gate_failed)?;
    let mut record = Baseline::create(opts, BENCH_FILE);
    record.push("benchmark", quoted("megacdn-destination-table"));
    record.push("scale", quoted(&opts.scale_name));
    record.push("pops", cfg.pops);
    record.push("hosts_per_pop", cfg.hosts_per_pop);
    record.push("destinations", m.destinations);
    record.push("trie_nodes", m.trie_nodes);
    record.push("peak_table_bytes", m.trie_mem_bytes);
    record.push("lookup_digest", quoted(&m.lookup_digest));
    record.push("steady_swept_entries", m.steady_counts.swept);
    record.push("steady_pass_members", m.steady_counts.pass_members);
    record.push("divergent_pass_members", m.divergent_counts.pass_members);
    record.push("moved_slabs", m.moved_slabs);
    record.push("learned_entries", m.learned_entries);
    record.push("installed_routes", m.installed_routes);
    record.push("aggregation_ratio", format!("{:.1}", m.aggregation_ratio));
    record.push("aggregate_merges", m.aggregate_merges);
    record.push("aggregate_splits", m.aggregate_splits);
    record.push("roundtrip_digest", quoted(&m.roundtrip_digest));
    record.push("roundtrip_ok", m.roundtrip_ok);
    record.push("reconcile_converged", m.reconcile_converged);
    record.push(
        "evict_scaling_ratio",
        format!("{:.2}", m.evict_scaling_ratio),
    );
    record.save();
    print!("{}", record.text());
    println!(
        "# {} destinations -> {} routes ({:.0}x); trie {} nodes, {} bytes",
        m.destinations, m.installed_routes, m.aggregation_ratio, m.trie_nodes, m.trie_mem_bytes
    );
    Ok(())
}

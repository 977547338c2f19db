//! Swarm runs of one agent: a seeded draw switches on a subset of the
//! agent's subsystems and faults, each at a drawn rate, drives the agent
//! through a few simulated minutes of polls, and checks its invariants
//! after every step.
//!
//! The subset is drawn from: the loss guard (with retransmit bursts in the
//! traffic), prefix aggregation, a capacity bound, an advisory-suspend
//! window, `/24` granularity, a controller that refuses about one call in
//! eight, churn of the kernel table behind the agent's back with
//! reconciler audits, degraded ticks, gossip merges, and restarts through
//! the state file into a fresh agent at a later instant.
//!
//! After every step:
//! - after an audit, the kernel's Riptide routes equal the installed view;
//! - every Riptide `initcwnd` in the kernel is in `[c_min, c_max]`;
//! - no key is installed under a live aggregate that covers it;
//! - every breaker a snapshot exports has a learned entry;
//! - the state bytes, decoded and replayed, give the live table's entries;
//! - no count of `AgentStats` goes down, and the attached telemetry's
//!   counters and gauges equal the agent's own.
//!
//! A failure names the case's seed, its subset and the step, and prints a
//! command that replays it.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use riptide::prelude::*;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::{RouteAttrs, RouteProto, RouteTable};
use riptide_simnet::rng::DetRng;
use riptide_simnet::time::{SimDuration, SimTime};

/// What one case switched on, and at what rate.
#[derive(Debug)]
struct Subset {
    guard: bool,
    aggregation: bool,
    capacity: Option<usize>,
    /// Steps under a Suspend advisory: `from..from + len`.
    suspend: Option<(usize, usize)>,
    prefix24: bool,
    /// Share of controller calls refused.
    refusals: f64,
    /// Share of steps that churn the kernel table, and how many steps
    /// apart the reconciler audits it (0: only the closing audit).
    churn: f64,
    audit_every: usize,
    /// Shares of steps that are degraded ticks, gossip merges and restarts.
    degraded: f64,
    gossip: f64,
    restart: f64,
}

impl Subset {
    fn draw(rng: &mut DetRng) -> Subset {
        let mut on = |p: f64| rng.chance(p);
        let (guard, aggregation, capacity, suspend, prefix24) =
            (on(0.5), on(0.5), on(0.4), on(0.3), on(0.3));
        let (refusals, churn, degraded, gossip, restart) =
            (on(0.5), on(0.5), on(0.4), on(0.4), on(0.5));
        Subset {
            guard,
            aggregation,
            capacity: capacity.then(|| 3 + rng.below(40)),
            suspend: suspend.then(|| (2 + rng.below(30), 1 + rng.below(6))),
            prefix24,
            refusals: if refusals { 0.125 } else { 0.0 },
            churn: if churn { rng.uniform(0.1, 0.5) } else { 0.0 },
            audit_every: if churn { 1 + rng.below(5) } else { 0 },
            degraded: if degraded {
                rng.uniform(0.05, 0.25)
            } else {
                0.0
            },
            gossip: if gossip { rng.uniform(0.05, 0.25) } else { 0.0 },
            restart: if restart { rng.uniform(0.02, 0.1) } else { 0.0 },
        }
    }

    fn config(&self, rng: &mut DetRng) -> RiptideConfig {
        let policies = registered_policies();
        let mut builder = RiptideConfig::builder()
            .policy(policies[rng.below(policies.len())].1)
            .ttl(SimDuration::from_secs(8 + rng.below(20) as u64));
        if self.guard {
            builder = builder.guard(GuardConfig {
                half_life: SimDuration::from_secs(2 + rng.below(10) as u64),
                clean_probes: 1 + rng.below(3) as u32,
                ..GuardConfig::default()
            });
        }
        if self.prefix24 {
            builder = builder.granularity(Granularity::Prefix(24));
        }
        if self.aggregation {
            // Under /24 keys, the /24s of one /16 fold into it.
            let aggregate_len = if self.prefix24 { 16 } else { 24 };
            builder = builder.aggregation(AggregationPolicy {
                aggregate_len,
                min_siblings: 2 + rng.below(2),
                ..AggregationPolicy::default()
            });
        }
        if let Some(capacity) = self.capacity {
            builder = builder.table_capacity(capacity);
        }
        builder.build().expect("a drawn config is valid")
    }
}

/// The kernel's routes, one per prefix, behind a controller that refuses
/// a drawn share of calls. The routes are a map, not a `RouteTable`: the
/// audit reads them as a `RouteTable` built afresh in key order.
struct Kernel {
    routes: BTreeMap<Ipv4Prefix, RouteAttrs>,
    rng: DetRng,
    refusals: f64,
}

impl Kernel {
    fn refuse(&mut self) -> Result<(), ControlError> {
        match self.rng.chance(self.refusals) {
            true => Err(ControlError::new("refused")),
            false => Ok(()),
        }
    }

    /// The Riptide-signature routes: key → `initcwnd`.
    fn riptide_routes(&self) -> BTreeMap<Ipv4Prefix, u32> {
        self.routes
            .iter()
            .filter(|(_, attrs)| is_riptide_route(attrs))
            .map(|(key, attrs)| (*key, attrs.initcwnd.expect("a signature")))
            .collect()
    }

    /// What `ip route show` would list.
    fn dump(&self) -> RouteTable {
        let mut table = RouteTable::new();
        for (key, attrs) in &self.routes {
            table.replace(*key, attrs.clone());
        }
        table
    }

    /// Changes the routes behind the agent's back: foreign routes come
    /// and go where the agent never installs, and Riptide routes are
    /// deleted, rewritten inside the clamp or planted as orphans.
    fn churn(&mut self, rng: &mut DetRng, host: impl Fn(usize, usize) -> Ipv4Addr) {
        let riptide: Vec<Ipv4Prefix> = self.riptide_routes().into_keys().collect();
        let picked = (!riptide.is_empty()).then(|| riptide[rng.below(riptide.len())]);
        let foreign = Ipv4Prefix::new(Ipv4Addr::new(192, 168, rng.below(4) as u8, 0), 24);
        let window = 10 + rng.below(91) as u32;
        match (rng.below(5), picked) {
            (0, _) => {
                let attrs = RouteAttrs {
                    dev: Some("eth0".into()),
                    proto: RouteProto::Kernel,
                    ..RouteAttrs::default()
                };
                self.routes.insert(foreign, attrs);
            }
            (1, _) => {
                self.routes.remove(&foreign);
            }
            (2, Some(key)) => {
                self.routes.remove(&key);
            }
            (3, Some(key)) => {
                self.routes.insert(key, RouteAttrs::initcwnd(window));
            }
            _ => {
                let orphan = Ipv4Prefix::host(host(rng.below(6), rng.below(12)));
                self.routes.insert(orphan, RouteAttrs::initcwnd(window));
            }
        }
    }
}

impl RouteController for Kernel {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        self.refuse()?;
        self.routes.insert(key, RouteAttrs::initcwnd(window));
        Ok(())
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        self.refuse()?;
        match self.routes.remove(&key) {
            Some(_) => Ok(()),
            None => Err(ControlError::new(format!("no route to {key}"))),
        }
    }
}

/// Every count of `stats`, named.
fn counts(s: &AgentStats) -> [(&'static str, u64); 19] {
    [
        ("ticks", s.ticks),
        ("observations", s.observations),
        ("route_updates", s.route_updates),
        ("route_expirations", s.route_expirations),
        ("errors", s.errors),
        ("degraded_ticks", s.degraded_ticks),
        ("guard_trips", s.guard_trips),
        ("table_evictions", s.table_evictions),
        ("reconcile_repairs", s.reconcile_repairs),
        ("aggregate_merges", s.aggregate_merges),
        ("aggregate_splits", s.aggregate_splits),
        ("restored_routes", s.restored_routes),
        ("sync_merges", s.sync_merges),
        ("suppressed_installs", s.suppressed_installs),
        ("clamped_installs", s.clamped_installs),
        ("shutdown_withdrawals", s.shutdown_withdrawals),
        ("persist_skipped_entries", s.persist_skipped_entries),
        ("swept_entries", s.swept_entries),
        ("pass_members", s.pass_members),
    ]
}

/// The published metric of each count telemetry exports.
const METRICS: [(&str, &str); 15] = [
    ("ticks", "riptide_ticks_total"),
    ("observations", "riptide_observations_total"),
    ("route_updates", "riptide_route_updates_total"),
    ("route_expirations", "riptide_route_expirations_total"),
    ("errors", "riptide_control_errors_total"),
    ("degraded_ticks", "riptide_degraded_ticks_total"),
    ("guard_trips", "riptide_guard_trips_total"),
    ("table_evictions", "riptide_table_evictions_total"),
    ("reconcile_repairs", "riptide_reconcile_repairs_total"),
    ("suppressed_installs", "riptide_suppressed_installs_total"),
    ("shutdown_withdrawals", "riptide_shutdown_withdrawals_total"),
    ("clamped_installs", "riptide_clamped_installs_total"),
    ("restored_routes", "riptide_restored_routes_total"),
    ("sync_merges", "riptide_sync_merged_total"),
    (
        "persist_skipped_entries",
        "riptide_persist_skipped_entries_total",
    ),
];

/// The invariants every step must keep. `audited`: the step ended with a
/// reconciler audit. `before`: the agent's counts before the step, or
/// `None` for an agent the step made.
fn check(
    agent: &RiptideAgent,
    kernel: &Kernel,
    now: SimTime,
    audited: bool,
    before: Option<&AgentStats>,
) -> Result<(), String> {
    let view = agent.installed_view();
    let riptide = kernel.riptide_routes();
    if audited && &riptide != view {
        return Err(format!(
            "after an audit the kernel holds {riptide:?}, the view {view:?}"
        ));
    }
    let config = agent.config();
    let clamp = config.cwnd_min..=config.cwnd_max;
    if let Some((key, window)) = riptide.iter().find(|(_, w)| !clamp.contains(w)) {
        return Err(format!("{key} holds initcwnd {window}, outside {clamp:?}"));
    }
    if let Some(agg) = agent.aggregator() {
        if let Some(key) = view.keys().find(|key| agg.covering_of(key).is_some()) {
            return Err(format!("{key} is installed under a live aggregate"));
        }
    }

    let snapshot = agent.snapshot_state(now);
    if let Some(orphan) = snapshot
        .guards
        .iter()
        .find(|g| agent.table().get(&g.key).is_none())
    {
        return Err(format!("a breaker for {} has no learned entry", orphan.key));
    }
    let bytes = encode_state(&snapshot, &[]);
    let file = decode_state(&bytes).map_err(|e| format!("state bytes do not decode: {e}"))?;
    let replayed = replay(&file.snapshot, &file.journal);
    let entries = |e: &SnapshotEntry| (e.key, e.window, e.last_fresh, e.last_updated);
    let replayed: Vec<_> = replayed
        .entries
        .iter()
        .map(|e| (entries(e), e.history.clone()))
        .collect();
    let live: Vec<_> = agent
        .table()
        .iter()
        .map(|(k, e)| {
            (
                (*k, e.window, e.last_fresh, e.last_updated),
                e.history.clone(),
            )
        })
        .collect();
    if replayed != live {
        return Err(format!(
            "replayed state {replayed:?} is not the live table {live:?}"
        ));
    }

    let stats = agent.stats();
    let now_counts = counts(&stats);
    if let Some(before) = before {
        for ((name, was), (_, is)) in counts(before).iter().zip(&now_counts) {
            if is < was {
                return Err(format!("stats.{name} went down from {was} to {is}"));
            }
        }
    }
    let metrics = agent.telemetry().expect("attached").registry().snapshot();
    for (count, metric) in METRICS {
        let (_, want) = now_counts.iter().find(|(n, _)| *n == count).expect("named");
        let published = metrics.value(metric).unwrap_or(0);
        if published != *want {
            return Err(format!("{metric} reads {published}, stats.{count} {want}"));
        }
    }
    let (open, half_open) = snapshot
        .guards
        .iter()
        .fold((0, 0), |(o, h), g| match g.breaker {
            BreakerState::Open => (o + 1, h),
            BreakerState::HalfOpen => (o, h + 1),
            BreakerState::Closed => (o, h),
        });
    let gauges = [
        ("riptide_table_entries", agent.table().len() as u64),
        ("riptide_installed_routes", view.len() as u64),
        ("riptide_breaker_open", open),
        ("riptide_breaker_half_open", half_open),
    ];
    for (metric, want) in gauges {
        let published = metrics.value(metric).unwrap_or(0);
        if published != want {
            return Err(format!(
                "gauge {metric} reads {published}, the agent {want}"
            ));
        }
    }
    Ok(())
}

/// A fresh agent with its own telemetry.
fn fresh(config: &RiptideConfig) -> RiptideAgent {
    let mut agent = RiptideAgent::new(config.clone()).expect("valid");
    agent.attach_telemetry(AgentTelemetry::standalone(64));
    agent
}

/// One swarm case: `Err` names the step that broke an invariant.
fn swarm(seed: u64) -> Result<(), String> {
    let mut rng = DetRng::for_stream(seed, 0x5357_524d); // "SWRM"
    let subset = Subset::draw(&mut rng);
    let config = subset.config(&mut rng);
    let fail = |step: usize, what: &str, why: String| {
        let seed_var = std::env::var("PROPTEST_SEED")
            .map(|s| format!("PROPTEST_SEED={s} "))
            .unwrap_or_default();
        format!(
            "seed {seed:#018x}, step {step} ({what}): {why}\n  subset: {subset:?}\n  \
             replay: {seed_var}cargo test --release -p riptide --test riptide swarm::"
        )
    };

    let mut agent = fresh(&config);
    let mut kernel = Kernel {
        routes: BTreeMap::new(),
        rng: rng.fork(1),
        refusals: subset.refusals,
    };
    let host = |slab: usize, host: usize| {
        Ipv4Addr::new(10, (slab / 3) as u8, (slab % 3) as u8, 1 + host as u8)
    };
    let (slabs, hosts) = (2 + rng.below(5), 2 + rng.below(10));
    let slab_window: Vec<u32> = (0..slabs).map(|_| 15 + rng.below(80) as u32).collect();
    // Cumulative (bytes acked, retransmits) per host, as `ss` counts them.
    let mut counters = vec![(0u64, 0u64); slabs * hosts];
    let mut now = SimTime::ZERO;
    let steps = 40 + rng.below(30);
    for step in 0..steps {
        now += SimDuration::from_secs([1, 1, 1, 2, 3, 12, 30][rng.below(7)]);
        let before = agent.stats();
        if rng.chance(subset.churn) {
            kernel.churn(&mut rng, host);
        }
        let mut fresh_agent = false;
        let what = if rng.chance(subset.restart) {
            let bytes = encode_state(&agent.snapshot_state(now), &[]);
            now += SimDuration::from_secs(rng.below(40) as u64);
            let file = decode_state(&bytes).map_err(|e| fail(step, "restart", e.to_string()))?;
            agent = fresh(&config);
            agent.restore_state(&replay(&file.snapshot, &file.journal), now, &mut kernel);
            fresh_agent = true;
            "restart"
        } else if rng.chance(subset.degraded) {
            agent.tick_degraded(now, &mut kernel);
            "degraded tick"
        } else if rng.chance(subset.gossip) {
            let delta: Vec<SyncEntry> = (0..1 + rng.below(6))
                .map(|_| SyncEntry {
                    key: config
                        .granularity
                        .key(host(rng.below(slabs), rng.below(hosts + 2))),
                    window: 1 + rng.below(150) as u32,
                    last_updated: SimTime::ZERO
                        + now
                            .saturating_since(SimTime::ZERO)
                            .saturating_sub(SimDuration::from_secs(rng.below(30) as u64)),
                })
                .collect();
            agent.merge_remote(&delta, now, &mut kernel);
            "gossip merge"
        } else {
            let suspended = subset
                .suspend
                .is_some_and(|(from, len)| (from..from + len).contains(&step));
            let advisory = match (suspended, rng.chance(0.1)) {
                (true, _) => Advisory::Suspend,
                (false, true) => Advisory::Conservative { factor: 0.5 },
                (false, false) => Advisory::Normal,
            };
            agent.set_advisory(advisory).expect("valid");
            let density = [0.3, 0.7, 1.0][rng.below(3)];
            let diverge = rng.chance(0.3);
            let mut observations = Vec::new();
            for (at, (bytes, retrans)) in counters.iter_mut().enumerate() {
                if !rng.chance(density) {
                    continue;
                }
                let slab = at / hosts;
                if subset.guard && rng.chance(0.08) {
                    *retrans += 40 + rng.below(200) as u64;
                }
                for _ in 0..1 + rng.below(2) {
                    *bytes += 200_000 + rng.below(400_000) as u64;
                    let spread = if diverge { 60 } else { 5 };
                    observations.push(CwndObservation {
                        dst: host(slab, at % hosts),
                        cwnd: slab_window[slab] + rng.below(spread) as u32,
                        bytes_acked: *bytes,
                        retrans: *retrans,
                        ecn_marks: 0,
                    });
                }
            }
            for at in (1..observations.len()).rev() {
                observations.swap(at, rng.below(at + 1));
            }
            agent.tick(now, &mut FnObserver(|| observations.clone()), &mut kernel);
            "tick"
        };
        let audited = subset.audit_every > 0 && step % subset.audit_every == 0 || step + 1 == steps;
        if audited {
            // The audit repairs with refusals off, so what it leaves is
            // what it decided.
            let (dump, refusals) = (kernel.dump(), kernel.refusals);
            kernel.refusals = 0.0;
            agent.reconcile(&dump, &mut kernel);
            kernel.refusals = refusals;
        }
        let before = (!fresh_agent).then_some(&before);
        check(&agent, &kernel, now, audited, before).map_err(|why| fail(step, what, why))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_step_of_a_swarm_run_keeps_the_agent_s_invariants(seed in any::<u64>()) {
        if let Err(why) = swarm(seed) {
            prop_assert!(false, "{}", why);
        }
    }
}

//! The deployment harness: a simulated CDN with (optionally) a Riptide
//! agent on every machine, the paper's probe infrastructure, and organic
//! back-office traffic.
//!
//! This is the simulated equivalent of §IV-A: every machine probes every
//! other PoP with 10/50/100 KB objects on a fixed interval, reusing idle
//! connections when available; Riptide agents poll `ss` every `i_u`
//! seconds and steer per-destination routes; and an observer samples live
//! congestion windows once a minute, considering only connections opened
//! after the agent started — exactly the paper's measurement filter.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::rc::Rc;

use riptide::prelude::*;
use riptide::sync::{delta_for, digest_of, SyncEntry};
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::{RouteAttrs, RouteProto, RouteTable};
use riptide_simnet::prelude::*;

use crate::gossip::{GossipConfig, GossipFabric};
use crate::topology::{RttBucket, Testbed, TestbedConfig};
use crate::workload::{OrganicConfig, ProbeConfig};

/// An [`InitcwndPolicy`] that reads a host's (shared) routing table — the
/// kernel's route lookup at connect time.
#[derive(Debug)]
struct TablePolicy {
    table: Rc<RefCell<RouteTable>>,
}

impl InitcwndPolicy for TablePolicy {
    fn initial_cwnd(&self, _src: HostId, dst_addr: Ipv4Addr) -> Option<u32> {
        self.table.borrow().initcwnd_for(dst_addr)
    }
}

/// Full configuration of one deployment run.
#[derive(Debug, Clone)]
pub struct CdnSimConfig {
    /// The substrate.
    pub testbed: TestbedConfig,
    /// Riptide configuration, or `None` for a control run.
    pub riptide: Option<RiptideConfig>,
    /// Probe harness parameters.
    pub probes: ProbeConfig,
    /// Organic traffic parameters.
    pub organic: OrganicConfig,
    /// How often live congestion windows are sampled (the paper samples
    /// "each minute using the ss tool").
    pub cwnd_sample_interval: SimDuration,
    /// Site indices that send probes (`None` = every site). The paper's
    /// transfer-time analysis uses two sender PoPs.
    pub probe_senders: Option<Vec<usize>>,
    /// Attach a shared telemetry bundle (metrics registry + decision
    /// journal) to every agent. Off by default: a disabled registry does
    /// no telemetry work and leaves run digests bit-identical.
    pub telemetry: bool,
    /// What breaks during the run and what repairs it (all off by
    /// default).
    pub resilience: ResilienceOverlay,
}

impl Default for CdnSimConfig {
    fn default() -> Self {
        CdnSimConfig {
            testbed: TestbedConfig::default(),
            riptide: Some(RiptideConfig::deployment()),
            probes: ProbeConfig::default(),
            organic: OrganicConfig::none(),
            cwnd_sample_interval: SimDuration::from_secs(60),
            probe_senders: None,
            telemetry: false,
            resilience: ResilienceOverlay::default(),
        }
    }
}

/// The fault and recovery layers over a deployment: what breaks
/// (`faults`) and what repairs it (audits, persisted state, gossip).
/// One struct shared by [`CdnSimConfig`] and
/// [`crate::scenario::ScenarioSpec`], so a scenario hands its overlay
/// to the simulator whole. The [`Default`] is everything off, which
/// leaves a run bit-identical to one built without these layers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceOverlay {
    /// Fault-injection plan ([`FaultPlan::none`] disables the chaos layer
    /// entirely).
    pub faults: FaultPlan,
    /// How often each agent runs a reconciler audit against a fresh
    /// kernel route dump (`None` disables auditing — the paper's
    /// open-loop deployment).
    pub reconcile_every: Option<SimDuration>,
    /// Warm-restart persistence: each host keeps a simulated on-disk
    /// state file (snapshot + journal) that survives crash faults, and
    /// a restarted daemon reloads it instead of starting empty.
    pub persistence: Option<PersistenceConfig>,
    /// Anti-entropy gossip between the fleet's agents. The fabric's RNG
    /// is forked purely, so no other draw sequence moves.
    pub gossip: Option<GossipConfig>,
}

/// Warm-restart persistence parameters for simulated hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistenceConfig {
    /// How often each live host rewrites its snapshot (the journal is
    /// truncated into it).
    pub snapshot_every: SimDuration,
    /// Append a journal record for every install/withdraw delta between
    /// snapshots, so a crash loses at most one agent tick of learning
    /// instead of up to `snapshot_every`.
    pub journal: bool,
}

impl Default for PersistenceConfig {
    fn default() -> Self {
        PersistenceConfig {
            snapshot_every: SimDuration::from_secs(60),
            journal: true,
        }
    }
}

impl PersistenceConfig {
    /// Checks the parameters are usable.
    pub fn validate(&self) -> Result<(), String> {
        if self.snapshot_every == SimDuration::ZERO {
            return Err("snapshot interval must be positive".into());
        }
        Ok(())
    }
}

/// Cold-start counters for one run: how fast restarted hosts climbed
/// back to steady state, and what the durability/sync layers did to get
/// them there. All-zero when crashes, persistence and gossip are off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColdstartReport {
    /// Restarts whose ramp-up was tracked (the host had installed
    /// windows to lose when it crashed).
    pub restarts_tracked: u64,
    /// Tracked restarts that reached 90% of their pre-crash installed
    /// window sum before the run ended.
    pub recoveries: u64,
    /// Summed restart→90% ramp time across recoveries, nanoseconds.
    pub ramp_nanos_total: u64,
    /// Worst single ramp time, nanoseconds.
    pub ramp_nanos_max: u64,
    /// Tracked restarts still below 90% at report time.
    pub unrecovered: u64,
    /// Routes reinstalled from persisted state at warm restarts.
    pub restored_routes: u64,
    /// Snapshots written by live hosts.
    pub snapshots_written: u64,
    /// Journal records appended between snapshots.
    pub journal_records: u64,
    /// Gossip rounds the fabric scheduled.
    pub gossip_rounds: u64,
    /// Gossip exchanges between two live hosts.
    pub gossip_pairs: u64,
    /// Exchanges settled by matching digests (no delta shipped).
    pub digests_matched: u64,
    /// Delta entries shipped across all exchanges.
    pub entries_shipped: u64,
    /// Delta entries accepted under the newest-wins clamp-merge rule.
    pub entries_accepted: u64,
    /// Peer draws skipped because the peer was inside its backoff.
    pub gossip_backoff_skips: u64,
    /// Draws that found the peer down and started a backoff.
    pub gossip_peers_marked_down: u64,
}

impl ColdstartReport {
    /// Mean restart→90% ramp time in seconds, `None` before any
    /// tracked restart recovered.
    pub fn mean_ramp_secs(&self) -> Option<f64> {
        (self.recoveries > 0).then(|| self.ramp_nanos_total as f64 / self.recoveries as f64 / 1e9)
    }

    /// Accumulates another shard's counters into this one.
    pub fn merge(&mut self, other: &ColdstartReport) {
        self.restarts_tracked += other.restarts_tracked;
        self.recoveries += other.recoveries;
        self.ramp_nanos_total += other.ramp_nanos_total;
        self.ramp_nanos_max = self.ramp_nanos_max.max(other.ramp_nanos_max);
        self.unrecovered += other.unrecovered;
        self.restored_routes += other.restored_routes;
        self.snapshots_written += other.snapshots_written;
        self.journal_records += other.journal_records;
        self.gossip_rounds += other.gossip_rounds;
        self.gossip_pairs += other.gossip_pairs;
        self.digests_matched += other.digests_matched;
        self.entries_shipped += other.entries_shipped;
        self.entries_accepted += other.entries_accepted;
        self.gossip_backoff_skips += other.gossip_backoff_skips;
        self.gossip_peers_marked_down += other.gossip_peers_marked_down;
    }
}

/// One host's simulated on-disk state file: the encoded snapshot plus
/// journal tail, and the installed view it last described (so agent
/// ticks journal only the deltas).
#[derive(Debug, Clone, Default)]
struct HostStore {
    /// Encoded `persist::StateFile` bytes — what a real daemon would
    /// have on disk. Survives crash faults (the disk does not die with
    /// the process).
    bytes: Vec<u8>,
    /// The installed view as of the last snapshot or journal append.
    last_installed: BTreeMap<Ipv4Prefix, u32>,
}

/// Persistence-layer state; present only when configured.
#[derive(Debug)]
struct PersistLayer {
    cfg: PersistenceConfig,
    next_snapshot: SimTime,
    stores: Vec<HostStore>,
}

/// Aggregated chaos and resilience counters for one run.
///
/// All-zero (with an empty installed range) when the fault layer is
/// disabled and no routes were installed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosReport {
    /// Faults the injector fired, by category.
    pub faults: FaultStats,
    /// Agent cycles run in degraded mode (observation failed even after
    /// retries: learning frozen, only TTL expiry ran).
    pub degraded_ticks: u64,
    /// Extra observation attempts beyond each cycle's first.
    pub observe_retries: u64,
    /// Extra route-install attempts beyond each call's first.
    pub install_retries: u64,
    /// Route installs that failed even after retrying.
    pub install_gave_up: u64,
    /// Delayed installs that eventually landed.
    pub delayed_applied: u64,
    /// Stale routes wiped by restarted agents on recovery.
    pub routes_recovered: u64,
    /// Window installs accepted by the bounds gate.
    pub installs: u64,
    /// Installs rejected by the bounds gate for leaving `[c_min, c_max]`
    /// — always 0 unless the no-harm invariant is broken.
    pub invariant_breaches: u64,
    /// Smallest window ever installed (`u32::MAX` when none).
    pub installed_min: u32,
    /// Largest window ever installed (0 when none).
    pub installed_max: u32,
    /// Agent-installed routes deleted behind the agent's back by churn.
    pub drift_deleted: u64,
    /// Orphan riptide-signature routes injected by churn.
    pub drift_orphaned: u64,
    /// Foreign (non-signature) routes injected by churn.
    pub foreign_injected: u64,
    /// Drift repairs performed by reconciler audits (across all hosts,
    /// including incarnations since crashed).
    pub reconcile_repairs: u64,
    /// Foreign routes observed (and left alone) by reconciler audits.
    pub reconcile_foreign_seen: u64,
    /// Loss-guard breaker trips (across all hosts, including incarnations
    /// since crashed).
    pub guard_trips: u64,
    /// Riptide-signature routes still disagreeing with some agent's
    /// installed view at report time — 0 once audits have converged.
    pub drift_unrepaired: u64,
    /// Injected foreign routes missing or modified at report time —
    /// always 0 unless the reconciler touched state it must not.
    pub foreign_missing: u64,
}

impl Default for ChaosReport {
    fn default() -> Self {
        ChaosReport {
            faults: FaultStats::default(),
            degraded_ticks: 0,
            observe_retries: 0,
            install_retries: 0,
            install_gave_up: 0,
            delayed_applied: 0,
            routes_recovered: 0,
            installs: 0,
            invariant_breaches: 0,
            installed_min: u32::MAX,
            installed_max: 0,
            drift_deleted: 0,
            drift_orphaned: 0,
            foreign_injected: 0,
            reconcile_repairs: 0,
            reconcile_foreign_seen: 0,
            guard_trips: 0,
            drift_unrepaired: 0,
            foreign_missing: 0,
        }
    }
}

impl ChaosReport {
    /// `(min, max)` of every installed window, or `None` if nothing was
    /// ever installed.
    pub fn installed_range(&self) -> Option<(u32, u32)> {
        (self.installs > 0).then_some((self.installed_min, self.installed_max))
    }

    /// Accumulates another shard's counters into this one.
    pub fn merge(&mut self, other: &ChaosReport) {
        self.faults.observe_timeouts += other.faults.observe_timeouts;
        self.faults.observe_partials += other.faults.observe_partials;
        self.faults.install_errors += other.faults.install_errors;
        self.faults.install_delays += other.faults.install_delays;
        self.faults.crashes += other.faults.crashes;
        self.faults.bursts += other.faults.bursts;
        self.faults.route_churns += other.faults.route_churns;
        self.faults.targeted_bursts += other.faults.targeted_bursts;
        self.degraded_ticks += other.degraded_ticks;
        self.observe_retries += other.observe_retries;
        self.install_retries += other.install_retries;
        self.install_gave_up += other.install_gave_up;
        self.delayed_applied += other.delayed_applied;
        self.routes_recovered += other.routes_recovered;
        self.installs += other.installs;
        self.invariant_breaches += other.invariant_breaches;
        self.installed_min = self.installed_min.min(other.installed_min);
        self.installed_max = self.installed_max.max(other.installed_max);
        self.drift_deleted += other.drift_deleted;
        self.drift_orphaned += other.drift_orphaned;
        self.foreign_injected += other.foreign_injected;
        self.reconcile_repairs += other.reconcile_repairs;
        self.reconcile_foreign_seen += other.reconcile_foreign_seen;
        self.guard_trips += other.guard_trips;
        self.drift_unrepaired += other.drift_unrepaired;
        self.foreign_missing += other.foreign_missing;
    }
}

/// A route write accepted while faulted as "delayed", waiting to land.
#[derive(Debug, Clone, Copy)]
struct PendingInstall {
    due: SimTime,
    host: usize,
    key: Ipv4Prefix,
    /// `Some(window)` for a delayed install, `None` for a delayed clear.
    window: Option<u32>,
}

/// One link loss burst in progress, with the configs to restore.
#[derive(Debug, Clone)]
struct ActiveBurst {
    until: SimTime,
    a: PopId,
    b: PopId,
    saved_ab: PathConfig,
    saved_ba: PathConfig,
}

/// Mutable chaos-layer state; present only when the plan is enabled.
#[derive(Debug)]
struct ChaosState {
    injector: FaultInjector,
    policy: BackoffPolicy,
    /// Per host: when a crashed agent's replacement may start ticking.
    down_until: Vec<Option<SimTime>>,
    pending: Vec<PendingInstall>,
    bursts: Vec<ActiveBurst>,
    next_burst_check: SimTime,
    /// Per host: foreign routes churn injected, by key — the reconciler
    /// must leave every one of these byte-identical.
    foreign: Vec<BTreeMap<Ipv4Prefix, RouteAttrs>>,
    /// Loss episodes in progress on paths targeted at jump-started
    /// destinations, with the configs to restore.
    loss_episodes: Vec<ActiveBurst>,
    report: ChaosReport,
}

/// Injects install faults between the retry layer above and the bounds
/// gate below: `ExecError` surfaces as a failed `ip route` invocation
/// (which the retry layer may re-attempt, drawing a fresh fault),
/// `Delayed` queues the write to land `install_delay_for` later.
#[derive(Debug)]
struct ChaosController<'a> {
    inner: &'a mut CheckedController<SharedRouteController>,
    injector: &'a mut FaultInjector,
    pending: &'a mut Vec<PendingInstall>,
    now: SimTime,
    delay_for: SimDuration,
    host: usize,
}

impl ChaosController<'_> {
    fn faulted(
        &mut self,
        key: Ipv4Prefix,
        window: Option<u32>,
        apply: impl FnOnce(&mut CheckedController<SharedRouteController>) -> Result<(), ControlError>,
    ) -> Result<(), ControlError> {
        match self.injector.install_fault() {
            InstallFault::ExecError => {
                Err(ControlError::new("injected: ip route invocation failed"))
            }
            InstallFault::Delayed => {
                self.pending.push(PendingInstall {
                    due: self.now + self.delay_for,
                    host: self.host,
                    key,
                    window,
                });
                Ok(())
            }
            InstallFault::None => apply(self.inner),
        }
    }
}

impl RouteController for ChaosController<'_> {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        self.faulted(key, Some(window), |c| c.set_initcwnd(key, window))
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        self.faulted(key, None, |c| c.clear_initcwnd(key))
    }
}

/// One completed probe, annotated with the experiment dimensions the
/// paper's figures group on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeOutcome {
    /// Sending site index.
    pub src_site: usize,
    /// Destination site index.
    pub dst_site: usize,
    /// Probe payload, bytes.
    pub size: u64,
    /// Distance group of the destination relative to the sender.
    pub bucket: RttBucket,
    /// End-to-end completion time.
    pub completion: SimDuration,
    /// Whether a fresh connection (with handshake) carried it.
    pub fresh_connection: bool,
    /// When the probe was requested.
    pub requested_at: SimTime,
    /// Initial congestion window of the carrying connection.
    pub initial_cwnd: u32,
}

/// One live-window sample (a row of the paper's per-minute `ss` sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CwndSample {
    /// Site owning the observed connection.
    pub site: usize,
    /// Destination site of the connection.
    pub dst_site: usize,
    /// The congestion window, in segments.
    pub cwnd: u32,
    /// Sample instant.
    pub at: SimTime,
}

/// A running deployment.
#[derive(Debug)]
pub struct CdnSim {
    tb: Testbed,
    cfg: CdnSimConfig,
    agents: Vec<Option<RiptideAgent>>,
    controllers: Vec<Option<CheckedController<SharedRouteController>>>,
    chaos: Option<ChaosState>,
    rng: DetRng,
    next_agent_tick: SimTime,
    next_cwnd_sample: SimTime,
    /// Next reconciler audit instant (`None` when auditing is off).
    next_reconcile: Option<SimTime>,
    /// Host address → host, for mapping learned route keys back to the
    /// destination machine they steer.
    addr_to_host: HashMap<Ipv4Addr, HostId>,
    /// Per probing machine: (next fire time, host, site index).
    probe_schedule: Vec<(SimTime, HostId, usize)>,
    /// Per ordered busy pair: (next arrival, src site, dst site).
    organic_schedule: Vec<(SimTime, usize, usize)>,
    /// Min-heap of `(fire time, index into probe_schedule)`. Every entry
    /// is current (an index is rescheduled only when popped), and ties
    /// pop in index order — the same order the linear scan fired them,
    /// so RNG draw order is unchanged.
    probe_heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
    /// Min-heap of `(arrival time, index into organic_schedule)`.
    organic_heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
    /// Cached minimum of `probe_schedule` fire times (`SimTime::MAX` when
    /// empty), maintained by `fire_due_probes` so the event loop's outer
    /// step avoids rescanning the schedule.
    next_probe_due: SimTime,
    /// Cached minimum of `organic_schedule` arrival times (`SimTime::MAX`
    /// when empty).
    next_organic_due: SimTime,
    probe_tags: HashMap<TransferId, (usize, usize, u64)>,
    probe_outcomes: Vec<ProbeOutcome>,
    cwnd_samples: Vec<CwndSample>,
    organic_completed: u64,
    organic_started: u64,
    /// Shared telemetry bundle, when `cfg.telemetry` is on: every agent
    /// (including crash-restart incarnations) registers on one registry,
    /// so counters aggregate across the whole deployment.
    telemetry: Option<AgentTelemetry>,
    /// I/O counters on the same registry, mirrored out of the resilient
    /// wrappers the chaos path builds each tick.
    io_counters: Option<IoCounters>,
    /// Simulated on-disk state files, when persistence is configured.
    persist: Option<PersistLayer>,
    /// Gossip scheduler, when fleet sync is configured.
    gossip: Option<GossipFabric>,
    /// Cold-start counters (ramp tracking, persistence, gossip).
    coldstart: ColdstartReport,
    /// Per host: pre-crash installed-window sum awaiting the restart
    /// (set at the crash instant).
    ramp_pending: Vec<Option<u64>>,
    /// Per host: `(pre-crash sum, restart instant)` of a ramp-up in
    /// progress.
    ramp_active: Vec<Option<(u64, SimTime)>>,
}

/// Decision-journal depth for simulated deployments. Large enough to hold
/// the tail of a bench-scale run, small enough to bound memory.
const TELEMETRY_JOURNAL_CAPACITY: usize = 256;

impl CdnSim {
    /// Builds the deployment.
    ///
    /// # Panics
    ///
    /// Panics on invalid probe or Riptide configuration.
    pub fn new(cfg: CdnSimConfig) -> Self {
        if let Err(e) = cfg.probes.validate() {
            panic!("invalid probe config: {e}");
        }
        if let Err(e) = cfg.resilience.faults.validate() {
            panic!("invalid fault plan: {e}");
        }
        for crowd in &cfg.organic.flash_crowds {
            if let Err(e) = crowd.validate() {
                panic!("invalid flash crowd: {e}");
            }
        }
        if let Some(g) = &cfg.resilience.gossip {
            if let Err(e) = g.validate() {
                panic!("invalid gossip config: {e}");
            }
        }
        if let Some(p) = &cfg.resilience.persistence {
            if let Err(e) = p.validate() {
                panic!("invalid persistence config: {e}");
            }
        }
        let mut tb = Testbed::build(&cfg.testbed);
        let mut rng = DetRng::from_seed(cfg.testbed.seed ^ 0x5EED_CD11);
        let host_count = tb.world.host_count();

        // Forking is pure, so attaching (or not attaching) the chaos
        // layer leaves `rng`'s own sequence untouched.
        let chaos = cfg.resilience.faults.is_enabled().then(|| ChaosState {
            injector: FaultInjector::new(cfg.resilience.faults.clone(), &rng),
            policy: BackoffPolicy::agent_default(),
            down_until: vec![None; host_count],
            pending: Vec::new(),
            bursts: Vec::new(),
            next_burst_check: SimTime::ZERO + cfg.resilience.faults.burst_check_every,
            foreign: vec![BTreeMap::new(); host_count],
            loss_episodes: Vec::new(),
            report: ChaosReport::default(),
        });

        // Forked purely, like the chaos injector: attaching (or not
        // attaching) the gossip fabric leaves `rng`'s own sequence —
        // and therefore every gossip-free draw — untouched.
        let gossip = cfg
            .resilience
            .gossip
            .map(|g| GossipFabric::new(g, &rng, host_count));
        let persist = cfg.resilience.persistence.map(|p| PersistLayer {
            next_snapshot: SimTime::ZERO + p.snapshot_every,
            stores: vec![HostStore::default(); host_count],
            cfg: p,
        });

        let addr_to_host: HashMap<Ipv4Addr, HostId> = (0..host_count)
            .map(|h| {
                let host = HostId::from_index(h as u32);
                (tb.world.host_addr(host), host)
            })
            .collect();

        let telemetry = (cfg.telemetry && cfg.riptide.is_some())
            .then(|| AgentTelemetry::standalone(TELEMETRY_JOURNAL_CAPACITY));
        let io_counters = telemetry.as_ref().map(|t| t.io_counters());

        let mut agents: Vec<Option<RiptideAgent>> = Vec::with_capacity(host_count);
        let mut controllers: Vec<Option<CheckedController<SharedRouteController>>> =
            Vec::with_capacity(host_count);
        for h in 0..host_count {
            match &cfg.riptide {
                Some(rc) => {
                    let table = Rc::new(RefCell::new(RouteTable::new()));
                    tb.world.set_host_policy(
                        HostId::from_index(h as u32),
                        Rc::new(TablePolicy {
                            table: Rc::clone(&table),
                        }),
                    );
                    controllers.push(Some(CheckedController::new(
                        SharedRouteController::new(table),
                        rc.cwnd_min,
                        rc.cwnd_max,
                    )));
                    let mut agent =
                        RiptideAgent::new(rc.clone()).expect("validated riptide config");
                    if let Some(t) = &telemetry {
                        agent.attach_telemetry(t.clone());
                    }
                    agents.push(Some(agent));
                }
                None => {
                    agents.push(None);
                    controllers.push(None);
                }
            }
        }

        // Stagger each machine's probe phase uniformly over one interval.
        let mut probe_schedule = Vec::new();
        let senders: Vec<usize> = cfg
            .probe_senders
            .clone()
            .unwrap_or_else(|| (0..tb.pop_count()).collect());
        for &site in &senders {
            for &host in tb.machines(site) {
                let phase = rng.jitter(cfg.probes.interval);
                probe_schedule.push((SimTime::ZERO + phase, host, site));
            }
        }

        // Organic arrivals per ordered busy pair.
        let mut organic_schedule = Vec::new();
        if cfg.organic.is_enabled() {
            for &i in &cfg.organic.busy_pops {
                for &j in &cfg.organic.busy_pops {
                    if i == j {
                        continue;
                    }
                    let gap = rng
                        .exp_duration(SimDuration::from_secs_f64(1.0 / cfg.organic.flows_per_sec));
                    organic_schedule.push((SimTime::ZERO + gap, i, j));
                }
            }
        }

        let agent_interval = cfg
            .riptide
            .as_ref()
            .map(|r| r.update_interval)
            .unwrap_or(SimDuration::from_secs(1));

        let probe_heap: std::collections::BinaryHeap<_> = probe_schedule
            .iter()
            .enumerate()
            .map(|(idx, e)| std::cmp::Reverse((e.0, idx)))
            .collect();
        let organic_heap: std::collections::BinaryHeap<_> = organic_schedule
            .iter()
            .enumerate()
            .map(|(idx, e)| std::cmp::Reverse((e.0, idx)))
            .collect();
        let next_probe_due = probe_heap.peek().map(|r| (r.0).0).unwrap_or(SimTime::MAX);
        let next_organic_due = organic_heap.peek().map(|r| (r.0).0).unwrap_or(SimTime::MAX);

        let ramp_pending = vec![None; host_count];
        let ramp_active = vec![None; host_count];
        CdnSim {
            tb,
            next_agent_tick: SimTime::ZERO + agent_interval,
            next_cwnd_sample: SimTime::ZERO + cfg.cwnd_sample_interval,
            next_reconcile: cfg.resilience.reconcile_every.map(|d| SimTime::ZERO + d),
            addr_to_host,
            cfg,
            agents,
            controllers,
            chaos,
            rng,
            probe_schedule,
            organic_schedule,
            probe_heap,
            organic_heap,
            next_probe_due,
            next_organic_due,
            probe_tags: HashMap::new(),
            probe_outcomes: Vec::new(),
            cwnd_samples: Vec::new(),
            organic_completed: 0,
            organic_started: 0,
            telemetry,
            io_counters,
            persist,
            gossip,
            coldstart: ColdstartReport::default(),
            ramp_pending,
            ramp_active,
        }
    }

    /// Point-in-time snapshot of the deployment-wide metrics registry.
    ///
    /// Empty (and therefore absent from run digests) unless
    /// [`CdnSimConfig::telemetry`] was set.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry
            .as_ref()
            .map(|t| t.registry().snapshot())
            .unwrap_or_default()
    }

    /// The shared decision journal, when telemetry is enabled.
    pub fn decision_journal(&self) -> Option<&DecisionJournal> {
        self.telemetry.as_ref().map(|t| t.journal())
    }

    /// Whether this run has Riptide agents.
    pub fn riptide_enabled(&self) -> bool {
        self.cfg.riptide.is_some()
    }

    /// The underlying testbed (read access for assertions).
    pub fn testbed(&self) -> &Testbed {
        &self.tb
    }

    /// Completed probes so far.
    pub fn probe_outcomes(&self) -> &[ProbeOutcome] {
        &self.probe_outcomes
    }

    /// Live-window samples so far.
    pub fn cwnd_samples(&self) -> &[CwndSample] {
        &self.cwnd_samples
    }

    /// Organic flows completed so far.
    pub fn organic_completed(&self) -> u64 {
        self.organic_completed
    }

    /// Organic flows started so far.
    pub fn organic_started(&self) -> u64 {
        self.organic_started
    }

    /// Mean learned (installed) window across every agent's live table,
    /// with the number of live destination entries — a convergence
    /// snapshot. `None` for control runs or before anything is learned.
    pub fn mean_learned_window(&self) -> Option<(f64, usize)> {
        let mut sum = 0u64;
        let mut n = 0usize;
        for agent in self.agents.iter().flatten() {
            for (_, entry) in agent.table().iter() {
                sum += entry.window as u64;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some((sum as f64 / n as f64, n))
        }
    }

    /// Aggregated agent counters (zeros for control runs).
    ///
    /// Under chaos, counters of crashed agent incarnations are gone with
    /// them; this sums the live incarnations only (crash losses are
    /// tracked in [`CdnSim::chaos_report`]).
    pub fn agent_stats_total(&self) -> AgentStats {
        let mut total = AgentStats::default();
        for a in self.agents.iter().flatten() {
            let s = a.stats();
            total.ticks += s.ticks;
            total.observations += s.observations;
            total.route_updates += s.route_updates;
            total.route_expirations += s.route_expirations;
            total.errors += s.errors;
            total.degraded_ticks += s.degraded_ticks;
            total.guard_trips += s.guard_trips;
            total.table_evictions += s.table_evictions;
            total.reconcile_repairs += s.reconcile_repairs;
        }
        total
    }

    /// Chaos and resilience counters for this run.
    ///
    /// Installs, breaches and the installed-window range come from the
    /// per-host bounds gates and are meaningful (and usually non-zero)
    /// even with the fault layer disabled; everything else is zero for a
    /// clean run.
    pub fn chaos_report(&self) -> ChaosReport {
        let mut r = self
            .chaos
            .as_ref()
            .map(|c| {
                let mut r = c.report;
                r.faults = c.injector.stats();
                r
            })
            .unwrap_or_default();
        let live = self.agent_stats_total();
        r.degraded_ticks += live.degraded_ticks;
        r.guard_trips += live.guard_trips;
        r.reconcile_repairs += live.reconcile_repairs;
        for ctl in self.controllers.iter().flatten() {
            r.installs += ctl.installs();
            r.invariant_breaches += ctl.breaches();
            if let Some((lo, hi)) = ctl.installed_range() {
                r.installed_min = r.installed_min.min(lo);
                r.installed_max = r.installed_max.max(hi);
            }
        }
        // Point-in-time drift audit: does every host's kernel table agree
        // with its agent's installed view, and is every injected foreign
        // route still exactly as injected?
        for h in 0..self.agents.len() {
            let (Some(agent), Some(ctl)) = (&self.agents[h], &self.controllers[h]) else {
                continue;
            };
            let table = ctl.inner().table();
            let kernel = table.borrow();
            for (&key, &want) in agent.installed_view() {
                match kernel.get(key) {
                    Some(route)
                        if is_riptide_route(&route.attrs) && route.attrs.initcwnd == Some(want) => {
                    }
                    _ => r.drift_unrepaired += 1,
                }
            }
            for route in kernel.iter() {
                if is_riptide_route(&route.attrs)
                    && !agent.installed_view().contains_key(&route.prefix)
                {
                    r.drift_unrepaired += 1;
                }
            }
            if let Some(chaos) = &self.chaos {
                for (&key, attrs) in &chaos.foreign[h] {
                    if kernel.get(key).map(|route| &route.attrs) != Some(attrs) {
                        r.foreign_missing += 1;
                    }
                }
            }
        }
        r
    }

    /// Cold-start counters for this run: crash-restart ramp-up times
    /// plus what the persistence and gossip layers did. All-zero when
    /// crashes, persistence and gossip are off.
    pub fn coldstart_report(&self) -> ColdstartReport {
        let mut r = self.coldstart;
        if let Some(g) = &self.gossip {
            let s = g.stats();
            r.gossip_rounds = s.rounds;
            r.gossip_pairs = s.pairs;
            r.gossip_backoff_skips = s.backoff_skips;
            r.gossip_peers_marked_down = s.peers_marked_down;
        }
        r.unrecovered = (self.ramp_pending.iter().flatten().count()
            + self.ramp_active.iter().flatten().count()) as u64;
        r
    }

    /// The learned window a host currently has for a destination address
    /// (for tests).
    pub fn learned_window(&self, host: HostId, dst: Ipv4Addr) -> Option<u32> {
        self.agents[host.index()]
            .as_ref()
            .and_then(|a| a.learned_window(dst))
    }

    /// Runs one reconciler audit immediately on every live riptide host,
    /// regardless of the `reconcile_every` schedule — the hook benches
    /// use to demonstrate convergence after the last churn instant.
    pub fn reconcile_now(&mut self) {
        let now = self.tb.world.now();
        self.run_reconcile(now);
    }

    /// Advances the deployment by `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.tb.world.now() + duration;
        loop {
            let mut next = end;
            if self.riptide_enabled() {
                next = next.min(self.next_agent_tick);
            }
            next = next.min(self.next_cwnd_sample);
            next = next.min(self.next_probe_due);
            next = next.min(self.next_organic_due);
            if let Some(chaos) = &self.chaos {
                next = next.min(chaos.next_burst_check);
                if let Some(t) = chaos.bursts.iter().map(|b| b.until).min() {
                    next = next.min(t);
                }
                if let Some(t) = chaos.loss_episodes.iter().map(|b| b.until).min() {
                    next = next.min(t);
                }
                if let Some(t) = chaos.pending.iter().map(|p| p.due).min() {
                    next = next.min(t);
                }
            }
            if let Some(t) = self.next_reconcile {
                next = next.min(t);
            }
            if let Some(g) = &self.gossip {
                if self.riptide_enabled() {
                    next = next.min(g.next_round());
                }
            }
            if let Some(p) = &self.persist {
                if self.riptide_enabled() {
                    next = next.min(p.next_snapshot);
                }
            }
            self.tb.world.run_until(next);
            self.collect_completed();
            if next >= end {
                break;
            }
            let now = next;
            if self.chaos.is_some() {
                self.apply_due_installs(now);
                self.chaos_burst_tick(now);
            }
            if self.riptide_enabled() && now >= self.next_agent_tick {
                self.chaos_churn_tick(now);
                self.tick_agents(now);
                self.journal_deltas(now);
                let interval = self
                    .cfg
                    .riptide
                    .as_ref()
                    .expect("riptide enabled")
                    .update_interval;
                self.next_agent_tick = now + interval;
            }
            if self.riptide_enabled() {
                if let Some(g) = &self.gossip {
                    if now >= g.next_round() {
                        self.gossip_round(now);
                    }
                }
                if let Some(p) = &self.persist {
                    if now >= p.next_snapshot {
                        self.snapshot_hosts(now);
                    }
                }
                self.check_ramp(now);
            }
            if let Some(t) = self.next_reconcile {
                if now >= t {
                    self.run_reconcile(now);
                    let every = self
                        .cfg
                        .resilience
                        .reconcile_every
                        .expect("reconcile scheduled");
                    self.next_reconcile = Some(now + every);
                }
            }
            if now >= self.next_cwnd_sample {
                self.sample_cwnds(now);
                self.next_cwnd_sample = now + self.cfg.cwnd_sample_interval;
            }
            self.fire_due_probes(now);
            self.fire_due_organic(now);
        }
    }

    fn collect_completed(&mut self) {
        for rec in self.tb.world.drain_completed() {
            match self.probe_tags.remove(&rec.transfer) {
                Some((src_site, dst_site, size)) => {
                    self.probe_outcomes.push(ProbeOutcome {
                        src_site,
                        dst_site,
                        size,
                        bucket: self.tb.bucket(src_site, dst_site),
                        completion: rec.completion_time(),
                        fresh_connection: rec.fresh_connection,
                        requested_at: rec.requested_at,
                        initial_cwnd: rec.initial_cwnd,
                    });
                }
                None => self.organic_completed += 1,
            }
        }
    }

    fn tick_agents(&mut self, now: SimTime) {
        // PoP pairs whose fresh jump-start installs drew a targeted loss
        // fault this tick; episodes start after the loop so the world is
        // not reconfigured while agents still borrow chaos state.
        let mut targeted: Vec<(PopId, PopId)> = Vec::new();
        for h in 0..self.agents.len() {
            let host = HostId::from_index(h as u32);
            if self.agents[h].is_some() {
                if let Some(chaos) = self.chaos.as_mut() {
                    match chaos.down_until[h] {
                        // The daemon is mid-restart: nothing runs.
                        Some(until) if now < until => continue,
                        Some(_) => {
                            // Restart: the replacement's first act is the
                            // §IV-D startup recovery — wipe whatever
                            // riptide routes the dead incarnation left.
                            chaos.down_until[h] = None;
                            let ctl = self.controllers[h]
                                .as_mut()
                                .expect("controller exists when agent does");
                            let table = ctl.inner().table();
                            let wiped = recover_stale_routes(&mut table.borrow_mut());
                            chaos.report.routes_recovered += wiped as u64;
                            // Warm restart: reload the host's persisted
                            // state file (it survived on "disk") and
                            // reinstall the surviving routes, instead of
                            // re-learning from an empty table. A torn or
                            // corrupt file degrades to a cold start.
                            if let Some(p) = self.persist.as_mut() {
                                let store = &mut p.stores[h];
                                if let Ok(state) = riptide::persist::decode_state(&store.bytes) {
                                    let merged =
                                        riptide::persist::replay(&state.snapshot, &state.journal);
                                    let agent = self.agents[h]
                                        .as_mut()
                                        .expect("fresh agent installed at crash");
                                    let restored = agent.restore_state(&merged, now, ctl);
                                    self.coldstart.restored_routes += restored.len() as u64;
                                    store.last_installed = agent.installed_view().clone();
                                }
                            }
                            if let Some(pre) = self.ramp_pending[h].take() {
                                self.ramp_active[h] = Some((pre, now));
                                self.coldstart.restarts_tracked += 1;
                            }
                        }
                        None => {
                            if chaos.injector.crashes_now() {
                                // Crash loses the learned table (it lives
                                // in the daemon) but not installed routes
                                // (they live in the kernel) — nor the
                                // persisted state file (it lives on disk).
                                let old = self.agents[h].take().expect("agent present");
                                chaos.report.degraded_ticks += old.stats().degraded_ticks;
                                chaos.report.guard_trips += old.stats().guard_trips;
                                chaos.report.reconcile_repairs += old.stats().reconcile_repairs;
                                // Ramp tracking draws no randomness and
                                // acts only here and at the restart.
                                let pre: u64 =
                                    old.installed_view().values().map(|&w| w as u64).sum();
                                self.ramp_active[h] = None;
                                self.ramp_pending[h] = (pre > 0).then_some(pre);
                                let rc = self.cfg.riptide.clone().expect("agent implies config");
                                let mut fresh =
                                    RiptideAgent::new(rc).expect("validated riptide config");
                                if let Some(t) = &self.telemetry {
                                    fresh.attach_telemetry(t.clone());
                                }
                                self.agents[h] = Some(fresh);
                                chaos.down_until[h] =
                                    Some(now + chaos.injector.plan().restart_after);
                                if chaos.injector.plan().crash_resets_connections {
                                    // Machine restart: the host's TCP
                                    // state (both directions) dies with
                                    // it — nothing to observe until
                                    // traffic returns.
                                    self.tb.world.reset_host_connections(host);
                                }
                                continue;
                            }
                        }
                    }
                }
            }
            let Some(agent) = self.agents[h].as_mut() else {
                continue;
            };
            let controller = self.controllers[h]
                .as_mut()
                .expect("controller exists when agent does");
            let mut observations: Vec<CwndObservation> = Vec::new();
            self.tb.world.each_host_conn_stat(host, |s| {
                if s.state == ConnState::Established {
                    observations.push(CwndObservation {
                        dst: s.dst_addr,
                        cwnd: s.cwnd,
                        bytes_acked: s.bytes_acked,
                        retrans: s.retransmits,
                        ecn_marks: s.ece_reductions,
                    });
                }
            });
            match self.chaos.as_mut() {
                None => {
                    // The agent polls exactly once per tick; hand the rows
                    // over instead of cloning them per poll.
                    let mut rows = Some(observations);
                    let mut observer =
                        FnObserver(move || rows.take().expect("agent polls once per tick"));
                    agent.tick(now, &mut observer, controller);
                }
                Some(chaos) => {
                    let update_interval = self
                        .cfg
                        .riptide
                        .as_ref()
                        .expect("agent implies config")
                        .update_interval;
                    let ChaosState {
                        injector,
                        policy,
                        pending,
                        report,
                        ..
                    } = chaos;

                    // Observation: fault-injected poll under retry with a
                    // per-cycle budget. A timed-out attempt is modeled as
                    // costing 200 ms of the cycle.
                    let rows = &observations;
                    // Scoped so the observer's borrow of `injector` ends
                    // before the controller takes it.
                    let (polled, obs_retries) = {
                        let mut resilient = ResilientObserver::new(
                            FnFallibleObserver(|| match injector.observe_fault(rows.len()) {
                                ObserveFault::None => Ok(rows.clone()),
                                ObserveFault::Timeout => Err(ObserveError::Timeout),
                                ObserveFault::Partial { keep } => Ok(rows[..keep].to_vec()),
                            }),
                            *policy,
                            SimDuration::from_millis(200),
                            update_interval,
                        );
                        if let Some(io) = &self.io_counters {
                            resilient.set_counters(io.clone());
                        }
                        let polled = resilient.observe();
                        (polled, resilient.stats().retries)
                    };
                    report.observe_retries += obs_retries;

                    match polled {
                        Err(_) => {
                            // Degraded cycle: never guess from stale rows
                            // — freeze learning, let TTL expiry run.
                            agent.tick_degraded(now, controller);
                        }
                        Ok(polled_rows) => {
                            let delay_for = injector.plan().install_delay_for;
                            let chaos_ctl = ChaosController {
                                inner: controller,
                                injector,
                                pending,
                                now,
                                delay_for,
                                host: h,
                            };
                            let mut rctl = ResilientController::new(chaos_ctl, *policy);
                            if let Some(io) = &self.io_counters {
                                rctl.set_counters(io.clone());
                            }
                            let mut polled_rows = Some(polled_rows);
                            let mut observer = FnObserver(move || {
                                polled_rows.take().expect("agent polls once per tick")
                            });
                            let tick = agent.tick(now, &mut observer, &mut rctl);
                            let io = rctl.stats();
                            report.install_retries += io.retries;
                            report.install_gave_up += io.gave_up;
                            // Adversarial loss: each *jump-start* install
                            // (window above the kernel default of 10) may
                            // draw a loss episode on exactly the path the
                            // learned window now accelerates.
                            for &(key, window) in &tick.updates {
                                if window <= 10 || !injector.targeted_burst() {
                                    continue;
                                }
                                let Some(&dst) = self.addr_to_host.get(&key.network()) else {
                                    continue;
                                };
                                let a = self.tb.world.pop_of(host);
                                let b = self.tb.world.pop_of(dst);
                                if a != b {
                                    targeted.push((a, b));
                                }
                            }
                        }
                    }
                }
            }
        }
        self.start_loss_episodes(now, targeted);
    }

    /// Starts a targeted loss episode on each drawn PoP pair that does not
    /// already have one running, raising path loss to the plan's
    /// `targeted_loss_rate` until `targeted_loss_for` elapses.
    fn start_loss_episodes(&mut self, now: SimTime, pairs: Vec<(PopId, PopId)>) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        for (a, b) in pairs {
            let hit = chaos
                .loss_episodes
                .iter()
                .any(|x| (x.a == a && x.b == b) || (x.a == b && x.b == a));
            if hit {
                continue;
            }
            let saved_ab = self
                .tb
                .world
                .path_config(a, b)
                .expect("inter-pop path exists")
                .clone();
            let saved_ba = self
                .tb
                .world
                .path_config(b, a)
                .expect("inter-pop path exists")
                .clone();
            let loss = chaos.injector.plan().targeted_loss_rate;
            let mut lossy_ab = saved_ab.clone();
            lossy_ab.loss = lossy_ab.loss.max(loss);
            let mut lossy_ba = saved_ba.clone();
            lossy_ba.loss = lossy_ba.loss.max(loss);
            self.tb.world.reconfigure_path(a, b, lossy_ab);
            self.tb.world.reconfigure_path(b, a, lossy_ba);
            chaos.loss_episodes.push(ActiveBurst {
                until: now + chaos.injector.plan().targeted_loss_for,
                a,
                b,
                saved_ab,
                saved_ba,
            });
        }
    }

    /// Route-table churn: at each agent-tick instant every riptide host
    /// draws a churn fault that mutates its kernel table behind the
    /// agent's back — deleting an installed route, injecting an orphan
    /// riptide-signature route, or injecting a foreign route the
    /// reconciler must never touch.
    fn chaos_churn_tick(&mut self, _now: SimTime) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        for h in 0..self.agents.len() {
            let Some(ctl) = self.controllers[h].as_mut() else {
                continue;
            };
            let installed = self.agents[h]
                .as_ref()
                .map_or(0, |a| a.installed_view().len());
            match chaos.injector.churn_fault(installed) {
                ChurnFault::None => {}
                ChurnFault::DeleteInstalled { pick } => {
                    let key = self.agents[h]
                        .as_ref()
                        .and_then(|a| a.installed_view().keys().nth(pick).copied());
                    if let Some(key) = key {
                        if ctl.inner().table().borrow_mut().del(key).is_ok() {
                            chaos.report.drift_deleted += 1;
                        }
                    }
                }
                ChurnFault::InjectOrphan { octet, window } => {
                    // TEST-NET-3: outside the testbed's 10.x address range,
                    // so the orphan never shadows a live destination.
                    let key = Ipv4Prefix::host(Ipv4Addr::new(203, 0, 113, octet));
                    let mut attrs = RouteAttrs::initcwnd(window);
                    attrs.proto = RouteProto::Static;
                    ctl.inner().table().borrow_mut().replace(key, attrs);
                    chaos.report.drift_orphaned += 1;
                }
                ChurnFault::InjectForeign { octet } => {
                    // TEST-NET-2, proto kernel, no initcwnd: not ours.
                    let key = Ipv4Prefix::host(Ipv4Addr::new(198, 51, 100, octet));
                    let attrs = RouteAttrs {
                        proto: RouteProto::Kernel,
                        ..RouteAttrs::default()
                    };
                    ctl.inner().table().borrow_mut().replace(key, attrs.clone());
                    chaos.foreign[h].insert(key, attrs);
                    chaos.report.foreign_injected += 1;
                }
            }
        }
    }

    /// One reconciler audit on every live riptide host: render the host's
    /// kernel table, re-parse it through the `ip route show` seam, and let
    /// the agent diff the dump against its installed view and repair any
    /// drift.
    fn run_reconcile(&mut self, now: SimTime) {
        for h in 0..self.agents.len() {
            if let Some(chaos) = self.chaos.as_ref() {
                if chaos.down_until[h].is_some_and(|until| now < until) {
                    continue;
                }
            }
            let Some(agent) = self.agents[h].as_mut() else {
                continue;
            };
            let Some(ctl) = self.controllers[h].as_mut() else {
                continue;
            };
            let text = ctl.inner().table().borrow().render();
            let (dump, defects) = RouteTable::parse_lossy(&text);
            debug_assert!(defects.is_empty(), "self-rendered dump parses clean");
            let audit = agent.reconcile(&dump, ctl);
            if let Some(chaos) = self.chaos.as_mut() {
                chaos.report.reconcile_foreign_seen += audit.foreign_seen as u64;
            }
        }
    }

    /// Lands every delayed route write whose delay has elapsed. The write
    /// still goes through the host's bounds gate, and may target a host
    /// whose agent has crashed since — the kernel applies it regardless.
    fn apply_due_installs(&mut self, now: SimTime) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        let mut i = 0;
        while i < chaos.pending.len() {
            if chaos.pending[i].due > now {
                i += 1;
                continue;
            }
            let p = chaos.pending.swap_remove(i);
            if let Some(ctl) = self.controllers[p.host].as_mut() {
                let landed = match p.window {
                    Some(w) => ctl.set_initcwnd(p.key, w).is_ok(),
                    None => ctl.clear_initcwnd(p.key).is_ok(),
                };
                if landed {
                    chaos.report.delayed_applied += 1;
                }
            }
        }
    }

    /// Ends elapsed link loss bursts (restoring the saved path configs)
    /// and, at each burst-check instant, possibly starts a new one on a
    /// randomly drawn PoP pair.
    fn chaos_burst_tick(&mut self, now: SimTime) {
        let Some(chaos) = self.chaos.as_mut() else {
            return;
        };
        let mut i = 0;
        while i < chaos.bursts.len() {
            if now >= chaos.bursts[i].until {
                let b = chaos.bursts.swap_remove(i);
                self.tb.world.reconfigure_path(b.a, b.b, b.saved_ab);
                self.tb.world.reconfigure_path(b.b, b.a, b.saved_ba);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < chaos.loss_episodes.len() {
            if now >= chaos.loss_episodes[i].until {
                let e = chaos.loss_episodes.swap_remove(i);
                self.tb.world.reconfigure_path(e.a, e.b, e.saved_ab);
                self.tb.world.reconfigure_path(e.b, e.a, e.saved_ba);
            } else {
                i += 1;
            }
        }
        if now >= chaos.next_burst_check {
            if let Some((ai, bi)) = chaos.injector.burst_starts(self.tb.pop_count()) {
                let (a, b) = (PopId::from_index(ai as u32), PopId::from_index(bi as u32));
                let hit = chaos
                    .bursts
                    .iter()
                    .any(|x| (x.a == a && x.b == b) || (x.a == b && x.b == a));
                if !hit {
                    let saved_ab = self
                        .tb
                        .world
                        .path_config(a, b)
                        .expect("inter-pop path exists")
                        .clone();
                    let saved_ba = self
                        .tb
                        .world
                        .path_config(b, a)
                        .expect("inter-pop path exists")
                        .clone();
                    let loss = chaos.injector.plan().burst_loss;
                    let mut burst_ab = saved_ab.clone();
                    burst_ab.loss = burst_ab.loss.max(loss);
                    let mut burst_ba = saved_ba.clone();
                    burst_ba.loss = burst_ba.loss.max(loss);
                    self.tb.world.reconfigure_path(a, b, burst_ab);
                    self.tb.world.reconfigure_path(b, a, burst_ba);
                    chaos.bursts.push(ActiveBurst {
                        until: now + chaos.injector.plan().burst_for,
                        a,
                        b,
                        saved_ab,
                        saved_ba,
                    });
                }
            }
            chaos.next_burst_check = now + chaos.injector.plan().burst_check_every;
        }
    }

    /// Whether host `h`'s daemon is up at `now` (always true without a
    /// chaos layer; a down daemon neither snapshots, journals, nor
    /// gossips).
    fn host_up(chaos: &Option<ChaosState>, h: usize, now: SimTime) -> bool {
        chaos
            .as_ref()
            .is_none_or(|c| c.down_until[h].is_none_or(|until| now >= until))
    }

    /// One host's learned table as sync entries, key-sorted (tables
    /// iterate in key order).
    fn sync_entries(agents: &[Option<RiptideAgent>], h: usize) -> Vec<SyncEntry> {
        agents[h].as_ref().map_or_else(Vec::new, |a| {
            a.table()
                .iter()
                .map(|(k, e)| SyncEntry {
                    key: *k,
                    window: e.window,
                    last_updated: e.last_updated,
                })
                .collect()
        })
    }

    /// Appends journal records for each host whose installed view
    /// changed since its state file last described it — the WAL half of
    /// the persistence hybrid, so a crash loses at most one tick.
    fn journal_deltas(&mut self, now: SimTime) {
        let Some(p) = self.persist.as_mut() else {
            return;
        };
        if !p.cfg.journal {
            return;
        }
        for h in 0..self.agents.len() {
            if !Self::host_up(&self.chaos, h, now) {
                continue;
            }
            let Some(agent) = self.agents[h].as_ref() else {
                continue;
            };
            let store = &mut p.stores[h];
            let cur = agent.installed_view();
            if *cur == store.last_installed {
                continue;
            }
            // A journal needs a snapshot header to replay onto; the
            // first append starts from an empty one.
            if store.bytes.is_empty() {
                let empty = TableSnapshot::default();
                store.bytes = encode_state(&empty, &[]);
            }
            let mut records = 0u64;
            for &key in store.last_installed.keys() {
                if !cur.contains_key(&key) {
                    JournalRecord {
                        at: now,
                        key,
                        op: JournalOp::Withdraw,
                    }
                    .encode_into(&mut store.bytes);
                    records += 1;
                }
            }
            for (&key, &window) in cur {
                if store.last_installed.get(&key) != Some(&window) {
                    JournalRecord {
                        at: now,
                        key,
                        op: JournalOp::Install { window },
                    }
                    .encode_into(&mut store.bytes);
                    records += 1;
                }
            }
            store.last_installed = cur.clone();
            self.coldstart.journal_records += records;
        }
    }

    /// Rewrites every live host's snapshot from its agent's full state,
    /// truncating the journal tail into it.
    fn snapshot_hosts(&mut self, now: SimTime) {
        let Some(p) = self.persist.as_mut() else {
            return;
        };
        for h in 0..self.agents.len() {
            if !Self::host_up(&self.chaos, h, now) {
                continue;
            }
            let Some(agent) = self.agents[h].as_ref() else {
                continue;
            };
            let store = &mut p.stores[h];
            store.bytes = encode_state(&agent.snapshot_state(now), &[]);
            store.last_installed = agent.installed_view().clone();
            self.coldstart.snapshots_written += 1;
        }
        p.next_snapshot = now + p.cfg.snapshot_every;
    }

    /// One gossip round: draw this round's pairs, compare digests, and
    /// ship bounded deltas both ways where they differ. All table
    /// mutation goes through [`RiptideAgent::merge_remote`], which
    /// applies the newest-wins clamp-merge rules and installs through
    /// the same bounds-checked controller as learning.
    fn gossip_round(&mut self, now: SimTime) {
        let alive: Vec<bool> = (0..self.agents.len())
            .map(|h| self.agents[h].is_some() && Self::host_up(&self.chaos, h, now))
            .collect();
        let Some(fabric) = self.gossip.as_mut() else {
            return;
        };
        let pairs = fabric.pairs_for_round(now, &alive);
        fabric.schedule_next(now);
        let sync_cfg = fabric.sync_config();
        for (a, b) in pairs {
            let ea = Self::sync_entries(&self.agents, a);
            let eb = Self::sync_entries(&self.agents, b);
            let fabric = self.gossip.as_mut().expect("gossip enabled");
            if digest_of(&ea) == digest_of(&eb) {
                self.coldstart.digests_matched += 1;
                fabric.record_exchange(a, b, now);
                continue;
            }
            let since = fabric.last_exchange(a, b);
            let delta_ab = delta_for(&ea, since, &sync_cfg);
            let delta_ba = delta_for(&eb, since, &sync_cfg);
            fabric.record_exchange(a, b, now);
            self.coldstart.entries_shipped +=
                (delta_ab.entries.len() + delta_ba.entries.len()) as u64;
            for (dst, delta) in [(b, delta_ab), (a, delta_ba)] {
                if delta.entries.is_empty() {
                    continue;
                }
                let agent = self.agents[dst].as_mut().expect("alive host has agent");
                let ctl = self.controllers[dst]
                    .as_mut()
                    .expect("controller exists when agent does");
                let accepted = agent.merge_remote(&delta.entries, now, ctl);
                self.coldstart.entries_accepted += accepted.len() as u64;
            }
        }
    }

    /// Completes any in-progress ramp whose host climbed back to 90% of
    /// its pre-crash installed-window sum.
    fn check_ramp(&mut self, now: SimTime) {
        for h in 0..self.agents.len() {
            let Some((pre, since)) = self.ramp_active[h] else {
                continue;
            };
            if !Self::host_up(&self.chaos, h, now) {
                continue;
            }
            let Some(agent) = self.agents[h].as_ref() else {
                continue;
            };
            let cur: u64 = agent.installed_view().values().map(|&w| w as u64).sum();
            if cur * 10 >= pre * 9 {
                let ramp = now.saturating_since(since);
                self.coldstart.recoveries += 1;
                self.coldstart.ramp_nanos_total += ramp.as_nanos();
                self.coldstart.ramp_nanos_max = self.coldstart.ramp_nanos_max.max(ramp.as_nanos());
                self.ramp_active[h] = None;
            }
        }
    }

    fn sample_cwnds(&mut self, now: SimTime) {
        for h in 0..self.tb.world.host_count() {
            let host = HostId::from_index(h as u32);
            let site = self.tb.world.pop_of(host).index();
            let world = &self.tb.world;
            let samples = &mut self.cwnd_samples;
            world.each_host_conn_stat(host, |s| {
                // The paper's filter: only connections created after
                // Riptide was started (t = 0 here), in ESTAB state.
                if s.state != ConnState::Established {
                    return;
                }
                samples.push(CwndSample {
                    site,
                    dst_site: world.pop_of(s.dst).index(),
                    cwnd: s.cwnd,
                    at: now,
                });
            });
        }
    }

    fn fire_due_probes(&mut self, now: SimTime) {
        if now < self.next_probe_due {
            return;
        }
        while let Some(&std::cmp::Reverse((due, idx))) = self.probe_heap.peek() {
            if due > now {
                break;
            }
            self.probe_heap.pop();
            let (_, host, site) = self.probe_schedule[idx];
            self.probe_one_machine(host, site);
            let next = now + self.cfg.probes.interval;
            self.probe_schedule[idx].0 = next;
            self.probe_heap.push(std::cmp::Reverse((next, idx)));
        }
        self.next_probe_due = self
            .probe_heap
            .peek()
            .map(|r| (r.0).0)
            .unwrap_or(SimTime::MAX);
    }

    fn probe_one_machine(&mut self, host: HostId, site: usize) {
        let machine_slot = self
            .tb
            .machines(site)
            .iter()
            .position(|&h| h == host)
            .expect("host belongs to its site");
        for dst_site in 0..self.tb.pop_count() {
            if dst_site == site {
                continue;
            }
            let targets = self.tb.machines(dst_site);
            let target = targets[machine_slot % targets.len()];
            for size_idx in 0..self.cfg.probes.sizes.len() {
                let size = self.cfg.probes.sizes[size_idx];
                // §II-A churn: some idle connections have been closed by
                // application behaviour since the last round.
                if self.rng.chance(self.cfg.probes.churn) {
                    if let Some(cid) = self.tb.world.find_idle_connection(host, target) {
                        self.tb.world.close_connection(cid);
                    }
                }
                let tid = match self.tb.world.find_idle_connection(host, target) {
                    Some(cid) => self.tb.world.start_transfer(cid, size),
                    None => self.tb.world.open_and_transfer(host, target, size).1,
                };
                self.probe_tags.insert(tid, (site, dst_site, size));
            }
        }
    }

    fn fire_due_organic(&mut self, now: SimTime) {
        if now < self.next_organic_due {
            return;
        }
        while let Some(&std::cmp::Reverse((due, idx))) = self.organic_heap.peek() {
            if due > now {
                break;
            }
            self.organic_heap.pop();
            let (_, src_site, dst_site) = self.organic_schedule[idx];
            let src_hosts = self.tb.machines(src_site);
            let dst_hosts = self.tb.machines(dst_site);
            let src = src_hosts[self.rng.below(src_hosts.len())];
            let dst = dst_hosts[self.rng.below(dst_hosts.len())];
            let bytes = self.cfg.organic.sizes.sample(&mut self.rng);
            match self.tb.world.find_idle_connection(src, dst) {
                Some(cid) => {
                    self.tb.world.start_transfer(cid, bytes);
                }
                None => {
                    self.tb.world.open_and_transfer(src, dst, bytes);
                }
            }
            self.organic_started += 1;
            let rate = self.cfg.organic.rate_at(now.as_secs_f64()).max(1e-6);
            let gap = self
                .rng
                .exp_duration(SimDuration::from_secs_f64(1.0 / rate));
            self.organic_schedule[idx].0 = now + gap;
            self.organic_heap.push(std::cmp::Reverse((now + gap, idx)));
        }
        self.next_organic_due = self
            .organic_heap
            .peek()
            .map(|r| (r.0).0)
            .unwrap_or(SimTime::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(riptide: bool, seed: u64) -> CdnSimConfig {
        CdnSimConfig {
            testbed: TestbedConfig::tiny(3, 2, seed),
            riptide: riptide.then(RiptideConfig::deployment),
            probes: ProbeConfig {
                interval: SimDuration::from_secs(60),
                ..ProbeConfig::default()
            },
            organic: OrganicConfig::none(),
            cwnd_sample_interval: SimDuration::from_secs(30),
            probe_senders: None,
            telemetry: false,
            resilience: ResilienceOverlay::default(),
        }
    }

    #[test]
    fn probes_complete_in_both_modes() {
        for riptide in [false, true] {
            let mut sim = CdnSim::new(tiny_cfg(riptide, 11));
            sim.run_for(SimDuration::from_secs(300));
            // 3 sites × 2 machines × 2 destinations × 3 sizes per round,
            // several rounds in 300 s.
            let n = sim.probe_outcomes().len();
            assert!(n >= 3 * 2 * 2 * 3 * 3, "riptide={riptide}: {n} probes");
            assert!(
                sim.probe_outcomes()
                    .iter()
                    .all(|p| p.completion > SimDuration::ZERO && p.src_site != p.dst_site),
                "well-formed outcomes"
            );
        }
    }

    #[test]
    fn agents_learn_windows_for_probed_destinations() {
        let mut sim = CdnSim::new(tiny_cfg(true, 13));
        sim.run_for(SimDuration::from_secs(200));
        let host = sim.testbed().machines(0)[0];
        let dst_host = sim.testbed().machines(1)[0];
        let dst_addr = sim.testbed().world.host_addr(dst_host);
        let learned = sim.learned_window(host, dst_addr);
        assert!(learned.is_some(), "agent learned a window after probing");
        let w = learned.unwrap();
        assert!(
            (10..=100).contains(&w),
            "learned window {w} in [c_min, c_max]"
        );
        let stats = sim.agent_stats_total();
        assert!(stats.ticks > 0 && stats.route_updates > 0);
    }

    #[test]
    fn control_run_has_no_agents() {
        let mut sim = CdnSim::new(tiny_cfg(false, 13));
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(sim.agent_stats_total(), AgentStats::default());
        assert!(!sim.riptide_enabled());
        assert!(!sim.probe_outcomes().is_empty());
    }

    #[test]
    fn cwnd_samples_accumulate() {
        let mut sim = CdnSim::new(tiny_cfg(true, 17));
        sim.run_for(SimDuration::from_secs(200));
        assert!(!sim.cwnd_samples().is_empty());
        assert!(sim.cwnd_samples().iter().all(|s| s.cwnd >= 1));
    }

    #[test]
    fn organic_traffic_flows() {
        let mut cfg = tiny_cfg(true, 19);
        cfg.organic = OrganicConfig::among(vec![0, 1], 0.5);
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(300));
        assert!(
            sim.organic_started() > 30,
            "started {}",
            sim.organic_started()
        );
        assert!(
            sim.organic_completed() > 20,
            "completed {}",
            sim.organic_completed()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let mut sim = CdnSim::new(tiny_cfg(true, seed));
            sim.run_for(SimDuration::from_secs(180));
            sim.probe_outcomes()
                .iter()
                .map(|p| (p.src_site, p.dst_site, p.size, p.completion.as_nanos()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(23), run(23));
        assert_ne!(run(23), run(24));
    }

    #[test]
    fn probe_senders_can_be_restricted() {
        let mut cfg = tiny_cfg(false, 29);
        cfg.probe_senders = Some(vec![0]);
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(150));
        assert!(sim.probe_outcomes().iter().all(|p| p.src_site == 0));
    }

    #[test]
    fn chaos_fires_faults_but_windows_stay_in_bounds() {
        let mut cfg = tiny_cfg(true, 41);
        cfg.resilience.faults = FaultPlan::uniform(0.2);
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(400));
        let r = sim.chaos_report();
        assert!(r.faults.observe_timeouts > 0, "{r:?}");
        assert!(
            r.faults.install_errors + r.faults.install_delays > 0,
            "{r:?}"
        );
        assert!(r.degraded_ticks > 0, "degraded cycles happened: {r:?}");
        assert!(r.observe_retries > 0, "retries happened: {r:?}");
        assert_eq!(r.invariant_breaches, 0, "no-harm invariant: {r:?}");
        let (lo, hi) = r.installed_range().expect("something was installed");
        assert!(lo >= 10 && hi <= 100, "installed range [{lo}, {hi}]");
    }

    #[test]
    fn chaos_crashes_lose_tables_and_recovery_wipes_stale_routes() {
        let mut cfg = tiny_cfg(true, 43);
        cfg.resilience.faults = FaultPlan {
            crash: 0.05,
            restart_after: SimDuration::from_secs(5),
            ..FaultPlan::none()
        };
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(400));
        let r = sim.chaos_report();
        assert!(r.faults.crashes > 0, "{r:?}");
        assert!(r.routes_recovered > 0, "restarts wiped stale routes: {r:?}");
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let run = |seed| {
            let mut cfg = tiny_cfg(true, seed);
            cfg.resilience.faults = FaultPlan::uniform(0.1);
            let mut sim = CdnSim::new(cfg);
            sim.run_for(SimDuration::from_secs(300));
            let probes = sim
                .probe_outcomes()
                .iter()
                .map(|p| (p.src_site, p.dst_site, p.size, p.completion.as_nanos()))
                .collect::<Vec<_>>();
            (probes, sim.chaos_report())
        };
        assert_eq!(run(23), run(23));
        assert_ne!(run(23), run(24));
    }

    #[test]
    fn link_bursts_hit_control_runs_too() {
        // The burst stream is independent of agent-facing faults, so a
        // control run draws the same burst schedule as a riptide run.
        let report = |riptide| {
            let mut cfg = tiny_cfg(riptide, 47);
            cfg.resilience.faults = FaultPlan {
                burst_start: 0.5,
                burst_loss: 0.2,
                ..FaultPlan::none()
            };
            let mut sim = CdnSim::new(cfg);
            sim.run_for(SimDuration::from_secs(200));
            sim.chaos_report().faults.bursts
        };
        let control = report(false);
        assert!(control > 0, "bursts fired in the control run");
        assert_eq!(control, report(true), "same burst schedule in both arms");
    }

    #[test]
    fn route_churn_creates_drift_and_reconcile_repairs_it() {
        let mut cfg = tiny_cfg(true, 53);
        cfg.resilience.faults = FaultPlan::guardrail(0.3);
        cfg.resilience.faults.targeted_loss = 0.0; // churn only, in this test
        cfg.resilience.reconcile_every = Some(SimDuration::from_secs(45));
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(600));
        // Let a final audit land after the last churn instant: the last
        // agent tick is at t <= 600 and the reconciler runs every 45 s,
        // so running past one more audit instant converges the tables.
        let last_tick = sim.next_agent_tick;
        sim.run_for(last_tick + SimDuration::from_secs(46) - sim.tb.world.now());
        let r = sim.chaos_report();
        assert!(r.faults.route_churns > 0, "{r:?}");
        assert!(
            r.drift_deleted + r.drift_orphaned > 0,
            "churn mutated agent-owned state: {r:?}"
        );
        assert!(r.reconcile_repairs > 0, "audits repaired drift: {r:?}");
        assert_eq!(r.foreign_missing, 0, "foreign routes untouched: {r:?}");
        assert_eq!(r.invariant_breaches, 0, "repairs respect bounds: {r:?}");
    }

    #[test]
    fn unreconciled_churn_leaves_visible_drift() {
        let mut cfg = tiny_cfg(true, 53);
        cfg.resilience.faults = FaultPlan::guardrail(0.3);
        cfg.resilience.faults.targeted_loss = 0.0;
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(600));
        let r = sim.chaos_report();
        assert!(r.faults.route_churns > 0, "{r:?}");
        assert!(
            r.drift_unrepaired > 0,
            "without audits, drift persists: {r:?}"
        );
    }

    #[test]
    fn targeted_loss_trips_guards() {
        let mut cfg = tiny_cfg(true, 59);
        cfg.riptide = Some(
            RiptideConfig::builder()
                .guard(GuardConfig::default())
                .build()
                .expect("valid config"),
        );
        cfg.resilience.faults = FaultPlan::guardrail(0.6);
        cfg.resilience.faults.route_churn = 0.0; // loss only, in this test
        cfg.resilience.faults.targeted_loss_rate = 0.3;
        cfg.resilience.faults.targeted_loss_for = SimDuration::from_secs(60);
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(900));
        let r = sim.chaos_report();
        assert!(r.faults.targeted_bursts > 0, "{r:?}");
        assert!(
            r.guard_trips > 0,
            "loss on jump-started paths tripped breakers: {r:?}"
        );
        assert_eq!(r.invariant_breaches, 0, "{r:?}");
    }

    #[test]
    fn guardrail_chaos_runs_are_deterministic() {
        let run = |seed| {
            let mut cfg = tiny_cfg(true, seed);
            cfg.riptide = Some(
                RiptideConfig::builder()
                    .guard(GuardConfig::default())
                    .build()
                    .expect("valid config"),
            );
            cfg.resilience.faults = FaultPlan::guardrail(0.25);
            cfg.resilience.reconcile_every = Some(SimDuration::from_secs(45));
            let mut sim = CdnSim::new(cfg);
            sim.run_for(SimDuration::from_secs(400));
            let probes = sim
                .probe_outcomes()
                .iter()
                .map(|p| (p.src_site, p.dst_site, p.size, p.completion.as_nanos()))
                .collect::<Vec<_>>();
            (probes, sim.chaos_report())
        };
        assert_eq!(run(61), run(61));
        assert_ne!(run(61), run(62));
    }

    #[test]
    fn zero_rate_guardrail_plan_is_bit_identical_to_no_faults() {
        let run = |faults: FaultPlan, reconcile: Option<SimDuration>| {
            let mut cfg = tiny_cfg(true, 67);
            cfg.resilience.faults = faults;
            cfg.resilience.reconcile_every = reconcile;
            let mut sim = CdnSim::new(cfg);
            sim.run_for(SimDuration::from_secs(300));
            sim.probe_outcomes()
                .iter()
                .map(|p| (p.src_site, p.dst_site, p.size, p.completion.as_nanos()))
                .collect::<Vec<_>>()
        };
        let clean = run(FaultPlan::none(), None);
        assert_eq!(
            clean,
            run(FaultPlan::guardrail(0.0), None),
            "zero-rate plan adds nothing"
        );
        assert_eq!(
            clean,
            run(FaultPlan::none(), Some(SimDuration::from_secs(45))),
            "audits on a converged table are invisible"
        );
    }

    /// A crash plan for warm-restart tests: machine restarts (crash +
    /// connection reset) only, quick downtime, everything else clean.
    fn crash_plan(rate: f64) -> FaultPlan {
        FaultPlan {
            crash: rate,
            restart_after: SimDuration::from_secs(5),
            crash_resets_connections: true,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn crash_restart_with_persistence_restores_learned_tables() {
        let mut cfg = tiny_cfg(true, 43);
        cfg.resilience.faults = crash_plan(0.05);
        cfg.resilience.persistence = Some(PersistenceConfig::default());
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(400));
        let r = sim.chaos_report();
        assert!(r.faults.crashes > 0, "{r:?}");
        let c = sim.coldstart_report();
        assert!(c.snapshots_written > 0, "{c:?}");
        assert!(c.journal_records > 0, "installs were journalled: {c:?}");
        assert!(
            c.restored_routes > 0,
            "restarts reloaded persisted routes: {c:?}"
        );
        assert!(c.restarts_tracked > 0, "{c:?}");
        assert_eq!(r.invariant_breaches, 0, "restores respect bounds: {r:?}");
        // Every restored window the kernel now carries is in bounds.
        if let Some((lo, hi)) = r.installed_range() {
            assert!(lo >= 10 && hi <= 100, "installed range [{lo}, {hi}]");
        }
    }

    #[test]
    fn persisted_restarts_ramp_up_faster_than_cold_ones() {
        let run = |persistence: Option<PersistenceConfig>| {
            let mut cfg = tiny_cfg(true, 43);
            cfg.resilience.faults = crash_plan(0.01);
            cfg.resilience.persistence = persistence;
            let mut sim = CdnSim::new(cfg);
            sim.run_for(SimDuration::from_secs(600));
            sim.coldstart_report()
        };
        let cold = run(None);
        let warm = run(Some(PersistenceConfig::default()));
        assert!(cold.restarts_tracked > 0 && warm.restarts_tracked > 0);
        // A cold restart re-learns from the next probe rounds; a warm
        // one reinstalls from the state file within its restart tick.
        let warm_mean = warm.mean_ramp_secs().expect("warm restarts recovered");
        match cold.mean_ramp_secs() {
            Some(cold_mean) => assert!(
                warm_mean < cold_mean,
                "warm {warm_mean}s vs cold {cold_mean}s"
            ),
            // Cold restarts may not even reach 90% before the run ends.
            None => assert!(cold.unrecovered > 0),
        }
    }

    #[test]
    fn gossip_spreads_learned_entries_across_the_fleet() {
        let entries = |gossip: Option<GossipConfig>| {
            let mut cfg = tiny_cfg(true, 71);
            cfg.resilience.gossip = gossip;
            let mut sim = CdnSim::new(cfg);
            sim.run_for(SimDuration::from_secs(400));
            let (_, n) = sim.mean_learned_window().expect("something learned");
            (n, sim.coldstart_report())
        };
        let (plain, _) = entries(None);
        let (gossiped, c) = entries(Some(GossipConfig::default()));
        assert!(c.gossip_rounds > 0 && c.gossip_pairs > 0, "{c:?}");
        assert!(c.entries_shipped > 0, "deltas travelled: {c:?}");
        assert!(c.entries_accepted > 0, "deltas were merged: {c:?}");
        // Each machine only probes its slot-matched target per remote
        // PoP; gossip spreads the other machines' destinations to it.
        assert!(
            gossiped > plain,
            "fleet knows more with gossip: {gossiped} vs {plain}"
        );
    }

    #[test]
    fn gossip_backs_off_crashed_peers() {
        let mut cfg = tiny_cfg(true, 73);
        cfg.resilience.faults = crash_plan(0.08);
        cfg.resilience.gossip = Some(GossipConfig {
            every: SimDuration::from_secs(15),
            ..GossipConfig::default()
        });
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(600));
        let r = sim.chaos_report();
        assert!(r.faults.crashes > 0, "{r:?}");
        let c = sim.coldstart_report();
        assert!(
            c.gossip_peers_marked_down > 0,
            "draws found down peers: {c:?}"
        );
        assert_eq!(r.invariant_breaches, 0, "merges respect bounds: {r:?}");
    }

    #[test]
    fn persistence_and_gossip_runs_are_deterministic() {
        let run = |seed| {
            let mut cfg = tiny_cfg(true, seed);
            cfg.resilience.faults = crash_plan(0.05);
            cfg.resilience.persistence = Some(PersistenceConfig::default());
            cfg.resilience.gossip = Some(GossipConfig::default());
            let mut sim = CdnSim::new(cfg);
            sim.run_for(SimDuration::from_secs(400));
            let probes = sim
                .probe_outcomes()
                .iter()
                .map(|p| (p.src_site, p.dst_site, p.size, p.completion.as_nanos()))
                .collect::<Vec<_>>();
            (probes, sim.coldstart_report(), sim.chaos_report())
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn zero_rate_crash_plan_with_persistence_is_bit_identical() {
        let run = |faults: FaultPlan, persistence: Option<PersistenceConfig>| {
            let mut cfg = tiny_cfg(true, 67);
            cfg.resilience.faults = faults;
            cfg.resilience.persistence = persistence;
            let mut sim = CdnSim::new(cfg);
            sim.run_for(SimDuration::from_secs(300));
            sim.probe_outcomes()
                .iter()
                .map(|p| (p.src_site, p.dst_site, p.size, p.completion.as_nanos()))
                .collect::<Vec<_>>()
        };
        let clean = run(FaultPlan::none(), None);
        // Snapshots and journals observe the run without perturbing it:
        // no RNG draws, no route writes — so with zero crashes the run
        // is bit-identical to one without the persistence layer at all.
        assert_eq!(
            clean,
            run(crash_plan(0.0), Some(PersistenceConfig::default())),
            "zero-rate crash plan with persistence adds nothing"
        );
    }

    #[test]
    fn riptide_probes_eventually_start_with_learned_windows() {
        let mut sim = CdnSim::new(tiny_cfg(true, 31));
        sim.run_for(SimDuration::from_secs(600));
        let boosted = sim
            .probe_outcomes()
            .iter()
            .filter(|p| p.initial_cwnd > 10)
            .count();
        assert!(
            boosted > 0,
            "some later probes open with Riptide-set windows"
        );
    }
}

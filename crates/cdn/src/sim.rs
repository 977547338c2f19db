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
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use riptide::daemon::{Daemon, Storage, SNAPSHOT_EVERY};
use riptide::persist::JOURNAL_RECORD_BYTES;
use riptide::prelude::*;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::prelude::*;

use crate::agenda::{Activity, Agenda};
use crate::chaos::ChaosLayer;
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
    /// Warm-restart persistence: each host's daemon keeps its state
    /// file on a simulated disk that survives crash faults — an anchor
    /// snapshot at every start, a journal of each poll's route deltas,
    /// a snapshot every `SNAPSHOT_EVERY` polls — and a restarted daemon
    /// reloads it instead of starting empty.
    pub persistence: bool,
    /// Anti-entropy gossip between the fleet's agents. The fabric's RNG
    /// is forked purely, so no other draw sequence moves.
    pub gossip: Option<GossipConfig>,
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
    /// Snapshots written by live hosts, the anchor snapshot of every
    /// start and restart included.
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

/// One riptide host: its daemon, and the bounds-checked handle on the
/// kernel table it steers. A crash replaces the daemon; the controller,
/// like the routes behind it, survives, and so does the daemon's disk.
#[derive(Debug)]
pub(crate) struct Host {
    pub(crate) daemon: Daemon<Disk>,
    pub(crate) controller: CheckedController<SharedRouteController>,
}

/// A host's simulated state file: bytes on a disk that outlives its
/// daemon, and the writes that reached them.
#[derive(Debug, Default)]
pub(crate) struct Disk {
    pub(crate) bytes: Vec<u8>,
    /// Snapshots written and journal records appended (no other field).
    done: ColdstartReport,
}

impl Storage for Disk {
    fn replace(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.done.snapshots_written += 1;
        Storage::replace(&mut self.bytes, bytes)
    }

    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.done.journal_records += (bytes.len() / JOURNAL_RECORD_BYTES) as u64;
        Storage::append(&mut self.bytes, bytes)
    }
}

/// A daemon that has not started yet, over `disk` if the host keeps one.
pub(crate) fn fresh_daemon(
    rc: &RiptideConfig,
    telemetry: Option<&AgentTelemetry>,
    disk: Option<Disk>,
) -> Daemon<Disk> {
    let mut agent = RiptideAgent::new(rc.clone()).expect("validated riptide config");
    if let Some(t) = telemetry {
        agent.attach_telemetry(t.clone());
    }
    Daemon::new(agent, disk, SNAPSHOT_EVERY)
}

/// Starts a transfer, reusing an idle `src → dst` connection if any.
fn send(world: &mut World, src: HostId, dst: HostId, bytes: u64) -> TransferId {
    match world.find_idle_connection(src, dst) {
        Some(cid) => world.start_transfer(cid, bytes),
        None => world.open_and_transfer(src, dst, bytes).1,
    }
}

/// The §IV-A probe infrastructure: every probing machine sends each
/// probe size to one machine of every other PoP, once per interval.
#[derive(Debug, Default)]
struct ProbeHarness {
    /// Per probing machine: (host, site index, slot within the site).
    machines: Vec<(HostId, usize, usize)>,
    /// Probes in flight: transfer → (src site, dst site, size).
    tags: HashMap<TransferId, (usize, usize, u64)>,
    outcomes: Vec<ProbeOutcome>,
}

impl ProbeHarness {
    /// [`Activity::Probe`]: machine `idx` sends one round. Returns the
    /// gap to its next.
    fn fire(
        &mut self,
        idx: usize,
        tb: &mut Testbed,
        rng: &mut DetRng,
        cfg: &ProbeConfig,
    ) -> SimDuration {
        let (host, site, machine_slot) = self.machines[idx];
        for dst_site in 0..tb.pop_count() {
            if dst_site == site {
                continue;
            }
            let targets = tb.machines(dst_site);
            let target = targets[machine_slot % targets.len()];
            for &size in &cfg.sizes {
                // §II-A churn: some idle connections have been closed by
                // application behaviour since the last round.
                if rng.chance(cfg.churn) {
                    if let Some(cid) = tb.world.find_idle_connection(host, target) {
                        tb.world.close_connection(cid);
                    }
                }
                let tid = send(&mut tb.world, host, target, size);
                self.tags.insert(tid, (site, dst_site, size));
            }
        }
        cfg.interval
    }
}

/// Organic back-office traffic: Poisson flow arrivals per ordered busy
/// PoP pair.
#[derive(Debug, Default)]
struct OrganicArrivals {
    /// Per ordered busy pair: (src site, dst site).
    pairs: Vec<(usize, usize)>,
    started: u64,
    completed: u64,
}

impl OrganicArrivals {
    /// [`Activity::Organic`]: pair `idx` starts a flow between two
    /// randomly drawn machines. Returns the gap to its next arrival.
    fn fire(
        &mut self,
        idx: usize,
        now: SimTime,
        tb: &mut Testbed,
        rng: &mut DetRng,
        cfg: &OrganicConfig,
    ) -> SimDuration {
        let (src_site, dst_site) = self.pairs[idx];
        let src_hosts = tb.machines(src_site);
        let dst_hosts = tb.machines(dst_site);
        let src = src_hosts[rng.below(src_hosts.len())];
        let dst = dst_hosts[rng.below(dst_hosts.len())];
        let bytes = cfg.sizes.sample(rng);
        send(&mut tb.world, src, dst, bytes);
        self.started += 1;
        let rate = cfg.rate_at(now.as_secs_f64()).max(1e-6);
        rng.exp_duration(SimDuration::from_secs_f64(1.0 / rate))
    }
}

/// A running deployment.
#[derive(Debug)]
pub struct CdnSim {
    tb: Testbed,
    cfg: CdnSimConfig,
    /// The Riptide hosts (none for a control run).
    hosts: Vec<Host>,
    /// The simulation stream. Only probe rounds and organic arrivals
    /// draw on it; every overlay forks its own.
    rng: DetRng,
    /// Everything the harness has scheduled.
    agenda: Agenda,
    probes: ProbeHarness,
    organic: OrganicArrivals,
    cwnd_samples: Vec<CwndSample>,
    /// Shared telemetry bundle, when `cfg.telemetry` is on: every agent
    /// (including crash-restart incarnations) registers on one registry,
    /// so counters aggregate across the whole deployment.
    telemetry: Option<AgentTelemetry>,
    /// What breaks, when the fault plan is enabled.
    chaos: Option<ChaosLayer>,
    /// Gossip scheduler, when fleet sync is configured.
    gossip: Option<GossipFabric>,
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
        let check = |what: &str, valid: Result<(), String>| {
            valid.unwrap_or_else(|e| panic!("invalid {what}: {e}"))
        };
        let overlay = &cfg.resilience;
        check("probe config", cfg.probes.validate());
        check("fault plan", overlay.faults.validate());
        for crowd in &cfg.organic.flash_crowds {
            check("flash crowd", crowd.validate());
        }
        if let Some(g) = &overlay.gossip {
            check("gossip config", g.validate());
        }
        let mut tb = Testbed::build(&cfg.testbed);
        let mut rng = DetRng::from_seed(cfg.testbed.seed ^ 0x5EED_CD11);
        let host_count = tb.world.host_count();

        let telemetry = (cfg.telemetry && cfg.riptide.is_some())
            .then(|| AgentTelemetry::standalone(TELEMETRY_JOURNAL_CAPACITY));
        // Registered whenever telemetry is on, faults or no faults, so
        // the exposition lists the same metrics either way.
        let io_counters = telemetry.as_ref().map(|t| t.io_counters());

        // The overlays. Each forks its RNG off `rng` before anything
        // draws on it, and forking is pure, so attaching (or not
        // attaching) one leaves `rng`'s own sequence — and therefore
        // every draw of a run without it — untouched.
        let mut agenda = Agenda::default();
        let chaos = overlay.faults.is_enabled().then(|| {
            let plan = overlay.faults.clone();
            ChaosLayer::new(plan, &rng, &tb.world, io_counters, &mut agenda)
        });
        let mut arm = |first: SimDuration, activity| agenda.arm(SimTime::ZERO + first, activity);
        arm(cfg.cwnd_sample_interval, Activity::CwndSample);
        let (mut hosts, mut gossip) = (Vec::new(), None);
        if let Some(rc) = &cfg.riptide {
            arm(rc.update_interval, Activity::AgentTick);
            if let Some(every) = overlay.reconcile_every {
                arm(every, Activity::Reconcile);
            }
            if let Some(g) = overlay.gossip {
                arm(g.every, Activity::GossipRound);
                gossip = Some(GossipFabric::new(g, &rng, host_count));
            }
            for h in 0..host_count {
                let table = Rc::new(RefCell::new(RouteTable::new()));
                let policy = TablePolicy {
                    table: Rc::clone(&table),
                };
                tb.world
                    .set_host_policy(HostId::from_index(h as u32), Rc::new(policy));
                let gate = SharedRouteController::new(table);
                let disk = overlay.persistence.then(Disk::default);
                let mut host = Host {
                    daemon: fresh_daemon(rc, telemetry.as_ref(), disk),
                    controller: CheckedController::new(gate, rc.cwnd_min, rc.cwnd_max),
                };
                // No file yet, so nothing restores: the start anchors one.
                let _ = host.daemon.start(&[], SimTime::ZERO, &mut host.controller);
                hosts.push(host);
            }
        }

        // Stagger each machine's probe phase uniformly over one interval.
        let mut probes = ProbeHarness::default();
        let senders: Vec<usize> = cfg
            .probe_senders
            .clone()
            .unwrap_or_else(|| (0..tb.pop_count()).collect());
        for &site in &senders {
            for (slot, &host) in tb.machines(site).iter().enumerate() {
                arm(
                    rng.jitter(cfg.probes.interval),
                    Activity::Probe(probes.machines.len()),
                );
                probes.machines.push((host, site, slot));
            }
        }

        // Organic arrivals per ordered busy pair.
        let mut organic = OrganicArrivals::default();
        if cfg.organic.is_enabled() {
            let mean_gap = SimDuration::from_secs_f64(1.0 / cfg.organic.flows_per_sec);
            for &i in &cfg.organic.busy_pops {
                for &j in cfg.organic.busy_pops.iter().filter(|&&j| j != i) {
                    arm(
                        rng.exp_duration(mean_gap),
                        Activity::Organic(organic.pairs.len()),
                    );
                    organic.pairs.push((i, j));
                }
            }
        }

        CdnSim {
            tb,
            cfg,
            hosts,
            rng,
            agenda,
            probes,
            organic,
            cwnd_samples: Vec::new(),
            telemetry,
            chaos,
            gossip,
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
        &self.probes.outcomes
    }

    /// Live-window samples so far.
    pub fn cwnd_samples(&self) -> &[CwndSample] {
        &self.cwnd_samples
    }

    /// Organic flows completed so far.
    pub fn organic_completed(&self) -> u64 {
        self.organic.completed
    }

    /// Organic flows started so far.
    pub fn organic_started(&self) -> u64 {
        self.organic.started
    }

    fn agents(&self) -> impl Iterator<Item = &RiptideAgent> {
        self.hosts.iter().map(|host| host.daemon.agent())
    }

    /// Mean learned (installed) window across every agent's live table,
    /// with the number of live destination entries — a convergence
    /// snapshot. `None` for control runs or before anything is learned.
    pub fn mean_learned_window(&self) -> Option<(f64, usize)> {
        let mut sum = 0u64;
        let mut n = 0usize;
        for agent in self.agents() {
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
        for agent in self.agents() {
            total += agent.stats();
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
            .map(ChaosLayer::report)
            .unwrap_or_default();
        let live = self.agent_stats_total();
        r.degraded_ticks += live.degraded_ticks;
        r.guard_trips += live.guard_trips;
        r.reconcile_repairs += live.reconcile_repairs;
        // Point-in-time drift audit: does every host's kernel table agree
        // with its agent's installed view, and is every injected foreign
        // route still exactly as injected?
        for (h, Host { daemon, controller }) in self.hosts.iter().enumerate() {
            let agent = daemon.agent();
            r.installs += controller.installs();
            r.invariant_breaches += controller.breaches();
            if let Some((lo, hi)) = controller.installed_range() {
                r.installed_min = r.installed_min.min(lo);
                r.installed_max = r.installed_max.max(hi);
            }
            let table = controller.inner().table();
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
                r.foreign_missing += chaos.foreign_missing(h, &kernel);
            }
        }
        r
    }

    /// Cold-start counters for this run: crash-restart ramp-up times
    /// plus what the persistence and gossip layers did. All-zero when
    /// crashes, persistence and gossip are off.
    pub fn coldstart_report(&self) -> ColdstartReport {
        let mut r = ColdstartReport::default();
        if let Some(c) = &self.chaos {
            r.merge(&c.ramp.report());
        }
        for disk in self.hosts.iter().filter_map(|host| host.daemon.storage()) {
            r.merge(&disk.done);
        }
        if let Some(g) = &self.gossip {
            r.merge(&g.done);
        }
        r
    }

    /// The learned window a host currently has for a destination address
    /// (for tests).
    pub fn learned_window(&self, host: HostId, dst: Ipv4Addr) -> Option<u32> {
        let host = self.hosts.get(host.index())?;
        host.daemon.agent().learned_window(dst)
    }

    /// Runs one reconciler audit on every live riptide host, regardless
    /// of the `reconcile_every` schedule — the hook benches use to
    /// demonstrate convergence after the last churn instant.
    ///
    /// A daemon that is mid-restart has no agent to audit, and the
    /// routes its dead incarnation left would read as drift. So with
    /// restarts or delayed writes outstanding, the deployment first runs
    /// on through the agent tick that finds all of them over, and again
    /// for whatever that stretch drew, until none is left.
    pub fn reconcile_now(&mut self) {
        let tick_gap = self.cfg.riptide.as_ref().map(|rc| rc.update_interval);
        let settles = |sim: &Self| sim.chaos.as_ref()?.settles_at(sim.tb.world.now());
        while let (Some(at), Some(gap)) = (settles(self), tick_gap) {
            // Agent ticks are `gap` apart, so exactly one falls in
            // `[at, at + gap)`.
            self.run_for((at + gap).saturating_since(self.tb.world.now()));
        }
        self.run_reconcile(self.tb.world.now());
    }

    /// Advances the deployment by `duration` of simulated time.
    ///
    /// An entry due exactly at the closing instant does not fire in
    /// this call; it is the first thing the next call does. So stepping
    /// a run in pieces is the same run.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.tb.world.now() + duration;
        loop {
            let at = self.agenda.next_at().map_or(end, |t| t.min(end));
            self.tb.world.run_until(at);
            self.collect_completed();
            if at >= end {
                break;
            }
            let (_, activity) = self.agenda.pop().expect("an entry is due before `end`");
            self.fire(at, activity);
        }
    }

    /// Does `activity`, due `now`, and re-arms it if it is periodic.
    fn fire(&mut self, now: SimTime, activity: Activity) {
        let (tb, rng) = (&mut self.tb, &mut self.rng);
        let again = match activity {
            Activity::DelayedInstall
            | Activity::BurstEnd
            | Activity::LossEpisodeEnd
            | Activity::BurstCheck => {
                let chaos = self.chaos.as_mut().expect("armed by the chaos layer");
                let world = &mut tb.world;
                chaos.fire(activity, now, world, &mut self.hosts, &mut self.agenda)
            }
            Activity::AgentTick => {
                self.tick_agents(now);
                self.cfg.riptide.as_ref().map(|rc| rc.update_interval)
            }
            Activity::GossipRound => {
                let alive = self.live_hosts(now);
                let fabric = self.gossip.as_mut().expect("armed with the fabric");
                let gap = fabric.round(now, &alive, &mut self.hosts);
                if let Some(chaos) = self.chaos.as_mut() {
                    chaos.ramp.check(now, &self.hosts);
                }
                Some(gap)
            }
            Activity::Reconcile => {
                self.run_reconcile(now);
                self.cfg.resilience.reconcile_every
            }
            Activity::CwndSample => {
                self.sample_cwnds(now);
                Some(self.cfg.cwnd_sample_interval)
            }
            Activity::Probe(idx) => Some(self.probes.fire(idx, tb, rng, &self.cfg.probes)),
            Activity::Organic(idx) => Some(self.organic.fire(idx, now, tb, rng, &self.cfg.organic)),
        };
        if let Some(gap) = again {
            self.agenda.arm(now + gap, activity);
        }
    }

    fn collect_completed(&mut self) {
        for rec in self.tb.world.drain_completed() {
            match self.probes.tags.remove(&rec.transfer) {
                Some((src_site, dst_site, size)) => {
                    self.probes.outcomes.push(ProbeOutcome {
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
                None => self.organic.completed += 1,
            }
        }
    }

    /// Per host: whether its daemon is up at `now`. A down daemon
    /// neither polls, gossips nor audits.
    fn live_hosts(&self, now: SimTime) -> Vec<bool> {
        let up = |h| self.chaos.as_ref().is_none_or(|c| c.is_up(h, now));
        (0..self.hosts.len()).map(up).collect()
    }

    /// [`Activity::AgentTick`]: route churn, then each host in turn —
    /// its daemon's crash/restart lifecycle, then its poll (`ss`, tick,
    /// state file) — then the ramp completions the polls caused.
    fn tick_agents(&mut self, now: SimTime) {
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.churn(&mut self.hosts);
        }
        let world = &mut self.tb.world;
        for (h, host) in self.hosts.iter_mut().enumerate() {
            if let Some(chaos) = self.chaos.as_mut() {
                if !chaos.lifecycle(h, now, host, self.telemetry.as_ref(), world) {
                    continue;
                }
            }
            let mut rows: Vec<CwndObservation> = Vec::new();
            world.each_host_conn_stat(HostId::from_index(h as u32), |s| {
                if s.state == ConnState::Established {
                    rows.push(CwndObservation {
                        dst: s.dst_addr,
                        cwnd: s.cwnd,
                        bytes_acked: s.bytes_acked,
                        retrans: s.retransmits,
                        ecn_marks: s.ece_reductions,
                    });
                }
            });
            match self.chaos.as_mut() {
                Some(chaos) => chaos.drive_tick(h, now, host, rows, world, &mut self.agenda),
                None => {
                    // The agent polls once per tick: hand the rows over.
                    let mut observer = FnObserver(|| std::mem::take(&mut rows));
                    let Host { daemon, controller } = host;
                    daemon.poll(now, |agent| agent.tick(now, &mut observer, controller));
                }
            }
        }
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.ramp.check(now, &self.hosts);
        }
    }

    /// One reconciler audit on every live riptide host: render the host's
    /// kernel table, re-parse it through the `ip route show` seam, and let
    /// the agent diff the dump against its installed view and repair any
    /// drift.
    fn run_reconcile(&mut self, now: SimTime) {
        for (h, Host { daemon, controller }) in self.hosts.iter_mut().enumerate() {
            if self.chaos.as_ref().is_some_and(|c| !c.is_up(h, now)) {
                continue;
            }
            let text = controller.inner().table().borrow().render();
            let (dump, defects) = RouteTable::parse_lossy(&text);
            debug_assert!(defects.is_empty(), "self-rendered dump parses clean");
            let audit = daemon.agent_mut().reconcile(&dump, controller);
            if let Some(chaos) = self.chaos.as_mut() {
                chaos.report.reconcile_foreign_seen += audit.foreign_seen as u64;
            }
        }
    }

    /// [`Activity::CwndSample`]: one `ss` sweep of every host.
    fn sample_cwnds(&mut self, now: SimTime) {
        let world = &self.tb.world;
        for h in 0..world.host_count() {
            let host = HostId::from_index(h as u32);
            let site = world.pop_of(host).index();
            world.each_host_conn_stat(host, |s| {
                // The paper's filter: only connections created after
                // Riptide was started (t = 0 here), in ESTAB state.
                if s.state != ConnState::Established {
                    return;
                }
                self.cwnd_samples.push(CwndSample {
                    site,
                    dst_site: world.pop_of(s.dst).index(),
                    cwnd: s.cwnd,
                    at: now,
                });
            });
        }
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
        // Let a final audit land after the last churn instant: the next
        // agent tick is at most one poll interval away and the reconciler
        // runs every 45 s, so running past one more audit instant after
        // it converges the tables.
        let poll = RiptideConfig::deployment().update_interval;
        sim.run_for(poll + SimDuration::from_secs(46));
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
        cfg.resilience.persistence = true;
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
    fn closing_audit_waits_for_crashes_drawn_during_its_wait() {
        let mut cfg = tiny_cfg(true, 43);
        cfg.resilience.faults = crash_plan(0.05);
        cfg.resilience.reconcile_every = Some(SimDuration::from_secs(45));
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(300));
        let pending = |sim: &CdnSim| {
            let chaos = sim.chaos.as_ref().expect("crash faults are on");
            chaos.settles_at(sim.tb.world.now())
        };
        while pending(&sim).is_none() {
            sim.run_for(SimDuration::from_secs(1));
        }
        let crashes = sim.chaos_report().faults.crashes;
        sim.reconcile_now();
        let r = sim.chaos_report();
        assert!(r.faults.crashes > crashes, "a crash was drawn in the wait");
        assert_eq!(pending(&sim), None, "and waited for in turn");
        assert_eq!(r.drift_unrepaired, 0, "{r:?}");
    }

    #[test]
    fn persisted_restarts_ramp_up_faster_than_cold_ones() {
        let run = |persistence: bool| {
            let mut cfg = tiny_cfg(true, 43);
            cfg.resilience.faults = crash_plan(0.01);
            cfg.resilience.persistence = persistence;
            let mut sim = CdnSim::new(cfg);
            sim.run_for(SimDuration::from_secs(600));
            sim.coldstart_report()
        };
        let cold = run(false);
        let warm = run(true);
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
            cfg.resilience.persistence = true;
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
        let run = |faults: FaultPlan, persistence: bool| {
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
        let clean = run(FaultPlan::none(), false);
        // Snapshots and journals observe the run without perturbing it:
        // no RNG draws, no route writes — so with zero crashes the run
        // is bit-identical to one without the persistence layer at all.
        assert_eq!(
            clean,
            run(crash_plan(0.0), true),
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

//! The chaos layer: the fault injector and the state each fault of a
//! [`FaultPlan`] leaves behind — which daemons are mid-restart, which
//! paths have their loss raised, which foreign routes churn injected,
//! how restarted hosts ramp back up. [`CdnSim`] calls in at the agenda's
//! instants; a one-shot entry (a write landing, a burst or episode
//! ending) is armed where its cause is drawn.
//!
//! [`CdnSim`]: crate::sim::CdnSim

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;

use riptide::prelude::*;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::{RouteAttrs, RouteProto, RouteTable};
use riptide_simnet::prelude::*;

use crate::agenda::{Activity, Agenda};
use crate::faulted::FaultedIo;
use crate::sim::{fresh_daemon, ChaosReport, ColdstartReport, Host};

/// PoP pairs whose loss one fault category has raised for a fixed term,
/// oldest first: both directions' `(src, dst, config to restore)`. The
/// term is one constant per category, so windows end in the order they
/// started: the agenda holds one end entry per window and each restores
/// the oldest.
#[derive(Debug, Default)]
struct LossWindows {
    open: VecDeque<[(PopId, PopId, PathConfig); 2]>,
}

impl LossWindows {
    /// Raises loss on `a ↔ b` to at least `floor`, unless this category
    /// already has a window open on the pair. Returns whether it did.
    fn raise(&mut self, world: &mut World, a: PopId, b: PopId, floor: f64) -> bool {
        let on_pair = |w: &[(PopId, PopId, PathConfig); 2]| {
            let (src, dst) = (w[0].0, w[0].1);
            (src, dst) == (a, b) || (src, dst) == (b, a)
        };
        if self.open.iter().any(on_pair) {
            return false;
        }
        let saved = [(a, b), (b, a)].map(|(src, dst)| {
            let cfg = world.path_config(src, dst).expect("inter-pop path exists");
            (src, dst, cfg.clone())
        });
        for (src, dst, cfg) in &saved {
            let mut lossy = cfg.clone();
            lossy.loss = lossy.loss.max(floor);
            world.reconfigure_path(*src, *dst, lossy);
        }
        self.open.push_back(saved);
        true
    }

    /// Ends the oldest window, restoring both directions' saved configs.
    fn restore_oldest(&mut self, world: &mut World) {
        let saved = self.open.pop_front().expect("one end entry per window");
        for (src, dst, cfg) in saved {
            world.reconfigure_path(src, dst, cfg);
        }
    }
}

fn installed_sum(agent: &RiptideAgent) -> u64 {
    agent.installed_view().values().map(|&w| w as u64).sum()
}

/// Crash-restart ramp tracking: how long a restarted host takes to climb
/// back to 90% of the installed-window sum it crashed with, and what its
/// restarts restored. Draws no randomness.
#[derive(Debug, Default)]
pub(crate) struct RampTracker {
    /// Per host with a ramp to make: `(pre-crash sum, restart instant)`,
    /// the instant `None` while the host is still down.
    ramps: BTreeMap<usize, (u64, Option<SimTime>)>,
    /// Tracked restarts, completed ramps, restored routes (no other field).
    done: ColdstartReport,
}

impl RampTracker {
    /// Host `h`'s daemon `dead` crashed: a host with installed windows
    /// to lose gets its ramp tracked from the restart on.
    pub(crate) fn crashed(&mut self, h: usize, dead: &RiptideAgent) {
        match installed_sum(dead) {
            0 => self.ramps.remove(&h),
            pre => self.ramps.insert(h, (pre, None)),
        };
    }

    /// Host `h`'s replacement daemon started at `now`, restoring `restored` routes.
    pub(crate) fn restarted(&mut self, h: usize, now: SimTime, restored: usize) {
        self.done.restored_routes += restored as u64;
        if let Some((_, since)) = self.ramps.get_mut(&h) {
            *since = Some(now);
            self.done.restarts_tracked += 1;
        }
    }

    /// Completes every ramp whose host has climbed back to 90%. The
    /// installed view moves only in an agent tick, a restore or a gossip
    /// merge, so this runs after those.
    pub(crate) fn check(&mut self, now: SimTime, hosts: &[Host]) {
        let done = &mut self.done;
        self.ramps.retain(|&h, &mut (pre, since)| {
            let climbed = installed_sum(hosts[h].daemon.agent()) * 10 >= pre * 9;
            let Some(since) = since.filter(|_| climbed) else {
                return true;
            };
            let nanos = now.saturating_since(since).as_nanos();
            done.recoveries += 1;
            done.ramp_nanos_total += nanos;
            done.ramp_nanos_max = done.ramp_nanos_max.max(nanos);
            false
        });
    }

    /// The ramp counters, as the cold-start report's ramp fields.
    pub(crate) fn report(&self) -> ColdstartReport {
        ColdstartReport {
            unrecovered: self.ramps.len() as u64,
            ..self.done
        }
    }
}

/// Mutable chaos-layer state; present only when the plan is enabled.
#[derive(Debug)]
pub(crate) struct ChaosLayer {
    injector: FaultInjector,
    /// The agents' fault-injected poll and route writes.
    io: FaultedIo,
    /// Per crashed host: when its replacement daemon may start ticking.
    down_until: BTreeMap<usize, SimTime>,
    /// Random link loss bursts in progress.
    bursts: LossWindows,
    /// Loss episodes in progress on paths targeted at jump-started
    /// destinations.
    episodes: LossWindows,
    /// Per host: foreign routes churn injected, by key — the reconciler
    /// must leave every one of these byte-identical.
    foreign: Vec<BTreeMap<Ipv4Prefix, RouteAttrs>>,
    /// Host address → host, for mapping a learned route key back to the
    /// destination machine (and so the path) it steers.
    addr_to_host: HashMap<Ipv4Addr, HostId>,
    /// How restarted hosts climb back to what they crashed with.
    pub(crate) ramp: RampTracker,
    pub(crate) report: ChaosReport,
}

impl ChaosLayer {
    /// Builds the layer (its RNG forked off `rng`, which is not
    /// advanced) and arms its first burst check.
    pub(crate) fn new(
        plan: FaultPlan,
        rng: &DetRng,
        world: &World,
        io_counters: Option<IoCounters>,
        agenda: &mut Agenda,
    ) -> Self {
        let hosts = world.host_count();
        agenda.arm(SimTime::ZERO + plan.burst_check_every, Activity::BurstCheck);
        ChaosLayer {
            injector: FaultInjector::new(plan, rng),
            io: FaultedIo::new(io_counters),
            down_until: BTreeMap::new(),
            bursts: LossWindows::default(),
            episodes: LossWindows::default(),
            foreign: vec![BTreeMap::new(); hosts],
            addr_to_host: (0..hosts)
                .map(|h| HostId::from_index(h as u32))
                .map(|host| (world.host_addr(host), host))
                .collect(),
            ramp: RampTracker::default(),
            report: ChaosReport::default(),
        }
    }

    /// The layer's counters, with the injector's fault tallies and the
    /// I/O stack's retries filled in.
    pub(crate) fn report(&self) -> ChaosReport {
        let mut r = self.report;
        r.faults = self.injector.stats();
        r.merge(&self.io.done);
        r
    }

    /// Whether host `h`'s daemon is up at `now`.
    pub(crate) fn is_up(&self, h: usize, now: SimTime) -> bool {
        self.down_until.get(&h).is_none_or(|&until| now >= until)
    }

    /// The instant by which every restart now pending has been due and
    /// every delayed write now in flight has landed (`None` when there
    /// is neither).
    pub(crate) fn settles_at(&self, now: SimTime) -> Option<SimTime> {
        let restarts = self.down_until.values().copied().max();
        let delay = self.injector.plan().install_delay_for;
        restarts.max(self.io.in_flight().then(|| now + delay))
    }

    /// How many of the foreign routes churn injected on host `h` are
    /// missing from (or modified in) its kernel table.
    pub(crate) fn foreign_missing(&self, h: usize, kernel: &RouteTable) -> u64 {
        let gone = |(&key, attrs): &(&Ipv4Prefix, &RouteAttrs)| {
            kernel.get(key).map(|route| &route.attrs) != Some(*attrs)
        };
        self.foreign[h].iter().filter(gone).count() as u64
    }

    /// Fires one of the layer's own agenda entries: a delayed write
    /// landing, a burst or episode ending, or a burst check (the only
    /// periodic one — it returns the gap to the next).
    pub(crate) fn fire(
        &mut self,
        activity: Activity,
        now: SimTime,
        world: &mut World,
        hosts: &mut [Host],
        agenda: &mut Agenda,
    ) -> Option<SimDuration> {
        match activity {
            Activity::DelayedInstall => self.io.land(hosts),
            Activity::BurstEnd => self.bursts.restore_oldest(world),
            Activity::LossEpisodeEnd => self.episodes.restore_oldest(world),
            Activity::BurstCheck => {
                // Possibly starts a loss burst on a randomly drawn pair.
                if let Some((ai, bi)) = self.injector.burst_starts(world.pop_count()) {
                    let (a, b) = (PopId::from_index(ai as u32), PopId::from_index(bi as u32));
                    let plan = self.injector.plan();
                    if self.bursts.raise(world, a, b, plan.burst_loss) {
                        agenda.arm(now + plan.burst_for, Activity::BurstEnd);
                    }
                }
                return Some(self.injector.plan().burst_check_every);
            }
            other => unreachable!("{other:?} is not a chaos-layer activity"),
        }
        None
    }

    /// Route-table churn: at each agent-tick instant every riptide host
    /// draws a churn fault that mutates its kernel table behind the
    /// agent's back — deleting an installed route, injecting an orphan
    /// riptide-signature route, or injecting a foreign route the
    /// reconciler must never touch.
    pub(crate) fn churn(&mut self, hosts: &mut [Host]) {
        for (h, Host { daemon, controller }) in hosts.iter_mut().enumerate() {
            let (agent, table) = (daemon.agent(), controller.inner().table());
            match self.injector.churn_fault(agent.installed_view().len()) {
                ChurnFault::None => {}
                ChurnFault::DeleteInstalled { pick } => {
                    if let Some(&key) = agent.installed_view().keys().nth(pick) {
                        if table.borrow_mut().del(key).is_ok() {
                            self.report.drift_deleted += 1;
                        }
                    }
                }
                ChurnFault::InjectOrphan { octet, window } => {
                    // TEST-NET-3: outside the testbed's 10.x address range,
                    // so the orphan never shadows a live destination.
                    let key = Ipv4Prefix::host(Ipv4Addr::new(203, 0, 113, octet));
                    let mut attrs = RouteAttrs::initcwnd(window);
                    attrs.proto = RouteProto::Static;
                    table.borrow_mut().replace(key, attrs);
                    self.report.drift_orphaned += 1;
                }
                ChurnFault::InjectForeign { octet } => {
                    // TEST-NET-2, proto kernel, no initcwnd: not ours.
                    let key = Ipv4Prefix::host(Ipv4Addr::new(198, 51, 100, octet));
                    let attrs = RouteAttrs {
                        proto: RouteProto::Kernel,
                        ..RouteAttrs::default()
                    };
                    table.borrow_mut().replace(key, attrs.clone());
                    self.foreign[h].insert(key, attrs);
                    self.report.foreign_injected += 1;
                }
            }
        }
    }

    /// Host `h`'s crash/restart lifecycle at an agent-tick instant, its
    /// crash fault drawn when it is up. Returns whether the daemon
    /// polls this cycle.
    pub(crate) fn lifecycle(
        &mut self,
        h: usize,
        now: SimTime,
        host: &mut Host,
        telemetry: Option<&AgentTelemetry>,
        world: &mut World,
    ) -> bool {
        match self.down_until.get(&h) {
            // The daemon is mid-restart: nothing runs.
            Some(&until) if now < until => false,
            Some(_) => {
                // Restart: the replacement's first act is the §IV-D
                // startup recovery — wipe whatever riptide routes the
                // dead incarnation left — and then its start, which
                // reinstalls what the host's state file remembers.
                self.down_until.remove(&h);
                let Host { daemon, controller } = host;
                let wiped = recover_stale_routes(&mut controller.inner().table().borrow_mut());
                self.report.routes_recovered += wiped as u64;
                let bytes = daemon
                    .storage()
                    .map_or_else(Vec::new, |disk| disk.bytes.clone());
                let restored = daemon.start(&bytes, now, controller).map_or(0, |(n, _)| n);
                self.ramp.restarted(h, now, restored);
                true
            }
            None if self.injector.crashes_now() => {
                // A crash drops the daemon and its learned table, but not
                // the installed routes (they live in the kernel) nor the
                // state file (it lives on disk).
                let disk = host.daemon.take_storage();
                let fresh = fresh_daemon(host.daemon.agent().config(), telemetry, disk);
                let dead = std::mem::replace(&mut host.daemon, fresh);
                let stats = dead.agent().stats();
                self.report.degraded_ticks += stats.degraded_ticks;
                self.report.guard_trips += stats.guard_trips;
                self.report.reconcile_repairs += stats.reconcile_repairs;
                self.ramp.crashed(h, dead.agent());
                let plan = self.injector.plan();
                self.down_until.insert(h, now + plan.restart_after);
                if plan.crash_resets_connections {
                    // Machine restart: the host's TCP state (both
                    // directions) dies with it — nothing to observe
                    // until traffic returns.
                    world.reset_host_connections(HostId::from_index(h as u32));
                }
                false
            }
            None => true,
        }
    }

    /// Drives host `h`'s tick through the faulted I/O stack, then lets
    /// each *jump-start* install (window above the kernel default of 10)
    /// draw a loss episode on exactly the path the learned window now
    /// accelerates — the adversarial case for the loss guard.
    pub(crate) fn drive_tick(
        &mut self,
        h: usize,
        now: SimTime,
        host: &mut Host,
        rows: Vec<CwndObservation>,
        world: &mut World,
        agenda: &mut Agenda,
    ) {
        let injector = &mut self.injector;
        let Some(tick) = self.io.tick(injector, h, now, host, rows, agenda) else {
            return;
        };
        let host = HostId::from_index(h as u32);
        for &(key, window) in &tick.updates {
            if window <= 10 || !self.injector.targeted_burst() {
                continue;
            }
            let Some(&dst) = self.addr_to_host.get(&key.network()) else {
                continue;
            };
            let (a, b) = (world.pop_of(host), world.pop_of(dst));
            let plan = self.injector.plan();
            if a != b && self.episodes.raise(world, a, b, plan.targeted_loss_rate) {
                agenda.arm(now + plan.targeted_loss_for, Activity::LossEpisodeEnd);
            }
        }
    }
}

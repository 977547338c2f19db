//! The fault-injected I/O of one agent tick: the `ss` poll under retry,
//! and route writes going retry layer → install faults → bounds gate.
//! A write the injector delays is queued here and lands from the agenda.

use std::collections::VecDeque;

use riptide::prelude::*;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::prelude::*;

use crate::agenda::{Activity, Agenda};
use crate::sim::{ChaosReport, Host};

type Gate = CheckedController<SharedRouteController>;

/// A route write to `key`: `Some(window)` installs, `None` clears.
fn write(gate: &mut Gate, key: Ipv4Prefix, window: Option<u32>) -> Result<(), ControlError> {
    match window {
        Some(w) => gate.set_initcwnd(key, w),
        None => gate.clear_initcwnd(key),
    }
}

/// The faulted I/O stack's state across ticks.
#[derive(Debug, Default)]
pub(crate) struct FaultedIo {
    /// Route writes accepted as "delayed", oldest first: `(host, key,
    /// window)`. The delay is one constant, so the agenda holds one
    /// landing entry per write and each lands the oldest.
    delayed: VecDeque<(usize, Ipv4Prefix, Option<u32>)>,
    /// Deployment-wide I/O counters the resilient wrappers mirror into.
    counters: Option<IoCounters>,
    /// Retries, give-ups and landings so far (the report's other fields
    /// stay at their defaults).
    pub(crate) done: ChaosReport,
}

/// Injects install faults between the retry layer above and the bounds
/// gate below: `Failed` surfaces as a failed `ip route` invocation
/// (which the retry layer may re-attempt, drawing a fresh fault),
/// `Delayed` queues the write to land `install_delay_for` later.
#[derive(Debug)]
struct FaultedController<'a> {
    gate: &'a mut Gate,
    injector: &'a mut FaultInjector,
    delayed: &'a mut VecDeque<(usize, Ipv4Prefix, Option<u32>)>,
    agenda: &'a mut Agenda,
    lands_at: SimTime,
    host: usize,
}

impl FaultedController<'_> {
    fn faulted(&mut self, key: Ipv4Prefix, window: Option<u32>) -> Result<(), ControlError> {
        match self.injector.install_fault() {
            InstallFault::Failed => Err(ControlError::new("injected: ip route invocation failed")),
            InstallFault::Delayed => {
                self.delayed.push_back((self.host, key, window));
                self.agenda.arm(self.lands_at, Activity::DelayedInstall);
                Ok(())
            }
            InstallFault::None => write(self.gate, key, window),
        }
    }
}

impl RouteController for FaultedController<'_> {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        self.faulted(key, Some(window))
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        self.faulted(key, None)
    }
}

impl FaultedIo {
    pub(crate) fn new(counters: Option<IoCounters>) -> Self {
        FaultedIo {
            counters,
            ..FaultedIo::default()
        }
    }

    /// Whether any delayed write has yet to land.
    pub(crate) fn in_flight(&self) -> bool {
        !self.delayed.is_empty()
    }

    /// [`Activity::DelayedInstall`]: the oldest delayed write lands. It
    /// still goes through the host's bounds gate, and may target a host
    /// whose agent has crashed since — the kernel applies it regardless.
    pub(crate) fn land(&mut self, hosts: &mut [Host]) {
        let (host, key, window) = self.delayed.pop_front().expect("one landing per write");
        if write(&mut hosts[host].controller, key, window).is_ok() {
            self.done.delayed_applied += 1;
        }
    }

    /// Drives host `h`'s daemon poll through the stack. Returns what the
    /// tick did, or `None` when the `ss` poll failed even after retries
    /// and the cycle ran degraded.
    pub(crate) fn tick(
        &mut self,
        injector: &mut FaultInjector,
        h: usize,
        now: SimTime,
        host: &mut Host,
        rows: Vec<CwndObservation>,
        agenda: &mut Agenda,
    ) -> Option<TickReport> {
        let Host { daemon, controller } = host;
        daemon.poll(now, |agent| {
            // Observation: fault-injected poll under retry with a per-cycle
            // budget. A timed-out attempt is modeled as costing 200 ms of
            // the cycle.
            let mut observer = ResilientObserver::new(
                FnFallibleObserver(|| match injector.observe_fault(rows.len()) {
                    ObserveFault::None => Ok(rows.clone()),
                    ObserveFault::Timeout => Err(ObserveError::Timeout),
                    ObserveFault::Partial { keep } => Ok(rows[..keep].to_vec()),
                }),
                BackoffPolicy::agent_default(),
                SimDuration::from_millis(200),
                agent.config().update_interval,
            );
            if let Some(io) = &self.counters {
                observer.set_counters(io.clone());
            }
            let polled = observer.observe();
            self.done.observe_retries += observer.stats().retries;
            let Ok(mut polled) = polled else {
                // Degraded cycle: never guess from stale rows — freeze
                // learning, let TTL expiry run.
                agent.tick_degraded(now, controller);
                return None;
            };

            let lands_at = now + injector.plan().install_delay_for;
            let mut writer = ResilientController::new(
                FaultedController {
                    gate: controller,
                    injector,
                    delayed: &mut self.delayed,
                    agenda,
                    lands_at,
                    host: h,
                },
                BackoffPolicy::agent_default(),
            );
            if let Some(io) = &self.counters {
                writer.set_counters(io.clone());
            }
            let mut observer = FnObserver(|| std::mem::take(&mut polled));
            let tick = agent.tick(now, &mut observer, &mut writer);
            let written = writer.stats();
            self.done.install_retries += written.retries;
            self.done.install_gave_up += written.gave_up;
            Some(tick)
        })
    }
}

//! The fault-injected I/O of one agent tick: the `ss` poll and each route
//! write, retried where their faults are drawn, writes going install
//! faults → bounds gate. A write the injector delays is queued here and
//! lands from the agenda. A poll retries within the update interval `i_u`
//! and, when it gives up, the cycle runs degraded
//! ([`RiptideAgent::tick_degraded`]); a write retries at once.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use riptide::prelude::*;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::prelude::*;

use crate::agenda::{Activity, Agenda};
use crate::sim::{ChaosReport, Host};

type Gate = CheckedController<Rc<RefCell<RouteTable>>>;

/// Attempts per poll and per route write, the first included.
const ATTEMPTS: u32 = 4;

/// The modeled cost of one timed-out `ss` poll.
const POLL_TIMEOUT: SimDuration = SimDuration::from_millis(200);

/// The wait after failed attempt `n` (1-based): 50 ms · 2^(n−1).
const fn backoff(n: u32) -> SimDuration {
    SimDuration::from_millis(50 << (n - 1))
}

/// Books one retried call of `attempts` attempts in the I/O counters.
fn count_call(io: Option<&IoCounters>, attempts: u32, gave_up: bool) {
    if let Some(io) = io {
        io.calls.inc();
        io.retries.add(u64::from(attempts - 1));
        if gave_up {
            io.gave_up.inc();
        }
    }
}

/// One `ss` poll of `rows`, each attempt drawing its fault from `draw`,
/// within `budget` (the agent's update interval). Returns the rows the
/// poll kept, or `None` once it gave up, and the attempts it made.
fn poll(
    rows: &[CwndObservation],
    budget: SimDuration,
    io: Option<&IoCounters>,
    mut draw: impl FnMut() -> ObserveFault,
) -> (Option<Vec<CwndObservation>>, u32) {
    let mut spent = SimDuration::ZERO;
    let mut n = 1;
    let kept = loop {
        match draw() {
            ObserveFault::None => break Some(rows.len()),
            ObserveFault::Partial { keep } => break Some(keep),
            ObserveFault::Timeout => {
                if let Some(io) = io {
                    io.timeouts.inc();
                }
                spent += POLL_TIMEOUT;
                if n == ATTEMPTS || spent + backoff(n) > budget {
                    break None;
                }
                spent += backoff(n);
                n += 1;
            }
        }
    };
    count_call(io, n, kept.is_none());
    (kept.map(|keep| rows[..keep].to_vec()), n)
}

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
    /// Deployment-wide I/O counters, when telemetry is on.
    counters: Option<IoCounters>,
    /// Retries, give-ups and landings so far (the report's other fields
    /// stay at their defaults).
    pub(crate) done: ChaosReport,
}

/// Retries each route write in front of the bounds gate. An attempt
/// draws an install fault from `draw`: `Failed` is a failed `ip route`
/// invocation, `Delayed` queues the write to land `install_delay_for`
/// later and succeeds, and no fault writes through the gate, whose
/// refusal is retried too.
struct FaultedController<'a, D> {
    gate: &'a mut Gate,
    draw: D,
    delayed: &'a mut VecDeque<(usize, Ipv4Prefix, Option<u32>)>,
    agenda: &'a mut Agenda,
    lands_at: SimTime,
    host: usize,
    io: Option<&'a IoCounters>,
    done: &'a mut ChaosReport,
}

impl<D: FnMut() -> InstallFault> FaultedController<'_, D> {
    fn faulted(&mut self, key: Ipv4Prefix, window: Option<u32>) -> Result<(), ControlError> {
        let mut n = 1;
        let result = loop {
            let result = match (self.draw)() {
                InstallFault::Failed => {
                    Err(ControlError::new("injected: ip route invocation failed"))
                }
                InstallFault::Delayed => {
                    self.delayed.push_back((self.host, key, window));
                    self.agenda.arm(self.lands_at, Activity::DelayedInstall);
                    Ok(())
                }
                InstallFault::None => write(self.gate, key, window),
            };
            if result.is_ok() || n == ATTEMPTS {
                break result;
            }
            n += 1;
        };
        count_call(self.io, n, result.is_err());
        self.done.install_retries += u64::from(n - 1);
        self.done.install_gave_up += u64::from(result.is_err());
        result
    }
}

impl<D: FnMut() -> InstallFault> RouteController for FaultedController<'_, D> {
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
    /// tick did, or `None` when the `ss` poll gave up and the cycle ran
    /// degraded.
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
            let budget = agent.config().update_interval;
            let (polled, attempts) = poll(&rows, budget, self.counters.as_ref(), || {
                injector.observe_fault(rows.len())
            });
            self.done.observe_retries += u64::from(attempts - 1);
            let Some(mut polled) = polled else {
                // Degraded cycle: never guess from stale rows — freeze
                // learning, let TTL expiry run.
                agent.tick_degraded(now, controller);
                return None;
            };

            let lands_at = now + injector.plan().install_delay_for;
            let mut writer = FaultedController {
                gate: controller,
                draw: || injector.install_fault(),
                delayed: &mut self.delayed,
                agenda,
                lands_at,
                host: h,
                io: self.counters.as_ref(),
                done: &mut self.done,
            };
            let mut observer = FnObserver(|| std::mem::take(&mut polled));
            Some(agent.tick(now, &mut observer, &mut writer))
        })
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use super::*;
    use crate::sim::{CdnSim, CdnSimConfig, ResilienceOverlay};
    use crate::topology::TestbedConfig;
    use crate::workload::{OrganicConfig, ProbeConfig};

    fn rows() -> Vec<CwndObservation> {
        (1..=3)
            .map(|i| CwndObservation {
                dst: Ipv4Addr::new(10, 0, 1, i),
                cwnd: 40,
                bytes_acked: 1 << 20,
                retrans: 0,
                ecn_marks: 0,
            })
            .collect()
    }

    /// Hands out `faults` in order, and counts the draws.
    fn script<'a, F: Copy + 'a>(faults: &[F], draws: &'a mut usize) -> impl FnMut() -> F + 'a {
        let faults = faults.to_vec();
        move || {
            *draws += 1;
            faults[*draws - 1]
        }
    }

    fn io_totals(registry: &MetricsRegistry) -> [Option<u64>; 4] {
        let m = registry.snapshot();
        ["calls", "retries", "timeouts", "gave_up"]
            .map(|n| m.value(&format!("riptide_io_{n}_total")))
    }

    #[test]
    fn backoff_doubles_from_50_ms() {
        let ms = |d: SimDuration| d.as_nanos() / 1_000_000;
        assert_eq!([1, 2, 3].map(|n| ms(backoff(n))), [50, 100, 200]);
    }

    #[test]
    fn a_budget_under_950_ms_cuts_the_poll_short() {
        // A timed-out attempt costs 200 ms and the waits after attempts
        // 1, 2 and 3 are 50, 100 and 200 ms, so attempts 2, 3 and 4
        // need budgets of 250, 550 and 950 ms.
        let cuts = [(249, 1), (250, 2), (549, 2), (550, 3), (949, 3), (950, 4)];
        for (budget_ms, attempts) in cuts {
            let mut draws = 0;
            let budget = SimDuration::from_millis(budget_ms);
            let (polled, n) = poll(
                &rows(),
                budget,
                None,
                script(&[ObserveFault::Timeout; 4], &mut draws),
            );
            assert_eq!((polled, n), (None, attempts), "budget {budget_ms} ms");
            assert_eq!(draws, attempts as usize);
        }
    }

    #[test]
    fn the_budget_never_blocks_the_first_attempt() {
        let mut draws = 0;
        let faults = script(&[ObserveFault::Timeout], &mut draws);
        assert_eq!(poll(&rows(), SimDuration::ZERO, None, faults), (None, 1));
        assert_eq!(draws, 1);
    }

    #[test]
    fn success_on_the_final_attempt_counts_three_retries() {
        let registry = MetricsRegistry::new();
        let io = IoCounters::attach(&registry);
        let mut faults = [ObserveFault::Timeout; 4];
        for last in [ObserveFault::None, ObserveFault::Partial { keep: 1 }] {
            faults[3] = last;
            let mut draws = 0;
            let budget = SimDuration::from_secs(1);
            let (polled, n) = poll(&rows(), budget, Some(&io), script(&faults, &mut draws));
            let keep = if last == ObserveFault::None { 3 } else { 1 };
            assert_eq!((polled, n), (Some(rows()[..keep].to_vec()), 4));
        }
        assert_eq!(io_totals(&registry), [Some(2), Some(6), Some(6), Some(0)]);
    }

    #[test]
    fn timing_out_on_every_attempt_gives_up_with_full_counts() {
        let registry = MetricsRegistry::new();
        let io = IoCounters::attach(&registry);
        let mut draws = 0;
        let faults = script(&[ObserveFault::Timeout; 4], &mut draws);
        let budget = SimDuration::from_secs(60);
        assert_eq!(poll(&rows(), budget, Some(&io), faults), (None, 4));
        assert_eq!(io_totals(&registry), [Some(1), Some(3), Some(4), Some(1)]);
    }

    #[test]
    fn a_failed_install_is_retried_and_a_delayed_one_counts_as_success() {
        use InstallFault::{Delayed, Failed};

        let table = Rc::new(RefCell::new(RouteTable::new()));
        let mut gate = CheckedController::new(Rc::clone(&table), 10, 100);
        let mut delayed = VecDeque::new();
        let mut agenda = Agenda::default();
        let mut done = ChaosReport::default();
        let registry = MetricsRegistry::new();
        let io = IoCounters::attach(&registry);
        let key = |n| Ipv4Prefix::host(Ipv4Addr::new(10, 0, 1, n));
        let mut draws = 0;
        // Per write, the faults its attempts draw.
        let writes: [&[InstallFault]; 4] = [
            &[Failed, Failed, InstallFault::None], // retried, then written
            &[Delayed],                            // queued: a success at once
            &[Failed; 4],                          // gives up
            &[InstallFault::None; 4],              // the gate refuses 500 each time
        ];
        let faults = writes.concat();
        let mut writer = FaultedController {
            gate: &mut gate,
            draw: script(&faults, &mut draws),
            delayed: &mut delayed,
            agenda: &mut agenda,
            lands_at: SimTime::from_secs(7),
            host: 2,
            io: Some(&io),
            done: &mut done,
        };
        assert!(writer.set_initcwnd(key(1), 80).is_ok());
        assert!(writer.clear_initcwnd(key(2)).is_ok());
        assert!(writer.set_initcwnd(key(3), 50).is_err());
        assert!(writer.set_initcwnd(key(4), 500).is_err());
        drop(writer);
        assert_eq!(draws, faults.len());

        assert_eq!(
            table.borrow().initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)),
            Some(80)
        );
        assert_eq!(Vec::from(delayed), [(2, key(2), None)]);
        assert_eq!(
            agenda.pop(),
            Some((SimTime::from_secs(7), Activity::DelayedInstall))
        );
        assert_eq!((done.install_retries, done.install_gave_up), (2 + 3 + 3, 2));
        assert_eq!(io_totals(&registry), [Some(4), Some(8), Some(0), Some(2)]);
    }

    #[test]
    fn io_counters_match_the_report() {
        let cfg = CdnSimConfig {
            testbed: TestbedConfig::tiny(3, 2, 41),
            riptide: Some(RiptideConfig::deployment()),
            probes: ProbeConfig {
                interval: SimDuration::from_secs(60),
                ..ProbeConfig::default()
            },
            organic: OrganicConfig::none(),
            cwnd_sample_interval: SimDuration::from_secs(30),
            probe_senders: None,
            telemetry: true,
            resilience: ResilienceOverlay {
                faults: FaultPlan::uniform(0.4),
                ..ResilienceOverlay::default()
            },
        };
        let mut sim = CdnSim::new(cfg);
        sim.run_for(SimDuration::from_secs(400));
        let r = sim.chaos_report();
        let m = sim.metrics_snapshot();
        let io = |n: &str| m.value(&format!("riptide_io_{n}_total")).unwrap();
        assert!(r.degraded_ticks > 0 && r.install_gave_up > 0, "{r:?}");
        assert_eq!(io("retries"), r.observe_retries + r.install_retries);
        assert_eq!(io("timeouts"), r.faults.observe_timeouts);
        assert_eq!(io("gave_up"), r.degraded_ticks + r.install_gave_up);
        assert!(io("calls") > io("gave_up"));
    }
}

//! What the two agent workloads share: the timing wrappers that exist
//! only in the traced pass, one traced `tick`, and the checkpoint and
//! warm-restart sequences.

use std::time::{Duration, Instant};

use riptide::prelude::*;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::time::SimTime;

use crate::span::{Open, Tracer};
use crate::stats;
use crate::workload::Outcome;

/// A [`WindowObserver`] that times the observer it wraps.
struct TimedObserver<'a, O: ?Sized> {
    inner: &'a mut O,
    call: Option<(Instant, Instant)>,
}

impl<O: WindowObserver + ?Sized> WindowObserver for TimedObserver<'_, O> {
    fn observe(&mut self) -> Vec<CwndObservation> {
        let started = Instant::now();
        let observations = self.inner.observe();
        self.call = Some((started, Instant::now()));
        observations
    }
}

/// Calls into one controller method, summed: a tick at fleet scale makes
/// tens of thousands, so they become one aggregated span per tick.
#[derive(Default)]
struct Calls {
    window: Option<(Instant, Instant)>,
    calls: u64,
    busy_ns: u64,
}

impl Calls {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        let ended = Instant::now();
        self.window = Some((self.window.map_or(started, |(first, _)| first), ended));
        self.calls += 1;
        self.busy_ns += (ended - started).as_nanos() as u64;
        out
    }

    fn record(&self, tracer: &mut Tracer, parent: Open, name: &'static str) {
        if let Some(window) = self.window {
            tracer.child(parent, name, window, self.calls, self.busy_ns);
        }
    }
}

/// A [`RouteController`] that times the controller it wraps.
struct TimedController<'a, C: ?Sized> {
    inner: &'a mut C,
    installs: Calls,
    withdrawals: Calls,
}

impl<C: RouteController + ?Sized> RouteController for TimedController<'_, C> {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        let inner = &mut *self.inner;
        self.installs.time(|| inner.set_initcwnd(key, window))
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        let inner = &mut *self.inner;
        self.withdrawals.time(|| inner.clear_initcwnd(key))
    }
}

/// One `RiptideAgent::tick`. Untraced, it is the bare call; traced, the
/// observer and controller are wrapped and the tick becomes a span with
/// `core.observe`, `linuxnet.route.install` and `linuxnet.route.withdraw`
/// children, so the tick's self time is the agent's own work.
pub fn tick<O, C>(
    agent: &mut RiptideAgent,
    now: SimTime,
    observer: &mut O,
    controller: &mut C,
    tracer: &mut Tracer,
    id: u64,
) -> TickReport
where
    O: WindowObserver + ?Sized,
    C: RouteController + ?Sized,
{
    if !tracer.enabled() {
        return agent.tick(now, observer, controller);
    }
    let mut observer = TimedObserver {
        inner: observer,
        call: None,
    };
    let mut controller = TimedController {
        inner: controller,
        installs: Calls::default(),
        withdrawals: Calls::default(),
    };
    let open = tracer.open("core.agent.tick", id);
    let report = agent.tick(now, &mut observer, &mut controller);
    tracer.close(open);
    if let Some(call) = observer.call {
        let busy = (call.1 - call.0).as_nanos() as u64;
        tracer.child(open, "core.observe", call, 1, busy);
    }
    controller
        .installs
        .record(tracer, open, "linuxnet.route.install");
    controller
        .withdrawals
        .record(tracer, open, "linuxnet.route.withdraw");
    report
}

/// Snapshots the agent and encodes the state file a crash would leave:
/// the snapshot block followed by `journal`.
pub fn checkpoint(
    agent: &RiptideAgent,
    now: SimTime,
    journal: &[JournalRecord],
    tracer: &mut Tracer,
    id: u64,
) -> Vec<u8> {
    let snapshot = tracer.span("core.agent.snapshot", id, || agent.snapshot_state(now));
    tracer.span("core.persist.encode", id, || {
        encode_state(&snapshot, journal)
    })
}

/// A warm restart's result.
pub struct Restarted {
    /// The fresh agent, restored.
    pub agent: RiptideAgent,
    /// State bytes in → all routes re-issued.
    pub wall: Duration,
}

/// Warm restart as `riptided --state-file` performs it: state bytes →
/// `decode_state` → `replay` → a new agent's `restore_state`, re-issuing
/// every surviving route into an empty kernel table.
///
/// # Errors
///
/// Returns a description if the bytes do not decode, or if the routes in
/// the kernel table are not exactly the restored agent's view.
pub fn restart(
    config: &RiptideConfig,
    telemetry: bool,
    bytes: &[u8],
    now: SimTime,
    tracer: &mut Tracer,
    id: u64,
) -> Result<Restarted, String> {
    let started = Instant::now();
    let state = tracer
        .span("core.persist.decode", id, || decode_state(bytes))
        .map_err(|e| format!("state bytes do not decode: {e}"))?;
    let merged = tracer.span("core.persist.replay", id, || {
        replay(&state.snapshot, &state.journal)
    });
    let mut agent = RiptideAgent::new(config.clone()).map_err(|e| e.to_string())?;
    if telemetry {
        agent.attach_telemetry(AgentTelemetry::standalone(256));
    }
    let mut routes = RouteTable::new();
    let reinstalled = tracer.span("core.agent.restore", id, || {
        agent.restore_state(&merged, now, &mut routes)
    });
    let wall = started.elapsed();
    if reinstalled.len() != agent.installed_view().len() || routes.len() != reinstalled.len() {
        return Err(format!(
            "restart re-issued {} routes into a table of {}, and believes in {}",
            reinstalled.len(),
            routes.len(),
            agent.installed_view().len()
        ));
    }
    Ok(Restarted { agent, wall })
}

/// Counts the windows in `view` outside the agent's clamp.
pub fn windows_out_of_bounds<'a>(
    config: &RiptideConfig,
    windows: impl IntoIterator<Item = &'a u32>,
) -> usize {
    windows
        .into_iter()
        .filter(|&&w| w < config.cwnd_min || w > config.cwnd_max)
        .count()
}

/// What one pass of an agent workload timed.
pub struct PassTimes {
    /// Seconds per repetition.
    pub reps_s: Vec<f64>,
    /// Milliseconds per cycle.
    pub cycles_ms: Vec<f64>,
    /// Milliseconds per warm restart.
    pub restarts_ms: Vec<f64>,
    /// Size of the state file the restarts decoded.
    pub state_bytes: usize,
}

impl PassTimes {
    /// Records the untraced pass's end-to-end metrics; `repetition` says
    /// what one repetition is and `min_cycles` how many cycles the
    /// workload guarantees. Returns `wall_s`.
    pub fn report(&self, repetition: &str, min_cycles: usize, out: &mut Outcome) -> f64 {
        let wall_s = out.set_wall("wall_s", &self.reps_s, repetition);
        out.set_cycle_times(&self.cycles_ms, min_cycles);
        if !self.restarts_ms.is_empty() {
            out.set("restart_ms", stats::median(&self.restarts_ms));
            out.notes.push(format!(
                "restart_ms over {} restarts",
                self.restarts_ms.len()
            ));
        }
        wall_s
    }

    /// Records the traced pass's tick, route-control and persistence
    /// metrics; `observations` is how many the traced ticks consumed and
    /// `wall_s` the untraced pass's, for the tracing overhead.
    pub fn report_layers(
        &self,
        tracer: &Tracer,
        observations: u64,
        wall_s: f64,
        out: &mut Outcome,
    ) {
        out.set(
            "bench.trace_overhead_pct",
            100.0 * (stats::mean(&self.reps_s) - wall_s) / wall_s,
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        let per_call_ms = |name: &str| ms(tracer.busy_ns(name)) / tracer.calls(name).max(1) as f64;
        let tick_ms: Vec<f64> = tracer
            .each_busy_ns("core.agent.tick")
            .into_iter()
            .map(ms)
            .collect();
        let ticks = tick_ms.len().max(1) as f64;
        out.set("core.agent.tick_ms", stats::median(&tick_ms));
        out.set(
            "core.agent.tick_self_ms",
            ms(tracer.self_ns("core.agent.tick")) / ticks,
        );
        out.set(
            "core.agent.ns_per_obs",
            tracer.busy_ns("core.agent.tick") as f64 / observations.max(1) as f64,
        );
        out.set(
            "core.observe.ms",
            ms(tracer.busy_ns("core.observe")) / ticks,
        );
        let installs = tracer.calls("linuxnet.route.install");
        out.set(
            "linuxnet.route.install_ns",
            tracer.busy_ns("linuxnet.route.install") as f64 / installs.max(1) as f64,
        );
        out.set("linuxnet.route.installs", installs as f64);
        out.set(
            "linuxnet.route.withdrawals",
            tracer.calls("linuxnet.route.withdraw") as f64,
        );
        out.set("core.agent.snapshot_ms", per_call_ms("core.agent.snapshot"));
        out.set("core.persist.encode_ms", per_call_ms("core.persist.encode"));
        out.set("core.persist.decode_ms", per_call_ms("core.persist.decode"));
        out.set("core.agent.restore_ms", per_call_ms("core.agent.restore"));
        out.set("core.persist.bytes", self.state_bytes as f64);
    }
}

//! `megafleet-tick`: one agent, a million destinations. `RiptideAgent::
//! tick` with aggregation on and telemetry and guard off is fed full
//! sweeps of the mega-CDN fleet, alternating convergent and divergent, so
//! about 4 % of the /24 slabs split or merge every cycle — table writes
//! beside the LPM reads. Closed loop, one client: the next sweep is
//! handed over when the previous tick returns.
//!
//! The cold first tick (a million inserts, then the first fold) is
//! set-up. A repetition is one divergent and one convergent cycle, so
//! every repetition ends where it began; `cycle_p50_ms` and
//! `cycle_tail_ms` are over single cycles. After the first three
//! repetitions come three warm restarts at full table size, and peak
//! memory is read: that much work is the same on every machine, while the
//! repetitions that follow go on until the window closes.

use std::collections::BTreeMap;
use std::time::Instant;

use riptide::prelude::*;
use riptide_cdn::megacdn::MegaCdnConfig;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::time::SimTime;

use crate::agentkit::{self, PassTimes};
use crate::layers;
use crate::span::Tracer;
use crate::workload::{millis, setup_median, Outcome, RunArgs, Window, MIN_REPS, POLL_INTERVAL};

/// Warm restarts per pass.
const RESTARTS: usize = 3;
/// Cycles the untraced pass runs however slow the machine: the fewest
/// that leave ten beyond p80, the percentile `cycle_tail_ms` is taken at.
const MIN_CYCLES: usize = 50;

/// Hands one pre-built sweep to the agent.
struct SweepObserver(Vec<CwndObservation>);

impl WindowObserver for SweepObserver {
    fn observe(&mut self) -> Vec<CwndObservation> {
        std::mem::take(&mut self.0)
    }
}

/// The fleet after set-up: both sweeps generated, the table cold-built.
struct Fleet {
    config: RiptideConfig,
    /// `[convergent, divergent]`.
    sweeps: [Vec<CwndObservation>; 2],
    agent: RiptideAgent,
    routes: RouteTable,
    /// The installed view after the cold (convergent) tick: every
    /// convergent cycle must return to exactly this.
    converged_view: BTreeMap<Ipv4Prefix, u32>,
    cold_tick_ms: f64,
    /// Routes installed after the first divergent cycle (split slabs
    /// install their members one by one).
    diverged_routes: Option<usize>,
    /// Cycles run so far; simulated time is one poll interval per cycle.
    cycles: u64,
}

fn setup(args: &RunArgs) -> Fleet {
    let shape = if args.smoke {
        MegaCdnConfig::test()
    } else {
        MegaCdnConfig::quick()
    };
    let cfg = MegaCdnConfig {
        seed: args.seed,
        ..shape
    };
    cfg.validate().expect("the mega-CDN shapes are valid");
    let sweeps = [cfg.observations(false), cfg.observations(true)];
    // No history blend: the learned window follows each sweep at once, so
    // a divergent sweep really splits its slabs in the cycle it arrives.
    let config = RiptideConfig::builder()
        .history(HistoryStrategy::None)
        .aggregation(AggregationPolicy::default())
        .build()
        .expect("the workload's agent configuration is valid");
    let mut agent = RiptideAgent::new(config.clone()).expect("validated by the builder");
    let mut routes = RouteTable::new();
    let started = Instant::now();
    agent.tick(
        SimTime::from_secs(1),
        &mut SweepObserver(sweeps[0].clone()),
        &mut routes,
    );
    let cold_tick_ms = millis(started.elapsed());
    Fleet {
        config,
        converged_view: agent.installed_view().clone(),
        sweeps,
        agent,
        routes,
        cold_tick_ms,
        diverged_routes: None,
        cycles: 1,
    }
}

impl Fleet {
    fn now(&self) -> SimTime {
        SimTime::from_secs(self.cycles)
    }

    /// One cycle as the operator pays it: observations in → routes
    /// issued. Returns its wall-clock in milliseconds.
    fn cycle(&mut self, diverge: bool, tracer: &mut Tracer, out: &mut Outcome) -> f64 {
        self.cycles += 1;
        let mut sweep = SweepObserver(self.sweeps[diverge as usize].clone());
        let now = self.now();
        let started = Instant::now();
        let report = agentkit::tick(
            &mut self.agent,
            now,
            &mut sweep,
            &mut self.routes,
            tracer,
            self.cycles,
        );
        let wall = started.elapsed();
        out.attempted += 1;
        if !report.errors.is_empty() || wall > POLL_INTERVAL {
            out.failed += 1;
        }
        let view = self.agent.installed_view();
        let bad = agentkit::windows_out_of_bounds(&self.config, view.values());
        out.require(bad == 0, || {
            format!(
                "cycle {}: {bad} installed window(s) outside the clamp",
                self.cycles
            )
        });
        out.require(view.len() == self.routes.len(), || {
            format!(
                "cycle {}: the agent believes in {} routes, the kernel table holds {}",
                self.cycles,
                view.len(),
                self.routes.len()
            )
        });
        if diverge {
            let routes = *self.diverged_routes.get_or_insert(view.len());
            out.require(
                view.len() == routes && routes > self.converged_view.len(),
                || {
                    format!(
                        "cycle {}: a divergent sweep left {} routes, the first one {routes}",
                        self.cycles,
                        view.len()
                    )
                },
            );
        } else {
            out.require(*view == self.converged_view, || {
                format!(
                    "cycle {}: a convergent sweep did not return to the first tick's view",
                    self.cycles
                )
            });
        }
        millis(wall)
    }

    /// A restart must bring the whole learned table back, and may
    /// re-issue only routes the agent had issued before the crash.
    /// (`restore_state` re-issues a route only when its key has a table
    /// entry, and a covering /24 has none — its members do — so with
    /// aggregation on the restored view is empty until the next tick.)
    fn check_restart(&self, restarted: &agentkit::Restarted, out: &mut Outcome) {
        let (before, after) = (self.agent.table().len(), restarted.agent.table().len());
        out.require(before == after, || {
            format!("the table held {before} entries before the crash, {after} after the restart")
        });
        let stray = restarted
            .agent
            .installed_view()
            .iter()
            .filter(|(key, window)| self.converged_view.get(key) != Some(window))
            .count();
        out.require(stray == 0, || {
            format!("the restart issued {stray} route(s) the agent had not issued before the crash")
        });
    }

    /// The warm restarts: `(milliseconds each, state-file bytes)`.
    fn restarts(&mut self, tracer: &mut Tracer, out: &mut Outcome) -> (Vec<f64>, usize) {
        let mut restarts = Vec::new();
        let mut state_bytes = 0;
        for _ in 0..RESTARTS {
            self.cycles += 1;
            let bytes = agentkit::checkpoint(&self.agent, self.now(), &[], tracer, self.cycles);
            state_bytes = bytes.len();
            match agentkit::restart(&self.config, false, &bytes, self.now(), tracer, self.cycles) {
                // The restarted agent is dropped and the old one carries
                // on: a restore does not bring back aggregate membership,
                // so the first tick after it re-issues every /32 — a cold
                // tick, which is set-up here, not a steady cycle.
                Ok(restarted) => {
                    restarts.push(millis(restarted.wall));
                    self.check_restart(&restarted, out);
                }
                Err(why) => out.problems.push(why),
            }
        }
        (restarts, state_bytes)
    }

    /// One pass: repetitions of (divergent, convergent) until the window
    /// closes. The first [`MIN_REPS`] and the warm restarts behind them
    /// are the fixed part, after which peak memory is read.
    fn pass(&mut self, window: Window, tracer: &mut Tracer, out: &mut Outcome) -> PassTimes {
        let (mut reps, mut cycles) = (Vec::new(), Vec::new());
        let (mut restarts, mut state_bytes) = (Vec::new(), 0);
        while window.wants_more(reps.len()) {
            let pair = [
                self.cycle(true, tracer, out),
                self.cycle(false, tracer, out),
            ];
            reps.push((pair[0] + pair[1]) / 1e3);
            cycles.extend(pair);
            if reps.len() == MIN_REPS {
                (restarts, state_bytes) = self.restarts(tracer, out);
                out.read_peak_rss();
            }
        }
        PassTimes {
            reps_s: reps,
            cycles_ms: cycles,
            restarts_ms: restarts,
            state_bytes,
        }
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (mut fleet, setup_s) = setup_median(|| setup(args));
    out.set("setup_s", setup_s);

    let slabs = fleet.sweeps[0].len() / 256;
    out.require(fleet.converged_view.len() == slabs, || {
        format!(
            "the converged fleet should fold into {slabs} /24 routes, it installed {}",
            fleet.converged_view.len()
        )
    });
    out.fact("learned_entries", fleet.agent.table().len() as f64);
    out.fact(
        "installed_routes_converged",
        fleet.converged_view.len() as f64,
    );

    let untraced = fleet.pass(
        Window::with_min_reps(args.pass_budget(), MIN_CYCLES / 2),
        &mut Tracer::off(),
        &mut out,
    );
    out.fact(
        "installed_routes_diverged",
        fleet.diverged_routes.unwrap_or(0) as f64,
    );
    let wall_s = untraced.report(
        "repetitions of (divergent, convergent)",
        MIN_CYCLES,
        &mut out,
    );

    if args.trace {
        let mut tracer = Tracer::on();
        let before = fleet.agent.stats().observations;
        let traced = fleet.pass(Window::open(args.pass_budget()), &mut tracer, &mut out);
        let observations = fleet.agent.stats().observations - before;
        traced.report_layers(&tracer, observations, wall_s, &mut out);
        out.set("core.agent.cold_tick_ms", fleet.cold_tick_ms);

        // A fresh aggregator folds the whole table from nothing.
        let policy = fleet.config.aggregation.expect("aggregation is on");
        let started = Instant::now();
        let pass = tracer.span("core.aggregate.pass", 0, || {
            Aggregator::new(policy).pass(fleet.agent.table())
        });
        out.set("core.aggregate.pass_ms", millis(started.elapsed()));
        out.require(pass.merged.len() == slabs, || {
            format!(
                "a fresh pass merged {} aggregates, expected {slabs}",
                pass.merged.len()
            )
        });

        // The off-cycle audit: kernel dump against the agent's view.
        let dump = fleet.routes.clone();
        let started = Instant::now();
        let audit = tracer.span("core.reconcile", 0, || {
            fleet.agent.reconcile(&dump, &mut fleet.routes)
        });
        out.set("core.reconcile.ms", millis(started.elapsed()));
        out.require(audit.converged(), || {
            "the reconcile audit found drift in an undisturbed table".into()
        });
        layers::probe_fleet_tables(args.seed, &mut out);
        out.trace = Some(tracer);
    }
    out
}

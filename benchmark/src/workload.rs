//! What every workload shares: its arguments, the record of what a run
//! measured, and the two timing helpers (repeated set-up, time-bounded
//! repetitions).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::span::Tracer;
use crate::stats;
use crate::sys;

/// The five workloads, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 5] = [
    "probe-fleet",
    "scenario-matrix",
    "bulk-bottleneck",
    "megafleet-tick",
    "daemon-poll",
];

/// The seed a run uses when none is given, and the only seed
/// `expected.json` holds numbers for. Also `ExperimentScale::quick()`'s
/// own default, so `probe-fleet` at this seed is the plan the figure
/// binaries and `simperf` have always run.
pub const DEFAULT_SEED: u64 = 2016;

/// The poll interval `i_u`: a cycle slower than this is a failed cycle.
pub const POLL_INTERVAL: Duration = Duration::from_secs(1);

/// How often set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Repetitions every pass makes, however short its window. They are the
/// fixed part of a run: what is read after them (peak memory) belongs to
/// the same work on a fast machine and a slow one.
pub const MIN_REPS: usize = 3;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring time of the untraced pass, seconds. A traced run splits
    /// the same budget between an untraced and a traced pass.
    pub seconds: f64,
    /// Whether to add the traced pass and the layer probes.
    pub trace: bool,
    /// Test-scale shapes: seconds instead of minutes, invariants only.
    pub smoke: bool,
}

impl RunArgs {
    /// Measuring time of one pass.
    pub fn pass_budget(&self) -> Duration {
        let share = if self.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (defined per workload).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness violations; empty means every output checked out.
    pub problems: Vec<String>,
    /// Metric name → value, end-to-end and per-layer alike.
    pub values: BTreeMap<&'static str, f64>,
    /// Deterministic numbers of the run (event counts, simulated medians,
    /// route counts): compared with `expected.json` at the default seed.
    pub facts: Vec<(String, f64)>,
    /// Free-form lines printed beside the metrics (sample counts, the
    /// percentile the tail was taken at).
    pub notes: Vec<String>,
    /// The traced pass's spans, for the trace file.
    pub trace: Option<Tracer>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a deterministic fact.
    pub fn fact(&mut self, name: impl Into<String>, value: f64) {
        self.facts.push((name.into(), value));
    }

    /// Records a violation unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Records `name` (`wall_s` or `wall_2t_s`) from the wall-clock of a
    /// pass's repetitions, noting how many there were, and returns it.
    ///
    /// The mean, not the median, on purpose: the machines this runs on
    /// move between a fast and a slow state every few seconds, and a
    /// quantile of a run's repetitions jumps by the whole gap when the
    /// fast share of the window crosses it, while the mean moves in
    /// proportion (README, "How the bounds were set").
    pub fn set_wall(&mut self, name: &'static str, reps_s: &[f64], repetition: &str) -> f64 {
        let wall = stats::mean(reps_s);
        self.set(name, wall);
        self.notes.push(format!(
            "{name}: mean of {} {repetition} (median {:.6} s, upper quartile {:.6} s)",
            reps_s.len(),
            stats::median(reps_s),
            stats::percentile(reps_s, 75)
        ));
        wall
    }

    /// Records `peak_rss_mb` as of now, unless an earlier call has. Each
    /// workload calls it after a fixed amount of work — never at the end
    /// of a time-bounded pass, where a faster machine has done more.
    pub fn read_peak_rss(&mut self) {
        if self.values.contains_key("peak_rss_mb") {
            return;
        }
        match sys::peak_rss_mb() {
            Ok(mb) => self.set("peak_rss_mb", mb),
            Err(why) => self.problems.push(why),
        }
    }

    /// Records `cycle_p50_ms` and `cycle_tail_ms` from per-cycle timings.
    /// The tail is taken at the percentile the workload's guaranteed
    /// `min_cycles` supports, so it is the same percentile however many
    /// cycles beyond those the machine fitted into the window.
    pub fn set_cycle_times(&mut self, millis: &[f64], min_cycles: usize) {
        assert!(millis.len() >= min_cycles, "a pass ran too few cycles");
        let pct = stats::tail_pct(min_cycles).expect("every workload guarantees 20 cycles");
        self.set("cycle_p50_ms", stats::median(millis));
        self.set("cycle_tail_ms", stats::percentile(millis, pct));
        self.notes.push(format!(
            "cycle_tail_ms: tail_pct={pct} over n={} cycles (at least {min_cycles} guaranteed)",
            millis.len()
        ));
    }
}

/// Seconds in `d`, as a float with every digit the clock gave.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Milliseconds in `d`.
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `build` [`SETUP_REPS`] times, dropping each result before the
/// next is built, and returns the last one with the median build time.
pub fn setup_median<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let started = Instant::now();
        state = Some(build());
        times.push(secs(started.elapsed()));
    }
    (
        state.expect("SETUP_REPS is positive"),
        stats::median(&times),
    )
}

/// A measuring window: repetitions go on until it has passed.
#[derive(Debug)]
pub struct Window {
    started: Instant,
    budget: Duration,
    min_reps: usize,
}

impl Window {
    /// Opens a window of `budget` that holds at least [`MIN_REPS`]
    /// repetitions.
    pub fn open(budget: Duration) -> Self {
        Window::with_min_reps(budget, MIN_REPS)
    }

    /// Opens a window of `budget` that holds at least `min_reps`
    /// repetitions (never fewer than [`MIN_REPS`]).
    pub fn with_min_reps(budget: Duration, min_reps: usize) -> Self {
        Window {
            started: Instant::now(),
            budget,
            min_reps: min_reps.max(MIN_REPS),
        }
    }

    /// Whether to start another repetition after `done` of them: until
    /// the budget is used up, and never fewer than the minimum.
    pub fn wants_more(&self, done: usize) -> bool {
        done < self.min_reps || self.started.elapsed() < self.budget
    }
}

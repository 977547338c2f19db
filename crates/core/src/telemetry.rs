//! Zero-dependency observability: a thread-safe metrics registry and a
//! bounded decision journal.
//!
//! The agent is three interacting control loops — learn/install
//! (Algorithm 1), the loss-aware breaker ([`crate::guard`]) and the
//! anti-entropy audit ([`crate::reconcile`]) — and the paper's
//! operational story (§V: per-PoP deployments, 90 s TTLs, the `c_max`
//! knee) depends on operators seeing *why* each loop acted. This module
//! is that introspection layer, in two halves:
//!
//! * **Metrics** — [`MetricsRegistry`] hands out [`Counter`], [`Gauge`]
//!   and [`FixedHistogram`] handles backed by shared atomics. The hot
//!   path (incrementing, observing) is lock-free; only registration and
//!   snapshotting take the registry lock. A [`MetricsSnapshot`] is a
//!   plain value: it merges commutatively (shard snapshots can be
//!   reduced in any order and still agree) and renders deterministically
//!   in the Prometheus text exposition format.
//! * **The decision journal** — [`DecisionJournal`] is a bounded ring
//!   buffer of [`DecisionRecord`]s: every install, withdraw, suppress,
//!   evict and repair, each with its *cause* (the learned value and
//!   whether the clamp bit, the breaker state, the reconcile verdict).
//!   Decisions are orders of magnitude rarer than counter bumps, so the
//!   journal may take a lock.
//!
//! Everything here is optional: an agent without an attached
//! [`AgentTelemetry`] does no telemetry work at all, which is what keeps
//! experiment digests bit-identical when observability is off.
//!
//! # Determinism
//!
//! Counters record *logical* events only — never wall-clock time — so a
//! run at a fixed seed produces the same snapshot every time, on any
//! thread count. Merging per-shard snapshots is a per-metric sum (and an
//! element-wise sum for histogram buckets), which commutes; the merged
//! result is therefore independent of shard completion order.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::time::SimTime;

use crate::agent::AgentStats;
use crate::guard::BreakerState;
use crate::reconcile::AuditVerdict;

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic, so a handle can be given away while the registry keeps
/// rendering the same value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable point-in-time value (table occupancy, breaker counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets, strictly increasing. One
    /// extra bucket (`+Inf`) follows implicitly.
    bounds: Vec<u64>,
    /// One slot per finite bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram over `u64` observations (installed window
/// sizes, here). Buckets are chosen at registration and never change, so
/// recording is a bounded scan over atomics — no locks, no allocation.
#[derive(Debug, Clone)]
pub struct FixedHistogram(Arc<HistogramCore>);

impl FixedHistogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        FixedHistogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(FixedHistogram),
}

#[derive(Debug)]
struct Registered {
    help: String,
    handle: Handle,
}

/// A named collection of metrics.
///
/// Registration is idempotent: asking twice for the same name returns a
/// handle to the same underlying atomic, so every agent of a simulated
/// deployment can "register" its counters against one shared registry
/// and the values sum naturally.
///
/// Cloning shares the registry.
///
/// # Examples
///
/// ```
/// use riptide::telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let ticks = registry.counter("riptide_ticks_total", "Agent cycles run");
/// ticks.inc();
/// ticks.inc();
/// assert_eq!(registry.snapshot().value("riptide_ticks_total"), Some(2));
/// assert!(registry
///     .render_prometheus()
///     .contains("riptide_ticks_total 2"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Registered>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers `name` with a handle from `fresh` unless it is
    /// registered already, and returns the handle it holds.
    fn register(&self, name: &str, help: &str, fresh: impl FnOnce() -> Handle) -> Handle {
        let mut map = self.inner.lock().expect("registry lock");
        map.entry(name.to_string())
            .or_insert_with(|| Registered {
                help: help.to_string(),
                handle: fresh(),
            })
            .handle
            .clone()
    }

    /// Registers (or retrieves) a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register(name, help, || Handle::Counter(Counter::default())) {
            Handle::Counter(handle) => handle,
            _ => panic!("metric {name:?} already registered as a non-counter"),
        }
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, || Handle::Gauge(Gauge::default())) {
            Handle::Gauge(handle) => handle,
            _ => panic!("metric {name:?} already registered as a non-gauge"),
        }
    }

    /// Registers (or retrieves) a fixed-bucket histogram. `bounds` are
    /// the finite bucket upper bounds, strictly increasing; a `+Inf`
    /// overflow bucket is implicit.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind, or if
    /// `bounds` are not strictly increasing.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> FixedHistogram {
        match self.register(name, help, || {
            Handle::Histogram(FixedHistogram::new(bounds))
        }) {
            Handle::Histogram(handle) => handle,
            _ => panic!("metric {name:?} already registered as a non-histogram"),
        }
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("registry lock").is_empty()
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.lock().expect("registry lock");
        let metrics = map
            .iter()
            .map(|(name, Registered { help, handle })| {
                let help = help.clone();
                let value = match handle {
                    Handle::Counter(handle) => MetricValue::Counter {
                        help,
                        value: handle.get(),
                    },
                    Handle::Gauge(handle) => MetricValue::Gauge {
                        help,
                        value: handle.get(),
                    },
                    Handle::Histogram(handle) => {
                        let core = &handle.0;
                        MetricValue::Histogram {
                            help,
                            bounds: core.bounds.clone(),
                            buckets: core
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            sum: core.sum.load(Ordering::Relaxed),
                            count: core.count.load(Ordering::Relaxed),
                        }
                    }
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { metrics }
    }

    /// Renders the registry in Prometheus text exposition format
    /// (shorthand for `self.snapshot().render_prometheus()`).
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// The frozen value of one metric inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotone counter's value.
    Counter {
        /// Help text.
        help: String,
        /// The value.
        value: u64,
    },
    /// A gauge's value.
    Gauge {
        /// Help text.
        help: String,
        /// The value.
        value: u64,
    },
    /// A histogram's buckets and totals.
    Histogram {
        /// Help text.
        help: String,
        /// Finite bucket upper bounds.
        bounds: Vec<u64>,
        /// Per-bucket counts (`bounds.len() + 1` entries; last is the
        /// `+Inf` overflow bucket).
        buckets: Vec<u64>,
        /// Sum of observations.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// A point-in-time copy of a registry: plain data, comparable, mergeable
/// and renderable without touching any live atomics.
///
/// Snapshots from different shards of one experiment merge with
/// [`MetricsSnapshot::merge`]; because merging is a per-metric sum, the
/// reduced snapshot is the same whatever order (or thread count) the
/// shards completed in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no metrics (the disabled-telemetry
    /// state — exactly this value leaves experiment digests unchanged).
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// The scalar value of a counter or gauge, if present.
    pub fn value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name)? {
            MetricValue::Counter { value, .. } | MetricValue::Gauge { value, .. } => Some(*value),
            MetricValue::Histogram { .. } => None,
        }
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` into `self`: counters and gauges add, histograms
    /// add element-wise. A metric present on only one side is copied.
    /// Addition commutes and associates, so any merge order over a set
    /// of snapshots produces the same result.
    ///
    /// # Panics
    ///
    /// Panics when the same name carries different kinds or different
    /// histogram bounds — shards of one plan register identical schemas,
    /// so a mismatch is a bug, not data.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, theirs) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name.clone(), theirs.clone());
                }
                Some(ours) => match (ours, theirs) {
                    (MetricValue::Counter { value, .. }, MetricValue::Counter { value: v, .. })
                    | (MetricValue::Gauge { value, .. }, MetricValue::Gauge { value: v, .. }) => {
                        *value += v;
                    }
                    (
                        MetricValue::Histogram {
                            bounds,
                            buckets,
                            sum,
                            count,
                            ..
                        },
                        MetricValue::Histogram {
                            bounds: b2,
                            buckets: k2,
                            sum: s2,
                            count: c2,
                            ..
                        },
                    ) => {
                        assert_eq!(bounds, b2, "histogram {name:?}: mismatched bounds");
                        for (mine, theirs) in buckets.iter_mut().zip(k2) {
                            *mine += theirs;
                        }
                        *sum += s2;
                        *count += c2;
                    }
                    _ => panic!("metric {name:?}: mismatched kinds in merge"),
                },
            }
        }
    }

    /// Renders the snapshot in Prometheus text exposition format:
    /// `# HELP` / `# TYPE` / value lines per metric, metrics in name
    /// order, histograms with cumulative `_bucket{le=...}` series plus
    /// `_sum` and `_count`. Deterministic: equal snapshots render to
    /// byte-equal text.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            match metric {
                MetricValue::Counter { help, value } => {
                    let _ = write!(
                        out,
                        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
                    );
                }
                MetricValue::Gauge { help, value } => {
                    let _ = write!(
                        out,
                        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
                    );
                }
                MetricValue::Histogram {
                    help,
                    bounds,
                    buckets,
                    sum,
                    count,
                } => {
                    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} histogram\n");
                    let mut cumulative = 0u64;
                    for (i, bound) in bounds.iter().enumerate() {
                        cumulative += buckets[i];
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                    let _ = write!(out, "{name}_sum {sum}\n{name}_count {count}\n");
                }
            }
        }
        out
    }
}

/// What a journaled decision did to a destination's route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionAction {
    /// A route was installed or updated with this window.
    Install {
        /// The window issued to the controller.
        window: u32,
    },
    /// The destination's route was withdrawn.
    Withdraw,
    /// The learned window was demoted to the probe window before
    /// install (the breaker is not Closed).
    Suppress {
        /// The demoted window actually issued.
        window: u32,
    },
    /// The destination was evicted by the table's capacity bound.
    Evict,
    /// A reconciler repair: `Some(window)` re-installed an externally
    /// deleted or rewritten route, `None` withdrew an orphan.
    Repair {
        /// The re-installed window, or `None` for an orphan withdrawal.
        window: Option<u32>,
    },
}

/// Why the decision was taken — the journal's cause taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionCause {
    /// Algorithm 1 learned a new value for the destination.
    Learned {
        /// The freshly combined (pre-blend) estimate, rounded.
        fresh: u32,
        /// Whether the `[c_min, c_max]` clamp changed the blended value.
        clamped: bool,
        /// Whether trend damping (§V) overrode the history blend.
        trend_damped: bool,
        /// The learning policy that produced the value
        /// ([`LearningPolicy::name`](crate::policy::LearningPolicy::name)).
        policy: &'static str,
    },
    /// The loss guard's breaker forced the decision.
    Guard {
        /// The breaker state after the deciding update.
        state: BreakerState,
    },
    /// The entry sat unobserved past its TTL.
    TtlExpired,
    /// The table's capacity bound evicted the entry.
    Capacity,
    /// A reconciler audit found kernel drift.
    Reconcile {
        /// The audit's overall verdict.
        verdict: AuditVerdict,
    },
    /// The agent is shutting down and sweeping its installs.
    Shutdown,
    /// Sibling destinations' learned windows agreed within the clamp
    /// band, so a covering aggregate route replaced their member routes
    /// (or retuned its window).
    Aggregated {
        /// Member destinations covered by the aggregate.
        members: u32,
        /// `max − min` of the member windows at merge time.
        spread: u32,
    },
    /// A covering aggregate no longer held — members diverged past the
    /// band, fell below the sibling minimum, or vanished — so it
    /// dissolved back into member routes.
    Disaggregated {
        /// Member destinations reinstalled individually (0 when the
        /// members themselves expired or were evicted).
        members: u32,
        /// `max − min` of the member windows at split time.
        spread: u32,
    },
    /// The route was reinstalled from a persisted state file during a
    /// warm restart ([`RiptideAgent::restore_state`]).
    ///
    /// [`RiptideAgent::restore_state`]: crate::agent::RiptideAgent::restore_state
    Restored {
        /// Seconds the entry survived on disk between snapshot stamp
        /// and restore, rounded down.
        age_secs: u32,
    },
    /// The entry was accepted from a gossip peer: the remote stamp was
    /// newer than anything local, and the remote window was clamp-merged
    /// into this agent's `[c_min, c_max]`
    /// ([`RiptideAgent::merge_remote`]).
    ///
    /// [`RiptideAgent::merge_remote`]: crate::agent::RiptideAgent::merge_remote
    SyncMerged {
        /// Whether the local bounds changed the peer's window on the
        /// way in.
        clamped: bool,
    },
}

/// One journaled decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// When the decision was taken (simulated time).
    pub at: SimTime,
    /// The destination key the decision concerns.
    pub key: Ipv4Prefix,
    /// What was done.
    pub action: DecisionAction,
    /// Why.
    pub cause: DecisionCause,
}

impl DecisionRecord {
    /// One-line human-readable rendering, `t=<secs> <key> <action> <cause>`.
    pub fn render(&self) -> String {
        let action = match self.action {
            DecisionAction::Install { window } => format!("install w={window}"),
            DecisionAction::Withdraw => "withdraw".to_string(),
            DecisionAction::Suppress { window } => format!("suppress w={window}"),
            DecisionAction::Evict => "evict".to_string(),
            DecisionAction::Repair { window: Some(w) } => format!("repair reinstall w={w}"),
            DecisionAction::Repair { window: None } => "repair withdraw-orphan".to_string(),
        };
        let cause = match self.cause {
            DecisionCause::Learned {
                fresh,
                clamped,
                trend_damped,
                policy,
            } => {
                format!(
                    "learned fresh={fresh} clamped={clamped} trend_damped={trend_damped} \
                     policy={policy}"
                )
            }
            DecisionCause::Guard { state } => format!("guard {state:?}"),
            DecisionCause::TtlExpired => "ttl-expired".to_string(),
            DecisionCause::Capacity => "capacity".to_string(),
            DecisionCause::Reconcile { verdict } => format!("reconcile {verdict:?}"),
            DecisionCause::Shutdown => "shutdown".to_string(),
            DecisionCause::Aggregated { members, spread } => {
                format!("aggregated members={members} spread={spread}")
            }
            DecisionCause::Disaggregated { members, spread } => {
                format!("disaggregated members={members} spread={spread}")
            }
            DecisionCause::Restored { age_secs } => format!("restored age={age_secs}s"),
            DecisionCause::SyncMerged { clamped } => format!("sync-merged clamped={clamped}"),
        };
        format!(
            "t={} {} {} cause={}",
            self.at.as_secs_f64(),
            self.key,
            action,
            cause
        )
    }
}

#[derive(Debug, Default)]
struct JournalInner {
    records: VecDeque<DecisionRecord>,
    total: u64,
}

/// A bounded ring buffer of [`DecisionRecord`]s. When full, the oldest
/// record is dropped — the journal is a flight recorder, not an audit
/// log. Cloning shares the buffer.
///
/// # Examples
///
/// ```
/// use riptide::telemetry::{DecisionAction, DecisionCause, DecisionJournal, DecisionRecord};
/// use riptide_simnet::time::SimTime;
///
/// let journal = DecisionJournal::bounded(2);
/// for i in 1..=3u32 {
///     journal.record(DecisionRecord {
///         at: SimTime::from_secs(i as u64),
///         key: "10.0.0.1".parse().unwrap(),
///         action: DecisionAction::Install { window: 10 * i },
///         cause: DecisionCause::TtlExpired,
///     });
/// }
/// assert_eq!(journal.len(), 2, "capacity bound holds");
/// assert_eq!(journal.total_recorded(), 3);
/// let kept = journal.snapshot();
/// assert_eq!(kept[0].at, SimTime::from_secs(2), "oldest dropped first");
/// ```
#[derive(Debug, Clone)]
pub struct DecisionJournal {
    inner: Arc<Mutex<JournalInner>>,
    capacity: usize,
}

impl DecisionJournal {
    /// Creates a journal keeping at most `capacity` records (at least 1).
    pub fn bounded(capacity: usize) -> Self {
        DecisionJournal {
            inner: Arc::new(Mutex::new(JournalInner::default())),
            capacity: capacity.max(1),
        }
    }

    /// Appends a record, dropping the oldest if the buffer is full.
    pub fn record(&self, record: DecisionRecord) {
        let mut inner = self.inner.lock().expect("journal lock");
        if inner.records.len() == self.capacity {
            inner.records.pop_front();
        }
        inner.records.push_back(record);
        inner.total += 1;
    }

    /// Records currently held (`<= capacity`).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("journal lock").records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records ever appended, including those already rotated out.
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().expect("journal lock").total
    }

    /// A copy of the held records, oldest first.
    pub fn snapshot(&self) -> Vec<DecisionRecord> {
        self.inner
            .lock()
            .expect("journal lock")
            .records
            .iter()
            .copied()
            .collect()
    }

    /// Renders the held records one per line, oldest first, with a
    /// trailing summary line counting rotated-out records.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("journal lock");
        let mut out = String::new();
        for r in &inner.records {
            out.push_str(&r.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "# journal: {} held, {} recorded\n",
            inner.records.len(),
            inner.total
        ));
        out
    }
}

/// The four I/O counters mirrored out of the resilience layer
/// ([`crate::resilience`]): wrappers increment these alongside their
/// private [`IoStats`] when attached.
///
/// [`IoStats`]: crate::resilience::IoStats
#[derive(Debug, Clone)]
pub struct IoCounters {
    /// Logical calls made through resilient wrappers.
    pub calls: Counter,
    /// Extra attempts beyond each call's first.
    pub retries: Counter,
    /// Individual attempts that timed out.
    pub timeouts: Counter,
    /// Calls that failed even after retrying.
    pub gave_up: Counter,
}

impl IoCounters {
    /// Registers (or retrieves) the I/O counters on `registry`.
    pub fn attach(registry: &MetricsRegistry) -> Self {
        IoCounters {
            calls: registry.counter(
                "riptide_io_calls_total",
                "Logical calls through resilient I/O wrappers",
            ),
            retries: registry.counter(
                "riptide_io_retries_total",
                "Extra I/O attempts beyond each call's first",
            ),
            timeouts: registry.counter(
                "riptide_io_timeouts_total",
                "Individual I/O attempts that timed out",
            ),
            gave_up: registry.counter(
                "riptide_io_gave_up_total",
                "I/O calls that failed even after retrying",
            ),
        }
    }
}

/// Window-size histogram bounds: the kernel default, the paper's
/// `c_max` knee at 100, and intermediate steps.
pub const WINDOW_BUCKETS: [u64; 6] = [10, 20, 40, 60, 80, 100];

/// One published count: `(metric name, help, where to read it in an
/// [`AgentStats`])`.
type Published = (&'static str, &'static str, fn(&AgentStats) -> u64);

/// The counters every bundle registers at once.
const COUNTERS: [Published; 12] = [
    ("riptide_ticks_total", "Agent update cycles executed", |s| {
        s.ticks
    }),
    (
        "riptide_observations_total",
        "Connection window observations consumed",
        |s| s.observations,
    ),
    (
        "riptide_route_updates_total",
        "Route installs or updates issued",
        |s| s.route_updates,
    ),
    (
        "riptide_route_expirations_total",
        "Routes withdrawn by TTL expiry",
        |s| s.route_expirations,
    ),
    (
        "riptide_control_errors_total",
        "Failed route-control actions",
        |s| s.errors,
    ),
    (
        "riptide_degraded_ticks_total",
        "Cycles that ran expiry-only because the poll failed",
        |s| s.degraded_ticks,
    ),
    (
        "riptide_guard_trips_total",
        "Loss-guard breaker trips (destinations demoted)",
        |s| s.guard_trips,
    ),
    (
        "riptide_table_evictions_total",
        "Destinations evicted by the table capacity bound",
        |s| s.table_evictions,
    ),
    (
        "riptide_reconcile_repairs_total",
        "Route-drift repairs performed by reconciler audits",
        |s| s.reconcile_repairs,
    ),
    (
        "riptide_suppressed_installs_total",
        "Installs demoted to the probe window by the loss guard",
        |s| s.suppressed_installs,
    ),
    (
        "riptide_shutdown_withdrawals_total",
        "Routes withdrawn by the graceful-shutdown sweep",
        |s| s.shutdown_withdrawals,
    ),
    (
        "riptide_clamped_installs_total",
        "Installs whose blended window the [c_min, c_max] clamp changed",
        |s| s.clamped_installs,
    ),
];

/// Counters only a warm restart or gossip moves. They are registered
/// when they first move, so runs without persistence or gossip keep
/// their metric snapshots (and digests) byte-identical.
const LAZY_COUNTERS: [Published; 3] = [
    (
        "riptide_restored_routes_total",
        "Routes reinstalled from persisted state at warm restart",
        |s| s.restored_routes,
    ),
    (
        "riptide_sync_merged_total",
        "Entries accepted from gossip peers",
        |s| s.sync_merges,
    ),
    (
        "riptide_persist_skipped_entries_total",
        "Snapshot entries dropped at decode for unknown history tags",
        |s| s.persist_skipped_entries,
    ),
];

/// The agent's full telemetry bundle: a registered counter for every
/// published [`AgentStats`] count, the gauges and the install histogram,
/// plus the decision journal.
///
/// Attach one with [`RiptideAgent::attach_telemetry`]; agents without
/// one skip all telemetry work (no atomics touched, no journal lock).
/// Several agents may share one registry and journal — counters then sum
/// across them, which is how a simulated deployment aggregates per-host
/// agents into one per-shard snapshot.
///
/// [`RiptideAgent::attach_telemetry`]: crate::agent::RiptideAgent::attach_telemetry
#[derive(Debug, Clone)]
pub struct AgentTelemetry {
    registry: MetricsRegistry,
    journal: DecisionJournal,
    /// One handle per [`COUNTERS`] row, in its order.
    counters: [Counter; COUNTERS.len()],
    pub(crate) table_entries: Gauge,
    pub(crate) installed_routes: Gauge,
    pub(crate) breaker_open: Gauge,
    pub(crate) breaker_half_open: Gauge,
    pub(crate) installed_window: FixedHistogram,
}

impl AgentTelemetry {
    /// Registers the agent's metrics on `registry` and journals into
    /// `journal`. Registration is idempotent, so telemetry bundles for
    /// many agents may target one registry.
    pub fn new(registry: &MetricsRegistry, journal: DecisionJournal) -> Self {
        AgentTelemetry {
            counters: COUNTERS.map(|(name, help, _)| registry.counter(name, help)),
            table_entries: registry.gauge(
                "riptide_table_entries",
                "Live destinations in the learned final-values table",
            ),
            installed_routes: registry.gauge(
                "riptide_installed_routes",
                "Routes the agent currently believes are installed",
            ),
            breaker_open: registry.gauge(
                "riptide_breaker_open",
                "Destinations whose loss-guard breaker is Open",
            ),
            breaker_half_open: registry.gauge(
                "riptide_breaker_half_open",
                "Destinations whose loss-guard breaker is Half-open",
            ),
            installed_window: registry.histogram(
                "riptide_installed_window",
                "Windows issued to the route controller, in segments",
                &WINDOW_BUCKETS,
            ),
            registry: registry.clone(),
            journal,
        }
    }

    /// A standalone bundle with its own registry and a journal of
    /// `journal_capacity` records — what `riptided` attaches.
    pub fn standalone(journal_capacity: usize) -> Self {
        AgentTelemetry::new(
            &MetricsRegistry::new(),
            DecisionJournal::bounded(journal_capacity),
        )
    }

    /// The registry this bundle registers on.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The decision journal this bundle records into.
    pub fn journal(&self) -> &DecisionJournal {
        &self.journal
    }

    /// I/O counters on the same registry, for wiring the resilience
    /// layer ([`crate::resilience`]) to this bundle.
    pub fn io_counters(&self) -> IoCounters {
        IoCounters::attach(&self.registry)
    }

    /// Adds what `stats` gained over `published` to the counters — adds,
    /// never sets: the agents of a fleet share one registry and their
    /// counts must sum.
    pub(crate) fn publish(&self, stats: &AgentStats, published: &AgentStats) {
        let eager = COUNTERS.iter().zip(&self.counters);
        for ((_, _, count), counter) in eager {
            let gained = count(stats) - count(published);
            if gained > 0 {
                counter.add(gained);
            }
        }
        for (name, help, count) in LAZY_COUNTERS {
            let gained = count(stats) - count(published);
            if gained > 0 {
                self.registry.counter(name, help).add(gained);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(n: u8) -> Ipv4Prefix {
        Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, n))
    }

    #[test]
    fn counter_handles_share_state() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x_total", "x");
        let b = registry.counter("x_total", "x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(registry.snapshot().value("x_total"), Some(3));
    }

    #[test]
    fn gauge_set_overwrites() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("depth", "queue depth");
        g.set(7);
        g.set(3);
        assert_eq!(registry.snapshot().value("depth"), Some(3));
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_conflict_panics() {
        let registry = MetricsRegistry::new();
        registry.gauge("m", "as gauge");
        registry.counter("m", "as counter");
    }

    #[test]
    fn histogram_buckets_and_totals() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("w", "windows", &[10, 100]);
        h.observe(5);
        h.observe(10); // on the bound: le="10"
        h.observe(64);
        h.observe(1000); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1079);
        let text = registry.render_prometheus();
        assert!(text.contains("w_bucket{le=\"10\"} 2"), "{text}");
        assert!(
            text.contains("w_bucket{le=\"100\"} 3"),
            "cumulative: {text}"
        );
        assert!(text.contains("w_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("w_sum 1079"));
        assert!(text.contains("w_count 4"));
        assert!(text.contains("# TYPE w histogram"));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let registry = MetricsRegistry::new();
        registry.histogram("bad", "bad", &[10, 10]);
    }

    #[test]
    fn snapshot_merge_sums_and_copies() {
        let r1 = MetricsRegistry::new();
        r1.counter("a_total", "a").add(3);
        r1.histogram("h", "h", &[10]).observe(4);
        let r2 = MetricsRegistry::new();
        r2.counter("a_total", "a").add(2);
        r2.counter("b_total", "b").inc();
        r2.histogram("h", "h", &[10]).observe(40);

        let mut merged = r1.snapshot();
        merged.merge(&r2.snapshot());
        assert_eq!(merged.value("a_total"), Some(5));
        assert_eq!(merged.value("b_total"), Some(1), "one-sided metric copied");
        match merged.iter().find(|(n, _)| *n == "h").unwrap().1 {
            MetricValue::Histogram {
                buckets,
                sum,
                count,
                ..
            } => {
                assert_eq!(buckets, &vec![1, 1]);
                assert_eq!((*sum, *count), (44, 2));
            }
            other => panic!("expected histogram, got {other:?}"),
        }

        // Commutativity: the opposite merge order agrees.
        let mut flipped = r2.snapshot();
        flipped.merge(&r1.snapshot());
        assert_eq!(merged, flipped);
    }

    #[test]
    fn render_is_deterministic_and_name_ordered() {
        let registry = MetricsRegistry::new();
        registry.counter("z_total", "last").inc();
        registry.counter("a_total", "first").inc();
        let text = registry.render_prometheus();
        assert!(text.find("a_total").unwrap() < text.find("z_total").unwrap());
        assert_eq!(text, registry.render_prometheus());
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let snap = MetricsSnapshot::default();
        assert!(snap.is_empty());
        assert_eq!(snap.len(), 0);
        assert_eq!(snap.render_prometheus(), "");
    }

    #[test]
    fn journal_rotates_oldest_first() {
        let journal = DecisionJournal::bounded(3);
        for i in 0..5u64 {
            journal.record(DecisionRecord {
                at: SimTime::from_secs(i),
                key: key(1),
                action: DecisionAction::Withdraw,
                cause: DecisionCause::TtlExpired,
            });
        }
        assert_eq!(journal.len(), 3);
        assert_eq!(journal.capacity(), 3);
        assert_eq!(journal.total_recorded(), 5);
        let at: Vec<u64> = journal
            .snapshot()
            .iter()
            .map(|r| r.at.as_secs_f64() as u64)
            .collect();
        assert_eq!(at, vec![2, 3, 4]);
        let text = journal.render();
        assert!(text.contains("# journal: 3 held, 5 recorded"), "{text}");
    }

    #[test]
    fn journal_capacity_floor_is_one() {
        let journal = DecisionJournal::bounded(0);
        assert_eq!(journal.capacity(), 1);
        assert!(journal.is_empty());
    }

    #[test]
    fn record_rendering_covers_the_cause_taxonomy() {
        let mk = |action, cause| {
            DecisionRecord {
                at: SimTime::from_secs(9),
                key: key(7),
                action,
                cause,
            }
            .render()
        };
        let line = mk(
            DecisionAction::Install { window: 80 },
            DecisionCause::Learned {
                fresh: 80,
                clamped: false,
                trend_damped: false,
                policy: "ewma",
            },
        );
        assert!(
            line.contains("install w=80")
                && line.contains("learned fresh=80")
                && line.contains("policy=ewma"),
            "{line}"
        );
        let line = mk(
            DecisionAction::Suppress { window: 10 },
            DecisionCause::Guard {
                state: BreakerState::Open,
            },
        );
        assert!(line.contains("suppress w=10") && line.contains("guard Open"));
        let line = mk(
            DecisionAction::Repair { window: None },
            DecisionCause::Reconcile {
                verdict: AuditVerdict::Repaired,
            },
        );
        assert!(line.contains("repair withdraw-orphan") && line.contains("reconcile Repaired"));
        assert!(mk(DecisionAction::Evict, DecisionCause::Capacity).contains("evict"));
        assert!(mk(DecisionAction::Withdraw, DecisionCause::Shutdown).contains("shutdown"));
        let line = mk(
            DecisionAction::Install { window: 64 },
            DecisionCause::Restored { age_secs: 12 },
        );
        assert!(line.contains("restored age=12s"), "{line}");
        let line = mk(
            DecisionAction::Install { window: 100 },
            DecisionCause::SyncMerged { clamped: true },
        );
        assert!(line.contains("sync-merged clamped=true"), "{line}");
    }

    #[test]
    fn agent_telemetry_registers_the_full_schema() {
        let t = AgentTelemetry::standalone(16);
        let one_tick = AgentStats {
            ticks: 1,
            ..AgentStats::default()
        };
        t.publish(&one_tick, &AgentStats::default());
        t.installed_window.observe(80);
        let snap = t.registry().snapshot();
        assert_eq!(snap.value("riptide_ticks_total"), Some(1));
        for name in [
            "riptide_observations_total",
            "riptide_route_updates_total",
            "riptide_route_expirations_total",
            "riptide_control_errors_total",
            "riptide_degraded_ticks_total",
            "riptide_guard_trips_total",
            "riptide_table_evictions_total",
            "riptide_reconcile_repairs_total",
            "riptide_suppressed_installs_total",
            "riptide_shutdown_withdrawals_total",
            "riptide_clamped_installs_total",
            "riptide_table_entries",
            "riptide_installed_routes",
            "riptide_breaker_open",
            "riptide_breaker_half_open",
        ] {
            assert_eq!(snap.value(name), Some(0), "{name} registered");
        }
        // Shared registry: a second bundle reuses the same atomics.
        let t2 = AgentTelemetry::new(t.registry(), t.journal().clone());
        t2.publish(&one_tick, &AgentStats::default());
        let snap = t.registry().snapshot();
        assert_eq!(snap.value("riptide_ticks_total"), Some(2), "added, not set");
        // The restart counters appear when they first move, not before.
        assert_eq!(snap.value("riptide_restored_routes_total"), None);
        let restored = AgentStats {
            restored_routes: 3,
            ..one_tick
        };
        t2.publish(&restored, &one_tick);
        let snap = t.registry().snapshot();
        assert_eq!(snap.value("riptide_restored_routes_total"), Some(3));
        assert_eq!(snap.value("riptide_ticks_total"), Some(2));
        assert_eq!(snap.value("riptide_persist_skipped_entries_total"), None);
        let io = t.io_counters();
        io.calls.inc();
        assert_eq!(
            t.registry().snapshot().value("riptide_io_calls_total"),
            Some(1)
        );
    }
}

//! # riptide
//!
//! A from-scratch implementation of **Riptide** — the tool from
//! *"Riptide: Jump-Starting Back-Office Connections in Cloud Systems"*
//! (Flores, Khakpour, Bedi — ICDCS 2016).
//!
//! Riptide observes the congestion windows of a host's live TCP
//! connections, learns a per-destination window from them, and installs
//! that value as the `initcwnd` attribute of a per-destination route, so
//! *new* connections to a known destination skip the cold part of slow
//! start and enter the network at a level the path is known to support.
//!
//! ## Module map (↔ paper sections)
//!
//! | Module | Role | Paper anchor |
//! |---|---|---|
//! | [`agent`] | [`agent::RiptideAgent`]: poll → group → combine → blend → clamp → install, TTL expiry; degraded (expiry-only) cycles | Algorithm 1; §IV-D no-harm |
//! | [`config`] | Table I parameters (`α`, `i_u`, `t`, `c_max`, `c_min`) + builder + conf-file parser | Table I |
//! | [`combine`] | Average / max / traffic-weighted group reduction | §III-B combine alternatives |
//! | [`policy`] | [`policy::LearningPolicy`]: the window estimator as one enum — the paper's EWMA / none / windowed history blending plus the percentile and loss-utility competitors — its per-destination state, and the arena registry | §III-B history and design space; Table I `α` |
//! | [`granularity`] | Host routes vs `/24` (PoP) prefix routes | §III-B granularity |
//! | [`aggregate`] | Learn at `/32`, coalesce agreeing siblings into covering routes, split on divergence | §III-B at internet scale; Pied Piper (PAPERS.md) |
//! | [`trend`] | §V trend damping (aggressive decrease on collapse) | §V |
//! | [`advisory`] | Control-plane advisories (suspend / conservative) | §V load-balancing interplay |
//! | [`guard`] | [`guard::LossGuard`]: per-destination loss-aware circuit breaker with BGP-style flap damping — demote jump-started destinations whose retransmit rate says the learned window became the harm | §IV-D no-harm, closed-loop |
//! | [`reconcile`] | Anti-entropy audit: diff the kernel route table against the agent's installed view, repair drift, never touch foreign routes | §IV-D operational safety |
//! | [`observe`] | Input seam: [`observe::WindowObserver`] (always succeeds) and [`observe::FallibleObserver`] (polls that can time out) | §III poll loop |
//! | [`control`] | Output seam: [`control::RouteController`], command logging, startup recovery, and the [`control::CheckedController`] window-range invariant | Fig. 8; §IV-D |
//! | [`resilience`] | Retry-with-backoff, per-call timeouts, budgets | §IV-D graceful degradation |
//! | [`table`] | The TTL'd per-destination final-values table | §III "final table", Table I `t` |
//! | [`persist`] | Crash-durable state file: versioned CRC-guarded snapshot + append-only journal, torn-tail-safe replay | §IV-A ramp cost; ROADMAP item 3 |
//! | [`daemon`] | [`daemon::Daemon`]: the agent lifecycle over a state file — restore and anchor at start, journal or snapshot after each poll, snapshot before the shutdown sweep — shared by `riptided` and the simulator's hosts | §IV-A poll loop; warm restart |
//! | [`sync`] | Anti-entropy fleet sync primitives: table digests, bounded delta sets, deterministic newest-wins clamp-merge | Pied Piper (PAPERS.md) |
//! | [`telemetry`] | Metrics registry (counters/gauges/histograms) + bounded decision journal; Prometheus text exposition | §V operational story |
//! | [`kernel`] | The §V in-kernel event-driven variant | §V |
//! | [`model`] | §II-B analytic slow-start model (Figures 3/4/6) | §II-B |
//!
//! ## Example
//!
//! ```
//! use riptide::prelude::*;
//! use riptide_linuxnet::route::RouteTable;
//! use riptide_simnet::time::SimTime;
//! use std::net::Ipv4Addr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut agent = RiptideAgent::new(RiptideConfig::deployment())?;
//! let mut routes = RouteTable::new();
//! let mut observer = FnObserver(|| vec![
//!     CwndObservation { dst: Ipv4Addr::new(10, 0, 0, 127), cwnd: 80, bytes_acked: 1 << 20, retrans: 0, ecn_marks: 0 },
//! ]);
//! agent.tick(SimTime::from_secs(1), &mut observer, &mut routes);
//! // New connections to 10.0.0.127 now start at a window of 80:
//! assert_eq!(routes.initcwnd_for(Ipv4Addr::new(10, 0, 0, 127)), Some(80));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod advisory;
pub mod agent;
pub mod aggregate;
pub mod combine;
pub mod config;
pub mod control;
pub mod daemon;
pub mod granularity;
pub mod guard;
pub mod kernel;
pub mod model;
pub mod observe;
pub mod persist;
pub mod policy;
pub mod reconcile;
pub mod resilience;
pub mod sync;
pub mod table;
pub mod telemetry;
pub mod trend;

/// The types most users need, importable in one line.
pub mod prelude {
    pub use crate::advisory::Advisory;
    pub use crate::agent::{AgentStats, RiptideAgent, TickReport};
    pub use crate::aggregate::{AggregationPass, AggregationPolicy, Aggregator};
    pub use crate::combine::CombineStrategy;
    pub use crate::config::{RiptideConfig, RiptideConfigBuilder};
    pub use crate::control::{
        recover_stale_routes, CheckedController, ControlError, RouteController,
        SharedRouteController,
    };
    pub use crate::granularity::Granularity;
    pub use crate::guard::{BreakerState, GuardConfig, GuardVerdict, LossGuard};
    pub use crate::kernel::KernelAgent;
    pub use crate::observe::{
        observations_from_sock_table, CwndObservation, FallibleObserver, FnFallibleObserver,
        FnObserver, ObserveError, WindowObserver,
    };
    pub use crate::persist::{
        decode_state, encode_state, replay, JournalOp, JournalRecord, PersistError, SnapshotEntry,
        StateFile, TableSnapshot,
    };
    pub use crate::policy::{registered_policies, HistoryStrategy, LearningPolicy, PolicyInput};
    pub use crate::reconcile::{audit, is_riptide_route, AuditReport, AuditVerdict};
    pub use crate::resilience::{
        retry_with_backoff, BackoffPolicy, IoStats, ResilientController, ResilientObserver,
        RetryOutcome,
    };
    pub use crate::sync::{SyncConfig, SyncDelta, SyncEntry, TableDigest};
    pub use crate::table::FinalTable;
    pub use crate::telemetry::{
        AgentTelemetry, DecisionAction, DecisionCause, DecisionJournal, DecisionRecord, IoCounters,
        MetricValue, MetricsRegistry, MetricsSnapshot,
    };
    pub use crate::trend::TrendPolicy;
}

//! # riptide-cdn
//!
//! The simulated production environment for the Riptide reproduction:
//! the paper's 34-PoP CDN (Table II) with geography-derived RTTs
//! (Fig. 5), the Fig. 2 file-size workload, the §IV-A probe
//! infrastructure, organic back-office traffic, and the sharded engine
//! that runs every figure of the evaluation.
//!
//! ## Module map (↔ paper sections)
//!
//! | Module | Role | Paper anchor |
//! |---|---|---|
//! | [`geo`] | The 34 PoP sites with coordinates | Table II |
//! | [`topology`] | Testbed: PoPs, machines, geography-derived paths | §IV-A; Fig. 5 |
//! | [`workload`] | Probe harness + organic traffic (file-size model, Zipf popularity) | §IV-A; Fig. 2 |
//! | [`megacdn`] | Million-destination fleet generator for table-scale runs | §III-B at internet scale |
//! | [`scenario`] | Named regimes for the probe experiment and the families built from them (scenario matrix, chaos, guardrail, cold-start) | §V threats to validity |
//! | [`sim`] | The deployment harness: testbed, daemons, probes and arrivals, and the `run_for` loop over the agenda | §IV-A |
//! | `agenda`, `chaos`, `faulted` | (private) The harness's one clock, and the overlays it fires: what a `FaultPlan` breaks, and the fault-injected agent I/O | §IV-D |
//! | [`gossip`] | Anti-entropy fleet-sync scheduler (seeded fanout, per-peer backoff) | Pied Piper (PAPERS.md) |
//! | [`experiment`] | Each figure's deployment, and the analyses over its merged outcomes (Figs. 10–16) | §IV |
//! | [`engine`] | Parallel sharded execution, digests, manifests | — (reproduction infrastructure) |
//! | [`digest`] | The canonical, name-free encoding behind a shard's `data=` token | — (reproduction infrastructure) |
//! | [`schedule`] | LPT-seeded work-stealing shard scheduler | — (reproduction infrastructure) |
//! | [`stats`] | CDFs, percentile gains | Figs. 10–16 metrics |
//!
//! See `DESIGN.md` at the repository root for the experiment index.
//!
//! ## Example: one paired experiment
//!
//! ```
//! use riptide_cdn::engine::RunPlan;
//! use riptide_cdn::experiment::ExperimentScale;
//!
//! // A miniature control-vs-Riptide run (five PoPs, minutes of
//! // simulated time, one shard per arm and sender); scale up with
//! // `ExperimentScale::quick()`/`paper()`.
//! let cmp = RunPlan::probe_comparison(&ExperimentScale::test(), 1)
//!     .run()
//!     .comparison();
//! assert!(!cmp.control.is_empty() && !cmp.riptide.is_empty());
//! ```

#![warn(missing_docs)]

mod agenda;
mod chaos;
pub mod digest;
pub mod engine;
pub mod experiment;
mod faulted;
pub mod geo;
pub mod gossip;
pub mod megacdn;
pub mod scenario;
pub mod schedule;
pub mod sim;
pub mod stats;
pub mod topology;
pub mod workload;

/// The types most users need, importable in one line.
pub mod prelude {
    pub use crate::engine::{
        PlanArm, RunPlan, RunReport, ShardData, ShardId, ShardSpec, ShardWork,
    };
    pub use crate::experiment::{ExperimentScale, ProbeComparison};
    pub use crate::geo::{Continent, PopSite, POP_SITES};
    pub use crate::gossip::{GossipConfig, GossipFabric};
    pub use crate::megacdn::MegaCdnConfig;
    pub use crate::scenario::{scenario_catalog, scenario_sim_config, ScenarioSpec, WorkloadShape};
    pub use crate::sim::{
        CdnSim, CdnSimConfig, ChaosReport, ColdstartReport, CwndSample, ProbeOutcome,
        ResilienceOverlay,
    };
    pub use crate::stats::{average_gains, percentile_gains, Cdf, PercentileGain};
    pub use crate::topology::{RttBucket, Testbed, TestbedConfig};
    pub use crate::workload::{FileSizeDist, FlashCrowd, OrganicConfig, ProbeConfig, Zipf};
}

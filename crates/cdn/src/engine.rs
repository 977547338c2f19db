//! The parallel experiment engine.
//!
//! Every figure harness used to run its simulations back to back in
//! one thread. This module splits an experiment into independent
//! **shards** — one simulation per (scenario × unit × replicate),
//! where a *scenario* is an experiment arm (control vs Riptide, one
//! `c_max` value, one ablation variant), a *unit* is the spatial slice
//! (a probe-sender PoP), and a *replicate* is an independent seed —
//! and executes them on a bounded worker pool.
//!
//! ## Determinism
//!
//! Each shard derives its RNG seed with
//! [`riptide_simnet::rng::stream_seed`] from the plan's master seed
//! and the shard's *pairing key* (unit and replicate, deliberately
//! **excluding** the scenario so that control and treatment arms of
//! the same unit/replicate stay seed-paired, preserving the paper's
//! paired-comparison design). Because every shard is self-contained
//! and results are merged in shard-index order, a run's
//! [`RunReport::digest`] is byte-identical whatever the worker count —
//! `tests/repro/parallel_engine.rs` asserts threads=1 equals threads=8.
//!
//! ## Worker pool
//!
//! [`RunPlan::run`] sizes the pool with
//! [`std::thread::available_parallelism`];
//! [`RunPlan::run_with_threads`] pins it explicitly (the drivers'
//! `--threads N`). Workers take shards from one shared cursor in plan
//! order, so no worker idles while a shard is unstarted, and the report
//! places each result by its plan index: merged reports (and digests)
//! are invariant under thread count and completion order. Every plan
//! the engine builds gives its shards one scale and at most one sender
//! each, so any cost estimate made before running ties across a plan
//! and plan order is already longest-first; DESIGN §9 "Scaling model"
//! says when that stops being true.
//!
//! ## Experiment families
//!
//! The engine knows one probe experiment: [`RunPlan::probe_arms`] fans
//! a list of [`PlanArm`]s out over (arm × sender PoP × replicate) and
//! every shard yields one [`ShardData::Probes`]. Chaos, guardrail,
//! cold-start and the scenario matrix are arm lists built in
//! [`crate::scenario`]; a new family needs no edit here (DESIGN §13).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use riptide::config::RiptideConfig;
use riptide::telemetry::MetricsSnapshot;
use riptide_simnet::rng::stream_seed;
use riptide_simnet::time::SimDuration;

use crate::digest::{fnv1a, shard_data_fnv};
use crate::experiment::{
    cwnd_sim_config, probe_sender_sites, probe_sim_config, traffic_profile_sites,
    traffic_sim_config, warm_cwnd_cdf, warm_probes, ExperimentScale, ProbeComparison, StackTweaks,
};
use crate::scenario::{scenario_sim_config, ScenarioSpec};
use crate::sim::{CdnSim, CdnSimConfig, ChaosReport, ColdstartReport, ProbeOutcome};
use crate::stats::Cdf;

/// The coordinates of one shard inside a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId {
    /// Experiment arm (control, one `c_max`, one ablation variant…).
    pub scenario: u32,
    /// Spatial slice — for probe experiments, the index of the sender
    /// PoP within the plan's sender list.
    pub unit: u32,
    /// Independent replication index (distinct seed).
    pub replicate: u32,
}

impl ShardId {
    /// The seed-pairing key: identifies the (unit, replicate) cell but
    /// **not** the scenario, so all arms of one cell draw the same
    /// RNG stream and stay directly comparable.
    pub fn pairing_key(self) -> u64 {
        ((self.replicate as u64) << 32) | self.unit as u64
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}.u{}.r{}", self.scenario, self.unit, self.replicate)
    }
}

/// What one shard simulates.
#[derive(Debug, Clone)]
pub enum ShardWork {
    /// One Fig. 10 arm: live-cwnd CDF under `c_max` (None = control).
    CwndDistribution {
        /// The `c_max` clamp, or `None` for the no-Riptide control.
        c_max: Option<u32>,
    },
    /// Fig. 11: probe-only vs busy-PoP live-cwnd profiles.
    TrafficProfile,
    /// One arm of the §IV-B2 probe experiment for a subset of senders.
    ProbeArm {
        /// Riptide configuration, or `None` for the control arm.
        riptide: Option<RiptideConfig>,
        /// TCP-stack deviations (ablations).
        tweaks: StackTweaks,
        /// Sender sites probing in this shard.
        senders: Vec<usize>,
    },
    /// Cold-start convergence: the learned-state trajectory sampled
    /// every `step`.
    Convergence {
        /// Sampling step.
        step: SimDuration,
    },
    /// The probe setup with one [`ScenarioSpec`]'s topology, workload,
    /// AQM, CC, faults and recovery layers overlaid (see
    /// [`scenario_sim_config`]) — the arm of every family in
    /// [`crate::scenario`].
    ScenarioArm {
        /// Riptide configuration, or `None` for the control arm.
        riptide: Option<RiptideConfig>,
        /// The scenario this arm runs under (boxed: a spec is ~10× the
        /// next-largest work payload, and the enum is stored per shard).
        spec: Box<ScenarioSpec>,
        /// Sender sites probing in this shard.
        senders: Vec<usize>,
    },
}

/// One schedulable unit of a [`RunPlan`].
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Coordinates within the plan.
    pub id: ShardId,
    /// Human-readable label (arm name, sender site…).
    pub label: String,
    /// The derived per-shard seed (also baked into `scale.seed`).
    pub seed: u64,
    /// The scale this shard simulates at, with `seed` already set to
    /// the shard's derived stream seed.
    pub scale: ExperimentScale,
    /// The simulation to run.
    pub work: ShardWork,
    /// Whether the shard's deployment attaches the telemetry bundle
    /// (see [`RunPlan::with_telemetry`]). Off by default so digests of
    /// existing plans are unchanged.
    pub telemetry: bool,
}

/// An enumerated, ready-to-execute experiment.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Plan name, echoed in the manifest.
    pub name: String,
    /// The user-facing seed all shard streams fork from.
    pub master_seed: u64,
    /// Shards in deterministic enumeration order; results merge in
    /// this order regardless of completion order.
    pub shards: Vec<ShardSpec>,
}

/// One point of a convergence trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Simulated seconds since cold start.
    pub at_secs: u64,
    /// Mean learned initial window across live routes.
    pub mean_window: f64,
    /// Destinations covered by learned routes.
    pub destinations: usize,
    /// Cumulative route updates issued by all agents.
    pub route_updates: u64,
}

/// The measurement a shard produced.
// One value per shard, and the large variant is the common one: boxing
// the reports would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ShardData {
    /// Live-cwnd CDF (Fig. 10 arms).
    Cwnd(Cdf),
    /// Fig. 11 site profiles.
    Profile {
        /// Live-cwnd CDF at the probe-only PoP.
        probe_only: Cdf,
        /// Live-cwnd CDF at the busy PoP.
        busy: Cdf,
    },
    /// What every probe-family shard measures (Figs. 12–16, ablations,
    /// chaos, guardrail, cold-start, the scenario matrix).
    Probes {
        /// After-warmup probe outcomes.
        outcomes: Vec<ProbeOutcome>,
        /// Fault, guard, reconciler and bounds-gate counters.
        chaos: ChaosReport,
        /// Restart, restore, gossip and ramp counters.
        coldstart: ColdstartReport,
    },
    /// Cold-start trajectory.
    Convergence(Vec<ConvergencePoint>),
}

/// Execution counters for one shard. `wall_millis` is the only
/// non-deterministic field and is excluded from [`RunReport::digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Wall-clock milliseconds the shard took.
    pub wall_millis: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Segments retransmitted on the wire.
    pub retransmits: u64,
    /// Transfers completed.
    pub transfers: u64,
}

/// One executed shard.
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// Coordinates within the plan.
    pub id: ShardId,
    /// Label copied from the spec.
    pub label: String,
    /// The derived seed the shard ran with.
    pub seed: u64,
    /// Execution counters.
    pub stats: ShardStats,
    /// The measurement.
    pub data: ShardData,
    /// Deployment-wide metrics snapshot — empty unless the plan ran
    /// [`RunPlan::with_telemetry`].
    pub metrics: MetricsSnapshot,
    /// [`shard_data_fnv`] of `data`, computed on the worker so
    /// [`RunReport::digest`] hashes in parallel.
    pub data_fnv: u64,
    /// FNV-1a of the Prometheus exposition of `metrics`, or 0 when the
    /// snapshot is empty (telemetry off).
    pub metrics_fnv: u64,
}

/// The merged outcome of running a [`RunPlan`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Plan name.
    pub plan_name: String,
    /// The plan's master seed.
    pub master_seed: u64,
    /// Worker threads the run used.
    pub threads: usize,
    /// Shard results in plan order (not completion order).
    pub shards: Vec<ShardResult>,
}

/// Worker-pool size: [`std::thread::available_parallelism`], else 1.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl RunPlan {
    fn shard(scale: &ExperimentScale, id: ShardId, label: String, work: ShardWork) -> ShardSpec {
        let seed = stream_seed(scale.seed, id.pairing_key());
        let mut shard_scale = scale.clone();
        shard_scale.seed = seed;
        ShardSpec {
            id,
            label,
            seed,
            scale: shard_scale,
            work,
            telemetry: false,
        }
    }

    /// Enables the telemetry bundle on every shard: each deployment
    /// records metrics and decisions, and [`ShardResult::metrics`]
    /// carries a per-shard snapshot merged by
    /// [`RunReport::merged_metrics`]. Digests gain one `metrics=` token
    /// per shard but are otherwise unchanged, and stay thread-count
    /// invariant because snapshots merge in plan order.
    #[must_use]
    pub fn with_telemetry(mut self) -> RunPlan {
        for shard in &mut self.shards {
            shard.telemetry = true;
        }
        self
    }

    /// Fig. 10: one shard per (`c_max` arm × replicate).
    pub fn cwnd_sweep(scale: &ExperimentScale, arms: &[Option<u32>], replicates: u32) -> RunPlan {
        assert!(replicates >= 1, "need at least one replicate");
        let mut shards = Vec::new();
        for (s, &c_max) in arms.iter().enumerate() {
            let arm = match c_max {
                None => "control".to_string(),
                Some(m) => format!("cmax{m}"),
            };
            for r in 0..replicates {
                let id = ShardId {
                    scenario: s as u32,
                    unit: 0,
                    replicate: r,
                };
                shards.push(Self::shard(
                    scale,
                    id,
                    arm.clone(),
                    ShardWork::CwndDistribution { c_max },
                ));
            }
        }
        RunPlan {
            name: "cwnd-sweep".into(),
            master_seed: scale.seed,
            shards,
        }
    }

    /// Figs. 12–16: control (scenario 0) vs Riptide (scenario 1), one
    /// shard per (arm × sender PoP × replicate).
    pub fn probe_comparison(scale: &ExperimentScale, replicates: u32) -> RunPlan {
        let arms = [
            ("control", None),
            ("riptide", Some(RiptideConfig::deployment())),
        ]
        .map(|(arm, riptide)| PlanArm::stack(arm, riptide, StackTweaks::default()));
        Self::probe_arms("probe-comparison", scale, arms.into(), replicates)
    }

    /// The probe-family fan-out: one shard per (arm × sender PoP ×
    /// replicate), labelled `"{arm.label}:site{sender}"`. An arm's
    /// scenario index is its position in `arms`, and arms are
    /// seed-paired per (unit, replicate) — the pairing key excludes the
    /// scenario — so every arm of a plan sees the same draws and
    /// differences between arms are treatment effects.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty or `replicates` is 0.
    pub fn probe_arms(
        name: &str,
        scale: &ExperimentScale,
        arms: Vec<PlanArm>,
        replicates: u32,
    ) -> RunPlan {
        assert!(replicates >= 1, "need at least one replicate");
        assert!(!arms.is_empty(), "need at least one arm");
        let senders = probe_sender_sites(scale);
        let mut shards = Vec::new();
        for (s, arm) in arms.iter().enumerate() {
            for (u, &sender) in senders.iter().enumerate() {
                for r in 0..replicates {
                    let id = ShardId {
                        scenario: s as u32,
                        unit: u as u32,
                        replicate: r,
                    };
                    let riptide = arm.riptide.clone();
                    let work = match &arm.overlay {
                        ArmOverlay::Stack(tweaks) => ShardWork::ProbeArm {
                            riptide,
                            tweaks: *tweaks,
                            senders: vec![sender],
                        },
                        ArmOverlay::Scenario(spec) => ShardWork::ScenarioArm {
                            riptide,
                            spec: spec.clone(),
                            senders: vec![sender],
                        },
                    };
                    let label = format!("{}:site{sender}", arm.label);
                    shards.push(Self::shard(scale, id, label, work));
                }
            }
        }
        RunPlan {
            name: name.into(),
            master_seed: scale.seed,
            shards,
        }
    }

    /// A plan of one shard (scenario 0, unit 0, replicate 0).
    fn single(name: &str, label: &str, scale: &ExperimentScale, work: ShardWork) -> RunPlan {
        let id = ShardId {
            scenario: 0,
            unit: 0,
            replicate: 0,
        };
        RunPlan {
            name: name.into(),
            master_seed: scale.seed,
            shards: vec![Self::shard(scale, id, label.into(), work)],
        }
    }

    /// Fig. 11: a single shard profiling probe-only vs busy PoPs.
    pub fn traffic_profile(scale: &ExperimentScale) -> RunPlan {
        Self::single(
            "traffic-profile",
            "profile",
            scale,
            ShardWork::TrafficProfile,
        )
    }

    /// Cold-start convergence: a single shard sampling every `step`.
    pub fn convergence(scale: &ExperimentScale, step: SimDuration) -> RunPlan {
        let work = ShardWork::Convergence { step };
        Self::single("convergence", "convergence", scale, work)
    }

    /// Executes with [`default_threads`] workers.
    pub fn run(&self) -> RunReport {
        self.run_with_threads(default_threads())
    }

    /// Executes on exactly `threads` workers (clamped to the shard
    /// count). The report is identical for every `threads >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0, and with a shard's own panic (an
    /// invalid configuration, say) once every worker has stopped.
    pub fn run_with_threads(&self, threads: usize) -> RunReport {
        assert!(threads >= 1, "need at least one worker");
        let workers = threads.min(self.shards.len()).max(1);
        let cursor = AtomicUsize::new(0);
        let mut done: Vec<(usize, ShardResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut ran = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(spec) = self.shards.get(i) else {
                                break ran;
                            };
                            ran.push((i, run_shard(spec)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        RunReport {
            plan_name: self.name.clone(),
            master_seed: self.master_seed,
            threads: workers,
            shards: done.into_iter().map(|(_, result)| result).collect(),
        }
    }
}

/// One arm of a probe-family plan ([`RunPlan::probe_arms`]).
#[derive(Debug, Clone)]
pub struct PlanArm {
    /// Arm name used in shard labels.
    pub label: String,
    /// Riptide configuration (`None` = control).
    pub riptide: Option<RiptideConfig>,
    /// What the arm layers on the §IV-B2 probe setup.
    pub overlay: ArmOverlay,
}

/// What a [`PlanArm`] layers on the §IV-B2 probe setup.
#[derive(Debug, Clone)]
pub enum ArmOverlay {
    /// TCP-stack deviations on the clean regime (the ablations); runs
    /// as [`ShardWork::ProbeArm`].
    Stack(StackTweaks),
    /// A full scenario; runs as [`ShardWork::ScenarioArm`].
    Scenario(Box<ScenarioSpec>),
}

impl PlanArm {
    /// An arm on the clean regime with TCP-stack deviations.
    pub fn stack(
        label: impl Into<String>,
        riptide: Option<RiptideConfig>,
        tweaks: StackTweaks,
    ) -> PlanArm {
        PlanArm {
            label: label.into(),
            riptide,
            overlay: ArmOverlay::Stack(tweaks),
        }
    }

    /// An arm under `spec`.
    pub fn scenario(
        label: impl Into<String>,
        riptide: Option<RiptideConfig>,
        spec: ScenarioSpec,
    ) -> PlanArm {
        PlanArm {
            label: label.into(),
            riptide,
            overlay: ArmOverlay::Scenario(Box::new(spec)),
        }
    }
}

fn run_shard(spec: &ShardSpec) -> ShardResult {
    let started = Instant::now();
    let scale = &spec.scale;
    let build = |mut cfg: CdnSimConfig| {
        cfg.telemetry = spec.telemetry;
        CdnSim::new(cfg)
    };
    // Every probe-family shard: run, close with an audit when audits
    // are scheduled (the last churn instant may postdate the last
    // scheduled one, and the repair claim is about convergence), then
    // report after-warmup outcomes and both counter sets.
    let probes = |cfg: CdnSimConfig| {
        let audits = cfg.resilience.reconcile_every.is_some();
        let mut sim = build(cfg);
        sim.run_for(scale.total());
        if audits {
            sim.reconcile_now();
        }
        let data = ShardData::Probes {
            outcomes: warm_probes(&sim, scale),
            chaos: sim.chaos_report(),
            coldstart: sim.coldstart_report(),
        };
        (data, sim)
    };
    let (data, sim) = match &spec.work {
        ShardWork::CwndDistribution { c_max } => {
            let mut sim = build(cwnd_sim_config(scale, *c_max));
            sim.run_for(scale.total());
            (ShardData::Cwnd(warm_cwnd_cdf(&sim, scale, None)), sim)
        }
        ShardWork::TrafficProfile => {
            let (probe_only_site, busy_site) = traffic_profile_sites(scale);
            let mut sim = build(traffic_sim_config(scale));
            sim.run_for(scale.total());
            let data = ShardData::Profile {
                probe_only: warm_cwnd_cdf(&sim, scale, Some(probe_only_site)),
                busy: warm_cwnd_cdf(&sim, scale, Some(busy_site)),
            };
            (data, sim)
        }
        ShardWork::ProbeArm {
            riptide,
            tweaks,
            senders,
        } => probes(probe_sim_config(
            scale,
            riptide.clone(),
            *tweaks,
            senders.clone(),
        )),
        ShardWork::ScenarioArm {
            riptide,
            spec: scenario,
            senders,
        } => probes(scenario_sim_config(
            scale,
            riptide.clone(),
            senders.clone(),
            scenario,
        )),
        ShardWork::Convergence { step } => {
            let mut sim = build(cwnd_sim_config(scale, Some(100)));
            let steps = (scale.total().as_secs_f64() / step.as_secs_f64()).ceil() as u64;
            let mut points = Vec::with_capacity(steps as usize);
            for i in 1..=steps {
                sim.run_for(*step);
                let (mean_window, destinations) = sim.mean_learned_window().unwrap_or((0.0, 0));
                points.push(ConvergencePoint {
                    at_secs: (step.as_secs_f64() * i as f64).round() as u64,
                    mean_window,
                    destinations,
                    route_updates: sim.agent_stats_total().route_updates,
                });
            }
            (ShardData::Convergence(points), sim)
        }
    };
    let world = sim.testbed().world.stats();
    let metrics = sim.metrics_snapshot();
    let metrics_fnv = if metrics.is_empty() {
        0
    } else {
        fnv1a(metrics.render_prometheus().as_bytes())
    };
    ShardResult {
        id: spec.id,
        label: spec.label.clone(),
        seed: spec.seed,
        stats: ShardStats {
            wall_millis: started.elapsed().as_millis() as u64,
            events: world.events_processed,
            retransmits: world.retransmits,
            transfers: world.transfers_completed,
        },
        data_fnv: shard_data_fnv(&data),
        data,
        metrics,
        metrics_fnv,
    }
}

impl RunReport {
    /// Shards of one scenario, in plan order.
    fn scenario_shards(&self, scenario: u32) -> impl Iterator<Item = &ShardResult> {
        self.shards
            .iter()
            .filter(move |s| s.id.scenario == scenario)
    }

    /// The merged live-cwnd CDF of one scenario (Fig. 10 arm),
    /// reduced in plan order.
    pub fn merged_cwnd(&self, scenario: u32) -> Cdf {
        Cdf::merge_all(
            self.scenario_shards(scenario)
                .filter_map(|s| match &s.data {
                    ShardData::Cwnd(cdf) => Some(cdf.clone()),
                    _ => None,
                }),
        )
    }

    /// The probe-family measurements of one scenario, in plan order.
    fn scenario_probes(
        &self,
        scenario: u32,
    ) -> impl Iterator<Item = (&[ProbeOutcome], &ChaosReport, &ColdstartReport)> {
        self.scenario_shards(scenario)
            .filter_map(|s| match &s.data {
                ShardData::Probes {
                    outcomes,
                    chaos,
                    coldstart,
                } => Some((outcomes.as_slice(), chaos, coldstart)),
                _ => None,
            })
    }

    /// All probe outcomes of one scenario, concatenated in plan order.
    pub fn merged_probes(&self, scenario: u32) -> Vec<ProbeOutcome> {
        self.scenario_probes(scenario)
            .flat_map(|(outcomes, _, _)| outcomes)
            .copied()
            .collect()
    }

    /// The paired control (scenario 0) vs Riptide (scenario 1)
    /// comparison of a [`RunPlan::probe_comparison`] run.
    pub fn comparison(&self) -> ProbeComparison {
        ProbeComparison {
            control: self.merged_probes(0),
            riptide: self.merged_probes(1),
        }
    }

    /// The merged fault, guard, reconciler and bounds-gate counters of
    /// one scenario, reduced in plan order.
    pub fn merged_chaos_report(&self, scenario: u32) -> ChaosReport {
        let mut merged = ChaosReport::default();
        for (_, chaos, _) in self.scenario_probes(scenario) {
            merged.merge(chaos);
        }
        merged
    }

    /// The merged cold-start counters of one scenario, reduced in plan
    /// order.
    pub fn merged_coldstart_report(&self, scenario: u32) -> ColdstartReport {
        let mut merged = ColdstartReport::default();
        for (_, _, coldstart) in self.scenario_probes(scenario) {
            merged.merge(coldstart);
        }
        merged
    }

    /// The Fig. 11 `(probe_only, busy)` profiles, if the plan ran one.
    pub fn profile(&self) -> Option<(Cdf, Cdf)> {
        self.shards.iter().find_map(|s| match &s.data {
            ShardData::Profile { probe_only, busy } => Some((probe_only.clone(), busy.clone())),
            _ => None,
        })
    }

    /// The convergence trajectory, if the plan ran one.
    pub fn convergence_points(&self) -> Vec<ConvergencePoint> {
        self.shards
            .iter()
            .find_map(|s| match &s.data {
                ShardData::Convergence(p) => Some(p.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Total simulator events across all shards.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.stats.events).sum()
    }

    /// The JSON-lines run manifest: one header object, then one object
    /// per shard with its ID, label, seed, wall time and counters.
    pub fn manifest_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"plan\":{},\"master_seed\":{},\"threads\":{},\"shards\":{}}}\n",
            json_string(&self.plan_name),
            self.master_seed,
            self.threads,
            self.shards.len()
        ));
        for s in &self.shards {
            out.push_str(&format!(
                "{{\"shard\":\"{}\",\"label\":{},\"seed\":{},\"wall_ms\":{},\
                 \"events\":{},\"retransmits\":{},\"transfers\":{}}}\n",
                s.id,
                json_string(&s.label),
                s.seed,
                s.stats.wall_millis,
                s.stats.events,
                s.stats.retransmits,
                s.stats.transfers
            ));
        }
        out
    }

    /// A deterministic fingerprint of the run: every shard's identity,
    /// counters and a hash of its full measurement data — everything
    /// except wall-clock times. Two runs of the same plan produce the
    /// same digest regardless of worker count.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan={} master_seed={} shards={}\n",
            self.plan_name,
            self.master_seed,
            self.shards.len()
        ));
        for s in &self.shards {
            out.push_str(&format!(
                "{} label={} seed={} events={} retransmits={} transfers={} data={:016x}",
                s.id,
                s.label,
                s.seed,
                s.stats.events,
                s.stats.retransmits,
                s.stats.transfers,
                s.data_fnv
            ));
            // Telemetry-off shards carry an empty snapshot and emit no
            // token, keeping historical digests byte-identical.
            if !s.metrics.is_empty() {
                out.push_str(&format!(" metrics={:016x}", s.metrics_fnv));
            }
            out.push('\n');
        }
        out
    }

    /// The FNV-1a 64-bit hash of [`RunReport::digest`] — a compact
    /// fingerprint for bench baselines and smoke checks.
    pub fn digest_fnv64(&self) -> u64 {
        fnv1a(self.digest().as_bytes())
    }

    /// The union of every shard's metrics snapshot, merged in plan
    /// order. Counters sum, gauges sum, histogram buckets add
    /// element-wise — all commutative, so the result is invariant to
    /// worker count and completion order. Empty unless the plan ran
    /// [`RunPlan::with_telemetry`].
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for s in &self.shards {
            merged.merge(&s.metrics);
        }
        merged
    }
}

/// Minimal JSON string quoting for manifest labels.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_key_ignores_scenario() {
        let a = ShardId {
            scenario: 0,
            unit: 3,
            replicate: 2,
        };
        let b = ShardId {
            scenario: 7,
            unit: 3,
            replicate: 2,
        };
        assert_eq!(a.pairing_key(), b.pairing_key());
        let c = ShardId {
            scenario: 0,
            unit: 4,
            replicate: 2,
        };
        assert_ne!(a.pairing_key(), c.pairing_key());
    }

    #[test]
    fn probe_comparison_plan_is_seed_paired() {
        let plan = RunPlan::probe_comparison(&ExperimentScale::test(), 2);
        // 2 scenarios x 2 senders x 2 replicates.
        assert_eq!(plan.shards.len(), 8);
        for shard in &plan.shards {
            let twin = plan
                .shards
                .iter()
                .find(|s| {
                    s.id.scenario != shard.id.scenario
                        && s.id.unit == shard.id.unit
                        && s.id.replicate == shard.id.replicate
                })
                .expect("paired arm exists");
            assert_eq!(twin.seed, shard.seed, "arms of one cell share a seed");
        }
        // Distinct cells draw distinct streams.
        let mut seeds: Vec<u64> = plan
            .shards
            .iter()
            .filter(|s| s.id.scenario == 0)
            .map(|s| s.seed)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "one stream per (unit, replicate) cell");
    }

    #[test]
    fn manifest_has_header_and_one_line_per_shard() {
        let mut scale = ExperimentScale::test();
        scale.duration = SimDuration::from_secs(120);
        let plan = RunPlan::cwnd_sweep(&scale, &[None, Some(50)], 1);
        let report = plan.run_with_threads(2);
        let manifest = report.manifest_jsonl();
        let lines: Vec<&str> = manifest.lines().collect();
        assert_eq!(lines.len(), 1 + plan.shards.len());
        assert!(lines[0].contains("\"plan\":\"cwnd-sweep\""));
        for (line, spec) in lines[1..].iter().zip(&plan.shards) {
            assert!(line.contains(&format!("\"shard\":\"{}\"", spec.id)));
            assert!(line.contains("\"wall_ms\":"));
            assert!(line.contains("\"events\":"));
            assert!(line.contains("\"retransmits\":"));
        }
        assert!(report.total_events() > 0, "simulations actually ran");
    }

    #[test]
    fn merged_cwnd_covers_all_replicates() {
        let mut scale = ExperimentScale::test();
        scale.duration = SimDuration::from_secs(180);
        let plan = RunPlan::cwnd_sweep(&scale, &[None], 2);
        let report = plan.run_with_threads(2);
        let merged = report.merged_cwnd(0);
        let per_shard: usize = report
            .shards
            .iter()
            .map(|s| match &s.data {
                ShardData::Cwnd(c) => c.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(merged.len(), per_shard);
        assert!(!merged.is_empty());
    }
}

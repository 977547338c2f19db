//! The scenario matrix: named (topology × workload × AQM × CC)
//! combinations that stress the learning policies differently.
//!
//! The §IV evaluation runs one network regime — a clean drop-tail mesh
//! with light Poisson traffic — and on it every reasonable policy looks
//! alike (ROADMAP item 4: the ablation frontier is flat). Each
//! [`ScenarioSpec`] perturbs one axis the paper holds fixed:
//!
//! | Scenario | What changes | Why it separates policies |
//! |---|---|---|
//! | `baseline` | nothing | the control regime; matches `probe_comparison` bit for bit |
//! | `red-drop` | RED queues, drop mode | early random drops inflate `retrans` before queues fill |
//! | `red-ecn` | RED queues, ECN marking + ECN hosts | congestion signalled *without* retransmits — loss-utility's `retrans` input and the wire diverge |
//! | `lossy-edge` | 40 Mbit/s / 2%-loss last mile into every probe destination | random loss punishes aggressive windows; loss-aware policies should win |
//! | `flash-crowd` | diurnal organic load with 8× bursts | bursts of fresh connections arrive exactly when queues are hot |
//! | `paced` | BBR-like paced senders | window observations no longer track queue occupancy the way AIMD's do |
//!
//! [`RunPlan::scenario_matrix`] fans the catalog out across (scenario ×
//! policy arm × sender × replicate) with the same seed-pairing
//! discipline as every other plan, and the `scenarios` bench reports
//! per-scenario policy rankings.
//!
//! A scenario is a config, not an engine arm: the chaos, guardrail and
//! cold-start experiments are the same probe setup under a different
//! [`ResilienceOverlay`], so each is a [`ScenarioSpec`] constructor plus
//! an arm list handed to [`RunPlan::probe_arms`] (the plan constructors
//! at the bottom of this module; DESIGN §13).

use riptide::config::RiptideConfig;
use riptide::policy::registered_policies;
use riptide_simnet::config::CcAlgorithm;
use riptide_simnet::fault::FaultPlan;
use riptide_simnet::link::AqmPolicy;
use riptide_simnet::time::SimDuration;

use crate::engine::{PlanArm, RunPlan};
use crate::experiment::{probe_sender_sites, probe_sim_config, ExperimentScale, StackTweaks};
use crate::gossip::GossipConfig;
use crate::sim::{CdnSimConfig, ResilienceOverlay};
use crate::topology::LastMileProfile;
use crate::workload::FlashCrowd;

/// Workload-shape overrides one scenario applies to the organic layer.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadShape {
    /// Mean organic flow arrivals per second per busy pair.
    pub flows_per_sec: f64,
    /// Diurnal modulation amplitude (see
    /// [`crate::workload::OrganicConfig::diurnal_amplitude`]).
    pub diurnal_amplitude: f64,
    /// Flash-crowd bursts layered on the diurnal curve.
    pub flash_crowds: Vec<FlashCrowd>,
}

impl Default for WorkloadShape {
    /// The probe-experiment default: constant 0.2 flows/s, no bursts.
    fn default() -> Self {
        WorkloadShape {
            flows_per_sec: 0.2,
            diurnal_amplitude: 0.0,
            flash_crowds: Vec::new(),
        }
    }
}

/// One named regime for the probe experiment: a topology overlay, a
/// workload shape, a queue discipline, a congestion controller, and
/// the fault and recovery layers.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Short name used in shard labels and bench output.
    pub name: &'static str,
    /// Queue discipline on every inter-PoP path.
    pub aqm: AqmPolicy,
    /// Congestion-control algorithm on every host.
    pub cc: CcAlgorithm,
    /// Whether hosts negotiate ECN (only meaningful with a marking AQM).
    pub ecn: bool,
    /// Inter-PoP queue-depth override in bytes (`None` keeps the
    /// testbed default). The RED scenarios shrink this so the average
    /// queue can actually cross the RED thresholds at probe scale.
    pub queue_bytes: Option<u64>,
    /// Last-mile impairment overlay, if any.
    pub last_mile: Option<LastMileProfile>,
    /// Organic-traffic shape.
    pub workload: WorkloadShape,
    /// Fault and recovery layers (all off in the catalog, which leaves
    /// the run bit-identical to one without them).
    pub resilience: ResilienceOverlay,
}

impl ScenarioSpec {
    /// The unmodified probe-experiment regime.
    pub fn baseline() -> Self {
        ScenarioSpec {
            name: "baseline",
            aqm: AqmPolicy::DropTail,
            cc: CcAlgorithm::Cubic,
            ecn: false,
            queue_bytes: None,
            last_mile: None,
            workload: WorkloadShape::default(),
            resilience: ResilienceOverlay::default(),
        }
    }

    /// Queue depth the RED scenarios use: shallow enough (48 KiB ≈ 33
    /// segments, RED `min_th` at 12 KiB) that probe bursts and organic
    /// load push the EWMA queue into the marking band. On the default
    /// 384 KiB queues the 96 KiB `min_th` is never reached at probe
    /// scale and RED degenerates to drop-tail.
    const RED_QUEUE_BYTES: u64 = 48 * 1024;

    /// Organic load in the RED scenarios: heavy enough to hold a
    /// standing queue at the bottleneck so RED has something to react
    /// to, light enough that probes still complete.
    const RED_FLOWS_PER_SEC: f64 = 1.0;

    /// RED on every path in classic drop mode: early random drops
    /// inflate `retrans` before the queue is anywhere near full.
    pub fn red_drop() -> Self {
        ScenarioSpec {
            name: "red-drop",
            aqm: AqmPolicy::red_for_queue(Self::RED_QUEUE_BYTES, false),
            queue_bytes: Some(Self::RED_QUEUE_BYTES),
            workload: WorkloadShape {
                flows_per_sec: Self::RED_FLOWS_PER_SEC,
                ..WorkloadShape::default()
            },
            ..ScenarioSpec::baseline()
        }
    }

    /// RED in ECN-marking mode with ECN-capable hosts: congestion is
    /// signalled by marks the sender reacts to without retransmitting,
    /// so a policy reading `retrans` alone goes blind.
    pub fn red_ecn() -> Self {
        ScenarioSpec {
            name: "red-ecn",
            aqm: AqmPolicy::red_for_queue(Self::RED_QUEUE_BYTES, true),
            ecn: true,
            queue_bytes: Some(Self::RED_QUEUE_BYTES),
            workload: WorkloadShape {
                flows_per_sec: Self::RED_FLOWS_PER_SEC,
                ..WorkloadShape::default()
            },
            ..ScenarioSpec::baseline()
        }
    }

    /// A consumer-grade lossy last mile in front of every non-sender
    /// site: 40 Mbit/s, shallow buffers, 2% random loss.
    pub fn lossy_edge(scale: &ExperimentScale) -> Self {
        let senders = probe_sender_sites(scale);
        let edges: Vec<usize> = (0..scale.sites).filter(|i| !senders.contains(i)).collect();
        ScenarioSpec {
            name: "lossy-edge",
            last_mile: Some(LastMileProfile::lossy(edges)),
            ..ScenarioSpec::baseline()
        }
    }

    /// Diurnal organic load with two 8× flash-crowd bursts, placed at
    /// 30% and 65% of the run so at least one lands after warm-up at
    /// every scale.
    pub fn flash_crowd(scale: &ExperimentScale) -> Self {
        let total = scale.total().as_secs_f64();
        let burst = |frac: f64| FlashCrowd {
            start: SimDuration::from_secs_f64(total * frac),
            duration: SimDuration::from_secs_f64((total * 0.1).max(1.0)),
            multiplier: 8.0,
        };
        ScenarioSpec {
            name: "flash-crowd",
            workload: WorkloadShape {
                flows_per_sec: 0.5,
                diurnal_amplitude: 0.5,
                flash_crowds: vec![burst(0.30), burst(0.65)],
            },
            ..ScenarioSpec::baseline()
        }
    }

    /// Every host runs the pacing-based controller instead of CUBIC.
    pub fn paced() -> Self {
        ScenarioSpec {
            name: "paced",
            cc: CcAlgorithm::Paced,
            ..ScenarioSpec::baseline()
        }
    }

    /// The chaos regime: every fault category firing at `fault_rate`
    /// ([`FaultPlan::uniform`]). A rate of `0.0` disables the fault
    /// layer and the run is bit-identical to the baseline's.
    pub fn chaos(fault_rate: f64) -> Self {
        ScenarioSpec {
            name: "chaos",
            resilience: ResilienceOverlay {
                faults: FaultPlan::uniform(fault_rate),
                ..ResilienceOverlay::default()
            },
            ..ScenarioSpec::baseline()
        }
    }

    /// The guardrail regime: [`FaultPlan::guardrail`] — route churn plus
    /// loss episodes targeted at freshly jump-started paths — with a
    /// reconciler audit every five minutes, and (because audits are
    /// scheduled) the engine's closing audit after the last churn
    /// instant. A rate of `0.0` schedules no audits and the run is
    /// bit-identical to the baseline's.
    pub fn guardrail(fault_rate: f64) -> Self {
        ScenarioSpec {
            name: "guardrail",
            resilience: ResilienceOverlay {
                faults: FaultPlan::guardrail(fault_rate),
                reconcile_every: (fault_rate > 0.0).then(|| SimDuration::from_secs(300)),
                ..ResilienceOverlay::default()
            },
            ..ScenarioSpec::baseline()
        }
    }

    /// The cold-start regime: machine-crash faults (connections reset,
    /// so a restarted agent really is cold) over the arm's durability
    /// layers — none (relearn from live traffic), `persistence`
    /// (snapshot + journal restore on restart), or also `gossip` (pull
    /// missing entries from peers). A crash rate of `0.0` leaves the
    /// fault layer off, and with both layers off too the run is
    /// bit-identical to the baseline's.
    pub fn coldstart(crash_rate: f64, persistence: bool, gossip: Option<GossipConfig>) -> Self {
        ScenarioSpec {
            name: "coldstart",
            resilience: ResilienceOverlay {
                faults: FaultPlan {
                    crash: crash_rate,
                    restart_after: SimDuration::from_secs(10),
                    crash_resets_connections: true,
                    ..FaultPlan::none()
                },
                reconcile_every: None,
                persistence,
                gossip,
            },
            ..ScenarioSpec::baseline()
        }
    }
}

/// The full catalog, baseline first. Order is part of the scenario
/// matrix's digest contract: scenario indices in
/// [`RunPlan::scenario_matrix`] follow this order.
pub fn scenario_catalog(scale: &ExperimentScale) -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::baseline(),
        ScenarioSpec::red_drop(),
        ScenarioSpec::red_ecn(),
        ScenarioSpec::lossy_edge(scale),
        ScenarioSpec::flash_crowd(scale),
        ScenarioSpec::paced(),
    ]
}

/// The simulation configuration for one scenario arm: the §IV-B2 probe
/// setup with the scenario's topology, workload, AQM, CC, faults and
/// recovery layers overlaid. Everything a scenario does to a run is in
/// the returned config — a shard is `CdnSim::new(cfg)` plus `run_for`.
/// With [`ScenarioSpec::baseline`] the result is identical to
/// [`probe_sim_config`]'s, so the baseline scenario reproduces the
/// probe-comparison arms bit for bit.
pub fn scenario_sim_config(
    scale: &ExperimentScale,
    riptide: Option<RiptideConfig>,
    senders: Vec<usize>,
    spec: &ScenarioSpec,
) -> CdnSimConfig {
    let mut cfg = probe_sim_config(scale, riptide, StackTweaks::default(), senders);
    cfg.testbed.aqm = spec.aqm;
    cfg.testbed.tcp.cc = spec.cc;
    cfg.testbed.tcp.ecn = spec.ecn;
    if let Some(q) = spec.queue_bytes {
        cfg.testbed.queue_bytes = q;
    }
    cfg.testbed.last_mile = spec.last_mile.clone();
    cfg.organic.flows_per_sec = spec.workload.flows_per_sec;
    cfg.organic.diurnal_amplitude = spec.workload.diurnal_amplitude;
    cfg.organic.flash_crowds = spec.workload.flash_crowds.clone();
    cfg.resilience = spec.resilience.clone();
    cfg
}

/// A control arm plus one arm per registered learning policy (see
/// [`riptide::policy::registered_policies`]), control first. The
/// default-EWMA arm keeps the `"riptide"` label so its shard labels —
/// and therefore its digest lines — are byte-identical to
/// [`RunPlan::probe_comparison`]'s treatment arm.
pub fn policy_arms() -> Vec<(&'static str, Option<RiptideConfig>)> {
    let mut arms = vec![("control", None)];
    for (name, policy) in registered_policies() {
        let config = RiptideConfig::builder()
            .policy(policy)
            .build()
            .expect("registered policies produce valid configs");
        arms.push((if name == "ewma" { "riptide" } else { name }, Some(config)));
    }
    arms
}

/// `rates × arms` in rate-major order, labelled `"{arm}@{rate}"`: the
/// arm `a` of rate `i` is scenario `arms.len() * i + a`, running under
/// `spec(rate, a)`.
fn rate_sweep(
    rates: &[f64],
    arms: &[(&str, Option<RiptideConfig>)],
    spec: impl Fn(f64, usize) -> ScenarioSpec,
) -> Vec<PlanArm> {
    assert!(!rates.is_empty(), "need at least one rate");
    let mut out = Vec::with_capacity(rates.len() * arms.len());
    for &rate in rates {
        for (a, (arm, riptide)) in arms.iter().enumerate() {
            out.push(PlanArm::scenario(
                format!("{arm}@{rate}"),
                riptide.clone(),
                spec(rate, a),
            ));
        }
    }
    out
}

/// The probe-experiment families: each is an arm list handed to
/// [`RunPlan::probe_arms`], so all are seed-paired per (unit,
/// replicate) exactly like [`RunPlan::probe_comparison`].
impl RunPlan {
    /// Policy-ablation arena: the [`policy_arms`] lineup on the clean
    /// regime.
    pub fn policy_ablation(scale: &ExperimentScale, replicates: u32) -> RunPlan {
        let arms = policy_arms()
            .into_iter()
            .map(|(arm, riptide)| PlanArm::stack(arm, riptide, StackTweaks::default()))
            .collect();
        RunPlan::probe_arms("policy-ablation", scale, arms, replicates)
    }

    /// The scenario matrix: every [`scenario_catalog`] cell crossed
    /// with the [`policy_arms`] lineup, labelled `"{cell}/{arm}"`.
    /// Scenario indices are `policy_arms().len() * cell + arm`, cells in
    /// catalog order. Since the pairing key also excludes the *matrix
    /// cell*, all cells of one (unit, replicate) share a seed, so
    /// ranking differences between cells are regime effects, not draw
    /// effects.
    pub fn scenario_matrix(scale: &ExperimentScale, replicates: u32) -> RunPlan {
        let lineup = policy_arms();
        let mut arms = Vec::new();
        for spec in scenario_catalog(scale) {
            for (arm, riptide) in &lineup {
                arms.push(PlanArm::scenario(
                    format!("{}/{arm}", spec.name),
                    riptide.clone(),
                    spec.clone(),
                ));
            }
        }
        RunPlan::probe_arms("scenario-matrix", scale, arms, replicates)
    }

    /// The chaos sweep: control (scenario `2i`) vs Riptide (scenario
    /// `2i + 1`) under [`ScenarioSpec::chaos`] for each fault rate `i`.
    /// A zero rate reproduces the probe comparison's merged probes bit
    /// for bit.
    pub fn chaos_sweep(scale: &ExperimentScale, rates: &[f64], replicates: u32) -> RunPlan {
        let arms = [
            ("control", None),
            ("riptide", Some(RiptideConfig::deployment())),
        ];
        let arms = rate_sweep(rates, &arms, |rate, _| ScenarioSpec::chaos(rate));
        RunPlan::probe_arms("chaos-sweep", scale, arms, replicates)
    }

    /// The guardrail sweep: kernel-default control (scenario `3i`),
    /// unguarded Riptide (`3i + 1`) and guarded Riptide (`3i + 2`)
    /// under [`ScenarioSpec::guardrail`] for each fault rate `i`. A zero
    /// rate reproduces the probe comparison's merged probes bit for bit
    /// in the control and unguarded arms.
    pub fn guardrail_sweep(scale: &ExperimentScale, rates: &[f64], replicates: u32) -> RunPlan {
        // Deployment defaults plus the loss-aware circuit breaker at its
        // default thresholds.
        let guarded = RiptideConfig::builder()
            .guard(riptide::guard::GuardConfig::default())
            .build()
            .expect("deployment defaults with a default guard are valid");
        let arms = [
            ("control", None),
            ("riptide", Some(RiptideConfig::deployment())),
            ("guarded", Some(guarded)),
        ];
        let arms = rate_sweep(rates, &arms, |rate, _| ScenarioSpec::guardrail(rate));
        RunPlan::probe_arms("guardrail-sweep", scale, arms, replicates)
    }

    /// The cold-start sweep: persistence off (scenario `3i`), snapshot
    /// only (`3i + 1`) and snapshot+gossip (`3i + 2`) under
    /// [`ScenarioSpec::coldstart`] for each crash rate `i`, every arm
    /// running the deployment Riptide config. All three modes see the
    /// *same* crash schedule, so their ramp times are directly
    /// comparable.
    pub fn coldstart_sweep(scale: &ExperimentScale, rates: &[f64], replicates: u32) -> RunPlan {
        let modes = [
            ("cold", false, None),
            ("snapshot", true, None),
            ("snapshot+gossip", true, Some(GossipConfig::default())),
        ];
        let arms = modes.map(|(mode, _, _)| (mode, Some(RiptideConfig::deployment())));
        let arms = rate_sweep(rates, &arms, |rate, a| {
            ScenarioSpec::coldstart(rate, modes[a].1, modes[a].2)
        });
        RunPlan::probe_arms("coldstart-sweep", scale, arms, replicates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TestbedConfig;

    #[test]
    fn catalog_names_are_unique_and_baseline_first() {
        let scale = ExperimentScale::test();
        let catalog = scenario_catalog(&scale);
        assert_eq!(catalog[0].name, "baseline");
        let mut names: Vec<&str> = catalog.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len(), "duplicate scenario names");
    }

    #[test]
    fn baseline_matches_probe_sim_config() {
        let scale = ExperimentScale::test();
        let senders = probe_sender_sites(&scale);
        let base = probe_sim_config(&scale, None, StackTweaks::default(), senders.clone());
        let scen = scenario_sim_config(&scale, None, senders, &ScenarioSpec::baseline());
        assert_eq!(scen.testbed.aqm, base.testbed.aqm);
        assert_eq!(scen.testbed.tcp, base.testbed.tcp);
        assert_eq!(scen.testbed.last_mile, base.testbed.last_mile);
        assert_eq!(scen.organic, base.organic);
    }

    #[test]
    fn red_scenarios_use_marking_only_with_ecn_hosts() {
        let drop = ScenarioSpec::red_drop();
        let mark = ScenarioSpec::red_ecn();
        assert!(!drop.ecn);
        assert!(mark.ecn);
        match (drop.aqm, mark.aqm) {
            (AqmPolicy::Red { ecn: d, .. }, AqmPolicy::Red { ecn: m, .. }) => {
                assert!(!d && m, "drop mode must not mark; ecn mode must");
            }
            other => panic!("both RED scenarios must use RED, got {other:?}"),
        }
    }

    #[test]
    fn lossy_edge_degrades_only_non_sender_sites() {
        let scale = ExperimentScale::test();
        let spec = ScenarioSpec::lossy_edge(&scale);
        let lm = spec.last_mile.expect("lossy-edge sets a last mile");
        let senders = probe_sender_sites(&scale);
        for s in &senders {
            assert!(!lm.sites.contains(s), "sender {s} must stay clean");
        }
        assert_eq!(lm.sites.len(), scale.sites - senders.len());
        assert!(lm.loss > 0.0 && lm.rate_bps < TestbedConfig::default().rate_bps);
    }

    #[test]
    fn flash_crowd_bursts_land_after_warmup() {
        for scale in [ExperimentScale::test(), ExperimentScale::quick()] {
            let spec = ScenarioSpec::flash_crowd(&scale);
            let crowds = &spec.workload.flash_crowds;
            assert_eq!(crowds.len(), 2);
            for c in crowds {
                c.validate().unwrap();
            }
            let after_warmup = crowds
                .iter()
                .filter(|c| c.start.as_secs_f64() >= scale.warmup.as_secs_f64())
                .count();
            assert!(after_warmup >= 1, "no burst in the measured window");
        }
    }

    #[test]
    fn scenario_overlays_reach_the_sim_config() {
        let scale = ExperimentScale::test();
        let senders = probe_sender_sites(&scale);
        let cfg = scenario_sim_config(&scale, None, senders, &ScenarioSpec::red_ecn());
        assert!(matches!(cfg.testbed.aqm, AqmPolicy::Red { ecn: true, .. }));
        assert!(cfg.testbed.tcp.ecn);
        let cfg = scenario_sim_config(
            &scale,
            None,
            probe_sender_sites(&scale),
            &ScenarioSpec::paced(),
        );
        assert_eq!(cfg.testbed.tcp.cc, CcAlgorithm::Paced);
        let cfg = scenario_sim_config(
            &scale,
            None,
            probe_sender_sites(&scale),
            &ScenarioSpec::flash_crowd(&scale),
        );
        assert_eq!(cfg.organic.flash_crowds.len(), 2);
        assert_eq!(cfg.organic.diurnal_amplitude, 0.5);
    }

    #[test]
    fn family_overlays_reach_the_sim_config_and_vanish_at_zero_rate() {
        let scale = ExperimentScale::test();
        let overlay = |spec: &ScenarioSpec| {
            scenario_sim_config(&scale, None, probe_sender_sites(&scale), spec).resilience
        };
        for zero in [
            ScenarioSpec::chaos(0.0),
            ScenarioSpec::guardrail(0.0),
            ScenarioSpec::coldstart(0.0, false, None),
        ] {
            let got = overlay(&zero);
            assert!(
                !got.faults.is_enabled(),
                "{}: faults on at rate 0",
                zero.name
            );
            // Audits are scheduled exactly when churn can fire.
            assert_eq!(got.reconcile_every, None, "{}", zero.name);
            assert_eq!(
                (got.persistence, got.gossip),
                (false, None),
                "{}",
                zero.name
            );
        }
        assert!(overlay(&ScenarioSpec::chaos(0.2)).faults.is_enabled());
        assert!(overlay(&ScenarioSpec::guardrail(0.1))
            .reconcile_every
            .is_some());
        let snap = overlay(&ScenarioSpec::coldstart(0.05, true, None));
        assert!(snap.faults.is_enabled() && snap.persistence && snap.gossip.is_none());
    }

    #[test]
    fn scenario_matrix_is_seed_paired_across_cells_and_arms() {
        let scale = ExperimentScale::test();
        let plan = RunPlan::scenario_matrix(&scale, 2);
        let arms = policy_arms().len();
        let cells = scenario_catalog(&scale).len();
        // cells x arms x 2 senders x 2 replicates.
        assert_eq!(plan.shards.len(), cells * arms * 2 * 2);
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
            assert_eq!(
                twin.seed, shard.seed,
                "every cell and arm of one (unit, replicate) shares a seed"
            );
        }
        // Labels carry both the scenario and the arm name, and the
        // EWMA arm keeps the probe-comparison "riptide" label.
        assert!(plan
            .shards
            .iter()
            .any(|s| s.label.starts_with("baseline/riptide:")));
        assert!(plan
            .shards
            .iter()
            .any(|s| s.label.starts_with("red-ecn/loss-utility:")));
    }

    #[test]
    fn coldstart_sweep_is_seed_paired_and_reports_merge() {
        let scale = ExperimentScale::test();
        let plan = RunPlan::coldstart_sweep(&scale, &[0.05], 1);
        // 3 modes x 2 senders x 1 replicate.
        assert_eq!(plan.shards.len(), 6);
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
            assert_eq!(
                twin.seed, shard.seed,
                "modes of one cell share a seed, so crash schedules pair up"
            );
        }
        let report = plan.run_with_threads(2);
        let cold = report.merged_coldstart_report(0);
        let snap = report.merged_coldstart_report(1);
        let gossip = report.merged_coldstart_report(2);
        // Persistence off: nothing written, nothing restored.
        assert_eq!(cold.snapshots_written, 0);
        assert_eq!(cold.restored_routes, 0);
        // Snapshot arms journal, snapshot and restore.
        assert!(snap.snapshots_written > 0, "snapshot arm never snapshotted");
        assert!(snap.restored_routes > 0, "snapshot arm restored nothing");
        assert!(snap.restarts_tracked > 0, "no restart was ramp-tracked");
        // The gossip arm additionally runs anti-entropy rounds.
        assert!(gossip.gossip_rounds > 0, "gossip arm never gossiped");
        assert!(
            !report.merged_probes(0).is_empty(),
            "cold arm produced no probe outcomes"
        );
    }
}

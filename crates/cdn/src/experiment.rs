//! The evaluation's (§IV) setups and analyses. Each figure's deployment
//! is a configuration here, which [`crate::engine::RunPlan`] runs shard
//! by shard; the functions below the configurations turn a run's merged
//! outcomes into the figure's rows.

use std::collections::BTreeMap;

use riptide::config::RiptideConfig;
use riptide_simnet::time::{SimDuration, SimTime};

use crate::sim::{CdnSim, CdnSimConfig, ProbeOutcome, ResilienceOverlay};
use crate::stats::{average_gains, percentile_gains, Cdf, PercentileGain};
use crate::topology::{RttBucket, TestbedConfig};
use crate::workload::{OrganicConfig, ProbeConfig};

/// How big an experiment run is. The paper's windows (12 h for Fig. 10,
/// 20 h for Figs. 12–16, hourly probes) regenerate with
/// [`ExperimentScale::paper`]; the default [`ExperimentScale::quick`]
/// keeps the same structure at a fraction of the wall-clock cost, and
/// [`ExperimentScale::test`] is for unit tests.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Number of PoP sites instantiated (prefix of the 34-site list).
    pub sites: usize,
    /// Machines per PoP.
    pub machines_per_pop: usize,
    /// Measurement window (after warm-up).
    pub duration: SimDuration,
    /// Warm-up discarded from all outputs, giving agents time to learn.
    pub warmup: SimDuration,
    /// Probe interval.
    pub probe_interval: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Paper-scale: all 34 PoPs, 3 machines each, hourly probes, 12 h
    /// window after 2 h warm-up. Expect minutes of wall-clock per run.
    pub fn paper() -> Self {
        ExperimentScale {
            sites: 34,
            machines_per_pop: 3,
            duration: SimDuration::from_secs(12 * 3600),
            warmup: SimDuration::from_secs(2 * 3600),
            probe_interval: SimDuration::from_secs(3600),
            seed: 2016,
        }
    }

    /// Scaled-down default: all 34 PoPs, 2 machines, 5-minute probes,
    /// 2 h window after 20 min warm-up.
    pub fn quick() -> Self {
        ExperimentScale {
            sites: 34,
            machines_per_pop: 2,
            duration: SimDuration::from_secs(2 * 3600),
            warmup: SimDuration::from_secs(20 * 60),
            probe_interval: SimDuration::from_secs(300),
            seed: 2016,
        }
    }

    /// Unit-test scale: a handful of PoPs and minutes of simulated time.
    pub fn test() -> Self {
        ExperimentScale {
            sites: 5,
            machines_per_pop: 1,
            duration: SimDuration::from_secs(900),
            warmup: SimDuration::from_secs(120),
            probe_interval: SimDuration::from_secs(60),
            seed: 8,
        }
    }

    fn testbed(&self) -> TestbedConfig {
        TestbedConfig::tiny(self.sites, self.machines_per_pop, self.seed)
    }

    fn probes(&self) -> ProbeConfig {
        ProbeConfig {
            interval: self.probe_interval,
            ..ProbeConfig::default()
        }
    }

    /// Total simulated time of one run.
    pub fn total(&self) -> SimDuration {
        self.warmup + self.duration
    }
}

/// A subset of sites that carries organic traffic in mixed-traffic runs:
/// a busy core of transatlantic metros (indices into the 34-site list).
pub fn default_busy_sites(scale: &ExperimentScale) -> Vec<usize> {
    [0usize, 1, 10, 11, 14]
        .into_iter()
        .filter(|&i| i < scale.sites)
        .collect()
}

/// The deployment every experiment starts from: the scale's testbed and
/// probe harness, light organic load among the busy sites, per-minute
/// window samples, every site probing, no faults.
fn base_sim_config(scale: &ExperimentScale, riptide: Option<RiptideConfig>) -> CdnSimConfig {
    CdnSimConfig {
        testbed: scale.testbed(),
        riptide,
        probes: scale.probes(),
        organic: OrganicConfig::among(default_busy_sites(scale), 0.2),
        cwnd_sample_interval: SimDuration::from_secs(60),
        probe_senders: None,
        telemetry: false,
        resilience: ResilienceOverlay::default(),
    }
}

/// One Fig. 10 deployment: Riptide clamped at `c_max`, or (`None`) the
/// control. [`crate::engine::RunPlan::cwnd_sweep`] runs one per arm.
pub fn cwnd_sim_config(scale: &ExperimentScale, c_max: Option<u32>) -> CdnSimConfig {
    let riptide = c_max.map(|m| {
        RiptideConfig::builder()
            .cwnd_max(m)
            .build()
            .expect("valid sweep config")
    });
    base_sim_config(scale, riptide)
}

/// Live-cwnd samples taken after warm-up, at one site or (`None`) all.
pub(crate) fn warm_cwnd_cdf(sim: &CdnSim, scale: &ExperimentScale, site: Option<usize>) -> Cdf {
    let cutoff = SimTime::ZERO + scale.warmup;
    Cdf::new(
        sim.cwnd_samples()
            .iter()
            .filter(|s| s.at >= cutoff && site.is_none_or(|want| s.site == want))
            .map(|s| s.cwnd as f64),
    )
}

/// Probe outcomes requested after warm-up.
pub(crate) fn warm_probes(sim: &CdnSim, scale: &ExperimentScale) -> Vec<ProbeOutcome> {
    let cutoff = SimTime::ZERO + scale.warmup;
    sim.probe_outcomes()
        .iter()
        .filter(|p| p.requested_at >= cutoff)
        .copied()
        .collect()
}

/// The `(probe_only, busy)` site pair compared by Fig. 11.
///
/// # Panics
///
/// Panics if the scale has no busy site or no probe-only site.
pub fn traffic_profile_sites(scale: &ExperimentScale) -> (usize, usize) {
    let busy = default_busy_sites(scale);
    assert!(!busy.is_empty(), "need at least one busy site");
    let probe_only_site = (0..scale.sites)
        .rev()
        .find(|i| !busy.contains(i))
        .expect("a probe-only site exists");
    (probe_only_site, busy[0])
}

/// The Fig. 11 deployment: every site runs Riptide at the deployment
/// `c_max` of 100, and the busy sites carry heavier organic load.
/// [`crate::engine::RunPlan::traffic_profile`] runs it.
pub fn traffic_sim_config(scale: &ExperimentScale) -> CdnSimConfig {
    CdnSimConfig {
        organic: OrganicConfig::among(default_busy_sites(scale), 0.5),
        ..base_sim_config(scale, Some(RiptideConfig::deployment()))
    }
}

/// The two probe-sender sites of §IV-B2: one European, one North
/// American (indices into the site list, clamped to the scale).
pub fn probe_sender_sites(scale: &ExperimentScale) -> Vec<usize> {
    let mut senders = vec![0];
    if scale.sites > 10 {
        senders.push(10); // NewYork in the full list
    } else if scale.sites > 1 {
        senders.push(scale.sites - 1);
    }
    senders
}

/// TCP-stack deviations from the testbed default, for ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackTweaks {
    /// Enable `tcp_slow_start_after_idle` (testbed default: off).
    pub slow_start_after_idle: bool,
    /// Enable delayed acknowledgements (testbed default: off, matching
    /// the paper's §II-B model assumptions).
    pub delayed_ack: bool,
    /// Disable the `tcp_metrics` ssthresh cache (testbed default: on).
    pub no_metrics_cache: bool,
    /// Enable SACK (RFC 2018 blocks + RFC 6675-lite recovery; testbed
    /// default: off, matching the NewReno baseline in DESIGN.md).
    pub sack: bool,
    /// Override the receivers' initial advertised window (testbed
    /// default: 1000 segments). §III-C requires `initrwnd >= c_max` or
    /// the first burst of a Riptide-boosted connection stalls on flow
    /// control; setting this to 10 reproduces that failure mode.
    pub initial_rwnd: Option<u32>,
}

/// One arm of the §IV-B2 probe experiment: Riptide as configured (or
/// `None`, the control) on the testbed with `tweaks`, probing from
/// `senders`. [`crate::engine::RunPlan::probe_arms`] runs one sender per
/// shard.
pub fn probe_sim_config(
    scale: &ExperimentScale,
    riptide: Option<RiptideConfig>,
    tweaks: StackTweaks,
    senders: Vec<usize>,
) -> CdnSimConfig {
    let mut testbed = scale.testbed();
    testbed.tcp.slow_start_after_idle = tweaks.slow_start_after_idle;
    testbed.tcp.delayed_ack = tweaks.delayed_ack;
    testbed.tcp.metrics_cache = !tweaks.no_metrics_cache;
    testbed.tcp.sack = tweaks.sack;
    if let Some(rwnd) = tweaks.initial_rwnd {
        testbed.tcp.initial_rwnd = rwnd;
    }
    CdnSimConfig {
        testbed,
        cwnd_sample_interval: SimDuration::from_secs(300),
        probe_senders: Some(senders),
        ..base_sim_config(scale, riptide)
    }
}

/// Both arms of the probe experiment, seed-paired shard by shard — the
/// comparison behind Figs. 12–16 and §IV-D, as
/// [`crate::engine::RunReport::comparison`] merges it.
#[derive(Debug, Clone)]
pub struct ProbeComparison {
    /// Outcomes with Riptide disabled.
    pub control: Vec<ProbeOutcome>,
    /// Outcomes with Riptide enabled.
    pub riptide: Vec<ProbeOutcome>,
}

/// Figs. 12–14: completion-time CDFs (milliseconds) for probes of `size`
/// from `sender`, grouped by destination RTT bucket.
pub fn completion_by_bucket(
    outcomes: &[ProbeOutcome],
    sender: usize,
    size: u64,
) -> BTreeMap<RttBucket, Cdf> {
    let mut groups: BTreeMap<RttBucket, Vec<f64>> = BTreeMap::new();
    for p in outcomes {
        if p.src_site == sender && p.size == size {
            groups
                .entry(p.bucket)
                .or_default()
                .push(p.completion.as_millis_f64());
        }
    }
    groups.into_iter().map(|(b, v)| (b, Cdf::new(v))).collect()
}

/// Figs. 15/16: per-percentile gain for probes of `size` from `sender`,
/// computed per destination and averaged across destinations, in the
/// paper's 5% steps.
pub fn gain_by_percentile(cmp: &ProbeComparison, sender: usize, size: u64) -> Vec<PercentileGain> {
    let per_dest = per_destination_cdfs(cmp, sender, size);
    let tables: Vec<Vec<PercentileGain>> = per_dest
        .values()
        .map(|(ctl, rip)| percentile_gains(ctl, rip, 5))
        .collect();
    assert!(
        !tables.is_empty(),
        "no destination had probes of size {size}"
    );
    average_gains(&tables)
}

/// §IV-D: per-destination change in the best-case (min) and worst-case
/// (max) completion for `size` probes from `sender`. Positive fractions
/// mean Riptide was faster.
pub fn edge_cases(cmp: &ProbeComparison, sender: usize, size: u64) -> Vec<EdgeCaseRow> {
    per_destination_cdfs(cmp, sender, size)
        .into_iter()
        .map(|(dst, (ctl, rip))| EdgeCaseRow {
            dst_site: dst,
            min_change: (ctl.min() - rip.min()) / ctl.min(),
            max_change: (ctl.max() - rip.max()) / ctl.max(),
        })
        .collect()
}

/// One §IV-D row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCaseRow {
    /// Destination site.
    pub dst_site: usize,
    /// Fractional change of the minimum completion (positive = faster).
    pub min_change: f64,
    /// Fractional change of the maximum completion.
    pub max_change: f64,
}

/// Pairs control/riptide CDFs per destination, keeping destinations with
/// samples in both arms.
fn per_destination_cdfs(
    cmp: &ProbeComparison,
    sender: usize,
    size: u64,
) -> BTreeMap<usize, (Cdf, Cdf)> {
    let collect = |outcomes: &[ProbeOutcome]| {
        let mut m: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for p in outcomes {
            if p.src_site == sender && p.size == size {
                m.entry(p.dst_site)
                    .or_default()
                    .push(p.completion.as_millis_f64());
            }
        }
        m
    };
    let ctl = collect(&cmp.control);
    let mut rip = collect(&cmp.riptide);
    ctl.into_iter()
        .filter_map(|(dst, c)| {
            let r = rip.remove(&dst)?;
            Some((dst, (Cdf::new(c), Cdf::new(r))))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::engine::RunPlan;

    /// The test-scale probe comparison, run once for every test here.
    fn comparison() -> &'static ProbeComparison {
        static RUN: OnceLock<ProbeComparison> = OnceLock::new();
        RUN.get_or_init(|| {
            RunPlan::probe_comparison(&ExperimentScale::test(), 1)
                .run()
                .comparison()
        })
    }

    #[test]
    fn riptide_shifts_the_live_window_cdf() {
        let report = RunPlan::cwnd_sweep(&ExperimentScale::test(), &[None, Some(100)], 1).run();
        let (control, riptide) = (report.merged_cwnd(0), report.merged_cwnd(1));
        assert!(!control.is_empty() && !riptide.is_empty());
        assert!(
            riptide.median() > control.median(),
            "riptide median {} should exceed control {}",
            riptide.median(),
            control.median()
        );
    }

    #[test]
    fn cmax_clamps_learned_windows() {
        let low = RunPlan::cwnd_sweep(&ExperimentScale::test(), &[Some(50)], 1)
            .run()
            .merged_cwnd(0);
        // Initial windows are clamped at 50, but live windows may grow
        // past it during transfers; the bulk should sit at or below the
        // natural growth ceiling of the probe workload.
        assert!(low.quantile(0.5) <= 120.0, "median {}", low.quantile(0.5));
    }

    /// Completion times (ms) of `size` probes from the first sender.
    fn completions(arm: &[ProbeOutcome], size: u64) -> Cdf {
        let sender = probe_sender_sites(&ExperimentScale::test())[0];
        arm.iter()
            .filter(|p| p.src_site == sender && p.size == size)
            .map(|p| p.completion.as_millis_f64())
            .collect()
    }

    #[test]
    fn probe_comparison_improves_large_probes() {
        let cmp = comparison();
        assert!(!cmp.control.is_empty() && !cmp.riptide.is_empty());
        let ctl = completions(&cmp.control, 100_000);
        let rip = completions(&cmp.riptide, 100_000);
        assert!(
            rip.median() < ctl.median(),
            "100KB probes faster with riptide: {} vs {}",
            rip.median(),
            ctl.median()
        );
    }

    #[test]
    fn small_probes_unchanged() {
        // Fig. 12: 10 KB fits in the default window; Riptide is a no-op.
        let cmp = comparison();
        let c = completions(&cmp.control, 10_000).median();
        let r = completions(&cmp.riptide, 10_000).median();
        let rel = (c - r).abs() / c;
        assert!(rel < 0.25, "10KB medians should be close: {c} vs {r}");
    }

    #[test]
    fn bucket_grouping_covers_senders_destinations() {
        let outcomes = &comparison().control;
        let sender = probe_sender_sites(&ExperimentScale::test())[0];
        let groups = completion_by_bucket(outcomes, sender, 50_000);
        assert!(!groups.is_empty());
        let total: usize = groups.values().map(Cdf::len).sum();
        let expected = completions(outcomes, 50_000).len();
        assert_eq!(total, expected, "every probe lands in exactly one bucket");
    }

    #[test]
    fn gain_table_has_19_rows() {
        let sender = probe_sender_sites(&ExperimentScale::test())[0];
        let gains = gain_by_percentile(comparison(), sender, 100_000);
        assert_eq!(gains.len(), 19);
        assert_eq!(gains[0].percentile, 5);
        // Somewhere in the upper percentiles Riptide should win.
        let best = gains.iter().map(|g| g.gain).fold(f64::MIN, f64::max);
        assert!(best > 0.0, "no percentile improved: {gains:?}");
    }

    #[test]
    fn edge_cases_produce_one_row_per_destination() {
        let scale = ExperimentScale::test();
        let sender = probe_sender_sites(&scale)[0];
        let rows = edge_cases(comparison(), sender, 100_000);
        assert_eq!(rows.len(), scale.sites - 1);
        for r in rows {
            assert!(r.min_change.is_finite() && r.max_change.is_finite());
        }
    }
}

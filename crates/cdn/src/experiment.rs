//! Experiment runners: one function per figure of the paper's evaluation
//! (§IV). The `riptide-bench` binaries are thin printers over these.

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

/// The simulation configuration behind [`cwnd_distribution`] — exposed
/// so the parallel engine can run the same experiment shard by shard.
pub fn cwnd_sim_config(scale: &ExperimentScale, c_max: Option<u32>) -> CdnSimConfig {
    let riptide = c_max.map(|m| {
        RiptideConfig::builder()
            .cwnd_max(m)
            .build()
            .expect("valid sweep config")
    });
    base_sim_config(scale, riptide)
}

/// Runs one deployment and returns the live-cwnd samples collected after
/// warm-up — one curve of Fig. 10 (`c_max = Some(...)`) or its control
/// (`None`).
pub fn cwnd_distribution(scale: &ExperimentScale, c_max: Option<u32>) -> Cdf {
    let mut sim = CdnSim::new(cwnd_sim_config(scale, c_max));
    sim.run_for(scale.total());
    warm_cwnd_cdf(&sim, scale, None)
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

/// The simulation configuration behind [`traffic_profile`].
pub fn traffic_sim_config(scale: &ExperimentScale) -> CdnSimConfig {
    CdnSimConfig {
        organic: OrganicConfig::among(default_busy_sites(scale), 0.5),
        ..base_sim_config(scale, Some(RiptideConfig::deployment()))
    }
}

/// Fig. 11: live-cwnd distributions at a probe-only PoP vs one of the
/// busiest PoPs, both running Riptide at the deployment `c_max` of 100.
pub fn traffic_profile(scale: &ExperimentScale) -> (Cdf, Cdf) {
    let (probe_only_site, busy_site) = traffic_profile_sites(scale);
    let mut sim = CdnSim::new(traffic_sim_config(scale));
    sim.run_for(scale.total());
    (
        warm_cwnd_cdf(&sim, scale, Some(probe_only_site)),
        warm_cwnd_cdf(&sim, scale, Some(busy_site)),
    )
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

/// Runs the §IV-B2 probe experiment once (control or Riptide) and
/// returns the after-warm-up probe outcomes from the sender sites.
pub fn probe_experiment(scale: &ExperimentScale, riptide: bool) -> Vec<ProbeOutcome> {
    probe_experiment_with(
        scale,
        riptide.then(RiptideConfig::deployment),
        StackTweaks::default(),
    )
}

/// [`probe_experiment`] with an explicit Riptide configuration and
/// stack tweaks — the hook the ablation harness uses to vary §III-B
/// strategies and stack behaviour.
pub fn probe_experiment_with(
    scale: &ExperimentScale,
    riptide: Option<RiptideConfig>,
    tweaks: StackTweaks,
) -> Vec<ProbeOutcome> {
    let cfg = probe_sim_config(scale, riptide, tweaks, probe_sender_sites(scale));
    let mut sim = CdnSim::new(cfg);
    sim.run_for(scale.total());
    warm_probes(&sim, scale)
}

/// The simulation configuration behind [`probe_experiment_with`], with
/// an explicit sender-site list — the parallel engine shards the probe
/// experiments one sender per shard through this hook.
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

/// Both arms of the probe experiment, same seed — the paired comparison
/// behind Figs. 12–16 and §IV-D.
#[derive(Debug, Clone)]
pub struct ProbeComparison {
    /// Outcomes with Riptide disabled.
    pub control: Vec<ProbeOutcome>,
    /// Outcomes with Riptide enabled.
    pub riptide: Vec<ProbeOutcome>,
}

/// Runs control and Riptide arms with identical topology and seeds.
pub fn probe_comparison(scale: &ExperimentScale) -> ProbeComparison {
    ProbeComparison {
        control: probe_experiment(scale, false),
        riptide: probe_experiment(scale, true),
    }
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
    use super::*;

    #[test]
    fn cwnd_distribution_shifts_with_riptide() {
        let scale = ExperimentScale::test();
        let control = cwnd_distribution(&scale, None);
        let riptide = cwnd_distribution(&scale, Some(100));
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
        let scale = ExperimentScale::test();
        let low = cwnd_distribution(&scale, Some(50));
        // Initial windows are clamped at 50, but live windows may grow
        // past it during transfers; the bulk should sit at or below the
        // natural growth ceiling of the probe workload.
        assert!(low.quantile(0.5) <= 120.0, "median {}", low.quantile(0.5));
    }

    #[test]
    fn probe_comparison_improves_large_probes() {
        let scale = ExperimentScale::test();
        let cmp = probe_comparison(&scale);
        assert!(!cmp.control.is_empty() && !cmp.riptide.is_empty());
        let sender = probe_sender_sites(&scale)[0];
        let ctl: Vec<f64> = cmp
            .control
            .iter()
            .filter(|p| p.src_site == sender && p.size == 100_000)
            .map(|p| p.completion.as_millis_f64())
            .collect();
        let rip: Vec<f64> = cmp
            .riptide
            .iter()
            .filter(|p| p.src_site == sender && p.size == 100_000)
            .map(|p| p.completion.as_millis_f64())
            .collect();
        let ctl = Cdf::new(ctl);
        let rip = Cdf::new(rip);
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
        let scale = ExperimentScale::test();
        let cmp = probe_comparison(&scale);
        let sender = probe_sender_sites(&scale)[0];
        let med = |v: &[ProbeOutcome]| {
            Cdf::new(
                v.iter()
                    .filter(|p| p.src_site == sender && p.size == 10_000)
                    .map(|p| p.completion.as_millis_f64()),
            )
            .median()
        };
        let c = med(&cmp.control);
        let r = med(&cmp.riptide);
        let rel = (c - r).abs() / c;
        assert!(rel < 0.25, "10KB medians should be close: {c} vs {r}");
    }

    #[test]
    fn bucket_grouping_covers_senders_destinations() {
        let scale = ExperimentScale::test();
        let outcomes = probe_experiment(&scale, false);
        let sender = probe_sender_sites(&scale)[0];
        let groups = completion_by_bucket(&outcomes, sender, 50_000);
        assert!(!groups.is_empty());
        let total: usize = groups.values().map(Cdf::len).sum();
        let expected = outcomes
            .iter()
            .filter(|p| p.src_site == sender && p.size == 50_000)
            .count();
        assert_eq!(total, expected, "every probe lands in exactly one bucket");
    }

    #[test]
    fn gain_table_has_19_rows() {
        let scale = ExperimentScale::test();
        let cmp = probe_comparison(&scale);
        let sender = probe_sender_sites(&scale)[0];
        let gains = gain_by_percentile(&cmp, sender, 100_000);
        assert_eq!(gains.len(), 19);
        assert_eq!(gains[0].percentile, 5);
        // Somewhere in the upper percentiles Riptide should win.
        let best = gains.iter().map(|g| g.gain).fold(f64::MIN, f64::max);
        assert!(best > 0.0, "no percentile improved: {gains:?}");
    }

    #[test]
    fn edge_cases_produce_one_row_per_destination() {
        let scale = ExperimentScale::test();
        let cmp = probe_comparison(&scale);
        let sender = probe_sender_sites(&scale)[0];
        let rows = edge_cases(&cmp, sender, 100_000);
        assert_eq!(rows.len(), scale.sites - 1);
        for r in rows {
            assert!(r.min_change.is_finite() && r.max_change.is_finite());
        }
    }
}

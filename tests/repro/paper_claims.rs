//! The paper's quantitative claims, asserted directly. These are the
//! fast, model-backed claims (§I–§II); the simulation-backed figure
//! shapes are asserted in `end_to_end` and regenerated by the
//! `riptide-bench` driver.

use riptide_repro::cdn::geo::{all_pair_rtts, continent_counts, Continent, POP_SITES};
use riptide_repro::cdn::stats::Cdf;
use riptide_repro::cdn::workload::FileSizeDist;
use riptide_repro::riptide::model::{
    one_rtt_capacity, rtt_gain, rtts_for_bytes, transfer_time, DEFAULT_MSS,
};
use riptide_repro::simnet::rng::DetRng;
use riptide_repro::simnet::time::SimDuration;

#[test]
fn intro_claim_default_window_caps_at_15kb() {
    // §I: "the default window of 10 segments results in any flows larger
    // than 15KB requiring more than a single RTT".
    let cap = one_rtt_capacity(DEFAULT_MSS, 10);
    assert!((14_000..=15_000).contains(&cap), "cap {cap}");
    assert_eq!(rtts_for_bytes(cap, DEFAULT_MSS, 10), 1);
    assert!(rtts_for_bytes(15_001, DEFAULT_MSS, 10) > 1);
}

#[test]
fn fig2_claim_54_percent_too_large() {
    let d = FileSizeDist::fig2();
    let too_large = 1.0 - d.cdf(15_000);
    assert!(
        (0.52..=0.56).contains(&too_large),
        "54% of files too large, got {too_large}"
    );
}

#[test]
fn fig3_claim_initcwnd_50_adds_31_points_of_one_rtt_files() {
    let d = FileSizeDist::fig2();
    let mut rng = DetRng::from_seed(1);
    let n = 100_000;
    let sizes: Vec<u64> = (0..n).map(|_| d.sample(&mut rng)).collect();
    let one_rtt = |iw: u32| {
        sizes
            .iter()
            .filter(|&&s| rtts_for_bytes(s, DEFAULT_MSS, iw) == 1)
            .count() as f64
            / n as f64
    };
    let gain_50 = one_rtt(50) - one_rtt(10);
    assert!(
        (0.28..=0.34).contains(&gain_50),
        "over 31% more files complete in one RTT at iw=50: {gain_50}"
    );
    // "Increasing the window to 100 would allow all but 15% of files to
    // complete in the first RTT."
    let left_out = 1.0 - one_rtt(100);
    assert!(
        (0.12..=0.18).contains(&left_out),
        "all but ~15% at iw=100: {left_out}"
    );
}

#[test]
fn fig4_claim_gains_concentrate_between_15kb_and_1mb() {
    // Below 15 KB no gain; in the sweet spot large gains; at 10 MB the
    // gain has decayed substantially.
    assert_eq!(rtt_gain(10_000, DEFAULT_MSS, 100, 10), 0.0);
    let sweet = rtt_gain(100_000, DEFAULT_MSS, 100, 10);
    assert!(sweet > 0.6, "sweet-spot gain {sweet}");
    let huge = rtt_gain(10_000_000, DEFAULT_MSS, 100, 10);
    assert!(huge < sweet / 1.5, "gain decays for huge files: {huge}");
}

#[test]
fn fig5_claim_median_rtt_over_125ms() {
    let rtts = all_pair_rtts();
    let cdf = Cdf::new(rtts.iter().map(|r| r.as_millis_f64()));
    assert!(
        cdf.median() > 125.0,
        "50% of links above 125 ms, median {}",
        cdf.median()
    );
}

#[test]
fn fig6_claim_median_penalty_about_280ms() {
    // "In the median case, the transfer time is over 280ms longer than
    // the initial congestion window of 100 case."
    let rtts = all_pair_rtts();
    let penalty = |iw: u32| {
        Cdf::new(
            rtts.iter()
                .map(|&rtt| transfer_time(100_000, DEFAULT_MSS, iw, rtt, false).as_millis_f64()),
        )
        .median()
    };
    let diff = penalty(10) - penalty(100);
    assert!(
        (250.0..=320.0).contains(&diff),
        "median penalty ≈280 ms, got {diff}"
    );
}

#[test]
fn table2_claim_footprint() {
    assert_eq!(POP_SITES.len(), 34);
    let counts = continent_counts();
    let get = |c: Continent| counts.iter().find(|(k, _)| *k == c).unwrap().1;
    assert_eq!(
        (
            get(Continent::Europe),
            get(Continent::NorthAmerica),
            get(Continent::SouthAmerica),
            get(Continent::Asia),
            get(Continent::Oceania)
        ),
        (10, 11, 1, 9, 3)
    );
}

#[test]
fn section4a_claim_probe_sizes_straddle_the_default_window() {
    // "the 50 and 100KB probes are too large to fit in the Linux default
    // initial congestion window of 10"; 10 KB fits.
    assert_eq!(rtts_for_bytes(10_000, DEFAULT_MSS, 10), 1);
    assert_eq!(rtts_for_bytes(50_000, DEFAULT_MSS, 10), 3);
    assert_eq!(rtts_for_bytes(100_000, DEFAULT_MSS, 10), 3);
}

#[test]
fn abstract_claim_median_window_rises_sharply() {
    // Abstract: "increase the median window size between datacenters by
    // 200%". Checked at test scale with the c_max sweep machinery: the
    // Riptide distribution's median must sit well above the control's.
    use riptide_repro::cdn::engine::RunPlan;
    use riptide_repro::cdn::experiment::ExperimentScale;
    let report = RunPlan::cwnd_sweep(&ExperimentScale::test(), &[None, Some(100)], 1).run();
    let (control, riptide) = (report.merged_cwnd(0), report.merged_cwnd(1));
    let lift = riptide.median() / control.median();
    assert!(
        lift > 1.2,
        "median live window lifts substantially: control {} riptide {}",
        control.median(),
        riptide.median()
    );
}

#[test]
fn discussion_claim_total_transfer_doubles_at_p90() {
    // §II-B: "at the 90th percentile … the total transfer time increase
    // by 290ms, about 100%" — i.e. iw10 costs about twice iw100.
    let rtts = all_pair_rtts();
    let at_p90 = |iw: u32| {
        Cdf::new(
            rtts.iter()
                .map(|&rtt| transfer_time(100_000, DEFAULT_MSS, iw, rtt, false).as_millis_f64()),
        )
        .quantile(0.9)
    };
    let ratio = at_p90(10) / at_p90(100);
    assert!(
        ratio >= 2.0,
        "p90 at the default window costs ≥2x, got {ratio}"
    );
}

#[test]
fn duration_of_experiment_windows_match_paper() {
    use riptide_repro::cdn::experiment::ExperimentScale;
    let paper = ExperimentScale::paper();
    assert_eq!(paper.duration, SimDuration::from_secs(12 * 3600));
    assert_eq!(paper.probe_interval, SimDuration::from_secs(3600));
    assert_eq!(paper.sites, 34);
}

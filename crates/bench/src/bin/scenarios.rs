//! Scenario matrix: every registered learning policy raced across the
//! [`scenario_catalog`] regimes (RED/ECN queues, lossy last mile,
//! flash crowds, paced senders), seed-paired, with the run digest
//! pinned so the matrix doubles as a behaviour-preservation gate.
//!
//! ```text
//! cargo run --release --bin scenarios -- [--scale test|quick|paper]
//!     [--seeds N] [--threads N] [--check] [--out PATH]
//! ```
//!
//! * Default mode runs [`RunPlan::scenario_matrix`] and rewrites
//!   `BENCH_scenarios.json` with per-scenario policy rankings (mean
//!   median-completion gain vs each cell's paired control arm).
//! * `--check` regression mode: re-runs and compares against the
//!   checked-in baseline instead of rewriting it. Digest drift is
//!   fatal, as are the two separation claims below.
//! * In **every** mode three claims are enforced:
//!   1. the baseline cell's control and default-EWMA arms reproduce
//!      [`RunPlan::probe_comparison`] bit for bit (the scenario seam
//!      must cost nothing when every knob is off);
//!   2. at least two non-baseline scenarios rank the policies
//!      differently than the baseline regime does — the matrix
//!      actually separates what the flat §IV regime could not;
//!   3. on the lossy-edge cell the loss-utility policy out-gains
//!      default EWMA — loss-blind averaging must pay for its
//!      aggression where random loss punishes big windows.
//!
//! [`scenario_catalog`]: riptide_cdn::scenario::scenario_catalog

use std::process::ExitCode;

use riptide_bench::{banner, Baseline};
use riptide_cdn::engine::RunPlan;
use riptide_cdn::experiment::ExperimentScale;
use riptide_cdn::scenario::{policy_arms, scenario_catalog};
use riptide_cdn::sim::ProbeOutcome;
use riptide_cdn::stats::Cdf;
use riptide_cdn::workload::ProbeConfig;

const BENCH_FILE: &str = "BENCH_scenarios.json";

struct Options {
    scale_name: String,
    scale: ExperimentScale,
    seeds: u32,
    threads: usize,
    check: bool,
    /// The bench file: read in `--check` mode, rewritten otherwise.
    /// `--out` points smoke runs away from the checked-in baseline.
    out: std::path::PathBuf,
}

fn parse() -> Options {
    let mut opts = Options {
        scale_name: "test".into(),
        scale: ExperimentScale::test(),
        seeds: 2,
        threads: 1,
        check: false,
        out: std::path::PathBuf::from(BENCH_FILE),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value("--scale");
                opts.scale = match v.as_str() {
                    "test" => ExperimentScale::test(),
                    "quick" => ExperimentScale::quick(),
                    "paper" => ExperimentScale::paper(),
                    other => panic!("unknown scale {other:?} (test|quick|paper)"),
                };
                opts.scale_name = v;
            }
            "--seeds" => {
                opts.seeds = value("--seeds").parse().expect("--seeds takes a number");
                assert!(opts.seeds >= 1, "--seeds must be at least 1");
            }
            "--threads" => {
                opts.threads = value("--threads")
                    .parse()
                    .expect("--threads takes a number");
                assert!(opts.threads >= 1, "--threads must be at least 1");
            }
            "--check" => opts.check = true,
            "--out" => opts.out = std::path::PathBuf::from(value("--out")),
            "--help" | "-h" => {
                println!(
                    "usage: scenarios [--scale test|quick|paper] [--seeds N] \
                     [--threads N] [--check] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}; try --help"),
        }
    }
    opts
}

fn median_ms(probes: &[ProbeOutcome], size: u64) -> Option<f64> {
    let cdf = Cdf::new(
        probes
            .iter()
            .filter(|p| p.size == size)
            .map(|p| p.completion.as_millis_f64()),
    );
    (!cdf.is_empty()).then(|| cdf.median())
}

/// Mean per-size median gain (%) of `treated` over `control`.
fn mean_gain_pct(control: &[ProbeOutcome], treated: &[ProbeOutcome], sizes: &[u64]) -> f64 {
    let mut gains = Vec::new();
    for &size in sizes {
        if let (Some(c), Some(t)) = (median_ms(control, size), median_ms(treated, size)) {
            gains.push((c - t) / c * 100.0);
        }
    }
    gains.iter().sum::<f64>() / gains.len().max(1) as f64
}

/// One matrix cell's outcome: each policy arm's mean gain vs the
/// cell's paired control, and the resulting ranking (best first, ties
/// broken by arm name so the order is a pure function of the data).
struct CellResult {
    name: &'static str,
    arm_gains: Vec<(String, f64)>,
    ranking: Vec<String>,
}

fn main() -> ExitCode {
    let opts = parse();
    banner(
        "Scenario matrix",
        "every registered policy across RED/ECN, lossy-edge, flash-crowd and paced regimes",
    );
    let plan = RunPlan::scenario_matrix(&opts.scale, opts.seeds);
    eprintln!(
        "running {} shards at --scale {} on {} thread(s)...",
        plan.shards.len(),
        opts.scale_name,
        opts.threads
    );
    let report = plan.run_with_threads(opts.threads);
    let digest_fnv = format!("{:016x}", report.digest_fnv64());

    // Claim 1: with every scenario knob off, the matrix's baseline cell
    // is the plain probe comparison, outcome for outcome.
    let baseline =
        RunPlan::probe_comparison(&opts.scale, opts.seeds).run_with_threads(opts.threads);
    assert_eq!(
        report.merged_probes(0),
        baseline.merged_probes(0),
        "baseline-cell control arm diverged from probe_comparison"
    );
    assert_eq!(
        report.merged_probes(1),
        baseline.merged_probes(1),
        "baseline-cell default-EWMA arm diverged from probe_comparison"
    );
    println!("# baseline cell bit-identical to the probe comparison");

    let sizes = ProbeConfig::default().sizes;
    let arms = policy_arms();
    let arms_per = arms.len();
    let catalog = scenario_catalog(&opts.scale);
    let mut cells = Vec::new();
    for (c, spec) in catalog.iter().enumerate() {
        let base = (arms_per * c) as u32;
        let control = report.merged_probes(base);
        let mut arm_gains = Vec::new();
        for (arm_idx, (arm, _)) in arms.iter().enumerate().skip(1) {
            let treated = report.merged_probes(base + arm_idx as u32);
            arm_gains.push((arm.to_string(), mean_gain_pct(&control, &treated, &sizes)));
        }
        let mut ranking = arm_gains.clone();
        ranking.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        cells.push(CellResult {
            name: spec.name,
            arm_gains,
            ranking: ranking.into_iter().map(|(a, _)| a).collect(),
        });
    }

    println!(
        "{:>12} {:>46}  ranking",
        "scenario", "mean_gain% per policy arm"
    );
    for cell in &cells {
        let gains: Vec<String> = cell
            .arm_gains
            .iter()
            .map(|(a, g)| format!("{a}={g:.1}"))
            .collect();
        println!(
            "{:>12} {:>46}  {}",
            cell.name,
            gains.join(" "),
            cell.ranking.join(">")
        );
    }

    // Claim 2: the matrix separates the policies — at least two
    // non-baseline regimes produce a different ranking than baseline.
    let divergent: Vec<&str> = cells[1..]
        .iter()
        .filter(|c| c.ranking != cells[0].ranking)
        .map(|c| c.name)
        .collect();
    assert!(
        divergent.len() >= 2,
        "only {} scenario(s) re-ranked the policies ({divergent:?}); \
         the matrix adds no information over the flat regime",
        divergent.len()
    );
    println!(
        "# {} of {} scenarios rank the policies differently than baseline: {}",
        divergent.len(),
        cells.len() - 1,
        divergent.join(", ")
    );

    // Claim 3: where random loss punishes aggressive windows, the
    // loss-aware policy must out-gain loss-blind EWMA.
    let lossy = cells
        .iter()
        .find(|c| c.name == "lossy-edge")
        .expect("catalog has a lossy-edge cell");
    let gain_of = |arm: &str| {
        lossy
            .arm_gains
            .iter()
            .find(|(a, _)| a == arm)
            .map(|(_, g)| *g)
            .expect("arm present")
    };
    let (lu, ewma) = (gain_of("loss-utility"), gain_of("riptide"));
    assert!(
        lu > ewma,
        "loss-utility ({lu:.2}%) must beat EWMA ({ewma:.2}%) on the lossy edge"
    );
    println!("# lossy-edge: loss-utility {lu:.1}% > ewma {ewma:.1}%");

    if opts.check {
        let checked = Baseline::read(&opts.out).and_then(|base| {
            base.recorded_with("scale", &opts.scale_name)?;
            base.recorded_with("seeds", &opts.seeds.to_string())?;
            base.digest_matches("digest_fnv", &digest_fnv, "some scenario")
        });
        if let Err(why) = checked {
            eprintln!("scenarios: {why}");
            return ExitCode::FAILURE;
        }
        println!(
            "# check: digest ok ({digest_fnv}), {} cells, {} divergent",
            cells.len(),
            divergent.len()
        );
        return ExitCode::SUCCESS;
    }

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let gains: Vec<String> = c
                .arm_gains
                .iter()
                .map(|(a, g)| format!("{{\"policy\": \"{a}\", \"mean_gain_pct\": {g:.2}}}"))
                .collect();
            let ranking: Vec<String> = c.ranking.iter().map(|a| format!("\"{a}\"")).collect();
            format!(
                "    {{\"scenario\": \"{}\", \"ranking\": [{}], \"arms\": [{}]}}",
                c.name,
                ranking.join(", "),
                gains.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"scenario-matrix\",\n  \"scale\": \"{}\",\n  \
         \"seeds\": {},\n  \"shards\": {},\n  \
         \"baseline_bit_identical\": true,\n  \"digest_fnv\": \"{}\",\n  \
         \"ranking_divergent_cells\": {},\n  \
         \"lossy_edge_loss_utility_beats_ewma\": true,\n  \
         \"probe_sizes\": [{}],\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        opts.scale_name,
        opts.seeds,
        plan.shards.len(),
        digest_fnv,
        divergent.len(),
        sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        rows.join(",\n")
    );
    std::fs::write(&opts.out, &json)
        .unwrap_or_else(|e| panic!("writing {}: {e}", opts.out.display()));
    print!("{json}");
    println!(
        "# scenario matrix recorded for {} cells; digest {digest_fnv}",
        cells.len()
    );
    ExitCode::SUCCESS
}

//! Policy-ablation arena: every registered learning policy races over
//! the seed-paired probe grid, with the run digest pinned so the arena
//! doubles as a behaviour-preservation gate.
//!
//! ```text
//! cargo run --release --bin policy_arena -- [--scale test|quick|paper]
//!     [--seeds N] [--threads N] [--check] [--out PATH]
//! ```
//!
//! * Default mode runs [`RunPlan::policy_ablation`] — a control arm
//!   plus one arm per [`registered_policies`] entry, all seed-paired —
//!   and rewrites `BENCH_policyarena.json` with the per-policy
//!   gain-vs-harm frontier (median completion time per probe size vs
//!   the paired control arm).
//! * `--check` regression mode: re-runs and compares against the
//!   checked-in `BENCH_policyarena.json` instead of rewriting it.
//!   Exits nonzero when the digest differs (behaviour drift in any
//!   policy — always fatal).
//! * In **every** mode the default-EWMA arm must reproduce
//!   [`RunPlan::probe_comparison`]'s control and treatment outcomes
//!   bit for bit — the trait seam must cost nothing — and the run
//!   aborts if it does not.
//!
//! [`registered_policies`]: riptide::policy::registered_policies

use std::process::ExitCode;

use riptide::policy::registered_policies;
use riptide_bench::{banner, Baseline};
use riptide_cdn::engine::RunPlan;
use riptide_cdn::experiment::ExperimentScale;
use riptide_cdn::sim::ProbeOutcome;
use riptide_cdn::stats::Cdf;
use riptide_cdn::workload::ProbeConfig;

const BENCH_FILE: &str = "BENCH_policyarena.json";

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
        scale_name: "quick".into(),
        scale: ExperimentScale::quick(),
        seeds: 1,
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
                    "usage: policy_arena [--scale test|quick|paper] [--seeds N] \
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

/// One arena arm's frontier point: per-size median gains vs the paired
/// control arm, their mean, and the worst (most harmful) size.
struct Frontier {
    arm: String,
    gains_pct: Vec<f64>,
    mean_gain_pct: f64,
    worst_harm_pct: f64,
}

fn frontier(
    arm: &str,
    control: &[ProbeOutcome],
    treated: &[ProbeOutcome],
    sizes: &[u64],
) -> Frontier {
    let mut gains = Vec::new();
    for &size in sizes {
        if let (Some(c), Some(t)) = (median_ms(control, size), median_ms(treated, size)) {
            gains.push((c - t) / c * 100.0);
        }
    }
    let mean = gains.iter().sum::<f64>() / gains.len().max(1) as f64;
    let worst = gains.iter().map(|g| -g).fold(f64::NEG_INFINITY, f64::max);
    Frontier {
        arm: arm.to_string(),
        gains_pct: gains,
        mean_gain_pct: mean,
        worst_harm_pct: worst,
    }
}

fn main() -> ExitCode {
    let opts = parse();
    banner(
        "Policy arena",
        "every registered learning policy over the seed-paired probe grid, digest pinned",
    );
    let plan = RunPlan::policy_ablation(&opts.scale, opts.seeds);
    eprintln!(
        "running {} shards at --scale {} on {} thread(s)...",
        plan.shards.len(),
        opts.scale_name,
        opts.threads
    );
    let report = plan.run_with_threads(opts.threads);
    let digest_fnv = format!("{:016x}", report.digest_fnv64());

    // The trait seam must cost nothing: the arena's control and
    // default-EWMA arms (scenarios 0 and 1) must reproduce the plain
    // probe comparison outcome for outcome, every run, every mode.
    let baseline =
        RunPlan::probe_comparison(&opts.scale, opts.seeds).run_with_threads(opts.threads);
    assert_eq!(
        report.merged_probes(0),
        baseline.merged_probes(0),
        "arena control arm diverged from probe_comparison"
    );
    assert_eq!(
        report.merged_probes(1),
        baseline.merged_probes(1),
        "arena default-EWMA arm diverged from probe_comparison"
    );
    println!("# ewma arm bit-identical to the probe comparison");

    // Per-policy gain-vs-harm frontier against the paired control arm.
    let sizes = ProbeConfig::default().sizes;
    let control = report.merged_probes(0);
    let mut arms = vec!["control".to_string()];
    arms.extend(
        registered_policies()
            .iter()
            .map(|(name, _)| if *name == "ewma" { "riptide" } else { name }.to_string()),
    );
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>11} {:>11}",
        "policy", "g10k_%", "g50k_%", "g100k_%", "mean_gain%", "worst_harm%"
    );
    let mut frontiers = Vec::new();
    for (s, arm) in arms.iter().enumerate().skip(1) {
        let treated = report.merged_probes(s as u32);
        let f = frontier(arm, &control, &treated, &sizes);
        println!(
            "{:>14} {:>10.1} {:>10.1} {:>10.1} {:>11.1} {:>11.1}",
            f.arm,
            f.gains_pct.first().copied().unwrap_or(f64::NAN),
            f.gains_pct.get(1).copied().unwrap_or(f64::NAN),
            f.gains_pct.get(2).copied().unwrap_or(f64::NAN),
            f.mean_gain_pct,
            f.worst_harm_pct,
        );
        frontiers.push(f);
    }

    if opts.check {
        let checked = Baseline::read(&opts.out).and_then(|base| {
            base.recorded_with("scale", &opts.scale_name)?;
            base.digest_matches("digest_fnv", &digest_fnv, "some policy")
        });
        if let Err(why) = checked {
            eprintln!("policy_arena: {why}");
            return ExitCode::FAILURE;
        }
        println!(
            "# check: digest ok ({digest_fnv}), {} policy arms",
            frontiers.len()
        );
        return ExitCode::SUCCESS;
    }

    let rows: Vec<String> = frontiers
        .iter()
        .map(|f| {
            let gains: Vec<String> = f.gains_pct.iter().map(|g| format!("{g:.2}")).collect();
            format!(
                "    {{\"policy\": \"{}\", \"gain_pct_by_size\": [{}], \
                 \"mean_gain_pct\": {:.2}, \"worst_harm_pct\": {:.2}}}",
                f.arm,
                gains.join(", "),
                f.mean_gain_pct,
                f.worst_harm_pct
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"policy-arena\",\n  \"scale\": \"{}\",\n  \
         \"seeds\": {},\n  \"shards\": {},\n  \
         \"ewma_bit_identical\": true,\n  \"digest_fnv\": \"{}\",\n  \
         \"probe_sizes\": [{}],\n  \"policies\": [\n{}\n  ]\n}}\n",
        opts.scale_name,
        opts.seeds,
        plan.shards.len(),
        digest_fnv,
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
        "# frontier recorded for {} policies; digest {digest_fnv}",
        frontiers.len()
    );
    ExitCode::SUCCESS
}

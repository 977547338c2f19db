//! Simulator hot-path benchmark: events/sec and wall-clock for the
//! fixed probe-comparison plan, with the run digest pinned so a perf
//! run doubles as a behaviour-preservation check.
//!
//! ```text
//! cargo run --release --bin simperf -- [--scale test|quick|paper]
//!     [--seeds N] [--threads N] [--record-seed] [--check] [--out PATH]
//! ```
//!
//! * Default mode measures the plan **serially** (stable events/sec,
//!   no pool scheduling noise), carries any previously recorded seed
//!   baseline forward, and rewrites `BENCH_simperf.json`.
//! * `--record-seed` additionally stamps this run's numbers as the
//!   `seed_*` baseline — run once on the pre-optimisation tree.
//! * `--check` regression mode: re-measures and compares against the
//!   checked-in `BENCH_simperf.json` instead of rewriting it. Exits
//!   nonzero when the digest differs (behaviour drift — always fatal)
//!   or when events/sec regresses more than 20%.

use std::process::ExitCode;
use std::time::Instant;

use riptide_bench::{banner, Baseline};
use riptide_cdn::engine::RunPlan;
use riptide_cdn::experiment::ExperimentScale;

const BENCH_FILE: &str = "BENCH_simperf.json";
/// A `--check` run fails when events/sec drops below this fraction of
/// the recorded baseline.
const REGRESSION_FLOOR: f64 = 0.8;

struct Options {
    scale_name: String,
    scale: ExperimentScale,
    seeds: u32,
    threads: usize,
    record_seed: bool,
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
        record_seed: false,
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
            "--record-seed" => opts.record_seed = true,
            "--check" => opts.check = true,
            "--out" => opts.out = std::path::PathBuf::from(value("--out")),
            "--help" | "-h" => {
                println!(
                    "usage: simperf [--scale test|quick|paper] [--seeds N] \
                     [--threads N] [--record-seed] [--check] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}; try --help"),
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse();
    banner(
        "Simulator hot path",
        "events/sec and wall-clock for the probe-comparison plan, digest pinned",
    );
    let plan = RunPlan::probe_comparison(&opts.scale, opts.seeds);
    eprintln!(
        "running {} shards at --scale {} on {} thread(s)...",
        plan.shards.len(),
        opts.scale_name,
        opts.threads
    );
    let started = Instant::now();
    let report = plan.run_with_threads(opts.threads);
    let wall_ms = started.elapsed().as_millis().max(1) as u64;
    let events = report.total_events();
    let events_per_sec = events as f64 * 1000.0 / wall_ms as f64;
    let digest_fnv = format!("{:016x}", report.digest_fnv64());

    if opts.check {
        let checked = Baseline::read(&opts.out).and_then(|base| {
            base.recorded_with("scale", &opts.scale_name)?;
            base.digest_matches("digest_fnv", &digest_fnv, "the simulator")?;
            Ok(base)
        });
        let base = match checked {
            Ok(base) => base,
            Err(why) => {
                eprintln!("simperf: {why}");
                return ExitCode::FAILURE;
            }
        };
        let baseline_eps: f64 = base.number("events_per_sec").unwrap_or(0.0);
        println!(
            "# check: digest ok; {events_per_sec:.0} events/sec vs baseline \
             {baseline_eps:.0} ({:.0}% floor)",
            REGRESSION_FLOOR * 100.0
        );
        if baseline_eps > 0.0 && events_per_sec < REGRESSION_FLOOR * baseline_eps {
            eprintln!(
                "simperf: events/sec regressed more than {:.0}%: {events_per_sec:.0} \
                 vs baseline {baseline_eps:.0}",
                (1.0 - REGRESSION_FLOOR) * 100.0
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    // Carry the recorded pre-optimisation baseline forward (or stamp it
    // from this run under --record-seed).
    let recorded = Baseline::read(&opts.out).ok().filter(|_| !opts.record_seed);
    let seed_wall_ms = recorded
        .as_ref()
        .and_then(|b| b.number("seed_wall_ms"))
        .unwrap_or(wall_ms);
    let seed_eps = recorded
        .as_ref()
        .and_then(|b| b.number("seed_events_per_sec"))
        .unwrap_or(events_per_sec);
    let speedup = seed_wall_ms as f64 / wall_ms as f64;

    let json = format!(
        "{{\n  \"benchmark\": \"simperf-probe-comparison\",\n  \
         \"scale\": \"{}\",\n  \"shards\": {},\n  \"threads\": {},\n  \
         \"events\": {},\n  \"wall_ms\": {},\n  \"events_per_sec\": {:.0},\n  \
         \"digest_fnv\": \"{}\",\n  \"seed_wall_ms\": {},\n  \
         \"seed_events_per_sec\": {:.0},\n  \"speedup_vs_seed\": {:.2}\n}}\n",
        opts.scale_name,
        plan.shards.len(),
        opts.threads,
        events,
        wall_ms,
        events_per_sec,
        digest_fnv,
        seed_wall_ms,
        seed_eps,
        speedup
    );
    std::fs::write(&opts.out, &json)
        .unwrap_or_else(|e| panic!("writing {}: {e}", opts.out.display()));
    print!("{json}");
    println!(
        "# {events} events in {wall_ms} ms = {events_per_sec:.0} events/sec \
         ({speedup:.2}x vs recorded seed baseline); digest {digest_fnv}"
    );
    ExitCode::SUCCESS
}

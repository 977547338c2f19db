//! Cold-start ramp-up: how fast a crash-restarted PoP agent climbs back
//! to 90% of its pre-crash installed-window mass, with durability off
//! (relearn from scratch), local snapshot+journal restore, and
//! snapshot+gossip anti-entropy fleet sync.
//!
//! Sweeps machine-crash rates over the three-arm §IV-B2 probe setup
//! ([`RunPlan::coldstart_sweep`]) — all arms seed-paired, so every mode
//! sees the *same* crash schedule — and reports per rate the tracked
//! restarts, recoveries and mean ramp seconds of each mode. Asserts the
//! durability claims:
//!
//! * at a zero crash rate the persistence-off arm reproduces the
//!   fault-free Riptide probe arm bit for bit, and the snapshot arm's
//!   probes are identical to the persistence-off arm's (journalling and
//!   snapshotting are pure bookkeeping until a crash consumes them);
//! * under crashes the snapshot arms restore routes and ramp back
//!   measurably faster than relearning cold.
//!
//! Writes a machine-readable summary to `BENCH_coldstart.json`.
//!
//! ```text
//! cargo run --release --bin coldstart -- [--scale test|quick|paper]
//!     [--seeds N] [--threads N] [--check] [--out PATH]
//! ```
//!
//! * Default mode runs the sweep and rewrites `BENCH_coldstart.json`.
//! * `--check` regression mode for CI: re-runs the sweep, compares the
//!   run digest against the recorded baseline (**drift is fatal**), and
//!   fails unless both warm arms beat the cold arm's mean ramp at the
//!   top crash rate by at least [`FLOOR_IMPROVEMENT`].

use std::process::ExitCode;

use riptide_bench::{banner, Baseline};
use riptide_cdn::engine::{RunPlan, RunReport};
use riptide_cdn::experiment::ExperimentScale;
use riptide_cdn::sim::ColdstartReport;

const BENCH_FILE: &str = "BENCH_coldstart.json";
/// Crash rates swept; the last entry is the rate `--check` gates on.
const RATES: [f64; 2] = [0.0, 0.05];
/// Minimum cold-over-warm mean-ramp ratio `--check` demands of both
/// warm arms at the top crash rate. A restored table is live the tick
/// the agent comes back, so in practice the ratio is far larger.
const FLOOR_IMPROVEMENT: f64 = 1.5;

const MODES: [&str; 3] = ["cold", "snapshot", "snapshot+gossip"];

struct Options {
    scale_name: String,
    scale: ExperimentScale,
    seeds: u32,
    threads: Option<usize>,
    check: bool,
    /// The bench file: read in `--check` mode, rewritten otherwise.
    out: std::path::PathBuf,
}

fn parse() -> Options {
    let mut opts = Options {
        scale_name: "test".into(),
        scale: ExperimentScale::test(),
        seeds: 2,
        threads: None,
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
                let n: usize = value("--threads")
                    .parse()
                    .expect("--threads takes a number");
                assert!(n >= 1, "--threads must be at least 1");
                opts.threads = Some(n);
            }
            "--check" => opts.check = true,
            "--out" => opts.out = std::path::PathBuf::from(value("--out")),
            "--help" | "-h" => {
                println!(
                    "usage: coldstart [--scale test|quick|paper] [--seeds N] \
                     [--threads N] [--check] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}; try --help"),
        }
    }
    opts
}

fn run(opts: &Options, plan: &RunPlan) -> RunReport {
    let threads = opts
        .threads
        .unwrap_or_else(riptide_cdn::engine::default_threads);
    eprintln!(
        "running {} ({} shards) on {} thread(s)...",
        plan.name,
        plan.shards.len(),
        threads
    );
    plan.run_with_threads(threads)
}

/// The three per-mode merged reports of one crash-rate index.
fn mode_reports(report: &RunReport, rate_idx: usize) -> [ColdstartReport; 3] {
    let base = 3 * rate_idx as u32;
    [
        report.merged_coldstart_report(base),
        report.merged_coldstart_report(base + 1),
        report.merged_coldstart_report(base + 2),
    ]
}

/// Mean ramp seconds, or `-1` when the arm never completed a ramp —
/// bench JSON stays one scalar per field for the flat scanner.
fn ramp_or_neg(r: &ColdstartReport) -> f64 {
    r.mean_ramp_secs().unwrap_or(-1.0)
}

/// Gate one warm arm against the cold arm at the top rate: pass when
/// the cold arm never recovered at all (a warm recovery beats an
/// unfinished cold ramp outright), else demand the mean-ramp ratio.
fn warm_beats_cold(cold: &ColdstartReport, warm: &ColdstartReport, arm: &str) -> bool {
    let Some(warm_mean) = warm.mean_ramp_secs() else {
        eprintln!("coldstart: {arm} arm completed no ramp — nothing to gate");
        return false;
    };
    match cold.mean_ramp_secs() {
        None => {
            assert!(
                cold.unrecovered > 0,
                "cold arm has no ramps at a positive crash rate"
            );
            true
        }
        Some(cold_mean) => {
            let ratio = cold_mean / warm_mean.max(1e-9);
            if ratio < FLOOR_IMPROVEMENT {
                eprintln!(
                    "coldstart: RAMP REGRESSION — {arm} arm ramps {warm_mean:.2}s vs cold \
                     {cold_mean:.2}s ({ratio:.2}x, floor {FLOOR_IMPROVEMENT:.1}x)"
                );
                return false;
            }
            true
        }
    }
}

fn check(opts: &Options, plan: &RunPlan) -> ExitCode {
    let fail = |why: String| {
        eprintln!("coldstart: {why}");
        ExitCode::FAILURE
    };
    let recorded = Baseline::read(&opts.out).and_then(|base| {
        base.recorded_with("scale", &opts.scale_name)?;
        base.recorded_with("seeds", &opts.seeds.to_string())?;
        Ok(base)
    });
    let base = match recorded {
        Ok(base) => base,
        Err(why) => return fail(why),
    };

    let report = run(opts, plan);
    let digest = format!("{:016x}", report.digest_fnv64());
    if let Err(why) = base.digest_matches("digest_fnv", &digest, "the sweep") {
        return fail(why);
    }

    let top = RATES.len() - 1;
    let [cold, snap, gossip] = mode_reports(&report, top);
    for (arm, r) in MODES.iter().zip([&cold, &snap, &gossip]) {
        if r.restarts_tracked == 0 {
            eprintln!(
                "coldstart: {arm} arm tracked no restarts at rate {} — the \
                 crash schedule went missing",
                RATES[top]
            );
            return ExitCode::FAILURE;
        }
    }
    if !warm_beats_cold(&cold, &snap, "snapshot")
        || !warm_beats_cold(&cold, &gossip, "snapshot+gossip")
    {
        return ExitCode::FAILURE;
    }
    println!(
        "# check: digest identical; snapshot ramps {:.2}s, snapshot+gossip {:.2}s \
         vs cold {} at rate {} (floor {FLOOR_IMPROVEMENT:.1}x)",
        ramp_or_neg(&snap),
        ramp_or_neg(&gossip),
        cold.mean_ramp_secs()
            .map_or("unrecovered".into(), |s| format!("{s:.2}s")),
        RATES[top]
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = parse();
    banner(
        "Cold start",
        "restart ramp-up with persistence off / snapshot / snapshot+gossip",
    );
    let plan = RunPlan::coldstart_sweep(&opts.scale, &RATES, opts.seeds);
    if opts.check {
        return check(&opts, &plan);
    }

    let report = run(&opts, &plan);

    // Digest-neutrality gate: at a zero crash rate the persistence-off
    // arm must be bit-identical to the fault-free Riptide probe arm,
    // and the snapshot arm must probe identically to it — durability is
    // pure bookkeeping until a crash consumes it. (Gossip legitimately
    // differs: merged entries jump-start connections.)
    let baseline = run(&opts, &RunPlan::probe_comparison(&opts.scale, opts.seeds));
    assert_eq!(
        report.merged_probes(0),
        baseline.merged_probes(1),
        "zero-rate cold arm diverged from the fault-free probe comparison"
    );
    assert_eq!(
        report.merged_probes(1),
        report.merged_probes(0),
        "snapshot bookkeeping changed probe outcomes without any crash"
    );
    println!("# zero-rate cold arm bit-identical to the fault-free probe comparison");
    println!("# zero-rate snapshot arm probes identical to the cold arm");

    println!(
        "{:>6} {:>16} {:>9} {:>11} {:>11} {:>10} {:>10} {:>9}",
        "rate", "mode", "restarts", "recoveries", "mean_ramp_s", "restored", "snapshots", "journal"
    );
    let mut rows = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
        let reports = mode_reports(&report, i);
        for (mode, r) in MODES.iter().zip(&reports) {
            println!(
                "{:>6} {:>16} {:>9} {:>11} {:>11} {:>10} {:>10} {:>9}",
                rate,
                mode,
                r.restarts_tracked,
                r.recoveries,
                r.mean_ramp_secs().map_or("-".into(), |s| format!("{s:.2}")),
                r.restored_routes,
                r.snapshots_written,
                r.journal_records,
            );
        }
        let [cold, snap, gossip] = &reports;
        if rate > 0.0 {
            println!(
                "#   rate {rate}: gossip rounds {} / pairs {} / shipped {} / accepted {} / \
                 digests matched {} / backoffs {}",
                gossip.gossip_rounds,
                gossip.gossip_pairs,
                gossip.entries_shipped,
                gossip.entries_accepted,
                gossip.digests_matched,
                gossip.gossip_backoff_skips,
            );
            assert!(
                warm_beats_cold(cold, snap, "snapshot")
                    && warm_beats_cold(cold, gossip, "snapshot+gossip"),
                "rate {rate}: a warm arm failed the {FLOOR_IMPROVEMENT:.1}x ramp floor"
            );
        }
        rows.push(format!(
            "    {{\"rate\": {rate}, \"cold_ramp_s\": {:.3}, \"snapshot_ramp_s\": {:.3}, \
             \"gossip_ramp_s\": {:.3}, \"cold_unrecovered\": {}, \"restored_routes\": {}, \
             \"entries_accepted\": {}}}",
            ramp_or_neg(cold),
            ramp_or_neg(snap),
            ramp_or_neg(gossip),
            cold.unrecovered,
            snap.restored_routes + gossip.restored_routes,
            gossip.entries_accepted,
        ));
    }

    let [cold, snap, gossip] = mode_reports(&report, RATES.len() - 1);
    let json = format!(
        "{{\n  \"benchmark\": \"coldstart-sweep\",\n  \"scale\": \"{}\",\n  \
         \"seeds\": {},\n  \"sites\": {},\n  \"simulated_secs\": {},\n  \
         \"shards\": {},\n  \"digest_fnv\": \"{:016x}\",\n  \
         \"floor_improvement\": {:.1},\n  \"zero_rate_bit_identical\": true,\n  \
         \"top_rate_restarts\": {},\n  \"rates\": [\n{}\n  ]\n}}\n",
        opts.scale_name,
        opts.seeds,
        opts.scale.sites,
        opts.scale.total().as_secs_f64().round() as u64,
        plan.shards.len(),
        report.digest_fnv64(),
        FLOOR_IMPROVEMENT,
        cold.restarts_tracked + snap.restarts_tracked + gossip.restarts_tracked,
        rows.join(",\n")
    );
    std::fs::write(&opts.out, &json)
        .unwrap_or_else(|e| panic!("writing {}: {e}", opts.out.display()));
    print!("{json}");
    println!("# warm arms beat the cold ramp at every positive rate");
    ExitCode::SUCCESS
}

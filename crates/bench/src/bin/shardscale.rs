//! Shard-scaling curve: the quick-scale probe comparison swept over
//! worker-thread counts, recording wall-clock, events/sec, speedup and
//! efficiency per point — with every point's run digest cross-checked
//! against every other, so the curve doubles as a proof that the
//! work-stealing scheduler is thread-count invariant.
//!
//! ```text
//! cargo run --release --bin shardscale -- [--scale test|quick|paper]
//!     [--seeds N] [--max-threads N] [--check] [--out PATH]
//! ```
//!
//! * Default mode sweeps threads over powers of two from 1 up to
//!   `--max-threads` (default: `max(4, hardware threads)`) and rewrites
//!   `BENCH_shardscale.json` with the full curve.
//! * `--check` regression mode for CI: re-runs only the two endpoints
//!   (threads = 1 and the scaling-floor thread count), compares the
//!   serial digest against the recorded baseline (**drift is fatal**),
//!   asserts the two endpoint digests match (**steal-order divergence
//!   is fatal**), and — on a machine with at least
//!   [`FLOOR_THREADS`] hardware threads — fails unless the measured
//!   speedup at [`FLOOR_THREADS`] reaches [`FLOOR_SPEEDUP`]. On
//!   smaller machines the scaling floor is skipped (a 1-core runner
//!   cannot exhibit parallel speedup), but the digest gates always run.

use std::process::ExitCode;
use std::time::Instant;

use riptide_bench::{banner, Baseline};
use riptide_cdn::engine::{RunPlan, RunReport};
use riptide_cdn::experiment::ExperimentScale;

const BENCH_FILE: &str = "BENCH_shardscale.json";
/// The thread count the scaling floor is measured at.
const FLOOR_THREADS: usize = 4;
/// Minimum speedup over threads=1 that `--check` demands at
/// [`FLOOR_THREADS`] on a machine with that many hardware threads.
const FLOOR_SPEEDUP: f64 = 2.0;

struct Options {
    scale_name: String,
    scale: ExperimentScale,
    seeds: u32,
    max_threads: usize,
    check: bool,
    /// The bench file: read in `--check` mode, rewritten otherwise.
    out: std::path::PathBuf,
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn parse() -> Options {
    let mut opts = Options {
        scale_name: "quick".into(),
        scale: ExperimentScale::quick(),
        seeds: 1,
        max_threads: hardware_threads().max(FLOOR_THREADS),
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
            "--max-threads" => {
                opts.max_threads = value("--max-threads")
                    .parse()
                    .expect("--max-threads takes a number");
                assert!(opts.max_threads >= 1, "--max-threads must be at least 1");
            }
            "--check" => opts.check = true,
            "--out" => opts.out = std::path::PathBuf::from(value("--out")),
            "--help" | "-h" => {
                println!(
                    "usage: shardscale [--scale test|quick|paper] [--seeds N] \
                     [--max-threads N] [--check] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}; try --help"),
        }
    }
    opts
}

/// The sweep's thread counts: powers of two from 1 to `max`, plus
/// `max` itself when it is not a power of two.
fn sweep_points(max: usize) -> Vec<usize> {
    let mut points = Vec::new();
    let mut t = 1usize;
    while t <= max {
        points.push(t);
        t *= 2;
    }
    if *points.last().expect("at least threads=1") != max {
        points.push(max);
    }
    points
}

struct Point {
    threads: usize,
    wall_ms: u64,
    events_per_sec: f64,
    digest_fnv: u64,
}

fn measure(plan: &RunPlan, threads: usize) -> (Point, RunReport) {
    let started = Instant::now();
    let report = plan.run_with_threads(threads);
    let wall_ms = started.elapsed().as_millis().max(1) as u64;
    (
        Point {
            threads,
            wall_ms,
            events_per_sec: report.total_events() as f64 * 1000.0 / wall_ms as f64,
            digest_fnv: report.digest_fnv64(),
        },
        report,
    )
}

fn check(opts: &Options, plan: &RunPlan) -> ExitCode {
    let fail = |why: String| {
        eprintln!("shardscale: {why}");
        ExitCode::FAILURE
    };
    let base = match Baseline::read(&opts.out) {
        Ok(base) => base,
        Err(why) => return fail(why),
    };
    if let Err(why) = base.recorded_with("scale", &opts.scale_name) {
        return fail(why);
    }

    eprintln!("check: running the serial endpoint...");
    let (serial, _) = measure(plan, 1);
    let digest = format!("{:016x}", serial.digest_fnv);
    if let Err(why) = base.digest_matches("digest_fnv", &digest, "the engine") {
        return fail(why);
    }

    eprintln!("check: running the threads={FLOOR_THREADS} endpoint...");
    let (wide, _) = measure(plan, FLOOR_THREADS);
    if wide.digest_fnv != serial.digest_fnv {
        eprintln!(
            "shardscale: threads=1 and threads={FLOOR_THREADS} diverged \
             ({:016x} vs {digest}); the scheduler broke merge invariance",
            wide.digest_fnv
        );
        return ExitCode::FAILURE;
    }

    let speedup = serial.wall_ms as f64 / wide.wall_ms.max(1) as f64;
    let hw = hardware_threads();
    println!(
        "# check: digests identical; threads={FLOOR_THREADS} speedup {speedup:.2}x \
         on {hw} hardware thread(s)"
    );
    if hw >= FLOOR_THREADS {
        if speedup < FLOOR_SPEEDUP {
            eprintln!(
                "shardscale: SCALING REGRESSION — threads={FLOOR_THREADS} speedup \
                 {speedup:.2}x is below the {FLOOR_SPEEDUP:.1}x floor"
            );
            return ExitCode::FAILURE;
        }
    } else {
        println!(
            "# check: scaling floor skipped ({hw} hardware thread(s) < {FLOOR_THREADS}); \
             digest gates still enforced"
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = parse();
    banner(
        "Shard scaling",
        "thread-count sweep of the probe-comparison plan under the work-stealing scheduler",
    );
    let plan = RunPlan::probe_comparison(&opts.scale, opts.seeds);
    if opts.check {
        return check(&opts, &plan);
    }

    let points = sweep_points(opts.max_threads);
    let hw = hardware_threads();
    eprintln!(
        "sweeping {} shards at --scale {} over threads {:?} ({} hardware)...",
        plan.shards.len(),
        opts.scale_name,
        points,
        hw
    );
    let mut curve: Vec<Point> = Vec::with_capacity(points.len());
    let mut events = 0u64;
    for &t in &points {
        eprintln!("  threads={t}...");
        let (point, report) = measure(&plan, t);
        events = report.total_events();
        curve.push(point);
    }
    let serial = &curve[0];
    let digests_identical = curve.iter().all(|p| p.digest_fnv == serial.digest_fnv);
    assert!(
        digests_identical,
        "digest diverged across thread counts — scheduler broke merge invariance"
    );

    let rows: Vec<String> = curve
        .iter()
        .map(|p| {
            let speedup = serial.wall_ms as f64 / p.wall_ms.max(1) as f64;
            format!(
                "    {{\"threads\": {}, \"wall_ms\": {}, \"events_per_sec\": {:.0}, \
                 \"speedup\": {:.2}, \"efficiency\": {:.2}}}",
                p.threads,
                p.wall_ms,
                p.events_per_sec,
                speedup,
                speedup / p.threads as f64
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"shardscale-probe-comparison\",\n  \
         \"scale\": \"{}\",\n  \"shards\": {},\n  \"hardware_threads\": {},\n  \
         \"events\": {},\n  \"digest_fnv\": \"{:016x}\",\n  \
         \"digests_identical\": {},\n  \"floor_threads\": {},\n  \
         \"floor_speedup\": {:.1},\n  \"curve\": [\n{}\n  ]\n}}\n",
        opts.scale_name,
        plan.shards.len(),
        hw,
        events,
        serial.digest_fnv,
        digests_identical,
        FLOOR_THREADS,
        FLOOR_SPEEDUP,
        rows.join(",\n")
    );
    std::fs::write(&opts.out, &json)
        .unwrap_or_else(|e| panic!("writing {}: {e}", opts.out.display()));
    print!("{json}");
    let best = curve
        .iter()
        .min_by_key(|p| p.wall_ms)
        .expect("at least one point");
    println!(
        "# {} events; serial {} ms, best {} ms at threads={} \
         ({:.2}x); digests identical at every point",
        events,
        serial.wall_ms,
        best.wall_ms,
        best.threads,
        serial.wall_ms as f64 / best.wall_ms.max(1) as f64
    );
    ExitCode::SUCCESS
}

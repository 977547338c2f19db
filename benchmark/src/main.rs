//! The repo benchmark: five workloads, end-to-end metrics from an
//! untraced run and a per-layer table from a traced one, every output
//! checked. `README.md` beside this package has the tables and the why.
//!
//! ```text
//! riptide-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! riptide-benchmark [all|repeat] [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! With `--workload` it measures that workload in this process and prints
//! the result line `BENCHMARK.json`'s contract asks for. Without, it runs
//! each workload in a fresh child process: `all` untraced then traced,
//! `repeat` the untraced set twice (failing unless the two agree within
//! every metric's bound).

mod agentkit;
mod bulk;
mod daemon;
mod engine;
mod json;
mod layers;
mod megafleet;
mod metrics;
mod span;
mod stats;
mod sys;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{Bound, Metric, END_TO_END, WORKLOAD_END_TO_END};
use workload::{Outcome, RunArgs, DEFAULT_SEED, WORKLOADS};

/// `run_seconds` in `BENCHMARK.json`: the measuring time of one run.
const DEFAULT_SECONDS: f64 = 20.0;
/// Measuring time under `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;

/// Where reports and traces go: `out/` inside this package.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn expected_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

fn report_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("{workload}-trace{}.json", trace as u8))
}

/// What the command line asked for.
struct Cli {
    mode: String,
    workload: Option<String>,
    args: RunArgs,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        mode: "all".into(),
        workload: None,
        args: RunArgs {
            seed: DEFAULT_SEED,
            seconds: f64::NAN,
            trace: false,
            smoke: false,
        },
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "all" | "repeat" => cli.mode = arg,
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                cli.args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                cli.args.seconds = s;
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--smoke" => cli.args.smoke = true,
            "--help" | "-h" => {
                println!(
                    "usage: riptide-benchmark --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]\n       riptide-benchmark [all|repeat] \
                     [--seed N] [--seconds S] [--smoke]\nworkloads: {}",
                    WORKLOADS.join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}; try --help")),
        }
    }
    if cli.args.seconds.is_nan() {
        cli.args.seconds = if cli.args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; one of {}",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(cli)
}

fn measure(workload: &str, args: &RunArgs) -> Outcome {
    match workload {
        "probe-fleet" => engine::run(engine::Shape::ProbeFleet, args),
        "scenario-matrix" => engine::run(engine::Shape::ScenarioMatrix, args),
        "bulk-bottleneck" => bulk::run(args),
        "megafleet-tick" => megafleet::run(args),
        "daemon-poll" => daemon::run(args),
        other => unreachable!("{other} passed the command-line check"),
    }
}

/// Compares the run's deterministic numbers with `expected.json`.
fn check_expected(workload: &str, args: &RunArgs, out: &mut Outcome) {
    let recorded = std::fs::read_to_string(expected_path())
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text));
    let doc = match recorded {
        Ok(doc) => doc,
        Err(why) => {
            out.problems
                .push(format!("expected.json is unusable: {why}"));
            return;
        }
    };
    if doc.get("seed").and_then(Json::as_f64) != Some(args.seed as f64) {
        return;
    }
    let Some(expected) = doc.get("workloads").and_then(|w| w.get(workload)) else {
        out.problems
            .push(format!("expected.json has no numbers for {workload}"));
        return;
    };
    for (name, got) in &out.facts {
        match expected.get(name).and_then(Json::as_f64) {
            // Simulated results are exact; the tolerance only forgives the
            // last digit of a decimal round trip.
            Some(want) if (got - want).abs() <= 1e-9 * want.abs() => {}
            Some(want) => out
                .problems
                .push(format!("{name} = {got}, expected.json records {want}")),
            None => out
                .problems
                .push(format!("expected.json does not record {name}")),
        }
    }
}

fn metric_json(metric: &Metric, out: &Outcome) -> (String, Json) {
    // The result line must carry every declared metric as a number, so a
    // metric this workload does not enter reads 0 there; the table above
    // it and the report file say "not entered" instead.
    let value = out.values.get(metric.name).copied().unwrap_or(0.0);
    (
        metric.name.to_string(),
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::str(metric.unit)),
        ]),
    )
}

fn print_metrics<'a>(title: &str, list: impl Iterator<Item = &'a Metric>, out: &Outcome) {
    println!("## {title}");
    for metric in list {
        match out.values.get(metric.name) {
            Some(value) => println!(
                "{:<36} {:>18.6} {:<6} ({} is better)",
                metric.name,
                value,
                metric.unit,
                metric.better.word()
            ),
            None => println!(
                "{:<36} {:>18} (not entered by this workload)",
                metric.name, "-"
            ),
        }
    }
}

/// Measures one workload in this process and prints its result line.
fn run_single(workload: &str, cli: &Cli) -> Result<(), String> {
    let args = &cli.args;
    let fingerprint = sys::fingerprint();
    println!(
        "# riptide benchmark: {workload} seed={} seconds={} trace={} smoke={}",
        args.seed, args.seconds, args.trace as u8, args.smoke
    );
    println!("# machine: {fingerprint}");

    let mut out = measure(workload, args);
    if args.trace {
        out.set("bench.calib_ns", sys::calib_ns());
    }
    for metric in &END_TO_END {
        out.require(out.values.contains_key(metric.name), || {
            format!("the workload did not report {}", metric.name)
        });
    }
    if !args.smoke {
        check_expected(workload, args, &mut out);
    }

    std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create out/: {e}"))?;
    if let Some(tracer) = &out.trace {
        let path = out_dir().join(format!("trace-{workload}.jsonl"));
        std::fs::File::create(&path)
            .and_then(|file| tracer.write_jsonl(file))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }

    print_metrics(
        "end-to-end",
        END_TO_END.iter().chain(&WORKLOAD_END_TO_END),
        &out,
    );
    if args.trace {
        print_metrics("per layer", metrics::PER_LAYER.iter(), &out);
        println!("# {}", metrics::NOT_MEASURED);
    }
    for note in &out.notes {
        println!("# {note}");
    }
    let facts = Json::Obj(
        out.facts
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    );
    // As `expected.json` holds them: its line for this workload.
    println!("# facts: {}: {facts}", Json::str(workload));
    println!(
        "# operations: {} attempted, {} failed (fail_share {})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for problem in &out.problems {
        println!("# INCORRECT: {problem}");
    }

    let listed: Vec<&Metric> = if args.trace {
        metrics::traced_metrics().collect()
    } else {
        END_TO_END.iter().collect()
    };
    let result = Json::obj([
        ("correct", Json::Bool(out.problems.is_empty())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::Obj(listed.iter().map(|m| metric_json(m, &out)).collect()),
        ),
    ]);
    let (entered, not_entered): (Vec<&Metric>, Vec<&Metric>) = END_TO_END
        .iter()
        .chain(metrics::traced_metrics())
        .partition(|m| out.values.contains_key(m.name));
    let report = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("fingerprint", fingerprint),
        ("result", result.clone()),
        (
            "metrics",
            Json::Obj(entered.iter().map(|m| metric_json(m, &out)).collect()),
        ),
        (
            "not_entered",
            Json::Arr(not_entered.iter().map(|m| Json::str(m.name)).collect()),
        ),
        ("facts", facts),
        (
            "problems",
            Json::Arr(out.problems.iter().map(Json::str).collect()),
        ),
    ]);
    let path = report_path(workload, args.trace);
    std::fs::write(&path, format!("{report}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{result}");
    Ok(())
}

/// Runs `workload` in a fresh child process and reads its report back.
fn run_child(workload: &str, cli: &Cli, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &cli.args.seed.to_string()])
        .args(["--seconds", &cli.args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.args.smoke {
        command.arg("--smoke");
    }
    let path = report_path(workload, trace);
    // A stale report must not pass for this run's.
    let _ = std::fs::remove_file(&path);
    let status = command
        .status()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    if !status.success() {
        return Err(format!("the {workload} child ended with {status}"));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "the {workload} child left no report at {}: {e}",
            path.display()
        )
    })?;
    let report = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let result = report.get("result");
    let clean = result
        .and_then(|r| r.get("correct"))
        .and_then(Json::as_bool)
        == Some(true)
        && result.and_then(|r| r.get("failed")).and_then(Json::as_f64) == Some(0.0);
    if !clean {
        return Err(format!(
            "{workload} (trace {}) reported incorrect output or failed operations",
            trace as u8
        ));
    }
    Ok(report)
}

fn metric_value(report: &Json, name: &str) -> Option<f64> {
    report.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs every workload once, each in its own child process.
fn run_set(cli: &Cli, trace: bool) -> Result<Vec<Json>, String> {
    WORKLOADS
        .iter()
        .map(|workload| run_child(workload, cli, trace))
        .collect()
}

fn summary<'a>(title: &str, list: impl Iterator<Item = &'a Metric>, reports: &[Json]) {
    println!("\n## {title}");
    print!("{:<40}", "metric");
    for workload in WORKLOADS {
        print!(" {workload:>16}");
    }
    println!();
    for metric in list {
        print!("{:<40}", format!("{} [{}]", metric.name, metric.unit));
        for report in reports {
            match metric_value(report, metric.name) {
                Some(v) => print!(" {v:>16.4}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
}

/// `all`: every workload untraced, then every workload traced.
fn run_all(cli: &Cli) -> Result<(), String> {
    let untraced = run_set(cli, false)?;
    let traced = run_set(cli, true)?;
    summary(
        "end-to-end metrics (untraced runs)",
        END_TO_END.iter().chain(&WORKLOAD_END_TO_END),
        &untraced,
    );
    summary(
        "per-layer metrics (traced runs; - where the workload does not enter the layer)",
        metrics::PER_LAYER.iter(),
        &traced,
    );
    println!("# {}", metrics::NOT_MEASURED);
    println!("\nreports and traces: {}", out_dir().display());
    Ok(())
}

/// Passes per set in `repeat`. One pass against one pass would compare
/// the machine's mood at two moments; the median of three interleaved
/// passes compares the code.
const REPEAT_PASSES: usize = 3;

/// One workload's values of `metric` over a set's passes.
fn set_values(passes: &[Vec<Json>], workload: usize, metric: &str) -> Option<Vec<f64>> {
    passes
        .iter()
        .map(|pass| metric_value(&pass[workload], metric))
        .collect()
}

/// `repeat`: the untraced set twice, each set the median of
/// [`REPEAT_PASSES`] passes, the two sets' passes interleaved; every
/// end-to-end metric of the two sets must agree within its bound. A
/// metric whose passes differ by more than the bound *within* a set is
/// reported as unresolved instead: the machine, not the code, moved it,
/// and three passes cannot tell a change of that size from none.
fn run_repeat(cli: &Cli) -> Result<(), String> {
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for _ in 0..REPEAT_PASSES {
        first.push(run_set(cli, false)?);
        second.push(run_set(cli, false)?);
    }
    println!("\n## agreement of two sets, each the median of {REPEAT_PASSES} passes");
    let (mut disagreements, mut unresolved) = (0, 0);
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for metric in END_TO_END.iter().chain(&WORKLOAD_END_TO_END) {
            let (Some(xs), Some(ys)) = (
                set_values(&first, w, metric.name),
                set_values(&second, w, metric.name),
            ) else {
                continue;
            };
            let (x, y) = (stats::median(&xs), stats::median(&ys));
            let bound = metric.bound.expect("end-to-end metrics are bounded");
            let (allowed, unit) = match bound {
                Bound::Share(share) => (100.0 * share, "%"),
                Bound::Absolute(distance) => (distance, metric.unit),
            };
            // Distance in the bound's terms: a share of `from`, or absolute.
            let distance = |from: f64, to: f64| match bound {
                Bound::Share(_) => 100.0 * (to - from).abs() / from.abs(),
                Bound::Absolute(_) => (to - from).abs(),
            };
            let range = |v: &[f64]| {
                let low = v.iter().copied().fold(f64::INFINITY, f64::min);
                let high = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                distance(low, high)
            };
            let (moved, noise) = (distance(x, y), range(&xs).max(range(&ys)));
            let verdict = if moved <= allowed {
                "ok"
            } else if noise > allowed {
                unresolved += 1;
                "UNRESOLVED"
            } else {
                disagreements += 1;
                "DISAGREES"
            };
            println!(
                "{workload:<18} {:<16} {x:>12.4} {y:>12.4}  moved {moved:>7.3} {unit}, \
                 within a set {noise:>7.3} {unit} (bound {allowed} {unit}) {verdict}",
                metric.name,
            );
        }
    }
    if unresolved > 0 {
        println!(
            "{unresolved} metric(s) unresolved: their passes differ by more than the bound \
             within a set, so this machine cannot resolve the bound today"
        );
    }
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} metric(s) moved by more than their bound between two sets of runs of the same code"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    // Numbers from an unoptimised build describe nothing anyone ships.
    if cfg!(debug_assertions) {
        eprintln!(
            "riptide-benchmark: this is a debug build; the benchmark only measures \
             `--release` builds (cargo run --release --manifest-path benchmark/Cargo.toml)"
        );
        return ExitCode::from(2);
    }
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("riptide-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let done = match (&cli.workload, cli.mode.as_str()) {
        (Some(workload), _) => run_single(workload, &cli),
        (None, "repeat") => run_repeat(&cli),
        (None, _) => run_all(&cli),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("riptide-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

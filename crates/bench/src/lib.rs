//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary accepts the same arguments:
//!
//! ```text
//! --scale test|quick|paper   run size (default: quick)
//! --seed N                   RNG seed override
//! --points N                 CDF resolution when printing series
//! --seeds N                  pool N independent replications
//! --threads N                worker threads (default: RIPTIDE_THREADS
//!                            or all cores)
//! --manifest PATH            write the JSON-lines run manifest here
//! --out PATH                 write the BENCH_*.json summary here
//!                            instead of the checked-in default (CI
//!                            smoke runs point this at a scratch dir
//!                            so baselines stay clean)
//! ```
//!
//! Simulation-backed binaries run through the parallel experiment
//! engine (`riptide_cdn::engine`): work is sharded per (arm × sender ×
//! replicate) and executed on a worker pool, and results are
//! bit-identical whatever the thread count.
//!
//! Output is plain aligned text with a `# comment` header naming the
//! figure, so runs can be diffed and redirected into EXPERIMENTS.md.

#![warn(missing_docs)]

use riptide_cdn::engine::{self, RunPlan, RunReport};
use riptide_cdn::experiment::ExperimentScale;
use riptide_cdn::stats::{Cdf, PercentileGain};

/// Command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The experiment scale.
    pub scale: ExperimentScale,
    /// Points per printed CDF series.
    pub points: usize,
    /// Independent replications (distinct seeds) pooled into one result.
    pub seeds: usize,
    /// Worker threads; `None` defers to `RIPTIDE_THREADS` or the
    /// machine's core count.
    pub threads: Option<usize>,
    /// Where to write the JSON-lines run manifest, if anywhere.
    pub manifest: Option<std::path::PathBuf>,
    /// Override for the binary's `BENCH_*.json` output path; `None`
    /// keeps the checked-in default next to the workspace root.
    pub out: Option<std::path::PathBuf>,
}

/// Parses `std::env::args` into [`RunOptions`].
///
/// # Panics
///
/// Panics with a usage message on unknown flags or malformed values —
/// appropriate for a CLI entry point.
pub fn parse_args() -> RunOptions {
    let mut scale = ExperimentScale::quick();
    let mut points = 20usize;
    let mut seeds = 1usize;
    let mut threads = None;
    let mut manifest = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--scale" => {
                scale = match value("--scale").as_str() {
                    "test" => ExperimentScale::test(),
                    "quick" => ExperimentScale::quick(),
                    "paper" => ExperimentScale::paper(),
                    other => panic!("unknown scale {other:?} (test|quick|paper)"),
                };
            }
            "--seed" => {
                scale.seed = value("--seed").parse().expect("--seed takes a number");
            }
            "--points" => {
                points = value("--points").parse().expect("--points takes a number");
            }
            "--seeds" => {
                seeds = value("--seeds")
                    .parse()
                    .expect("--seeds takes a positive number");
                assert!(seeds >= 1, "--seeds must be at least 1");
            }
            "--threads" => {
                let n: usize = value("--threads")
                    .parse()
                    .expect("--threads takes a positive number");
                assert!(n >= 1, "--threads must be at least 1");
                threads = Some(n);
            }
            "--manifest" => {
                manifest = Some(std::path::PathBuf::from(value("--manifest")));
            }
            "--out" => {
                out = Some(std::path::PathBuf::from(value("--out")));
            }
            "--help" | "-h" => {
                println!(
                    "usage: [--scale test|quick|paper] [--seed N] [--points N] [--seeds N] \
                     [--threads N] [--manifest PATH] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}; try --help"),
        }
    }
    RunOptions {
        scale,
        points,
        seeds,
        threads,
        manifest,
        out,
    }
}

/// The `BENCH_*.json` path a binary should write: the `--out` override
/// when given, else `default` (the checked-in baseline location).
pub fn out_file(opts: &RunOptions, default: &str) -> std::path::PathBuf {
    opts.out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from(default))
}

/// Writes a bench summary to [`out_file`]'s resolution of the path.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_bench_json(opts: &RunOptions, default: &str, json: &str) {
    let path = out_file(opts, default);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// A recorded `BENCH_*.json` baseline, as the `--check` modes read it.
///
/// Bench files are flat — one scalar per line above any per-row
/// arrays — so a string scan suffices (the workspace has no JSON
/// dependency).
#[derive(Debug, Clone)]
pub struct Baseline {
    path: std::path::PathBuf,
    text: String,
}

impl Baseline {
    /// Reads the baseline at `path`; the error names the file.
    pub fn read(path: &std::path::Path) -> Result<Baseline, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Baseline {
                path: path.to_path_buf(),
                text,
            }),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// The value of the first `"key": <value>` line, unquoted.
    pub fn field(&self, key: &str) -> Option<String> {
        let needle = format!("\"{key}\":");
        let start = self.text.find(&needle)? + needle.len();
        let rest = self.text[start..].trim_start();
        let end = rest.find([',', '\n', '}'])?;
        Some(rest[..end].trim().trim_matches('"').to_string())
    }

    /// [`Baseline::field`] parsed as a number.
    pub fn number<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.field(key)?.parse().ok()
    }

    /// Checks this run used the `--{flag}` value the baseline was
    /// recorded with (`scale`, `seeds`): numbers from different plans
    /// are not comparable.
    pub fn recorded_with(&self, flag: &str, got: &str) -> Result<(), String> {
        let want = self.field(flag).unwrap_or_default();
        if want == got {
            return Ok(());
        }
        Err(format!(
            "{} was recorded at --{flag} {want}, this run used --{flag} {got}",
            self.path.display()
        ))
    }

    /// Checks the digest recorded under `key` equals `got`; drift means
    /// the observable behaviour of `what` changed and is always fatal.
    pub fn digest_matches(&self, key: &str, got: &str, what: &str) -> Result<(), String> {
        let want = self.field(key).unwrap_or_default();
        if want == got {
            return Ok(());
        }
        Err(format!(
            "DIGEST DRIFT in {key} — baseline {want}, got {got}; \
             {what}'s observable behaviour changed"
        ))
    }
}

/// The worker-pool size these options resolve to.
pub fn resolved_threads(opts: &RunOptions) -> usize {
    opts.threads.unwrap_or_else(engine::default_threads)
}

/// Executes a plan on the configured worker pool, writing the run
/// manifest when `--manifest` was given.
///
/// # Panics
///
/// Panics if the manifest path cannot be written.
pub fn execute_plan(opts: &RunOptions, plan: &RunPlan) -> RunReport {
    let threads = resolved_threads(opts);
    eprintln!(
        "running {} ({} shards) on {} thread{}...",
        plan.name,
        plan.shards.len(),
        threads,
        if threads == 1 { "" } else { "s" }
    );
    let report = plan.run_with_threads(threads);
    if let Some(path) = &opts.manifest {
        std::fs::write(path, report.manifest_jsonl())
            .unwrap_or_else(|e| panic!("writing manifest {}: {e}", path.display()));
        eprintln!("manifest written to {}", path.display());
    }
    report
}

/// Prints a figure banner.
pub fn banner(figure: &str, what: &str) {
    println!("# {figure}: {what}");
}

/// Prints one CDF as `label, value, cumulative_probability` rows.
pub fn print_cdf_series(label: &str, cdf: &Cdf, points: usize) {
    if cdf.is_empty() {
        println!("{label:>16}  (no samples)");
        return;
    }
    for (value, p) in cdf.series(points) {
        println!("{label:>16}  {value:>12.2}  {p:>6.3}");
    }
}

/// Prints a one-line summary of a CDF.
pub fn print_cdf_summary(label: &str, cdf: &Cdf) {
    if cdf.is_empty() {
        println!("{label:>16}  (no samples)");
        return;
    }
    println!(
        "{label:>16}  n={:<7} min={:<10.2} p25={:<10.2} p50={:<10.2} p75={:<10.2} p90={:<10.2} max={:<10.2}",
        cdf.len(),
        cdf.min(),
        cdf.quantile(0.25),
        cdf.quantile(0.50),
        cdf.quantile(0.75),
        cdf.quantile(0.90),
        cdf.max()
    );
}

/// Prints a Fig. 15/16-style gain table.
pub fn print_gain_table(label: &str, gains: &[PercentileGain]) {
    println!("# {label}");
    println!(
        "{:>10} {:>14} {:>14} {:>9}",
        "percentile", "control_ms", "riptide_ms", "gain_%"
    );
    for g in gains {
        println!(
            "{:>10} {:>14.1} {:>14.1} {:>9.1}",
            g.percentile,
            g.baseline,
            g.treated,
            g.gain * 100.0
        );
    }
}

/// Runs the paired probe experiment through the parallel engine —
/// sharded per (arm × sender × replicate), seed-paired across arms —
/// and pools the outcomes.
pub fn pooled_probe_comparison(opts: &RunOptions) -> riptide_cdn::experiment::ProbeComparison {
    let plan = RunPlan::probe_comparison(&opts.scale, opts.seeds as u32);
    execute_plan(opts, &plan).comparison()
}

/// Runs the paired probe experiment and prints a Figs. 12–14-style
/// report for one probe size: per sender PoP, per RTT bucket, control vs
/// Riptide completion-time CDF summaries.
pub fn run_probe_time_figure(opts: &RunOptions, size: u64, figure: &str, paper_note: &str) {
    use riptide_cdn::experiment::{completion_by_bucket, probe_sender_sites};

    banner(
        figure,
        &format!(
            "{} KB probe completion times by destination RTT bucket",
            size / 1000
        ),
    );
    eprintln!("running control and riptide arms...");
    let cmp = pooled_probe_comparison(opts);
    let senders = probe_sender_sites(&opts.scale);
    for &sender in &senders {
        let ctl = completion_by_bucket(&cmp.control, sender, size);
        let rip = completion_by_bucket(&cmp.riptide, sender, size);
        println!("\n## sender site {sender}");
        println!(
            "{:>12} {:>10} {:>9} {:>10} {:>10} {:>10}",
            "bucket", "arm", "n", "p50_ms", "p75_ms", "p90_ms"
        );
        for (bucket, cdf) in &ctl {
            print_bucket_row(&bucket.to_string(), "control", cdf);
            if let Some(r) = rip.get(bucket) {
                print_bucket_row(&bucket.to_string(), "riptide", r);
            }
        }
    }
    println!("\n# paper: {paper_note}");
}

fn print_bucket_row(bucket: &str, arm: &str, cdf: &Cdf) {
    if cdf.is_empty() {
        println!("{bucket:>12} {arm:>10}  (no samples)");
        return;
    }
    println!(
        "{:>12} {:>10} {:>9} {:>10.1} {:>10.1} {:>10.1}",
        bucket,
        arm,
        cdf.len(),
        cdf.median(),
        cdf.quantile(0.75),
        cdf.quantile(0.90)
    );
}

/// Runs the paired probe experiment and prints a Figs. 15/16-style
/// per-percentile gain report for one probe size, for both sender PoPs.
pub fn run_gain_figure(opts: &RunOptions, size: u64, figure: &str, paper_note: &str) {
    use riptide_cdn::experiment::{gain_by_percentile, probe_sender_sites};

    banner(
        figure,
        &format!(
            "fraction of completion-time gain by percentile, {} KB probes",
            size / 1000
        ),
    );
    eprintln!("running control and riptide arms...");
    let cmp = pooled_probe_comparison(opts);
    for &sender in &probe_sender_sites(&opts.scale) {
        let gains = gain_by_percentile(&cmp, sender, size);
        print_gain_table(&format!("sender site {sender}"), &gains);
        let best = gains
            .iter()
            .max_by(|a, b| a.gain.total_cmp(&b.gain))
            .expect("non-empty gain table");
        println!(
            "# best gain {:.1}% at p{}\n",
            best.gain * 100.0,
            best.percentile
        );
    }
    println!("# paper: {paper_note}");
}

/// Log-spaced file sizes between `lo` and `hi` bytes, inclusive.
pub fn log_spaced_sizes(lo: u64, hi: u64, points: usize) -> Vec<u64> {
    assert!(lo > 0 && hi > lo && points >= 2, "bad sweep bounds");
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    (0..points)
        .map(|i| (l + (h - l) * i as f64 / (points - 1) as f64).exp().round() as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_spacing_endpoints_and_monotonicity() {
        let s = log_spaced_sizes(1_000, 10_000_000, 9);
        assert_eq!(s.len(), 9);
        assert_eq!(s[0], 1_000);
        assert_eq!(*s.last().unwrap(), 10_000_000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn baseline_reads_flat_fields_and_compares() {
        let dir = std::env::temp_dir().join(format!("riptide-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_x.json");
        std::fs::write(
            &path,
            "{\n  \"scale\": \"quick\",\n  \"seeds\": 2,\n  \"events_per_sec\": 6800000,\n  \
             \"digest_fnv\": \"00ff\",\n  \"rows\": [\n    {\"rate\": 0.05, \"last\": 1}\n  ]\n}\n",
        )
        .unwrap();
        let b = Baseline::read(&path).unwrap();
        assert_eq!(b.field("scale").as_deref(), Some("quick"));
        assert_eq!(b.number::<u32>("seeds"), Some(2));
        assert_eq!(b.number::<f64>("events_per_sec"), Some(6.8e6));
        assert_eq!(b.field("last").as_deref(), Some("1"));
        assert_eq!(b.field("absent"), None);
        assert!(b.recorded_with("scale", "quick").is_ok());
        assert!(b
            .recorded_with("seeds", "3")
            .unwrap_err()
            .contains("--seeds 2"));
        assert!(b.digest_matches("digest_fnv", "00ff", "x").is_ok());
        assert!(b
            .digest_matches("digest_fnv", "00fe", "x")
            .unwrap_err()
            .contains("DIGEST DRIFT"));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(Baseline::read(&path).unwrap_err().contains("cannot read"));
    }

    #[test]
    #[should_panic(expected = "bad sweep bounds")]
    fn log_spacing_rejects_degenerate() {
        let _ = log_spaced_sizes(10, 10, 5);
    }
}

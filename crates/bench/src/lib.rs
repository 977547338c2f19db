//! Shared plumbing for the experiment driver, `riptide-bench`.
//!
//! One binary regenerates every figure, table and outcome record:
//!
//! ```text
//! cargo run --release -p riptide-bench -- <experiment> [flags]
//! cargo run --release -p riptide-bench -- --list
//! ```
//!
//! and every experiment takes the same flags, parsed once, here:
//!
//! ```text
//! --scale test|quick|paper   run size (default: quick; a record-bearing
//!                            family defaults to its record's scale)
//! --seed N                   RNG seed override
//! --points N                 CDF resolution when printing series
//! --seeds N                  pool N independent replications
//! --threads N                worker threads (default: RIPTIDE_THREADS
//!                            or all cores)
//! --manifest PATH            write the JSON-lines run manifest here
//! --check                    compare against the experiment's checked-in
//!                            BENCH_*.json instead of rewriting it
//! --out PATH                 read (--check) or write the BENCH_*.json
//!                            here instead of the checked-in location
//! ```
//!
//! An experiment ignores the flags that mean nothing to it (`fig09`
//! draws a map whatever the scale).
//!
//! Simulation-backed experiments run through the parallel experiment
//! engine (`riptide_cdn::engine`): work is sharded per (arm × sender ×
//! replicate) and executed on a worker pool, and results are
//! bit-identical whatever the thread count.
//!
//! Output is plain aligned text with a `# comment` header naming the
//! figure, so runs can be diffed and redirected into EXPERIMENTS.md.

#![warn(missing_docs)]

use std::path::PathBuf;

use riptide_cdn::engine::{self, RunPlan, RunReport};
use riptide_cdn::experiment::ExperimentScale;
use riptide_cdn::sim::ProbeOutcome;
use riptide_cdn::stats::{Cdf, PercentileGain};

/// The flag summary `--help` prints.
pub const USAGE: &str = "[--scale test|quick|paper] [--seed N] [--points N] [--seeds N] \
                         [--threads N] [--manifest PATH] [--check] [--out PATH]";

/// What running an experiment returns. `Err` is the one-line reason a
/// `--check` comparison or a measured gate failed, which the driver
/// prints before exiting non-zero; a claim the experiment asserts of
/// its own results panics instead.
pub type Outcome = Result<(), String>;

/// Command-line options shared by every experiment.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The `--scale` name (`test`, `quick` or `paper`): outcome records
    /// carry it, and `megacdn` sizes its fleet from it.
    pub scale_name: String,
    /// The experiment scale that name selects, `--seed` applied.
    pub scale: ExperimentScale,
    /// Points per printed CDF series.
    pub points: usize,
    /// Independent replications (distinct seeds) pooled into one result.
    pub seeds: u32,
    /// Worker threads; `None` defers to `RIPTIDE_THREADS` or the
    /// machine's core count.
    pub threads: Option<usize>,
    /// Where to write the JSON-lines run manifest, if anywhere.
    pub manifest: Option<PathBuf>,
    /// Compare against the recorded `BENCH_*.json` instead of rewriting
    /// it.
    pub check: bool,
    /// Override for the experiment's `BENCH_*.json` path; `None` keeps
    /// the checked-in default next to the workspace root.
    pub out: Option<PathBuf>,
}

/// Parses an experiment's arguments (everything after its name) into
/// [`RunOptions`]; `default_scale` and `default_seeds` apply when
/// `--scale` / `--seeds` are absent.
///
/// # Panics
///
/// Panics with a usage message on unknown flags or malformed values —
/// appropriate for a CLI entry point.
pub fn parse_args(
    mut args: impl Iterator<Item = String>,
    default_scale: &str,
    default_seeds: u32,
) -> RunOptions {
    let mut scale_name = default_scale.to_string();
    let mut seed = None;
    let mut points = 20usize;
    let mut seeds = default_seeds;
    let mut threads = None;
    let mut manifest = None;
    let mut check = false;
    let mut out = None;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--scale" => scale_name = value("--scale"),
            "--seed" => {
                seed = Some(value("--seed").parse().expect("--seed takes a number"));
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
            "--manifest" => manifest = Some(PathBuf::from(value("--manifest"))),
            "--check" => check = true,
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--help" | "-h" => {
                println!("usage: riptide-bench <experiment> {USAGE}");
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?}; try --help"),
        }
    }
    let mut scale = match scale_name.as_str() {
        "test" => ExperimentScale::test(),
        "quick" => ExperimentScale::quick(),
        "paper" => ExperimentScale::paper(),
        other => panic!("unknown scale {other:?} (test|quick|paper)"),
    };
    if let Some(seed) = seed {
        scale.seed = seed;
    }
    RunOptions {
        scale_name,
        scale,
        points,
        seeds,
        threads,
        manifest,
        check,
        out,
    }
}

/// A `BENCH_*.json` outcome record: written by a default run, read back
/// by `--check`.
///
/// Records are flat — one scalar per line above one array of one-line
/// rows — so a string scan reads them and string pushes write them (the
/// workspace has no JSON dependency). Reader and writer are each
/// other's inverse: [`Baseline::field`] returns what [`Baseline::push`]
/// was given.
#[derive(Debug, Clone)]
pub struct Baseline {
    path: PathBuf,
    text: String,
}

impl Baseline {
    /// The record at `default`, or at the `--out` override when given.
    fn path(opts: &RunOptions, default: &str) -> PathBuf {
        opts.out.clone().unwrap_or_else(|| PathBuf::from(default))
    }

    /// Reads the recorded baseline; the error names the file.
    pub fn read(opts: &RunOptions, default: &str) -> Result<Baseline, String> {
        let path = Baseline::path(opts, default);
        match std::fs::read_to_string(&path) {
            Ok(text) => Ok(Baseline { path, text }),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }

    /// Starts an empty record destined for the same path
    /// [`Baseline::read`] would read.
    pub fn create(opts: &RunOptions, default: &str) -> Baseline {
        Baseline {
            path: Baseline::path(opts, default),
            text: "{\n}\n".into(),
        }
    }

    /// Appends one `"key": value` line. `value` is rendered JSON: a
    /// number or `true` as is, a string through [`quoted`].
    pub fn push(&mut self, key: &str, value: impl std::fmt::Display) {
        let close = self.text.rfind("\n}").expect("a record ends with `}`");
        let comma = if close == 1 { "" } else { "," };
        self.text
            .replace_range(close.., &format!("{comma}\n  \"{key}\": {value}\n}}\n"));
    }

    /// Appends the record's array of one-line row objects.
    pub fn push_rows(&mut self, key: &str, rows: &[String]) {
        let rows: Vec<String> = rows.iter().map(|row| format!("    {row}")).collect();
        self.push(key, format!("[\n{}\n  ]", rows.join(",\n")));
    }

    /// Writes the record to its path.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn save(&self) {
        std::fs::write(&self.path, &self.text)
            .unwrap_or_else(|e| panic!("writing {}: {e}", self.path.display()));
    }

    /// The record's JSON text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The value of the first `"key": <value>` line, unquoted.
    pub fn field(&self, key: &str) -> Option<String> {
        let needle = format!("\"{key}\":");
        let start = self.text.find(&needle)? + needle.len();
        let rest = self.text[start..].trim_start();
        let end = rest.find([',', '\n', '}'])?;
        Some(rest[..end].trim().trim_matches('"').to_string())
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

/// `text` as a JSON string value for [`Baseline::push`].
pub fn quoted(text: &str) -> String {
    format!("\"{text}\"")
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

/// Runs the fault-free paired probe comparison at these options' scale
/// and seeds: the reference every sweep's neutrality claim
/// ([`assert_same_probes`]) compares against. It writes no manifest —
/// `--manifest` names the experiment's own plan.
pub fn reference_probe_run(opts: &RunOptions) -> RunReport {
    eprintln!("running the fault-free probe comparison for reference...");
    RunPlan::probe_comparison(&opts.scale, opts.seeds).run_with_threads(resolved_threads(opts))
}

/// The neutrality claim: arm `arm` of `report` reproduced arm
/// `reference_arm` of `reference` outcome for outcome. A sweep's
/// zero-rate arms, an arena's default-policy arm and a matrix's
/// all-knobs-off cell make it against [`reference_probe_run`] — the
/// machinery they add must cost nothing until it is switched on — and
/// bookkeeping-only arms make it against a sibling arm of their own
/// report.
///
/// # Panics
///
/// Panics, naming `claim`, when the two arms' merged probes differ.
pub fn assert_same_probes(
    report: &RunReport,
    arm: u32,
    reference: &RunReport,
    reference_arm: u32,
    claim: &str,
) {
    assert!(
        report.merged_probes(arm) == reference.merged_probes(reference_arm),
        "{claim}: arm {arm} of {} is not bit-identical to arm {reference_arm} of {}",
        report.plan_name,
        reference.plan_name
    );
}

/// Median completion time (ms) of the `size`-byte probes among
/// `probes`, if there are any.
pub fn median_ms(probes: &[ProbeOutcome], size: u64) -> Option<f64> {
    let cdf = Cdf::new(
        probes
            .iter()
            .filter(|p| p.size == size)
            .map(|p| p.completion.as_millis_f64()),
    );
    (!cdf.is_empty()).then(|| cdf.median())
}

/// Per probe size, the median-completion gain (%) of `treated` over its
/// paired `control` arm — positive is faster. Sizes either arm has no
/// sample of are skipped.
pub fn gains_pct(control: &[ProbeOutcome], treated: &[ProbeOutcome], sizes: &[u64]) -> Vec<f64> {
    let mut gains = Vec::new();
    for &size in sizes {
        if let (Some(c), Some(t)) = (median_ms(control, size), median_ms(treated, size)) {
            gains.push((c - t) / c * 100.0);
        }
    }
    gains
}

/// The arithmetic mean, 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Mean over probe sizes of [`gains_pct`]. Its negation is the mean
/// *harm* of `treated` relative to `control`.
pub fn mean_gain_pct(control: &[ProbeOutcome], treated: &[ProbeOutcome], sizes: &[u64]) -> f64 {
    mean(&gains_pct(control, treated, sizes))
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
    let plan = RunPlan::probe_comparison(&opts.scale, opts.seeds);
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

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(String::from)
    }

    #[test]
    fn log_spacing_endpoints_and_monotonicity() {
        let s = log_spaced_sizes(1_000, 10_000_000, 9);
        assert_eq!(s.len(), 9);
        assert_eq!(s[0], 1_000);
        assert_eq!(*s.last().unwrap(), 10_000_000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn parser_applies_defaults_and_remembers_the_scale_name() {
        let opts = parse_args(args(""), "test", 2);
        assert_eq!((opts.scale_name.as_str(), opts.seeds), ("test", 2));
        assert_eq!(opts.scale.sites, ExperimentScale::test().sites);
        assert!(!opts.check && opts.threads.is_none() && opts.out.is_none());

        // `--seed` survives a later `--scale`: flags are order-free.
        let opts = parse_args(
            args("--seed 7 --scale quick --seeds 3 --check --threads 2"),
            "test",
            2,
        );
        assert_eq!((opts.scale_name.as_str(), opts.seeds), ("quick", 3));
        assert_eq!(opts.scale.sites, ExperimentScale::quick().sites);
        assert_eq!(opts.scale.seed, 7);
        assert!(opts.check);
        assert_eq!(opts.threads, Some(2));
    }

    #[test]
    #[should_panic(expected = "unknown argument \"--record-seed\"")]
    fn parser_rejects_a_retired_flag() {
        let _ = parse_args(args("--record-seed"), "quick", 1);
    }

    #[test]
    fn baseline_reads_back_what_it_wrote_and_compares() {
        let dir = std::env::temp_dir().join(format!("riptide-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_x.json");
        let opts = parse_args(args(&format!("--out {}", path.display())), "quick", 2);

        let mut written = Baseline::create(&opts, "BENCH_unused.json");
        written.push("scale", quoted(&opts.scale_name));
        written.push("seeds", opts.seeds);
        written.push("digest_fnv", quoted("00ff"));
        written.push("holds", true);
        written.push_rows(
            "rows",
            &["{\"rate\": 0.05, \"last\": 1}".into(), "{}".into()],
        );
        assert_eq!(
            written.text(),
            "{\n  \"scale\": \"quick\",\n  \"seeds\": 2,\n  \"digest_fnv\": \"00ff\",\n  \
             \"holds\": true,\n  \"rows\": [\n    {\"rate\": 0.05, \"last\": 1},\n    {}\n  ]\n}\n"
        );
        written.save();

        let b = Baseline::read(&opts, "BENCH_unused.json").unwrap();
        assert_eq!(b.text(), written.text());
        assert_eq!(b.field("scale").as_deref(), Some("quick"));
        assert_eq!(b.field("seeds").as_deref(), Some("2"));
        assert_eq!(b.field("holds").as_deref(), Some("true"));
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
        assert!(Baseline::read(&opts, "BENCH_unused.json")
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    #[should_panic(expected = "bad sweep bounds")]
    fn log_spacing_rejects_degenerate() {
        let _ = log_spaced_sizes(10, 10, 5);
    }
}

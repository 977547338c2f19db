//! `riptide-bench <experiment> [flags]` — the one experiment driver.
//!
//! Every figure, table, study and outcome record of the reproduction is
//! a row of a table below: adding an experiment means adding a function
//! and its row. `--list` prints the rows; the flags are the same for
//! every experiment and documented in the library's header.

use std::process::ExitCode;

use riptide_bench::{
    parse_args, run_gain_figure, run_probe_time_figure, Outcome, RunOptions, USAGE,
};

mod families;
mod figures;
mod megacdn;
mod studies;

/// One experiment that prints its table and is done. The sweeps that
/// also keep a checked-in outcome record share one driver and are rows
/// of [`families::FAMILIES`] instead.
struct Experiment {
    name: &'static str,
    about: &'static str,
    run: Run,
}

/// What a row runs. Figs. 12–16 each print one of two reports of the
/// paired probe comparison at one probe size; `paper` is what the paper
/// reads off the figure.
enum Run {
    /// A function that prints its own table.
    Own(fn(&RunOptions) -> Outcome),
    /// Figs. 12–14: completion times by destination RTT bucket.
    ProbeTimes { size: u64, paper: &'static str },
    /// Figs. 15–16: completion-time gain by percentile.
    Gains { size: u64, paper: &'static str },
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig02",
        about: "Fig. 2: file size distribution",
        run: Run::Own(figures::fig02),
    },
    Experiment {
        name: "fig03",
        about: "Fig. 3: RTTs needed per initcwnd",
        run: Run::Own(figures::fig03),
    },
    Experiment {
        name: "fig04",
        about: "Fig. 4: theoretical RTT gains",
        run: Run::Own(figures::fig04),
    },
    Experiment {
        name: "fig05",
        about: "Fig. 5: inter-PoP RTT distribution",
        run: Run::Own(figures::fig05),
    },
    Experiment {
        name: "fig06",
        about: "Fig. 6: 100 KB transfer-time model",
        run: Run::Own(figures::fig06),
    },
    Experiment {
        name: "fig09",
        about: "Fig. 9: ASCII map of the PoPs",
        run: Run::Own(figures::fig09),
    },
    Experiment {
        name: "fig10",
        about: "Fig. 10: live-cwnd CDFs, c_max sweep",
        run: Run::Own(figures::fig10),
    },
    Experiment {
        name: "fig11",
        about: "Fig. 11: probe-only vs busy PoP windows",
        run: Run::Own(figures::fig11),
    },
    Experiment {
        name: "fig12",
        about: "Fig. 12: 10 KB probe times by RTT bucket",
        run: Run::ProbeTimes {
            size: 10_000,
            paper: "10KB probes show no change — they already fit in the default window of 10",
        },
    },
    Experiment {
        name: "fig13",
        about: "Fig. 13: 50 KB probe times by RTT bucket",
        run: Run::ProbeTimes {
            size: 50_000,
            paper: "50KB probes: transfer times decrease for ~30% of connections; \
                    gaps widen with destination RTT",
        },
    },
    Experiment {
        name: "fig14",
        about: "Fig. 14: 100 KB probe times by RTT bucket",
        run: Run::ProbeTimes {
            size: 100_000,
            paper: "100KB probes achieve gains across ~78% of observed connections; \
                    Riptide flows regularly complete an RTT sooner",
        },
    },
    Experiment {
        name: "fig15",
        about: "Fig. 15: gain by percentile, 50 KB",
        run: Run::Gains {
            size: 50_000,
            paper: "50KB probes: p5–p60 nearly unchanged; upper percentiles gain up to 30% (EU) / 21% (NA)",
        },
    },
    Experiment {
        name: "fig16",
        about: "Fig. 16: gain by percentile, 100 KB",
        run: Run::Gains {
            size: 100_000,
            paper: "100KB probes: gains reach lower percentiles (p30+ EU, all NA), up to ~25%",
        },
    },
    Experiment {
        name: "table01",
        about: "Table I: parameters, plus the Fig. 7/8 demo",
        run: Run::Own(figures::table01),
    },
    Experiment {
        name: "table02",
        about: "Table II: PoPs per continent",
        run: Run::Own(figures::table02),
    },
    Experiment {
        name: "edge_cases",
        about: "§IV-D: best/worst-case completion change",
        run: Run::Own(figures::edge_cases),
    },
    Experiment {
        name: "ablation",
        about: "§III-B design and stack ablations",
        run: Run::Own(studies::ablation),
    },
    Experiment {
        name: "convergence",
        about: "learned-state warm-up curve from a cold start",
        run: Run::Own(studies::convergence),
    },
    Experiment {
        name: "kernel_mode",
        about: "§V: kernel events vs userspace polling",
        run: Run::Own(studies::kernel_mode),
    },
    Experiment {
        name: "megacdn",
        about: "million-prefix destination-table gate (BENCH_megacdn.json)",
        run: Run::Own(megacdn::megacdn),
    },
];

/// Every experiment's name and one-line description, table order.
fn catalogue() -> String {
    let plain = EXPERIMENTS.iter().map(|e| (e.name, e.about.to_string()));
    let families = families::FAMILIES
        .iter()
        .map(|f| (f.name, format!("{} ({})", f.about, f.record)));
    plain
        .chain(families)
        .map(|(name, about)| format!("  {name:<13} {about}\n"))
        .collect()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "--help".into());
    let outcome = if let Some(family) = families::FAMILIES.iter().find(|f| f.name == name) {
        families::drive(family, &parse_args(args, family.scale, family.seeds))
    } else if let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == name) {
        let opts = parse_args(args, "quick", 1);
        // The banner's title: "fig12" is "Figure 12".
        let figure = || format!("Figure {}", &experiment.name[3..]);
        match experiment.run {
            Run::Own(run) => run(&opts),
            Run::ProbeTimes { size, paper } => run_probe_time_figure(&opts, size, &figure(), paper),
            Run::Gains { size, paper } => run_gain_figure(&opts, size, &figure(), paper),
        }
    } else if name == "--list" {
        print!("{}", catalogue());
        Ok(())
    } else if name == "--help" || name == "-h" {
        println!("usage: riptide-bench <experiment> {USAGE}\n       riptide-bench --list");
        print!("experiments:\n{}", catalogue());
        Ok(())
    } else {
        eprint!(
            "unknown experiment {name:?}; the experiments are:\n{}",
            catalogue()
        );
        return ExitCode::from(2);
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{name}: {why}");
            ExitCode::FAILURE
        }
    }
}

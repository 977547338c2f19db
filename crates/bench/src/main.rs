//! `riptide-bench <experiment> [flags]` — the one experiment driver.
//!
//! Every figure, table, study and outcome record of the reproduction is
//! a row of a table below: adding an experiment means adding a function
//! and its row. `--list` prints the rows; the flags are the same for
//! every experiment and documented in the library's header.

use std::process::ExitCode;

use riptide_bench::{parse_args, Outcome, RunOptions, USAGE};

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
    run: fn(&RunOptions) -> Outcome,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig02",
        about: "Fig. 2: file size distribution",
        run: figures::fig02,
    },
    Experiment {
        name: "fig03",
        about: "Fig. 3: RTTs needed per initcwnd",
        run: figures::fig03,
    },
    Experiment {
        name: "fig04",
        about: "Fig. 4: theoretical RTT gains",
        run: figures::fig04,
    },
    Experiment {
        name: "fig05",
        about: "Fig. 5: inter-PoP RTT distribution",
        run: figures::fig05,
    },
    Experiment {
        name: "fig06",
        about: "Fig. 6: 100 KB transfer-time model",
        run: figures::fig06,
    },
    Experiment {
        name: "fig09",
        about: "Fig. 9: ASCII map of the PoPs",
        run: figures::fig09,
    },
    Experiment {
        name: "fig10",
        about: "Fig. 10: live-cwnd CDFs, c_max sweep",
        run: figures::fig10,
    },
    Experiment {
        name: "fig11",
        about: "Fig. 11: probe-only vs busy PoP windows",
        run: figures::fig11,
    },
    Experiment {
        name: "fig12",
        about: "Fig. 12: 10 KB probe times by RTT bucket",
        run: figures::fig12,
    },
    Experiment {
        name: "fig13",
        about: "Fig. 13: 50 KB probe times by RTT bucket",
        run: figures::fig13,
    },
    Experiment {
        name: "fig14",
        about: "Fig. 14: 100 KB probe times by RTT bucket",
        run: figures::fig14,
    },
    Experiment {
        name: "fig15",
        about: "Fig. 15: gain by percentile, 50 KB",
        run: figures::fig15,
    },
    Experiment {
        name: "fig16",
        about: "Fig. 16: gain by percentile, 100 KB",
        run: figures::fig16,
    },
    Experiment {
        name: "table01",
        about: "Table I: parameters, plus the Fig. 7/8 demo",
        run: figures::table01,
    },
    Experiment {
        name: "table02",
        about: "Table II: PoPs per continent",
        run: figures::table02,
    },
    Experiment {
        name: "edge_cases",
        about: "§IV-D: best/worst-case completion change",
        run: figures::edge_cases,
    },
    Experiment {
        name: "ablation",
        about: "§III-B design and stack ablations",
        run: studies::ablation,
    },
    Experiment {
        name: "convergence",
        about: "learned-state warm-up curve from a cold start",
        run: studies::convergence,
    },
    Experiment {
        name: "kernel_mode",
        about: "§V: kernel events vs userspace polling",
        run: studies::kernel_mode,
    },
    Experiment {
        name: "chaos",
        about: "gain survival under injected infrastructure faults",
        run: studies::chaos,
    },
    Experiment {
        name: "megacdn",
        about: "million-prefix destination-table gate (BENCH_megacdn.json)",
        run: megacdn::megacdn,
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
        (experiment.run)(&parse_args(args, "quick", 1))
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

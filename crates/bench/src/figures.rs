//! The paper's own evidence: Figs. 2–6, 9–11, Tables I–II and the §IV-D
//! edge-case analysis, one function per figure. Figs. 12–16 share two
//! reports in the library and are rows of the driver's table.

use riptide::model::{rtt_gain, rtts_for_bytes, transfer_time, DEFAULT_MSS};
use riptide::prelude::*;
use riptide_bench::{
    banner, execute_plan, log_spaced_sizes, pooled_probe_comparison, print_cdf_series,
    print_cdf_summary, Outcome, RunOptions,
};
use riptide_cdn::engine::RunPlan;
use riptide_cdn::experiment::{edge_cases as edge_case_rows, probe_sender_sites};
use riptide_cdn::geo::{all_pair_rtts, continent_counts, Continent, POP_SITES};
use riptide_cdn::stats::Cdf;
use riptide_cdn::workload::FileSizeDist;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::rng::DetRng;
use riptide_simnet::time::SimTime;

/// Draws from the Fig. 2 distribution behind Figs. 2 and 3.
const FILE_SAMPLES: usize = 200_000;

fn sampled_file_sizes(dist: &FileSizeDist, seed: u64) -> Vec<u64> {
    let mut rng = DetRng::from_seed(seed);
    (0..FILE_SAMPLES).map(|_| dist.sample(&mut rng)).collect()
}

/// Figure 2: distribution of file sizes in a production CDN network.
///
/// Prints the fitted lognormal's theoretical CDF alongside an empirical
/// CDF of drawn samples, plus the headline claim: 54% of files exceed the
/// capacity of the default 10-segment initial window.
pub fn fig02(opts: &RunOptions) -> Outcome {
    banner("Figure 2", "file size distribution of a production CDN");
    let dist = FileSizeDist::fig2();
    let mut samples = sampled_file_sizes(&dist, opts.scale.seed);
    samples.sort_unstable();

    println!("{:>12} {:>12} {:>12}", "bytes", "cdf_theory", "cdf_sampled");
    for size in log_spaced_sizes(200, 10_000_000, opts.points) {
        let theory = dist.cdf(size);
        let empirical = samples.partition_point(|&s| s <= size) as f64 / FILE_SAMPLES as f64;
        println!("{size:>12} {theory:>12.4} {empirical:>12.4}");
    }

    let over_15k = 1.0 - dist.cdf(15_000);
    println!("\n# paper: 54% of files are too large for the default window of 10");
    println!("# measured: {:.1}% of files exceed 15 KB", over_15k * 100.0);
    Ok(())
}

/// Figure 3: CDF of the number of RTTs needed to transfer files of the
/// Fig. 2 size distribution, for initial windows 10, 25, 50 and 100.
pub fn fig03(opts: &RunOptions) -> Outcome {
    banner(
        "Figure 3",
        "RTTs needed to transfer files of the Fig. 2 distribution (lossless model)",
    );
    let sizes = sampled_file_sizes(&FileSizeDist::fig2(), opts.scale.seed);

    let windows = [10u32, 25, 50, 100];
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10}",
        "rtts<=", "iw10", "iw25", "iw50", "iw100"
    );
    let mut first_rtt = [0.0f64; 4];
    for max_rtts in 1..=8u32 {
        let row = windows.map(|iw| {
            sizes
                .iter()
                .filter(|&&s| rtts_for_bytes(s, DEFAULT_MSS, iw) <= max_rtts)
                .count() as f64
                / FILE_SAMPLES as f64
        });
        if max_rtts == 1 {
            first_rtt = row;
        }
        println!(
            "{:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            max_rtts, row[0], row[1], row[2], row[3]
        );
    }

    println!("\n# paper: window 50 lets 31% more files complete in the first RTT than window 10;");
    println!("#        window 100 leaves only ~15% needing more than one RTT");
    println!(
        "# measured: one-RTT fraction iw10={:.1}% iw50={:.1}% (+{:.1}pp), iw100 leaves {:.1}%",
        first_rtt[0] * 100.0,
        first_rtt[2] * 100.0,
        (first_rtt[2] - first_rtt[0]) * 100.0,
        (1.0 - first_rtt[3]) * 100.0
    );
    Ok(())
}

/// Figure 4: theoretical gain (percentage reduction in RTTs) from using
/// initcwnd 25, 50 or 100 instead of the default 10, across file sizes.
pub fn fig04(opts: &RunOptions) -> Outcome {
    banner(
        "Figure 4",
        "reduction in RTTs vs the default initcwnd of 10, by file size",
    );
    println!(
        "{:>12} {:>10} {:>10} {:>10}",
        "bytes", "iw25_gain%", "iw50_gain%", "iw100_gain%"
    );
    let mut peak: (u64, f64) = (0, 0.0);
    for size in log_spaced_sizes(1_000, 10_000_000, opts.points.max(24)) {
        let g25 = rtt_gain(size, DEFAULT_MSS, 25, 10) * 100.0;
        let g50 = rtt_gain(size, DEFAULT_MSS, 50, 10) * 100.0;
        let g100 = rtt_gain(size, DEFAULT_MSS, 100, 10) * 100.0;
        if g100 > peak.1 {
            peak = (size, g100);
        }
        println!("{size:>12} {g25:>10.1} {g50:>10.1} {g100:>10.1}");
    }
    println!("\n# paper: primary improvements between 15KB and 1000KB, then diminishing");
    println!(
        "# measured: peak iw100 gain {:.1}% at {} bytes",
        peak.1, peak.0
    );
    Ok(())
}

/// Figure 5: RTT variation between the globally deployed datacenters —
/// 50% of links have an RTT above 125 ms.
pub fn fig05(opts: &RunOptions) -> Outcome {
    banner(
        "Figure 5",
        "inter-PoP RTT distribution of the 34-PoP footprint",
    );
    let rtts = all_pair_rtts();
    let cdf = Cdf::new(rtts.iter().map(|r| r.as_millis_f64()));
    println!("{:>16} {:>12} {:>7}", "series", "rtt_ms", "cdf");
    print_cdf_series("all-pairs", &cdf, opts.points);
    println!("\n# paper: 50% of links have an RTT > 125 ms");
    println!(
        "# measured: median {:.1} ms; {:.1}% of pairs above 125 ms",
        cdf.median(),
        (1.0 - cdf.fraction_at_or_below(125.0)) * 100.0
    );
    Ok(())
}

/// Figure 6: total transfer time for a 100 KB file over the Fig. 5 RTT
/// distribution, for initial windows 10, 25, 50 and 100 (model).
pub fn fig06(opts: &RunOptions) -> Outcome {
    banner(
        "Figure 6",
        "modelled transfer time of a 100 KB file over the inter-PoP RTT distribution",
    );
    let rtts = all_pair_rtts();
    let windows = [10u32, 25, 50, 100];
    let mut cdfs = Vec::new();
    println!("{:>16} {:>12} {:>7}", "series", "time_ms", "cdf");
    for &iw in &windows {
        let cdf = Cdf::new(
            rtts.iter()
                .map(|&rtt| transfer_time(100_000, DEFAULT_MSS, iw, rtt, false).as_millis_f64()),
        );
        print_cdf_series(&format!("iw{iw}"), &cdf, opts.points);
        cdfs.push((iw, cdf));
    }
    println!();
    for (iw, cdf) in &cdfs {
        print_cdf_summary(&format!("iw{iw}"), cdf);
    }
    let d_median = cdfs[0].1.median() - cdfs[3].1.median();
    let d_p90 = cdfs[0].1.quantile(0.9) - cdfs[3].1.quantile(0.9);
    println!("\n# paper: median penalty of iw10 vs iw100 over 280 ms; ~290 ms (~100%) at p90");
    println!(
        "# measured: median difference {:.0} ms; p90 difference {:.0} ms ({:.0}%)",
        d_median,
        d_p90,
        d_p90 / cdfs[3].1.quantile(0.9) * 100.0
    );
    Ok(())
}

const MAP_WIDTH: usize = 100;
const MAP_HEIGHT: usize = 32;

fn project(lat: f64, lon: f64) -> (usize, usize) {
    // Equirectangular: lon -180..180 → 0..WIDTH, lat 75..-55 → 0..HEIGHT
    // (cropped to inhabited latitudes).
    let x = ((lon + 180.0) / 360.0 * (MAP_WIDTH as f64 - 1.0)).round() as usize;
    let y = ((75.0 - lat) / 130.0 * (MAP_HEIGHT as f64 - 1.0)).round() as usize;
    (x.min(MAP_WIDTH - 1), y.min(MAP_HEIGHT - 1))
}

fn marker(c: Continent) -> char {
    match c {
        Continent::Europe => 'E',
        Continent::NorthAmerica => 'N',
        Continent::SouthAmerica => 'S',
        Continent::Asia => 'A',
        Continent::Oceania => 'O',
    }
}

/// Figure 9: "Markers indicate PoPs with current Riptide deployment" —
/// rendered as an equirectangular ASCII world map with one marker per
/// PoP site, initialed by continent (E/N/S/A/O).
pub fn fig09(_opts: &RunOptions) -> Outcome {
    println!("# Figure 9: PoPs with current Riptide deployment (equirectangular)");
    let mut grid = vec![vec!['.'; MAP_WIDTH]; MAP_HEIGHT];
    for site in &POP_SITES {
        let (x, y) = project(site.lat, site.lon);
        grid[y][x] = marker(site.continent);
    }
    for row in &grid {
        println!("{}", row.iter().collect::<String>());
    }
    println!("\n# E=Europe N=North America S=South America A=Asia O=Oceania");
    for site in &POP_SITES {
        let (x, y) = project(site.lat, site.lon);
        println!(
            "# {:<13} {:>13}  ({x:>3},{y:>2})",
            site.name,
            site.continent.to_string()
        );
    }
    Ok(())
}

/// Figure 10: CDF of live congestion windows across all datacenters for
/// each `c_max` value (50, 100, 150, 200, 250) plus a no-Riptide control.
///
/// The paper's takeaways this run checks: Riptide at `c_max = 50` doubles
/// the median window vs the control; a knee at `c_max = 100` gives most
/// of the gains; each curve shows a mode at its own `c_max`.
///
/// Arms (and `--seeds` replicates) run as independent shards on the
/// parallel engine; per-shard CDFs merge in plan order.
pub fn fig10(opts: &RunOptions) -> Outcome {
    banner(
        "Figure 10",
        "live congestion-window CDFs under the c_max sweep (12h-style run)",
    );
    let sweep: [Option<u32>; 6] = [None, Some(50), Some(100), Some(150), Some(200), Some(250)];
    let plan = RunPlan::cwnd_sweep(&opts.scale, &sweep, opts.seeds);
    let report = execute_plan(opts, &plan);
    let mut results = Vec::new();
    println!("{:>16} {:>12} {:>7}", "series", "cwnd_segs", "cdf");
    for (scenario, c_max) in sweep.iter().enumerate() {
        let label = match c_max {
            None => "control".to_string(),
            Some(m) => format!("cmax{m}"),
        };
        let cdf = report.merged_cwnd(scenario as u32);
        print_cdf_series(&label, &cdf, opts.points);
        results.push((label, *c_max, cdf));
    }
    println!();
    for (label, _, cdf) in &results {
        print_cdf_summary(label, cdf);
    }
    let control_median = results[0].2.median();
    let cmax50_median = results[1].2.median();
    println!("\n# paper: c_max=50 median is +100% over the control; knee at c_max=100");
    println!(
        "# measured: control median {control_median:.0}, c_max=50 median {cmax50_median:.0} ({:+.0}%)",
        (cmax50_median / control_median - 1.0) * 100.0
    );
    for (label, c_max, cdf) in &results[1..] {
        if let Some(m) = c_max {
            let at_mode = cdf.fraction_at_or_below(*m as f64 + 0.5)
                - cdf.fraction_at_or_below(*m as f64 - 0.5);
            println!(
                "# {label}: {:.1}% of sampled windows sit exactly at its c_max (the Fig. 10 mode)",
                at_mode * 100.0
            );
        }
    }
    Ok(())
}

/// Figure 11: observed congestion windows for Riptide at two
/// datacenters — one carrying only probe traffic, one among the busiest
/// in the network. Runs as a single shard on the parallel engine (the
/// two sites share one world, so the profile cannot be split).
pub fn fig11(opts: &RunOptions) -> Outcome {
    banner(
        "Figure 11",
        "live windows at a probe-only PoP vs a busy PoP (both running Riptide)",
    );
    let plan = RunPlan::traffic_profile(&opts.scale);
    let report = execute_plan(opts, &plan);
    let (probe_only, busy) = report.profile().expect("plan ran a profile shard");
    println!("{:>16} {:>12} {:>7}", "series", "cwnd_segs", "cdf");
    print_cdf_series("probe-only", &probe_only, opts.points);
    print_cdf_series("busy", &busy, opts.points);
    println!();
    print_cdf_summary("probe-only", &probe_only);
    print_cdf_summary("busy", &busy);
    println!("\n# paper: busy PoP reaches a window of 100 on 44% of connections;");
    println!("#        probe-only PoP has median 75 and is below 100 in 99% of cases");
    println!(
        "# measured: busy at>=100: {:.1}%; probe-only median {:.0}, below 100 in {:.1}%",
        (1.0 - busy.fraction_at_or_below(99.5)) * 100.0,
        probe_only.median(),
        probe_only.fraction_at_or_below(99.5) * 100.0
    );
    Ok(())
}

/// Table I: Riptide's input parameters, plus a live demonstration of the
/// Fig. 7 mechanism (averaging observed windows) and the Fig. 8 command.
pub fn table01(_opts: &RunOptions) -> Outcome {
    use std::cell::RefCell;
    use std::rc::Rc;

    println!("# Table I: Riptide input parameters (deployment values)");
    let cfg = RiptideConfig::deployment();
    let alpha = match cfg.policy {
        LearningPolicy::Ewma { alpha } => format!("{alpha}"),
        ref other => format!("({other:?})"),
    };
    let row = |parameter: &str, what: &str, value: String| {
        println!("{parameter:>10} {what:>44} {value:>12}");
    };
    row("parameter", "use", "value".into());
    row("alpha", "weight applied to historical data", alpha);
    row(
        "i_u",
        "update interval to poll current windows",
        cfg.update_interval.to_string(),
    );
    row("t", "time to live of a stored window", cfg.ttl.to_string());
    row("c_max", "maximum allowed window", cfg.cwnd_max.to_string());
    row("c_min", "minimum allowed window", cfg.cwnd_min.to_string());
    row(
        "combine",
        "per-destination combination strategy",
        cfg.combine.to_string(),
    );
    row(
        "routes",
        "destination granularity",
        cfg.granularity.name().to_string(),
    );

    // Fig. 7: windows 60/80/100 to one destination average to 80.
    println!("\n# Fig. 7 mechanism demo: observed windows 60, 80, 100 -> initcwnd 80");
    let table = Rc::new(RefCell::new(RouteTable::new()));
    let mut controller = SharedRouteController::new(Rc::clone(&table));
    let mut agent = RiptideAgent::new(
        RiptideConfig::builder()
            .policy(LearningPolicy::None)
            .build()
            .expect("valid config"),
    )
    .expect("valid config");
    let dst = std::net::Ipv4Addr::new(10, 0, 0, 127);
    let mut observer = FnObserver(|| {
        [60u32, 80, 100]
            .iter()
            .map(|&cwnd| CwndObservation {
                dst,
                cwnd,
                bytes_acked: 1 << 20,
                retrans: 0,
                ecn_marks: 0,
            })
            .collect()
    });
    agent.tick(SimTime::from_secs(1), &mut observer, &mut controller);
    println!(
        "learned_window({dst}) = {:?}",
        table.borrow().initcwnd_for(dst)
    );

    // Fig. 8: the exact command shape the agent issued.
    println!("\n# Fig. 8: command issued (replace variant of the paper's `add`):");
    for cmd in controller.drain_commands() {
        println!("{cmd}");
    }
    Ok(())
}

/// Table II: CDN PoPs with Riptide deployed, per continent.
pub fn table02(_opts: &RunOptions) -> Outcome {
    println!("# Table II: CDN PoPs with Riptide deployed");
    println!("{:>15} {:>10}", "continent", "pop_count");
    let mut total = 0;
    for (continent, count) in continent_counts() {
        println!("{:>15} {:>10}", continent.to_string(), count);
        total += count;
    }
    println!("{:>15} {:>10}", "total", total);
    println!("\n# sites:");
    for site in &POP_SITES {
        println!(
            "{:>15}  {:<13} lat {:>7.2} lon {:>8.2}",
            site.continent.to_string(),
            site.name,
            site.lat,
            site.lon
        );
    }
    Ok(())
}

/// §IV-D edge cases: per-destination change in the minimum (best-case)
/// and maximum (worst-case) completion time for 100 KB probes — the
/// paper finds essentially no change in the minimum and no consistent
/// trend in the maximum.
pub fn edge_cases(opts: &RunOptions) -> Outcome {
    banner(
        "Section IV-D",
        "edge cases: best/worst completion change per destination, 100 KB probes",
    );
    let cmp = pooled_probe_comparison(opts);
    for &sender in &probe_sender_sites(&opts.scale) {
        let rows = edge_case_rows(&cmp, sender, 100_000);
        println!("\n## sender site {sender}");
        println!(
            "{:>9} {:>14} {:>14}",
            "dst_site", "min_change_%", "max_change_%"
        );
        let mut min_within_5 = 0usize;
        for r in &rows {
            println!(
                "{:>9} {:>14.1} {:>14.1}",
                r.dst_site,
                r.min_change * 100.0,
                r.max_change * 100.0
            );
            if r.min_change.abs() <= 0.05 {
                min_within_5 += 1;
            }
        }
        println!(
            "# minimum within ±5% for {}/{} destinations (paper: 75–100%)",
            min_within_5,
            rows.len()
        );
    }
    println!("\n# paper: best case essentially unchanged; worst case shows no consistent trend");
    Ok(())
}

//! Golden test for the Prometheus text exposition.
//!
//! A fixed, fully scripted agent run must render a **byte-exact**
//! exposition: the format is an interface consumed by scrapers, so any
//! drift (metric renamed, help string reworded, bucket layout changed,
//! float formatting altered) should fail loudly and be blessed
//! deliberately.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! RIPTIDE_BLESS=1 cargo test --test repro golden_exposition::
//! ```

use std::net::Ipv4Addr;
use std::path::PathBuf;

use riptide_repro::linuxnet::route::RouteTable;
use riptide_repro::riptide::agent::RiptideAgent;
use riptide_repro::riptide::config::RiptideConfig;
use riptide_repro::riptide::guard::GuardConfig;
use riptide_repro::riptide::observe::{CwndObservation, FnObserver};
use riptide_repro::riptide::policy::LearningPolicy;
use riptide_repro::riptide::telemetry::AgentTelemetry;
use riptide_repro::simnet::time::SimTime;

fn obs(dst: [u8; 4], cwnd: u32, retrans: u64) -> CwndObservation {
    CwndObservation {
        dst: Ipv4Addr::from(dst),
        cwnd,
        bytes_acked: 1_000_000,
        retrans,
        ecn_marks: 0,
    }
}

/// One scripted deployment: jump-starts for three destinations through a
/// two-slot table (forcing an eviction), a loss episode that trips the
/// guard, a TTL sweep, and a graceful shutdown. Every counter family,
/// both breaker gauges, and the install histogram end up populated.
fn scripted_exposition() -> String {
    let cfg = RiptideConfig::builder()
        .policy(LearningPolicy::None)
        .guard(GuardConfig::default())
        .table_capacity(2)
        .build()
        .expect("valid scripted config");
    let mut agent = RiptideAgent::new(cfg).expect("valid scripted config");
    let telemetry = AgentTelemetry::standalone(64);
    // Register the I/O family too, so the golden file pins its names
    // and zero-value rendering alongside the agent metrics.
    let _io = telemetry.io_counters();
    agent.attach_telemetry(telemetry.clone());
    let mut routes = RouteTable::new();

    for (t, n, w) in [(1u64, 1u8, 40u32), (2, 2, 80), (3, 3, 100)] {
        let mut o = FnObserver(move || vec![obs([10, 0, n, 1], w, 0)]);
        agent.tick(SimTime::from_secs(t), &mut o, &mut routes);
    }
    let mut lossy = FnObserver(|| vec![obs([10, 0, 3, 1], 100, 500)]);
    agent.tick(SimTime::from_secs(4), &mut lossy, &mut routes);
    agent.tick(SimTime::from_secs(5), &mut lossy, &mut routes);
    let mut silent = FnObserver(Vec::new);
    agent.tick(SimTime::from_secs(200), &mut silent, &mut routes);
    agent.shutdown(&mut routes);

    telemetry.registry().render_prometheus()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("exposition.prom")
}

#[test]
fn exposition_matches_golden_file_byte_for_byte() {
    let rendered = scripted_exposition();
    assert_eq!(
        rendered,
        scripted_exposition(),
        "scripted exposition must be deterministic across runs"
    );

    let path = golden_path();
    if std::env::var("RIPTIDE_BLESS").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {} ({e}); bless with RIPTIDE_BLESS=1", path.display()));
    assert_eq!(
        rendered,
        want,
        "exposition drifted from {}; re-bless with RIPTIDE_BLESS=1 if intentional",
        path.display()
    );
}

#[test]
fn golden_file_pins_the_exposition_shape() {
    // Belt and braces alongside the byte comparison: the golden scenario
    // actually exercises every metric kind the registry can hold.
    let rendered = scripted_exposition();
    for needle in [
        "# TYPE riptide_ticks_total counter",
        "# TYPE riptide_table_entries gauge",
        "# TYPE riptide_installed_window histogram",
        "riptide_installed_window_bucket{le=\"+Inf\"}",
        "riptide_io_calls_total 0",
        "riptide_guard_trips_total 1",
        "riptide_shutdown_withdrawals_total",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }
}

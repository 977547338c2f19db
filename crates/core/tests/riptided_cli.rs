//! End-to-end tests of the `riptided` binary: feed it `ss`-format
//! snapshots, check the `ip route` commands it prints.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output};

fn write_snapshot(name: &str, contents: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("riptided-test-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp snapshot");
    f.write_all(contents.as_bytes()).expect("write snapshot");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_riptided"))
        .args(args)
        .output()
        .expect("binary runs")
}

const SNAPSHOT_A: &str = "\
ESTAB 10.0.0.1 10.0.9.1
\t cubic cwnd:60 ssthresh:50 rtt:120.000 bytes_acked:1000000
ESTAB 10.0.0.1 10.0.9.1
\t cubic cwnd:100 rtt:118.000 bytes_acked:2000000
SYN-SENT 10.0.0.1 10.0.8.1
\t cubic cwnd:10 bytes_acked:0
";

#[test]
fn single_snapshot_prints_the_learned_route() {
    let snap = write_snapshot("single", SNAPSHOT_A);
    let out = run(&["--no-history", snap.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.trim(),
        "ip route replace 10.0.9.1 proto static initcwnd 80",
        "average of 60 and 100; SYN-SENT socket ignored"
    );
    std::fs::remove_file(snap).ok();
}

#[test]
fn ttl_expiry_emits_route_del() {
    let snap = write_snapshot("expiry-a", SNAPSHOT_A);
    let empty = write_snapshot("expiry-b", "");
    // Interval 60s, ttl 60s: the second (empty) poll happens at t=120,
    // 60s after the entry's refresh — past the TTL.
    let out = run(&[
        "--no-history",
        "--interval",
        "60",
        "--ttl",
        "60",
        snap.to_str().unwrap(),
        empty.to_str().unwrap(),
        empty.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines[0],
        "ip route replace 10.0.9.1 proto static initcwnd 80"
    );
    assert!(
        lines.contains(&"ip route del 10.0.9.1"),
        "expiry withdraws the route: {stdout}"
    );
    std::fs::remove_file(snap).ok();
    std::fs::remove_file(empty).ok();
}

#[test]
fn cmax_clamps_output() {
    let snap = write_snapshot("clamp", SNAPSHOT_A);
    let out = run(&["--no-history", "--cmax", "50", snap.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("initcwnd 50"), "clamped: {stdout}");
    std::fs::remove_file(snap).ok();
}

#[test]
fn prefix_granularity_installs_prefix_routes() {
    let snap = write_snapshot("prefix", SNAPSHOT_A);
    let out = run(&[
        "--no-history",
        "--granularity",
        "/24",
        snap.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("ip route replace 10.0.9.0/24"),
        "PoP-wide route: {stdout}"
    );
    std::fs::remove_file(snap).ok();
}

#[test]
fn max_combine_is_selectable() {
    let snap = write_snapshot("max", SNAPSHOT_A);
    let out = run(&["--no-history", "--combine", "max", snap.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("initcwnd 100"), "max of 60/100: {stdout}");
    std::fs::remove_file(snap).ok();
}

#[test]
fn malformed_snapshot_fails_cleanly() {
    let snap = write_snapshot("bad", "WAT 10.0.0.1\n");
    let out = run(&[snap.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("riptided:"), "diagnostic printed: {stderr}");
    std::fs::remove_file(snap).ok();
}

#[test]
fn an_unusable_poll_is_never_read_as_an_empty_one() {
    let snap = write_snapshot("unusable-a", SNAPSHOT_A);
    let bad = write_snapshot("unusable-b", "WAT 10.0.0.1\n");
    // As in `ttl_expiry_emits_route_del`: two empty polls (t=120, 180)
    // would expire 10.0.9.1 and print its `ip route del`. The first
    // malformed one ends the run instead, leaving the learned route alone.
    let out = run(&[
        "--no-history",
        "--interval",
        "60",
        "--ttl",
        "60",
        snap.to_str().unwrap(),
        bad.to_str().unwrap(),
        bad.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("riptided:"), "diagnostic printed: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("ip route replace 10.0.9.1 proto static initcwnd 80"),
        "the first poll ran: {stdout}"
    );
    assert!(
        !stdout.contains("ip route del 10.0.9.1"),
        "no expiry on an unusable poll: {stdout}"
    );
    std::fs::remove_file(snap).ok();
    std::fs::remove_file(bad).ok();
}

#[test]
fn no_snapshots_is_a_usage_error() {
    let out = run(&["--cmax", "50"]);
    assert!(!out.status.success());
}

#[test]
fn unknown_flag_is_rejected() {
    let out = run(&["--frobnicate"]);
    assert!(!out.status.success());
}

#[test]
fn ewma_across_snapshots() {
    // Two polls with different windows: with alpha 0.5 the second
    // install is the midpoint.
    let a = write_snapshot(
        "ewma-a",
        "ESTAB 10.0.0.1 10.0.9.1\n\t cubic cwnd:40 bytes_acked:1\n",
    );
    let b = write_snapshot(
        "ewma-b",
        "ESTAB 10.0.0.1 10.0.9.1\n\t cubic cwnd:80 bytes_acked:1\n",
    );
    let out = run(&["--alpha", "0.5", a.to_str().unwrap(), b.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines[0],
        "ip route replace 10.0.9.1 proto static initcwnd 40"
    );
    assert_eq!(
        lines[1],
        "ip route replace 10.0.9.1 proto static initcwnd 60"
    );
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

#[test]
fn policy_flag_selects_the_estimator() {
    // Same two polls as the EWMA test (windows 40 then 80), but under
    // the conservative p25 percentile the ring's lower sample keeps
    // winning: the learned window stays 40, so install-on-change emits
    // a single route — distinct from EWMA's 40 → 60 pair above.
    let a = write_snapshot(
        "policy-a",
        "ESTAB 10.0.0.1 10.0.9.1\n\t cubic cwnd:40 bytes_acked:1\n",
    );
    let b = write_snapshot(
        "policy-b",
        "ESTAB 10.0.0.1 10.0.9.1\n\t cubic cwnd:80 bytes_acked:1\n",
    );
    let out = run(&["--policy", "p25", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.trim(),
        "ip route replace 10.0.9.1 proto static initcwnd 40"
    );
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

#[test]
fn bad_policy_spec_is_rejected() {
    let snap = write_snapshot("policy-bad", SNAPSHOT_A);
    let out = run(&["--policy", "vibes", snap.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad --policy"),
        "stderr names the flag"
    );
    std::fs::remove_file(snap).ok();
}

#[test]
fn metrics_flag_prints_prometheus_counters() {
    let snap = write_snapshot("metrics", SNAPSHOT_A);
    let out = run(&["--no-history", "--metrics", snap.to_str().unwrap()]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("riptide_ticks_total 1"), "{stderr}");
    assert!(stderr.contains("riptide_route_updates_total 1"), "{stderr}");
    std::fs::remove_file(snap).ok();
}

#[test]
fn config_file_drives_the_agent() {
    let conf = write_snapshot("conf", "history = none\ncmax = 70\ngranularity = /24\n");
    let snap = write_snapshot("conf-snap", SNAPSHOT_A);
    let out = run(&["--config", conf.to_str().unwrap(), snap.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.trim(),
        "ip route replace 10.0.9.0/24 proto static initcwnd 70",
        "prefix granularity and cmax=70 from the file"
    );
    std::fs::remove_file(conf).ok();
    std::fs::remove_file(snap).ok();
}

#[test]
fn config_file_aggregate_key_folds_siblings() {
    let conf = write_snapshot("conf-agg", "history = none\naggregate = on\n");
    let snap = write_snapshot(
        "conf-agg-snap",
        "\
ESTAB 10.0.0.1 10.0.9.1
\t cubic cwnd:80 bytes_acked:1000000
ESTAB 10.0.0.1 10.0.9.2
\t cubic cwnd:81 bytes_acked:1000000
ESTAB 10.0.0.1 10.0.9.3
\t cubic cwnd:82 bytes_acked:1000000
",
    );
    let out = run(&["--config", conf.to_str().unwrap(), snap.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout
            .lines()
            .any(|l| l == "ip route replace 10.0.9.0/24 proto static initcwnd 80"),
        "agreeing siblings fold into the covering /24 at the member minimum: {stdout}"
    );
    assert!(
        stdout.lines().any(|l| l == "ip route del 10.0.9.1"),
        "member routes are withdrawn once covered: {stdout}"
    );
    std::fs::remove_file(conf).ok();
    std::fs::remove_file(snap).ok();
}

#[test]
fn flags_override_config_file() {
    let conf = write_snapshot("conf2", "history = none\ncmax = 70\n");
    let snap = write_snapshot("conf2-snap", SNAPSHOT_A);
    let out = run(&[
        "--config",
        conf.to_str().unwrap(),
        "--cmax",
        "50",
        snap.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("initcwnd 50"), "flag wins: {stdout}");
    std::fs::remove_file(conf).ok();
    std::fs::remove_file(snap).ok();
}

#[test]
fn bad_config_file_fails_with_line_number() {
    let conf = write_snapshot("badconf", "alpha = 0.5\nwormhole = on\n");
    let out = run(&["--config", conf.to_str().unwrap(), "whatever.ss"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 2"), "{stderr}");
    std::fs::remove_file(conf).ok();
}

#[test]
fn config_file_capacity_bounds_the_table() {
    let conf = write_snapshot("conf-cap", "history = none\ncapacity = 1\n");
    let snap = write_snapshot(
        "conf-cap-snap",
        "\
ESTAB 10.0.0.1 10.0.9.1
\t cubic cwnd:80 bytes_acked:1000000
ESTAB 10.0.0.1 10.0.7.1
\t cubic cwnd:50 bytes_acked:1000000
",
    );
    let out = run(&["--config", conf.to_str().unwrap(), snap.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The tick installs what it learned, then evicts down to the bound
    // (withdrawing the evicted route), so one route is left standing.
    let stdout = String::from_utf8(out.stdout).unwrap();
    let count = |prefix: &str| stdout.lines().filter(|l| l.starts_with(prefix)).count();
    let (replaces, dels) = (count("ip route replace"), count("ip route del"));
    assert_eq!(
        (replaces, dels),
        (2, 1),
        "capacity = 1 leaves one route installed: {stdout}"
    );
    std::fs::remove_file(conf).ok();
    std::fs::remove_file(snap).ok();
}

#[test]
fn config_file_interval_and_ttl_drive_expiry() {
    // The file form of `ttl_expiry_emits_route_del`'s flags: polls at
    // t = 40, 80, 120, so the third is 80 s past the refresh, over the
    // 60 s TTL.
    let conf = write_snapshot("conf-ttl", "history = none\ninterval = 40\nttl = 60\n");
    let snap = write_snapshot("conf-ttl-a", SNAPSHOT_A);
    let empty = write_snapshot("conf-ttl-b", "");
    let out = run(&[
        "--config",
        conf.to_str().unwrap(),
        snap.to_str().unwrap(),
        empty.to_str().unwrap(),
        empty.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.lines().last(),
        Some("ip route del 10.0.9.1"),
        "the file's interval and ttl expire the route: {stdout}"
    );
    std::fs::remove_file(conf).ok();
    std::fs::remove_file(snap).ok();
    std::fs::remove_file(empty).ok();
}

#[test]
fn bad_flag_value_names_the_flag() {
    let snap = write_snapshot("cmax-bad", SNAPSHOT_A);
    let out = run(&["--cmax", "abc", snap.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cmax"), "stderr names the flag: {stderr}");
    std::fs::remove_file(snap).ok();
}

#[cfg(unix)]
#[test]
fn sigterm_in_follow_mode_withdraws_every_route() {
    use std::io::{BufRead, BufReader, Read};

    let snap = write_snapshot("follow", SNAPSHOT_A);
    let mut child = Command::new(env!("CARGO_BIN_EXE_riptided"))
        .args(["--no-history", "--follow", snap.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");

    // Wait for the first install so the shutdown sweep has a route to
    // withdraw, then deliver SIGTERM.
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("first command printed");
    assert_eq!(
        first.trim(),
        "ip route replace 10.0.9.1 proto static initcwnd 80"
    );
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());

    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("daemon closes stdout");
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "graceful exit, not a signal death");
    assert!(
        rest.lines().any(|l| l == "ip route del 10.0.9.1"),
        "shutdown withdraws the installed route: {rest:?}"
    );
    std::fs::remove_file(snap).ok();
}

#[test]
fn metrics_file_is_written_after_each_poll() {
    let snap = write_snapshot("mf", SNAPSHOT_A);
    let mut mf = std::env::temp_dir();
    mf.push(format!("riptided-test-{}-metrics.prom", std::process::id()));
    let out = run(&[
        "--no-history",
        "--metrics-file",
        mf.to_str().unwrap(),
        snap.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&mf).expect("metrics file written");
    assert!(text.contains("riptide_ticks_total 1"), "{text}");
    assert!(text.contains("riptide_installed_routes 1"), "{text}");
    assert!(
        text.contains("# TYPE riptide_installed_window histogram"),
        "{text}"
    );
    std::fs::remove_file(snap).ok();
    std::fs::remove_file(mf).ok();
}

#[cfg(unix)]
#[test]
fn follow_mode_shutdown_flushes_metrics_and_journal() {
    use std::io::{BufRead, BufReader, Read};

    let snap = write_snapshot("mf-follow", SNAPSHOT_A);
    let mut mf = std::env::temp_dir();
    mf.push(format!(
        "riptided-test-{}-follow-metrics.prom",
        std::process::id()
    ));
    let mut child = Command::new(env!("CARGO_BIN_EXE_riptided"))
        .args([
            "--no-history",
            "--follow",
            "--metrics-file",
            mf.to_str().unwrap(),
            snap.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");

    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("first command printed");
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());

    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("stdout closes");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("stderr closes");
    let status = child.wait().expect("daemon exits");
    assert!(status.success());

    // The final metrics flush runs after the withdrawal sweep, so the
    // file on disk accounts for the shutdown itself.
    let text = std::fs::read_to_string(&mf).expect("final metrics snapshot flushed");
    assert!(
        text.contains("riptide_shutdown_withdrawals_total 1"),
        "{text}"
    );
    assert!(text.contains("riptide_installed_routes 0"), "{text}");
    // And the decision journal is dumped to stderr, install first.
    assert!(stderr.contains("install w=80"), "{stderr}");
    assert!(stderr.contains("cause=shutdown"), "{stderr}");
    std::fs::remove_file(snap).ok();
    std::fs::remove_file(mf).ok();
}

#[cfg(unix)]
#[test]
fn metrics_file_is_replaced_atomically() {
    use std::os::unix::fs::MetadataExt;

    // A scraper polling the exposition file must never observe a
    // truncated write. The daemon therefore writes a sibling temp file
    // and renames it over the target, which swaps the inode — an
    // in-place rewrite (the old bug) would keep it.
    let snap = write_snapshot("mf-atomic", SNAPSHOT_A);
    let mut mf = std::env::temp_dir();
    mf.push(format!(
        "riptided-test-{}-atomic-metrics.prom",
        std::process::id()
    ));
    std::fs::write(&mf, "# stale exposition from a previous run\n").unwrap();
    let before = std::fs::metadata(&mf).unwrap().ino();

    let out = run(&[
        "--no-history",
        "--metrics-file",
        mf.to_str().unwrap(),
        snap.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let after = std::fs::metadata(&mf).unwrap().ino();
    assert_ne!(before, after, "flush must rename a fresh file into place");
    let text = std::fs::read_to_string(&mf).unwrap();
    assert!(text.contains("riptide_ticks_total 1"), "{text}");
    assert!(!text.contains("stale exposition"), "fully replaced: {text}");
    // No temp residue next to the target.
    let dir = mf.parent().unwrap();
    let leftovers: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains("atomic-metrics.prom.") && n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files cleaned up: {leftovers:?}");
    std::fs::remove_file(snap).ok();
    std::fs::remove_file(mf).ok();
}

#[test]
fn state_file_round_trips_across_runs() {
    let snap = write_snapshot("sf-a", SNAPSHOT_A);
    let empty = write_snapshot("sf-empty", "");
    let mut sf = std::env::temp_dir();
    sf.push(format!("riptided-test-{}-state.bin", std::process::id()));
    std::fs::remove_file(&sf).ok();

    // Run 1 learns 10.0.9.1 and journals the install into the state file.
    let out = run(&[
        "--no-history",
        "--state-file",
        sf.to_str().unwrap(),
        snap.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(sf.exists(), "state file written");

    // Run 2 restores the learned route before its first poll: the
    // jump-start window is live again without relearning.
    let out = run(&[
        "--no-history",
        "--state-file",
        sf.to_str().unwrap(),
        empty.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.lines().next(),
        Some("ip route replace 10.0.9.1 proto static initcwnd 80"),
        "restore reinstalls the learned window before any poll: {stdout}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("restored 1 route(s)"), "{stderr}");
    std::fs::remove_file(snap).ok();
    std::fs::remove_file(empty).ok();
    std::fs::remove_file(sf).ok();
}

#[test]
fn torn_state_journal_truncates_cleanly_and_corrupt_snapshot_starts_empty() {
    let a = write_snapshot("sf-torn-a", SNAPSHOT_A);
    let b = write_snapshot(
        "sf-torn-b",
        "\
ESTAB 10.0.0.1 10.0.9.1
\t cubic cwnd:60 bytes_acked:1000000
ESTAB 10.0.0.1 10.0.9.1
\t cubic cwnd:100 bytes_acked:2000000
ESTAB 10.0.0.1 10.0.7.1
\t cubic cwnd:50 bytes_acked:1000000
",
    );
    let empty = write_snapshot("sf-torn-empty", "");
    let mut sf = std::env::temp_dir();
    sf.push(format!(
        "riptided-test-{}-torn-state.bin",
        std::process::id()
    ));
    std::fs::remove_file(&sf).ok();

    // Two polls journal two installs (10.0.9.1, then 10.0.7.1).
    let out = run(&[
        "--no-history",
        "--state-file",
        sf.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // A kill -9 mid-append: the last journal record loses its tail.
    let bytes = std::fs::read(&sf).unwrap();
    std::fs::write(&sf, &bytes[..bytes.len() - 5]).unwrap();
    let out = run(&[
        "--no-history",
        "--state-file",
        sf.to_str().unwrap(),
        empty.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "torn tail must not crash the daemon: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("torn journal tail"), "{stderr}");
    assert!(
        stderr.contains("restored 1 route(s)"),
        "the record before the tear survives: {stderr}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("ip route replace 10.0.9.1"),
        "surviving route restored: {stdout}"
    );
    assert!(
        !stdout.contains("10.0.7.1"),
        "the torn record must not resurrect: {stdout}"
    );

    // A corrupt snapshot block: the daemon warns and starts empty.
    std::fs::write(&sf, b"RPTSgarbage that is not a valid snapshot").unwrap();
    let out = run(&[
        "--no-history",
        "--state-file",
        sf.to_str().unwrap(),
        empty.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "corrupt snapshot must not crash");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("# state: ignoring"), "{stderr}");
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
    std::fs::remove_file(empty).ok();
    std::fs::remove_file(sf).ok();
}

#[cfg(unix)]
#[test]
fn state_file_snapshot_is_replaced_atomically() {
    use std::os::unix::fs::MetadataExt;

    // Snapshot rewrites must never leave a reader (or a crash) with a
    // half-written state file: like the metrics exposition, the daemon
    // writes a pid-suffixed sibling and renames it over the target,
    // swapping the inode.
    let snap = write_snapshot("sf-atomic", SNAPSHOT_A);
    let mut sf = std::env::temp_dir();
    sf.push(format!(
        "riptided-test-{}-atomic-state.bin",
        std::process::id()
    ));
    std::fs::write(&sf, b"not a state file at all").unwrap();
    let before = std::fs::metadata(&sf).unwrap().ino();

    let out = run(&[
        "--no-history",
        "--state-file",
        sf.to_str().unwrap(),
        snap.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let after = std::fs::metadata(&sf).unwrap().ino();
    assert_ne!(before, after, "rewrite must rename a fresh file into place");
    // The rewritten file is a valid snapshot (next run restores it).
    let empty = write_snapshot("sf-atomic-empty", "");
    let out = run(&[
        "--no-history",
        "--state-file",
        sf.to_str().unwrap(),
        empty.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("restored 1 route(s)"), "{stderr}");
    // No temp residue next to the target.
    let dir = sf.parent().unwrap();
    let leftovers: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains("atomic-state.bin.") && n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files cleaned up: {leftovers:?}");
    std::fs::remove_file(snap).ok();
    std::fs::remove_file(empty).ok();
    std::fs::remove_file(sf).ok();
}

#[cfg(unix)]
#[test]
fn sigterm_writes_a_final_state_snapshot_before_withdrawing() {
    use std::io::{BufRead, BufReader, Read};

    let snap = write_snapshot("sf-term", SNAPSHOT_A);
    let mut sf = std::env::temp_dir();
    sf.push(format!(
        "riptided-test-{}-term-state.bin",
        std::process::id()
    ));
    std::fs::remove_file(&sf).ok();
    let mut child = Command::new(env!("CARGO_BIN_EXE_riptided"))
        .args([
            "--no-history",
            "--follow",
            "--state-file",
            sf.to_str().unwrap(),
            snap.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");

    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("first command printed");
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("stdout closes");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("stderr closes");
    assert!(child.wait().expect("daemon exits").success());
    assert!(stderr.contains("final snapshot written"), "{stderr}");

    // The persisted table survives the withdrawal sweep: a second run
    // restores the route SIGTERM withdrew.
    assert!(
        rest.lines().any(|l| l == "ip route del 10.0.9.1"),
        "shutdown still withdraws: {rest:?}"
    );
    let empty = write_snapshot("sf-term-empty", "");
    let out = run(&[
        "--no-history",
        "--state-file",
        sf.to_str().unwrap(),
        empty.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("ip route replace 10.0.9.1 proto static initcwnd 80"),
        "warm restart reinstalls what the stopped daemon knew: {stdout}"
    );
    std::fs::remove_file(snap).ok();
    std::fs::remove_file(empty).ok();
    std::fs::remove_file(sf).ok();
}

#[test]
fn state_file_bytes_equal_the_library_daemons() {
    use riptide::agent::RiptideAgent;
    use riptide::config::RiptideConfig;
    use riptide::daemon::Daemon;
    use riptide::persist::decode_state;
    use riptide_linuxnet::route::RouteTable;
    use riptide_linuxnet::ss::SockTable;
    use riptide_simnet::time::SimTime;

    // Three polls at --snapshot-every 2: the anchor, a journal append, a
    // snapshot rewrite and another append behind it.
    let polls = [
        SNAPSHOT_A,
        "ESTAB 10.0.0.1 10.0.9.1\n\t cubic cwnd:80 bytes_acked:1\n\
         ESTAB 10.0.0.1 10.0.7.1\n\t cubic cwnd:50 bytes_acked:1\n",
        "ESTAB 10.0.0.1 10.0.9.1\n\t cubic cwnd:60 bytes_acked:1\n",
    ];
    let files: Vec<PathBuf> = (0..polls.len())
        .map(|i| write_snapshot(&format!("sf-same-{i}"), polls[i]))
        .collect();
    let mut sf = std::env::temp_dir();
    sf.push(format!(
        "riptided-test-{}-same-state.bin",
        std::process::id()
    ));
    std::fs::remove_file(&sf).ok();
    let mut args = vec!["--no-history", "--state-file", sf.to_str().unwrap()];
    args.extend(["--snapshot-every", "2"]);
    args.extend(files.iter().map(|f| f.to_str().unwrap()));
    let out = run(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let config = RiptideConfig::builder().set("policy", "none").unwrap();
    let agent = RiptideAgent::new(config.build().unwrap()).unwrap();
    let interval = agent.config().update_interval;
    let mut routes = RouteTable::new();
    let mut daemon = Daemon::new(agent, Some(Vec::new()), 2);
    daemon.start(&[], SimTime::ZERO, &mut routes).unwrap_err();
    for (i, text) in polls.iter().enumerate() {
        let now = SimTime::ZERO + interval * (i as u64 + 1);
        let mut socks = SockTable::parse(text).unwrap();
        daemon.poll(now, |agent| agent.tick(now, &mut socks, &mut routes));
    }
    let bytes = daemon.storage().unwrap();
    assert_eq!(decode_state(bytes).unwrap().journal.len(), 1);
    assert!(std::fs::read(&sf).unwrap() == *bytes, "same state file");
    for f in files {
        std::fs::remove_file(f).ok();
    }
    std::fs::remove_file(sf).ok();
}

#[test]
fn trend_flag_damps_collapses() {
    let a = write_snapshot(
        "trend-a",
        "ESTAB 10.0.0.1 10.0.9.1\n\t cubic cwnd:100 bytes_acked:1\n",
    );
    let b = write_snapshot(
        "trend-b",
        "ESTAB 10.0.0.1 10.0.9.1\n\t cubic cwnd:20 bytes_acked:1\n",
    );
    // Without trend, alpha 0.7 keeps the window high after a collapse.
    let out = run(&["--alpha", "0.7", a.to_str().unwrap(), b.to_str().unwrap()]);
    let plain = String::from_utf8(out.stdout).unwrap();
    let plain_last: u32 = plain
        .lines()
        .last()
        .and_then(|l| l.split_whitespace().last())
        .and_then(|w| w.parse().ok())
        .expect("window printed");
    // With trend damping the collapse is taken seriously.
    let out = run(&[
        "--alpha",
        "0.7",
        "--trend",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    let damped = String::from_utf8(out.stdout).unwrap();
    let damped_last: u32 = damped
        .lines()
        .last()
        .and_then(|l| l.split_whitespace().last())
        .and_then(|w| w.parse().ok())
        .expect("window printed");
    assert!(
        damped_last < plain_last,
        "trend damping installs a lower window: {damped_last} vs {plain_last}"
    );
    std::fs::remove_file(a).ok();
    std::fs::remove_file(b).ok();
}

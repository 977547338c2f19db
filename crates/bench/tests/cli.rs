//! End-to-end tests of the `riptide-bench` driver's own surface: the
//! experiment table, the record write/`--check` round trip, and the
//! deterministic experiments whose output is committed under
//! `results/`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_riptide-bench"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn listed_names() -> Vec<String> {
    let out = run(&["--list"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    stdout(&out)
        .lines()
        .map(|line| line.split_whitespace().next().expect("a name").to_string())
        .collect()
}

#[test]
fn list_names_are_unique_and_every_one_dispatches() {
    let names = listed_names();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate name in {names:?}");
    for expected in ["fig02", "fig16", "table02", "chaos", "megacdn", "scenarios"] {
        assert!(names.iter().any(|n| n == expected), "{expected} not listed");
    }
    // `--help` is answered by the flag parser, which only a dispatched
    // experiment reaches; an unknown name exits 2 before it.
    for name in &names {
        let out = run(&[name, "--help"]);
        assert!(out.status.success(), "{name} did not dispatch");
        assert!(stdout(&out).starts_with("usage: riptide-bench <experiment>"));
    }
}

#[test]
fn unknown_experiment_exits_nonzero_and_prints_the_list() {
    // A retired binary's name is as unknown as any other.
    let out = run(&["simperf", "--scale", "quick", "--check"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown experiment \"simperf\""), "{err}");
    for name in listed_names() {
        assert!(err.contains(&name), "{name} missing from: {err}");
    }
}

#[test]
fn a_family_record_passes_its_own_check_and_fails_on_drift_or_a_mismatched_scale() {
    let dir = std::env::temp_dir().join(format!("riptide-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let record = dir.join("BENCH_policyarena.json");
    let record_arg = record.to_str().unwrap();
    let at_test_scale = ["policy_arena", "--scale", "test", "--out", record_arg];

    let out = run(&at_test_scale);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let written = std::fs::read_to_string(&record).unwrap();
    assert!(
        stdout(&out).contains(&written),
        "the run prints what it wrote"
    );
    assert!(written.starts_with("{\n  \"benchmark\": \"policy-ablation\",\n  \"scale\": \"test\","));
    assert!(written.contains("\"ewma_bit_identical\": true"));
    assert!(written.contains("{\"policy\": \"loss-utility\","));

    let check = [&at_test_scale[..], &["--check"]].concat();
    let out = run(&check);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("# check: claims hold and digest"));
    assert_eq!(
        std::fs::read_to_string(&record).unwrap(),
        written,
        "--check writes nothing"
    );

    // The family's default scale is `quick`; the record says `test`.
    let out = run(&["policy_arena", "--out", record_arg, "--check"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("was recorded at --scale test, this run used --scale quick"),
        "{err}"
    );

    // One flipped hex digit in the recorded digest.
    let at = written.find("\"digest_fnv\": \"").unwrap() + "\"digest_fnv\": \"".len();
    let flipped = if &written[at..=at] == "0" { "1" } else { "0" };
    let mut drifted = written.clone();
    drifted.replace_range(at..=at, flipped);
    std::fs::write(&record, drifted).unwrap();
    let out = run(&check);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("policy_arena: DIGEST DRIFT in digest_fnv"));

    std::fs::remove_dir_all(&dir).unwrap();
    let out = run(&check);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("policy_arena: cannot read"));
}

#[test]
fn deterministic_experiments_reproduce_their_committed_results() {
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in [
        "fig02",
        "fig03",
        "fig04",
        "fig05",
        "fig06",
        "fig09",
        "table01",
        "table02",
        "kernel_mode",
    ] {
        let out = run(&[name]);
        assert!(out.status.success(), "{name} stderr: {}", stderr(&out));
        let committed = std::fs::read_to_string(results.join(format!("{name}.txt")))
            .unwrap_or_else(|e| panic!("results/{name}.txt: {e}"));
        assert_eq!(
            stdout(&out),
            committed,
            "{name} no longer prints results/{name}.txt"
        );
    }
}

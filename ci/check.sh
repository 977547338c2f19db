#!/usr/bin/env bash
# The tier-1 gate: everything CI enforces, runnable locally with
#   ./ci/check.sh [lint|build|all]
#
# Stages (default: all):
#   lint   fast fail-early checks — fmt, clippy, rustdoc -D warnings
#   build  release build, tests, the seven riptide-bench gates, and the
#          benchmark package's own gate (benchmark/check.sh)
#
# CI runs the stages as separate jobs (lint gates build), so a
# formatting error never burns a long bench run. The workspace is
# fully self-contained (no registry deps; `proptest` is an in-repo
# shim), so every step below works offline. Pass
# --offline through to cargo via CARGO_NET_OFFLINE=true if your
# environment has no network at all.
#
# The bench gates are `riptide-bench <experiment> --check` runs, which
# read the checked-in BENCH_*.json records and write nothing; the one
# run that does write points --out at a scratch directory. The gate
# must leave the git tree clean.

set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"
case "$stage" in
    lint|build|all) ;;
    *) echo "usage: ci/check.sh [lint|build|all]" >&2; exit 2 ;;
esac

run() {
    echo "==> $*"
    "$@"
}

if [[ "$stage" == "lint" || "$stage" == "all" ]]; then
    run cargo fmt --all -- --check
    run cargo clippy --workspace --all-targets -- -D warnings
    run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
fi

if [[ "$stage" == "build" || "$stage" == "all" ]]; then
    run cargo build --release --workspace
    run cargo test -q --release --workspace

    # The tests above build the examples but never run them; run each
    # once, so one that panics fails here. `cargo test` already built
    # them, and all five run in well under a second together. None
    # writes a file.
    for example in quickstart cdn_probes netem_lab prefix_routes load_balancing_advisory; do
        echo "==> cargo run -q --release --example $example"
        cargo run -q --release --example "$example" >/dev/null
    done

    # The proptest shim seeds each property from its name, so the run
    # above sees one input set for ever. Two more, for the properties
    # that read bytes from outside — the scanner against its model, the
    # hostile-text totality tests, and the state-file reader over bytes
    # a faulty disk tore at random — for the tick against its model, the
    # tick in key-range parts against the tick in one, the tick's
    # grouping against a stable sort and the aggregation pass applied by
    # key range against the pass applied member by member, for the `ss`
    # scan in text-range parts against the scan in one, and for the
    # window bounds under any fault sequence the faulted tick's retries
    # meet (`chaos::`, a tiny 3-PoP testbed for 150 s), for the swarm
    # runs of one agent with a drawn subset of its subsystems and faults
    # (`swarm::`), and for the first flight of every fresh connection of a
    # two-PoP `World` against its route, window and object
    # (`first_flight::`), for the LPM trie against a linear-scan
    # oracle under churn (`--test invariants lpm_trie_`), for a sender
    # and receiver delivering everything under drawn losses with SACK on
    # or off and with delayed ACKs (`--test invariants
    # sender_receiver_eventually_deliver_everything
    # delayed_ack_receiver_still_delivers_everything`), and for the
    # simulated receiver's held-segment bitmap against its `BTreeSet`
    # model (`tcp::receiver::`); hostile text, the tick, the pass's application,
    # the swarm, the first flight, the receiver and the scan in the debug profile,
    # where an overflow panics instead of wrapping. These files are modules of the `repro` (root package) and
    # `riptide` (crates/core) test binaries, so a module name followed by
    # `::` picks one file's tests.
    parts=agent::tests::a_tick_in_parts_matches_the_tick_in_one
    grouping=agent::tests::the_grouping_matches_a_stable_sort
    range_apply=agent::tests::the_range_apply_matches_the_member_by_member_apply
    scan_parts=ss::tests::a_scan_in_parts_matches_the_scan_in_one
    receiver=tcp::receiver::
    for seed in 1 2016; do
        run env PROPTEST_SEED="$seed" cargo test -q --release --test repro -- \
            ss_scanner_differential:: chaos:: first_flight::
        run env PROPTEST_SEED="$seed" cargo test -q --release --test invariants -- \
            lpm_trie_ sender_receiver_eventually_deliver_everything \
            delayed_ack_receiver_still_delivers_everything
        run env PROPTEST_SEED="$seed" cargo test -q --release -p riptide-simnet --lib "$receiver"
        run env PROPTEST_SEED="$seed" cargo test -q -p riptide --test riptide hostile_text::
        run env PROPTEST_SEED="$seed" cargo test -q -p riptide-linuxnet --test hostile_text
        run env PROPTEST_SEED="$seed" cargo test -q --release -p riptide-linuxnet --lib "$scan_parts"
        run env PROPTEST_SEED="$seed" cargo test -q --test repro tick_differential::
        run env PROPTEST_SEED="$seed" cargo test -q --release -p riptide --lib "$parts"
        run env PROPTEST_SEED="$seed" cargo test -q --release -p riptide --lib "$grouping"
        run env PROPTEST_SEED="$seed" cargo test -q --release -p riptide --lib "$range_apply"
        run env PROPTEST_SEED="$seed" cargo test -q --release -p riptide --test riptide \
            -- persist_props:: swarm::
    done
    run cargo test -q -p riptide --lib "$parts"
    run cargo test -q -p riptide --lib "$grouping"
    run cargo test -q -p riptide --lib "$range_apply"
    run cargo test -q -p riptide --test riptide swarm::
    run cargo test -q --test repro first_flight::
    run cargo test -q -p riptide-linuxnet --lib "$scan_parts"
    run cargo test -q -p riptide-simnet --lib "$receiver"

    # The five outcome records, one --check each. Every family re-runs
    # its sweep at its record's scale and seeds, asserts its own claims
    # (zero-rate / default-policy / baseline-cell arms bit-identical to
    # the fault-free probe comparison; chaos: no installed window
    # outside [c_min, c_max] at any fault rate; guardrail: drift repaired,
    # foreign routes untouched, bounds held, breaker reduces harm;
    # coldstart: snapshot bookkeeping is outcome-neutral and warm arms
    # beat the 1.5x ramp floor; scenarios: two cells re-rank the
    # policies and loss-utility beats EWMA on the lossy edge) and then
    # compares its run digest with the checked-in BENCH_*.json — drift
    # in any arm is fatal. --check writes nothing.
    run cargo run --release -p riptide-bench -- chaos --check
    run cargo run --release -p riptide-bench -- guardrail --check
    run cargo run --release -p riptide-bench -- coldstart --check
    run cargo run --release -p riptide-bench -- policy_arena --check
    run cargo run --release -p riptide-bench -- scenarios --check

    # Destination tables: a small megacdn run exercises the trie, the
    # aggregation round trip, reconcile and grouped eviction end to end
    # and fails on any structural gate (its record goes to a scratch
    # file: the gate must leave the git tree clean)...
    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' EXIT
    run cargo run --release -p riptide-bench -- megacdn --scale test \
        --out "$scratch/BENCH_megacdn.json"
    # ...and the full gate replays 1M+ destinations against the
    # checked-in BENCH_megacdn.json: lookup/round-trip digest drift is
    # fatal, as are the aggregation-ratio floor, the sublinear
    # grouped-eviction ceiling, the tick counts (the steady tick sweeps
    # the table once and runs no aggregation pass) and the restart ratio.
    run cargo run --release -p riptide-bench -- megacdn --scale quick --check

    # The repo benchmark (BENCHMARK.json) is its own package outside the
    # workspace, so nothing above builds it: its gate checks formatting,
    # lints and unit tests, then smoke-runs all five workloads — which
    # fails if the engine API it drives (ShardWork::{ProbeArm,
    # ScenarioArm}, probe_sim_config, scenario_sim_config) has moved or
    # a shard driven directly stops matching the engine's event count.
    run benchmark/check.sh
fi

echo "==> stage '$stage' passed"

#!/usr/bin/env bash
# The tier-1 gate: everything CI enforces, runnable locally with
#   ./ci/check.sh [lint|build|all]
#
# Stages (default: all):
#   lint   fast fail-early checks — fmt, clippy, rustdoc -D warnings
#   build  release build, tests, the bench smoke gates, and the
#          benchmark package's own gate (benchmark/check.sh)
#
# CI runs the stages as separate jobs (lint gates build), so a
# formatting error never burns a long bench run. The workspace is
# fully self-contained (no registry deps; `proptest` and `criterion`
# are in-repo shims), so every step below works offline. Pass
# --offline through to cargo via CARGO_NET_OFFLINE=true if your
# environment has no network at all.
#
# Bench smoke runs write their BENCH_*.json output to a scratch
# directory (--out), never to the checked-in baselines: the gate must
# leave the git tree clean. Regression checks (simperf/shardscale
# --check) read the checked-in baselines and write nothing.

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
    # Doc-tests explicitly: the `# Examples` blocks across the crates
    # are executable documentation and must stay honest on their own,
    # even if a future flag trims them from the default test run.
    run cargo test -q --release --doc --workspace

    scratch="$(mktemp -d)"
    trap 'rm -rf "$scratch"' EXIT

    # Closed-loop safety smoke: the guardrail sweep at test scale asserts
    # its own invariants (drift repaired, foreign routes untouched, bounds
    # held, breaker reduces harm) and exits nonzero on any violation.
    run cargo run --release -p riptide-bench --bin guardrail -- \
        --scale test --seeds 2 --out "$scratch/BENCH_guardrail.json"
    run grep -q '"drift_unrepaired": 0' "$scratch/BENCH_guardrail.json"
    run grep -q '"foreign_touched": 0' "$scratch/BENCH_guardrail.json"
    run grep -q '"invariant_breaches": 0' "$scratch/BENCH_guardrail.json"

    # Telemetry smoke: a quick-scale probe plan with the metrics bundle
    # attached must keep merged snapshots thread-count invariant, leave
    # uninstrumented digests bit-identical (zero overhead), and move the
    # key counters; the golden test pins the exposition format itself.
    run cargo run --release -p riptide-bench --bin telemetry -- \
        --scale test --seeds 1 --out "$scratch/BENCH_telemetry.json"
    run grep -q '"thread_invariant": true' "$scratch/BENCH_telemetry.json"
    run grep -q '"zero_overhead": true' "$scratch/BENCH_telemetry.json"
    run cargo test -q --release --test golden_exposition

    # Event-queue order, by name: the timing wheel against the ordered-map
    # model, so an ordering bug fails here and not as a digest diff below.
    run cargo test -q --release --test event_queue_differential

    # Hot-path smoke: replay the quick-scale probe comparison against the
    # checked-in BENCH_simperf.json. Any digest drift is fatal (the
    # optimisations must be behaviour-preserving, bit for bit), as is an
    # events/sec regression past the recorded baseline's floor.
    run cargo run --release -p riptide-bench --bin simperf -- \
        --scale quick --check

    # Shard-scaling smoke: the work-stealing scheduler must reproduce
    # the checked-in serial digest (drift fatal), merge identically at
    # threads=1 and threads=4 (steal-order divergence fatal), and — on
    # a runner with >= 4 hardware threads — hit the speedup floor at
    # threads=4.
    run cargo run --release -p riptide-bench --bin shardscale -- \
        --scale quick --check

    # Destination-table smoke: a small megacdn run exercises the trie,
    # the aggregation round trip, reconcile and grouped eviction end to
    # end (scratch --out keeps the baseline untouched)...
    run cargo run --release -p riptide-bench --bin megacdn -- \
        --scale test --out "$scratch/BENCH_megacdn.json"
    run grep -q '"roundtrip_ok": true' "$scratch/BENCH_megacdn.json"
    # ...and the full gate replays 1M+ destinations against the
    # checked-in BENCH_megacdn.json: lookup/round-trip digest drift is
    # fatal, as are the aggregation-ratio floor and the sublinear
    # grouped-eviction ceiling.
    run cargo run --release -p riptide-bench --bin megacdn -- \
        --scale quick --check

    # Durability smoke: one coldstart sweep at test scale writes to the
    # scratch dir and asserts its own invariants (zero-rate arms
    # bit-identical to the fault-free run, warm arms over the
    # ramp-improvement floor)...
    run cargo run --release -p riptide-bench --bin coldstart -- \
        --out "$scratch/BENCH_coldstart.json"
    run grep -q '"zero_rate_bit_identical": true' "$scratch/BENCH_coldstart.json"
    # ...and the gate replays the sweep against the checked-in
    # BENCH_coldstart.json: digest drift is fatal, as is a snapshot or
    # snapshot+gossip arm falling under the 1.5x ramp-improvement floor
    # vs. cold relearn.
    run cargo run --release -p riptide-bench --bin coldstart -- --check

    # Policy-arena smoke: one test-scale ablation run writes to the
    # scratch dir; the binary itself aborts unless the default-EWMA arm
    # reproduces the probe comparison bit for bit (the Policy trait
    # seam must cost nothing)...
    run cargo run --release -p riptide-bench --bin policy_arena -- \
        --scale test --out "$scratch/BENCH_policyarena.json"
    run grep -q '"ewma_bit_identical": true' "$scratch/BENCH_policyarena.json"
    # ...and the gate replays the quick-scale arena against the
    # checked-in BENCH_policyarena.json: digest drift in any policy's
    # arm is fatal.
    run cargo run --release -p riptide-bench --bin policy_arena -- \
        --scale quick --check

    # Scenario-matrix smoke: one test-scale matrix run writes to the
    # scratch dir; the binary itself aborts unless the baseline cell
    # reproduces the probe comparison bit for bit, at least two cells
    # re-rank the policies, and loss-utility beats plain EWMA on the
    # lossy-edge arm...
    run cargo run --release -p riptide-bench --bin scenarios -- \
        --scale test --threads 4 --out "$scratch/BENCH_scenarios.json"
    run grep -q '"baseline_bit_identical": true' "$scratch/BENCH_scenarios.json"
    run grep -q '"lossy_edge_loss_utility_beats_ewma": true' "$scratch/BENCH_scenarios.json"
    # ...and the gate replays the matrix against the checked-in
    # BENCH_scenarios.json: digest drift in any scenario cell is fatal.
    run cargo run --release -p riptide-bench --bin scenarios -- \
        --threads 4 --check

    # The repo benchmark (BENCHMARK.json) is its own package outside the
    # workspace, so nothing above builds it: its gate checks formatting,
    # lints and unit tests, then smoke-runs all five workloads — which
    # fails if the engine API it drives (ShardWork::{ProbeArm,
    # ScenarioArm}, probe_sim_config, scenario_sim_config) has moved or
    # a shard driven directly stops matching the engine's event count.
    run benchmark/check.sh
fi

echo "==> stage '$stage' passed"

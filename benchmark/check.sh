#!/usr/bin/env bash
# The benchmark package's own gate: formatting, lints, unit tests, a smoke
# run (test-scale shapes, one-second windows, every workload untraced and
# traced, every output checked) and a check that peak memory does not
# follow the window's length. About a minute.
# A later change can call this from ci/check.sh.
set -euo pipefail

# From the repository root, so .cargo/config.toml's rustflags apply.
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo fmt --manifest-path "$manifest" -- --check
step cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
step cargo test --offline --release --manifest-path "$manifest" -q
step cargo run --offline --release --quiet --manifest-path "$manifest" -- all --smoke

# peak_rss_mb is read after a fixed amount of work, so it must not move
# with the length of the window (which is to say, with the machine's
# speed). The agent workloads are where it could: their tables grow with
# every cycle. The 10 % allowed is address-space randomisation.
peak_rss_mb() {
    cargo run --offline --release --quiet --manifest-path "$manifest" -- \
        --workload "$1" --smoke --seconds "$2" --trace 0 | tail -n 1 |
        sed -E 's/.*"peak_rss_mb": \{"value": ([0-9.eE+-]+).*/\1/'
}
echo
for workload in megafleet-tick daemon-poll; do
    short=$(peak_rss_mb "$workload" 1)
    long=$(peak_rss_mb "$workload" 4)
    echo "==> $workload peak_rss_mb: $short MB over 1 s, $long MB over 4 s"
    awk -v a="$short" -v b="$long" 'BEGIN { d = (b - a) / a; exit !(d < 0.10 && d > -0.10) }' || {
        echo "peak_rss_mb of $workload depends on --seconds" >&2
        exit 1
    }
done

echo
echo "benchmark checks passed"

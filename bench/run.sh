#!/usr/bin/env bash
# Build the benchmark offline and run it.
#
#   bench/run.sh [--seed N]            all three workloads, untraced: every
#                                      end-to-end metric, one line each
#   bench/run.sh [--seed N] --trace    the separate traced run: every
#                                      per-layer metric, spans in
#                                      bench/out/trace.<workload>.json
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                      one workload (the driver's form); the
#                                      last line of stdout is its JSON object
#
# Exits non-zero if the build fails or any operation failed verification.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/llog-repo-bench"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" --out "$here/out" "$@"
    fi
done
status=0
for w in served_put served_read_heavy embedded_logical; do
    "$bin" --out "$here/out" --workload "$w" "$@" || status=$?
done
exit "$status"

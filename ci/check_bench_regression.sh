#!/usr/bin/env bash
# CI perf-regression gate: compare each experiment JSON produced by the
# experiments-fast job (E14/E15 in fast mode) against the committed
# fast-mode baselines in ci/bench_baselines/, and fail when a headline
# metric regresses by more than REGRESSION_PCT percent (default 30 —
# tolerant of the noise a shared CI runner adds to fast-mode runs; the
# headline metrics are dimensionless ratios where possible for the same
# reason).
#
# Usage: ci/check_bench_regression.sh [results-dir]
#   results-dir: where the fresh BENCH_*.json files are (default: repo root)
#
# Every row of the table below must have a fresh result: a missing JSON is
# an error, so deleting its row is the only way to stop gating an
# experiment.
#
# Re-baselining after a *deliberate* perf change: regenerate fast-mode
# JSONs locally and copy them into ci/bench_baselines/, or run this
# script once with LLOG_BENCH_REBASELINE=1 to copy the current results
# over the baselines instead of comparing, then commit the diff.
set -euo pipefail

cd "$(dirname "$0")/.."
results="${1:-.}"
pct="${REGRESSION_PCT:-30}"

# file | headline metric | direction (max = bigger is better)
# The metric is the LAST `"key":number` occurrence in the (single-line)
# JSON — for per-row metrics like e14's goodput that is the hardest row.
table='
BENCH_e14.json goodput max
BENCH_e15.json drain_ms min
'

metric() {
    sed -n "s/.*\"$2\":\(-\{0,1\}[0-9][0-9.]*\).*/\1/p" "$1" | head -n 1
}

fail=0
while read -r file key dir; do
    [ -n "$file" ] || continue
    cur="$results/$file"
    base="ci/bench_baselines/$file"
    if [ ! -f "$cur" ]; then
        echo "ERROR: $file: no fresh result at $cur" >&2
        fail=1
        continue
    fi
    if [ "${LLOG_BENCH_REBASELINE:-0}" = "1" ]; then
        cp "$cur" "$base"
        echo "REBASELINED $file"
        continue
    fi
    if [ ! -f "$base" ]; then
        echo "ERROR: no baseline $base — generate one (see header)" >&2
        fail=1
        continue
    fi
    b="$(metric "$base" "$key")"
    c="$(metric "$cur" "$key")"
    if [ -z "$b" ] || [ -z "$c" ]; then
        echo "ERROR: $file: metric '$key' missing (baseline='$b' current='$c')" >&2
        fail=1
        continue
    fi
    if awk -v b="$b" -v c="$c" -v p="$pct" -v d="$dir" 'BEGIN {
        if (b <= 0) exit 0
        if (d == "min") worse = (c - b) / b * 100
        else worse = (b - c) / b * 100
        exit (worse > p) ? 1 : 0
    }'; then
        echo "OK   $file $key: baseline=$b current=$c ($dir, tolerance ${pct}%)"
    else
        echo "FAIL $file $key: baseline=$b current=$c regressed >${pct}%" >&2
        fail=1
    fi
done <<EOF
$table
EOF

exit "$fail"

#!/usr/bin/env bash
# Run every workload ten times, each with another seed, and print for each
# end-to-end metric the median and the spread: the distance between the
# first and third quartile (Python's statistics.quantiles(values, n=4)) as
# a share of the median — what the driver computes before it accepts the
# benchmark. Exits non-zero if a spread (setup_s excepted) exceeds its
# bound from BENCHMARK.json, or any run failed verification.
#
#   bench/spread.sh [first-seed [workload]]   (output: bench/SPREAD.txt)
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
first="${1:-1}"
python3 - "$here" "$first" "${2:-}" <<'PY'
import json, os, statistics, subprocess, sys

here, first, only = sys.argv[1], int(sys.argv[2]), sys.argv[3]
manifest = json.load(open(f"{here}/../BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
bad = 0
print(f"{'workload/metric':44s} {'median':>14s} {'spread':>8s} {'bound':>7s} {'min':>12s} {'max':>12s}")
for w in (x["name"] for x in manifest["workloads"] if only in ("", x["name"])):
    values = {}
    for seed in range(first, first + 10):
        run = subprocess.run(
            ["bash", f"{here}/run.sh", "--workload", w, "--seed", str(seed),
             "--seconds", str(manifest["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        # Kept for a second look: the per-slice series behind each timing.
        os.makedirs(f"{here}/out/spread", exist_ok=True)
        open(f"{here}/out/spread/{w}-{seed}.txt", "w").write(run.stdout)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if run.returncode != 0 or not result["correct"]:
            print(f"{w} seed {seed}: FAILED verification ({result['failed']} ops)")
            bad += 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in values.items():
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med
        over = name != "setup_s" and spread > bounds[name]
        bad += over
        print(f"{w + '/' + name:44s} {med:14.4f} {100*spread:7.2f}% {100*bounds[name]:6.1f}% "
              f"{min(v):12.4f} {max(v):12.4f}{'  OUT OF BOUND' if over else ''}", flush=True)
print("spread: OK" if bad == 0 else f"spread: {bad} problem(s)")
sys.exit(1 if bad else 0)
PY

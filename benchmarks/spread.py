"""Run the benchmark over the baseline's seeds and report each metric's spread.

    python3 benchmarks/spread.py

It runs every workload of BENCHMARK.json once per seed of baseline.json
(0-9), as the baseline was measured.  For each workload and end-to-end
metric it prints the median of the runs and the distance between their
first and third quartiles as a share of the median, next to the metric's
bound in BENCHMARK.json.  The full table goes
to stdout as one JSON object on the last line.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = json.loads((HERE / "baseline.json").read_text())["seeds"]
    table = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, workload, seed) for seed in seeds]
        table[workload] = {}
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            table[workload][metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"{workload:14s} {metric['name']:12s} median {med:12.6g} {metric['unit']:6s} "
                  f"spread {spread:7.4f}  bound {metric['bound']}  {'ok' if spread < metric['bound'] / 3 else 'WIDE'}",
                  flush=True)
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())

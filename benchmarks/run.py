"""Run one trapqip benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sweep-honest --seed 0 --seconds 30 --trace 0

Each workload is closed-loop with a single caller: the next op starts when
the previous one has returned.  Ops cycle through the workload's seeded pass
for --seconds seconds, and for at least MIN_OPS ops.  Every op's output is
checked; a failed check, an exception or a non-zero CLI exit fails the op.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
runs one untraced warm-up pass, then whole passes in which every op runs
once with the layer trace installed and once without, and reports the
per-layer metrics, per op, plus the tracing overhead.  Lines before the
last name each metric with its unit; the last stdout line is one JSON
object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys

# Before numpy loads: one BLAS thread, so the numbers and the golden record
# bytes do not depend on the core count or on other load on the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
QUBIT_CAP_ENV = "TRAPQIP_MAX_QUBITS"
WORKLOAD_NAMES = ("sweep-honest", "cheat-bounds", "resample")
MIN_OPS = 100
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


@dataclass
class RunResult:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0


def run_one(op, *, tracer=None, op_id: int = 0) -> tuple[float, bool]:
    """Latency of one op and whether its output passed its check."""
    span = tracer.begin_op(op_id) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        out = op.call()
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op(span)
    if error is None:
        try:
            ok = bool(op.check(out))
        except Exception as exc:
            ok, error = False, exc
    else:
        ok = False
    if not ok:
        print(f"# failed op {op.label}", file=sys.stderr)
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
    return t1 - t0, ok


def run_ops(ops, *, seconds: float = 0.0, min_ops: int = 0, sequence=None) -> RunResult:
    """Closed loop over the pass; with sequence, run exactly those op indices."""
    res = RunResult()
    start = time.perf_counter()
    i = 0
    while True:
        if sequence is None:
            if i >= min_ops and time.perf_counter() - start >= seconds:
                break
            k = i % len(ops)
        else:
            if i >= len(sequence):
                break
            k = sequence[i]
        latency, ok = run_one(ops[k])
        res.failed += not ok
        res.latencies.append(latency)
        i += 1
    res.wall = time.perf_counter() - start
    return res


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    import trapqip

    if Path(trapqip.__file__).resolve().parent != SRC / "trapqip":
        raise SystemExit(f"trapqip was imported from {trapqip.__file__}, not from {SRC}")


def set_up(name: str, seed: int, work_dir: Path):
    """Inputs, instances built ahead of time, and one warm-up op of each kind."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, work_dir)
    for op in wl.warmup:
        try:
            op.call()
        except Exception:  # the same op fails again, and is counted, in the timed run
            pass
    return wl


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes: from spawn until they are ready to time an op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited with {code}")
        samples.append(t1 - t0)
    return samples


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def end_to_end(res: RunResult, setups: list[float]) -> tuple[dict, str]:
    lat_ms = [t * 1e3 for t in res.latencies]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat_ms) / res.wall,
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (len(lat_ms) - res.failed) / len(lat_ms),
    }
    beyond = sum(t > deciles[8] for t in lat_ms)
    note = (f"latency samples {len(lat_ms)}, {beyond} beyond p90; fail_ratio {res.failed / len(lat_ms)}; "
            f"setup samples {setups}")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, note


def traced_run(wl, args) -> tuple[dict, int, int, str]:
    """Per-layer metrics per op, from whole passes run traced and untraced op by op.

    An untraced warm-up pass first fills trapqip's lru caches, so neither
    side pays for building cached operators.  Then each op of a pass runs
    once traced and once untraced, in alternating order, so that drift in
    machine speed and cache warmth fall on both sides alike.  Passes repeat
    until the run's seconds are used and at least MIN_OPS ops are traced.
    Every pass does the same work, so the per-op figures do not depend on
    how many passes fit.
    """
    import tracing

    ops = wl.ops
    warm = run_ops(ops, sequence=range(len(ops)))
    failed = warm.failed
    tracer = tracing.Tracer()
    traced_s = plain_s = 0.0
    n = 0
    start = time.perf_counter()
    while n < MIN_OPS or time.perf_counter() - start < args.seconds:
        for op in ops:
            for traced in ((True, False) if n % 2 == 0 else (False, True)):
                if traced:
                    tracer.install()
                    try:
                        latency, ok = run_one(op, tracer=tracer, op_id=n)
                    finally:
                        tracer.uninstall()
                    traced_s += latency
                else:
                    latency, ok = run_one(op)
                    plain_s += latency
                failed += not ok
            n += 1
    values = tracer.layer_metrics(n)
    values["trace.overhead_s"] = (traced_s - plain_s) / n
    tracer.save(WORK / f"spans-{args.workload}.npz")
    metrics = {k: (v, tracing.unit_of(k)) for k, v in values.items()}
    note = f"per-layer values are per op over {n} traced ops ({n // len(ops)} passes)"
    return metrics, len(ops) + 2 * n, failed, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None, help="input seed; default: the golden-record seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if QUBIT_CAP_ENV in os.environ:
        print(f"refusing to run: unset {QUBIT_CAP_ENV} so every number uses the default qubit cap",
              file=sys.stderr)
        return 2
    _import_program()
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    setups = [] if args.setup_only or args.trace else setup_samples(args)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = set_up(args.workload, args.seed, work_dir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics, attempted, failed, note = traced_run(wl, args)
        else:
            res = run_ops(wl.ops, seconds=args.seconds, min_ops=MIN_OPS)
            metrics, note = end_to_end(res, setups)
            attempted, failed = len(res.latencies), res.failed
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:36s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

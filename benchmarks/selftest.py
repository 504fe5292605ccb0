"""Self-test of the benchmark at a tiny size.

    python3 benchmarks/selftest.py

Runs one op of each kind of every workload, plain and traced, and checks
that no op fails, that the layers predicted to stay idle on a workload make
no calls there, that a tampered record and a raising op count as failed ops,
that the qubit-cap guard refuses to run, and that BENCHMARK.json names the
metrics run.py prints.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run  # sets the BLAS thread count before numpy loads

# layer -> workloads on which it must make no calls at all
IDLE = {
    "protocols.ceiling": ("sweep-honest", "resample"),
    "protocols.search": ("sweep-honest", "resample"),
    "protocols.overlap": ("sweep-honest", "resample"),
    "rejection": ("sweep-honest", "cheat-bounds"),
    "cli": ("resample",),
}
# layer -> workloads on which it must be busy
BUSY = {
    "cli": ("sweep-honest", "cheat-bounds"),
    "protocols.ceiling": ("cheat-bounds",),
    "protocols.search": ("cheat-bounds",),
    "protocols.overlap": ("cheat-bounds",),
    "analysis": ("cheat-bounds",),
    "sampling": ("cheat-bounds",),
    "rejection": ("resample",),
    "separation": ("resample",),
    "core.validate.unitary": ("sweep-honest",),
    "core.validate.density": ("cheat-bounds",),
}


def tampered(text: str) -> str:
    rec = json.loads(text)
    rec["p0"] += 1e-6
    return json.dumps(rec, sort_keys=True, indent=2) + "\n"


def quietly_failed(op) -> int:
    """Failed-op count of one run of op, without the runner's failure report."""
    with contextlib.redirect_stderr(io.StringIO()):
        return run.run_ops([op], sequence=[0]).failed


def main() -> int:
    run._import_program()
    import tracing
    import workloads
    from workloads import Op

    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    work_dir = run.WORK / f"selftest-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, build in workloads.WORKLOADS.items():
            tiny = build(workloads.DEFAULT_SEED, work_dir).warmup
            every = list(range(len(tiny)))
            plain = run.run_ops(tiny, sequence=every)
            expect(plain.failed == 0, f"{name}: {len(tiny)} ops, one of each kind, pass their checks")
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_failed = sum(not run.run_one(op, tracer=tracer, op_id=i)[1] for i, op in enumerate(tiny))
            finally:
                tracer.uninstall()
            expect(traced_failed == 0, f"{name}: the same ops pass with the trace installed")
            layers = tracer.layer_metrics(len(tiny))
            for layer, idle in IDLE.items():
                if name in idle:
                    expect(layers[f"{layer}.calls"] == 0, f"{name}: {layer} makes no calls")
            for layer, busy in BUSY.items():
                if name in busy:
                    expect(layers[f"{layer}.calls"] > 0, f"{name}: {layer} is traced")

        handler = workloads.cli._HANDLERS["run"]
        tracer = tracing.Tracer()
        tracer.install()
        swapped = workloads.cli._HANDLERS["run"] is not handler and workloads.cli.cmd_run is not handler
        tracer.uninstall()
        restored = workloads.cli._HANDLERS["run"] is handler and workloads.cli.cmd_run is handler
        expect(swapped and restored, "the trace reaches the CLI dispatch table and uninstall restores it")

        for seed in (workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + 1):
            op = workloads.sweep_honest(seed, work_dir).ops[0]
            code, text = op.call()
            expect(op.check((code, text)), f"seed {seed}: the untouched record passes")
            expect(not op.check((code, tampered(text))), f"seed {seed}: a record with p0 off by 1e-6 fails")
            bad = Op(op.kind, op.label, lambda: (code, tampered(text)), op.check)
            expect(quietly_failed(bad) == 1, f"seed {seed}: the runner counts it as failed")

        def boom():
            raise ValueError("raised on purpose")

        expect(quietly_failed(Op("boom", "boom", boom, lambda out: True)) == 1, "an op that raises counts as failed")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = dict(os.environ, TRAPQIP_MAX_QUBITS="18")
    guard = subprocess.run([sys.executable, run.__file__, "--workload", "resample"],
                           env=env, capture_output=True, text=True, timeout=60)
    expect(guard.returncode != 0 and not guard.stdout, "TRAPQIP_MAX_QUBITS set: refuses to run, prints no result")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end matches run.py")
    printed = set(layers) | {"trace.overhead_s"}
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(set(listed) == printed, "BENCHMARK.json per_layer names the metrics a traced run prints")
    expect(all(tracing.unit_of(n) == u for n, u in listed.items()), "per_layer units match")

    print("selftest " + ("passed" if not problems else f"FAILED: {len(problems)} checks"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Write the golden `trapqip run` records of the sweep-honest workload.

    python3 benchmarks/make_golden.py

Runs one pass of sweep-honest at the default seed, with the same settings
as run.py, and stores each record's exact bytes under its op label.  run.py
then fails any default-seed record whose bytes differ.  Regenerate only when
a change to the records is intended.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads


def main() -> int:
    run._import_program()
    import workloads

    work_dir = run.WORK / "golden"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.sweep_honest(workloads.DEFAULT_SEED, work_dir)
        rows = []
        for op in sorted(wl.ops, key=lambda op: op.label):
            code, text = op.call()
            if code != 0:
                print(f"{op.label}: exit code {code}", file=sys.stderr)
                return 1
            rows.append(json.dumps({"label": op.label, "record": text}, sort_keys=True))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    workloads.GOLDEN.parent.mkdir(exist_ok=True)
    workloads.GOLDEN.write_text("\n".join(rows) + "\n")
    print(f"wrote {len(rows)} records to {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

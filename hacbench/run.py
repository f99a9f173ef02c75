#!/usr/bin/env python3
"""graphhac benchmark: per-command latency, peak memory and clustering quality.

Run from the repository root:

    python3 hacbench/run.py --workload sparse --seed 1 --seconds 20 --trace 0

Workloads are `sparse`, `star` and `points` (see workloads.py and README.md).
With --trace 0 the last stdout line is one JSON object whose metrics are the
end-to-end ones; with --trace 1 a traced round follows and the metrics are
the per-layer ones, with every span written to .hacbench-out/. The program
is imported from src/ next to this directory and nowhere else; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".hacbench-work"
TRACE_DIR = ROOT / ".hacbench-out"
WORKLOADS = ("sparse", "star")


def _load_program() -> bool:
    """Limit BLAS to one thread, then import graphhac from src/. A second
    BLAS thread would time the shared host's other core as well."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["HAC_LOG"] = "off"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import graphhac
    except ImportError as e:
        print(f"error: cannot import graphhac from {src}: {e}", file=sys.stderr)
        return False
    if Path(graphhac.__file__).resolve().parent != src / "graphhac":
        print(f"error: graphhac resolved to {graphhac.__file__}, not {src}", file=sys.stderr)
        return False
    if not (ROOT / "data" / "iris.csv").is_file():
        print(f"error: missing {ROOT / 'data' / 'iris.csv'}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="graphhac benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not _load_program():
        return 2
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        res = workloads.bench(args.workload, args.seed, args.seconds,
                              TRACE_DIR if args.trace else None, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed}: {res['rounds']} timed rounds")
    print("  times are at the reference speed (hacbench/calibration.py); wall = median wall time")
    for name, unit in workloads.END_TO_END.items():
        value = res["e2e"].get(name)
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        s = res["samples"].get(name)
        if s:
            shown += (f"  (median of {len(s)}; min {min(s):.4g}, max {max(s):.4g};"
                      f" wall {res['wall'][name]:.4g})")
        print(f"  {name:<20} {shown}")
    print(f"  operations: {res['failed']} failed of {res['attempted']} attempted")
    if res["per_layer"] is not None:
        for name, (value, unit) in res["per_layer"].items():
            print(f"  {name:<42} {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = {k: {"value": res["e2e"][k], "unit": u}
                   for k, u in workloads.END_TO_END.items() if k in res["e2e"]}
    complete = res["per_layer"] is not None or len(metrics) == len(workloads.END_TO_END)
    print(json.dumps({
        "correct": res["failed"] == 0 and complete,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

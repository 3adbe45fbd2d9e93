#!/usr/bin/env python3
"""capt's end-to-end benchmark with a traced per-layer split.

    python3 perfbench/run.py --workload train_short --seed 11 --seconds 30 --trace 0

Runs from the root of a source checkout and imports capt from its ``src/``.
With ``--trace 0`` it measures the end-to-end metrics with no tracing; with
``--trace 1`` it measures half the time untraced and half traced, and
reports the per-layer metrics.  Either way it checks the program's outputs
against values pinned in ``perfbench/pinned.json``.  It prints every metric
with its unit, an environment record, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Results and traced
spans are also written under ``.perfbench/`` in the checkout.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_THREADS = "1"  # one caller on one core: steadier than a BLAS pool, never > nproc


def import_capt() -> bool:
    """Import capt from the checkout's src/ only; False when it is not there."""
    if not (SRC / "capt" / "__init__.py").is_file():
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import capt

    return Path(capt.__file__).resolve().parent == SRC / "capt"


def environment() -> dict:
    import numpy as np

    from capt import scan

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"scan_backend": scan.backend(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": int(BLAS_THREADS),
            "git_commit": commit, "src_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not import_capt():
        print(f"perfbench: no capt package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    env = environment()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        result = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), Path(work), OUT / f"spans-{tag}.jsonl")

    for name, (value, unit) in result["metrics"].items():
        print(f"{name:34s} {value:16.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print("checks " + json.dumps(result["checks"], sort_keys=True))
    print("samples " + json.dumps(result["samples"], sort_keys=True))
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**line, "env": env, "checks": result["checks"], "samples": result["samples"]},
        indent=2, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

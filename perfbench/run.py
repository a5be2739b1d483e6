"""Benchmark entry point.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with provenance and details, also written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One thread per process: BLAS/OpenMP pools would make timings depend on
# what else the machine runs.  Must be set before NumPy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("paper_sweep", "city_fleet", "serve_mix", "map_to_route")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import importlib

    from perfbench.harness import run_workload

    module = importlib.import_module(f"perfbench.{args.workload}")
    return run_workload(module, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

"""Regression guard over the committed ``BENCH_*.json`` artifacts.

Every benchmark records the floor it asserts (``required_speedup`` /
``required_realtime``) *inside* its committed artifact, next to the number
it achieved — the artifacts are self-describing.  This guard re-reads the
committed files and fails when

* an achieved number sits below the floor recorded beside it (a perf
  regression was committed),
* an achieved number sits above the ceiling recorded beside it (overhead
  budgets, e.g. ``BENCH_obs.json``),
* a recorded identity/equivalence flag is ``False`` (a correctness
  regression was committed),
* an expected artifact is missing, or
* a ``BENCH_*.json`` appears at the repository root without a floor spec
  here (new benchmarks must register their guard).

Run it directly (CI does, before regenerating any artifact)::

    python benchmarks/check_bench_floors.py

or programmatically via :func:`check_all`, which returns the list of
failure messages (empty when the committed artifacts are healthy).
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import List

#: Per-artifact guard spec: ``floors`` maps an achieved metric (dotted
#: path) to the recorded floor it must meet (dotted path into the same
#: file); ``ceilings`` maps an achieved metric to the recorded maximum it
#: must stay at or below; ``flags`` lists recorded booleans that must be
#: true.
_SPECS = {
    "BENCH_sweep_runner.json": {
        "floors": {"speedup": "required_speedup"},
        "flags": ["updates_per_hour_identical"],
    },
    "BENCH_query_engine.json": {
        "floors": {
            "speedup": "required_speedup",
            "speedup_vs_linear": "required_speedup_vs_linear",
        },
        "ceilings": {"load_imbalance": "max_load_imbalance"},
        "flags": ["answers_identical"],
    },
    "BENCH_ingest.json": {
        "floors": {
            "routing.speedup": "routing.required_speedup",
            "cache_speedup": "required_cache_speedup",
        },
        "flags": [],
    },
    "BENCH_bigmap.json": {
        "floors": {"reference.speedup": "reference.required_speedup"},
        "flags": [
            "reference.costs_identical",
            "reference.paths_identical",
            "query.sub_ms_p50",
        ],
    },
    "BENCH_megafleet.json": {
        "floors": {"realtime_factor_largest": "required_realtime"},
        "flags": ["columnar_identical_to_event"],
    },
    "BENCH_serve.json": {
        "floors": {
            "runs.clients_1.throughput_rps": "required_throughput_rps",
            "runs.clients_4.throughput_rps": "required_throughput_rps",
        },
        "flags": ["answers_identical", "p99_nonzero"],
    },
    "BENCH_obs.json": {
        "floors": {},
        "ceilings": {"overhead_pct": "max_overhead_pct"},
        "flags": ["results_identical", "metrics_consistent"],
    },
}


def _lookup(record: dict, dotted: str):
    value = record
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(dotted)
        value = value[part]
    return value


def check_artifact(path: str, spec: dict) -> List[str]:
    """Failure messages for one committed artifact (empty = healthy)."""
    name = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        return [f"{name}: missing (expected a committed benchmark artifact)"]
    except json.JSONDecodeError as exc:
        return [f"{name}: unreadable JSON ({exc})"]
    failures = []
    for achieved_path, floor_path in spec.get("floors", {}).items():
        try:
            achieved = _lookup(record, achieved_path)
            floor = _lookup(record, floor_path)
        except KeyError as exc:
            failures.append(f"{name}: missing key {exc.args[0]}")
            continue
        if achieved is None or achieved < floor:
            failures.append(
                f"{name}: {achieved_path} = {achieved} is below the recorded "
                f"floor {floor_path} = {floor}"
            )
    for achieved_path, ceiling_path in spec.get("ceilings", {}).items():
        try:
            achieved = _lookup(record, achieved_path)
            ceiling = _lookup(record, ceiling_path)
        except KeyError as exc:
            failures.append(f"{name}: missing key {exc.args[0]}")
            continue
        if achieved is None or achieved > ceiling:
            failures.append(
                f"{name}: {achieved_path} = {achieved} is above the recorded "
                f"ceiling {ceiling_path} = {ceiling}"
            )
    for flag in spec["flags"]:
        try:
            value = _lookup(record, flag)
        except KeyError:
            failures.append(f"{name}: missing key {flag}")
            continue
        if value is not True:
            failures.append(f"{name}: {flag} is {value!r}, expected true")
    return failures


def check_all(root: str) -> List[str]:
    """Check every specced artifact under *root*; returns failure messages."""
    failures = []
    for name, spec in _SPECS.items():
        failures.extend(check_artifact(os.path.join(root, name), spec))
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        if os.path.basename(path) not in _SPECS:
            failures.append(
                f"{os.path.basename(path)}: no floor spec registered in "
                "benchmarks/check_bench_floors.py"
            )
    return failures


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    root = args[0] if args else os.path.join(os.path.dirname(__file__), "..")
    failures = check_all(root)
    if failures:
        print("benchmark floor regressions:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"all {len(_SPECS)} committed benchmark artifacts meet their floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

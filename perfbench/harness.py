"""Runs one workload: untraced measurement, correctness check, optional traced run.

Every workload reports the same end-to-end metrics, :data:`END_TO_END`;
what an operation is differs by workload (a sighting, a request, a route),
and the workload-specific figures (latency percentiles, the paper's
messages per object-hour) go to the report's details.  Every workload
module provides

* ``make_inputs(seed, seconds)`` — the seeded inputs (never timed);
* ``measure(inputs, seconds, tracers=None)`` — returns a :class:`Measured`;
  with ``tracers=(setup, run)`` the wrappers are installed around the
  set-up and the timed passes respectively;
* ``check(inputs, measured)`` — ``(checks_made, problems)``, computed
  outside every timer.

The end-to-end metrics always come from the untraced measurement.  A
traced run (``--trace 1``) measures again with the wrappers installed and
reports the per-layer metrics instead, plus the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from perfbench import layers

#: Where reports and Chrome traces are written (inside the checkout).
RESULTS_DIR = Path(__file__).resolve().parent / "results"


#: ``(name, unit)`` of the end-to-end metrics, the same in every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
)


@dataclass
class Measured:
    """One measurement of a workload."""

    #: end-to-end metric values by name (every name of :data:`END_TO_END`);
    #: the traced/untraced ratio of ``ops_per_s`` is the tracing overhead
    metrics: Dict[str, float]
    #: program operations attempted / failed or refused
    attempted: int
    failed: int
    #: set-up repetitions and timed passes (per-layer normalisers)
    setups: int
    passes: int
    #: whatever ``check`` needs
    outputs: object = None
    details: Dict[str, object] = field(default_factory=dict)


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    """Machine, toolchain and source identity of this run."""
    import numpy
    from repro.obs import build_manifest

    config = {"workload": workload, "seconds": seconds, "trace": trace}
    manifest = build_manifest(seed=seed, config=config)
    dirty_paths: List[str] = []
    if manifest["git"].get("dirty"):
        status = subprocess.run(
            ["git", "status", "--porcelain"], capture_output=True, text=True,
            timeout=10, check=False,
        )
        dirty_paths = [line[3:] for line in status.stdout.splitlines()]
    manifest["git"]["dirty_paths"] = dirty_paths
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "manifest": manifest,
    }


def _chrome(setup, run) -> Dict[str, object]:
    document = run.chrome()
    document["traceEvents"].extend(
        event for event in setup.chrome()["traceEvents"] if event["ph"] == "X"
    )
    return document


def run_workload(module, seed: int, seconds: int, trace: bool) -> int:
    """Measure, check and report one workload; returns the exit code."""
    from repro.obs import validate_chrome_trace

    name = module.NAME
    inputs = module.make_inputs(seed, seconds)
    measured = module.measure(inputs, seconds)
    checks, problems = module.check(inputs, measured)
    attempted = measured.attempted + checks
    failed = measured.failed
    metrics = {
        metric: {"value": measured.metrics[metric], "unit": unit}
        for metric, unit in END_TO_END
    }
    report: Dict[str, object] = {
        "workload": name,
        "provenance": provenance(name, seed, seconds, trace),
        "end_to_end": metrics,
        "details": measured.details,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    if trace:
        setup_tracer = layers.LayerTracer()
        run_tracer = layers.LayerTracer(origin=setup_tracer.origin)
        traced = module.measure(inputs, seconds, tracers=(setup_tracer, run_tracer))
        traced_checks, traced_problems = module.check(inputs, traced)
        problems += [f"traced run: {p}" for p in traced_problems]
        attempted += traced.attempted + traced_checks
        failed += traced.failed
        overhead = (measured.metrics["ops_per_s"] / traced.metrics["ops_per_s"] - 1.0) * 100.0
        values = layers.extract(setup_tracer, run_tracer, traced.setups, traced.passes,
                                overhead)
        chrome = _chrome(setup_tracer, run_tracer)
        problems += [f"chrome trace: {p}" for p in validate_chrome_trace(chrome)]
        live = layers.live_breakdown(run_tracer.live)
        if live["mismatched_ids"] or live["misattributed_ingests"]:
            problems.append(f"request attribution failed: {live['mismatched_ids']} ids, "
                            f"{live['misattributed_ingests']} ingests")
        layer_units = {row[0]: row[1] for row in layers.LAYER_METRICS}
        metrics = {key: {"value": value, "unit": layer_units[key]}
                   for key, value in values.items()}
        report["per_layer"] = [
            {**row, "value": values[row["metric"]]} for row in layers.layer_table()
        ]
        report["traced_details"] = traced.details
        trace_path = RESULTS_DIR / f"{name}-seed{seed}.trace.json"
        trace_path.write_text(json.dumps(chrome), encoding="utf-8")
        report["chrome_trace"] = str(trace_path.relative_to(RESULTS_DIR.parent.parent))
    failed += len(problems)
    report["problems"] = problems
    report["operations"] = {"attempted": attempted, "failed": failed,
                            "failed_share": failed / attempted}
    (RESULTS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8"
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(report, default=str))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1

"""E9 — sweep-runner throughput: fleet engine + SweepRunner vs the seed loop.

The fleet refactor moved every experiment onto one shared execution core
(vectorised estimation, memoised turn choices, batched metrics) driven by
:class:`~repro.sim.runner.SweepRunner`.  This benchmark runs the paper's
full accuracy sweep (Figures 7-10 protocols: distance-based reporting,
linear DR, map-based DR) twice over the same freeway scenario:

* once through a faithful re-implementation of the seed's serial per-sample
  loop (one protocol at a time; per sighting a streaming estimate, one
  protocol call, a poll of the channel's in-flight queue, one server
  prediction and a scalar metric), built from the per-sighting oracles in
  ``tests/reference/streaming.py``, and
* once through ``SweepRunner(jobs=4)`` on the current engine,

asserts that both produce *identical* updates/hour numbers, requires the
runner to be at least 2x faster, and records everything in
``BENCH_sweep_runner.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from repro.experiments.figures import FIGURE_PROTOCOLS
from repro.experiments.report import format_table
from repro.geo.vec import distance
from repro.service.server import LocationServer
from repro.sim.config import SimulationConfig
from repro.sim.metrics import AccuracyMetrics
from repro.sim.runner import ScenarioSpec, SweepRunner

from conftest import run_once

# Appended, not prepended: tests/ has its own conftest.py, which must not
# shadow this directory's.
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from reference.streaming import LocationSource  # noqa: E402

_RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_sweep_runner.json")


def _seed_serial_sweep(scenario, protocol_id, accuracies):
    """The seed's simulation loop, reproduced verbatim.

    One fresh protocol per point; per-sample protocol call (streaming
    estimator), per-sample channel poll, per-sample scalar metrics — the
    exact algorithm of the seed's single-object simulation loop and its
    accuracy sweep, kept here as the reference the new engine is
    measured against.  The map protocol matches the trace in
    ``prepare_trace`` before the loop, one ``update`` call per sighting.
    (The full-scale freeway sweep of the current tree was additionally
    cross-checked against the actual seed commit: all 33 points agree in
    update counts and mean errors.)
    """
    points = []
    for us in accuracies:
        protocol = SimulationConfig(protocol_id=protocol_id, accuracy=float(us)).build_protocol(
            scenario
        )
        server = LocationServer()
        server.register_object(
            "object-0", prediction=protocol.prediction_function(), accuracy=protocol.accuracy
        )
        source = LocationSource("object-0", protocol)
        metrics = AccuracyMetrics()
        metrics.set_bound(protocol.accuracy)
        sightings = source.sightings(
            scenario.sensor_trace.times, scenario.sensor_trace.positions
        )
        truth_positions = scenario.true_trace.positions
        for i, t in enumerate(sightings):
            for obj_id, delivered in source.queue.deliver_due(t):
                server.receive_update(obj_id, delivered, t)
            predicted = server.predict_position("object-0", t)
            if predicted is not None:
                metrics.record(distance(predicted, truth_positions[i]))
        duration_h = scenario.sensor_trace.duration / 3600.0
        points.append(
            {
                "us_m": float(us),
                "updates": source.updates_sent,
                "updates_per_hour": source.updates_sent / duration_h,
            }
        )
    return points


def compare_sweep_paths(scale: float, jobs: int = 4):
    """Time both paths over the full sweep and return the comparison record."""
    spec = ScenarioSpec(name="freeway", scale=scale)
    scenario = spec.build()
    accuracies = list(scenario.us_values)

    t0 = time.perf_counter()
    seed_points = {
        pid: _seed_serial_sweep(scenario, pid, accuracies) for pid in FIGURE_PROTOCOLS
    }
    seed_seconds = time.perf_counter() - t0

    runner = SweepRunner(jobs=jobs)
    t0 = time.perf_counter()
    runner_points = {
        pid: runner.run_config_sweep(spec, pid, accuracies) for pid in FIGURE_PROTOCOLS
    }
    runner_seconds = time.perf_counter() - t0

    rows = []
    identical = True
    for pid in FIGURE_PROTOCOLS:
        for seed_point, runner_point in zip(seed_points[pid], runner_points[pid]):
            same = (
                seed_point["updates"] == runner_point.result.updates
                and seed_point["updates_per_hour"] == runner_point.updates_per_hour
            )
            identical = identical and same
            rows.append(
                {
                    "protocol": pid,
                    "us_m": seed_point["us_m"],
                    "updates_per_hour": round(runner_point.updates_per_hour, 4),
                    "identical": same,
                }
            )

    # The 2x acceptance target applies to the paper's full-length sweep; at
    # strongly reduced scales the fixed worker start-up cost dominates the
    # O(scale) simulation work, so the smoke runs only guard against gross
    # regressions.
    required = 2.0 if scale >= 0.5 else 1.2

    return {
        "benchmark": "sweep_runner_vs_seed_serial",
        "scenario": "freeway",
        "scale": scale,
        "required_speedup": required,
        "jobs": jobs,
        "protocols": list(FIGURE_PROTOCOLS),
        "accuracies_m": accuracies,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "seed_serial_seconds": round(seed_seconds, 3),
        "sweep_runner_seconds": round(runner_seconds, 3),
        "speedup": round(seed_seconds / runner_seconds, 3) if runner_seconds > 0 else None,
        "updates_per_hour_identical": identical,
        "points": rows,
    }


def test_sweep_runner_speedup(benchmark, scale):
    record = run_once(benchmark, compare_sweep_paths, scale=scale)
    print()
    print(
        format_table(
            [
                {
                    "path": "seed serial loop",
                    "seconds": record["seed_serial_seconds"],
                },
                {
                    "path": f"SweepRunner(jobs={record['jobs']})",
                    "seconds": record["sweep_runner_seconds"],
                },
            ],
            title=f"Full freeway accuracy sweep, speedup {record['speedup']}x",
        )
    )
    with open(_RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.normpath(_RESULT_PATH)}")

    assert record["updates_per_hour_identical"], "runner numbers diverge from the seed loop"
    required = record["required_speedup"]
    assert record["speedup"] >= required, (
        f"speedup {record['speedup']}x is below the {required}x target at scale {record['scale']}"
    )


if __name__ == "__main__":  # pragma: no cover - manual / CI smoke entry point
    bench_scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    record = compare_sweep_paths(scale=bench_scale)
    with open(_RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps({k: v for k, v in record.items() if k != "points"}, indent=2))
    assert record["updates_per_hour_identical"]
    # Wall-clock assertions flake on shared CI runners; the standalone entry
    # point is correctness-gated only unless explicitly asked to gate speed.
    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") == "1":
        assert record["speedup"] >= record["required_speedup"]

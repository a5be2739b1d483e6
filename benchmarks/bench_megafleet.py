"""Mega-fleet scaling: the columnar engine against a 100k-object city.

The paper's experiments track single vehicles; a city-scale deployment
tracks a hundred thousand.  At that width the per-object fleet loop — one
protocol instance, one estimator deque, one server record per object —
spends its time on Python attribute access, so this benchmark exercises
the struct-of-arrays :class:`~repro.sim.columnar.ColumnarFleetEngine`
instead and records the scaling curve in ``BENCH_megafleet.json``:

* builds a synthetic homogeneous city fleet (seeded velocity random walk
  on a shared 1 Hz sampling grid, linear-prediction dead reckoning at a
  50 m accuracy threshold) **directly as arrays** at 1k / 10k / 100k
  objects,
* times one columnar run per size and records objects/s, lane-samples/s,
  the ``tracemalloc`` peak and the process peak RSS.  The engine's own
  memory is ``tracemalloc_peak_mb`` (traced over the run alone);
  ``ru_maxrss_mb`` is the process's lifetime peak and is dominated by the
  fixture, not the engine: :func:`_build_arrays` materialises ``accel``,
  ``velocity``, ``steps`` and ``positions`` as full ``(n, 240, 2)`` float64
  arrays (~370 MB each at 100k objects) before the run starts,
* asserts the 100k fleet runs **faster than real time**
  (``sim_seconds / wall_seconds > 1``) on one machine,
* asserts the columnar results are **bitwise identical** to the scalar
  :class:`~repro.sim.fleet.FleetSimulation` loop on a small
  subsample of the same fleet.

Tunables for quick local runs / CI smoke: ``REPRO_BENCH_MF_SIZES``
(comma-separated fleet sizes, default ``1000,10000,100000``),
``REPRO_BENCH_MF_SAMPLES`` (sighting instants per lane, default 240) and
``REPRO_BENCH_MF_MIN_REALTIME`` (asserted realtime factor at the largest
size, default 1.0).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
import tracemalloc

import numpy as np

from repro.protocols.linear import LinearPredictionProtocol
from repro.sim.columnar import LINEAR, ColumnarFleetEngine
from repro.sim.fleet import FleetLane, FleetSimulation
from repro.traces.trace import Trace

_RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_megafleet.json")

#: The realtime factor the largest fleet must reach (sim seconds of
#: simulated fleet time per wall-clock second; > 1 means faster than
#: real time).
_REQUIRED_REALTIME = 1.0

#: Accuracy threshold of every lane (metres) — the paper's mid "us".
_ACCURACY_M = 50.0

#: Sampling interval of the shared sighting grid (seconds).
_SAMPLE_INTERVAL_S = 1.0

#: Extent of the square city the fleet starts in (metres).
_CITY_EXTENT_M = 12_000.0

#: Seed of the synthetic fleet's velocity random walk.
_SEED = 20020


def _build_arrays(n_objects: int, n_samples: int, seed: int = _SEED):
    """The synthetic city fleet as raw arrays: ``(times, positions)``.

    Every object starts somewhere in a ``_CITY_EXTENT_M`` square and
    drives a velocity random walk (Gaussian acceleration steps around an
    urban cruise speed) on the shared 1 Hz grid — the homogeneous
    mega-fleet shape the columnar engine covers, with enough per-object
    variety that update cadences differ across the fleet.
    """
    rng = np.random.default_rng(seed)
    times = np.arange(n_samples, dtype=float) * _SAMPLE_INTERVAL_S
    starts = rng.uniform(0.0, _CITY_EXTENT_M, size=(n_objects, 1, 2))
    headings = rng.uniform(0.0, 2.0 * np.pi, size=n_objects)
    speeds = rng.uniform(3.0, 17.0, size=n_objects)  # ~11-60 km/h cruise
    v0 = np.stack([speeds * np.cos(headings), speeds * np.sin(headings)], axis=1)
    accel = rng.normal(0.0, 0.6, size=(n_objects, n_samples, 2))
    velocity = v0[:, None, :] + np.cumsum(accel, axis=1) * _SAMPLE_INTERVAL_S
    steps = np.zeros((n_objects, n_samples, 2))
    steps[:, 1:, :] = velocity[:, :-1, :] * _SAMPLE_INTERVAL_S
    positions = starts + np.cumsum(steps, axis=1)
    return times, positions


def _lanes_from_arrays(times, positions):
    """Per-object :class:`FleetLane` view of the same fleet (scalar path)."""
    return [
        FleetLane(
            object_id=f"mf/{k:06d}",
            protocol=LinearPredictionProtocol(_ACCURACY_M),
            sensor_trace=Trace(times, positions[k]),
        )
        for k in range(positions.shape[0])
    ]


def _ru_maxrss_mb() -> float:
    """Lifetime peak RSS of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_columnar_point(n_objects: int, n_samples: int) -> dict:
    """One point of the scaling curve: build + run + memory probe.

    The run is timed *under* ``tracemalloc`` — the tracing overhead only
    makes the realtime claim conservative.
    """
    build_started = time.perf_counter()
    times, positions = _build_arrays(n_objects, n_samples)
    build_seconds = time.perf_counter() - build_started
    sim_seconds = float(times[-1] - times[0])
    tracemalloc.start()
    engine = ColumnarFleetEngine(
        times, positions, mode=LINEAR, accuracy=_ACCURACY_M
    )
    started = time.perf_counter()
    result = engine.run()
    run_seconds = time.perf_counter() - started
    _current, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    updates = sum(r.updates for r in result.results.values())
    return {
        "objects": n_objects,
        "build_seconds": round(build_seconds, 4),
        "run_seconds": round(run_seconds, 4),
        "sim_seconds": sim_seconds,
        "realtime_factor": round(sim_seconds / run_seconds, 3),
        "objects_per_second": round(n_objects / run_seconds, 1),
        "lane_samples_per_second": round(n_objects * n_samples / run_seconds, 1),
        "updates_total": updates,
        "tracemalloc_peak_mb": round(traced_peak / 2**20, 1),
        # The process peak: mostly _build_arrays' fixture arrays (see above).
        "ru_maxrss_mb": round(_ru_maxrss_mb(), 1),
    }


def _result_rows(result):
    rows = {oid: r.as_dict() for oid, r in result.results.items()}
    errors = {oid: r.metrics.errors for oid, r in result.results.items()}
    return rows, errors


def _identical(a, b) -> bool:
    rows_a, err_a = _result_rows(a)
    rows_b, err_b = _result_rows(b)
    return (
        list(rows_a) == list(rows_b)
        and rows_a == rows_b
        and all(np.array_equal(err_a[oid], err_b[oid]) for oid in rows_a)
    )


def check_columnar_identity(n_objects: int = 400, n_samples: int = 120) -> bool:
    """Columnar engine vs the scalar fleet loop, bit for bit."""
    times, positions = _build_arrays(n_objects, n_samples)
    scalar = FleetSimulation(_lanes_from_arrays(times, positions))
    columnar = ColumnarFleetEngine.from_lanes(_lanes_from_arrays(times, positions))
    return _identical(scalar.run(), columnar.run())


def run_megafleet(sizes, n_samples: int) -> dict:
    """The full benchmark: scaling curve + identity check."""
    curve = [_run_columnar_point(n, n_samples) for n in sizes]
    return {
        "benchmark": "megafleet_columnar_scaling",
        "mode": "linear",
        "accuracy_m": _ACCURACY_M,
        "n_samples": n_samples,
        "sample_interval_s": _SAMPLE_INTERVAL_S,
        "city_extent_m": _CITY_EXTENT_M,
        "seed": _SEED,
        "required_realtime": _REQUIRED_REALTIME,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "curve": curve,
        "realtime_factor_largest": curve[-1]["realtime_factor"],
        "columnar_identical_to_event": check_columnar_identity(),
    }


def _print_record(record):
    print(json.dumps({k: v for k, v in record.items() if k != "machine"}, indent=2))


def _write_record(record):
    with open(_RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.normpath(_RESULT_PATH)}")


def _assert_record(record):
    assert record["columnar_identical_to_event"], (
        "columnar engine diverged from the scalar fleet loop"
    )
    floor = _min_realtime()
    assert record["realtime_factor_largest"] >= floor, (
        f"realtime factor {record['realtime_factor_largest']}x at "
        f"{record['curve'][-1]['objects']} objects is below the {floor}x floor"
    )


def _env_int(name, default):
    return int(os.environ.get(name, default))


def _min_realtime() -> float:
    """The asserted realtime floor (default: the full 1x target)."""
    return float(os.environ.get("REPRO_BENCH_MF_MIN_REALTIME", _REQUIRED_REALTIME))


def _params():
    sizes = os.environ.get("REPRO_BENCH_MF_SIZES", "1000,10000,100000")
    return dict(
        sizes=[int(s) for s in sizes.split(",") if s.strip()],
        n_samples=_env_int("REPRO_BENCH_MF_SAMPLES", 240),
    )


def test_megafleet_scaling(benchmark):
    from conftest import run_once

    record = run_once(benchmark, run_megafleet, **_params())
    print()
    _print_record(record)
    _write_record(record)
    _assert_record(record)


def test_columnar_identity_small():
    """Tiny cross-check runnable without the benchmark harness."""
    assert check_columnar_identity(n_objects=60, n_samples=50)


if __name__ == "__main__":  # pragma: no cover - manual / CI smoke entry point
    record = run_megafleet(**_params())
    _print_record(record)
    _write_record(record)
    _assert_record(record)

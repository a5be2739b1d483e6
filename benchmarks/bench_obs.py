"""Observability overhead guard: obs-on vs obs-off on the megafleet point.

The obs package's contract is "no-op when disabled, cheap when enabled":
every layer holds a bundle, the default :data:`~repro.obs.NO_OBS` hands
out shared no-op instruments, and the columnar engine records only
aggregate counters and a handful of spans.  This benchmark pins the
"cheap when enabled" half on the 10k-object columnar megafleet point (the
shape from :mod:`bench_megafleet`):

* runs the same fleet with the default disabled bundle and with a live
  :class:`~repro.obs.Observability` bundle, best-of-N each,
* records the relative overhead and asserts it stays at or below a
  ceiling (default **5%** — generous; the aggregate-only instrumentation
  measures as noise),
* asserts the obs-on results are **bitwise identical** to obs-off (the
  instruments only watch), and
* cross-checks the recorded metrics against the run's own result
  (``sim.updates_sent`` must equal the summed per-object updates).

The committed ``BENCH_obs.json`` carries the achieved overhead next to
the recorded ceiling plus both flags, and
``benchmarks/check_bench_floors.py`` guards it — the one artifact checked
against a *ceiling* rather than a floor.

Tunables for quick local runs / CI smoke: ``REPRO_BENCH_OBS_OBJECTS``
(fleet size, default 10000), ``REPRO_BENCH_OBS_SAMPLES`` (sighting
instants per lane, default 240), ``REPRO_BENCH_OBS_REPEATS`` (best-of-N,
default 3) and ``REPRO_BENCH_OBS_MAX_OVERHEAD`` (asserted ceiling in
percent, default 5.0).
"""

from __future__ import annotations

import json
import os
import platform
import time

from bench_megafleet import _ACCURACY_M, _SEED, _build_arrays, _identical
from repro.obs import NO_OBS, Observability, build_manifest
from repro.sim.columnar import LINEAR, ColumnarFleetEngine

_RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs.json")

#: Relative slowdown the obs-on run may cost, in percent.
_MAX_OVERHEAD_PCT = 5.0


def _run_point(times, positions, obs=NO_OBS):
    """One timed columnar run of the shared fleet; returns (seconds, result)."""
    engine = ColumnarFleetEngine(
        times, positions, mode=LINEAR, accuracy=_ACCURACY_M, obs=obs
    )
    started = time.perf_counter()
    result = engine.run()
    return time.perf_counter() - started, result


def _metrics_consistent(obs, result) -> bool:
    """The registry's aggregate counters must agree with the run's result."""
    snapshot = obs.registry.snapshot()
    updates = sum(r.updates for r in result.results.values())
    return (
        snapshot.get("sim.updates_sent", {}).get("value") == updates
        and snapshot.get("sim.lanes", {}).get("value") == len(result.results)
    )


def run_obs_overhead(n_objects: int, n_samples: int, repeats: int) -> dict:
    """Best-of-N obs-off vs obs-on timings plus the identity checks."""
    times, positions = _build_arrays(n_objects, n_samples)
    off_best = float("inf")
    on_best = float("inf")
    off_result = None
    on_result = None
    on_obs = None
    for _ in range(repeats):
        seconds, result = _run_point(times, positions)
        if seconds < off_best:
            off_best, off_result = seconds, result
        obs = Observability()
        seconds, result = _run_point(times, positions, obs=obs)
        if seconds < on_best:
            on_best, on_result, on_obs = seconds, result, obs
    overhead_pct = (on_best - off_best) / off_best * 100.0
    return {
        "benchmark": "obs_overhead",
        "engine": "columnar",
        "objects": n_objects,
        "n_samples": n_samples,
        "repeats": repeats,
        "accuracy_m": _ACCURACY_M,
        "seed": _SEED,
        "off_seconds_best": round(off_best, 4),
        "on_seconds_best": round(on_best, 4),
        "overhead_pct": round(overhead_pct, 2),
        "max_overhead_pct": _max_overhead_pct(),
        "results_identical": _identical(off_result, on_result),
        "metrics_consistent": _metrics_consistent(on_obs, on_result),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "provenance": build_manifest(
            seed=_SEED,
            config={
                "benchmark": "obs_overhead",
                "objects": n_objects,
                "n_samples": n_samples,
                "repeats": repeats,
            },
        ),
    }


def _print_record(record):
    skip = ("machine", "provenance")
    print(json.dumps({k: v for k, v in record.items() if k not in skip}, indent=2))


def _write_record(record):
    with open(_RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.normpath(_RESULT_PATH)}")


def _assert_record(record):
    assert record["results_identical"], (
        "obs-on columnar results diverged from obs-off — instruments must only watch"
    )
    assert record["metrics_consistent"], (
        "recorded metrics disagree with the run's own result"
    )
    ceiling = record["max_overhead_pct"]
    assert record["overhead_pct"] <= ceiling, (
        f"observability overhead {record['overhead_pct']}% exceeds the "
        f"{ceiling}% ceiling"
    )


def _env_int(name, default):
    return int(os.environ.get(name, default))


def _max_overhead_pct() -> float:
    return float(os.environ.get("REPRO_BENCH_OBS_MAX_OVERHEAD", _MAX_OVERHEAD_PCT))


def _params():
    return dict(
        n_objects=_env_int("REPRO_BENCH_OBS_OBJECTS", 10_000),
        n_samples=_env_int("REPRO_BENCH_OBS_SAMPLES", 240),
        repeats=_env_int("REPRO_BENCH_OBS_REPEATS", 3),
    )


def test_obs_overhead(benchmark):
    from conftest import run_once

    record = run_once(benchmark, run_obs_overhead, **_params())
    print()
    _print_record(record)
    _write_record(record)
    _assert_record(record)


if __name__ == "__main__":  # pragma: no cover - manual / CI smoke entry point
    record = run_obs_overhead(**_params())
    _print_record(record)
    _write_record(record)
    _assert_record(record)

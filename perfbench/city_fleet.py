"""city_fleet: a linear-DR city fleet through the columnar engine.

Inputs: ``N_OBJECTS`` seeded random-walk objects with GPS noise on one
1 Hz grid of ``N_SAMPLES`` sightings, as linear-prediction
:class:`~repro.sim.fleet.FleetLane` objects with per-object accuracies.

All time and memory go to ``sim.columnar`` (batched estimator plus the
vectorised loop): no per-object protocol Python, no map matching, no
service tier.  Set-up is ``ColumnarFleetEngine.from_lanes``; each pass
builds the engine (a set-up sample) and runs it (a timed sample), until
``--seconds`` have passed; ``ops_per_s`` is the median over passes of
sightings per second, and the messages per object-hour are in the details.
"""

from __future__ import annotations

import time
import tracemalloc
from statistics import median

import numpy as np

from perfbench.fleetgen import linear_lanes, random_walk_fleet
from perfbench.harness import Measured
from perfbench.layers import installed
from perfbench.stats import peak_rss_mb

NAME = "city_fleet"

N_OBJECTS = 10_000
N_SAMPLES = 400
ACCURACIES_M = (25.0, 50.0, 100.0, 200.0)
MIN_PASSES = 3
#: Lanes re-run through the scalar ``FleetSimulation`` by the check.
CHECK_LANES = 48


def make_inputs(seed: int, seconds: int):
    rng = np.random.default_rng([seed, 1])
    times, truth, sensor = random_walk_fleet(rng, N_OBJECTS, N_SAMPLES)
    accuracy = rng.choice(ACCURACIES_M, size=N_OBJECTS)
    lanes = linear_lanes(times, truth, sensor, accuracy, range(N_OBJECTS))
    sample = np.sort(rng.choice(N_OBJECTS, size=CHECK_LANES, replace=False))
    return {"times": times, "truth": truth, "sensor": sensor, "accuracy": accuracy,
            "lanes": lanes, "sample": sample.tolist()}


def _rows(results, object_ids):
    return {oid: (results[oid].as_dict(), results[oid].metrics.errors.copy())
            for oid in object_ids}


def measure(inputs, seconds: int, tracers=None) -> Measured:
    from repro.sim.columnar import ColumnarFleetEngine

    setup_tracer, run_tracer = tracers or (None, None)
    lanes = inputs["lanes"]
    sample_ids = [lanes[k].object_id for k in inputs["sample"]]
    sightings = N_OBJECTS * N_SAMPLES
    setup_times, rates, totals = [], [], []
    sampled = None
    deadline = time.perf_counter() + seconds
    while True:
        engine = None
        with installed(setup_tracer):
            started = time.perf_counter()
            engine = ColumnarFleetEngine.from_lanes(lanes)
            setup_times.append(time.perf_counter() - started)
        with installed(run_tracer):
            started = time.perf_counter()
            result = engine.run()
            rates.append(sightings / (time.perf_counter() - started))
        results = result.results
        totals.append(sum(r.updates for r in results.values()))
        if sampled is None:
            sampled = _rows(results, sample_ids)
            hours = sum(r.duration_h for r in results.values())
        del engine, result, results
        if tracers or (len(rates) >= MIN_PASSES and time.perf_counter() >= deadline):
            break
    if tracers:
        # Memory is traced in a run of its own: tracemalloc slows the
        # allocations it counts, which would distort the timed pass.
        engine = ColumnarFleetEngine.from_lanes(lanes)
        tracemalloc.start()
        try:
            engine.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        run_tracer.captured.columnar_peak_mb = peak / 2**20
        del engine
    unequal = sum(1 for total in totals if total != totals[0])
    return Measured(
        metrics={
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": median(rates),
        },
        attempted=N_OBJECTS * len(rates),
        failed=unequal,
        setups=len(setup_times),
        passes=len(rates),
        outputs=sampled,
        details={"msgs_per_obj_h": totals[0] / hours, "objects": N_OBJECTS,
                 "samples": N_SAMPLES, "passes": len(rates),
                 "setup_samples_s": setup_times, "pass_rates": rates,
                 "updates_per_pass": totals},
    )


def check(inputs, measured: Measured):
    """Columnar results are bit-identical to the scalar fleet loop on a sample."""
    from repro.sim.fleet import FleetSimulation

    lanes = linear_lanes(inputs["times"], inputs["truth"], inputs["sensor"],
                         inputs["accuracy"], inputs["sample"])
    scalar = FleetSimulation(lanes).run().results
    problems = []
    for object_id, (row, errors) in measured.outputs.items():
        reference = scalar[object_id]
        if row != reference.as_dict() or not np.array_equal(
            errors, reference.metrics.errors
        ):
            problems.append(f"{object_id}: columnar result differs from FleetSimulation")
    return len(measured.outputs), problems

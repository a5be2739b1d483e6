"""paper_sweep: the paper's evaluation (Figs. 7-10) through ``SweepRunner(jobs=1)``.

Inputs: the four trace families (freeway, inter-urban, city, walking) at
``SCALE`` of the paper's trace lengths, each crossed with the distance,
linear and map protocols over the scenario's own accuracy sweep.

Time goes to ``protocols``, ``mapmatching``, ``traces.estimation`` and the
``sim.fleet`` loop against one plain ``LocationServer``; no ingest, CH,
columnar or facade code runs.  Set-up is building the four scenarios
(``ScenarioSpec.build``), repeated with the scenario cache cleared.  One
untimed warm-up pass fills the per-process protocol prototypes; then whole
sweep passes run until ``--seconds`` have passed, and ``ops_per_s`` is the
median over passes of sightings per second.  The paper's metric, update
messages per object-hour, is in the details.
"""

from __future__ import annotations

import time
from statistics import median
from typing import List, Tuple

import numpy as np

from perfbench.harness import Measured
from perfbench.layers import installed
from perfbench.stats import peak_rss_mb

NAME = "paper_sweep"

SCENARIOS = ("freeway", "interurban", "city", "walking")
PROTOCOLS = ("distance", "linear", "map")
#: Share of the paper's trace lengths (one sweep pass is ~3 s).
SCALE = 0.25
SETUP_REPEATS = 5
MIN_PASSES = 3


def make_inputs(seed: int, seconds: int):
    from repro.sim.runner import ScenarioSpec

    return [ScenarioSpec(name, scale=SCALE, seed=seed) for name in SCENARIOS]


def _sweep(runner, specs):
    """One pass: every scenario x protocol accuracy sweep, in a fixed order."""
    return [(spec, protocol_id, runner.run_config_sweep(spec, protocol_id))
            for spec in specs for protocol_id in PROTOCOLS]


def _summary(sweeps) -> List[Tuple[int, float]]:
    return [(p.result.updates, p.result.metrics.max_error)
            for _spec, _protocol, points in sweeps for p in points]


def measure(specs, seconds: int, tracers=None) -> Measured:
    from repro.sim.runner import SweepRunner, clear_scenario_cache

    setup_tracer, run_tracer = tracers or (None, None)
    setup_times = []
    for _ in range(1 if tracers else SETUP_REPEATS):
        clear_scenario_cache()
        with installed(setup_tracer):
            started = time.perf_counter()
            for spec in specs:
                spec.build()
            setup_times.append(time.perf_counter() - started)
    runner = SweepRunner(jobs=1)
    sweeps = _sweep(runner, specs)  # warm-up: protocol prototypes
    reference = _summary(sweeps)
    points = [p for _spec, _protocol, pts in sweeps for p in pts]
    sightings = sum(len(spec.build().sensor_trace) * len(pts) for spec, _p, pts in sweeps)
    rates = []
    mismatched_passes = 0
    deadline = time.perf_counter() + seconds
    with installed(run_tracer):
        while True:
            started = time.perf_counter()
            again = _sweep(runner, specs)
            rates.append(sightings / (time.perf_counter() - started))
            mismatched_passes += _summary(again) != reference
            if tracers or (len(rates) >= MIN_PASSES and time.perf_counter() >= deadline):
                break
    updates = sum(p.result.updates for p in points)
    hours = sum(p.result.duration_h for p in points)
    return Measured(
        metrics={
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": median(rates),
        },
        attempted=len(points) * (1 + len(rates)),
        failed=mismatched_passes,
        setups=len(setup_times),
        passes=len(rates),
        outputs=sweeps,
        details={"msgs_per_obj_h": updates / hours, "points": len(points),
                 "sightings_per_pass": sightings,
                 "passes": len(rates), "setup_samples_s": setup_times,
                 "pass_rates": rates, "mismatched_passes": mismatched_passes},
    )


def check(specs, measured: Measured):
    """Accuracy bound on every point; map < linear < distance on the freeway.

    The bound is the requested accuracy ``us`` plus the sensor allowance
    (4 sigma of the GPS error) plus the distance the object covers in one
    sampling step.
    """
    problems = []
    checks = 0
    updates = {}
    for spec, protocol_id, points in measured.outputs:
        scenario = spec.build()
        truth = scenario.true_trace
        allowance = (4.0 * scenario.sensor_sigma
                     + float(truth.speeds().max()) * float(np.max(np.diff(truth.times))))
        for point in points:
            checks += 1
            max_error = point.result.metrics.max_error
            if not max_error <= point.accuracy + allowance:
                problems.append(
                    f"{spec.name}/{protocol_id}/us={point.accuracy:g}: max error "
                    f"{max_error:.3f} m > bound {point.accuracy + allowance:.3f} m")
            updates[(spec.name, protocol_id, point.accuracy)] = point.result.updates
    freeway = [key for key in updates if key[0] == "freeway" and key[1] == "map"]
    for _name, _protocol, us in freeway:
        counts = [updates[("freeway", p, us)] for p in ("map", "linear", "distance")]
        checks += 1
        if not counts[0] < counts[1] < counts[2]:
            problems.append(f"freeway us={us:g}: map/linear/distance updates {counts} "
                            "are not strictly increasing")
    return checks, problems

"""Seeded synthetic fleets: random-walk objects on one 1 Hz sighting grid.

Speeds follow a mean-reverting walk around a per-object cruise speed and
headings a Gaussian walk, so objects keep urban speeds however long the
trace; GPS noise is added independently per sighting.  The fleets exist
only as benchmark inputs — the program receives the traces as
:class:`~repro.sim.fleet.FleetLane` objects.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Edge length of the square the fleet starts in (metres).
CITY_EXTENT_M = 12_000.0
#: 1-sigma GPS error of every sighting (metres); also the protocols' ``up``.
GPS_SIGMA_M = 4.0


def random_walk_fleet(
    rng: np.random.Generator, n_objects: int, n_samples: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(times, truth, sensor)``; positions have shape ``(n, samples, 2)``."""
    times = np.arange(n_samples, dtype=float)
    cruise = rng.uniform(4.0, 15.0, size=(n_objects, 1))
    speed = np.empty((n_objects, n_samples))
    speed[:, 0] = cruise[:, 0]
    kicks = rng.normal(0.0, 0.8, size=(n_objects, n_samples))
    for i in range(1, n_samples):
        speed[:, i] = np.clip(
            speed[:, i - 1] + 0.1 * (cruise[:, 0] - speed[:, i - 1]) + kicks[:, i],
            0.0, 25.0,
        )
    heading = rng.uniform(0.0, 2.0 * np.pi, size=(n_objects, 1)) + np.cumsum(
        rng.normal(0.0, 0.05, size=(n_objects, n_samples)), axis=1
    )
    steps = np.zeros((n_objects, n_samples, 2))
    steps[:, 1:, 0] = (speed * np.cos(heading))[:, :-1]
    steps[:, 1:, 1] = (speed * np.sin(heading))[:, :-1]
    starts = rng.uniform(0.0, CITY_EXTENT_M, size=(n_objects, 1, 2))
    truth = starts + np.cumsum(steps, axis=1)
    sensor = truth + rng.normal(0.0, GPS_SIGMA_M, size=truth.shape)
    return times, truth, sensor


def linear_lanes(
    times: np.ndarray,
    truth: np.ndarray,
    sensor: np.ndarray,
    accuracy: Sequence[float],
    indices: Sequence[int],
) -> List[object]:
    """Fresh linear-DR :class:`FleetLane` objects for the lanes in *indices*."""
    from repro.protocols.linear import LinearPredictionProtocol
    from repro.sim.fleet import FleetLane
    from repro.traces.trace import Trace

    return [
        FleetLane(
            object_id=f"obj/{k:06d}",
            protocol=LinearPredictionProtocol(
                float(accuracy[k]), sensor_uncertainty=GPS_SIGMA_M
            ),
            sensor_trace=Trace(times, sensor[k]),
            truth_trace=Trace(times, truth[k]),
        )
        for k in indices
    ]

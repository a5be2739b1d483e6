#!/usr/bin/env python
"""History-based dead reckoning: learn the map from past movements.

The paper's *history-based* variant (Sec. 2) generates the road map from
traces of the user's own past movements — useful when no navigation map is
available — and then runs the normal map-based protocol on the learned map.
This example demonstrates the complete loop on a commuter who drives the
same city route every day:

1. simulate a few days of commutes (ground truth + GPS noise),
2. learn a road map and the turn probabilities from the first days,
3. track the final day's commute with (a) linear prediction, (b) map-based
   DR on the learned map and (c) map-based DR with learned turn
   probabilities, and compare the update counts.

Run with::

    python examples/history_map_learning.py
"""

import random

from repro.experiments.report import format_table
from repro.mobility.kinematics import CITY_DRIVER
from repro.mobility.vehicle import VehicleSimulator
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.mapbased import MapBasedConfig, MapBasedProtocol
from repro.protocols.probabilistic import ProbabilisticMapBasedProtocol
from repro.roadmap.generators import city_grid_map
from repro.roadmap.history import HistoryMapLearner
from repro.roadmap.probability import TurnProbabilityTable
from repro.roadmap.routing import RoutePlanner
from repro.mapmatching.offline import match_trace, matched_link_sequence
from repro.mapmatching.matcher import MatcherConfig
from repro.sim.fleet import run_simulation
from repro.traces.noise import GaussMarkovNoise

ACCURACY = 100.0
TRAINING_DAYS = 4


def main() -> None:
    rng = random.Random(3)
    # The "real world" the commuter drives in; the tracking system never sees it.
    real_world = city_grid_map(rows=12, cols=12, spacing_m=250.0, seed=3)
    planner = RoutePlanner(real_world)
    commute = planner.random_route(min_length=7_000.0, rng=rng, straight_bias=0.8)

    def one_day(seed: int):
        journey = VehicleSimulator(
            commute, CITY_DRIVER, rng=random.Random(seed)
        ).run(name=f"commute-{seed}")
        noise = GaussMarkovNoise(sigma=2.5, correlation_time=60.0, seed=seed)
        return journey, noise.apply(journey.trace)

    # ---- learn the map from the first days ----------------------------------
    learner = HistoryMapLearner(cell_size=35.0)
    training_traces = []
    for day in range(TRAINING_DAYS):
        journey, sensor = one_day(seed=10 + day)
        learner.add_trace(sensor)
        training_traces.append(sensor)
    learned_map = learner.build_map()
    print(
        f"Learned map from {TRAINING_DAYS} commutes: "
        f"{learned_map.num_intersections()} intersections, "
        f"{learned_map.num_links()} links, "
        f"{learned_map.total_length() / 2000.0:.1f} km of road."
    )

    # ---- learn user-specific turn probabilities on the learned map ----------
    turn_table = TurnProbabilityTable(learned_map, laplace_smoothing=0.1)
    for sensor in training_traces:
        points = match_trace(sensor, learned_map, MatcherConfig(tolerance=50.0))
        turn_table.record_link_sequence(matched_link_sequence(points))

    # ---- track a new day with the learned knowledge --------------------------
    journey, sensor = one_day(seed=99)
    protocols = [
        LinearPredictionProtocol(ACCURACY, sensor_uncertainty=2.5, estimation_window=4),
        MapBasedProtocol(
            ACCURACY, learned_map, sensor_uncertainty=2.5, estimation_window=4,
            config=MapBasedConfig(matching_tolerance=50.0),
        ),
        ProbabilisticMapBasedProtocol(
            ACCURACY, learned_map, turn_table, sensor_uncertainty=2.5, estimation_window=4,
            config=MapBasedConfig(matching_tolerance=50.0),
        ),
    ]
    rows = []
    for protocol in protocols:
        result = run_simulation(protocol, sensor, journey.trace)
        rows.append(
            {
                "protocol": result.protocol_name,
                "updates": result.updates,
                "updates/h": round(result.updates_per_hour, 1),
                "mean error [m]": round(result.metrics.mean_error, 1),
            }
        )
    print()
    print(format_table(rows, title=f"Tracking a new commute (us = {ACCURACY:.0f} m)"))
    print()
    print(
        "The map learned from the user's own history replaces the navigation "
        "map: the map-based protocol works without ever having seen a real map, "
        "and the learned turn probabilities recover the known-route behaviour "
        "on the commuter's habitual route."
    )


if __name__ == "__main__":
    main()

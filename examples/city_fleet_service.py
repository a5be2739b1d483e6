#!/usr/bin/env python
"""A small city taxi fleet tracked through the location service.

Demonstrates the full system of the paper's Fig. 1 with several mobile
objects at once:

* a city road network and one simulated drive per taxi,
* each taxi's *source* runs the map-based dead-reckoning protocol and sends
  updates over its own message channel with latency and occasional losses,
* the fleet simulation drives every taxi's sightings through its protocol
  and delivers the surviving updates to the *location service* (one
  shard), which holds the last reported state per taxi and answers the
  application queries motivated in the paper's introduction — "find the
  nearest taxi cab" and "address all users inside an area".

Run with::

    python examples/city_fleet_service.py
"""

import random

import numpy as np

from repro.experiments.report import format_table
from repro.geo.bbox import BoundingBox
from repro.mobility.kinematics import CITY_DRIVER
from repro.mobility.vehicle import VehicleSimulator
from repro.protocols.mapbased import MapBasedConfig, MapBasedProtocol
from repro.roadmap.generators import city_grid_map
from repro.roadmap.routing import RoutePlanner
from repro.service.channel import MessageChannel
from repro.service.facade import LocationService
from repro.sim.fleet import FleetLane, FleetSimulation
from repro.traces.noise import GaussMarkovNoise

N_TAXIS = 5
ACCURACY = 75.0  # metres requested at the server
QUERY_POINT = (2000.0, 2000.0)  # a customer standing mid-town
DOWNTOWN = BoundingBox(1000.0, 1000.0, 3000.0, 3000.0)


def main() -> None:
    rng = random.Random(7)
    roadmap = city_grid_map(rows=16, cols=16, spacing_m=250.0, seed=7)
    planner = RoutePlanner(roadmap)
    server = LocationService()

    # --- one journey, protocol and channel per taxi ---------------------------
    journeys = []
    for i in range(N_TAXIS):
        route = planner.random_route(min_length=6_000.0, rng=rng, straight_bias=0.7)
        journeys.append(VehicleSimulator(route, CITY_DRIVER, rng=rng).run(name=f"taxi-{i}"))

    # --- run the fleet for the duration of the shortest journey -------------
    horizon = int(min(len(journey.trace) for journey in journeys))
    lanes = []
    for i, journey in enumerate(journeys):
        truth = journey.trace[:horizon]
        noise = GaussMarkovNoise(sigma=2.5, correlation_time=60.0, seed=100 + i)
        protocol = MapBasedProtocol(
            accuracy=ACCURACY,
            roadmap=roadmap,
            sensor_uncertainty=noise.typical_error,
            estimation_window=4,
            config=MapBasedConfig(matching_tolerance=30.0),
        )
        lanes.append(
            FleetLane(
                object_id=f"taxi-{i}",
                protocol=protocol,
                sensor_trace=noise.apply(truth),
                truth_trace=truth,
                channel=MessageChannel(latency=1.5, loss_probability=0.01, seed=200 + i),
            )
        )
    results = FleetSimulation(lanes, server=server).run().results

    # --- report tracking cost and accuracy -----------------------------------
    now = float(horizon - 1)
    rows = []
    for lane in lanes:
        truth = lane.truth_trace[horizon - 1].position
        predicted = server.predict_position(lane.object_id, now)
        error = float(np.hypot(*(predicted - truth))) if predicted is not None else float("nan")
        rows.append(
            {
                "taxi": lane.object_id,
                "updates sent": results[lane.object_id].updates,
                "bytes sent": lane.channel.stats.bytes_sent,
                "msgs lost": lane.channel.stats.messages_lost,
                "error now [m]": round(error, 1),
            }
        )
    print(format_table(rows, title=f"Fleet after {horizon} s (us = {ACCURACY:.0f} m)"))

    # --- application queries --------------------------------------------------
    print()
    nearest = server.nearest_objects(QUERY_POINT, time=now, k=3)
    print(f"Nearest taxis to {QUERY_POINT}:")
    for object_id, distance in nearest:
        print(f"  {object_id}: {distance:.0f} m away")

    inside = server.range_query(DOWNTOWN, time=now, margin=1.0)
    print(f"Taxis currently downtown ({DOWNTOWN.as_tuple()}): {inside or 'none'}")


if __name__ == "__main__":
    main()

"""The four canonical movement scenarios of the paper's evaluation.

Each scenario bundles everything a protocol comparison needs:

* a synthetic road network with the right structural characteristics,
* a route over it whose length matches the corresponding trace of Table 1,
* the simulated ground-truth journey (positions + ground-truth links),
* the noisy sensor trace the protocols actually see (DGPS-like noise),
* the heading-estimation window the paper recommends for the movement class,
* and the sweep of requested uncertainties ``us`` used in Figures 7-10.

A ``scale`` parameter shrinks route length proportionally, which the
benchmarks use to keep wall-clock time reasonable while preserving the
qualitative results (update *rates* are intensive quantities).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


from repro.geo.angles import angle_between
from repro.mobility.kinematics import DriverProfile
from repro.mobility.pedestrian import PedestrianProfile, PedestrianSimulator
from repro.mobility.vehicle import SimulatedJourney, VehicleSimulator
from repro.roadmap.elements import Link, RoadClass
from repro.roadmap.generators import (
    city_grid_map,
    freeway_map,
    interurban_map,
    pedestrian_map,
)
from repro.roadmap.graph import RoadMap
from repro.roadmap.routing import Route, RoutePlanner
from repro.traces.noise import GaussMarkovNoise
from repro.traces.trace import Trace


class ScenarioName(str, enum.Enum):
    """Identifiers of the four movement patterns evaluated in the paper."""

    FREEWAY = "freeway"
    INTERURBAN = "interurban"
    CITY = "city"
    WALKING = "walking"


@dataclass
class Scenario:
    """A fully materialised evaluation scenario.

    Attributes
    ----------
    name:
        Scenario identifier.
    description:
        Human-readable description used in reports.
    roadmap:
        The road network the object moves on.
    route:
        The driven/walked route.
    journey:
        Ground-truth simulation output (true positions and link ids).
    sensor_trace:
        The noisy trace the protocols consume (what the GPS receiver reports).
    sensor_sigma:
        1-sigma sensor error in metres (the paper's ``up``).
    estimation_window:
        Number of sightings used to estimate speed/heading (paper Sec. 4).
    us_values:
        Requested-uncertainty sweep for this scenario's figure.
    matching_tolerance:
        Map-matching tolerance ``um`` in metres (paper Sec. 3).
    """

    name: ScenarioName | str
    description: str
    roadmap: RoadMap
    route: Route
    journey: SimulatedJourney
    sensor_trace: Trace
    sensor_sigma: float
    estimation_window: int
    us_values: List[float]
    matching_tolerance: float = 30.0

    @property
    def key(self) -> str:
        """The scenario's registry name as a plain string.

        Canonical scenarios carry a :class:`ScenarioName` member, generated
        ones a plain string; this property is the uniform accessor.
        """
        return self.name.value if isinstance(self.name, ScenarioName) else str(self.name)

    @property
    def true_trace(self) -> Trace:
        """Ground-truth trace (no sensor noise)."""
        return self.journey.trace

    def summary(self) -> Dict[str, float]:
        """Key characteristics, comparable to a row of the paper's Table 1."""
        trace = self.true_trace
        return {
            "length_km": trace.path_length() / 1000.0,
            "duration_h": trace.duration / 3600.0,
            "average_speed_kmh": (trace.path_length() / trace.duration) * 3.6
            if trace.duration > 0
            else 0.0,
            "samples": float(len(trace)),
        }


# --------------------------------------------------------------------------- #
# route construction helpers
# --------------------------------------------------------------------------- #
def corridor_route(roadmap: RoadMap, road_class: RoadClass) -> Route:
    """Follow the chain of links of *road_class* from one end to the other.

    Used to extract the main corridor out of the freeway and inter-urban
    maps: starting from an end node that has exactly one outgoing link of
    the class, repeatedly follow the same-class successor with the smallest
    turn angle until the chain ends.
    """
    def class_links(node_id: int) -> List[Link]:
        return [l for l in roadmap.outgoing_links(node_id) if l.road_class == road_class]

    end_nodes = [
        nid for nid in roadmap.intersections if len(class_links(nid)) == 1
    ]
    if not end_nodes:
        raise ValueError(f"no corridor of class {road_class} found in the map")
    start_node = min(end_nodes)
    current = class_links(start_node)[0]
    links = [current]
    visited = {current.id}
    while True:
        candidates = [
            l
            for l in roadmap.successors(current)
            if l.road_class == road_class and l.id not in visited
        ]
        if not candidates:
            break
        exit_dir = current.direction_at(current.length)
        current = min(
            candidates,
            key=lambda link: (angle_between(exit_dir, link.direction_at(0.0)), link.id),
        )
        links.append(current)
        visited.add(current.id)
        # Do not revisit the reverse carriageway once the far end is reached.
        reverse = roadmap.reverse_link(current)
        if reverse is not None:
            visited.add(reverse.id)
    return Route(roadmap, links)


def _truncate_route(route: Route, max_length: float) -> Route:
    """Shorten *route* to at most *max_length* metres (whole links)."""
    if route.length <= max_length:
        return route
    links = []
    total = 0.0
    for link in route.links:
        links.append(link)
        total += link.length
        if total >= max_length:
            break
    return Route(route.roadmap, links)


# --------------------------------------------------------------------------- #
# scenario builders
# --------------------------------------------------------------------------- #
#: Requested-uncertainty sweep used by the paper's car figures (20-500 m).
CAR_US_SWEEP = [20.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0]
#: Requested-uncertainty sweep used by the walking figure (20-250 m).
WALK_US_SWEEP = [20.0, 50.0, 100.0, 150.0, 200.0, 250.0]


def freeway_scenario(seed: int = 0, scale: float = 1.0) -> Scenario:
    """Car on a freeway: ~163 km, average speed ~103 km/h (paper Table 1)."""
    _check_scale(scale)
    rng = random.Random(seed)
    target_length = 163_000.0 * scale
    roadmap = freeway_map(
        length_km=max(20.0, 170.0 * scale + 10.0), interchange_spacing_km=4.0, seed=seed
    )
    route = _truncate_route(corridor_route(roadmap, RoadClass.MOTORWAY), target_length)
    profile = DriverProfile(
        speed_factor=0.88,
        max_acceleration=1.5,
        max_deceleration=2.0,
        lateral_acceleration=3.5,
        stop_probability=0.0,
        speed_noise_sigma=0.05,
    )
    journey = VehicleSimulator(route, profile, rng=rng).run(name="car, freeway")
    noise = GaussMarkovNoise(sigma=2.5, correlation_time=60.0, seed=seed + 1000)
    return Scenario(
        name=ScenarioName.FREEWAY,
        description="car on a freeway",
        roadmap=roadmap,
        route=route,
        journey=journey,
        sensor_trace=noise.apply(journey.trace),
        sensor_sigma=noise.typical_error,
        estimation_window=2,
        us_values=list(CAR_US_SWEEP),
    )


def interurban_scenario(seed: int = 1, scale: float = 1.0) -> Scenario:
    """Car in inter-urban traffic: ~99 km, average speed ~60 km/h."""
    _check_scale(scale)
    rng = random.Random(seed)
    target_length = 99_000.0 * scale
    n_towns = max(3, int(round(6 * max(scale, 0.34))))
    roadmap = interurban_map(
        n_towns=n_towns,
        town_spacing_km=18.0 * min(1.0, scale * 1.2 + 0.4),
        seed=seed,
        speed_limit_kmh=80.0,
    )
    route = _truncate_route(corridor_route(roadmap, RoadClass.PRIMARY), target_length)
    profile = DriverProfile(
        speed_factor=0.85,
        max_acceleration=1.6,
        max_deceleration=2.2,
        lateral_acceleration=2.5,
        stop_probability=0.3,
        stop_duration_range=(5.0, 40.0),
        speed_noise_sigma=0.06,
    )
    journey = VehicleSimulator(route, profile, rng=rng).run(name="car, inter-urban")
    noise = GaussMarkovNoise(sigma=2.5, correlation_time=60.0, seed=seed + 1000)
    return Scenario(
        name=ScenarioName.INTERURBAN,
        description="car in inter-urban traffic",
        roadmap=roadmap,
        route=route,
        journey=journey,
        sensor_trace=noise.apply(journey.trace),
        sensor_sigma=noise.typical_error,
        estimation_window=4,
        us_values=list(CAR_US_SWEEP),
    )


def city_scenario(seed: int = 2, scale: float = 1.0) -> Scenario:
    """Car in city traffic: ~89 km, average speed ~34 km/h."""
    _check_scale(scale)
    rng = random.Random(seed)
    target_length = 89_000.0 * scale
    roadmap = city_grid_map(rows=16, cols=16, spacing_m=250.0, seed=seed)
    planner = RoutePlanner(roadmap)
    # Real city trips go straight through most intersections and turn only
    # occasionally; a fully uniform random walk would turn at two out of
    # three crossings, which no recorded trace does.
    route = planner.random_route(min_length=target_length, rng=rng, straight_bias=0.75)
    profile = DriverProfile(
        speed_factor=0.87,
        max_acceleration=1.8,
        max_deceleration=2.5,
        lateral_acceleration=2.0,
        stop_probability=0.3,
        stop_duration_range=(5.0, 35.0),
        speed_noise_sigma=0.08,
    )
    journey = VehicleSimulator(route, profile, rng=rng).run(name="car, city traffic")
    noise = GaussMarkovNoise(sigma=2.5, correlation_time=60.0, seed=seed + 1000)
    return Scenario(
        name=ScenarioName.CITY,
        description="car in city traffic",
        roadmap=roadmap,
        route=route,
        journey=journey,
        sensor_trace=noise.apply(journey.trace),
        sensor_sigma=noise.typical_error,
        estimation_window=4,
        us_values=list(CAR_US_SWEEP),
    )


def walking_scenario(seed: int = 3, scale: float = 1.0) -> Scenario:
    """Walking person: ~10 km, average speed ~4.6 km/h."""
    _check_scale(scale)
    rng = random.Random(seed)
    target_length = 10_000.0 * scale
    roadmap = pedestrian_map(rows=20, cols=20, spacing_m=90.0, seed=seed)
    planner = RoutePlanner(roadmap)
    # Pedestrians change direction more often than cars but still mostly
    # keep walking along the same street.
    route = planner.random_route(min_length=target_length, rng=rng, straight_bias=0.55)
    route = _truncate_route(route, target_length)
    profile = PedestrianProfile(
        walking_speed_factor=0.88,
        pause_probability=0.08,
        pause_duration_range=(5.0, 40.0),
        speed_noise_sigma=0.1,
    )
    journey = PedestrianSimulator(route, profile, rng=rng).run(name="walking person")
    noise = GaussMarkovNoise(sigma=2.5, correlation_time=60.0, seed=seed + 1000)
    return Scenario(
        name=ScenarioName.WALKING,
        description="walking person",
        roadmap=roadmap,
        route=route,
        journey=journey,
        sensor_trace=noise.apply(journey.trace),
        sensor_sigma=noise.typical_error,
        estimation_window=8,
        us_values=list(WALK_US_SWEEP),
        matching_tolerance=20.0,
    )


_BUILDERS: Dict[ScenarioName, Callable[..., Scenario]] = {
    ScenarioName.FREEWAY: freeway_scenario,
    ScenarioName.INTERURBAN: interurban_scenario,
    ScenarioName.CITY: city_scenario,
    ScenarioName.WALKING: walking_scenario,
}


def build_scenario(
    name: ScenarioName | str, seed: Optional[int] = None, scale: float = 1.0
) -> Scenario:
    """Build one of the four canonical scenarios by name."""
    key = ScenarioName(name)
    builder = _BUILDERS[key]
    if seed is None:
        return builder(scale=scale)
    return builder(seed=seed, scale=scale)


def _check_scale(scale: float) -> None:
    if not (0.0 < scale <= 1.0):
        raise ValueError("scale must be in (0, 1]")

"""Composable scenario generation.

The paper evaluates its protocols on four canned movement patterns.  This
module opens that up: a scenario is *composed* from four orthogonal axes —

* **topology** — the road network the object moves on (Manhattan grid,
  ring-and-spoke radial city, motorway corridor, inter-urban town chain,
  motorway-feeding-a-grid commuter network, footpath mesh);
* **traffic regime** — how traffic conditions shape the longitudinal
  behaviour (free flow, rush-hour stop-and-go, signalised progression,
  sparse night traffic);
* **agent** — what kind of object moves and how it picks its route (car on
  a wandering trip, through-commuter, multi-stop delivery round with dwell
  times, pedestrian);
* **degradation** — what happens to the sensor data (GPS dropout windows
  such as tunnels, correlated noise bursts such as urban canyons).

A :class:`GeneratorSpec` freezes one combination plus a default seed, and
:func:`generate_scenario` materialises it into the same
:class:`~repro.mobility.scenarios.Scenario` dataclass the canonical
scenarios use, so everything downstream — sweeps, fleets, figures, golden
tests — runs unchanged on generated scenarios.  Generation is fully
deterministic for a given ``(spec, seed, scale)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.mobility.kinematics import DriverProfile
from repro.mobility.pedestrian import PedestrianProfile, PedestrianSimulator
from repro.mobility.scenarios import (
    CAR_US_SWEEP,
    Scenario,
    corridor_route,
    _truncate_route,
)
from repro.mobility.vehicle import SimulatedJourney, VehicleSimulator
from repro.roadmap.elements import RoadClass
from repro.roadmap.generators import (
    city_grid_map,
    corridor_city_map,
    freeway_map,
    interurban_map,
    pedestrian_map,
    radial_ring_map,
)
from repro.roadmap.graph import RoadMap
from repro.roadmap.routing import Route, RoutePlanner
from repro.traces.noise import GaussMarkovNoise
from repro.traces.trace import Trace


# --------------------------------------------------------------------------- #
# topology
# --------------------------------------------------------------------------- #
TOPOLOGY_KINDS = ("grid", "radial", "corridor", "interurban", "mixed", "footpath")


@dataclass(frozen=True)
class Topology:
    """Road-network axis of a generated scenario.

    Only the fields relevant to ``kind`` are used:

    ``grid`` / ``footpath``
        ``rows``, ``cols``, ``spacing_m``.
    ``radial``
        ``n_arms``, ``n_rings``, ``ring_spacing_m``.
    ``corridor``
        ``length_km`` (motorway corridor with exit ramps).
    ``interurban``
        ``n_towns``, ``town_spacing_km``.
    ``mixed``
        ``length_km`` (corridor part) plus ``rows``/``cols``/``spacing_m``
        (grid part).
    """

    kind: str
    rows: int = 12
    cols: int = 12
    spacing_m: float = 250.0
    n_arms: int = 8
    n_rings: int = 5
    ring_spacing_m: float = 450.0
    length_km: float = 40.0
    n_towns: int = 5
    town_spacing_km: float = 14.0

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; expected one of {TOPOLOGY_KINDS}"
            )

    def build(self, seed: int) -> RoadMap:
        """Materialise the road network for *seed*."""
        if self.kind == "grid":
            return city_grid_map(
                rows=self.rows, cols=self.cols, spacing_m=self.spacing_m, seed=seed
            )
        if self.kind == "radial":
            return radial_ring_map(
                n_arms=self.n_arms,
                n_rings=self.n_rings,
                ring_spacing_m=self.ring_spacing_m,
                seed=seed,
            )
        if self.kind == "corridor":
            return freeway_map(length_km=self.length_km, seed=seed)
        if self.kind == "interurban":
            return interurban_map(
                n_towns=self.n_towns, town_spacing_km=self.town_spacing_km, seed=seed
            )
        if self.kind == "mixed":
            return corridor_city_map(
                corridor_km=self.length_km,
                rows=self.rows,
                cols=self.cols,
                spacing_m=self.spacing_m,
                seed=seed,
            )
        return pedestrian_map(
            rows=self.rows, cols=self.cols, spacing_m=self.spacing_m, seed=seed
        )

    @property
    def knobs(self) -> Dict[str, object]:
        """The parameters that matter for this kind (docs / README table)."""
        if self.kind in ("grid", "footpath"):
            return {"rows": self.rows, "cols": self.cols, "spacing_m": self.spacing_m}
        if self.kind == "radial":
            return {
                "n_arms": self.n_arms,
                "n_rings": self.n_rings,
                "ring_spacing_m": self.ring_spacing_m,
            }
        if self.kind == "corridor":
            return {"length_km": self.length_km}
        if self.kind == "interurban":
            return {"n_towns": self.n_towns, "town_spacing_km": self.town_spacing_km}
        return {
            "corridor_km": self.length_km,
            "rows": self.rows,
            "cols": self.cols,
            "spacing_m": self.spacing_m,
        }


@dataclass(frozen=True)
class RealMapTopology:
    """Topology axis backed by an imported (OpenStreetMap) road network.

    Drop-in alternative to :class:`Topology` for :class:`GeneratorSpec`:
    it exposes the same ``kind`` / ``build(seed)`` / ``knobs`` surface, but
    the road network comes out of the :mod:`repro.ingest` pipeline instead
    of a synthetic generator.

    Exactly one of the two sources is used:

    ``map_file``
        Path to an OSM extract (XML or Overpass JSON).  Imported through
        the compiled-map disk cache, so repeated sweeps skip re-parsing.
        The network is *invariant under the scenario seed* — a real city
        does not change shape per run; the seed still drives route choice,
        traffic and sensor noise.
    ``fixture``
        Name of a deterministic synthetic extract from
        :data:`repro.ingest.fixtures.FIXTURES` (used by the library's
        ``osm_*`` scenarios and CI, where no real extract is available).
        The seed *is* forwarded, so different seeds get different towns.

    ``bbox`` (``(min_lat, min_lon, max_lat, max_lon)``) clips the import,
    ``contract=False`` skips degree-2 contraction (benchmarks only).
    """

    map_file: Optional[str] = None
    fixture: Optional[str] = None
    bbox: Optional[Tuple[float, float, float, float]] = None
    contract: bool = True
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.map_file is None) == (self.fixture is None):
            raise ValueError("exactly one of map_file / fixture must be given")

    @property
    def kind(self) -> str:
        return "osm"

    def build(self, seed: int) -> RoadMap:
        """Materialise the imported road network."""
        # Runtime import: keeps the ingest machinery out of scenario-library
        # import time and avoids any package-cycle risk.
        from repro.ingest import build_fixture_xml, compile_osm, import_map

        if self.map_file is not None:
            return import_map(
                self.map_file,
                bbox=self.bbox,
                contract=self.contract,
                cache_dir=self.cache_dir,
            ).roadmap
        xml = build_fixture_xml(self.fixture, seed)
        return compile_osm(
            xml,
            bbox=self.bbox,
            contract=self.contract,
            source_name=f"fixture:{self.fixture}/seed={seed}",
        ).roadmap

    @property
    def knobs(self) -> Dict[str, object]:
        source = self.map_file if self.map_file is not None else f"fixture:{self.fixture}"
        out: Dict[str, object] = {"source": source}
        if self.bbox is not None:
            out["bbox"] = self.bbox
        if not self.contract:
            out["contract"] = False
        return out


# --------------------------------------------------------------------------- #
# traffic regime
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TrafficRegime:
    """Traffic-condition axis: how the longitudinal behaviour is shaped."""

    name: str
    speed_factor: float = 0.9
    stop_probability: float = 0.1
    stop_duration_range: Tuple[float, float] = (5.0, 30.0)
    speed_noise_sigma: float = 0.06
    max_acceleration: float = 1.8
    max_deceleration: float = 2.5
    lateral_acceleration: float = 2.2

    def driver_profile(self) -> DriverProfile:
        """Translate the regime into the longitudinal controller's profile."""
        return DriverProfile(
            speed_factor=self.speed_factor,
            max_acceleration=self.max_acceleration,
            max_deceleration=self.max_deceleration,
            lateral_acceleration=self.lateral_acceleration,
            stop_probability=self.stop_probability,
            stop_duration_range=self.stop_duration_range,
            speed_noise_sigma=self.speed_noise_sigma,
        )

    def pedestrian_profile(self) -> PedestrianProfile:
        """Translate the regime into a pedestrian profile."""
        return PedestrianProfile(
            walking_speed_factor=self.speed_factor,
            pause_probability=self.stop_probability,
            pause_duration_range=self.stop_duration_range,
            speed_noise_sigma=self.speed_noise_sigma,
        )


#: Steady traffic at close to the speed limit, no forced stops.
FREE_FLOW = TrafficRegime(
    name="free_flow",
    speed_factor=0.92,
    stop_probability=0.0,
    speed_noise_sigma=0.05,
    lateral_acceleration=3.0,
)
#: Congested stop-and-go: slow cruise, frequent long halts, jittery speeds.
RUSH_HOUR = TrafficRegime(
    name="rush_hour",
    speed_factor=0.55,
    stop_probability=0.55,
    stop_duration_range=(10.0, 90.0),
    speed_noise_sigma=0.14,
    max_acceleration=1.2,
    lateral_acceleration=1.8,
)
#: Signalised progression: normal cruise speed, regular medium stops.
SIGNALIZED = TrafficRegime(
    name="signalized",
    speed_factor=0.88,
    stop_probability=0.4,
    stop_duration_range=(15.0, 45.0),
    speed_noise_sigma=0.07,
)
#: Sparse night traffic: fast, smooth, essentially no stops.
NIGHT = TrafficRegime(
    name="night",
    speed_factor=1.0,
    stop_probability=0.05,
    stop_duration_range=(5.0, 15.0),
    speed_noise_sigma=0.03,
    lateral_acceleration=3.2,
)
#: Relaxed walking regime (pauses at shop windows and crossings).
STROLL = TrafficRegime(
    name="stroll",
    speed_factor=0.85,
    stop_probability=0.1,
    stop_duration_range=(5.0, 45.0),
    speed_noise_sigma=0.1,
)

#: Registry of the built-in regimes by name.
REGIMES: Dict[str, TrafficRegime] = {
    r.name: r for r in (FREE_FLOW, RUSH_HOUR, SIGNALIZED, NIGHT, STROLL)
}


# --------------------------------------------------------------------------- #
# agent
# --------------------------------------------------------------------------- #
AGENT_KINDS = ("car", "pedestrian", "delivery")
ROUTE_STYLES = ("wander", "corridor", "through", "multi_stop")


@dataclass(frozen=True)
class AgentSpec:
    """Moving-object axis: what moves and how it chooses its route.

    Parameters
    ----------
    kind:
        ``car``, ``pedestrian`` or ``delivery`` (car with scheduled
        drop-off dwell times).
    route_style:
        ``wander`` (biased random walk), ``corridor`` (follow the highest
        road class end to end), ``through`` (shortest path between the
        network extremes, the commuter pattern) or ``multi_stop`` (chained
        shortest paths through random waypoints; implied by ``delivery``).
    straight_bias:
        For ``wander`` routes: probability of going straight at a crossing.
    n_stops:
        For ``multi_stop`` routes: number of waypoints.
    dwell_range:
        For ``delivery``: ``(min, max)`` dwell at each drop-off in seconds.
    estimation_window:
        Speed/heading estimation window handed to the protocols.
    sample_interval:
        Seconds between sensor sightings — the positioning receiver's duty
        cycle, e.g. ``20.0`` for a battery-saving 0.05 Hz tracker.  The
        object's movement is always simulated at the native 1 s step; the
        sighting stream (sensor *and* paired ground truth) is decimated to
        this interval afterwards, so a sparse tracker moves exactly like a
        densely sampled one and merely reports less often.  Must be a
        positive multiple of the 1 s mobility step; the default ``1.0``
        keeps every sample.
    """

    kind: str = "car"
    route_style: str = "wander"
    straight_bias: float = 0.72
    n_stops: int = 8
    dwell_range: Tuple[float, float] = (60.0, 240.0)
    estimation_window: int = 4
    sample_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in AGENT_KINDS:
            raise ValueError(f"unknown agent kind {self.kind!r}; expected one of {AGENT_KINDS}")
        if self.route_style not in ROUTE_STYLES:
            raise ValueError(
                f"unknown route style {self.route_style!r}; expected one of {ROUTE_STYLES}"
            )
        if not (0.0 <= self.straight_bias <= 1.0):
            raise ValueError("straight_bias must be in [0, 1]")
        if self.n_stops < 1:
            raise ValueError("n_stops must be at least 1")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")


# --------------------------------------------------------------------------- #
# degradation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Degradation:
    """Sensor-degradation axis: what happens to the GPS data.

    Attributes
    ----------
    dropout_windows:
        Number of contiguous windows in which the sensor reports nothing
        (tunnels, parking garages).  The affected samples are removed from
        the trace entirely — sensor *and* ground truth, since an
        unobserved instant contributes neither an update opportunity nor
        an error sample.
    dropout_fraction:
        Total fraction of samples removed, spread over the windows.
    burst_windows:
        Number of windows with extra position noise (urban canyons,
        multipath).
    burst_sigma:
        Extra white noise sigma (metres, per axis) inside burst windows.
    burst_fraction:
        Total fraction of samples affected by bursts.
    """

    dropout_windows: int = 0
    dropout_fraction: float = 0.0
    burst_windows: int = 0
    burst_sigma: float = 0.0
    burst_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.dropout_windows < 0 or self.burst_windows < 0:
            raise ValueError("window counts must be non-negative")
        if not (0.0 <= self.dropout_fraction < 0.9):
            raise ValueError("dropout_fraction must be in [0, 0.9)")
        if not (0.0 <= self.burst_fraction <= 1.0):
            raise ValueError("burst_fraction must be in [0, 1]")
        if self.burst_sigma < 0:
            raise ValueError("burst_sigma must be non-negative")

    @property
    def is_null(self) -> bool:
        """Whether this degradation changes nothing."""
        return (self.dropout_windows == 0 or self.dropout_fraction == 0.0) and (
            self.burst_windows == 0 or self.burst_sigma == 0.0 or self.burst_fraction == 0.0
        )

    def _windows(
        self, n: int, n_windows: int, fraction: float, rng: random.Random
    ) -> List[Tuple[int, int]]:
        """Disjoint half-open index windows covering ~``fraction`` of ``n``."""
        total = int(round(n * fraction))
        if n_windows <= 0 or total <= 0:
            return []
        per_window = max(1, total // n_windows)
        windows: List[Tuple[int, int]] = []
        # Sample 0 is never degraded: it bootstraps protocol and server.
        candidates = list(range(1, max(2, n - per_window)))
        rng.shuffle(candidates)
        for start in candidates:
            if len(windows) == n_windows:
                break
            end = min(n, start + per_window)
            if all(end <= s or start >= e for s, e in windows):
                windows.append((start, end))
        return sorted(windows)

    def apply(
        self,
        sensor: Trace,
        journey: SimulatedJourney,
        seed: int,
    ) -> Tuple[Trace, SimulatedJourney]:
        """Degrade *sensor* (and, for dropouts, the paired ground truth)."""
        if self.is_null:
            return sensor, journey
        n = len(sensor)
        positions = sensor.positions.copy()
        rng = random.Random(seed)
        if self.burst_windows and self.burst_sigma > 0 and self.burst_fraction > 0:
            noise_rng = np.random.default_rng(seed + 1)
            for start, end in self._windows(n, self.burst_windows, self.burst_fraction, rng):
                positions[start:end] += noise_rng.normal(
                    0.0, self.burst_sigma, size=(end - start, 2)
                )
        keep = np.ones(n, dtype=bool)
        if self.dropout_windows and self.dropout_fraction > 0:
            for start, end in self._windows(n, self.dropout_windows, self.dropout_fraction, rng):
                keep[start:end] = False
            keep[0] = True
        times = sensor.times[keep]
        degraded_sensor = Trace(times, positions[keep], name=sensor.name)
        if keep.all():
            return degraded_sensor, journey
        truth = journey.trace
        degraded_truth = Trace(times, truth.positions[keep], name=truth.name)
        link_ids = [lid for lid, k in zip(journey.link_ids, keep) if k]
        degraded_journey = SimulatedJourney(
            trace=degraded_truth,
            link_ids=link_ids,
            route=journey.route,
            stop_count=journey.stop_count,
        )
        return degraded_sensor, degraded_journey


# --------------------------------------------------------------------------- #
# sighting-rate decimation
# --------------------------------------------------------------------------- #
def _sighting_stride(times: np.ndarray, interval: float) -> int:
    """The index stride realising *interval* on the trace's sighting grid.

    The interval must be a (near-exact) positive multiple of the trace's
    base step — decimation keeps every k-th sighting, it does not
    interpolate new instants.
    """
    if interval <= 0:
        raise ValueError("sample_interval must be positive")
    if len(times) < 2:
        return 1
    diffs = np.diff(times)
    base = float(np.median(diffs))
    stride = interval / base
    k = int(round(stride))
    if k < 1 or abs(stride - k) > 1e-9:
        raise ValueError(
            f"sample_interval {interval:g} s is not a multiple of the trace's "
            f"{base:g} s sighting step"
        )
    return k


def decimate_sightings(
    sensor: Trace, journey: SimulatedJourney, interval: float
) -> Tuple[Trace, SimulatedJourney]:
    """Thin the sighting stream to one fix every *interval* seconds.

    Keeps every k-th sighting (via :func:`repro.traces.resample.decimate`)
    of the sensor trace and the paired ground truth — positions *and* link
    ids, always including the first sample, exactly the bookkeeping
    :class:`Degradation` uses for dropout windows.  A stride of 1 returns
    the inputs unchanged (bit-identical scenarios for the default
    interval).
    """
    from repro.traces.resample import decimate

    k = _sighting_stride(sensor.times, interval)
    if k == 1:
        return sensor, journey
    thin_sensor = decimate(sensor, k)
    thin_truth = decimate(journey.trace, k)
    link_ids = journey.link_ids[::k]
    thin_journey = SimulatedJourney(
        trace=thin_truth,
        link_ids=link_ids,
        route=journey.route,
        stop_count=journey.stop_count,
    )
    return thin_sensor, thin_journey


def resample_scenario(scenario: Scenario, sample_interval: float) -> Scenario:
    """A copy of *scenario* with its sighting stream decimated.

    The post-build counterpart of :attr:`AgentSpec.sample_interval`, used
    by :class:`~repro.sim.runner.ScenarioSpec` to derive a low-rate variant
    of *any* library scenario (canonical ones included) without touching
    its recipe.  Roadmap, route and metadata are shared by reference; only
    the traces are replaced.
    """
    from dataclasses import replace

    sensor, journey = decimate_sightings(
        scenario.sensor_trace, scenario.journey, sample_interval
    )
    if sensor is scenario.sensor_trace:
        return scenario
    return replace(scenario, sensor_trace=sensor, journey=journey)


# --------------------------------------------------------------------------- #
# the composed spec
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GeneratorSpec:
    """A frozen combination of the four axes plus trip-level parameters."""

    name: str
    description: str
    topology: Topology
    regime: TrafficRegime
    agent: AgentSpec = AgentSpec()
    degradation: Degradation = Degradation()
    route_length_m: float = 30_000.0
    default_seed: int = 100
    us_values: Tuple[float, ...] = tuple(CAR_US_SWEEP)
    matching_tolerance: float = 30.0
    sensor_sigma: float = 2.5
    noise_correlation_s: float = 60.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a generated scenario needs a name")
        if self.route_length_m <= 0:
            raise ValueError("route_length_m must be positive")

    @property
    def knobs(self) -> Dict[str, object]:
        """Flat summary of the composition (README table / ``repro scenarios``)."""
        out: Dict[str, object] = {
            "topology": self.topology.kind,
            **self.topology.knobs,
            "regime": self.regime.name,
            "agent": self.agent.kind,
            "route_style": (
                "multi_stop" if self.agent.kind == "delivery" else self.agent.route_style
            ),
            "route_km": self.route_length_m / 1000.0,
        }
        if self.agent.kind == "delivery":
            out["delivery_stops"] = self.agent.n_stops
        if self.agent.sample_interval != 1.0:
            out["sample_interval_s"] = self.agent.sample_interval
        if self.degradation.dropout_windows:
            out["dropout"] = (
                f"{self.degradation.dropout_windows}x windows, "
                f"{self.degradation.dropout_fraction:.0%}"
            )
        if self.degradation.burst_windows and self.degradation.burst_sigma > 0:
            out["noise_bursts"] = (
                f"{self.degradation.burst_windows}x +{self.degradation.burst_sigma:g} m"
            )
        return out


# --------------------------------------------------------------------------- #
# route construction per agent style
# --------------------------------------------------------------------------- #
def _corridor_class(roadmap: RoadMap) -> RoadClass:
    """The highest road class present (the corridor to follow)."""
    classes = {link.road_class for link in roadmap.links.values()}
    for road_class in (RoadClass.MOTORWAY, RoadClass.PRIMARY, RoadClass.SECONDARY):
        if road_class in classes:
            return road_class
    return RoadClass.RESIDENTIAL


def _through_route(roadmap: RoadMap, planner: RoutePlanner) -> Route:
    """Shortest (fastest) route between the network's west and east extremes."""
    nodes = list(roadmap.intersections)
    west = min(nodes, key=lambda nid: float(roadmap.intersection(nid).position[0]))
    east = max(nodes, key=lambda nid: float(roadmap.intersection(nid).position[0]))
    return planner.shortest_route(west, east)


def _multi_stop_route(
    roadmap: RoadMap,
    planner: RoutePlanner,
    rng: random.Random,
    target_length: float,
    n_stops: int,
    max_attempts: int = 400,
) -> Tuple[Route, List[float]]:
    """A route chaining shortest paths through random waypoints.

    Returns the route plus the route offsets of the waypoint arrivals
    (where the agent dwells).  Waypoints are drawn at roughly
    ``target_length / n_stops`` spacing — so a scaled-down round still
    visits ``n_stops`` drop-offs, just closer together — until either all
    legs are assembled or the target length is reached.
    """
    nodes = sorted(roadmap.intersections)
    positions = {nid: roadmap.intersection(nid).position for nid in nodes}
    leg_target = max(200.0, target_length / max(1, n_stops))
    current = rng.choice(nodes)
    links: List = []
    dwell_offsets: List[float] = []
    total = 0.0
    attempts = 0
    while len(dwell_offsets) < n_stops and total < target_length and attempts < max_attempts:
        attempts += 1
        here = positions[current]
        candidates = [
            nid
            for nid in nodes
            if nid != current
            and 0.4 * leg_target
            <= float(np.hypot(*(positions[nid] - here)))
            <= 1.6 * leg_target
        ]
        target = rng.choice(candidates if candidates else [n for n in nodes if n != current])
        try:
            leg = planner.shortest_route(current, target)
        except nx.NetworkXNoPath:
            continue
        links.extend(leg.links)
        total += leg.length
        dwell_offsets.append(total)
        current = target
    if not links:
        raise RuntimeError("could not assemble a multi-stop route on this map")
    # The final arrival is the end of the trip, not a dwell.
    dwell_offsets = dwell_offsets[:-1]
    return Route(roadmap, links), dwell_offsets


@lru_cache(maxsize=8)
def _shared_planner(roadmap: RoadMap, weight: str) -> RoutePlanner:
    """One Dijkstra planner per (map, weight) across a whole fleet build.

    Every agent of a fleet plans on the same road map; sharing the planner
    means the routing graph is built once per map instead of once per
    agent.  Keyed by map identity (road maps are immutable), bounded so
    sweeps over many generated towns do not pin every map in memory.
    """
    return RoutePlanner(roadmap, weight=weight)


def _build_route(
    spec: GeneratorSpec,
    roadmap: RoadMap,
    rng: random.Random,
    target_length: float,
) -> Tuple[Route, List[Tuple[float, float]]]:
    """The route (and any scheduled dwell stops) for *spec*'s agent."""
    agent = spec.agent
    style = agent.route_style
    if agent.kind == "delivery":
        style = "multi_stop"
    if style == "corridor":
        route = corridor_route(roadmap, _corridor_class(roadmap))
        return _truncate_route(route, target_length), []
    planner = _shared_planner(roadmap, "travel_time" if style == "through" else "length")
    if style == "through":
        route = _through_route(roadmap, planner)
        return _truncate_route(route, target_length), []
    if style == "multi_stop":
        route, dwell_offsets = _multi_stop_route(
            roadmap, planner, rng, target_length, agent.n_stops
        )
        route = _truncate_route(route, target_length)
        stops = [
            (offset, rng.uniform(*agent.dwell_range))
            for offset in dwell_offsets
            if offset < route.length
        ]
        return route, stops
    route = planner.random_route(
        min_length=target_length, rng=rng, straight_bias=agent.straight_bias
    )
    return _truncate_route(route, target_length), []


# --------------------------------------------------------------------------- #
# scenario materialisation
# --------------------------------------------------------------------------- #
def generate_scenario(
    spec: GeneratorSpec, seed: Optional[int] = None, scale: float = 1.0
) -> Scenario:
    """Materialise *spec* into a :class:`Scenario`.

    Parameters
    ----------
    spec:
        The composed scenario recipe.
    seed:
        Master seed; ``None`` uses ``spec.default_seed``.  Derived streams
        (map geometry, route choice, journey, sensor noise, degradation)
        use fixed offsets of it, so different seeds decorrelate everything
        while equal seeds reproduce the scenario bit-identically.
    scale:
        Route-length scale factor in ``(0, 1]``, like the canonical
        scenarios.
    """
    if not (0.0 < scale <= 1.0):
        raise ValueError("scale must be in (0, 1]")
    seed = spec.default_seed if seed is None else int(seed)
    target_length = spec.route_length_m * scale

    roadmap = spec.topology.build(seed)
    rng = random.Random(seed + 17)
    route, dwell_stops = _build_route(spec, roadmap, rng, target_length)

    if spec.agent.kind == "pedestrian":
        journey = PedestrianSimulator(
            route, spec.regime.pedestrian_profile(), rng=rng, extra_stops=dwell_stops
        ).run(name=spec.name)
    else:
        journey = VehicleSimulator(
            route, spec.regime.driver_profile(), rng=rng, extra_stops=dwell_stops
        ).run(name=spec.name)

    noise = GaussMarkovNoise(
        sigma=spec.sensor_sigma,
        correlation_time=spec.noise_correlation_s,
        seed=seed + 1000,
    )
    sensor = noise.apply(journey.trace)
    # Sensor duty cycle: movement and noise stay at the native 1 s step,
    # the sighting stream is thinned afterwards (no-op at the default).
    sensor, journey = decimate_sightings(sensor, journey, spec.agent.sample_interval)
    sensor, journey = spec.degradation.apply(sensor, journey, seed=seed + 2000)

    return Scenario(
        name=spec.name,
        description=spec.description,
        roadmap=roadmap,
        route=route,
        journey=journey,
        sensor_trace=sensor,
        sensor_sigma=noise.typical_error,
        estimation_window=spec.agent.estimation_window,
        us_values=list(spec.us_values),
        matching_tolerance=spec.matching_tolerance,
    )

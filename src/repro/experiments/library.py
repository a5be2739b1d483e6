"""The scenario library: every named scenario the stack can run.

One registry holds the paper's four canonical movement patterns *and* the
scenarios composed by :mod:`repro.mobility.generator` (topology × traffic
regime × agent × degradation).  Everything downstream resolves names here:
:class:`~repro.sim.runner.ScenarioSpec` (and with it the sweep runner, the
per-process scenario cache and every experiment entry point), the ``repro
sweep``/``simulate``/``fleet`` CLI commands, and the golden-metrics
regression suite, which pins the metrics of every library scenario.

The registry is deliberately open: :func:`register_scenario` accepts any
entry whose builder returns a :class:`~repro.mobility.scenarios.Scenario`,
so experiment scripts can add project-specific scenarios that immediately
work with sweeps, fleets and artifacts.

One caveat for parallel sweeps: the registry lives in this process.
Under the ``fork`` start method (the Linux default) workers inherit every
registration; under ``spawn``/``forkserver`` they re-import this module
and see only the built-ins, so a ``jobs > 1`` sweep over a scenario
registered at runtime fails name resolution in the workers.  Register
such scenarios at import time in a module the workers also import, or
run their sweeps with ``jobs=1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.mobility.generator import (
    FREE_FLOW,
    NIGHT,
    RUSH_HOUR,
    SIGNALIZED,
    STROLL,
    AgentSpec,
    Degradation,
    GeneratorSpec,
    RealMapTopology,
    Topology,
    generate_scenario,
)
from repro.mobility.scenarios import (
    CAR_US_SWEEP,
    WALK_US_SWEEP,
    Scenario,
    ScenarioName,
    build_scenario,
)
from repro.sim.config import PROTOCOL_IDS, SimulationConfig
from repro.sim.fleet import FleetLane


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioEntry:
    """One named scenario: how to build it and how to describe it.

    Attributes
    ----------
    name:
        Registry key (also the CLI ``--scenario`` value).
    description:
        One-line human description.
    category:
        ``"canonical"`` for the paper's four patterns, ``"generated"`` for
        library compositions.
    default_seed:
        Seed used when the caller does not pick one; part of the scenario
        cache key, so ``seed=None`` and the explicit default share a cache
        entry.
    builder:
        ``(seed, scale) -> Scenario``; must be deterministic in both.
    knobs:
        Flat parameter summary for the README table and ``repro scenarios``.
    query_mix:
        Optional explicit application-query mix (``range`` / ``nearest`` /
        ``geofence`` weights) replayed by ``repro query-bench`` for this
        scenario.  When absent, :func:`repro.sim.workload.default_query_mix`
        derives one from the topology knob.
    query_rate_per_s:
        Optional default Poisson query-arrival rate (queries per simulated
        second) for workload replays; ``None`` keeps the per-tick workload
        model.
    """

    name: str
    description: str
    category: str
    default_seed: int
    builder: Callable[[int, float], Scenario]
    knobs: Mapping[str, object] = field(default_factory=dict)
    query_mix: Optional[Mapping[str, float]] = None
    query_rate_per_s: Optional[float] = None


_REGISTRY: Dict[str, ScenarioEntry] = {}


def register_scenario(entry: ScenarioEntry) -> ScenarioEntry:
    """Add *entry* to the library (name must be unused)."""
    if entry.name in _REGISTRY:
        raise ValueError(f"scenario {entry.name!r} is already registered")
    _REGISTRY[entry.name] = entry
    return entry


def get_entry(name: Union[str, ScenarioName]) -> ScenarioEntry:
    """The registry entry for *name* (accepts :class:`ScenarioName` members)."""
    key = name.value if isinstance(name, enum.Enum) else str(name)
    entry = _REGISTRY.get(key)
    if entry is None:
        raise ValueError(
            f"unknown scenario {key!r}; known scenarios: {', '.join(scenario_names())}"
        )
    return entry


def scenario_names(category: Optional[str] = None) -> List[str]:
    """All registered scenario names (optionally filtered by category)."""
    return [
        name
        for name, entry in _REGISTRY.items()
        if category is None or entry.category == category
    ]


def build_library_scenario(
    name: Union[str, ScenarioName], seed: Optional[int] = None, scale: float = 1.0
) -> Scenario:
    """Build the named scenario directly (uncached; see ``ScenarioSpec.build``)."""
    entry = get_entry(name)
    seed = entry.default_seed if seed is None else int(seed)
    return entry.builder(seed, float(scale))


def describe_scenarios() -> List[Dict[str, object]]:
    """One row per registered scenario (name, category, description, knobs)."""
    return [
        {
            "scenario": entry.name,
            "category": entry.category,
            "description": entry.description,
            "knobs": ", ".join(f"{k}={v}" for k, v in entry.knobs.items()),
        }
        for entry in _REGISTRY.values()
    ]


# --------------------------------------------------------------------------- #
# canonical entries (the paper's Table 1 patterns)
# --------------------------------------------------------------------------- #
#: Explicit application-query mixes for scenarios whose workload shape is
#: better described by their *use* than by their topology (the fallback):
#: dispatchers chase their delivery van (nearest-heavy), a campus geofences
#: buildings, taxis are hailed by proximity in the congested grid.
QUERY_MIXES: Dict[str, Mapping[str, float]] = {
    "delivery_rounds": {"range": 0.5, "nearest": 3.0, "geofence": 1.0},
    "campus_courier": {"range": 0.5, "nearest": 1.0, "geofence": 3.0},
    "rush_hour_city": {"range": 0.5, "nearest": 3.0, "geofence": 1.0},
    "poisson_queries_freeway": {"range": 3.0, "nearest": 1.0, "geofence": 0.5},
}

#: Default Poisson query-arrival rates (queries per simulated second) for
#: scenarios modelling a live service under independent request traffic;
#: honoured by workload replays (``repro query-bench``).
QUERY_RATES: Dict[str, float] = {
    "poisson_queries_freeway": 0.5,
}


def _canonical(name: ScenarioName, description: str, default_seed: int,
               knobs: Mapping[str, object]) -> ScenarioEntry:
    return register_scenario(
        ScenarioEntry(
            name=name.value,
            description=description,
            category="canonical",
            default_seed=default_seed,
            builder=lambda seed, scale, _n=name: build_scenario(_n, seed=seed, scale=scale),
            knobs=knobs,
            query_mix=QUERY_MIXES.get(name.value),
        )
    )


_canonical(
    ScenarioName.FREEWAY, "car on a freeway (Table 1: 163 km at ~103 km/h)", 0,
    {"topology": "corridor", "regime": "free_flow", "route_km": 163},
)
_canonical(
    ScenarioName.INTERURBAN, "car in inter-urban traffic (99 km at ~60 km/h)", 1,
    {"topology": "interurban", "regime": "mixed", "route_km": 99},
)
_canonical(
    ScenarioName.CITY, "car in city traffic (89 km at ~34 km/h)", 2,
    {"topology": "grid", "regime": "city", "route_km": 89},
)
_canonical(
    ScenarioName.WALKING, "walking person (10 km at ~4.6 km/h)", 3,
    {"topology": "footpath", "regime": "stroll", "route_km": 10},
)


# --------------------------------------------------------------------------- #
# generated entries
# --------------------------------------------------------------------------- #
#: The library's generated scenario recipes, by name.
GENERATED_SPECS: Dict[str, GeneratorSpec] = {}


def register_generated(spec: GeneratorSpec) -> GeneratorSpec:
    """Register a :class:`GeneratorSpec` as a library scenario."""
    register_scenario(
        ScenarioEntry(
            name=spec.name,
            description=spec.description,
            category="generated",
            default_seed=spec.default_seed,
            builder=lambda seed, scale, _s=spec: generate_scenario(_s, seed=seed, scale=scale),
            knobs=spec.knobs,
            query_mix=QUERY_MIXES.get(spec.name),
            query_rate_per_s=QUERY_RATES.get(spec.name),
        )
    )
    GENERATED_SPECS[spec.name] = spec
    return spec


register_generated(GeneratorSpec(
    name="rush_hour_city",
    description="car crawling through a congested Manhattan grid",
    topology=Topology(kind="grid", rows=14, cols=14, spacing_m=250.0),
    regime=RUSH_HOUR,
    agent=AgentSpec(kind="car", route_style="wander", straight_bias=0.75),
    route_length_m=25_000.0,
    default_seed=100,
))
register_generated(GeneratorSpec(
    name="delivery_rounds",
    description="delivery van on a multi-stop round with drop-off dwells",
    topology=Topology(kind="grid", rows=12, cols=12, spacing_m=260.0),
    regime=SIGNALIZED,
    agent=AgentSpec(kind="delivery", n_stops=10, dwell_range=(60.0, 240.0)),
    route_length_m=22_000.0,
    default_seed=101,
))
register_generated(GeneratorSpec(
    name="commuter_mixed",
    description="commute: motorway approach feeding into dense city streets",
    topology=Topology(kind="mixed", length_km=25.0, rows=10, cols=10, spacing_m=220.0),
    regime=FREE_FLOW,
    agent=AgentSpec(kind="car", route_style="through", estimation_window=3),
    route_length_m=28_000.0,
    default_seed=102,
))
register_generated(GeneratorSpec(
    name="tunnel_freeway",
    description="freeway drive with GPS dropout windows (tunnels)",
    topology=Topology(kind="corridor", length_km=60.0),
    regime=FREE_FLOW,
    agent=AgentSpec(kind="car", route_style="corridor", estimation_window=2),
    degradation=Degradation(dropout_windows=4, dropout_fraction=0.08),
    route_length_m=55_000.0,
    default_seed=103,
))
register_generated(GeneratorSpec(
    name="radial_commute",
    description="car wandering a ring-and-spoke city under signal control",
    topology=Topology(kind="radial", n_arms=9, n_rings=6, ring_spacing_m=500.0),
    regime=SIGNALIZED,
    agent=AgentSpec(kind="car", route_style="wander", straight_bias=0.6),
    route_length_m=20_000.0,
    default_seed=104,
))
register_generated(GeneratorSpec(
    name="night_corridor",
    description="fast, smooth night drive down an empty motorway",
    topology=Topology(kind="corridor", length_km=70.0),
    regime=NIGHT,
    agent=AgentSpec(kind="car", route_style="corridor", estimation_window=2),
    route_length_m=60_000.0,
    default_seed=105,
))
register_generated(GeneratorSpec(
    name="urban_canyon_walk",
    description="pedestrian in an urban canyon with multipath noise bursts",
    topology=Topology(kind="footpath", rows=18, cols=18, spacing_m=90.0),
    regime=STROLL,
    agent=AgentSpec(kind="pedestrian", estimation_window=8),
    degradation=Degradation(burst_windows=5, burst_sigma=12.0, burst_fraction=0.2),
    route_length_m=7_000.0,
    default_seed=106,
    us_values=tuple(WALK_US_SWEEP),
    matching_tolerance=20.0,
))
register_generated(GeneratorSpec(
    name="interurban_stopandgo",
    description="inter-urban trunk road degraded to stop-and-go traffic",
    topology=Topology(kind="interurban", n_towns=6, town_spacing_km=14.0),
    regime=RUSH_HOUR,
    agent=AgentSpec(kind="car", route_style="corridor"),
    route_length_m=40_000.0,
    default_seed=107,
))
register_generated(GeneratorSpec(
    name="campus_courier",
    description="walking courier doing a multi-stop round across a campus",
    topology=Topology(kind="footpath", rows=16, cols=16, spacing_m=100.0),
    regime=STROLL,
    agent=AgentSpec(
        kind="pedestrian", route_style="multi_stop", n_stops=6,
        dwell_range=(30.0, 120.0), estimation_window=8,
    ),
    route_length_m=6_000.0,
    default_seed=108,
    us_values=tuple(WALK_US_SWEEP),
    matching_tolerance=20.0,
))
register_generated(GeneratorSpec(
    name="osm_town_drive",
    description="car wandering a town imported through the OSM ingest pipeline",
    topology=RealMapTopology(fixture="town"),
    regime=SIGNALIZED,
    agent=AgentSpec(kind="car", route_style="wander", straight_bias=0.7),
    route_length_m=15_000.0,
    default_seed=109,
))
register_generated(GeneratorSpec(
    name="osm_town_walk",
    description="pedestrian strolling the imported town's streets and park paths",
    topology=RealMapTopology(fixture="town"),
    regime=STROLL,
    agent=AgentSpec(kind="pedestrian", estimation_window=8),
    route_length_m=5_000.0,
    default_seed=111,
    us_values=tuple(WALK_US_SWEEP),
    matching_tolerance=20.0,
))
# Heterogeneous sighting rates and Poisson query arrivals (the workloads
# the exact-instant schedule exists for).
register_generated(GeneratorSpec(
    name="mixed_rate_city",
    description=(
        "city car reporting one fix every 5 s (0.2 Hz) — the low-rate side "
        "of a 1 Hz / 0.2 Hz mixed-rate fleet (pair its lanes with "
        "rush_hour_city for the split)"
    ),
    topology=Topology(kind="grid", rows=12, cols=12, spacing_m=240.0),
    regime=SIGNALIZED,
    agent=AgentSpec(
        kind="car", route_style="wander", straight_bias=0.7, sample_interval=5.0
    ),
    route_length_m=18_000.0,
    default_seed=112,
))
register_generated(GeneratorSpec(
    name="poisson_queries_freeway",
    description=(
        "freeway drive serving a Poisson application-query stream "
        "(0.5 queries/s, at exact arrival instants)"
    ),
    topology=Topology(kind="corridor", length_km=50.0),
    regime=FREE_FLOW,
    agent=AgentSpec(kind="car", route_style="corridor", estimation_window=2),
    route_length_m=45_000.0,
    default_seed=113,
))
register_generated(GeneratorSpec(
    name="low_power_tracker",
    description=(
        "battery-saving asset tracker waking every 20 s (0.05 Hz) on a "
        "long-haul inter-urban trunk road"
    ),
    topology=Topology(kind="interurban", n_towns=12, town_spacing_km=16.0),
    regime=FREE_FLOW,
    agent=AgentSpec(kind="car", route_style="corridor", sample_interval=20.0),
    route_length_m=170_000.0,
    default_seed=114,
))


# --------------------------------------------------------------------------- #
# imported map files
# --------------------------------------------------------------------------- #
def register_map_file_scenario(
    map_file: str,
    agent_kind: str = "car",
    name: Optional[str] = None,
    bbox: Optional[Sequence[float]] = None,
    cache_dir: Optional[str] = None,
    route_length_m: Optional[float] = None,
) -> str:
    """Register a scenario that runs on an imported OSM extract; return its name.

    This is what ``repro sweep --map-file`` / ``repro fleet --map-file``
    call: the extract goes through the compiled-map cache, and the returned
    name resolves like any library scenario (sweeps, fleets, golden runs on
    user maps).  Registration is idempotent for the same file; a name
    collision with a *different* source raises, so a map file cannot
    shadow a built-in scenario.
    """
    from pathlib import Path

    path = Path(map_file)
    if name is None:
        slug = "".join(ch if ch.isalnum() else "_" for ch in path.stem)
        name = f"osm_{slug}" if not slug.startswith("osm_") else slug
    walking = agent_kind == "pedestrian"
    spec = GeneratorSpec(
        name=name,
        description=f"{agent_kind} on imported map {path.name}",
        topology=RealMapTopology(
            map_file=str(path),
            bbox=tuple(float(v) for v in bbox) if bbox is not None else None,
            cache_dir=cache_dir,
        ),
        regime=STROLL if walking else SIGNALIZED,
        agent=(
            AgentSpec(kind="pedestrian", estimation_window=8)
            if walking
            else AgentSpec(kind="car", route_style="wander", straight_bias=0.7)
        ),
        route_length_m=float(route_length_m or (5_000.0 if walking else 15_000.0)),
        default_seed=0,
        us_values=tuple(WALK_US_SWEEP) if walking else tuple(CAR_US_SWEEP),
        matching_tolerance=20.0 if walking else 30.0,
    )
    if name in _REGISTRY:
        # Idempotent only for the *identical* recipe: silently returning an
        # entry registered with a different bbox, agent or map file would
        # run a sweep the caller did not ask for.
        if GENERATED_SPECS.get(name) == spec:
            return name
        existing = _REGISTRY[name]
        raise ValueError(
            f"scenario name {name!r} is already taken with different options "
            f"(source {existing.knobs.get('source', 'builtin')!r}); pass an "
            f"explicit name for {path.name}"
        )
    register_generated(spec)
    return name


# --------------------------------------------------------------------------- #
# fleet composition
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FleetMix:
    """One homogeneous slice of a heterogeneous fleet.

    ``count`` objects all running *protocol_id* at accuracy *accuracy*
    over the library scenario *scenario*.
    """

    scenario: str
    protocol_id: str
    accuracy: float
    count: int = 1

    def __post_init__(self) -> None:
        get_entry(self.scenario)  # validate early
        if self.protocol_id not in PROTOCOL_IDS:
            raise ValueError(
                f"unknown protocol id {self.protocol_id!r}; expected one of {PROTOCOL_IDS}"
            )
        # `not (x > 0)` also rejects NaN, which `x <= 0` would let through.
        if not (self.accuracy > 0) or self.accuracy == float("inf"):
            raise ValueError("accuracy must be positive and finite")
        if self.count < 1:
            raise ValueError("count must be at least 1")

    @classmethod
    def parse(cls, text: str) -> "FleetMix":
        """Parse ``scenario:protocol:accuracy[:count]`` (the CLI format)."""
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"expected scenario:protocol:accuracy[:count], got {text!r}"
            )
        count = int(parts[3]) if len(parts) == 4 else 1
        return cls(
            scenario=parts[0], protocol_id=parts[1],
            accuracy=float(parts[2]), count=count,
        )


def fleet_lanes(
    mix: Sequence[FleetMix], scale: float = 1.0, seed: Optional[int] = None
) -> List[FleetLane]:
    """Build the lanes of a heterogeneous fleet from *mix* slices.

    Scenarios are resolved through the shared per-process cache (one build
    per distinct scenario regardless of the object count).  Each slice
    builds one prototype protocol and every lane gets its own
    :meth:`~repro.protocols.base.UpdateProtocol.clone_for` copy, as
    :class:`~repro.sim.fleet.FleetSimulation` requires; the clones of a
    map-based prototype share its match-stream memo, so a slice matches
    its trace once, not once per lane.  Lane ids are
    ``<scenario>/<protocol>/<us>/<n>``.
    """
    from repro.sim.runner import ScenarioSpec  # runtime import: runner resolves us

    lanes: List[FleetLane] = []
    for m in mix:
        scenario = ScenarioSpec(name=m.scenario, scale=scale, seed=seed).build()
        prototype = SimulationConfig(
            protocol_id=m.protocol_id, accuracy=m.accuracy
        ).build_protocol(scenario)
        for n in range(m.count):
            lanes.append(
                FleetLane(
                    object_id=f"{m.scenario}/{m.protocol_id}/{m.accuracy:g}/{n}",
                    protocol=prototype.clone_for(),
                    sensor_trace=scenario.sensor_trace,
                    truth_trace=scenario.true_trace,
                )
            )
    return lanes

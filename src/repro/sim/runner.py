"""The shared sweep runner behind every experiment entry point.

A *sweep* is a list of independent simulation points (scenario × protocol ×
requested accuracy) — the curves of the paper's Figs. 7-10, updates per hour
against the accuracy requested at the server.  :class:`SweepRunner` executes
those points serially by default, on a
:class:`~concurrent.futures.ProcessPoolExecutor` with ``jobs > 1``, while
guaranteeing that the result *sequence* is independent of the job count:
points are deterministic, self-contained and returned in submission order,
so ``jobs=1`` and ``jobs=N`` produce bit-identical results.

Scenario construction (map generation, routing, journey simulation) is by
far the most expensive part of a sweep, so scenarios are cached per process
and keyed by :class:`ScenarioSpec`; a sweep generates its scenario once per
process, not once per point.  Under the ``fork`` start method (the Linux
default) workers additionally inherit the parent's cache for free; under
``spawn`` each worker rebuilds its scenarios once from the spec.  Protocols
whose construction is expensive are cached the same way, as per-process
prototypes that every point clones; a map-based prototype also carries the
per-trace map-match stream, so an accuracy sweep matches its trace once,
not once per point.

The runner also writes machine-readable artifacts (JSON and CSV) so
figures, tables and ablations all leave greppable, diffable records behind.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.mobility.scenarios import Scenario
from repro.protocols.base import UpdateProtocol
from repro.sim.config import SimulationConfig
from repro.sim.fleet import FleetLane, auto_region_size, fleet_extent, run_simulation
from repro.sim.metrics import SimulationResult
from repro.obs.manifest import build_manifest
from repro.sim.workload import QueryWorkload, default_query_mix, default_query_rate

_logger = logging.getLogger(__name__)


def _artifact_provenance(config: Dict[str, object]) -> Dict[str, object]:
    """Run-invariant provenance for embedding inside artifacts.

    Artifacts must stay byte-identical across job counts (a
    tier-1 contract), so the wall-clock ``created_unix`` stamp is dropped;
    the stable fields — git revision, config hash, interpreter and library
    versions — remain.
    """
    manifest = build_manifest(config=config)
    manifest.pop("created_unix", None)
    return manifest


# --------------------------------------------------------------------------- #
# scenario specification and per-process cache
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable recipe for any scenario of the library.

    Names are resolved through :mod:`repro.experiments.library` (canonical
    *and* generated scenarios).  Workers rebuild (or, under ``fork``,
    inherit) the scenario from this spec instead of shipping the
    multi-megabyte scenario object itself.

    The spec doubles as the scenario cache key, so ``__post_init__``
    canonicalises every field: the name through the registry, ``scale`` to
    ``float``, ``seed`` to ``int`` — with ``None`` resolved to the
    scenario's default seed — and ``sample_interval`` to ``float`` (or
    ``None`` for the scenario's native sighting rate).  Distinct
    ``seed``/``scale``/``sample_interval`` combinations can therefore never
    alias one cache entry, and the default seed written explicitly shares
    its entry with ``seed=None``.

    ``sample_interval`` decimates the built scenario's sighting stream to
    one fix every that many seconds (see
    :func:`repro.mobility.generator.resample_scenario`) — the per-lane
    sampling-rate knob behind mixed-rate fleets.
    """

    name: str
    scale: float = 1.0
    seed: Optional[int] = None
    sample_interval: Optional[float] = None

    def __post_init__(self) -> None:
        # Runtime import: the library lives above the runner in the package
        # graph (it registers builders that the runner merely executes).
        from repro.experiments.library import get_entry

        entry = get_entry(self.name)
        object.__setattr__(self, "name", entry.name)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(
            self, "seed", entry.default_seed if self.seed is None else int(self.seed)
        )
        if self.sample_interval is not None:
            object.__setattr__(self, "sample_interval", float(self.sample_interval))
            if self.sample_interval <= 0:
                raise ValueError("sample_interval must be positive")
        if not (0.0 < self.scale <= 1.0):
            raise ValueError("scale must be in (0, 1]")

    def build(self) -> Scenario:
        """The (per-process cached) scenario this spec describes."""
        return _cached_scenario(self)


_SCENARIO_CACHE: Dict[ScenarioSpec, Scenario] = {}


def _cached_scenario(spec: ScenarioSpec) -> Scenario:
    scenario = _SCENARIO_CACHE.get(spec)
    if scenario is None:
        if spec.sample_interval is not None:
            # Decimated variants share the (cached) base build: sweeping
            # several sighting rates over one scenario generates it once,
            # and a no-op interval aliases the very same object.
            from repro.mobility.generator import resample_scenario

            base = _cached_scenario(
                ScenarioSpec(name=spec.name, scale=spec.scale, seed=spec.seed)
            )
            scenario = resample_scenario(base, spec.sample_interval)
        else:
            from repro.experiments.library import build_library_scenario

            scenario = build_library_scenario(
                spec.name, seed=spec.seed, scale=spec.scale
            )
        _SCENARIO_CACHE[spec] = scenario
    return scenario


def clear_scenario_cache() -> None:
    """Drop the per-process caches (tests needing fresh randomness).

    Clears the scenario cache and, with it, the protocol prototypes (they
    hold references into the cached scenarios' maps and routes).
    """
    _SCENARIO_CACHE.clear()
    _PROTOCOL_PROTOTYPES.clear()


# --------------------------------------------------------------------------- #
# per-process protocol prototypes
# --------------------------------------------------------------------------- #
#: Protocol ids whose construction compiles expensive shared structure (map
#: matcher geometry, route projections) worth keeping worker-resident.  The
#: cheap threshold protocols are excluded (a cache lookup costs as much as
#: building one), and so is time-based reporting, whose default interval is
#: *derived from the accuracy* — cloning across accuracies would not
#: reproduce a fresh build.
_PROTOTYPE_PROTOCOL_IDS = ("map", "known_route")

_PROTOCOL_PROTOTYPES: Dict[tuple, UpdateProtocol] = {}


def _build_protocol_cached(
    spec: "ScenarioSpec", config: SimulationConfig, scenario: Scenario
) -> UpdateProtocol:
    """Build *config*'s protocol, reusing a worker-resident prototype.

    An accuracy sweep of a map-based protocol rebuilds the same matcher
    over the same road map once per point; here each worker process builds
    it once per (scenario, non-accuracy config) and serves every point a
    fresh :meth:`~repro.protocols.base.UpdateProtocol.clone_for` — shared
    structure by reference, per-run state detached, results bit-identical
    to a fresh build (asserted by the test-suite).  The prototype itself is
    never run: even the first point gets a clone.  A map-based prototype
    also carries the memo of match streams its clones share: the first
    point matches the scenario's trace, every later point (and every later
    sweep of the same key, until :func:`clear_scenario_cache`) reads it.
    """
    if config.protocol_id not in _PROTOTYPE_PROTOCOL_IDS:
        return config.build_protocol(scenario)
    try:
        key = (
            spec,
            config.protocol_id,
            config.use_sensor_uncertainty,
            config.estimation_window,
            config.matching_tolerance,
            tuple(sorted(config.extra.items())),
        )
    except TypeError:
        # Unhashable extra parameters: fall back to a per-point build.
        return config.build_protocol(scenario)
    prototype = _PROTOCOL_PROTOTYPES.get(key)
    if prototype is None:
        prototype = config.build_protocol(scenario)
        _PROTOCOL_PROTOTYPES[key] = prototype
    return prototype.clone_for(config.accuracy)


# --------------------------------------------------------------------------- #
# the unit of work
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepPoint:
    """One point of a protocol's curve: a requested accuracy and its result."""

    accuracy: float
    result: SimulationResult

    @property
    def updates_per_hour(self) -> float:
        """Shortcut to the headline metric."""
        return self.result.updates_per_hour


@dataclass(frozen=True)
class SweepTask:
    """One sweep point: build the configured protocol, run it, measure it."""

    scenario: ScenarioSpec
    config: SimulationConfig

    def run(self) -> SweepPoint:
        """Execute this point in the current process."""
        scenario = self.scenario.build()
        result = run_simulation(
            _build_protocol_cached(self.scenario, self.config, scenario),
            scenario.sensor_trace,
            scenario.true_trace,
        )
        return SweepPoint(accuracy=float(self.config.accuracy), result=result)


def _run_task(task: SweepTask) -> SweepPoint:
    """Module-level trampoline so tasks can cross process boundaries."""
    return task.run()


@dataclass(frozen=True)
class QueryBenchSpec:
    """One query-workload bench: a fleet, a sharded service, a query stream.

    ``mix=None`` resolves to the scenario's default query mix
    (:func:`repro.sim.workload.default_query_mix`): geofence-heavy for
    pedestrian scenarios, nearest-heavy for city grids, range-heavy for
    corridors.

    With ``arrival_rate_per_s`` set (explicitly, or defaulted from the
    library entry's ``query_rate_per_s``) queries arrive as a Poisson
    process at exact instants; otherwise ``queries_per_tick`` fire at every
    sample instant.
    """

    scenario: str
    protocol_id: str = "linear"
    accuracy: float = 100.0
    count: int = 25
    shards: int = 4
    scale: float = 1.0
    seed: Optional[int] = None
    arrival_rate_per_s: Optional[float] = None
    #: Scenario-seed step between lanes: each object drives its own seeded
    #: variant of the scenario, so the fleet spreads over the map instead of
    #: platooning along one shared trace.  ``0`` shares a single trace.
    seed_stride: int = 1
    #: Routing cell size of the grid-hash policy; ``None`` auto-sizes from
    #: the fleet's spatial extent (targeting ~8 cells per shard).
    region_size: Optional[float] = None
    queries_per_tick: float = 2.0
    mix: Optional[Dict[str, float]] = None
    k: int = 3
    range_extent_m: float = 1000.0
    geofence_radius_m: float = 500.0
    workload_seed: int = 0

    def build_workload(self) -> QueryWorkload:
        """The :class:`QueryWorkload` this spec describes.

        The Poisson arrival rate is the spec's explicit
        ``arrival_rate_per_s`` or, failing that, the library entry's
        ``query_rate_per_s`` default (``None`` keeps per-tick queries).
        """
        arrival = self.arrival_rate_per_s
        if arrival is None:
            arrival = default_query_rate(self.scenario)
        return QueryWorkload(
            queries_per_tick=self.queries_per_tick,
            mix=self.mix if self.mix is not None else default_query_mix(self.scenario),
            k=self.k,
            range_extent_m=self.range_extent_m,
            geofence_radius_m=self.geofence_radius_m,
            seed=self.workload_seed,
            arrival_rate_per_s=arrival,
        )


# --------------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------------- #
class SweepRunner:
    """Executes sweep points and emits artifacts.

    Parameters
    ----------
    jobs:
        Number of worker processes; ``1`` runs everything in-process.
    artifact_dir:
        When set, :meth:`write_artifacts` resolves relative names here.
    """

    def __init__(
        self,
        jobs: int = 1,
        artifact_dir: Optional[str] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = int(jobs)
        self.artifact_dir = artifact_dir
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------ #
    # worker pool lifecycle
    # ------------------------------------------------------------------ #
    def _get_pool(self) -> ProcessPoolExecutor:
        """The lazily created, persistent worker pool.

        Keeping the pool alive across sweeps amortises worker start-up over
        every sweep a runner executes (a figure is several sweeps; a report
        is several figures).  Under the ``fork`` start method, scenarios
        built before the first parallel call are inherited by the workers;
        otherwise (or for later specs) each worker rebuilds them once from
        their (cached) :class:`ScenarioSpec`.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (no-op for serial runners)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        if getattr(self, "_pool", None) is not None:
            self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run_tasks(self, tasks: Sequence[SweepTask]) -> List[SweepPoint]:
        """Execute *tasks*, returning points in task order.

        The order (and every result bit) is identical for any job count:
        tasks are independent, deterministic, and collected in submission
        order.
        """
        tasks = list(tasks)
        _logger.info("running %d sweep task(s) with jobs=%d", len(tasks), self.jobs)
        if self.jobs == 1 or len(tasks) <= 1:
            return [task.run() for task in tasks]
        # Warm the local cache so fork-started workers inherit built
        # scenarios instead of regenerating them (a no-op cost otherwise:
        # the spec-keyed cache already holds any scenario this sweep used).
        for spec in dict.fromkeys(task.scenario for task in tasks):
            spec.build()
        return list(self._get_pool().map(_run_task, tasks))

    def run_config_sweep(
        self,
        scenario: Union[ScenarioSpec, Scenario],
        protocol_id: str,
        accuracies: Optional[Sequence[float]] = None,
        **config_kwargs,
    ) -> List[SweepPoint]:
        """Sweep one protocol id over the requested accuracies.

        Accepts either a :class:`ScenarioSpec` (parallelisable across
        processes) or an already-built :class:`Scenario` (runs in-process).
        """
        if isinstance(scenario, ScenarioSpec):
            us_values = accuracies if accuracies is not None else scenario.build().us_values
            tasks = [
                SweepTask(
                    scenario=scenario,
                    config=SimulationConfig(
                        protocol_id=protocol_id, accuracy=float(us), **config_kwargs
                    ),
                )
                for us in us_values
            ]
            return self.run_tasks(tasks)
        return self.run_factory_sweep(
            scenario,
            lambda us: SimulationConfig(
                protocol_id=protocol_id, accuracy=us, **config_kwargs
            ).build_protocol(scenario),
            accuracies,
        )

    def run_factory_sweep(
        self,
        scenario: Scenario,
        protocol_factory: Callable[[float], UpdateProtocol],
        accuracies: Optional[Sequence[float]] = None,
    ) -> List[SweepPoint]:
        """Sweep an arbitrary (not necessarily picklable) protocol factory.

        *protocol_factory* maps a requested accuracy to a fresh protocol
        instance (protocols are stateful); ``prototype.clone_for`` is the
        cheap way to produce one that shares a prototype's expensive
        structure (map-matcher index, routes).  Runs in-process regardless
        of ``jobs``, since closures over built scenarios cannot cross
        process boundaries.
        """
        points: List[SweepPoint] = []
        for us in accuracies if accuracies is not None else scenario.us_values:
            result = run_simulation(
                protocol_factory(float(us)), scenario.sensor_trace, scenario.true_trace
            )
            points.append(SweepPoint(accuracy=float(us), result=result))
        return points

    def run_query_bench(self, spec: "QueryBenchSpec") -> Dict[str, object]:
        """Replay one query workload beside a fleet's update stream.

        Builds ``count`` objects over the spec's scenario — each on its own
        seeded route variant, so the fleet spreads spatially — materialises
        their update batches and the workload's calls (at every sample
        instant, or at its Poisson arrival instants) as one
        :class:`~repro.service.loadgen.ReplayPlan`, replays it in lockstep
        against a sharded :class:`~repro.service.facade.LocationService`,
        and returns one flat record: fleet summary, workload report
        (throughput / latency), and the service tier's per-shard load
        counters.  Runs in-process — the unit of work is a single fleet,
        not a sweep of independent points.
        """
        # Runtime import: the load generator sits above the fleet it replays.
        from repro.service.live.server import service_for_registrations
        from repro.service.loadgen import build_replay_plan, replay_in_process

        workload = spec.build_workload()
        base_seed = ScenarioSpec(name=spec.scenario, scale=spec.scale, seed=spec.seed).seed
        lanes = []
        for n in range(spec.count):
            lane_spec = ScenarioSpec(
                name=spec.scenario,
                scale=spec.scale,
                seed=base_seed + n * spec.seed_stride,
            )
            scenario = lane_spec.build()
            protocol = SimulationConfig(
                protocol_id=spec.protocol_id, accuracy=spec.accuracy
            ).build_protocol(scenario)
            lanes.append(
                FleetLane(
                    object_id=f"{spec.scenario}/{spec.protocol_id}/{n}",
                    protocol=protocol,
                    sensor_trace=scenario.sensor_trace,
                    truth_trace=scenario.true_trace,
                )
            )
        region = spec.region_size
        if region is None:
            region = auto_region_size(fleet_extent(lanes), spec.shards)
        object_hours = sum(lane.sensor_trace.duration / 3600.0 for lane in lanes)
        plan = build_replay_plan(lanes, workload)
        service = service_for_registrations(
            plan.registrations, n_shards=spec.shards, region_size=region
        )
        report, _answers = replay_in_process(plan, service)
        updates_per_object_hour = plan.total_updates / object_hours if object_hours > 0 else 0.0
        service_stats = service.service_stats()
        per_shard = service_stats.pop("per_shard", [])
        record: Dict[str, object] = {
            "scenario": spec.scenario,
            "protocol": spec.protocol_id,
            "accuracy_m": spec.accuracy,
            "objects": len(lanes),
            "shards": spec.shards,
            "scale": spec.scale,
            "seed": base_seed,
            "region_size_m": round(region, 1),
            "queries_per_tick": workload.queries_per_tick,
            "arrival_rate_per_s": workload.arrival_rate_per_s,
            "mix": dict(workload.mix),
            "updates_per_object_hour": round(updates_per_object_hour, 2),
            "workload": report.as_dict(),
            "service": service_stats,
            "per_shard": per_shard,
        }
        return record

    def write_query_bench_artifact(
        self,
        record: Dict[str, object],
        name: str,
        out_dir: Optional[str] = None,
    ) -> str:
        """Write a query-bench record as a JSON artifact; returns the path."""
        out_dir = out_dir or self.artifact_dir or "."
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{name}.json")
        provenance = _artifact_provenance({"artifact": name, "kind": "query_bench"})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"name": name, "provenance": provenance, **record},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        _logger.info("wrote query-bench artifact %s", path)
        return path

    # ------------------------------------------------------------------ #
    # artifacts
    # ------------------------------------------------------------------ #
    def write_artifacts(
        self,
        points: Sequence[SweepPoint],
        name: str,
        out_dir: Optional[str] = None,
        formats: Sequence[str] = ("json", "csv"),
        metadata: Optional[Dict[str, object]] = None,
    ) -> Dict[str, str]:
        """Write the sweep's rows as machine-readable artifacts.

        Returns a mapping ``format -> written path``.  The JSON artifact
        carries the row dictionaries plus free-form *metadata* and a
        top-level ``provenance`` manifest (git revision, config hash,
        interpreter/library versions — :mod:`repro.obs.manifest`); the CSV
        holds the same rows for spreadsheet / pandas consumption.
        """
        out_dir = out_dir or self.artifact_dir or "."
        os.makedirs(out_dir, exist_ok=True)
        rows = [point.result.as_dict() for point in points]
        written: Dict[str, str] = {}
        for fmt in formats:
            if fmt == "json":
                path = os.path.join(out_dir, f"{name}.json")
                payload = {
                    "name": name,
                    "metadata": metadata or {},
                    "points": rows,
                    "provenance": _artifact_provenance(
                        {"artifact": name, "metadata": metadata or {}}
                    ),
                }
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            elif fmt == "csv":
                path = os.path.join(out_dir, f"{name}.csv")
                fieldnames: List[str] = []
                for row in rows:
                    for key in row:
                        if key not in fieldnames:
                            fieldnames.append(key)
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    writer = csv.DictWriter(fh, fieldnames=fieldnames)
                    writer.writeheader()
                    writer.writerows(rows)
            else:
                raise ValueError(f"unknown artifact format {fmt!r}")
            _logger.info("wrote %s artifact %s", fmt, path)
            written[fmt] = path
        return written

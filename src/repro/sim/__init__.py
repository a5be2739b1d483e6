"""Simulation engine: coupling traces, protocols, channel and server.

This is the equivalent of the paper's simulator (Sec. 4): "we have simulated
the movements of a mobile object and in our simulator provided the
functionality for transmitting the location information between a source and
a server.  Different variants of update protocols can be plugged into the
simulator and be compared according to the number of updates transmitted and
the resulting accuracy on the server."

The package is layered so that every experiment entry point shares one
execution core, with one entry point per job:

``fleet`` (+ ``columnar``) → ``runner``

* :mod:`repro.sim.fleet` is the core: :class:`FleetSimulation` runs any
  number of (object, protocol, trace) lanes against a single
  :class:`~repro.service.server.LocationServer`.  Each lane's update
  stream comes from one send schedule,
  :func:`~repro.sim.fleet.lane_updates` (protocol timers at their exact
  deadlines; a first-crossing array search for distance-based reporting
  and linear DR), pushed through the lane's channel (exact delivery
  instants); one walk over the merged sample and delivery instants then
  ingests and measures — per-lane sampling rates, vectorised speed/heading
  estimation, batched server queries, and closed-form measurement of the
  static and linear lanes of a plain server.  :func:`run_simulation` (one
  object, one protocol, one trace) is a one-lane fleet, so single runs and
  fleet runs are the same machinery by construction.
* :mod:`repro.sim.columnar` is the struct-of-arrays fast path
  (:class:`~repro.sim.columnar.ColumnarFleetEngine`) for the fleets it
  declares eligible, bit-identical to the fleet loop on them.
* :mod:`repro.sim.runner` executes whole sweeps (scenario × protocol ×
  accuracy grids) through :class:`SweepRunner`: per-process scenario
  caching, serial or process-pool execution (``jobs=N``) with bit-identical
  results regardless of the job count, and JSON/CSV artifact output; its
  query bench replays a materialised
  :class:`~repro.service.loadgen.ReplayPlan` against a sharded service.

Application queries are not part of the simulation: :mod:`repro.sim.workload`
describes them (:class:`QueryWorkload`, :func:`~repro.sim.workload.query_stream`),
and a replay plan drives them.

:mod:`repro.sim.metrics` collects error samples as NumPy arrays
(:class:`AccuracyMetrics`), :mod:`repro.sim.config` declares runs as
serialisable :class:`SimulationConfig` values.
"""

from repro.sim.metrics import AccuracyMetrics, SimulationResult
from repro.sim.fleet import FleetLane, FleetResult, FleetSimulation, run_simulation
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    QueryBenchSpec,
    ScenarioSpec,
    SweepPoint,
    SweepRunner,
    SweepTask,
    read_artifact,
)
from repro.sim.workload import QueryWorkload, WorkloadReport, default_query_mix

__all__ = [
    "QueryBenchSpec",
    "QueryWorkload",
    "WorkloadReport",
    "default_query_mix",
    "AccuracyMetrics",
    "SimulationResult",
    "run_simulation",
    "FleetLane",
    "FleetResult",
    "FleetSimulation",
    "SweepPoint",
    "SimulationConfig",
    "ScenarioSpec",
    "SweepRunner",
    "SweepTask",
    "read_artifact",
]

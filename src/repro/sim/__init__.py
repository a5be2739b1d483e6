"""Simulation engine: coupling traces, protocols, channel and server.

This is the equivalent of the paper's simulator (Sec. 4): "we have simulated
the movements of a mobile object and in our simulator provided the
functionality for transmitting the location information between a source and
a server.  Different variants of update protocols can be plugged into the
simulator and be compared according to the number of updates transmitted and
the resulting accuracy on the server."

The package is layered so that every experiment entry point shares one
execution core:

``engine`` → ``fleet`` → ``runner``

* :mod:`repro.sim.kernel` is the deterministic discrete-event scheduler —
  a binary-heap agenda ordered by ``(time, priority, seq)`` with event
  kinds for sensor samples, protocol timers, channel deliveries, shard
  handoffs and workload query arrivals.
* :mod:`repro.sim.fleet` is the core: :class:`FleetSimulation` runs any
  number of (object, protocol, trace) lanes through that one event
  schedule — exact delivery and timer instants, per-lane sampling rates —
  against a single
  :class:`~repro.service.server.LocationServer`, with vectorised
  speed/heading estimation and batched server queries.
* :mod:`repro.sim.engine` keeps the classic single-object API:
  :class:`ProtocolSimulation` is a one-lane façade over the fleet core, so
  single runs and fleet runs are the same machinery by construction.
* :mod:`repro.sim.runner` executes whole sweeps (scenario × protocol ×
  accuracy grids) on top of the engine: per-process scenario caching,
  pluggable serial / process-pool executors (``jobs=N``) with bit-identical
  results regardless of the job count, and JSON/CSV artifact output.
  :mod:`repro.sim.sweep` re-exports the thin historical wrappers.

:mod:`repro.sim.metrics` collects error samples as NumPy arrays
(:class:`AccuracyMetrics`), :mod:`repro.sim.config` declares runs as
serialisable :class:`SimulationConfig` values.
"""

from repro.sim.kernel import EventKernel
from repro.sim.metrics import AccuracyMetrics, SimulationResult
from repro.sim.engine import ProtocolSimulation, run_simulation
from repro.sim.fleet import FleetLane, FleetResult, FleetSimulation, run_fleet
from repro.sim.sweep import SweepPoint, run_accuracy_sweep, run_config_sweep
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    QueryBenchSpec,
    ScenarioSpec,
    SweepRunner,
    SweepTask,
    read_artifact,
)
from repro.sim.workload import (
    QueryWorkload,
    WorkloadExecutor,
    WorkloadReport,
    default_query_mix,
)

__all__ = [
    "EventKernel",
    "QueryBenchSpec",
    "QueryWorkload",
    "WorkloadExecutor",
    "WorkloadReport",
    "default_query_mix",
    "AccuracyMetrics",
    "SimulationResult",
    "ProtocolSimulation",
    "run_simulation",
    "FleetLane",
    "FleetResult",
    "FleetSimulation",
    "run_fleet",
    "SweepPoint",
    "run_accuracy_sweep",
    "run_config_sweep",
    "SimulationConfig",
    "ScenarioSpec",
    "SweepRunner",
    "SweepTask",
    "read_artifact",
]

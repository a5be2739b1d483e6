"""The sharded location-service tier.

:class:`LocationService` is the serving-layer facade: it partitions tracked
objects across N :class:`~repro.service.server.LocationServer` shards by
spatial region (pluggable :class:`~repro.service.sharding.ShardingPolicy`,
grid-hash by default), ingests update batches per simulation tick, hands
objects off between shards when their predicted position crosses a shard
boundary, and answers application queries through one columnar
:class:`~repro.service.query_engine.QueryEngine` per shard — vectorised
NumPy kernels over contiguous per-shard columns instead of per-object
Python loops.  That engine is the only one; the incremental grid-index
engine it is asserted bit-identical to is a test oracle.

The facade implements the :class:`LocationServer` surface the fleet loop
drives (``register_object`` / ``receive_update`` / ``predict_position`` /
``predict_positions`` / …), which makes it a drop-in server backend for
:class:`~repro.sim.fleet.FleetSimulation`; with ``n_shards=1`` every result
is bit-identical to the plain single server (asserted by the test-suite
over the whole scenario library).  Its ``range_query`` /
``nearest_objects`` / ``geofence_query`` methods are the one query surface
in the package; the linear scans they are asserted bit-identical to live in
``tests/reference/linear_queries.py`` as a test oracle.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.vec import Vec2, as_vec
from repro.obs import NO_OBS, Observability
from repro.protocols.base import ObjectState, UpdateMessage
from repro.protocols.prediction import PredictionFunction
from repro.service.query_engine import QueryEngine
from repro.service.server import LocationServer, TrackedObject
from repro.service.sharding import GridHashPolicy, ShardingPolicy


@dataclass(slots=True)
class ShardLoad:
    """Per-shard load counters maintained by the facade."""

    shard_id: int
    updates: int = 0
    handoffs_in: int = 0
    handoffs_out: int = 0
    engine_queries: int = 0

    def as_dict(self, shard: LocationServer, engine: QueryEngine) -> Dict[str, object]:
        """One flat row for reports and artifacts."""
        return {
            "shard": self.shard_id,
            "objects": len(shard),
            "updates": self.updates,
            "handoffs_in": self.handoffs_in,
            "handoffs_out": self.handoffs_out,
            "engine_queries": self.engine_queries,
            "engine_syncs": engine.syncs,
            "engine_moves": engine.moves,
        }


@dataclass(slots=True)
class QueryCounters:
    """Service-level query statistics (counts and wall-clock latency)."""

    range_queries: int = 0
    nearest_queries: int = 0
    geofence_queries: int = 0
    query_seconds: float = 0.0
    batches_ingested: int = 0
    syncs: int = 0

    @property
    def total_queries(self) -> int:
        return self.range_queries + self.nearest_queries + self.geofence_queries

    def mean_query_seconds(self) -> float:
        total = self.total_queries
        return self.query_seconds / total if total else 0.0


class LocationService:
    """Facade over N spatially sharded location servers plus query engines.

    Parameters
    ----------
    n_shards:
        Number of :class:`LocationServer` shards.
    policy:
        Sharding policy; defaults to :class:`GridHashPolicy` over
        ``region_size``-metre routing cells.
    region_size:
        Routing cell size of the default policy (ignored when *policy* is
        given).
    engine_cell_size:
        Cell size of each shard's columnar query engine.
    """

    def __init__(
        self,
        n_shards: int = 1,
        policy: Optional[ShardingPolicy] = None,
        region_size: float = 2000.0,
        engine_cell_size: float = 500.0,
    ):
        if policy is None:
            policy = GridHashPolicy(n_shards, region_size=region_size)
        elif policy.n_shards != n_shards:
            raise ValueError(
                f"policy is for {policy.n_shards} shards, service has {n_shards}"
            )
        self.policy = policy
        self.shards: List[LocationServer] = [LocationServer() for _ in range(n_shards)]
        self.engines: List[QueryEngine] = [
            QueryEngine(cell_size=engine_cell_size) for _ in range(n_shards)
        ]
        self.loads: List[ShardLoad] = [ShardLoad(shard_id=s) for s in range(n_shards)]
        self.counters = QueryCounters()
        #: The :class:`~repro.obs.Observability` bundle the facade records
        #: per-query-class latencies, ingest batch sizes and rebalance
        #: timings into; the per-shard load counters themselves reach the
        #: registry through ``publish_service_stats`` at the end of a run.
        #: The default, the disabled :data:`~repro.obs.NO_OBS`, records
        #: nothing; a ``FleetSimulation`` or ``LiveLocationServer`` hands
        #: its own bundle to a facade that has none enabled.
        self.obs: Observability = NO_OBS
        self._records: Dict[str, TrackedObject] = {}
        self._home: Dict[str, int] = {}
        self._prepared_time: Optional[float] = None
        self._dirty = True
        # Largest finite accuracy over all registered objects: the exact,
        # conservative probe-box expansion for margin range queries.
        self._max_finite_accuracy: float = 0.0

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    def __getstate__(self) -> Dict[str, object]:
        # Observability never crosses process boundaries: a worker replica
        # records into its worker's own fresh bundle, and pickling the
        # parent's would duplicate whatever it already recorded.
        state = self.__dict__.copy()
        state["obs"] = NO_OBS
        return state

    # ------------------------------------------------------------------ #
    # LocationServer-compatible surface
    # ------------------------------------------------------------------ #
    def register_object(
        self,
        object_id: str,
        prediction: Optional[PredictionFunction] = None,
        accuracy: float = float("inf"),
    ) -> TrackedObject:
        """Register a mobile object (same contract as the single server).

        Objects that have not reported yet have no position, so they start
        on a stable id-hashed shard and are handed to their spatial home
        with the first update.
        """
        if object_id in self._records:
            raise ValueError(f"object {object_id!r} already registered")
        home = self.policy.shard_for_id(object_id)
        record = self.shards[home].register_object(
            object_id, prediction=prediction, accuracy=accuracy
        )
        self._records[object_id] = record
        self._home[object_id] = home
        if record.accuracy != float("inf"):
            self._max_finite_accuracy = max(self._max_finite_accuracy, record.accuracy)
        self._dirty = True
        return record

    def is_registered(self, object_id: str) -> bool:
        """Whether *object_id* is known to the service."""
        return object_id in self._records

    def object_ids(self) -> List[str]:
        """All registered object ids, in registration order."""
        return list(self._records)

    def home_shard(self, object_id: str) -> int:
        """The shard currently responsible for *object_id*."""
        return self._home[object_id]

    def predict_position(self, object_id: str, time: float) -> Optional[np.ndarray]:
        """The position the service assumes for *object_id* at *time*."""
        return self._records[object_id].predict(time)

    def predict_positions(
        self, object_ids: Sequence[str], time: float
    ) -> List[Optional[np.ndarray]]:
        """Batch position predictions (the fleet loop's per-tick entry point)."""
        records = self._records
        return [records[object_id].predict(time) for object_id in object_ids]

    # ------------------------------------------------------------------ #
    # ingestion and handoff
    # ------------------------------------------------------------------ #
    def receive_update(self, object_id: str, message: UpdateMessage, time: float) -> None:
        """Apply one update message (per-message ingestion path).

        All-or-nothing like :meth:`ingest_batch`: the new home is computed
        before the first write.
        """
        target = self._target(object_id, message.state, time)
        home = self._home[object_id]
        self.shards[home].receive_update(object_id, message, time)
        self.loads[home].updates += 1
        self._dirty = True
        self._move(object_id, target)

    def ingest_batch(
        self, messages: Sequence[Tuple[str, UpdateMessage]], time: float
    ) -> None:
        """Apply one tick's worth of delivered updates, then re-home.

        All updates are applied first and handoffs run once per touched
        object afterwards; because a handoff moves the record wholesale
        (state, counters, timestamps untouched), the resulting service
        *state* — records, predictions, homes — is identical to the
        per-message path.  Load counters may attribute differently in the
        rare case of several messages for one object in a single batch:
        the per-message path re-homes between them, the batch path counts
        them all on the pre-batch shard.

        A batch is all-or-nothing: every step that can raise (an unknown
        id, a prediction that leaves the finite plane) runs before the
        first write, so a failing batch leaves the service as it was.
        """
        if not messages:
            return
        latest = {object_id: message.state for object_id, message in messages}
        targets = [(oid, self._target(oid, state, time)) for oid, state in latest.items()]
        for object_id, message in messages:
            home = self._home[object_id]
            self.shards[home].receive_update(object_id, message, time)
            self.loads[home].updates += 1
        self._dirty = True
        self.counters.batches_ingested += 1
        self.obs.histogram(
            "service.ingest.batch_size",
            bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256, 1024),
        ).observe(len(messages))
        for object_id, target in targets:
            self._move(object_id, target)

    def _target(self, object_id: str, state: ObjectState, time: float) -> int:
        """The shard owning the position *state* predicts for *object_id* at *time*."""
        return self.policy.shard_for_point(
            self._records[object_id].prediction.predict(state, time)
        )

    def _move(self, object_id: str, target: int) -> None:
        """Hand *object_id* off to shard *target* (no-op when already home)."""
        home = self._home[object_id]
        if target == home:
            return
        self.shards[target].adopt(self.shards[home].remove_object(object_id))
        self._home[object_id] = target
        self.loads[home].handoffs_out += 1
        self.loads[target].handoffs_in += 1
        self._dirty = True

    def rebalance(self, time: float) -> int:
        """Hand off every object whose prediction drifted across a boundary.

        Pure placement maintenance for the event kernel's periodic
        ``HANDOFF`` events: between updates an object's *predicted*
        position keeps moving, so a long-silent object can drift out of its
        home shard's region; this sweeps every record to its spatial home
        at *time*.  Unlike :meth:`prepare` it does not touch the query
        engines.  Returns the number of handoffs performed.  Handoffs move
        records wholesale, so query answers and simulation results are
        unaffected — only the per-shard placement counters change.
        """
        if self.n_shards <= 1:
            return 0
        started = _time.perf_counter()
        before = sum(load.handoffs_in for load in self.loads)
        for object_id, record in self._records.items():
            if record.state is not None:
                self._move(object_id, self._target(object_id, record.state, time))
        moved = sum(load.handoffs_in for load in self.loads) - before
        self.obs.latency("service.rebalance.seconds").record(_time.perf_counter() - started)
        return moved

    # ------------------------------------------------------------------ #
    # query engine maintenance
    # ------------------------------------------------------------------ #
    def prepare(self, time: float) -> None:
        """Bring every shard's query index up to date for queries at *time*.

        One pass computes the predicted positions per shard, hands off
        objects whose prediction drifted across a shard boundary since their
        last update, and incrementally syncs each shard's engine.  Repeated
        queries at the same *time* hit the prepared indexes directly — this
        is what makes a query wave O(results) instead of O(fleet) each.
        """
        if not self._dirty and self._prepared_time == time:
            return
        per_shard: List[Dict[str, np.ndarray]] = [
            shard.all_positions(time) for shard in self.shards
        ]
        if self.n_shards > 1:
            for source, positions in enumerate(per_shard):
                movers = [
                    (oid, target)
                    for oid, p in positions.items()
                    if (target := self.policy.shard_for_point(p)) != source
                ]
                for object_id, target in movers:
                    self._move(object_id, target)
                    per_shard[target][object_id] = positions.pop(object_id)
        for engine, positions in zip(self.engines, per_shard):
            engine.sync(positions, time)
        self.counters.syncs += 1
        self._prepared_time = float(time)
        self._dirty = False

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def range_query(
        self, area: BoundingBox, time: float, margin: float = 0.0
    ) -> List[str]:
        """All objects predicted inside *area* at *time* (sorted ids).

        *margin* grows the area by that many accuracy radii per object
        (``margin > 0``), so the query never misses an object that could
        actually be inside.
        """
        started = _time.perf_counter()
        self.prepare(time)
        expand = margin > 0.0 and self._max_finite_accuracy > 0.0
        probe = area.expanded(margin * self._max_finite_accuracy) if expand else area
        hits: List[str] = []
        for shard_id in self.policy.shards_for_box(probe):
            engine = self.engines[shard_id]
            self.loads[shard_id].engine_queries += 1
            if not expand:
                # Exact hits, unsorted: one vectorised mask per shard and
                # one final sort over the union (a per-shard sort order
                # would be discarded by the merge anyway).
                hits.extend(engine.ids_in_box(area))
                continue
            for object_id in engine.candidates_in_box(probe):
                record = self._records[object_id]
                effective = area
                if record.accuracy != float("inf"):
                    effective = area.expanded(margin * record.accuracy)
                if effective.contains_point(engine.position_of(object_id)):
                    hits.append(object_id)
        self.counters.range_queries += 1
        elapsed = _time.perf_counter() - started
        self.counters.query_seconds += elapsed
        self.obs.latency("service.query.range").record(elapsed)
        return sorted(hits)

    def nearest_objects(
        self, point: Vec2, time: float, k: int = 1
    ) -> List[Tuple[str, float]]:
        """The *k* objects closest to *point* at *time*.

        Returns ``(object_id, distance)`` pairs sorted by
        ``(distance, object_id)``, so exact ties resolve by id independently
        of registration order and shard count.

        Each shard answers its own exact top-k with one vectorised
        ``argpartition`` kernel, and the facade merges the per-shard
        answers by ``(distance, object_id)``: the global top-k is always
        contained in the union of per-shard top-k lists.
        """
        started = _time.perf_counter()
        self.prepare(time)
        answer = self._k_nearest_merged(as_vec(point), k)
        self.counters.nearest_queries += 1
        elapsed = _time.perf_counter() - started
        self.counters.query_seconds += elapsed
        self.obs.latency("service.query.nearest").record(elapsed)
        return answer

    def _k_nearest_merged(self, p: np.ndarray, k: int) -> List[Tuple[str, float]]:
        if k <= 0:
            return []
        pairs: List[Tuple[str, float]] = []
        for shard_id, engine in enumerate(self.engines):
            if not len(engine):
                continue
            self.loads[shard_id].engine_queries += 1
            pairs.extend(engine.k_nearest(p, k))
        pairs.sort(key=lambda pair: (pair[1], pair[0]))
        return pairs[:k]

    def geofence_query(
        self, point: Vec2, radius: float, time: float
    ) -> List[Tuple[str, float]]:
        """Objects within *radius* metres of *point* at *time*.

        Returns ``(object_id, distance)`` pairs sorted by
        ``(distance, object_id)``.
        """
        started = _time.perf_counter()
        self.prepare(time)
        p = as_vec(point)
        merged: List[Tuple[str, float]] = []
        if radius >= 0:
            box = BoundingBox.around(p, radius)
            for shard_id in self.policy.shards_for_box(box):
                self.loads[shard_id].engine_queries += 1
                merged.extend(self.engines[shard_id].within_radius(p, radius))
        merged.sort(key=lambda pair: (pair[1], pair[0]))
        self.counters.geofence_queries += 1
        elapsed = _time.perf_counter() - started
        self.counters.query_seconds += elapsed
        self.obs.latency("service.query.geofence").record(elapsed)
        return merged

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def shard_rows(self) -> List[Dict[str, object]]:
        """One flat counter row per shard (reports / artifacts)."""
        return [
            load.as_dict(shard, engine)
            for load, shard, engine in zip(self.loads, self.shards, self.engines)
        ]

    def service_stats(self) -> Dict[str, object]:
        """Aggregate service statistics plus the per-shard rows."""
        rows = self.shard_rows()
        objects = [int(row["objects"]) for row in rows]
        mean_objects = sum(objects) / len(objects) if objects else 0.0
        return {
            "shards": self.n_shards,
            "objects": len(self._records),
            "updates_ingested": sum(load.updates for load in self.loads),
            "batches_ingested": self.counters.batches_ingested,
            "handoffs": sum(load.handoffs_in for load in self.loads),
            "prepare_passes": self.counters.syncs,
            "range_queries": self.counters.range_queries,
            "nearest_queries": self.counters.nearest_queries,
            "geofence_queries": self.counters.geofence_queries,
            "queries": self.counters.total_queries,
            "query_seconds": self.counters.query_seconds,
            "mean_query_seconds": self.counters.mean_query_seconds(),
            "load_imbalance": (max(objects) / mean_objects) if mean_objects else 0.0,
            "per_shard": rows,
        }

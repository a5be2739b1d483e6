"""The sharded location-service tier, served from one columnar row table.

:class:`LocationService` is the serving-layer facade.  It keeps the server
state of the paper's Fig. 1 — each object's last update plus the prediction
function it shares with its source — for a whole fleet, partitions the
objects across N shards by spatial region (pluggable
:class:`~repro.service.sharding.ShardingPolicy`, grid-hash by default),
ingests update batches, hands objects off between shards when their
predicted position crosses a shard boundary, and answers application
queries through one columnar
:class:`~repro.service.query_engine.QueryEngine` per shard.

The state is one fleet-wide row table: the :class:`TrackedObject` record of
every object (the same record a plain
:class:`~repro.service.server.LocationServer` keeps) plus NumPy columns with
what a query needs from it::

    row         0         1        ...
    _pos        [x, y]    [x, y]       reported position         float64 (cap, 2)
    _vel        [vx, vy]  [vx, vy]     reported velocity         float64 (cap, 2)
    _t          t0        t1           report time               float64
    _reported   True      False        has reported at least once
    _kind       LINEAR    CALLED       closed-form prediction or not
    _home       2         0            home shard                int64

An update writes its record and its column row in the same step, so there
is no second copy that can drift, and a handoff is one write to ``_home``.
:meth:`LocationService.prepare` then brings the engines up to a query time
in one vectorised pass: ``pos + vel * (t - t_rep)`` for every
:class:`~repro.protocols.prediction.LinearPrediction` row (the same
operations as ``LinearPrediction.predict``, hence bit-identical), ``pos``
for every :class:`~repro.protocols.prediction.StaticPrediction` row, one
``record.predict(t)`` call per remaining row (map-based, route, quadratic),
one vectorised routing pass
(:meth:`~repro.service.sharding.ShardingPolicy.shards_for_points`), a
handoff only for rows whose target differs from their home, and per shard
the slices of that pass and of the fleet-wide ``'<U'`` id column for its
engine.  The row table is the only per-object state of the tier: an engine
keeps nothing but those two arrays, a shard's member rows are recomputed
only when its membership changed, and the id column only when
registrations grew the table.  Rows whose prediction is not finite keep
their home: placement never changes answers.

The facade implements the :class:`LocationServer` surface
(``register_object`` / ``receive_update`` / ``predict_position`` /
``predict_positions`` / …) plus ``ingest_batch``, which makes it a drop-in
server backend for :class:`~repro.sim.fleet.FleetSimulation`: the fleet
registers every object and ingests each delivery instant's updates as one
batch, and measures errors from each lane's own delivered stream; with
``n_shards=1`` every result is bit-identical to the plain single server
(asserted by the test-suite over the whole scenario library).  Its ``range_query`` /
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
from repro.protocols.base import UpdateMessage
from repro.protocols.prediction import LinearPrediction, PredictionFunction, StaticPrediction
from repro.service.query_engine import QueryEngine
from repro.service.server import TrackedObject
from repro.service.sharding import GridHashPolicy, ShardingPolicy

#: Prediction kinds of the ``_kind`` column: closed-form linear, closed-form
#: static, and called per row (every other prediction function).  Columns
#: start zeroed, so a linear row needs no write at registration.
_LINEAR, _STATIC, _CALLED = 0, 1, 2
#: Exact prediction types with a closed form (subclasses may override it).
_CLOSED_FORM = {LinearPrediction: _LINEAR, StaticPrediction: _STATIC}

#: The row-table columns, grown together by doubling.
_COLUMNS = ("_pos", "_vel", "_t", "_reported", "_kind", "_home")


def _extrapolate(
    kind: np.ndarray, pos: np.ndarray, vel: np.ndarray, reported_at: np.ndarray, time: float
) -> np.ndarray:
    """Closed-form predictions at *time* for rows of the given kinds.

    ``pos + vel * (time - reported_at)`` is ``LinearPrediction.predict``
    operation for operation; static rows are ``pos``.  Rows of the called
    kind hold placeholders the caller overwrites.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        predicted = pos + vel * (time - reported_at)[:, None]
    static = kind == _STATIC
    if static.any():
        predicted[static] = pos[static]
    return predicted


@dataclass(slots=True)
class ShardLoad:
    """Per-shard load counters maintained by the facade."""

    shard_id: int
    updates: int = 0
    handoffs_in: int = 0
    handoffs_out: int = 0
    engine_queries: int = 0

    def as_dict(self, objects: int) -> Dict[str, object]:
        """One flat row for reports and artifacts."""
        return {
            "shard": self.shard_id,
            "objects": objects,
            "updates": self.updates,
            "handoffs_in": self.handoffs_in,
            "handoffs_out": self.handoffs_out,
            "engine_queries": self.engine_queries,
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
    """Facade over one columnar row table, N spatial shards and their query engines.

    Parameters
    ----------
    n_shards:
        Number of shards (one query engine each).
    policy:
        Sharding policy; defaults to :class:`GridHashPolicy` over
        ``region_size``-metre routing cells.
    region_size:
        Routing cell size of the default policy (ignored when *policy* is
        given).
    """

    def __init__(
        self,
        n_shards: int = 1,
        policy: Optional[ShardingPolicy] = None,
        region_size: float = 2000.0,
    ):
        if policy is None:
            policy = GridHashPolicy(n_shards, region_size=region_size)
        elif policy.n_shards != n_shards:
            raise ValueError(
                f"policy is for {policy.n_shards} shards, service has {n_shards}"
            )
        self.policy = policy
        self.engines: List[QueryEngine] = [QueryEngine() for _ in range(n_shards)]
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
        self._rows: Dict[str, int] = {}
        #: Every registered id in row order (``_records`` keeps registration
        #: order) as a ``'<U'`` array, rebuilt once registrations grew the table.
        self._id_col = np.empty(0, dtype="<U1")
        #: ``(row, record)`` of every object whose prediction is not closed-form.
        self._called: List[Tuple[int, TrackedObject]] = []
        self._n = 0
        self._pos = np.zeros((0, 2))
        self._vel = np.zeros((0, 2))
        self._t = np.zeros(0)
        self._reported = np.zeros(0, dtype=bool)
        self._kind = np.zeros(0, dtype=np.int8)
        self._home = np.zeros(0, dtype=np.int64)
        #: Per shard, the ``(rows, ids)`` of its reported objects, or ``None``
        #: once its membership changed.
        self._members: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * n_shards
        #: Every row's prediction at ``_prepared_time`` (the last prepare pass).
        self._prepared_positions = np.zeros((0, 2))
        self._prepared_time: Optional[float] = None
        self._prepared_version = -1
        self._dirty = True
        # Largest finite accuracy over all registered objects: the exact,
        # conservative probe-box expansion for margin range queries.
        self._max_finite_accuracy: float = 0.0

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return self.policy.n_shards

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
        record = TrackedObject(
            object_id=object_id,
            prediction=prediction or StaticPrediction(),
            accuracy=float(accuracy),
        )
        row = self._n
        if row == len(self._t):
            self._grow()
        kind = _CLOSED_FORM.get(type(record.prediction), _CALLED)
        if kind != _LINEAR:
            self._kind[row] = kind
            if kind == _CALLED:
                self._called.append((row, record))
        self._home[row] = self.policy.shard_for_id(object_id)
        self._n = row + 1
        self._records[object_id] = record
        self._rows[object_id] = row
        if record.accuracy != float("inf"):
            self._max_finite_accuracy = max(self._max_finite_accuracy, record.accuracy)
        self._dirty = True
        return record

    def _grow(self) -> None:
        """Double the row capacity (registration stays amortised O(1))."""
        capacity = max(1024, 2 * self._n)
        for name in _COLUMNS:
            old = getattr(self, name)
            new = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def is_registered(self, object_id: str) -> bool:
        """Whether *object_id* is known to the service."""
        return object_id in self._records

    def object_ids(self) -> List[str]:
        """All registered object ids, in registration order."""
        return list(self._records)

    def tracked_object(self, object_id: str) -> TrackedObject:
        """The server-side record for *object_id*."""
        return self._records[object_id]

    def home_shard(self, object_id: str) -> int:
        """The shard currently responsible for *object_id*."""
        return int(self._home[self._rows[object_id]])

    def shard_sizes(self) -> List[int]:
        """Registered objects per shard (silent objects count on their id shard)."""
        return np.bincount(self._home[: self._n], minlength=self.n_shards).tolist()

    def predict_position(self, object_id: str, time: float) -> Optional[np.ndarray]:
        """The position the service assumes for *object_id* at *time*."""
        return self._records[object_id].predict(time)

    def predict_positions(
        self, object_ids: Sequence[str], time: float
    ) -> List[Optional[np.ndarray]]:
        """Batch position predictions (``None`` for objects yet to report)."""
        records = self._records
        return [records[object_id].predict(time) for object_id in object_ids]

    # ------------------------------------------------------------------ #
    # ingestion and handoff
    # ------------------------------------------------------------------ #
    def receive_update(self, object_id: str, message: UpdateMessage, time: float) -> None:
        """Apply one update message (per-message ingestion path).

        The same all-or-nothing step as a one-message :meth:`ingest_batch`,
        without the batch counters.
        """
        self._apply([(object_id, message)], time)

    def ingest_batch(
        self, messages: Sequence[Tuple[str, UpdateMessage]], time: float
    ) -> None:
        """Apply one tick's worth of delivered updates, then re-home.

        All updates are applied first and handoffs run once per touched
        object afterwards; because a handoff only changes the home shard
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
        self._apply(messages, time)
        self.counters.batches_ingested += 1
        self.obs.histogram(
            "service.ingest.batch_size",
            bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256, 1024),
        ).observe(len(messages))

    def _apply(self, messages: Sequence[Tuple[str, UpdateMessage]], time: float) -> None:
        """Write *messages* into records and columns, then re-home the touched rows."""
        latest = {object_id: message.state for object_id, message in messages}
        records = [self._records[object_id] for object_id in latest]
        rows = np.array([self._rows[object_id] for object_id in latest], dtype=np.intp)
        states = list(latest.values())
        pos = np.array([state.position for state in states])
        vel = np.array([state.velocity for state in states])
        reported_at = np.array([state.time for state in states], dtype=float)
        kind = self._kind[rows]
        predicted = _extrapolate(kind, pos, vel, reported_at, time)
        for i in np.flatnonzero(kind == _CALLED).tolist():
            predicted[i] = records[i].prediction.predict(states[i], time)
        # Raises for a prediction off the finite plane: nothing written yet.
        targets = self.policy.shards_for_points(predicted)

        homes = self._home[rows]
        home_of = dict(zip(latest, homes.tolist()))
        for object_id, message in messages:
            record = self._records[object_id]
            record.state = message.state
            record.updates_received += 1
            record.last_update_time = time
            self.loads[home_of[object_id]].updates += 1
        for shard in set(homes[~self._reported[rows]].tolist()):
            self._members[shard] = None
        self._pos[rows] = pos
        self._vel[rows] = vel
        self._t[rows] = reported_at
        self._reported[rows] = True
        self._dirty = True
        movers = np.flatnonzero(targets != homes)
        for row, target in zip(rows[movers].tolist(), targets[movers].tolist()):
            self._move(row, target)

    def _move(self, row: int, target: int) -> None:
        """Hand row *row* off to shard *target* (callers skip rows already home)."""
        home = int(self._home[row])
        self._home[row] = target
        self.loads[home].handoffs_out += 1
        self.loads[target].handoffs_in += 1
        self._members[home] = self._members[target] = None
        self._dirty = True

    def _predicted(self, time: float) -> np.ndarray:
        """Every row's predicted position at *time* (silent rows hold placeholders)."""
        n = self._n
        predicted = _extrapolate(self._kind[:n], self._pos[:n], self._vel[:n], self._t[:n], time)
        for row, record in self._called:
            position = record.predict(time)
            if position is not None:
                predicted[row] = position
        return predicted

    def _rehome(self, predicted: np.ndarray) -> int:
        """Hand off every reported row whose *predicted* position left its shard.

        Rows whose prediction is not finite keep their home (placement never
        changes answers).  Returns the number of handoffs.
        """
        n = self._n
        home = self._home[:n]
        finite = np.isfinite(predicted)
        routed = self._reported[:n] & finite[:, 0] & finite[:, 1]
        if not routed.all():
            # Parked rows route from the origin; their target is discarded.
            predicted = np.where(routed[:, None], predicted, 0.0)
        targets = np.where(routed, self.policy.shards_for_points(predicted), home)
        movers = np.flatnonzero(targets != home)
        for row, target in zip(movers.tolist(), targets[movers].tolist()):
            self._move(row, target)
        return len(movers)

    def _members_of(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        """Rows and ids of *shard*'s reported objects, rebuilt after a change."""
        members = self._members[shard]
        if members is None:
            n = self._n
            if len(self._id_col) != n:
                self._id_col = np.array(list(self._records), dtype=str)
            rows = np.flatnonzero(self._reported[:n] & (self._home[:n] == shard))
            members = self._members[shard] = (rows, self._id_col[rows])
        return members

    def shard_positions(self, shard: int, time: float) -> np.ndarray:
        """Predicted positions at *time* of the reported objects homed on *shard*.

        Reads the current placement as it is (no handoffs); an ``(n, 2)``
        array in row order.
        """
        rows, _ids = self._members_of(shard)
        return self._predicted(time)[rows]

    def rebalance(self, time: float) -> int:
        """Hand off every object whose prediction drifted across a boundary.

        Pure placement maintenance for
        :class:`~repro.service.sharding.RebalancePolicy` after it moved
        cells: between updates an object's *predicted* position keeps
        moving, so a long-silent object can drift out of its home shard's
        region; this sweeps every row to its spatial home at
        *time* with the same predict-and-route pass as :meth:`prepare`, but
        does not touch the query engines.  Returns the number of handoffs.
        Handoffs only change placement, so query answers and simulation
        results are unaffected — only the per-shard counters change.
        """
        if self.n_shards <= 1:
            return 0
        started = _time.perf_counter()
        moved = self._rehome(self._predicted(time))
        self.obs.latency("service.rebalance.seconds").record(_time.perf_counter() - started)
        return moved

    # ------------------------------------------------------------------ #
    # query engine maintenance
    # ------------------------------------------------------------------ #
    def prepare(self, time: float) -> None:
        """Bring every shard's query engine up to date for queries at *time*.

        One pass predicts every row, hands off the rows whose prediction
        crossed a shard boundary since their last update, and gives each
        engine its members' positions (see the module docstring).  Repeated
        queries at the same *time* hit the prepared engines directly — this
        is what makes a query wave O(results) instead of O(fleet) each.
        """
        if (
            not self._dirty
            and self._prepared_time == time
            and self._prepared_version == self.policy.version
        ):
            return
        predicted = self._predicted(time)
        if self.n_shards > 1:
            self._rehome(predicted)
        for shard, engine in enumerate(self.engines):
            rows, ids = self._members_of(shard)
            engine.sync(ids, predicted[rows], time)
        self._prepared_positions = predicted
        self.counters.syncs += 1
        self._prepared_time = float(time)
        self._prepared_version = self.policy.version
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
        # The probe box contains every object's own expanded box, so its
        # exact hits are a superset that the margin path refines per object.
        probe = area.expanded(margin * self._max_finite_accuracy) if expand else area
        # Hits unsorted: one vectorised mask per shard and one final sort
        # over the union (a per-shard sort order would be discarded anyway).
        hits: List[str] = []
        for shard_id in self.policy.shards_for_box(probe):
            self.loads[shard_id].engine_queries += 1
            hits.extend(self.engines[shard_id].ids_in_box(probe))
        if expand:
            hits = [oid for oid in hits if self._inside_margin(oid, area, margin)]
        self.counters.range_queries += 1
        elapsed = _time.perf_counter() - started
        self.counters.query_seconds += elapsed
        self.obs.latency("service.query.range").record(elapsed)
        return sorted(hits)

    def _inside_margin(self, object_id: str, area: BoundingBox, margin: float) -> bool:
        """Whether *object_id*'s prepared prediction lies in *area* grown by its margin."""
        accuracy = self._records[object_id].accuracy
        if accuracy != float("inf"):
            area = area.expanded(margin * accuracy)
        return area.contains_point(self._prepared_positions[self._rows[object_id]])

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
            # Route with a box a hair wider than the radius: a distance that
            # rounds (or underflows) down to *radius* can belong to a point
            # just outside ``around(p, radius)``.  Routing may name a shard
            # too many, never one too few; each engine tests the exact radius.
            slack = 1e-12 * (radius + abs(p[0]) + abs(p[1])) + 1e-150
            box = BoundingBox.around(p, radius + slack)
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
        return [load.as_dict(objects) for load, objects in zip(self.loads, self.shard_sizes())]

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

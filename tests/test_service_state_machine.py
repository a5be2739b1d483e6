"""Stateful property test: the sharded service against the linear-scan oracle.

A hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a
:class:`~repro.service.facade.LocationService` and a plain
:class:`~repro.service.server.LocationServer` with the same random
interleaving of registrations, batched and single updates, time steps,
rebalance passes, routing-cell overrides and queries.  Objects use a mix of
prediction functions: the closed-form linear and static ones the service
evaluates as columns, and quadratic, map-based (on a link and off the map)
and known-route ones it calls per object.

After every step the service must agree with the oracle bit for bit: range
queries with and without an accuracy margin, k-nearest and geofence
answers (including a query so far in the future that linear predictions
leave the finite plane), and each record's column row must equal the
record's state.  After every query each reported object's home shard must
be the scalar ``shard_for_point`` of its prediction at the query time, or
unchanged when that prediction is not finite.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.geo.bbox import BoundingBox
from repro.protocols.base import ObjectState, UpdateMessage, UpdateReason
from repro.protocols.prediction import (
    LinearPrediction,
    MapPrediction,
    QuadraticPrediction,
    RoutePrediction,
    StaticPrediction,
)
from repro.roadmap.routing import RoutePlanner
from repro.service.facade import LocationService
from repro.service.server import LocationServer

from reference.linear_queries import LinearScans
from reference.maps import nearest_intersection, straight_road_map

ROAD = straight_road_map(length_m=4000.0, n_links=4)
_START, _ = nearest_intersection(ROAD, (0.0, 0.0))
_END, _ = nearest_intersection(ROAD, (4000.0, 0.0))
ROUTE = RoutePlanner(ROAD).shortest_route(_START.id, _END.id)
LINK_IDS = sorted(ROAD.links)

KINDS = ("linear", "static", "quadratic", "map_on_link", "map_off_map", "route")
#: Far enough ahead that every moving linear prediction overflows.
FAR_FUTURE = 1e308

coords = st.floats(min_value=-4000.0, max_value=4000.0, allow_nan=False)
speeds = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)
points = st.tuples(coords, coords)
accuracies = st.sampled_from([10.0, 50.0, 200.0, float("inf")])


def _prediction(kind):
    if kind == "linear":
        return LinearPrediction()
    if kind == "static":
        return StaticPrediction()
    if kind == "quadratic":
        return QuadraticPrediction(max_horizon=30.0)
    if kind == "route":
        return RoutePrediction(ROUTE)
    return MapPrediction(ROAD)


class ServiceMachine(RuleBasedStateMachine):
    """One service with ``N_SHARDS`` shards beside the oracle server."""

    N_SHARDS = 1

    @initialize(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=8),
        starts=st.lists(st.tuples(points, st.tuples(speeds, speeds)), min_size=8, max_size=8),
    )
    def setup(self, kinds, starts):
        """A few objects, every one with a first update at time zero."""
        self.service = LocationService(n_shards=self.N_SHARDS, region_size=1000.0)
        self.server = LocationServer()
        self.oracle = LinearScans(self.server)
        self.kinds = {}
        self.time = 0.0
        for kind in kinds:
            self.register(kind, 50.0)
        ids = sorted(self.kinds)
        self._ingest([
            (object_id, self._message(object_id, p, v, 0.0, row))
            for row, (object_id, (p, v)) in enumerate(zip(ids, starts))
        ])

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    @rule(kind=st.sampled_from(KINDS), accuracy=accuracies)
    def register(self, kind, accuracy):
        object_id = f"o{len(self.kinds):03d}"
        prediction = _prediction(kind)
        self.service.register_object(object_id, prediction=prediction, accuracy=accuracy)
        self.server.register_object(object_id, prediction=prediction, accuracy=accuracy)
        self.kinds[object_id] = kind

    def _message(self, object_id, position, velocity, age, link):
        kind = self.kinds[object_id]
        link_id = link_offset = acceleration = None
        if kind == "map_on_link":
            link_id = LINK_IDS[link % len(LINK_IDS)]
            link_offset = abs(position[0]) % 900.0
        elif kind == "route":
            link_offset = abs(position[0]) % ROUTE.length
        elif kind == "quadratic":
            acceleration = (velocity[1] / 10.0, -velocity[0] / 10.0)
        state = ObjectState(
            time=self.time - age,
            position=position,
            velocity=velocity,
            speed=float(np.hypot(*velocity)),
            link_id=link_id,
            link_offset=link_offset,
            acceleration=acceleration,
        )
        return UpdateMessage(sequence=0, state=state, reason=UpdateReason.THRESHOLD)

    updates = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            points,
            st.tuples(speeds, speeds),
            st.floats(min_value=0.0, max_value=5.0),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=8,
    )

    @rule(updates=updates)
    def ingest_batch(self, updates):
        ids = sorted(self.kinds)
        batch = [
            (ids[pick % len(ids)], self._message(ids[pick % len(ids)], p, v, age, link))
            for pick, p, v, age, link in updates
        ]
        self._ingest(batch)

    def _ingest(self, batch):
        self.service.ingest_batch(batch, self.time)
        for object_id, message in batch:
            self.server.receive_update(object_id, message, self.time)

    @rule(pick=st.integers(min_value=0, max_value=10_000), position=points,
          velocity=st.tuples(speeds, speeds), link=st.integers(min_value=0, max_value=7))
    def receive_update(self, pick, position, velocity, link):
        ids = sorted(self.kinds)
        object_id = ids[pick % len(ids)]
        message = self._message(object_id, position, velocity, 0.0, link)
        self.service.receive_update(object_id, message, self.time)
        self.server.receive_update(object_id, message, self.time)

    @rule(dt=st.sampled_from([0.5, 1.0, 7.0, 60.0]))
    def advance(self, dt):
        self.time += dt

    @rule()
    def rebalance(self):
        self.service.rebalance(self.time)

    @precondition(lambda self: self.N_SHARDS > 1)
    @rule(pick=st.integers(min_value=0, max_value=10_000), shard=st.integers(0, 3),
          dx=st.integers(-1, 1), dy=st.integers(-1, 1))
    def override_cell(self, pick, shard, dx, dy):
        """Pin a routing cell at (or next to) an object's prediction to a shard."""
        policy = self.service.policy
        object_id = sorted(self.kinds)[pick % len(self.kinds)]
        cx = cy = 0
        predicted = self.service.predict_position(object_id, self.time)
        if predicted is not None:
            cx, cy = policy.cell_for_point(predicted)
        policy.override_cell((cx + dx, cy + dy), shard % self.N_SHARDS)

    # ------------------------------------------------------------------ #
    # queries, each against the oracle
    # ------------------------------------------------------------------ #
    def _queried(self, time, ask):
        homes = {oid: self.service.home_shard(oid) for oid in self.kinds}
        with np.errstate(over="ignore", invalid="ignore"):
            answer, expected = ask(self.service), ask(self.oracle)
        assert answer == expected
        self._check_homes(time, homes)

    def _check_homes(self, time, before):
        policy = self.service.policy
        for object_id in self.kinds:
            with np.errstate(over="ignore", invalid="ignore"):
                predicted = self.service.predict_position(object_id, time)
            home = self.service.home_shard(object_id)
            if predicted is None or not np.isfinite(predicted).all():
                assert home == before[object_id]
            else:
                assert home == policy.shard_for_point(predicted)

    @rule(low=points, extent=st.tuples(st.floats(0.0, 3000.0), st.floats(0.0, 3000.0)),
          margin=st.sampled_from([0.0, 0.5, 2.0]))
    def range_query(self, low, extent, margin):
        area = BoundingBox(low[0], low[1], low[0] + extent[0], low[1] + extent[1])
        self._queried(self.time, lambda b: b.range_query(area, self.time, margin=margin))

    @rule(point=points, k=st.integers(min_value=0, max_value=6))
    def nearest(self, point, k):
        self._queried(self.time, lambda b: b.nearest_objects(point, self.time, k=k))

    @rule(point=points, radius=st.floats(min_value=0.0, max_value=2500.0))
    def geofence(self, point, radius):
        self._queried(self.time, lambda b: b.geofence_query(point, radius, self.time))

    @rule(point=points, k=st.integers(min_value=1, max_value=6))
    def far_future_nearest(self, point, k):
        self._queried(FAR_FUTURE, lambda b: b.nearest_objects(point, FAR_FUTURE, k=k))

    # ------------------------------------------------------------------ #
    # the column table mirrors the records
    # ------------------------------------------------------------------ #
    @invariant()
    def columns_equal_records(self):
        service = getattr(self, "service", None)
        if service is None:
            return
        assert service.object_ids() == sorted(self.kinds)
        assert sum(service.shard_sizes()) == len(self.kinds)
        for object_id in self.kinds:
            row = service._rows[object_id]
            record = service.tracked_object(object_id)
            oracle = self.server.tracked_object(object_id)
            assert record.state is oracle.state
            assert record.updates_received == oracle.updates_received
            assert record.last_update_time == oracle.last_update_time
            assert bool(service._reported[row]) == (record.state is not None)
            if record.state is not None:
                assert np.array_equal(service._pos[row], record.state.position)
                assert np.array_equal(service._vel[row], record.state.velocity)
                assert service._t[row] == record.state.time


class FourShardMachine(ServiceMachine):
    N_SHARDS = 4


_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestOneShardServiceMatchesOracle = ServiceMachine.TestCase
TestOneShardServiceMatchesOracle.settings = _SETTINGS
TestFourShardServiceMatchesOracle = FourShardMachine.TestCase
TestFourShardServiceMatchesOracle.settings = _SETTINGS

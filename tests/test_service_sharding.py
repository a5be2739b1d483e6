"""Tests for the sharded location-service tier (policy, facade, handoff)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.bbox import BoundingBox
from repro.protocols.base import ObjectState, UpdateMessage, UpdateReason
from repro.protocols.prediction import LinearPrediction, QuadraticPrediction, StaticPrediction
from repro.service import sharding
from repro.service.facade import LocationService
from repro.service.server import LocationServer
from repro.service.sharding import GridHashPolicy

from reference.linear_queries import (
    LinearScans,
    geofence_query,
    nearest_object_query,
    range_query,
)


def make_message(sequence=0, time=0.0, position=(0.0, 0.0), velocity=(0.0, 0.0)):
    state = ObjectState(
        time=time, position=position, velocity=velocity,
        speed=float(np.hypot(*velocity)),
    )
    return UpdateMessage(sequence=sequence, state=state, reason=UpdateReason.THRESHOLD)


class TestGridHashPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridHashPolicy(0)
        with pytest.raises(ValueError):
            GridHashPolicy(4, region_size=0.0)

    def test_point_mapping_is_deterministic_and_in_range(self):
        policy = GridHashPolicy(8, region_size=1000.0)
        rng = np.random.default_rng(0)
        for p in rng.uniform(-50_000.0, 50_000.0, size=(200, 2)):
            shard = policy.shard_for_point(p)
            assert 0 <= shard < 8
            assert shard == policy.shard_for_point(p)

    def test_same_cell_same_shard(self):
        policy = GridHashPolicy(4, region_size=1000.0)
        assert policy.shard_for_point((10.0, 10.0)) == policy.shard_for_point((990.0, 990.0))

    def test_id_hash_is_stable_and_in_range(self):
        policy = GridHashPolicy(4)
        for oid in ("car-1", "taxi/7", ""):
            assert 0 <= policy.shard_for_id(oid) < 4
            assert policy.shard_for_id(oid) == policy.shard_for_id(oid)
        # CRC32-based, so the assignment survives hash randomisation; pin one.
        assert GridHashPolicy(4).shard_for_id("car-1") == GridHashPolicy(4).shard_for_id("car-1")

    def test_shards_for_box_covers_contained_points(self):
        policy = GridHashPolicy(5, region_size=700.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            lo = rng.uniform(-10_000.0, 10_000.0, size=2)
            extent = rng.uniform(10.0, 5000.0, size=2)
            box = BoundingBox(lo[0], lo[1], lo[0] + extent[0], lo[1] + extent[1])
            shards = policy.shards_for_box(box)
            for p in rng.uniform([box.min_x, box.min_y], [box.max_x, box.max_y], size=(20, 2)):
                assert policy.shard_for_point(p) in shards

    def test_single_shard_routes_trivially(self):
        policy = GridHashPolicy(1)
        assert policy.shards_for_box(BoundingBox(0.0, 0.0, 1e7, 1e7)) == [0]
        assert policy.shard_for_point((123.0, 456.0)) == 0

    def test_huge_box_falls_back_to_all_shards(self):
        policy = GridHashPolicy(4, region_size=100.0)
        assert policy.shards_for_box(BoundingBox(0.0, 0.0, 1e6, 1e6)) == [0, 1, 2, 3]


class TestLocationServiceSurface:
    """The facade honours the LocationServer contract exactly."""

    def test_register_twice_rejected(self):
        service = LocationService(n_shards=4)
        service.register_object("a")
        with pytest.raises(ValueError):
            service.register_object("a")

    def test_policy_shard_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LocationService(n_shards=4, policy=GridHashPolicy(2))

    def test_predict_before_update_is_none(self):
        service = LocationService(n_shards=2)
        service.register_object("a", prediction=LinearPrediction())
        assert service.predict_position("a", 10.0) is None
        assert len(service.shard_positions(service.home_shard("a"), 10.0)) == 0

    def test_unknown_object_raises_keyerror(self):
        service = LocationService(n_shards=2)
        with pytest.raises(KeyError):
            service.home_shard("nope")
        with pytest.raises(KeyError):
            service.predict_position("nope", 0.0)

    def test_receive_and_predict_matches_single_server(self):
        single = LocationServer()
        service = LocationService(n_shards=4)
        for backend in (single, service):
            backend.register_object("a", prediction=LinearPrediction(), accuracy=100.0)
            backend.receive_update("a", make_message(velocity=(10.0, 0.0)), time=0.0)
        for t in (0.0, 5.0, 60.0):
            np.testing.assert_array_equal(
                single.predict_position("a", t), service.predict_position("a", t)
            )
        assert service.tracked_object("a").updates_received == 1
        assert service.object_ids() == ["a"]
        assert service.is_registered("a")
        assert not service.is_registered("b")

    def test_predict_positions_batch(self):
        service = LocationService(n_shards=3)
        service.register_object("a", prediction=StaticPrediction())
        service.register_object("b", prediction=StaticPrediction())
        service.receive_update("a", make_message(position=(5.0, 5.0)), time=0.0)
        batch = service.predict_positions(["a", "b"], 10.0)
        np.testing.assert_array_equal(batch[0], [5.0, 5.0])
        assert batch[1] is None


class TestHandoff:
    def test_update_across_boundary_moves_object(self):
        service = LocationService(n_shards=4, region_size=1000.0)
        service.register_object("a", prediction=StaticPrediction())
        service.receive_update("a", make_message(position=(100.0, 100.0)), time=0.0)
        first = service.home_shard("a")
        assert first == service.policy.shard_for_point((100.0, 100.0))
        # An update far away re-homes the object to the new region's shard.
        service.receive_update(
            "a", make_message(sequence=1, position=(5100.0, 100.0), time=10.0), time=10.0
        )
        second = service.home_shard("a")
        assert second == service.policy.shard_for_point((5100.0, 100.0))
        record = service.tracked_object("a")
        assert record.updates_received == 2
        if first != second:
            assert service.loads[first].handoffs_out == 1
            assert service.loads[second].handoffs_in == 1

    def test_drift_handoff_at_query_time(self):
        """A moving prediction crosses the boundary without a new update."""
        service = LocationService(n_shards=4, region_size=1000.0)
        service.register_object("a", prediction=LinearPrediction())
        service.receive_update("a", make_message(velocity=(100.0, 0.0)), time=0.0)
        before = service.home_shard("a")
        assert before == service.policy.shard_for_point((0.0, 0.0))
        # At t=50 the prediction is at x=5000, five regions to the right.
        service.prepare(50.0)
        after = service.home_shard("a")
        assert after == service.policy.shard_for_point((5000.0, 0.0))
        # The query index serves the object from its new home.
        assert service.range_query(BoundingBox(4900.0, -100.0, 5100.0, 100.0), 50.0) == ["a"]
        if before != after:
            assert sum(load.handoffs_in for load in service.loads) >= 1

    def test_handoff_preserves_record_identity(self):
        service = LocationService(n_shards=4, region_size=500.0)
        record = service.register_object("a", prediction=LinearPrediction(), accuracy=42.0)
        service.receive_update("a", make_message(velocity=(50.0, 0.0)), time=0.0)
        service.prepare(100.0)
        assert service.tracked_object("a") is record
        assert record.accuracy == 42.0
        assert record.last_update_time == 0.0


class TestBatchedIngestion:
    def test_batch_equals_per_message(self):
        rng = np.random.default_rng(5)
        n = 60
        msgs = [
            (
                f"o{i}",
                make_message(
                    position=tuple(rng.uniform(0, 8000.0, size=2)),
                    velocity=tuple(rng.uniform(-20, 20.0, size=2)),
                ),
            )
            for i in range(n)
        ]
        one_by_one = LocationService(n_shards=4)
        batched = LocationService(n_shards=4)
        for service in (one_by_one, batched):
            for i in range(n):
                service.register_object(f"o{i}", prediction=LinearPrediction())
        for oid, m in msgs:
            one_by_one.receive_update(oid, m, 0.0)
        batched.ingest_batch(msgs, 0.0)
        for oid, _ in msgs:
            assert one_by_one.home_shard(oid) == batched.home_shard(oid)
            np.testing.assert_array_equal(
                one_by_one.predict_position(oid, 30.0), batched.predict_position(oid, 30.0)
            )
        assert sum(load.updates for load in one_by_one.loads) == n
        assert sum(load.updates for load in batched.loads) == n
        assert batched.counters.batches_ingested == 1

    def test_empty_batch_is_noop(self):
        service = LocationService(n_shards=2)
        service.ingest_batch([], 0.0)
        assert service.counters.batches_ingested == 0

    def test_failing_ingest_leaves_every_record_home_and_counter_untouched(self):
        service = LocationService(n_shards=2)
        service.register_object("obj", prediction=LinearPrediction())
        service.register_object("mover", prediction=LinearPrediction())
        before = service.service_stats()
        homes = {oid: service.home_shard(oid) for oid in ("obj", "mover")}
        # The linear prediction at t = 1e308 leaves the finite plane.
        runaway = make_message(time=0.0, velocity=(10.0, 10.0))
        for batch in (
            [("obj", runaway)],
            [("mover", make_message(position=(9000.0, 9000.0))), ("obj", runaway)],
        ):
            with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
                service.ingest_batch(batch, 1e308)
            for oid in ("obj", "mover"):
                record = service.tracked_object(oid)
                assert record.updates_received == 0
                assert record.last_update_time is None
                assert record.state is None
                assert service.home_shard(oid) == homes[oid]
            assert service.counters.batches_ingested == 0
            assert service.service_stats() == before
        # The per-message path refuses the same update just as cleanly.
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            service.receive_update("obj", runaway, 1e308)
        assert service.tracked_object("obj").updates_received == 0
        assert service.service_stats() == before
        # The service stays usable after the refused batch.
        service.ingest_batch([("mover", make_message(position=(9000.0, 9000.0)))], 1.0)
        assert service.tracked_object("mover").updates_received == 1
        assert service.counters.batches_ingested == 1


class TestServiceQueries:
    """Index-backed service answers == linear reference scans, bit for bit."""

    @pytest.fixture()
    def mirrored(self):
        rng = np.random.default_rng(11)
        n = 300
        single = LocationServer()
        service = LocationService(n_shards=5, region_size=1500.0)
        msgs = []
        for i in range(n):
            oid = f"obj-{i:03d}"
            accuracy = float(rng.choice([25.0, 50.0, 100.0, float("inf")]))
            for backend in (single, service):
                backend.register_object(oid, prediction=LinearPrediction(), accuracy=accuracy)
            msgs.append(
                (
                    oid,
                    make_message(
                        position=tuple(rng.uniform(0.0, 12_000.0, size=2)),
                        velocity=tuple(rng.uniform(-25.0, 25.0, size=2)),
                    ),
                )
            )
        # A silent object exists on both backends but never reports.
        single.register_object("silent", accuracy=10.0)
        service.register_object("silent", accuracy=10.0)
        for oid, m in msgs:
            single.receive_update(oid, m, 0.0)
        service.ingest_batch(msgs, 0.0)
        return single, service

    def test_range_queries_identical(self, mirrored):
        single, service = mirrored
        rng = np.random.default_rng(12)
        for t in (0.0, 17.0, 120.0):
            for _ in range(10):
                lo = rng.uniform(0.0, 9000.0, size=2)
                extent = rng.uniform(200.0, 4000.0, size=2)
                box = BoundingBox(lo[0], lo[1], lo[0] + extent[0], lo[1] + extent[1])
                assert service.range_query(box, t) == range_query(single, box, t)

    def test_margin_range_queries_identical(self, mirrored):
        single, service = mirrored
        box = BoundingBox(2000.0, 2000.0, 6000.0, 5000.0)
        for margin in (0.5, 1.0, 2.0):
            for t in (0.0, 45.0):
                assert service.range_query(box, t, margin=margin) == range_query(
                    single, box, t, margin=margin
                )

    def test_nearest_queries_identical(self, mirrored):
        single, service = mirrored
        rng = np.random.default_rng(13)
        for t in (0.0, 33.0):
            for k in (1, 5, 40):
                q = rng.uniform(0.0, 12_000.0, size=2)
                assert service.nearest_objects(q, t, k=k) == nearest_object_query(
                    single, q, t, k=k
                )

    def test_geofence_queries_identical(self, mirrored):
        single, service = mirrored
        rng = np.random.default_rng(14)
        for t in (0.0, 75.0):
            for radius in (100.0, 1500.0, 6000.0):
                q = rng.uniform(0.0, 12_000.0, size=2)
                assert service.geofence_query(q, radius, t) == geofence_query(
                    single, q, radius, t
                )

    def test_service_stats_shape(self, mirrored):
        _, service = mirrored
        service.range_query(BoundingBox(0.0, 0.0, 100.0, 100.0), 0.0)
        stats = service.service_stats()
        assert stats["shards"] == 5
        assert stats["objects"] == 301
        assert stats["updates_ingested"] == 300
        assert stats["range_queries"] >= 1
        assert len(stats["per_shard"]) == 5
        assert sum(row["objects"] for row in stats["per_shard"]) == 301
        assert stats["query_seconds"] > 0.0

    def test_prepare_is_idempotent_per_time(self, mirrored):
        _, service = mirrored
        service.prepare(10.0)
        syncs = service.counters.syncs
        service.prepare(10.0)
        assert service.counters.syncs == syncs
        service.prepare(11.0)
        assert service.counters.syncs == syncs + 1


class TestSingleShardExactness:
    def test_shards1_queries_equal_plain_server(self):
        rng = np.random.default_rng(21)
        single = LocationServer()
        service = LocationService(n_shards=1)
        for i in range(50):
            oid = f"o{i}"
            for backend in (single, service):
                backend.register_object(oid, prediction=LinearPrediction(), accuracy=75.0)
            m = make_message(
                position=tuple(rng.uniform(0.0, 5000.0, size=2)),
                velocity=tuple(rng.uniform(-15.0, 15.0, size=2)),
            )
            single.receive_update(oid, m, 0.0)
            service.receive_update(oid, m, 0.0)
        box = BoundingBox(1000.0, 1000.0, 4000.0, 3000.0)
        for t in (0.0, 60.0):
            assert service.range_query(box, t) == range_query(single, box, t)
            assert service.nearest_objects((2500.0, 2000.0), t, k=9) == nearest_object_query(
                single, (2500.0, 2000.0), t, k=9
            )


class TestVectorisedRouting:
    """``shards_for_points`` equals the scalar ``shard_for_point`` row by row."""

    wrap_bound = 1000.0 * sharding._WRAP_SAFE_CELL
    coordinate = st.one_of(
        st.floats(min_value=-50_000.0, max_value=50_000.0),
        st.floats(min_value=-3.0 * wrap_bound, max_value=3.0 * wrap_bound),
        st.sampled_from([wrap_bound, -wrap_bound, wrap_bound + 1000.0, -wrap_bound - 1000.0,
                         np.nextafter(wrap_bound, np.inf), 1e300, -1e300]),
    )

    @given(
        points=st.lists(st.tuples(coordinate, coordinate), min_size=0, max_size=40),
        n_shards=st.integers(min_value=1, max_value=7),
        overrides=st.lists(
            st.tuples(st.integers(-60, 60), st.integers(-60, 60), st.integers(0, 6)),
            max_size=6,
        ),
        pin_a_point=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_router(self, points, n_shards, overrides, pin_a_point):
        policy = GridHashPolicy(n_shards, region_size=1000.0)
        for cx, cy, shard in overrides:
            policy.override_cell((cx, cy), shard % n_shards)
        if pin_a_point and points:
            cell = policy.cell_for_point(points[0])
            policy.override_cell(cell, (policy.shard_for_cell(cell) + 1) % n_shards)
        pts = np.array(points, dtype=float).reshape(-1, 2)
        vectorised = policy.shards_for_points(pts)
        assert vectorised.tolist() == [policy.shard_for_point(p) for p in pts]

    def test_non_finite_row_raises_like_the_scalar_router(self):
        policy = GridHashPolicy(4)
        with pytest.raises(ValueError, match="finite"):
            policy.shards_for_points(np.array([[0.0, 0.0], [np.inf, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            policy.shards_for_points(np.array([[np.nan, 0.0]]))

    def test_default_policy_method_loops_over_the_scalar_one(self):
        class Halves(sharding.ShardingPolicy):
            def shard_for_point(self, point):
                return 0 if point[0] < 0 else 1

            def shards_for_box(self, box):
                return self.all_shards()

        policy = Halves(2)
        assert policy.shards_for_points(np.array([[-1.0, 0.0], [2.0, 5.0]])).tolist() == [0, 1]


class TestFarFutureQueries:
    """Predictions that leave the finite plane keep their home shard."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_answers_match_the_oracle_for_every_shard_count(self, n_shards):
        single = LocationServer()
        service = LocationService(n_shards=n_shards, region_size=1000.0)
        for backend in (single, service):
            backend.register_object("a", prediction=LinearPrediction())
            backend.register_object("b", prediction=LinearPrediction())
            backend.receive_update("a", make_message(velocity=(10.0, 10.0)), 0.0)
            backend.receive_update("b", make_message(position=(5.0, 5.0)), 0.0)
        homes = {oid: service.home_shard(oid) for oid in ("a", "b")}
        far = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            expected = nearest_object_query(single, (0.0, 0.0), far, k=2)
            assert expected == [("b", float(np.hypot(5.0, 5.0))), ("a", float("inf"))]
            assert service.nearest_objects((0.0, 0.0), far, k=2) == expected
            assert service.geofence_query((0.0, 0.0), 50.0, far) == geofence_query(
                single, (0.0, 0.0), 50.0, far
            )
            # (The oracle's range scan refuses non-finite positions outright.)
            assert service.range_query(BoundingBox(-100.0, -100.0, 100.0, 100.0), far) == ["b"]
            assert service.rebalance(far) == 0
        assert service.home_shard("a") == homes["a"]
        # Back in the finite plane the object is routed as usual.
        service.prepare(10.0)
        assert service.home_shard("a") == service.policy.shard_for_point((100.0, 100.0))

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_unbounded_areas_match_the_oracle_for_every_shard_count(self, n_shards):
        single = LocationServer()
        service = LocationService(n_shards=n_shards, region_size=1000.0)
        for backend in (single, service):
            for i, position in enumerate([(500.0, 500.0), (-2500.0, 7300.0)]):
                backend.register_object(f"o{i}")
                backend.receive_update(f"o{i}", make_message(position=position), 0.0)
        inf = float("inf")
        box = BoundingBox(-inf, -inf, inf, inf)
        assert service.range_query(box, 1.0) == range_query(single, box, 1.0) == ["o0", "o1"]
        assert service.geofence_query((0.0, 0.0), inf, 1.0) == geofence_query(
            single, (0.0, 0.0), inf, 1.0
        )


class TestPrepareIsOChanged:
    """``prepare`` at a new time predicts closed-form rows without calls."""

    def _fleet(self):
        service = LocationService(n_shards=4, region_size=1000.0)
        rng = np.random.default_rng(7)
        batch = []
        for i in range(60):
            cell = rng.integers(-5, 5, size=2)
            oid = f"o{i:02d}"
            service.register_object(oid, prediction=LinearPrediction())
            centre = tuple((cell + 0.5) * 1000.0)
            batch.append((oid, make_message(position=centre, velocity=(1.0, -1.0))))
        service.ingest_batch(batch, 0.0)
        service.prepare(0.0)
        return service

    def _counting(self, monkeypatch):
        counts = {"predict": 0, "move": 0}
        original_move = LocationService._move

        def move(service, row, target):
            counts["move"] += 1
            original_move(service, row, target)

        def counted(cls):
            original = cls.predict

            def predict(self, state, time):
                counts["predict"] += 1
                return original(self, state, time)

            monkeypatch.setattr(cls, "predict", predict)

        for cls in (LinearPrediction, StaticPrediction, QuadraticPrediction):
            counted(cls)
        monkeypatch.setattr(LocationService, "_move", move)
        return counts

    def test_no_crossing_means_no_predict_and_no_move(self, monkeypatch):
        service = self._fleet()
        counts = self._counting(monkeypatch)
        syncs = service.counters.syncs
        service.prepare(30.0)
        assert service.counters.syncs == syncs + 1
        assert counts == {"predict": 0, "move": 0}

    def test_one_crossing_object_is_one_move(self, monkeypatch):
        service = self._fleet()
        policy = service.policy
        start = (500.0, 500.0)
        home = policy.shard_for_point(start)
        velocity = next(
            v for v in ((100.0, 0.0), (0.0, 100.0), (-100.0, 0.0), (0.0, -100.0))
            if policy.shard_for_point(np.add(start, np.multiply(v, 10.0))) != home
        )
        service.register_object("runner", prediction=LinearPrediction())
        service.ingest_batch([("runner", make_message(position=start, velocity=velocity))], 0.0)
        service.prepare(0.0)
        counts = self._counting(monkeypatch)
        service.prepare(10.0)
        assert counts == {"predict": 0, "move": 1}
        assert service.home_shard("runner") != home


class TestRoutingStaysExact:
    def test_override_between_queries_at_one_time_rehomes(self):
        """A routing change alone must not leave a prepared time stale."""
        service = LocationService(n_shards=4, region_size=1000.0)
        service.register_object("a")
        service.receive_update("a", make_message(position=(500.0, 500.0)), 0.0)
        box = BoundingBox(400.0, 400.0, 600.0, 600.0)
        assert service.range_query(box, 1.0) == ["a"]
        home = service.home_shard("a")
        service.policy.override_cell((0, 0), (home + 1) % 4)
        assert service.range_query(box, 1.0) == ["a"]
        assert service.home_shard("a") == (home + 1) % 4

    def test_geofence_routing_survives_distance_underflow(self):
        """A point whose distance underflows to the radius is still found."""
        service = LocationService(n_shards=4, region_size=1000.0)
        service.register_object("a", prediction=LinearPrediction())
        service.receive_update("a", make_message(position=(0.0, 0.0)), 0.0)
        probe = (0.0, -4.982355894804402e-187)
        assert service.policy.shard_for_point(probe) != service.home_shard("a")
        assert service.geofence_query(probe, 0.0, 0.0) == [("a", 0.0)]


def _mirrored_pair(n_shards):
    """A sharded service and the linear-scan oracle over a plain server."""
    single = LocationServer()
    return LocationService(n_shards=n_shards, region_size=1000.0), single, LinearScans(single)


def _register_both(backends, object_id, accuracy=float("inf")):
    for backend in backends:
        backend.register_object(object_id, prediction=LinearPrediction(), accuracy=accuracy)


def _ingest_both(service, single, batch, time):
    for object_id, message in batch:
        single.receive_update(object_id, message, time)
    service.ingest_batch(batch, time)


class TestMarginRangeQueries:
    """Margin range queries refine the probe box's hits against each object's accuracy."""

    AREA = BoundingBox(100.0, 100.0, 900.0, 900.0)

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_own_accuracy_hit_on_an_unrouted_shard(self, n_shards):
        service, single, oracle = _mirrored_pair(n_shards)
        policy = GridHashPolicy(4, region_size=1000.0)
        routed = set(policy.shards_for_box(self.AREA))
        # A point only an accuracy of 2000 m reaches, on a shard the exact
        # area does not route to (for 4 shards).
        far = next(
            (x, y)
            for x in np.arange(-1850.0, 2900.0, 100.0)
            for y in np.arange(-1850.0, 2900.0, 100.0)
            if policy.shard_for_point((x, y)) not in routed
            and not self.AREA.expanded(100.0).contains_point((x, y))
            and self.AREA.expanded(2000.0).contains_point((x, y))
        )
        placed = {
            "wide": (2000.0, far),  # a hit only through its own expansion
            "blind": (float("inf"), far),  # same spot, no accuracy bound: never grown
            "tight-in": (10.0, (905.0, 500.0)),  # 5 m outside, 10 m accuracy
            "tight-out": (10.0, (920.0, 500.0)),  # 20 m outside, 10 m accuracy
            "inside": (float("inf"), (500.0, 500.0)),
        }
        batch = []
        for object_id, (accuracy, position) in placed.items():
            _register_both((service, single), object_id, accuracy)
            batch.append((object_id, make_message(position=position)))
        rng = np.random.default_rng(41)
        for i in range(60):
            object_id = f"r{i:02d}"
            _register_both(
                (service, single), object_id, float(rng.choice([25.0, 300.0, float("inf")]))
            )
            batch.append(
                (
                    object_id,
                    make_message(
                        position=tuple(rng.uniform(-3000.0, 4000.0, size=2)),
                        velocity=tuple(rng.uniform(-30.0, 30.0, size=2)),
                    ),
                )
            )
        _register_both((service, single), "silent", 50.0)
        _ingest_both(service, single, batch, 0.0)

        answer = service.range_query(self.AREA, 0.0, margin=1.0)
        assert answer == oracle.range_query(self.AREA, 0.0, margin=1.0)
        assert {"wide", "tight-in", "inside"} <= set(answer)
        assert not {"blind", "tight-out"} & set(answer)
        if n_shards == 4:
            assert service.home_shard("wide") not in service.policy.shards_for_box(self.AREA)
        for t in (0.0, 20.0):
            for margin in (0.0, 0.5, 1.0, 2.0):
                assert service.range_query(self.AREA, t, margin=margin) == oracle.range_query(
                    self.AREA, t, margin=margin
                )


class TestIdColumnRebuild:
    """Registrations after a prepare widen the fleet-wide id column."""

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_longer_id_after_prepare_matches_the_oracle(self, n_shards):
        service, single, oracle = _mirrored_pair(n_shards)
        rng = np.random.default_rng(43)
        batch = []
        for i in range(30):
            object_id = f"o{i:02d}"
            _register_both((service, single), object_id)
            batch.append(
                (object_id, make_message(position=tuple(rng.uniform(0.0, 3000.0, size=2))))
            )
        _ingest_both(service, single, batch, 0.0)
        box = BoundingBox(0.0, 0.0, 3000.0, 3000.0)
        assert service.range_query(box, 0.0) == oracle.range_query(box, 0.0)

        # Longer than every earlier id, and on the spot of o07: nearest and
        # geofence answers must tie-break the two by the full id.
        long_id = "o07-" + "x" * 40
        _register_both((service, single), long_id)
        spot = tuple(single.tracked_object("o07").state.position)
        _ingest_both(service, single, [(long_id, make_message(position=spot))], 1.0)

        for t in (1.0, 2.0):
            answer = service.range_query(box, t)
            assert answer == oracle.range_query(box, t)
            assert long_id in answer
            nearest = service.nearest_objects(spot, t, k=3)
            assert nearest == oracle.nearest_objects(spot, t, k=3)
            assert [object_id for object_id, _ in nearest[:2]] == ["o07", long_id]
            assert service.geofence_query(spot, 800.0, t) == oracle.geofence_query(
                spot, 800.0, t
            )

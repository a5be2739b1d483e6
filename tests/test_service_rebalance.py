"""Tests for cell overrides, shard skew, and load-adaptive rebalancing."""

import numpy as np
import pytest

from repro.geo.bbox import BoundingBox
from repro.obs.metrics import MetricsRegistry, publish_service_stats
from repro.protocols.base import ObjectState, UpdateMessage, UpdateReason
from repro.protocols.prediction import StaticPrediction
from repro.service.facade import LocationService
from repro.service.sharding import (
    GridHashPolicy,
    RebalancePolicy,
    shard_skew,
)


def make_message(sequence=0, time=0.0, position=(0.0, 0.0), velocity=(0.0, 0.0)):
    state = ObjectState(
        time=time, position=position, velocity=velocity,
        speed=float(np.hypot(*velocity)),
    )
    return UpdateMessage(sequence=sequence, state=state, reason=UpdateReason.THRESHOLD)


def _cells_hashing_to(policy, shard, n):
    """First *n* routing cells (row-major scan) the pure hash puts on *shard*."""
    found = []
    for cx in range(40):
        for cy in range(40):
            if policy.hash_shard_for_cell((cx, cy)) == shard:
                found.append((cx, cy))
                if len(found) == n:
                    return found
    raise AssertionError("not enough cells found")


def _populate(service, cell, count, prefix):
    """Register+update *count* objects spread inside routing *cell*."""
    rs = service.policy.region_size
    for i in range(count):
        oid = f"{prefix}-{i}"
        x = (cell[0] + 0.1 + 0.8 * (i % 7) / 7.0) * rs
        y = (cell[1] + 0.1 + 0.8 * (i // 7 % 7) / 7.0) * rs
        service.register_object(oid, prediction=StaticPrediction())
        service.receive_update(oid, make_message(position=(x, y)), 0.0)


def _skewed_service(n_shards=3, region_size=100.0):
    """A service whose shard 0 holds ~5x its fair share, spread over cells."""
    service = LocationService(n_shards=n_shards, region_size=region_size)
    hot_cells = _cells_hashing_to(service.policy, 0, 4)
    for j, (cell, count) in enumerate(zip(hot_cells, (30, 20, 14, 8))):
        _populate(service, cell, count, f"hot{j}")
    for shard in range(1, n_shards):
        cold = _cells_hashing_to(service.policy, shard, 1)[0]
        _populate(service, cold, 4, f"cold{shard}")
    return service


def _shard_counts(service):
    return [row["objects"] for row in service.shard_rows()]


class TestShardSkew:
    def test_empty_is_zero(self):
        assert shard_skew([]) == 0.0
        assert shard_skew([0, 0, 0]) == 0.0

    def test_balanced_is_one(self):
        assert shard_skew([10, 10, 10]) == 1.0

    def test_skew_is_max_over_mean(self):
        assert shard_skew([30, 10, 20]) == pytest.approx(30 / 20)


class TestCellOverrides:
    def test_override_changes_routing_and_returns_previous(self):
        policy = GridHashPolicy(4, region_size=100.0)
        cell = (3, 5)
        natural = policy.shard_for_cell(cell)
        target = (natural + 1) % 4
        assert policy.override_cell(cell, target) == natural
        assert policy.shard_for_cell(cell) == target
        assert policy.hash_shard_for_cell(cell) == natural
        # Points inside the cell follow the override.
        assert policy.shard_for_point((350.0, 550.0)) == target

    def test_override_back_to_natural_drops_entry(self):
        policy = GridHashPolicy(4, region_size=100.0)
        cell = (3, 5)
        natural = policy.hash_shard_for_cell(cell)
        policy.override_cell(cell, (natural + 1) % 4)
        assert policy.override_cell(cell, natural) == (natural + 1) % 4
        assert policy.overrides == {}
        assert policy.shard_for_cell(cell) == natural

    def test_out_of_range_shard_rejected(self):
        policy = GridHashPolicy(4)
        with pytest.raises(ValueError):
            policy.override_cell((0, 0), 4)
        with pytest.raises(ValueError):
            policy.override_cell((0, 0), -1)

    def test_shards_for_box_sees_overrides(self):
        policy = GridHashPolicy(4, region_size=100.0)
        cell = (2, 2)
        natural = policy.hash_shard_for_cell(cell)
        target = (natural + 1) % 4
        policy.override_cell(cell, target)
        box = BoundingBox(205.0, 205.0, 295.0, 295.0)  # inside cell (2, 2)
        assert target in policy.shards_for_box(box)


class TestRebalancePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RebalancePolicy(skew_threshold=1.0)
        with pytest.raises(ValueError):
            RebalancePolicy(max_cells_per_pass=0)

    def test_pass_reduces_skew(self):
        service = _skewed_service()
        policy = RebalancePolicy(skew_threshold=1.4, min_objects=16)
        before = shard_skew(_shard_counts(service))
        assert before > 1.4
        report = policy.maybe_rebalance(service, 0.0)
        assert report is not None
        assert report.skew_before == pytest.approx(before)
        assert report.skew_after < report.skew_before
        assert report.handoffs > 0
        assert policy.passes == 1
        assert policy.objects_moved == report.handoffs
        # Counts actually changed on the shards themselves.
        assert shard_skew(_shard_counts(service)) == pytest.approx(report.skew_after)

    def test_rebalance_is_deterministic(self):
        reports = []
        for _ in range(2):
            service = _skewed_service()
            policy = RebalancePolicy(skew_threshold=1.4, min_objects=16)
            reports.append(policy.maybe_rebalance(service, 0.0).as_dict())
        assert reports[0] == reports[1]

    def test_answers_unchanged_by_rebalance(self):
        service = _skewed_service()
        rs = service.policy.region_size
        box = BoundingBox(0.0, 0.0, 40 * rs, 40 * rs)
        probes = [(150.0, 150.0), (700.0, 300.0), (50.0, 950.0)]
        before_range = service.range_query(box, 0.0)
        before_nearest = [service.nearest_objects(p, 0.0, k=5) for p in probes]
        before_fence = [service.geofence_query(p, 500.0, 0.0) for p in probes]
        report = RebalancePolicy(skew_threshold=1.4, min_objects=16).maybe_rebalance(
            service, 0.0
        )
        assert report is not None
        assert service.range_query(box, 0.0) == before_range
        assert [service.nearest_objects(p, 0.0, k=5) for p in probes] == before_nearest
        assert [service.geofence_query(p, 500.0, 0.0) for p in probes] == before_fence

    def test_skips_below_threshold(self):
        service = _skewed_service()
        policy = RebalancePolicy(skew_threshold=10.0, min_objects=16)
        assert policy.maybe_rebalance(service, 0.0) is None
        assert policy.checks == 1
        assert policy.passes == 0

    def test_skips_small_fleets(self):
        service = _skewed_service()
        policy = RebalancePolicy(skew_threshold=1.2, min_objects=10_000)
        assert policy.maybe_rebalance(service, 0.0) is None

    def test_skips_single_shard(self):
        service = LocationService(n_shards=1)
        _populate(service, (0, 0), 80, "solo")
        policy = RebalancePolicy(skew_threshold=1.2, min_objects=16)
        assert policy.maybe_rebalance(service, 0.0) is None

    def test_repeated_passes_converge(self):
        service = _skewed_service()
        policy = RebalancePolicy(
            skew_threshold=1.4, max_cells_per_pass=1, min_objects=16
        )
        skews = [shard_skew(_shard_counts(service))]
        for _ in range(6):
            if policy.maybe_rebalance(service, 0.0) is None:
                break
            skews.append(shard_skew(_shard_counts(service)))
        assert len(skews) > 1
        assert skews[-1] < skews[0]
        # Once converged the policy stays quiet.
        assert policy.maybe_rebalance(service, 0.0) is None


class TestSkewGauge:
    def test_publish_service_stats_exports_shard_skew(self):
        service = _skewed_service()
        registry = MetricsRegistry()
        publish_service_stats(registry, service.service_stats())
        snapshot = registry.snapshot()
        assert "service.shard.skew" in snapshot
        assert snapshot["service.shard.skew"]["kind"] == "gauge"
        skew = snapshot["service.shard.skew"]["value"]
        assert skew == pytest.approx(service.service_stats()["load_imbalance"])
        assert skew > 1.4

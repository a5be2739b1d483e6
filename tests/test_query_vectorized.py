"""Property suite: the vectorised query kernels equal the scalar scans.

Replays every library scenario's real update stream into three backends —
the columnar sharded service, a sharded service whose engines are the
scalar oracle (:mod:`reference.scalar_query_engine`) and a plain single
server answered through the linear-scan oracle
(:mod:`reference.linear_queries`) — and
asserts all three produce **identical** answers (ids, distances, ordering;
float equality, not approx) for all three query kinds.  A hypothesis case
pins the tie-breaking contract: objects at exactly equal distances sort
lexicographically by id.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.library import FleetMix, fleet_lanes, scenario_names
from repro.service.loadgen import build_replay_plan, service_for_plan
from repro.service.query_engine import QueryEngine
from repro.service.server import LocationServer
from repro.sim.workload import QueryWorkload, execute_call

from reference.linear_queries import LinearScans
from reference.scalar_query_engine import ScalarQueryEngine, use_scalar_engines

#: Small per-scenario scales (mirrors the golden/kernel suites so the
#: per-process scenario cache is shared between the test modules).
SCALES = {"freeway": 0.05, "interurban": 0.08, "city": 0.07, "walking": 0.15}
DEFAULT_SCALE = 0.15

LIBRARY_NAMES = scenario_names()

_WORKLOAD = QueryWorkload(
    mix={"range": 1.0, "nearest": 1.0, "geofence": 1.0},
    k=4,
    range_extent_m=1200.0,
    geofence_radius_m=600.0,
    margin=0.0,
    seed=29,
    arrival_rate_per_s=2.0,
)


def _sync(engine, positions, time):
    """Sync *engine* to an ``{object_id: position}`` mapping."""
    ids = list(positions)
    stacked = np.array([positions[oid] for oid in ids], dtype=float).reshape(-1, 2)
    return engine.sync(np.array(ids, dtype=str), stacked, time)


def _plan_for(name: str):
    mix = FleetMix(scenario=name, protocol_id="linear", accuracy=100.0, count=6)
    lanes = fleet_lanes([mix], scale=SCALES.get(name, DEFAULT_SCALE))
    return build_replay_plan(lanes, _WORKLOAD, max_batches=30, max_queries=25)


def _linear_backend(plan) -> LinearScans:
    server = LocationServer()
    for object_id, prediction, accuracy in plan.registrations:
        server.register_object(object_id, prediction=prediction, accuracy=accuracy)
    return LinearScans(server)


class TestVectorizedEqualsScalarOnLibrary:
    """Columnar == scalar == linear reference, per scenario, per query kind."""

    @pytest.mark.parametrize("name", LIBRARY_NAMES)
    def test_scenario_replay_answers_identical(self, name):
        plan = _plan_for(name)
        if not plan.batches:
            pytest.skip(f"scenario {name} produced no update batches at this scale")
        columnar = service_for_plan(plan, n_shards=3)
        scalar = use_scalar_engines(service_for_plan(plan, n_shards=3))
        linear = _linear_backend(plan)
        assert all(isinstance(e, QueryEngine) for e in columnar.engines)
        assert all(isinstance(e, ScalarQueryEngine) for e in scalar.engines)

        calls = list(plan.calls)
        call_index = 0
        compared = 0
        for t, batch in plan.batches:
            # Queries that arrived before this batch run against the
            # pre-batch state on every backend.
            while call_index < len(calls) and calls[call_index].time < t:
                call = calls[call_index]
                call_index += 1
                expected = execute_call(linear, _WORKLOAD, call)
                assert execute_call(columnar, _WORKLOAD, call) == expected
                assert execute_call(scalar, _WORKLOAD, call) == expected
                compared += 1
            columnar.ingest_batch(batch, t)
            scalar.ingest_batch(batch, t)
            for object_id, message in batch:
                linear.server.receive_update(object_id, message, t)
        for call in calls[call_index:]:
            expected = execute_call(linear, _WORKLOAD, call)
            assert execute_call(columnar, _WORKLOAD, call) == expected
            assert execute_call(scalar, _WORKLOAD, call) == expected
            compared += 1
        assert compared > 0, "plan produced no comparable queries"

    def test_margin_range_queries_identical(self):
        """The accuracy-margin path (per-record expansion) is compared too."""
        plan = _plan_for("city")
        margin_workload = QueryWorkload(
            mix={"range": 1.0},
            range_extent_m=1500.0,
            margin=1.5,
            seed=31,
            arrival_rate_per_s=2.0,
        )
        columnar = service_for_plan(plan, n_shards=3)
        scalar = use_scalar_engines(service_for_plan(plan, n_shards=3))
        linear = _linear_backend(plan)
        for t, batch in plan.batches:
            columnar.ingest_batch(batch, t)
            scalar.ingest_batch(batch, t)
            for object_id, message in batch:
                linear.server.receive_update(object_id, message, t)
        for call in plan.calls:
            call = type(call)(time=call.time, kind="range", cx=call.cx, cy=call.cy)
            expected = execute_call(linear, margin_workload, call)
            assert execute_call(columnar, margin_workload, call) == expected
            assert execute_call(scalar, margin_workload, call) == expected


class TestExactDistanceTies:
    """Equal-distance objects must sort lexicographically by id — always."""

    @given(
        labels=st.permutations(["aa", "ab", "ba", "bb", "ca", "zz"]),
        k=st.integers(min_value=1, max_value=6),
        cell_size=st.sampled_from([150.0, 400.0, 1000.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_k_nearest_ties_sort_lexicographically(self, labels, k, cell_size):
        # Six points at *exactly* the same distance from the centre: axis
        # mirrors and diagonal mirrors of the same offsets are bit-equal
        # under sqrt(dx*dx + dy*dy).
        centre = np.array([5000.0, 5000.0])
        offsets = [
            (300.0, 400.0),
            (-300.0, 400.0),
            (300.0, -400.0),
            (-300.0, -400.0),
            (400.0, 300.0),
            (-400.0, -300.0),
        ]
        positions = {
            label: centre + np.array(offset) for label, offset in zip(labels, offsets)
        }
        columnar = QueryEngine()
        scalar = ScalarQueryEngine(cell_size=cell_size)
        _sync(columnar, positions, 0.0)
        _sync(scalar, positions, 0.0)

        col_answer = columnar.k_nearest(centre, k)
        assert col_answer == scalar.k_nearest(centre, k)
        # All six are equidistant, so the top-k is the k lexicographically
        # smallest ids — regardless of insertion order or candidate set.
        assert [oid for oid, _ in col_answer] == sorted(labels)[:k]
        distances = {d for _, d in col_answer}
        assert len(distances) == 1  # exactly equal, not approximately

        radius = next(iter(distances))
        col_fence = columnar.within_radius(centre, radius)
        assert col_fence == scalar.within_radius(centre, radius)
        assert [oid for oid, _ in col_fence] == sorted(labels)

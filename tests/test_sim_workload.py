"""Tests for query workloads and the fleet's pluggable service backend.

The acceptance-critical property lives here: a fleet served by a
``LocationService`` with one shard (and, since handoff never touches record
state, any shard count) produces bit-identical simulation results to the
plain single ``LocationServer`` — asserted over every scenario of the
library at the golden scales.
"""

import numpy as np
import pytest

from test_golden_metrics import GOLDEN_NAMES, golden_scale

from repro.geo.bbox import BoundingBox
from repro.service.channel import MessageChannel
from repro.service.facade import LocationService
from repro.service.server import LocationServer
from repro.sim.config import SimulationConfig
from repro.sim.fleet import FleetLane, FleetSimulation
from repro.sim.runner import QueryBenchSpec, ScenarioSpec, SweepRunner
from repro.sim.workload import (
    QueryWorkload,
    WorkloadExecutor,
    default_query_mix,
)

from reference.linear_queries import LinearScans


def _build(protocol_id, accuracy, scenario):
    return SimulationConfig(protocol_id=protocol_id, accuracy=accuracy).build_protocol(scenario)


def _lanes(scenario, configs):
    return [
        FleetLane(
            object_id=f"obj-{n}",
            protocol=_build(pid, us, scenario),
            sensor_trace=scenario.sensor_trace,
            truth_trace=scenario.true_trace,
        )
        for n, (pid, us) in enumerate(configs)
    ]


class _LinearScannedService(LocationService):
    """A service whose queries run through the linear-scan oracle.

    The scans read a plain ``LocationServer`` that shares the service's own
    record dict, so they see exactly the state the indexed query surface
    would.
    """

    def __init__(self):
        super().__init__(n_shards=1)
        records = LocationServer()
        records._objects = self._records
        scans = LinearScans(records)
        self.range_query = scans.range_query
        self.nearest_objects = scans.nearest_objects
        self.geofence_query = scans.geofence_query


def _assert_results_identical(a, b):
    assert a.updates == b.updates
    assert a.bytes_sent == b.bytes_sent
    assert a.update_reasons == b.update_reasons
    assert np.array_equal(a.metrics.errors, b.metrics.errors)


class TestQueryWorkloadSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueryWorkload(queries_per_tick=-1.0)
        with pytest.raises(ValueError):
            QueryWorkload(mix={"range": 0.0})
        with pytest.raises(ValueError):
            QueryWorkload(mix={"teleport": 1.0})
        with pytest.raises(ValueError):
            QueryWorkload(mix={"range": -1.0, "nearest": 2.0})
        with pytest.raises(ValueError):
            QueryWorkload(k=0)
        with pytest.raises(ValueError):
            QueryWorkload(range_extent_m=0.0)

    def test_parse_mix(self):
        assert QueryWorkload.parse_mix("range=2,nearest=1") == {"range": 2.0, "nearest": 1.0}
        assert QueryWorkload.parse_mix("geofence=0.5") == {"geofence": 0.5}
        with pytest.raises(ValueError):
            QueryWorkload.parse_mix("")
        with pytest.raises(ValueError):
            QueryWorkload.parse_mix("range")

    def test_default_query_mix_shapes(self):
        walk = default_query_mix("walking")
        assert walk["geofence"] > walk["range"]
        city = default_query_mix("city")
        assert city["nearest"] > city["geofence"]
        freeway = default_query_mix("freeway")
        assert freeway["range"] > freeway["nearest"]
        # Explicit library overrides win over the topology fallback.
        delivery = default_query_mix("delivery_rounds")
        assert delivery["nearest"] == 3.0
        assert default_query_mix(None) == {"range": 1.0, "nearest": 1.0, "geofence": 1.0}
        assert default_query_mix("not-a-scenario") == {
            "range": 1.0, "nearest": 1.0, "geofence": 1.0,
        }


class TestWorkloadExecutor:
    def _service_with_objects(self, n=40, seed=0):
        from repro.protocols.base import ObjectState, UpdateMessage, UpdateReason
        from repro.protocols.prediction import LinearPrediction

        rng = np.random.default_rng(seed)
        service = LocationService(n_shards=3, region_size=1500.0)
        for i in range(n):
            oid = f"o{i:02d}"
            service.register_object(oid, prediction=LinearPrediction(), accuracy=50.0)
            state = ObjectState(
                time=0.0,
                position=rng.uniform(0.0, 6000.0, size=2),
                velocity=rng.uniform(-10.0, 10.0, size=2),
                speed=1.0,
            )
            service.receive_update(
                oid, UpdateMessage(sequence=0, state=state, reason=UpdateReason.THRESHOLD), 0.0
            )
        return service

    def test_fractional_rate_accumulates_exactly(self):
        service = self._service_with_objects()
        workload = QueryWorkload(queries_per_tick=0.25, seed=1)
        executor = WorkloadExecutor(workload, service, BoundingBox(0.0, 0.0, 6000.0, 6000.0))
        for t in range(100):
            executor.on_tick(float(t))
        assert executor.report.ticks == 100
        assert executor.report.queries == 25

    def test_same_seed_same_stream(self):
        service = self._service_with_objects()
        area = BoundingBox(0.0, 0.0, 6000.0, 6000.0)
        answers = []
        for _ in range(2):
            workload = QueryWorkload(queries_per_tick=3.0, seed=9)
            executor = WorkloadExecutor(workload, service, area, record_answers=True)
            for t in range(20):
                executor.on_tick(float(t))
            answers.append(executor.answers)
        assert answers[0] == answers[1]

    def test_mix_weights_respected(self):
        service = self._service_with_objects()
        workload = QueryWorkload(
            queries_per_tick=5.0, mix={"nearest": 1.0}, seed=2
        )
        executor = WorkloadExecutor(workload, service, BoundingBox(0.0, 0.0, 6000.0, 6000.0))
        for t in range(10):
            executor.on_tick(float(t))
        assert executor.report.by_kind == {"nearest": 50}
        assert executor.report.queries == 50
        summary = executor.report.as_dict()
        assert summary["nearest_queries"] == 50
        assert summary["range_queries"] == 0


class TestFleetServiceBackend:
    """FleetSimulation with a LocationService backend."""

    @pytest.fixture(scope="class")
    def city(self, tiny_city_scenario):
        return tiny_city_scenario

    def _run(self, scenario, server=None, workload=None, channel=None, record=False):
        configs = [("distance", 50.0), ("linear", 100.0), ("linear", 200.0), ("map", 100.0)]
        return FleetSimulation(
            _lanes(scenario, configs),
            server=server,
            channel=channel,
            query_workload=workload,
            record_query_answers=record,
        )

    def test_sharded_backend_matches_plain_server(self, city):
        plain = self._run(city).run()
        for shards in (1, 4):
            sharded = self._run(city, server=LocationService(n_shards=shards)).run()
            for oid in plain.results:
                _assert_results_identical(plain.results[oid], sharded.results[oid])
            assert sharded.service_stats["shards"] == shards
            assert sharded.service_stats["updates_ingested"] == sum(
                r.updates for r in sharded.results.values()
            )
            for result in sharded.results.values():
                assert 0 <= result.service_stats["shard"] < shards
                assert result.as_dict()["svc_shard"] == result.service_stats["shard"]

    def test_workload_needs_service_backend(self, city):
        """A plain server has no query surface, so a workload is rejected."""
        with pytest.raises(ValueError, match="LocationService"):
            FleetSimulation(
                _lanes(city, [("linear", 100.0)]), query_workload=QueryWorkload(seed=1)
            )

    def test_plain_results_carry_no_service_stats(self, city):
        plain = self._run(city).run()
        assert plain.service_stats == {}
        assert plain.workload is None
        for result in plain.results.values():
            assert result.service_stats == {}
            assert "svc_shard" not in result.as_dict()

    def test_workload_does_not_perturb_simulation(self, city):
        workload = QueryWorkload(queries_per_tick=1.0, seed=3)
        without = self._run(city, server=LocationService(n_shards=4)).run()
        with_queries = self._run(
            city, server=LocationService(n_shards=4), workload=workload
        ).run()
        for oid in without.results:
            _assert_results_identical(without.results[oid], with_queries.results[oid])
        assert with_queries.workload is not None
        assert with_queries.workload.queries > 0
        assert with_queries.workload.ticks > 0

    def test_workload_answers_identical_on_both_backends(self, city):
        """The same query stream gets the same answers, indexed or scanned."""
        workload = QueryWorkload(queries_per_tick=0.5, seed=4)
        runs = {}
        for name, server in (
            ("scanned", _LinearScannedService()),
            ("sharded", LocationService(n_shards=4)),
        ):
            sim = self._run(city, server=server, workload=workload, record=True)
            sim.run()
            runs[name] = sim.workload_executor.answers
        assert len(runs["scanned"]) > 0
        assert runs["scanned"] == runs["sharded"]

    def test_channel_stats_identical_under_batched_ingestion(self, city):
        """Satellite: messages / drops / in-flight match the per-message path."""
        results = {}
        for name, server in (("plain", None), ("sharded", LocationService(n_shards=4))):
            channel = MessageChannel(latency=7.0, loss_probability=0.2, seed=42)
            fleet = self._run(city, server=server, channel=channel).run()
            results[name] = (
                channel.stats.messages_sent,
                channel.stats.messages_delivered,
                channel.stats.messages_lost,
                channel.stats.bytes_sent,
                channel.stats.bytes_delivered,
                channel.in_flight,
                {oid: r.updates for oid, r in fleet.results.items()},
            )
            assert channel.stats.messages_sent > 0
            assert channel.stats.messages_lost > 0
        assert results["plain"] == results["sharded"]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_shards1_bit_identical_on_every_library_scenario(name):
    """Acceptance: the shards=1 backend equals the plain server everywhere."""
    scenario = ScenarioSpec(name=name, scale=golden_scale(name)).build()
    configs = [("distance", 100.0), ("linear", 100.0)]
    plain = FleetSimulation(_lanes(scenario, configs)).run()
    sharded = FleetSimulation(
        _lanes(scenario, configs), server=LocationService(n_shards=1)
    ).run()
    for oid in plain.results:
        a, b = plain.results[oid], sharded.results[oid]
        _assert_results_identical(a, b)
        assert a.metrics.mean_error == b.metrics.mean_error
        assert a.metrics.max_error == b.metrics.max_error


class TestQueryBenchRunner:
    def test_query_bench_record_and_artifact(self, tmp_path):
        spec = QueryBenchSpec(
            scenario="freeway",
            protocol_id="linear",
            accuracy=100.0,
            count=3,
            shards=2,
            scale=0.05,
            queries_per_tick=1.0,
        )
        runner = SweepRunner()
        record = runner.run_query_bench(spec)
        assert record["objects"] == 3
        assert record["shards"] == 2
        assert record["workload"]["queries"] > 0
        assert len(record["per_shard"]) == 2
        assert record["service"]["queries"] == record["workload"]["queries"]
        path = runner.write_query_bench_artifact(record, "qb_test", out_dir=str(tmp_path))
        import json

        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["name"] == "qb_test"
        assert payload["objects"] == 3

    def test_mix_defaults_to_scenario_mix(self):
        spec = QueryBenchSpec(scenario="walking")
        workload = spec.build_workload()
        assert workload.mix == default_query_mix("walking")

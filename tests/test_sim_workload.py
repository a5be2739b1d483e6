"""Tests for query workloads, the replay plan and the fleet's service backend.

The acceptance-critical properties live here: a fleet served by a
``LocationService`` with one shard (and, since handoff never touches record
state, any shard count) produces bit-identical simulation results to the
plain single ``LocationServer`` — asserted over every scenario of the
library at the golden scales — and the replay plan, the one query driver,
serves per instant exactly the update batches the fleet delivers.
"""

import dataclasses
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from test_golden_metrics import GOLDEN_NAMES, golden_scale

from repro.experiments.library import FleetMix, fleet_lanes
from repro.geo.bbox import BoundingBox
from repro.service.channel import MessageChannel
from repro.service.facade import LocationService
from repro.service.loadgen import build_replay_plan, lockstep_order, replay_in_process
from repro.service.server import LocationServer
from repro.sim.config import SimulationConfig
from repro.sim.fleet import FleetLane, FleetSimulation
from repro.sim.runner import QueryBenchSpec, ScenarioSpec, SweepRunner
from repro.sim.workload import (
    QueryWorkload,
    WorkloadReport,
    default_query_mix,
    default_query_rate,
    execute_call,
    query_stream,
)

from reference.linear_queries import LinearScans
from reference.streaming import delivery_order

#: ``repro --json query-bench --scale 0.05`` records (wall-clock fields
#: dropped) of the in-loop query engine the replay plan replaced.
QUERY_BENCH_PARITY = Path(__file__).parent / "data" / "query_bench_parity.json"

#: The recorded ``query-bench`` runs: the default spec (rush-hour city,
#: linear, per tick), Poisson arrivals, and timer-driven updates.
PARITY_RUNS = {
    "default": [],
    "poisson_queries_freeway": ["--scenario", "poisson_queries_freeway"],
    "time": ["--protocol", "time"],
}

#: Per-query wall-clock fields, the only ones allowed to differ run to run.
WALL_CLOCK_FIELDS = {"query_seconds", "mean_query_us", "queries_per_second", "mean_query_seconds"}


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


def replay_answers(plan, service):
    """Register *plan*'s objects with *service*, replay it, return the answers."""
    for object_id, prediction, accuracy in plan.registrations:
        service.register_object(object_id, prediction=prediction, accuracy=accuracy)
    return replay_in_process(plan, service)[1]


def _assert_results_identical(a, b):
    assert a.updates == b.updates
    assert a.bytes_sent == b.bytes_sent
    assert a.update_reasons == b.update_reasons
    assert np.array_equal(a.metrics.errors, b.metrics.errors)


class TestQueryWorkloadSpec:
    def test_default_rate_only_where_the_library_declares_one(self):
        assert default_query_rate("poisson_queries_freeway") == 0.5
        assert default_query_rate("freeway") is None
        assert default_query_rate("atlantis") is None
        assert default_query_rate(None) is None

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


class TestQueryStream:
    AREA = BoundingBox(0.0, 0.0, 6000.0, 6000.0)

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
        ticks = [float(t) for t in range(100)]
        calls = query_stream(QueryWorkload(queries_per_tick=0.25, seed=1), self.AREA, ticks, 99.0)
        assert [call.time for call in calls] == [float(t) for t in range(3, 100, 4)]
        # Ticks past the end issue nothing.
        cut = query_stream(QueryWorkload(queries_per_tick=0.25, seed=1), self.AREA, ticks, 49.0)
        assert cut == calls[:12]

    def test_same_seed_same_stream(self):
        service = self._service_with_objects()
        ticks = [float(t) for t in range(20)]
        answers = []
        for _ in range(2):
            workload = QueryWorkload(queries_per_tick=3.0, seed=9)
            calls = query_stream(workload, self.AREA, ticks, ticks[-1])
            answers.append([execute_call(service, workload, call) for call in calls])
        assert len(answers[0]) == 60
        assert answers[0] == answers[1]

    def test_mix_weights_respected(self):
        service = self._service_with_objects()
        workload = QueryWorkload(queries_per_tick=5.0, mix={"nearest": 1.0}, seed=2)
        report = WorkloadReport()
        for call in query_stream(workload, self.AREA, [float(t) for t in range(10)], 9.0):
            report.record(call.kind, execute_call(service, workload, call))
        assert report.by_kind == {"nearest": 50}
        assert report.queries == 50
        summary = report.as_dict()
        assert summary["nearest_queries"] == 50
        assert summary["range_queries"] == 0

    def test_poisson_stream_covers_start_to_end(self):
        workload = QueryWorkload(arrival_rate_per_s=2.0, seed=5)
        calls = query_stream(workload, self.AREA, [10.0, 11.0], 60.0)
        times = [call.time for call in calls]
        assert times == sorted(times)
        assert 10.0 < times[0] and times[-1] <= 60.0
        assert 50 <= len(calls) <= 150


class TestFleetServiceBackend:
    """FleetSimulation with a LocationService backend."""

    @pytest.fixture(scope="class")
    def city(self, tiny_city_scenario):
        return tiny_city_scenario

    CONFIGS = [("distance", 50.0), ("linear", 100.0), ("linear", 200.0), ("map", 100.0)]

    def _run(self, scenario, server=None, channel=None):
        return FleetSimulation(_lanes(scenario, self.CONFIGS), server=server, channel=channel)

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

    def test_plain_results_carry_no_service_stats(self, city):
        plain = self._run(city).run()
        assert plain.service_stats == {}
        for result in plain.results.values():
            assert result.service_stats == {}
            assert "svc_shard" not in result.as_dict()

    def test_workload_answers_identical_on_both_backends(self, city):
        """The same replayed query stream gets the same answers, indexed or scanned."""
        workload = QueryWorkload(queries_per_tick=0.5, seed=4)
        runs = {}
        for name, server in (
            ("scanned", _LinearScannedService()),
            ("sharded", LocationService(n_shards=4)),
        ):
            plan = build_replay_plan(_lanes(city, self.CONFIGS), workload)
            runs[name] = replay_answers(plan, server)
        assert len(runs["scanned"]) > 0
        assert runs["scanned"] == runs["sharded"]

    def test_channel_stats_identical_under_batched_ingestion(self, city):
        """Satellite: messages / drops / queue delay match the per-message path."""
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
                channel.stats.max_queue_delay,
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

    @pytest.mark.parametrize("name", list(PARITY_RUNS))
    def test_query_bench_matches_recorded_parity(self, name):
        """Replaying the plan reproduces the in-loop engine's record field
        for field: per-tick and Poisson arrivals, timer-driven updates."""
        from repro.cli import main

        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["--json", "query-bench", "--scale", "0.05", *PARITY_RUNS[name]]) == 0
        record = json.loads(out.getvalue())
        expected = json.loads(QUERY_BENCH_PARITY.read_text(encoding="utf-8"))[name]
        assert _without_wall_clock(record) == expected
        assert record["workload"]["queries"] > 0


def _without_wall_clock(value):
    if isinstance(value, dict):
        return {
            key: _without_wall_clock(item)
            for key, item in value.items()
            if key not in WALL_CLOCK_FIELDS
        }
    if isinstance(value, list):
        return [_without_wall_clock(item) for item in value]
    return value


def _fingerprint(object_id, message):
    state = message.state
    return (
        object_id,
        message.sequence,
        message.reason.value,
        state.time,
        state.position.tolist(),
        state.velocity.tolist(),
        state.speed,
        state.link_id,
        state.link_offset,
    )


class TestReplayPlanMatchesFleet:
    @pytest.mark.parametrize(
        "mix_text",
        ["city:time:150:3", "freeway:time:333:2", "city:linear:150:3", "city:map:150:2"],
    )
    def test_plan_batches_equal_fleet_deliveries(self, mix_text):
        """Per instant, the plan serves exactly the updates the fleet
        delivers — timer-fired ones included, at their exact deadlines."""
        mix = [FleetMix.parse(mix_text)]
        service = LocationService()
        delivered = {}
        ingest = service.ingest_batch

        def recording(messages, time):
            delivered[time] = sorted(
                ((time, oid, msg) for oid, msg in messages), key=delivery_order
            )
            ingest(messages, time)

        service.ingest_batch = recording
        fleet = FleetSimulation(fleet_lanes(mix, scale=0.1, seed=11), server=service).run()
        plan = build_replay_plan(fleet_lanes(mix, scale=0.1, seed=11), QueryWorkload(seed=0))
        served = {
            t: sorted(((t, oid, msg) for oid, msg in batch), key=delivery_order)
            for t, batch in plan.batches
        }
        assert len(served) == len(plan.batches)
        assert list(served) == sorted(delivered)
        for t, entries in served.items():
            assert [_fingerprint(oid, m) for _, oid, m in entries] == [
                _fingerprint(oid, m) for _, oid, m in delivered[t]
            ]
        assert plan.total_updates == fleet.total_updates
        if ":time:" in mix_text:
            assert any(
                m.reason.value == "timer" for _, batch in plan.batches for _, m in batch
            )

    def test_lockstep_order_puts_batches_first_at_equal_instants(self, tiny_city_scenario):
        plan = build_replay_plan(
            _lanes(tiny_city_scenario, [("linear", 100.0)]),
            QueryWorkload(queries_per_tick=1.0, seed=2),
        )
        order = lockstep_order(plan)
        assert len(order) == len(plan.batches) + len(plan.calls)
        times = [
            plan.calls[i].time if is_query else plan.batches[i][0] for is_query, i in order
        ]
        assert times == sorted(times)
        steps = list(zip(order, times))
        for ((query_a, _), t_a), ((query_b, _), t_b) in zip(steps, steps[1:]):
            if query_a and not query_b:
                assert t_a < t_b  # a call never precedes a batch of its instant

    def test_queries_leave_every_record_unchanged(self, tiny_city_scenario):
        """Queries only read: replaying a plan with its calls leaves every
        record exactly as replaying its batches alone does, handoffs made
        while preparing the sharded engines included."""
        configs = [("distance", 50.0), ("linear", 100.0), ("map", 100.0)]
        workload = QueryWorkload(queries_per_tick=1.0, seed=3)
        plan = build_replay_plan(_lanes(tiny_city_scenario, configs), workload)
        assert plan.calls
        silent = dataclasses.replace(plan, calls=[])
        services = {}
        for name, replayed in (("queried", plan), ("silent", silent)):
            services[name] = LocationService(n_shards=4)
            replay_answers(replayed, services[name])
        queried, silent_service = services["queried"], services["silent"]
        assert queried.service_stats()["queries"] == len(plan.calls)
        assert queried.object_ids() == silent_service.object_ids()
        for object_id in queried.object_ids():
            a = queried.tracked_object(object_id)
            b = silent_service.tracked_object(object_id)
            assert a.updates_received == b.updates_received > 0
            assert a.last_update_time == b.last_update_time
            assert a.state is b.state  # both plans share their update messages
            assert np.array_equal(
                queried.predict_position(object_id, plan.end),
                silent_service.predict_position(object_id, plan.end),
            )

    def test_max_batches_truncates_ticks_and_calls(self, tiny_city_scenario):
        """A plan cut at *max_batches* ends at its last batch: no tick and no
        call lies past it."""
        lanes = lambda: _lanes(tiny_city_scenario, [("linear", 100.0), ("distance", 50.0)])
        workload = QueryWorkload(queries_per_tick=1.0, seed=2)
        full = build_replay_plan(lanes(), workload)
        cut = build_replay_plan(lanes(), workload, max_batches=5)
        assert len(full.batches) > 5
        assert [(t, [_fingerprint(oid, m) for oid, m in batch]) for t, batch in cut.batches] == [
            (t, [_fingerprint(oid, m) for oid, m in batch]) for t, batch in full.batches[:5]
        ]
        assert cut.end == cut.batches[-1][0] < full.end
        assert cut.ticks == [t for t in full.ticks if t <= cut.end]
        assert cut.calls and all(call.time <= cut.end for call in cut.calls)

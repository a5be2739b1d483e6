"""The unified observability layer: metrics, tracing, provenance.

What the obs package promises, pinned:

* **Deterministic registry** — counters/gauges/histograms/latencies, each
  flagged deterministic or not, with text and Prometheus views.
* **Nearest-rank percentiles** — one implementation
  (:func:`repro.obs.metrics.nearest_rank`) shared by the live tier and
  the benchmarks, property-tested against :mod:`statistics`.
* **No-op when disabled, inert when enabled** — the default
  :data:`~repro.obs.NO_OBS` keeps nothing and unpickles to itself, and an
  attached :class:`~repro.obs.Observability` bundle changes no result bit
  on any canonical scenario.
* **Chrome-trace export** — the tracer's JSON validates as a
  ``trace_event`` document (Perfetto-openable), and the flight recorder
  dumps readable fleet-loop events.
* **Provenance** — manifests carry the git SHA and a canonical config
  hash, and sweep artifacts embed one at the top level.
* **Live tier** — the ``metrics`` wire op answers with and without a
  bundle, and shed-load rejections log a warning.
"""

from __future__ import annotations

import asyncio
import json
import logging
import pickle
import statistics

import numpy as np
import pytest

from repro.experiments.library import FleetMix, fleet_lanes
from repro.geo.bbox import BoundingBox
from repro.obs import NO_OBS, Observability, build_manifest, config_hash, git_revision
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LatencyRecorder,
    MetricsRegistry,
    nearest_rank,
)
from repro.obs.trace import FlightRecorder, SpanTracer, validate_chrome_trace
from repro.service.facade import LocationService
from repro.service.live import stats as live_stats
from repro.service.live.server import LiveLocationServer
from repro.sim.fleet import FleetSimulation
from repro.sim.runner import ScenarioSpec, SweepRunner, read_artifact


# --------------------------------------------------------------------------- #
# nearest-rank percentiles
# --------------------------------------------------------------------------- #
class TestNearestRank:
    def test_p50_is_median_low(self):
        for n in (1, 2, 3, 7, 10, 101):
            ordered = sorted(float(v) for v in range(n))
            assert nearest_rank(ordered, 50.0) == statistics.median_low(ordered)

    def test_result_is_always_a_sample(self):
        ordered = sorted([0.3, 1.7, 2.2, 9.9, 4.1, 4.1])
        for q in (1, 10, 25, 50, 75, 90, 99, 100):
            assert nearest_rank(ordered, float(q)) in ordered

    def test_monotone_in_q_and_brackets_statistics_quantiles(self):
        rng = np.random.default_rng(7)
        ordered = sorted(rng.uniform(0.0, 100.0, size=37).tolist())
        qs = [5.0, 25.0, 50.0, 75.0, 95.0, 100.0]
        ranks = [nearest_rank(ordered, q) for q in qs]
        assert ranks == sorted(ranks)
        # The interpolating quantiles never land outside neighbouring
        # samples, so nearest-rank can differ by at most one sample gap.
        cuts = statistics.quantiles(ordered, n=4, method="inclusive")
        gap = max(b - a for a, b in zip(ordered, ordered[1:]))
        for interpolated, q in zip(cuts, (25.0, 50.0, 75.0)):
            assert abs(nearest_rank(ordered, q) - interpolated) <= gap

    def test_p100_is_max_and_bounds_are_enforced(self):
        ordered = [1.0, 2.0, 3.0]
        assert nearest_rank(ordered, 100.0) == 3.0
        assert nearest_rank([], 50.0) == 0.0
        for bad in (0.0, -1.0, 100.1):
            with pytest.raises(ValueError):
                nearest_rank(ordered, bad)


class TestStatsReExport:
    def test_live_stats_is_the_shared_implementation(self):
        assert live_stats.LatencyRecorder is LatencyRecorder
        assert live_stats.nearest_rank is nearest_rank


# --------------------------------------------------------------------------- #
# instruments and the registry
# --------------------------------------------------------------------------- #
class TestInstruments:
    def test_counter_inc(self):
        a = Counter()
        a.inc()
        a.inc(4)
        assert a.value == 5

    def test_gauge_modes(self):
        high = Gauge(mode="max")
        for v in (3.0, 9.0, 5.0):
            high.set(v)
        assert high.value == 9.0
        low = Gauge(mode="min")
        for v in (3.0, 9.0, 5.0):
            low.set(v)
        assert low.value == 3.0
        total = Gauge(mode="sum")
        for v in (3.0, 9.0, 5.0):
            total.set(v)
        assert total.value == 17.0
        with pytest.raises(ValueError):
            Gauge(mode="last")

    def test_histogram_buckets(self):
        h = Histogram(bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 3.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == [[1.0, 2], [10.0, 1], ["+inf", 1]]
        assert (snap["min"], snap["max"]) == (0.5, 100.0)
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_latency_summary_is_merge_order_invariant(self):
        samples_a = [0.004, 0.001, 0.009]
        samples_b = [0.002, 0.030]
        ab = LatencyRecorder(samples_a)
        ab.merge(LatencyRecorder(samples_b))
        ba = LatencyRecorder(samples_b)
        ba.merge(LatencyRecorder(samples_a))
        assert ab.summary() == ba.summary()
        assert set(ab.summary()) == {
            "count", "avg_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms",
        }

    def test_registry_rejects_kind_clashes(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")


def _registry(spec):
    """A registry from ``{name: value}`` (counters) plus one gauge + latency."""
    registry = MetricsRegistry()
    for name, value in spec.items():
        registry.counter(name).inc(value)
    registry.gauge("g", mode="max").set(max(spec.values(), default=0))
    lat = registry.latency("lat")
    for value in spec.values():
        lat.record(value / 1000.0)
    return registry


class TestRegistryViews:
    def test_prometheus_exposition(self):
        registry = _registry({"a": 3, "b": 5})
        registry.histogram("hist", bounds=(1.0, 2.0)).observe(1.5)
        text = registry.to_prometheus()
        assert "# TYPE repro_a counter" in text
        assert 'repro_hist_bucket{le="2"' in text or 'le="2.0"' in text
        assert "repro_lat{quantile" in text


# --------------------------------------------------------------------------- #
# fleet integration: the bundle changes no result bit
# --------------------------------------------------------------------------- #
def _library_fleet(mix_text, obs=NO_OBS, shards=1, scale=0.1, seed=11):
    lanes = fleet_lanes([FleetMix.parse(mix_text)], scale=scale, seed=seed)
    server = LocationService(n_shards=shards) if shards > 1 else None
    return FleetSimulation(lanes, server=server, obs=obs)


def _rows_and_errors(result):
    rows = {oid: r.as_dict() for oid, r in result.results.items()}
    errors = {oid: r.metrics.errors for oid, r in result.results.items()}
    return rows, errors


def _assert_identical(result_a, result_b):
    rows_a, err_a = _rows_and_errors(result_a)
    rows_b, err_b = _rows_and_errors(result_b)
    assert list(rows_a) == list(rows_b)
    assert rows_a == rows_b
    for oid in rows_a:
        assert np.array_equal(err_a[oid], err_b[oid])


class TestFleetObservability:
    @pytest.mark.parametrize(
        "mix_text",
        [
            "freeway:linear:100:3",
            "interurban:linear:100:3",
            "city:linear:100:3",
            "walking:linear:50:3",
            "city:time:150:3",
        ],
    )
    def test_obs_changes_no_result_bit(self, mix_text):
        plain = _library_fleet(mix_text).run()
        observed_bundle = Observability()
        observed = _library_fleet(mix_text, obs=observed_bundle).run()
        _assert_identical(plain, observed)
        # ... and the bundle actually saw the run.
        snapshot = observed_bundle.registry.snapshot()
        assert snapshot["sim.lanes"]["value"] == 3
        assert snapshot["sim.updates_sent"]["value"] == sum(
            r.updates for r in observed.results.values()
        )
        # Event counts: every sighting, every on_timer fire (each fire of a
        # time-based lane sends its report), every update delivered.
        def value(name):
            return snapshot.get(name, {"value": 0})["value"]

        assert value("kernel.events.sample") == value("sim.samples")
        assert value("kernel.events.timer") == value("sim.update_reason.timer")
        assert value("kernel.events.delivery") == value("sim.updates_sent")

    def test_sharded_run_publishes_deterministic_service_stats(self):
        obs = Observability()
        result = _library_fleet("city:linear:100:6", obs=obs, shards=4).run()
        deterministic = obs.registry.snapshot(deterministic_only=True)
        assert "kernel.events.sample" in deterministic
        assert deterministic["service.handoffs"]["value"] == result.service_stats["handoffs"]
        assert any(name.startswith("service.shard.") for name in deterministic)


def _assert_holds_nothing(bundle):
    """The disabled bundle has no state of its own and reports empty views."""
    assert bundle is NO_OBS and not bundle.enabled
    assert not hasattr(bundle, "__dict__")
    for slot in Observability.__slots__:
        with pytest.raises(AttributeError):
            getattr(Observability, slot).__get__(bundle)
    assert bundle.report() == {"metrics": {}, "deterministic_metrics": {}}
    assert len(bundle.tracer) == 0 and len(bundle.flight) == 0


class TestDisabledBundle:
    def test_unpickles_to_the_singleton(self):
        assert pickle.loads(pickle.dumps(NO_OBS)) is NO_OBS

    def test_instruments_and_spans_are_shared_no_ops(self):
        with NO_OBS.span("phase", args={"k": 1}) as span:
            span.args["tasks"] = 3
        assert span is NO_OBS.span("other") is NO_OBS.counter("c")
        assert span.args == {}
        assert span.close() == 0.0
        NO_OBS.counter("c").inc(5)
        NO_OBS.gauge("g", mode="sum").set(2.0)
        NO_OBS.histogram("h", bounds=(1.0,)).observe(0.5)
        NO_OBS.latency("l").record(0.1)
        NO_OBS.latency("l").merge(LatencyRecorder([0.2]))
        NO_OBS.registry.counter("scratch").inc()
        _assert_holds_nothing(NO_OBS)

    def test_runs_without_obs_record_nothing(self):
        fleet = _library_fleet("city:linear:100:6", shards=4)
        assert fleet.obs is NO_OBS
        fleet.run()
        # The facade queries run against the populated service.
        service = fleet.server
        assert service.obs is NO_OBS
        t = 60.0
        centre = service.predict_position(service.object_ids()[0], t)
        assert service.range_query(BoundingBox.around(centre, 5000.0), t)
        assert service.nearest_objects(centre, t, k=3)
        assert service.geofence_query(centre, 5000.0, t)
        _assert_holds_nothing(NO_OBS)


# --------------------------------------------------------------------------- #
# tracing and the flight recorder
# --------------------------------------------------------------------------- #
class TestTracing:
    def test_span_nesting_and_chrome_export(self):
        tracer = SpanTracer()
        with tracer.span("outer", cat="test", args={"k": 1}):
            with tracer.span("inner", cat="test"):
                pass
        tracer.instant("marker", cat="test")
        payload = tracer.to_chrome()
        assert validate_chrome_trace(payload) == []
        names = [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
        # Spans close inner-first.
        assert names == ["inner", "outer"]
        durations = [e["dur"] for e in payload["traceEvents"] if e["ph"] == "X"]
        assert all(d >= 0 for d in durations)

    def test_validate_rejects_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Q"}]}) != []

    def test_flight_recorder_is_bounded_and_readable(self):
        flight = FlightRecorder(4)
        for seq in range(10):
            flight.note(float(seq), 0, seq)
        dumped = flight.dump()
        assert len(dumped) == 4
        assert [d["seq"] for d in dumped] == [6, 7, 8, 9]
        assert dumped[0]["kind"] == "sample"

    def test_dump_flight_logs_the_ring(self, caplog):
        obs = Observability(flight_capacity=8)
        obs.flight.note(1.0, 1, 42)
        with caplog.at_level(logging.ERROR, logger="repro.obs"):
            count = obs.dump_flight(reason="unit test")
        assert count == 1
        assert "flight recorder" in caplog.text
        assert "timer" in caplog.text


# --------------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------------- #
class TestProvenance:
    def test_git_revision_in_this_repo(self):
        revision = git_revision()
        assert revision["sha"] is None or len(revision["sha"]) == 40

    def test_config_hash_is_canonical(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_build_manifest_fields(self):
        manifest = build_manifest(seed=7, config={"x": 1}, timings={"wall": 1.25})
        assert manifest["schema"] == 1
        assert manifest["seed"] == 7
        assert manifest["config_hash"] == config_hash({"x": 1})
        assert manifest["timings"] == {"wall": 1.25}
        assert isinstance(manifest["python"], str)

    def test_sweep_artifacts_carry_provenance(self, tmp_path):
        runner = SweepRunner()
        points = runner.run_config_sweep(
            ScenarioSpec(name="freeway", scale=0.05, seed=0), "linear", [100.0]
        )
        written = runner.write_artifacts(
            points, "obs_prov", out_dir=str(tmp_path), metadata={"scale": 0.05}
        )
        payload = json.loads((tmp_path / "obs_prov.json").read_text())
        assert payload["metadata"] == {"scale": 0.05}
        provenance = payload["provenance"]
        assert "config_hash" in provenance and "git" in provenance
        # read_artifact still round-trips (provenance rides along).
        parsed = read_artifact(written["json"])
        assert parsed["points"] == payload["points"]


# --------------------------------------------------------------------------- #
# the observability bundle end-to-end
# --------------------------------------------------------------------------- #
class TestObservabilityWrite:
    def test_write_produces_valid_artifacts(self, tmp_path):
        obs = Observability()
        obs.counter("demo").inc(3)
        with obs.span("phase", cat="test"):
            pass
        paths = obs.write(tmp_path, seed=5, config={"kind": "unit"})
        assert sorted(paths) == ["manifest", "metrics", "trace"]
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["metrics"]["demo"]["value"] == 3
        assert "prometheus" in metrics
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 5


# --------------------------------------------------------------------------- #
# live server: metrics op and shed-load logging
# --------------------------------------------------------------------------- #
class TestLiveServerObservability:
    def test_metrics_op_without_a_bundle(self):
        server = LiveLocationServer()
        server.op_counts["ping"] = 3
        response = server._handle_metrics()
        assert response["ok"] and response["enabled"] is False
        snapshot = response["metrics"]
        assert snapshot["live.server.op_count.ping"]["value"] == 3
        assert "repro_live_server_enqueued_seq" in response["prometheus"]

    def test_metrics_op_with_a_bundle_serves_the_shared_registry(self):
        obs = Observability()
        server = LiveLocationServer(obs=obs)
        obs.counter("live.ingest.accepted", deterministic=False).inc(4)
        response = server._handle_metrics()
        assert response["enabled"] is True
        assert response["metrics"]["live.ingest.accepted"]["value"] == 4
        # The bundle is shared with the facade.
        assert server.service.obs is obs

    def test_shed_load_logs_a_warning_and_counts(self, caplog):
        async def go():
            obs = Observability()
            server = LiveLocationServer(ingest_queue_size=1, obs=obs)
            server.service.register_object("o1")
            server._queue = asyncio.Queue(maxsize=1)
            await server._queue.put("occupied")
            request = {"op": "ingest", "t": 0.0, "updates": [], "wait": False}
            with caplog.at_level(logging.WARNING, logger="repro.service.live.server"):
                response = await server._handle_ingest(request)
            assert response["rejected"] is True
            assert "queue full" in caplog.text
            assert obs.registry.snapshot()["live.ingest.rejected"]["value"] == 1

        asyncio.run(go())


# --------------------------------------------------------------------------- #
# cache corruption logs a warning (no longer silent)
# --------------------------------------------------------------------------- #
class TestCacheWarnings:
    def test_corrupt_cache_entry_warns_and_rebuilds(self, tmp_path, caplog):
        from repro.ingest.cache import _from_cache_file

        entry = tmp_path / "broken.json"
        entry.write_text("{not json", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.ingest.cache"):
            assert _from_cache_file(entry, index_cell_size=250.0) is None
        assert "corrupt compiled-map cache entry" in caplog.text


# --------------------------------------------------------------------------- #
# CLI: --obs-dir and obs-report
# --------------------------------------------------------------------------- #
class TestObsCli:
    def test_fleet_obs_dir_then_obs_report(self, tmp_path, capsys):
        from repro.cli import main

        obs_dir = tmp_path / "obs"
        code = main([
            "fleet",
            "--mix", "freeway:linear:200:2",
            "--scale", "0.05",
            "--obs-dir", str(obs_dir),
        ])
        assert code == 0
        for name in ("metrics.json", "trace.json", "manifest.json"):
            assert (obs_dir / name).exists()
        trace = json.loads((obs_dir / "trace.json").read_text())
        assert validate_chrome_trace(trace) == []
        capsys.readouterr()
        assert main(["obs-report", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "Provenance" in out and "Metrics" in out and "valid" in out

    def test_obs_report_rejects_an_empty_directory(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs-report", str(tmp_path)]) == 2

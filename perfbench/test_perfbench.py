"""Self-test of the benchmark: its checks catch perturbed outputs, its tracer
computes self time and request attribution correctly, and ``BENCHMARK.json``
agrees with the code.

Runs on shrunken workloads (a few seconds in total):
``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import city_fleet, layers, map_to_route, paper_sweep, serve_mix
from perfbench.harness import END_TO_END
from perfbench.layers import LayerTracer, _union_length, extract, live_breakdown
from perfbench.run import WORKLOADS
from perfbench.tracer import Tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
MODULES = {"paper_sweep": paper_sweep, "city_fleet": city_fleet,
           "serve_mix": serve_mix, "map_to_route": map_to_route}


# --------------------------------------------------------------------------- #
# BENCHMARK.json <-> code
# --------------------------------------------------------------------------- #
def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for name, module in MODULES.items():
        assert module.NAME == name
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert dict(END_TO_END)["setup_s"] == "s"
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (row[0], row[1]) for row in layers.LAYER_METRICS
    ]


# --------------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------------- #
class _Layer:
    @staticmethod
    def leaf(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    @classmethod
    def parent(cls, seconds):
        cls.leaf(seconds)
        cls.leaf(seconds)
        _Layer.leaf(seconds)


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    tracer.wrap(_Layer, "leaf", "leaf", span=True)
    tracer.wrap(_Layer, "parent", "parent", span=True)
    try:
        _Layer.parent(0.002)
    finally:
        tracer.restore()
    assert not hasattr(_Layer.leaf, "__wrapped__")
    leaf, parent = tracer.aggregates["leaf"], tracer.aggregates["parent"]
    assert leaf.calls == 3 and parent.calls == 1
    assert leaf.self_time == pytest.approx(leaf.total)
    assert parent.self_time == pytest.approx(parent.total - leaf.total)
    spans = {name: (parent_index, self_time) for name, _s, _d, self_time, parent_index, _r
             in tracer.spans}
    parent_index = next(i for i, span in enumerate(tracer.spans) if span[0] == "parent")
    assert spans["leaf"][0] == parent_index
    from repro.obs import validate_chrome_trace

    assert validate_chrome_trace(tracer.chrome()) == []


def test_union_length_clips_and_merges():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (-1.0, 0.5)]
    assert _union_length(intervals, 0.0, 5.5) == pytest.approx(3.5)
    assert _union_length([], 0.0, 1.0) == 0.0


# --------------------------------------------------------------------------- #
# correctness checks catch perturbed outputs
# --------------------------------------------------------------------------- #
def test_paper_sweep_check_catches_perturbation(monkeypatch):
    monkeypatch.setattr(paper_sweep, "SCENARIOS", ("freeway",))
    monkeypatch.setattr(paper_sweep, "SCALE", 0.05)
    monkeypatch.setattr(paper_sweep, "SETUP_REPEATS", 1)
    monkeypatch.setattr(paper_sweep, "MIN_PASSES", 1)
    specs = paper_sweep.make_inputs(3, 1)
    measured = paper_sweep.measure(specs, 0)
    assert set(measured.metrics) == set(dict(END_TO_END))
    checks, problems = paper_sweep.check(specs, measured)
    assert checks > 0 and problems == []
    sweeps = {protocol: points for _spec, protocol, points in measured.outputs}
    sweeps["distance"][0].result.metrics.record_batch([1e6])
    assert len(paper_sweep.check(specs, measured)[1]) == 1
    sweeps["map"][0].result.updates = 10**9
    assert len(paper_sweep.check(specs, measured)[1]) == 2


def test_city_fleet_check_catches_perturbation(monkeypatch):
    monkeypatch.setattr(city_fleet, "N_OBJECTS", 120)
    monkeypatch.setattr(city_fleet, "N_SAMPLES", 60)
    monkeypatch.setattr(city_fleet, "CHECK_LANES", 6)
    inputs = city_fleet.make_inputs(3, 1)
    measured = city_fleet.measure(inputs, 0)
    assert set(measured.metrics) == set(dict(END_TO_END))
    assert city_fleet.check(inputs, measured) == (6, [])
    _row, errors = next(iter(measured.outputs.values()))
    errors[5] = np.nextafter(errors[5], np.inf)
    assert len(city_fleet.check(inputs, measured)[1]) == 1


def test_serve_mix_check_catches_perturbation(monkeypatch):
    monkeypatch.setattr(serve_mix, "N_OBJECTS", 60)
    monkeypatch.setattr(serve_mix, "SETUP_REPEATS", 2)
    monkeypatch.setattr(serve_mix, "CHECK_QUERIES", 10**6)
    plan = serve_mix.make_inputs(3, 1)
    measured = serve_mix.measure(plan, 1)
    assert set(measured.metrics) == set(dict(END_TO_END))
    assert measured.failed == 0
    checks, problems = serve_mix.check(plan, measured)
    assert checks == len(plan.calls) > 0 and problems == []
    records = measured.outputs.query_records
    call_index, at_seq, answer = records[-1]
    records[-1] = (call_index, at_seq, list(answer) + ["obj/999999"])
    assert len(serve_mix.check(plan, measured)[1]) == 1


def test_map_to_route_check_catches_perturbation(monkeypatch):
    monkeypatch.setattr(map_to_route, "TOWN_SIZE", 8)
    monkeypatch.setattr(map_to_route, "SETUP_REPEATS", 1)
    monkeypatch.setattr(map_to_route, "CHECK_ROUTES", 20)
    inputs = map_to_route.make_inputs(3, 1)
    measured = map_to_route.measure(inputs, 1)
    assert set(measured.metrics) == set(dict(END_TO_END))
    assert measured.failed == 0
    checks, problems = map_to_route.check(inputs, measured)
    assert checks > 0 and problems == []
    _roadmap, paths = measured.outputs
    pair = next(iter(paths))
    cost, tie, links = paths[pair]
    paths[pair] = (cost * (1 + 1e-12), tie, links)
    assert len(map_to_route.check(inputs, measured)[1]) == 1


# --------------------------------------------------------------------------- #
# traced run: request attribution and per-layer extraction
# --------------------------------------------------------------------------- #
def test_traced_serve_run_attributes_every_request(monkeypatch):
    from repro.service.facade import LocationService

    monkeypatch.setattr(serve_mix, "N_OBJECTS", 60)
    plan = serve_mix.make_inputs(4, 1)
    prepare = LocationService.prepare
    setup_tracer = LayerTracer()
    run_tracer = LayerTracer(origin=setup_tracer.origin)
    traced = serve_mix.measure(plan, 1, tracers=(setup_tracer, run_tracer))
    assert serve_mix.check(plan, traced)[1] == []
    live = live_breakdown(run_tracer.live)
    requests = len(plan.batches) + len(plan.calls)
    assert live["requests"] == requests
    assert live["mismatched_ids"] == 0 and live["misattributed_ingests"] == 0
    assert all(u >= 0 for kind in live["unattributed"].values() for u in kind)
    values = extract(setup_tracer, run_tracer, traced.setups, traced.passes, 0.0)
    assert values["service.facade.prepare_ms_p50"] > 0
    assert values["service.live.codec_us_per_request"] > 0
    assert values["protocols.map.us_per_sighting"] == 0.0
    assert LocationService.prepare is prepare

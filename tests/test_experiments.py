"""Unit tests for the experiment harness (tables, figures, ablations, report)."""

import json

import numpy as np
import pytest

from repro.experiments import report
from repro.experiments.figures import (
    FIGURE_PROTOCOLS,
    FigureResult,
    FigureSeries,
    figure_for_scenario,
    route_update_counts,
)
from repro.experiments.scenarios import clear_scenario_cache, get_scenario
from repro.experiments.tables import PAPER_TABLE1, table1
from repro.mobility.scenarios import ScenarioName
from repro.sim.metrics import AccuracyMetrics, SimulationResult
from repro.sim.runner import SweepPoint


def make_point(us, updates_per_hour):
    result = SimulationResult(
        protocol_name="p", accuracy=us, duration_h=1.0,
        updates=int(updates_per_hour), bytes_sent=0, metrics=AccuracyMetrics(),
    )
    return SweepPoint(accuracy=us, result=result)


def make_figure():
    series = {
        "distance": FigureSeries(
            "distance", "distance-based reporting",
            [make_point(50.0, 200.0), make_point(100.0, 100.0)],
        ),
        "linear": FigureSeries(
            "linear", "linear-pred dr",
            [make_point(50.0, 80.0), make_point(100.0, 50.0)],
        ),
        "map": FigureSeries(
            "map", "map-based dr",
            [make_point(50.0, 40.0), make_point(100.0, 20.0)],
        ),
    }
    return FigureResult(scenario_name="freeway", description="test", series=series)


class TestFigureDataStructures:
    def test_relative_series(self):
        figure = make_figure()
        relative = figure.relative_series()
        assert relative["linear"] == [pytest.approx(40.0), pytest.approx(50.0)]
        assert relative["map"] == [pytest.approx(20.0), pytest.approx(20.0)]

    def test_reduction_vs_baseline(self):
        figure = make_figure()
        assert figure.reduction_vs_baseline("linear") == pytest.approx(60.0)
        assert figure.reduction_vs_baseline("map") == pytest.approx(80.0)

    def test_reduction_between(self):
        figure = make_figure()
        assert figure.reduction_between("map", "linear") == pytest.approx(60.0)

    def test_as_rows(self):
        rows = make_figure().as_rows()
        assert len(rows) == 2
        assert rows[0]["us [m]"] == 50.0
        assert any("map-based dr" in key for key in rows[0])

    def test_zero_baseline_handled(self):
        series = {
            "distance": FigureSeries("distance", "d", [make_point(50.0, 0.0)]),
            "linear": FigureSeries("linear", "l", [make_point(50.0, 0.0)]),
            "map": FigureSeries("map", "m", [make_point(50.0, 0.0)]),
        }
        figure = FigureResult("x", "x", series)
        assert figure.relative_series()["linear"] == [0.0]
        assert figure.reduction_between("map", "linear") == 0.0

    def test_empty_sweep_has_no_reduction(self):
        series = {pid: FigureSeries(pid, pid, []) for pid in ("distance", "linear", "map")}
        assert FigureResult("x", "x", series).reduction_vs_baseline("map") == 0.0


class TestRouteUpdateCounts:
    def test_map_protocol_sends_fewer_updates_on_the_same_route(self):
        clear_scenario_cache()
        try:
            results = route_update_counts(scale=0.05, accuracy=200.0)
        finally:
            clear_scenario_cache()
        assert set(results) == {"linear", "map"}
        linear, mapped = results["linear"], results["map"]
        assert linear.duration_h == mapped.duration_h > 0.0
        assert 0 < mapped.updates < linear.updates


class TestFigureForScenario:
    def test_series_structure(self, tiny_freeway_scenario):
        figure = figure_for_scenario(
            tiny_freeway_scenario, accuracies=[100.0, 300.0]
        )
        assert set(figure.series) == set(FIGURE_PROTOCOLS)
        for series in figure.series.values():
            assert series.accuracies == [100.0, 300.0]
            assert all(u >= 0 for u in series.updates_per_hour)

    def test_protocol_ordering_freeway(self, tiny_freeway_scenario):
        figure = figure_for_scenario(tiny_freeway_scenario, accuracies=[100.0])
        distance = figure.series["distance"].updates_per_hour[0]
        linear = figure.series["linear"].updates_per_hour[0]
        mapped = figure.series["map"].updates_per_hour[0]
        assert mapped < linear < distance


class TestTables:
    def test_paper_reference_values_present(self):
        assert set(PAPER_TABLE1) == {s.value for s in ScenarioName}
        for values in PAPER_TABLE1.values():
            assert values["length_km"] > 0

    def test_table1_structure(self):
        clear_scenario_cache()
        rows = table1(scale=0.04)
        assert len(rows) == 4
        for row in rows:
            d = row.as_dict()
            assert d["length [km]"] > 0
            assert d["avg speed [km/h]"] > 0
        clear_scenario_cache()

    def test_table1_speeds_are_intensive(self):
        clear_scenario_cache()
        rows = {r.scenario: r for r in table1(scale=0.04)}
        freeway = rows["car on a freeway"]
        walking = rows["walking person"]
        # Average speeds should be in the right ballpark regardless of scale.
        assert freeway.measured.average_speed_kmh == pytest.approx(
            freeway.paper["average_speed_kmh"], rel=0.25
        )
        assert walking.measured.average_speed_kmh == pytest.approx(
            walking.paper["average_speed_kmh"], rel=0.35
        )
        clear_scenario_cache()


class TestScenarioCache:
    def test_cache_returns_same_object(self):
        clear_scenario_cache()
        a = get_scenario(ScenarioName.WALKING, scale=0.05)
        b = get_scenario("walking", scale=0.05)
        assert a is b
        clear_scenario_cache()
        c = get_scenario(ScenarioName.WALKING, scale=0.05)
        assert c is not a
        clear_scenario_cache()


class TestReport:
    def test_format_table(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = report.format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 2 + 1 + len(rows)

    def test_format_table_empty(self):
        assert "(no data)" in report.format_table([], title="empty")

    def test_format_series_chart(self):
        chart = report.format_series_chart(
            [10.0, 20.0, 30.0],
            {"one": [1.0, 2.0, 3.0], "two": [3.0, 2.0, 1.0]},
            width=20,
            height=5,
        )
        assert "one" in chart and "two" in chart
        assert "us [m]" in chart

    def test_format_series_chart_empty(self):
        assert report.format_series_chart([], {}) == "(no data)"

    def test_to_json_handles_numpy(self):
        data = {"value": np.float64(1.5), "array": np.array([1.0, 2.0])}
        parsed = json.loads(report.to_json(data))
        assert parsed["value"] == 1.5
        assert parsed["array"] == [1.0, 2.0]

    def test_to_json_uses_as_dict_and_numpy_scalars(self):
        class Row:
            def as_dict(self):
                return {"count": np.int64(3)}

        assert json.loads(report.to_json({"row": Row()})) == {"row": {"count": 3}}

    def test_to_json_rejects_unknown(self):
        with pytest.raises(TypeError):
            report.to_json({"x": object()})

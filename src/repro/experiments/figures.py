"""Figures 3/6 and 7-10: protocol comparison across requested accuracies.

Each of the paper's Figures 7-10 shows, for one movement scenario, the
number of update messages per hour (left plot) and the same numbers relative
to the non-dead-reckoning distance-based protocol (right plot), for requested
accuracies between 20 m and 500 m (250 m for the walking scenario).
:func:`figure_for_scenario` computes both plots' data; ``figure7`` ...
``figure10`` bind it to the individual scenarios.

Figures 3 and 6 of the paper are simulator screenshots showing the updates
generated on one particular route by the linear-prediction and the map-based
protocol; :func:`route_update_counts` reproduces their quantitative content
(the update counts for the same route and the same requested accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.scenarios import get_scenario
from repro.mobility.scenarios import Scenario, ScenarioName
from repro.sim.config import SimulationConfig
from repro.sim.fleet import run_simulation
from repro.sim.metrics import SimulationResult
from repro.sim.runner import ScenarioSpec, SweepPoint, SweepRunner, SweepTask

#: Protocols plotted in Figures 7-10, in the paper's order.
FIGURE_PROTOCOLS = ("distance", "linear", "map")

#: Display names matching the figure legends of the paper.
PROTOCOL_LABELS = {
    "distance": "distance-based reporting",
    "linear": "linear-pred dr",
    "map": "map-based dr",
}


@dataclass
class FigureSeries:
    """One curve of a figure: a protocol's updates/hour over the accuracy sweep."""

    protocol_id: str
    label: str
    points: List[SweepPoint]

    @property
    def accuracies(self) -> List[float]:
        """The x axis: requested accuracy ``us`` in metres."""
        return [p.accuracy for p in self.points]

    @property
    def updates_per_hour(self) -> List[float]:
        """The left-plot y axis: update messages per hour."""
        return [p.updates_per_hour for p in self.points]

    def relative_to(self, baseline: "FigureSeries") -> List[float]:
        """The right-plot y axis: percentage of the baseline's update count."""
        out: List[float] = []
        for mine, theirs in zip(self.points, baseline.points):
            if theirs.updates_per_hour <= 0:
                out.append(0.0)
            else:
                out.append(100.0 * mine.updates_per_hour / theirs.updates_per_hour)
        return out


@dataclass
class FigureResult:
    """All data of one of the paper's Figures 7-10."""

    scenario_name: str
    description: str
    series: Dict[str, FigureSeries]

    @property
    def baseline(self) -> FigureSeries:
        """The distance-based reporting curve (the 100% reference)."""
        return self.series["distance"]

    def relative_series(self) -> Dict[str, List[float]]:
        """Right-hand plot: every protocol as a percentage of the baseline."""
        return {
            protocol_id: series.relative_to(self.baseline)
            for protocol_id, series in self.series.items()
        }

    def reduction_vs_baseline(self, protocol_id: str) -> float:
        """Largest reduction (%) of *protocol_id* against the baseline over the sweep."""
        relative = self.series[protocol_id].relative_to(self.baseline)
        if not relative:
            return 0.0
        return 100.0 - min(relative)

    def reduction_between(self, protocol_id: str, reference_id: str) -> float:
        """Largest reduction (%) of one protocol against another over the sweep."""
        target = self.series[protocol_id]
        reference = self.series[reference_id]
        best = 0.0
        for mine, theirs in zip(target.points, reference.points):
            if theirs.updates_per_hour <= 0:
                continue
            reduction = 100.0 * (1.0 - mine.updates_per_hour / theirs.updates_per_hour)
            best = max(best, reduction)
        return best

    def as_rows(self) -> List[Dict[str, object]]:
        """Tabular form: one row per requested accuracy with every protocol's value."""
        rows: List[Dict[str, object]] = []
        accuracies = self.baseline.accuracies
        relative = self.relative_series()
        for i, us in enumerate(accuracies):
            row: Dict[str, object] = {"us [m]": us}
            for protocol_id, series in self.series.items():
                row[f"{series.label} [upd/h]"] = round(series.updates_per_hour[i], 1)
            for protocol_id, series in self.series.items():
                if protocol_id == "distance":
                    continue
                row[f"{series.label} [% of baseline]"] = round(relative[protocol_id][i], 1)
            rows.append(row)
        return rows


# --------------------------------------------------------------------------- #
# figure runners
# --------------------------------------------------------------------------- #
def figure_for_scenario(
    scenario: Union[Scenario, ScenarioSpec],
    protocol_ids: Sequence[str] = FIGURE_PROTOCOLS,
    accuracies: Optional[Sequence[float]] = None,
    runner: Optional[SweepRunner] = None,
) -> FigureResult:
    """Compute the Figure 7-10 data for an arbitrary scenario.

    Given a :class:`~repro.sim.runner.ScenarioSpec`, all protocol × accuracy
    points are submitted to the runner as one flat task batch, so a parallel
    runner spreads the whole figure over its workers; a plain
    :class:`Scenario` runs in-process.
    """
    runner = runner or SweepRunner()
    if isinstance(scenario, ScenarioSpec):
        built = scenario.build()
        us_values = list(accuracies if accuracies is not None else built.us_values)
        pairs = [(protocol_id, us) for protocol_id in protocol_ids for us in us_values]
        tasks = [
            SweepTask(
                scenario=scenario,
                config=SimulationConfig(protocol_id=protocol_id, accuracy=float(us)),
            )
            for protocol_id, us in pairs
        ]
        points = runner.run_tasks(tasks)
        per_protocol: Dict[str, List[SweepPoint]] = {pid: [] for pid in protocol_ids}
        for (protocol_id, _us), point in zip(pairs, points):
            per_protocol[protocol_id].append(point)
    else:
        built = scenario
        per_protocol = {
            protocol_id: runner.run_config_sweep(scenario, protocol_id, accuracies)
            for protocol_id in protocol_ids
        }
    series: Dict[str, FigureSeries] = {
        protocol_id: FigureSeries(
            protocol_id=protocol_id,
            label=PROTOCOL_LABELS.get(protocol_id, protocol_id),
            points=per_protocol[protocol_id],
        )
        for protocol_id in protocol_ids
    }
    return FigureResult(
        scenario_name=built.key,
        description=built.description,
        series=series,
    )


def _figure(
    name: ScenarioName,
    scale: float,
    accuracies: Optional[Sequence[float]],
    jobs: int,
    runner: Optional[SweepRunner],
) -> FigureResult:
    spec = ScenarioSpec(name=name.value, scale=float(scale))
    if runner is not None:
        return figure_for_scenario(spec, accuracies=accuracies, runner=runner)
    with SweepRunner(jobs=jobs) as owned:
        return figure_for_scenario(spec, accuracies=accuracies, runner=owned)


def figure7(
    scale: float = 1.0,
    accuracies: Optional[Sequence[float]] = None,
    jobs: int = 1,
    runner: Optional[SweepRunner] = None,
) -> FigureResult:
    """Fig. 7 — freeway traffic."""
    return _figure(ScenarioName.FREEWAY, scale, accuracies, jobs, runner)


def figure8(
    scale: float = 1.0,
    accuracies: Optional[Sequence[float]] = None,
    jobs: int = 1,
    runner: Optional[SweepRunner] = None,
) -> FigureResult:
    """Fig. 8 — inter-urban traffic."""
    return _figure(ScenarioName.INTERURBAN, scale, accuracies, jobs, runner)


def figure9(
    scale: float = 1.0,
    accuracies: Optional[Sequence[float]] = None,
    jobs: int = 1,
    runner: Optional[SweepRunner] = None,
) -> FigureResult:
    """Fig. 9 — city traffic."""
    return _figure(ScenarioName.CITY, scale, accuracies, jobs, runner)


def figure10(
    scale: float = 1.0,
    accuracies: Optional[Sequence[float]] = None,
    jobs: int = 1,
    runner: Optional[SweepRunner] = None,
) -> FigureResult:
    """Fig. 10 — walking person."""
    return _figure(ScenarioName.WALKING, scale, accuracies, jobs, runner)


def route_update_counts(
    scale: float = 1.0, accuracy: float = 200.0, scenario_name: ScenarioName = ScenarioName.FREEWAY
) -> Dict[str, SimulationResult]:
    """Figures 3 and 6: updates generated on one route at one accuracy.

    The paper's screenshots show 9 updates with linear prediction and 3 with
    the map-based protocol on the same freeway stretch; the interesting
    quantity is the ratio, which this experiment reports for the full
    scenario route.
    """
    scenario = get_scenario(scenario_name, scale=scale)
    out: Dict[str, SimulationResult] = {}
    for protocol_id in ("linear", "map"):
        protocol = SimulationConfig(protocol_id=protocol_id, accuracy=accuracy).build_protocol(
            scenario
        )
        out[protocol_id] = run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)
    return out


def headline_reductions(
    scale: float = 1.0, jobs: int = 1, runner: Optional[SweepRunner] = None
) -> Dict[str, Dict[str, float]]:
    """The reductions quoted in the paper's abstract and Section 4.

    Returns, per scenario, the maximum reduction of linear-prediction DR
    versus distance-based reporting, of map-based DR versus linear DR, and
    of map-based DR versus distance-based reporting (the paper quotes up to
    83%, 60% and 91% respectively).
    """
    if runner is None:
        with SweepRunner(jobs=jobs) as owned:
            return headline_reductions(scale=scale, runner=owned)
    out: Dict[str, Dict[str, float]] = {}
    for name, figure_runner in (
        (ScenarioName.FREEWAY, figure7),
        (ScenarioName.INTERURBAN, figure8),
        (ScenarioName.CITY, figure9),
        (ScenarioName.WALKING, figure10),
    ):
        figure = figure_runner(scale=scale, runner=runner)
        out[name.value] = {
            "linear_vs_distance_pct": round(figure.reduction_vs_baseline("linear"), 1),
            "map_vs_linear_pct": round(figure.reduction_between("map", "linear"), 1),
            "map_vs_distance_pct": round(figure.reduction_vs_baseline("map"), 1),
        }
    return out

"""E2/E3 — Figures 3 and 6: updates generated on one route.

The paper's screenshots show 9 position updates with linear-prediction DR
(Fig. 3) and 3 updates with map-based DR (Fig. 6) for the same freeway
stretch and requested accuracy, i.e. roughly a 3:1 ratio.  This benchmark
reproduces the quantitative content: the update counts of both protocols on
the same (full) freeway route at us = 200 m.
"""

from repro.experiments.figures import route_update_counts
from repro.experiments.report import format_table
from repro.experiments.scenarios import get_scenario
from repro.experiments.visualize import render_route_updates, render_update_summary
from repro.mobility.scenarios import ScenarioName
from repro.sim.config import SimulationConfig
from repro.sim.fleet import trace_updates

from conftest import run_once


def test_fig3_fig6_route_updates(benchmark, scale):
    results = run_once(benchmark, route_update_counts, scale=scale, accuracy=200.0)
    rows = [
        {
            "protocol": result.protocol_name,
            "updates": result.updates,
            "updates/h": round(result.updates_per_hour, 1),
            "mean error [m]": round(result.metrics.mean_error, 1),
        }
        for result in results.values()
    ]
    print()
    print(format_table(rows, title="Fig. 3 / Fig. 6 equivalent (freeway route, us=200 m)"))

    # ASCII equivalent of the screenshots: the first stretch of the route with
    # the transmitted update positions marked 1..9/*.
    scenario = get_scenario(ScenarioName.FREEWAY, scale=scale)
    horizon = min(len(scenario.sensor_trace), 1200)  # the first ~20 minutes
    for protocol_id, figure_name in (("linear", "Fig. 3"), ("map", "Fig. 6")):
        protocol = SimulationConfig(protocol_id=protocol_id, accuracy=200.0).build_protocol(
            scenario
        )
        updates = [
            message.state.position
            for _t, message in trace_updates(protocol, scenario.sensor_trace[:horizon])
        ]
        print()
        print(
            render_update_summary(
                scenario.true_trace[:horizon], updates, f"{figure_name} — {protocol.name}"
            )
        )
        print(
            render_route_updates(
                scenario.roadmap, scenario.true_trace[:horizon], updates, width=100, height=24
            )
        )

    linear = results["linear"]
    mapped = results["map"]
    # The map-based protocol needs clearly fewer updates on the same route
    # (the paper's screenshots show 9 vs 3).
    assert mapped.updates < linear.updates
    assert mapped.updates <= 0.7 * linear.updates

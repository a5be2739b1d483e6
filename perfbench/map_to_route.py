"""map_to_route: OSM extract -> compiled road map -> contraction hierarchy -> routes.

Inputs: one fixed synthetic OSM town (``synthetic_town_xml`` with seed
``TOWN_SEED``: a ``TOWN_SIZE`` x ``TOWN_SIZE`` jittered junction grid with
side streets and clutter) and origin/destination pairs over its junctions
drawn from ``--seed``.  The town does not vary with the seed, so set-up time
compares across seeds; the routes do.

Time goes to ``ingest`` and ``roadmap.hierarchy`` only.  Set-up is
import-to-first-route: the uncached ``compile_osm`` plus
``RoutePlanner(algo="ch").build_hierarchy()`` (build + warm-up), repeated
from scratch so no compiled-map or hierarchy cache is ever hit.  Then a
number of routes proportional to ``--seconds`` are planned one by one.
``ops_per_s`` is routes per second, the median over ten consecutive windows
of the route stream (see :func:`~perfbench.stats.windowed_rate`); the
latencies ``route_p50_ms`` and ``route_p99_ms`` (median over the same windows
of each window's p99) are in the details.
"""

from __future__ import annotations

import random
import time
from statistics import median

from perfbench.harness import Measured
from perfbench.layers import installed
from perfbench.stats import peak_rss_mb, percentile, windowed_percentile, windowed_rate

NAME = "map_to_route"

TOWN_SIZE = 40
TOWN_SEED = 0
SETUP_REPEATS = 3
ROUTES_PER_SECOND = 2500
#: Routes recomputed with plain Dijkstra by the check.
CHECK_ROUTES = 200


def make_inputs(seed: int, seconds: int):
    from repro.ingest import synthetic_town_xml

    return {
        "xml": synthetic_town_xml(seed=TOWN_SEED, rows=TOWN_SIZE, cols=TOWN_SIZE),
        "routes": max(5000, ROUTES_PER_SECOND * seconds),
        "seed": seed,
    }


def measure(inputs, seconds: int, tracers=None) -> Measured:
    import networkx as nx

    from repro.ingest import compile_osm
    from repro.roadmap.routing import RoutePlanner

    setup_tracer, run_tracer = tracers or (None, None)
    setup_times = []
    for _ in range(1 if tracers else SETUP_REPEATS):
        with installed(setup_tracer):
            started = time.perf_counter()
            roadmap = compile_osm(inputs["xml"]).roadmap
            planner = RoutePlanner(roadmap, algo="ch")
            planner.build_hierarchy()
            setup_times.append(time.perf_counter() - started)
    rng = random.Random(inputs["seed"])
    nodes = sorted(roadmap.intersections)
    n_routes = inputs["routes"] // 4 if tracers else inputs["routes"]
    pairs = []
    while len(pairs) < n_routes:
        a, b = rng.choice(nodes), rng.choice(nodes)
        if a != b:
            pairs.append((a, b))
    checked = set(rng.sample(range(n_routes), CHECK_ROUTES))
    latencies = []
    paths = {}
    unroutable = 0
    with installed(run_tracer):
        for index, (a, b) in enumerate(pairs):
            started = time.perf_counter()
            try:
                path = planner.plan(a, b)
            except nx.NetworkXNoPath:
                unroutable += 1
                continue
            finally:
                latencies.append(time.perf_counter() - started)
            if index in checked:
                paths[(a, b)] = (path.cost, path.tie, list(path.links))
    return Measured(
        metrics={
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": windowed_rate(latencies),
        },
        attempted=len(pairs),
        failed=unroutable,
        setups=len(setup_times),
        passes=1,
        outputs=(roadmap, paths),
        details={"junctions": len(nodes), "routes": len(pairs), "unroutable": unroutable,
                 "setup_samples_s": setup_times,
                 "route_p50_ms": percentile(latencies, 50.0) * 1e3,
                 "route_p99_ms": windowed_percentile(latencies, 99.0) * 1e3},
    )


def check(inputs, measured: Measured):
    """CH costs and paths are identical to ``dijkstra_path`` on a sample."""
    from repro.roadmap.hierarchy import RoutingGraph, dijkstra_path

    roadmap, paths = measured.outputs
    graph = RoutingGraph.from_roadmap(roadmap, "length")
    problems = []
    for (a, b), got in paths.items():
        reference = dijkstra_path(graph, a, b)
        expected = None if reference is None else (
            reference.cost, reference.tie, list(reference.links))
        if got != expected:
            problems.append(f"route {a}->{b}: CH {got[:2]} differs from Dijkstra "
                            f"{expected[:2] if expected else None}")
    return len(paths), problems

"""Command-line interface.

``repro`` exposes the experiment harness and the data generators without
writing any Python::

    repro table1 --scale 0.25
    repro figure 7 --scale 0.25 --jobs 4
    repro headline --scale 0.25 --jobs 4
    repro scenarios
    repro sweep --scenario rush_hour_city --protocol map --scale 0.25 --out-dir artifacts
    repro simulate --scenario city --protocol map --accuracy 100 --scale 0.2
    repro simulate --scenario low_power_tracker --protocol linear --accuracy 100
    repro fleet --mix rush_hour_city:map:100:25 --mix walking:linear:50:10 --scale 0.1
    repro fleet --mix rush_hour_city:linear:100:20 --mix mixed_rate_city:linear:100:80 --scale 0.1
    repro fleet --mix city:linear:100:50 --shards 4 --scale 0.1
    repro fleet --mix city:linear:100:50 --scale 0.1 --obs --obs-dir artifacts/obs
    repro obs-report artifacts/obs
    repro query-bench --scenario rush_hour_city --count 50 --shards 4 --scale 0.1
    repro query-bench --scenario poisson_queries_freeway --scale 0.1
    repro serve --mix city:linear:100:10 --scale 0.1 --port 7450
    repro load-test --mix city:linear:100:10 --scale 0.1 --rate 5 --clients 4 --verify
    repro load-test --mix city:linear:100:10 --scale 0.1 --connect 127.0.0.1:7450
    repro generate-map city --out city.json
    repro generate-trace --scenario walking --out walk.csv --noisy
    repro visualize --scenario freeway --accuracy 200 --scale 0.1
    repro import-map extract.osm --cache-dir .mapcache
    repro sweep --map-file extract.osm --protocol map --scale 0.2
    repro fleet --map-file extract.osm --mix osm_extract:map:100:20 --scale 0.1

``--scenario`` accepts every name in the scenario library — the paper's
four canonical patterns plus the generated compositions (see ``repro
scenarios`` for the full table).  ``import-map`` runs an OpenStreetMap
extract through the ingest pipeline (parse, project, condition, compile)
into the compiled-map cache; ``sweep``/``fleet`` accept ``--map-file`` to
run protocols directly on such an imported network (the scenario is
registered as ``osm_<filename>``).

Every command prints plain-text tables (or JSON with ``--json``) so the
output can be diffed against the paper's numbers or piped into other tools.
Sweep-shaped commands execute on the shared
:class:`~repro.sim.runner.SweepRunner`; ``--jobs N`` fans their points out
over N worker processes, with results guaranteed identical to a serial run.
Each simulation runs in one process on one send schedule per lane (see the
README's "Simulation loop" section): channel messages arrive and protocol
timers fire at their exact instants, and lanes keep their own sampling
rates.  ``fleet`` runs an eligible homogeneous fleet through the columnar
engine and everything else through the fleet loop; both give identical rows.
Query workloads (per tick or Poisson) are replayed beside a fleet's update
stream from a materialised plan (``query-bench``, ``load-test``).

``fleet``, ``serve`` and ``load-test`` accept ``--obs`` (and ``--obs-dir
DIR``) to record metrics, spans and run provenance without changing any
result bit — ``repro obs-report DIR`` pretty-prints what was written.  A
global ``-v/--verbose`` (repeatable) turns on INFO/DEBUG logging.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from typing import List, Optional, Sequence

from repro.experiments import ablations
from repro.experiments.figures import (
    figure7,
    figure8,
    figure9,
    figure10,
    headline_reductions,
)
from repro.experiments.library import (
    FleetMix,
    describe_scenarios,
    fleet_lanes,
    scenario_names,
)
from repro.experiments.report import format_series_chart, format_table, to_json
from repro.experiments.scenarios import get_scenario
from repro.experiments.tables import table1
from repro.experiments.visualize import render_route_updates, render_update_summary
from repro.mobility.scenarios import ScenarioName
from repro.obs import NO_OBS, Observability
from repro.roadmap import io as roadmap_io
from repro.roadmap.generators import (
    city_grid_map,
    freeway_map,
    interurban_map,
    pedestrian_map,
)
from repro.sim.config import PROTOCOL_IDS, SimulationConfig
from repro.sim.fleet import run_simulation, trace_updates
from repro.sim.runner import QueryBenchSpec, ScenarioSpec, SweepRunner
from repro.sim.workload import QueryWorkload
from repro.traces import io as trace_io

_FIGURES = {"7": figure7, "8": figure8, "9": figure9, "10": figure10}
_MAP_GENERATORS = {
    "freeway": freeway_map,
    "interurban": interurban_map,
    "city": city_grid_map,
    "pedestrian": pedestrian_map,
}


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _bbox(value: str) -> List[float]:
    parts = [p for p in value.split(",") if p.strip()]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected min_lat,min_lon,max_lat,max_lon, got {value!r}"
        )
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bbox values must be numbers, got {value!r}")


def _accuracy_list(value: str) -> List[float]:
    try:
        out = [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers (e.g. 20,50,100), got {value!r}"
        )
    if not out:
        raise argparse.ArgumentTypeError("expected at least one accuracy value")
    if not all(math.isfinite(us) and us > 0 for us in out):
        raise argparse.ArgumentTypeError("accuracy values must be positive and finite")
    return out


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Map-based dead-reckoning reproduction: experiments and data generators.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of ASCII tables"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log INFO to stderr; repeat (-vv) for DEBUG",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_scale(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scale", type=float, default=1.0,
            help="fraction of the paper's trace length to simulate (default 1.0)",
        )

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=_positive_int, default=1,
            help="parallel worker processes for the sweep points (default 1)",
        )

    def add_obs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--obs", action="store_true",
            help="record metrics, wall-time spans and a fleet-loop flight "
                 "recorder for this run (results stay bit-identical; the "
                 "metrics report prints to stderr unless --obs-dir is given)",
        )
        p.add_argument(
            "--obs-dir", type=str, default=None, metavar="DIR",
            help="write metrics.json / trace.json / manifest.json to DIR "
                 "(implies --obs; trace.json opens in Perfetto)",
        )

    def add_mix(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mix",
            action="append",
            required=True,
            metavar="SCENARIO:PROTOCOL:US[:COUNT]",
            help="one fleet slice, e.g. rush_hour_city:map:100:25 (repeatable)",
        )

    p_table = subparsers.add_parser("table1", help="reproduce Table 1")
    add_scale(p_table)

    p_figure = subparsers.add_parser("figure", help="reproduce Figure 7, 8, 9 or 10")
    p_figure.add_argument("number", choices=sorted(_FIGURES), help="figure number")
    add_scale(p_figure)
    add_jobs(p_figure)

    p_headline = subparsers.add_parser(
        "headline", help="maximum update-rate reductions (abstract / Sec. 4)"
    )
    add_scale(p_headline)
    add_jobs(p_headline)

    def add_map_file(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--map-file", type=str, default=None, metavar="EXTRACT",
            help="run on an imported OSM extract instead of a library scenario "
                 "(registered as scenario osm_<filename>; registration is "
                 "per-process, so combine with --jobs only where worker "
                 "processes fork — see repro.experiments.library)",
        )
        p.add_argument(
            "--map-cache-dir", type=str, default=None,
            help="compiled-map cache directory for --map-file "
                 "(default: $REPRO_MAP_CACHE or ~/.cache/repro/maps)",
        )

    p_sweep = subparsers.add_parser(
        "sweep", help="run one protocol's accuracy sweep and write JSON/CSV artifacts"
    )
    p_sweep.add_argument("--scenario", choices=scenario_names(), default=None)
    add_map_file(p_sweep)
    p_sweep.add_argument("--protocol", choices=list(PROTOCOL_IDS), required=True)
    p_sweep.add_argument("--seed", type=int, default=None, help="scenario seed override")
    p_sweep.add_argument(
        "--accuracies", type=_accuracy_list, default=None,
        help="comma-separated us values in metres (default: the scenario's sweep)",
    )
    p_sweep.add_argument(
        "--out-dir", type=str, default=None,
        help="directory for the JSON/CSV artifacts (default: print only)",
    )
    add_scale(p_sweep)
    add_jobs(p_sweep)

    p_ablation = subparsers.add_parser("ablation", help="run one of the ablation studies")
    p_ablation.add_argument(
        "study", choices=["um", "window", "turnpolicy", "adaptive", "speedlimit"]
    )
    p_ablation.add_argument(
        "--scenario", choices=[s.value for s in ScenarioName], default="freeway"
    )
    add_scale(p_ablation)

    p_sim = subparsers.add_parser("simulate", help="run one protocol over one scenario")
    p_sim.add_argument("--scenario", choices=scenario_names(), required=True)
    p_sim.add_argument("--protocol", choices=list(PROTOCOL_IDS), required=True)
    p_sim.add_argument("--accuracy", type=float, required=True, help="requested accuracy us [m]")
    add_scale(p_sim)

    subparsers.add_parser(
        "scenarios", help="list every scenario in the library (canonical + generated)"
    )

    p_fleet = subparsers.add_parser(
        "fleet", help="run a heterogeneous fleet through the simulation loop"
    )
    add_mix(p_fleet)
    p_fleet.add_argument(
        "--per-object", action="store_true", help="emit one row per object instead of a summary"
    )
    p_fleet.add_argument("--seed", type=int, default=None, help="scenario seed override")
    p_fleet.add_argument(
        "--shards", type=_positive_int, default=1,
        help="serve the fleet from a spatially sharded LocationService (default 1)",
    )
    add_map_file(p_fleet)
    add_scale(p_fleet)
    add_obs(p_fleet)

    p_qbench = subparsers.add_parser(
        "query-bench",
        help="replay a query workload beside a sharded fleet's update stream",
    )
    p_qbench.add_argument("--scenario", choices=scenario_names(), default="rush_hour_city")
    p_qbench.add_argument("--protocol", choices=list(PROTOCOL_IDS), default="linear")
    p_qbench.add_argument("--accuracy", type=float, default=100.0, help="requested accuracy us [m]")
    p_qbench.add_argument("--count", type=_positive_int, default=25, help="fleet size")
    p_qbench.add_argument("--shards", type=_positive_int, default=4)
    p_qbench.add_argument(
        "--queries-per-tick", type=float, default=2.0,
        help="application queries issued per sample instant when no arrival "
             "rate applies (may be fractional)",
    )
    p_qbench.add_argument(
        "--query-mix", type=str, default=None, metavar="KIND=W,...",
        help='e.g. "range=2,nearest=1,geofence=0.5" (default: the scenario\'s mix)',
    )
    p_qbench.add_argument("--k", type=_positive_int, default=3, help="k for k-nearest queries")
    p_qbench.add_argument("--seed", type=int, default=None, help="scenario seed override")
    p_qbench.add_argument(
        "--arrival-rate", type=float, default=None, metavar="PER_S",
        help="Poisson query-arrival rate in queries per simulated second "
             "(default: the scenario's query_rate_per_s, falling back to "
             "per-tick arrivals)",
    )
    p_qbench.add_argument(
        "--out-dir", type=str, default=None,
        help="directory for the JSON artifact (default: print only)",
    )
    add_scale(p_qbench)

    p_serve = subparsers.add_parser(
        "serve",
        help="serve a scenario fleet's LocationService over TCP (length-prefixed JSON)",
    )
    add_mix(p_serve)
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7450, help="listen port, 0 picks a free one (default 7450)"
    )
    p_serve.add_argument("--shards", type=_positive_int, default=1)
    p_serve.add_argument(
        "--queue-size", type=_positive_int, default=64,
        help="bound of the ingest queue in batches — the backpressure knob (default 64)",
    )
    p_serve.add_argument("--seed", type=int, default=None, help="scenario seed override")
    p_serve.add_argument(
        "--rebalance-skew", type=float, default=None, metavar="RATIO",
        help="re-home hot routing cells when the per-shard object-count skew "
             "(max/mean) exceeds RATIO (> 1.0; needs --shards > 1; off by default)",
    )
    p_serve.add_argument(
        "--rebalance-cells", type=_positive_int, default=4, metavar="N",
        help="max routing cells re-homed per rebalance pass (default 4)",
    )
    add_scale(p_serve)
    add_obs(p_serve)

    p_load = subparsers.add_parser(
        "load-test",
        help="replay a fleet's update stream plus Poisson queries against a live server",
    )
    add_mix(p_load)
    p_load.add_argument(
        "--rate", type=float, default=2.0, metavar="PER_S",
        help="Poisson query-arrival rate in queries per simulated second (default 2)",
    )
    p_load.add_argument(
        "--clients", type=_positive_int, default=2,
        help="concurrent ingest connections (default 2)",
    )
    p_load.add_argument(
        "--mode", choices=["concurrent", "lockstep"], default="concurrent",
        help="concurrent = saturation measurement; lockstep = one connection, "
             "deterministic plan order (default concurrent)",
    )
    p_load.add_argument(
        "--connect", type=str, default=None, metavar="HOST:PORT",
        help="drive an already running `repro serve` instead of an in-process server",
    )
    p_load.add_argument("--shards", type=_positive_int, default=1)
    p_load.add_argument(
        "--queue-size", type=_positive_int, default=64,
        help="ingest-queue bound of the in-process server (default 64)",
    )
    p_load.add_argument(
        "--no-wait", action="store_true",
        help="shed load on a full ingest queue instead of waiting for a slot",
    )
    p_load.add_argument(
        "--max-batches", type=_positive_int, default=None,
        help="cap the replayed update batches (default: the whole stream)",
    )
    p_load.add_argument(
        "--max-queries", type=_positive_int, default=None,
        help="cap the replayed queries (default: the whole Poisson stream)",
    )
    p_load.add_argument(
        "--verify", action="store_true",
        help="recompute every answer on an in-process facade and assert the "
             "live answers bit-identical (in-process server only)",
    )
    p_load.add_argument("--seed", type=int, default=None, help="scenario seed override")
    p_load.add_argument(
        "--query-seed", type=int, default=0, help="seed of the query stream (default 0)"
    )
    add_scale(p_load)
    add_obs(p_load)

    p_obs_report = subparsers.add_parser(
        "obs-report",
        help="pretty-print an observability directory written with --obs-dir",
    )
    p_obs_report.add_argument(
        "directory",
        help="directory holding metrics.json / trace.json / manifest.json "
             "(a path to one of those files also works)",
    )

    p_import = subparsers.add_parser(
        "import-map",
        help="import an OSM extract (XML / Overpass JSON) into the compiled-map cache",
    )
    p_import.add_argument("extract", help="path to the OSM extract")
    p_import.add_argument(
        "--bbox", type=_bbox, default=None, metavar="MINLAT,MINLON,MAXLAT,MAXLON",
        help="clip the import to a geodesic bounding box",
    )
    p_import.add_argument(
        "--no-compact", action="store_true",
        help="skip degree-2 chain contraction (debugging/benchmarks only)",
    )
    p_import.add_argument(
        "--min-stub-m", type=float, default=40.0,
        help="prune dead-end chains shorter than this many metres (default 40)",
    )
    p_import.add_argument(
        "--refresh", action="store_true", help="re-import even when the cache has the map"
    )
    p_import.add_argument(
        "--cache-dir", type=str, default=None,
        help="compiled-map cache directory (default: $REPRO_MAP_CACHE or ~/.cache/repro/maps)",
    )
    p_import.add_argument(
        "--out", type=str, default=None,
        help="additionally save the compiled road map JSON to this path",
    )

    p_route = subparsers.add_parser(
        "route",
        help="plan a shortest route on an imported map (Dijkstra or contraction hierarchy)",
    )
    p_route.add_argument("extract", help="path to the OSM extract (imported through the cache)")
    p_route.add_argument(
        "--from", dest="from_node", type=int, default=None, metavar="NODE",
        help="start intersection id (default: the westernmost intersection)",
    )
    p_route.add_argument(
        "--to", dest="to_node", type=int, default=None, metavar="NODE",
        help="destination intersection id (default: the easternmost intersection)",
    )
    p_route.add_argument(
        "--algo", choices=("dijkstra", "ch"), default="dijkstra",
        help="query engine: one tie-broken Dijkstra per query, or the "
        "contraction hierarchy (preprocessed once, cached next to the map)",
    )
    p_route.add_argument(
        "--weight", choices=("length", "travel_time"), default="length",
        help="edge weight: shortest distance or fastest travel time",
    )
    p_route.add_argument(
        "--repeat", type=_positive_int, default=5,
        help="plan the route this many times and report the best timing (default 5)",
    )
    p_route.add_argument(
        "--cache-dir", type=str, default=None,
        help="compiled-map cache directory (default: $REPRO_MAP_CACHE or ~/.cache/repro/maps)",
    )

    p_map = subparsers.add_parser("generate-map", help="generate a synthetic road map (JSON)")
    p_map.add_argument("kind", choices=sorted(_MAP_GENERATORS))
    p_map.add_argument("--out", required=True, help="output JSON path")
    p_map.add_argument("--seed", type=int, default=0)

    p_trace = subparsers.add_parser(
        "generate-trace", help="generate a movement trace for a scenario (CSV)"
    )
    p_trace.add_argument("--scenario", choices=scenario_names(), required=True)
    p_trace.add_argument("--out", required=True, help="output CSV path")
    p_trace.add_argument(
        "--noisy", action="store_true", help="write the noisy sensor trace instead of the truth"
    )
    add_scale(p_trace)

    p_vis = subparsers.add_parser(
        "visualize", help="ASCII rendering of a route and its update positions (cf. Fig. 3/6)"
    )
    p_vis.add_argument("--scenario", choices=scenario_names(), default="freeway")
    p_vis.add_argument("--protocol", choices=list(PROTOCOL_IDS), default="map")
    p_vis.add_argument("--accuracy", type=float, default=200.0)
    p_vis.add_argument("--width", type=int, default=100)
    p_vis.add_argument("--height", type=int, default=30)
    add_scale(p_vis)

    return parser


# --------------------------------------------------------------------------- #
# command implementations
# --------------------------------------------------------------------------- #
def _emit(args, rows, title: str) -> None:
    if args.json:
        print(to_json(rows))
    else:
        print(format_table(rows, title=title))


def _build_obs(args) -> Observability:
    """The run's bundle: a live one under ``--obs``/``--obs-dir``, else the disabled one."""
    return Observability() if args.obs or args.obs_dir else NO_OBS


def _finish_obs(args, obs, config, seed=None, timings=None) -> None:
    """Write (or print) what the bundle recorded; stderr keeps --json clean."""
    if args.obs_dir:
        paths = obs.write(args.obs_dir, seed=seed, config=config, timings=timings)
        for kind in sorted(paths):
            print(f"wrote {kind}: {paths[kind]}", file=sys.stderr)
    elif args.obs:
        print(obs.registry.render(), file=sys.stderr)


def _cmd_table1(args) -> int:
    rows = [row.as_dict() for row in table1(scale=args.scale)]
    _emit(args, rows, "Table 1 (measured vs paper)")
    return 0


def _cmd_figure(args) -> int:
    figure = _FIGURES[args.number](scale=args.scale, jobs=args.jobs)
    if args.json:
        print(to_json(figure.as_rows()))
        return 0
    print(format_table(figure.as_rows(), title=f"Figure {args.number} — {figure.description}"))
    print()
    print(
        format_series_chart(
            figure.baseline.accuracies,
            {s.label: s.updates_per_hour for s in figure.series.values()},
            y_label="updates/h",
        )
    )
    return 0


def _cmd_headline(args) -> int:
    reductions = headline_reductions(scale=args.scale, jobs=args.jobs)
    rows = [{"scenario": name, **values} for name, values in reductions.items()]
    _emit(args, rows, "Maximum update-rate reductions [%]")
    return 0


def _resolve_map_scenario(args) -> Optional[str]:
    """The scenario name to run: ``--scenario``, or a registered ``--map-file``.

    Returns ``None`` (after printing the error) when the combination is
    invalid; the registered name is written back to ``args.scenario`` so the
    downstream command code is oblivious to where the scenario came from.
    """
    if args.map_file and args.scenario:
        print("error: pass either --scenario or --map-file, not both", file=sys.stderr)
        return None
    if args.map_file:
        from repro.experiments.library import register_map_file_scenario

        try:
            name = register_map_file_scenario(
                args.map_file, cache_dir=args.map_cache_dir
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None
        print(f"registered imported map as scenario {name!r}", file=sys.stderr)
        args.scenario = name
        return name
    if not args.scenario:
        print("error: one of --scenario or --map-file is required", file=sys.stderr)
        return None
    return args.scenario


def _cmd_sweep(args) -> int:
    if _resolve_map_scenario(args) is None:
        return 2
    spec = ScenarioSpec(name=args.scenario, scale=args.scale, seed=args.seed)
    with SweepRunner(jobs=args.jobs) as runner:
        return _run_sweep_command(args, runner, spec)


def _run_sweep_command(args, runner: SweepRunner, spec: ScenarioSpec) -> int:
    points = runner.run_config_sweep(spec, args.protocol, args.accuracies)
    rows = [point.result.as_dict() for point in points]
    _emit(args, rows, f"{args.protocol} sweep on {args.scenario} (scale {args.scale:g})")
    if args.out_dir:
        name = f"sweep_{args.scenario}_{args.protocol}"
        written = runner.write_artifacts(
            points,
            name,
            out_dir=args.out_dir,
            metadata={
                "scenario": args.scenario,
                "protocol": args.protocol,
                "scale": args.scale,
                "seed": spec.seed,
                "jobs": args.jobs,
            },
        )
        for fmt, path in written.items():
            # stderr, so `--json` stdout stays machine-parseable.
            print(f"wrote {fmt}: {path}", file=sys.stderr)
    return 0


def _cmd_ablation(args) -> int:
    scenario = ScenarioName(args.scenario)
    if args.study == "um":
        rows = ablations.matching_tolerance_ablation(scenario, scale=args.scale)
    elif args.study == "window":
        rows = ablations.estimation_window_ablation(scenario, scale=args.scale)
    elif args.study == "turnpolicy":
        rows = ablations.turn_policy_ablation(scenario, scale=args.scale)
    elif args.study == "adaptive":
        rows = ablations.adaptive_strategy_comparison(scenario, scale=args.scale)
    else:
        rows = ablations.speed_limit_prediction_ablation(scenario, scale=args.scale)
    _emit(args, rows, f"Ablation {args.study} ({args.scenario})")
    return 0


def _cmd_simulate(args) -> int:
    scenario = get_scenario(args.scenario, scale=args.scale)
    protocol = SimulationConfig(
        protocol_id=args.protocol, accuracy=args.accuracy
    ).build_protocol(scenario)
    result = run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)
    _emit(args, [result.as_dict()], f"{args.protocol} on {args.scenario} (us={args.accuracy:g} m)")
    return 0


def _cmd_scenarios(args) -> int:
    _emit(args, describe_scenarios(), "Scenario library")
    return 0


def _cmd_fleet(args) -> int:
    if args.map_file:
        # Register the imported map before the mixes are validated, so a
        # mix entry can reference it (scenario name osm_<filename>).
        from repro.experiments.library import register_map_file_scenario

        try:
            name = register_map_file_scenario(args.map_file, cache_dir=args.map_cache_dir)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"registered imported map as scenario {name!r}", file=sys.stderr)
    mix = _parse_fleet_mix(args.mix)
    if mix is None:
        return 2
    from repro.service.facade import LocationService
    from repro.sim.columnar import ColumnarFleetEngine
    from repro.sim.fleet import FleetSimulation, auto_region_size, fleet_extent

    lanes = fleet_lanes(mix, scale=args.scale, seed=args.seed)
    server = None
    if args.shards > 1:
        # Size the routing cells from the fleet's actual extent: a fixed
        # metre value degenerates to a single cell on small-scale runs.
        server = LocationService(
            n_shards=args.shards,
            region_size=auto_region_size(fleet_extent(lanes), args.shards),
        )
    obs = _build_obs(args)
    # The two engines give bit-identical results; the columnar one is
    # faster on the homogeneous fleets it accepts.
    if ColumnarFleetEngine.ineligibility(lanes, server=server) is None:
        engine = "columnar"
        fleet = ColumnarFleetEngine.from_lanes(lanes, obs=obs).run()
    else:
        engine = "fleet"
        fleet = FleetSimulation(lanes, server=server, obs=obs).run()
    _finish_obs(
        args,
        obs,
        config={
            "command": "fleet",
            "mix": list(args.mix),
            "scale": args.scale,
            "shards": args.shards,
            "engine": engine,
        },
        seed=args.seed,
    )
    title = f"Fleet of {len(lanes)} objects (scale {args.scale:g})"
    if args.shards > 1:
        title += f", {args.shards} shards"
    if args.per_object:
        _emit(args, fleet.as_rows(), title)
        return 0
    pooled = fleet.aggregate_metrics()
    summary = {
        "objects": len(lanes),
        "object_hours": round(fleet.object_hours, 3),
        "total_updates": fleet.total_updates,
        "updates_per_object_hour": round(fleet.updates_per_object_hour, 2),
        "total_bytes_sent": fleet.total_bytes_sent,
        "mean_error_m": round(pooled.mean_error, 2),
        "p95_error_m": round(pooled.percentile(95.0), 2),
        "max_error_m": round(pooled.max_error, 2),
    }
    if fleet.service_stats:
        summary["handoffs"] = fleet.service_stats["handoffs"]
        if args.json:
            # Machine consumers get the shard rows inline; text mode prints
            # them as a second table below.
            summary["per_shard"] = fleet.service_stats["per_shard"]
    _emit(args, [summary], title)
    if fleet.service_stats and not args.json:
        print()
        print(format_table(fleet.service_stats["per_shard"], title="Per-shard load"))
    return 0


def _cmd_query_bench(args) -> int:
    try:
        mix = QueryWorkload.parse_mix(args.query_mix) if args.query_mix else None
        spec = QueryBenchSpec(
            scenario=args.scenario,
            protocol_id=args.protocol,
            accuracy=args.accuracy,
            count=args.count,
            shards=args.shards,
            scale=args.scale,
            seed=args.seed,
            queries_per_tick=args.queries_per_tick,
            mix=mix,
            k=args.k,
            arrival_rate_per_s=args.arrival_rate,
        )
        # Surface workload validation (unknown kinds, negative rates) as a
        # clean CLI error instead of a traceback mid-run.
        spec.build_workload()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = SweepRunner()
    record = runner.run_query_bench(spec)
    if args.json:
        print(to_json(record))
    else:
        workload = dict(record["workload"])
        summary = {
            "scenario": record["scenario"],
            "objects": record["objects"],
            "shards": record["shards"],
            "queries": workload.get("queries", 0),
            "hits": workload.get("hits", 0),
            "mean_query_us": workload.get("mean_query_us", 0.0),
            "queries_per_second": workload.get("queries_per_second", 0.0),
            "handoffs": record["service"].get("handoffs", 0),
        }
        print(format_table(
            [summary],
            title=f"Query bench on {args.scenario} (scale {args.scale:g})",
        ))
        print()
        print(format_table(record["per_shard"], title="Per-shard load"))
    if args.out_dir:
        path = runner.write_query_bench_artifact(
            record, f"query_bench_{args.scenario}_{args.protocol}", out_dir=args.out_dir
        )
        print(f"wrote json: {path}", file=sys.stderr)
    return 0


def _parse_fleet_mix(texts: Sequence[str]) -> Optional[List[FleetMix]]:
    try:
        return [FleetMix.parse(text) for text in texts]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.live.server import (
        LiveLocationServer,
        registrations_for_lanes,
        service_for_registrations,
    )
    from repro.sim.fleet import auto_region_size, fleet_extent

    mix = _parse_fleet_mix(args.mix)
    if mix is None:
        return 2
    lanes = fleet_lanes(mix, scale=args.scale, seed=args.seed)
    service = service_for_registrations(
        registrations_for_lanes(lanes),
        n_shards=args.shards,
        region_size=auto_region_size(fleet_extent(lanes), args.shards),
    )

    obs = _build_obs(args)

    rebalance = None
    if args.rebalance_skew is not None:
        from repro.service.sharding import RebalancePolicy

        if args.shards < 2:
            print("--rebalance-skew needs --shards > 1", file=sys.stderr)
            return 2
        rebalance = RebalancePolicy(
            skew_threshold=args.rebalance_skew,
            max_cells_per_pass=args.rebalance_cells,
        )

    async def _serve() -> None:
        server = LiveLocationServer(
            service,
            host=args.host,
            port=args.port,
            ingest_queue_size=args.queue_size,
            obs=obs,
            rebalance=rebalance,
        )
        host, port = await server.start()
        rebalance_note = (
            f", rebalance skew > {args.rebalance_skew:g}" if rebalance else ""
        )
        print(
            f"serving {len(lanes)} objects on {host}:{port} "
            f"({args.shards} shard{'s' if args.shards != 1 else ''}, "
            f"ingest queue {args.queue_size}{rebalance_note}); "
            "send the shutdown op to stop",
            file=sys.stderr,
        )
        await server.run_until_shutdown()
        if rebalance is not None and rebalance.passes:
            report = rebalance.last_report
            print(
                f"rebalanced {rebalance.passes} time(s): {rebalance.cells_moved} "
                f"cells, {rebalance.objects_moved} objects re-homed "
                f"(last pass skew {report.skew_before:.3f} -> {report.skew_after:.3f})",
                file=sys.stderr,
            )

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
    _finish_obs(
        args,
        obs,
        config={
            "command": "serve",
            "mix": list(args.mix),
            "scale": args.scale,
            "shards": args.shards,
            "queue_size": args.queue_size,
            "rebalance_skew": args.rebalance_skew,
        },
        seed=args.seed,
    )
    return 0


def _cmd_load_test(args) -> int:
    import asyncio

    from repro.service.live.server import LiveLocationServer
    from repro.service.loadgen import (
        build_replay_plan,
        mismatched_answers,
        run_load_test,
        service_for_plan,
    )

    mix = _parse_fleet_mix(args.mix)
    if mix is None:
        return 2
    if args.connect and args.verify:
        print(
            "error: --verify needs the in-process server (the reference replay "
            "must share the registrations); drop --connect",
            file=sys.stderr,
        )
        return 2
    lanes = fleet_lanes(mix, scale=args.scale, seed=args.seed)
    workload = QueryWorkload(arrival_rate_per_s=args.rate, seed=args.query_seed)
    plan = build_replay_plan(
        lanes, workload, max_batches=args.max_batches, max_queries=args.max_queries
    )
    print(
        f"replaying {len(plan.batches)} batches ({plan.total_updates} updates) "
        f"and {len(plan.calls)} Poisson queries",
        file=sys.stderr,
    )

    obs = _build_obs(args)

    async def _drive() -> "object":
        if args.connect:
            host, _, port_text = args.connect.rpartition(":")
            return await run_load_test(
                plan, host, int(port_text),
                clients=args.clients, mode=args.mode, wait=not args.no_wait,
                obs=obs,
            )
        server = LiveLocationServer(
            service_for_plan(plan, n_shards=args.shards),
            ingest_queue_size=args.queue_size,
            obs=obs,
        )
        host, port = await server.start()
        try:
            return await run_load_test(
                plan, host, port,
                clients=args.clients, mode=args.mode, wait=not args.no_wait,
                obs=obs,
            )
        finally:
            await server.stop()

    report = asyncio.run(_drive())
    _finish_obs(
        args,
        obs,
        config={
            "command": "load-test",
            "mix": list(args.mix),
            "scale": args.scale,
            "mode": args.mode,
            "clients": args.clients,
            "rate": args.rate,
            "shards": args.shards,
            "queue_size": args.queue_size,
            "wait": not args.no_wait,
            "query_seed": args.query_seed,
        },
        seed=args.seed,
        timings={"wall_seconds": report.wall_seconds},
    )
    summary = report.as_dict()
    if args.json:
        print(to_json(summary))
    else:
        flat = {
            key: value
            for key, value in summary.items()
            if key not in ("ingest", "query")
        }
        print(format_table([flat], title=f"Load test ({args.mode}, {args.clients} clients)"))
        print()
        print(format_table(
            [
                {"requests": "ingest", **summary["ingest"]},
                {"requests": "query", **summary["query"]},
            ],
            title="Wall-clock latency",
        ))
    if args.verify:
        mismatches = mismatched_answers(plan, report, n_shards=args.shards)
        if mismatches:
            print(
                f"error: {len(mismatches)} answers differ from the facade replay",
                file=sys.stderr,
            )
            return 1
        print(
            f"verified: all {len(report.query_records)} live answers "
            "bit-identical to the facade replay",
            file=sys.stderr,
        )
    return 0


def _cmd_obs_report(args) -> int:
    import json as _json
    import os

    from repro.obs.trace import validate_chrome_trace

    directory = args.directory
    if directory.endswith(".json"):
        directory = os.path.dirname(directory) or "."

    def _load(name: str):
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as fh:
            return _json.load(fh)

    metrics = _load("metrics.json")
    manifest = _load("manifest.json")
    trace = _load("trace.json")
    if metrics is None and manifest is None and trace is None:
        print(
            f"error: no metrics.json / trace.json / manifest.json under {directory!r}",
            file=sys.stderr,
        )
        return 2
    problems = validate_chrome_trace(trace) if trace is not None else []
    if args.json:
        print(to_json({
            "directory": directory,
            "manifest": manifest,
            "metrics": (metrics or {}).get("metrics"),
            "trace_events": len(trace.get("traceEvents", [])) if trace else 0,
            "trace_problems": problems,
        }))
        return 1 if problems else 0
    if manifest is not None:
        git = manifest.get("git", {})
        sha = git.get("sha") or "unknown"
        dirty = "+dirty" if git.get("dirty") else ""
        rows = [{
            "git": f"{str(sha)[:12]}{dirty}",
            "seed": manifest.get("seed"),
            "config_hash": str(manifest.get("config_hash", ""))[:12],
            "python": manifest.get("python", ""),
            "numpy": manifest.get("numpy"),
        }]
        print(format_table(rows, title=f"Provenance ({directory})"))
        print()
    if metrics is not None:
        # Re-render the stored snapshot through a fresh registry-style table.
        snapshot = metrics.get("metrics", {})
        rows = []
        for name in sorted(snapshot):
            entry = snapshot[name]
            rows.append({
                "metric": name,
                "kind": entry.get("kind", ""),
                "deterministic": entry.get("deterministic", False),
                "value": entry.get("value", entry.get("count", "")),
            })
        print(format_table(rows, title="Metrics"))
        print()
    if trace is not None:
        verdict = "valid" if not problems else f"INVALID: {'; '.join(problems)}"
        print(
            f"trace.json: {len(trace.get('traceEvents', []))} events, {verdict} "
            "(open in Perfetto / chrome://tracing)"
        )
    return 1 if problems else 0


def _cmd_import_map(args) -> int:
    from repro.ingest import import_map

    try:
        compiled = import_map(
            args.extract,
            bbox=tuple(args.bbox) if args.bbox else None,
            contract=not args.no_compact,
            min_stub_m=args.min_stub_m,
            cache_dir=args.cache_dir,
            refresh=args.refresh,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = compiled.report
    row = {
        "source": compiled.roadmap.metadata.get("source", args.extract),
        "cached": compiled.cached,
        "intersections": report.output_intersections,
        "links": report.output_links,
        "total_length_km": round(report.total_length_km, 2),
        "nodes_contracted": report.nodes_contracted,
        "stub_segments_pruned": report.stub_segments_pruned,
        "components_dropped": report.components_dropped,
        **{k: round(v, 4) for k, v in compiled.timings.items()},
    }
    _emit(args, [row], f"Imported map {args.extract}")
    if compiled.cache_path:
        print(f"compiled map cache: {compiled.cache_path}", file=sys.stderr)
    if args.out:
        roadmap_io.save_roadmap(compiled.roadmap, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_route(args) -> int:
    import time as _time

    import networkx as nx

    from repro.ingest import import_map
    from repro.roadmap.routing import RoutePlanner

    try:
        compiled = import_map(args.extract, cache_dir=args.cache_dir)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    roadmap = compiled.roadmap
    from_node, to_node = args.from_node, args.to_node
    if from_node is None or to_node is None:
        # A friendly default probe: the longest west-east crossing.
        nodes = sorted(
            roadmap.intersections.values(), key=lambda n: (n.position[0], n.id)
        )
        from_node = from_node if from_node is not None else nodes[0].id
        to_node = to_node if to_node is not None else nodes[-1].id
    planner = RoutePlanner(
        roadmap, weight=args.weight, algo=args.algo, cache_entry=compiled.cache_path
    )
    prep_seconds = 0.0
    if args.algo == "ch":
        t0 = _time.perf_counter()
        planner.build_hierarchy()
        prep_seconds = _time.perf_counter() - t0
    try:
        t0 = _time.perf_counter()
        path = planner.plan(from_node, to_node)
        first_ms = (_time.perf_counter() - t0) * 1000.0
        best_ms = first_ms
        for _ in range(args.repeat - 1):
            t0 = _time.perf_counter()
            planner.plan(from_node, to_node)
            best_ms = min(best_ms, (_time.perf_counter() - t0) * 1000.0)
    except nx.NodeNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except nx.NetworkXNoPath:
        print(f"error: no route from {from_node} to {to_node}", file=sys.stderr)
        return 3
    unit = "m" if args.weight == "length" else "s"
    row = {
        "algo": args.algo,
        "weight": args.weight,
        "from": from_node,
        "to": to_node,
        "cost": round(path.cost, 3),
        "unit": unit,
        "links": len(path.links),
        "plan_ms": round(first_ms, 3),
        "best_plan_ms": round(best_ms, 3),
    }
    if args.algo == "ch":
        hierarchy = planner.hierarchy
        row["ch_prep_seconds"] = round(prep_seconds, 3)
        row["ch_shortcuts"] = hierarchy.num_shortcuts
    _emit(args, [row], f"Route {from_node} -> {to_node} on {args.extract}")
    return 0


def _cmd_generate_map(args) -> int:
    roadmap = _MAP_GENERATORS[args.kind](seed=args.seed)
    roadmap_io.save_roadmap(roadmap, args.out)
    stats = roadmap.statistics()
    print(
        f"wrote {args.out}: {stats['intersections']} intersections, "
        f"{stats['links']} links, {stats['total_length_km']:.1f} km"
    )
    return 0


def _cmd_generate_trace(args) -> int:
    scenario = get_scenario(args.scenario, scale=args.scale)
    trace = scenario.sensor_trace if args.noisy else scenario.true_trace
    trace_io.save_trace_csv(trace, args.out)
    print(
        f"wrote {args.out}: {len(trace)} samples, {trace.path_length() / 1000.0:.1f} km, "
        f"{trace.duration / 3600.0:.2f} h"
    )
    return 0


def _cmd_visualize(args) -> int:
    scenario = get_scenario(args.scenario, scale=args.scale)
    protocol = SimulationConfig(
        protocol_id=args.protocol, accuracy=args.accuracy
    ).build_protocol(scenario)
    updates = [
        message.state.position
        for _t, message in trace_updates(protocol, scenario.sensor_trace)
    ]
    print(render_update_summary(scenario.true_trace, updates, protocol.name))
    print(
        render_route_updates(
            scenario.roadmap,
            scenario.true_trace,
            updates,
            width=args.width,
            height=args.height,
        )
    )
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "figure": _cmd_figure,
    "headline": _cmd_headline,
    "sweep": _cmd_sweep,
    "ablation": _cmd_ablation,
    "simulate": _cmd_simulate,
    "scenarios": _cmd_scenarios,
    "fleet": _cmd_fleet,
    "query-bench": _cmd_query_bench,
    "serve": _cmd_serve,
    "load-test": _cmd_load_test,
    "obs-report": _cmd_obs_report,
    "import-map": _cmd_import_map,
    "route": _cmd_route,
    "generate-map": _cmd_generate_map,
    "generate-trace": _cmd_generate_trace,
    "visualize": _cmd_visualize,
}


def _configure_logging(verbosity: int) -> None:
    """Wire ``-v`` to the root logger; WARNING stays the silent default."""
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised through the console script
    sys.exit(main())

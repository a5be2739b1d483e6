"""Big-map benchmark: tiled region generation + contraction-hierarchy routing.

Generates the deterministic ~1M-node synthetic region as a tile store
(:func:`repro.ingest.tiles.write_region_tiles` — the full map never exists
in memory), streams it into a routing graph, preprocesses the contraction
hierarchy, and measures:

* **import-to-route pipeline timings** — region write, graph build, CH
  preprocessing (with shortcut counts), time to the first answered query;
* **query latency** — p50/p99 over a seeded random query set on the CH
  engine (sub-millisecond p50 is the tentpole claim, asserted);
* **speedup vs the networkx Dijkstra reference** — the same pairs answered
  by ``networkx.shortest_path`` on an equivalent ``DiGraph``; the CH
  engine must be ≥10x faster with **bit-identical** route costs, and
  link-for-link identical paths against the repo's own tie-broken
  Dijkstra (the canonical-path contract of ``RoutePlanner``).

Everything is recorded in ``BENCH_bigmap.json`` at the repository root and
guarded by ``benchmarks/check_bench_floors.py``.  Size knobs for CI /
quick local runs: ``REPRO_BENCH_BIGMAP_ROWS`` / ``_COLS`` / ``_QUERIES`` /
``_REF_QUERIES``; ``REPRO_BENCH_BIGMAP_MIN_SPEEDUP`` lowers the asserted
speedup floor for noisy shared runners and ``REPRO_BENCH_BIGMAP_MAX_P50_MS``
relaxes the asserted p50 ceiling (the recorded artifact keeps the real
targets).
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import statistics
import tempfile
import time

import networkx as nx

from repro.ingest.tiles import write_region_tiles
from repro.obs.metrics import LatencyRecorder
from repro.roadmap.hierarchy import (
    ContractionHierarchy,
    RoutingGraph,
    dijkstra_path,
)

from conftest import run_once

_RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_bigmap.json")

#: The tentpole targets: CH at least this much faster than the networkx
#: reference, at sub-millisecond median latency.
_REQUIRED_SPEEDUP = 10.0
_REQUIRED_P50_MS = 1.0

_WEIGHT = "travel_time"


def _env_int(name, default):
    return int(os.environ.get(name, default))


def _min_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_BIGMAP_MIN_SPEEDUP", _REQUIRED_SPEEDUP))


def _max_p50_ms() -> float:
    return float(os.environ.get("REPRO_BENCH_BIGMAP_MAX_P50_MS", _REQUIRED_P50_MS))


def _query_pairs(node_ids, count, rng):
    """Seeded random (source, target) pairs, distinct endpoints."""
    pairs = []
    while len(pairs) < count:
        s = rng.choice(node_ids)
        t = rng.choice(node_ids)
        if s != t:
            pairs.append((s, t))
    return pairs


def _fold_cost(graph, link_ids):
    """Left-to-right cost accumulation — the bit-identity reference."""
    return graph.path_cost(link_ids)[0]


def run_bigmap_bench(rows, cols, queries, ref_queries, keep_tiles_dir=None):
    """The full pipeline at the given region size; returns the record."""
    tiles_dir = keep_tiles_dir or tempfile.mkdtemp(prefix="repro-bigmap-")

    # 1. Streaming region generation (tiles on disk, bounded memory).
    t0 = time.perf_counter()
    store = write_region_tiles(os.path.join(tiles_dir, "region"), rows, cols)
    region_write_seconds = time.perf_counter() - t0

    # 2. Stream the tiles into the routing graph.
    t0 = time.perf_counter()
    graph = RoutingGraph.from_links(_WEIGHT, list(store.routing_links(_WEIGHT)))
    graph_build_seconds = time.perf_counter() - t0

    # 3. Contraction-hierarchy preprocessing, including the top-of-hierarchy
    #    expansion warm-up (part of the offline phase, like the build).
    t0 = time.perf_counter()
    hierarchy = ContractionHierarchy.build(graph)
    ch_build_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    warmed_entries = hierarchy.warm_expansions()
    warm_seconds = time.perf_counter() - t0

    node_ids = graph.node_ids
    rng = random.Random(20260808)

    # 4. First query = end of the import-to-route pipeline.
    s0, t0_node = _query_pairs(node_ids, 1, rng)[0]
    t0 = time.perf_counter()
    first = hierarchy.query(s0, t0_node)
    first_query_seconds = time.perf_counter() - t0
    assert first is not None

    # 5. CH query latency distribution over a seeded random query set,
    #    summarised by the shared recorder (nearest-rank percentiles; the
    #    committed artifact's floors comfortably absorb the sub-µs shift
    #    from the old interpolated median).
    pairs = _query_pairs(node_ids, queries, rng)
    latencies_ms = []
    for s, t in pairs:
        t0 = time.perf_counter()
        hierarchy.query(s, t)
        latencies_ms.append((time.perf_counter() - t0) * 1000.0)
    query_latency = LatencyRecorder([ms / 1000.0 for ms in latencies_ms])
    p50_ms = query_latency.percentile(50.0) * 1000.0
    p99_ms = query_latency.percentile(99.0) * 1000.0

    # 6. Reference pairs: networkx Dijkstra timing + bit-identity checks.
    ref_pairs = _query_pairs(node_ids, ref_queries, rng)
    nxg = nx.DiGraph()
    for u in range(graph.num_nodes()):
        uid = node_ids[u]
        for w, _tie, v, link_id in graph.out_edges[u]:
            nxg.add_edge(uid, node_ids[v], weight=w, link_id=link_id)

    costs_identical = True
    paths_identical = True
    nx_seconds = 0.0
    ch_seconds = 0.0
    for s, t in ref_pairs:
        t0 = time.perf_counter()
        nx_nodes = nx.shortest_path(nxg, s, t, weight="weight")
        nx_seconds += time.perf_counter() - t0

        t0 = time.perf_counter()
        ch_path = hierarchy.query(s, t)
        ch_seconds += time.perf_counter() - t0

        # The repo's own tie-broken Dijkstra is the canonical-path contract:
        # identical links, identical cost, bit for bit.
        dj_path = dijkstra_path(graph, s, t)
        if ch_path.cost != dj_path.cost or ch_path.links != dj_path.links:
            paths_identical = False
        # networkx breaks ties its own way, but the region's jittered
        # weights make the optimum unique: the same link sequence must fall
        # out, and its left-to-right cost fold must match bit for bit.
        nx_links = [
            nxg.edges[a, b]["link_id"] for a, b in zip(nx_nodes, nx_nodes[1:])
        ]
        if _fold_cost(graph, nx_links) != ch_path.cost:
            costs_identical = False

    speedup = (nx_seconds / ch_seconds) if ch_seconds > 0 else None

    record = {
        "benchmark": "bigmap",
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "region": {
            "rows": rows,
            "cols": cols,
            "nodes": graph.num_nodes(),
            "links": graph.num_edges(),
            "tiles": len(store.index["tiles"]),
            "weight": _WEIGHT,
        },
        "timings": {
            "region_write_seconds": round(region_write_seconds, 3),
            "graph_build_seconds": round(graph_build_seconds, 3),
            "ch_build_seconds": round(ch_build_seconds, 3),
            "warm_expansions_seconds": round(warm_seconds, 3),
            "first_query_seconds": round(first_query_seconds, 6),
            "import_to_first_route_seconds": round(
                region_write_seconds
                + graph_build_seconds
                + ch_build_seconds
                + warm_seconds
                + first_query_seconds,
                3,
            ),
        },
        "ch": {
            "shortcuts": hierarchy.num_shortcuts,
            "shortcuts_per_edge": round(hierarchy.num_shortcuts / graph.num_edges(), 4),
            "witness_settle_limit": ContractionHierarchy.WITNESS_SETTLE_LIMIT,
            "warmed_expansions": warmed_entries,
        },
        "query": {
            "queries": queries,
            "p50_ms": round(p50_ms, 4),
            "p99_ms": round(p99_ms, 4),
            "mean_ms": round(statistics.fmean(latencies_ms), 4),
            "required_p50_ms": _REQUIRED_P50_MS,
            "sub_ms_p50": p50_ms < _max_p50_ms(),
        },
        "reference": {
            "pairs": ref_queries,
            "nx_mean_ms": round(nx_seconds / ref_queries * 1000.0, 3),
            "ch_mean_ms": round(ch_seconds / ref_queries * 1000.0, 4),
            "speedup": round(speedup, 1) if speedup else None,
            "required_speedup": _REQUIRED_SPEEDUP,
            "costs_identical": costs_identical,
            "paths_identical": paths_identical,
        },
    }
    if keep_tiles_dir is None:
        shutil.rmtree(tiles_dir, ignore_errors=True)
    return record


def _print_record(record):
    slim = {k: v for k, v in record.items() if k != "machine"}
    print(json.dumps(slim, indent=2))


def _write_record(record):
    with open(_RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.normpath(_RESULT_PATH)}")


def _assert_record(record):
    assert record["reference"]["costs_identical"], (
        "CH route costs diverged from the networkx Dijkstra reference"
    )
    assert record["reference"]["paths_identical"], (
        "CH paths diverged from the tie-broken Dijkstra reference"
    )
    floor = _min_speedup()
    assert record["reference"]["speedup"] >= floor, (
        f"CH speedup {record['reference']['speedup']}x is below the {floor}x floor"
    )
    ceiling = _max_p50_ms()
    assert record["query"]["p50_ms"] < ceiling, (
        f"CH query p50 {record['query']['p50_ms']} ms exceeds the {ceiling} ms ceiling"
    )


def _bench_kwargs():
    return dict(
        rows=_env_int("REPRO_BENCH_BIGMAP_ROWS", 1000),
        cols=_env_int("REPRO_BENCH_BIGMAP_COLS", 1000),
        queries=_env_int("REPRO_BENCH_BIGMAP_QUERIES", 200),
        ref_queries=_env_int("REPRO_BENCH_BIGMAP_REF_QUERIES", 12),
    )


def test_bigmap(benchmark):
    record = run_once(benchmark, run_bigmap_bench, **_bench_kwargs())
    print()
    _print_record(record)
    _write_record(record)
    _assert_record(record)


if __name__ == "__main__":  # pragma: no cover - manual / CI smoke entry point
    record = run_bigmap_bench(**_bench_kwargs())
    _print_record(record)
    _write_record(record)
    _assert_record(record)

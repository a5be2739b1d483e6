"""Property tests for the ingest invariants (satellite of the ingest PR).

Over randomly drawn synthetic-OSM towns, the conditioning pipeline must
hold four invariants:

* every emitted link has strictly positive length,
* the contracted graph stays connected (conditioning keeps exactly one
  component, so contraction must not sever anything),
* junction degrees are preserved — a node surviving contraction has the
  same out-degree in the raw and the contracted graph,
* shortest-path distances between junctions are identical (up to float
  summation order) on the raw and the contracted graph: contraction
  changes the graph, never the road geometry.

Plus the determinism contracts: the fixture generator is byte-stable per
seed, and the bundled ``tests/data/miniville.osm`` is exactly the
generator's output, so the committed extract can never drift.
"""

from collections import Counter
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ingest import (
    compile_roadmap,
    load_osm,
    project_network,
    synthetic_town_xml,
)

from reference.maps import to_networkx

FIXTURE_PATH = Path(__file__).parent / "data" / "miniville.osm"

towns = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "rows": st.integers(min_value=3, max_value=6),
        "cols": st.integers(min_value=3, max_value=6),
        "chain_step_m": st.sampled_from([45.0, 70.0, 110.0]),
    }
)


def _compiled_pair(params):
    projected = project_network(load_osm(synthetic_town_xml(**params)))
    compact = compile_roadmap(projected, contract=True, source="property")
    raw = compile_roadmap(projected, contract=False, source="property")
    return raw.roadmap, compact.roadmap


@settings(max_examples=12, deadline=None)
@given(params=towns)
def test_every_link_has_positive_length(params):
    raw, compact = _compiled_pair(params)
    for roadmap in (raw, compact):
        assert all(link.length > 0.0 for link in roadmap.links.values())


@settings(max_examples=12, deadline=None)
@given(params=towns)
def test_contracted_graph_is_connected(params):
    _, compact = _compiled_pair(params)
    assert nx.is_weakly_connected(to_networkx(compact))


@settings(max_examples=12, deadline=None)
@given(params=towns)
def test_junction_degrees_preserved(params):
    raw, compact = _compiled_pair(params)
    raw_in = Counter(link.to_node for link in raw.links.values())
    compact_in = Counter(link.to_node for link in compact.links.values())
    for node_id in compact.intersections:
        assert raw.degree(node_id) == compact.degree(node_id), (
            f"out-degree of junction {node_id} changed under contraction"
        )
        assert raw_in[node_id] == compact_in[node_id]


@settings(max_examples=8, deadline=None)
@given(params=towns, pair_seed=st.integers(min_value=0, max_value=999))
def test_shortest_path_distances_identical(params, pair_seed):
    raw, compact = _compiled_pair(params)
    raw_graph = to_networkx(raw)
    compact_graph = to_networkx(compact)
    junctions = sorted(compact.intersections)
    rng = np.random.default_rng(pair_seed)
    for _ in range(6):
        a, b = (junctions[i] for i in rng.choice(len(junctions), size=2, replace=False))
        try:
            on_compact = nx.shortest_path_length(compact_graph, a, b, weight="length")
        except nx.NetworkXNoPath:
            with pytest.raises(nx.NetworkXNoPath):
                nx.shortest_path_length(raw_graph, a, b, weight="length")
            continue
        on_raw = nx.shortest_path_length(raw_graph, a, b, weight="length")
        # Identical up to float summation order (the raw path adds segment
        # lengths one by one; the chain pre-sums them).
        assert on_raw == pytest.approx(on_compact, rel=1e-9, abs=1e-6)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fixture_generator_is_deterministic(seed):
    assert synthetic_town_xml(seed=seed) == synthetic_town_xml(seed=seed)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_total_length_preserved_by_contraction(seed):
    projected = project_network(load_osm(synthetic_town_xml(seed=seed, rows=4, cols=4)))
    compact = compile_roadmap(projected, contract=True).roadmap
    raw = compile_roadmap(projected, contract=False).roadmap
    assert compact.total_length() == pytest.approx(raw.total_length(), rel=1e-9)


def test_bundled_fixture_matches_generator():
    """tests/data/miniville.osm is exactly synthetic_town_xml(seed=7)."""
    committed = FIXTURE_PATH.read_text(encoding="utf-8")
    assert committed == synthetic_town_xml(seed=7), (
        "the bundled fixture drifted from the generator; regenerate it with "
        "python -c \"from repro.ingest import write_fixture_xml; "
        "write_fixture_xml('tests/data/miniville.osm', seed=7)\""
    )


def test_bundled_fixture_compiles():
    compiled = compile_roadmap(project_network(load_osm(FIXTURE_PATH)), source="miniville")
    assert compiled.roadmap.num_intersections() == 36
    assert compiled.report.components_dropped == 1  # the island
    assert compiled.report.stub_segments_pruned >= 3  # the cul-de-sacs
    assert compiled.report.nodes_contracted > 100  # the bead chains

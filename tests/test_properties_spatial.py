"""Property-based tests for the spatial index (hypothesis).

:class:`GridIndex` (and the k-nearest search of the oracle's
:class:`~reference.scalar_query_engine.MovingObjectIndex`) is checked
against :func:`brute_force_nearest` and against linear scans of the items
themselves.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.geo.bbox import BoundingBox
from repro.spatial.grid import GridIndex
from repro.spatial.index import brute_force_nearest

from reference.scalar_query_engine import MovingObjectIndex
from reference.segments import segment_distance, segment_item

coordinate = st.floats(min_value=-10_000.0, max_value=10_000.0, allow_nan=False)
point = st.tuples(coordinate, coordinate)


def build_items(segments):
    return [segment_item(i, a, b) for i, (a, b) in enumerate(segments)]


@settings(max_examples=50, deadline=None)
@given(
    segments=st.lists(st.tuples(point, point), min_size=1, max_size=30),
    query=point,
)
def test_grid_nearest_matches_brute_force(segments, query):
    items = build_items(segments)
    index = GridIndex(cell_size=500.0, items=items)
    expected = brute_force_nearest(items, query)
    got = index.nearest(query)
    assert got is not None and expected is not None
    assert np.isclose(got[1], expected[1], atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    segments=st.lists(st.tuples(point, point), min_size=1, max_size=25),
    query=point,
    radius=st.floats(min_value=1.0, max_value=5_000.0),
)
def test_query_radius_is_exact(segments, query, radius):
    items = build_items(segments)
    index = GridIndex(cell_size=700.0, items=items)
    hits = {item.key for item in index.query_radius(query, radius)}
    expected = {item.key for item in items if item.distance(np.asarray(query)) <= radius}
    assert hits == expected


def test_query_radius_boundary_rounding_regression():
    """A segment whose true distance exceeds the radius by ~1e-303 (the
    distance callback rounds it to exactly the radius) must be admitted:
    membership is decided by the rounded callback, not by the exact bbox
    prune (hypothesis-found falsifying example, pinned here)."""
    items = build_items([((0.0, -1.0), (0.0, -4.78e-303))])
    index = GridIndex(cell_size=700.0, items=items)
    hits = {item.key for item in index.query_radius((0.0, 1.0), 1.0)}
    expected = {
        item.key
        for item in items
        if item.distance(np.asarray((0.0, 1.0))) <= 1.0
    }
    assert hits == expected == {0}


@settings(max_examples=50, deadline=None)
@given(
    segments=st.lists(st.tuples(point, point), min_size=1, max_size=30),
    query=point,
    k=st.integers(min_value=1, max_value=8),
)
def test_grid_k_nearest_matches_brute_force(segments, query, k):
    """``k_nearest`` returns the k smallest distances of a linear scan, sorted."""
    items = build_items(segments)
    grid = MovingObjectIndex(cell_size=400.0, items=items)
    got = grid.k_nearest(query, k)
    expected = sorted(item.distance(np.asarray(query)) for item in items)[:k]
    assert len(got) == len(expected)
    assert np.allclose([d for _item, d in got], expected, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(segments=st.lists(st.tuples(point, point), min_size=1, max_size=25))
def test_grid_bbox_query_matches_linear_scan(segments):
    items = build_items(segments)
    grid = GridIndex(cell_size=800.0, items=items)
    box = BoundingBox(-2_000.0, -2_000.0, 2_000.0, 2_000.0)
    expected = {item.key for item in items if item.bounds.intersects(box)}
    assert {i.key for i in grid.query_bbox(box)} == expected


# --------------------------------------------------------------------------- #
# nearest against brute force, with and without a distance cap
# --------------------------------------------------------------------------- #
@settings(max_examples=50, deadline=None)
@given(
    segments=st.lists(st.tuples(point, point), min_size=1, max_size=30),
    queries=st.lists(point, min_size=1, max_size=8),
    cell_size=st.sampled_from([120.0, 500.0, 2_500.0]),
)
def test_all_backends_agree_on_nearest_point_sets(segments, queries, cell_size):
    """The grid and brute force return the same nearest distance."""
    items = build_items(segments)
    grid = GridIndex(cell_size=cell_size, items=items)
    for query in queries:
        expected = brute_force_nearest(items, query)
        got = grid.nearest(query)
        assert got is not None and expected is not None
        assert np.isclose(got[1], expected[1], atol=1e-6)


#: A segment whose bbox misses the capped search box by 7e-29 m while its
#: distance rounds to exactly the cap (hypothesis-found, pinned below).
_CAP_BOUNDARY = {
    "segments": [((0.0, -1.0), (0.0, -7.096152009654443e-29))],
    "query": (0.0, 1.0),
    "max_distance": 1.0,
}


@settings(max_examples=50, deadline=None)
@given(
    segments=st.lists(st.tuples(point, point), min_size=1, max_size=25),
    query=point,
    max_distance=st.floats(min_value=1.0, max_value=8_000.0),
)
@example(**_CAP_BOUNDARY)
def test_all_backends_agree_on_capped_nearest(segments, query, max_distance):
    """The ``max_distance`` contract holds as in a brute-force scan."""
    items = build_items(segments)
    grid = GridIndex(cell_size=600.0, items=items)
    expected = brute_force_nearest(items, query, limit=max_distance)
    got = grid.nearest(query, max_distance=max_distance)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got[1] <= max_distance + 1e-9
        assert np.isclose(got[1], expected[1], atol=1e-6)


def test_k_nearest_keeps_item_at_exact_cap():
    """``k_nearest`` prunes with the same rounding margin as ``nearest``."""
    items = build_items(_CAP_BOUNDARY["segments"])
    grid = MovingObjectIndex(cell_size=600.0, items=items)
    got = grid.k_nearest(_CAP_BOUNDARY["query"], 1, max_distance=1.0)
    assert [d for _item, d in got] == [1.0]


# --------------------------------------------------------------------------- #
# polyline projection
# --------------------------------------------------------------------------- #
polyline_points = st.lists(point, min_size=2, max_size=20)


@settings(max_examples=60, deadline=None)
@given(vertices=polyline_points, query=point)
def test_polyline_projection_matches_segmentwise_minimum(vertices, query):
    """``Polyline.project`` equals the minimum over its segments."""
    from repro.geo.polyline import Polyline

    line = Polyline(vertices)
    matched, offset, dist = line.project(np.asarray(query))
    segment_min = min(
        segment_distance(a, b, query) for a, b in zip(line.points, line.points[1:])
    )
    assert np.isclose(dist, segment_min, atol=1e-6)
    assert 0.0 <= offset <= line.length + 1e-9
    # The matched point lies on the polyline at the reported offset and at
    # the reported distance from the query.
    assert np.allclose(matched, line.point_at(offset), atol=1e-6)
    assert np.isclose(np.hypot(*(matched - np.asarray(query))), dist, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(vertices=polyline_points, fraction=st.floats(min_value=0.0, max_value=1.0))
def test_polyline_projection_of_on_line_point_is_exact(vertices, fraction):
    """A point taken from the polyline projects back to distance ~0."""
    from repro.geo.polyline import Polyline

    line = Polyline(vertices)
    offset = fraction * line.length
    on_line = line.point_at(offset)
    _, _, dist = line.project(on_line)
    assert dist <= 1e-6


@settings(max_examples=40, deadline=None)
@given(vertices=polyline_points, query=point)
def test_polyline_projection_agrees_across_index_backends(vertices, query):
    """Indexing polyline segments gives the projection's nearest distance."""
    from repro.geo.polyline import Polyline

    line = Polyline(vertices)
    items = [
        segment_item(i, a, b) for i, (a, b) in enumerate(zip(line.points, line.points[1:]))
    ]
    _, _, direct = line.project(np.asarray(query))
    got = GridIndex(cell_size=400.0, items=items).nearest(query)
    assert got is not None
    assert np.isclose(got[1], direct, atol=1e-6)
    brute = brute_force_nearest(items, query)
    assert brute is not None and np.isclose(brute[1], direct, atol=1e-6)

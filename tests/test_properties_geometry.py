"""Property-based tests for the geometry substrate (hypothesis)."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.geo.angles import angle_between, bearing
from repro.geo.polyline import Polyline
from repro.geo.vec import distance

from reference.segments import segment_distance

coordinate = st.floats(min_value=-50_000.0, max_value=50_000.0, allow_nan=False)
point = st.tuples(coordinate, coordinate)


@settings(max_examples=100, deadline=None)
@given(a=point, b=point, q=point)
def test_segment_projection_is_closest_vertexwise(a, b, q):
    """On one segment the projection is at least as close as either endpoint."""
    d = Polyline([a, b]).distance_to(q)
    assert d <= distance(a, q) + 1e-6
    assert d <= distance(b, q) + 1e-6
    scale = max(1.0, distance(a, b), distance(a, q))
    assert math.isclose(d, segment_distance(a, b, q), rel_tol=1e-9, abs_tol=1e-9 * scale)


@settings(max_examples=100, deadline=None)
@given(a=point, b=point, q=point)
def test_segment_projection_lies_on_segment(a, b, q):
    seg = Polyline([a, b])
    proj, offset, _ = seg.project(q)
    assert 0.0 <= offset <= seg.length + 1e-9
    np.testing.assert_allclose(seg.point_at(offset), proj, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(point, min_size=2, max_size=12), q=point)
def test_polyline_projection_not_worse_than_any_vertex(points, q):
    poly = Polyline(points)
    _, _, dist = poly.project(q)
    best_vertex = min(distance(p, q) for p in points)
    assert dist <= best_vertex + 1e-6


@settings(max_examples=100, deadline=None)
@given(points=st.lists(point, min_size=2, max_size=12), q=point)
def test_polyline_projection_offset_consistency(points, q):
    poly = Polyline(points)
    projected, offset, dist = poly.project(q)
    assert 0.0 <= offset <= poly.length + 1e-6
    np.testing.assert_allclose(poly.point_at(offset), projected, atol=1e-5)
    assert dist == np.hypot(*(projected - np.asarray(q, dtype=float))).item() or np.isclose(
        dist, float(np.hypot(*(projected - np.asarray(q, dtype=float)))), atol=1e-6
    )


@settings(max_examples=100, deadline=None)
@given(points=st.lists(point, min_size=2, max_size=12))
def test_polyline_length_equals_sum_of_segments(points):
    poly = Polyline(points)
    total = sum(distance(a, b) for a, b in zip(points, points[1:]))
    assert math.isclose(poly.length, total, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(point, min_size=2, max_size=10), q=point)
def test_polyline_reverse_preserves_length(points, q):
    """The reversed vertex list has the same length and the same closest point."""
    poly = Polyline(points)
    rev = Polyline(points[::-1])
    assert math.isclose(rev.length, poly.length, rel_tol=1e-12, abs_tol=1e-9)
    scale = max(1.0, poly.length, distance(points[0], q))
    assert math.isclose(rev.distance_to(q), poly.distance_to(q), rel_tol=1e-9, abs_tol=1e-9 * scale)


@settings(max_examples=100, deadline=None)
@given(points=st.lists(point, min_size=2, max_size=10), fraction=st.floats(0.0, 1.0))
def test_point_at_is_on_or_near_some_segment(points, fraction):
    poly = Polyline(points)
    target = poly.point_at(fraction * poly.length)
    # The generated point must lie (numerically) on the polyline.
    _, _, dist = poly.project(target)
    assert dist < 1e-6 * max(1.0, poly.length)


@settings(max_examples=100, deadline=None)
@given(a=point, b=point)
def test_bearing_reverse_differs_by_pi(a, b):
    assume(distance(a, b) > 1e-6)
    forward = bearing(a, b)
    backward = bearing(b, a)
    diff = abs((forward - backward + math.pi) % (2 * math.pi) - math.pi)
    assert math.isclose(diff, math.pi, abs_tol=1e-6) or math.isclose(diff, -math.pi, abs_tol=1e-6)


@settings(max_examples=100, deadline=None)
@given(u=point, v=point)
def test_angle_between_is_symmetric_and_bounded(u, v):
    angle_uv = angle_between(u, v)
    angle_vu = angle_between(v, u)
    assert math.isclose(angle_uv, angle_vu, abs_tol=1e-9)
    assert 0.0 <= angle_uv <= math.pi + 1e-12

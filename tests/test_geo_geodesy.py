"""Unit tests for repro.geo.geodesy."""

import math

import numpy as np
import pytest

from repro.geo.geodesy import EARTH_RADIUS_M, LocalProjection

from reference.geodesy import haversine_distance


def _to_local(proj, lat, lon):
    return proj.to_local_array(np.array([lat]), np.array([lon]))[0]


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_distance(48.7, 9.1, 48.7, 9.1) == 0.0

    def test_one_degree_latitude(self):
        d = haversine_distance(48.0, 9.0, 49.0, 9.0)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M / 180.0, rel=1e-6)

    def test_symmetry(self):
        d1 = haversine_distance(48.7, 9.1, 48.8, 9.3)
        d2 = haversine_distance(48.8, 9.3, 48.7, 9.1)
        assert d1 == pytest.approx(d2)

    def test_longitude_shrinks_with_latitude(self):
        at_equator = haversine_distance(0.0, 0.0, 0.0, 1.0)
        at_60_north = haversine_distance(60.0, 0.0, 60.0, 1.0)
        assert at_60_north == pytest.approx(at_equator * 0.5, rel=1e-2)


class TestLocalProjection:
    def test_reference_maps_to_origin(self):
        proj = LocalProjection(ref_lat=48.7, ref_lon=9.1)
        assert _to_local(proj, 48.7, 9.1).tolist() == [0.0, 0.0]

    def test_roundtrip(self):
        proj = LocalProjection(ref_lat=48.7, ref_lon=9.1)
        lat, lon = proj.to_geodetic(_to_local(proj, 48.75, 9.2))
        assert lat == pytest.approx(48.75, abs=1e-9)
        assert lon == pytest.approx(9.2, abs=1e-9)

    def test_north_is_positive_y(self):
        proj = LocalProjection(ref_lat=48.7, ref_lon=9.1)
        local = _to_local(proj, 48.71, 9.1)
        assert local[0] == pytest.approx(0.0)
        assert local[1] > 0

    def test_east_is_positive_x(self):
        proj = LocalProjection(ref_lat=48.7, ref_lon=9.1)
        local = _to_local(proj, 48.7, 9.11)
        assert local[0] > 0
        assert local[1] == pytest.approx(0.0)

    def test_distance_close_to_haversine(self):
        proj = LocalProjection(ref_lat=48.7, ref_lon=9.1)
        a = _to_local(proj, 48.72, 9.14)
        b = _to_local(proj, 48.74, 9.05)
        planar = float(np.hypot(*(a - b)))
        geodesic = haversine_distance(48.72, 9.14, 48.74, 9.05)
        assert planar == pytest.approx(geodesic, rel=2e-3)

    def test_vectorised_conversion(self):
        proj = LocalProjection(ref_lat=48.7, ref_lon=9.1)
        lats = np.array([48.7, 48.71, 48.72])
        lons = np.array([9.1, 9.12, 9.08])
        out = proj.to_local_array(lats, lons)
        assert out.shape == (3, 2)
        np.testing.assert_allclose(out[0], [0.0, 0.0])
        lat, lon = proj.to_geodetic(out[1])
        assert (lat, lon) == (pytest.approx(48.71, abs=1e-9), pytest.approx(9.12, abs=1e-9))

"""Shared fixtures for the test suite.

Expensive fixtures (scenarios) are session-scoped and built at a small route
scale so the whole suite stays fast while still exercising the full pipeline.
"""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import settings

from repro.mobility.scenarios import (
    city_scenario,
    freeway_scenario,
    interurban_scenario,
    walking_scenario,
)
from repro.roadmap.builder import RoadMapBuilder
from repro.roadmap.elements import RoadClass
from repro.traces.trace import Trace

from reference.maps import straight_road_map, t_junction_map


# CI runs every property test with ``--hypothesis-profile=ci``: examples
# are derived from the test itself rather than drawn at random, no example
# database carries failures from one run to the next, and a failure prints
# the blob that reproduces it.  Local runs keep hypothesis's default profile.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current code instead of comparing",
    )


# --------------------------------------------------------------------------- #
# small road maps
# --------------------------------------------------------------------------- #
@pytest.fixture()
def straight_map():
    """A 2 km straight two-way road split into 4 links."""
    return straight_road_map(length_m=2000.0, n_links=4)


@pytest.fixture()
def t_map():
    """A T junction with 500 m arms."""
    return t_junction_map(arm_length_m=500.0)


@pytest.fixture()
def curved_map():
    """A two-link road with a 90-degree bend described by shape points."""
    builder = RoadMapBuilder()
    a = builder.add_intersection((0.0, 0.0)).id
    b = builder.add_intersection((1000.0, 0.0)).id
    c = builder.add_intersection((1000.0, 1000.0)).id
    builder.add_two_way_link(
        a,
        b,
        shape_points=[(250.0, 0.0), (500.0, 0.0), (750.0, 0.0)],
        road_class=RoadClass.SECONDARY,
    )
    builder.add_two_way_link(
        b,
        c,
        shape_points=[(1000.0, 250.0), (1000.0, 500.0), (1000.0, 750.0)],
        road_class=RoadClass.SECONDARY,
    )
    return builder.build()


# --------------------------------------------------------------------------- #
# simple traces
# --------------------------------------------------------------------------- #
@pytest.fixture()
def straight_trace():
    """Constant 20 m/s motion along +x for 60 seconds, 1 Hz."""
    times = np.arange(0.0, 61.0)
    positions = np.column_stack((times * 20.0, np.zeros_like(times)))
    return Trace(times, positions, name="straight")


@pytest.fixture()
def l_shaped_trace():
    """20 m/s along +x for 50 s, then along +y for 50 s (a sharp corner)."""
    times = np.arange(0.0, 101.0)
    xs = np.where(times <= 50.0, times * 20.0, 1000.0)
    ys = np.where(times <= 50.0, 0.0, (times - 50.0) * 20.0)
    return Trace(times, np.column_stack((xs, ys)), name="l-shaped")


# --------------------------------------------------------------------------- #
# scenarios (session scoped, small scale)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def tiny_freeway_scenario():
    """Freeway scenario at 5% scale (a few minutes of driving)."""
    return freeway_scenario(seed=0, scale=0.05)


@pytest.fixture(scope="session")
def tiny_city_scenario():
    """City scenario at 7% scale."""
    return city_scenario(seed=2, scale=0.07)


@pytest.fixture(scope="session")
def tiny_interurban_scenario():
    """Inter-urban scenario at 8% scale."""
    return interurban_scenario(seed=1, scale=0.08)


@pytest.fixture(scope="session")
def tiny_walking_scenario():
    """Walking scenario at 15% scale."""
    return walking_scenario(seed=3, scale=0.15)

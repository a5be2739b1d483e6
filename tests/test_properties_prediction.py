"""``predict_many`` equals ``predict`` row for row, bit for bit (hypothesis).

The first-crossing search and the fleet's error measurement ask a prediction
for one reported state at many times at once; each row must be exactly the
position :meth:`~repro.protocols.prediction.PredictionFunction.predict`
returns for that time, or a send or an error sample would move.  States
sit on the links of the library maps (offsets inside and past the link
length), carry no link or an unknown one (linear fallback), and are asked
before, at and after their report time; quadratic and known-route
predictions are asked the same times.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.polyline import Polyline
from repro.protocols.base import ObjectState
from repro.protocols.prediction import (
    LinearPrediction,
    MainRoadTurnPolicy,
    MapPrediction,
    ProbabilisticTurnPolicy,
    QuadraticPrediction,
    RoutePrediction,
    StaticPrediction,
)
from repro.roadmap.elements import Intersection, Link
from repro.roadmap.graph import RoadMap
from repro.roadmap.probability import TurnProbabilityTable

from test_sim_kernel import LIBRARY_NAMES, _scenario

from reference.maps import t_junction_map


def _zero_length_segments_map() -> RoadMap:
    """A two-way road whose polylines repeat a vertex (zero-length segments)."""
    a = Intersection(id=0, position=np.array([0.0, 0.0]))
    b = Intersection(id=1, position=np.array([400.0, 300.0]))
    ahead = Polyline([(0.0, 0.0), (0.0, 0.0), (200.0, 0.0), (200.0, 0.0), (400.0, 300.0)])
    back = Polyline([(400.0, 300.0), (200.0, 0.0), (200.0, 0.0), (0.0, 0.0), (0.0, 0.0)])
    return RoadMap([a, b], [Link(0, 0, 1, ahead), Link(1, 1, 0, back)])


@pytest.fixture(scope="module")
def roadmaps():
    maps = {name: _scenario(name).roadmap for name in LIBRARY_NAMES}
    maps["t_junction"] = t_junction_map(arm_length_m=300.0)
    maps["zero_length"] = _zero_length_segments_map()
    return maps


@pytest.fixture(scope="module")
def routes():
    return [_scenario(name).route for name in LIBRARY_NAMES]


finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


@st.composite
def queries(draw, roadmaps):
    """A map, a reported state on (or off) it, and the times to predict at."""
    name = draw(st.sampled_from(sorted(roadmaps)))
    roadmap = roadmaps[name]
    link_ids = sorted(roadmap.links)
    kind = draw(st.sampled_from(["link", "link", "link", "none", "unknown"]))
    link_id = None
    offset = None
    if kind == "unknown":
        link_id = max(link_ids) + 1 + draw(st.integers(0, 5))
    elif kind == "link":
        link_id = draw(st.sampled_from(link_ids))
        length = roadmap.link(link_id).length
        offset = draw(st.one_of(
            st.none(),
            st.floats(min_value=0.0, max_value=1.5 * length),
            st.sampled_from([0.0, length]),
        ))
    report_time = draw(st.floats(min_value=0.0, max_value=1e4))
    state = ObjectState(
        time=report_time,
        position=(draw(finite), draw(finite)),
        velocity=(draw(st.floats(-60.0, 60.0)), draw(st.floats(-60.0, 60.0))),
        speed=draw(st.floats(min_value=0.0, max_value=60.0)),
        link_id=link_id,
        link_offset=offset,
    )
    steps = draw(st.lists(st.floats(min_value=-50.0, max_value=600.0), max_size=60))
    times = np.array([report_time, *(report_time + step for step in steps)])
    if draw(st.booleans()):
        times.sort()
    return roadmap, state, times


def _assert_rows_equal(prediction, state, times):
    many = prediction.predict_many(state, times)
    assert many.shape == (len(times), 2)
    for t, row in zip(times.tolist(), many):
        assert row.tobytes() == prediction.predict(state, t).tobytes(), t


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_predict_many_equals_predict(roadmaps, data):
    roadmap, state, times = data.draw(queries(roadmaps))
    max_links = data.draw(st.sampled_from([1, 3, 64]))
    for prediction in (
        StaticPrediction(),
        LinearPrediction(),
        MapPrediction(roadmap, max_links_ahead=max_links),
    ):
        _assert_rows_equal(prediction, state, times)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_predict_many_of_the_other_map_walks(roadmaps, data):
    """The speed-limit time budget and other turn policies: the same rows."""
    roadmap, state, times = data.draw(queries(roadmaps))
    for prediction in (
        MapPrediction(roadmap, speed_limit_factor=0.8),
        MapPrediction(roadmap, MainRoadTurnPolicy()),
        MapPrediction(roadmap, ProbabilisticTurnPolicy(TurnProbabilityTable(roadmap))),
    ):
        _assert_rows_equal(prediction, state, times)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_predict_many_of_quadratic_and_route_predictions(roadmaps, routes, data):
    """Constant acceleration (frozen past the horizon) and a known route
    (from the state's route offset, or its projection): the same rows."""
    _roadmap, state, times = data.draw(queries(roadmaps))
    acceleration = data.draw(st.one_of(
        st.none(), st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    ))
    horizon = data.draw(st.sampled_from([0.5, 30.0, 1e6]))
    _assert_rows_equal(
        QuadraticPrediction(max_horizon=horizon), replace(state, acceleration=acceleration), times
    )
    route = data.draw(st.sampled_from(routes))
    offset = data.draw(st.one_of(
        st.none(),
        st.floats(min_value=0.0, max_value=1.2 * route.length),
        st.sampled_from([0.0, route.length]),
    ))
    _assert_rows_equal(RoutePrediction(route), replace(state, link_id=None, link_offset=offset), times)

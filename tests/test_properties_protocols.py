"""Property-based tests of the protocol accuracy invariant (hypothesis).

The central guarantee of every accuracy-bounded protocol (paper Sec. 2): as
long as source and server share the prediction function, the server-side
position error never exceeds the requested accuracy ``us`` by more than the
sensor uncertainty plus the movement within one sampling interval (the
deviation is only checked once per sighting).  Over a channel with
latency the server holds an older report, and the bound grows with it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.higher_order import HigherOrderPredictionProtocol
from repro.protocols.reporting import DistanceBasedReporting, MovementBasedReporting
from repro.service.channel import MessageChannel
from repro.sim.fleet import run_simulation
from repro.traces.trace import Trace


@st.composite
def random_walk_trace(draw):
    """A random trace with bounded per-step movement (max 40 m/s)."""
    n = draw(st.integers(min_value=5, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    # Piecewise-constant heading and speed, changed at random instants:
    # resembles real movement better than white-noise steps.
    times = np.arange(float(n))
    headings = np.cumsum(rng.normal(0.0, 0.4, size=n))
    speeds = np.abs(rng.normal(15.0, 10.0, size=n)).clip(0.0, 40.0)
    steps = np.column_stack((np.cos(headings), np.sin(headings))) * speeds[:, None]
    positions = np.cumsum(steps, axis=0)
    return Trace(times, positions)


MAX_STEP = 40.0  # matches the speed clip in the strategy above


@settings(max_examples=30, deadline=None)
@given(trace=random_walk_trace(), accuracy=st.floats(min_value=30.0, max_value=400.0))
def test_distance_based_error_bounded(trace, accuracy):
    result = run_simulation(DistanceBasedReporting(accuracy=accuracy), trace)
    assert result.metrics.max_error <= accuracy + MAX_STEP + 1e-6


@settings(max_examples=30, deadline=None)
@given(trace=random_walk_trace(), accuracy=st.floats(min_value=30.0, max_value=400.0))
def test_linear_prediction_error_bounded(trace, accuracy):
    result = run_simulation(
        LinearPredictionProtocol(accuracy=accuracy, estimation_window=2), trace
    )
    assert result.metrics.max_error <= accuracy + MAX_STEP + 1e-6


@settings(max_examples=20, deadline=None)
@given(trace=random_walk_trace(), accuracy=st.floats(min_value=30.0, max_value=400.0))
def test_higher_order_error_bounded(trace, accuracy):
    result = run_simulation(
        HigherOrderPredictionProtocol(accuracy=accuracy, estimation_window=2), trace
    )
    assert result.metrics.max_error <= accuracy + MAX_STEP + 1e-6


@settings(max_examples=20, deadline=None)
@given(trace=random_walk_trace(), accuracy=st.floats(min_value=30.0, max_value=400.0))
def test_movement_based_error_bounded(trace, accuracy):
    # Movement-based reporting bounds the travelled path, which in turn
    # bounds the displacement from the last report.
    result = run_simulation(MovementBasedReporting(accuracy=accuracy), trace)
    assert result.metrics.max_error <= accuracy + MAX_STEP + 1e-6


#: Channel latencies (seconds): on and off the 1 s sampling grid.
LATENCIES = [0.5, 1.0, 2.5, 4.0, 7.3]


@settings(max_examples=30, deadline=None)
@given(
    trace=random_walk_trace(),
    accuracy=st.floats(min_value=30.0, max_value=400.0),
    latency=st.sampled_from(LATENCIES),
)
def test_distance_based_error_bounded_under_latency(trace, accuracy, latency):
    """``max_error <= us + 40 (L + 1)`` over a channel of latency ``L``.

    At a sample at ``t`` the server holds the last report sent by
    ``t - L``.  Every sighting up to the last one at or before ``t - L``
    was within ``us`` of that report (or sent it), and that sighting is at
    most ``L + 1`` s before ``t`` on a 1 s grid: the record can be ``L + 1``
    s older than the last sighting checked against it.  The object moves
    at most 40 m/s meanwhile, and the static prediction does not move.
    """
    channel = MessageChannel(latency=latency)
    result = run_simulation(DistanceBasedReporting(accuracy=accuracy), trace, channel=channel)
    assert result.metrics.max_error <= accuracy + MAX_STEP * (latency + 1.0) + 1e-6


@settings(max_examples=30, deadline=None)
@given(
    trace=random_walk_trace(),
    accuracy=st.floats(min_value=30.0, max_value=400.0),
    latency=st.sampled_from(LATENCIES),
)
def test_linear_prediction_error_bounded_under_latency(trace, accuracy, latency):
    """``max_error <= us + 2 * 40 (L + 1)`` over a channel of latency ``L``.

    The derivation of the distance-based bound, except that the prediction
    moves too: with window 2 the reported speed is one step over one
    second, at most 40 m/s, so over the ``L + 1`` s the object and the
    prediction can each move 40 m/s apart.
    """
    channel = MessageChannel(latency=latency)
    protocol = LinearPredictionProtocol(accuracy=accuracy, estimation_window=2)
    result = run_simulation(protocol, trace, channel=channel)
    assert result.metrics.max_error <= accuracy + 2 * MAX_STEP * (latency + 1.0) + 1e-6


@settings(max_examples=30, deadline=None)
@given(trace=random_walk_trace(), accuracy=st.floats(min_value=30.0, max_value=400.0))
def test_distance_based_update_count_bounded_by_path_length(trace, accuracy):
    """Between two distance-based updates the object must travel at least ``us``.

    Hence the total number of updates is bounded by path_length / us plus the
    initial update (and one partial interval).
    """
    result = run_simulation(DistanceBasedReporting(accuracy=accuracy), trace)
    assert result.updates <= trace.path_length() / accuracy + 2


@settings(max_examples=30, deadline=None)
@given(trace=random_walk_trace(), accuracy=st.floats(min_value=30.0, max_value=400.0))
def test_update_count_conservation(trace, accuracy):
    """The engine's update count equals the protocol's own count and the reasons add up."""
    protocol = LinearPredictionProtocol(accuracy=accuracy, estimation_window=2)
    result = run_simulation(protocol, trace)
    assert result.updates == protocol.updates_sent
    assert sum(result.update_reasons.values()) == result.updates

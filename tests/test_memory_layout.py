"""Memory-layout regression guard: the hot per-object classes stay slotted.

At mega-fleet scale (100k tracked objects) an accidental ``__dict__`` on
any per-object class costs ~10 MB and turns fixed-offset attribute loads
back into dict lookups.  These tests pin the layout so a refactor that
drops ``slots=True`` (e.g. re-declaring one of the dataclasses without it)
fails loudly instead of silently regressing the fleet's footprint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocols.base import ObjectState, UpdateMessage, UpdateReason
from repro.protocols.prediction import StaticPrediction
from repro.protocols.reporting import DistanceBasedReporting
from repro.service.channel import ChannelStats, MessageChannel
from repro.service.facade import QueryCounters, ShardLoad
from repro.service.server import TrackedObject
from repro.sim.columnar import ColumnarStore
from repro.sim.fleet import FleetLane, _LaneState
from repro.traces.trace import Trace


def _state() -> ObjectState:
    return ObjectState(
        time=0.0,
        position=np.zeros(2),
        velocity=np.zeros(2),
        speed=0.0,
    )


def _lane() -> FleetLane:
    times = np.array([0.0, 1.0])
    return FleetLane(
        object_id="obj",
        protocol=DistanceBasedReporting(50.0),
        sensor_trace=Trace(times, np.zeros((2, 2))),
    )


def _instances():
    lane = _lane()
    return [
        _state(),
        UpdateMessage(sequence=1, state=_state(), reason=UpdateReason.INITIAL),
        TrackedObject(object_id="obj", prediction=StaticPrediction(), accuracy=50.0),
        ChannelStats(),
        ShardLoad(shard_id=0),
        QueryCounters(),
        lane,
        _LaneState(lane, MessageChannel()),
        Trace(np.array([0.0, 1.0]), np.zeros((2, 2))),
        ColumnarStore(["obj"], accuracy=50.0, sensor_uncertainty=0.0),
    ]


@pytest.mark.parametrize(
    "instance", _instances(), ids=lambda i: type(i).__name__
)
def test_hot_classes_have_no_instance_dict(instance):
    assert not hasattr(instance, "__dict__"), (
        f"{type(instance).__name__} grew a per-instance __dict__; "
        "keep the hot per-object classes slotted"
    )


@pytest.mark.parametrize(
    "instance", _instances(), ids=lambda i: type(i).__name__
)
def test_hot_classes_reject_stray_attributes(instance):
    # Plain slotted classes raise AttributeError; the frozen slotted
    # dataclasses raise through their generated __setattr__ (TypeError on
    # this interpreter) — either way the stray attribute must not stick.
    with pytest.raises((AttributeError, TypeError)):
        instance.definitely_not_a_slot = 1


def test_slots_cover_the_whole_mro():
    """No class in the hierarchy smuggles a ``__dict__`` back in."""
    for cls in (ObjectState, UpdateMessage, TrackedObject, ChannelStats,
                ShardLoad, QueryCounters, FleetLane, Trace,
                ColumnarStore):
        offenders = [
            base.__name__
            for base in cls.__mro__
            if base is not object and "__dict__" in vars(base)
        ]
        assert not offenders, f"{cls.__name__}: __dict__ via {offenders}"

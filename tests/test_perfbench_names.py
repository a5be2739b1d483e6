"""The entry points ``perfbench/layers.py`` wraps by name still exist.

A traced benchmark run patches methods by name (``LocationServer``'s
``predict_position`` / ``predict_positions`` / ``all_positions``, which
nothing in ``src/`` calls, among them); a missing one raises
``AttributeError`` from :func:`inspect.getattr_static` when the wrappers are
installed.  The perfbench self-test is not part of the tier-1 run, so this
test installs the wrappers here.
"""

from __future__ import annotations

import os

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_wrapped_name_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(_REPO_ROOT)
    from perfbench import layers
    from repro.service.server import LocationServer

    original = LocationServer.__dict__["predict_position"]
    with layers.installed(layers.LayerTracer()):
        assert LocationServer.__dict__["predict_position"] is not original
    assert LocationServer.__dict__["predict_position"] is original

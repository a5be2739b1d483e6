"""Golden-metrics regression harness.

Every scenario of the library × a set of representative protocols is pinned
to a committed JSON file under ``tests/golden/``: updates, updates/hour,
message bytes, and the error distribution (mean/rms/p95/max).  Any change
that silently shifts a protocol's update rate or delivered accuracy — a
refactor of the estimators, a tweak to a map generator, a new numpy — fails
this suite with a field-level diff.

Regenerating after an *intended* change::

    PYTHONPATH=src python -m pytest tests/test_golden_metrics.py --regen-golden

The pipeline is deterministic for a fixed (scenario, seed, scale), so a
regen on an unchanged tree reproduces the committed files byte-identically
(asserted below: the comparison is ultimately a byte comparison of the
serialised payload).
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.experiments.library import scenario_names
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SimulationResult
from repro.sim.fleet import run_simulation
from repro.sim.runner import ScenarioSpec

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Protocols pinned per scenario: a reporting baseline, the plain
#: dead-reckoning baseline, and the paper's map-based protocol.
GOLDEN_PROTOCOLS = ("distance", "linear", "map")

#: Requested accuracy for the golden runs (the middle of the paper's sweep).
GOLDEN_ACCURACY = 100.0

#: Per-scenario route scale for the golden runs — small enough to keep the
#: suite fast, large enough for hundreds of samples per trace.
GOLDEN_SCALES: Dict[str, float] = {
    "freeway": 0.05,
    "interurban": 0.08,
    "city": 0.07,
    "walking": 0.15,
}
DEFAULT_GOLDEN_SCALE = 0.15

GOLDEN_NAMES = scenario_names()


def golden_scale(name: str) -> float:
    return GOLDEN_SCALES.get(name, DEFAULT_GOLDEN_SCALE)


def _round6(value: float) -> float:
    return round(float(value), 6)


def golden_row(result: SimulationResult) -> Dict[str, object]:
    """The pinned fields of one protocol run."""
    metrics = result.metrics
    return {
        "updates": int(result.updates),
        "updates_per_hour": _round6(result.updates_per_hour),
        "bytes_sent": int(result.bytes_sent),
        "samples": int(metrics.count),
        "mean_error_m": _round6(metrics.mean_error),
        "rms_error_m": _round6(metrics.rms_error),
        "p95_error_m": _round6(metrics.percentile(95.0)),
        "max_error_m": _round6(metrics.max_error),
        "update_reasons": {k: int(v) for k, v in sorted(result.update_reasons.items())},
    }


def compute_golden(name: str) -> Dict[str, object]:
    """Compute the golden payload for one scenario (uses the shared cache)."""
    spec = ScenarioSpec(name=name, scale=golden_scale(name))
    scenario = spec.build()
    protocols: Dict[str, Dict[str, object]] = {}
    for protocol_id in GOLDEN_PROTOCOLS:
        protocol = SimulationConfig(
            protocol_id=protocol_id, accuracy=GOLDEN_ACCURACY
        ).build_protocol(scenario)
        result = run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)
        protocols[protocol_id] = golden_row(result)
    return {
        "scenario": spec.name,
        "scale": spec.scale,
        "seed": spec.seed,
        "accuracy_m": GOLDEN_ACCURACY,
        "trace_samples": len(scenario.sensor_trace),
        "protocols": protocols,
    }


def serialize_golden(payload: Dict[str, object]) -> str:
    """Canonical byte form of a golden payload (what is committed)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def golden_diff(expected: object, actual: object, path: str = "") -> List[str]:
    """Human-readable field-level differences between two payloads."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        diffs: List[str] = []
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else str(key)
            if key not in expected:
                diffs.append(f"{where}: unexpected field (value {actual[key]!r})")
            elif key not in actual:
                diffs.append(f"{where}: missing field (expected {expected[key]!r})")
            else:
                diffs.extend(golden_diff(expected[key], actual[key], where))
        return diffs
    if expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


# --------------------------------------------------------------------------- #
# the regression suite
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_metrics(name, request):
    payload = compute_golden(name)
    text = serialize_golden(payload)
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return
    assert path.exists(), (
        f"missing golden file {path.name}; run "
        "`python -m pytest tests/test_golden_metrics.py --regen-golden` and commit it"
    )
    committed = json.loads(path.read_text(encoding="utf-8"))
    # JSON round-trip the computed payload so both sides carry identical
    # float representations, then compare field by field for a useful
    # failure message...
    computed = json.loads(text)
    diffs = golden_diff(committed, computed)
    assert not diffs, (
        f"golden metrics drifted for scenario {name!r}:\n  " + "\n  ".join(diffs)
        + "\nIf the change is intended, regenerate with --regen-golden and commit."
    )
    # ...and pin the bytes: a regen on an unchanged tree must reproduce the
    # committed file exactly.
    assert path.read_text(encoding="utf-8") == text


def test_golden_computation_is_deterministic():
    """Two computations in one process serialise to identical bytes."""
    name = "rush_hour_city"
    first = serialize_golden(compute_golden(name))
    second = serialize_golden(compute_golden(name))
    assert first == second


def test_golden_diff_detects_injected_perturbation():
    """The comparison flags a metric drift (here: +2% updates/hour on map)."""
    committed = json.loads((GOLDEN_DIR / "rush_hour_city.json").read_text(encoding="utf-8"))
    perturbed = copy.deepcopy(committed)
    perturbed["protocols"]["map"]["updates_per_hour"] = _round6(
        perturbed["protocols"]["map"]["updates_per_hour"] * 1.02
    )
    diffs = golden_diff(committed, perturbed)
    assert diffs, "a perturbed payload must produce a non-empty diff"
    assert any("updates_per_hour" in d for d in diffs)
    # An untouched copy, by contrast, is clean.
    assert golden_diff(committed, copy.deepcopy(committed)) == []


def test_golden_diff_detects_missing_protocol():
    committed = json.loads((GOLDEN_DIR / "freeway.json").read_text(encoding="utf-8"))
    pruned = copy.deepcopy(committed)
    del pruned["protocols"]["map"]
    diffs = golden_diff(committed, pruned)
    assert any("missing field" in d for d in diffs)


def test_golden_files_cover_every_library_scenario():
    """A newly registered scenario must ship its golden file."""
    committed = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert committed == set(GOLDEN_NAMES)

"""The bench-regression guard over committed ``BENCH_*.json`` artifacts."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_guard():
    path = os.path.join(_REPO_ROOT, "benchmarks", "check_bench_floors.py")
    spec = importlib.util.spec_from_file_location("check_bench_floors", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


guard = _load_guard()


def _copy_artifacts(tmp_path):
    for name in guard._SPECS:
        shutil.copy(os.path.join(_REPO_ROOT, name), tmp_path / name)


def _rewrite(tmp_path, name, mutate):
    path = tmp_path / name
    record = json.loads(path.read_text())
    mutate(record)
    path.write_text(json.dumps(record))


def test_committed_artifacts_meet_their_floors():
    """The repository's own committed artifacts are healthy."""
    assert guard.check_all(_REPO_ROOT) == []


def test_main_exit_codes(tmp_path, capsys):
    _copy_artifacts(tmp_path)
    assert guard.main([str(tmp_path)]) == 0
    _rewrite(
        tmp_path,
        "BENCH_sweep_runner.json",
        lambda r: r.__setitem__("speedup", r["required_speedup"] / 2),
    )
    assert guard.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "BENCH_sweep_runner.json" in out and "below the recorded floor" in out


def test_floor_regression_detected(tmp_path):
    _copy_artifacts(tmp_path)
    _rewrite(
        tmp_path,
        "BENCH_megafleet.json",
        lambda r: r.__setitem__("realtime_factor_largest", 0.5),
    )
    failures = guard.check_all(str(tmp_path))
    assert any(
        "BENCH_megafleet.json" in f and "realtime_factor_largest" in f
        for f in failures
    )


def test_nested_floor_regression_detected(tmp_path):
    _copy_artifacts(tmp_path)
    _rewrite(
        tmp_path,
        "BENCH_ingest.json",
        lambda r: r["routing"].__setitem__("speedup", 0.1),
    )
    failures = guard.check_all(str(tmp_path))
    assert any("routing.speedup" in f for f in failures)


def test_false_identity_flag_detected(tmp_path):
    _copy_artifacts(tmp_path)
    _rewrite(
        tmp_path,
        "BENCH_megafleet.json",
        lambda r: r.__setitem__("columnar_identical_to_event", False),
    )
    failures = guard.check_all(str(tmp_path))
    assert any("columnar_identical_to_event" in f for f in failures)


def test_missing_artifact_detected(tmp_path):
    _copy_artifacts(tmp_path)
    os.remove(tmp_path / "BENCH_query_engine.json")
    failures = guard.check_all(str(tmp_path))
    assert any(
        "BENCH_query_engine.json" in f and "missing" in f for f in failures
    )


def test_unregistered_artifact_detected(tmp_path):
    _copy_artifacts(tmp_path)
    (tmp_path / "BENCH_mystery.json").write_text("{}")
    failures = guard.check_all(str(tmp_path))
    assert any("BENCH_mystery.json" in f and "no floor spec" in f for f in failures)


def test_missing_keys_detected(tmp_path):
    _copy_artifacts(tmp_path)
    _rewrite(tmp_path, "BENCH_sweep_runner.json", lambda r: r.pop("speedup"))
    failures = guard.check_all(str(tmp_path))
    assert any("BENCH_sweep_runner.json" in f and "speedup" in f for f in failures)

"""Tests for the sweep runner: job counts, determinism, caching, artifacts."""

import csv
import json

import numpy as np
import pytest

from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.reporting import TimeBasedReporting
from repro.sim.config import SimulationConfig
from repro.sim.runner import ScenarioSpec, SweepRunner, SweepTask, read_artifact

FREEWAY = ScenarioSpec(name="freeway", scale=0.05, seed=0)
CITY = ScenarioSpec(name="city", scale=0.07, seed=2)
RADIAL = ScenarioSpec(name="radial_commute", scale=0.15)
ACCURACIES = [50.0, 100.0, 200.0]


def _assert_points_bit_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.accuracy == b.accuracy
        assert a.result.protocol_name == b.result.protocol_name
        assert a.result.updates == b.result.updates
        assert a.result.bytes_sent == b.result.bytes_sent
        assert a.result.update_reasons == b.result.update_reasons
        assert a.result.duration_h == b.result.duration_h
        assert a.updates_per_hour == b.updates_per_hour
        assert np.array_equal(a.result.metrics.errors, b.result.metrics.errors)


class TestScenarioSpec:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="atlantis")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="freeway", scale=0.0)

    def test_build_is_cached(self):
        assert FREEWAY.build() is FREEWAY.build()

    def test_spec_is_picklable(self):
        import pickle

        task = SweepTask(
            scenario=FREEWAY, config=SimulationConfig(protocol_id="linear", accuracy=100.0)
        )
        assert pickle.loads(pickle.dumps(task)) == task

    def test_generated_scenario_names_resolve(self):
        spec = ScenarioSpec(name="rush_hour_city", scale=0.15)
        assert spec.build().key == "rush_hour_city"


class TestCacheKeying:
    """Satellite: distinct seed/scale combinations must never alias."""

    def test_two_seeds_yield_different_traces(self):
        a = ScenarioSpec(name="city", scale=0.05, seed=11).build()
        b = ScenarioSpec(name="city", scale=0.05, seed=12).build()
        assert a is not b
        same_shape = a.sensor_trace.positions.shape == b.sensor_trace.positions.shape
        assert not (
            same_shape
            and np.array_equal(a.sensor_trace.positions, b.sensor_trace.positions)
        )

    def test_two_seeds_yield_different_generated_traces(self):
        a = ScenarioSpec(name="radial_commute", scale=0.15, seed=1).build()
        b = ScenarioSpec(name="radial_commute", scale=0.15, seed=2).build()
        same_shape = a.sensor_trace.positions.shape == b.sensor_trace.positions.shape
        assert not (
            same_shape
            and np.array_equal(a.sensor_trace.positions, b.sensor_trace.positions)
        )

    def test_two_scales_yield_different_cache_entries(self):
        a = ScenarioSpec(name="freeway", scale=0.04, seed=0).build()
        b = ScenarioSpec(name="freeway", scale=0.05, seed=0).build()
        assert a is not b
        assert len(a.sensor_trace) != len(b.sensor_trace)

    def test_default_seed_and_none_share_one_entry(self):
        # seed=None canonicalises to the scenario's default seed, so both
        # spellings hit the same cache entry instead of building twice.
        implicit = ScenarioSpec(name="freeway", scale=0.05)
        explicit = ScenarioSpec(name="freeway", scale=0.05, seed=0)
        assert implicit == explicit
        assert implicit.seed == 0
        assert implicit.build() is explicit.build()

    def test_numeric_types_canonicalised(self):
        # np.int64 / float-typed inputs must not create shadow cache keys.
        assert ScenarioSpec(name="freeway", scale=0.05, seed=np.int64(7)) == ScenarioSpec(
            name="freeway", scale=0.05, seed=7
        )
        assert ScenarioSpec(name="freeway", scale=np.float64(0.05), seed=7) == ScenarioSpec(
            name="freeway", scale=0.05, seed=7
        )
        assert isinstance(ScenarioSpec(name="freeway", seed=np.int64(7)).seed, int)
        assert isinstance(ScenarioSpec(name="freeway", scale=np.float64(0.5)).scale, float)


class TestExecutorEquivalence:
    """Satellite: jobs=1 and jobs=4 must produce bit-identical sequences."""

    @pytest.mark.parametrize(
        "spec", [FREEWAY, CITY, RADIAL], ids=["freeway", "city", "radial_commute"]
    )
    def test_serial_vs_parallel_identical(self, spec):
        serial = SweepRunner(jobs=1).run_config_sweep(spec, "linear", ACCURACIES)
        parallel = SweepRunner(jobs=4).run_config_sweep(spec, "linear", ACCURACIES)
        _assert_points_bit_identical(serial, parallel)

    @pytest.mark.parametrize("spec", [FREEWAY, CITY], ids=["freeway", "city"])
    def test_serial_vs_parallel_identical_map_protocol(self, spec):
        serial = SweepRunner(jobs=1).run_config_sweep(spec, "map", [100.0, 200.0])
        parallel = SweepRunner(jobs=4).run_config_sweep(spec, "map", [100.0, 200.0])
        _assert_points_bit_identical(serial, parallel)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestSweepDefaults:
    def test_config_sweep_on_built_scenario(self, tiny_freeway_scenario):
        points = SweepRunner().run_config_sweep(tiny_freeway_scenario, "linear", ACCURACIES)
        assert [p.accuracy for p in points] == ACCURACIES

    def test_factory_sweep_defaults_to_scenario_us_values(self, tiny_freeway_scenario):
        points = SweepRunner().run_factory_sweep(
            tiny_freeway_scenario,
            lambda us: LinearPredictionProtocol(accuracy=us),
        )
        assert [p.accuracy for p in points] == tiny_freeway_scenario.us_values


class TestCloneForSweeps:
    """Satellite: the clone_for reuse hook must match fresh-instance sweeps."""

    def test_linear_clone_sweep_matches_fresh(self, tiny_freeway_scenario):
        scenario = tiny_freeway_scenario
        runner = SweepRunner()
        fresh = runner.run_factory_sweep(
            scenario,
            lambda us: LinearPredictionProtocol(
                us, scenario.sensor_sigma, scenario.estimation_window
            ),
            ACCURACIES,
        )
        prototype = LinearPredictionProtocol(
            ACCURACIES[0], scenario.sensor_sigma, scenario.estimation_window
        )
        cloned = runner.run_factory_sweep(scenario, prototype.clone_for, ACCURACIES)
        _assert_points_bit_identical(fresh, cloned)

    def test_map_clone_sweep_matches_fresh(self, tiny_freeway_scenario):
        scenario = tiny_freeway_scenario
        runner = SweepRunner()

        def fresh_protocol(us):
            return SimulationConfig(protocol_id="map", accuracy=us).build_protocol(scenario)

        fresh = runner.run_factory_sweep(scenario, fresh_protocol, ACCURACIES)
        cloned = runner.run_factory_sweep(
            scenario, fresh_protocol(ACCURACIES[0]).clone_for, ACCURACIES
        )
        _assert_points_bit_identical(fresh, cloned)

    def test_clone_for_rejects_bad_accuracy(self):
        with pytest.raises(ValueError):
            LinearPredictionProtocol(accuracy=100.0).clone_for(0.0)

    def test_clone_for_rescales_time_interval(self):
        prototype = TimeBasedReporting.for_speed(accuracy=100.0, expected_speed=20.0)
        clone = prototype.clone_for(200.0)
        assert clone.accuracy == 200.0
        assert clone.interval == pytest.approx(200.0 / 20.0)

    def test_map_clone_shares_heavy_structure(self, tiny_freeway_scenario):
        prototype = SimulationConfig(protocol_id="map", accuracy=100.0).build_protocol(
            tiny_freeway_scenario
        )
        clone = prototype.clone_for(250.0)
        # Heavy immutable structure is shared; per-run state is detached.
        assert clone.roadmap is prototype.roadmap
        assert clone.prediction_function() is prototype.prediction_function()
        assert clone.matcher is not prototype.matcher
        assert clone.estimator is not prototype.estimator
        assert clone.accuracy == 250.0
        assert prototype.accuracy == 100.0


class TestArtifacts:
    def test_json_and_csv_artifacts(self, tmp_path):
        runner = SweepRunner()
        points = runner.run_config_sweep(FREEWAY, "linear", ACCURACIES)
        written = runner.write_artifacts(
            points, "freeway_linear", out_dir=str(tmp_path), metadata={"scale": 0.05}
        )
        payload = json.loads((tmp_path / "freeway_linear.json").read_text())
        assert payload["name"] == "freeway_linear"
        assert payload["metadata"] == {"scale": 0.05}
        assert [row["us_m"] for row in payload["points"]] == ACCURACIES
        with open(written["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(points)
        assert [float(row["us_m"]) for row in rows] == ACCURACIES

    def test_unknown_format_rejected(self, tmp_path):
        runner = SweepRunner()
        with pytest.raises(ValueError):
            runner.write_artifacts([], "x", out_dir=str(tmp_path), formats=("yaml",))


class TestArtifactRoundTrip:
    """Satellite: JSON/CSV artifacts parse back to the same point values."""

    SPECS = [
        ScenarioSpec(name="freeway", scale=0.05, seed=0),
        ScenarioSpec(name="rush_hour_city", scale=0.15),
        ScenarioSpec(name="tunnel_freeway", scale=0.15),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
    def test_json_and_csv_round_trip(self, spec, tmp_path):
        runner = SweepRunner()
        points = runner.run_config_sweep(spec, "linear", [100.0, 200.0])
        name = f"roundtrip_{spec.name}"
        written = runner.write_artifacts(
            points, name, out_dir=str(tmp_path), metadata={"scenario": spec.name}
        )
        expected_rows = [point.result.as_dict() for point in points]
        json_payload = read_artifact(written["json"])
        assert json_payload["name"] == name
        assert json_payload["metadata"] == {"scenario": spec.name}
        assert json_payload["points"] == expected_rows
        csv_payload = read_artifact(written["csv"])
        assert csv_payload["name"] == name
        assert csv_payload["points"] == expected_rows
        # Both formats carry the identical rows, so they agree with each
        # other as well as with the in-memory sweep.
        assert csv_payload["points"] == json_payload["points"]
        assert [row["us_m"] for row in csv_payload["points"]] == [p.accuracy for p in points]

    def test_read_artifact_rejects_unknown_extension(self, tmp_path):
        path = tmp_path / "artifact.yaml"
        path.write_text("points: []\n")
        with pytest.raises(ValueError):
            read_artifact(str(path))

    def test_read_artifact_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"points": []}))
        with pytest.raises(ValueError):
            read_artifact(str(path))


class TestProtocolPrototypes:
    """Workers keep one compiled protocol prototype per (scenario, config)."""

    def _runner_module(self):
        import repro.sim.runner as runner_mod

        return runner_mod

    def test_map_sweep_reuses_one_prototype(self):
        runner_mod = self._runner_module()
        runner_mod.clear_scenario_cache()
        SweepRunner(jobs=1).run_config_sweep(FREEWAY, "map", [100.0, 200.0, 400.0])
        map_keys = [k for k in runner_mod._PROTOCOL_PROTOTYPES if k[1] == "map"]
        assert len(map_keys) == 1
        prototype = runner_mod._PROTOCOL_PROTOTYPES[map_keys[0]]
        # The prototype is cloned for every point, never run itself.
        assert prototype.updates_sent == 0
        assert prototype.bytes_sent == 0
        runner_mod.clear_scenario_cache()

    def test_warm_cache_is_bit_identical_to_cold(self):
        runner_mod = self._runner_module()
        runner_mod.clear_scenario_cache()
        cold = SweepRunner(jobs=1).run_config_sweep(FREEWAY, "map", [100.0, 200.0])
        assert runner_mod._PROTOCOL_PROTOTYPES
        warm = SweepRunner(jobs=1).run_config_sweep(FREEWAY, "map", [100.0, 200.0])
        _assert_points_bit_identical(cold, warm)
        runner_mod.clear_scenario_cache()

    def test_cheap_protocols_bypass_the_cache(self):
        runner_mod = self._runner_module()
        runner_mod.clear_scenario_cache()
        SweepRunner(jobs=1).run_config_sweep(FREEWAY, "linear", ACCURACIES)
        SweepRunner(jobs=1).run_config_sweep(FREEWAY, "time", [100.0])
        assert runner_mod._PROTOCOL_PROTOTYPES == {}

    def test_clear_scenario_cache_drops_prototypes(self):
        runner_mod = self._runner_module()
        SweepRunner(jobs=1).run_config_sweep(FREEWAY, "map", [100.0])
        assert runner_mod._PROTOCOL_PROTOTYPES
        runner_mod.clear_scenario_cache()
        assert runner_mod._PROTOCOL_PROTOTYPES == {}

    def test_artifacts_byte_identical_across_jobs(self, tmp_path):
        """jobs=1 and jobs=2 write byte-identical JSON and CSV artifacts."""
        dirs, names = [tmp_path / "serial", tmp_path / "parallel"], "map_sweep"
        for jobs, out_dir in zip((1, 2), dirs):
            with SweepRunner(jobs=jobs) as runner:
                points = runner.run_config_sweep(CITY, "map", [100.0, 200.0])
                runner.write_artifacts(points, names, out_dir=str(out_dir))
        for ext in ("json", "csv"):
            a = (dirs[0] / f"{names}.{ext}").read_bytes()
            b = (dirs[1] / f"{names}.{ext}").read_bytes()
            assert a == b, f"{ext} artifact differs between jobs=1 and jobs=2"

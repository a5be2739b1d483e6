"""Unit tests for the command-line interface (repro.cli)."""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.experiments.scenarios import clear_scenario_cache
from repro.roadmap.io import load_roadmap
from repro.traces.io import load_trace_csv


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_scenario_cache()
    yield
    clear_scenario_cache()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["explode"])

    def test_figure_requires_valid_number(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["figure", "11"])

    def test_simulate_requires_protocol(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["simulate", "--scenario", "city"])


class TestCommands:
    def test_table1(self, capsys):
        assert cli.main(["table1", "--scale", "0.04"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "walking person" in out

    def test_table1_json(self, capsys):
        assert cli.main(["--json", "table1", "--scale", "0.04"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4

    def test_simulate(self, capsys):
        assert cli.main(
            [
                "simulate", "--scenario", "walking", "--protocol", "linear",
                "--accuracy", "100", "--scale", "0.1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "updates_per_hour" in out or "updates" in out

    def test_simulate_json(self, capsys):
        assert cli.main(
            [
                "--json", "simulate", "--scenario", "walking", "--protocol", "map",
                "--accuracy", "150", "--scale", "0.1",
            ]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["us_m"] == 150.0

    def test_figure(self, capsys):
        assert cli.main(["figure", "10", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "updates/h" in out

    def test_sweep_writes_artifacts(self, tmp_path, capsys):
        assert cli.main(
            [
                "sweep", "--scenario", "walking", "--protocol", "linear",
                "--scale", "0.1", "--accuracies", "100,200",
                "--out-dir", str(tmp_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "linear sweep on walking" in out
        payload = json.loads((tmp_path / "sweep_walking_linear.json").read_text())
        assert [row["us_m"] for row in payload["points"]] == [100.0, 200.0]
        assert (tmp_path / "sweep_walking_linear.csv").exists()

    def test_sweep_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["sweep", "--scenario", "city", "--protocol", "xyz"])

    @pytest.mark.parametrize("bad", ["abc", "", "0,-50", "100,"])
    def test_sweep_rejects_bad_accuracies(self, bad):
        args = ["sweep", "--scenario", "city", "--protocol", "linear", "--accuracies", bad]
        if bad == "100,":  # trailing comma is tolerated, not an error
            parsed = cli.build_parser().parse_args(args)
            assert parsed.accuracies == [100.0]
        else:
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(args)

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["figure", "7", "--jobs", "0"]
            )

    def test_ablation_speedlimit(self, capsys):
        assert cli.main(
            ["ablation", "speedlimit", "--scenario", "walking", "--scale", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "speed_limit_factor" in out

    def test_generate_map(self, tmp_path, capsys):
        out_path = tmp_path / "map.json"
        assert cli.main(["generate-map", "city", "--out", str(out_path)]) == 0
        roadmap = load_roadmap(out_path)
        assert roadmap.num_links() > 0
        assert "wrote" in capsys.readouterr().out

    def test_generate_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        assert cli.main(
            ["generate-trace", "--scenario", "walking", "--out", str(out_path), "--scale", "0.1"]
        ) == 0
        trace = load_trace_csv(out_path)
        assert len(trace) > 100

    def test_visualize(self, capsys):
        assert cli.main(
            [
                "visualize", "--scenario", "walking", "--protocol", "linear",
                "--accuracy", "100", "--scale", "0.1", "--width", "60", "--height", "15",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "updates over" in out
        assert "S" in out and "E" in out


#: ``visualize`` stdout per ``scenario:scale:protocol`` (accuracy 100 m,
#: 60x15 canvas), recorded when the command still fed every sighting to
#: ``UpdateProtocol.observe``; it now takes the fleet's sighting path.
VISUALIZE_PARITY = Path(__file__).parent / "data" / "visualize_parity.json"


class TestVisualizeParity:
    @pytest.mark.parametrize(
        "scenario,scale", [("walking", "0.1"), ("freeway", "0.05"), ("city", "0.07")]
    )
    def test_stdout_matches_recorded(self, scenario, scale, capsys):
        expected = json.loads(VISUALIZE_PARITY.read_text(encoding="utf-8"))
        for protocol in ("distance", "linear", "map"):
            assert cli.main(
                [
                    "visualize", "--scenario", scenario, "--protocol", protocol,
                    "--accuracy", "100", "--scale", scale, "--width", "60", "--height", "15",
                ]
            ) == 0
            out = capsys.readouterr().out
            assert out == expected[f"{scenario}:{scale}:{protocol}"], protocol


class TestLibraryCommands:
    def test_scenarios_lists_canonical_and_generated(self, capsys):
        assert cli.main(["--json", "scenarios"]) == 0
        rows = json.loads(capsys.readouterr().out)
        names = {row["scenario"] for row in rows}
        assert {"freeway", "walking", "rush_hour_city", "tunnel_freeway"} <= names
        assert {row["category"] for row in rows} == {"canonical", "generated"}

    def test_sweep_accepts_generated_scenario(self, tmp_path, capsys):
        assert cli.main(
            [
                "sweep", "--scenario", "radial_commute", "--protocol", "linear",
                "--scale", "0.15", "--accuracies", "100,200",
                "--out-dir", str(tmp_path),
            ]
        ) == 0
        payload = json.loads((tmp_path / "sweep_radial_commute_linear.json").read_text())
        assert [row["us_m"] for row in payload["points"]] == [100.0, 200.0]

    def test_sweep_seed_override_changes_results(self, capsys):
        base = ["--json", "sweep", "--scenario", "radial_commute", "--protocol",
                "linear", "--scale", "0.15", "--accuracies", "100"]
        assert cli.main(base + ["--seed", "1"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli.main(base + ["--seed", "2"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first != second

    def test_simulate_accepts_generated_scenario(self, capsys):
        assert cli.main(
            [
                "--json", "simulate", "--scenario", "tunnel_freeway",
                "--protocol", "map", "--accuracy", "150", "--scale", "0.15",
            ]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["us_m"] == 150.0

    def test_fleet_summary(self, capsys):
        assert cli.main(
            [
                "--json", "fleet",
                "--mix", "rush_hour_city:map:100:3",
                "--mix", "walking:linear:50:2",
                "--scale", "0.1",
            ]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["objects"] == 5
        assert rows[0]["total_updates"] > 0

    def test_fleet_per_object(self, capsys):
        assert cli.main(
            [
                "--json", "fleet", "--mix", "radial_commute:linear:100:4",
                "--scale", "0.15", "--per-object",
            ]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert {row["object"] for row in rows} == {
            f"radial_commute/linear/100/{n}" for n in range(4)
        }

    def test_fleet_rejects_malformed_mix(self, capsys):
        assert cli.main(["fleet", "--mix", "nonsense"]) == 2
        assert "error" in capsys.readouterr().err


class TestImportMap:
    @pytest.fixture
    def extract(self, tmp_path):
        from repro.ingest import write_fixture_xml

        path = tmp_path / "smalltown.osm"
        write_fixture_xml(path, seed=11, rows=4, cols=4)
        return path

    def test_import_map_miss_then_hit(self, extract, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert cli.main(
            ["--json", "import-map", str(extract), "--cache-dir", cache_dir]
        ) == 0
        first = json.loads(capsys.readouterr().out)[0]
        assert first["cached"] is False
        assert first["links"] > 0
        assert first["nodes_contracted"] > 0

        assert cli.main(
            ["--json", "import-map", str(extract), "--cache-dir", cache_dir]
        ) == 0
        second = json.loads(capsys.readouterr().out)[0]
        assert second["cached"] is True
        assert second["links"] == first["links"]

    def test_import_map_out_is_loadable(self, extract, tmp_path, capsys):
        out = tmp_path / "compiled.json"
        assert cli.main(
            [
                "import-map", str(extract),
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out),
            ]
        ) == 0
        roadmap = load_roadmap(out)
        assert roadmap.num_links() > 0
        assert roadmap.metadata["source"] == "smalltown.osm"

    def test_import_map_no_compact(self, extract, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert cli.main(
            ["--json", "import-map", str(extract), "--cache-dir", cache_dir]
        ) == 0
        compact = json.loads(capsys.readouterr().out)[0]
        assert cli.main(
            [
                "--json", "import-map", str(extract),
                "--cache-dir", cache_dir, "--no-compact",
            ]
        ) == 0
        raw = json.loads(capsys.readouterr().out)[0]
        assert raw["links"] > compact["links"]
        assert raw["nodes_contracted"] == 0

    def test_import_map_missing_file(self, tmp_path, capsys):
        assert cli.main(
            ["import-map", str(tmp_path / "nope.osm")]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_import_map_bad_bbox(self, extract, capsys):
        with pytest.raises(SystemExit):
            cli.main(["import-map", str(extract), "--bbox", "1,2,3"])


class TestMapFileScenarios:
    @pytest.fixture
    def extract(self, tmp_path):
        from repro.ingest import write_fixture_xml

        path = tmp_path / "cliville.osm"
        write_fixture_xml(path, seed=13, rows=4, cols=4)
        return path

    @pytest.fixture(autouse=True)
    def _unregister(self):
        # Map-file registration is process-global; tests must not leak the
        # tmp-path-backed scenario into the rest of the suite (or into each
        # other: the same stem under a different tmp_path is a collision).
        yield
        from repro.experiments.library import unregister_scenario

        try:
            unregister_scenario("osm_cliville")
        except KeyError:
            pass

    def test_sweep_map_file(self, extract, tmp_path, capsys):
        assert cli.main(
            [
                "--json", "sweep", "--map-file", str(extract),
                "--map-cache-dir", str(tmp_path / "cache"),
                "--protocol", "map", "--scale", "0.05", "--accuracies", "100",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "registered imported map as scenario 'osm_cliville'" in captured.err
        rows = json.loads(captured.out)
        assert rows[0]["updates"] >= 1
        assert rows[0]["mean_error_m"] >= 0

    def test_sweep_rejects_scenario_and_map_file(self, extract, capsys):
        assert cli.main(
            [
                "sweep", "--scenario", "city", "--map-file", str(extract),
                "--protocol", "map",
            ]
        ) == 2
        assert "not both" in capsys.readouterr().err

    def test_sweep_requires_scenario_or_map_file(self, capsys):
        assert cli.main(["sweep", "--protocol", "map"]) == 2
        assert "required" in capsys.readouterr().err

    def test_fleet_map_file(self, extract, tmp_path, capsys):
        assert cli.main(
            [
                "--json", "fleet",
                "--map-file", str(extract),
                "--map-cache-dir", str(tmp_path / "cache"),
                "--mix", "osm_cliville:map:100:3",
                "--mix", "osm_cliville:linear:100:2",
                "--scale", "0.05",
            ]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["objects"] == 5
        assert rows[0]["total_updates"] > 0


class TestFleetEngines:
    """The default engine choice and --processes produce the same rows."""

    _ARGS = ["--json", "fleet", "--mix", "radial_commute:linear:100:3",
             "--scale", "0.15", "--per-object"]

    def _rows(self, extra, capsys):
        assert cli.main(self._ARGS + extra) == 0
        return json.loads(capsys.readouterr().out)

    def test_processes_matches_default(self, capsys):
        baseline = self._rows([], capsys)
        sharded = self._rows(["--processes", "2"], capsys)
        assert sharded == baseline

    @pytest.mark.parametrize(
        "mix, engine",
        [("radial_commute:linear:100:2", "columnar"), ("radial_commute:map:100:2", "fleet")],
    )
    def test_manifest_records_the_engine(self, mix, engine, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        assert cli.main(
            ["fleet", "--mix", mix, "--scale", "0.1", "--obs-dir", str(obs_dir)]
        ) == 0
        manifest = json.loads((obs_dir / "manifest.json").read_text())
        assert manifest["config"]["engine"] == engine

    def test_processes_run_the_fleet_loop(self, tmp_path, capsys):
        # An eligible fleet leaves the columnar engine once it is sharded.
        obs_dir = tmp_path / "obs"
        assert cli.main(
            ["fleet", "--mix", "radial_commute:linear:100:2", "--scale", "0.1",
             "--processes", "2", "--obs-dir", str(obs_dir)]
        ) == 0
        manifest = json.loads((obs_dir / "manifest.json").read_text())
        assert manifest["config"]["engine"] == "fleet"
        assert manifest["config"]["processes"] == 2

    def test_processes_must_be_positive(self):
        with pytest.raises(SystemExit):
            cli.main(["fleet", "--mix", "walking:linear:50:2", "--processes", "0"])

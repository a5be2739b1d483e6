"""Unit tests for the command-line interface (repro.cli)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.experiments.scenarios import clear_scenario_cache
from repro.roadmap.io import load_roadmap


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
        assert len(np.loadtxt(out_path, delimiter=",", skiprows=1)) > 100

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
        from repro.experiments import library

        library._REGISTRY.pop("osm_cliville", None)
        library.GENERATED_SPECS.pop("osm_cliville", None)

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
    """``fleet`` names the engine it picked in the ``--obs-dir`` manifest."""

    @pytest.mark.parametrize(
        "mix, extra, engine",
        [
            ("radial_commute:linear:100:2", [], "columnar"),
            ("radial_commute:map:100:2", [], "fleet"),
            # An eligible fleet leaves the columnar engine once it is sharded.
            ("radial_commute:linear:100:2", ["--shards", "2"], "fleet"),
        ],
        ids=[
            "radial_commute:linear:100:2-columnar",
            "radial_commute:map:100:2-fleet",
            "radial_commute:linear:100:2-shards-fleet",
        ],
    )
    def test_manifest_records_the_engine(self, mix, extra, engine, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        assert cli.main(
            ["fleet", "--mix", mix, "--scale", "0.1", "--obs-dir", str(obs_dir), *extra]
        ) == 0
        manifest = json.loads((obs_dir / "manifest.json").read_text())
        assert manifest["config"]["engine"] == engine


class TestArgumentTypes:
    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_positive_int_rejects(self, value):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["sweep", "--scenario", "city", "--jobs", value])

    def test_bbox_rejects_non_numbers(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["import-map", "x.osm", "--bbox", "1,2,3,north"])

    def test_bbox_parses_four_numbers(self):
        args = cli.build_parser().parse_args(["import-map", "x.osm", "--bbox", "1,2.5,3,4"])
        assert args.bbox == [1.0, 2.5, 3.0, 4.0]


class TestRouteCommand:
    @pytest.fixture
    def extract(self, tmp_path):
        from repro.ingest import write_fixture_xml

        path = tmp_path / "routeville.osm"
        write_fixture_xml(path, seed=17, rows=4, cols=4)
        return path

    def _route(self, extract, tmp_path, capsys, *extra):
        code = cli.main(
            [
                "--json", "route", str(extract),
                "--cache-dir", str(tmp_path / "cache"), "--repeat", "2", *extra,
            ]
        )
        return code, capsys.readouterr()

    def test_default_endpoints_span_the_map(self, extract, tmp_path, capsys):
        code, captured = self._route(extract, tmp_path, capsys)
        assert code == 0
        row = json.loads(captured.out)[0]
        assert row["algo"] == "dijkstra"
        assert row["unit"] == "m"
        assert row["from"] != row["to"]
        assert row["cost"] > 0.0 and row["links"] > 0
        assert "ch_shortcuts" not in row

    def test_ch_plans_the_dijkstra_route(self, extract, tmp_path, capsys):
        _, plain = self._route(extract, tmp_path, capsys)
        code, captured = self._route(extract, tmp_path, capsys, "--algo", "ch")
        assert code == 0
        dijkstra = json.loads(plain.out)[0]
        ch = json.loads(captured.out)[0]
        assert (ch["from"], ch["to"], ch["cost"], ch["links"]) == (
            dijkstra["from"], dijkstra["to"], dijkstra["cost"], dijkstra["links"],
        )
        assert ch["ch_shortcuts"] >= 0
        assert ch["ch_prep_seconds"] >= 0.0

    def test_travel_time_weight_reports_seconds(self, extract, tmp_path, capsys):
        code, captured = self._route(extract, tmp_path, capsys, "--weight", "travel_time")
        assert code == 0
        row = json.loads(captured.out)[0]
        assert row["unit"] == "s"
        assert row["cost"] > 0.0

    def test_route_to_the_start_node_is_empty(self, extract, tmp_path, capsys):
        _, first = self._route(extract, tmp_path, capsys)
        start = json.loads(first.out)[0]["from"]
        code, captured = self._route(
            extract, tmp_path, capsys, "--from", str(start), "--to", str(start)
        )
        assert code == 0
        row = json.loads(captured.out)[0]
        assert (row["cost"], row["links"]) == (0.0, 0)

    def test_unknown_node_is_an_error(self, extract, tmp_path, capsys):
        code, captured = self._route(extract, tmp_path, capsys, "--to", "987654321")
        assert code == 2
        assert "error" in captured.err

    def test_missing_extract_is_an_error(self, tmp_path, capsys):
        code, captured = self._route(tmp_path / "nope.osm", tmp_path, capsys)
        assert code == 2
        assert "error" in captured.err


class TestObsReportJson:
    def _write(self, directory, trace_events):
        directory.mkdir()
        (directory / "manifest.json").write_text(json.dumps({"git": {"sha": "abc"}}))
        (directory / "metrics.json").write_text(json.dumps({"metrics": {"c": {"value": 1}}}))
        (directory / "trace.json").write_text(json.dumps({"traceEvents": trace_events}))

    def test_valid_directory(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        self._write(obs_dir, [{"ph": "X", "name": "a", "pid": 1, "ts": 0, "dur": 2}])
        assert cli.main(["--json", "obs-report", str(obs_dir)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["manifest"] == {"git": {"sha": "abc"}}
        assert report["metrics"] == {"c": {"value": 1}}
        assert report["trace_events"] == 1
        assert report["trace_problems"] == []

    def test_a_file_path_reports_its_directory(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        self._write(obs_dir, [])
        assert cli.main(["--json", "obs-report", str(obs_dir / "manifest.json")]) == 0
        assert json.loads(capsys.readouterr().out)["directory"] == str(obs_dir)

    def test_malformed_trace_fails(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        self._write(obs_dir, [{"ph": "X", "name": "a", "pid": 1, "ts": 0, "dur": -5}])
        assert cli.main(["--json", "obs-report", str(obs_dir)]) == 1
        problems = json.loads(capsys.readouterr().out)["trace_problems"]
        assert problems == ["event 0 has no non-negative dur"]


class TestServiceCommands:
    def test_sharded_fleet_json_carries_per_shard_rows(self, capsys):
        assert cli.main(
            ["--json", "fleet", "--mix", "freeway:linear:200:3", "--scale", "0.05",
             "--shards", "2"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)[0]
        assert summary["objects"] == 3
        assert len(summary["per_shard"]) == 2
        assert "handoffs" in summary

    def test_query_bench_table_and_artifact(self, tmp_path, capsys):
        assert cli.main(
            [
                "query-bench", "--scenario", "freeway", "--count", "3", "--shards", "2",
                "--scale", "0.05", "--out-dir", str(tmp_path),
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "Query bench on freeway" in captured.out
        assert "Per-shard load" in captured.out
        written = list(tmp_path.glob("query_bench_freeway_*.json"))
        assert len(written) == 1
        record = json.loads(written[0].read_text())
        assert record["objects"] == 3 and record["shards"] == 2

    def test_query_bench_rejects_an_unknown_query_kind(self, capsys):
        assert cli.main(
            ["query-bench", "--scenario", "freeway", "--query-mix", "teleport=1"]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_rebalance_needs_shards(self, capsys):
        assert cli.main(
            ["serve", "--mix", "freeway:linear:200:2", "--scale", "0.05",
             "--rebalance-skew", "1.5"]
        ) == 2
        assert "--shards > 1" in capsys.readouterr().err

    def test_serve_rejects_malformed_mix(self, capsys):
        assert cli.main(["serve", "--mix", "nonsense"]) == 2
        assert "error" in capsys.readouterr().err

    def test_load_test_verify_needs_the_in_process_server(self, capsys):
        assert cli.main(
            ["load-test", "--mix", "freeway:linear:200:2", "--connect", "localhost:1",
             "--verify"]
        ) == 2
        assert "--verify" in capsys.readouterr().err

    def test_load_test_in_process_answers_match_the_facade(self, capsys):
        assert cli.main(
            [
                "--json", "load-test", "--mix", "freeway:linear:200:2", "--scale", "0.05",
                "--mode", "lockstep", "--clients", "1",
                "--max-batches", "20", "--max-queries", "10", "--verify",
            ]
        ) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["mode"] == "lockstep"
        assert summary["batches"] == summary["accepted_batches"] > 0
        assert summary["rejected_batches"] == 0
        assert "verified" in captured.err

"""Unit tests for repro.ingest.cache: the compiled-map disk cache."""

import json

import pytest

from repro.ingest import cache as map_cache
from repro.ingest.cache import compile_osm, default_cache_dir, import_map
from repro.ingest.fixtures import write_fixture_xml
from repro.roadmap.io import roadmap_to_dict


@pytest.fixture
def extract(tmp_path):
    path = tmp_path / "town.osm"
    write_fixture_xml(path, seed=3)
    return path


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "mapcache"


def _entries(cache_dir):
    return sorted(p.name for p in cache_dir.glob("*.json"))


class TestImportMap:
    def test_miss_then_hit(self, extract, cache_dir):
        first = import_map(extract, cache_dir=cache_dir)
        assert not first.cached
        assert "parse_seconds" in first.timings
        assert first.cache_path and len(_entries(cache_dir)) == 1

        second = import_map(extract, cache_dir=cache_dir)
        assert second.cached
        assert "cache_load_seconds" in second.timings
        assert len(_entries(cache_dir)) == 1

    def test_hit_is_identical_to_miss(self, extract, cache_dir):
        first = import_map(extract, cache_dir=cache_dir)
        second = import_map(extract, cache_dir=cache_dir)
        assert json.dumps(roadmap_to_dict(first.roadmap)) == json.dumps(
            roadmap_to_dict(second.roadmap)
        )
        assert second.report.as_dict() == first.report.as_dict()
        assert second.origin == first.origin
        assert second.parse_stats == first.parse_stats

    def test_option_change_is_a_different_entry(self, extract, cache_dir):
        import_map(extract, cache_dir=cache_dir)
        raw = import_map(extract, cache_dir=cache_dir, contract=False)
        assert not raw.cached
        assert len(_entries(cache_dir)) == 2
        assert raw.roadmap.num_intersections() > 0

    def test_content_change_invalidates(self, extract, cache_dir):
        import_map(extract, cache_dir=cache_dir)
        write_fixture_xml(extract, seed=4)  # different town, same path
        again = import_map(extract, cache_dir=cache_dir)
        assert not again.cached
        assert len(_entries(cache_dir)) == 2

    def test_refresh_forces_reimport(self, extract, cache_dir):
        import_map(extract, cache_dir=cache_dir)
        again = import_map(extract, cache_dir=cache_dir, refresh=True)
        assert not again.cached
        assert len(_entries(cache_dir)) == 1

    def test_corrupt_entry_is_rebuilt(self, extract, cache_dir):
        first = import_map(extract, cache_dir=cache_dir)
        entry = cache_dir / _entries(cache_dir)[0]
        entry.write_text("{not json", encoding="utf-8")
        again = import_map(extract, cache_dir=cache_dir)
        assert not again.cached
        assert json.dumps(roadmap_to_dict(again.roadmap)) == json.dumps(
            roadmap_to_dict(first.roadmap)
        )
        # ... and the entry is healthy again.
        assert import_map(extract, cache_dir=cache_dir).cached

    def test_pipeline_version_bump_invalidates(self, extract, cache_dir, monkeypatch):
        import_map(extract, cache_dir=cache_dir)
        monkeypatch.setattr(map_cache, "PIPELINE_VERSION", map_cache.PIPELINE_VERSION + 1)
        again = import_map(extract, cache_dir=cache_dir)
        assert not again.cached
        assert len(_entries(cache_dir)) == 2

    def test_bbox_option_clips(self, extract, cache_dir):
        full = import_map(extract, cache_dir=cache_dir)
        min_lat, min_lon, max_lat, max_lon = (
            48.775, 9.175, 48.7832, 9.1832,
        )
        clipped = import_map(
            extract, cache_dir=cache_dir, bbox=(min_lat, min_lon, max_lat, max_lon)
        )
        assert clipped.roadmap.num_links() < full.roadmap.num_links()


class TestCompileOsm:
    def test_accepts_raw_text(self, extract):
        compiled = compile_osm(extract.read_text(encoding="utf-8"), source_name="inline")
        assert compiled.roadmap.metadata["source"] == "inline"
        assert compiled.report.contracted

    def test_records_timings(self, extract):
        compiled = compile_osm(extract)
        assert set(compiled.timings) == {"parse_seconds", "compile_seconds"}


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MAP_CACHE", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAP_CACHE", raising=False)
        assert default_cache_dir().name == "maps"


class TestReviewRegressions:
    def test_index_cell_size_survives_cache_hit(self, extract, cache_dir):
        cold = import_map(extract, cache_dir=cache_dir, index_cell_size=50.0)
        warm = import_map(extract, cache_dir=cache_dir, index_cell_size=50.0)
        assert warm.cached
        # Both maps answer spatial queries identically (the index is a
        # runtime structure sized per request, not per document)...
        probe = next(iter(cold.roadmap.intersections.values())).position
        assert warm.roadmap.nearest_link(probe)[0].id == cold.roadmap.nearest_link(probe)[0].id
        # ...and the rebuilt index really uses the requested cell size.
        assert warm.roadmap._index.cell_size == 50.0

    def test_inline_text_source_is_not_embedded_as_metadata(self, extract):
        text = extract.read_text(encoding="utf-8")
        compiled = compile_osm(text)
        assert compiled.roadmap.metadata["source"] == ""

    def test_malformed_report_metadata_is_rebuilt(self, extract, cache_dir):
        import_map(extract, cache_dir=cache_dir)
        entry = cache_dir / _entries(cache_dir)[0]
        document = json.loads(entry.read_text(encoding="utf-8"))
        document["metadata"]["ingest"]["conditioning"] = {"bogus_field": 1}
        entry.write_text(json.dumps(document), encoding="utf-8")
        again = import_map(extract, cache_dir=cache_dir)
        assert not again.cached  # silently rebuilt, not a TypeError crash
        assert import_map(extract, cache_dir=cache_dir).cached


class TestRegisterMapFileScenario:
    def test_identical_recipe_is_idempotent_different_options_raise(self, extract):
        from repro.experiments import library
        from repro.experiments.library import register_map_file_scenario

        name = register_map_file_scenario(str(extract))
        try:
            assert register_map_file_scenario(str(extract)) == name
            with pytest.raises(ValueError, match="different options"):
                register_map_file_scenario(str(extract), agent_kind="pedestrian")
            with pytest.raises(ValueError, match="different options"):
                register_map_file_scenario(
                    str(extract), bbox=(48.7, 9.1, 48.8, 9.2)
                )
        finally:
            library._REGISTRY.pop(name)
            library.GENERATED_SPECS.pop(name, None)

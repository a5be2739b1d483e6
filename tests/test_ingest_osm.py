"""Unit tests for repro.ingest.osm: parsing, tag normalisation, projection."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.ingest.osm import (
    HIGHWAY_CLASSES,
    ONEWAY_BOTH,
    ONEWAY_FORWARD,
    ONEWAY_REVERSE,
    load_osm,
    parse_maxspeed,
    parse_oneway,
    parse_osm_json,
    parse_osm_xml,
    project_network,
)
from repro.ingest.fixtures import build_fixture_xml, synthetic_town_xml
from repro.roadmap.elements import RoadClass

from reference.geodesy import haversine_distance


def _overpass_json(xml_doc: str) -> str:
    """The nodes and ways of an OSM XML document as Overpass ``[out:json]``."""
    root = ET.fromstring(xml_doc)
    elements = [
        {"type": "node", "id": int(n.get("id")), "lat": float(n.get("lat")),
         "lon": float(n.get("lon"))}
        for n in root.iter("node")
    ]
    elements += [
        {"type": "way", "id": int(w.get("id")),
         "nodes": [int(nd.get("ref")) for nd in w.iter("nd")],
         "tags": {tag.get("k"): tag.get("v") for tag in w.iter("tag")}}
        for w in root.iter("way")
    ]
    return json.dumps({"version": 0.6, "elements": elements})


# --------------------------------------------------------------------------- #
# tag normalisation
# --------------------------------------------------------------------------- #
class TestMaxspeed:
    @pytest.mark.parametrize(
        "value, expected_kmh",
        [
            ("50", 50.0),
            ("50 km/h", 50.0),
            ("50kmh", 50.0),
            ("30 mph", 30.0 * 1.609344),
            ("30mph", 30.0 * 1.609344),
            ("walk", 7.0),
            ("50; 30", 50.0),
        ],
    )
    def test_parses_units(self, value, expected_kmh):
        assert parse_maxspeed(value) == pytest.approx(expected_kmh / 3.6)

    @pytest.mark.parametrize(
        "value", [None, "", "none", "signals", "variable", "DE:urban", "fast", "-30", "0"]
    )
    def test_unusable_values_fall_back_to_class_default(self, value):
        assert parse_maxspeed(value) is None


class TestOneway:
    @pytest.mark.parametrize("value", ["yes", "true", "1", " YES "])
    def test_forward(self, value):
        assert parse_oneway({"highway": "residential", "oneway": value},
                            RoadClass.RESIDENTIAL) == ONEWAY_FORWARD

    @pytest.mark.parametrize("value", ["-1", "reverse"])
    def test_reverse(self, value):
        assert parse_oneway({"highway": "residential", "oneway": value},
                            RoadClass.RESIDENTIAL) == ONEWAY_REVERSE

    @pytest.mark.parametrize("value", ["no", "false", "0", ""])
    def test_two_way(self, value):
        assert parse_oneway({"highway": "residential", "oneway": value},
                            RoadClass.RESIDENTIAL) == ONEWAY_BOTH

    def test_motorway_implied_oneway(self):
        assert parse_oneway({"highway": "motorway"}, RoadClass.MOTORWAY) == ONEWAY_FORWARD
        assert parse_oneway({"highway": "motorway_link"}, RoadClass.MOTORWAY) == ONEWAY_FORWARD
        # ... unless explicitly two-way.
        assert parse_oneway({"highway": "motorway", "oneway": "no"},
                            RoadClass.MOTORWAY) == ONEWAY_BOTH

    def test_roundabout_implied_oneway(self):
        assert parse_oneway({"highway": "residential", "junction": "roundabout"},
                            RoadClass.RESIDENTIAL) == ONEWAY_FORWARD


class TestHighwayClasses:
    def test_all_mapped_values_are_road_classes(self):
        assert set(HIGHWAY_CLASSES.values()) <= set(RoadClass)

    @pytest.mark.parametrize(
        "highway, road_class",
        [
            ("motorway", RoadClass.MOTORWAY),
            ("trunk", RoadClass.MOTORWAY),
            ("primary", RoadClass.PRIMARY),
            ("tertiary", RoadClass.SECONDARY),
            ("residential", RoadClass.RESIDENTIAL),
            ("service", RoadClass.RESIDENTIAL),
            ("footway", RoadClass.FOOTPATH),
            ("steps", RoadClass.FOOTPATH),
        ],
    )
    def test_mapping(self, highway, road_class):
        assert HIGHWAY_CLASSES[highway] is road_class


# --------------------------------------------------------------------------- #
# XML parsing
# --------------------------------------------------------------------------- #
TINY_XML = """<?xml version="1.0" encoding="UTF-8"?>
<osm version="0.6">
  <node id="1" lat="48.70" lon="9.10"/>
  <node id="2" lat="48.70" lon="9.11"/>
  <node id="3" lat="48.71" lon="9.11"/>
  <node id="4" lat="48.72" lon="9.12"/>
  <way id="10">
    <nd ref="1"/>
    <nd ref="2"/>
    <nd ref="2"/>
    <nd ref="3"/>
    <nd ref="999"/>
    <tag k="highway" v="residential"/>
    <tag k="maxspeed" v="30"/>
    <tag k="name" v="Teststrasse"/>
  </way>
  <way id="11">
    <nd ref="3"/>
    <nd ref="1"/>
    <tag k="highway" v="primary"/>
    <tag k="oneway" v="-1"/>
  </way>
  <way id="12">
    <nd ref="1"/>
    <nd ref="4"/>
    <tag k="building" v="yes"/>
  </way>
  <way id="13">
    <nd ref="1"/>
    <nd ref="4"/>
    <tag k="highway" v="proposed"/>
  </way>
  <way id="14">
    <nd ref="999"/>
    <nd ref="998"/>
    <tag k="highway" v="residential"/>
  </way>
  <relation id="1">
    <member type="way" ref="10" role=""/>
  </relation>
</osm>
"""


class TestParseXml:
    def test_counts(self):
        network = parse_osm_xml(TINY_XML)
        stats = network.stats
        assert stats.nodes == 4
        assert stats.ways == 5
        assert stats.highway_ways == 4  # 10, 11, 13, 14
        assert stats.kept_ways == 2  # 10 and 11
        assert stats.skipped_unknown_class == 1  # proposed
        assert stats.skipped_degenerate == 1  # way 14: both refs missing
        assert stats.missing_node_refs == 3  # 999 in way 10, 999+998 in way 14

    def test_duplicate_and_missing_refs_are_dropped(self):
        network = parse_osm_xml(TINY_XML)
        way = next(w for w in network.ways if w.id == 10)
        assert way.nodes == (1, 2, 3)
        assert way.speed_limit == pytest.approx(30.0 / 3.6)
        assert way.name == "Teststrasse"

    def test_reverse_oneway_is_flipped_to_forward(self):
        network = parse_osm_xml(TINY_XML)
        way = next(w for w in network.ways if w.id == 11)
        assert way.nodes == (1, 3)
        assert way.oneway == ONEWAY_FORWARD
        assert way.road_class is RoadClass.PRIMARY

    def test_only_referenced_nodes_are_kept(self):
        network = parse_osm_xml(TINY_XML)
        assert set(network.nodes) == {1, 2, 3}

    def test_accepts_file_and_file_object(self, tmp_path):
        path = tmp_path / "tiny.osm"
        path.write_text(TINY_XML, encoding="utf-8")
        from_path = parse_osm_xml(path)
        with path.open("rb") as fh:
            from_object = parse_osm_xml(fh)
        assert from_path.stats.as_dict() == from_object.stats.as_dict()
        assert set(from_path.nodes) == set(from_object.nodes)


class TestLoadOsm:
    def test_sniffs_xml_text_path_and_object(self, tmp_path):
        xml = synthetic_town_xml(seed=3)
        path = tmp_path / "town.osm"
        path.write_text(xml, encoding="utf-8")
        for source in (xml, path, str(path)):
            network = load_osm(source)
            assert network.stats.kept_ways > 0
        with path.open("rb") as fh:
            assert load_osm(fh).stats.kept_ways > 0

    def test_sniffs_json(self, tmp_path):
        doc = _overpass_json(synthetic_town_xml(seed=3))
        path = tmp_path / "town.json"
        path.write_text(doc, encoding="utf-8")
        assert load_osm(doc).stats.kept_ways > 0
        assert load_osm(path).stats.kept_ways > 0

    def test_json_parser_accepts_a_mapping_and_an_open_file(self, tmp_path):
        doc = _overpass_json(synthetic_town_xml(seed=3))
        from_text = parse_osm_json(doc)
        from_mapping = parse_osm_json(json.loads(doc))
        path = tmp_path / "town.json"
        path.write_text(doc, encoding="utf-8")
        with path.open("r", encoding="utf-8") as fh:
            from_file = parse_osm_json(fh)
        for network in (from_mapping, from_file):
            assert set(network.nodes) == set(from_text.nodes)
            assert [w.nodes for w in network.ways] == [w.nodes for w in from_text.ways]

    def test_xml_and_json_fixtures_agree(self):
        from_xml = load_osm(synthetic_town_xml(seed=5))
        from_json = parse_osm_json(_overpass_json(synthetic_town_xml(seed=5)))
        assert set(from_xml.nodes) == set(from_json.nodes)
        assert [w.nodes for w in from_xml.ways] == [w.nodes for w in from_json.ways]
        assert [w.road_class for w in from_xml.ways] == [
            w.road_class for w in from_json.ways
        ]
        assert [w.speed_limit for w in from_xml.ways] == [
            w.speed_limit for w in from_json.ways
        ]


class TestFixtureTowns:
    @pytest.mark.parametrize(
        "params",
        [{"rows": 2}, {"cols": 2}, {"spacing_m": 0.0}, {"chain_step_m": -1.0}],
        ids=["two_rows", "two_cols", "zero_spacing", "negative_chain_step"],
    )
    def test_invalid_town_rejected(self, params):
        with pytest.raises(ValueError):
            synthetic_town_xml(seed=1, **params)

    def test_unknown_fixture_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="town_dense"):
            build_fixture_xml("atlantis", seed=1)

    def test_named_fixture_renders_its_recipe_with_overrides(self):
        assert build_fixture_xml("town", seed=4) == synthetic_town_xml(seed=4)
        assert build_fixture_xml("town", seed=4, overrides={"rows": 4, "cols": 4}) == (
            synthetic_town_xml(seed=4, rows=4, cols=4)
        )


# --------------------------------------------------------------------------- #
# projection
# --------------------------------------------------------------------------- #
class TestProjection:
    def test_default_origin_is_bbox_centre(self):
        network = parse_osm_xml(TINY_XML)
        projected = project_network(network)
        min_lat, min_lon, max_lat, max_lon = network.bounds_geodetic()
        assert projected.origin[0] == pytest.approx((min_lat + max_lat) / 2.0)
        assert projected.origin[1] == pytest.approx((min_lon + max_lon) / 2.0)

    def test_local_distances_match_haversine(self):
        network = parse_osm_xml(TINY_XML)
        projected = project_network(network)
        n1, n3 = network.nodes[1], network.nodes[3]
        local = float(np.hypot(*(projected.positions[1] - projected.positions[3])))
        geodesic = haversine_distance(n1.lat, n1.lon, n3.lat, n3.lon)
        # Equirectangular vs great-circle agree to well under sensor noise
        # over a ~1.5 km extent.
        assert local == pytest.approx(geodesic, rel=1e-4)

    def test_explicit_origin_gives_shared_frame(self):
        network = parse_osm_xml(TINY_XML)
        a = project_network(network, origin=(48.70, 9.10))
        assert a.origin == (48.70, 9.10)
        assert np.hypot(*a.positions[1]) < 1.0  # node 1 sits at the origin

    def test_empty_network_raises(self):
        empty = parse_osm_xml("<osm version='0.6'></osm>")
        with pytest.raises(ValueError, match="no usable highway network"):
            project_network(empty)

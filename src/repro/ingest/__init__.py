"""Real-map ingestion: OSM extracts to simulation-ready road maps.

The pipeline has four stages, each importable on its own:

``osm``
    Streaming OSM XML / Overpass-JSON parsing with tag normalisation
    (highway class, maxspeed units, oneway conventions), then projection
    of WGS-84 coordinates into the local planar metre frame.
``compact``
    Graph conditioning: bbox clip, largest connected component, dead-end
    stub pruning and degree-2 chain contraction into polyline segments.
``cache``
    The compiled-map disk cache (content-hash + options keyed), plus the
    uncached :func:`~repro.ingest.cache.compile_osm` entry point.
``fixtures``
    Deterministic synthetic OSM extracts for tests, benchmarks and CI.
"""

from repro.ingest.cache import compile_osm, default_cache_dir, import_map
from repro.ingest.compact import CompiledMap, ConditioningReport, compile_roadmap
from repro.ingest.fixtures import (
    FIXTURES,
    build_fixture_xml,
    synthetic_town_xml,
    write_fixture_xml,
)
from repro.ingest.osm import (
    HIGHWAY_CLASSES,
    OSMNetwork,
    load_osm,
    parse_maxspeed,
    parse_oneway,
    parse_osm_json,
    parse_osm_xml,
    project_network,
)

__all__ = [
    "CompiledMap",
    "ConditioningReport",
    "FIXTURES",
    "HIGHWAY_CLASSES",
    "OSMNetwork",
    "build_fixture_xml",
    "compile_osm",
    "compile_roadmap",
    "default_cache_dir",
    "import_map",
    "load_osm",
    "parse_maxspeed",
    "parse_oneway",
    "parse_osm_json",
    "parse_osm_xml",
    "project_network",
    "synthetic_town_xml",
    "write_fixture_xml",
]

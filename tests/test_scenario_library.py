"""Tests for the scenario library: registry, generated entries, fleet mix."""

import numpy as np
import pytest

from repro.experiments.library import (
    GENERATED_SPECS,
    FleetMix,
    build_library_scenario,
    describe_scenarios,
    fleet_lanes,
    get_entry,
    register_scenario,
    scenario_names,
)
from repro.mobility.generator import (
    FREE_FLOW,
    AgentSpec,
    Degradation,
    GeneratorSpec,
    RealMapTopology,
    Topology,
    TrafficRegime,
    generate_scenario,
)
from repro.mapmatching.matcher import IncrementalMapMatcher
from repro.mobility.scenarios import ScenarioName
from repro.sim.config import PROTOCOL_IDS, SimulationConfig
from repro.sim.fleet import FleetLane, FleetSimulation
from repro.sim.runner import ScenarioSpec


class TestRegistry:
    def test_canonical_and_generated_names_registered(self):
        names = scenario_names()
        for canonical in ("freeway", "interurban", "city", "walking"):
            assert canonical in names
        for generated in (
            "rush_hour_city", "delivery_rounds", "commuter_mixed", "tunnel_freeway",
            "radial_commute", "night_corridor", "urban_canyon_walk",
            "interurban_stopandgo", "campus_courier",
        ):
            assert generated in names

    def test_at_least_eight_generated_scenarios(self):
        assert len(scenario_names("generated")) >= 8
        assert set(scenario_names("generated")) == set(GENERATED_SPECS)

    def test_get_entry_accepts_enum_members(self):
        assert get_entry(ScenarioName.FREEWAY).name == "freeway"
        assert get_entry("freeway") is get_entry(ScenarioName.FREEWAY)

    def test_unknown_name_lists_known_scenarios(self):
        with pytest.raises(ValueError, match="rush_hour_city"):
            get_entry("atlantis")

    def test_duplicate_registration_rejected(self):
        entry = get_entry("freeway")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(entry)

    def test_describe_scenarios_covers_registry(self):
        rows = describe_scenarios()
        assert {row["scenario"] for row in rows} == set(scenario_names())
        assert all(row["description"] for row in rows)
        assert all(row["category"] in ("canonical", "generated") for row in rows)

    def test_build_library_scenario_canonical_matches_enum_name(self):
        scenario = build_library_scenario("freeway", scale=0.03)
        assert scenario.key == "freeway"
        assert scenario.name is ScenarioName.FREEWAY

    @pytest.mark.parametrize("name", scenario_names("generated"))
    def test_generated_scenarios_build_and_are_runnable(self, name):
        scenario = ScenarioSpec(name=name, scale=0.15).build()
        assert scenario.key == name
        assert len(scenario.sensor_trace) == len(scenario.true_trace) > 50
        assert scenario.us_values
        assert scenario.route.length > 0


class TestGeneratedCompositions:
    def test_delivery_round_dwells_extend_duration(self):
        spec = GENERATED_SPECS["delivery_rounds"]
        without = GeneratorSpec(
            name=spec.name, description=spec.description, topology=spec.topology,
            regime=spec.regime,
            agent=AgentSpec(kind="delivery", n_stops=spec.agent.n_stops,
                            dwell_range=(0.0, 0.0)),
            route_length_m=spec.route_length_m, default_seed=spec.default_seed,
        )
        dwelling = generate_scenario(spec, scale=0.2)
        driving = generate_scenario(without, scale=0.2)
        # Identical round (same rng draws, same legs), but with zero-length
        # dwells the van never waits at a drop-off.
        assert np.isclose(dwelling.route.length, driving.route.length)
        assert dwelling.true_trace.duration > driving.true_trace.duration

    def test_tunnel_freeway_has_dropout_gaps(self):
        scenario = ScenarioSpec(name="tunnel_freeway", scale=0.15).build()
        gaps = np.diff(scenario.sensor_trace.times)
        assert gaps.max() > 1.5, "dropout windows should leave >1 s gaps"
        clean = generate_scenario(
            GeneratorSpec(
                name="tunnel_clean", description="no dropouts",
                topology=GENERATED_SPECS["tunnel_freeway"].topology,
                regime=GENERATED_SPECS["tunnel_freeway"].regime,
                agent=GENERATED_SPECS["tunnel_freeway"].agent,
                route_length_m=GENERATED_SPECS["tunnel_freeway"].route_length_m,
                default_seed=GENERATED_SPECS["tunnel_freeway"].default_seed,
            ),
            scale=0.15,
        )
        assert len(scenario.sensor_trace) < len(clean.sensor_trace)

    def test_commuter_mixed_spans_fast_and_slow_links(self):
        scenario = ScenarioSpec(name="commuter_mixed", scale=1.0).build()
        limits = {round(link.speed_limit, 2) for link in scenario.route.links}
        assert max(limits) > 30.0, "route should include motorway links"
        assert min(limits) < 20.0, "route should include city streets"

    def test_rush_hour_is_slower_than_free_flow(self):
        spec = GENERATED_SPECS["rush_hour_city"]
        rush = generate_scenario(spec, scale=0.15)
        free = generate_scenario(
            GeneratorSpec(
                name="free_city", description="same trip, empty streets",
                topology=spec.topology, regime=TrafficRegime(name="empty",
                speed_factor=0.92, stop_probability=0.0, speed_noise_sigma=0.05),
                agent=spec.agent, route_length_m=spec.route_length_m,
                default_seed=spec.default_seed,
            ),
            scale=0.15,
        )
        v_rush = rush.summary()["average_speed_kmh"]
        v_free = free.summary()["average_speed_kmh"]
        assert v_rush < v_free * 0.75

    def test_unknown_axis_values_rejected(self):
        with pytest.raises(ValueError):
            Topology(kind="moebius")
        with pytest.raises(ValueError):
            AgentSpec(kind="submarine")
        with pytest.raises(ValueError):
            AgentSpec(kind="car", route_style="teleport")
        with pytest.raises(ValueError):
            Degradation(dropout_fraction=0.95)
        with pytest.raises(ValueError):
            generate_scenario(GENERATED_SPECS["rush_hour_city"], scale=0.0)


class TestAxisValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: AgentSpec(straight_bias=1.5),
            lambda: AgentSpec(straight_bias=-0.1),
            lambda: AgentSpec(n_stops=0),
            lambda: AgentSpec(sample_interval=0.0),
            lambda: Degradation(dropout_windows=-1),
            lambda: Degradation(burst_windows=-1),
            lambda: Degradation(burst_fraction=1.5),
            lambda: Degradation(burst_sigma=-1.0),
            lambda: RealMapTopology(),
            lambda: RealMapTopology(map_file="town.osm", fixture="small_town"),
            lambda: GeneratorSpec("", "no name", Topology(kind="grid"), FREE_FLOW),
            lambda: GeneratorSpec(
                "x", "empty trip", Topology(kind="grid"), FREE_FLOW, route_length_m=0.0
            ),
        ],
        ids=[
            "bias_above_one",
            "bias_negative",
            "no_stops",
            "zero_sample_interval",
            "negative_dropout_windows",
            "negative_burst_windows",
            "burst_fraction_above_one",
            "negative_burst_sigma",
            "osm_without_source",
            "osm_with_two_sources",
            "spec_without_name",
            "spec_with_empty_route",
        ],
    )
    def test_invalid_axis_value_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_degradation_with_nothing_to_degrade_is_null(self):
        assert Degradation().is_null
        assert Degradation(dropout_windows=3, dropout_fraction=0.0).is_null
        assert not Degradation(burst_windows=2, burst_sigma=5.0, burst_fraction=0.1).is_null


class TestKnobs:
    @pytest.mark.parametrize(
        "topology, expected",
        [
            (Topology(kind="grid", rows=4, cols=5, spacing_m=150.0),
             {"rows": 4, "cols": 5, "spacing_m": 150.0}),
            (Topology(kind="footpath", rows=3, cols=3, spacing_m=80.0),
             {"rows": 3, "cols": 3, "spacing_m": 80.0}),
            (Topology(kind="radial", n_arms=6, n_rings=2, ring_spacing_m=400.0),
             {"n_arms": 6, "n_rings": 2, "ring_spacing_m": 400.0}),
            (Topology(kind="corridor", length_km=12.0), {"length_km": 12.0}),
            (Topology(kind="interurban", n_towns=3, town_spacing_km=8.0),
             {"n_towns": 3, "town_spacing_km": 8.0}),
            (Topology(kind="mixed", length_km=5.0, rows=4, cols=4, spacing_m=200.0),
             {"corridor_km": 5.0, "rows": 4, "cols": 4, "spacing_m": 200.0}),
        ],
        ids=lambda value: value.kind if isinstance(value, Topology) else "",
    )
    def test_topology_knobs_name_the_parameters_of_its_kind(self, topology, expected):
        assert topology.knobs == expected

    def test_real_map_knobs(self):
        assert RealMapTopology(fixture="small_town").knobs == {"source": "fixture:small_town"}
        clipped = RealMapTopology(map_file="town.osm", bbox=(1.0, 2.0, 3.0, 4.0), contract=False)
        assert clipped.knobs == {
            "source": "town.osm", "bbox": (1.0, 2.0, 3.0, 4.0), "contract": False,
        }

    def test_spec_knobs_name_every_non_default_axis(self):
        spec = GeneratorSpec(
            "knobs",
            "every optional knob set",
            Topology(kind="corridor", length_km=10.0),
            FREE_FLOW,
            agent=AgentSpec(kind="delivery", n_stops=5, sample_interval=5.0),
            degradation=Degradation(
                dropout_windows=2, dropout_fraction=0.1,
                burst_windows=3, burst_sigma=12.0, burst_fraction=0.2,
            ),
            route_length_m=8_000.0,
        )
        knobs = spec.knobs
        assert knobs["topology"] == "corridor"
        assert knobs["length_km"] == 10.0
        assert knobs["route_style"] == "multi_stop"
        assert knobs["route_km"] == 8.0
        assert knobs["delivery_stops"] == 5
        assert knobs["sample_interval_s"] == 5.0
        assert knobs["dropout"] == "2x windows, 10%"
        assert knobs["noise_bursts"] == "3x +12 m"

    def test_default_spec_knobs_omit_optional_axes(self):
        knobs = GeneratorSpec("plain", "defaults", Topology(kind="grid"), FREE_FLOW).knobs
        for key in ("delivery_stops", "sample_interval_s", "dropout", "noise_bursts"):
            assert key not in knobs


class TestFleetMix:
    def test_parse_full_form(self):
        mix = FleetMix.parse("rush_hour_city:map:100:25")
        assert mix == FleetMix("rush_hour_city", "map", 100.0, 25)

    def test_parse_defaults_count_to_one(self):
        assert FleetMix.parse("walking:linear:50").count == 1

    @pytest.mark.parametrize("text", [
        "walking", "walking:linear", "walking:linear:50:3:9",
        "atlantis:linear:50", "walking:warp:50", "walking:linear:-5",
        "walking:linear:0", "walking:linear:nan", "walking:linear:inf",
    ])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            FleetMix.parse(text)

    def test_fleet_lanes_share_cached_scenario_but_not_protocols(self):
        lanes = fleet_lanes([FleetMix("radial_commute", "linear", 100.0, 3)], scale=0.15)
        assert len(lanes) == 3
        assert len({id(l.protocol) for l in lanes}) == 3
        assert len({id(l.sensor_trace) for l in lanes}) == 1
        assert len({l.object_id for l in lanes}) == 3

    def test_map_slice_matches_its_trace_once(self, monkeypatch):
        calls = [0]
        update = IncrementalMapMatcher.update

        def counted(self, *args, **kwargs):
            calls[0] += 1
            return update(self, *args, **kwargs)

        monkeypatch.setattr(IncrementalMapMatcher, "update", counted)
        lanes = fleet_lanes([FleetMix("city", "map", 100.0, 4)], scale=0.07)
        FleetSimulation(lanes).run()
        # Four lanes replay one trace: the slice's clones share one match.
        assert calls[0] == len(lanes[0].sensor_trace)

    @pytest.mark.parametrize(
        "protocol_id", [p for p in PROTOCOL_IDS if p != "map_probabilistic"]
    )
    def test_cloned_lanes_equal_fresh_protocols(self, protocol_id):
        mix = [FleetMix("city", protocol_id, 100.0, 3)]
        lanes = fleet_lanes(mix, scale=0.07)
        scenario = ScenarioSpec(name="city", scale=0.07).build()
        config = SimulationConfig(protocol_id=protocol_id, accuracy=100.0)
        fresh = [
            FleetLane(
                object_id=lane.object_id,
                protocol=config.build_protocol(scenario),
                sensor_trace=lane.sensor_trace,
                truth_trace=lane.truth_trace,
            )
            for lane in lanes
        ]
        assert FleetSimulation(lanes).run().as_rows() == FleetSimulation(fresh).run().as_rows()

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
    AgentSpec,
    Degradation,
    GeneratorSpec,
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

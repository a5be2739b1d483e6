"""Protocol invariants over every generated scenario, plus seeded
property-based suites for the scenario generator itself.

These are the structural guarantees the regression net leans on:

* the dead-reckoning accuracy contract holds on every generated movement
  pattern (not just the paper's four),
* update counts respond monotonically to the requested accuracy,
* one merged fleet loop over all generated scenarios is bit-identical to
  independent single-object runs,
* generation is deterministic in (spec, seed, scale) and different seeds
  decorrelate the traces,
* degradation does exactly what it claims (dropouts remove paired samples,
  bursts only touch their windows).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.library import scenario_names
from repro.mobility.generator import (
    REGIMES,
    AgentSpec,
    Degradation,
    GeneratorSpec,
    Topology,
    generate_scenario,
)
from repro.sim.config import SimulationConfig
from repro.sim.fleet import FleetLane, FleetSimulation, run_simulation
from repro.sim.runner import ScenarioSpec

TEST_SCALE = 0.15
GENERATED_NAMES = scenario_names("generated")


def _scenario(name: str):
    """The shared, cached test-scale instance of a library scenario."""
    return ScenarioSpec(name=name, scale=TEST_SCALE).build()


def _protocol(scenario, protocol_id: str, accuracy: float):
    return SimulationConfig(protocol_id=protocol_id, accuracy=accuracy).build_protocol(scenario)


def _run(scenario, protocol_id: str, accuracy: float):
    return run_simulation(
        _protocol(scenario, protocol_id, accuracy),
        scenario.sensor_trace,
        scenario.true_trace,
    )


# --------------------------------------------------------------------------- #
# accuracy contract
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", GENERATED_NAMES)
@pytest.mark.parametrize("protocol_id", ["distance", "linear", "map"])
def test_error_bound_respected_on_generated_scenarios(name, protocol_id):
    """Server error never exceeds us + sensor offset + one-step movement.

    The protocol bounds its deviation from the *sensor* position at every
    sighting; translating to ground truth adds the worst sensor-vs-truth
    offset, and the discrete check cadence adds at most the movement
    between two consecutive sightings (which, on dropout scenarios,
    includes the tunnel gaps — computed from the actual trace).
    """
    scenario = _scenario(name)
    accuracy = 100.0
    result = _run(scenario, protocol_id, accuracy)
    sensor = scenario.sensor_trace.positions
    truth = scenario.true_trace.positions
    max_offset = float(np.hypot(*(sensor - truth).T).max())
    steps = np.diff(sensor, axis=0)
    max_step = float(np.hypot(steps[:, 0], steps[:, 1]).max())
    assert result.metrics.max_error <= accuracy + max_offset + max_step + 1e-6


@pytest.mark.parametrize("name", GENERATED_NAMES)
def test_update_count_monotone_in_accuracy(name):
    """Relaxing the requested accuracy never increases the update count."""
    scenario = _scenario(name)
    for protocol_id in ("distance", "linear", "map"):
        counts = [
            _run(scenario, protocol_id, us).updates for us in (50.0, 100.0, 200.0, 400.0)
        ]
        assert counts == sorted(counts, reverse=True) or all(
            a >= b for a, b in zip(counts, counts[1:])
        ), f"{protocol_id} updates not monotone on {name}: {counts}"


# --------------------------------------------------------------------------- #
# fleet == single equivalence
# --------------------------------------------------------------------------- #
def test_fleet_equals_single_on_every_generated_scenario():
    """One merged loop over all generated scenarios == independent runs."""
    lanes = []
    singles = {}
    for name in GENERATED_NAMES:
        scenario = _scenario(name)
        lanes.append(
            FleetLane(
                object_id=name,
                protocol=_protocol(scenario, "linear", 100.0),
                sensor_trace=scenario.sensor_trace,
                truth_trace=scenario.true_trace,
            )
        )
        singles[name] = _run(scenario, "linear", 100.0)
    fleet = FleetSimulation(lanes).run()
    assert list(fleet.results) == GENERATED_NAMES
    for name in GENERATED_NAMES:
        merged = fleet.results[name]
        single = singles[name]
        assert merged.updates == single.updates
        assert merged.bytes_sent == single.bytes_sent
        assert merged.update_reasons == single.update_reasons
        assert np.array_equal(merged.metrics.errors, single.metrics.errors)


def test_heterogeneous_hundred_object_fleet():
    """A 100+ object fleet mixing scenarios, agents and protocols runs in
    one loop and matches single-object runs on sampled lanes."""
    from repro.experiments.library import FleetMix, fleet_lanes

    mix = [
        FleetMix("rush_hour_city", "map", 100.0, count=30),
        FleetMix("delivery_rounds", "linear", 100.0, count=25),
        FleetMix("tunnel_freeway", "distance", 200.0, count=20),
        FleetMix("urban_canyon_walk", "linear", 50.0, count=15),
        FleetMix("radial_commute", "map", 150.0, count=15),
    ]
    lanes = fleet_lanes(mix, scale=TEST_SCALE)
    assert len(lanes) == 105
    fleet = FleetSimulation(lanes).run()
    assert len(fleet.results) == 105
    assert fleet.total_updates > 0
    assert fleet.object_hours > 0
    # Identical lanes of one slice produce identical results...
    first = fleet.results["rush_hour_city/map/100/0"]
    last = fleet.results["rush_hour_city/map/100/29"]
    assert first.updates == last.updates
    assert np.array_equal(first.metrics.errors, last.metrics.errors)
    # ...and each slice representative matches an independent single run.
    for m in mix:
        scenario = _scenario(m.scenario)
        single = _run(scenario, m.protocol_id, m.accuracy)
        merged = fleet.results[f"{m.scenario}/{m.protocol_id}/{m.accuracy:g}/0"]
        assert merged.updates == single.updates
        assert np.array_equal(merged.metrics.errors, single.metrics.errors)


# --------------------------------------------------------------------------- #
# seeded generator properties (hypothesis, derandomised for CI stability)
# --------------------------------------------------------------------------- #
_topologies = st.sampled_from([
    Topology(kind="grid", rows=6, cols=6, spacing_m=200.0),
    Topology(kind="radial", n_arms=5, n_rings=3, ring_spacing_m=300.0),
    Topology(kind="corridor", length_km=8.0),
    Topology(kind="footpath", rows=8, cols=8, spacing_m=90.0),
])
_regimes = st.sampled_from(sorted(REGIMES))
_agents = st.sampled_from([
    AgentSpec(kind="car", route_style="wander"),
    AgentSpec(kind="delivery", n_stops=3, dwell_range=(20.0, 60.0)),
    AgentSpec(kind="pedestrian", estimation_window=8),
])
_seeds = st.integers(min_value=0, max_value=2**16)

generator_settings = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _spec(topology, regime_name, agent, seed):
    agent_ok = agent
    if topology.kind == "footpath" and agent.kind != "pedestrian":
        agent_ok = AgentSpec(kind="pedestrian", estimation_window=8)
    if topology.kind == "corridor":
        agent_ok = AgentSpec(kind="car", route_style="corridor", estimation_window=2)
    return GeneratorSpec(
        name=f"prop-{topology.kind}-{regime_name}-{agent_ok.kind}",
        description="property-test composition",
        topology=topology,
        regime=REGIMES[regime_name],
        agent=agent_ok,
        route_length_m=4_000.0,
        default_seed=seed,
    )


@generator_settings
@given(topology=_topologies, regime_name=_regimes, agent=_agents, seed=_seeds)
def test_generation_is_deterministic(topology, regime_name, agent, seed):
    spec = _spec(topology, regime_name, agent, seed)
    a = generate_scenario(spec, scale=0.5)
    b = generate_scenario(spec, scale=0.5)
    assert np.array_equal(a.sensor_trace.times, b.sensor_trace.times)
    assert np.array_equal(a.sensor_trace.positions, b.sensor_trace.positions)
    assert np.array_equal(a.true_trace.positions, b.true_trace.positions)
    assert a.journey.link_ids == b.journey.link_ids


@generator_settings
@given(topology=_topologies, regime_name=_regimes, agent=_agents, seed=_seeds)
def test_generated_traces_are_wellformed(topology, regime_name, agent, seed):
    spec = _spec(topology, regime_name, agent, seed)
    scenario = generate_scenario(spec, scale=0.5)
    sensor, truth = scenario.sensor_trace, scenario.true_trace
    assert len(sensor) == len(truth) > 50
    assert np.array_equal(sensor.times, truth.times)
    assert np.all(np.diff(sensor.times) > 0)
    assert len(scenario.journey.link_ids) == len(truth)
    assert scenario.route.length > 0


@generator_settings
@given(topology=_topologies, regime_name=_regimes, agent=_agents, seed=_seeds)
def test_distinct_seeds_decorrelate_traces(topology, regime_name, agent, seed):
    spec = _spec(topology, regime_name, agent, seed)
    a = generate_scenario(spec, seed=seed, scale=0.5)
    b = generate_scenario(spec, seed=seed + 1, scale=0.5)
    same_shape = a.sensor_trace.positions.shape == b.sensor_trace.positions.shape
    assert not (
        same_shape and np.array_equal(a.sensor_trace.positions, b.sensor_trace.positions)
    )


# --------------------------------------------------------------------------- #
# degradation properties
# --------------------------------------------------------------------------- #
def _base_scenario_pair(degradation: Degradation, seed: int = 7):
    base = GeneratorSpec(
        name="prop-degradation",
        description="degradation property base",
        topology=Topology(kind="grid", rows=6, cols=6, spacing_m=200.0),
        regime=REGIMES["free_flow"],
        agent=AgentSpec(kind="car", route_style="wander"),
        route_length_m=4_000.0,
        default_seed=seed,
    )
    clean = generate_scenario(base, scale=1.0)
    degraded = generate_scenario(
        GeneratorSpec(
            name=base.name, description=base.description, topology=base.topology,
            regime=base.regime, agent=base.agent, degradation=degradation,
            route_length_m=base.route_length_m, default_seed=seed,
        ),
        scale=1.0,
    )
    return clean, degraded


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    fraction=st.floats(min_value=0.02, max_value=0.3),
    windows=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**10),
)
def test_dropout_removes_paired_samples(fraction, windows, seed):
    clean, degraded = _base_scenario_pair(
        Degradation(dropout_windows=windows, dropout_fraction=fraction), seed=seed
    )
    n = len(clean.sensor_trace)
    m = len(degraded.sensor_trace)
    dropped = n - m
    assert 0 < dropped <= int(round(n * fraction)) + windows
    # Sensor and truth stay paired sample-for-sample.
    assert len(degraded.true_trace) == m
    assert np.array_equal(degraded.sensor_trace.times, degraded.true_trace.times)
    # The first sample (protocol/server bootstrap) is never dropped.
    assert degraded.sensor_trace.times[0] == clean.sensor_trace.times[0]
    # Remaining samples are an exact subset of the clean run.
    kept = np.isin(clean.sensor_trace.times, degraded.sensor_trace.times)
    assert kept.sum() == m
    assert np.array_equal(clean.true_trace.positions[kept], degraded.true_trace.positions)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    sigma=st.floats(min_value=5.0, max_value=40.0),
    windows=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**10),
)
def test_noise_bursts_touch_only_their_windows(sigma, windows, seed):
    fraction = 0.25
    clean, degraded = _base_scenario_pair(
        Degradation(burst_windows=windows, burst_sigma=sigma, burst_fraction=fraction),
        seed=seed,
    )
    n = len(clean.sensor_trace)
    assert len(degraded.sensor_trace) == n  # bursts never drop samples
    changed = ~np.all(
        clean.sensor_trace.positions == degraded.sensor_trace.positions, axis=1
    )
    assert 0 < changed.sum() <= int(round(n * fraction)) + windows
    assert not changed[0]  # bootstrap sample untouched
    # Ground truth is untouched by noise bursts.
    assert np.array_equal(clean.true_trace.positions, degraded.true_trace.positions)

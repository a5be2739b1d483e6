"""Unit tests for repro.mapmatching.matcher."""

import numpy as np
import pytest

from repro.mapmatching.matcher import (
    IncrementalMapMatcher,
    MatcherConfig,
    MatchStatus,
)


class TestMatcherConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatcherConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            MatcherConfig(end_proximity=-1.0)
        with pytest.raises(ValueError):
            MatcherConfig(backtrack_depth=0)
        with pytest.raises(ValueError):
            MatcherConfig(reacquire_interval=0)


class TestAcquisition:
    def test_initial_match_on_nearest_link(self, straight_map):
        matcher = IncrementalMapMatcher(straight_map, MatcherConfig(tolerance=30.0))
        result = matcher.update((250.0, 10.0))
        assert result.status is MatchStatus.NEW_LINK
        assert result.is_matched
        assert result.distance == pytest.approx(10.0)
        # The corrected position lies on the road (y == 0).
        assert result.position[1] == pytest.approx(0.0)

    def test_no_link_within_tolerance(self, straight_map):
        matcher = IncrementalMapMatcher(straight_map, MatcherConfig(tolerance=30.0))
        result = matcher.update((250.0, 500.0))
        assert result.status is MatchStatus.OFF_MAP
        assert not result.is_matched
        assert result.link_id is None

    def test_heading_selects_correct_carriageway(self, straight_map):
        matcher = IncrementalMapMatcher(straight_map, MatcherConfig(tolerance=30.0))
        eastbound = matcher.update((250.0, 2.0), heading=(1.0, 0.0))
        link = straight_map.link(eastbound.link_id)
        assert link.direction_at(eastbound.offset)[0] > 0
        matcher = IncrementalMapMatcher(straight_map, MatcherConfig(tolerance=30.0))
        westbound = matcher.update((250.0, 2.0), heading=(-1.0, 0.0))
        link = straight_map.link(westbound.link_id)
        assert link.direction_at(westbound.offset)[0] < 0

    def test_reacquisition_interval(self, straight_map):
        config = MatcherConfig(tolerance=30.0, reacquire_interval=3)
        matcher = IncrementalMapMatcher(straight_map, config)
        far = (0.0, 10_000.0)
        assert matcher.update(far).status is MatchStatus.OFF_MAP  # queries, fails
        # The next two sightings do not even query the index.
        assert matcher.update(far).status is MatchStatus.OFF_MAP
        assert matcher.update(far).status is MatchStatus.OFF_MAP
        # Moving back next to the road: re-acquired on a query tick.
        results = [matcher.update((100.0, 5.0)) for _ in range(4)]
        assert any(r.is_matched for r in results)
        assert matcher.statistics()["reacquisitions"] >= 1


class TestTracking:
    def test_stays_on_link_while_matched(self, straight_map):
        matcher = IncrementalMapMatcher(straight_map, MatcherConfig(tolerance=30.0))
        first = matcher.update((20.0, 3.0), heading=(1.0, 0.0))
        second = matcher.update((60.0, -4.0), heading=(1.0, 0.0))
        assert second.status is MatchStatus.MATCHED
        assert second.link_id == first.link_id
        assert second.offset > first.offset

    def test_forward_tracking_at_link_end(self, straight_map):
        matcher = IncrementalMapMatcher(straight_map, MatcherConfig(tolerance=30.0))
        # The straight road has links of 500 m; walk past the first link end.
        # The transition is delayed (paper Sec. 3): right after the end the
        # position still matches the old link within the tolerance, so the
        # switch only happens once the object is clearly beyond it.
        first = matcher.update((450.0, 2.0), heading=(1.0, 0.0))
        just_past = matcher.update((520.0, 2.0), heading=(1.0, 0.0))
        assert just_past.is_matched
        assert just_past.link_id == first.link_id  # still the delayed old link
        beyond = matcher.update((580.0, 2.0), heading=(1.0, 0.0))
        assert beyond.is_matched
        assert beyond.link_id != first.link_id
        stats = matcher.statistics()
        assert stats["forward_tracks"] >= 1

    def test_forward_tracking_chooses_turn_arm(self, t_map):
        matcher = IncrementalMapMatcher(t_map, MatcherConfig(tolerance=30.0))
        # Approach the junction from the west, then turn north.
        matcher.update((-200.0, 1.0), heading=(1.0, 0.0))
        matcher.update((-50.0, 1.0), heading=(1.0, 0.0))
        result = matcher.update((2.0, 80.0), heading=(0.0, 1.0))
        assert result.is_matched
        link = t_map.link(result.link_id)
        # The matched link leads towards the north arm.
        assert link.geometry.points[-1][1] > 100.0 or link.geometry.points[0][1] > 100.0

    def test_backward_tracking_recovers_wrong_choice(self, t_map):
        matcher = IncrementalMapMatcher(
            t_map, MatcherConfig(tolerance=25.0, end_proximity=40.0)
        )
        # Approach the junction and (deliberately) continue east first.
        matcher.update((-300.0, 1.0), heading=(1.0, 0.0))
        matcher.update((-100.0, 1.0), heading=(1.0, 0.0))
        east = matcher.update((60.0, 1.0), heading=(1.0, 0.0))
        assert east.is_matched
        # The object actually went north: far from the east arm, within reach
        # of the north arm. Backward tracking should recover it.
        north = matcher.update((1.0, 120.0), heading=(0.0, 1.0))
        assert north.is_matched
        link = t_map.link(north.link_id)
        assert abs(link.geometry.points[0][0]) < 1e-6 or abs(link.geometry.points[-1][0]) < 1e-6
        assert matcher.statistics()["backward_tracks"] + matcher.statistics()["forward_tracks"] >= 1

    def test_off_map_after_leaving_network(self, straight_map):
        matcher = IncrementalMapMatcher(straight_map, MatcherConfig(tolerance=30.0))
        matcher.update((100.0, 0.0), heading=(1.0, 0.0))
        result = matcher.update((100.0, 400.0), heading=(0.0, 1.0))
        assert result.status is MatchStatus.OFF_MAP
        assert matcher._current_link is None
        assert matcher.statistics()["off_map_events"] >= 1

    def test_direction_flip_on_u_turn(self, straight_map):
        matcher = IncrementalMapMatcher(straight_map, MatcherConfig(tolerance=30.0))
        first = matcher.update((300.0, 2.0), heading=(1.0, 0.0))
        # The object turns around and drives back west along the same road.
        second = matcher.update((280.0, 2.0), heading=(-1.0, 0.0))
        assert second.is_matched
        assert second.link_id != first.link_id
        assert matcher.statistics()["direction_flips"] >= 1


class TestCorrectedPosition:
    def test_matched_position_is_projection(self, curved_map):
        matcher = IncrementalMapMatcher(curved_map, MatcherConfig(tolerance=40.0))
        result = matcher.update((500.0, 20.0), heading=(1.0, 0.0))
        assert result.is_matched
        np.testing.assert_allclose(result.position, [500.0, 0.0], atol=1e-6)
        assert result.offset == pytest.approx(500.0)

    def test_offset_within_link_length(self, curved_map):
        matcher = IncrementalMapMatcher(curved_map, MatcherConfig(tolerance=40.0))
        result = matcher.update((980.0, -10.0), heading=(1.0, 0.0))
        assert result.is_matched
        link = curved_map.link(result.link_id)
        assert 0.0 <= result.offset <= link.length


class TestAdvanceAtLinkEnd:
    """The opt-in segmentation-transparent forward tracking (ingest PR)."""

    def _chain_maps(self):
        """The same straight 300 m road as 1 link vs 3 chained links."""
        from repro.roadmap.builder import RoadMapBuilder

        merged = RoadMapBuilder()
        merged.add_intersection((0.0, 0.0), node_id=0)
        merged.add_intersection((300.0, 0.0), node_id=3)
        merged.add_two_way_link(0, 3, shape_points=[(100.0, 0.0), (200.0, 0.0)])

        split = RoadMapBuilder()
        for i in range(4):
            split.add_intersection((i * 100.0, 0.0), node_id=i)
        for a, b in ((0, 1), (1, 2), (2, 3)):
            split.add_two_way_link(a, b)
        return merged.build(), split.build()

    def _walk(self, roadmap, advance):
        config = MatcherConfig(tolerance=30.0, advance_at_link_end=advance)
        matcher = IncrementalMapMatcher(roadmap, config)
        positions = []
        for x in np.arange(5.0, 296.0, 13.0):
            result = matcher.update((x, 2.0), heading=(1.0, 0.0))
            assert result.is_matched
            positions.append(result.position)
        return np.array(positions)

    def test_default_sticks_at_chain_node(self):
        _, split = self._chain_maps()
        positions = self._walk(split, advance=False)
        # Sightings just past x=100 stay clamped to the first link's end.
        clamped = positions[np.isclose(positions[:, 0], 100.0)]
        assert len(clamped) >= 1

    def test_advance_makes_matching_segmentation_invariant(self):
        merged, split = self._chain_maps()
        on_merged = self._walk(merged, advance=True)
        on_split = self._walk(split, advance=True)
        np.testing.assert_allclose(on_merged, on_split, atol=1e-9)
        # And no clamping artefacts: every matched x tracks the sighting.
        xs = np.arange(5.0, 296.0, 13.0)
        np.testing.assert_allclose(on_split[:, 0], xs, atol=1e-6)

    def test_advance_spanning_multiple_short_links(self):
        """One sighting step can pass several links; the loop follows."""
        from repro.roadmap.builder import RoadMapBuilder

        builder = RoadMapBuilder()
        for i in range(7):
            builder.add_intersection((i * 20.0, 0.0), node_id=i)
        for a in range(6):
            builder.add_two_way_link(a, a + 1)
        roadmap = builder.build()
        config = MatcherConfig(tolerance=30.0, advance_at_link_end=True)
        matcher = IncrementalMapMatcher(roadmap, config)
        first = matcher.update((5.0, 1.0), heading=(1.0, 0.0))
        assert first.is_matched
        # 55 m ahead: passes links 0-1 and 1-2 entirely, lands on 2-3.
        result = matcher.update((62.0, 1.0), heading=(1.0, 0.0))
        assert result.is_matched
        assert result.position[0] == pytest.approx(62.0, abs=1e-6)
        link = roadmap.link(result.link_id)
        assert {link.from_node, link.to_node} == {3, 4} or {
            link.from_node, link.to_node
        } == {2, 3}

    def test_advance_does_not_cross_a_junction_blindly(self):
        """At a real junction the best-matching arm wins, as before."""
        from repro.roadmap.builder import RoadMapBuilder

        builder = RoadMapBuilder()
        builder.add_intersection((0.0, 0.0), node_id=0)
        builder.add_intersection((100.0, 0.0), node_id=1)
        builder.add_intersection((200.0, 0.0), node_id=2)
        builder.add_intersection((100.0, 100.0), node_id=3)
        builder.add_two_way_link(0, 1)
        builder.add_two_way_link(1, 2)
        builder.add_two_way_link(1, 3)
        roadmap = builder.build()
        config = MatcherConfig(tolerance=30.0, advance_at_link_end=True)
        matcher = IncrementalMapMatcher(roadmap, config)
        matcher.update((90.0, 1.0), heading=(1.0, 0.0))
        # The object turns north.  The first sighting still projects onto
        # the interior of the current link within um (paper behaviour, no
        # end-clamp involved), so the matcher may keep it; by the next
        # sighting the distance exceeds um and the northern arm must win.
        first = matcher.update((99.0, 25.0), heading=(0.0, 1.0))
        assert first.is_matched
        result = matcher.update((99.0, 45.0), heading=(0.0, 1.0))
        assert result.is_matched
        link = roadmap.link(result.link_id)
        assert 3 in (link.from_node, link.to_node)

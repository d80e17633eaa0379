import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import oracle_membership_diameter

from rltrc.control import (
    BroadcastCircle,
    NetworkController,
    NodeTrack,
    ZoneController,
    _membership_diameter,
    assign_zones,
    circle_intersects_rect,
    circle_spans,
    destination_lookup,
    neighbor_counts,
    session_reporter,
)
from rltrc.model import NodeState, make_zones
from rltrc.rewards import NodeRewardState


def node(nid, pos, **kw):
    kw.setdefault("power_levels", (5.0, 10.0, 15.0))
    kw.setdefault("radio_range", 40.0)
    return NodeState(id=nid, position=pos, **kw)


class TestDestinationLookup:
    def setup_method(self):
        self.zones = make_zones(300.0, 200.0, 6)  # 100x100 rects, 3 cols

    def test_radius_from_elapsed_time(self):
        reg = {7: NodeTrack((50.0, 50.0), 90.0, 2.0)}
        c = destination_lookup(7, 100.0, reg, self.zones)
        assert c.radius == 20.0
        assert c.center == (50.0, 50.0)
        assert c.spans_zones == (0,)

    def test_zero_elapsed_single_zone(self):
        reg = {7: NodeTrack((50.0, 50.0), 100.0, 2.0)}
        c = destination_lookup(7, 100.0, reg, self.zones)
        assert c.radius == 0.0
        assert c.spans_zones == (0,)

    def test_circle_crossing_boundary_spans_zones(self):
        reg = {7: NodeTrack((95.0, 50.0), 95.0, 2.0)}
        c = destination_lookup(7, 100.0, reg, self.zones)
        assert c.spans_zones == (0, 1)

    def test_unknown_destination_floods_everywhere(self):
        c = destination_lookup(99, 100.0, {}, self.zones)
        assert c.spans_zones == tuple(range(6))
        assert c.radius == math.inf
        assert c.contains((299.0, 199.0))

    def test_radius_monotone_in_elapsed(self):
        reg = {7: NodeTrack((50.0, 50.0), 90.0, 2.0)}
        radii = [destination_lookup(7, t, reg, self.zones).radius for t in (90, 95, 100, 200)]
        assert radii == sorted(radii)

    def test_contains_boundary(self):
        c = BroadcastCircle((0.0, 0.0), 10.0, (0,))
        assert c.contains((10.0, 0.0))
        assert not c.contains((10.1, 0.0))


class TestCircleGeometry:
    def test_intersects_when_overlapping(self):
        zones = make_zones(300.0, 200.0, 6)
        assert circle_intersects_rect((50.0, 50.0), 5.0, zones[0])
        assert not circle_intersects_rect((50.0, 50.0), 5.0, zones[1])
        # touches the shared edge at x=100
        assert circle_intersects_rect((95.0, 50.0), 5.0, zones[1])

    def test_corner_touch(self):
        zones = make_zones(300.0, 200.0, 6)
        d = math.hypot(3.0, 4.0)
        assert circle_intersects_rect((103.0, 104.0), d, zones[0])
        assert not circle_intersects_rect((103.0, 104.0), d - 1e-9, zones[0])

    def test_spans_sorted_ids(self):
        zones = make_zones(300.0, 200.0, 6)
        got = circle_spans((150.0, 100.0), 60.0, zones)
        assert got == tuple(sorted(got))
        assert len(got) >= 2


class TestAssignZones:
    def test_membership_and_zone_ids(self):
        zones = make_zones(300.0, 200.0, 6)
        nodes = {
            1: node(1, (50.0, 50.0)),
            2: node(2, (150.0, 50.0)),
            3: node(3, (250.0, 150.0)),
        }
        assign_zones(nodes, zones)
        assert nodes[1].zone_id == 0
        assert nodes[2].zone_id == 1
        assert nodes[3].zone_id == 5
        assert zones[0].member_nodes == {1}
        assert zones[5].member_nodes == {3}

    def test_dead_nodes_drop_out(self):
        zones = make_zones(300.0, 200.0, 6)
        dead = node(1, (50.0, 50.0), residual_energy=0.0)
        assign_zones({1: dead}, zones)
        assert zones[0].member_nodes == set()
        assert dead.zone_id == 0


def diameter_cases():
    """Seeded layouts for the pruned diameter, degenerate ones first."""
    rng = random.Random(5)
    yield [(3.0, 4.0), (0.0, 0.0)]
    yield [(7.5, 2.25)] * 6
    yield [(1.0, 1.0)] * 3 + [(1.0, 1.0 + 1e-12)]
    yield [(float(i), 0.0) for i in range(9)]
    yield [(0.0, float(i)) for i in range(9)][::-1]
    yield [(0.1 * i, 0.3 * i) for i in range(25)]
    yield [(5.0 - 0.7 * i, 2.0 + 0.7 * i) for i in range(25)]
    for _ in range(40):
        side = rng.randint(1, 6)
        yield [(float(rng.randint(0, side)), float(rng.randint(0, side)))
               for _ in range(rng.randint(2, 60))]
    for _ in range(40):
        w, h = rng.choice([(1e-9, 50.0), (50.0, 1e-9), (1e4, 1e-3), (1e-3, 1e4)])
        x0, y0 = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
        yield [(x0 + rng.uniform(0.0, w), y0 + rng.uniform(0.0, h))
               for _ in range(rng.randint(2, 60))]
    for _ in range(300):
        w, h = rng.uniform(1.0, 150.0), rng.uniform(1.0, 150.0)
        pts = [(rng.uniform(0.0, w), rng.uniform(0.0, h)) for _ in range(rng.randint(2, 120))]
        for _ in range(rng.randrange(4)):
            pts.insert(rng.randrange(len(pts)), rng.choice(pts))
        yield pts


def test_membership_diameter_is_exactly_the_all_pairs_value():
    for pts in diameter_cases():
        nodes = {i: node(i, p) for i, p in enumerate(pts)}
        assert _membership_diameter(sorted(nodes), nodes) == oracle_membership_diameter(pts)


class TestZoneControllerSync:
    def setup_method(self):
        self.zones = make_zones(300.0, 200.0, 6)
        self.nodes = {
            1: node(1, (40.0, 50.0)),
            2: node(2, (70.0, 50.0)),
        }
        assign_zones(self.nodes, self.zones)
        self.ctl = ZoneController(self.zones[0], {})
        self.rewards = {1: NodeRewardState(), 2: NodeRewardState()}

    def sync(self, t_now, ctl=None):
        alive = [n for n in self.nodes.values() if n.alive]
        return (ctl or self.ctl).sync(t_now, self.nodes, self.rewards,
                                      neighbors=neighbor_counts(alive))

    def test_registry_refresh(self):
        self.sync(10.0)
        assert self.ctl.registry[1].position == (40.0, 50.0)
        assert self.ctl.registry[1].last_seen == 10.0
        assert 2 in self.ctl.registry
        # a node that leaves the zone keeps its last sighting
        self.nodes[2].position = (150.0, 50.0)
        assign_zones(self.nodes, self.zones)
        self.sync(20.0)
        assert self.ctl.registry[1].last_seen == 20.0
        assert self.ctl.registry[2].position == (70.0, 50.0)
        assert self.ctl.registry[2].last_seen == 10.0
        # the registry is shared: another zone's sync refreshes node 2
        self.sync(30.0, ZoneController(self.zones[1], self.ctl.registry))
        assert self.ctl.registry[2].position == (150.0, 50.0)
        assert self.ctl.registry[2].last_seen == 30.0

    def test_theta_is_membership_diameter(self):
        self.sync(10.0)
        assert self.ctl.zone.theta == pytest.approx(30.0)

    def test_theta_falls_back_to_diagonal(self):
        del self.nodes[2]
        assign_zones(self.nodes, self.zones)
        self.sync(10.0)
        assert self.ctl.zone.theta == pytest.approx(math.hypot(100.0, 100.0))

    def test_phi_and_av_rad(self):
        self.sync(10.0)
        assert self.ctl.zone.av_rad == 40.0
        assert self.ctl.zone.phi == 1.0  # each sees the other
        assert self.ctl.zone.ng == 1.0

    def test_isolated_members_keep_previous_phi(self):
        self.nodes[2].position = (70.0, 50.0)
        self.sync(10.0)
        assert self.ctl.zone.phi == 1.0
        # move them out of mutual range, same zone
        self.nodes[1].position = (5.0, 5.0)
        self.nodes[2].position = (95.0, 95.0)
        assign_zones(self.nodes, self.zones)
        self.sync(20.0)
        assert self.ctl.zone.phi == 1.0

    def test_broadcast_charges_live_members_at_min_level(self):
        charges = self.sync(10.0)
        assert charges == [(1, 5.0), (2, 5.0)]

    def test_empty_zone_free_and_zero_reward(self):
        ctl = ZoneController(self.zones[4], {})
        charges = self.sync(10.0, ctl)
        assert charges == []
        assert ctl.zone.reward_ri == 0.0

    def test_ri_recomputed_every_sync(self):
        self.rewards[1].apply_action(15.0, 10.0)
        self.sync(10.0)
        assert self.ctl.zone.reward_ri == 5.0
        # reward accrued with no attempt completed and the same members
        self.rewards[1].apply_action(15.0, 10.0)
        self.sync(20.0)
        assert self.ctl.zone.reward_ri == 10.0

    def test_membership_change_forces_recompute(self):
        self.sync(10.0)
        self.nodes[2].position = (150.0, 50.0)
        assign_zones(self.nodes, self.zones)
        self.rewards[1].apply_action(15.0, 5.0)
        self.sync(20.0)
        assert self.ctl.zone.reward_ri == 10.0


class TestSessionRewards:
    def test_report_uses_zone_waste(self):
        zones = make_zones(300.0, 200.0, 6)
        ctl = ZoneController(zones[0], {})
        assert ctl.record_session_reward(1) == 1.0
        ctl.zone.ew = 1.0
        ctl.zone.et = 1.0
        assert ctl.record_session_reward(2) == pytest.approx(0.6065, abs=1e-4)
        assert set(ctl.session_rewards) == {1, 2}

    def test_reporter_prefers_source(self):
        zones = make_zones(300.0, 200.0, 6)
        nodes = {
            1: node(1, (50.0, 50.0)),
            2: node(2, (10.0, 10.0), is_peripheral=True),
            3: node(3, (20.0, 10.0), is_peripheral=True),
        }
        assign_zones(nodes, zones)
        assert session_reporter(1, zones[0], nodes) == 1

    def test_reporter_falls_back_to_lowest_peripheral(self):
        zones = make_zones(300.0, 200.0, 6)
        nodes = {
            1: node(1, (150.0, 50.0)),  # source moved to zone 1
            2: node(2, (10.0, 10.0), is_peripheral=True),
            3: node(3, (20.0, 10.0), is_peripheral=True),
        }
        assign_zones(nodes, zones)
        assert session_reporter(1, zones[0], nodes) == 2

    def test_reporter_none_when_no_peripherals(self):
        zones = make_zones(300.0, 200.0, 6)
        nodes = {1: node(1, (150.0, 50.0))}
        assign_zones(nodes, zones)
        assert session_reporter(1, zones[0], nodes) is None


class TestNetworkController:
    def test_collect_sums_zone_rewards(self):
        zones = make_zones(300.0, 200.0, 6)
        zones[0].reward_ri = 3.5
        zones[1].reward_ri = -1.0
        net = NetworkController(t_net=20.0)
        assert net.collect(0.0, zones) == 2.5

    def test_cached_between_collections(self):
        zones = make_zones(300.0, 200.0, 6)
        zones[0].reward_ri = 3.5
        net = NetworkController(t_net=20.0)
        assert net.collect(0.0, zones) == 3.5
        zones[0].reward_ri = 100.0
        assert net.collect(10.0, zones) == 3.5
        assert net.collect(20.0, zones) == 100.0

import copy
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from bless_golden import GOLDEN_TRACES, golden_path, trace
from fuzz import FUZZ_DRAWS, WIDE_FUZZ_DRAWS, random_configs, wide_random_configs
from oracles import (
    LedgerSpy,
    circle_contains,
    oracle_energy_totals,
    oracle_mobility_tick,
    oracle_packet_metrics,
    oracle_route,
    oracle_route_links,
    oracle_shortest_path,
    oracle_world_draws,
)

import rltrc
from rltrc import policy
from rltrc.config import VALID_MOBILITY
from rltrc.control import BroadcastCircle, NodeTrack, assign_zones
from rltrc.engine import (
    MobilityState,
    QueuedPacket,
    Session,
    Simulator,
    _reflect,
    mobility_step,
)
from rltrc.linkcache import CommCacheEntry
from rltrc.metrics import AttemptRow, PacketStat, invariant_problems, render_csv
from rltrc.model import NodeState
from rltrc.policy import BASELINE_KINDS, compute_sigma
from rltrc.rewards import NodeRewardState, avg_hop_count, broadcast_cost, successor_reward_ack
from rltrc.scenarios import names, scenario


def make_node(nid=0, pos=(0.0, 0.0), vmax=1.0):
    return NodeState(
        id=nid,
        position=pos,
        max_velocity=vmax,
        residual_energy=10.0,
        power_levels=(5.0, 25.0),
        radio_range=35.0,
    )


class TestMobility:
    def test_waypoint_step_moves_along_the_line(self):
        node = make_node(pos=(0.0, 0.0))
        state = MobilityState(waypoint=(3.0, 4.0), speed=1.0)
        mobility_step([node], [state], "random-waypoint", 1.0, 5.0,
                      random.Random(0), (10.0, 10.0), 2.0, 0.5)
        assert node.position[0] == pytest.approx(0.6)
        assert node.position[1] == pytest.approx(0.8)

    def test_overshoot_stops_on_target(self):
        node = make_node(pos=(0.0, 0.0))
        state = MobilityState(waypoint=(1.0, 0.0), speed=5.0)
        mobility_step([node], [state], "random-waypoint", 1.0, 5.0,
                      random.Random(0), (10.0, 10.0), 2.0, 0.5)
        assert node.position == (1.0, 0.0)
        # arriving starts a pause, and the next leg redraws the speed
        assert state.speed == 0.0 and 5.0 <= state.pause_until <= 7.0

    def test_pause_freezes_the_node(self):
        node = make_node(pos=(2.0, 2.0))
        state = MobilityState(waypoint=(9.0, 9.0), speed=1.0, pause_until=7.0)
        mobility_step([node], [state], "random-waypoint", 1.0, 5.0,
                      random.Random(0), (10.0, 10.0), 2.0, 0.5)
        assert node.position == (2.0, 2.0)

    def test_static_node_never_moves(self):
        """`run()` hands the mobility step only nodes with a positive top
        speed, so peripherals and a mobile node with none stay put."""
        sim = Simulator(scenario("desk-compare", duration=20.0), seed=1)
        sim.nodes[-1].max_velocity = 0.0
        static = [n for n in sim.nodes if n.max_velocity <= 0.0]
        before = [n.position for n in static]
        sim.run()
        assert len(static) > 1 and [n.position for n in static] == before
        assert all(n.max_velocity > 0.0 for n in sim._movers[0])

    def test_reflect_folds_into_range(self):
        assert _reflect(-3.0, 0.0, 10.0) == 3.0
        assert _reflect(12.0, 0.0, 10.0) == 8.0
        assert _reflect(23.0, 0.0, 10.0) == 3.0
        assert _reflect(7.0, 0.0, 10.0) == 7.0

    def test_walk_and_gaussian_respect_arena_and_speed(self):
        rng = random.Random(9)
        for model in ("random-walk", "gaussian"):
            node = make_node(pos=(5.0, 5.0), vmax=3.0)
            state = MobilityState()
            prev = node.position
            for t in range(200):
                mobility_step([node], [state], model, 0.5, 0.5 * t,
                              rng, (10.0, 10.0), 2.0, 0.5)
                x, y = node.position
                assert 0.0 <= x <= 10.0 and 0.0 <= y <= 10.0
                step = math.dist(prev, node.position)
                assert step <= 3.0 * 0.5 + 1e-9
                prev = node.position

    @pytest.mark.parametrize("model", VALID_MOBILITY)
    def test_population_step_matches_the_per_node_oracle(self, model):
        """50 ticks of desk-compare's mobile nodes, dead ones included (one
        more dies halfway): the one-call step leaves every position, motion
        state and the generator as the per-node loop does."""
        sim = Simulator(scenario("desk-compare", mobility=model, gaussian_accel=2.0))
        cfg = sim.cfg
        movers = [n for n in sim.nodes if not n.is_peripheral]
        for n in movers[::5]:
            n.residual_energy = 0.0
        states = [MobilityState() for _ in movers]
        want_nodes, want_states = copy.deepcopy((movers, states))
        want_rng = random.Random()
        want_rng.setstate(sim.rng.getstate())
        args = (cfg.mobility_dt, (cfg.arena_width, cfg.arena_height), cfg.pause_max,
                cfg.gaussian_accel)
        moved = 0
        for tick in range(1, 51):
            if tick == 25:
                movers[-1].residual_energy = want_nodes[-1].residual_energy = 0.0
            t = tick * cfg.mobility_dt
            before = [n.position for n in movers]
            mobility_step(movers, states, model, cfg.mobility_dt, t, sim.rng, *args[1:])
            oracle_mobility_tick(want_nodes, want_states, model, cfg.mobility_dt, t, want_rng,
                                 *args[1:])
            assert [n.position for n in movers] == [n.position for n in want_nodes]
            assert states == want_states
            assert sim.rng.getstate() == want_rng.getstate()
            moved += sum(a != b for a, b in zip(before, (n.position for n in movers)))
            assert all(movers[i].position == before[i] for i, n in enumerate(movers)
                       if not n.alive)
        assert moved > 0

    def test_waypoint_speed_resamples_within_band(self):
        node = make_node(pos=(0.0, 0.0), vmax=2.0)
        state = MobilityState(waypoint=(0.0, 0.0), speed=0.0)
        rng = random.Random(4)
        seen = []
        for t in range(300):
            mobility_step([node], [state], "random-waypoint", 0.5, 0.5 * t,
                          rng, (50.0, 50.0), 0.0, 0.5)
            if state.speed > 0.0:
                seen.append(state.speed)
        assert seen
        assert all(0.05 * 2.0 <= s <= 2.0 for s in seen)


def discovery_sim(nodes, positions, **overrides):
    """Simulator with hand-placed static nodes for route discovery tests."""
    cfg = scenario(
        "lossless-pair",
        nodes=nodes,
        sessions=1,
        arena_width=120.0,
        arena_height=30.0,
        duration=0.0,
        **overrides,
    )
    sim = Simulator(cfg)
    for nid, pos in enumerate(positions):
        sim.nodes[nid].position = pos
        sim.nodes[nid].radio_range = 35.0
    return sim


class TestRouting:
    """Route choice of `_discover_route` on hand-placed layouts, with 35 m
    of radio range and no route margin."""

    def test_line_graph(self):
        sim = discovery_sim(3, [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0)])
        assert sim._discover_route(0, 2, [0, 1, 2]) == (0, 1, 2)
        assert sim._discover_route(2, 0, [0, 1, 2]) == (2, 1, 0)

    def test_complete_graph_is_one_hop(self):
        sim = discovery_sim(4, [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)])
        assert sim._discover_route(1, 3, [0, 1, 2, 3]) == (1, 3)

    def test_disconnected_returns_none(self):
        sim = discovery_sim(4, [(0.0, 0.0), (20.0, 0.0), (80.0, 0.0), (100.0, 0.0)])
        assert sim._discover_route(0, 1, [0, 1, 2, 3]) == (0, 1)
        assert sim._discover_route(0, 3, [0, 1, 2, 3]) is None

    def test_matches_exhaustive_oracle(self):
        """60 seeded layouts of 2-9 nodes with radio ranges of 15-40 m, so
        some links run one way only: the route is the one the brute-force
        oracle finds over the links an all-pairs scan sees."""
        rng = random.Random(21)
        shapes = {"none": 0, "one hop": 0, "multi-hop": 0}
        for _ in range(60):
            n = rng.randint(2, 9)
            sim = discovery_sim(n, [(rng.uniform(0.0, 120.0), rng.uniform(0.0, 30.0))
                                    for _ in range(n)])
            for node in sim.nodes:
                node.radio_range = rng.uniform(15.0, 40.0)
            scope = list(range(n))
            adjacency, _ = oracle_route_links(sim.nodes, scope, sim.cfg.route_margin,
                                              sim.cfg.min_rcv, sim.channel.alpha,
                                              [rt.links for rt in sim.runtime])
            want = oracle_shortest_path({u: set(vs) for u, vs in adjacency.items()}, 0, n - 1)
            got = sim._discover_route(0, n - 1, scope)
            if want is None:
                assert got is None
                shapes["none"] += 1
            else:
                assert list(got) == want
                shapes["one hop" if len(want) == 2 else "multi-hop"] += 1
        assert min(shapes.values()) >= 5, shapes

    def test_oracle_route_matches_exhaustive_oracle(self):
        """The full-search route oracle the discovery tests compare with
        agrees with path enumeration on random undirected graphs."""
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(2, 9)
            adj = {i: set() for i in range(n)}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        adj[i].add(j)
                        adj[j].add(i)
            got = oracle_route({k: sorted(v) for k, v in adj.items()}, 0, n - 1)
            want = oracle_shortest_path(adj, 0, n - 1)
            if want is None:
                assert got is None
            else:
                assert list(got) == want


class TestDiscovery:
    def test_chain_route_found(self):
        sim = discovery_sim(4, [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0)])
        assert sim._discover_route(0, 3, [0, 1, 2, 3]) == (0, 1, 2, 3)

    def test_route_margin_shrinks_link_acceptance(self):
        sim = discovery_sim(
            4,
            [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0)],
            route_margin=18.0,
        )
        # reach drops to 17 m, every 20 m hop becomes ineligible
        assert sim._discover_route(0, 3, [0, 1, 2, 3]) is None

    def test_unreliable_link_avoided_when_detour_exists(self):
        sim = discovery_sim(
            5,
            [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0), (20.0, 15.0)],
        )
        sim.runtime[0].links[1] = CommCacheEntry(sig_atn=0.14, reliable=False)
        route = sim._discover_route(0, 3, [0, 1, 2, 3, 4])
        assert route == (0, 4, 2, 3)

    def test_unreliable_link_used_as_last_resort(self):
        sim = discovery_sim(4, [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0)])
        sim.runtime[0].links[1] = CommCacheEntry(sig_atn=0.14, reliable=False)
        assert sim._discover_route(0, 3, [0, 1, 2, 3]) == (0, 1, 2, 3)

    def test_dead_nodes_excluded(self):
        sim = discovery_sim(4, [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0)])
        sim.nodes[1].residual_energy = 0.0
        assert sim._discover_route(0, 3, [0, 1, 2, 3]) is None

    def test_corridor_covers_src_through_circle(self):
        sim = discovery_sim(4, [(10.0, 0.0), (20.0, 0.0), (40.0, 0.0), (110.0, 0.0)])
        circle = BroadcastCircle(center=(110.0, 0.0), radius=4.0, spans_zones=(2,))
        assert sim._corridor_zones(0, circle) == (0, 1, 2)
        near = BroadcastCircle(center=(10.0, 5.0), radius=4.0, spans_zones=(0,))
        assert sim._corridor_zones(0, near) == (0,)

    @pytest.mark.parametrize("zones, src_zone, spans, want", [
        (6, 3, (2,), (0, 1, 2, 3, 4, 5)),
        (6, 0, (4,), (0, 1, 3, 4)),
        (6, 5, (4,), (4, 5)),
        (9, 3, (2,), (0, 1, 2, 3, 4, 5)),
        (9, 4, (4,), (4,)),
        (9, 6, (2,), tuple(range(9))),
        (9, 7, (1,), (1, 4, 7)),
        (9, 0, (4, 5, 7, 8), (0, 1, 2, 3, 4, 5, 6, 7, 8)),
        (12, 5, (2, 3), (1, 2, 3, 5, 6, 7)),
    ])
    def test_corridor_is_grid_block_of_endpoint_zones(self, zones, src_zone, spans, want):
        sim = Simulator(scenario("desk-converge", zones=zones, duration=0.0))
        src = next(n.id for n in sim.nodes if n.zone_id == src_zone)
        z = sim.zones[spans[0]]
        circle = BroadcastCircle(center=(z.x0, z.y0), radius=1.0, spans_zones=spans)
        assert sim._corridor_zones(src, circle) == want

    def test_flood_scope_unions_corridor_and_circle(self):
        sim = discovery_sim(4, [(10.0, 0.0), (20.0, 0.0), (50.0, 0.0), (110.0, 0.0)])
        assign_zones(sim.nodes, sim.zones)
        circle = BroadcastCircle(center=(110.0, 0.0), radius=5.0, spans_zones=(2,))
        # corridor limited to zone 0: zone-members 0,1 plus node 3 via the circle
        scope = sim._flood_scope(circle, (0,), [0, 1, 2, 3])
        assert scope == [0, 1, 3]
        # centred off the x-axis, where y - cy and y + cy differ
        sim.nodes[3].position = (110.0, 20.0)
        assign_zones(sim.nodes, sim.zones)
        circle = BroadcastCircle(center=(110.0, 20.0), radius=5.0, spans_zones=(2,))
        assert sim._flood_scope(circle, (0,), [0, 1, 2, 3]) == [0, 1, 3]

    def test_flood_scope_circle_is_closed(self):
        # a node on the rim is in the circle, as in the oracle's closed disc
        sim = discovery_sim(4, [(10.0, 0.0), (20.0, 0.0), (50.0, 0.0), (70.1, 0.0)])
        assign_zones(sim.nodes, sim.zones)
        circle = BroadcastCircle(center=(60.0, 0.0), radius=10.0, spans_zones=(1,))
        assert sim._flood_scope(circle, (0,), [0, 1, 2, 3]) == [0, 1, 2]
        assert [circle_contains(circle, sim.nodes[n].position) for n in (2, 3)] == [True, False]

    def test_flood_cost_branches_at_least_once(self):
        # members that see 0.5 neighbours on average still flood with
        # branching factor 1; broadcast_cost assumes at least that
        sim = discovery_sim(4, [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0)])
        zone = sim.zones[0]
        zone.phi = 0.5
        h = avg_hop_count(zone.theta, zone.phi, zone.av_rad)
        assert sim._flood_cost(zone) == broadcast_cost(1.0, h, sim.cfg.broadcast_cost_cap)


def route_request_sim(positions, src, dst, **overrides):
    """discovery_sim with zones assigned, every node's track registered as
    the t = 0 sync files it, and session 0 from src to dst live, as its
    start leaves it."""
    sim = discovery_sim(len(positions), positions, **overrides)
    assign_zones(sim.nodes, sim.zones)
    for n in sim.nodes:
        sim.registry[n.id] = NodeTrack(n.position, sim.t, n.max_velocity)
    sn = sim.sessions[0]
    sn.src, sn.dst = src, dst
    sn.live = True
    return sim, sn


def queued_handlers(sim):
    return [handler for _, _, handler, _ in sim._events]


class TestRouteRequest:
    @pytest.mark.parametrize("via", ["session-start", "link-breakage"])
    def test_dead_source_fails_the_session_unflooded(self, via):
        sim, sn = route_request_sim([(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0)], 0, 3)
        sim.nodes[0].residual_energy = 0.0
        spy = LedgerSpy(sim.ledger)
        if via == "session-start":
            sim._on_session_start(sn.id)
        else:
            sim._on_link_breakage(sn.id, 1.0, 0.5, 7.0, 0.25)
        assert not sn.live and not sn.discovering
        assert (spy.debit_calls, spy.invest_calls, spy.waste_calls) == ([], [], [])
        assert sim._on_route_reply not in queued_handlers(sim)

    def test_source_killed_by_its_own_flood_gets_no_route(self):
        sim, sn = route_request_sim([(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0)], 0, 3)
        sim.nodes[0].residual_energy = 1e-6
        spy = LedgerSpy(sim.ledger)
        sim._request_route(sn, waste=None)
        assert (0, "flood") in [(r[0], r[1]) for r in spy.debit_calls]
        assert not sim.nodes[0].alive
        assert not sn.live
        assert sim._on_route_reply not in queued_handlers(sim)

    def test_circle_miss_falls_back_when_its_flood_killed_scope_nodes(self):
        # six 40 x 15 m zones; the circle and the corridor are zone 0, which
        # holds the source, the destination and relay 1. The circle flood
        # drains relay 1, so only relay 2, up in zone 3, can carry the route.
        positions = [(2.0, 5.0), (20.0, 5.0), (20.0, 20.0), (38.0, 5.0)]
        sim, sn = route_request_sim(positions, 0, 3, zones=6)
        sim.nodes[1].residual_energy = 1e-6
        assert [n.zone_id for n in sim.nodes] == [0, 0, 3, 0]
        sim._request_route(sn, waste=None)
        assert not sim.nodes[1].alive
        assert sn.live
        assert [(h, a) for _, _, h, a in sim._events] == [(sim._on_route_reply, (0, (0, 2, 3)))]


class FirstSessionStart(Exception):
    pass


@pytest.mark.parametrize("golden", sorted(GOLDEN_TRACES))
def test_registry_holds_every_node_when_the_first_session_starts(golden, monkeypatch):
    """The t = 0 sync, the run's first event, files every node's track
    before any session starts, so no route request asks the destination
    lookup for a node the registry lacks."""
    seen = []

    def first_start(sim, sid):
        seen.append(sorted(sim.registry))
        raise FirstSessionStart

    monkeypatch.setattr(Simulator, "_on_session_start", first_start)
    name, overrides = GOLDEN_TRACES[golden]
    sim = Simulator(scenario(name, seed=1, **overrides))
    with pytest.raises(FirstSessionStart):
        sim.run()
    assert seen == [list(range(len(sim.nodes)))]


class TestMessageCharge:
    def world(self):
        """Five nodes at top level 25: node 1 holds exactly one relay's
        cost, node 2 half of it, node 3 is already dead."""
        sim = discovery_sim(5, [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0), (80.0, 0.0)])
        cost = sim.nodes[1].power_levels[-1] * sim.cfg.airtime
        sim.nodes[1].residual_energy = cost
        sim.nodes[2].residual_energy = 0.5 * sim.nodes[2].power_levels[-1] * sim.cfg.airtime
        sim.nodes[3].residual_energy = 0.0
        sim.t = 4.5
        return sim

    def test_batched_flood_charge_matches_per_node_debits(self):
        batched, single = self.world(), self.world()
        spy_batched, spy_single = LedgerSpy(batched.ledger), LedgerSpy(single.ledger)
        scope = [0, 1, 2, 3, 4]
        batched._charge_flood(scope)
        for nid in scope:
            node = single.nodes[nid]
            if node.alive:
                single._debit(nid, node.power_levels[-1] * single.cfg.airtime, "flood", message=True)
        assert spy_batched.debit_calls == spy_single.debit_calls
        assert ([n.residual_energy for n in batched.nodes]
                == [n.residual_energy for n in single.nodes])
        assert batched.ledger.message_count == single.ledger.message_count
        assert batched.ledger.energy_by_node() == single.ledger.energy_by_node()
        # the dead node books no row; the drained and the partial payer each
        # book one, but only full payments count a message
        assert [(r[0], r[1]) for r in spy_batched.debit_calls] == [
            (nid, "flood") for nid in (0, 1, 2, 4)]
        assert batched.ledger.debit_count == 4
        assert batched.nodes[1].residual_energy == 0.0 == batched.nodes[2].residual_energy
        assert batched.ledger.message_count == 3

    def test_nothing_paid_writes_nothing(self):
        sim = self.world()
        spy = LedgerSpy(sim.ledger)
        sim._charge_flood([3])
        sim._charge_messages([], "zone-state")
        assert spy.debit_calls == [] and sim.ledger.message_count == 0


class TestRouteReply:
    def test_reply_withdraws_stranded_packets_and_resumes_the_path(self):
        """Holders off the new path drop the session's packets as
        route-invalidated but keep the one on the air; holders on it, and
        every holder still queuing, try to send again, in id order."""
        positions = [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0), (20.0, 15.0)]
        sim, sn = route_request_sim(positions, 0, 3)
        sn.discovering = True
        sim.sessions.append(Session(1, 0, 3, live=True))
        held = {0: [(1, 0)], 1: [(2, 0), (3, 1)], 4: [(4, 0), (5, 0), (6, 1)]}
        for nid, packets in held.items():
            for pid, sid in packets:
                sim.ledger.packets.live[pid] = PacketStat(generated_at=0.0)
                sim.runtime[nid].queue.append(QueuedPacket(pid=pid, session=sid))
                sim.sessions[sid].holders.add(nid)
        sn.holders.add(2)  # a holder whose packets have all left
        sim.runtime[4].inflight = AttemptRow(0.0, 4, 0, 4, 2, 5.0, "pending")
        sim._on_route_reply(sn.id, (0, 1, 2, 3))
        packets = sim.ledger.packets
        live = {pid: (stat.status, stat.holds) for pid, stat in packets.live.items()}
        assert live == {pid: ("pending", 1) for pid in (1, 2, 3, 4, 6)}
        assert [q.pid for q in sim.runtime[4].queue] == [4, 6]
        # the dropped entry was pid 5's one hold, so its record retired in
        # the status it was dropped with
        assert packets.settled == {"dropped-route-invalidated": 1}
        assert [(h, a) for _, _, h, a in sim._events] == [
            (sim._on_send_attempt, (nid,)) for nid in (0, 1, 4)]
        assert sn.holders == {0, 1, 4}
        assert sn.next_hop == {0: 1, 1: 2, 2: 3}

    def test_reply_makes_a_link_cache_only_for_a_hop_that_has_none(self, monkeypatch):
        """A hop that has a cache keeps it, with its PRR counters, its
        attenuation and a baseline's last level, and starts a new episode
        on it. A hop without one gets one cache, at the prior attenuation
        and the sender's top level."""
        sim, sn = route_request_sim([(0.0, 0.0), (20.0, 0.0), (40.0, 0.0)], 0, 2)
        sn.discovering = True
        low = sim.nodes[0].power_levels[0]
        old = sim.runtime[0].links[1] = CommCacheEntry(
            sig_atn=0.3, packets_tx=4, packets_rx=3, approx_velocity=2.0,
            expected_timestamp_end=9.0, level=low)
        made = []

        def counted(**kwargs):
            made.append(kwargs)
            return CommCacheEntry(**kwargs)

        monkeypatch.setattr(rltrc.engine, "CommCacheEntry", counted)
        sim._on_route_reply(sn.id, (0, 1, 2))
        assert sim.runtime[0].links[1] is old
        assert (old.sig_atn, old.packets_tx, old.packets_rx, old.level) == (0.3, 4, 3, low)
        assert (old.approx_velocity, old.expected_timestamp_end) == (0.0, math.inf)
        top = sim.nodes[1].power_levels[-1]
        assert made == [{"sig_atn": sim.cfg.prior_sig_atn, "level": top}]
        assert sim.runtime[1].links[2] == CommCacheEntry(sig_atn=sim.cfg.prior_sig_atn, level=top)
        assert low < sim.nodes[0].power_levels[-1]

    def test_holders_cover_every_queued_packet(self):
        """After every event of desk-converge at seed 1, each node that
        queues a packet of a session is among that session's holders."""
        sim = Simulator(scenario("desk-converge"), seed=1)
        sessions, runtime = sim.sessions, sim.runtime
        push = sim._push
        checked, pruned, pushed = [], [], []

        def check(handler, *args):
            handler(*args)
            for nid, rt in enumerate(runtime):
                for q in rt.queue:
                    assert nid in sessions[q.session].holders, (handler.__name__, nid, q)
            checked.append(handler)

        def checked_push(t, handler, *args):
            pushed.append(handler)
            push(t, check, handler, *args)

        reply = sim._on_route_reply

        def counted_reply(sid, route):
            before = set(sessions[sid].holders)
            reply(sid, route)
            pruned.append(before - sessions[sid].holders)

        sim._push = checked_push
        sim._on_route_reply = counted_reply
        report = sim.run()
        assert invariant_problems(sim.ledger, report) == []
        # every dispatched event went through `_push`, and so was checked
        assert len(checked) == len(pushed) - len(sim._events)
        assert all(entry[2] is check for entry in sim._events)
        assert len(checked) > 10_000
        assert any(pruned)  # holders that had sent everything on were dropped


# (canned scenario, seed, overrides): every policy, every mobility model,
# noise, batteries that run flat, a 6-zone grid and nearly still nodes; at
# these seeds both flat-battery runs send to a dead receiver and to one that
# cannot pay rx
CARRIED_CONFIGS = [
    ("lossless-pair", 1, {}),
    ("desk-conserve", 2, {}),
    ("desk-compare", 3, {}),
    ("desk-compare", 4, {"policy": "fixed-max"}),
    ("desk-compare", 5, {"policy": "odtpc-like"}),
    ("desk-compare", 6, {"policy": "beacon-rssi-like"}),
    ("desk-compare", 7, {"policy": "beacon-prr-like"}),
    ("desk-compare", 8, {"mobility": "random-walk"}),
    ("desk-compare", 9, {"mobility": "gaussian"}),
    ("desk-compare", 10, {"noise_spread": 0.1}),
    ("desk-compare", 14, {"energy_min": 0.3, "energy_max": 1.0}),
    ("desk-compare", 4, {"energy_min": 0.5, "energy_max": 2.0, "policy": "fixed-max",
                         "mobility": "gaussian", "noise_spread": 0.2}),
    ("desk-compare", 13, {"vmax_min": 0.0, "vmax_max": 0.3, "sessions": 12}),
    ("desk-converge", 14, {"duration": 100.0, "zones": 6}),
]


@pytest.mark.parametrize("name, seed, overrides", CARRIED_CONFIGS)
def test_carried_records_are_exactly_the_held_pids(name, seed, overrides):
    """After every event, `ledger.packets.live` has a record for exactly the
    pids the network carries, those that some node queues or that an
    arrival event still carries, and each record's hold count is that pid's
    queue entries plus its pending arrivals, counted here from scratch. A
    pid queued away from its source has reached the node that queues it,
    and no node queues a pid twice."""
    sim = Simulator(scenario(name, **overrides), seed=seed)
    runtime, sessions, packets = sim.runtime, sim.sessions, sim.ledger.packets
    arrival = Simulator._on_packet_arrival
    push, debit = sim._push, sim._debit
    checked, dead, unpaid, pushed = [], [], [], []

    def held():
        """Each held pid's holds, from the queues and the heap."""
        holds = Counter(q.pid for rt in runtime for q in rt.queue)
        holds.update(args[1].pid for _, _, _, args in sim._events
                     if args[0].__func__ is arrival)
        return holds

    def check(handler, *args):
        if handler.__func__ is arrival and not sim.nodes[args[0].successor].alive:
            dead.append(args[0])
        handler(*args)
        live = packets.live
        assert {pid: stat.holds for pid, stat in live.items()} == held(), handler.__name__
        for nid, rt in enumerate(runtime):
            assert len({q.pid for q in rt.queue}) == len(rt.queue)
            for q in rt.queue:
                assert nid == sessions[q.session].src or nid in live[q.pid].reached
        checked.append(handler)

    def checked_push(t, handler, *args):
        pushed.append(handler)
        push(t, check, handler, *args)

    def counted_debit(node, joules, kind, message):
        paid = debit(node, joules, kind, message)
        if kind == "rx" and not paid:
            unpaid.append(node)
        return paid

    sim._push, sim._debit = checked_push, counted_debit
    report = sim.run()
    assert invariant_problems(sim.ledger, report) == []
    assert len(checked) == len(pushed) - len(sim._events) > 100
    assert all(entry[2] is check for entry in sim._events)
    assert set(packets.live) == set(held())
    flat = sim.cfg.energy_max <= 2.0
    assert bool(dead) == bool(unpaid) == flat


def rejection_gap(rng, lo, hi):
    """Bounded Poisson gap by redrawing `expovariate` until it is in band."""
    mean = (lo + hi) / 2.0
    for _ in range(1000):
        g = rng.expovariate(1.0 / mean)
        if lo <= g <= hi:
            return g
    return mean


class ScriptedRandom(random.Random):
    """A generator whose `random()` returns the given draws in order."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


class TestInterArrival:
    @pytest.mark.parametrize("lo, hi", [(1.15, 1.3), (0.05, 0.2), (1.2, 1.2)])
    def test_same_gaps_and_generator_state_as_rejection_loop(self, lo, hi):
        # (1.2, 1.2) is a band no draw hits, so every gap is the mean
        sim = Simulator(scenario("desk-compare", inter_arrival_min=lo, inter_arrival_max=hi))
        for seed in range(200):
            sim.rng = random.Random(seed)
            want_rng = random.Random(seed)
            for _ in range(3):
                assert sim._inter_arrival() == rejection_gap(want_rng, lo, hi)
                assert sim.rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("lo, hi", [(1.15, 1.3), (0.05, 0.2)])
    def test_band_edges_decided_as_by_expovariate(self, lo, hi):
        # draws a few steps of random()'s 2**-53 grid either side of the u
        # at each band edge: accepted or redrawn exactly as the old loop does
        sim = Simulator(scenario("desk-compare", inter_arrival_min=lo, inter_arrival_max=hi))
        lambd = 1.0 / ((lo + hi) / 2.0)
        inside = 1.0 - math.exp(-1.0)  # the u whose gap is the mean
        outcomes = set()
        for edge in (lo, hi):
            step = round((1.0 - math.exp(-edge * lambd)) * 2**53)
            for k in range(-40, 41):
                sim.rng = ScriptedRandom([(step + k) / 2**53, inside])
                want_rng = ScriptedRandom([(step + k) / 2**53, inside])
                got = sim._inter_arrival()
                assert got == rejection_gap(want_rng, lo, hi)
                assert sim.rng.draws == want_rng.draws
                outcomes.add(len(want_rng.draws))
        assert outcomes == {0, 1}  # both sides of an edge were drawn

    def test_inline_formula_is_expovariate(self):
        # the gap formula is copied from Random.expovariate; pin that it
        # still is on the running Python
        for seed in range(200):
            for lambd in (1.0 / 1.225, 1.0 / 0.125, 1.0 / 1.2, 3.5):
                u = random.Random(seed).random()
                assert random.Random(seed).expovariate(lambd) == -math.log(1.0 - u) / lambd

    def test_inline_world_draws_are_uniform_and_randint(self):
        # _build_world draws uniform and randint inline; pin that they still
        # are those calls on the running Python, generator state included
        cfgs = [scenario(name) for name in names()]
        spans = {(lo, hi) for c in cfgs for lo, hi in (
            (c.vmax_min, c.vmax_max), (c.energy_min, c.energy_max),
            (c.radio_range_min, c.radio_range_max))}
        sides = {side for c in cfgs for side in (c.arena_width, c.arena_height)}
        counts = {(c.level_count_min, c.level_count_max) for c in cfgs} | {(1, 1), (90, 100)}
        for seed in range(200):
            for a, b in spans:
                assert a + (b - a) * random.Random(seed).random() == random.Random(seed).uniform(a, b)
            for side in sides:
                assert side * random.Random(seed).random() == random.Random(seed).uniform(0.0, side)
            for k0, k1 in counts:
                r, want = random.Random(seed), random.Random(seed)
                assert r.randrange(k0, k1 + 1) == want.randint(k0, k1)
                assert r.getstate() == want.getstate()


def test_sigma_per_tick_equals_sigma_recomputed_at_each_decision(monkeypatch):
    sim = Simulator(scenario("desk-converge"))
    senders = []
    # handlers are bound when pushed, so this sees every send attempt
    send_attempt = sim._on_send_attempt

    def tracked(node):
        senders.append(node)
        return send_attempt(node)

    select = policy.select_power_level
    used = []

    def checked(available, sigma, reliable, rng):
        zone = sim.zones[sim.nodes[senders[-1]].zone_id]
        used.append((sigma, compute_sigma(zone.reward_ri, sim.network.cached)))
        return select(available, sigma, reliable, rng)

    sim._on_send_attempt = tracked
    monkeypatch.setattr(policy, "select_power_level", checked)
    sim.run()
    assert len(used) > 1000
    assert len({want for _, want in used}) > 1
    assert all(got == want for got, want in used)


def test_default_flood_cost_cap_saturates_every_desk_flood(monkeypatch):
    """At its config default of 1e12, `broadcast_cost_cap` caps the cost of
    every flood of a desk zone, so AWE from a config that leaves the cap at
    its default measures nothing. Pinned as it is, not changed."""
    name, overrides = GOLDEN_TRACES["desk-converge-uncapped"]
    cfg = scenario(name, duration=30.0, **overrides)
    assert cfg.broadcast_cost_cap == 1e12
    costs = []

    def recorded(ng, h_avg, cap):
        costs.append(broadcast_cost(ng, h_avg, cap))
        return costs[-1]

    monkeypatch.setattr(rltrc.engine, "broadcast_cost", recorded)
    Simulator(cfg, seed=1).run()
    assert len(costs) > 10 and set(costs) == {cfg.broadcast_cost_cap}


@pytest.mark.parametrize("golden", ["desk-compare", "desk-converge"]
                         + ["desk-compare-" + kind for kind in BASELINE_KINDS])
def test_successor_grade_after_every_ack_reads_the_link_cache(golden):
    """After each acknowledged hop the sender's grade of its successor is
    `successor_reward_ack` of the link cache just updated, with the inputs
    worked out here from the cache's counters: the reception rate rx/tx and
    the ratio of the average RSS to the average transmit level. A baseline
    differs from rl-trc only in its level decision, so it grades the same."""
    name, overrides = GOLDEN_TRACES[golden]
    sim = Simulator(scenario(name, **overrides), seed=1)
    ack_arrival = sim._on_ack_arrival
    checked = []

    def checked_ack(row, rss):
        acked = sim.runtime[row.node].inflight is row
        ack_arrival(row, rss)
        if acked:
            entry = sim.runtime[row.node].links[row.successor]
            n = entry.packets_rx
            prr = n / entry.packets_tx
            rss_over_tpl = (entry.sum_rss / n) / (entry.sum_tpl / n)
            want = successor_reward_ack(prr, rss_over_tpl, entry.recent_trend)
            assert sim.reward_states[row.node].successor_rewards[row.successor] == want
            checked.append(row)

    sim._on_ack_arrival = checked_ack
    sim.run()
    assert len(checked) == sim.ledger.outcome_counts()["ack"] > 500


def test_no_baseline_reads_a_reward(monkeypatch):
    """With the reward bookkeeping made a no-op, every baseline's digests
    on desk-compare seed 1 stay the blessed ones, while rl-trc's move: the
    rewards every policy books feed only rl-trc's sigma."""
    for method in ("apply_action", "apply_ack", "apply_noack"):
        monkeypatch.setattr(NodeRewardState, method, lambda self, *args: None)

    def digests(golden):
        name, overrides = GOLDEN_TRACES[golden]
        got, _ = trace(name, seed=1, **overrides)
        want = json.loads(golden_path(golden).read_text(encoding="utf-8"))
        return [(got[key], want[key]) for key in ("summary_sha256", "series_sha256")]

    for kind in BASELINE_KINDS:
        assert all(got == want for got, want in digests("desk-compare-" + kind)), kind
    assert all(got != want for got, want in digests("desk-compare"))


class TestAttemptRows:
    @pytest.mark.parametrize(
        "golden", ["lossless-pair", "desk-compare", "desk-converge", "desk-compare-low-energy"]
    )
    def test_lifecycle(self, golden):
        name, overrides = GOLDEN_TRACES[golden]
        cfg = scenario(name, **overrides)
        sim = Simulator(cfg, seed=1)
        rows = LedgerSpy(sim.ledger).attempt_rows
        report = sim.run()
        led = sim.ledger
        assert rows
        assert len(led.attempts) == len(rows)
        # among them: the packets' attempts add up to the attempts booked
        assert invariant_problems(led, report) == []
        assert led.outcome_counts() == Counter(row.outcome for row in rows)
        # a node queues a pid at most once and sends it at most mx_atmpt times
        sent = Counter((row.pid, row.node) for row in rows)
        assert max(sent.values()) <= cfg.mx_atmpt
        for row in rows:
            assert row.outcome in ("ack", "timeout", "blocked", "pending")
            assert (row.outcome == "blocked") == (row.action == 0.0)
            if row.outcome == "ack":
                assert row.action > 0.0
            if row.outcome == "pending":
                assert row.t + cfg.tau_a > cfg.duration

    def test_outcome_counts_follow_the_rows_after_every_event(self):
        """The log counts an attempt when it is booked and again when it
        settles, so after every handled event its counts equal those of the
        rows booked so far: each settled row under its outcome, and the
        rest as pending."""
        sim = Simulator(scenario("desk-converge"), seed=1)
        rows = LedgerSpy(sim.ledger).attempt_rows
        push, checked = sim._push, []
        settled, on_air, seen = Counter(), [], 0

        def check(handler, *args):
            nonlocal on_air, seen
            handler(*args)
            on_air += rows[seen:]
            seen = len(rows)
            settled.update(row.outcome for row in on_air if row.outcome != "pending")
            on_air = [row for row in on_air if row.outcome == "pending"]
            assert sim.ledger.outcome_counts() == settled + Counter(pending=len(on_air)), (
                handler.__name__, sim.t)
            checked.append(handler)

        def checked_push(t, handler, *args):
            push(t, check, handler, *args)

        sim._push = checked_push
        sim.run()
        assert len(checked) > 10_000
        assert sim.ledger.outcome_counts() == Counter(row.outcome for row in rows)
        assert len(rows) > 5000 and {"ack", "timeout"} <= settled.keys()

    def test_ack_after_timeout_is_ignored(self):
        sim = Simulator(scenario("lossless-pair"), seed=1)
        spy = LedgerSpy(sim.ledger)
        on_ack = sim._on_ack_arrival
        raced = []

        def timeout_first(row, rss):
            if raced:
                return on_ack(row, rss)
            sim._on_ack_timeout(row)
            assert row.outcome == "timeout"
            live = sim.ledger.packets.live
            before = copy.deepcopy((sim.runtime, sim.reward_states, spy.invest_calls,
                                    dict(live), sim.ledger.outcome_counts()))
            on_ack(row, rss)
            raced.append(row)
            assert row.outcome == "timeout"
            assert (sim.runtime, sim.reward_states, spy.invest_calls, dict(live),
                    sim.ledger.outcome_counts()) == before

        sim._on_ack_arrival = timeout_first
        sim.run()
        assert raced


@pytest.mark.parametrize("golden", sorted(GOLDEN_TRACES))
def test_retired_packets_answer_as_every_stat(golden):
    """The status counts and the report's NTG and ADL equal an oracle over
    every stat the run made, bit for bit, though most packets retired."""
    name, overrides = GOLDEN_TRACES[golden]
    sim = Simulator(scenario(name, seed=1, **overrides))
    stats = LedgerSpy(sim.ledger).packet_stats
    report = sim.run()
    book = sim.ledger.packets
    statuses, ntg, adl = oracle_packet_metrics(stats)
    assert sim.ledger.status_counts() == statuses
    assert (report.ntg, report.adl) == (ntg, adl)
    assert len(book) == len(stats) and book.settled.total() > len(book.live)


def hopeless_hop(reason, turn=1, holds=1):
    """A finished lossless-pair run with one packet queued again at the
    source, its link cache rigged so that rl-trc gives the hop up unsent.

    "displacement": the successor seems to have moved past twice the radio
    range since the last ack. "no-level": the successor seems to have moved
    a metre or two over a link attenuating 1e9 per metre, so no level of
    the sender clears the receive threshold. The packet carries an acked-hop
    investment of (7, 0.25) from earlier hops; `holds` counts its queue
    entry and any other hold on it, such as a copy on the air elsewhere.
    """
    sim = Simulator(scenario("lossless-pair"), seed=1)
    sim.run()
    sn = sim.sessions[0]
    entry = sim.runtime[sn.src].links[sn.dst]
    assert sn.next_hop == {sn.src: sn.dst} and len(entry.last_two) == 2
    if reason == "displacement":
        entry.approx_velocity = 1e9
    else:
        entry.approx_velocity, entry.sig_atn = 1.0, 1e9
    sim.t = sim.cfg.duration + 1.0
    sim._events.clear()
    rt = sim.runtime[sn.src]
    rt.inflight = None
    pid = next(sim._pids)
    sim.ledger.packets.live[pid] = PacketStat(generated_at=sim.t, holds=holds,
                                              inv_e=7.0, inv_t=0.25)
    rt.queue = [QueuedPacket(pid=pid, session=sn.id, turn=turn)]
    return sim, sn, pid


@pytest.mark.parametrize("reason", ["displacement", "no-level"])
class TestImmediateLinkFailure:
    def test_hop_given_up_unsent(self, reason):
        sim, sn, pid = hopeless_hop(reason, turn=3)
        assert sim.cfg.mx_atmpt == 3
        grade = sim.reward_states[sn.src].successor_rewards[sn.dst]
        packets = sim.ledger.packets
        attempts, settled = len(sim.ledger.attempts), packets.settled.copy()
        sim._on_send_attempt(sn.src)
        assert len(sim.ledger.attempts) == attempts
        # the queue entry was the pid's last hold: its stat retired as a breakage
        assert pid not in packets.live
        assert packets.settled - settled == {"dropped-link-breakage": 1}
        assert sim.runtime[sn.src].queue == []
        assert sn.next_hop == {}
        assert not sim.runtime[sn.src].links[sn.dst].reliable
        # a turn within the retry budget costs the successor no grade
        assert sim.reward_states[sn.src].successor_rewards[sn.dst] == grade
        # nothing was sent, so the notice carries no last attempt to write off
        assert [(handler, args) for _, _, handler, args in sim._events] == [
            (sim._on_link_breakage, (sn.id, 0.0, 0.0, 7.0, 0.25))
        ]

    def test_claim_zeroes_a_record_still_held(self, reason):
        sim, sn, pid = hopeless_hop(reason, holds=2)
        t = sim.t
        sim._on_send_attempt(sn.src)
        # the other hold keeps the record live, final and with nothing to claim
        assert sim.ledger.packets.live[pid] == PacketStat(
            generated_at=t, status="dropped-link-breakage", holds=1, inv_e=0.0, inv_t=0.0)
        assert [args for _, _, _, args in sim._events] == [(sn.id, 0.0, 0.0, 7.0, 0.25)]

    def test_rediscovery_books_the_write_off(self, reason):
        sim, sn, _ = hopeless_hop(reason)
        sim._on_send_attempt(sn.src)
        [(_, _, handler, args)] = sim._events
        spy = LedgerSpy(sim.ledger)
        handler(*args)
        # the circle flood finds the route, so it is the one flood
        [(_, zone, flood_e, flood_t)] = spy.invest_calls
        assert zone == sn.home_zone and flood_e > 0.0 and flood_t > 0.0
        assert spy.waste_calls == [
            (sim.t, sn.home_zone, 0.0 + flood_e + 7.0, 0.0 + flood_t + 0.25)
        ]


def test_an_ack_after_delivery_is_written_off_by_an_upstream_holder():
    """Records today's behaviour on ROADMAP item 2's path, not the wanted
    one. Node 0's ack was lost, so it still queues the pid when node 1
    delivers it to node 2. Delivery zeroes the record's acked-hop
    investment, but node 1's ack, arriving after it, adds to the record
    again, and a link failure at node 0 then passes that ack's investment
    on to be written off as waste. Item 2's fix inverts the last assertion:
    the notice then carries no investment."""
    sim, sn = route_request_sim([(0.0, 0.0), (20.0, 0.0), (40.0, 0.0)], 0, 2)
    sn.discovering = True
    sim._on_route_reply(sn.id, (0, 1, 2))
    sim._events.clear()
    spy = LedgerSpy(sim.ledger)
    pid = next(sim._pids)
    stat = sim.ledger.packets.live[pid] = PacketStat(generated_at=0.0, holds=2, reached={1})
    for nid in (0, 1):
        sim.runtime[nid].queue.append(QueuedPacket(pid=pid, session=sn.id))
    sim.t = 1.0
    rt = sim.runtime[1]
    sim._transmit(1, 2, sim.nodes[1].power_levels[-1], rt.links[2], rt, rt.queue[0], sn)
    for handler in (sim._on_packet_arrival, sim._on_ack_arrival):
        [(t, args)] = [(t, args) for t, _, h, args in sim._events if h == handler]
        sim.t = t
        handler(*args)
        # delivered, and still held by node 0's queue entry
        assert sim.ledger.packets.live[pid] is stat and stat.status == "delivered"
    [(_, _, action, rtt)] = spy.invest_calls
    assert action == sim.nodes[1].power_levels[-1] and rtt > 0.0
    assert stat.holds == 1 and rt.queue == []
    sim._link_failure(0, sn, 0.0, 0.0)
    assert pid not in sim.ledger.packets.live
    assert sim.ledger.packets.settled == {"delivered": 1}
    breakage = [args for _, _, h, args in sim._events if h == sim._on_link_breakage]
    assert breakage == [(sn.id, 0.0, 0.0, action, rtt)]


def test_an_ack_is_counted_as_a_message_but_no_node_pays_for_it():
    """Records today's behaviour, not the wanted one. The receiver of a hop
    pays to listen, then counts its ack in OMC and sends it at `ack_level`,
    but no node pays for the ack: the hop books two messages and only a
    tx and an rx debit. On lossless-pair seed 1, OMC is 65: 24 data sends,
    24 acks, 14 zone-state, 2 flood and 1 control message, against 24 tx
    and 24 rx debits. A fix debits the ack to the receiver, which changes
    every golden, and inverts the debit assertion."""
    sim, sn = route_request_sim([(0.0, 0.0), (20.0, 0.0)], 0, 1)
    sn.discovering = True
    sim._on_route_reply(sn.id, (0, 1))
    sim._events.clear()
    spy = LedgerSpy(sim.ledger)
    pid = next(sim._pids)
    sim.ledger.packets.live[pid] = PacketStat(generated_at=0.0)
    rt = sim.runtime[0]
    rt.queue.append(QueuedPacket(pid=pid, session=sn.id))
    messages, energy = sim.ledger.message_count, sim.nodes[1].residual_energy
    sim.t = 1.0
    sim._transmit(0, 1, sim.nodes[0].power_levels[-1], rt.links[1], rt, rt.queue[0], sn)
    [(t, args)] = [(t, args) for t, _, h, args in sim._events if h == sim._on_packet_arrival]
    sim.t = t
    sim._on_packet_arrival(*args)
    assert sim.ledger.status_counts() == {"delivered": 1}
    # the ack went out, and reaches node 0
    assert sim._on_ack_arrival in queued_handlers(sim)
    assert sim.ledger.message_count == messages + 2
    [(_, _, rx)] = [call for call in spy.debit_calls if call[0] == 1]
    assert [call[:2] for call in spy.debit_calls] == [(0, "tx"), (1, "rx")]
    assert sim.nodes[1].residual_energy == energy - rx
    sim = Simulator(scenario("lossless-pair"), seed=1)
    spy = LedgerSpy(sim.ledger)
    report = sim.run()
    kinds = Counter(kind for _, kind, _ in spy.debit_calls)
    assert kinds == {"tx": 24, "rx": 24, "zone-state": 14, "flood": 2, "control": 1}
    assert sim.ledger.outcome_counts() == {"ack": 24}
    assert report.omc == 65 == kinds.total() - kinds["rx"] + 24


@pytest.mark.parametrize("stale", ["failed", "settled"])
def test_stale_route_reply_changes_nothing(stale):
    """A reply that arrives for a failed session, or for one whose
    discovery already ended, installs no route and queues no event."""
    sim = Simulator(scenario("lossless-pair"), seed=1)
    sim.run()
    sn = sim.sessions[0]
    if stale == "failed":
        sim._fail_session(sn)
    assert not sn.discovering
    sim._events.clear()
    pid = next(sim._pids)
    sim.ledger.packets.live[pid] = PacketStat(generated_at=sim.t)
    queued = QueuedPacket(pid=pid, session=sn.id)
    sim.runtime[sn.dst].queue = [queued]
    next_hop, links = dict(sn.next_hop), copy.deepcopy([rt.links for rt in sim.runtime])
    sim._on_route_reply(sn.id, (sn.dst, sn.src))
    assert sn.next_hop == next_hop
    assert [rt.links for rt in sim.runtime] == links
    assert sim._events == []
    assert sim.runtime[sn.dst].queue == [queued]
    assert sim.ledger.packets.live[pid].status == "pending"


class TestUnpaidOrLateEvents:
    def test_receiver_that_cannot_pay_rx_neither_acks_nor_forwards(self):
        sim = Simulator(scenario("lossless-pair"), seed=1)
        spy = LedgerSpy(sim.ledger)
        arrive = sim._on_packet_arrival
        starved = []

        def starve_first(row, rss, dist):
            if starved:
                return arrive(row, rss, dist)
            receiver = sim.nodes[row.successor]
            receiver.residual_energy = 1e-15
            messages, queued = sim.ledger.message_count, len(sim._events)
            stat = sim.ledger.packets.live[row.pid]
            holds = stat.holds
            arrive(row, rss, dist)
            starved.append(row)
            # the partial payment drains the receiver and is booked as rx
            assert not receiver.alive
            assert spy.debit_calls[-1] == (row.successor, "rx", 1e-15)
            assert sim.ledger.message_count == messages
            assert len(sim._events) == queued
            # the arrival gives up its hold; the sender's queue entry keeps
            # the record live, and the receiver never reached it
            assert sim.ledger.packets.live[row.pid] is stat
            assert stat.holds == holds - 1 >= 1
            assert row.successor not in stat.reached
            assert stat.status == "pending"

        sim._on_packet_arrival = starve_first
        sim.run()
        assert starved

    def test_link_breakage_of_an_ended_session_is_ignored(self):
        sim = Simulator(scenario("lossless-pair"), seed=1)
        sim.run()
        sn = sim.sessions[0]
        sim._fail_session(sn)
        sim._events.clear()
        spy = LedgerSpy(sim.ledger)
        sim._on_link_breakage(sn.id, 1.0, 0.5, 7.0, 0.25)
        assert (spy.debit_calls, spy.invest_calls, spy.waste_calls) == ([], [], [])
        assert sim._events == []
        assert not sn.discovering and sn.next_hop == {}


class TestWorldConstruction:
    @pytest.mark.parametrize("zones", [3, 12])
    @pytest.mark.parametrize("peripherals", [0, 2])
    @pytest.mark.parametrize("counts", [(1, 1), (5, 10), (90, 100)], ids=str)
    def test_every_draw_matches_the_replayed_order(self, counts, peripherals, zones):
        cfg = scenario("desk-compare", zones=zones, peripherals_per_zone=peripherals,
                       level_count_min=counts[0], level_count_max=counts[1], override=True)
        seed = 11 * zones + peripherals + counts[0]
        sim = Simulator(cfg, seed)
        nodes, sessions, state = oracle_world_draws(cfg, seed, sim.zones)
        got = [(n.position, n.max_velocity, n.residual_energy, n.radio_range, n.power_levels)
               for n in sim.nodes]

        def bits(x):  # float.hex: equal bit for bit, not just equal
            return tuple(map(bits, x)) if isinstance(x, tuple) else x.hex()

        assert list(map(bits, got)) == list(map(bits, nodes))
        assert [(sn.src, sn.dst) for sn in sim.sessions] == sessions
        assert sim.rng.getstate() == state  # no draw more or fewer
        assert sum(n.is_peripheral for n in sim.nodes) == zones * peripherals

    def test_per_node_records_are_slotted(self):
        # a misspelt field (sn.strated = True) must raise, not make a new
        # attribute that nothing reads
        sim = Simulator(scenario("desk-compare"))
        records = (sim.nodes[0], sim.runtime[0], sim.reward_states[0], sim.sessions[0])
        assert [type(r).__name__ for r in records] == [
            "NodeState", "NodeRuntime", "NodeRewardState", "Session"]
        for record in records:
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.misspelt = 1

    def test_nodes_with_equal_level_counts_share_one_tuple(self):
        sim = Simulator(scenario("desk-converge"))
        shared = {}
        for n in sim.nodes:
            assert n.power_levels is shared.setdefault(len(n.power_levels), n.power_levels)
        assert sorted(shared) == list(range(5, 11))

    def test_a_large_level_count_costs_little_per_node(self):
        nodes = 2000
        side = (nodes / 100) ** 0.5
        cfg = scenario("desk-converge", nodes=nodes, arena_width=140.0 * side,
                       arena_height=105.0 * side, sessions=nodes // 16,
                       level_count_min=90, level_count_max=100, override=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim = Simulator(cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # one tuple of up to 100 floats per node would be about 3 KB each
        assert len(sim.nodes) == nodes
        assert held / nodes < 1500


class TestEndToEnd:
    def test_single_level_nodes_send_at_the_top_value(self):
        cfg = scenario("lossless-pair", level_count_min=1, level_count_max=1)
        sim = Simulator(cfg)
        rows = LedgerSpy(sim.ledger).attempt_rows
        sim.run()
        assert all(n.power_levels == (cfg.level_value_max,) for n in sim.nodes)
        assert len(rows) == len(sim.ledger.attempts)
        assert {row.action for row in rows} == {cfg.level_value_max}

    def test_lossless_pair_delivers_everything(self):
        rep = Simulator(scenario("lossless-pair")).run()
        assert rep.ntg == 100.0
        assert rep.awe == 0.0 and rep.awt == 0.0
        assert rep.paln == 100.0

    def test_lossless_pair_never_drops(self):
        sim = Simulator(scenario("lossless-pair"))
        sim.run()
        statuses = sim.ledger.status_counts()
        assert statuses["delivered"]
        assert statuses.keys() <= {"delivered", "pending"}
        # at most the packet in flight when the horizon ends stays pending
        assert statuses["pending"] <= 1

    def test_zero_duration_run(self):
        rep = Simulator(scenario("lossless-pair", duration=0.0)).run()
        assert rep.ntg is None
        assert rep.omc == 0
        assert rep.paln == 100.0
        assert rep.ec == 0.0

    def test_packet_statuses_are_consistent(self):
        sim = Simulator(scenario("desk-conserve"))
        stats = LedgerSpy(sim.ledger).packet_stats
        assert invariant_problems(sim.ledger, sim.run()) == []
        assert len(stats) == len(sim.ledger.packets) > 0
        for stat in stats:
            if stat.status == "delivered":
                assert stat.delivered_at is not None
                assert stat.delivered_at >= stat.generated_at
            else:
                assert stat.delivered_at is None

    def test_energy_conservation_and_replay(self):
        sim = Simulator(scenario("desk-conserve"))
        spy = LedgerSpy(sim.ledger)
        led = sim.ledger
        assert invariant_problems(led, sim.run()) == []
        replayed = oracle_energy_totals(
            led.initial_energy, [(r[0], r[2]) for r in spy.debit_calls]
        )
        for nid, residual in replayed.items():
            assert led.final_energy[nid] == pytest.approx(residual, abs=1e-12)
        assert all(v >= 0.0 for v in led.final_energy.values())

    def test_same_seed_same_bytes(self):
        cfg = scenario("desk-compare", seed=3)
        a = Simulator(cfg)
        spy_a = LedgerSpy(a.ledger)
        ra = a.run()
        b = Simulator(cfg)
        spy_b = LedgerSpy(b.ledger)
        rb = b.run()
        assert render_csv(ra) == render_csv(rb)
        assert render_csv(ra.series) == render_csv(rb.series)
        assert spy_a.debit_calls and spy_a.debit_calls == spy_b.debit_calls

    @pytest.mark.parametrize("hash_seed", ["0", "4242"])
    def test_golden_bytes_under_any_hash_seed(self, hash_seed):
        # a fresh interpreter per string-hash seed, so results that leaned on
        # the iteration order of a str-keyed set or dict would differ here
        want = json.loads(golden_path("desk-compare").read_text(encoding="utf-8"))
        paths = [str(Path(rltrc.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(paths))
        child = "import json; from bless_golden import trace; print(json.dumps(trace(%r, seed=1)[0]))"
        done = subprocess.run([sys.executable, "-c", child % "desk-compare"], env=env,
                              capture_output=True, text=True, check=True)
        got = json.loads(done.stdout)
        assert (got["summary_sha256"], got["series_sha256"]) == (
            want["summary_sha256"], want["series_sha256"])

    def test_different_seed_different_trace(self):
        base = scenario("desk-conserve")
        ra = Simulator(base, seed=1).run()
        rb = Simulator(base, seed=2).run()
        assert render_csv(ra) != render_csv(rb)

    def test_seed_argument_overrides_config(self):
        cfg = scenario("desk-conserve", seed=5)
        assert render_csv(Simulator(cfg).run()) == render_csv(
            Simulator(scenario("desk-conserve"), seed=5).run()
        )

    def test_fixed_max_policy_spends_more(self):
        cfg = scenario("desk-compare")
        rl = Simulator(cfg).run()
        fx = Simulator(scenario("desk-compare", policy="fixed-max")).run()
        assert fx.ec > rl.ec

    def test_too_few_mobile_nodes_rejected(self):
        from rltrc.config import ConfigError

        with pytest.raises(ConfigError):
            Simulator(scenario("desk-conserve", nodes=7, peripherals_per_zone=2))


def test_scale_smoke_800_nodes_keeps_the_run_invariants():
    """One N=800 world at desk-converge density (arena scaled by sqrt(8),
    N // 16 sessions) for 10 s."""
    side = 8 ** 0.5
    cfg = scenario("desk-converge", nodes=800, arena_width=140.0 * side,
                   arena_height=105.0 * side, sessions=50, duration=10.0, seed=7)
    sim = Simulator(cfg)
    report = sim.run()
    assert invariant_problems(sim.ledger, report) == []
    assert report.ntg is not None and sim.ledger.debit_count > 0


def test_random_configs_keep_the_run_invariants():
    configs = random_configs(11, FUZZ_DRAWS)
    assert len(configs) == FUZZ_DRAWS
    deaths = 0
    for cfg in configs:
        sim = Simulator(cfg)
        assert invariant_problems(sim.ledger, sim.run()) == [], cfg
        deaths += sim.ledger.status_counts()["dropped-node-death"]
    # the near-zero batteries really reach the node-death branch
    assert deaths > 0


def test_wide_random_configs_keep_the_run_invariants():
    """Batteries far larger than the debits they pay round at a coarse ulp,
    which the conservation check must allow for, and so must every other
    invariant across the timers, radio and channel fields drawn."""
    configs = wide_random_configs(12, WIDE_FUZZ_DRAWS)
    assert len(configs) == WIDE_FUZZ_DRAWS and max(c.energy_max for c in configs) == 1e7
    delivering = 0
    for cfg in configs:
        sim = Simulator(cfg)
        report = sim.run()
        assert invariant_problems(sim.ledger, report) == [], cfg
        delivering += bool(report.ntg)
    # levels below the receive floor deliver nothing; the rest reach the
    # forwarding path
    assert delivering >= 5


# Each hop, control or reward helper below trusts its one caller for the
# domain given instead of checking it on every call: helper -> (the module
# it is called through, that domain over the helper's arguments)
HOP_DOMAINS = {
    "node_self_reward": (rltrc.rewards, lambda r_prev, p_max, action: 0.0 < action <= p_max),
    "successor_reward_ack": (rltrc.rewards, lambda prr, rss_over_tpl, trend: (
        0.0 <= prr <= 1.0 and 0.0 <= rss_over_tpl <= 1.0 and trend in (-1, 0, 1))),
    "record_ack": (rltrc.linkcache, lambda entry, rec, vs, radio_range: (
        rec.rss <= rec.tx_power and rec.t_msg <= rec.t_ack and rec.tx_power > 0.0)),
    "select_power_level": (policy, lambda available, sigma, reliable, rng: len(available) > 0),
    "baseline_decide": (policy, lambda kind, link, levels, **_: (
        kind in BASELINE_KINDS and len(levels) > 0 and link.level in levels)),
    "broadcast_cost": (rltrc.engine, lambda ng, h_avg, cap: ng >= 1.0),
    "transmission_waste": (rltrc.rewards, lambda prev_action, tau_a: (
        prev_action >= 0.0 and tau_a > 0.0)),
    "accumulate_zone_waste": (rltrc.engine, lambda ledger, zone_id, wastes: all(
        e >= 0.0 and t >= 0.0 for e, t in wastes)),
    "session_reward": (rltrc.control, lambda ew, et: ew >= 0.0 and et >= 0.0),
    "mobility_step": (rltrc.engine, lambda nodes, states, model, *_: (
        model in VALID_MOBILITY and all(n.max_velocity > 0.0 for n in nodes))),
    "destination_lookup": (rltrc.engine, lambda dst, t_now, registry, zones: dst in registry),
    "_membership_diameter": (rltrc.control, lambda pts: len(pts) >= 2),
    "neighbor_counts": (rltrc.control, lambda records: len(records) >= 2),
}


def test_hop_helpers_are_called_only_inside_their_domains(monkeypatch):
    """Across the golden traces and the fuzzed configs, every call of a
    HOP_DOMAINS helper lies in its domain, and every helper is called."""
    called, outside = set(), {}

    def spy(name, helper, inside):
        def checked(*args, **kwargs):
            called.add(name)
            if not inside(*args, **kwargs):
                outside.setdefault(name, (args, kwargs))
            return helper(*args, **kwargs)
        return checked

    for name, (module, inside) in HOP_DOMAINS.items():
        monkeypatch.setattr(module, name, spy(name, getattr(module, name), inside))
    configs = [scenario(name, seed=1, **overrides) for name, overrides in GOLDEN_TRACES.values()]
    configs += random_configs(11, FUZZ_DRAWS) + wide_random_configs(12, WIDE_FUZZ_DRAWS)
    assert len(configs) == 16 + 90
    for cfg in configs:
        Simulator(cfg).run()
    assert outside == {}
    assert called == set(HOP_DOMAINS)


SMALL_LEVELS_AT_1E5 = {"energy_min": 1e5, "energy_max": 1e5,
                      "level_value_min": 0.01, "level_value_max": 0.05}


@pytest.mark.parametrize("name, seed, overrides", [
    ("desk-compare", 1, SMALL_LEVELS_AT_1E5),
    ("desk-compare", 2, SMALL_LEVELS_AT_1E5),
    ("desk-converge", 1, {"energy_min": 1e6, "energy_max": 1e6}),
], ids=["desk-compare-small-levels-seed1", "desk-compare-small-levels-seed2", "desk-converge"])
def test_large_batteries_keep_energy_conservation(name, seed, overrides):
    """Each debit rounds a 1e5 J battery by up to half its ulp, 7e-12 J,
    and a 1e6 J one by 6e-11 J: more than 1e-9 of desk-compare's EC of
    about 0.05 J at levels of 0.01 to 0.05, or than 1e-9 J over a
    desk-converge node's drop. A fixed tolerance reported both as broken
    conservation."""
    sim = Simulator(scenario(name, seed=seed, **overrides))
    report = sim.run()
    assert invariant_problems(sim.ledger, report) == []
    assert sim.ledger.debit_count > 0


# the second run's small batteries reach every drop status, node deaths included
@pytest.mark.parametrize("overrides", [{}, {"energy_min": 0.05, "energy_max": 3.0}])
def test_each_packet_status_is_one_shared_string(overrides):
    sim = Simulator(scenario("desk-converge", seed=1, **overrides))
    stats = LedgerSpy(sim.ledger).packet_stats
    sim.run()
    statuses = [p.status for p in stats]
    assert len({id(s) for s in statuses}) == len(set(statuses)) >= 4

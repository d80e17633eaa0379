import copy
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from bless_golden import GOLDEN_DIR, GOLDEN_TRACES
from oracles import (
    LedgerSpy,
    circle_contains,
    oracle_energy_totals,
    oracle_mobility_tick,
    oracle_route,
    oracle_route_links,
    oracle_shortest_path,
)

import rltrc
from rltrc import policy
from rltrc.config import VALID_MOBILITY, VALID_POLICIES, VALID_ZONE_COUNTS
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
from rltrc.policy import compute_sigma
from rltrc.rewards import avg_hop_count, broadcast_cost, successor_reward_ack
from rltrc.scenarios import scenario


def make_node(nid=0, pos=(0.0, 0.0), vmax=1.0):
    return NodeState(
        id=nid,
        position=pos,
        max_velocity=vmax,
        residual_energy=10.0,
        power_levels=(5.0, 25.0),
        radio_range=35.0,
        min_rcv=1.0,
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
        node = make_node(pos=(1.0, 1.0), vmax=0.0)
        state = MobilityState()
        for t in range(20):
            mobility_step([node], [state], "random-waypoint", 0.5, 0.5 * t,
                          random.Random(t), (10.0, 10.0), 2.0, 0.5)
        assert node.position == (1.0, 1.0)

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

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            mobility_step([make_node()], [MobilityState()], "teleport", 1.0, 0.0,
                          random.Random(0), (10.0, 10.0), 2.0, 0.5)

    @pytest.mark.parametrize("model", VALID_MOBILITY)
    def test_population_step_matches_the_per_node_oracle(self, model):
        """50 ticks of desk-compare's population, peripherals and dead nodes
        included (one more dies halfway): the one-call step leaves every
        position, motion state and the generator as the per-node loop does."""
        sim = Simulator(scenario("desk-compare", mobility=model, gaussian_accel=2.0))
        cfg = sim.cfg
        for n in sim.nodes[sim.mobile_ids[0]::5]:
            n.residual_energy = 0.0
        states = [rt.motion for rt in sim.runtime]
        want_nodes, want_states = copy.deepcopy((sim.nodes, states))
        want_rng = random.Random()
        want_rng.setstate(sim.rng.getstate())
        args = (cfg.mobility_dt, (cfg.arena_width, cfg.arena_height), cfg.pause_max,
                cfg.gaussian_accel)
        moved = 0
        for tick in range(1, 51):
            if tick == 25:
                sim.nodes[-1].residual_energy = want_nodes[-1].residual_energy = 0.0
            t = tick * cfg.mobility_dt
            before = [n.position for n in sim.nodes]
            mobility_step(sim.nodes, states, model, cfg.mobility_dt, t, sim.rng, *args[1:])
            oracle_mobility_tick(want_nodes, want_states, model, cfg.mobility_dt, t, want_rng,
                                 *args[1:])
            assert [n.position for n in sim.nodes] == [n.position for n in want_nodes]
            assert states == want_states
            assert sim.rng.getstate() == want_rng.getstate()
            moved += sum(a != b for a, b in zip(before, (n.position for n in sim.nodes)))
            assert all(sim.nodes[i].position == before[i] for i, n in enumerate(sim.nodes)
                       if not n.alive or n.is_peripheral)
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

    def test_src_equals_dst(self):
        sim = discovery_sim(2, [(0.0, 0.0), (100.0, 0.0)])
        assert sim._discover_route(0, 0, [0, 1]) == (0,)

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
                                              sim.channel.alpha,
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

    def test_flood_scope_circle_is_closed(self):
        # a node on the rim is in the circle, as in the oracle's closed disc
        sim = discovery_sim(4, [(10.0, 0.0), (20.0, 0.0), (50.0, 0.0), (70.1, 0.0)])
        assign_zones(sim.nodes, sim.zones)
        circle = BroadcastCircle(center=(60.0, 0.0), radius=10.0, spans_zones=(1,))
        assert sim._flood_scope(circle, (0,), [0, 1, 2, 3]) == [0, 1, 2]
        assert [circle_contains(circle, sim.nodes[n].position) for n in (2, 3)] == [True, False]

    def test_flood_cost_branches_at_least_once(self):
        # members that see 0.5 neighbours on average still flood with
        # branching factor 1; broadcast_cost rejects anything below it
        sim = discovery_sim(4, [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0)])
        zone = sim.zones[0]
        zone.phi = 0.5
        h = avg_hop_count(zone.theta, zone.phi, zone.av_rad)
        assert sim._flood_cost(zone) == broadcast_cost(1.0, h, sim.cfg.broadcast_cost_cap)


def route_request_sim(positions, src, dst, **overrides):
    """discovery_sim with zones assigned and session 0 from src to dst."""
    sim = discovery_sim(len(positions), positions, **overrides)
    assign_zones(sim.nodes, sim.zones)
    sn = sim.sessions[0]
    sn.src, sn.dst = src, dst
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
        assert (0, "flood") in [(r[1], r[2]) for r in spy.debit_calls]
        assert not sim.nodes[0].alive
        assert not sn.live
        assert sim._on_route_reply not in queued_handlers(sim)

    def test_circle_miss_falls_back_when_its_flood_killed_scope_nodes(self):
        # six 40 x 15 m zones; the circle and the corridor are zone 0, which
        # holds the source, the destination and relay 1. The circle flood
        # drains relay 1, so only relay 2, up in zone 3, can carry the route.
        positions = [(2.0, 5.0), (20.0, 5.0), (20.0, 20.0), (38.0, 5.0)]
        sim, sn = route_request_sim(positions, 0, 3, zones=6)
        sim.registry[3] = NodeTrack(positions[3], sim.t, 0.0)
        sim.nodes[1].residual_energy = 1e-6
        assert [n.zone_id for n in sim.nodes] == [0, 0, 3, 0]
        sim._request_route(sn, waste=None)
        assert not sim.nodes[1].alive
        assert sn.live
        assert [(h, a) for _, _, h, a in sim._events] == [(sim._on_route_reply, (0, (0, 2, 3)))]


class TestMessageCharge:
    def world(self):
        """Five nodes at top level 25: node 1 holds exactly one relay's
        cost, node 2 half of it, node 3 is already dead."""
        sim = discovery_sim(5, [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0), (80.0, 0.0)])
        cost = sim.nodes[1].max_power * sim.cfg.airtime
        sim.nodes[1].residual_energy = cost
        sim.nodes[2].residual_energy = 0.5 * sim.nodes[2].max_power * sim.cfg.airtime
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
                single._debit(nid, node.max_power * single.cfg.airtime, "flood", message=True)
        assert spy_batched.debit_calls == spy_single.debit_calls
        assert ([n.residual_energy for n in batched.nodes]
                == [n.residual_energy for n in single.nodes])
        assert batched.ledger.message_count == single.ledger.message_count
        assert batched.ledger.energy_by_node() == single.ledger.energy_by_node()
        # the dead node books no row; the drained and the partial payer each
        # book one, but only full payments count a message
        assert [(r[0], r[1], r[2]) for r in spy_batched.debit_calls] == [
            (4.5, nid, "flood") for nid in (0, 1, 2, 4)]
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
        sn.started = sn.discovering = True
        sim.sessions.append(Session(1, 0, 3))
        held = {0: [(1, 0)], 1: [(2, 0), (3, 1)], 4: [(4, 0), (5, 0), (6, 1)]}
        for nid, packets in held.items():
            for pid, sid in packets:
                sim.ledger.packets[pid] = PacketStat(session=sid, generated_at=0.0)
                sim.runtime[nid].queue.append(QueuedPacket(pid=pid, session=sid))
                sim.sessions[sid].holders.add(nid)
        sn.holders.add(2)  # a holder whose packets have all left
        sim.runtime[4].inflight = AttemptRow(0.0, 4, 0, 4, 2, 1, 5.0, "pending")
        sim._on_route_reply(sn.id, (0, 1, 2, 3))
        status = {pid: stat.status for pid, stat in sim.ledger.packets.items()}
        assert status == {1: "pending", 2: "pending", 3: "pending", 4: "pending",
                          5: "dropped-route-invalidated", 6: "pending"}
        assert [q.pid for q in sim.runtime[4].queue] == [4, 6]
        assert [(h, a) for _, _, h, a in sim._events] == [
            (sim._on_send_attempt, (nid,)) for nid in (0, 1, 4)]
        assert sn.holders == {0, 1, 4}
        assert sn.next_hop == {0: 1, 1: 2, 2: 3}

    def test_holders_cover_every_queued_packet(self):
        """After every event of desk-converge at seed 1, each node that
        queues a packet of a session is among that session's holders."""
        sim = Simulator(scenario("desk-converge"), seed=1)
        sessions, runtime = sim.sessions, sim.runtime
        push = sim._push
        checked, pruned = [], []

        def check(handler, *args):
            handler(*args)
            for nid, rt in enumerate(runtime):
                for q in rt.queue:
                    assert nid in sessions[q.session].holders, (handler.__name__, nid, q)
            checked.append(handler)

        def checked_push(t, handler, *args):
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
        assert len(checked) == next(sim._seq) - len(sim._events)
        assert len(checked) > 10_000
        assert any(pruned)  # holders that had sent everything on were dropped


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


@pytest.mark.parametrize("name", ["desk-compare", "desk-converge"])
def test_successor_grade_after_every_ack_reads_the_link_cache(name):
    """After each acknowledged hop the sender's grade of its successor is
    `successor_reward_ack` of the link cache just updated, with the inputs
    worked out here from the cache's counters: the reception rate rx/tx and
    the ratio of the average RSS to the average transmit level."""
    sim = Simulator(scenario(name), seed=1)
    assert sim.cfg.policy == "rl-trc"
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


class TestAttemptRows:
    @pytest.mark.parametrize(
        "golden", ["lossless-pair", "desk-compare", "desk-converge", "desk-compare-low-energy"]
    )
    def test_lifecycle(self, golden):
        name, overrides = GOLDEN_TRACES[golden]
        cfg = scenario(name, **overrides)
        sim = Simulator(cfg, seed=1)
        sim.run()
        led = sim.ledger
        assert led.attempts
        assert len(led.attempts) == sum(p.attempts for p in led.packets.values())
        # the rows of one packet at one node carry turns 1, 2, ..., k in send order
        sent: dict[tuple[int, int], int] = {}
        for row in led.attempts:
            hop = (row.pid, row.node)
            sent[hop] = sent.get(hop, 0) + 1
            assert row.turn == sent[hop]
            assert row.outcome in ("ack", "timeout", "blocked", "pending")
            assert (row.outcome == "blocked") == (row.action == 0.0)
            if row.outcome == "ack":
                assert row.action > 0.0
            if row.outcome == "pending":
                assert row.t + cfg.tau_a > cfg.duration

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
            before = copy.deepcopy(
                (sim.runtime, sim.reward_states, spy.invest_calls, sim.packet_invested)
            )
            on_ack(row, rss)
            raced.append(row)
            assert row.outcome == "timeout"
            assert (sim.runtime, sim.reward_states, spy.invest_calls, sim.packet_invested) == before

        sim._on_ack_arrival = timeout_first
        sim.run()
        assert raced


def hopeless_hop(reason, turn=1):
    """A finished lossless-pair run with one packet queued again at the
    source, its link cache rigged so that rl-trc gives the hop up unsent.

    "displacement": the successor seems to have moved past twice the radio
    range since the last ack. "no-level": no level of the sender clears the
    successor's receive threshold. The packet carries an acked-hop
    investment of (7, 0.25) from earlier hops.
    """
    sim = Simulator(scenario("lossless-pair"), seed=1)
    sim.run()
    sn = sim.sessions[0]
    entry = sim.runtime[sn.src].links[sn.dst]
    assert sn.next_hop == {sn.src: sn.dst} and len(entry.last_two) == 2
    if reason == "displacement":
        entry.approx_velocity = 1e9
    else:
        sim.nodes[sn.dst].min_rcv = 1e9
    sim.t = sim.cfg.duration + 1.0
    sim._events.clear()
    rt = sim.runtime[sn.src]
    rt.inflight = None
    pid = max(sim.ledger.packets) + 1
    sim.ledger.packets[pid] = PacketStat(session=sn.id, generated_at=sim.t)
    rt.queue = [QueuedPacket(pid=pid, session=sn.id, turn=turn)]
    sim.packet_invested[pid] = (7.0, 0.25)
    return sim, sn, pid


@pytest.mark.parametrize("reason", ["displacement", "no-level"])
class TestImmediateLinkFailure:
    def test_hop_given_up_unsent(self, reason):
        sim, sn, pid = hopeless_hop(reason, turn=3)
        assert sim.cfg.mx_atmpt == 3
        grade = sim.reward_states[sn.src].successor_rewards[sn.dst]
        attempts = len(sim.ledger.attempts)
        sim._on_send_attempt(sn.src)
        assert len(sim.ledger.attempts) == attempts
        assert sim.ledger.packets[pid].status == "dropped-link-breakage"
        assert sim.runtime[sn.src].queue == []
        assert sn.next_hop == {}
        assert not sim.runtime[sn.src].links[sn.dst].reliable
        # a turn within the retry budget costs the successor no grade
        assert sim.reward_states[sn.src].successor_rewards[sn.dst] == grade
        assert pid not in sim.packet_invested
        # nothing was sent, so the notice carries no last attempt to write off
        assert [(handler, args) for _, _, handler, args in sim._events] == [
            (sim._on_link_breakage, (sn.id, 0.0, 0.0, 7.0, 0.25))
        ]

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
    pid = max(sim.ledger.packets) + 1
    sim.ledger.packets[pid] = PacketStat(session=sn.id, generated_at=sim.t)
    queued = QueuedPacket(pid=pid, session=sn.id)
    sim.runtime[sn.dst].queue = [queued]
    next_hop, links = dict(sn.next_hop), copy.deepcopy([rt.links for rt in sim.runtime])
    sim._on_route_reply(sn.id, (sn.dst, sn.src))
    assert sn.next_hop == next_hop
    assert [rt.links for rt in sim.runtime] == links
    assert sim._events == []
    assert sim.runtime[sn.dst].queue == [queued]
    assert sim.ledger.packets[pid].status == "pending"


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
            arrive(row, rss, dist)
            starved.append(row)
            # the partial payment drains the receiver and is booked as rx
            assert not receiver.alive
            assert spy.debit_calls[-1] == (sim.t, row.successor, "rx", 1e-15)
            assert sim.ledger.message_count == messages
            assert len(sim._events) == queued
            assert row.pid not in sim.runtime[row.successor].seen
            assert sim.ledger.packets[row.pid].status == "pending"

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


class TestEndToEnd:
    def test_single_level_nodes_send_at_the_top_value(self):
        cfg = scenario("lossless-pair", level_count_min=1, level_count_max=1)
        sim = Simulator(cfg)
        sim.run()
        assert all(n.power_levels == (cfg.level_value_max,) for n in sim.nodes)
        assert {row.action for row in sim.ledger.attempts} == {cfg.level_value_max}

    def test_lossless_pair_delivers_everything(self):
        rep = Simulator(scenario("lossless-pair")).run()
        assert rep.ntg == 100.0
        assert rep.awe == 0.0 and rep.awt == 0.0
        assert rep.paln == 100.0

    def test_lossless_pair_never_drops(self):
        sim = Simulator(scenario("lossless-pair"))
        sim.run()
        statuses = [p.status for p in sim.ledger.packets.values()]
        assert statuses
        assert all(s in ("delivered", "pending") for s in statuses)
        # at most the packet in flight when the horizon ends stays pending
        assert sum(1 for s in statuses if s == "pending") <= 1

    def test_zero_duration_run(self):
        rep = Simulator(scenario("lossless-pair", duration=0.0)).run()
        assert rep.ntg is None
        assert rep.omc == 0
        assert rep.paln == 100.0
        assert rep.ec == 0.0

    def test_packet_statuses_are_consistent(self):
        sim = Simulator(scenario("desk-conserve"))
        assert invariant_problems(sim.ledger, sim.run()) == []
        for stat in sim.ledger.packets.values():
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
            led.initial_energy, [(r[1], r[3]) for r in spy.debit_calls]
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
        want = json.loads((GOLDEN_DIR / "desk-compare-seed1.json").read_text(encoding="utf-8"))
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


FUZZ_DRAWS = 60


def random_configs(seed, count):
    """`count` short runs drawn over policy, mobility, zone count, energy
    and noise, all in desk-compare's arena.

    `nodes` honours `validate`'s bounds by construction: at least five
    nodes per zone and at least two mobile nodes besides the peripherals.
    Near-zero batteries make nodes die mid-run.
    """
    rng = random.Random(seed)
    per_zone = scenario("desk-compare").peripherals_per_zone
    configs = []
    for _ in range(count):
        zones = rng.choice(VALID_ZONE_COUNTS)
        fewest = max(5 * zones, per_zone * zones + 2)
        low, high = rng.choice([(0.05, 0.3), (100.0, 200.0)])
        configs.append(scenario(
            "desk-compare",
            seed=rng.randrange(1, 10**6),
            policy=rng.choice(VALID_POLICIES),
            mobility=rng.choice(VALID_MOBILITY),
            zones=zones,
            nodes=rng.randint(fewest, max(fewest, 60)),
            energy_min=low,
            energy_max=high,
            noise_spread=rng.choice([0.0, rng.uniform(0.0, 0.2)]),
            duration=rng.uniform(10.0, 20.0),
        ))
    return configs


def test_random_configs_keep_the_run_invariants():
    configs = random_configs(11, FUZZ_DRAWS)
    assert len(configs) == FUZZ_DRAWS
    deaths = 0
    for cfg in configs:
        assert cfg.validate() == []
        sim = Simulator(cfg)
        assert invariant_problems(sim.ledger, sim.run()) == [], cfg
        deaths += sum(p.status == "dropped-node-death" for p in sim.ledger.packets.values())
    # the near-zero batteries really reach the node-death branch
    assert deaths > 0

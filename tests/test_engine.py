import copy
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from bless_golden import GOLDEN_TRACES
from oracles import oracle_energy_totals, oracle_shortest_path, oracle_waste_fraction

from rltrc import policy
from rltrc.config import ScenarioConfig
from rltrc.control import BroadcastCircle
from rltrc.engine import (
    MobilityState,
    QueuedPacket,
    Simulator,
    _reflect,
    advance_toward,
    mobility_step,
    run,
    shortest_route,
)
from rltrc.linkcache import CommCacheEntry
from rltrc.metrics import PacketStat, render_csv
from rltrc.model import NodeState
from rltrc.policy import SigmaInputs, compute_sigma
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
        mobility_step(node, state, "random-waypoint", 1.0, 5.0,
                      random.Random(0), (10.0, 10.0), 2.0, 0.5)
        assert node.position[0] == pytest.approx(0.6)
        assert node.position[1] == pytest.approx(0.8)

    def test_overshoot_stops_on_target(self):
        assert advance_toward((0.0, 0.0), (1.0, 0.0), 5.0) == (1.0, 0.0)

    def test_pause_freezes_the_node(self):
        node = make_node(pos=(2.0, 2.0))
        state = MobilityState(waypoint=(9.0, 9.0), speed=1.0, pause_until=7.0)
        mobility_step(node, state, "random-waypoint", 1.0, 5.0,
                      random.Random(0), (10.0, 10.0), 2.0, 0.5)
        assert node.position == (2.0, 2.0)

    def test_static_node_never_moves(self):
        node = make_node(pos=(1.0, 1.0), vmax=0.0)
        state = MobilityState()
        for t in range(20):
            mobility_step(node, state, "random-waypoint", 0.5, 0.5 * t,
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
                mobility_step(node, state, model, 0.5, 0.5 * t,
                              rng, (10.0, 10.0), 2.0, 0.5)
                x, y = node.position
                assert 0.0 <= x <= 10.0 and 0.0 <= y <= 10.0
                step = math.dist(prev, node.position)
                assert step <= 3.0 * 0.5 + 1e-9
                prev = node.position

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            mobility_step(make_node(), MobilityState(), "teleport", 1.0, 0.0,
                          random.Random(0), (10.0, 10.0), 2.0, 0.5)

    def test_waypoint_speed_resamples_within_band(self):
        node = make_node(pos=(0.0, 0.0), vmax=2.0)
        state = MobilityState(waypoint=(0.0, 0.0), speed=0.0)
        rng = random.Random(4)
        seen = []
        for t in range(300):
            mobility_step(node, state, "random-waypoint", 0.5, 0.5 * t,
                          rng, (50.0, 50.0), 0.0, 0.5)
            if state.speed > 0.0:
                seen.append(state.speed)
        assert seen
        assert all(0.05 * 2.0 <= s <= 2.0 for s in seen)


def route_over(adjacency, src, dst):
    """shortest_route over a dict of out-lists."""
    preds = {}
    for u, outs in adjacency.items():
        for v in outs:
            preds.setdefault(v, []).append(u)
    return shortest_route(lambda v: preds.get(v, ()), lambda u: adjacency.get(u, ()), src, dst)


class TestRouting:
    def test_line_graph(self):
        adj = {0: [1], 1: [0, 2], 2: [1]}
        assert route_over(adj, 0, 2) == (0, 1, 2)

    def test_complete_graph_is_one_hop(self):
        adj = {i: [j for j in range(4) if j != i] for i in range(4)}
        assert route_over(adj, 1, 3) == (1, 3)

    def test_disconnected_returns_none(self):
        adj = {0: [1], 1: [0], 2: [3], 3: [2]}
        assert route_over(adj, 0, 3) is None

    def test_src_equals_dst(self):
        assert route_over({0: []}, 0, 0) == (0,)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(2, 9)
            adj = {i: set() for i in range(n)}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        adj[i].add(j)
                        adj[j].add(i)
            got = route_over({k: sorted(v) for k, v in adj.items()}, 0, n - 1)
            want = oracle_shortest_path(adj, 0, n - 1)
            if want is None:
                assert got is None
            else:
                assert list(got) == want


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
        sim.caches[0][1] = CommCacheEntry(sig_atn=0.14, reliable=False)
        route = sim._discover_route(0, 3, [0, 1, 2, 3, 4])
        assert route == (0, 4, 2, 3)

    def test_unreliable_link_used_as_last_resort(self):
        sim = discovery_sim(4, [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (60.0, 0.0)])
        sim.caches[0][1] = CommCacheEntry(sig_atn=0.14, reliable=False)
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
        src = next(n.id for n in sim.nodes.values() if n.zone_id == src_zone)
        z = sim.zones[spans[0]]
        circle = BroadcastCircle(center=(z.x0, z.y0), radius=1.0, spans_zones=spans)
        assert sim._corridor_zones(src, circle) == want

    def test_flood_scope_unions_corridor_and_circle(self):
        sim = discovery_sim(4, [(10.0, 0.0), (20.0, 0.0), (50.0, 0.0), (110.0, 0.0)])
        from rltrc.control import assign_zones

        assign_zones(sim.nodes, sim.zones)
        circle = BroadcastCircle(center=(110.0, 0.0), radius=5.0, spans_zones=(2,))
        # corridor limited to zone 0: zone-members 0,1 plus node 3 via the circle
        scope = sim._flood_scope(0, circle, (0,))
        assert scope == [0, 1, 3]


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
    select_rltrc = sim._select_rltrc

    def tracked(node, *args):
        senders.append(node)
        return select_rltrc(node, *args)

    select = policy.select_power_level
    used = []

    def checked(available, sigma, reliable, rng):
        zone = sim.zones[sim.nodes[senders[-1]].zone_id]
        used.append((sigma, compute_sigma(SigmaInputs(zone.reward_ri, sim.network.cached))))
        return select(available, sigma, reliable, rng)

    sim._select_rltrc = tracked
    monkeypatch.setattr(policy, "select_power_level", checked)
    sim.run()
    assert len(used) > 1000
    assert len({want for _, want in used}) > 1
    assert all(got == want for got, want in used)


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
        on_ack = sim._on_ack_arrival
        raced = []

        def timeout_first(row, rss):
            if raced:
                return on_ack(row, rss)
            sim._on_ack_timeout(row)
            assert row.outcome == "timeout"
            before = copy.deepcopy(
                (sim.caches, sim.reward_states, sim.ledger.invest_rows, sim.packet_invested)
            )
            on_ack(row, rss)
            raced.append(row)
            assert row.outcome == "timeout"
            assert (sim.caches, sim.reward_states, sim.ledger.invest_rows,
                    sim.packet_invested) == before

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
    entry = sim.caches[sn.src][sn.dst]
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
        assert not sim.caches[sn.src][sn.dst].reliable
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
        invest, waste = len(sim.ledger.invest_rows), len(sim.ledger.waste_rows)
        handler(*args)
        # the circle flood finds the route, so it is the one flood
        [(_, zone, flood_e, flood_t)] = sim.ledger.invest_rows[invest:]
        assert zone == sn.home_zone and flood_e > 0.0 and flood_t > 0.0
        assert sim.ledger.waste_rows[waste:] == [
            (sim.t, sn.home_zone, 0.0 + flood_e + 7.0, 0.0 + flood_t + 0.25)
        ]


class TestEndToEnd:
    def test_lossless_pair_delivers_everything(self):
        rep = run(scenario("lossless-pair"))
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
        rep = run(scenario("lossless-pair", duration=0.0))
        assert rep.ntg is None
        assert rep.omc == 0
        assert rep.paln == 100.0
        assert rep.ec == 0.0

    def test_packet_statuses_are_consistent(self):
        sim = Simulator(scenario("desk-conserve"))
        sim.run()
        for stat in sim.ledger.packets.values():
            if stat.status == "delivered":
                assert stat.delivered_at is not None
                assert stat.delivered_at >= stat.generated_at
            else:
                assert stat.delivered_at is None
                assert stat.status == "pending" or stat.status.startswith("dropped-")

    def test_energy_conservation_and_replay(self):
        sim = Simulator(scenario("desk-conserve"))
        sim.run()
        led = sim.ledger
        drops = math.fsum(
            led.initial_energy[n] - led.final_energy[n] for n in led.initial_energy
        )
        assert drops == pytest.approx(led.total_debits(), rel=1e-9)
        replayed = oracle_energy_totals(
            led.initial_energy, [(r[1], r[3]) for r in led.debits]
        )
        for nid, residual in replayed.items():
            assert led.final_energy[nid] == pytest.approx(residual, abs=1e-12)
        assert all(v >= 0.0 for v in led.final_energy.values())

    def test_waste_never_exceeds_investment(self):
        for name in ("desk-conserve", "desk-compare"):
            sim = Simulator(scenario(name))
            sim.run()
            led = sim.ledger
            awe, awt = oracle_waste_fraction(
                [(r[2], r[3]) for r in led.waste_rows],
                [(r[2], r[3]) for r in led.invest_rows],
            )
            assert 0.0 <= awe <= 100.0
            assert 0.0 <= awt <= 100.0

    def test_same_seed_same_bytes(self):
        cfg = scenario("desk-compare", seed=3)
        a = Simulator(cfg)
        ra = a.run()
        b = Simulator(cfg)
        rb = b.run()
        assert render_csv(ra) == render_csv(rb)
        assert render_csv(ra.series) == render_csv(rb.series)
        assert a.ledger.debits == b.ledger.debits

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

    def test_module_level_run_matches_simulator(self):
        cfg = scenario("desk-conserve")
        assert render_csv(run(cfg)) == render_csv(Simulator(cfg).run())

    def test_too_few_mobile_nodes_rejected(self):
        from rltrc.config import ConfigError

        with pytest.raises(ConfigError):
            Simulator(scenario("desk-conserve", nodes=7, peripherals_per_zone=2))

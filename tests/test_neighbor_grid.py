"""Grid-based link and neighbor search against all-pairs oracles.

Layouts are seeded and built to stress the cell grid: nodes on exact
multiples of the cell side and at the arena corners, coincident nodes,
nodes exactly one reach apart across a cell border, radio ranges across
10-40 m, zero and oversized route margins, dead nodes and dead sources.
"""

import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import oracle_neighbor_counts, oracle_route, oracle_route_links

from rltrc.control import ZoneController, neighbor_counts
from rltrc.engine import Simulator
from rltrc.linkcache import CommCacheEntry
from rltrc.scenarios import scenario

WIDTH, HEIGHT = 100.0, 75.0
NODES = 80
LAYOUTS = range(12)


def scattered_sim(rng: random.Random) -> Simulator:
    """A static world whose nodes sit where cell borders matter.

    Node 0 carries the largest radio range and stays alive, so it fixes the
    cell side of every discovery and sync that includes it: the largest
    reach plus 1 m, or the largest range plus 1 m.
    """
    margin = rng.choice((0.0, 0.0, rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0), 45.0))
    cfg = scenario("lossless-pair", nodes=NODES, sessions=1, arena_width=WIDTH,
                   arena_height=HEIGHT, duration=0.0, route_margin=margin)
    sim = Simulator(cfg)
    nodes = sim.nodes
    top = rng.uniform(20.0, 40.0)
    for n in nodes.values():
        n.radio_range = rng.uniform(10.0, top)
        n.min_rcv = rng.uniform(0.5, 8.0)
        n.residual_energy = 0.0 if rng.random() < 0.1 else 5.0
    nodes[0].radio_range = top
    nodes[0].residual_energy = 5.0
    sides = (max(top - margin, 0.0) + 1.0, top + 1.0)
    corners = [(0.0, 0.0), (WIDTH, 0.0), (0.0, HEIGHT), (WIDTH, HEIGHT)]
    for nid in sorted(nodes):
        kind = rng.random()
        if kind < 0.2:
            side = rng.choice(sides)
            pos = (side * rng.randrange(int(WIDTH // side) + 1),
                   side * rng.randrange(int(HEIGHT // side) + 1))
        elif kind < 0.25:
            pos = rng.choice(corners)
        elif kind < 0.35 and nid:
            pos = nodes[rng.randrange(nid)].position
        elif kind < 0.5 and nid:
            base = nodes[rng.randrange(nid)]
            reach = rng.choice((base.radio_range, max(base.radio_range - margin, 0.0)))
            pos = (base.position[0] + rng.choice((-reach, reach)), base.position[1])
        else:
            pos = (rng.uniform(0.0, WIDTH), rng.uniform(0.0, HEIGHT))
        nodes[nid].position = pos
    for _ in range(10 * NODES):
        u, v = rng.sample(sorted(nodes), 2)
        sim.caches[u][v] = CommCacheEntry(sig_atn=0.14, reliable=rng.random() < 0.2)
    return sim


def recorded_alpha(sim, monkeypatch) -> list[tuple[int, int]]:
    """Every (u, v) the simulator's channel is asked for, in call order."""
    alpha = sim.channel.alpha
    asked = []

    def recorded(u, v):
        asked.append((u, v))
        return alpha(u, v)

    monkeypatch.setattr(sim.channel, "alpha", recorded)
    return asked


@pytest.mark.parametrize("layout_seed", LAYOUTS)
def test_discovery_matches_all_pairs_oracle(layout_seed, monkeypatch):
    rng = random.Random(layout_seed)
    sim = scattered_sim(rng)
    ids = sorted(sim.nodes)
    alpha = sim.channel.alpha
    asked = recorded_alpha(sim, monkeypatch)
    for query in range(48):
        src, dst = rng.choice(ids), rng.choice(ids)
        if query == 0 and src:
            sim.nodes[src].residual_energy = 0.0
        scope = sorted(set(ids) - set(rng.sample(ids, rng.randrange(NODES // 2))) | {0, src})
        oracle_asked = set()
        adjacency, risky = oracle_route_links(
            sim.nodes, scope, src, sim.cfg.route_margin,
            lambda u, v: oracle_asked.add((u, v)) or alpha(u, v), sim.caches)
        want = None
        if src in adjacency and dst in adjacency:
            want = oracle_route(adjacency, src, dst)
            if want is None:
                want = oracle_route({u: sorted(adjacency[u] + risky[u]) for u in adjacency},
                                    src, dst)

        asked.clear()
        assert sim._discover_route(src, dst, scope) == want
        assert set(asked) <= oracle_asked


def test_discovery_stops_at_the_source(monkeypatch):
    """On a chain, a search from the middle never tests a link out of a node
    beyond the source, on the far side from the destination."""
    cfg = scenario("lossless-pair", nodes=8, sessions=1, arena_width=160.0,
                   arena_height=30.0, duration=0.0)
    sim = Simulator(cfg)
    for nid, n in sim.nodes.items():
        n.position = (20.0 * nid, 0.0)
        n.radio_range = 35.0
    asked = recorded_alpha(sim, monkeypatch)
    assert sim._discover_route(4, 7, list(range(8))) == (4, 5, 6, 7)
    assert asked
    assert all(u >= 4 for u, _ in asked)
    asked.clear()
    assert sim._discover_route(3, 0, list(range(8))) == (3, 2, 1, 0)
    assert all(u <= 3 for u, _ in asked)


@pytest.mark.parametrize("layout_seed", LAYOUTS)
def test_sync_neighbor_counts_match_all_pairs_oracle(layout_seed):
    rng = random.Random(layout_seed)
    sim = scattered_sim(rng)
    alive = [n for n in sim.nodes.values() if n.alive]
    want = oracle_neighbor_counts(sim.nodes, [n.id for n in alive])
    neighbors = neighbor_counts(alive)
    assert neighbors == want
    members = set(rng.sample([n.id for n in alive], rng.randrange(1, len(alive)))) | {0}
    zone = sim.zones[0]
    zone.member_nodes = members
    ZoneController(zone, {}).sync(0.0, sim.nodes, sim.reward_states, neighbors=neighbors)
    assert zone.phi == math.fsum(want[m] for m in members) / len(members)
    assert neighbor_counts([]) == {}


@pytest.mark.parametrize("share", [0.5, 1.0])
def test_sync_recounts_after_a_zone_state_death(share):
    """A zone-0 member whose energy is at most its zone-state charge dies
    mid-tick; zone 1, synced after it, no longer counts it as a neighbour.
    With share 1.0 the charge is paid in full and still leaves it dead."""
    cfg = scenario("lossless-pair", nodes=6, sessions=1, arena_width=90.0,
                   arena_height=30.0, duration=0.0)
    sim = Simulator(cfg)
    spots = [(25.0, 15.0), (5.0, 15.0), (35.0, 15.0), (50.0, 15.0), (65.0, 15.0), (80.0, 15.0)]
    for nid, pos in enumerate(spots):
        sim.nodes[nid].position = pos
    doomed = sim.nodes[0]
    doomed.residual_energy = share * doomed.min_power * cfg.airtime
    ids = sorted(sim.nodes)
    before = oracle_neighbor_counts(sim.nodes, ids)

    sim._on_controller_sync()

    assert not doomed.alive
    zone0, zone1 = sim.zones[0], sim.zones[1]
    assert zone0.member_nodes == {0, 1} and zone1.member_nodes == {2, 3}
    assert zone0.phi == math.fsum(before[m] for m in (0, 1)) / 2
    after = oracle_neighbor_counts(sim.nodes, ids)
    assert after[2] < before[2] and after[3] < before[3]
    assert zone1.phi == math.fsum(after[m] for m in (2, 3)) / 2

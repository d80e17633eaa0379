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

from rltrc.control import Tick, ZoneController, neighbor_counts
from rltrc.engine import Channel, Simulator
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
    for n in nodes:
        n.radio_range = rng.uniform(10.0, top)
        n.min_rcv = rng.uniform(0.5, 8.0)
        n.residual_energy = 0.0 if rng.random() < 0.1 else 5.0
    nodes[0].radio_range = top
    nodes[0].residual_energy = 5.0
    sides = (max(top - margin, 0.0) + 1.0, top + 1.0)
    corners = [(0.0, 0.0), (WIDTH, 0.0), (0.0, HEIGHT), (WIDTH, HEIGHT)]
    for nid in range(NODES):
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
        u, v = rng.sample(range(NODES), 2)
        sim.runtime[u].links[v] = CommCacheEntry(sig_atn=0.14, reliable=rng.random() < 0.2)
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


def oracle_queries(sim, rng, alpha):
    """48 seeded discovery queries `(src, dst, scope, want, oracle_asked)`:
    the route the all-pairs oracle finds and the pairs it asks the channel
    about. The first query's source is dead unless it is node 0."""
    ids = list(range(NODES))
    for query in range(48):
        src, dst = rng.choice(ids), rng.choice(ids)
        if query == 0 and src:
            sim.nodes[src].residual_energy = 0.0
        scope = sorted(set(ids) - set(rng.sample(ids, rng.randrange(NODES // 2))) | {0, src})
        oracle_asked = set()
        adjacency, risky = oracle_route_links(
            sim.nodes, scope, sim.cfg.route_margin,
            lambda u, v: oracle_asked.add((u, v)) or alpha(u, v),
            [rt.links for rt in sim.runtime])
        want = None
        if src in adjacency and dst in adjacency:
            want = oracle_route(adjacency, src, dst)
            if want is None:
                want = oracle_route({u: sorted(adjacency[u] + risky[u]) for u in adjacency},
                                    src, dst)
        yield src, dst, scope, want, oracle_asked


@pytest.mark.parametrize("layout_seed", LAYOUTS)
def test_discovery_matches_all_pairs_oracle(layout_seed, monkeypatch):
    rng = random.Random(layout_seed)
    sim = scattered_sim(rng)
    alpha = sim.channel.alpha
    asked = recorded_alpha(sim, monkeypatch)
    for src, dst, scope, want, oracle_asked in oracle_queries(sim, rng, alpha):
        asked.clear()
        assert sim._discover_route(src, dst, scope) == want
        assert set(asked) <= oracle_asked


def recorded_link_tests(sim, monkeypatch) -> list[tuple[int, int]]:
    """Every link u -> v the route search measures, in call order.

    Each link test computes one `math.hypot(xv - xu, yv - yu)`. Node k is
    placed at height 2**k / 1024, so the exact height difference names the
    ordered pair.
    """
    nodes = sim.nodes
    for n in nodes:
        n.position = (n.position[0], 2.0 ** n.id / 1024.0)
    pairs = {}
    for u, nu in enumerate(nodes):
        for v, nv in enumerate(nodes):
            if u != v:
                pairs[(nv.position[0] - nu.position[0], nv.position[1] - nu.position[1])] = (u, v)
    hypot = math.hypot
    tested = []

    def recorded(dx, dy):
        tested.append(pairs[(dx, dy)])
        return hypot(dx, dy)

    monkeypatch.setattr(math, "hypot", recorded)
    return tested


def test_discovery_stops_at_the_source(monkeypatch):
    """On a chain, a search from the middle tests only links into nodes
    strictly between the source and the destination: the backward search
    never labels beyond the source, and the descent only tries nodes one
    hop closer to the destination."""
    cfg = scenario("lossless-pair", nodes=8, sessions=1, arena_width=160.0,
                   arena_height=30.0, duration=0.0)
    sim = Simulator(cfg)
    for n in sim.nodes:
        n.position = (20.0 * n.id, 0.0)
        n.radio_range = 35.0
    tested = recorded_link_tests(sim, monkeypatch)
    assert sim._discover_route(4, 7, list(range(8))) == (4, 5, 6, 7)
    assert {(4, 5), (5, 6), (6, 7)} <= set(tested)
    assert all(v > 4 for _, v in tested)
    tested.clear()
    assert sim._discover_route(3, 0, list(range(8))) == (3, 2, 1, 0)
    assert {(3, 2), (2, 1), (1, 0)} <= set(tested)
    assert all(v < 3 for _, v in tested)


# equal ends, spans of one ulp, decimals with no exact float, tiny magnitudes,
# and spans where lo + (hi - lo) rounds above hi
@pytest.mark.parametrize("span", [
    (0.2, 0.4), (0.10, 0.18), (0.3, 0.3), (0.1, math.nextafter(0.1, 1.0)), (0.1, 0.7),
    (1.0 / 3.0, 2.0 / 3.0), (1e-300, 3e-300), (0.7, 12.3), (0.06, 0.6), (0.33, 0.9),
])
def test_alpha_never_exceeds_the_ceiling(span):
    lo, hi = span
    channel = Channel(7, lo, hi)
    ceiling = channel.ceiling
    assert ceiling == lo + (hi - lo)
    assert all(channel.alpha(u, v) <= ceiling for u in range(60) for v in range(u + 1, 60))
    # the largest draw `random()` can make still stays at or below it
    top = 1.0 - 2.0 ** -53

    class Highest(random.Random):
        def random(self):
            return top

    assert Highest().uniform(lo, hi) <= ceiling


def test_discovery_with_undecided_links_matches_all_pairs_oracle(monkeypatch):
    """Receive floors of 16-23 against top powers of 5-25 leave links the
    ceiling clears, links it cannot decide and links that fail. The channel
    is asked about undecided links only, and routes still match the oracle."""
    cleared = undecided = asked_pass = asked_fail = 0
    for layout_seed in LAYOUTS:
        rng = random.Random(layout_seed)
        sim = scattered_sim(rng)
        nodes, ceiling = sim.nodes, sim.channel.ceiling
        for n in nodes:
            n.min_rcv = rng.uniform(16.0, 23.0)
        alpha = sim.channel.alpha
        asked = recorded_alpha(sim, monkeypatch)

        def budget(u, v, coefficient):
            d = math.dist(nodes[u].position, nodes[v].position)
            return nodes[u].max_power - coefficient * d >= nodes[v].min_rcv

        for src, dst, scope, want, oracle_asked in oracle_queries(sim, rng, alpha):
            asked.clear()
            got = sim._discover_route(src, dst, scope)
            assert got == want
            assert set(asked) <= oracle_asked
            assert not any(budget(u, v, ceiling) for u, v in asked)
            exact = [budget(u, v, alpha(u, v)) for u, v in asked]
            asked_pass += sum(exact)
            asked_fail += len(exact) - sum(exact)
            hops = [budget(u, v, ceiling) for u, v in zip(got, got[1:])] if got else []
            cleared += sum(hops)
            undecided += len(hops) - sum(hops)
    # both branches decided links, the exact one both ways, and routes used both kinds
    assert cleared and undecided and asked_pass and asked_fail


@pytest.mark.parametrize("layout_seed", LAYOUTS)
def test_sync_neighbor_counts_match_all_pairs_oracle(layout_seed):
    rng = random.Random(layout_seed)
    sim = scattered_sim(rng)
    alive = [n for n in sim.nodes if n.alive]
    want = oracle_neighbor_counts(sim.nodes, [n.id for n in alive])
    records = [(n.id, n.position[0], n.position[1], n.radio_range) for n in alive]
    assert neighbor_counts(records) == want
    members = set(rng.sample([n.id for n in alive], rng.randrange(1, len(alive)))) | {0}
    zone = sim.zones[0]
    zone.member_nodes = members
    ctl = ZoneController(zone, {})
    ctl.sync(0.0, sim.nodes, sim.reward_states, tick=Tick(sim.nodes))
    assert ctl.geometry(sim.nodes).phi == math.fsum(want[m] for m in members) / len(members)
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
    ids = range(len(sim.nodes))
    before = oracle_neighbor_counts(sim.nodes, ids)

    sim._on_controller_sync()

    assert not doomed.alive
    zone0, zone1 = sim.zones[0], sim.zones[1]
    assert zone0.member_nodes == {0, 1} and zone1.member_nodes == {2, 3}
    assert sim.controllers[0].geometry(sim.nodes).phi == math.fsum(before[m] for m in (0, 1)) / 2
    after = oracle_neighbor_counts(sim.nodes, ids)
    assert after[2] < before[2] and after[3] < before[3]
    assert sim.controllers[1].geometry(sim.nodes).phi == math.fsum(after[m] for m in (2, 3)) / 2

"""Independent oracles used to pin expected values in the test suite.

These deliberately avoid the package's own formulas: the disc-sampling oracle
estimates the expected farthest neighbor by Monte Carlo, the path oracle
enumerates simple paths, the route oracle runs a full breadth-first search,
the ledger oracle re-adds the rows a ledger spy copied as the run booked
them, the packet oracle recounts every packet stat the spy kept, the
mobility oracle moves one node at a time, the world oracle replays a
world's construction draws from a fresh generator, and the link, neighbor
and diameter oracles scan every pair of nodes. Test modules freeze the numbers
these produce or compare against them; the oracles stay here so the
derivation can be re-run.

The link-estimator references are here too: one function per estimate that
`linkcache.record_ack` folds into a cache entry in one pass, the running
averages it keeps as sums, and the broadcast-circle membership test that
`Simulator._flood_scope` makes inline.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np


def oracle_max_distance(n: int, radius: float, samples: int, seed: int) -> float:
    """Monte Carlo estimate of E[max of n distances] for uniform points in a disc.

    A uniform point in a disc of radius R sits at distance R*sqrt(U) from the
    center, U uniform on [0,1]. Draw n such distances per sample, take the
    max, average over samples.
    """
    rng = np.random.default_rng(seed)
    dists = radius * np.sqrt(rng.random((samples, n)))
    return float(dists.max(axis=1).mean())


def oracle_shortest_path(adjacency: dict[int, set[int]], src: int, dst: int) -> list[int] | None:
    """Brute-force minimum-hop path, ties broken by node-sequence order.

    Enumerates all simple paths (fine for the <=12 node graphs used in
    tests) and returns the one minimizing (length, node sequence). None when
    dst is unreachable.
    """
    best: list[int] | None = None

    def walk(path: list[int], seen: set[int]) -> None:
        nonlocal best
        node = path[-1]
        if node == dst:
            if best is None or (len(path), path) < (len(best), best):
                best = list(path)
            return
        if best is not None and len(path) >= len(best):
            return
        for nxt in sorted(adjacency.get(node, ())):
            if nxt not in seen:
                path.append(nxt)
                seen.add(nxt)
                walk(path, seen)
                seen.remove(nxt)
                path.pop()

    walk([src], {src})
    return best


def oracle_route(adjacency: dict[int, list[int]], src: int, dst: int) -> tuple[int, ...] | None:
    """Minimum-hop path, ties broken by node-sequence order, by a full search.

    Labels every node that can reach dst with its hop count by a backward
    breadth-first search over the whole graph, then descends from src to
    the lowest-id neighbor one hop closer.
    """
    if src == dst:
        return (src,)
    preds: dict[int, list[int]] = {}
    for u, outs in adjacency.items():
        for v in outs:
            preds.setdefault(v, []).append(u)
    dist_to = {dst: 0}
    frontier = [dst]
    while frontier:
        nxt = []
        for v in frontier:
            for u in preds.get(v, ()):
                if u not in dist_to:
                    dist_to[u] = dist_to[v] + 1
                    nxt.append(u)
        frontier = nxt
    if src not in dist_to:
        return None
    path = [src]
    while path[-1] != dst:
        here = path[-1]
        path.append(min(v for v in adjacency[here] if dist_to.get(v, -1) == dist_to[here] - 1))
    return tuple(path)


def oracle_waste_fraction(waste_rows, invest_rows) -> tuple[float, float]:
    """Recompute energy- and time-waste percentages from raw ledger rows.

    Each row is (amount_energy, amount_time). Returns (energy_pct, time_pct)
    as 100 * wasted / invested, 0.0 when nothing was invested.
    """
    we = math.fsum(r[0] for r in waste_rows)
    wt = math.fsum(r[1] for r in waste_rows)
    ie = math.fsum(r[0] for r in invest_rows)
    it = math.fsum(r[1] for r in invest_rows)
    return (100.0 * we / ie if ie else 0.0, 100.0 * wt / it if it else 0.0)


def oracle_energy_totals(initial: dict[int, float], debit_rows) -> dict[int, float]:
    """Replay per-node energy debits and return expected residuals.

    debit_rows are (node_id, amount) in ledger order; residuals floor at
    zero exactly like the simulator's drain rule.
    """
    residual = dict(initial)
    for node_id, amount in debit_rows:
        residual[node_id] = max(0.0, residual[node_id] - amount)
    return residual


class LedgerSpy:
    """Copies of the rows a run books into one ledger, taken at its calls.

    Wraps the ledger instance's `record_debit`, `record_debits`,
    `record_waste` and `record_invest`, so tests can replay and re-sum a
    run's rows without reading how the ledger stores them. Each `*_calls`
    list holds one tuple per row in booking order, `(node, kind, joules)`
    for debits and `(t, zone, energy, seconds)` otherwise, including the
    all-zero waste and investment calls the ledger itself keeps no row for.
    A batched `record_debits(nodes, kind, joules)` call adds one debit
    tuple per node, in the batch's order. It also wraps the ledger's
    `attempts.book`: `attempt_rows` keeps every `AttemptRow` the run
    books, in order, as the object itself, so its outcome reads as the run
    left it though the ledger keeps only counts. Likewise
    `packet_stats` keeps every `PacketStat` put in the ledger's live
    packets, in order, so its fields read as the run left them after the
    ledger has retired the packet into its counts.
    """

    def __init__(self, ledger) -> None:
        self.debit_calls: list[tuple] = []
        self.waste_calls: list[tuple] = []
        self.invest_calls: list[tuple] = []
        for name, rows in (("record_debit", self.debit_calls),
                           ("record_waste", self.waste_calls),
                           ("record_invest", self.invest_calls)):
            setattr(ledger, name, self._copying(getattr(ledger, name), rows))
        record_debits, debit_calls = ledger.record_debits, self.debit_calls

        def spy_batch(nodes, kind, joules):
            assert len(nodes) == len(joules)
            debit_calls.extend((node, kind, paid) for node, paid in zip(nodes, joules))
            record_debits(nodes, kind, joules)

        ledger.record_debits = spy_batch
        attempt_rows, book = [], ledger.attempts.book
        self.attempt_rows = attempt_rows

        def spy_attempt(row):
            attempt_rows.append(row)
            book(row)

        ledger.attempts.book = spy_attempt
        self.packet_stats: list = list(ledger.packets.live.values())
        ledger.packets.live = _KeepingDict(ledger.packets.live, self.packet_stats)

    @staticmethod
    def _copying(record, rows):
        def spy(*row):
            rows.append(row)
            record(*row)
        return spy


class _KeepingDict(dict):
    """A dict that also appends every value stored under a key to `kept`."""

    def __init__(self, items, kept: list) -> None:
        super().__init__(items)
        self.kept = kept

    def __setitem__(self, key, value) -> None:
        self.kept.append(value)
        super().__setitem__(key, value)


def oracle_packet_metrics(stats) -> tuple[Counter, float | None, float]:
    """(packets per status, NTG, ADL) over every packet stat of a run.

    NTG is 100 * delivered / transmitted over the stats sent at least once,
    None when none was; ADL is the fsum of the delivered stats' latencies
    over their count, 0.0 when none was delivered.
    """
    transmitted = [p for p in stats if p.attempts > 0]
    delivered = [p for p in stats if p.status == "delivered"]
    ntg = 100.0 * len(delivered) / len(transmitted) if transmitted else None
    adl = (math.fsum(p.delivered_at - p.generated_at for p in delivered) / len(delivered)
           if delivered else 0.0)
    return Counter(p.status for p in stats), ntg, adl


def oracle_ledger_recheck(ledger, spy: LedgerSpy) -> tuple[float, float, float, float, float]:
    """Flat re-summation of a finished run: (ew, et, ec, awe, awt).

    Carries no incremental state: wasted energy/time are single fsums over
    the waste rows the spy copied, consumption is the ledger's
    initial-minus-final sum, and the percentages divide the flat totals.
    Disagreement with the incremental pipeline means one of the two is
    double-counting.
    """
    ew = math.fsum(r[2] for r in spy.waste_calls)
    et = math.fsum(r[3] for r in spy.waste_calls)
    ie = math.fsum(r[2] for r in spy.invest_calls)
    it = math.fsum(r[3] for r in spy.invest_calls)
    ec = math.fsum(
        ledger.initial_energy[n] - ledger.final_energy.get(n, ledger.initial_energy[n])
        for n in ledger.initial_energy
    )
    awe = 100.0 * ew / ie if ie > 0.0 else 0.0
    awt = 100.0 * et / it if it > 0.0 else 0.0
    return ew, et, ec, awe, awt


def oracle_route_links(nodes, scope, margin, floor, alpha, links):
    """All-pairs scan for the links route discovery may use.

    Live nodes are the scope's alive nodes. u -> v is a link when
    v lies within u's reach (radio range less margin, floored at zero) and
    u's top power still arrives at or above the receive floor `floor` over
    the channel coefficient alpha(u, v), which is asked for in-reach pairs
    only. Links whose cache entry `links[u][v]` is graded unreliable go to
    the risky map. Returns (adjacency, risky) keyed in live order,
    adjacency lists sorted.
    """
    live = [n for n in scope if nodes[n].residual_energy > 0.0]
    adjacency = {u: [] for u in live}
    risky = {u: [] for u in live}
    for u in live:
        nu = nodes[u]
        reach = max(nu.radio_range - margin, 0.0)
        for v in live:
            if u == v:
                continue
            nv = nodes[v]
            d = math.dist(nu.position, nv.position)
            if d <= reach and nu.power_levels[-1] - alpha(u, v) * d >= floor:
                entry = links[u].get(v)
                if entry is not None and not entry.reliable:
                    risky[u].append(v)
                else:
                    adjacency[u].append(v)
    return {u: sorted(outs) for u, outs in adjacency.items()}, risky


def oracle_neighbor_counts(nodes, members) -> dict[int, int]:
    """For each member, the alive other nodes within its radio range, by
    scanning every node."""
    return {
        m: sum(
            1
            for other in nodes
            if other.id != m
            and other.residual_energy > 0.0
            and math.dist(nodes[m].position, other.position) <= nodes[m].radio_range
        )
        for m in members
    }


def oracle_membership_diameter(points) -> float:
    """Largest distance between two of the points, over every pair."""
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = max(best, math.dist(points[i], points[j]))
    return best


def oracle_world_draws(cfg, seed, zones):
    """The nodes and sessions a world of `cfg` draws from a fresh
    `random.Random(seed)`, replayed in the documented order.

    Peripherals come first, zone by zone: each is placed on its zone's
    internal edges (right, left, top, bottom, those inside the arena, in
    turn, 1 m in from the edge at evenly spaced fractions along it) and
    draws its level count, energy and radio range. Each mobile node then
    draws x, y, its level count, top speed, energy and radio range. Last,
    each session samples two distinct mobile ids. A node with k levels has
    `level_value_max` alone when k is 1, else k levels evenly spaced from
    `level_value_min` to `level_value_max`. Returns (nodes, sessions,
    state): per node (position, max_velocity, residual_energy, radio_range,
    power_levels), per session (src, dst), and the generator's `getstate()`
    after the last draw.
    """
    rng = random.Random(seed)
    w, h = cfg.arena_width, cfg.arena_height
    lo, hi = cfg.level_value_min, cfg.level_value_max

    def levels():
        k = rng.randint(cfg.level_count_min, cfg.level_count_max)
        return (hi,) if k == 1 else tuple(lo + (hi - lo) * i / (k - 1) for i in range(k))

    nodes = []
    for z in zones:
        places = [place for place, inside in (
            (lambda f: (z.x1 - 1.0, z.y0 + (z.y1 - z.y0) * f), z.x1 < w),
            (lambda f: (z.x0 + 1.0, z.y0 + (z.y1 - z.y0) * f), z.x0 > 0.0),
            (lambda f: (z.x0 + (z.x1 - z.x0) * f, z.y1 - 1.0), z.y1 < h),
            (lambda f: (z.x0 + (z.x1 - z.x0) * f, z.y0 + 1.0), z.y0 > 0.0),
        ) if inside]
        per_edge = math.ceil(cfg.peripherals_per_zone / len(places))
        for i in range(cfg.peripherals_per_zone):
            position = places[i % len(places)]((i // len(places) + 1) / (per_edge + 1))
            ks = levels()
            nodes.append((position, 0.0, rng.uniform(cfg.energy_min, cfg.energy_max),
                          rng.uniform(cfg.radio_range_min, cfg.radio_range_max), ks))
    mobile = list(range(len(nodes), cfg.nodes))
    for _ in mobile:
        position = (rng.uniform(0.0, w), rng.uniform(0.0, h))
        ks = levels()
        vmax = rng.uniform(cfg.vmax_min, cfg.vmax_max)
        energy = rng.uniform(cfg.energy_min, cfg.energy_max)
        nodes.append((position, vmax, energy,
                      rng.uniform(cfg.radio_range_min, cfg.radio_range_max), ks))
    sessions = [tuple(rng.sample(mobile, 2)) for _ in range(cfg.sessions)]
    return nodes, sessions, rng.getstate()


def oracle_mobility_tick(nodes, states, model, dt, t_now, rng, arena, pause_max, accel):
    """One mobility tick as a per-node loop: each alive node with a positive
    top speed takes its own step in turn, drawing from rng as it goes.

    random-waypoint heads for the waypoint at the leg's speed, lands exactly
    on it when the step would reach it, then pauses; a stopped node draws a
    new waypoint and speed first. random-walk steps at top speed in a
    uniform heading; gaussian adds Gaussian noise to the velocity and caps
    its speed. Both fold a step that leaves the arena back in, and gaussian
    reverses each velocity component that was folded.
    """
    w, h = arena

    def fold(x, hi):
        while x < 0.0 or x > hi:
            x = -x if x < 0.0 else 2.0 * hi - x
        return x

    for node, state in zip(nodes, states):
        vmax = node.max_velocity
        if node.residual_energy <= 0.0 or vmax <= 0.0:
            continue
        x, y = node.position
        if model == "random-waypoint":
            if t_now < state.pause_until:
                continue
            if state.speed <= 0.0 or node.position == state.waypoint:
                state.waypoint = (rng.uniform(0.0, w), rng.uniform(0.0, h))
                state.speed = rng.uniform(0.05 * vmax, vmax)
            tx, ty = state.waypoint
            step = state.speed * dt
            d = math.hypot(tx - x, ty - y)
            if d <= step or d == 0.0:
                node.position = state.waypoint
            else:
                node.position = (x + (tx - x) * (step / d), y + (ty - y) * (step / d))
            if node.position == state.waypoint:
                state.pause_until = t_now + rng.uniform(0.0, pause_max)
                state.speed = 0.0
        elif model == "random-walk":
            heading = rng.uniform(0.0, 2.0 * math.pi)
            node.position = (fold(x + vmax * dt * math.cos(heading), w),
                             fold(y + vmax * dt * math.sin(heading), h))
        else:
            vx = state.velocity[0] + rng.gauss(0.0, accel)
            vy = state.velocity[1] + rng.gauss(0.0, accel)
            speed = math.hypot(vx, vy)
            if speed > vmax:
                vx, vy = vx * (vmax / speed), vy * (vmax / speed)
            nx, ny = x + vx * dt, y + vy * dt
            rx, ry = fold(nx, w), fold(ny, h)
            state.velocity = (-vx if rx != nx else vx, -vy if ry != ny else vy)
            node.position = (rx, ry)


class UndefinedAttenuationError(ValueError):
    """Attenuation cannot be derived from a record with zero travel time."""


class VelocityUnobservableError(ValueError):
    """Simultaneous acks (or undefined attenuation) carry no velocity signal."""


def estimate_attenuation(rec1, rec2, vs: float) -> float:
    """Signal attenuation per meter from two acknowledged packets.

    Each packet's travelled distance is vs * (t_ack - t_msg); the per-packet
    fade is tx_power - rss. The estimate is the mean of fade/distance over
    both records.
    """
    d1 = vs * rec1.rtt
    d2 = vs * rec2.rtt
    if d1 <= 0.0 or d2 <= 0.0:
        raise UndefinedAttenuationError("record with zero travel time")
    ff1 = rec1.tx_power - rec1.rss
    ff2 = rec2.tx_power - rec2.rss
    return (ff1 / d1 + ff2 / d2) / 2.0


def detect_trend(rec1, rec2) -> int:
    """+1 when the successor is getting closer, -1 when receding, else 0.

    Closer: the later packet's round trip did not grow and the running
    average RSS did not drop. Receding: round trip grew and average RSS
    dropped. Mixed signals give 0.
    """
    rtt_ok = rec2.rtt <= rec1.rtt
    rss_ok = rec1.avg_rss_after <= rec2.avg_rss_after
    if rtt_ok and rss_ok:
        return 1
    if not rtt_ok and not rss_ok:
        return -1
    return 0


def estimate_velocity(rec1, rec2, sig_atn: float) -> float:
    """Approximate successor speed from the fade difference of two acks.

    The extra fade (FF2 - FF1) converts to extra distance at sig_atn per
    meter; that distance was covered over the wall-clock gap between the two
    acknowledgements. The fade difference is taken absolute so approaching
    and receding movers both yield a speed >= 0.
    """
    tm = rec2.t_ack - rec1.t_ack
    if tm <= 0.0 or sig_atn <= 0.0:
        raise VelocityUnobservableError("no usable velocity signal in this pair")
    ff1 = rec1.tx_power - rec1.rss
    ff2 = rec2.tx_power - rec2.rss
    return abs(ff2 - ff1) / (sig_atn * tm)


def expected_link_end(radio_range: float, vel: float, t_ack2: float) -> float:
    """Predicted time the successor exits reach: 2R/vel past the last ack.

    A zero velocity yields +inf (the link never expires by motion).
    """
    if vel <= 0.0:
        return math.inf
    return 2.0 * radio_range / vel + t_ack2


def avg_rss(entry) -> float:
    """A link cache's mean received strength over its acknowledged packets."""
    return entry.sum_rss / entry.packets_rx if entry.packets_rx else 0.0


def avg_tpl(entry) -> float:
    """A link cache's mean transmit power over its acknowledged packets."""
    return entry.sum_tpl / entry.packets_rx if entry.packets_rx else 0.0


def circle_contains(circle, p) -> bool:
    """True when point p lies in the closed broadcast circle."""
    (cx, cy), radius = circle.center, circle.radius
    return math.hypot(p[0] - cx, p[1] - cy) <= radius

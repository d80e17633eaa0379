"""Deterministic discrete-event simulator.

One logical clock, one master RNG, a single heap ordered by (fire_time,
sequence). Each heap entry is (fire_time, sequence, handler, args): the run
loop calls `handler(*args)`, where handler is a `Simulator._on_<kind>`
method bound when the event is pushed. Nodes, runtime records and sessions
are lists indexed by id, so walking them (and the flood scopes filtered from
them) is id order; zone member sets and session holder sets are sorted
where they are iterated. So equal (config, seed) pairs replay the exact same
trace.

A packet's one record is its ledger `PacketStat`: its fate, and its
forwarding state (holds, the nodes it reached, its acked-hop investment).
The record stays in `ledger.packets.live` only while some node holds the
pid: queues it, or has it on the air toward the next node. Every hold goes
through `_release`, and with the last one the record retires.

World model: signals travel at the configured speed vs, so a data packet
sent over a hop of length d arrives after d/(2 vs) and its acknowledgement
returns d/vs after the send; the round trip therefore encodes the hop
distance the way the link estimators expect. The ground-truth channel is
linear attenuation with a per-pair coefficient plus bounded uniform noise.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, Sequence

from . import linkcache, policy, rewards
from .config import ScenarioConfig
from .control import (
    BroadcastCircle,
    NetworkController,
    NodeTrack,
    Tick,
    ZoneController,
    assign_zones,
    destination_lookup,
    session_reporter,
)
from .linkcache import CommCacheEntry, PacketRecord
from .metrics import (
    AttemptRow,
    MetricsLedger,
    MetricsReport,
    PacketStat,
    compute_metrics,
    windowed_waste_series,
)
from .model import (
    NodeState,
    Point,
    ZoneState,
    grid_cells,
    make_zones,
    peripheral_spots,
    power_levels,
    zone_of,
)
from .rewards import (
    NodeRewardState,
    WasteLedger,
    accumulate_zone_waste,
    avg_hop_count,
    broadcast_cost,
    min_hop_count,
)


# ---------------------------------------------------------------------------
# channel

class Channel:
    """Ground-truth linear-attenuation radio with per-pair coefficients.

    Coefficients are drawn once per unordered node pair from a seed derived
    from the run seed and the pair, so they do not depend on event order.
    """

    def __init__(self, seed: int, alpha_min: float, alpha_max: float):
        self._seed = seed
        self._alpha_min = alpha_min
        self._alpha_max = alpha_max
        self._alphas: dict[tuple[int, int], float] = {}

    def alpha(self, u: int, v: int) -> float:
        key = (u, v) if u <= v else (v, u)
        got = self._alphas.get(key)
        if got is None:
            pair_rng = Random("%d:alpha:%d:%d" % (self._seed, key[0], key[1]))
            got = pair_rng.uniform(self._alpha_min, self._alpha_max)
            self._alphas[key] = got
        return got

    @property
    def ceiling(self) -> float:
        """A float no coefficient `alpha` returns can exceed.

        `Random.uniform(a, b)` returns `a + (b - a) * random()` with
        `0 <= random() < 1`. Float rounding is monotone, so the product is at
        most `b - a` and the sum at most `a + (b - a)`, this value (which can
        differ from b by rounding). By the same monotonicity, for d >= 0 a
        link budget `p - ceiling * d >= floor` implies
        `p - alpha(u, v) * d >= floor` for every pair, so a caller may skip
        the lookup whenever the ceiling already clears the floor.
        """
        return self._alpha_min + (self._alpha_max - self._alpha_min)


def propagate(tx_power: float, dist: float, alpha: float, noise_spread: float, rng: Random) -> float:
    """Received strength over the linear channel; never above the sent power."""
    noise = rng.uniform(-noise_spread, noise_spread) if noise_spread > 0.0 else 0.0
    rss = tx_power - alpha * dist + noise
    return rss if rss < tx_power else tx_power  # min(tx_power, rss)


# ---------------------------------------------------------------------------
# mobility

@dataclass(slots=True)
class MobilityState:
    waypoint: Point = (0.0, 0.0)
    speed: float = 0.0
    pause_until: float = 0.0
    velocity: tuple[float, float] = (0.0, 0.0)


def _reflect(x: float, lo: float, hi: float) -> float:
    # fold back into [lo, hi]: one pass for an x at most hi - lo outside, as
    # validation keeps each step; far outside, 2 * hi - x rounds to -x forever
    while x < lo or x > hi:
        if x < lo:
            x = 2.0 * lo - x
        else:
            x = 2.0 * hi - x
    return x


def mobility_step(
    nodes: Sequence[NodeState],
    states: Sequence[MobilityState],
    model: str,
    dt: float,
    t_now: float,
    rng: Random,
    arena: tuple[float, float],
    pause_max: float,
    accel: float,
) -> None:
    """Advance a node population by dt under the configured model.

    `states[i]` is the motion state of `nodes[i]`. Nodes move one after
    another in the given order, each drawing from `rng` in turn; dead ones
    stay put and draw nothing. Every node has a positive top speed, as
    `run()` passes only those.
    `model` is one of the config's VALID_MOBILITY. Under "gaussian", `accel`
    is a velocity kick in m/s: each step adds gauss(0, accel) to each axis.
    """
    w, h = arena
    uniform = rng.uniform
    if model == "random-waypoint":
        # a node heads for its waypoint at its speed, stops exactly on it when
        # this step would reach it, then pauses and later draws a new leg
        hypot = math.hypot
        for node, state in zip(nodes, states):
            if node.residual_energy <= 0.0 or t_now < state.pause_until:
                continue
            pos, target, speed = node.position, state.waypoint, state.speed
            if speed <= 0.0 or pos == target:
                vmax = node.max_velocity
                target = state.waypoint = (uniform(0.0, w), uniform(0.0, h))
                speed = state.speed = uniform(0.05 * vmax, vmax)
            step = speed * dt
            x, y = pos
            tx, ty = target
            d = hypot(tx - x, ty - y)
            if d <= step:
                pos = target
            else:
                f = step / d
                pos = (x + (tx - x) * f, y + (ty - y) * f)
            node.position = pos
            if pos == target:
                state.pause_until = t_now + uniform(0.0, pause_max)
                state.speed = 0.0
    elif model == "random-walk":
        for node in nodes:
            if node.residual_energy <= 0.0:
                continue
            vmax = node.max_velocity
            heading = uniform(0.0, 2.0 * math.pi)
            nx = node.position[0] + vmax * dt * math.cos(heading)
            ny = node.position[1] + vmax * dt * math.sin(heading)
            node.position = (_reflect(nx, 0.0, w), _reflect(ny, 0.0, h))
    elif model == "gaussian":
        gauss = rng.gauss
        for node, state in zip(nodes, states):
            if node.residual_energy <= 0.0:
                continue
            vmax = node.max_velocity
            vx = state.velocity[0] + gauss(0.0, accel)
            vy = state.velocity[1] + gauss(0.0, accel)
            speed = math.hypot(vx, vy)
            if speed > vmax:
                scale = vmax / speed
                vx, vy = vx * scale, vy * scale
            nx = node.position[0] + vx * dt
            ny = node.position[1] + vy * dt
            rx, ry = _reflect(nx, 0.0, w), _reflect(ny, 0.0, h)
            if rx != nx:
                vx = -vx
            if ry != ny:
                vy = -vy
            state.velocity = (vx, vy)
            node.position = (rx, ry)


# ---------------------------------------------------------------------------
# routing

def shortest_route(
    place: dict[int, tuple[tuple, list]],
    cells: dict[tuple[int, int], list[tuple]],
    channel: Channel,
    floor: float,
    src: int,
    dst: int,
    risky_ok: bool,
) -> tuple[int, ...] | None:
    """Lexicographically smallest minimum-hop path from src to dst over the
    links among `_discover_route`'s records, or None.

    `place` maps each live node to its record and its cell `[key, block or
    None, records]`, and `cells` holds each cell's records. A node's
    candidates are the records of the 3x3 block around its cell, gathered
    when the cell is first asked and kept on it. A link's top power arrives
    at `floor` or above, and links graded unreliable count only when
    `risky_ok`. The channel coefficient is looked up only for in-reach
    pairs whose budget its ceiling does not already clear.

    Breadth-first levels run backward from dst, each expanded in ascending
    id order, and a node records as its next hop the node that labels it
    (E. F. Moore, 1959). The search stops as soon as src is labelled, so
    the links into the rest of the scope are never tested. Every level
    below src's is then complete, and a cell is wider than any reach, so
    a node's next hop is the lowest-id node one level closer that it links
    to; the path so read minimizes (hops, sequence). src and dst differ,
    as they are a session's two ends.
    """
    hypot = math.hypot
    alpha = channel.alpha
    ceiling = channel.ceiling
    next_hop = {dst: dst}
    level = [dst]
    while level:
        nxt = []
        for v in level:
            (_, xv, yv, _, _, _), cell = place[v]
            for u, xu, yu, reach, top, links in cell[1] or _block(cells, cell):
                if u in next_hop:
                    continue
                dx = xv - xu
                # hypot(dx, dy) >= |dx|, so this skips no pair within reach
                if dx > reach or -dx > reach:
                    continue
                d = hypot(dx, yv - yu)
                if d > reach or top - ceiling * d < floor and top - alpha(u, v) * d < floor:
                    continue
                if not risky_ok:
                    entry = links.get(v)
                    if entry is not None and not entry.reliable:
                        continue
                next_hop[u] = v
                if u == src:
                    path = [u]
                    while u != dst:
                        u = next_hop[u]
                        path.append(u)
                    return tuple(path)
                nxt.append(u)
        nxt.sort()
        level = nxt
    return None


def _block(cells: dict[tuple[int, int], list[tuple]], cell: list) -> list[tuple]:
    """The records of the 3x3 block of cells around `cell`, listed from
    (x-1, y-1), (x-1, y), ... to (x+1, y+1); kept on the cell."""
    cx, cy = cell[0]
    got = []
    for i in (cx - 1, cx, cx + 1):
        for j in (cy - 1, cy, cy + 1):
            got += cells.get((i, j), ())
    cell[1] = got
    return got


# ---------------------------------------------------------------------------
# per-node runtime

@dataclass(slots=True)
class QueuedPacket:
    pid: int
    session: int
    # this hop's attempt number for the packet; it leaves the queue when
    # acknowledged or failed, and a node never queues a pid twice
    turn: int = 1


@dataclass(slots=True)
class NodeRuntime:
    queue: list[QueuedPacket] = field(default_factory=list)
    inflight: AttemptRow | None = None   # the one attempt a node may have on the air
    links: dict[int, CommCacheEntry] = field(default_factory=dict)  # successor -> link cache


@dataclass(slots=True)
class Session:
    """A data session between two nodes with its currently installed route."""

    id: int
    src: int
    dst: int
    live: bool = False  # from its start until `_fail_session`
    home_zone: int = 0
    discovering: bool = False
    # the installed route as node -> successor, in route order; empty when none
    next_hop: dict[int, int] = field(default_factory=dict)
    # every node that queues a packet of this session, and maybe some that
    # no longer do: added to on each queue append, pruned when walked
    holders: set[int] = field(default_factory=set)


# ---------------------------------------------------------------------------
# simulator

class Simulator:
    def __init__(self, cfg: ScenarioConfig, seed: int | None = None):
        self.cfg = cfg
        self.seed = cfg.seed if seed is None else seed
        self.rng = Random(self.seed)
        self.t = 0.0
        self._seq = itertools.count()
        self._events: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._pids = itertools.count(1)
        self.channel = Channel(self.seed, cfg.alpha_min, cfg.alpha_max)
        self.ledger = MetricsLedger(duration=cfg.duration)
        self.waste_ledger = WasteLedger()
        # per zone, the exploration rate rl-trc uses until the next sync; the
        # sync at t = 0 is the first event, so it is set before any transmit
        self.zone_sigma: list[float] = []
        self._link_terms: list[tuple[float, float, dict[int, CommCacheEntry]]] = []
        # the nodes a mobility tick moves and their motion states; set by run()
        self._movers: tuple[list[NodeState], list[MobilityState]] = ([], [])
        # per-world constants of the hop cycle, read on every packet
        self._airtime = cfg.airtime
        self._rltrc = cfg.policy == "rl-trc"
        lo, hi = cfg.inter_arrival_min, cfg.inter_arrival_max
        mean = (lo + hi) / 2.0
        lambd = 1.0 / mean
        self._gap_band = (lo, hi, mean, lambd,
                          -math.expm1(-lo * lambd) - 1e-9, -math.expm1(-hi * lambd) + 1e-9)
        self._build_world()

    # -- construction -------------------------------------------------------

    def _build_world(self) -> None:
        cfg = self.cfg
        w, h = cfg.arena_width, cfg.arena_height
        av_rad = (cfg.radio_range_min + cfg.radio_range_max) / 2.0
        self.zones = make_zones(w, h, cfg.zones, av_rad=av_rad)
        # level count -> the one tuple every node with that count holds; the
        # config proved that each count in its range spaces its levels apart
        levels_by_count = {k: power_levels(k, cfg.level_value_min, cfg.level_value_max)
                           for k in range(cfg.level_count_min, cfg.level_count_max + 1)}
        # every draw is inline, in the order tests/oracles.py's
        # oracle_world_draws documents, and is the one Random would make:
        # uniform(a, b) is a + (b - a) * random(), randint(a, b) is
        # randrange(a, b + 1), and uniform(0.0, w) is w * random()
        rand, randrange = self.rng.random, self.rng.randrange
        k0, k1 = cfg.level_count_min, cfg.level_count_max + 1
        v0, v_span = cfg.vmax_min, cfg.vmax_max - cfg.vmax_min
        e0, e_span = cfg.energy_min, cfg.energy_max - cfg.energy_min
        r0, r_span = cfg.radio_range_min, cfg.radio_range_max - cfg.radio_range_min
        nodes: list[NodeState] = []
        for z in self.zones:
            for spot in peripheral_spots(z, cfg.peripherals_per_zone, w, h):
                levels = levels_by_count[randrange(k0, k1)]
                nodes.append(NodeState(len(nodes), spot, 0.0, e0 + e_span * rand(), levels,
                                       r0 + r_span * rand(), 0, True))
        mobile_ids = list(range(len(nodes), cfg.nodes))
        for nid in mobile_ids:
            pos = (w * rand(), h * rand())
            levels = levels_by_count[randrange(k0, k1)]
            nodes.append(NodeState(nid, pos, v0 + v_span * rand(), e0 + e_span * rand(), levels,
                                   r0 + r_span * rand(), 0, False))
        assign_zones(nodes, self.zones)
        self.nodes = nodes
        # each node's last sighting by its zone controller, for destination lookup
        self.registry: dict[int, NodeTrack] = {}
        self.controllers = [ZoneController(z, self.registry) for z in self.zones]
        self.network = NetworkController(cfg.t_net)
        self.reward_states = [NodeRewardState() for _ in nodes]
        self.runtime = [NodeRuntime() for _ in nodes]
        self.sessions = [Session(sid, *self.rng.sample(mobile_ids, 2))
                         for sid in range(cfg.sessions)]
        self.ledger.initial_energy = {n.id: n.residual_energy for n in nodes}

    # -- event machinery ----------------------------------------------------

    def _push(self, t: float, handler: Callable[..., None], *args) -> None:
        """Queue `handler(*args)` at time t as the entry (t, seq, handler, args).

        `handler` is an `_on_<kind>` method looked up on the instance at push
        time, so a wrapper set on the class before then sees every event.
        """
        heapq.heappush(self._events, (t, next(self._seq), handler, args))

    def run(self) -> MetricsReport:
        cfg = self.cfg
        if cfg.duration > 0.0:
            # the nodes that can move and their motion states, in id order;
            # a peripheral, or a mobile node with no top speed, never moves
            movers = [n for n in self.nodes if n.max_velocity > 0.0]
            self._movers = (movers, [MobilityState() for _ in movers])
            self._push(0.0, self._on_controller_sync)
            self._push(cfg.mobility_dt, self._on_mobility_step)
            if cfg.policy == "beacon-prr-like":
                self._push(cfg.beacon_period, self._on_beacon)
            for sn in self.sessions:
                self._push(self.rng.uniform(0.0, cfg.session_start_max),
                           self._on_session_start, sn.id)
            events = self._events
            pop = heapq.heappop
            duration = cfg.duration
            while events and events[0][0] <= duration:
                t, _, handler, args = pop(events)
                self.t = t
                handler(*args)
        self.ledger.final_energy = {n.id: n.residual_energy for n in self.nodes}
        report = compute_metrics(self.ledger, policy=cfg.policy)
        if cfg.duration > 0.0:
            report.series = windowed_waste_series(self.ledger)
        return report

    # -- energy -------------------------------------------------------------

    def _debit(self, node_id: int, joules: float, kind: str, message: bool) -> bool:
        """Apply the drain rule; count the message only when fully paid."""
        node = self.nodes[node_id]
        e = node.residual_energy
        paid = e if e < joules else joules  # min(joules, e)
        if paid > 0.0:
            node.residual_energy = e - paid
            self.ledger.record_debit(node_id, kind, paid)
        ok = paid >= joules and joules > 0.0
        if ok and message:
            self.ledger.message_count += 1
        return ok

    def _charge_messages(self, sends: Iterable[tuple[int, float]], kind: str) -> None:
        """Charge each `(node, level)` of `sends` one message sent at that
        power level for one airtime, in order.

        Each charge is `_debit(node, level * airtime, kind, message=True)`:
        the same drain rule, the same rows in the same order and the same
        message count, with one batched ledger write and one message-count
        add. A dead node pays nothing and books no row, as `_debit` would.
        """
        nodes, airtime = self.nodes, self._airtime
        payers: list[int] = []
        paid_col: list[float] = []
        messages = 0
        for nid, level in sends:
            node = nodes[nid]
            e = node.residual_energy
            if e > 0.0:
                joules = level * airtime
                paid = e if e < joules else joules  # min(joules, e)
                if paid > 0.0:
                    node.residual_energy = e - paid
                    payers.append(nid)
                    paid_col.append(paid)
                    # paid > 0 and paid >= joules: fully paid and joules > 0
                    if paid >= joules:
                        messages += 1
        if payers:
            self.ledger.record_debits(payers, kind, paid_col)
            self.ledger.message_count += messages

    # -- periodic events ----------------------------------------------------

    def _on_controller_sync(self) -> None:
        """Sync every zone controller in zone order and charge its broadcast.

        The controllers share one `Tick`, the snapshot their geometry is
        computed from when a flood first reads it. A zone-state charge can
        kill a member; a new tick is then taken before the next controller
        so that later zones do not count the dead node.

        Live sessions file their rewards first: a session reward
        reads only its home zone's waste totals, which no sync charge changes.

        Sigma reads only a zone's reward and the network's cached reward, and
        a sender's zone changes only in `assign_zones`; all three change only
        here, so each zone's sigma is worked out once, at the end of the tick.
        """
        assign_zones(self.nodes, self.zones)
        for sn in self.sessions:
            if sn.live:
                self.controllers[sn.home_zone].record_session_reward(sn.id)
        tick = None
        for ctl in self.controllers:
            if tick is None:
                tick = Tick(self.nodes)
            charges = ctl.sync(self.t, self.nodes, self.reward_states, tick=tick)
            self._charge_messages(charges, "zone-state")
            if not all(self.nodes[m].alive for m, _ in charges):
                tick = None
        cached = self.network.collect(self.t, self.zones)
        self.zone_sigma = [policy.compute_sigma(z.reward_ri, cached) for z in self.zones]
        self._push(self.t + self.cfg.t_sync, self._on_controller_sync)

    def _on_mobility_step(self) -> None:
        cfg = self.cfg
        movers, motions = self._movers
        mobility_step(movers, motions, cfg.mobility, cfg.mobility_dt, self.t, self.rng,
                      (cfg.arena_width, cfg.arena_height), cfg.pause_max, cfg.gaussian_accel)
        self._push(self.t + cfg.mobility_dt, self._on_mobility_step)

    def _on_beacon(self) -> None:
        self._charge_messages([(node.id, node.power_levels[0]) for node in self.nodes], "beacon")
        self._push(self.t + self.cfg.beacon_period, self._on_beacon)

    # -- sessions and packets -----------------------------------------------

    def _on_session_start(self, sid: int) -> None:
        sn = self.sessions[sid]
        sn.live = True
        sn.home_zone = zone_of(self.nodes[sn.src].position, self.zones)
        self._push(self.t, self._on_packet_gen, sid)
        self._request_route(sn, waste=None)

    def _on_packet_gen(self, sid: int) -> None:
        sn = self.sessions[sid]
        if not sn.live:
            return
        t, src = self.t, sn.src
        pid = next(self._pids)
        stat = self.ledger.packets.live[pid] = PacketStat(t)
        if self.nodes[src].residual_energy <= 0.0:
            # never queued: the fresh record's one hold goes at once
            stat.status = "dropped-node-death"
            self._release(pid, stat)
            self._fail_session(sn)
            return
        # the queue entry is the fresh record's one hold
        self.runtime[src].queue.append(QueuedPacket(pid, sid))
        sn.holders.add(src)
        self._push(t + self.cfg.proc_delay, self._on_send_attempt, src)
        gap = self._inter_arrival()
        if t + gap <= self.cfg.duration:
            self._push(t + gap, self._on_packet_gen, sid)

    def _inter_arrival(self) -> float:
        """Bounded Poisson arrivals: exponential gaps with the band's mean,
        redrawn until one lies in the band, or the mean after 1000 misses.

        Each draw is `Random.expovariate`'s own, -log(1 - u) / lambd from one
        `random()`, so the gaps and the generator state are those of calling
        it. The gap lies in [lo, hi] only for u in [1 - e^(-lo lambd),
        1 - e^(-hi lambd)], so the log is taken only for u in that window
        widened by 1e-9 against rounding (`_gap_band`, set per world).
        """
        lo, hi, mean, lambd, u_lo, u_hi = self._gap_band
        random = self.rng.random
        for _ in range(1000):
            u = random()
            if u_lo <= u <= u_hi:
                g = -math.log(1.0 - u) / lambd
                if lo <= g <= hi:
                    return g
        return mean

    # -- transmission -------------------------------------------------------

    def _on_send_attempt(self, node: int) -> None:
        """Send the head packet of node's queue to its successor.

        The policy only picks the level; every policy books the same
        rewards. Under rl-trc the link cache first decides whether the hop
        can still be made: a successor predicted to have moved beyond twice
        the radio range, or a threshold no power level clears, gives the hop
        up as a link failure. Otherwise the sender picks a level
        epsilon-greedily from the usable ones at its zone's sigma. A
        baseline reads the link cache and keeps its pick as the link's level.
        """
        rt = self.runtime[node]
        sender = self.nodes[node]
        if sender.residual_energy <= 0.0:
            for qp in rt.queue:
                self._drop_queued(qp.pid, "dropped-node-death")
            rt.queue.clear()
            return
        if rt.inflight is not None or not rt.queue:
            return
        qp = rt.queue[0]
        sn = self.sessions[qp.session]
        if not sn.live:
            self._drop_head(node, rt, "dropped-session-failed")
            return
        succ = sn.next_hop.get(node)
        if succ is None:
            if node == sn.src or not sn.next_hop:
                return  # waiting for a route; install resolves this queue
            self._drop_head(node, rt, "dropped-route-invalidated")
            return
        entry = rt.links[succ]  # made by the route reply that set next_hop
        if self._rltrc:
            dist_est = 0.0
            last_two = entry.last_two
            if len(last_two) == 2:
                dist_est = linkcache.predict_displacement(
                    entry.approx_velocity, self.t, last_two[1].t_ack
                )
                if linkcache.should_drop(dist_est, sender.radio_range):
                    self._link_failure(node, sn, 0.0, 0.0)
                    return
            p_thres = linkcache.power_threshold(entry.sig_atn, dist_est, self.cfg.min_rcv)
            avail = linkcache.available_levels(sender.power_levels, p_thres)
            if not avail:
                self._link_failure(node, sn, 0.0, 0.0)
                return
            level = policy.select_power_level(
                avail, self.zone_sigma[sender.zone_id], entry.reliable, self.rng
            )
        else:
            cfg = self.cfg
            level = entry.level = policy.baseline_decide(
                cfg.policy, entry, sender.power_levels, vs=cfg.vs,
                rssi_high=cfg.rssi_high, rssi_low=cfg.rssi_low, min_rcv=cfg.min_rcv)
        self._transmit(node, succ, level, entry, rt, qp, sn)

    def _transmit(
        self,
        node: int,
        succ: int,
        level: float,
        entry: CommCacheEntry,
        rt: NodeRuntime,
        qp: QueuedPacket,
        sn: Session,
    ) -> None:
        sent = self._debit(node, level * self._airtime, "tx", message=True)
        t, pid, ledger = self.t, qp.pid, self.ledger
        row = AttemptRow(t, pid, sn.id, node, succ, level if sent else 0.0,
                         "pending" if sent else "blocked")
        ledger.attempts.book(row)
        rt.inflight = row
        stat = ledger.packets.live[pid]
        stat.attempts += 1
        cfg = self.cfg
        if sent:
            sender, receiver = self.nodes[node], self.nodes[succ]
            # self-reward accrues per action actually transmitted
            self.reward_states[node].apply_action(sender.power_levels[-1], level)
            linkcache.record_tx(entry)
            (xs, ys), (xr, yr) = sender.position, receiver.position
            d = math.hypot(xr - xs, yr - ys)  # model.distance(sender, receiver)
            rss = propagate(level, d, self.channel.alpha(node, succ), cfg.noise_spread, self.rng)
            if (receiver.residual_energy > 0.0 and d <= sender.radio_range
                    and rss >= cfg.min_rcv):
                stat.holds += 1
                self._push(t + 0.5 * d / cfg.vs, self._on_packet_arrival, row, rss, d)
        self._push(t + cfg.tau_a, self._on_ack_timeout, row)

    def _on_packet_arrival(self, row: AttemptRow, rss: float, dist: float) -> None:
        """Data of `row` reaches its successor; only sent rows are queued
        here, so `row.action` is the level it went out at.

        The receiver pays for listening, then acknowledges across the same
        hop at the lowest level whose margin over the measured loss clears
        the world's receive floor plus the noise spread, or at its maximum
        when none does; the ack is as lossy as any signal.
        """
        cfg, nodes = self.cfg, self.nodes
        node, sender, pid = row.successor, row.node, row.pid
        ledger = self.ledger
        stat = ledger.packets.live[pid]  # held by this arrival
        receiver = nodes[node]
        if receiver.residual_energy <= 0.0:
            self._release(pid, stat)
            return
        levels = receiver.power_levels
        if not self._debit(node, cfg.rx_cost_fraction * levels[0] * self._airtime, "rx",
                           message=False):
            self._release(pid, stat)
            return
        floor = cfg.min_rcv
        avail = linkcache.available_levels(levels, row.action - rss + floor + cfg.noise_spread)
        ack_level = avail[0] if avail else levels[-1]
        ledger.message_count += 1
        ack_rss = propagate(ack_level, dist, self.channel.alpha(node, sender),
                            cfg.noise_spread, self.rng)
        if ack_rss >= floor and dist <= receiver.radio_range:
            self._push(row.t + dist / cfg.vs, self._on_ack_arrival, row, rss)
        if node in stat.reached:
            self._release(pid, stat)
            return
        stat.reached.add(node)
        sn = self.sessions[row.session]
        if node == sn.dst:
            stat.status = "delivered"
            stat.delivered_at = self.t
            stat.inv_e = stat.inv_t = 0.0
            self._release(pid, stat)
            return
        # the arrival's hold passes to the queue entry
        self.runtime[node].queue.append(QueuedPacket(pid, row.session))
        sn.holders.add(node)
        self._push(self.t + cfg.proc_delay, self._on_send_attempt, node)

    def _on_ack_arrival(self, row: AttemptRow, rss: float) -> None:
        node, succ = row.node, row.successor
        rt = self.runtime[node]
        if rt.inflight is not row:
            return  # the attempt timed out first
        rt.inflight = None
        self.ledger.attempts.settle(row, "ack")
        t, action, pid = self.t, row.action, row.pid
        entry = rt.links[succ]
        linkcache.record_ack(entry, PacketRecord(row.t, t, action, rss), self.cfg.vs,
                             self.nodes[node].radio_range)
        self.reward_states[node].apply_ack(succ, entry.prr, entry.rss_over_tpl,
                                           entry.recent_trend)
        rtt = t - row.t
        self.ledger.record_invest(t, self.sessions[row.session].home_zone, action, rtt)
        queue = rt.queue
        stat = self.ledger.packets.live.get(pid)
        # a queued pid always has a record; with none left, no holder is
        # left who could write this hop off, so it is not kept
        if stat is not None:
            stat.inv_e += action
            stat.inv_t += rtt
            if queue and queue[0].pid == pid:
                queue.pop(0)
                self._release(pid, stat)
        if queue:
            self._push(t + self.cfg.proc_delay, self._on_send_attempt, node)

    def _on_ack_timeout(self, row: AttemptRow) -> None:
        cfg, node = self.cfg, row.node
        rt = self.runtime[node]
        if rt.inflight is not row:
            return  # the attempt was acknowledged first
        rt.inflight = None
        if row.outcome == "pending":
            self.ledger.attempts.settle(row, "timeout")
        sn = self.sessions[row.session]
        self.ledger.record_invest(self.t, sn.home_zone, row.action, cfg.tau_a)
        if not rt.queue or rt.queue[0].pid != row.pid:
            # the packet was withdrawn while the attempt was on the air
            self._push(self.t, self._on_send_attempt, node)
            return
        qp = rt.queue[0]
        qp.turn += 1
        if qp.turn <= cfg.mx_atmpt:
            we, wt = rewards.transmission_waste(row.action, cfg.tau_a)
            self._book_waste(sn.home_zone, we, wt)
            self._push(self.t, self._on_send_attempt, node)
        elif node in sn.next_hop:
            self._link_failure(node, sn, row.action, cfg.tau_a)
        else:
            self._drop_head(node, rt, "dropped-route-invalidated")

    # -- failure / discovery ------------------------------------------------

    def _book_waste(self, zone_id: int, we: float, wt: float) -> None:
        accumulate_zone_waste(self.waste_ledger, zone_id, [(we, wt)])
        zone = self.zones[zone_id]
        zone.ew, zone.et = self.waste_ledger.zone_totals(zone_id)
        self.ledger.record_waste(self.t, zone_id, we, wt)

    def _flood_cost(self, z: ZoneState) -> float:
        """Messages a flood across zone z costs, at its average hop depth;
        z comes from `ZoneController.geometry`."""
        h = avg_hop_count(z.theta, z.phi, z.av_rad)
        # flood branching never drops below 1
        return broadcast_cost(max(1.0, z.phi), h, self.cfg.broadcast_cost_cap)

    def _flood(
        self, sn: Session, scope: list[int], zone_ids: Iterable[int]
    ) -> tuple[float, float]:
        """Charge a flood over `scope`; book and return its investment, the
        cost and minimum-hop time summed over the zones `zone_ids`."""
        self._charge_flood(scope)
        ctls, t_hop = self.controllers, self.cfg.t_hop
        zones = [ctls[zid].geometry() for zid in zone_ids]
        cost = math.fsum([self._flood_cost(z) for z in zones])
        time = math.fsum([min_hop_count(z.theta, z.phi, z.av_rad) * t_hop for z in zones])
        self.ledger.record_invest(self.t, sn.home_zone, cost, time)
        return cost, time

    def _link_failure(self, node: int, sn: Session, prev_e: float, prev_t: float) -> None:
        """Give up the hop of node's head packet: grade the link, drop the
        packet, tell the source, rebuild the route.

        `(prev_e, prev_t)` is the power and ack wait of the packet's last
        attempt, still to be written off (earlier timeouts were booked as
        they came): `(row.action, tau_a)` after the timeout of turn
        mx_atmpt + 1, `(0, 0)` when the link cache gives the hop up before
        sending, at a turn within the retry budget and so with no penalty.
        """
        cfg = self.cfg
        rt = self.runtime[node]
        qp = rt.queue.pop(0)
        succ = sn.next_hop[node]
        linkcache.mark_reliability(rt.links[succ], self.t)
        zone = self.controllers[self.nodes[node].zone_id].geometry()
        penalty = self._flood_cost(zone)
        self.reward_states[node].apply_noack(succ, qp.turn, cfg.mx_atmpt, penalty)
        # claim the packet's acked-hop investment exactly once
        stat = self.ledger.packets.live[qp.pid]
        inv_e, inv_t = stat.inv_e, stat.inv_t
        stat.inv_e = stat.inv_t = 0.0
        self._drop_queued(qp.pid, "dropped-link-breakage")
        # breakage notice travels back to the source at max level
        hops = list(sn.next_hop)
        back_hops = hops.index(node)
        relays = hops[1 : back_hops + 1]
        self._charge_messages([(r, self.nodes[r].power_levels[-1]) for r in relays], "control")
        # queued packets stay put until the replacement route says whether
        # their holder is still on the path
        sn.next_hop = {}
        self._push(self.t + back_hops * cfg.t_hop, self._on_link_breakage,
                   sn.id, prev_e, prev_t, inv_e, inv_t)
        if rt.queue:
            self._push(self.t, self._on_send_attempt, node)

    def _on_link_breakage(
        self, sid: int, prev_e: float, prev_t: float, inv_e: float, inv_t: float
    ) -> None:
        sn = self.sessions[sid]
        if sn.live:
            self._request_route(sn, waste=(prev_e, prev_t, inv_e, inv_t))

    def _request_route(
        self, sn: Session, waste: tuple[float, float, float, float] | None
    ) -> None:
        """Flood a route request within the destination's broadcast circle.

        A session whose source is dead fails without a request. When `waste`
        carries a failed hop's terms, the rediscovery books the full
        write-off against the session's home zone.
        """
        cfg = self.cfg
        nodes = self.nodes
        if not nodes[sn.src].alive:
            self._fail_session(sn)
            return
        sn.discovering = True
        alive = [n.id for n in nodes if n.residual_energy > 0.0]
        circle = destination_lookup(sn.dst, self.t, self.registry, self.zones)
        corridor = self._corridor_zones(sn.src, circle)
        scope = self._flood_scope(circle, corridor, alive)
        flood_e, flood_t = self._flood(sn, scope, corridor)
        if waste is not None:
            prev_e, prev_t, inv_e, inv_t = waste
            self._book_waste(sn.home_zone, prev_e + flood_e + inv_e, prev_t + flood_t + inv_t)
        route = self._discover_route(sn.src, sn.dst, scope)
        # the circle flood charged scope nodes only, so the nodes of `alive`
        # outside the scope are still alive; a source it killed gets no route
        if route is None and len(scope) < len(alive) and nodes[sn.src].alive:
            # the circle missed; fall back to one full flood
            self._flood(sn, alive, range(len(self.zones)))
            route = self._discover_route(sn.src, sn.dst, alive)
        if route is None:
            self._fail_session(sn)
            return
        hops = len(route) - 1
        self._charge_messages([(r, nodes[r].power_levels[-1]) for r in reversed(route[1:])],
                             "control")
        self._push(self.t + 2.0 * hops * cfg.t_hop, self._on_route_reply, sn.id, route)

    def _corridor_zones(self, src: int, circle: BroadcastCircle) -> tuple[int, ...]:
        """Zones inside the bounding box of the requester's zone and the
        zones the circle spans.

        Zones tile the arena as a grid, so the request travels through every
        zone of that block of rows and columns.
        """
        ends = [self.zones[i] for i in circle.spans_zones]
        ends.append(self.zones[self.nodes[src].zone_id])
        x0, x1 = min(z.x0 for z in ends), max(z.x1 for z in ends)
        y0, y1 = min(z.y0 for z in ends), max(z.y1 for z in ends)
        return tuple(
            z.id for z in self.zones if x0 <= z.x0 and z.x1 <= x1 and y0 <= z.y0 and z.y1 <= y1
        )

    def _flood_scope(
        self, circle: BroadcastCircle, corridor: tuple[int, ...], alive: list[int]
    ) -> list[int]:
        """The nodes of `alive` in the corridor or the circle, in their order.
        A node is in the circle when its distance to the centre is at most
        the radius."""
        nodes, hypot = self.nodes, math.hypot
        (cx, cy), radius = circle.center, circle.radius
        scope = []
        for n in alive:
            node = nodes[n]
            if node.zone_id in corridor:
                scope.append(n)
            else:
                x, y = node.position
                if hypot(x - cx, y - cy) <= radius:
                    scope.append(n)
        return scope

    def _charge_flood(self, scope: list[int]) -> None:
        """Each node of `scope` relays the request once at its top level;
        a node a charge before it killed pays nothing."""
        nodes = self.nodes
        self._charge_messages([(nid, nodes[nid].power_levels[-1]) for nid in scope], "flood")

    def _discover_route(self, src: int, dst: int, scope: list[int]) -> tuple[int, ...] | None:
        """The lexicographically smallest minimum-hop route over the
        scope's alive nodes, found by `shortest_route`; None when src or dst
        is dead or no route exists.

        u -> v is a link when v lies within u's reach, its radio range less
        the route margin, and u's top power arrives above the receive floor
        over the channel. The search runs over the links not graded
        unreliable, and again over every link when that finds no route.

        Each live node has one flat record `(id, x, y, reach, top power,
        link caches)`, the last three from the world's link table, bucketed
        in scope order by `grid_cells` into cells whose side is the largest
        reach plus 1 m. The cell is strictly wider than any reach, so every
        in-reach pair sits in the 3x3 block of cells around a node's cell
        even after float rounding at a cell border, and the links are
        exactly those of an all-pairs scan.
        """
        nodes = self.nodes
        terms = self._link_terms or self._build_link_terms()
        live = []
        side = 0.0
        for n in scope:
            node = nodes[n]
            if node.residual_energy > 0.0:
                rec = terms[n]
                x, y = node.position
                live.append((n, x, y) + rec)
                if rec[0] > side:
                    side = rec[0]
        cells = grid_cells(live, side + 1.0)
        # each node's record and its cell, as [key, the block or None, records]
        place = {}
        for key, members in cells.items():
            cell = [key, None, members]
            for rec in members:
                place[rec[0]] = (rec, cell)
        if src not in place or dst not in place:
            return None
        channel, floor = self.channel, self.cfg.min_rcv
        return (shortest_route(place, cells, channel, floor, src, dst, False)
                or shortest_route(place, cells, channel, floor, src, dst, True))

    def _build_link_terms(self) -> list[tuple[float, float, dict[int, CommCacheEntry]]]:
        """Each node's `(reach, top power, link caches)` for the route
        search. Radio range and power levels are fixed when a node is made,
        and a runtime keeps its one `links` dict, so the table is built
        once, at the first search."""
        margin = self.cfg.route_margin
        # route links must leave slack for motion during their lifetime
        self._link_terms = [(max(n.radio_range - margin, 0.0), n.power_levels[-1], rt.links)
                            for n, rt in zip(self.nodes, self.runtime)]
        return self._link_terms

    def _on_route_reply(self, sid: int, route: tuple[int, ...]) -> None:
        """Install `route` and settle the session's queued packets.

        Only the session's holders can queue its packets, so only they are
        visited, in id order: forwarders still on the path resume, and the
        others withdraw the session's packets but the one on the air. A
        holder that no longer queues any is dropped from the set.
        """
        sn = self.sessions[sid]
        if not sn.discovering:
            return
        sn.discovering = False
        sn.next_hop = dict(zip(route, route[1:]))
        runtime, nodes = self.runtime, self.nodes
        for u, v in sn.next_hop.items():
            links = runtime[u].links
            entry = links.get(v)
            if entry is None:
                entry = links[v] = CommCacheEntry(sig_atn=self.cfg.prior_sig_atn,
                                                  level=nodes[u].power_levels[-1])
            linkcache.new_episode(entry)
        for nid in sorted(sn.holders):
            rt = runtime[nid]
            if not any(q.session == sid for q in rt.queue):
                sn.holders.discard(nid)
                continue
            if nid not in sn.next_hop:
                held = rt.inflight and rt.inflight.pid
                self._withdraw(rt, sid, "dropped-route-invalidated", held)
            if rt.queue:
                self._push(self.t + self.cfg.proc_delay, self._on_send_attempt, nid)

    def _fail_session(self, sn: Session) -> None:
        sn.live = False
        sn.discovering = False
        sn.next_hop = {}
        runtime = self.runtime
        for nid in sorted(sn.holders):
            self._withdraw(runtime[nid], sn.id, "dropped-session-failed")
        sn.holders.clear()
        self._push(self.t, self._on_session_end, sn.id)

    def _on_session_end(self, sid: int) -> None:
        sn = self.sessions[sid]
        ctl = self.controllers[sn.home_zone]
        if session_reporter(sn.src, ctl.zone, self.nodes) is not None:
            ctl.record_session_reward(sid)

    def _release(self, pid: int, stat: PacketStat) -> None:
        """Give up one hold on pid, whose live record is `stat`; with the
        last hold the record is final and retires. The one way a packet
        leaves `ledger.packets.live`."""
        stat.holds -= 1
        if not stat.holds:
            self.ledger.packets.retire(pid)

    def _drop_queued(self, pid: int, status: str) -> None:
        """A holder drops its queue entry of pid; a packet not yet final
        ends in `status`, one of the dropped-* PACKET_STATUSES."""
        stat = self.ledger.packets.live[pid]
        if stat.status == "pending":
            stat.status = status
        self._release(pid, stat)

    def _drop_head(self, node: int, rt: NodeRuntime, status: str) -> None:
        """Drop the packet at the head of node's queue and try the next one."""
        self._drop_queued(rt.queue.pop(0).pid, status)
        self._push(self.t, self._on_send_attempt, node)

    def _withdraw(self, rt: NodeRuntime, sid: int, status: str, held: int | None = None) -> None:
        """Drop every packet of session sid from a queue but the pid `held`."""
        keep = []
        for q in rt.queue:
            if q.session == sid and q.pid != held:
                self._drop_queued(q.pid, status)
            else:
                keep.append(q)
        rt.queue = keep

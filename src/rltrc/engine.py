"""Deterministic discrete-event simulator.

One logical clock, one master RNG, a single heap ordered by (fire_time,
sequence). Each heap entry is (fire_time, sequence, handler, args): the run
loop calls `handler(*args)`, where handler is a `Simulator._on_<kind>`
method bound when the event is pushed. All iteration over node or zone
collections is in sorted order so equal (config, seed) pairs replay the
exact same trace.

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
from typing import Callable, Iterable, Iterator

from . import linkcache, policy, rewards
from .config import ConfigError, ScenarioConfig
from .control import (
    BroadcastCircle,
    NetworkController,
    NodeTrack,
    ZoneController,
    assign_zones,
    destination_lookup,
    neighbor_counts,
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
    NodeGrid,
    NodeState,
    Point,
    ZoneState,
    distance,
    make_zones,
    zone_of,
)
from .policy import LinkSnapshot, SigmaInputs
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


def propagate(tx_power: float, dist: float, alpha: float, noise_spread: float, rng: Random) -> float:
    """Received strength over the linear channel; never above the sent power."""
    noise = rng.uniform(-noise_spread, noise_spread) if noise_spread > 0.0 else 0.0
    return min(tx_power, tx_power - alpha * dist + noise)


# ---------------------------------------------------------------------------
# mobility

@dataclass
class MobilityState:
    waypoint: Point = (0.0, 0.0)
    speed: float = 0.0
    pause_until: float = 0.0
    velocity: tuple[float, float] = (0.0, 0.0)


def advance_toward(pos: Point, target: Point, step: float) -> Point:
    """Move `step` meters toward target, stopping exactly on it."""
    d = distance(pos, target)
    if d <= step or d == 0.0:
        return target
    f = step / d
    return (pos[0] + (target[0] - pos[0]) * f, pos[1] + (target[1] - pos[1]) * f)


def _reflect(x: float, lo: float, hi: float) -> float:
    # fold back into [lo, hi]; each pass shrinks the excess
    while x < lo or x > hi:
        if x < lo:
            x = 2.0 * lo - x
        else:
            x = 2.0 * hi - x
    return x


def mobility_step(
    node: NodeState,
    state: MobilityState,
    model: str,
    dt: float,
    t_now: float,
    rng: Random,
    arena: tuple[float, float],
    pause_max: float,
    accel: float,
) -> None:
    """Advance one mobile node by dt under the configured model."""
    if node.max_velocity <= 0.0:
        return
    w, h = arena
    if model == "random-waypoint":
        if t_now < state.pause_until:
            return
        if state.speed <= 0.0 or node.position == state.waypoint:
            state.waypoint = (rng.uniform(0.0, w), rng.uniform(0.0, h))
            state.speed = rng.uniform(0.05 * node.max_velocity, node.max_velocity)
        node.position = advance_toward(node.position, state.waypoint, state.speed * dt)
        if node.position == state.waypoint:
            state.pause_until = t_now + rng.uniform(0.0, pause_max)
            state.speed = 0.0
    elif model == "random-walk":
        heading = rng.uniform(0.0, 2.0 * math.pi)
        nx = node.position[0] + node.max_velocity * dt * math.cos(heading)
        ny = node.position[1] + node.max_velocity * dt * math.sin(heading)
        node.position = (_reflect(nx, 0.0, w), _reflect(ny, 0.0, h))
    elif model == "gaussian":
        vx = state.velocity[0] + rng.gauss(0.0, accel)
        vy = state.velocity[1] + rng.gauss(0.0, accel)
        speed = math.hypot(vx, vy)
        if speed > node.max_velocity:
            scale = node.max_velocity / speed
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
    else:
        raise ValueError("unknown mobility model %r" % model)


# ---------------------------------------------------------------------------
# routing

def shortest_route(
    into: Callable[[int], Iterable[int]],
    out_of: Callable[[int], Iterable[int]],
    src: int,
    dst: int,
) -> tuple[int, ...] | None:
    """Lexicographically smallest minimum-hop path from src to dst.

    `into(v)` yields the nodes u with a link u -> v and `out_of(u)` the
    nodes v with a link u -> v, so links are only looked at when asked for.
    `into` may leave out nodes that already have a level: the search
    ignores them.

    Breadth-first levels run backward from dst and stop as soon as src is
    labelled: src then sits at level L and every node below L already has
    its level. A greedy descent then picks the lowest-id out-neighbour one
    level closer, which only reads levels below the current node; this is
    equivalent to minimizing (hops, sequence).
    """
    if src == dst:
        return (src,)
    dist_to = {dst: 0}
    frontier = [dst]
    while src not in dist_to:
        if not frontier:
            return None
        nxt = []
        for v in frontier:
            for u in into(v):
                if u not in dist_to:
                    dist_to[u] = dist_to[v] + 1
                    nxt.append(u)
                    if u == src:
                        break
            if src in dist_to:
                break
        frontier = nxt
    path = [src]
    node = src
    while node != dst:
        closer = dist_to[node] - 1
        node = min(v for v in out_of(node) if dist_to.get(v, -1) == closer)
        path.append(node)
    return tuple(path)


# ---------------------------------------------------------------------------
# per-node runtime

@dataclass
class QueuedPacket:
    pid: int
    session: int
    # this hop's attempt number for the packet; it leaves the queue when
    # acknowledged or failed, and a node never queues a pid twice
    turn: int = 1


@dataclass
class NodeRuntime:
    queue: list[QueuedPacket] = field(default_factory=list)
    inflight: AttemptRow | None = None   # the one attempt a node may have on the air
    levels_used: dict[int, float] = field(default_factory=dict)  # successor -> last level
    seen: set[int] = field(default_factory=set)


@dataclass
class Session:
    """A data session between two nodes with its currently installed route."""

    id: int
    src: int
    dst: int
    live: bool = True
    home_zone: int = 0
    started: bool = False
    discovering: bool = False
    # the installed route as node -> successor, in route order; empty when none
    next_hop: dict[int, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# simulator

class Simulator:
    def __init__(self, cfg: ScenarioConfig, seed: int | None = None):
        violations = cfg.validate()
        if violations:
            raise ConfigError(violations)
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
        # per-packet acked-hop investment still eligible for write-off;
        # zeroed when written off so waste can never exceed investment
        self.packet_invested: dict[int, tuple[float, float]] = {}
        # per zone, the exploration rate rl-trc uses until the next sync; the
        # sync at t = 0 is the first event, so it is set before any transmit
        self.zone_sigma: list[float] = []
        self._build_world()

    # -- construction -------------------------------------------------------

    def _build_world(self) -> None:
        cfg = self.cfg
        av_rad = (cfg.radio_range_min + cfg.radio_range_max) / 2.0
        self.zones = make_zones(cfg.arena_width, cfg.arena_height, cfg.zones, av_rad=av_rad)
        self.nodes: dict[int, NodeState] = {}
        nid = 0
        for z in self.zones:
            for spot in self._peripheral_spots(z, cfg.peripherals_per_zone):
                self.nodes[nid] = self._make_node(nid, spot, peripheral=True)
                nid += 1
        self.mobile_ids = list(range(nid, cfg.nodes))
        for _ in range(nid, cfg.nodes):
            pos = (self.rng.uniform(0.0, cfg.arena_width), self.rng.uniform(0.0, cfg.arena_height))
            self.nodes[nid] = self._make_node(nid, pos, peripheral=False)
            nid += 1
        assign_zones(self.nodes, self.zones)
        # each node's last sighting by its zone controller, for destination lookup
        self.registry: dict[int, NodeTrack] = {}
        self.controllers = [ZoneController(z, self.registry) for z in self.zones]
        self.network = NetworkController(cfg.t_net)
        self.reward_states = {n: NodeRewardState() for n in self.nodes}
        self.caches: dict[int, dict[int, CommCacheEntry]] = {n: {} for n in self.nodes}
        self.runtime = {n: NodeRuntime() for n in self.nodes}
        self.mobility_states = {n: MobilityState() for n in self.mobile_ids}
        self.sessions: dict[int, Session] = {}
        for sid in range(cfg.sessions):
            src, dst = self.rng.sample(self.mobile_ids, 2)
            self.sessions[sid] = Session(id=sid, src=src, dst=dst)
        self.ledger.initial_energy = {n: self.nodes[n].residual_energy for n in self.nodes}

    def _peripheral_spots(self, z: ZoneState, count: int) -> list[Point]:
        """Static relay positions just inside the zone's internal edges."""
        inset = 1.0
        edges = []
        if z.x1 < self.cfg.arena_width:
            edges.append("right")
        if z.x0 > 0.0:
            edges.append("left")
        if z.y1 < self.cfg.arena_height:
            edges.append("top")
        if z.y0 > 0.0:
            edges.append("bottom")
        spots: list[Point] = []
        rounds = (count + len(edges) - 1) // len(edges)
        for i in range(count):
            edge = edges[i % len(edges)]
            frac = (i // len(edges) + 1) / (rounds + 1)
            if edge == "right":
                spots.append((z.x1 - inset, z.y0 + (z.y1 - z.y0) * frac))
            elif edge == "left":
                spots.append((z.x0 + inset, z.y0 + (z.y1 - z.y0) * frac))
            elif edge == "top":
                spots.append((z.x0 + (z.x1 - z.x0) * frac, z.y1 - inset))
            else:
                spots.append((z.x0 + (z.x1 - z.x0) * frac, z.y0 + inset))
        return spots

    def _make_node(self, nid: int, pos: Point, peripheral: bool) -> NodeState:
        cfg = self.cfg
        k = self.rng.randint(cfg.level_count_min, cfg.level_count_max)
        if k == 1:
            levels = (cfg.level_value_max,)
        else:
            span = cfg.level_value_max - cfg.level_value_min
            levels = tuple(cfg.level_value_min + span * i / (k - 1) for i in range(k))
        return NodeState(
            id=nid,
            position=pos,
            max_velocity=0.0 if peripheral else self.rng.uniform(cfg.vmax_min, cfg.vmax_max),
            residual_energy=self.rng.uniform(cfg.energy_min, cfg.energy_max),
            power_levels=levels,
            radio_range=self.rng.uniform(cfg.radio_range_min, cfg.radio_range_max),
            min_rcv=cfg.min_rcv,
            is_peripheral=peripheral,
        )

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
            self._push(0.0, self._on_controller_sync)
            self._push(cfg.mobility_dt, self._on_mobility_step)
            if cfg.policy == "beacon-prr-like":
                self._push(cfg.beacon_period, self._on_beacon)
            for sid in sorted(self.sessions):
                self._push(self.rng.uniform(0.0, cfg.session_start_max),
                           self._on_session_start, sid)
            events = self._events
            pop = heapq.heappop
            duration = cfg.duration
            while events and events[0][0] <= duration:
                t, _, handler, args = pop(events)
                self.t = t
                handler(*args)
        self.ledger.final_energy = {n: self.nodes[n].residual_energy for n in self.nodes}
        report = compute_metrics(self.ledger, policy=cfg.policy)
        if cfg.duration > 0.0:
            report.series = windowed_waste_series(self.ledger, cfg.duration / 20.0)
        return report

    # -- energy -------------------------------------------------------------

    def _debit(self, node_id: int, joules: float, kind: str, message: bool) -> bool:
        """Apply the drain rule; count the message only when fully paid."""
        node = self.nodes[node_id]
        paid = min(joules, node.residual_energy)
        if paid > 0.0:
            node.residual_energy -= paid
            self.ledger.record_debit(self.t, node_id, kind, paid)
        ok = paid >= joules and joules > 0.0
        if ok and message:
            self.ledger.count_message()
        return ok

    # -- periodic events ----------------------------------------------------

    def _on_controller_sync(self) -> None:
        """Sync every zone controller in zone order and charge its broadcast.

        Neighbour counts are taken once per tick, one pass over the alive
        nodes that measures each pair once. A zone-state charge can kill a
        member; the counts are then taken again before the next controller
        so that later zones do not count the dead node.

        Sigma reads only a zone's reward and the network's cached reward, and
        a sender's zone changes only in `assign_zones`; all three change only
        here, so each zone's sigma is worked out once, at the end of the tick.
        """
        assign_zones(self.nodes, self.zones)
        airtime = self.cfg.airtime
        neighbors = None
        for ctl in self.controllers:
            for sid in sorted(self.sessions):
                sn = self.sessions[sid]
                if sn.started and sn.live and sn.home_zone == ctl.zone.id:
                    ctl.record_session_reward(sid)
            if neighbors is None:
                neighbors = neighbor_counts([n for n in self.nodes.values() if n.alive])
            charges = ctl.sync(self.t, self.nodes, self.reward_states, neighbors=neighbors)
            for member, level in charges:
                self._debit(member, level * airtime, "zone-state", message=True)
            if not all(self.nodes[m].alive for m, _ in charges):
                neighbors = None
        cached = self.network.collect(self.t, self.zones)
        self.zone_sigma = [
            policy.compute_sigma(SigmaInputs(z.reward_ri, cached)) for z in self.zones
        ]
        self._push(self.t + self.cfg.t_sync, self._on_controller_sync)

    def _on_mobility_step(self) -> None:
        cfg = self.cfg
        model, dt, t_now, rng = cfg.mobility, cfg.mobility_dt, self.t, self.rng
        arena = (cfg.arena_width, cfg.arena_height)
        pause_max, accel = cfg.pause_max, cfg.gaussian_accel
        nodes, states = self.nodes, self.mobility_states
        for nid in self.mobile_ids:
            node = nodes[nid]
            if node.alive:
                mobility_step(node, states[nid], model, dt, t_now, rng, arena, pause_max, accel)
        self._push(t_now + dt, self._on_mobility_step)

    def _on_beacon(self) -> None:
        airtime = self.cfg.airtime
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            if node.alive:
                self._debit(nid, node.min_power * airtime, "beacon", message=True)
        self._push(self.t + self.cfg.beacon_period, self._on_beacon)

    # -- sessions and packets -----------------------------------------------

    def _on_session_start(self, sid: int) -> None:
        sn = self.sessions[sid]
        sn.started = True
        src = self.nodes[sn.src]
        sn.home_zone = zone_of(src.position, self.zones)
        self._push(self.t, self._on_packet_gen, sid)
        self._request_route(sn, waste=None)

    def _on_packet_gen(self, sid: int) -> None:
        sn = self.sessions[sid]
        if not sn.live:
            return
        pid = next(self._pids)
        self.ledger.packets[pid] = PacketStat(session=sid, generated_at=self.t)
        if not self.nodes[sn.src].alive:
            self._drop_packet(pid, "node-death")
            self._fail_session(sn)
            return
        self.runtime[sn.src].queue.append(QueuedPacket(pid=pid, session=sid))
        self._push(self.t + self.cfg.proc_delay, self._on_send_attempt, sn.src)
        gap = self._inter_arrival()
        if self.t + gap <= self.cfg.duration:
            self._push(self.t + gap, self._on_packet_gen, sid)

    def _inter_arrival(self) -> float:
        """Bounded Poisson arrivals: exponential gaps with the band's mean,
        redrawn until one lies in the band, or the mean after 1000 misses.

        Each draw is `Random.expovariate`'s own, -log(1 - u) / lambd from one
        `random()`, so the gaps and the generator state are those of calling
        it. The gap lies in [lo, hi] only for u in [1 - e^(-lo lambd),
        1 - e^(-hi lambd)], so the log is taken only for u in that window
        widened by 1e-9 against rounding.
        """
        cfg = self.cfg
        lo, hi = cfg.inter_arrival_min, cfg.inter_arrival_max
        mean = (lo + hi) / 2.0
        lambd = 1.0 / mean
        u_lo = -math.expm1(-lo * lambd) - 1e-9
        u_hi = -math.expm1(-hi * lambd) + 1e-9
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
        rt = self.runtime[node]
        if not self.nodes[node].alive:
            for qp in rt.queue:
                self._drop_packet(qp.pid, "node-death")
            rt.queue.clear()
            return
        if rt.inflight is not None or not rt.queue:
            return
        qp = rt.queue[0]
        sn = self.sessions[qp.session]
        if not sn.live:
            self._drop_head(node, rt, "session-failed")
            return
        succ = sn.next_hop.get(node)
        if succ is None:
            if node == sn.src or not sn.next_hop:
                return  # waiting for a route; install resolves this queue
            self._drop_head(node, rt, "route-invalidated")
            return
        entry = self.caches[node][succ]  # made by the route reply that set next_hop
        if self.cfg.policy == "rl-trc":
            level = self._select_rltrc(node, succ, entry, sn)
            if level is None:
                return  # escalated to link failure
        else:
            level = self._select_baseline(node, succ, entry, rt)
        rt.levels_used[succ] = level
        self._transmit(node, succ, level, entry, rt, qp, sn)

    def _select_rltrc(
        self, node: int, succ: int, entry: CommCacheEntry, sn: Session
    ) -> float | None:
        sender = self.nodes[node]
        dist_est = 0.0
        if len(entry.last_two) == 2:
            dist_est = linkcache.predict_displacement(
                entry.approx_velocity, self.t, entry.last_ack_time
            )
            if linkcache.should_drop(dist_est, sender.radio_range):
                self._link_failure(node, sn, 0.0, 0.0)
                return None
        p_thres = linkcache.power_threshold(
            entry.sig_atn, dist_est, self.nodes[succ].min_rcv
        )
        avail = linkcache.available_levels(sender.power_levels, p_thres)
        if not avail:
            self._link_failure(node, sn, 0.0, 0.0)
            return None
        return policy.select_power_level(
            avail, self.zone_sigma[sender.zone_id], entry.reliable, self.rng
        )

    def _select_baseline(
        self, node: int, succ: int, entry: CommCacheEntry, rt: NodeRuntime
    ) -> float:
        sender = self.nodes[node]
        last = entry.last_two[-1] if entry.last_two else None
        snap = LinkSnapshot(
            current_level=rt.levels_used.get(succ, sender.max_power),
            last_rss=last.rss if last else None,
            prr=entry.prr,
            sig_atn=entry.sig_atn,
            distance=self.cfg.vs * last.rtt if last else None,
            min_rcv=self.nodes[succ].min_rcv,
        )
        return policy.baseline_decide(
            self.cfg.policy, snap, sender.power_levels,
            rssi_high=self.cfg.rssi_high, rssi_low=self.cfg.rssi_low,
        )

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
        cfg = self.cfg
        sender = self.nodes[node]
        sent = self._debit(node, level * cfg.airtime, "tx", message=True)
        action = level if sent else 0.0
        row = AttemptRow(self.t, qp.pid, sn.id, node, succ, qp.turn, action,
                         "pending" if sent else "blocked")
        self.ledger.attempts.append(row)
        rt.inflight = row
        self.ledger.packets[qp.pid].attempts += 1
        if sent:
            # self-reward accrues per action actually transmitted
            self.reward_states[node].apply_action(sender.max_power, level)
            linkcache.record_tx(entry)
            receiver = self.nodes[succ]
            d = distance(sender.position, receiver.position)
            rss = propagate(level, d, self.channel.alpha(node, succ),
                            cfg.noise_spread, self.rng)
            if receiver.alive and d <= sender.radio_range and rss >= receiver.min_rcv:
                self._push(self.t + 0.5 * d / cfg.vs, self._on_packet_arrival, row, rss, d)
        self._push(self.t + cfg.tau_a, self._on_ack_timeout, row)

    def _ack_level(self, receiver_id: int, sender_id: int, data_level: float, data_rss: float) -> float:
        """Reverse-link level sized from the measured loss of the data just
        heard, with a noise-spread margin; maximum when nothing clears."""
        receiver = self.nodes[receiver_id]
        loss = data_level - data_rss
        thres = loss + self.nodes[sender_id].min_rcv + self.cfg.noise_spread
        avail = linkcache.available_levels(receiver.power_levels, thres)
        return avail[0] if avail else receiver.max_power

    def _on_packet_arrival(self, row: AttemptRow, rss: float, dist: float) -> None:
        """Data of `row` reaches its successor; only sent rows are queued
        here, so `row.action` is the level it went out at."""
        cfg = self.cfg
        node, sender, pid = row.successor, row.node, row.pid
        receiver = self.nodes[node]
        if not receiver.alive:
            return
        rx_cost = cfg.rx_cost_fraction * receiver.min_power * cfg.airtime
        if not self._debit(node, rx_cost, "rx", message=False):
            return
        # acknowledgement back across the same hop, lossy like any signal
        ack_level = self._ack_level(node, sender, row.action, rss)
        self.ledger.count_message()
        ack_rss = propagate(ack_level, dist, self.channel.alpha(node, sender),
                            cfg.noise_spread, self.rng)
        if ack_rss >= self.nodes[sender].min_rcv and dist <= receiver.radio_range:
            self._push(row.t + dist / cfg.vs, self._on_ack_arrival, row, rss)
        rt = self.runtime[node]
        if pid in rt.seen:
            return
        rt.seen.add(pid)
        sn = self.sessions[row.session]
        stat = self.ledger.packets[pid]
        if node == sn.dst:
            stat.status = "delivered"
            stat.delivered_at = self.t
            self.packet_invested.pop(pid, None)
            return
        rt.queue.append(QueuedPacket(pid=pid, session=row.session))
        self._push(self.t + cfg.proc_delay, self._on_send_attempt, node)

    def _on_ack_arrival(self, row: AttemptRow, rss: float) -> None:
        node, succ = row.node, row.successor
        rt = self.runtime[node]
        if rt.inflight is not row:
            return  # the attempt timed out first
        rt.inflight = None
        row.outcome = "ack"
        sender = self.nodes[node]
        entry = self.caches[node][succ]
        linkcache.record_ack(
            entry,
            PacketRecord(t_msg=row.t, t_ack=self.t, tx_power=row.action, rss=rss),
            self.cfg.vs,
            sender.radio_range,
        )
        if self.cfg.policy == "rl-trc":
            self.reward_states[node].apply_ack(
                succ, entry.prr, entry.rss_over_tpl, entry.recent_trend
            )
        sn = self.sessions[row.session]
        rtt = self.t - row.t
        self.ledger.record_invest(self.t, sn.home_zone, row.action, rtt)
        inv_e, inv_t = self.packet_invested.get(row.pid, (0.0, 0.0))
        self.packet_invested[row.pid] = (inv_e + row.action, inv_t + rtt)
        if rt.queue and rt.queue[0].pid == row.pid:
            rt.queue.pop(0)
        if rt.queue:
            self._push(self.t + self.cfg.proc_delay, self._on_send_attempt, node)

    def _on_ack_timeout(self, row: AttemptRow) -> None:
        cfg, node = self.cfg, row.node
        rt = self.runtime[node]
        if rt.inflight is not row:
            return  # the attempt was acknowledged first
        rt.inflight = None
        if row.outcome == "pending":
            row.outcome = "timeout"
        sn = self.sessions[row.session]
        self.ledger.record_invest(self.t, sn.home_zone, row.action, cfg.tau_a)
        if not rt.queue or rt.queue[0].pid != row.pid:
            # the packet was withdrawn while the attempt was on the air
            self._push(self.t, self._on_send_attempt, node)
            return
        qp = rt.queue[0]
        qp.turn += 1
        if qp.turn <= cfg.mx_atmpt:
            we, wt = rewards.transmission_waste(qp.turn, row.action, cfg.tau_a, cfg.mx_atmpt)
            self._book_waste(sn.home_zone, we, wt)
            self._push(self.t, self._on_send_attempt, node)
        elif node in sn.next_hop:
            self._link_failure(node, sn, row.action, cfg.tau_a)
        else:
            self._drop_head(node, rt, "route-invalidated")

    # -- failure / discovery ------------------------------------------------

    def _book_waste(self, zone_id: int, we: float, wt: float) -> None:
        if we or wt:
            accumulate_zone_waste(self.waste_ledger, zone_id, [(we, wt)])
            zone = self.zones[zone_id]
            zone.ew, zone.et = self.waste_ledger.zone_totals(zone_id)
            self.ledger.record_waste(self.t, zone_id, we, wt)

    def _flood_cost(self, z: ZoneState) -> float:
        """Messages a flood across zone z costs, at its average hop depth."""
        h = avg_hop_count(z.theta, z.phi, z.av_rad)
        return broadcast_cost(z.ng, h, self.cfg.broadcast_cost_cap)

    def _flood(
        self, sn: Session, scope: list[int], zone_ids: Iterable[int]
    ) -> tuple[float, float]:
        """Charge a flood over `scope`; book and return its investment, the
        cost and minimum-hop time summed over the zones `zone_ids`."""
        self._charge_flood(scope)
        zones, t_hop = [self.zones[zid] for zid in zone_ids], self.cfg.t_hop
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
        linkcache.mark_reliability(self.caches[node][succ], self.t)
        if cfg.policy == "rl-trc":
            penalty = self._flood_cost(self.zones[self.nodes[node].zone_id])
            self.reward_states[node].apply_noack(succ, qp.turn, cfg.mx_atmpt, penalty)
        # claim the packet's acked-hop investment exactly once
        inv_e, inv_t = self.packet_invested.pop(qp.pid, (0.0, 0.0))
        self._drop_packet(qp.pid, "link-breakage")
        # breakage notice travels back to the source at max level
        hops = list(sn.next_hop)
        back_hops = hops.index(node)
        for relay in hops[1 : back_hops + 1]:
            if self.nodes[relay].alive:
                self._debit(relay, self.nodes[relay].max_power * cfg.airtime,
                            "control", message=True)
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
        if not sn.live:
            return
        if not self.nodes[sn.src].alive:
            self._fail_session(sn)
            return
        self._request_route(sn, waste=(prev_e, prev_t, inv_e, inv_t))

    def _request_route(
        self, sn: Session, waste: tuple[float, float, float, float] | None
    ) -> None:
        """Flood a route request within the destination's broadcast circle.

        When `waste` carries a failed hop's terms, the rediscovery books the
        full write-off against the session's home zone.
        """
        cfg = self.cfg
        sn.discovering = True
        circle = destination_lookup(sn.dst, self.t, self.registry, self.zones)
        corridor = self._corridor_zones(sn.src, circle)
        scope = self._flood_scope(sn.src, circle, corridor)
        flood_e, flood_t = self._flood(sn, scope, corridor)
        if waste is not None:
            prev_e, prev_t, inv_e, inv_t = waste
            self._book_waste(sn.home_zone, prev_e + flood_e + inv_e, prev_t + flood_t + inv_t)
        route = self._discover_route(sn.src, sn.dst, scope)
        if route is None and len(scope) < len(self._alive_ids()):
            # the circle missed; fall back to one full flood
            scope = self._alive_ids()
            self._flood(sn, scope, range(len(self.zones)))
            route = self._discover_route(sn.src, sn.dst, scope)
        if route is None:
            self._fail_session(sn)
            return
        hops = len(route) - 1
        for relay in reversed(route[1:]):
            if self.nodes[relay].alive:
                self._debit(relay, self.nodes[relay].max_power * cfg.airtime,
                            "control", message=True)
        self._push(self.t + 2.0 * hops * cfg.t_hop, self._on_route_reply, sn.id, route)

    def _alive_ids(self) -> list[int]:
        return [n for n in sorted(self.nodes) if self.nodes[n].alive]

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
        self, src: int, circle: BroadcastCircle, corridor: tuple[int, ...]
    ) -> list[int]:
        scope = {src}
        for nid in self._alive_ids():
            node = self.nodes[nid]
            if node.zone_id in corridor or circle.contains(node.position):
                scope.add(nid)
        return sorted(scope)

    def _charge_flood(self, scope: list[int]) -> None:
        for nid in scope:
            node = self.nodes[nid]
            if node.alive:
                self._debit(nid, node.max_power * self.cfg.airtime, "flood", message=True)

    def _discover_route(self, src: int, dst: int, scope: list[int]) -> tuple[int, ...] | None:
        """Links already graded unreliable are avoided; when that leaves no
        route at all they are allowed back in as a last resort.

        Links are tested only when `shortest_route` asks for the links into
        or out of a node, so a search that reaches src early leaves the rest
        of the scope untested. Candidates come from a NodeGrid over the live
        scope whose cell side is the largest reach plus 1 m. The cell is
        strictly wider than any reach, so every in-reach pair sits in
        adjacent cells even after float rounding at a cell border, and the
        links are exactly those of an all-pairs scan.
        """
        nodes = self.nodes
        live = [nodes[n] for n in scope if nodes[n].alive or n == src]
        ids = {nu.id for nu in live}
        if src not in ids or dst not in ids:
            return None
        margin = self.cfg.route_margin
        # route links must leave slack for motion during their lifetime
        reach = {nu.id: max(nu.radio_range - margin, 0.0) for nu in live}
        grid = NodeGrid(live, max(reach.values()) + 1.0)
        alpha = self.channel.alpha
        caches = self.caches
        risky_ok = False

        def link(nu: NodeState, nv: NodeState) -> bool:
            u, v = nu.id, nv.id
            d = distance(nu.position, nv.position)
            if d <= reach[u] and nu.max_power - alpha(u, v) * d >= nv.min_rcv:
                entry = caches[u].get(v)
                return risky_ok or entry is None or entry.reliable
            return False

        def into(v: int) -> Iterator[int]:
            # v is labelled, so it is dst or was yielded before
            nv = nodes[v]
            for cell in grid.around(nv.position):
                for nu in cell:
                    u = nu.id
                    if u not in labelled and link(nu, nv):
                        labelled.add(u)
                        yield u

        def out_of(u: int) -> Iterator[int]:
            nu = nodes[u]
            for cell in grid.around(nu.position):
                for nv in cell:
                    if nv.id != u and link(nu, nv):
                        yield nv.id

        labelled = {dst}
        route = shortest_route(into, out_of, src, dst)
        if route is None:
            risky_ok = True
            labelled = {dst}
            route = shortest_route(into, out_of, src, dst)
        return route

    def _on_route_reply(self, sid: int, route: tuple[int, ...]) -> None:
        sn = self.sessions[sid]
        if not sn.live or not sn.discovering:
            return
        sn.discovering = False
        sn.next_hop = dict(zip(route, route[1:]))
        for u, v in sn.next_hop.items():
            entry = self.caches[u].setdefault(v, CommCacheEntry(sig_atn=self.cfg.prior_sig_atn))
            linkcache.new_episode(entry, self.t)
        # forwarders still on the path resume; stranded holders give up
        for nid in sorted(self.runtime):
            rt = self.runtime[nid]
            if not any(q.session == sid for q in rt.queue):
                continue
            if nid not in sn.next_hop:
                self._withdraw(rt, sid, "route-invalidated", rt.inflight and rt.inflight.pid)
            if rt.queue:
                self._push(self.t + self.cfg.proc_delay, self._on_send_attempt, nid)

    def _fail_session(self, sn: Session) -> None:
        sn.live = False
        sn.discovering = False
        sn.next_hop = {}
        for rt in self.runtime.values():
            self._withdraw(rt, sn.id, "session-failed")
        self._push(self.t, self._on_session_end, sn.id)

    def _on_session_end(self, sid: int) -> None:
        sn = self.sessions[sid]
        ctl = self.controllers[sn.home_zone]
        if session_reporter(sn.src, ctl.zone, self.nodes) is not None:
            ctl.record_session_reward(sid)

    def _drop_packet(self, pid: int, cause: str) -> None:
        stat = self.ledger.packets[pid]
        if stat.status == "pending":
            stat.status = "dropped-" + cause

    def _drop_head(self, node: int, rt: NodeRuntime, cause: str) -> None:
        """Drop the packet at the head of node's queue and try the next one."""
        self._drop_packet(rt.queue.pop(0).pid, cause)
        self._push(self.t, self._on_send_attempt, node)

    def _withdraw(self, rt: NodeRuntime, sid: int, cause: str, held: int | None = None) -> None:
        """Drop every packet of session sid from a queue but the pid `held`."""
        keep = []
        for q in rt.queue:
            if q.session == sid and q.pid != held:
                self._drop_packet(q.pid, cause)
            else:
                keep.append(q)
        rt.queue = keep


def run(cfg: ScenarioConfig, seed: int | None = None) -> MetricsReport:
    """Run one scenario to completion and summarize it."""
    return Simulator(cfg, seed=seed).run()

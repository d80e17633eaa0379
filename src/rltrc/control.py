"""Zone controllers and the network controller.

Controllers are infrastructure: no battery, no mobility. Each zone controller
writes its members' last-reported position and top speed into one
network-wide registry, which the destination lookup turns into a broadcast
circle; a node keeps its last sighting after it leaves a zone. At every sync it
rebroadcasts zone state and recomputes the zone's geometry statistics and its
reward RI from the members' rewards and the filed session rewards. The
network controller sums zone rewards on a slower timer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import NodeGrid, NodeState, Point, ZoneState, distance, zone_of
from .rewards import NodeRewardState, session_reward, network_reward, zone_reward


@dataclass
class NodeTrack:
    """Last state a controller heard from one node."""

    position: Point
    last_seen: float
    max_velocity: float


@dataclass(frozen=True)
class BroadcastCircle:
    """Region that must contain the destination, and the zones it touches."""

    center: Point
    radius: float
    spans_zones: tuple[int, ...]

    def contains(self, p: Point) -> bool:
        return distance(self.center, p) <= self.radius


def circle_intersects_rect(center: Point, radius: float, zone: ZoneState) -> bool:
    """True when the circle touches the zone rectangle (closed sets)."""
    cx = min(max(center[0], zone.x0), zone.x1)
    cy = min(max(center[1], zone.y0), zone.y1)
    return distance(center, (cx, cy)) <= radius


def circle_spans(center: Point, radius: float, zones: list[ZoneState]) -> tuple[int, ...]:
    return tuple(z.id for z in zones if circle_intersects_rect(center, radius, z))


def destination_lookup(
    dst: int,
    t_now: float,
    registry: Mapping[int, NodeTrack],
    zones: list[ZoneState],
) -> BroadcastCircle:
    """Smallest circle guaranteed to hold the destination since it was last seen.

    An unknown destination yields the full-flood sentinel spanning every zone.
    """
    track = registry.get(dst)
    if track is None:
        return BroadcastCircle((0.0, 0.0), math.inf, tuple(z.id for z in zones))
    radius = track.max_velocity * (t_now - track.last_seen)
    return BroadcastCircle(track.position, radius, circle_spans(track.position, radius, zones))


def assign_zones(nodes: Mapping[int, NodeState], zones: list[ZoneState]) -> None:
    """Rebuild zone membership from current positions; dead nodes drop out."""
    for z in zones:
        z.member_nodes.clear()
    for node in nodes.values():
        node.zone_id = zone_of(node.position, zones)
        if node.alive:
            zones[node.zone_id].member_nodes.add(node.id)


# the four directions whose extreme points bound the diameter from below
_EXTENTS = (lambda p: p[0], lambda p: p[1], lambda p: p[0] + p[1], lambda p: p[0] - p[1])


def _membership_diameter(members: Iterable[int], nodes: Mapping[int, NodeState]) -> float:
    """Largest distance between two members, by an exactly pruned pair scan.

    The distance between the extreme points along x, y, x+y and x-y is a
    lower bound on the diameter. A point whose farthest bounding-box corner,
    times (1 + 1e-9) against rounding, is below that bound cannot be in the
    farthest pair and is dropped. The survivors keep their order and go
    through the same `distance` calls as the full scan, and both points of
    the farthest pair survive, so the float returned is the full scan's.
    """
    pts = [nodes[m].position for m in members]
    if len(pts) < 2:
        return 0.0
    ends = [(min(pts, key=k), max(pts, key=k)) for k in _EXTENTS]
    bound = max(distance(a, b) for a, b in ends)
    (x0, _), (x1, _) = ends[0]
    (_, y0), (_, y1) = ends[1]
    pts = [
        p for p in pts
        if math.hypot(max(p[0] - x0, x1 - p[0]), max(p[1] - y0, y1 - p[1])) * (1.0 + 1e-9) >= bound
    ]
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = max(best, distance(pts[i], pts[j]))
    return best


# the forward half of the 3x3 block: each pair of adjacent cells is visited once
_FORWARD = ((1, -1), (1, 0), (1, 1), (0, 1))


def neighbor_counts(alive: list[NodeState]) -> dict[int, int]:
    """For each alive node, the other alive nodes within its radio range.

    One pass over one `NodeGrid` whose cells are strictly wider than the
    largest radio range, so every in-range pair lies in one cell or in two
    adjacent ones even after float rounding at a cell border. Each cell is
    paired with itself and with its four forward neighbours, so each
    unordered pair is measured once: `d` is the `distance` of either order
    (x - y is exactly -(y - x)), and it counts for each end whose range
    covers it.
    """
    if not alive:
        return {}
    cells = NodeGrid(alive, max(n.radio_range for n in alive) + 1.0).cells
    counts = dict.fromkeys([n.id for n in alive], 0)
    hypot = math.hypot
    for (i, j), cell in cells.items():
        near = cell[:]
        for di, dj in _FORWARD:
            near += cells.get((i + di, j + dj), ())
        for k, u in enumerate(cell):
            ux, uy = u.position
            reach = u.radio_range
            got = 0
            for v in near[k + 1:]:
                vx, vy = v.position
                d = hypot(vx - ux, vy - uy)
                if d <= reach:
                    got += 1
                if d <= v.radio_range:
                    counts[v.id] += 1
            counts[u.id] += got
    return counts


class ZoneController:
    """Single-writer actor owning one zone's stats and reward RI, and its
    members' entries in the shared node registry."""

    def __init__(self, zone: ZoneState, registry: dict[int, NodeTrack]) -> None:
        self.zone = zone
        self.registry = registry
        self.session_rewards: dict[int, float] = {}

    def record_session_reward(self, session_id: int) -> float:
        """File a session's reward from the zone's cumulative waste totals."""
        r = session_reward(self.zone.ew, self.zone.et)
        self.session_rewards[session_id] = r
        return r

    def sync(
        self,
        t_now: float,
        nodes: Mapping[int, NodeState],
        reward_states: Mapping[int, NodeRewardState],
        *,
        neighbors: Mapping[int, int],
    ) -> list[tuple[int, float]]:
        """On every sync: refresh the registry and geometry stats, recompute RI.

        Members are alive when their zone syncs: `assign_zones` drops dead
        nodes at the start of the tick, and a node can only die from its own
        zone's charges, which are debited after its sync. `neighbors` holds
        each alive node's neighbour count from `neighbor_counts`, taken over
        the nodes alive now.

        Returns the per-node relay charges for the zone-state broadcast (one
        transmission per member at its minimum level, in power units; the
        engine converts to joules and applies the drain rule). An empty zone
        broadcasts nothing.
        """
        zone = self.zone
        members = sorted(zone.member_nodes)
        for m in members:
            n = nodes[m]
            self.registry[m] = NodeTrack(n.position, t_now, n.max_velocity)

        if len(members) >= 2:
            zone.theta = _membership_diameter(members, nodes)
        else:
            zone.theta = zone.diagonal
        if members:
            zone.av_rad = math.fsum(nodes[m].radio_range for m in members) / len(members)
            n_bar = math.fsum(neighbors[m] for m in members) / len(members)
            if n_bar > 0.0:
                # isolated zones keep the previous value so hop-count
                # quantities stay finite; flood branching never drops below 1
                zone.phi = n_bar
                zone.ng = max(1.0, n_bar)
        zone.reward_ri = zone_reward(
            [reward_states[m].total() for m in members if m in reward_states],
            self.session_rewards.values(),
        )
        return [(m, nodes[m].min_power) for m in members]


def session_reporter(src: int, zone: ZoneState, nodes: Mapping[int, NodeState]) -> int | None:
    """Node that files the session reward: the source while it is still a
    member, else the zone's lowest-id peripheral member, else nobody."""
    if src in zone.member_nodes:
        return src
    peripherals = sorted(
        m for m in zone.member_nodes if nodes[m].is_peripheral and nodes[m].alive
    )
    return peripherals[0] if peripherals else None


class NetworkController:
    """Aggregates zone rewards on the slow timer, serving a cached sum between."""

    def __init__(self, t_net: float) -> None:
        self.t_net = t_net
        self.last_collect = -math.inf
        self.cached = 0.0

    def collect(self, t_now: float, zones: list[ZoneState]) -> float:
        if t_now - self.last_collect >= self.t_net:
            self.cached = network_reward(z.reward_ri for z in zones)
            self.last_collect = t_now
        return self.cached

"""Domain types and planar geometry shared by the whole simulator.

Positions are (x, y) tuples in meters. The arena is a rectangle tiled by
axis-aligned rectangular zones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, TypeVar

Point = tuple[float, float]
R = TypeVar("R", bound=tuple)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(b[0] - a[0], b[1] - a[1])


def power_levels(count: int, low: float, high: float) -> tuple[float, ...]:
    """The levels of a node with `count` power levels: `high` alone for one
    level, else `count` levels evenly spaced from `low` to `high`.

    Raises ValueError when the levels are not positive and strictly
    ascending, a NaN level included: `low` and `high` below an ulp apart
    round equal, so they cannot space `count` levels strictly apart.
    """
    if count == 1:
        out = (float(high),)
    else:
        out = tuple(low + (high - low) * i / (count - 1) for i in range(count))
    # written as "not (x > y)" so that a NaN, which compares false, fails
    if not out[0] > 0 or not all(b > a for a, b in zip(out, out[1:])):
        raise ValueError("power levels must be positive and strictly ascending")
    return out


@dataclass(slots=True)
class NodeState:
    """A sensor node: position, kinematics, energy budget, radio capabilities.

    Only what the world build draws for each node: power_levels is the
    one tuple of its level count, and the config's one receive floor is
    `min_rcv`. A node is alive exactly while residual_energy > 0.
    """

    id: int
    position: Point
    max_velocity: float = 0.0
    residual_energy: float = 1.0
    power_levels: tuple[float, ...] = (1.0,)
    radio_range: float = 10.0
    zone_id: int = 0
    is_peripheral: bool = False

    @property
    def alive(self) -> bool:
        return self.residual_energy > 0.0


def grid_cells(records: Iterable[R], side: float) -> dict[tuple[int, int], list[R]]:
    """Records `(id, x, y, ...)` bucketed by position into square cells, for
    fixed-radius neighbor queries.

    The standard uniform-grid scheme (Bentley, Stanat & Williams 1977): when
    the cell side is larger than a query radius, every record within that
    radius of a point lies in the 3x3 block of cells around the point's
    cell. Cells are keyed `(int(x // side), int(y // side))` and keep the
    records in the order given.
    """
    cells: dict[tuple[int, int], list[R]] = {}
    for rec in records:
        key = (int(rec[1] // side), int(rec[2] // side))
        cell = cells.get(key)
        if cell is None:
            cells[key] = [rec]
        else:
            cell.append(rec)
    return cells


@dataclass
class ZoneState:
    """One rectangular zone plus the aggregates its controller keeps synced.

    theta is the maximum inter-node distance (membership diameter, falling
    back to the rectangle diagonal when fewer than two members are present),
    phi the average downlink-neighbor count, av_rad the average radio
    range, (ew, et) the cumulative wasted energy/time, reward_ri the zone
    reward. theta and phi hold the values as of the last read, av_rad
    as of the last sync: the controller computes theta and phi from its
    last syncs when `ZoneController.geometry` reads the zone, so read the
    geometry through it.
    """

    id: int
    x0: float
    y0: float
    x1: float
    y1: float
    theta: float = 1.0
    phi: float = 1.0
    av_rad: float = 1.0
    member_nodes: set[int] = field(default_factory=set)
    ew: float = 0.0
    et: float = 0.0
    reward_ri: float = 0.0

    def contains(self, p: Point) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1

    @property
    def diagonal(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)


def make_zones(width: float, height: float, count: int, av_rad: float) -> list[ZoneState]:
    """Tile a width x height arena with `count` rectangular zones.

    The grid uses the most square factorization with columns >= rows, ids
    assigned row-major. Initial theta is the rectangle diagonal, phi
    starts at its invariant floor until the first controller sync, and
    av_rad holds `av_rad` until a sync finds the zone with members.
    `count` is one of the config's VALID_ZONE_COUNTS, so at least 1.
    """
    rows = max(r for r in range(1, int(math.isqrt(count)) + 1) if count % r == 0)
    cols = count // rows
    zones = []
    for r in range(rows):
        for c in range(cols):
            z = ZoneState(
                id=r * cols + c,
                x0=width * c / cols,
                y0=height * r / rows,
                x1=width * (c + 1) / cols,
                y1=height * (r + 1) / rows,
                av_rad=av_rad,
            )
            z.theta = z.diagonal
            zones.append(z)
    return zones


# how far inside its zone's internal edge a static relay sits, in meters
PERIPHERAL_INSET = 1.0


def peripheral_spots(z: ZoneState, count: int, width: float, height: float) -> list[Point]:
    """`count` static relay positions PERIPHERAL_INSET inside the internal
    edges of zone z of a width x height arena, taken round-robin over the
    right, left, top and bottom edges that it has."""
    inset = PERIPHERAL_INSET
    edges = []
    if z.x1 < width:
        edges.append("right")
    if z.x0 > 0.0:
        edges.append("left")
    if z.y1 < height:
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


def zone_of(point: Point, zones: list[ZoneState]) -> int:
    """Zone id containing the point; boundary ties go to the lowest zone id.

    Raises ValueError for points outside every zone (outside the arena).
    """
    for z in zones:
        if z.contains(point):
            return z.id
    raise ValueError("point %r lies outside the arena" % (point,))

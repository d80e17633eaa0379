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


@dataclass
class NodeState:
    """A sensor node: position, kinematics, energy budget, radio capabilities.

    power_levels must be strictly ascending and positive; a node is alive
    exactly while residual_energy > 0; peripheral nodes never move.
    """

    id: int
    position: Point
    max_velocity: float = 0.0
    residual_energy: float = 1.0
    power_levels: tuple[float, ...] = (1.0,)
    radio_range: float = 10.0
    min_rcv: float = 1.0
    zone_id: int = 0
    is_peripheral: bool = False

    def __post_init__(self) -> None:
        levels = tuple(float(p) for p in self.power_levels)
        if not levels:
            raise ValueError("node %d has no power levels" % self.id)
        if levels[0] <= 0 or any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("power levels must be positive and strictly ascending")
        self.power_levels = levels
        if self.is_peripheral and self.max_velocity != 0.0:
            raise ValueError("peripheral nodes are static")

    @property
    def alive(self) -> bool:
        return self.residual_energy > 0.0

    @property
    def max_power(self) -> float:
        return self.power_levels[-1]

    @property
    def min_power(self) -> float:
        return self.power_levels[0]


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


def make_zones(width: float, height: float, count: int, av_rad: float = 25.0) -> list[ZoneState]:
    """Tile a width x height arena with `count` rectangular zones.

    The grid uses the most square factorization with columns >= rows, ids
    assigned row-major. Initial theta is the rectangle diagonal and phi
    starts at its invariant floor until the first controller sync.
    """
    if count < 1:
        raise ValueError("zone count must be >= 1")
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


def zone_of(point: Point, zones: list[ZoneState]) -> int:
    """Zone id containing the point; boundary ties go to the lowest zone id.

    Raises ValueError for points outside every zone (outside the arena).
    """
    for z in zones:
        if z.contains(point):
            return z.id
    raise ValueError("point %r lies outside the arena" % (point,))

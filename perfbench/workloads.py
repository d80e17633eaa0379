"""The benchmark's workloads: scenario configs and the worlds each run simulates.

A run with `--seed s` simulates the worlds s, s + 1000, s + 2000, ... (as
many as the workload's `worlds`). Host time and memory differ by up to 2x
between worlds of one workload (converge: 0.6-1.2 s), so each run averages
many worlds; the stride keeps the worlds of nearby seeds apart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

WORLD_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    canned: str                # scenario in rltrc.scenarios the workload starts from
    worlds: int                # distinct worlds per run; their mean must vary little by seed
    overrides: dict = field(default_factory=dict)
    golden: bool = False       # seed 1 must match tests/golden/<canned>-seed1.json

    def world_seeds(self, seed: int) -> list[int]:
        return [seed + WORLD_STRIDE * i for i in range(self.worlds)]

    def config(self):
        # imported here so that run.py's timing parent never loads the
        # simulator: a child's peak resident set starts at its parent's
        from rltrc.scenarios import scenario
        return scenario(self.canned, **self.overrides)


def schedule(worlds: list[int], seconds: float) -> Iterator[int]:
    """Worlds in turn: every world once, then on until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(worlds) or time.perf_counter() < deadline:
        yield worlds[i % len(worlds)]
        i += 1


WORKLOADS: dict[str, Workload] = {
    # desk-converge at N=400 with the arena scaled to keep node density and
    # sessions = N // 16: route discovery and controller sync are O(n^2).
    "ladder-400": Workload(
        "desk-converge", worlds=4,
        overrides=dict(nodes=400, arena_width=280.0, arena_height=210.0,
                       sessions=25, duration=60.0),
    ),
    # the canned scenario: high route churn gives many small discoveries
    "converge": Workload("desk-converge", worlds=24, golden=True),
    # desk-compare geometry with nearly still nodes, run long: links rarely
    # break, so the per-packet path does the work and the ledger grows
    "still-forward": Workload(
        "desk-compare", worlds=16,
        overrides=dict(vmax_min=0.0, vmax_max=0.3, sessions=12, duration=1200.0),
    ),
}

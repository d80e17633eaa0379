"""Correctness gate: every simulated run is checked, and each failure counts.

A run fails when it raises, when it breaks a ledger invariant or the golden
digest (see world.run_problems), or when its summary or series CSV digest
differs from the reference recorded for its world or from an earlier run of
the same world in this benchmark run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def short(got: tuple[str, str]) -> str:
    """The form reference.json keeps: 16 leading hex digits of each digest."""
    return " ".join(d[:16] for d in got)


class Gate:
    """Counts attempted and failed runs of one workload; reasons go to stderr."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        recorded = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        self.reference: dict[str, str] = recorded.get(workload, {})
        self.seen: dict[int, tuple[str, str]] = {}
        self.attempted = 0
        self.failed = 0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def has_reference(self, world: int) -> bool:
        return str(world) in self.reference

    def verify(self, world: int, got: tuple[str, str], problems: list[str]) -> None:
        """Count one finished run from its CSV digests and its own problems."""
        self.attempted += 1
        problems = list(problems)
        if got != self.seen.setdefault(world, got):
            problems.append("digest differs from this world's earlier run")
        ref = self.reference.get(str(world))
        if ref is not None and short(got) != ref:
            problems.append("digest %s differs from reference.json's %s" % (short(got), ref))
        self._record(world, problems)

    def raised(self, world: int, why: str) -> None:
        self.attempted += 1
        self._record(world, [why])

    def _record(self, world: int, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            for p in problems:
                print("perfbench: %s world %d: %s" % (self.workload, world, p), file=sys.stderr)

"""Time one world of a workload in a fresh process, and check its result.

    python3 perfbench/world.py WORKLOAD WORLD

run.py starts one of these per timed run and waits for it. A fresh process
gives each run its own peak resident set, read from getrusage; tracemalloc
would make the run 4-5x slower. The peak includes the interpreter and its
imports (about 17 MB): Linux starts a child's peak at its parent's resident
set, so the growth over a base read at start-up would be wrong whenever the
parent is the larger. Prints one JSON object: the seconds of each
construction and of the run (probe time left out), the host slowness the
probes measured meanwhile (see speed.py), the events the run dispatched, the
peak resident set, the CSV digests and every problem found in the result:

- the debits re-sum to the energy consumed (`report.ec`);
- every packet ends in exactly one known status;
- per zone, waste never exceeds investment, in energy and in time;
- a canned scenario at seed 1 reproduces its golden digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rltrc.engine import Simulator  # noqa: E402  (needs the path above)
from rltrc.metrics import MetricsReport, render_csv  # noqa: E402

from speed import Probes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 20  # constructions timed per child; setup_s is their median

STATUSES = frozenset(
    ["delivered", "pending"]
    + ["dropped-" + cause for cause in
       ("node-death", "session-failed", "route-invalidated", "link-breakage")]
)


def build(cfg, world: int, clock=time.perf_counter) -> tuple[Simulator, float]:
    """A fresh world and the seconds its construction took."""
    gc.collect()
    t0 = clock()
    sim = Simulator(cfg, world)
    return sim, clock() - t0


def simulate(cfg, world: int, clock=time.perf_counter):
    """Build and run one world: (simulator, report, setup seconds, run seconds)."""
    sim, setup_s = build(cfg, world, clock)
    gc.collect()
    t0 = clock()
    report = sim.run()
    return sim, report, setup_s, clock() - t0


def dispatched_events(sim: Simulator) -> int:
    """Events the run loop popped: pushes so far minus those still queued."""
    return next(sim._seq) - len(sim._events)


def digests(report: MetricsReport) -> tuple[str, str]:
    """sha256 of the summary CSV and of the windowed series CSV."""
    return (hashlib.sha256(render_csv(report).encode()).hexdigest(),
            hashlib.sha256(render_csv(report.series).encode()).hexdigest())


def invariant_problems(sim: Simulator, report: MetricsReport) -> list[str]:
    ledger = sim.ledger
    problems = []
    debits = ledger.total_debits()
    if not math.isclose(debits, report.ec, rel_tol=1e-9, abs_tol=1e-9):
        problems.append("debits sum to %r J but ec is %r J" % (debits, report.ec))
    unknown = sorted({p.status for p in ledger.packets.values()} - STATUSES)
    if unknown:
        problems.append("packet statuses outside the known set: %s" % unknown)
    waste = defaultdict(lambda: ([], []))
    invest = defaultdict(lambda: ([], []))
    for rows, sums in ((ledger.waste_rows, waste), (ledger.invest_rows, invest)):
        for _t, zone, energy, seconds in rows:
            sums[zone][0].append(energy)
            sums[zone][1].append(seconds)
    for zone in sorted(waste):
        for col, label in ((0, "energy"), (1, "time")):
            w, i = math.fsum(waste[zone][col]), math.fsum(invest[zone][col])
            if w > i * (1.0 + 1e-9) + 1e-12:
                problems.append("zone %d wastes %r of %s but invested %r" % (zone, w, label, i))
    return problems


def golden_problems(sim: Simulator, report: MetricsReport, canned: str) -> list[str]:
    """Differences from tests/golden/<canned>-seed1.json, which is only read."""
    path = ROOT / "tests" / "golden" / ("%s-seed1.json" % canned)
    try:
        blessed = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        return ["cannot read golden digest: %s" % exc]
    summary, series = digests(report)
    actual = {
        "summary_sha256": summary,
        "series_sha256": series,
        "omc": report.omc,
        "packets": len(sim.ledger.packets),
        "debits": len(sim.ledger.debits),
    }
    return ["%s is %r, golden %s says %r" % (key, value, path.name, blessed.get(key))
            for key, value in actual.items() if blessed.get(key) != value]


def run_problems(sim: Simulator, report: MetricsReport, wl) -> list[str]:
    problems = invariant_problems(sim, report)
    if wl.golden and sim.seed == 1:
        problems += golden_problems(sim, report, wl.canned)
    return problems


def main() -> None:
    wl = WORKLOADS[sys.argv[1]]
    world = int(sys.argv[2])
    cfg = wl.config()
    with Probes() as probes:
        sim, report, _, run_s = simulate(cfg, world, probes.clock)
        result = {
            "run_s": run_s,
            "run_slowness": probes.slowness(),
            "peak_rss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,  # Linux: KiB
            "events": dispatched_events(sim),
            "digests": digests(report),
            "problems": run_problems(sim, report, wl),
        }
        del sim, report
        # timed after the run, so they leave its peak alone, and with their
        # own probes, since they take a fraction of a second
        probes.probe()
        first = len(probes.times) - 1
        setups = []
        for _ in range(SETUP_REPEATS):
            extra, seconds = build(cfg, world, probes.clock)
            setups.append(seconds)
            del extra
    print(json.dumps(dict(result, setup_s=setups, setup_slowness=probes.slowness(first))))


if __name__ == "__main__":
    main()

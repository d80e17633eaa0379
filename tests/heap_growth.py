"""Check that a long run's heap stops growing with its length.

    python tests/heap_growth.py

Runs the still-forward world (desk-compare with top speeds in [0, 0.3],
12 sessions, seed 1) for 1 200 and for 2 400 simulated seconds, each in a
fresh process under tracemalloc, imports left out. For each it prints the
heap held when the run has returned its report, with the world and its
ledger still alive, and the heap peak during the run. It exits 1 when the
2 400 s end heap is more than MAX_GROWTH times the 1 200 s one, or a child
fails: a ledger that keeps a row or a record per packet, per hop or per
zone booking grows with the run.

The peak is printed, not checked. It is set by the longest queues the
world builds up, and the 2 400 s world builds longer ones than its first
1 200 s do. A held packet costs one record, its `PacketStat` in the
ledger's live packets, plus its queue entries.

It needs only the standard library and an importable `rltrc` (installed,
or PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
import tracemalloc

DURATIONS = (1200.0, 2400.0)
MAX_GROWTH = 1.10


def heap_after_run(duration: float) -> dict:
    from rltrc.engine import Simulator
    from rltrc.scenarios import scenario

    cfg = scenario("desk-compare", vmax_min=0.0, vmax_max=0.3, sessions=12,
                   duration=duration, seed=1)
    gc.collect()
    tracemalloc.start()
    t0 = time.perf_counter()
    sim = Simulator(cfg)
    sim.run()
    run_s = time.perf_counter() - t0
    end, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"duration": duration, "packets": len(sim.ledger.packets),
            "live": len(sim.ledger.packets.live), "run_s": run_s,
            "end_mb": end / 1e6, "peak_mb": peak / 1e6}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(heap_after_run(args.child)))
        return 0
    print("%9s %8s %6s %9s %8s %8s" % ("seconds", "packets", "live", "run_s", "end_mb", "peak_mb"))
    ends = []
    for duration in DURATIONS:
        child = subprocess.run([sys.executable, __file__, "--child", repr(duration)],
                               capture_output=True, text=True)
        if child.returncode != 0:
            print("%g s: child exited %d\n%s" % (duration, child.returncode, child.stderr),
                  file=sys.stderr)
            return 1
        got = json.loads(child.stdout)
        print("%9g %8d %6d %9.2f %8.2f %8.2f" % (duration, got["packets"], got["live"],
                                                 got["run_s"], got["end_mb"], got["peak_mb"]),
              flush=True)
        ends.append(got["end_mb"])
    growth = ends[1] / ends[0]
    print("the %g s end heap is %.3fx the %g s one (at most %.2fx passes)"
          % (DURATIONS[1], growth, DURATIONS[0], MAX_GROWTH))
    return 0 if growth <= MAX_GROWTH else 1


if __name__ == "__main__":
    sys.exit(main())

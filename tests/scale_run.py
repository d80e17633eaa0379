"""Run the scale world at each node count given, one fresh process each.

    python tests/scale_run.py 800 1600 3200

The scale world is desk-converge at its density (the arena scaled by
sqrt(N / 100)), N // 16 sessions, seed 7, 60 simulated seconds. For each N
this prints the seconds `Simulator.run` took, the median seconds of 5
constructions of the world (`Simulator(cfg)`, each after a `gc.collect()`,
made once the run is over so they leave its peak alone), the debits the
ledger booked, the energy consumed (EC) and the child's peak resident set.
The peak is read from getrusage and includes the interpreter and its
imports; Linux starts a child's peak at the resident set of the process that
started it, and this parent loads only the standard library.

It needs only the standard library and an importable `rltrc` (installed, or
PYTHONPATH=src). It exits 1 when a run breaks a ledger invariant
(`metrics.invariant_problems`) or its child fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time

SETUP_REPEATS = 5  # constructions timed per N; setup_s is their median


def scale_world(nodes: int) -> dict:
    from rltrc.engine import Simulator
    from rltrc.metrics import invariant_problems
    from rltrc.scenarios import scenario

    side = (nodes / 100) ** 0.5
    cfg = scenario("desk-converge", nodes=nodes, arena_width=140.0 * side,
                   arena_height=105.0 * side, sessions=nodes // 16, duration=60.0, seed=7)
    sim = Simulator(cfg)
    t0 = time.perf_counter()
    report = sim.run()
    run_s = time.perf_counter() - t0
    got = {
        "nodes": nodes,
        "run_s": run_s,
        "debits": sim.ledger.debit_count,
        "ec": report.ec,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,  # KiB
        "problems": invariant_problems(sim.ledger, report),
    }
    del sim, report
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        extra = Simulator(cfg)
        setups.append(time.perf_counter() - t0)
        del extra
    return dict(got, setup_s=sorted(setups)[SETUP_REPEATS // 2])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("nodes", type=int, nargs="+", help="node counts")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(scale_world(args.nodes[0])))
        return 0
    status = 0
    print("%6s %9s %9s %10s %12s %12s"
          % ("nodes", "run_s", "setup_s", "debits", "ec_J", "peak_rss_mb"))
    for n in args.nodes:
        child = subprocess.run([sys.executable, __file__, "--child", str(n)],
                               capture_output=True, text=True)
        if child.returncode != 0:
            print("N=%d: child exited %d\n%s" % (n, child.returncode, child.stderr), file=sys.stderr)
            status = 1
            continue
        got = json.loads(child.stdout)
        print("%6d %9.2f %9.4f %10d %12.6g %12.1f"
              % (n, got["run_s"], got["setup_s"], got["debits"], got["ec"], got["peak_rss_mb"]),
              flush=True)
        for problem in got["problems"]:
            print("N=%d: %s" % (n, problem), file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

"""rltrc benchmark: host time and memory per simulated run, and where it goes.

Run from the repository root:

    python3 perfbench/run.py --workload converge --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics with no tracing installed;
`--trace 1` makes a separate traced run and reports the per-layer metrics.
Runs go one at a time; each timed run is a fresh child process. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines above it repeat each metric with its unit. See
README.md for the workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# stdlib only: the timing parent never loads the simulator (see workloads.py)
from gate import Gate
from workloads import WORKLOADS, schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 90  # a ladder-400 child takes about 6 s


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="keep cycling the worlds until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def commit_hash() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_world(samples: dict[int, list[float]]) -> float:
    """Mean over worlds of each world's median sample."""
    return statistics.fmean(statistics.median(s) for s in samples.values() if s)


def run_world(workload: str, world: int) -> dict:
    """One timed run in a fresh child process; raises when the child fails."""
    done = subprocess.run(
        [sys.executable, str(HERE / "world.py"), workload, str(world)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError("exit code %d: %s" % (done.returncode, done.stderr.strip()[-2000:]))
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(name: str, wl, seed: int, seconds: float, gate: Gate) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from untraced runs, one fresh child process per run.

    Each time is divided by the host slowness measured during its run (see
    speed.py); each metric is the mean over worlds of the world's median.
    """
    worlds = wl.world_seeds(seed)
    setup = {w: [] for w in worlds}
    run = {w: [] for w in worlds}
    rss = {w: [] for w in worlds}
    raw_run = {w: [] for w in worlds}
    slowness = []
    events: dict[int, int] = {}
    for w in schedule(worlds, seconds):
        try:
            got = run_world(name, w)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            gate.raised(w, "run failed: %s" % exc)
            continue
        slow = got["run_slowness"]
        slowness.append(slow)
        setup[w] += [s / got["setup_slowness"] for s in got["setup_s"]]
        run[w].append(got["run_s"] / slow)
        raw_run[w].append(got["run_s"])
        rss[w].append(got["peak_rss"])
        events[w] = got["events"]
        gate.verify(w, tuple(got["digests"]), got["problems"])
    run_s = per_world(run)
    print("# host slowness %.3f (median over runs), unscaled run_s %.6g s"
          % (statistics.median(slowness), per_world(raw_run)))
    return {
        "setup_s": (per_world(setup), "s"),
        "run_s": (run_s, "s"),
        "events_per_s": (statistics.fmean(events.values()) / run_s, "1/s"),
        "peak_mem_mb": (per_world(rss) / 1e6, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rltrc" / "engine.py").is_file():
        print("perfbench: no simulator source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    gate = Gate(args.workload)
    worlds = wl.world_seeds(args.seed)
    print("# env python=%s nproc=%d commit=%s" % (
        platform.python_version(), len(os.sched_getaffinity(0)), commit_hash()))
    print("# workload=%s seed=%d worlds=%s reference=%s trace=%d" % (
        args.workload, args.seed, worlds,
        "recorded" if all(gate.has_reference(w) for w in worlds) else "none (self-consistency only)",
        args.trace))
    if args.trace:
        from layers import per_layer  # loads the simulator into this process
        metrics = per_layer(wl, args.seed, args.seconds, gate)
    else:
        metrics = end_to_end(args.workload, wl, args.seed, args.seconds, gate)
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    print("%-32s %14d of %d runs attempted" % ("failed_runs", gate.failed, gate.attempted))
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the CSV digests that the benchmark's correctness gate compares against.

Run from the repository root after an intentional behaviour change (the same
change re-blesses tests/golden with tests/bless_golden.py), and commit the
rewritten perfbench/reference.json:

    python3 perfbench/record.py

Every world that a benchmark run with `--seed 0` .. `--seed 29` simulates is
run once and its summary and series digests are stored. Runs whose seed is
outside that range still check determinism, the golden digest and the ledger
invariants, but have no recorded digest to match.
"""

from __future__ import annotations

import json

from gate import REFERENCE, short
from workloads import WORKLOADS
from world import digests, simulate

RECORDED_SEEDS = range(30)


def main() -> None:
    recorded = {}
    for name, wl in WORKLOADS.items():
        cfg = wl.config()
        recorded[name] = {}
        for seed in RECORDED_SEEDS:
            for world in wl.world_seeds(seed):
                report = simulate(cfg, world)[1]
                recorded[name][str(world)] = short(digests(report))
            print("%s seed %d recorded" % (name, seed), flush=True)
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

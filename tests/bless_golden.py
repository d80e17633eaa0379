"""Regenerate the golden trace digests, or check them.

Run `python tests/bless_golden.py` after an intentional behavior change and
commit the rewritten JSON files. The regression test refuses to update them
itself: a digest mismatch is a failure, never an auto-bless.

`python tests/bless_golden.py --check` writes nothing: it reruns every
golden, reports each one whose file would change, with each key whose value
moved, and exits 1 if any would.
It also reports, and exits 1 on, any JSON file in the golden directory that
no golden trace produces, such as one left behind by a rename. It needs
only the standard library, so it checks the digests on interpreters
without pytest.

Every golden run must also pass `metrics.invariant_problems`. Blessing
writes no golden whose run breaks one, `--check` reports it, and either
way the script exits 1.

Besides every canned scenario at seed 1, the digests cover desk-compare at
seed 1 under the settings no canned scenario uses: each baseline policy,
the other two mobility models, a nonzero noise spread and batteries that
run flat; and desk-converge at seed 1 on 6-, 9- and 12-zone grids and
with the flood-cost cap at its config default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from rltrc.config import ScenarioConfig
from rltrc.engine import Simulator
from rltrc.metrics import invariant_problems, render_csv
from rltrc.scenarios import names, scenario

GOLDEN_DIR = Path(__file__).parent / "golden"

# golden name -> (canned scenario, overrides)
GOLDEN_TRACES: dict[str, tuple[str, dict]] = {name: (name, {}) for name in names()}
GOLDEN_TRACES.update({
    "desk-compare-" + policy: ("desk-compare", {"policy": policy})
    for policy in ("fixed-max", "odtpc-like", "beacon-rssi-like", "beacon-prr-like")
})
GOLDEN_TRACES.update({
    "desk-compare-random-walk": ("desk-compare", {"mobility": "random-walk"}),
    "desk-compare-gaussian": ("desk-compare", {"mobility": "gaussian"}),
    "desk-compare-noise": ("desk-compare", {"noise_spread": 0.1}),
    # batteries low enough that nodes die mid-run
    "desk-compare-low-energy": ("desk-compare", {"energy_min": 0.3, "energy_max": 1.0}),
    # 6-, 9- and 12-zone grids, so corridors span rows and columns
    "desk-converge-6-zones": ("desk-converge", {"zones": 6}),
    "desk-converge-9-zones": ("desk-converge", {"zones": 9}),
    "desk-converge-12-zones": ("desk-converge", {"zones": 12}),
    # flood costs capped at the config default, not the canned 30 messages
    "desk-converge-uncapped": ("desk-converge",
                               {"broadcast_cost_cap": ScenarioConfig.broadcast_cost_cap}),
})


def golden_path(golden: str) -> Path:
    return GOLDEN_DIR / ("%s-seed1.json" % golden)


def stray_goldens() -> list[str]:
    """Names of the JSON files in the golden directory that no entry of
    `GOLDEN_TRACES` produces, sorted."""
    produced = {golden_path(golden).name for golden in GOLDEN_TRACES}
    return sorted(p.name for p in GOLDEN_DIR.glob("*.json") if p.name not in produced)


def moved(path: Path, payload: dict) -> str:
    """Each key whose value differs between the blessed file at `path` and
    `payload`, as `key blessed -> new` in JSON."""
    if not path.is_file():
        return "no blessed file"
    try:
        blessed = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        return "the blessed file is not JSON"

    def show(values: dict, key: str) -> str:
        return json.dumps(values[key], sort_keys=True) if key in values else "(absent)"

    changes = ["%s %s -> %s" % (key, show(blessed, key), show(payload, key))
               for key in sorted(set(blessed) | set(payload))
               if show(blessed, key) != show(payload, key)]
    return "; ".join(changes) or "formatting only"


def trace(name: str, seed: int, **overrides) -> tuple[dict, list[str]]:
    """The golden payload of one run, and the run's invariant problems."""
    sim = Simulator(scenario(name, seed=seed, **overrides))
    rep = sim.run()
    payload = {
        "scenario": name,
        "seed": seed,
        "summary_sha256": hashlib.sha256(render_csv(rep).encode()).hexdigest(),
        "series_sha256": hashlib.sha256(render_csv(rep.series).encode()).hexdigest(),
        "omc": rep.omc,
        "packets": len(sim.ledger.packets),
        "debits": sim.ledger.debit_count,
    }
    if overrides:
        payload["overrides"] = overrides
    return payload, invariant_problems(sim.ledger, rep)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare every golden with a fresh run, write nothing, "
                         "exit 1 on any mismatch or broken invariant")
    args = ap.parse_args(argv)
    if not args.check:
        GOLDEN_DIR.mkdir(exist_ok=True)
    mismatched = broken = 0
    for golden, (name, overrides) in GOLDEN_TRACES.items():
        payload, problems = trace(name, seed=1, **overrides)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        path = golden_path(golden)
        if problems:
            broken += 1
            print("BROKEN %s: %s" % (path.name, "; ".join(problems)))
        if args.check:
            if path.is_file() and path.read_text(encoding="utf-8") == text:
                print("ok %s" % path.name)
            else:
                mismatched += 1
                print("MISMATCH %s: %s" % (path.name, moved(path, payload)))
        elif not problems:
            path.write_text(text, encoding="utf-8")
            print("blessed %s" % path.name)
    stray = []
    if args.check:
        stray = stray_goldens()
        for name in stray:
            print("STRAY %s: no golden trace produces it" % name)
        print("%d of %d goldens mismatch" % (mismatched, len(GOLDEN_TRACES)))
    if broken:
        print("%d of %d golden runs break an invariant" % (broken, len(GOLDEN_TRACES)))
    return 1 if mismatched or broken or stray else 0


if __name__ == "__main__":
    sys.exit(main())

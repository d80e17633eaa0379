"""Regenerate the golden trace digests.

Run `python tests/bless_golden.py` after an intentional behavior change and
commit the rewritten JSON files. The regression test refuses to update them
itself: a digest mismatch is a failure, never an auto-bless.

Besides every canned scenario at seed 1, the digests cover desk-compare at
seed 1 under the settings no canned scenario uses: each baseline policy,
the other two mobility models, a nonzero noise spread and batteries that
run flat; and desk-converge at seed 1 on a 9-zone grid.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from rltrc.engine import Simulator
from rltrc.metrics import render_csv
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
    # a 3 x 3 zone grid, so corridors span rows and columns
    "desk-converge-9-zones": ("desk-converge", {"zones": 9}),
})


def trace(name: str, seed: int, **overrides) -> dict:
    sim = Simulator(scenario(name, seed=seed, **overrides))
    rep = sim.run()
    payload = {
        "scenario": name,
        "seed": seed,
        "summary_sha256": hashlib.sha256(render_csv(rep).encode()).hexdigest(),
        "series_sha256": hashlib.sha256(render_csv(rep.series).encode()).hexdigest(),
        "omc": rep.omc,
        "packets": len(sim.ledger.packets),
        "debits": len(sim.ledger.debits),
    }
    if overrides:
        payload["overrides"] = overrides
    return payload


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden, (name, overrides) in GOLDEN_TRACES.items():
        payload = trace(name, seed=1, **overrides)
        path = GOLDEN_DIR / ("%s-seed1.json" % golden)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print("blessed %s" % path.name)


if __name__ == "__main__":
    main()

"""End-to-end acceptance checks, one test per release gate.

Each test is self-contained and prints as its own pass/fail line under
`pytest -v`. Tolerances are part of the gate and appear inline; expected
values come from the oracles module or from hand arithmetic frozen here.
"""

import hashlib
import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import LedgerSpy, oracle_ledger_recheck, oracle_max_distance

from rltrc.engine import Simulator
from rltrc.linkcache import CommCacheEntry, PacketRecord, record_ack, record_tx
from rltrc.metrics import invariant_problems, render_csv
from rltrc.policy import compute_sigma, select_power_level
from rltrc.rewards import broadcast_cost, per_hop_progress, successor_reward_ack
from rltrc.scenarios import names, scenario

GOLDEN_DIR = Path(__file__).parent / "golden"


def test_criterion_01_farthest_neighbor_closed_form():
    """Closed-form mean farthest-neighbor distance matches Monte Carlo."""
    t0 = time.monotonic()
    for n in (1, 2, 5, 10):
        for radius in (9.0, 10.0):
            mc = oracle_max_distance(n, radius, samples=10**6, seed=1000 * n + int(radius))
            closed = per_hop_progress(n, radius)
            assert closed == pytest.approx(mc, rel=0.01)
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_ack_reward_monotone_in_trend():
    """Approaching successors never grade below receding ones."""
    rng = random.Random(2)
    for _ in range(1000):
        prr = rng.random()
        rot = rng.random()
        up = successor_reward_ack(prr, rot, 1)
        flat = successor_reward_ack(prr, rot, 0)
        down = successor_reward_ack(prr, rot, -1)
        base = ((1.0 + prr) / 2.0) * ((1.0 + rot) / 2.0)
        if base == 1.0:
            assert up == flat == down == 1.0
        else:
            assert up > flat > down
    assert successor_reward_ack(0.6, 0.5, 1) == pytest.approx(0.8801, abs=1e-4)
    assert successor_reward_ack(0.6, 0.5, 0) == pytest.approx(0.7746, abs=1e-4)
    assert successor_reward_ack(0.6, 0.5, -1) == pytest.approx(0.6817, abs=1e-4)


def test_criterion_03_exploration_rate_table():
    """Exploration rate hits the pinned values and stays a probability."""
    assert compute_sigma(-5.0, 0.0) == 0.001
    assert compute_sigma(0.5, 0.0) == 0.5
    assert compute_sigma(3.0, 2.0) == pytest.approx(0.8660, abs=1e-4)
    assert compute_sigma(3.0, -0.5) == pytest.approx(0.9375, abs=1e-12)
    rng = random.Random(3)
    for _ in range(10**5):
        sigma = compute_sigma(rng.uniform(-10, 10), rng.uniform(-5, 5))
        assert 0.001 <= sigma <= 0.999


def test_criterion_04_selection_frequencies():
    """Greedy picks ~96% of draws at sigma 0.05 over five levels."""
    levels = (5.0, 10.0, 15.0, 20.0, 25.0)
    rng = random.Random(4)
    draws = 10**5
    counts = {lv: 0 for lv in levels}
    for _ in range(draws):
        counts[select_power_level(levels, 0.05, True, rng)] += 1
    greedy_pct = 100.0 * counts[25.0] / draws
    assert greedy_pct == pytest.approx(96.0, abs=0.5)
    for lv in levels[:-1]:
        assert 100.0 * counts[lv] / draws == pytest.approx(1.0, abs=0.3)


def test_criterion_05_flood_cost_closed_form():
    """Geometric-series flood cost equals term-by-term summation."""
    for ng in (2, 3, 4, 5):
        for m in range(1, 21):
            direct = float(sum(ng**i for i in range(1, m + 1)))
            assert broadcast_cost(float(ng), float(m), cap=math.inf) == direct
    assert broadcast_cost(2.0, 3.0, cap=math.inf) == 14.0


def test_criterion_06_estimator_recovery():
    """Attenuation and speed recovered from two clean acknowledged packets."""
    alpha, vs, power = 1.75, 30.0, 60.0
    d1 = 6.0
    t_ack1 = 0.2
    # radial mover at 3 m/s: distance grows by 15 m over the 5 s between acks
    d2 = d1 + 3.0 * 5.0
    t_ack2 = t_ack1 + 5.0
    rec1 = PacketRecord(t_msg=t_ack1 - d1 / vs, t_ack=t_ack1,
                        tx_power=power, rss=power - alpha * d1)
    rec2 = PacketRecord(t_msg=t_ack2 - d2 / vs, t_ack=t_ack2,
                        tx_power=power, rss=power - alpha * d2)
    # the engine's own path: a link cache folding both acks in turn
    entry = CommCacheEntry(sig_atn=0.14)
    for rec in (rec1, rec2):
        record_tx(entry)
        record_ack(entry, rec, vs, radio_range=35.0)
    assert entry.sig_atn == pytest.approx(alpha, rel=1e-9)
    assert entry.approx_velocity == pytest.approx(3.0, rel=0.10)


def test_criterion_07_energy_conservation_and_recheck():
    """Busy run balances its books and survives an independent re-summation."""
    sim = Simulator(scenario("desk-conserve"))
    spy = LedgerSpy(sim.ledger)
    report = sim.run()
    assert invariant_problems(sim.ledger, report) == []
    ew, et, ec, awe, awt = oracle_ledger_recheck(sim.ledger, spy)
    assert math.fsum(r[3] for r in spy.debit_calls) == pytest.approx(ec, rel=1e-9)
    inc_ew = math.fsum(z.ew for z in sim.zones)
    inc_et = math.fsum(z.et for z in sim.zones)
    assert ew == pytest.approx(inc_ew, rel=1e-9)
    assert et == pytest.approx(inc_et, rel=1e-9)
    assert ec == pytest.approx(report.ec, rel=1e-9)
    assert awe == pytest.approx(report.awe, rel=1e-9)
    assert awt == pytest.approx(report.awt, rel=1e-9)


def test_criterion_08_determinism_and_golden_digests():
    """Equal seeds give equal bytes; blessed digests still hold."""
    first = Simulator(scenario("desk-conserve")).run()
    second = Simulator(scenario("desk-conserve")).run()
    assert render_csv(first) == render_csv(second)
    for name in names():
        blessed = json.loads((GOLDEN_DIR / ("%s-seed1.json" % name)).read_text())
        report = Simulator(scenario(name, seed=blessed["seed"])).run()
        summary = hashlib.sha256(render_csv(report).encode()).hexdigest()
        series = hashlib.sha256(render_csv(report.series).encode()).hexdigest()
        assert summary == blessed["summary_sha256"], name
        assert series == blessed["series_sha256"], name


def test_criterion_09_windowed_waste_declines():
    """Late-run waste fractions fall well below the early-run level."""
    t0 = time.monotonic()
    passing = 0
    for seed in (1, 2, 3, 4, 5):
        report = Simulator(scenario("desk-converge", seed=seed)).run()
        series = report.series
        quarter = len(series) // 4
        first = series[:quarter]
        last = series[-quarter:]
        awe_ratio = (sum(r[1] for r in last) / quarter) / (sum(r[1] for r in first) / quarter)
        awt_ratio = (sum(r[2] for r in last) / quarter) / (sum(r[2] for r in first) / quarter)
        if awe_ratio <= 0.80 and awt_ratio <= 0.80:
            passing += 1
    assert passing >= 4
    assert time.monotonic() - t0 < 120.0


def test_criterion_10_beats_fixed_max_on_energy():
    """Adaptive power saves >=10% energy without giving up throughput."""
    wins = 0
    for seed in (1, 2, 3, 4, 5):
        adaptive = Simulator(scenario("desk-compare", seed=seed)).run()
        fixed = Simulator(scenario("desk-compare", seed=seed, policy="fixed-max")).run()
        saving = (fixed.ec - adaptive.ec) / fixed.ec * 100.0
        ntg_gap = (adaptive.ntg or 0.0) - (fixed.ntg or 0.0)
        if saving >= 10.0 and ntg_gap >= -5.0:
            wins += 1
    assert wins >= 4

import random

import pytest

from rltrc.policy import (
    LinkSnapshot,
    baseline_decide,
    compute_sigma,
    select_power_level,
)


class TestComputeSigma:
    def test_negative_zone_reward_floors(self):
        assert compute_sigma(-5.0, 0.0) == 0.001
        assert compute_sigma(-0.001, 100.0) == 0.001

    def test_subunit_zone_reward_passthrough(self):
        assert compute_sigma(0.5, -3.0) == 0.5
        assert compute_sigma(0.0, 5.0) == 0.001  # clamped up

    def test_worked_examples(self):
        assert compute_sigma(3.0, 2.0) == pytest.approx(0.8660, abs=1e-4)
        assert compute_sigma(3.0, -0.5) == pytest.approx(0.9375)

    def test_network_reward_band_edges(self):
        # rn in [0, 1] uses 1 - 1/(1+ri)
        assert compute_sigma(3.0, 0.0) == pytest.approx(0.75)
        assert compute_sigma(3.0, 1.0) == pytest.approx(0.75)
        # rn = -1 saturates, rn < -1 collapses to the floor
        assert compute_sigma(3.0, -1.0) == 0.999
        assert compute_sigma(3.0, -2.0) == 0.001

    def test_always_in_bounds(self):
        rng = random.Random(13)
        for _ in range(100_000):
            ri = rng.uniform(-50.0, 50.0)
            rn = rng.uniform(-50.0, 50.0)
            assert 0.001 <= compute_sigma(ri, rn) <= 0.999


class TestSelectPowerLevel:
    def test_pure_greedy(self):
        rng = random.Random(0)
        for _ in range(50):
            assert select_power_level((12.0, 15.0), 0.0, True, rng) == 15.0

    def test_unreliable_forces_max(self):
        rng = random.Random(0)
        for _ in range(50):
            assert select_power_level((12.0, 15.0), 0.9, False, rng) == 15.0

    def test_sigma_one_is_uniform(self):
        rng = random.Random(42)
        counts = {5.0: 0, 10.0: 0, 15.0: 0}
        n = 30_000
        for _ in range(n):
            counts[select_power_level((5.0, 10.0, 15.0), 1.0, True, rng)] += 1
        for c in counts.values():
            assert c / n == pytest.approx(1 / 3, abs=0.01)

    def test_empirical_frequencies(self):
        # k=4, sigma=0.2: max with 0.85, others 0.05 each
        rng = random.Random(7)
        levels = (5.0, 8.0, 11.0, 14.0)
        counts = dict.fromkeys(levels, 0)
        n = 100_000
        for _ in range(n):
            counts[select_power_level(levels, 0.2, True, rng)] += 1
        assert counts[14.0] / n == pytest.approx(0.85, abs=0.005)
        for lvl in levels[:-1]:
            assert counts[lvl] / n == pytest.approx(0.05, abs=0.005)


def snap(**kw):
    base = dict(
        current_level=10.0,
        last_rss=5.0,
        prr=1.0,
        sig_atn=1.0,
        distance=4.0,
    )
    base.update(kw)
    return LinkSnapshot(**base)


class TestBaselines:
    def test_fixed_max(self):
        assert baseline_decide("fixed-max", snap(), (5.0, 10.0, 15.0)) == 15.0

    def test_cold_link_gets_max(self):
        for kind in ("odtpc-like", "beacon-rssi-like", "beacon-prr-like"):
            assert baseline_decide(kind, snap(last_rss=None), (5.0, 10.0, 15.0)) == 15.0

    def test_odtpc_margin_rule(self):
        # predicted rss = level - 1.75*4 must exceed min_rcv=1: level > 8
        s = snap(sig_atn=1.75, distance=4.0)
        assert baseline_decide("odtpc-like", s, (5.0, 10.0, 15.0), min_rcv=1.0) == 10.0
        # the floor is the one passed: at 3 a level of 10 arrives at exactly
        # the floor, not above it
        assert baseline_decide("odtpc-like", s, (5.0, 10.0, 15.0), min_rcv=3.0) == 15.0

    def test_odtpc_falls_back_to_max(self):
        s = snap(sig_atn=10.0, distance=4.0)
        assert baseline_decide("odtpc-like", s, (5.0, 10.0, 15.0), min_rcv=1.0) == 15.0

    def test_rssi_stepping(self):
        levels = (5.0, 10.0, 15.0)
        strong = snap(last_rss=9.0, current_level=10.0)
        weak = snap(last_rss=0.5, current_level=10.0)
        mid = snap(last_rss=4.0, current_level=10.0)
        assert baseline_decide("beacon-rssi-like", strong, levels, rssi_high=8.0, rssi_low=2.0) == 5.0
        assert baseline_decide("beacon-rssi-like", weak, levels, rssi_high=8.0, rssi_low=2.0) == 15.0
        assert baseline_decide("beacon-rssi-like", mid, levels, rssi_high=8.0, rssi_low=2.0) == 10.0

    def test_rssi_stepping_clamps_at_ends(self):
        levels = (5.0, 10.0, 15.0)
        s = snap(last_rss=9.0, current_level=5.0)
        assert baseline_decide("beacon-rssi-like", s, levels, rssi_high=8.0, rssi_low=2.0) == 5.0

    def test_prr_rule(self):
        levels = (5.0, 10.0, 15.0)
        assert baseline_decide("beacon-prr-like", snap(prr=0.5), levels) == 15.0
        assert baseline_decide("beacon-prr-like", snap(prr=0.95, current_level=15.0), levels) == 10.0

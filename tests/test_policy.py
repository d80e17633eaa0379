import random

import pytest

from rltrc.linkcache import CommCacheEntry, PacketRecord
from rltrc.policy import baseline_decide, compute_sigma, select_power_level


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


def snap(level=10.0, rss=5.0, acked=(1, 1), sig_atn=1.0, distance=4.0, cold=False):
    """A link whose last level is `level` and whose one acknowledged packet
    was sent and received at the equal strength `rss`, after a round trip
    of `distance` seconds, so `distance` metres at vs = 1 m/s; `acked` is
    (acks, sends), and a cold link has no acknowledged packet."""
    records = [] if cold else [PacketRecord(0.0, distance, rss, rss)]
    rx, tx = acked
    return CommCacheEntry(sig_atn=sig_atn, packets_tx=tx, packets_rx=rx, last_two=records,
                          level=level)


def decide(kind, link, levels, **kw):
    """`baseline_decide` at vs = 1 m/s, RSSI band [2, 8] and receive floor
    1, each overridable."""
    return baseline_decide(kind, link, levels,
                           **{"vs": 1.0, "rssi_high": 8.0, "rssi_low": 2.0, "min_rcv": 1.0, **kw})


class TestBaselines:
    def test_fixed_max(self):
        assert decide("fixed-max", snap(), (5.0, 10.0, 15.0)) == 15.0

    def test_cold_link_gets_max(self):
        for kind in ("odtpc-like", "beacon-rssi-like", "beacon-prr-like"):
            assert decide(kind, snap(cold=True), (5.0, 10.0, 15.0)) == 15.0

    def test_odtpc_margin_rule(self):
        # predicted rss = level - 1.75*4 must exceed min_rcv=1: level > 8
        s = snap(sig_atn=1.75, distance=4.0)
        assert decide("odtpc-like", s, (5.0, 10.0, 15.0), min_rcv=1.0) == 10.0
        # the floor is the one passed: at 3 a level of 10 arrives at exactly
        # the floor, not above it
        assert decide("odtpc-like", s, (5.0, 10.0, 15.0), min_rcv=3.0) == 15.0

    def test_odtpc_distance_is_the_round_trip_at_signal_speed(self):
        # a 2 s round trip at 2 m/s is the same 4 m as a 4 s one at 1 m/s
        s = snap(sig_atn=1.75, distance=2.0)
        assert decide("odtpc-like", s, (5.0, 10.0, 15.0), vs=2.0, min_rcv=1.0) == 10.0
        assert decide("odtpc-like", s, (5.0, 10.0, 15.0), vs=1.0, min_rcv=1.0) == 5.0

    def test_odtpc_falls_back_to_max(self):
        s = snap(sig_atn=10.0, distance=4.0)
        assert decide("odtpc-like", s, (5.0, 10.0, 15.0), min_rcv=1.0) == 15.0

    def test_rssi_stepping(self):
        levels = (5.0, 10.0, 15.0)
        assert decide("beacon-rssi-like", snap(rss=9.0), levels) == 5.0
        assert decide("beacon-rssi-like", snap(rss=0.5), levels) == 15.0
        assert decide("beacon-rssi-like", snap(rss=4.0), levels) == 10.0

    def test_rssi_stepping_clamps_at_ends(self):
        levels = (5.0, 10.0, 15.0)
        assert decide("beacon-rssi-like", snap(rss=9.0, level=5.0), levels) == 5.0

    def test_prr_rule(self):
        levels = (5.0, 10.0, 15.0)
        assert decide("beacon-prr-like", snap(acked=(1, 2)), levels) == 15.0
        assert decide("beacon-prr-like", snap(acked=(19, 20), level=15.0), levels) == 10.0

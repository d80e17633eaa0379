import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import oracle_max_distance, oracle_waste_fraction

from rltrc.rewards import (
    NodeRewardState,
    WasteLedger,
    accumulate_zone_waste,
    avg_hop_count,
    broadcast_cost,
    min_hop_count,
    network_reward,
    node_self_reward,
    per_hop_progress,
    session_reward,
    successor_reward_ack,
    successor_reward_noack,
    transmission_waste,
    zone_reward,
)


class TestNodeSelfReward:
    def test_starts_at_zero_and_accumulates(self):
        assert node_self_reward(0.0, 25.0, 20.0) == 5.0
        assert node_self_reward(5.0, 25.0, 25.0) == 5.0

    def test_full_power_adds_nothing(self):
        assert node_self_reward(3.0, 15.0, 15.0) == 3.0

    def test_never_decreases(self):
        rng = random.Random(7)
        r = 0.0
        for _ in range(1000):
            p_max = rng.uniform(1.0, 30.0)
            r_next = node_self_reward(r, p_max, rng.uniform(0.01, p_max))
            assert r_next >= r
            r = r_next


class TestSuccessorRewardAck:
    def test_perfect_link_scores_one(self):
        for trend in (-1, 0, 1):
            assert successor_reward_ack(1.0, 1.0, trend) == 1.0

    def test_worked_triple(self):
        # base x = 0.8 * 0.75 = 0.6
        assert successor_reward_ack(0.6, 0.5, 1) == pytest.approx(0.8801, abs=1e-4)
        assert successor_reward_ack(0.6, 0.5, 0) == pytest.approx(0.7746, abs=1e-4)
        assert successor_reward_ack(0.6, 0.5, -1) == pytest.approx(0.6817, abs=1e-4)

    def test_trend_ordering(self):
        rd = {t: successor_reward_ack(0.6, 0.5, t) for t in (-1, 0, 1)}
        assert rd[-1] < rd[0] < rd[1]

    def test_monotone_in_each_input(self):
        rng = random.Random(11)
        for _ in range(1000):
            prr = rng.random()
            rot = rng.random()
            d = rng.uniform(0.0, 1.0 - max(prr, rot))
            t = rng.choice((-1, 0, 1))
            base = successor_reward_ack(prr, rot, t)
            assert successor_reward_ack(min(1.0, prr + d), rot, t) >= base
            assert successor_reward_ack(prr, min(1.0, rot + d), t) >= base
            if t < 1:
                assert successor_reward_ack(prr, rot, t + 1) >= base


class TestSuccessorRewardNoack:
    def test_within_attempt_budget_unchanged(self):
        assert successor_reward_noack(0.9, 2, 3, 14.0) == 0.9

    def test_exhausted_budget_penalized(self):
        assert successor_reward_noack(5.0, 4, 3, 14.0) == -9.0

    def test_zero_cost_never_changes(self):
        assert successor_reward_noack(0.9, 10, 3, 0.0) == 0.9


class TestHopQuantities:
    # per-hop progress is the mean distance to the farthest of n neighbors
    def test_expected_max_neighbor_distance(self):
        assert per_hop_progress(1, 9.0) == 6.0
        assert per_hop_progress(2, 10.0) == 8.0

    def test_limit_approaches_radius(self):
        assert per_hop_progress(10**6, 10.0) == pytest.approx(10.0, abs=1e-5)

    def test_against_monte_carlo_oracle(self):
        # full 10^6-sample check lives in the acceptance suite
        for n in (1, 2, 5):
            mc = oracle_max_distance(n, 10.0, 100_000, seed=100 + n)
            assert per_hop_progress(n, 10.0) == pytest.approx(mc, rel=0.01)

    def test_per_hop_progress(self):
        assert per_hop_progress(2.0, 10.0) == 8.0
        assert per_hop_progress(0.5, 10.0) == 5.0
        assert per_hop_progress(2.0, 0.0) == 0.0

    def test_min_hop_count(self):
        assert min_hop_count(100.0, 2.0, 10.0) == 12.5
        assert min_hop_count(8.0, 2.0, 10.0) == 1.0

    def test_avg_hop_count(self):
        assert avg_hop_count(100.0, 2.0, 10.0) == 56.25
        assert avg_hop_count(2.0, 2.0, 10.0) == 1.125


class TestBroadcastCost:
    def test_worked_examples(self):
        assert broadcast_cost(2.0, 3.0, cap=math.inf) == 14.0
        assert broadcast_cost(3.0, 2.0, cap=math.inf) == 12.0

    def test_unit_branching(self):
        assert broadcast_cost(1.0, 5.7, cap=math.inf) == 5.0
        assert broadcast_cost(1.0, 0.3, cap=math.inf) == 0.0

    def test_closed_form_matches_direct_sum(self):
        # cap lifted: this checks the closed form, not the saturation rule
        for ng in (2, 3, 4, 5):
            for m in range(1, 21):
                direct = float(sum(ng**i for i in range(1, m + 1)))
                assert broadcast_cost(float(ng), float(m), cap=math.inf) == direct
        # a fractional branching factor takes the float closed form
        for ng in (1.5, 2.5, 17.34375):
            for m in range(1, 21):
                direct = math.fsum(ng**i for i in range(1, m + 1))
                assert broadcast_cost(ng, float(m), cap=math.inf) == pytest.approx(direct, rel=1e-12)

    def test_fractional_depth_floors(self):
        assert broadcast_cost(2.0, 3.9, cap=math.inf) == 14.0

    def test_cap(self):
        assert broadcast_cost(3.0, 100.0, cap=30.0) == 30.0
        assert broadcast_cost(2.5, 500.0, cap=1e12) == 1e12
        # 2.5 ** 1001 overflows a float; the cost saturates instead
        assert broadcast_cost(2.5, 1000.0, cap=1e12) == 1e12


class TestTransmissionWaste:
    def test_intermediate_turn(self):
        assert transmission_waste(12.0, 0.05) == (12.0, 0.05)


class TestWasteLedger:
    def test_accumulate(self):
        led = WasteLedger()
        accumulate_zone_waste(led, 0, [(12.0, 0.05), (0.0, 0.0)])
        assert led.zone_totals(0) == (12.0, 0.05)
        assert led.zone_totals(1) == (0.0, 0.0)

    def test_no_transmissions_unchanged(self):
        led = WasteLedger()
        accumulate_zone_waste(led, 0, [(12.0, 0.05)])
        before = led.zone_totals(0)
        accumulate_zone_waste(led, 0, [])
        assert led.zone_totals(0) == before

    def test_batching_commutes(self):
        rows = [(float(i), float(i) / 10.0) for i in range(10)]
        one = WasteLedger()
        accumulate_zone_waste(one, 3, rows)
        split = WasteLedger()
        accumulate_zone_waste(split, 3, rows[:4])
        accumulate_zone_waste(split, 3, rows[4:])
        assert one.zone_totals(3) == pytest.approx(split.zone_totals(3))

    def test_matches_recheck_oracle(self):
        rng = random.Random(3)
        rows = [(rng.uniform(0, 20), rng.uniform(0, 1)) for _ in range(50)]
        invest = [(rng.uniform(20, 40), rng.uniform(1, 2)) for _ in range(50)]
        led = WasteLedger()
        accumulate_zone_waste(led, 0, rows)
        ew, et = led.zone_totals(0)
        ie = math.fsum(r[0] for r in invest)
        it = math.fsum(r[1] for r in invest)
        got = (100.0 * ew / ie, 100.0 * et / it)
        assert got == pytest.approx(oracle_waste_fraction(rows, invest))


class TestSessionReward:
    def test_boundary_cases(self):
        assert session_reward(0.0, 5.0) == 1.0
        assert session_reward(5.0, 0.0) == 1.0

    def test_worked_example(self):
        assert session_reward(1.0, 1.0) == pytest.approx(0.6065, abs=1e-4)

    def test_range_and_monotonicity(self):
        rng = random.Random(21)
        for _ in range(500):
            ew, et = rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)
            r = session_reward(ew, et)
            assert 0.0 < r <= 1.0
            if ew > 0.0 and et > 0.0:
                assert session_reward(ew + 1.0, et) < r
                assert session_reward(ew, et + 1.0) < r


def test_zone_reward_sums_components():
    assert zone_reward([1.0, 2.0], [0.5]) == 3.5
    assert zone_reward([], []) == 0.0
    assert zone_reward([-9.0], []) == -9.0


def test_network_reward_sums_zones():
    assert network_reward([3.5, -1.0]) == 2.5
    assert network_reward([7.0]) == 7.0
    assert network_reward([0.0, 0.0]) == 0.0


class TestNodeRewardState:
    def test_action_updates(self):
        st = NodeRewardState()
        st.apply_action(25.0, 20.0)
        assert st.self_reward == 5.0
        st.apply_action(25.0, 25.0)
        assert st.self_reward == 5.0

    def test_total_includes_successor_grades(self):
        st = NodeRewardState()
        st.apply_action(25.0, 20.0)
        st.apply_ack(9, prr=1.0, rss_over_tpl=1.0, trend=0)
        assert st.total() == 6.0
        st.apply_noack(9, turn=4, mx_atmpt=3, broad_cost=14.0)
        assert st.total() == pytest.approx(5.0 + 1.0 - 14.0)

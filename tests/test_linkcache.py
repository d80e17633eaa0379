import dataclasses
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (
    UndefinedAttenuationError,
    VelocityUnobservableError,
    avg_rss,
    avg_tpl,
    detect_trend,
    estimate_attenuation,
    estimate_velocity,
    expected_link_end,
)

from rltrc.linkcache import (
    CommCacheEntry,
    PacketRecord,
    available_levels,
    mark_reliability,
    new_episode,
    power_threshold,
    predict_displacement,
    record_ack,
    record_tx,
    should_drop,
)


def rec(t_msg, t_ack, pwr, rss, avg=None):
    r = PacketRecord(t_msg=t_msg, t_ack=t_ack, tx_power=pwr, rss=rss)
    if avg is not None:
        r.avg_rss_after = avg
    return r


class TestCacheCounters:
    def test_fresh_entry_single_ack(self):
        e = CommCacheEntry(sig_atn=1.0)
        record_tx(e)
        record_ack(e, rec(0.0, 1.0, 10.0, 8.0), vs=1.0, radio_range=10.0)
        assert e.prr == 1.0
        assert e.recent_trend == 0
        assert avg_rss(e) == 8.0
        assert avg_tpl(e) == 10.0

    def test_prr_counts(self):
        e = CommCacheEntry(sig_atn=1.0)
        for _ in range(10):
            record_tx(e)
        for i in range(3):
            record_ack(e, rec(float(i), float(i) + 1.0, 10.0, 8.0), vs=1.0, radio_range=10.0)
        assert e.prr == pytest.approx(0.3)

    def test_prr_is_one_before_any_tx(self):
        e = CommCacheEntry(sig_atn=1.0)
        assert e.prr == 1.0
        assert e.rss_over_tpl == 1.0

    def test_equal_rtt_equal_rss_trend_positive(self):
        e = CommCacheEntry(sig_atn=1.0)
        record_tx(e)
        record_ack(e, rec(0.0, 1.0, 10.0, 8.0), vs=1.0, radio_range=10.0)
        record_tx(e)
        record_ack(e, rec(5.0, 6.0, 10.0, 8.0), vs=1.0, radio_range=10.0)
        assert e.recent_trend == 1

    def test_ack_at_its_send_time_keeps_sig_atn(self):
        """At a signal speed so large that `t + dist / vs == t`, an ack lands
        at its send time: a zero travel distance leaves sig_atn undefined,
        so it keeps its value, and the ack is still counted."""
        e = CommCacheEntry(sig_atn=0.3)
        record_tx(e)
        record_ack(e, rec(0.0, 1e-9, 10.0, 8.0), vs=1e17, radio_range=10.0)
        record_tx(e)
        record_ack(e, rec(5.0, 5.0, 10.0, 7.0), vs=1e17, radio_range=10.0)
        assert e.sig_atn == 0.3 and e.packets_rx == 2 and len(e.last_two) == 2

    def test_invariants_over_random_stream(self):
        rng = random.Random(1234)
        e = CommCacheEntry(sig_atn=1.0)
        for _ in range(500):
            record_tx(e)
            if rng.random() < 0.7:
                pwr = rng.uniform(1.0, 25.0)
                t0 = rng.uniform(0.0, 1000.0)
                record_ack(
                    e,
                    rec(t0, t0 + rng.uniform(0.01, 2.0), pwr, rng.uniform(0.0, pwr)),
                    vs=100.0,
                    radio_range=10.0,
                )
            assert 0.0 <= e.prr <= 1.0
            assert e.packets_rx <= e.packets_tx
            assert 0.0 <= e.rss_over_tpl <= 1.0
            assert e.recent_trend in (-1, 0, 1)


class TestAttenuation:
    def test_worked_example(self):
        # dist1=2, dist2=4 at vs=1
        r1 = rec(0.0, 2.0, 10.0, 6.0)
        r2 = rec(10.0, 14.0, 10.0, 4.0)
        assert estimate_attenuation(r1, r2, vs=1.0) == pytest.approx(1.75)

    def test_lossless_gives_zero(self):
        r1 = rec(0.0, 1.0, 10.0, 10.0)
        r2 = rec(2.0, 3.5, 10.0, 10.0)
        assert estimate_attenuation(r1, r2, vs=1.0) == 0.0

    def test_zero_travel_time_rejected(self):
        r1 = rec(0.0, 2.0, 10.0, 6.0)
        r2 = rec(10.0, 14.0, 10.0, 4.0)
        with pytest.raises(UndefinedAttenuationError):
            estimate_attenuation(r1, r2, vs=0.0)

    def test_recovers_linear_channel_coefficient(self):
        # rss = pwr - alpha*d and rtt = d/vs reproduce alpha exactly
        alpha, vs = 0.37, 5.0
        for d1, d2 in [(3.0, 8.0), (1.5, 1.5), (20.0, 2.0)]:
            r1 = rec(0.0, d1 / vs, 15.0, 15.0 - alpha * d1)
            r2 = rec(50.0, 50.0 + d2 / vs, 12.0, 12.0 - alpha * d2)
            got = estimate_attenuation(r1, r2, vs=vs)
            assert got == pytest.approx(alpha, rel=1e-9)


class TestTrend:
    def test_rtt_grows_rss_drops(self):
        r1 = rec(0.0, 1.0, 10.0, 8.0, avg=8.0)
        r2 = rec(5.0, 7.0, 10.0, 4.0, avg=6.0)
        assert detect_trend(r1, r2) == -1

    def test_rtt_shrinks_rss_grows(self):
        r1 = rec(0.0, 2.0, 10.0, 4.0, avg=4.0)
        r2 = rec(5.0, 6.0, 10.0, 8.0, avg=6.0)
        assert detect_trend(r1, r2) == 1

    def test_mixed_signals(self):
        r1 = rec(0.0, 1.0, 10.0, 4.0, avg=4.0)
        r2 = rec(5.0, 7.0, 10.0, 8.0, avg=6.0)
        assert detect_trend(r1, r2) == 0

    def test_mirror_never_same_nonzero_sign(self):
        rng = random.Random(99)
        for _ in range(300):
            r1 = rec(0.0, rng.uniform(0.1, 2.0), 10.0, 0.0, avg=rng.uniform(0.0, 10.0))
            r2 = rec(5.0, 5.0 + rng.uniform(0.1, 2.0), 10.0, 0.0, avg=rng.uniform(0.0, 10.0))
            a, b = detect_trend(r1, r2), detect_trend(r2, r1)
            if a != 0:
                assert b != a


class TestVelocity:
    def test_worked_example(self):
        # FF1=4 at ack 1.0, FF2=6 at ack 6.5: 2 extra fade units over 5.5 s
        # of wall clock; at 1.75 units/m that is (2/1.75)/5.5 m/s
        r1 = rec(0.0, 1.0, 10.0, 6.0)
        r2 = rec(5.0, 6.5, 10.0, 4.0)
        got = estimate_velocity(r1, r2, sig_atn=1.75)
        assert got == pytest.approx((2.0 / 1.75) / 5.5, abs=1e-12)

    def test_equal_fade_is_stationary(self):
        r1 = rec(0.0, 1.0, 10.0, 6.0)
        r2 = rec(5.0, 6.5, 10.0, 6.0)
        assert estimate_velocity(r1, r2, sig_atn=1.75) == 0.0

    def test_approaching_and_receding_same_speed(self):
        r1 = rec(0.0, 1.0, 10.0, 6.0)
        away = rec(5.0, 6.0, 10.0, 4.0)
        back = rec(5.0, 6.0, 10.0, 8.0)
        assert estimate_velocity(r1, away, sig_atn=1.75) == pytest.approx(
            estimate_velocity(r1, back, sig_atn=1.75)
        )

    def test_simultaneous_acks_unobservable(self):
        r1 = rec(0.0, 1.0, 10.0, 6.0)
        r2 = rec(0.5, 1.0, 10.0, 4.0)
        with pytest.raises(VelocityUnobservableError):
            estimate_velocity(r1, r2, sig_atn=1.75)


def test_predict_displacement():
    assert predict_displacement(2.0, 103.0, 100.0) == 6.0
    assert predict_displacement(2.0, 100.0, 100.0) == 0.0
    assert predict_displacement(0.0, 1000.0, 100.0) == 0.0


def test_should_drop_strictly_beyond_double_range():
    assert should_drop(25.0, 10.0)
    assert not should_drop(20.0, 10.0)
    assert not should_drop(0.0, 10.0)


def test_power_threshold():
    assert power_threshold(1.75, 6.0, 1.0) == pytest.approx(11.5)
    assert power_threshold(1.75, 0.0, 1.0) == 1.0
    assert power_threshold(0.0, 6.0, 1.0) == 1.0


class TestAvailableLevels:
    def test_worked_example(self):
        assert available_levels((5.0, 10.0, 12.0, 15.0), 11.5) == (12.0, 15.0)

    def test_zero_threshold_keeps_all(self):
        assert available_levels((5.0, 10.0), 0.0) == (5.0, 10.0)

    def test_exhausted(self):
        assert available_levels((5.0, 10.0, 15.0), 20.0) == ()

    def test_threshold_is_strict(self):
        assert available_levels((5.0, 10.0, 15.0), 15.0) == ()

    def test_result_is_suffix(self):
        rng = random.Random(5)
        levels = (2.0, 4.0, 7.0, 11.0, 16.0)
        for _ in range(200):
            got = available_levels(levels, rng.uniform(-5.0, 25.0))
            assert got == levels[len(levels) - len(got):]

    def test_matches_strict_filter(self):
        # the suffix is cut by bisection; it must be the levels strictly
        # above the threshold, on exact ties, infinities and NaN alike
        rng = random.Random(23)
        for _ in range(500):
            levels = tuple(sorted(round(rng.uniform(1.0, 30.0), rng.choice((0, 1, 6)))
                                  for _ in range(rng.randint(0, 8))))
            thresholds = [rng.uniform(-5.0, 35.0), math.inf, -math.inf, math.nan]
            thresholds += levels
            for t in thresholds:
                assert available_levels(levels, t) == tuple(p for p in levels if p > t)


class TestLinkEnd:
    def test_worked_example(self):
        assert expected_link_end(10.0, 2.0, 100.0) == 110.0

    def test_zero_velocity_never_expires(self):
        assert expected_link_end(10.0, 0.0, 100.0) == math.inf

    def test_zero_range(self):
        assert expected_link_end(0.0, 2.0, 100.0) == 100.0

    def test_monotone(self):
        assert expected_link_end(10.0, 4.0, 0.0) < expected_link_end(10.0, 2.0, 0.0)
        assert expected_link_end(20.0, 2.0, 0.0) > expected_link_end(10.0, 2.0, 0.0)


class TestReliability:
    def test_early_break_unreliable(self):
        e = CommCacheEntry(sig_atn=1.0, expected_timestamp_end=110.0)
        mark_reliability(e, 105.0)
        assert not e.reliable
        assert e.recent_trend == 0

    def test_on_time_break_reliable(self):
        e = CommCacheEntry(sig_atn=1.0, expected_timestamp_end=110.0)
        mark_reliability(e, 110.0)
        assert e.reliable

    def test_infinite_prediction_breaks_unreliable(self):
        e = CommCacheEntry(sig_atn=1.0)
        assert e.expected_timestamp_end == math.inf
        mark_reliability(e, 1e9)
        assert not e.reliable


def test_new_episode_resets_motion_state_only():
    e = CommCacheEntry(sig_atn=2.5)
    record_tx(e)
    record_ack(e, rec(0.0, 1.0, 10.0, 8.0), vs=1.0, radio_range=10.0)
    record_tx(e)
    record_ack(e, rec(2.0, 3.5, 10.0, 6.0), vs=1.0, radio_range=10.0)
    assert e.expected_timestamp_end < math.inf
    mark_reliability(e, 4.0)
    assert e.last_two and e.approx_velocity > 0.0
    e.recent_trend = -1
    new_episode(e)
    assert e.last_two == []
    assert e.approx_velocity == 0.0
    assert e.expected_timestamp_end == math.inf
    assert e.recent_trend == 0
    # history that should persist
    assert e.packets_tx == 2 and e.packets_rx == 2
    assert not e.reliable
    assert e.sig_atn != 2.5  # re-estimated from the two acks


def test_record_ack_updates_estimates():
    e = CommCacheEntry(sig_atn=9.9)
    record_tx(e)
    record_ack(e, rec(0.0, 2.0, 10.0, 6.0), vs=1.0, radio_range=10.0)
    assert e.sig_atn == 9.9  # single record keeps the prior
    record_tx(e)
    record_ack(e, rec(10.0, 14.0, 10.0, 4.0), vs=1.0, radio_range=10.0)
    assert e.sig_atn == pytest.approx(1.75)
    assert e.approx_velocity > 0.0
    assert e.expected_timestamp_end > 14.0
    assert len(e.last_two) == 2


def test_record_ack_keeps_an_attenuation_it_cannot_estimate():
    # at zero signal speed neither ack says how far its packet travelled
    e = CommCacheEntry(sig_atn=9.9)
    for r in (rec(0.0, 2.0, 10.0, 6.0), rec(10.0, 14.0, 10.0, 4.0)):
        record_tx(e)
        record_ack(e, r, vs=0.0, radio_range=10.0)
    assert e.sig_atn == 9.9
    assert e.approx_velocity == (6.0 - 4.0) / (9.9 * (14.0 - 2.0))


def record_ack_by_estimators(entry, rec, vs, radio_range):
    """`record_ack` as the four public estimators spell it, called in turn,
    each undefined estimate keeping the entry's previous value."""
    entry.packets_rx += 1
    entry.sum_rss += rec.rss
    entry.sum_tpl += rec.tx_power
    rec.avg_rss_after = entry.sum_rss / entry.packets_rx
    entry.last_two.append(rec)
    if len(entry.last_two) > 2:
        entry.last_two.pop(0)
    if len(entry.last_two) == 2:
        rec1, rec2 = entry.last_two
        try:
            entry.sig_atn = estimate_attenuation(rec1, rec2, vs)
        except UndefinedAttenuationError:
            pass
        entry.recent_trend = detect_trend(rec1, rec2)
        try:
            entry.approx_velocity = estimate_velocity(rec1, rec2, entry.sig_atn)
        except VelocityUnobservableError:
            pass
        entry.expected_timestamp_end = expected_link_end(
            radio_range, entry.approx_velocity, rec2.t_ack
        )


def test_record_ack_equals_the_four_estimators():
    """Seeded random ack streams, rich in the edge cases: zero travel
    distance (vs = 0, or a product that underflows), equal ack times, equal
    round trips, equal average RSS, lossless acks (sig_atn 0), non-positive
    priors and equal fades (zero velocity). After every ack each cache
    field equals the estimators' value exactly."""
    rng = random.Random(2024)
    pairs = 0
    seen = dict.fromkeys(("zero-travel", "one-zero-travel", "equal-acks", "equal-rss", "sig<=0",
                          "zero-velocity"), 0)
    for _ in range(400):
        prior = rng.choice([0.0, -0.5, 0.3, rng.uniform(0.01, 2.0)])
        # at 1e-322 the travel distance of a round trip underflows to 0 or not
        vs = rng.choice([0.0, 1e-322, 1000.0, rng.uniform(0.1, 2000.0)])
        radio_range = rng.uniform(10.0, 40.0)
        got, want = CommCacheEntry(sig_atn=prior), CommCacheEntry(sig_atn=prior)
        t_ack, rtt, tx, fade = rng.uniform(0.0, 100.0), rng.uniform(1e-4, 0.1), 10.0, 0.0
        for k in range(rng.choice([2, 3, 4])):
            if k:
                t_ack = rng.choice([t_ack, t_ack + rng.uniform(0.0, 5.0)])
                rtt = rng.choice([rtt, rng.uniform(1e-4, 0.1)])
            tx = rng.choice([tx, rng.uniform(1.0, 25.0)])
            fade = rng.choice([0.0, fade, rng.uniform(0.0, 1.0) * tx])
            rss = tx - fade if fade <= tx else 0.0
            values = (t_ack - rtt, t_ack, tx, rss)
            for entry, fold in ((got, record_ack), (want, record_ack_by_estimators)):
                record_tx(entry)
                fold(entry, PacketRecord(*values), vs, radio_range)
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            if len(want.last_two) == 2:
                pairs += 1
                rec1, rec2 = want.last_two
                seen["zero-travel"] += vs * rec1.rtt <= 0.0
                seen["one-zero-travel"] += (vs * rec1.rtt <= 0.0) != (vs * rec2.rtt <= 0.0)
                seen["equal-acks"] += rec1.t_ack == rec2.t_ack
                seen["equal-rss"] += rec1.avg_rss_after == rec2.avg_rss_after
                seen["sig<=0"] += want.sig_atn <= 0.0
                seen["zero-velocity"] += want.expected_timestamp_end == math.inf
    assert pairs >= 500
    assert min(seen.values()) >= 25, seen

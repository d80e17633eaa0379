"""Metamorphic relation T (time x2): a run and its transformed twin at one
seed, compared exactly, with no oracle.

T doubles every time field and halves every speed, so each distance a node
travels, each signal's flight and each random draw scaled by a field come
out as before, and every event happens at twice its time. Every factor is a
power of two, so each product is exact and the relation holds as `==`: the
same messages, energy, throughput, live nodes and waste fractions, twice
the delivery latency, and the same waste series at doubled timestamps.
"""

import dataclasses
from dataclasses import fields

import pytest

from rltrc.config import ScenarioConfig
from rltrc.engine import Simulator
from rltrc.scenarios import scenario

TIME_FIELDS = ("duration", "pause_max", "mobility_dt", "session_start_max", "t_sync", "t_net",
               "tau_a", "proc_delay", "t_hop", "inter_arrival_min", "inter_arrival_max",
               "beacon_period")
# `gaussian_accel` is a velocity kick in m/s added once per mobility step,
# so it scales as a speed
SPEED_FIELDS = ("vmax_min", "vmax_max", "vs", "gaussian_accel")
# lengths, powers, energies and rates that T leaves alone: `bitrate` and
# `payload_bytes` only set the energy one packet costs
UNSCALED_FIELDS = ("arena_width", "arena_height", "radio_range_min", "radio_range_max",
                   "route_margin", "energy_min", "energy_max", "level_value_min",
                   "level_value_max", "alpha_min", "alpha_max", "noise_spread", "min_rcv",
                   "prior_sig_atn", "broadcast_cost_cap", "bitrate", "payload_bytes",
                   "rx_cost_fraction", "rssi_high", "rssi_low")

WORLDS = [
    ("desk-compare", {}),
    ("desk-converge", {}),
    ("desk-conserve", {}),
    ("desk-compare", {"mobility": "random-walk"}),
    ("desk-compare", {"mobility": "gaussian"}),
    ("desk-compare", {"policy": "fixed-max"}),
    ("desk-compare", {"policy": "odtpc-like"}),
    ("desk-compare", {"policy": "beacon-prr-like"}),
    ("desk-compare", {"policy": "beacon-rssi-like"}),
    ("desk-compare", {"noise_spread": 0.1}),
]


def time_doubled(cfg: ScenarioConfig) -> ScenarioConfig:
    return dataclasses.replace(cfg, **{f: 2.0 * getattr(cfg, f) for f in TIME_FIELDS},
                               **{f: 0.5 * getattr(cfg, f) for f in SPEED_FIELDS})


def test_every_float_field_is_scaled_or_left_alone_on_purpose():
    floats = sorted(f.name for f in fields(ScenarioConfig) if f.type == "float")
    assert sorted(TIME_FIELDS + SPEED_FIELDS + UNSCALED_FIELDS) == floats


@pytest.mark.parametrize("name, overrides", WORLDS,
                         ids=["-".join([name, *("%s=%s" % kv for kv in o.items())])
                              for name, o in WORLDS])
def test_doubled_time_at_half_speed_is_the_same_run_twice_as_slow(name, overrides):
    cfg = scenario(name, seed=1, **overrides)
    base, slow = Simulator(cfg).run(), Simulator(time_doubled(cfg)).run()
    assert base.omc > 0 and base.adl > 0.0
    for metric in ("omc", "ec", "ntg", "paln", "awe", "awt"):
        assert getattr(slow, metric) == getattr(base, metric), metric
    assert slow.adl == 2.0 * base.adl
    assert slow.series == [(2.0 * t, awe, awt) for t, awe, awt in base.series]

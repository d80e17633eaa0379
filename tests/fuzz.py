"""Seeded random valid configs for the fuzz tests and `reach.py`.

`random_configs(11, FUZZ_DRAWS)` and `wide_random_configs(12,
WIDE_FUZZ_DRAWS)` are the 90 fuzzed configs the engine tests run. The
module needs only the standard library and an importable `rltrc`.
"""

from __future__ import annotations

import dataclasses
import random

from rltrc.config import VALID_MOBILITY, VALID_POLICIES, VALID_ZONE_COUNTS
from rltrc.scenarios import scenario


FUZZ_DRAWS = 60


def random_configs(seed, count):
    """`count` short runs drawn over policy, mobility, zone count, energy
    and noise, all in desk-compare's arena.

    `nodes` honours `validate`'s bounds by construction: at least five
    nodes per zone and at least two mobile nodes besides the peripherals.
    Near-zero batteries make nodes die mid-run.
    """
    rng = random.Random(seed)
    per_zone = scenario("desk-compare").peripherals_per_zone
    configs = []
    for _ in range(count):
        zones = rng.choice(VALID_ZONE_COUNTS)
        fewest = max(5 * zones, per_zone * zones + 2)
        low, high = rng.choice([(0.05, 0.3), (100.0, 200.0)])
        configs.append(scenario(
            "desk-compare",
            seed=rng.randrange(1, 10**6),
            policy=rng.choice(VALID_POLICIES),
            mobility=rng.choice(VALID_MOBILITY),
            zones=zones,
            nodes=rng.randint(fewest, max(fewest, 60)),
            energy_min=low,
            energy_max=high,
            noise_spread=rng.choice([0.0, rng.uniform(0.0, 0.2)]),
            duration=rng.uniform(10.0, 20.0),
        ))
    return configs


WIDE_FUZZ_DRAWS = 30


def wide_random_configs(seed, count):
    """`random_configs(seed, count)`, each also drawn over what those keep
    at desk-compare's values, under override=true: battery size (0.1 J to
    1e7 J), level values (0.01 to 50), radio ranges and route margin,
    `tau_a`, `vs` (10 to 1e300 m/s: at most of these an ack lands at its
    send time), the timers, alpha and `rx_cost_fraction`."""
    rng = random.Random(seed)
    configs = []
    for cfg in random_configs(seed, count):
        battery = rng.choice([1e7, 10.0 ** rng.uniform(-1.0, 7.0)])
        level = 10.0 ** rng.uniform(-2.0, 1.2)
        radio = rng.uniform(20.0, 45.0)
        alpha = rng.uniform(0.05, 0.4)
        gap = rng.uniform(0.3, 2.0)
        configs.append(dataclasses.replace(
            cfg,
            override=True,
            energy_min=battery * rng.uniform(0.5, 1.0),
            energy_max=battery,
            level_value_min=level,
            level_value_max=min(50.0, level * 10.0 ** rng.uniform(0.1, 1.5)),
            radio_range_min=radio,
            radio_range_max=radio + rng.uniform(0.0, 15.0),
            route_margin=rng.uniform(0.0, 25.0),
            tau_a=rng.uniform(0.2, 2.0),
            vs=10.0 ** rng.uniform(1.0, 300.0),
            t_sync=rng.uniform(1.0, 10.0),
            t_net=rng.uniform(5.0, 30.0),
            mobility_dt=rng.uniform(0.1, 1.0),
            inter_arrival_min=gap,
            inter_arrival_max=gap * rng.uniform(1.0, 1.5),
            beacon_period=rng.uniform(0.5, 2.0),
            alpha_min=alpha,
            alpha_max=rng.uniform(alpha, 0.6),
            rx_cost_fraction=rng.uniform(0.1, 1.0),
        ))
    return configs

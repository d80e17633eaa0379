"""Power-level decision policies.

The adaptive policy turns zone and network rewards into an exploration
probability sigma, then picks from the currently usable levels: greedy means
the highest usable level, exploration means a uniform draw over all of them.
Unreliable links bypass exploration entirely. Simplified baseline policies
cover the comparison runs.
"""

from __future__ import annotations

from random import Random

from .linkcache import CommCacheEntry

SIGMA_FLOOR = 0.001
SIGMA_CEIL = 0.999

BASELINE_KINDS = ("fixed-max", "odtpc-like", "beacon-rssi-like", "beacon-prr-like")


def _clamp(sigma: float) -> float:
    return min(SIGMA_CEIL, max(SIGMA_FLOOR, sigma))


def compute_sigma(ri: float, rn: float) -> float:
    """Exploration probability from the zone reward ri and the network
    reward rn.

    Negative zone reward pins sigma to the floor; a sub-unit zone reward is
    used directly. From there the network reward shapes how aggressively the
    zone explores: the worse the network does, the more the formula pushes
    sigma up, until below -1 it collapses to the floor again. Result is
    always within [0.001, 0.999].
    """
    if ri < 0.0:
        return SIGMA_FLOOR
    if ri < 1.0:
        return _clamp(ri)
    if rn < 0.0:
        if rn == -1.0:
            return SIGMA_CEIL
        try:
            val = (1.0 + ri) ** (-1.0 / (rn + 1.0))
        except OverflowError:
            # rn just below -1: the power blows up and sigma floors out.
            return SIGMA_FLOOR
        # rn < -1 drives this negative; the clamp floors it.
        return _clamp(1.0 - val)
    if rn <= 1.0:
        return _clamp(1.0 - 1.0 / (1.0 + ri))
    return _clamp((1.0 - 1.0 / (1.0 + ri)) ** (1.0 / rn))


def select_power_level(
    available: tuple[float, ...],
    sigma: float,
    reliable: bool,
    rng: Random,
) -> float:
    """Pick a transmit level from the ascending usable set.

    Unreliable links always get the maximum. Otherwise the maximum is kept
    with probability 1-sigma and a uniform draw over all k levels covers the
    rest, so the maximum wins with (1-sigma)+sigma/k and every other level
    with sigma/k. `available` is never empty: the caller gives up a link
    that no level clears before it decides.
    """
    if not reliable:
        return available[-1]
    if rng.random() < 1.0 - sigma:
        return available[-1]
    return available[rng.randrange(len(available))]


def _notch(levels: tuple[float, ...], current: float, step: int) -> float:
    """Move one index within `levels`, clamped at both ends; `current` is
    one of them, as the engine passes only levels of the sender's set."""
    i = levels.index(current)
    return levels[min(len(levels) - 1, max(0, i + step))]


def baseline_decide(
    kind: str,
    link: CommCacheEntry,
    levels: tuple[float, ...],
    *,
    vs: float,
    rssi_high: float,
    rssi_low: float,
    min_rcv: float,
) -> float:
    """Pick a level under one of the non-learning comparison policies.

    The pick reads only the sender's cache entry for the successor: its
    last acknowledged packet, PRR, attenuation and last level, which is
    one of `levels`. A cold link (no ack yet) always gets the maximum. The
    distance is the last round trip at the signal speed `vs`. The periodic
    beacon energy debit of the prr policy is booked by the engine, not
    here. `kind` is one of BASELINE_KINDS, as the config admits no other
    policy, `levels` is a node's ascending set, never empty, and `min_rcv`
    is the world's receive floor.
    """
    if kind == "fixed-max" or not link.last_two:
        return levels[-1]
    last = link.last_two[-1]
    if kind == "odtpc-like":
        distance = vs * last.rtt
        for p in levels:
            if p - link.sig_atn * distance > min_rcv:
                return p
        return levels[-1]
    if kind == "beacon-rssi-like":
        if last.rss > rssi_high:
            return _notch(levels, link.level, -1)
        if last.rss < rssi_low:
            return _notch(levels, link.level, +1)
        return link.level
    # beacon-prr-like
    if link.prr < 0.9:
        return levels[-1]
    return _notch(levels, link.level, -1)

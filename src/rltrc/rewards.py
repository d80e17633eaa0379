"""Reward and waste arithmetic for nodes, sessions, zones and the network.

A node earns a self-reward for every power unit it saves below its maximum
and grades each successor link from acknowledgement feedback. Failed hops
draw down the successor grade by the zone's broadcast cost. Wasted energy
and time accumulate per zone and damp the per-session reward; zone and
network rewards are plain sums over their parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable


def node_self_reward(r_prev: float, p_max: float, action: float) -> float:
    """Accumulated self-reward after transmitting at `action`: saving added on.

    Starts at 0 and never decreases; transmitting at full power adds nothing.
    The caller passes a level of the sender's own ascending set, so `action`
    lies in (0, p_max].
    """
    return p_max - action + r_prev


_TREND_EXPONENT = {1: 0.25, 0: 0.5, -1: 0.75}


def successor_reward_ack(prr: float, rss_over_tpl: float, trend: int) -> float:
    """Grade a successor after a successful hop; result in (0, 1].

    The base mixes delivery rate and signal margin, each mapped into
    [0.5, 1]; a favourable movement trend flattens the exponent so the same
    base grades higher. The caller reads all three from a link cache entry,
    so prr and rss_over_tpl lie in [0, 1] and trend is -1, 0 or +1.
    """
    x = ((1.0 + prr) / 2.0) * ((1.0 + rss_over_tpl) / 2.0)
    return x ** _TREND_EXPONENT[trend]


def successor_reward_noack(rd_prev: float, turn: int, mx_atmpt: int, broad_cost: float) -> float:
    """Grade after a silent hop: penalized only once retries are exhausted."""
    if turn > mx_atmpt:
        return rd_prev - broad_cost
    return rd_prev


def per_hop_progress(phi: float, av_rad: float) -> float:
    """Average forwarding progress per hop given phi neighbors in range av_rad:
    the mean distance to the farthest of phi uniform neighbors in a disc."""
    return 2.0 * phi * av_rad / (2.0 * phi + 1.0)


def min_hop_count(theta: float, phi: float, av_rad: float) -> float:
    """Hops needed to cover theta meters at full per-hop progress."""
    return theta / per_hop_progress(phi, av_rad)


def avg_hop_count(theta: float, phi: float, av_rad: float) -> float:
    """Midpoint of the best-case hop count and the worst case of theta hops."""
    return theta * (1.0 + (2.0 * phi + 1.0) / (2.0 * phi * av_rad)) / 2.0


def broadcast_cost(ng: float, h_avg: float, cap: float) -> float:
    """Messages a flood of depth floor(h_avg) costs with branching factor ng.

    Sum of ng^i for i = 1..floor(h_avg), saturated at `cap`. Integral ng is
    summed in exact integer arithmetic so the closed form and the direct sum
    agree bit for bit. The caller floors ng at 1.
    """
    m = math.floor(h_avg)
    if m <= 0:
        return 0.0
    if ng == 1.0:
        return min(float(m), cap)
    if float(ng).is_integer():
        base = int(ng)
        total = (base ** (m + 1) - 1) // (base - 1) - 1
        return float(total) if total <= cap else cap
    try:
        total = (ng ** (m + 1) - 1.0) / (ng - 1.0) - 1.0
    except OverflowError:
        return cap
    return min(total, cap)


def transmission_waste(prev_action: float, tau_a: float) -> tuple[float, float]:
    """Energy and time written off by one retry: the previous attempt's
    power and ack wait.

    The caller asks only for a retry within the hop's budget. A hop that
    runs out of retries is written off by the route rediscovery instead:
    its last attempt, the floods over the spanned zones and everything
    invested in the packet up to this hop.
    """
    return prev_action, tau_a


@dataclass
class WasteLedger:
    """Per-zone cumulative waste."""

    ew: dict[int, float] = field(default_factory=dict)
    et: dict[int, float] = field(default_factory=dict)

    def zone_totals(self, zone_id: int) -> tuple[float, float]:
        return self.ew.get(zone_id, 0.0), self.et.get(zone_id, 0.0)


def accumulate_zone_waste(
    ledger: WasteLedger,
    zone_id: int,
    wastes: Iterable[tuple[float, float]],
) -> None:
    """Add this iteration's per-transmission waste pairs, none of whose
    parts is negative, to a zone's totals."""
    for wst_energ, wst_tme in wastes:
        ledger.ew[zone_id] = ledger.ew.get(zone_id, 0.0) + wst_energ
        ledger.et[zone_id] = ledger.et.get(zone_id, 0.0) + wst_tme


def session_reward(ew: float, et: float) -> float:
    """Session reward in (0, 1], shrinking as zone waste grows.

    Equals exp(-ew) raised to 1 - 1/(1+et): either zero waste component
    keeps the reward at 1. Zone waste totals are never negative.
    """
    return math.exp(-ew * (1.0 - 1.0 / (1.0 + et)))


def zone_reward(node_rewards: Iterable[float], session_rewards: Iterable[float]) -> float:
    """Zone reward RI: node totals plus session rewards."""
    return math.fsum(node_rewards) + math.fsum(session_rewards)


def network_reward(zone_rewards: Iterable[float]) -> float:
    return math.fsum(zone_rewards)


@dataclass(slots=True)
class NodeRewardState:
    """One node's reward bookkeeping: self-reward and per-successor grades."""

    self_reward: float = 0.0
    successor_rewards: dict[int, float] = field(default_factory=dict)

    def total(self) -> float:
        """Node input to the zone reward: self-reward plus successor grades."""
        return self.self_reward + math.fsum(self.successor_rewards.values())

    def apply_action(self, p_max: float, action: float) -> None:
        self.self_reward = node_self_reward(self.self_reward, p_max, action)

    def apply_ack(self, successor_id: int, prr: float, rss_over_tpl: float, trend: int) -> None:
        self.successor_rewards[successor_id] = successor_reward_ack(prr, rss_over_tpl, trend)

    def apply_noack(self, successor_id: int, turn: int, mx_atmpt: int, broad_cost: float) -> None:
        prev = self.successor_rewards.get(successor_id, 0.0)
        self.successor_rewards[successor_id] = successor_reward_noack(
            prev, turn, mx_atmpt, broad_cost
        )

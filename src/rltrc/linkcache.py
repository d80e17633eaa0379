"""Per-successor communication cache and link-quality estimators.

Every node keeps one cache entry per successor it talks to. Acknowledgements
carry the received signal strength back to the sender; from the two most
recent acknowledged packets the sender derives attenuation per meter, a
movement trend, an approximate successor velocity, and a predicted link
lifetime. Those estimates drive the conditional shrinking of the usable
power-level set.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field


class MalformedAckError(ValueError):
    """An acknowledgement reported a received strength above the transmit power."""


@dataclass(slots=True)
class PacketRecord:
    """One acknowledged packet: send/ack times, transmit power, received strength.

    avg_rss_after is the link's running average RSS just after this ack was
    folded in; the trend detector compares these running averages.
    """

    t_msg: float
    t_ack: float
    tx_power: float
    rss: float
    avg_rss_after: float = 0.0

    @property
    def rtt(self) -> float:
        return self.t_ack - self.t_msg


@dataclass
class CommCacheEntry:
    sig_atn: float                      # power units per meter; starts at the scenario prior
    packets_tx: int = 0
    packets_rx: int = 0
    sum_rss: float = 0.0                # over acknowledged packets
    sum_tpl: float = 0.0
    recent_trend: int = 0               # -1 receding, 0 unknown, +1 approaching
    approx_velocity: float = 0.0
    expected_timestamp_end: float = math.inf
    last_two: list[PacketRecord] = field(default_factory=list)
    reliable: bool = True

    @property
    def prr(self) -> float:
        """Packet reception rate; 1.0 before any transmission."""
        return self.packets_rx / self.packets_tx if self.packets_tx else 1.0

    @property
    def rss_over_tpl(self) -> float:
        """avg_rss / avg_tpl in [0,1]; 1.0 while no ack has been received."""
        n = self.packets_rx
        if n:
            avg_tpl = self.sum_tpl / n
            if avg_tpl > 0:
                return (self.sum_rss / n) / avg_tpl
        return 1.0


def record_tx(entry: CommCacheEntry) -> None:
    """Count one transmission attempt toward the link's PRR."""
    entry.packets_tx += 1


def record_ack(entry: CommCacheEntry, rec: PacketRecord, vs: float, radio_range: float) -> CommCacheEntry:
    """Fold an acknowledged packet into the cache.

    Updates counters and running averages, appends the record to last_two
    (evicting the oldest), and re-derives sig_atn, trend, velocity and the
    expected link end once two records exist. With each packet's fade
    tx_power - rss over a travelled distance vs * rtt:
    - sig_atn is the mean fade per meter of the two packets;
    - the trend is +1 (closer) when the round trip did not grow and the
      running average RSS did not drop, -1 when both did, else 0;
    - the velocity is the fade difference, as meters at sig_atn, over the
      time between the two acks, taken absolute;
    - the link ends 2 * radio_range / velocity after the last ack.

    Estimates that are undefined on this pair (zero travel time, equal ack
    times) keep their previous value. The reference, one function per
    estimate with the same float expressions and the same undefined cases,
    lives in `tests/oracles.py`: called in that order, those functions
    return the floats stored here.
    """
    t_msg, t_ack, tx_power, rss = rec.t_msg, rec.t_ack, rec.tx_power, rec.rss
    if rss > tx_power:
        raise MalformedAckError(
            "ack reports RSS %.6g above transmit power %.6g" % (rss, tx_power)
        )
    if t_ack <= t_msg:
        raise ValueError("ack time must follow send time")
    rx = entry.packets_rx + 1
    entry.packets_rx = rx
    entry.sum_rss += rss
    entry.sum_tpl += tx_power
    rec.avg_rss_after = entry.sum_rss / rx
    last_two = entry.last_two
    last_two.append(rec)
    if len(last_two) < 2:
        return entry
    if len(last_two) > 2:
        del last_two[0]
    rec1 = last_two[0]
    rtt1, rtt2 = rec1.t_ack - rec1.t_msg, t_ack - t_msg
    ff1, ff2 = rec1.tx_power - rec1.rss, tx_power - rss
    d1, d2 = vs * rtt1, vs * rtt2
    if not (d1 <= 0.0 or d2 <= 0.0):
        entry.sig_atn = (ff1 / d1 + ff2 / d2) / 2.0
    rtt_ok = rtt2 <= rtt1
    if rtt_ok == (rec1.avg_rss_after <= rec.avg_rss_after):
        entry.recent_trend = 1 if rtt_ok else -1
    else:
        entry.recent_trend = 0
    tm, sig_atn = t_ack - rec1.t_ack, entry.sig_atn
    if not (tm <= 0.0 or sig_atn <= 0.0):
        entry.approx_velocity = abs(ff2 - ff1) / (sig_atn * tm)
    vel = entry.approx_velocity
    entry.expected_timestamp_end = math.inf if vel <= 0.0 else 2.0 * radio_range / vel + t_ack
    return entry


def predict_displacement(vel: float, t_now: float, t_ack2: float) -> float:
    """Distance the successor may have moved since its last acknowledgement."""
    return vel * (t_now - t_ack2)


def should_drop(dist_est: float, radio_range: float) -> bool:
    """True when the estimated displacement exceeds twice the radio range."""
    return dist_est > 2.0 * radio_range


def power_threshold(sig_atn: float, dist_est: float, min_rcv: float) -> float:
    """Strict lower bound on usable transmit power for the estimated distance."""
    return sig_atn * dist_est + min_rcv


def available_levels(levels: tuple[float, ...], p_thres: float) -> tuple[float, ...]:
    """Suffix of the ascending level list strictly above the threshold.

    An empty result means no level can currently reach the successor; the
    caller must treat the link as unusable for this attempt.
    """
    return levels[bisect_right(levels, p_thres):]


def mark_reliability(entry: CommCacheEntry, actual_break_time: float) -> CommCacheEntry:
    """Grade a link that broke at `actual_break_time` against its predicted lifetime.

    The link is unreliable exactly when it broke strictly before the
    predicted end (breaks at or after the prediction are honest); against the
    +inf sentinel every break is early. The trend resets to unknown.
    """
    entry.reliable = actual_break_time >= entry.expected_timestamp_end
    entry.recent_trend = 0
    return entry


def new_episode(entry: CommCacheEntry) -> CommCacheEntry:
    """Reset per-episode motion state when a route (re)installs this link.

    PRR counters, sig_atn and the reliability flag persist across episodes;
    the record pair, velocity and predicted end do not. Without the reset a
    long idle gap would keep predict_displacement above 2R forever.
    """
    entry.expected_timestamp_end = math.inf
    entry.approx_velocity = 0.0
    entry.recent_trend = 0
    entry.last_two.clear()
    return entry

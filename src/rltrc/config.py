"""Scenario configuration: defaults, flat key=value parsing, range validation.

Every knob a run needs lives here. Validation enforces the published
parameter ranges unless the scenario sets override=true, in which case desk
scale scenarios may shrink the arena and related constants while keeping the
rest of the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

VALID_ZONE_COUNTS = (3, 6, 9, 12)
VALID_MOBILITY = ("random-waypoint", "random-walk", "gaussian")
VALID_POLICIES = ("rl-trc", "fixed-max", "odtpc-like", "beacon-rssi-like", "beacon-prr-like")


class ConfigError(ValueError):
    """Carries every violated bound, not just the first."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    zones: int = 3
    nodes: int = 50
    peripherals_per_zone: int = 2
    arena_width: float = 2000.0
    arena_height: float = 2000.0
    radio_range_min: float = 10.0
    radio_range_max: float = 40.0
    route_margin: float = 0.0
    energy_min: float = 20.0
    energy_max: float = 50.0
    level_count_min: int = 5
    level_count_max: int = 10
    level_value_min: float = 5.0
    level_value_max: float = 25.0
    inter_arrival_min: float = 0.05
    inter_arrival_max: float = 0.2
    mx_atmpt: int = 3
    mobility: str = "random-waypoint"
    vmax_min: float = 0.5
    vmax_max: float = 3.0
    pause_max: float = 2.0
    mobility_dt: float = 0.5
    gaussian_accel: float = 0.5
    policy: str = "rl-trc"
    seed: int = 1
    duration: float = 60.0
    sessions: int = 8
    session_start_max: float = 2.0
    t_sync: float = 5.0
    t_net: float = 20.0
    tau_a: float = 0.05
    proc_delay: float = 0.005
    t_hop: float = 0.002
    alpha_min: float = 0.2
    alpha_max: float = 0.4
    noise_spread: float = 0.1
    min_rcv: float = 1.0
    vs: float = 1000.0
    prior_sig_atn: float = 0.3
    broadcast_cost_cap: float = 1e12
    bitrate: float = 250000.0
    payload_bytes: float = 50.0
    rx_cost_fraction: float = 0.5
    beacon_period: float = 1.0
    rssi_high: float = 8.0
    rssi_low: float = 2.0
    override: bool = False

    @property
    def airtime(self) -> float:
        """Seconds one data packet occupies the radio."""
        return self.payload_bytes * 8.0 / self.bitrate

    def validate(self) -> list[str]:
        """All range violations, empty when the config is runnable.

        Structural problems are always errors; published-range problems are
        waived by override=true.
        """
        hard: list[str] = []
        soft: list[str] = []
        if self.zones not in VALID_ZONE_COUNTS:
            hard.append("zones must be one of %s, got %d" % (list(VALID_ZONE_COUNTS), self.zones))
        if self.mobility not in VALID_MOBILITY:
            hard.append("mobility must be one of %s, got %r" % (list(VALID_MOBILITY), self.mobility))
        if self.policy not in VALID_POLICIES:
            hard.append("policy must be one of %s, got %r" % (list(VALID_POLICIES), self.policy))
        if self.duration < 0.0:
            hard.append("duration must be >= 0, got %g" % self.duration)
        elif not math.isfinite(self.duration):
            hard.append("duration must be finite, got %g" % self.duration)
        if self.nodes < 1:
            hard.append("nodes must be >= 1, got %d" % self.nodes)
        if self.sessions < 0:
            hard.append("sessions must be >= 0, got %d" % self.sessions)
        if not 0 < self.level_count_min <= self.level_count_max:
            hard.append("level counts must satisfy 0 < min <= max")
        if not 0.0 < self.level_value_min < self.level_value_max < math.inf:
            hard.append("level values must satisfy 0 < min < max < inf")
        if not 0.0 < self.radio_range_min <= self.radio_range_max:
            hard.append("radio ranges must satisfy 0 < min <= max")
        # every zone of a multi-zone arena has an internal edge to hold its
        # peripherals; a single zone has none
        peripherals = self.zones * max(self.peripherals_per_zone, 0) if self.zones > 1 else 0
        if self.nodes - peripherals < 2:
            hard.append(
                "nodes=%d leaves fewer than 2 mobile nodes after %d peripherals"
                % (self.nodes, peripherals)
            )
        if not 0.0 < self.energy_min <= self.energy_max < math.inf:
            hard.append("energies must satisfy 0 < min <= max < inf")
        if not 0.0 < self.inter_arrival_min <= self.inter_arrival_max:
            hard.append("inter-arrival bounds must satisfy 0 < min <= max")
        if not 0.0 <= self.vmax_min <= self.vmax_max < math.inf:
            hard.append("vmax bounds must satisfy 0 <= min <= max < inf")
        if self.tau_a <= 0.0 or self.vs <= 0.0 or self.mobility_dt <= 0.0:
            hard.append("tau_a, vs and mobility_dt must be positive")
        # every hop takes d / vs: NaN delivers nothing, and at inf an ack
        # lands at the instant of its send
        if not self.vs < math.inf:
            hard.append("vs must be finite, got %g" % self.vs)
        # a period or packet gap too short to move the clock at `duration`
        # would repeat its event forever at one instant
        if math.isfinite(self.duration):
            timers = ["t_sync", "mobility_dt", "tau_a", "inter_arrival_min"]
            if self.policy == "beacon-prr-like":
                timers.append("beacon_period")
            for name in timers:
                p = getattr(self, name)
                if not (p < math.inf and self.duration + p > self.duration):
                    hard.append("%s must be finite and move the clock at duration %g, got %g"
                                % (name, self.duration, p))
        # a NaN or +inf receive floor clears no link budget, and one below 0
        # accepts a received strength outside the rewards' [0, 1] ratio; a
        # NaN or +inf route margin leaves no link to route over; a NaN or
        # infinite gaussian_accel moves a node to (nan, nan)
        for name in ("proc_delay", "t_hop", "session_start_max", "min_rcv", "route_margin",
                     "gaussian_accel"):
            p = getattr(self, name)
            if not 0.0 <= p < math.inf:
                hard.append("%s must be finite and >= 0, got %g" % (name, p))
        # a receiver pays rx_cost_fraction of a minimum-level send to listen,
        # and a charge of 0 J or less counts as unpaid, so nothing is received;
        # a flood books min(its messages, broadcast_cost_cap) as investment;
        # zones tile the arena, so it must have an area
        for name in ("bitrate", "payload_bytes", "rx_cost_fraction", "broadcast_cost_cap",
                     "arena_width", "arena_height"):
            p = getattr(self, name)
            if not 0.0 < p < math.inf:
                hard.append("%s must be finite and positive, got %g" % (name, p))
        # a NaN or infinite attenuation prior, or an infinite channel
        # coefficient, clears no link budget
        if not -math.inf < self.prior_sig_atn < math.inf:
            hard.append("prior_sig_atn must be finite, got %g" % self.prior_sig_atn)
        if not 0.0 < self.alpha_min <= self.alpha_max < math.inf:
            hard.append("alpha range must satisfy 0 < min <= max < inf")
        if self.zones in VALID_ZONE_COUNTS and self.nodes >= 1:
            per_zone = self.nodes / self.zones
            if not 5.0 <= per_zone <= 150.0:
                soft.append(
                    "nodes per zone must lie in [5, 150], got %.3g (%d nodes / %d zones)"
                    % (per_zone, self.nodes, self.zones)
                )
        if (self.arena_width, self.arena_height) != (2000.0, 2000.0):
            soft.append(
                "arena must be 2000x2000 m, got %gx%g" % (self.arena_width, self.arena_height)
            )
        if self.radio_range_min < 10.0 or self.radio_range_max > 40.0:
            soft.append(
                "radio range must lie in [10, 40] m, got [%g, %g]"
                % (self.radio_range_min, self.radio_range_max)
            )
        if self.energy_min < 20.0 or self.energy_max > 50.0:
            soft.append(
                "initial energy must lie in [20, 50] J, got [%g, %g]"
                % (self.energy_min, self.energy_max)
            )
        if self.level_count_min < 1 or self.level_count_max > 25:
            soft.append(
                "power level count must lie in [1, 25], got [%d, %d]"
                % (self.level_count_min, self.level_count_max)
            )
        if self.inter_arrival_min < 0.05 or self.inter_arrival_max > 0.2:
            soft.append(
                "inter-arrival bounds must lie in [0.05, 0.2] s, got [%g, %g]"
                % (self.inter_arrival_min, self.inter_arrival_max)
            )
        if self.mx_atmpt not in (3, 4):
            soft.append("mx_atmpt must be 3 or 4, got %d" % self.mx_atmpt)
        if self.override:
            return hard
        return hard + soft


_FIELD_TYPES = {
    f.name: getattr(f.type, "__name__", str(f.type)) for f in fields(ScenarioConfig)
}


def _convert(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    if ftype == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValueError("expected a boolean, got %r" % raw)
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        return float(raw)
    return raw


def parse_config(text: str) -> ScenarioConfig:
    """Build a validated config from flat `key = value` lines.

    Blank lines and # comments are ignored. Raises ConfigError listing every
    unknown key, conversion failure, and violated bound.
    """
    violations: list[str] = []
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append("line %d: expected key = value, got %r" % (lineno, stripped))
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            violations.append("line %d: unknown key %r" % (lineno, key))
            continue
        try:
            values[key] = _convert(key, raw)
        except ValueError as exc:
            violations.append("line %d: %s: %s" % (lineno, key, exc))
    if violations:
        raise ConfigError(violations)
    cfg = ScenarioConfig(**values)
    violations = cfg.validate()
    if violations:
        raise ConfigError(violations)
    return cfg


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

"""Scenario configuration: defaults, flat key=value parsing, range validation.

Every knob a run needs lives here. A ScenarioConfig validates itself when it
is made and cannot change afterwards, so every config a caller holds is
runnable. Validation enforces the published parameter ranges unless the
scenario sets override=true, in which case desk scale scenarios may shrink
the arena and related constants while keeping the rest of the contract.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .model import PERIPHERAL_INSET, make_zones, peripheral_spots, power_levels
from .policy import BASELINE_KINDS

VALID_ZONE_COUNTS = (3, 6, 9, 12)
VALID_MOBILITY = ("random-waypoint", "random-walk", "gaussian")
VALID_POLICIES = ("rl-trc",) + BASELINE_KINDS


class ConfigError(ValueError):
    """Carries every violated bound, not just the first."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = violations
        super().__init__("; ".join(violations))


# The range a run needs of each numeric field outside the pairs and timers
# below, as (what the message says, its test, the fields): outside it a run
# raises, breaks a run invariant, delivers nothing or has no physical
# meaning, e.g. a NaN hop delay or an infinite noise spread. `zones` is one
# of VALID_ZONE_COUNTS and `seed` may be any integer.
_FIELD_RANGES = (
    (">= 1", lambda v: v >= 1, ("nodes", "mx_atmpt")),
    (">= 0", lambda v: v >= 0, ("sessions", "peripherals_per_zone")),
    ("finite", lambda v: -math.inf < v < math.inf, ("prior_sig_atn", "rssi_high", "rssi_low")),
    ("finite and >= 0", lambda v: 0.0 <= v < math.inf,
     ("duration", "route_margin", "pause_max", "gaussian_accel", "session_start_max", "t_net",
      "proc_delay", "t_hop", "noise_spread", "min_rcv")),
    ("finite and positive", lambda v: 0.0 < v < math.inf,
     ("arena_width", "arena_height", "vs", "broadcast_cost_cap", "bitrate", "payload_bytes",
      "rx_cost_fraction")),
)

# Nodes, links and packets draw their values between a (min, max) pair, so the
# pair must be ordered and finite. Each row: the two fields, the rule a run
# needs, and the published range that override=true waives, as (name, low,
# high, unit).
_PAIR_RULES = {
    "0 < min <= max < inf": lambda lo, hi: 0 < lo <= hi < math.inf,
    "0 < min < max < inf": lambda lo, hi: 0 < lo < hi < math.inf,
    "0 <= min <= max < inf": lambda lo, hi: 0 <= lo <= hi < math.inf,
}
_PAIRS = (
    ("level_count_min", "level_count_max", "level counts", "0 < min <= max < inf",
     ("power level count", 1, 25, "")),
    ("level_value_min", "level_value_max", "level values", "0 < min < max < inf", None),
    ("radio_range_min", "radio_range_max", "radio ranges", "0 < min <= max < inf",
     ("radio range", 10, 40, " m")),
    ("energy_min", "energy_max", "energies", "0 < min <= max < inf",
     ("initial energy", 20, 50, " J")),
    ("inter_arrival_min", "inter_arrival_max", "inter-arrival bounds", "0 < min <= max < inf",
     ("inter-arrival bounds", 0.05, 0.2, " s")),
    ("vmax_min", "vmax_max", "vmax bounds", "0 <= min <= max < inf", None),
    ("alpha_min", "alpha_max", "alpha range", "0 < min <= max < inf", None),
)

# Periods and the shortest packet gap: one too short to move the clock at a
# finite `duration` would repeat its event forever at one instant.
_TIMERS = ("t_sync", "mobility_dt", "tau_a", "inter_arrival_min", "beacon_period")

# Counts capped far above every canned and scale world (3 200 nodes with 200
# sessions, 10 levels) so that an accepted config fits in memory;
# override=true keeps the caps. The world builds one object per node and per
# session, and one level tuple per level count that every node with that
# count shares, so level_count_max bounds the size of each shared tuple and
# of each decision's level set. Node and session ids also fit the ledger's
# 32-bit columns.
_CAPS = (("nodes", 100_000), ("sessions", 10_000), ("level_count_max", 100))


# What each annotated field type admits, and how its message names it. A
# float field also takes an int, but no bool: a bool passes only for a bool
# field.
_TYPE_RULES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "bool": ((bool,), "true or false"),
}


def _type_fault(name: str, ftype: str, value) -> str | None:
    accepted, what = _TYPE_RULES[ftype]
    if not isinstance(value, accepted) or ftype != "bool" and isinstance(value, bool):
        return "%s must be %s, got %r" % (name, what, value)
    # the float rules add and divide with the value, which overflows beyond
    # float range
    if ftype == "float" and isinstance(value, int) and abs(value) > sys.float_info.max:
        return "%s must be a number within float range, got %d" % (name, value)
    return None


def _show(value) -> str:
    # "%g" overflows on an int beyond float range
    return str(value) if isinstance(value, int) else "%g" % value


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario, checked once when it is made: a config that `validate`
    finds fault with raises ConfigError listing every fault. Frozen, so use
    `dataclasses.replace` to get a changed, checked copy."""

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
    # at this default every flood of a desk zone (17 to 48 branches, 29 to
    # 56 hops deep) costs the cap, which swamps every power level booked:
    # AWE then measures nothing. The canned scenarios set 30.
    broadcast_cost_cap: float = 1e12
    bitrate: float = 250000.0
    payload_bytes: float = 50.0
    rx_cost_fraction: float = 0.5
    beacon_period: float = 1.0
    rssi_high: float = 8.0
    rssi_low: float = 2.0
    override: bool = False

    def __post_init__(self) -> None:
        violations = self.validate()
        if violations:
            raise ConfigError(violations)

    @property
    def airtime(self) -> float:
        """Seconds one data packet occupies the radio."""
        return self.payload_bytes * 8.0 / self.bitrate

    def validate(self) -> list[str]:
        """All range violations, empty when the config is runnable.

        Every field is checked against its row in _FIELD_RANGES, _PAIRS or
        _TIMERS, and the counts against _CAPS, plus the few rules that join
        fields. Published-range problems are waived by override=true; the
        rest are always errors. A field that holds no value of its annotated
        type (see _TYPE_RULES) is reported alone, as every other rule
        compares or counts with it.
        """
        wrong = [fault for name, ftype in _FIELD_TYPES.items()
                 if (fault := _type_fault(name, ftype, getattr(self, name)))]
        if wrong:
            return wrong
        hard: list[str] = []
        soft: list[str] = []
        # the CLI writes <name>-seed<k>-summary.csv and the like under --out
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            hard.append("name must be a plain file name: not empty, '.' or '..', and "
                        "without '/', '\\' or NUL, got %r" % (self.name,))
        for name, choices in (("zones", VALID_ZONE_COUNTS), ("mobility", VALID_MOBILITY),
                              ("policy", VALID_POLICIES)):
            value = getattr(self, name)
            if value not in choices:
                hard.append("%s must be one of %s, got %r" % (name, list(choices), value))
        for domain, holds, names in _FIELD_RANGES:
            for name in names:
                value = getattr(self, name)
                if not holds(value):
                    hard.append("%s must be %s, got %s" % (name, domain, _show(value)))
        for name, cap in _CAPS:
            value = getattr(self, name)
            if value > cap:
                hard.append("%s must be <= %d, got %s" % (name, cap, _show(value)))
        for lo_name, hi_name, label, rule, published in _PAIRS:
            lo, hi = getattr(self, lo_name), getattr(self, hi_name)
            if not _PAIR_RULES[rule](lo, hi):
                hard.append("%s must satisfy %s" % (label, rule))
            if published:
                what, low, high, unit = published
                if lo < low or hi > high:
                    soft.append("%s must lie in [%g, %g]%s, got [%s, %s]"
                                % (what, low, high, unit, _show(lo), _show(hi)))
        # a node draws its level count in the count pair and spaces that many
        # levels between the value pair; values too close to space one
        # count strictly apart would fail the world build
        counts = self.level_count_min, self.level_count_max
        lo, hi = self.level_value_min, self.level_value_max
        if 0 < counts[0] <= counts[1] <= dict(_CAPS)["level_count_max"] and 0 < lo < hi < math.inf:
            for k in range(counts[0], counts[1] + 1):
                try:
                    power_levels(k, lo, hi)
                except ValueError:
                    hard.append("level values [%r, %r] cannot space %d power levels strictly "
                                "apart; every level count in [%d, %d] must give strictly "
                                "ascending levels" % (lo, hi, k, *counts))
                    break
        if math.isfinite(self.duration):
            for name in _TIMERS:
                p = getattr(self, name)
                if not (p < math.inf and self.duration + p > self.duration):
                    hard.append("%s must be finite and move the clock at duration %g, got %g"
                                % (name, self.duration, p))
        # `engine._reflect` folds a random-walk or gaussian step that leaves
        # the arena back in one pass only when it is at most the shorter side
        step, side = self.vmax_max * self.mobility_dt, min(self.arena_width, self.arena_height)
        if self.mobility in ("random-walk", "gaussian") and side < step < math.inf:
            hard.append("vmax_max * mobility_dt must be at most the shorter arena side "
                        "(%g m) under %s, got %g m" % (side, self.mobility, step))
        # every zone of a multi-zone arena has an internal edge to hold its
        # peripherals; a single zone has none
        peripherals = self.zones * self.peripherals_per_zone if self.zones > 1 else 0
        if self.nodes - peripherals < 2:
            hard.append(
                "nodes=%d leaves fewer than 2 mobile nodes after %d peripherals"
                % (self.nodes, peripherals)
            )
        # every relay must land strictly inside its own zone: `zone_of` gives
        # a point on a zone's edge to the lowest zone id, and a point off the
        # arena to none. The node cap bounds the relays placed here
        w, h = self.arena_width, self.arena_height
        if (self.zones in VALID_ZONE_COUNTS and 0 < w < math.inf and 0 < h < math.inf
                and peripherals <= min(self.nodes, dict(_CAPS)["nodes"])):
            misplaced = [(x, y, z) for z in make_zones(w, h, self.zones, av_rad=0.0)
                         for x, y in peripheral_spots(z, self.peripherals_per_zone, w, h)
                         if not (z.x0 < x < z.x1 and z.y0 < y < z.y1)]
            if misplaced:
                x, y, z = misplaced[0]
                hard.append("relay at (%g, %g) does not lie strictly inside its zone %d "
                            "([%g, %g] x [%g, %g]); relays sit %g m inside a zone's "
                            "internal edges" % (x, y, z.id, z.x0, z.x1, z.y0, z.y1,
                                                PERIPHERAL_INSET))
        if self.zones in VALID_ZONE_COUNTS and self.nodes >= 1:
            # in integers: nodes / zones overflows a float beyond float range
            if not 5 * self.zones <= self.nodes <= 150 * self.zones:
                per_zone = ("%.3g" % (self.nodes / self.zones) if self.nodes < 1e300
                            else _show(self.nodes // self.zones))
                soft.append(
                    "nodes per zone must lie in [5, 150], got %s (%d nodes / %d zones)"
                    % (per_zone, self.nodes, self.zones)
                )
        if (self.arena_width, self.arena_height) != (2000.0, 2000.0):
            soft.append(
                "arena must be 2000x2000 m, got %gx%g" % (self.arena_width, self.arena_height)
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
    unknown or repeated key, conversion failure, and violated bound.
    """
    violations: list[str] = []
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
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
        if first_line.setdefault(key, lineno) != lineno:
            violations.append("line %d: key %r repeats line %d" % (lineno, key, first_line[key]))
            continue
        try:
            values[key] = _convert(key, raw)
        except ValueError as exc:
            violations.append("line %d: %s: %s" % (lineno, key, exc))
    if violations:
        raise ConfigError(violations)
    return ScenarioConfig(**values)


def load_config(path: str) -> ScenarioConfig:
    """The config a UTF-8 file of `key = value` lines gives; a leading
    byte-order mark, as some editors write, is dropped. Decoded as plain
    UTF-8 first, so a bad byte's offset counts from the start of the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(["%s is not UTF-8 text: byte 0x%02x at offset %d"
                           % (path, exc.object[exc.start], exc.start)]) from None
    return parse_config(text.removeprefix("\ufeff"))

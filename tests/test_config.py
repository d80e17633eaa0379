import dataclasses
import math
from dataclasses import fields

import pytest

from rltrc.config import (_FIELD_RANGES, _PAIRS, _TIMERS, VALID_MOBILITY, VALID_ZONE_COUNTS,
                          ConfigError, ScenarioConfig, load_config, parse_config)
from rltrc.engine import Simulator
from rltrc.metrics import invariant_problems
from rltrc.model import make_zones, power_levels
from rltrc.scenarios import SCENARIOS, scenario


def violations(**overrides) -> list[str]:
    """What `ScenarioConfig(**overrides)` raises as its ConfigError's list,
    or [] when the config is made."""
    try:
        ScenarioConfig(**overrides)
    except ConfigError as err:
        return err.violations
    return []


class TestDefaults:
    def test_defaults_are_valid(self):
        assert violations() == []

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ScenarioConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nzones = 6  # trailing\n")
        assert cfg.zones == 6

    def test_dashed_keys_normalize(self):
        cfg = parse_config("radio-range-min = 12\nt-sync = 7")
        assert cfg.radio_range_min == 12.0
        assert cfg.t_sync == 7.0


class TestCheckedWhenMade:
    def test_a_field_cannot_be_assigned(self):
        cfg = ScenarioConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.nodes = 7
        assert cfg.nodes == 50

    def test_replace_checks_the_copy(self):
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(ScenarioConfig(), nodes=7)
        assert err.value.violations == [
            "nodes=7 leaves fewer than 2 mobile nodes after 6 peripherals",
            "nodes per zone must lie in [5, 150], got 2.33 (7 nodes / 3 zones)"]
        assert dataclasses.replace(ScenarioConfig(), nodes=60).nodes == 60


class TestRangeValidation:
    def test_published_scale_combinations_pass(self):
        assert violations(zones=6, nodes=200) == []
        assert violations(zones=12, nodes=600) == []

    def test_zone_count_restricted(self):
        errs = violations(zones=5)
        assert any("zones" in e for e in errs)

    def test_per_zone_cap(self):
        errs = violations(zones=3, nodes=500)
        assert any("per zone" in e for e in errs)

    def test_per_zone_floor(self):
        errs = violations(zones=12, nodes=24)
        assert any("per zone" in e for e in errs)

    def test_arena_bound(self):
        errs = violations(arena_width=500.0)
        assert any("arena" in e for e in errs)

    def test_negative_route_margin_rejected(self):
        errs = violations(route_margin=-1.0)
        assert any("route_margin" in e for e in errs)

    def test_too_few_mobile_nodes_rejected_before_build(self):
        # 3 zones x 2 peripherals leave 2 mobile nodes of 8, and 1 of 7;
        # the config is refused when it is made, so no world can be built
        assert violations(zones=3, nodes=8, override=True) == []
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(zones=3, nodes=7, override=True)
        assert err.value.violations == [
            "nodes=7 leaves fewer than 2 mobile nodes after 6 peripherals"]

    def test_override_waives_published_ranges_only(self):
        assert violations(arena_width=100.0, arena_height=80.0, override=True) == []
        assert any("zones" in e for e in violations(arena_width=100.0, zones=5, override=True))

    @pytest.mark.parametrize("overrides, message", [
        ({"zones": 5}, "zones must be one of [3, 6, 9, 12], got 5"),
        ({"mobility": "teleport"},
         "mobility must be one of ['random-waypoint', 'random-walk', 'gaussian'],"
         " got 'teleport'"),
        ({"policy": "greedy"},
         "policy must be one of ['rl-trc', 'fixed-max', 'odtpc-like', 'beacon-rssi-like',"
         " 'beacon-prr-like'], got 'greedy'"),
        ({"duration": -1.0}, "duration must be finite and >= 0, got -1"),
        # no node count below 1 leaves 2 mobile nodes, so both messages show
        ({"nodes": 0}, ["nodes must be >= 1, got 0",
                        "nodes=0 leaves fewer than 2 mobile nodes after 6 peripherals"]),
        ({"sessions": -1}, "sessions must be >= 0, got -1"),
        ({"level_count_min": 11}, "level counts must satisfy 0 < min <= max < inf"),
        ({"level_value_min": 30.0}, "level values must satisfy 0 < min < max < inf"),
        ({"radio_range_min": 45.0}, "radio ranges must satisfy 0 < min <= max < inf"),
        ({"nodes": 7, "override": True},
         "nodes=7 leaves fewer than 2 mobile nodes after 6 peripherals"),
        ({"route_margin": -1.0}, "route_margin must be finite and >= 0, got -1"),
        ({"energy_min": 60.0}, "energies must satisfy 0 < min <= max < inf"),
        ({"inter_arrival_min": 0.3},
         "inter-arrival bounds must satisfy 0 < min <= max < inf"),
        ({"vmax_min": 5.0}, "vmax bounds must satisfy 0 <= min <= max < inf"),
        ({"vs": 0.0}, "vs must be finite and positive, got 0"),
        ({"alpha_min": 0.0}, "alpha range must satisfy 0 < min <= max < inf"),
        ({"nodes": 500}, "nodes per zone must lie in [5, 150], got 167 (500 nodes / 3 zones)"),
        ({"arena_width": 500.0}, "arena must be 2000x2000 m, got 500x2000"),
        ({"radio_range_max": 50.0}, "radio range must lie in [10, 40] m, got [10, 50]"),
        ({"energy_max": 60.0}, "initial energy must lie in [20, 50] J, got [20, 60]"),
        ({"level_count_max": 30}, "power level count must lie in [1, 25], got [5, 30]"),
        ({"inter_arrival_max": 0.3},
         "inter-arrival bounds must lie in [0.05, 0.2] s, got [0.05, 0.3]"),
        ({"mx_atmpt": 5}, "mx_atmpt must be 3 or 4, got 5"),
        # a negative receive floor accepts a received strength below 0, and
        # the ack reward then grades a strength ratio outside [0, 1]
        ({"min_rcv": -20.0}, "min_rcv must be finite and >= 0, got -20"),
        ({"min_rcv": -1e-9}, "min_rcv must be finite and >= 0, got -1e-09"),
        # a NaN or non-positive cap books flood investment of NaN or below 0,
        # which no run invariant catches
        ({"broadcast_cost_cap": math.nan},
         "broadcast_cost_cap must be finite and positive, got nan"),
        ({"broadcast_cost_cap": -1.0}, "broadcast_cost_cap must be finite and positive, got -1"),
        ({"broadcast_cost_cap": 0.0}, "broadcast_cost_cap must be finite and positive, got 0"),
        ({"broadcast_cost_cap": math.inf},
         "broadcast_cost_cap must be finite and positive, got inf"),
        # each of these raised or broke a run invariant when run: zones
        # cannot tile an arena without area, an infinite battery or top
        # level gives NaN energies, an infinite top speed or gaussian_accel
        # moves nodes to (nan, nan), and at vs = inf an ack lands at its send
        # time, so its round trip travels inf * 0 = nan meters and the link
        # caches' attenuation turns NaN
        ({"arena_width": math.nan, "override": True},
         "arena_width must be finite and positive, got nan"),
        ({"arena_width": math.inf, "override": True},
         "arena_width must be finite and positive, got inf"),
        ({"arena_width": 0.0, "override": True}, "arena_width must be finite and positive, got 0"),
        ({"arena_height": -1.0, "override": True},
         "arena_height must be finite and positive, got -1"),
        ({"arena_height": -math.inf, "override": True},
         "arena_height must be finite and positive, got -inf"),
        ({"energy_max": math.inf, "override": True}, "energies must satisfy 0 < min <= max < inf"),
        ({"level_value_max": math.inf}, "level values must satisfy 0 < min < max < inf"),
        ({"vmax_max": math.inf}, "vmax bounds must satisfy 0 <= min <= max < inf"),
        ({"gaussian_accel": math.nan}, "gaussian_accel must be finite and >= 0, got nan"),
        ({"gaussian_accel": -math.inf}, "gaussian_accel must be finite and >= 0, got -inf"),
        ({"gaussian_accel": -1.0}, "gaussian_accel must be finite and >= 0, got -1"),
        ({"vs": math.inf}, "vs must be finite and positive, got inf"),
        # nodes / zones overflowed a float and raised OverflowError
        pytest.param({"nodes": 10 ** 400},
                     ["nodes must be <= 100000, got %d" % 10 ** 400,
                      "nodes per zone must lie in [5, 150], got %d (%d nodes / 3 zones)"
                      % (10 ** 400 // 3, 10 ** 400)], id="nodes-beyond-float-range"),
        # the world builds one object per node or session and one level per
        # power level of each node; override=true does not waive the caps
        pytest.param({"nodes": 100_001, "override": True}, "nodes must be <= 100000, got 100001",
                     id="nodes-over-cap"),
        pytest.param({"sessions": 10_001, "override": True},
                     "sessions must be <= 10000, got 10001", id="sessions-over-cap"),
        pytest.param({"sessions": 10 ** 400},
                     "sessions must be <= 10000, got %d" % 10 ** 400, id="sessions-beyond-float-range"),
        pytest.param({"level_count_max": 101, "override": True},
                     "level_count_max must be <= 100, got 101", id="level-count-over-cap"),
        # reflecting a step this long back into the arena never ends
        pytest.param({"mobility": "random-walk", "vmax_min": 1e300, "vmax_max": 1e300,
                      "nodes": 30, "duration": 2.0},
                     "vmax_max * mobility_dt must be at most the shorter arena side (2000 m) "
                     "under random-walk, got 5e+299 m", id="random-walk-step-beyond-arena"),
        pytest.param({"mobility": "gaussian", "arena_width": 100.0, "arena_height": 50.0,
                      "vmax_max": 101.0, "override": True},
                     "vmax_max * mobility_dt must be at most the shorter arena side (50 m) "
                     "under gaussian, got 50.5 m", id="gaussian-step-beyond-arena"),
        # a relay sits 1 m inside a zone edge: in a zone 0.5 m wide it lies off
        # the arena and the world raised; in a zone 1 m wide it lands on the
        # opposite edge, where `zone_of` gave the middle zone's right-edge
        # relay to the zone on its left. override=true keeps the rule
        pytest.param({"arena_width": 1.5, "override": True},
                     "relay at (-0.5, 666.667) does not lie strictly inside its zone 0 "
                     "([0, 0.5] x [0, 2000]); relays sit 1 m inside a zone's internal edges",
                     id="relay-off-the-arena"),
        pytest.param({"arena_width": 3.0, "override": True},
                     "relay at (0, 666.667) does not lie strictly inside its zone 0 "
                     "([0, 1] x [0, 2000]); relays sit 1 m inside a zone's internal edges",
                     id="relay-on-a-zone-edge"),
        pytest.param({"zones": 6, "nodes": 60, "arena_height": 2.0, "override": True},
                     "relay at (333.333, 0) does not lie strictly inside its zone 0 "
                     "([0, 666.667] x [0, 1]); relays sit 1 m inside a zone's internal edges",
                     id="relay-on-a-zone-edge-in-y"),
        # spaced evenly, five levels between values two ulps apart round two
        # of them equal, and the world build raised; override=true keeps it
        pytest.param({"level_value_min": 1.0, "level_value_max": 1.0000000000000004,
                      "override": True},
                     "level values [1.0, 1.0000000000000004] cannot space 5 power levels "
                     "strictly apart; every level count in [5, 10] must give strictly "
                     "ascending levels", id="level-values-too-close"),
        # each was made and then raised TypeError in the world build, raised
        # it from validate's integer arithmetic, or was refused as "got 2";
        # a fault in an int field is reported alone
        *(pytest.param({name: value}, "%s must be an integer, got %r" % (name, value),
                       id="%s-%r" % (name, value))
          for name, value in [("nodes", 50.5), ("sessions", 2.5), ("seed", 1.5), ("zones", 3.0),
                              ("level_count_min", 1.5), ("mx_atmpt", 2.5), ("nodes", True),
                              ("nodes", 0.5)]),
        # the CLI names its --out files after the config; "../escaped"
        # wrote them into the parent of --out
        *(pytest.param({"name": name}, "name must be a plain file name: not empty, '.' or '..', "
                       "and without '/', '\\' or NUL, got %r" % (name,), id="name-" + label)
          for name, label in [("", "empty"), (".", "dot"), ("..", "dotdot"),
                              ("../escaped", "parent"), ("out/run", "slash"),
                              ("a\\b", "backslash"), ("a\0b", "nul")]),
        # a field that holds no value of its annotated type is reported
        # alone: each of these raised TypeError from a comparison, or was
        # made with a truthy override that waived the published ranges, or
        # made a 1 m arena of True
        *(pytest.param({name: value}, "%s must be %s, got %r" % (name, what, value),
                       id="%s-%s" % (name.replace("_", "-"), label))
          for name, value, what, label in [
              ("name", None, "a string", "none"), ("duration", "60", "a number", "str"),
              ("t_sync", "5", "a number", "str"), ("override", "no", "true or false", "str"),
              ("override", 1, "true or false", "int"), ("arena_width", True, "a number", "bool"),
              ("policy", None, "a string", "none"), ("mobility", 2, "a string", "int")]),
        pytest.param({"duration": 10 ** 400},
                     "duration must be a number within float range, got %d" % 10 ** 400,
                     id="duration-beyond-float-range"),
    ])
    def test_each_violation_message(self, overrides, message):
        expected = message if isinstance(message, list) else [message]
        assert violations(**overrides) == expected

    @pytest.mark.parametrize("overrides, message", [
        ({"t_sync": 0.0}, "t_sync must be finite and move the clock at duration 60, got 0"),
        ({"t_sync": math.nan}, "t_sync must be finite and move the clock at duration 60, got nan"),
        ({"policy": "beacon-prr-like", "beacon_period": 0.0},
         "beacon_period must be finite and move the clock at duration 60, got 0"),
        ({"mobility_dt": 1e-300},
         "mobility_dt must be finite and move the clock at duration 60, got 1e-300"),
        ({"tau_a": math.inf}, "tau_a must be finite and move the clock at duration 60, got inf"),
        ({"inter_arrival_min": 1e-300, "inter_arrival_max": 1e-300, "override": True},
         "inter_arrival_min must be finite and move the clock at duration 60, got 1e-300"),
        ({"duration": math.inf}, "duration must be finite and >= 0, got inf"),
        ({"duration": math.nan}, "duration must be finite and >= 0, got nan"),
        ({"session_start_max": -1.0}, "session_start_max must be finite and >= 0, got -1"),
        ({"proc_delay": -0.001}, "proc_delay must be finite and >= 0, got -0.001"),
        ({"proc_delay": math.nan}, "proc_delay must be finite and >= 0, got nan"),
        ({"t_hop": -0.001}, "t_hop must be finite and >= 0, got -0.001"),
        ({"bitrate": 0.0}, "bitrate must be finite and positive, got 0"),
        ({"payload_bytes": math.inf}, "payload_bytes must be finite and positive, got inf"),
        # tau_a and mobility_dt at or below 0 were once one grouped message
        ({"tau_a": 0.0}, "tau_a must be finite and move the clock at duration 60, got 0"),
        ({"mobility_dt": -1.0},
         "mobility_dt must be finite and move the clock at duration 60, got -1"),
    ])
    def test_timer_that_cannot_run_is_rejected(self, overrides, message):
        # each config passes the older checks, then hangs, raises or
        # schedules events in the past when run; only validate runs here
        assert violations(**overrides) == [message]

    @pytest.mark.parametrize("overrides, message", [
        ({"rx_cost_fraction": -0.5}, "rx_cost_fraction must be finite and positive, got -0.5"),
        ({"rx_cost_fraction": 0.0}, "rx_cost_fraction must be finite and positive, got 0"),
        ({"rx_cost_fraction": math.nan}, "rx_cost_fraction must be finite and positive, got nan"),
        ({"rx_cost_fraction": math.inf}, "rx_cost_fraction must be finite and positive, got inf"),
        ({"min_rcv": math.nan}, "min_rcv must be finite and >= 0, got nan"),
        ({"min_rcv": math.inf}, "min_rcv must be finite and >= 0, got inf"),
        ({"prior_sig_atn": math.nan}, "prior_sig_atn must be finite, got nan"),
        ({"prior_sig_atn": math.inf}, "prior_sig_atn must be finite, got inf"),
        ({"prior_sig_atn": -math.inf}, "prior_sig_atn must be finite, got -inf"),
        ({"vs": math.nan}, "vs must be finite and positive, got nan"),
        ({"route_margin": math.nan}, "route_margin must be finite and >= 0, got nan"),
        ({"route_margin": math.inf}, "route_margin must be finite and >= 0, got inf"),
        ({"alpha_max": math.inf}, "alpha range must satisfy 0 < min <= max < inf"),
    ])
    def test_config_that_delivers_nothing_is_rejected(self, overrides, message):
        # each config passes the older checks, then runs with no packet
        # received or none sent at all; only validate runs here
        assert violations(**overrides) == [message]

    @pytest.mark.parametrize("overrides, message", [
        # at inf every signal arrives at full power at any distance
        ({"noise_spread": math.nan}, "noise_spread must be finite and >= 0, got nan"),
        ({"noise_spread": math.inf}, "noise_spread must be finite and >= 0, got inf"),
        ({"noise_spread": -1.0}, "noise_spread must be finite and >= 0, got -1"),
        ({"pause_max": math.nan}, "pause_max must be finite and >= 0, got nan"),
        ({"pause_max": -1.0}, "pause_max must be finite and >= 0, got -1"),
        ({"t_net": math.nan}, "t_net must be finite and >= 0, got nan"),
        ({"t_net": -1.0}, "t_net must be finite and >= 0, got -1"),
        ({"rssi_high": math.nan}, "rssi_high must be finite, got nan"),
        ({"rssi_low": math.inf}, "rssi_low must be finite, got inf"),
        ({"radio_range_max": math.inf, "override": True},
         "radio ranges must satisfy 0 < min <= max < inf"),
        ({"inter_arrival_max": math.inf, "override": True},
         "inter-arrival bounds must satisfy 0 < min <= max < inf"),
        ({"peripherals_per_zone": -1}, "peripherals_per_zone must be >= 0, got -1"),
        ({"mx_atmpt": 0, "override": True}, "mx_atmpt must be >= 1, got 0"),
        ({"beacon_period": math.nan},
         "beacon_period must be finite and move the clock at duration 60, got nan"),
    ])
    def test_value_without_physical_meaning_is_rejected(self, overrides, message):
        # validate used to pass each of these, and desk-compare then ran
        # without an error
        assert violations(**overrides) == [message]

    def test_collect_at_every_sync_stays_valid(self):
        assert violations(t_net=0.0) == []

    def test_every_numeric_field_has_one_range(self):
        singles = [name for _, _, names in _FIELD_RANGES for name in names]
        pairs = [name for row in _PAIRS for name in row[:2]]
        ranged = set(singles) | set(pairs) | set(_TIMERS)
        numeric = {f.name for f in fields(ScenarioConfig) if f.type in ("int", "float")}
        assert ranged <= numeric
        assert len(singles + pairs) == len(set(singles + pairs))
        # zones is checked against VALID_ZONE_COUNTS; every seed is valid
        assert numeric - ranged == {"zones", "seed"}

    def test_zero_receive_floor_and_small_cap_pass(self):
        assert violations(min_rcv=0.0, broadcast_cost_cap=1e-9) == []

    def test_counts_at_their_caps_pass(self):
        assert violations(nodes=100_000, sessions=10_000, level_count_max=100,
                          override=True) == []

    def test_large_batteries_and_step_at_its_bound_pass(self):
        # the conservation check's slack grows with the batteries' ulp, so
        # no battery cap is needed
        assert violations(energy_min=1e7, energy_max=1e7, override=True) == []
        for mobility in VALID_MOBILITY:
            assert violations(mobility=mobility, arena_width=100.0, arena_height=50.0,
                              vmax_max=100.0, override=True) == []
        # random-waypoint stops on its waypoint, inside the arena
        assert violations(vmax_min=1e300, vmax_max=1e300, nodes=30) == []

    def test_negative_receive_floor_is_rejected_before_the_run(self):
        # validate used to pass this config, and its run then raised
        # "rss_over_tpl -0.552064 outside [0, 1]" in the ack reward
        with pytest.raises(ConfigError) as err:
            scenario("desk-compare", seed=1, min_rcv=-20.0, alpha_min=0.5, alpha_max=0.9)
        assert err.value.violations == ["min_rcv must be finite and >= 0, got -20"]

    # the policy or mobility model that reads a field, where the default does not
    READER = {"gaussian_accel": {"mobility": "gaussian"},
              "beacon_period": {"policy": "beacon-prr-like"},
              "rssi_high": {"policy": "beacon-rssi-like"},
              "rssi_low": {"policy": "beacon-rssi-like"}}

    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig) if f.type == "float"])
    def test_extreme_float_is_rejected_or_runs_clean(self, name):
        """desk-compare at seed 1 for 10 s with one float field at NaN,
        +inf, -inf, -1 or 0: validate rejects the config, or the run
        raises nothing, keeps every run invariant, reports only finite
        floats and, when it lasts, delivers a packet."""
        for value in (math.nan, math.inf, -math.inf, -1.0, 0.0):
            overrides = {"duration": 10.0, **self.READER.get(name, {}), name: value}
            try:
                cfg = scenario("desk-compare", seed=1, **overrides)
            except ConfigError:
                continue
            sim = Simulator(cfg)
            report = sim.run()
            assert invariant_problems(sim.ledger, report) == [], value
            floats = [report.ec, report.adl, report.paln, report.awe, report.awt]
            floats += [x for row in report.series for x in row]
            if report.ntg is not None:
                floats.append(report.ntg)
            assert all(math.isfinite(x) for x in floats), (value, report)
            if cfg.duration > 0.0:
                assert sim.ledger.status_counts()["delivered"], value
        # the field's default does run
        assert violations(**{**SCENARIOS["desk-compare"], **self.READER.get(name, {})}) == []

    def test_close_level_values_build_or_are_refused(self):
        """Values two ulps apart space up to three levels strictly apart,
        and a world whose nodes draw one to three levels builds; four levels
        round two equal, so a count range that reaches four is refused."""
        lo, hi = 1.0, 1.0000000000000004
        sim = Simulator(scenario("desk-compare", level_value_min=lo, level_value_max=hi,
                                 level_count_min=1, level_count_max=3))
        assert {len(n.power_levels) for n in sim.nodes} == {1, 2, 3}
        with pytest.raises(ValueError, match="strictly ascending"):
            power_levels(4, lo, hi)
        assert violations(level_value_min=lo, level_value_max=hi, level_count_min=1,
                          level_count_max=4) == [
            "level values [1.0, 1.0000000000000004] cannot space 4 power levels strictly "
            "apart; every level count in [1, 4] must give strictly ascending levels"]

    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig) if f.type == "int"])
    def test_every_int_field_refuses_an_equal_float(self, name):
        value = float(getattr(ScenarioConfig(), name))
        assert violations(**{name: value}) == ["%s must be an integer, got %r" % (name, value)]

    def test_a_float_field_takes_an_int(self):
        cfg = scenario("lossless-pair", duration=30, arena_width=25, min_rcv=1)
        assert cfg == scenario("lossless-pair")
        assert Simulator(cfg).run() == Simulator(scenario("lossless-pair")).run()

    def test_all_violations_reported(self):
        errs = violations(zones=5, mobility="teleport", duration=-1.0, radio_range_min=0.0)
        assert len(errs) >= 4

    @pytest.mark.parametrize("zones", VALID_ZONE_COUNTS)
    def test_relays_join_their_own_zone_in_the_narrowest_zones(self, zones):
        """Zones a hair over 1 m wide and tall are accepted, and each relay
        of the world joins the zone it was placed in; at exactly 1 m the
        config is not made."""
        cols = sum(z.y0 == 0.0 for z in make_zones(1.0, 1.0, zones, av_rad=0.0))
        rows = zones // cols
        side = 1.0 + 1e-9
        sim = Simulator(ScenarioConfig(zones=zones, nodes=5 * zones, arena_width=cols * side,
                                       arena_height=rows * side, duration=1.0, override=True))
        relays = [n for n in sim.nodes if n.is_peripheral]
        assert len(relays) == 2 * zones
        assert [n.zone_id for n in relays] == [i // 2 for i in range(2 * zones)]
        sim.run()
        with pytest.raises(ConfigError, match="does not lie strictly inside its zone"):
            ScenarioConfig(zones=zones, nodes=5 * zones, arena_width=float(cols),
                           arena_height=float(rows), override=True)


class TestParseErrors:
    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("zonnes = 3")
        assert "line 1" in str(err.value) and "zonnes" in str(err.value)

    def test_bad_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("nodes = many")
        assert "nodes" in str(err.value)

    @pytest.mark.parametrize("word, value", [
        ("true", True), ("Yes", True), ("1", True), ("on", True),
        ("false", False), ("NO", False), ("0", False), ("off", False),
    ])
    def test_bool_words(self, word, value):
        assert parse_config("override = %s" % word).override is value

    def test_bad_bool(self):
        with pytest.raises(ConfigError) as err:
            parse_config("override = maybe")
        assert "boolean" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError) as err:
            parse_config("just words")
        assert "key = value" in str(err.value)

    def test_out_of_range_value_names_bound(self):
        with pytest.raises(ConfigError) as err:
            parse_config("energy_min = 5")
        assert "[20, 50]" in str(err.value)

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config("nodes = 50\nnodes = 60\n")
        assert err.value.violations == ["line 2: key 'nodes' repeats line 1"]
        # among the other line errors, and after dashes become underscores
        with pytest.raises(ConfigError) as err:
            parse_config("nodes = 50\nbogus = 1\nvmax-max = 2\nnodes = zz\nvmax_max = 3\n")
        assert err.value.violations == ["line 2: unknown key 'bogus'",
                                        "line 4: key 'nodes' repeats line 1",
                                        "line 5: key 'vmax_max' repeats line 3"]

    def test_parse_phase_collects_every_line_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config("zones = 5\nbogus = 1\nnodes = zz")
        assert len(err.value.violations) == 2

    def test_range_phase_collects_every_bound(self):
        with pytest.raises(ConfigError) as err:
            parse_config("zones = 5\nduration = -1")
        assert len(err.value.violations) == 2


class TestLoadConfig:
    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("zones = 6\nnodes = 120\nseed = 9\n", encoding="utf-8")
        cfg = load_config(str(p))
        assert (cfg.zones, cfg.nodes, cfg.seed) == (6, 120, 9)

    def test_file_that_is_not_utf8_names_its_path(self, tmp_path):
        p = tmp_path / "latin.cfg"
        p.write_bytes(b"nodes = 5\xff0\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(p))
        assert err.value.violations == ["%s is not UTF-8 text: byte 0xff at offset 9" % p]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        p = tmp_path / "marked.cfg"
        p.write_bytes(b"\xef\xbb\xbfnodes = 60\n")
        assert load_config(str(p)) == ScenarioConfig(nodes=60)
        # a bad byte's offset still counts from the start of the file
        p.write_bytes(b"\xef\xbb\xbfnodes = 5\xff0\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(p))
        assert err.value.violations == ["%s is not UTF-8 text: byte 0xff at offset 12" % p]

    def test_airtime_property(self):
        cfg = ScenarioConfig(payload_bytes=50.0, bitrate=250000.0)
        assert cfg.airtime == pytest.approx(50 * 8 / 250000.0)

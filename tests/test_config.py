import math

import pytest

from rltrc.config import ConfigError, ScenarioConfig, load_config, parse_config
from rltrc.engine import Simulator


class TestDefaults:
    def test_defaults_are_valid(self):
        assert ScenarioConfig().validate() == []

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ScenarioConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nzones = 6  # trailing\n")
        assert cfg.zones == 6

    def test_dashed_keys_normalize(self):
        cfg = parse_config("radio-range-min = 12\nt-sync = 7")
        assert cfg.radio_range_min == 12.0
        assert cfg.t_sync == 7.0


class TestRangeValidation:
    def test_published_scale_combinations_pass(self):
        assert ScenarioConfig(zones=6, nodes=200).validate() == []
        assert ScenarioConfig(zones=12, nodes=600).validate() == []

    def test_zone_count_restricted(self):
        errs = ScenarioConfig(zones=5).validate()
        assert any("zones" in e for e in errs)

    def test_per_zone_cap(self):
        errs = ScenarioConfig(zones=3, nodes=500).validate()
        assert any("per zone" in e for e in errs)

    def test_per_zone_floor(self):
        errs = ScenarioConfig(zones=12, nodes=24).validate()
        assert any("per zone" in e for e in errs)

    def test_arena_bound(self):
        errs = ScenarioConfig(arena_width=500.0).validate()
        assert any("arena" in e for e in errs)

    def test_negative_route_margin_rejected(self):
        errs = ScenarioConfig(route_margin=-1.0).validate()
        assert any("route_margin" in e for e in errs)

    def test_too_few_mobile_nodes_rejected_before_build(self, monkeypatch):
        # 3 zones x 2 peripherals leave 2 mobile nodes of 8, and 1 of 7
        assert ScenarioConfig(zones=3, nodes=8, override=True).validate() == []
        cfg = ScenarioConfig(zones=3, nodes=7, override=True)
        errs = cfg.validate()
        assert errs == ["nodes=7 leaves fewer than 2 mobile nodes after 6 peripherals"]
        monkeypatch.setattr(Simulator, "_build_world", lambda self: pytest.fail("world built"))
        with pytest.raises(ConfigError) as err:
            Simulator(cfg)
        assert err.value.violations == errs

    def test_override_waives_published_ranges_only(self):
        cfg = ScenarioConfig(arena_width=100.0, arena_height=80.0, override=True)
        assert cfg.validate() == []
        bad = ScenarioConfig(arena_width=100.0, zones=5, override=True)
        assert any("zones" in e for e in bad.validate())

    @pytest.mark.parametrize("overrides, message", [
        ({"zones": 5}, "zones must be one of [3, 6, 9, 12], got 5"),
        ({"mobility": "teleport"},
         "mobility must be one of ['random-waypoint', 'random-walk', 'gaussian'],"
         " got 'teleport'"),
        ({"policy": "greedy"},
         "policy must be one of ['rl-trc', 'fixed-max', 'odtpc-like', 'beacon-rssi-like',"
         " 'beacon-prr-like'], got 'greedy'"),
        ({"duration": -1.0}, "duration must be >= 0, got -1"),
        # no node count below 1 leaves 2 mobile nodes, so both messages show
        ({"nodes": 0}, ["nodes must be >= 1, got 0",
                        "nodes=0 leaves fewer than 2 mobile nodes after 6 peripherals"]),
        ({"sessions": -1}, "sessions must be >= 0, got -1"),
        ({"level_count_min": 11}, "level counts must satisfy 0 < min <= max"),
        ({"level_value_min": 30.0}, "level values must satisfy 0 < min < max"),
        ({"radio_range_min": 45.0}, "radio ranges must satisfy 0 < min <= max"),
        ({"nodes": 7, "override": True},
         "nodes=7 leaves fewer than 2 mobile nodes after 6 peripherals"),
        ({"route_margin": -1.0}, "route_margin must be >= 0, got -1"),
        ({"energy_min": 60.0}, "energies must satisfy 0 < min <= max"),
        ({"inter_arrival_min": 0.3}, "inter-arrival bounds must satisfy 0 < min <= max"),
        ({"vmax_min": 5.0}, "vmax bounds must satisfy 0 <= min <= max"),
        ({"vs": 0.0}, "tau_a, vs and mobility_dt must be positive"),
        ({"alpha_min": 0.0}, "alpha range must satisfy 0 < min <= max"),
        ({"nodes": 500}, "nodes per zone must lie in [5, 150], got 167 (500 nodes / 3 zones)"),
        ({"arena_width": 500.0}, "arena must be 2000x2000 m, got 500x2000"),
        ({"radio_range_max": 50.0}, "radio range must lie in [10, 40] m, got [10, 50]"),
        ({"energy_max": 60.0}, "initial energy must lie in [20, 50] J, got [20, 60]"),
        ({"level_count_max": 30}, "power level count must lie in [1, 25], got [5, 30]"),
        ({"inter_arrival_max": 0.3},
         "inter-arrival bounds must lie in [0.05, 0.2] s, got [0.05, 0.3]"),
        ({"mx_atmpt": 5}, "mx_atmpt must be 3 or 4, got 5"),
    ])
    def test_each_violation_message(self, overrides, message):
        expected = message if isinstance(message, list) else [message]
        assert ScenarioConfig(**overrides).validate() == expected

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
        ({"duration": math.inf}, "duration must be finite, got inf"),
        ({"duration": math.nan}, "duration must be finite, got nan"),
        ({"session_start_max": -1.0}, "session_start_max must be finite and >= 0, got -1"),
        ({"proc_delay": -0.001}, "proc_delay must be finite and >= 0, got -0.001"),
        ({"proc_delay": math.nan}, "proc_delay must be finite and >= 0, got nan"),
        ({"t_hop": -0.001}, "t_hop must be finite and >= 0, got -0.001"),
        ({"bitrate": 0.0}, "bitrate must be finite and positive, got 0"),
        ({"payload_bytes": math.inf}, "payload_bytes must be finite and positive, got inf"),
    ])
    def test_timer_that_cannot_run_is_rejected(self, overrides, message):
        # each config passes the older checks, then hangs, raises or
        # schedules events in the past when run; only validate runs here
        assert ScenarioConfig(**overrides).validate() == [message]

    @pytest.mark.parametrize("overrides, message", [
        ({"rx_cost_fraction": -0.5}, "rx_cost_fraction must be finite and positive, got -0.5"),
        ({"rx_cost_fraction": 0.0}, "rx_cost_fraction must be finite and positive, got 0"),
        ({"rx_cost_fraction": math.nan}, "rx_cost_fraction must be finite and positive, got nan"),
        ({"rx_cost_fraction": math.inf}, "rx_cost_fraction must be finite and positive, got inf"),
        ({"min_rcv": math.nan}, "min_rcv must be a number below inf, got nan"),
        ({"min_rcv": math.inf}, "min_rcv must be a number below inf, got inf"),
        ({"prior_sig_atn": math.nan}, "prior_sig_atn must be a number below inf, got nan"),
        ({"prior_sig_atn": math.inf}, "prior_sig_atn must be a number below inf, got inf"),
    ])
    def test_config_that_delivers_nothing_is_rejected(self, overrides, message):
        # each config passes the older checks, then runs with no packet
        # received or none sent at all; only validate runs here
        assert ScenarioConfig(**overrides).validate() == [message]

    def test_all_violations_reported(self):
        errs = ScenarioConfig(
            zones=5, mobility="teleport", duration=-1.0, radio_range_min=0.0
        ).validate()
        assert len(errs) >= 4


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

    def test_airtime_property(self):
        cfg = ScenarioConfig(payload_bytes=50.0, bitrate=250000.0)
        assert cfg.airtime == pytest.approx(50 * 8 / 250000.0)

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import bless_golden
from bless_golden import GOLDEN_DIR, GOLDEN_TRACES, golden_path, stray_goldens, trace

from rltrc.cli import main
from rltrc.config import ScenarioConfig
from rltrc.scenarios import SCENARIOS, names, scenario


class TestScenarioSuite:
    def test_every_entry_builds_a_valid_config(self):
        for name in names():
            cfg = scenario(name)
            assert isinstance(cfg, ScenarioConfig)
            assert cfg.name == name

    def test_overrides_apply(self):
        cfg = scenario("desk-compare", seed=42, policy="fixed-max")
        assert cfg.seed == 42
        assert cfg.policy == "fixed-max"
        assert SCENARIOS["desk-compare"]["seed"] == 1

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError) as err:
            scenario("desk-missing")
        assert "desk-compare" in err.value.args[0]

    def test_timing_constants_leave_motion_slack(self):
        # retry idle must stay under the idle window that declares links dead
        for name in names():
            cfg = scenario(name)
            idle_window = 2.0 * cfg.radio_range_min / cfg.vs
            assert cfg.inter_arrival_max + cfg.tau_a < idle_window
            if cfg.vmax_max > 0.0:
                # a freshly installed hop must sit inside the usable envelope
                install = cfg.radio_range_max - cfg.route_margin
                assert install <= cfg.vs * cfg.tau_a


class TestGoldenTraces:
    @pytest.mark.parametrize("golden", sorted(GOLDEN_TRACES))
    def test_digest_matches_blessed_file(self, golden):
        # besides the canned scenarios, desk-compare under the policies,
        # mobility models and noise no canned scenario runs; beacon-prr-like
        # is the only policy with beacons
        name, overrides = GOLDEN_TRACES[golden]
        want = json.loads(golden_path(golden).read_text(encoding="utf-8"))
        got, problems = trace(name, seed=want["seed"], **overrides)
        assert got == want, (
            "behavior changed for %s; rerun tests/bless_golden.py only if intended"
            % golden
        )
        assert problems == []

    def test_every_golden_file_has_a_trace(self):
        assert stray_goldens() == []

    def test_check_fails_on_a_stray_golden(self, tmp_path, monkeypatch, capsys):
        """`--check` reports a golden file that no trace produces, and
        exits 1 on it though every produced golden matches."""
        golden = "lossless-pair"
        name = golden_path(golden).name
        (tmp_path / name).write_bytes((GOLDEN_DIR / name).read_bytes())
        monkeypatch.setattr(bless_golden, "GOLDEN_DIR", tmp_path)
        monkeypatch.setattr(bless_golden, "GOLDEN_TRACES", {golden: GOLDEN_TRACES[golden]})
        assert bless_golden.main(["--check"]) == 0
        (tmp_path / "lossless-pair-renamed-seed1.json").write_text("{}\n", encoding="utf-8")
        assert bless_golden.main(["--check"]) == 1
        out = capsys.readouterr().out
        assert "ok %s" % name in out
        assert "STRAY lossless-pair-renamed-seed1.json" in out
        assert "0 of 1 goldens mismatch" in out

    def test_check_names_the_keys_that_moved(self, tmp_path, monkeypatch, capsys):
        """A mismatch line names each key whose value moved, with its blessed
        and its new value, or says that no file was blessed."""
        golden = "lossless-pair"
        name = golden_path(golden).name
        blessed = json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))
        omc = blessed["omc"]
        blessed["omc"] = omc + 1
        (tmp_path / name).write_text(json.dumps(blessed, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
        monkeypatch.setattr(bless_golden, "GOLDEN_DIR", tmp_path)
        monkeypatch.setattr(bless_golden, "GOLDEN_TRACES", {golden: GOLDEN_TRACES[golden]})
        assert bless_golden.main(["--check"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH %s: omc %d -> %d\n" % (name, omc + 1, omc) in out
        (tmp_path / name).unlink()
        assert bless_golden.main(["--check"]) == 1
        assert "MISMATCH %s: no blessed file\n" % name in capsys.readouterr().out


class TestCli:
    def test_list_names_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in names():
            assert name in out

    def test_run_scenario_prints_summary(self, capsys):
        assert main(["run", "--scenario", "lossless-pair"]) == 0
        out = capsys.readouterr().out
        assert "seed 1" in out and "ntg 100.00" in out

    def test_run_writes_per_run_and_merged_csv(self, tmp_path, capsys):
        code = main(
            ["run", "--scenario", "lossless-pair", "--repeat", "2",
             "--out", str(tmp_path)]
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [
            "lossless-pair-seed1-series.csv",
            "lossless-pair-seed1-summary.csv",
            "lossless-pair-seed2-series.csv",
            "lossless-pair-seed2-summary.csv",
            "lossless-pair-summary.csv",
        ]
        merged = (tmp_path / "lossless-pair-summary.csv").read_text(encoding="utf-8")
        lines = merged.splitlines()
        assert lines[0] == "seed,policy,omc,ec,ntg,adl,paln,awe,awt"
        assert len(lines) == 3
        assert lines[1].startswith("1,rl-trc,")

    def test_run_is_byte_stable(self, tmp_path):
        for sub in ("a", "b"):
            main(["run", "--scenario", "lossless-pair", "--out", str(tmp_path / sub)])
        a = (tmp_path / "a" / "lossless-pair-seed1-summary.csv").read_bytes()
        b = (tmp_path / "b" / "lossless-pair-seed1-summary.csv").read_bytes()
        assert a == b

    def test_config_file_run(self, tmp_path, capsys):
        cfg = tmp_path / "pair.cfg"
        lines = ["%s = %s" % (k, v) for k, v in SCENARIOS["lossless-pair"].items()]
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--seed", "2"]) == 0
        assert "seed 2" in capsys.readouterr().out
        assert main(["run", "--config", str(cfg), "--policy", "fixed-max"]) == 0
        assert "policy fixed-max" in capsys.readouterr().out

    def test_config_file_with_a_byte_order_mark_runs(self, tmp_path, capsys):
        """A leading UTF-8 byte-order mark, as some editors write, was read
        into the first key: "unknown key '\\ufeffname'"."""
        text = "".join("%s = %s\n" % kv for kv in SCENARIOS["lossless-pair"].items())
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert main(["run", "--config", str(plain)]) == 0
        want = capsys.readouterr()
        assert main(["run", "--config", str(marked)]) == 0
        assert capsys.readouterr() == want and "ntg 100.00" in want.out

    def test_policy_override(self, capsys):
        assert main(["run", "--scenario", "desk-conserve", "--policy", "fixed-max"]) == 0
        assert "policy fixed-max" in capsys.readouterr().out

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("zones = 5\n", encoding="utf-8")
        assert main(["run", "--config", str(bad)]) == 1
        assert "zones" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        # validate used to pass these: the first run divided by zero, and
        # the second received every signal at full power at any distance
        ("arena_width = nan\noverride = true\n",
         "arena_width must be finite and positive, got nan"),
        ("noise_spread = inf\n", "noise_spread must be finite and >= 0, got inf"),
        # nodes / zones used to overflow a float and raise OverflowError
        ("nodes = 1" + "0" * 400 + "\n", "nodes per zone must lie in [5, 150], got 3333"),
        # a count over its hard cap, which override=true does not waive
        ("sessions = 10001\noverride = true\n", "sessions must be <= 10000, got 10001"),
        # the world build used to raise on two equal levels
        ("override = true\nlevel_value_min = 1\nlevel_value_max = 1.0000000000000004\n",
         "level values [1.0, 1.0000000000000004] cannot space 5 power levels strictly apart"),
    ], ids=["arena_width", "noise_spread", "nodes", "sessions", "levels"])
    def test_nan_arena_width_exits_one(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(bad)]) == 1
        assert message in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "latin.cfg"
        bad.write_bytes(b"nodes = 5\xff0\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "config error: %s is not UTF-8 text: byte 0xff at offset 9\n" % bad)

    def test_unknown_policy_exits_one_before_the_output_directory(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["run", "--scenario", "lossless-pair", "--policy", "greedy",
                     "--out", str(out)]) == 1
        assert "config error: policy must be one of" in capsys.readouterr().err
        assert not out.exists()

    def test_name_that_climbs_out_of_the_output_directory_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "named.cfg"
        bad.write_text("name = ../escaped\n", encoding="utf-8")
        out = tmp_path / "named"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
        assert "config error: name must be a plain file name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["named.cfg"]

    def test_unknown_scenario_exits_one(self, capsys):
        assert main(["run", "--scenario", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_config_and_scenario_together_rejected(self, capsys):
        assert main(["run", "--config", "x", "--scenario", "y"]) == 1

    def test_neither_config_nor_scenario_rejected(self, capsys):
        assert main(["run"]) == 1

    def test_bad_repeat_rejected(self, capsys):
        assert main(["run", "--scenario", "lossless-pair", "--repeat", "0"]) == 1

    def test_unreadable_config_is_runtime_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2

    @pytest.mark.parametrize("argv", [["run", "--seed", "abc"], ["bogus"]])
    def test_usage_errors_exit_one(self, argv, capsys):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 1
        assert "usage: rltrc" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        assert "usage: rltrc" in capsys.readouterr().out


def test_summary_digest_helper_is_stable():
    a, _ = trace("lossless-pair", seed=1)
    b, _ = trace("lossless-pair", seed=1)
    assert a == b
    assert hashlib.sha256(b"x").hexdigest() != a["summary_sha256"]

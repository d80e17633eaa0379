"""Batch command line front end.

`rltrc run` executes one scenario (from a config file or the canned suite)
for one or more seeds, prints a summary line per run, and optionally writes
per-run summary and windowed-series CSV files plus one merged summary.

Exit codes: 0 success, 1 invalid configuration or arguments, 2 filesystem
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import NoReturn

from .config import ConfigError, load_config
from .engine import Simulator
from .metrics import SUMMARY_COLUMNS, MetricsReport, emit_csv, render_csv
from .scenarios import names, scenario


def _summary_line(seed: int, rep: MetricsReport) -> str:
    ntg = "%.2f" % rep.ntg if rep.ntg is not None else "n/a"
    return (
        "seed %d policy %s: omc %d ec %.3f ntg %s adl %.4f paln %.1f awe %.2f awt %.2f"
        % (seed, rep.policy, rep.omc, rep.ec, ntg, rep.adl, rep.paln, rep.awe, rep.awt)
    )


def _aggregate_csv(rows: list[tuple[int, MetricsReport]]) -> str:
    lines = ["seed," + SUMMARY_COLUMNS]
    for seed, rep in rows:
        body = render_csv(rep).splitlines()[2]
        lines.append("%d,%s" % (seed, body))
    return "\n".join(lines) + "\n"


def _cmd_run(args: argparse.Namespace) -> int:
    if bool(args.config) == bool(args.scenario):
        print("run: exactly one of --config or --scenario is required", file=sys.stderr)
        return 1
    cfg = load_config(args.config) if args.config else scenario(args.scenario)
    if args.policy is not None:
        cfg = dataclasses.replace(cfg, policy=args.policy)
    base_seed = cfg.seed if args.seed is None else args.seed
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    runs: list[tuple[int, MetricsReport]] = []
    for k in range(args.repeat):
        seed = base_seed + k
        rep = Simulator(cfg, seed=seed).run()
        runs.append((seed, rep))
        print(_summary_line(seed, rep))
        if args.out:
            stem = os.path.join(args.out, "%s-seed%d" % (cfg.name, seed))
            emit_csv(rep, stem + "-summary.csv")
            emit_csv(rep.series, stem + "-series.csv")
    if args.out:
        path = os.path.join(args.out, "%s-summary.csv" % cfg.name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_aggregate_csv(runs))
        print("wrote %d run(s) under %s" % (len(runs), args.out))
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for nm in names():
        cfg = scenario(nm)
        print(
            "%-14s %3d nodes, %d zones, %gx%g m, %gs, policy %s"
            % (nm, cfg.nodes, cfg.zones, cfg.arena_width, cfg.arena_height,
               cfg.duration, cfg.policy)
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, not argparse's 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rltrc")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario for one or more seeds")
    run.add_argument("--config", help="path to a key = value scenario file")
    run.add_argument("--scenario", help="canned scenario name (see `rltrc list`)")
    run.add_argument("--seed", type=int, default=None, help="base seed (default: from config)")
    run.add_argument("--out", help="directory for per-run and merged CSV files")
    run.add_argument("--policy", help="override the configured power policy")
    run.add_argument("--repeat", type=int, default=1, help="run seeds seed..seed+K-1")
    run.set_defaults(func=_cmd_run)
    lst = sub.add_parser("list", help="list canned scenarios")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "repeat", 1) < 1:
        print("run: --repeat must be >= 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        for violation in exc.violations:
            print("config error: %s" % violation, file=sys.stderr)
        return 1
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 1
    except OSError as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""List the function-body lines of `src/rltrc` that no run reaches.

    python tests/reach.py

Runs the 16 golden traces, the 90 fuzzed configs the engine tests run
(`fuzz.random_configs(11, 60)` and `fuzz.wide_random_configs(12, 30)`) and
every canned scenario at seeds 2 and 3, under a `sys.settrace` line hook.
It then prints, one per line and in file order, each statement inside a
function of `src/rltrc` that none of these runs executed, as
`module.py:line function: source`, and a closing count. A line listed
here is one that only a test that calls the code directly, or no test at
all, covers: a candidate for a precondition or for deletion.

Each run also renders its summary and series and checks the run
invariants, as the golden and fuzz tests do; each problem found is printed
with the config of its run. The script needs only the standard library and
measures the `rltrc` beside it, whatever else is installed. It takes about
20 s on one core. It exits 1 when some run breaks an invariant, and 0
otherwise: the unreached list is a report, not a gate.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "rltrc"
SEEDS = (2, 3)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def body_lines(path: Path) -> dict[int, str]:
    """First line of each statement inside a function of `path`, docstrings
    left out, mapped to the qualified name of the innermost function."""
    lines: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            docstring = (isinstance(node, DEFS) and child is node.body[0]
                         and isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                         and isinstance(child.value.value, str))
            if owner is not None and isinstance(child, ast.stmt) and not docstring:
                lines.setdefault(child.lineno, owner)
            if isinstance(child, DEFS):
                name = prefix + child.name
                visit(child, name + ".", owner if isinstance(child, ast.ClassDef) else name)
            else:
                visit(child, prefix, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return lines


def main() -> int:
    # the package measured is the one beside this script
    sys.path[:0] = [str(SRC.parent), str(HERE)]
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    reached: set[tuple[str, int]] = set()
    add = reached.add

    def local(frame, event, _arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, _event, _arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(calls)
    try:
        # imported under the hook, so code that runs at import counts too
        from bless_golden import GOLDEN_TRACES
        from fuzz import FUZZ_DRAWS, WIDE_FUZZ_DRAWS, random_configs, wide_random_configs

        from rltrc.engine import Simulator
        from rltrc.metrics import invariant_problems, render_csv
        from rltrc.scenarios import names, scenario

        configs = [scenario(name, seed=1, **overrides)
                   for name, overrides in GOLDEN_TRACES.values()]
        configs += random_configs(11, FUZZ_DRAWS) + wide_random_configs(12, WIDE_FUZZ_DRAWS)
        configs += [scenario(name, seed=seed) for name in names() for seed in SEEDS]
        broken = 0
        for cfg in configs:
            sim = Simulator(cfg)
            report = sim.run()
            render_csv(report)
            render_csv(report.series)
            problems = invariant_problems(sim.ledger, report)
            for problem in problems:
                print("invariant broken: %s\n  in %r" % (problem, cfg))
            broken += bool(problems)
    finally:
        sys.settrace(None)
    missed = 0
    for filename, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line, func in sorted(body_lines(path).items()):
            if (filename, line) not in reached:
                missed += 1
                print("%s:%d %s: %s" % (path.name, line, func, source[line - 1].strip()))
    print("%d runs; %d function-body lines of src/rltrc unreached" % (len(configs), missed))
    if broken:
        print("%d runs broke an invariant" % broken)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())

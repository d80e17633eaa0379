"""Every function, method and property in `src/rltrc` has a caller there.

A helper that only tests call belongs in `tests/oracles.py`, not in the
package. The check parses the package with `ast` and looks for a use of
each defined name (a `name` or an `obj.name` that is read) anywhere in
`src/rltrc` outside the definition's own body. Names are matched as
spelled, not resolved: a method counts as used when any attribute of that
name is read, and dunder methods, which the language calls, are skipped.
The public API, which only users and tests call, is listed in PUBLIC.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rltrc"

# module.qualified name -> why nothing in src/rltrc has to call it
PUBLIC = {
    "cli.main": "the `rltrc` console script",
    "cli._Parser.error": "argparse calls it on a usage error",
    "scenarios.scenario": "canned configs for users and tests",
    "scenarios.names": "lists the canned scenarios",
    "metrics.invariant_problems": "the run-invariant check a caller runs on a finished run",
    "metrics.MetricsLedger.debit_count": "the ledger's read API",
}


def definitions(tree: ast.Module):
    """(qualified name, def node) for every function, method and property."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def unreferenced(sources: dict[str, str]) -> list[str]:
    """`module.qualname` of each non-dunder definition in `sources` (module
    name -> source text) whose name is read nowhere outside its own body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((module, node.lineno))
    unused = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(where != module or not first <= line <= node.end_lineno
                       for where, line in reads.get(name, ())):
                unused.append("%s.%s" % (module, qualname))
    return unused


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_every_definition_in_src_has_a_caller_in_src():
    unused = [name for name in unreferenced(package_sources()) if name not in PUBLIC]
    assert unused == [], "only tests call these; move them to tests/oracles.py: %s" % unused


def test_public_list_names_existing_definitions():
    defined = {"%s.%s" % (module, qualname)
               for module, text in package_sources().items()
               for qualname, _ in definitions(ast.parse(text))}
    assert set(PUBLIC) <= defined, sorted(set(PUBLIC) - defined)


def test_checker_flags_a_definition_only_its_own_body_uses():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b": "from .a import used\n\n\nclass C:\n    @property\n    def size(self):\n"
             "        return used()\n\n    def grow(self):\n        return self.size\n\n"
             "    def __len__(self):\n        return 0\n",
    }
    assert unreferenced(sources) == ["a.recursive", "b.C.grow"]

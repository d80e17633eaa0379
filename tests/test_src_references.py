"""Every function, method, property, annotated class field, module-level
constant and module-level class in `src/rltrc` has a reader there.

A helper that only tests call belongs in `tests/oracles.py`, not in the
package. The check parses the package with `ast` and looks for a use of
each defined name (a `name` or an `obj.name` that is read) anywhere in
`src/rltrc` outside the definition's own body; an import is not a read.
Names are matched as spelled, not resolved: a method or a field counts as
used when any attribute of that name is read, and dunder names, which the
language reads, are skipped. A field that is only written, or only passed
to a constructor, has no reader. The public API, which only users and tests call, is
listed in PUBLIC.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rltrc"

# module.qualified name -> why nothing in src/rltrc has to call it; an
# entry that src/rltrc does read fails test_every_public_entry_is_unread_in_src
PUBLIC = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "metrics.invariant_problems": "the run-invariant check a caller runs on a finished run",
}


def definitions(tree: ast.Module):
    """(qualified name, name, first line, last line) for every function,
    method and property, every annotated field of a class body, and every
    class and assigned name at module level; the lines span the definition
    with its decorators."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if not isinstance(child, ast.ClassDef) or node is tree:
                    found.append((prefix + child.name, child.name, first, child.end_lineno))
                visit(child, prefix + child.name + ".")
            elif (isinstance(node, ast.ClassDef) and isinstance(child, ast.AnnAssign)
                    and isinstance(child.target, ast.Name)):
                name = child.target.id
                found.append((prefix + name, name, child.lineno, child.end_lineno))
            elif node is tree and isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                            found.append((name.id, name.id, child.lineno, child.end_lineno))
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
        for qualname, name, first, last in definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(where != module or not first <= line <= last
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
               for qualname, *_ in definitions(ast.parse(text))}
    assert set(PUBLIC) <= defined, sorted(set(PUBLIC) - defined)


def test_every_public_entry_is_unread_in_src():
    read = set(PUBLIC) - set(unreferenced(package_sources()))
    assert read == set(), "src/rltrc reads these, so PUBLIC need not list them: %s" % sorted(read)


def test_checker_flags_a_definition_only_its_own_body_uses():
    sources = {
        "a": "LIMIT = 3\nUNUSED = 4\n\n\ndef used():\n    return LIMIT\n\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n",
        "b": "from .a import UNUSED, used\n\n\nclass C:\n    width: int = 1\n    depth: int = 0\n\n"
             "    @property\n    def size(self):\n        return used()\n\n"
             "    def grow(self):\n        return self.size + self.width\n\n"
             "    def __len__(self):\n        return 0\n\n\nclass D:\n    def make(self):\n"
             "        return D()\n\n\nTABLE = {k: C for k in (1, 2)}\n",
    }
    assert unreferenced(sources) == ["a.UNUSED", "a.recursive", "b.C.depth", "b.C.grow", "b.D",
                                     "b.D.make", "b.TABLE"]

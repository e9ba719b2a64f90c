"""Fail when a public module-level function or class of src/curlowrank has no use.

A use is a reference in code outside the object's own definition: a name, an
imported name, or an attribute whose chain starts at an imported module
(``curlowrank.linalg.frobenius_norm``, but not ``f.frobenius_norm()`` on an
object), as the parser finds it in src/curlowrank (the re-exports of
``__init__.py`` aside), in tests/test_acceptance.py or in perfbench/.  A
docstring, a comment or a string does not count.  The tier-1
workflow is not Python, so there a whole-word mention counts.  A name that only
unit tests call is not a use: such an object is deleted, and its tests move
onto the code that stays.  Run from the repository root:

    python .github/scripts/check_public_callers.py
"""

import ast
import pathlib
import re
import sys

# Diagnostics whose fate waits for the trace sidecar (ROADMAP item 4): each gets a
# caller there or is deleted.  A name listed here that gains a use must leave the list.
AWAITING_A_CALLER = {
    "deim_noise_certificate",
    "epsilon_ceiling",
    "leverage_dominance_ratio",
    "noisy_stability_floor",
    "uniform_stability_floor",
}

root = pathlib.Path(__file__).resolve().parents[2]
package = sorted(p for p in (root / "src/curlowrank").glob("*.py") if p.name != "__init__.py")
others = [root / "tests/test_acceptance.py", *sorted((root / "perfbench").rglob("*.py"))]
workflow = (root / ".github/workflows/tier1.yml").read_text()
trees = {p: ast.parse(p.read_text()) for p in package + others}


def modules(tree):
    """The names that ``tree`` binds to modules: ``import x``, ``from . import x`` and
    ``from curlowrank import x`` for a module ``x`` of the package."""
    stems = {p.stem for p in package}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.Import) or not node.module or alias.name in stems:
                    yield alias.asname or alias.name.split(".")[0]


def root(node):
    """The innermost value of the attribute chain ``node``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def references(tree):
    """``(name, line)`` of each name, imported name and attribute of a module in ``tree``."""
    imported = set(modules(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and getattr(root(node), "id", None) in imported:
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


uses = {p: list(references(tree)) for p, tree in trees.items()}
unused = set()
for path in package:
    for node in trees[path].body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        own = range(node.lineno, node.end_lineno + 1)
        in_code = any(name == node.name and not (p == path and line in own)
                      for p, refs in uses.items() for name, line in refs)
        if not in_code and not re.search(rf"\b{node.name}\b", workflow):
            unused.add(node.name)

for name in sorted(unused - AWAITING_A_CALLER):
    print(f"{name}: public, but nothing outside the unit tests uses it", file=sys.stderr)
for name in sorted(AWAITING_A_CALLER - unused):
    print(f"{name}: has a use now (or is gone); drop it from AWAITING_A_CALLER", file=sys.stderr)
sys.exit(1 if unused ^ AWAITING_A_CALLER else 0)

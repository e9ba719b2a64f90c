"""Fail when a public module-level function or class of src/curlowrank has no use.

A use is a whole-word mention of the name outside its own definition, in
src/curlowrank (the re-exports of ``__init__.py`` aside), in
tests/test_acceptance.py, in perfbench/ or in the tier-1 workflow.  A name
that only unit tests call is not a use: such an object is deleted, and its
tests move onto the code that stays.  Run from the repository root:

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
    "uniform_stability_floor",
}

root = pathlib.Path(__file__).resolve().parents[2]
package = sorted(p for p in (root / "src/curlowrank").glob("*.py") if p.name != "__init__.py")
others = [root / "tests/test_acceptance.py", root / ".github/workflows/tier1.yml",
          *sorted((root / "perfbench").rglob("*.py"))]
texts = {p: p.read_text().splitlines() for p in package + others}

unused = set()
for path in package:
    for node in ast.parse("\n".join(texts[path])).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        word = re.compile(rf"\b{node.name}\b")
        own = range(node.lineno - 1, node.end_lineno)
        if not any(word.search(line) for p, lines in texts.items()
                   for i, line in enumerate(lines) if not (p == path and i in own)):
            unused.add(node.name)

for name in sorted(unused - AWAITING_A_CALLER):
    print(f"{name}: public, but nothing outside the unit tests uses it", file=sys.stderr)
for name in sorted(AWAITING_A_CALLER - unused):
    print(f"{name}: has a use now (or is gone); drop it from AWAITING_A_CALLER", file=sys.stderr)
sys.exit(1 if unused ^ AWAITING_A_CALLER else 0)

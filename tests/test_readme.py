"""Every name README.md cites in code spans resolves in the package.

A dotted ``module.name`` span, with ``module`` the package or one of its
modules, must name an attribute of that module; a call span ``name(`` and a
bare CamelCase span (a class, ``SvdFactors``) must name an attribute of the
package or of one of its modules.  Fenced blocks
are shell commands and config files, not references, and are skipped.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import curlowrank

MODULES = {"curlowrank": curlowrank, **{
    info.name: importlib.import_module(f"curlowrank.{info.name}")
    for info in pkgutil.iter_modules(curlowrank.__path__)}}
# math written as a call: O(k log k), max(m,n)·eps·σ₁, rank(U) = rank(A)
MATH = {"O", "max", "rank"}

_text = re.sub(r"```.*?```", "", (Path(__file__).parents[1] / "README.md").read_text(), flags=re.S)
SPANS = re.findall(r"`([^`\n]+)`", _text)
DOTTED = sorted({m.group(0) for s in SPANS
                 if (m := re.match(r"(\w+)\.(\w+)", s)) and m.group(1) in MODULES})
CALLS = sorted({m.group(1) for s in SPANS if (m := re.match(r"([A-Za-z_]\w*)\(", s))} - MATH)
CLASSES = sorted({s for s in SPANS if re.fullmatch(r"[A-Z][a-z0-9]+[A-Z]\w*", s)})


def test_the_readme_cites_names():
    assert len(DOTTED) >= 15 and len(CALLS) >= 10 and len(CLASSES) >= 5


@pytest.mark.parametrize("ref", DOTTED)
def test_dotted_reference_resolves(ref):
    module, name = ref.split(".")
    assert hasattr(MODULES[module], name)


@pytest.mark.parametrize("name", CALLS + CLASSES)
def test_called_or_class_name_resolves(name):
    assert any(hasattr(module, name) for module in MODULES.values())

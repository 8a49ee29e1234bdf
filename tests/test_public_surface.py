"""Every public name has a caller outside the tests.

A name in ``deutschpaths.__all__`` counts as used when code in ``src/``
other than the package root reads it (a name, an attribute, an imported
name, or a string that is exactly the name, as the CLI's lazy tables hold),
when a demo, a script or the benchmark reads it, or when the README or the
CLI guide names it in code markup.  The package root only lists the names,
so it is not read.  A public name that only tests use is a candidate for
deletion; one kept for another reason goes in ALLOWED with that reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import deutschpaths

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deutschpaths"

#: Public names kept without a caller outside the tests, and why.
ALLOWED = {
    "ReversedDeutschPath": "built through paths._CLASSES, which maps each family to its class",
    "reverse_path": "defines the reversed family: the image of a Deutsch path under reversal",
    "coeff_reversed_formal": "the acceptance criterion on the formal reversed series reads it",
}


def _code_names(path: Path) -> set[str]:
    """Every identifier a Python file reads, imports or names in a plain string."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _used_names() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "scripts", "perfbench"):
        sources += (ROOT / folder).glob("*.py")
    names = set().union(*map(_code_names, sources))
    for doc in (ROOT / "README.md", *(ROOT / "docs").glob("*.md")):
        for span in re.findall(r"`([^`\n]+)`", doc.read_text()):
            names.update(re.findall(r"\w+", span))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    public = set(deutschpaths.__all__)
    assert set(ALLOWED) <= public
    unused = public - _used_names() - set(ALLOWED)
    assert not unused, f"public names no code outside tests/ uses: {sorted(unused)}"


def test_every_allowed_name_is_still_unused():
    # an entry whose name gained a caller is stale: the guard checks it again
    assert not set(ALLOWED) & _used_names()

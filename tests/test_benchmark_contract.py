"""What perfbench/ relies on in the package, checked without running the benchmark.

The benchmark imports names from the package, its worker looks up the
verification calls by name, and the tracer wraps the functions named in its
TRACED table and derives the ``paths.count_dp.dp_cells`` metric from its own
copy of the DP strip width.  A removed name or a changed height cap would
crash the benchmark, or make that metric silently wrong, while every other
test still passes.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from deutschpaths import algebra, bijection, formulas, matrices, selftest
from deutschpaths.algebra import KERNEL, Poly, RatFn
from deutschpaths.paths import FAMILIES, PathFamilyQuery, QueryError, _height_cap

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _load(name: str):
    """A perfbench module that imports nothing from perfbench itself."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def _package_imports():
    """(file, module, name) for every name a perfbench file imports from the package."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("deutschpaths"):
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    module, _, name = alias.name.rpartition(".")
                    if alias.name.split(".")[0] == "deutschpaths" and module:
                        yield path.name, module, name


def test_every_name_the_benchmark_imports_resolves():
    found = list(_package_imports())
    assert {"checks.py", "test_perfbench.py", "worker.py"} <= {f for f, _, _ in found}
    for file, module, name in found:
        package = importlib.import_module(module)
        if not hasattr(package, name):  # a submodule not yet imported as an attribute
            importlib.import_module(f"{module}.{name}")
        assert hasattr(package, name), f"{file}: from {module} import {name}"


def test_every_verify_call_resolves():
    # worker._verify_call: phi_sums and psi_sums come from checks, oracle_check from
    # formulas, and any other call from the first of matrices, bijection, selftest
    # that has it
    checks = _load("checks")
    for call, _ in _load("streams").VERIFY_CALLS:
        if call in ("phi_sums", "psi_sums"):
            target = getattr(checks, call, None)
        elif call == "oracle_check":
            target = formulas.oracle_check
        else:
            owner = next((m for m in (matrices, bijection, selftest) if hasattr(m, call)), None)
            target = getattr(owner, call, None)
        assert callable(target), call


def test_every_traced_name_resolves(spans):
    for mod_name, names in spans.TRACED.items():
        module = importlib.import_module(f"deutschpaths.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"deutschpaths.{mod_name}.{name}"


@pytest.mark.parametrize("family", FAMILIES)
def test_strip_width_is_the_height_cap_plus_one(spans, family):
    checked = 0
    for n in range(13):
        for end in (None, 0, 1, 3, 7):
            for h in (None, 0, 1, 2, 5, 20):
                try:
                    q = PathFamilyQuery(family, n, end_level=end, max_height=h)
                    cap = _height_cap(q)
                except QueryError:  # not a query, or an infinite family
                    continue
                assert spans._strip_width(q) == cap + 1, q
                checked += 1
    assert checked > 100


def test_ratfn_products_count_in_the_traced_gcd(monkeypatch):
    # the tracer wraps algebra.poly_gcd; the operators must reach the gcd
    # through that attribute, or algebra.poly_gcd.calls would undercount
    f, g = RatFn(Poly((1, 1)), KERNEL), RatFn(KERNEL, Poly((1, 2, 1)))
    want = RatFn(Poly((1,)), Poly((1, 1)))
    calls = []
    gcd = algebra.poly_gcd
    monkeypatch.setattr(
        algebra, "poly_gcd", lambda a, b, **kw: calls.append((a, b)) or gcd(a, b, **kw)
    )
    assert f * g == want
    assert len(calls) == 2  # gcd(num f, den g) and gcd(num g, den f)

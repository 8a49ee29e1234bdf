"""What perfbench/spans.py relies on in the package, checked without running the benchmark.

The tracer wraps the functions named in its TRACED table and derives the
``paths.count_dp.dp_cells`` metric from its own copy of the DP strip width.
A rename or a changed height cap would break the traced run, or make that
metric silently wrong, while every other test still passes.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from deutschpaths import algebra
from deutschpaths.algebra import KERNEL, Poly, RatFn
from deutschpaths.paths import FAMILIES, PathFamilyQuery, QueryError, _height_cap

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    monkeypatch.setattr(algebra, "poly_gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))
    assert f * g == want
    assert len(calls) == 2  # gcd(num f, den g) and gcd(num g, den f)

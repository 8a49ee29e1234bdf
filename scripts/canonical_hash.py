#!/usr/bin/env python3
"""Print one SHA-256 over the canonical forms and the verification reports.

A change to the algebra kernel that keeps every canonical form keeps this
value, and so does a change to the batteries that keeps every report.  Run it
on both sides of the change and compare:

    PYTHONPATH=src python scripts/canonical_hash.py

``tests/test_formulas.py`` pins the value in the test suite; a change that
moves it on purpose updates the constant there.

Each value enters as its typed coefficients (``int`` or ``Fraction``), the
numerator and then the denominator of a ``RatFn``, so a coefficient that
changes only from ``int`` to an equal ``Fraction`` changes the hash too.
Hashed, in this order:

- ``formula(id)`` for every catalog id whose parameters are at most
  ``MAX_H`` (end levels 0..h); an id the catalog refuses enters as the
  name of its exception;
- for k = 1..``MAX_OPERATOR_K``, with a = 1/((1+2v)(1+kv)),
  b = (k+v)/((1+2v)(3+v)) and c = (1+2v)/(1+v), the ``RatFn`` values a + b,
  a*c, a/b and a - b.  Every catalog denominator is a monic integer
  polynomial, and the primitive gcd of two of those is already monic;
  these denominators' monic forms have non-integer coefficients, so a gcd
  that returned the primitive g in place of the monic one changes them;
- ``determinant(build_matrix(n, t))`` and ``cramer_solve(n, t)`` for
  n <= ``MAX_CRAMER``, and every entry of ``L @ U`` from
  ``lu_formulas(n, t)`` for n <= ``MAX_LU``, each for t = False and True;
- the closed forms ``det_closed_form(n)``, ``u_diagonal_product(n)`` and
  ``det_product_candidate(n, e)`` for e = 1 and 2, for n <= ``MAX_LU``, and
  every entry of ``lu_formulas(MAX_LU, t)``, L and then U, for t = False and
  True;
- ``to_dict()`` of every ``verify`` battery at its default size, of the
  ``det``, ``recursion`` and ``lu`` batteries at ``MAX_VERIFY``, of the
  ``cramer`` battery at ``MAX_VERIFY_CRAMER``, of ``verify_lu(MAX_VERIFY_LU)``,
  of ``oracle_check`` at ``ORACLE_SIZES``, and of ``run_selftest()``, as
  sorted-key JSON;
- the exact side of every ``stats.LAWS`` entry at each n in ``LAW_NS``, as
  its name, n and exact value.  The law's float and the ratio are left out:
  a change to how they are rounded may move them in the last place;
- ``certify(MAX_CERTIFY).to_dict()`` as sorted-key JSON;
- the step tuples, in order, of ``enumerate_paths`` for every family at each
  n <= ``MAX_ENUM``, end level in ``ENUM_ENDS`` and height cap in
  ``ENUM_CAPS``; a query the package refuses (an infinite family, or an end
  level other than 0 for Motzkin paths) enters as the name of its exception.
"""

from __future__ import annotations

import hashlib
import json

from deutschpaths import cli
from deutschpaths.algebra import Poly, RatFn
from deutschpaths.bijection import certify
from deutschpaths.formulas import CATALOG, FormulaId, formula, oracle_check
from deutschpaths.matrices import (
    build_matrix,
    cramer_solve,
    det_closed_form,
    det_product_candidate,
    determinant,
    lu_formulas,
    u_diagonal_product,
    verify_lu,
)
from deutschpaths.paths import FAMILIES, PathFamilyQuery, QueryError, enumerate_paths
from deutschpaths.selftest import run_selftest
from deutschpaths.stats import LAWS

MAX_H = 20
MAX_OPERATOR_K = 7
MAX_CRAMER = 8
MAX_LU = 10
MAX_VERIFY = 30
#: the largest ``cramer --max-n`` while each size was solved on its own
MAX_VERIFY_CRAMER = 16
MAX_VERIFY_LU = 60
#: enum_max, dp_max and h_max of the hashed ``oracle_check`` run
ORACLE_SIZES = (10, 60, 6)
LAW_NS = (10, 100, 640)
MAX_CERTIFY = 12
MAX_ENUM = 10
ENUM_ENDS = (None, 0, 2)
ENUM_CAPS = (None, 3)


def _typed(coeffs) -> str:
    return ",".join(f"{type(c).__name__}:{c}" for c in coeffs)


def _canonical(value) -> str:
    if isinstance(value, RatFn):
        return f"{_typed(value.num.coeffs)}/{_typed(value.den.coeffs)}"
    return _typed(value.coeffs)  # a Series


def _formula_ids():
    for name, record in CATALOG.items():
        if record.params == ("h", "i"):
            args = [(h, i) for h in range(MAX_H + 1) for i in range(h + 1)]
        elif record.params:
            args = [(h,) for h in range(MAX_H + 1)]
        else:
            args = [()]
        for a in args:
            yield FormulaId(name, a)


def items():
    """(label, canonical text) for every hashed value, in a fixed order."""
    for fid in _formula_ids():
        try:
            yield str(fid), _canonical(formula(fid))
        except ValueError as exc:
            yield str(fid), type(exc).__name__
    c = RatFn(Poly((1, 2)), Poly((1, 1)))
    for k in range(1, MAX_OPERATOR_K + 1):
        a = RatFn(1, Poly((1, 2)) * Poly((1, k)))
        b = RatFn(Poly((k, 1)), Poly((1, 2)) * Poly((3, 1)))
        for name, value in (("a+b", a + b), ("a*c", a * c), ("a/b", a / b), ("a-b", a - b)):
            yield f"operators k={k} {name}", _canonical(value)
    for t in (False, True):
        for n in range(1, MAX_CRAMER + 1):
            yield f"det({n},{t})", _canonical(determinant(build_matrix(n, t)))
            for j, x in enumerate(cramer_solve(n, t)):
                yield f"cramer({n},{t})[{j}]", _canonical(x)
        for n in range(1, MAX_LU + 1):
            L, U = lu_formulas(n, t)
            for i, row in enumerate((L @ U).rows):
                for j, e in enumerate(row):
                    yield f"LU({n},{t})[{i},{j}]", _canonical(e)
    for n in range(1, MAX_LU + 1):
        yield f"D({n})", _canonical(det_closed_form(n))
        yield f"prod U_ii({n})", _canonical(u_diagonal_product(n))
        for e in (1, 2):
            yield f"candidate({n},{e})", _canonical(det_product_candidate(n, e))
    for t in (False, True):
        for name, factor in zip("LU", lu_formulas(MAX_LU, t)):
            for i, row in enumerate(factor.rows):
                for j, e in enumerate(row):
                    yield f"{name}({MAX_LU},{t})[{i},{j}]", _canonical(e)
    for target, (battery, default, *_) in cli._BATTERIES.items():
        yield f"verify {target}", json.dumps(battery(default).to_dict(), sort_keys=True)
    sized = (("det", MAX_VERIFY), ("recursion", MAX_VERIFY), ("lu", MAX_VERIFY))
    for target, size in (*sized, ("cramer", MAX_VERIFY_CRAMER)):
        report = cli._BATTERIES[target][0](size)
        yield f"verify {target} {size}", json.dumps(report.to_dict(), sort_keys=True)
    yield f"verify_lu {MAX_VERIFY_LU}", json.dumps(verify_lu(MAX_VERIFY_LU).to_dict(), sort_keys=True)
    enum_max, dp_max, h_max = ORACLE_SIZES
    report = oracle_check(enum_max=enum_max, dp_max=dp_max, h_max=h_max)
    yield f"oracle_check {ORACLE_SIZES}", json.dumps(report.to_dict(), sort_keys=True)
    yield "selftest", json.dumps(run_selftest().to_dict(), sort_keys=True)
    for name, law in LAWS.items():
        for n in LAW_NS:
            yield f"law {name} {n}", _typed((law.exact(n),))
    yield f"certify {MAX_CERTIFY}", json.dumps(certify(MAX_CERTIFY).to_dict(), sort_keys=True)
    for family in FAMILIES:
        for n in range(MAX_ENUM + 1):
            for end in ENUM_ENDS:
                for cap in ENUM_CAPS:
                    label = f"enumerate {family} n={n} end={end} cap={cap}"
                    try:
                        paths = enumerate_paths(PathFamilyQuery(family, n, end, cap))
                    except QueryError as exc:
                        yield label, type(exc).__name__
                        continue
                    yield label, ";".join(_typed(p.steps) for p in paths)


def digest() -> tuple[str, int]:
    """The SHA-256 hex digest over every ``label=text`` line, and their number."""
    sha = hashlib.sha256()
    count = 0
    for label, text in items():
        sha.update(f"{label}={text}\n".encode())
        count += 1
    return sha.hexdigest(), count


def main() -> None:
    value, count = digest()
    print(f"{value}  ({count} values)")


if __name__ == "__main__":
    main()

"""Closed-form generating functions for Deutsch-path counting.

Every formula is expressed in the substitution variable v (recall
z = v/(1+v+v^2)) and is paired here with the combinatorial quantity it
enumerates, so the whole catalog can be checked against the brute-force
and transfer-matrix oracles in ``paths``.

Catalog, with [z^n] meanings (h = height bound, i = end level):

    motzkin_M             1+v+v^2                      Motzkin paths
    phi(h, i)             height <= h, end at i        Deutsch paths
    phi0_bounded(h)       height <= h, end at 0        Deutsch paths
    phi0_limit            end at 0, no bound           Deutsch paths
    closed_height_ge(h)   end at 0, height >= h        Deutsch paths
    open_sum(h)           height <= h, any end         Deutsch paths
    open_sum_limit        any end, no bound            Deutsch paths
    psi0(h)               height <= h, end at 0        reversed paths
    psi(h, i)             height <= h, end at i >= 1   reversed paths
    reversed_sum(h)       height <= h, any end         reversed paths
    reversed_limit_formal  (1+v+v^2)(1-v): formal only, NOT a count
    area_A                total area of closed Deutsch paths
    height_sum_closed(N)  series: total height, closed paths
    height_sum_open(N)    series: total height, open paths

The two height sums are series, not rational functions: each sums a
height >= h family over every h >= 1, which turns the factors
1/(1-v^(h+2)) into one divisor-count series in v (see height_sum_closed),
substituted once through z^N.

reversed_limit_formal is the h -> infinity substitution into the
reversed_sum expression.  Open reversed paths of a fixed length form an
infinite family, so this is an algebraic identity with no counting
meaning; its z-expansion goes negative (first at z^3) and it is excluded
from the oracle battery.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

from .algebra import (
    KERNEL,
    Poly,
    RatFn,
    Series,
    V,
    compose_with_v,
    expand_in_v,
    expand_in_z,
    trinomial,
)
from .paths import _FAMILIES, PathFamilyQuery, _prefix, _walk
from .reporting import VerificationReport


class BadParams(ValueError):
    """Formula parameters outside their valid range."""


ONE_PLUS_V = Poly((1, 1))


def _one_minus_v_pow(k: int) -> Poly:
    if k < 1:
        raise BadParams(f"exponent must be positive, got {k}")
    return 1 - Poly.monomial(1, k)


# --- the catalog ------------------------------------------------------------


def motzkin_gf() -> RatFn:
    """Motzkin paths: M(v) = 1 + v + v^2 under z = v/(1+v+v^2)."""
    return RatFn(KERNEL)


def phi(h: int, i: int) -> RatFn:
    """Deutsch paths of height <= h ending at level i."""
    if not 0 <= i <= h:
        raise BadParams(f"phi needs 0 <= i <= h, got h={h}, i={i}")
    num = Poly.monomial(1, i) * KERNEL * _one_minus_v_pow(h - i + 2)
    den = ONE_PLUS_V ** (i + 1) * _one_minus_v_pow(h + 3)
    return RatFn(num, den)


def phi0_bounded(h: int) -> RatFn:
    """Closed Deutsch paths of height <= h."""
    if h < 0:
        raise BadParams(f"height bound must be nonnegative, got {h}")
    return RatFn(KERNEL * _one_minus_v_pow(h + 2), ONE_PLUS_V * _one_minus_v_pow(h + 3))


def phi0_limit() -> RatFn:
    """Closed Deutsch paths, no height bound."""
    return RatFn(KERNEL, ONE_PLUS_V)


def closed_height_ge(h: int) -> RatFn:
    """Closed Deutsch paths of height >= h (h >= 1)."""
    if h < 1:
        raise BadParams(f"closed_height_ge needs h >= 1, got {h}")
    num = KERNEL * Poly.monomial(1, h + 1) * Poly((1, -1))
    den = ONE_PLUS_V * _one_minus_v_pow(h + 2)
    return RatFn(num, den)


def open_sum(h: int) -> RatFn:
    """Deutsch paths of height <= h, any end level (sum of phi(h, i))."""
    if h < 0:
        raise BadParams(f"height bound must be nonnegative, got {h}")
    return RatFn(KERNEL * _one_minus_v_pow(h + 1), _one_minus_v_pow(h + 3))


def open_sum_limit() -> RatFn:
    """Deutsch paths with any end level, no bound: the Motzkin function."""
    return RatFn(KERNEL)


def psi0(h: int) -> RatFn:
    """Closed reversed Deutsch paths of height <= h (equals phi0_bounded)."""
    if h < 0:
        raise BadParams(f"height bound must be nonnegative, got {h}")
    return phi0_bounded(h)


def psi(h: int, i: int) -> RatFn:
    """Reversed Deutsch paths of height <= h ending at level i >= 1.

    At i = 1 the factor (1+v)^(i-2) is a genuine rational function; RatFn
    arithmetic needs no special case.
    """
    if not 1 <= i <= h:
        raise BadParams(f"psi needs 1 <= i <= h, got h={h}, i={i}")
    base = RatFn(V * KERNEL * _one_minus_v_pow(h + 1 - i), _one_minus_v_pow(h + 3))
    return base * RatFn(ONE_PLUS_V) ** (i - 2)


def reversed_sum(h: int) -> RatFn:
    """Reversed Deutsch paths of height <= h, any end level."""
    if h < 0:
        raise BadParams(f"height bound must be nonnegative, got {h}")
    return RatFn(KERNEL * ONE_PLUS_V**h * Poly((1, -1)), _one_minus_v_pow(h + 3))


def reversed_limit_formal() -> RatFn:
    """Formal h -> infinity form of reversed_sum; not a counting series."""
    return RatFn(KERNEL * Poly((1, -1)))


def area_gf() -> RatFn:
    """Total area of closed Deutsch paths: A = v^2(1+v+v^2)^2 / ((1+v)^3 (1-v)^2)."""
    num = Poly.monomial(1, 2) * KERNEL**2
    den = ONE_PLUS_V**3 * Poly((1, -1)) ** 2
    return RatFn(num, den)


def divisor_counts(m_max: int) -> list[int]:
    """c[0..m_max] with c[m] = #{d >= 3 : d divides m} (c[0] = 0), by a sieve."""
    c = [0] * (m_max + 1)
    for d in range(3, m_max + 1):
        for m in range(d, m_max + 1, d):
            c[m] += 1
    return c


def _height_sum_series(order: int, prefactor: RatFn, shift: int) -> Series:
    # Summing 1/(1-v^(h+2)) over h >= 1 leaves c[m+shift] at v^m (d = h+2 divides
    # m+shift); every such d is at most order+shift: exact through v^order.
    w = expand_in_v(prefactor, order) * Series(divisor_counts(order + shift)[shift:])
    return compose_with_v(w.coeffs, order)


def height_sum_closed(order: int) -> Series:
    """Series whose [z^n] is the total height over closed Deutsch paths.

    The total height is the sum over h >= 1 of closed_height_ge(h), i.e.
    (1+v+v^2)(1-v)/(1+v) * v^(h+1)/(1-v^(h+2)).  Expanding each geometric
    factor, the v-series of the sum is (1+v+v^2)(1-v)/(1+v) times
    sum_m c_m v^m, with c_m the number of divisors d >= 3 of m+1 (d = h+2):
    the divisor-count form of de Bruijn, Knuth and Rice (1972).
    """
    if order < 0:
        raise BadParams(f"order must be nonnegative, got {order}")
    return _height_sum_series(order, RatFn(KERNEL * Poly((1, -1)), ONE_PLUS_V), 1)


def height_sum_open(order: int) -> Series:
    """Series whose [z^n] is the total height over open Deutsch paths.

    Open paths of height >= h have (1+v+v^2)(1-v^2) v^h/(1-v^(h+2)), so the
    sum over h >= 1 is (1+v+v^2)(1-v^2) times sum_m c_m v^m, with c_m the
    number of divisors d >= 3 of m+2.
    """
    if order < 0:
        raise BadParams(f"order must be nonnegative, got {order}")
    return _height_sum_series(order, RatFn(KERNEL * Poly((1, 0, -1))), 2)


# --- formula ids ------------------------------------------------------------

_SPECS = {
    # name: (number of args, constructor)
    "motzkin_M": (0, motzkin_gf),
    "phi": (2, phi),
    "phi0_bounded": (1, phi0_bounded),
    "phi0_limit": (0, phi0_limit),
    "closed_height_ge": (1, closed_height_ge),
    "open_sum": (1, open_sum),
    "open_sum_limit": (0, open_sum_limit),
    "psi0": (1, psi0),
    "psi": (2, psi),
    "reversed_sum": (1, reversed_sum),
    "reversed_limit_formal": (0, reversed_limit_formal),
    "area_A": (0, area_gf),
    "height_sum_closed": (1, height_sum_closed),
    "height_sum_open": (1, height_sum_open),
}

_ID_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\(([-0-9,\s]*)\))?$")


@dataclass(frozen=True)
class FormulaId:
    """A formula name plus its integer parameters, e.g. phi(4, 1)."""

    name: str
    args: tuple[int, ...] = ()

    def __post_init__(self):
        spec = _SPECS.get(self.name)
        if spec is None:
            raise BadParams(f"unknown formula {self.name!r}; known: {', '.join(_SPECS)}")
        if len(self.args) != spec[0]:
            raise BadParams(f"{self.name} takes {spec[0]} parameter(s), got {len(self.args)}")

    @classmethod
    def parse(cls, text: str) -> "FormulaId":
        m = _ID_RE.match(text.strip())
        if not m:
            raise BadParams(f"cannot parse formula id {text!r}")
        name, argtext = m.groups()
        args = ()
        if argtext is not None and argtext.strip():
            args = tuple(int(a) for a in argtext.split(","))
        return cls(name, args)

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(str(a) for a in self.args)})"


def formula(fid: FormulaId | str):
    """Build the formula: a RatFn, or a Series for the height sums."""
    if isinstance(fid, str):
        fid = FormulaId.parse(fid)
    return _SPECS[fid.name][1](*fid.args)


# --- trinomial coefficient closed forms -------------------------------------


@dataclass(frozen=True)
class CoefficientFormula:
    """Signed sum of trinomials: n -> sum of sign * trinomial(n, n - offset)."""

    name: str
    terms: tuple[tuple[int, int], ...]  # (offset, sign)

    def __call__(self, n: int) -> int:
        if n < 0:
            raise BadParams(f"n must be nonnegative, got {n}")
        return sum(sign * trinomial(n, n - off) for off, sign in self.terms)


#: [z^n] phi0_limit: closed Deutsch paths of length n.
closed_coeff_formula = CoefficientFormula("closed", ((0, 1), (1, -1)))

#: [z^n] open_sum_limit: open Deutsch paths of length n (Motzkin numbers).
open_coeff_formula = CoefficientFormula("open", ((0, 1), (2, -1)))

#: [z^n] reversed_limit_formal: the alternating four-term sum (may be negative).
reversed_formal_coeff_formula = CoefficientFormula(
    "reversed_formal", ((0, 1), (1, -1), (2, -1), (3, 1))
)


def coeff_closed(n: int) -> int:
    return closed_coeff_formula(n)


def coeff_open(n: int) -> int:
    return open_coeff_formula(n)


def coeff_reversed_formal(n: int) -> int:
    return reversed_formal_coeff_formula(n)


# --- the oracle battery -----------------------------------------------------


def combinatorial_ids(h_max: int, series_order: int) -> list[FormulaId]:
    """Every FormulaId with a counting meaning, at bounds h <= h_max."""
    ids = [
        FormulaId("motzkin_M"),
        FormulaId("phi0_limit"),
        FormulaId("open_sum_limit"),
        FormulaId("area_A"),
        FormulaId("height_sum_closed", (series_order,)),
        FormulaId("height_sum_open", (series_order,)),
    ]
    for h in range(h_max + 1):
        ids.append(FormulaId("phi0_bounded", (h,)))
        ids.append(FormulaId("open_sum", (h,)))
        ids.append(FormulaId("psi0", (h,)))
        ids.append(FormulaId("reversed_sum", (h,)))
        for i in range(h + 1):
            ids.append(FormulaId("phi", (h, i)))
            if i >= 1:
                ids.append(FormulaId("psi", (h, i)))
        if h >= 1:
            ids.append(FormulaId("closed_height_ge", (h,)))
    return ids


class _Meaning(NamedTuple):
    """What [z^n] of a formula counts: a statistic summed over the paths of
    length n in one family, ending at ``end`` (None: any level), with height
    in [min_height, max_height] (None: unbounded)."""

    family: str
    end: int | None
    min_height: int = 0
    max_height: int | None = None
    statistic: str = "count"  # count | area | height


#: Every formula with a counting meaning; both oracles read only this table.
_MEANINGS = {
    "motzkin_M": lambda: _Meaning("motzkin", 0),
    "phi": lambda h, i: _Meaning("deutsch", i, max_height=h),
    "phi0_bounded": lambda h: _Meaning("deutsch", 0, max_height=h),
    "phi0_limit": lambda: _Meaning("deutsch", 0),
    "closed_height_ge": lambda h: _Meaning("deutsch", 0, min_height=h),
    "open_sum": lambda h: _Meaning("deutsch", None, max_height=h),
    "open_sum_limit": lambda: _Meaning("deutsch", None),
    "psi0": lambda h: _Meaning("reversed", 0, max_height=h),
    "psi": lambda h, i: _Meaning("reversed", i, max_height=h),
    "reversed_sum": lambda h: _Meaning("reversed", None, max_height=h),
    "area_A": lambda: _Meaning("deutsch", 0, statistic="area"),
    "height_sum_closed": lambda order: _Meaning("deutsch", 0, statistic="height"),
    "height_sum_open": lambda order: _Meaning("deutsch", None, statistic="height"),
}


def _meaning(fid: FormulaId) -> _Meaning:
    if fid.name not in _MEANINGS:
        raise BadParams(f"{fid} has no combinatorial meaning")
    return _MEANINGS[fid.name](*fid.args)


def _dp_prefix(m: _Meaning, n_max: int) -> list[int]:
    """[z^n] for n <= n_max by the transfer-matrix DP: one sweep per strip."""
    query = PathFamilyQuery(m.family, n_max, end_level=m.end, max_height=m.max_height)
    values = _prefix(query, m.statistic)
    if m.min_height:
        below = _prefix(replace(query, max_height=m.min_height - 1), m.statistic)
        values = [a - b for a, b in zip(values, below)]
    return values


_WEIGHTS = {"count": lambda ht, a: 1, "area": lambda ht, a: a, "height": lambda ht, a: ht}


def _end_height_area(steps: tuple[int, ...]) -> tuple[int, int, int]:
    levels = list(accumulate(steps, initial=0))
    return levels[-1], max(levels), sum(levels)


def _enum_value(m: _Meaning, stats: list[tuple[int, int, int]]) -> int:
    """[z^n] from the (end, height, area) of every enumerated path of length n."""
    hi = m.max_height if m.max_height is not None else float("inf")
    weight = _WEIGHTS[m.statistic]
    return sum(
        weight(ht, a)
        for e, ht, a in stats
        if (m.end is None or e == m.end) and m.min_height <= ht <= hi
    )


def oracle_check(
    ids: list[FormulaId] | None = None,
    *,
    enum_max: int = 10,
    dp_max: int = 60,
    h_max: int = 6,
) -> VerificationReport:
    """Check every combinatorial formula against both counting oracles.

    Series coefficients must equal exhaustive-enumeration statistics for
    n <= enum_max and transfer-matrix DP values for n <= dp_max.  Returns
    the full report; raises MismatchFound (report attached) on the first
    failing cell.
    """
    if ids is None:
        ids = combinatorial_ids(h_max, dp_max)
    report = VerificationReport("formula oracle equivalence")
    meanings = [_meaning(fid) for fid in ids]
    n_enum = min(enum_max, dp_max)
    # each family is enumerated once per n; one with up-steps of any size
    # (an infinite family when open) at the largest height bound among the ids
    bounds: dict[str, list[int | None]] = {}
    for m in meanings:
        bounds.setdefault(m.family, []).append(m.max_height)
    enumerated = {}
    for family, heights in bounds.items():
        cap = max(heights) if _FAMILIES[family].up is None else None
        enumerated[family] = [
            [_end_height_area(steps) for steps in _walk(PathFamilyQuery(family, n, max_height=cap))]
            for n in range(n_enum + 1)
        ]

    for fid, m in zip(ids, meanings):
        obj = formula(fid)
        series = obj if isinstance(obj, Series) else expand_in_z(obj, dp_max)
        oracles = (
            ("DP", dp_max, _dp_prefix(m, dp_max)),
            ("enumeration", enum_max, [_enum_value(m, stats) for stats in enumerated[m.family]]),
        )
        for oracle, bound, wants in oracles:
            witness = ""
            for n, want in enumerate(wants):
                got = series.coeff(n)
                if got != want:
                    witness = f"[z^{n}] {fid} = {got}, {oracle} oracle = {want}"
                    break
            report.add(f"{fid} vs {oracle}", f"n<={bound}", not witness, witness)
    report.data["formulas_checked"] = len(ids)
    report.data["cells_checked"] = len(ids) * (dp_max + 1 + n_enum + 1)
    report.raise_if_failed()
    return report

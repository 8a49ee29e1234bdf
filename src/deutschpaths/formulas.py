"""Closed-form generating functions for Deutsch-path counting.

Every formula is expressed in the substitution variable v (recall
z = v/(1+v+v^2)), each rational one as its docstring writes it,
sign * v^a * (1+v)^b * (1+v+v^2)^c * prod (1 - v^k)^e, and built already
reduced by ``closed_form`` with no gcd.  ``CATALOG`` is the one table of
formulas: each record holds its parameter kinds ("h" a height bound, "i"
an end level, "order" a series order), its constructor, and what its
[z^n] counts, so the whole catalog can be checked against the brute-force
and transfer-matrix oracles in ``paths``.  ``FormulaId``, ``formula``,
``z_series``, both oracles and the CLI read only that table.

The two height sums are series, not rational functions: each sums a
height >= h family over every h >= 1, which turns the factors
1/(1-v^(h+2)) into one divisor-count series in v (see height_sum_closed),
substituted once through z^N.  ``z_series`` builds them only through the
order it is asked for.

reversed_limit_formal is the h -> infinity substitution into the
reversed_sum expression.  Open reversed paths of a fixed length form an
infinite family, so this is an algebraic identity with no counting
meaning; its z-expansion goes negative (first at z^3) and it is excluded
from the oracle battery.
"""

from __future__ import annotations

import re
from itertools import accumulate
from typing import Callable, NamedTuple

from .algebra import (
    RatFn,
    Series,
    closed_form,
    compose_with_v,
    expand_in_v,
    expand_in_z,
    trinomial,
)
from .paths import _FAMILIES, PathFamilyQuery, QueryError, _prefixes, _walk
from .reporting import VerificationReport


class BadParams(QueryError):
    """Formula parameters outside their valid range."""


# --- the catalog ------------------------------------------------------------


def motzkin_gf() -> RatFn:
    """Motzkin paths: M(v) = 1 + v + v^2 under z = v/(1+v+v^2)."""
    return closed_form(1, 0, 0, 1)


def phi(h: int, i: int) -> RatFn:
    """Deutsch paths of height <= h ending at level i:
    v^i (1+v+v^2) (1-v^(h-i+2)) / ((1+v)^(i+1) (1-v^(h+3)))."""
    if not 0 <= i <= h:
        raise BadParams(f"phi needs 0 <= i <= h, got h={h}, i={i}")
    return closed_form(1, i, -i - 1, 1, [(h - i + 2, 1), (h + 3, -1)])


def phi0_bounded(h: int) -> RatFn:
    """Closed Deutsch paths of height <= h: phi(h, 0)."""
    if h < 0:
        raise BadParams(f"height bound must be nonnegative, got {h}")
    return closed_form(1, 0, -1, 1, [(h + 2, 1), (h + 3, -1)])


def phi0_limit() -> RatFn:
    """Closed Deutsch paths, no height bound: (1+v+v^2)/(1+v)."""
    return closed_form(1, 0, -1, 1)


def closed_height_ge(h: int) -> RatFn:
    """Closed Deutsch paths of height >= h (h >= 1):
    v^(h+1) (1+v+v^2) (1-v) / ((1+v) (1-v^(h+2)))."""
    if h < 1:
        raise BadParams(f"closed_height_ge needs h >= 1, got {h}")
    return closed_form(1, h + 1, -1, 1, [(1, 1), (h + 2, -1)])


def open_sum(h: int) -> RatFn:
    """Deutsch paths of height <= h, any end level (sum of phi(h, i)):
    (1+v+v^2) (1-v^(h+1)) / (1-v^(h+3))."""
    if h < 0:
        raise BadParams(f"height bound must be nonnegative, got {h}")
    return closed_form(1, 0, 0, 1, [(h + 1, 1), (h + 3, -1)])


def psi0(h: int) -> RatFn:
    """Closed reversed Deutsch paths of height <= h (equals phi0_bounded)."""
    return phi0_bounded(h)


def psi(h: int, i: int) -> RatFn:
    """Reversed Deutsch paths of height <= h ending at level i >= 1:
    v (1+v+v^2) (1+v)^(i-2) (1-v^(h+1-i)) / (1-v^(h+3)), with 1/(1+v) at i = 1."""
    if not 1 <= i <= h:
        raise BadParams(f"psi needs 1 <= i <= h, got h={h}, i={i}")
    return closed_form(1, 1, i - 2, 1, [(h + 1 - i, 1), (h + 3, -1)])


def reversed_sum(h: int) -> RatFn:
    """Reversed Deutsch paths of height <= h, any end level:
    (1+v+v^2) (1+v)^h (1-v) / (1-v^(h+3))."""
    if h < 0:
        raise BadParams(f"height bound must be nonnegative, got {h}")
    return closed_form(1, 0, h, 1, [(1, 1), (h + 3, -1)])


def reversed_limit_formal() -> RatFn:
    """Formal h -> infinity form of reversed_sum, (1+v+v^2)(1-v); not a counting series."""
    return closed_form(1, 0, 0, 1, [(1, 1)])


def area_gf() -> RatFn:
    """Total area of closed Deutsch paths: A = v^2(1+v+v^2)^2 / ((1+v)^3 (1-v)^2)."""
    return closed_form(1, 2, -3, 2, [(1, -2)])


#: c[0..] with c[m] = #{d >= 3 : d divides m} (c[0] = 0): one sieve kept for
#: the process, grown on demand.
_DIVISOR_SIEVE: tuple[int, ...] = (0,)


def _divisor_sieve(m_max: int) -> tuple[int, ...]:
    """The kept sieve, through at least c[m_max]; rebuilt at twice its length
    or more when it ends before m_max, and immutable, so handed out as it is."""
    global _DIVISOR_SIEVE
    c = _DIVISOR_SIEVE
    if m_max >= len(c):
        top = max(m_max, 2 * len(c))
        grown = [0] * (top + 1)
        for d in range(3, top + 1):
            for m in range(d, top + 1, d):
                grown[m] += 1
        c = _DIVISOR_SIEVE = tuple(grown)
    return c


def _height_sum_series(order: int, prefactor: RatFn, shift: int) -> Series:
    if order < 0:
        raise BadParams(f"order must be nonnegative, got {order}")
    # Summing 1/(1-v^(h+2)) over h >= 1 leaves c[m+shift] at v^m (d = h+2 divides
    # m+shift); every such d is at most order+shift: exact through v^order.
    w = expand_in_v(prefactor, order) * Series(_divisor_sieve(order + shift)[shift : order + shift + 1])
    return compose_with_v(w.coeffs, order)


def height_sum_closed(order: int) -> Series:
    """Series whose [z^n] is the total height over closed Deutsch paths.

    The total height is the sum over h >= 1 of closed_height_ge(h), i.e.
    (1+v+v^2)(1-v)/(1+v) * v^(h+1)/(1-v^(h+2)).  Expanding each geometric
    factor, the v-series of the sum is (1+v+v^2)(1-v)/(1+v) times
    sum_m c_m v^m, with c_m the number of divisors d >= 3 of m+1 (d = h+2):
    the divisor-count form of de Bruijn, Knuth and Rice (1972).
    """
    return _height_sum_series(order, closed_form(1, 0, -1, 1, [(1, 1)]), 1)


def height_sum_open(order: int) -> Series:
    """Series whose [z^n] is the total height over open Deutsch paths.

    Open paths of height >= h have (1+v+v^2)(1-v^2) v^h/(1-v^(h+2)), so the
    sum over h >= 1 is (1+v+v^2)(1-v^2) times sum_m c_m v^m, with c_m the
    number of divisors d >= 3 of m+2.
    """
    return _height_sum_series(order, closed_form(1, 0, 0, 1, [(2, 1)]), 2)


# --- the catalog table -------------------------------------------------------


class _Meaning(NamedTuple):
    """What [z^n] of a formula counts: a statistic summed over the paths of
    length n in one family, ending at ``end`` (None: any level), with height
    in [min_height, max_height] (None: unbounded)."""

    family: str
    end: int | None
    min_height: int = 0
    max_height: int | None = None
    statistic: str = "count"  # count | area | height


class _Formula(NamedTuple):
    """One catalog record: the kind of each parameter ("h" a height bound,
    "i" an end level, "order" a series order), the constructor, and the
    meaning of [z^n] on the same parameters (None: formal, not a count)."""

    params: tuple[str, ...]
    build: Callable[..., RatFn | Series]
    meaning: Callable[..., _Meaning] | None


#: Every catalog formula, by name; the one source of what a formula is.
CATALOG = {
    "motzkin_M": _Formula((), motzkin_gf, lambda: _Meaning("motzkin", 0)),
    "phi": _Formula(("h", "i"), phi, lambda h, i: _Meaning("deutsch", i, max_height=h)),
    "phi0_bounded": _Formula(("h",), phi0_bounded, lambda h: _Meaning("deutsch", 0, max_height=h)),
    "phi0_limit": _Formula((), phi0_limit, lambda: _Meaning("deutsch", 0)),
    "closed_height_ge": _Formula(
        ("h",), closed_height_ge, lambda h: _Meaning("deutsch", 0, min_height=h)
    ),
    "open_sum": _Formula(("h",), open_sum, lambda h: _Meaning("deutsch", None, max_height=h)),
    "open_sum_limit": _Formula((), motzkin_gf, lambda: _Meaning("deutsch", None)),
    "psi0": _Formula(("h",), psi0, lambda h: _Meaning("reversed", 0, max_height=h)),
    "psi": _Formula(("h", "i"), psi, lambda h, i: _Meaning("reversed", i, max_height=h)),
    "reversed_sum": _Formula(
        ("h",), reversed_sum, lambda h: _Meaning("reversed", None, max_height=h)
    ),
    "reversed_limit_formal": _Formula((), reversed_limit_formal, None),
    "area_A": _Formula((), area_gf, lambda: _Meaning("deutsch", 0, statistic="area")),
    "height_sum_closed": _Formula(
        ("order",), height_sum_closed, lambda order: _Meaning("deutsch", 0, statistic="height")
    ),
    "height_sum_open": _Formula(
        ("order",), height_sum_open, lambda order: _Meaning("deutsch", None, statistic="height")
    ),
}

_ID_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\(([-0-9,\s]*)\))?$")


class _IdFields(NamedTuple):
    name: str
    args: tuple[int, ...] = ()


class FormulaId(_IdFields):
    """A formula name plus its integer parameters, e.g. phi(4, 1).

    An immutable named tuple, validated however it is built (``_replace``
    and ``_make`` go through the constructor).
    """

    __slots__ = ()

    def __new__(cls, name, args=()):
        record = CATALOG.get(name)
        if record is None:
            raise BadParams(f"unknown formula {name!r}; known: {', '.join(CATALOG)}")
        arity = len(record.params)
        if len(args) != arity:
            raise BadParams(f"{name} takes {arity} parameter(s), got {len(args)}")
        return super().__new__(cls, name, args)

    @classmethod
    def _make(cls, iterable) -> FormulaId:
        return cls(*iterable)

    @classmethod
    def parse(cls, text: str) -> "FormulaId":
        m = _ID_RE.match(text.strip())
        if not m:
            raise BadParams(f"cannot parse formula id {text!r}")
        name, argtext = m.groups()
        args = ()
        if argtext is not None and argtext.strip():
            try:
                args = tuple(int(a) for a in argtext.split(","))
            except ValueError:  # an empty or malformed parameter, or one past int()'s digit limit
                raise BadParams(f"formula parameters must be integers, got {argtext!r}") from None
        return cls(name, args)

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({','.join(str(a) for a in self.args)})"


def _as_id(fid: FormulaId | str) -> FormulaId:
    return FormulaId.parse(fid) if isinstance(fid, str) else fid


def formula(fid: FormulaId | str) -> RatFn | Series:
    """Build the formula: a RatFn, or a Series for the height sums."""
    fid = _as_id(fid)
    return CATALOG[fid.name].build(*fid.args)


def z_series(fid: FormulaId | str, order: int) -> Series:
    """The z-series of a formula through z^order.

    A rational formula is expanded with ``expand_in_z``.  A height sum is
    built through ``order`` only, and refused when its own order is lower.
    """
    fid = _as_id(fid)
    if CATALOG[fid.name].params != ("order",):
        return expand_in_z(formula(fid), order)
    (own,) = fid.args
    if own < 0:
        raise BadParams(f"order must be nonnegative, got {own}")
    if own < order:
        raise BadParams(
            f"{fid} only defines coefficients through z^{own}",
            f"use --formula '{fid.name}({order})' or lower --terms",
        )
    return formula(fid._replace(args=(order,)))


# --- trinomial coefficient closed forms -------------------------------------


def _trinomial_sum(n: int, signs: tuple[int, ...]) -> int:
    """The sum of signs[j] * trinomial(n, n - j)."""
    if n < 0:
        raise BadParams(f"n must be nonnegative, got {n}")
    return sum(sign * trinomial(n, n - j) for j, sign in enumerate(signs))


def coeff_closed(n: int) -> int:
    """[z^n] phi0_limit: closed Deutsch paths of length n."""
    return _trinomial_sum(n, (1, -1))


def coeff_open(n: int) -> int:
    """[z^n] open_sum_limit: open Deutsch paths of length n (Motzkin numbers)."""
    return _trinomial_sum(n, (1, 0, -1))


def coeff_reversed_formal(n: int) -> int:
    """[z^n] reversed_limit_formal: the alternating four-term sum (may be negative)."""
    return _trinomial_sum(n, (1, -1, -1, 1))


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


def _meaning(fid: FormulaId) -> _Meaning:
    meaning = CATALOG[fid.name].meaning
    if meaning is None:
        raise BadParams(f"{fid} has no combinatorial meaning")
    return meaning(*fid.args)


def _dp_queries(m: _Meaning, n_max: int) -> tuple[PathFamilyQuery, ...]:
    """The strips whose DP prefixes give [z^n] for n <= n_max: the statistic
    of the first, less that of the second (the paths below min_height) if any."""
    query = PathFamilyQuery(m.family, n_max, end_level=m.end, max_height=m.max_height)
    return (query, query._replace(max_height=m.min_height - 1)) if m.min_height else (query,)


_WEIGHTS = {"count": lambda h, c, a: c, "area": lambda h, c, a: a, "height": lambda h, c, a: h * c}


def _end_height_area(steps: tuple[int, ...]) -> tuple[int, int, int]:
    levels = list(accumulate(steps, initial=0))
    return levels[-1], max(levels), sum(levels)


def _tally(walk: list[tuple[int, ...]]) -> dict[tuple[int, int], tuple[int, int]]:
    """(end level, height) -> (paths, area sum) over the step tuples of one length."""
    tally: dict[tuple[int, int], tuple[int, int]] = {}
    for e, ht, a in map(_end_height_area, walk):
        c, s = tally.get((e, ht), (0, 0))
        tally[e, ht] = (c + 1, s + a)
    return tally


def _enum_value(m: _Meaning, tally: dict[tuple[int, int], tuple[int, int]]) -> int:
    """[z^n] from the tally of the enumerated paths of length n."""
    hi = m.max_height if m.max_height is not None else float("inf")
    weight = _WEIGHTS[m.statistic]
    return sum(
        weight(ht, c, a)
        for (e, ht), (c, a) in tally.items()
        if (m.end is None or e == m.end) and m.min_height <= ht <= hi
    )


def _mismatch(fid: FormulaId, series, oracle: str, wants: list[int]) -> str:
    """The witness of the first [z^n] where the oracle's value is not the series', or ''."""
    for n, want in enumerate(wants):
        got = series.coeff(n)
        if got != want:
            return f"[z^{n}] {fid} = {got}, {oracle} oracle = {want}"
    return ""


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
    witnesses: list[tuple[str, str]] = [("", "")] * len(ids)
    # each distinct RatFn is expanded once, and every id that builds it reads that series
    built = {fid: formula(fid) for fid in ids if CATALOG[fid.name].params != ("order",)}
    expansions = {f: expand_in_z(f, dp_max) for f in dict.fromkeys(built.values())}
    # one family at a time, so only its ids' DP prefixes are alive at once: its
    # paths are tallied once per n, and one sweep per height cap serves every id
    # that reads that strip
    for family in dict.fromkeys(m.family for m in meanings):
        mine = [k for k, m in enumerate(meanings) if m.family == family]
        # one with up-steps of any size (an infinite family when open) is
        # enumerated at the largest height bound among its ids
        cap = max(meanings[k].max_height for k in mine) if _FAMILIES[family].up is None else None
        tallies = [_tally(walk) for walk in _walk(PathFamilyQuery(family, n_enum, max_height=cap))]
        strips = {k: _dp_queries(meanings[k], dp_max) for k in mine}
        prefixes = _prefixes([(q, meanings[k].statistic) for k in mine for q in strips[k]])
        for k in mine:
            m, fid = meanings[k], ids[k]
            series = expansions[built[fid]] if fid in built else z_series(fid, dp_max)
            dp, *below = [prefixes[q, m.statistic] for q in strips[k]]
            dp = [a - b for a, b in zip(dp, *below)] if below else dp
            enum = [_enum_value(m, tally) for tally in tallies]
            witnesses[k] = (
                _mismatch(fid, series, "DP", dp), _mismatch(fid, series, "enumeration", enum)
            )
    for fid, (dp_witness, enum_witness) in zip(ids, witnesses):
        report.add(f"{fid} vs DP", f"n<={dp_max}", not dp_witness, dp_witness)
        report.add(f"{fid} vs enumeration", f"n<={enum_max}", not enum_witness, enum_witness)
    report.data["formulas_checked"] = len(ids)
    report.data["cells_checked"] = len(ids) * (dp_max + 1 + n_enum + 1)
    return report.raise_if_failed()

"""Exact height/area statistics and their asymptotic comparisons.

Exact values come from trinomial-coefficient extraction only (never from
an asymptotic law): counts are two-term trinomial differences, the total
height of length-n paths is a trinomial row summed against small integer
weights, and the total area is a single z-coefficient of the area
generating function.  Everything stays integer/Fraction until the final
ratio.

The height total is, by Lagrange inversion, sum_k W[k] * c[n+s-k] over the
row's second differences W[k] = T(k) - 2T(k-s) + T(k-2s) and the divisor
counts c[m] = #{d >= 3 : d | m}.  Summation by parts moves the second
difference onto the divisor counts, which are small integers: the same sum
is sum_{j<=n} T(j) * w[j] with w[j] = c[n+s-j] - 2c[n-j] + c[n-s-j].  The
row entries are added into one bucket per distinct weight, so the cost is
n + 1 big-integer additions and one multiplication per distinct weight
(about 130 at n = 9500) rather than one product per row entry.

The asymptotic side carries the leading-order laws

    average height (closed and open)   2*sqrt(pi*n/3)
    Motzkin count                      9/(2*sqrt(3*pi)) * 3^n * n^(-3/2)
    closed-path count                  9/(8*sqrt(3*pi)) * 3^n * n^(-3/2)
    total area (closed)                (3/8) * 3^n
    average area                       sqrt(pi/3) * n^(3/2)
    average elevation                  sqrt(pi*n/3)

with no error terms, so comparisons report ratios rather than asserting
equality; tolerance bands live next to their assertions in the test
suite.  The ratio of the closed average height to sqrt(pi*n/3), the
Motzkin average height law, tends to 2: these paths run about twice as
high as Motzkin paths of the same length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Callable

from .algebra import coeff_of_z, trinomial_row
from .formulas import _divisor_sieve, area_gf, coeff_closed, coeff_open


class ZeroCount(ZeroDivisionError):
    """No paths to average over (e.g. closed paths of length 1)."""


#: Closed Deutsch paths of length n, and open ones (the Motzkin numbers).
closed_count, open_count = coeff_closed, coeff_open


def height_total(n: int, family: str = "closed") -> int:
    """Sum of heights over all closed or open Deutsch paths of length n.

    By Lagrange inversion the z^n coefficient of height_sum_closed (s = 1) or
    height_sum_open (s = 2) is sum_k W[k] * c[n+s-k], with W[k] = T(k) -
    2T(k-s) + T(k-2s) = [v^k] (1-v^s)^2 (1+v+v^2)^n over the trinomial row T
    and c[m] = #{d >= 3 : d | m}.  Summed by parts it is sum_{j<=n} T(j) *
    w[j], w[j] = c[n+s-j] - 2c[n-j] + c[n-s-j] with c zero below index 0:
    each T(j) is added into the bucket of its weight, and each bucket is
    multiplied once, so n + 1 big-integer additions and one multiplication
    per distinct weight.
    """
    if family not in ("closed", "open"):
        raise ValueError("family must be 'closed' or 'open'")
    if n < 0:
        raise ValueError("length must be nonnegative")
    s = 1 if family == "closed" else 2
    c = _divisor_sieve(n + s)  # c[m] = c_m through at least m = n + s
    # j runs from n down to 0: a, b, d = c_(n+s-j), c_(n-j), c_(n-s-j) read c forwards
    # (d behind s zeros, as c_m = 0 for m < 0), and T(j) = T(2n-j) comes from the row's
    # upper half, whose n + 1 entries end the zip.  Each bucket opens with its largest
    # entry and keeps about that size, so an addition can reuse the block the previous
    # one freed and the heap does not grow.
    upper = islice(trinomial_row(n), n, None)
    buckets: dict[int, int] = {}
    for a, b, d, t in zip(islice(c, s, None), c, chain((0,) * s, c), upper):
        w = a - 2 * b + d
        if w:
            buckets[w] = buckets.get(w, 0) + t
    return sum(w * total for w, total in buckets.items())


def area_total(n: int) -> int:
    """Sum of areas over all closed Deutsch paths of length n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return coeff_of_z(area_gf(), n)


def avg_height(n: int, family: str = "closed") -> Fraction:
    """Average height of length-n paths; exact."""
    if n < 1:
        raise ValueError("length must be at least 1")
    count = closed_count(n) if family == "closed" else open_count(n)
    if count == 0:
        raise ZeroCount(f"no {family} paths of length {n}")
    return Fraction(height_total(n, family), count)


def avg_area(n: int) -> Fraction:
    """Average area of closed length-n paths; exact."""
    if n < 1:
        raise ValueError("length must be at least 1")
    count = closed_count(n)
    if count == 0:
        raise ZeroCount(f"no closed paths of length {n}")
    return Fraction(area_total(n), count)


def avg_elevation(n: int) -> Fraction:
    """Average level along closed length-n paths: avg_area(n) / n."""
    return avg_area(n) / n


@dataclass(frozen=True)
class ComparisonRow:
    """Exact value vs asymptotic law at one n; exact never uses the law."""

    law: str
    n: int
    exact: Fraction
    asymptotic: float
    ratio: float


@dataclass(frozen=True)
class AsymptoticLaw:
    """A leading-order law paired with the exact quantity it approximates."""

    name: str
    exact: Callable[[int], Fraction]
    approx: Callable[[int], float]
    description: str

    def _law_at(self, n: int) -> float:
        """approx(n), refused unless a positive finite float."""
        try:
            a = self.approx(n)
        except OverflowError:
            a = math.inf
        if not (a > 0 and math.isfinite(a)):
            raise OverflowError(f"law {self.name} not evaluable in floats at n={n}")
        return a

    def ratio(self, n: int) -> float:
        """exact / approx as a float; exact arithmetic until the last step."""
        return self.compare(n).ratio

    def compare(self, n: int) -> ComparisonRow:
        """Exact value, law and their ratio at n, computing the exact value once."""
        exact = Fraction(self.exact(n))
        a = self._law_at(n)
        return ComparisonRow(self.name, n, exact, a, float(exact / Fraction(a)))


def _count_law(scale: float) -> Callable[[int], float]:
    return lambda n: scale * (3.0**n) * n**-1.5


LAWS: dict[str, AsymptoticLaw] = {
    law.name: law
    for law in (
        AsymptoticLaw(
            "avg_height_closed",
            lambda n: avg_height(n, "closed"),
            lambda n: 2 * math.sqrt(math.pi * n / 3),
            "average height of closed paths ~ 2*sqrt(pi*n/3)",
        ),
        AsymptoticLaw(
            "avg_height_open",
            lambda n: avg_height(n, "open"),
            lambda n: 2 * math.sqrt(math.pi * n / 3),
            "average height of open paths ~ 2*sqrt(pi*n/3)",
        ),
        AsymptoticLaw(
            "closed_height_vs_motzkin_height",
            lambda n: avg_height(n, "closed"),
            lambda n: math.sqrt(math.pi * n / 3),
            "closed average height over the Motzkin height law sqrt(pi*n/3); ratio -> 2",
        ),
        AsymptoticLaw(
            "motzkin_count",
            lambda n: Fraction(open_count(n)),
            _count_law(9 / (2 * math.sqrt(3 * math.pi))),
            "Motzkin numbers ~ 9/(2*sqrt(3*pi)) * 3^n * n^(-3/2)",
        ),
        AsymptoticLaw(
            "closed_count",
            lambda n: Fraction(closed_count(n)),
            _count_law(9 / (8 * math.sqrt(3 * math.pi))),
            "closed-path counts ~ 9/(8*sqrt(3*pi)) * 3^n * n^(-3/2)",
        ),
        AsymptoticLaw(
            "area_total",
            lambda n: Fraction(area_total(n)),
            lambda n: 0.375 * 3.0**n,
            "total area of closed paths ~ (3/8) * 3^n",
        ),
        AsymptoticLaw(
            "avg_area",
            avg_area,
            lambda n: math.sqrt(math.pi / 3) * n**1.5,
            "average area ~ sqrt(pi/3) * n^(3/2)",
        ),
        AsymptoticLaw(
            "avg_elevation",
            avg_elevation,
            lambda n: math.sqrt(math.pi * n / 3),
            "average elevation ~ sqrt(pi*n/3)",
        ),
    )
}


def asymptotic_report(
    ns: list[int], law_names: list[str] | None = None
) -> list[ComparisonRow]:
    """Comparison rows for the requested lengths and laws."""
    names = list(LAWS) if law_names is None else law_names
    return [LAWS[name].compare(n) for name in names for n in ns]

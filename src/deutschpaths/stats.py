"""Exact height/area statistics and their asymptotic comparisons.

Exact values come from trinomial-coefficient extraction only (never from
an asymptotic law): counts are two-term trinomial differences, the total
height of length-n paths is one dot product of a trinomial row's second
differences with the divisor counts c[m] = #{d >= 3 : d | m}, and the total
area is a single z-coefficient of the area generating function.  Everything
stays integer/Fraction until the final ratio.

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
from typing import Callable

from .algebra import coeff_of_z, trinomial_row
from .formulas import area_gf, coeff_closed, coeff_open, divisor_counts


class ZeroCount(ZeroDivisionError):
    """No paths to average over (e.g. closed paths of length 1)."""


def closed_count(n: int) -> int:
    """Closed Deutsch paths of length n."""
    return coeff_closed(n)


def open_count(n: int) -> int:
    """Open Deutsch paths of length n (the Motzkin number)."""
    return coeff_open(n)


def height_total(n: int, family: str = "closed") -> int:
    """Sum of heights over all closed or open Deutsch paths of length n.

    The dot product sum_k W_s[k] * c[n+s-k], with s = 1 (closed) or 2 (open),
    W_s[k] = T(k) - 2T(k-s) + T(k-2s) = [v^k] (1-v^s)^2 (1+v+v^2)^n over the
    trinomial row T, and c[m] = #{d >= 3 : d | m}: by Lagrange inversion, the
    z^n coefficient of height_sum_closed or height_sum_open.
    """
    if family not in ("closed", "open"):
        raise ValueError("family must be 'closed' or 'open'")
    if n < 0:
        raise ValueError("length must be nonnegative")
    s = 1 if family == "closed" else 2
    t = (0,) * (2 * s) + trinomial_row(n)  # t[k + 2s] = T(k), and T(k) = 0 for k < 0
    c = divisor_counts(n + s)
    return sum((t[k + 2 * s] - 2 * t[k + s] + t[k]) * c[n + s - k] for k in range(n + 1))


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
        a = self._law_at(n)
        return float(Fraction(self.exact(n)) / Fraction(a))

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

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

The asymptotic side carries the leading-order laws, each stored as its
three numbers in the one form scale * base^n * n^power

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

A ratio is taken exact-first: the exact value is divided by base^n as a
Fraction, and only the quotient becomes a float.  So it is finite at every
n, also from n = 647 on, where 3^n leaves float range; the law's own value
reads math.inf once it leaves float range too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, NamedTuple

from .algebra import coeff_of_z, trinomial_row
from .formulas import _divisor_sieve, area_gf, coeff_closed, coeff_open


class ZeroCount(ZeroDivisionError):
    """No paths to average over (e.g. closed paths of length 1)."""


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
    count = coeff_closed(n) if family == "closed" else coeff_open(n)
    if count == 0:
        raise ZeroCount(f"no {family} paths of length {n}")
    return Fraction(height_total(n, family), count)


def avg_area(n: int) -> Fraction:
    """Average area of closed length-n paths; exact."""
    if n < 1:
        raise ValueError("length must be at least 1")
    count = coeff_closed(n)
    if count == 0:
        raise ZeroCount(f"no closed paths of length {n}")
    return Fraction(area_total(n), count)


def avg_elevation(n: int) -> Fraction:
    """Average level along closed length-n paths: avg_area(n) / n."""
    return avg_area(n) / n


class ComparisonRow(NamedTuple):
    """Exact value vs asymptotic law at one n; exact never uses the law."""

    law: str
    n: int
    exact: Fraction
    asymptotic: float
    ratio: float


class AsymptoticLaw(NamedTuple):
    """A leading-order law scale * base^n * n^power, paired with the exact
    quantity it approximates."""

    name: str
    exact: Callable[[int], Fraction]
    scale: float
    base: int
    power: float
    description: str

    def _law(self, n: int) -> Fraction:
        """The law at n as a Fraction: base^n exactly, times the float scale * n^power."""
        return self.base**n * Fraction(self.scale * n**self.power)

    def approx(self, n: int) -> float:
        """scale * base^n * n^power as a float, or math.inf past float range."""
        try:
            return float(self._law(n))
        except OverflowError:
            return math.inf

    def ratio(self, n: int) -> float:
        """exact / approx as a float; exact arithmetic until the last step."""
        return self.compare(n).ratio

    def compare(self, n: int) -> ComparisonRow:
        """Exact value, law and their ratio at n, computing the exact value once.

        The ratio divides the exact value by base^n as a Fraction before it
        becomes a float, so it is finite at every n, past float range too.
        """
        exact = Fraction(self.exact(n))
        return ComparisonRow(self.name, n, exact, self.approx(n), float(exact / self._law(n)))


_SQRT_PI_3, _SQRT_3PI = math.sqrt(math.pi / 3), math.sqrt(3 * math.pi)

#: Each law: name, exact value, scale, base, power, description.
LAWS: dict[str, AsymptoticLaw] = {
    row[0]: AsymptoticLaw(*row)
    for row in (
        ("avg_height_closed", lambda n: avg_height(n, "closed"), 2 * _SQRT_PI_3, 1, 0.5,
         "average height of closed paths ~ 2*sqrt(pi*n/3)"),
        ("avg_height_open", lambda n: avg_height(n, "open"), 2 * _SQRT_PI_3, 1, 0.5,
         "average height of open paths ~ 2*sqrt(pi*n/3)"),
        ("closed_height_vs_motzkin_height", lambda n: avg_height(n, "closed"), _SQRT_PI_3, 1, 0.5,
         "closed average height over the Motzkin height law sqrt(pi*n/3); ratio -> 2"),
        ("motzkin_count", lambda n: Fraction(coeff_open(n)), 9 / (2 * _SQRT_3PI), 3, -1.5,
         "Motzkin numbers ~ 9/(2*sqrt(3*pi)) * 3^n * n^(-3/2)"),
        ("closed_count", lambda n: Fraction(coeff_closed(n)), 9 / (8 * _SQRT_3PI), 3, -1.5,
         "closed-path counts ~ 9/(8*sqrt(3*pi)) * 3^n * n^(-3/2)"),
        ("area_total", lambda n: Fraction(area_total(n)), 0.375, 3, 0,
         "total area of closed paths ~ (3/8) * 3^n"),
        # avg_area, like avg_height, is looked up at each call, where a patch or a tracer finds it
        ("avg_area", lambda n: avg_area(n), _SQRT_PI_3, 1, 1.5,
         "average area ~ sqrt(pi/3) * n^(3/2)"),
        ("avg_elevation", avg_elevation, _SQRT_PI_3, 1, 0.5,
         "average elevation ~ sqrt(pi*n/3)"),
    )
}


def asymptotic_report(
    ns: list[int], law_names: list[str] | None = None
) -> list[ComparisonRow]:
    """Comparison rows for the requested lengths and laws."""
    names = list(LAWS) if law_names is None else law_names
    return [LAWS[name].compare(n) for name in names for n in ns]

"""Exact statistics and asymptotic-law comparisons."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest

from deutschpaths.algebra import _normal_form, trinomial_row
from deutschpaths.formulas import formula
from deutschpaths.paths import PathFamilyQuery, count_dp, enumerate_paths, total_height_dp
from deutschpaths.stats import (
    LAWS,
    ZeroCount,
    area_total,
    asymptotic_report,
    avg_area,
    avg_elevation,
    avg_height,
    closed_count,
    height_total,
    open_count,
)


def brute_totals(n, family):
    end = 0 if family == "closed" else None
    paths = enumerate_paths(PathFamilyQuery("deutsch", n, end_level=end))
    return (
        sum(p.height for p in paths),
        sum(p.area for p in paths),
        sum(p.end_level for p in paths),
    )


def lacunary_height_total(n, family):
    """The former route: #(height >= h) summed over h, each a lacunary sum
    of W[k] over k = start(h) - j(h+2)."""
    if n == 0:
        return 0
    row = trinomial_row(n)

    def t(k):
        return row[k] if 0 <= k <= 2 * n else 0

    if family == "closed":
        weight = lambda k: t(k) - 2 * t(k - 1) + t(k - 2)
        start = lambda h: n - h - 1
    else:
        weight = lambda k: t(k) - 2 * t(k - 2) + t(k - 4)
        start = lambda h: n - h
    total = 0
    for h in range(1, n + 1):
        k = start(h)
        if k < 0:
            break
        while k >= 0:
            total += weight(k)
            k -= h + 2
    return total


class TestCounts:
    def test_sequences(self):
        assert [closed_count(n) for n in range(10)] == [1, 0, 1, 1, 3, 6, 15, 36, 91, 232]
        assert [open_count(n) for n in range(8)] == [1, 1, 2, 4, 9, 21, 51, 127]

    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_counts_match_dp(self, n):
        assert closed_count(n) == count_dp(PathFamilyQuery("deutsch", n, end_level=0))
        assert open_count(n) == count_dp(PathFamilyQuery("deutsch", n))


class TestTotals:
    @pytest.mark.parametrize("n", range(9))
    def test_height_totals_match_enumeration(self, n):
        hc, _, _ = brute_totals(n, "closed")
        ho, _, _ = brute_totals(n, "open")
        assert height_total(n, "closed") == hc
        assert height_total(n, "open") == ho

    @pytest.mark.parametrize("family", ["closed", "open"])
    def test_height_totals_match_dp(self, family):
        for n in range(61):
            assert height_total(n, family) == total_height_dp(n, family), n

    @pytest.mark.parametrize("n", [1000, 3001, 9481])
    @pytest.mark.parametrize("family", ["closed", "open"])
    def test_height_totals_match_lacunary_double_sum(self, n, family):
        assert height_total(n, family) == lacunary_height_total(n, family)

    @pytest.mark.parametrize("n", range(9))
    def test_area_total_matches_enumeration(self, n):
        _, ac, _ = brute_totals(n, "closed")
        assert area_total(n) == ac

    def test_first_height_totals(self):
        assert [height_total(n, "closed") for n in range(7)] == [0, 0, 1, 2, 6, 16, 44]
        assert [height_total(n, "open") for n in range(7)] == [0, 1, 3, 8, 22, 60, 165]

    def test_first_area_totals(self):
        assert [area_total(n) for n in range(7)] == [0, 0, 1, 3, 12, 39, 129]

    def test_large_n_runs_fast(self):
        # the W-table route has to be usable at n = 1000
        assert height_total(1000, "closed") > 0
        assert area_total(400) > 0

    def test_bad_family(self):
        with pytest.raises(ValueError):
            height_total(5, "reversed")


class TestAverages:
    def test_exact_values(self):
        # n=4: three closed paths with heights 3, 2, 1 and areas 6, 4, 2
        assert avg_height(4, "closed") == Fraction(6, 3)
        assert avg_area(4) == Fraction(12, 3)

    def test_avg_elevation_is_area_per_step(self):
        for n in range(2, 9):
            if closed_count(n) == 0:
                continue
            assert avg_elevation(n) == avg_area(n) / n
            _, ac, _ = brute_totals(n, "closed")
            assert avg_elevation(n) == Fraction(ac, n * closed_count(n))

    def test_rejects_n_below_one(self):
        for fn in (lambda: avg_height(0), lambda: avg_area(-1), lambda: avg_elevation(0)):
            with pytest.raises(ValueError):
                fn()

    def test_zero_count_raises(self):
        with pytest.raises(ZeroCount):
            avg_height(1, "closed")
        with pytest.raises(ZeroCount):
            avg_area(1)


class TestLaws:
    def test_catalog_names(self):
        assert set(LAWS) == {
            "avg_height_closed",
            "avg_height_open",
            "closed_height_vs_motzkin_height",
            "motzkin_count",
            "closed_count",
            "area_total",
            "avg_area",
            "avg_elevation",
        }

    def test_ratios_are_finite_floats(self):
        for name, law in LAWS.items():
            r = law.ratio(50)
            assert isinstance(r, float) and r == r and abs(r) != float("inf"), name

    def test_height_ratio_improves_with_n(self):
        law = LAWS["avg_height_closed"]
        assert abs(law.ratio(1000) - 1) < abs(law.ratio(100) - 1)
        assert 0.5 < law.ratio(1000) < 1.5

    def test_count_laws_near_one_at_400(self):
        assert 0.8 < LAWS["motzkin_count"].ratio(400) < 1.25
        assert 0.8 < LAWS["closed_count"].ratio(400) < 1.25
        assert 0.8 < LAWS["area_total"].ratio(400) < 1.25

    def test_factor_of_two_separation(self):
        # closed paths are about twice as high as Motzkin paths of equal length
        r = LAWS["closed_height_vs_motzkin_height"].ratio(1000)
        assert 1.5 < r < 2.5

    def test_float_range_guard(self):
        # 3^n leaves float range at n = 647; the guard must say so
        with pytest.raises(OverflowError, match="not evaluable"):
            LAWS["closed_count"].ratio(647)
        assert LAWS["closed_count"].ratio(646) > 0


def b_at_one_third(fid: str) -> Fraction:
    """B(1/3) in F = A(z) + B(z)*sqrt(1-2z-3z^2), read from the normal form
    F = z^e*(p + q*z*v)/norm with z*v = (1 - z - S)/2: B = -z^e*q/(2*norm)."""
    e, _, q, norm = _normal_form(formula(fid))
    third = Fraction(1, 3)
    return -third**e * Fraction(q(third)) / (2 * norm(third))


class TestDerivedConstants:
    """Near z = 1/3, S ~ (2/sqrt(3))*sqrt(1-3z), so a B regular at 1/3 gives
    [z^n]F ~ -B(1/3)/sqrt(3*pi) * 3^n * n^(-3/2) (Flajolet and Sedgewick,
    Analytic Combinatorics, Thm VI.1)."""

    @pytest.mark.parametrize(
        "law, fid, b",
        [
            ("motzkin_count", "motzkin_M", Fraction(-9, 2)),
            ("closed_count", "phi0_limit", Fraction(-9, 8)),
        ],
    )
    def test_count_law_constants(self, law, fid, b):
        assert b_at_one_third(fid) == b
        scale = LAWS[law].approx(1) / 3  # the law is scale * 3^n * n^(-3/2)
        assert math.isclose(scale, -b / math.sqrt(3 * math.pi), rel_tol=1e-12)

    def test_area_norm_vanishes_at_one_third(self):
        # a pole of B at 1/3: the (3/8)*3^n law of the total area, not n^(-3/2)
        assert _normal_form(formula("area_A"))[3](Fraction(1, 3)) == 0


class TestReport:
    def test_rows(self):
        rows = asymptotic_report([10, 50], ["avg_area", "motzkin_count"])
        assert len(rows) == 4
        assert {r.law for r in rows} == {"avg_area", "motzkin_count"}
        assert {r.n for r in rows} == {10, 50}
        for r in rows:
            assert r.ratio == LAWS[r.law].ratio(r.n)

    def test_unknown_law_rejected(self):
        with pytest.raises(KeyError):
            asymptotic_report([10], ["no_such_law"])

    def test_invalid_length_names_the_length(self):
        # the exact value is evaluated before the law, so its own error comes first
        with pytest.raises(ValueError, match="length must be at least 1"):
            asymptotic_report([0], ["avg_height_closed"])

    def test_exact_value_computed_once_per_row(self, monkeypatch):
        law = LAWS["avg_area"]
        calls = []

        def exact(n):
            calls.append(n)
            return law.exact(n)

        monkeypatch.setitem(LAWS, "avg_area", dataclasses.replace(law, exact=exact))
        rows = asymptotic_report([10, 50], ["avg_area"])
        assert calls == [10, 50]
        assert [r.exact for r in rows] == [law.exact(10), law.exact(50)]

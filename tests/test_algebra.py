"""Exact arithmetic: Poly/RatFn normalization, series rules, substitution."""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deutschpaths import algebra
from deutschpaths.algebra import (
    KERNEL,
    V,
    DivisionByZero,
    DivisorNotUnit,
    PoleAtOrigin,
    Poly,
    RatFn,
    Series,
    coeff_of_z,
    compose_with_v,
    expand_in_v,
    expand_in_z,
    load_cache,
    poly_gcd,
    save_cache,
    trinomial,
    trinomial_row,
    v_of_z,
)
from deutschpaths.formulas import combinatorial_ids, formula
from deutschpaths.paths import PathFamilyQuery, _prefix, count_dp

MOTZKIN = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188)

small_polys = st.builds(
    Poly, st.lists(st.integers(-6, 6), min_size=0, max_size=6)
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())
rational_polys = st.builds(
    Poly,
    st.lists(
        st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6)),
        min_size=0,
        max_size=5,
    ),
)


def reference_gcd(a: Poly, b: Poly) -> Poly:
    """Euclid over Fraction, then primitive with the low coefficient positive:
    the gcd before the integer kernel, kept as the reference."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    fracs = [Fraction(c) for c in a.coeffs]
    denom_lcm = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom_lcm) for f in fracs]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    if next(c for c in ints if c) < 0:
        ints = [-c for c in ints]
    return Poly(ints)


def reference_canonical(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """(num, den) over their reference gcd, den made monic, by Fraction division."""
    if num.is_zero():
        return Poly(), Poly((1,))
    g = reference_gcd(num, den)
    (num, r), (den, s) = divmod(num, g), divmod(den, g)
    assert r.is_zero() and s.is_zero()
    lead = den.leading()
    return num / lead, den / lead


def typed(p: Poly) -> list:
    return [(type(c), c) for c in p.coeffs]


class TestPoly:
    def test_canonical_trailing_zeros(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly(()).degree == -1
        assert Poly((0, 0)).is_zero()

    def test_fraction_coefficients_collapse_to_int(self):
        p = Poly((Fraction(4, 2), Fraction(1, 3)))
        assert p.coeffs == (2, Fraction(1, 3))

    @pytest.mark.parametrize(
        "bad", [0.5, Decimal("0.5"), 0.5j], ids=["float", "Decimal", "complex"]
    )
    @pytest.mark.parametrize("build", [Poly, Series, RatFn])
    def test_inexact_coefficients_refused(self, build, bad):
        # Poly and Series used to keep a float, so expand_in_z answered
        # in floats; RatFn(0.5) died with an AttributeError
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            build(bad) if build is RatFn else build((bad, 1))
        with pytest.raises(TypeError):
            RatFn(Poly((1,)), bad)

    def test_constants_hash_as_their_scalars(self):
        for c in (0, 3, -2, Fraction(1, 3)):
            assert Poly((c,)) == c and hash(Poly((c,))) == hash(c)
            assert RatFn(c) == c and hash(RatFn(c)) == hash(c)
        assert len({RatFn(3), 3, Poly((3,))}) == 1
        assert RatFn(V) == V and hash(RatFn(V)) == hash(V)
        assert len({RatFn(KERNEL, Poly((2,))), KERNEL / 2}) == 1

    def test_arithmetic(self):
        p, q = Poly((1, 1)), Poly((1, -1))
        assert p * q == Poly((1, 0, -1))
        assert p + q == Poly((2,))
        assert p - p == Poly()
        assert (1 - Poly.monomial(1, 3)) == Poly((1, 0, 0, -1))
        assert Poly.geometric(3) == Poly((1, 1, 1))

    def test_divmod_exact(self):
        num = Poly((1, 0, 0, 0, 0, 0, -1))  # 1 - v^6
        q, r = divmod(num, Poly((1, 0, -1)))
        assert r.is_zero() and q == Poly((1, 0, 1, 0, 1))
        assert num.exact_div(Poly((1, 0, 1, 0, 1))) == Poly((1, 0, -1))
        with pytest.raises(ValueError):
            Poly((1, 1, 1)).exact_div(Poly((1, 1)))

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZero):
            divmod(Poly((1,)), Poly())

    def test_evaluation(self):
        p = KERNEL
        assert p(2) == 7
        assert p(Fraction(1, 2)) == Fraction(7, 4)
        assert p(V) == KERNEL  # composition with identity
        assert p(Series((0, 1, 0))).coeffs == (1, 1, 1)
        assert p(RatFn(V, KERNEL)) == RatFn(KERNEL**2 + V * KERNEL + V**2, KERNEL**2)

    def test_pow(self):
        assert Poly((1, 1)) ** 3 == Poly((1, 3, 3, 1))
        assert Poly((1, 1)) ** 0 == Poly((1,))

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=100, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)

    @given(small_polys, nonzero_polys)
    @settings(max_examples=100, deadline=None)
    def test_division_identity(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


class TestGcd:
    def test_cyclotomic_example(self):
        g = poly_gcd(Poly((1, 0, 0, 0, -1)), Poly((1, 0, 0, 0, 0, 0, -1)))
        assert g == Poly((1, 0, -1))  # 1 - v^2

    def test_normalization_is_primitive_with_positive_low_coeff(self):
        g = poly_gcd(Poly((-2, 0, 2)), Poly((-4, 4)))
        assert g == Poly((1, -1))  # content stripped, low coefficient positive

    @given(rational_polys, rational_polys, rational_polys)
    @example(Poly(), Poly(), Poly((1,)))  # zero operands
    @example(Poly(), Poly((3, -6)), Poly((1,)))
    @example(Poly((1, -3)), Poly((2, 0, -5)), Poly((1,)))  # negative leading coefficients
    @example(Poly((4, 6)), Poly((Fraction(3, 2), 9)), Poly((6, 6)))  # content > 1
    @example(Poly((1, -1)), Poly((2,)), Poly((Fraction(1, 2), -1, 3)) * KERNEL)  # degree 4
    @settings(max_examples=200, deadline=None)
    def test_integer_kernel_matches_reference(self, a, b, c):
        num, den = a * c, b * c
        assert typed(poly_gcd(num, den)) == typed(reference_gcd(num, den))
        if not den.is_zero():
            f = RatFn(num, den)
            ref_num, ref_den = reference_canonical(num, den)
            assert (typed(f.num), typed(f.den)) == (typed(ref_num), typed(ref_den))
        if not c.is_zero():
            assert typed(num.exact_div(c)) == typed(a)
        if not b.is_zero() and not (a % b).is_zero():
            with pytest.raises(ValueError):
                a.exact_div(b)

    @given(small_polys, small_polys)
    @settings(max_examples=100, deadline=None)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
        else:
            assert (a % g).is_zero() and (b % g).is_zero()


class TestRatFn:
    def test_canonical_form(self):
        f = RatFn(Poly((1, 0, 0, -1)), Poly((1, -1)))  # (1-v^3)/(1-v)
        assert f.is_polynomial() and f.as_polynomial() == KERNEL
        # denominator is made monic
        g = RatFn(KERNEL, Poly((2, 2)))
        assert g.den == Poly((1, 1))
        assert g.num == Poly((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))

    def test_gcd_reduction(self):
        f = RatFn(Poly((1, 1)) * KERNEL, Poly((1, 1)) ** 2)
        assert f == RatFn(KERNEL, Poly((1, 1)))

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            RatFn(Poly((1,)), Poly())
        with pytest.raises(DivisionByZero):
            RatFn(Poly((1,))) / RatFn(Poly())

    def test_arithmetic_and_pow(self):
        f = RatFn(KERNEL, Poly((1, 1)))
        assert f - f == RatFn(Poly())
        assert f / f == RatFn(Poly((1,)))
        assert f**-2 == RatFn(Poly((1, 1)) ** 2, KERNEL**2)
        assert (f + 1) * Poly((1, 1)) == RatFn(KERNEL + Poly((1, 1)))

    def test_evaluate(self):
        f = RatFn(KERNEL, Poly((1, 1)))
        assert f(Fraction(1, 2)) == Fraction(7, 6)
        with pytest.raises(DivisionByZero):
            f(-1)

    @pytest.mark.parametrize(
        "bad", [0.1, Decimal("0.1"), 0.1j], ids=["float", "Decimal", "complex"]
    )
    def test_inexact_evaluation_points_refused(self, bad):
        # f(0.1) used to return a Fraction computed from the binary float
        # 0.1, and Poly((1, 1))(0.5) the float 1.5
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            RatFn(KERNEL, Poly((1, 1)))(bad)
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            Poly((1, 1))(bad)

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=100, deadline=None)
    def test_self_division_is_one(self, a, b):
        f = RatFn(a, b)
        assert f / f == RatFn(Poly((1,)))


def dense_divide(a, b):
    """The former division loop: every divisor term up to the order, zero or not."""
    n = min(a.order, b.order)
    inv0 = 1 / Fraction(b.coeffs[0])
    out = [0] * (n + 1)
    for i in range(n + 1):
        acc = a.coeffs[i]
        for j in range(1, i + 1):
            cb = b.coeffs[j]
            if cb:
                acc -= cb * out[i - j]
        out[i] = acc * inv0
    return tuple(int(c) if c.denominator == 1 else c for c in map(Fraction, out))


class TestSeries:
    def test_order_tracking(self):
        s = Series((1, 2, 3))
        assert s.order == 2 and s.coeff(2) == 3 and s.coeff(-1) == 0
        with pytest.raises(IndexError):
            s.coeff(3)
        with pytest.raises(IndexError):
            s.truncate(5)
        assert s.truncate(1).coeffs == (1, 2)

    def test_min_order_rule(self):
        a, b = Series((1, 2, 3)), Series((1, 1))
        assert (a + b).order == 1
        assert (a * b).order == 1
        assert (a - b).order == 1
        assert (a / b).order == 1
        # scalars do not truncate
        assert (a * 5).order == 2 and (a + 5).order == 2

    def test_multiplication(self):
        a = Series((1, 1, 1))
        assert (a * a).coeffs == (1, 2, 3)
        assert (a * 0).coeffs == (0, 0, 0)

    def test_division_requires_unit(self):
        with pytest.raises(DivisorNotUnit):
            Series((1, 2)) / Series((0, 1))
        one = Series((1, 0, 0, 0))
        geo = one / Series((1, -1, 0, 0))
        assert geo.coeffs == (1, 1, 1, 1)

    @given(
        st.lists(st.integers(-50, 50) | st.fractions(max_denominator=9), min_size=1, max_size=40),
        st.integers(-3, 3).filter(bool) | st.fractions(max_denominator=5).filter(bool),
        st.dictionaries(st.integers(1, 45), st.integers(-9, 9) | st.fractions(max_denominator=7),
                        max_size=4),
        st.integers(0, 45),
    )
    @settings(max_examples=150, deadline=None)
    def test_division_matches_dense_loop(self, num, lead, sparse, order):
        # divisors with a few nonzero terms, as a polynomial denominator gives
        den = [lead] + [sparse.get(j, 0) for j in range(1, order + 1)]
        a, b = Series(num), Series(den)
        assert (a / b).coeffs == dense_divide(a, b)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_division_inverts_multiplication(self, coeffs):
        b = Series([1] + coeffs)  # unit constant term
        a = Series([2, 0, 1] + coeffs)
        n = min(a.order, b.order)
        assert ((a * b) / b).coeffs == a.coeffs[: n + 1]


class TestSubstitution:
    def test_v_series_is_shifted_motzkin(self):
        assert v_of_z(10).coeffs == (0,) + MOTZKIN[:10]

    def test_defining_equation(self):
        n = 60
        vv = v_of_z(n)
        z = Series((0, 1) + (0,) * (n - 1))
        assert z * (1 + vv + vv * vv) == vv

    def test_closed_form_square_identity(self):
        # v = (1 - z - sqrt(1-2z-3z^2))/(2z) rearranges to (2zv+z-1)^2 = 1-2z-3z^2
        n = 30
        vv = v_of_z(n)
        z = Series((0, 1) + (0,) * (n - 1))
        assert ((2 * z * vv + z - 1) ** 2).coeffs == (1, -2, -3) + (0,) * (n - 2)

    def test_substitution_roundtrip_order_200(self):
        back = expand_in_z(RatFn(V, KERNEL), 200)
        assert back.coeffs == (0, 1) + (0,) * 199

    def test_motzkin_expansion(self):
        assert expand_in_z(RatFn(KERNEL), 10).coeffs == MOTZKIN

    def test_closed_count_expansion(self):
        s = expand_in_z(RatFn(KERNEL, Poly((1, 1))), 10)
        assert s.coeffs == (1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603)

    def test_constant_expansion(self):
        assert expand_in_z(RatFn(Poly((1,))), 5).coeffs == (1, 0, 0, 0, 0, 0)

    def test_pole_at_origin(self):
        with pytest.raises(PoleAtOrigin):
            expand_in_z(RatFn(Poly((1,)), V), 5)
        with pytest.raises(PoleAtOrigin):
            expand_in_v(RatFn(Poly((1,)), V), 5)
        with pytest.raises(PoleAtOrigin):
            coeff_of_z(RatFn(Poly((1,)), V), 5)

    def test_motzkin_functional_equation(self):
        n = 30
        m = expand_in_z(RatFn(KERNEL), n)
        z = Series((0, 1) + (0,) * (n - 1))
        assert 1 + z * m + z * z * m * m == m

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        st.integers(1, 4),
        st.lists(st.integers(-4, 4), min_size=0, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_pipelines_agree(self, num, den0, den_rest):
        # Lagrange inversion against Series arithmetic on v(z), which
        # test_defining_equation pins independently
        f = RatFn(Poly(num), Poly([den0] + den_rest))
        vv = v_of_z(15)
        assert expand_in_z(f, 15) == f.num(vv) / f.den(vv)
        assert compose_with_v(num, 15) == Poly(num)(vv)

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        st.integers(1, 4),
        st.lists(st.integers(-4, 4), min_size=0, max_size=4),
        st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_coefficient_matches_series(self, num, den0, den_rest, n):
        f = RatFn(Poly(num), Poly([den0] + den_rest))
        assert coeff_of_z(f, n) == expand_in_z(f, 20).coeff(n)

    def test_single_coefficient_matches_dp_at_large_n(self):
        f = RatFn(KERNEL, Poly((1, 1)))
        assert coeff_of_z(f, 300) == count_dp(PathFamilyQuery("deutsch", 300, end_level=0))
        closed = PathFamilyQuery("deutsch", 400, end_level=0)
        assert list(expand_in_z(f, 400).coeffs) == _prefix(closed)
        assert list(expand_in_z(formula("area_A"), 400).coeffs) == _prefix(closed, "area")


def typed_coeffs(s: Series) -> list:
    return [(type(c), c) for c in s.coeffs]


def lagrange_route(f, order: int) -> Series:
    """The production Lagrange route of compose_with_v, on the v-expansion."""
    return compose_with_v(expand_in_v(f, order).coeffs, order)


ratfn_coeffs = st.lists(
    st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6)), max_size=8
)
nonzero_coeff = st.one_of(
    st.integers(-6, 6).filter(bool), st.fractions(-6, 6, max_denominator=6).filter(bool)
)


class TestNormalForm:
    """expand_in_z's quadratic normal form against compose_with_v's Lagrange route."""

    @pytest.mark.parametrize(
        "fid",
        [str(f) for f in combinatorial_ids(6, 0) if not f.name.startswith("height_sum")],
    )
    def test_catalog_matches_lagrange(self, fid):
        f = formula(fid)
        assert typed_coeffs(expand_in_z(f, 200)) == typed_coeffs(lagrange_route(f, 200))

    @pytest.mark.parametrize(
        "fid", ["area_A", "phi(12,6)", "psi(7,3)", "phi(30,0)", "reversed_limit_formal"]
    )
    def test_long_expansions_match_lagrange(self, fid):
        f = formula(fid)
        assert typed_coeffs(expand_in_z(f, 1000)) == typed_coeffs(lagrange_route(f, 1000))

    @given(ratfn_coeffs, nonzero_coeff, ratfn_coeffs, st.integers(0, 40))
    @example([1, 2, 3, 4, 5, 6], 1, [1], 30)  # numerator degree above the denominator's
    @example([2], 3, [0, 0, 0, 0, 1, -1], 30)  # denominator degree above the numerator's
    @example([], 1, [1, 1], 5)  # zero numerator
    @example([0, Fraction(1, 2), 0, 0, 0, 0, 0, 7], Fraction(-2, 3), [], 40)
    @settings(max_examples=150, deadline=None)
    def test_random_ratfns_match_lagrange(self, num, den0, den_rest, order):
        for f in (RatFn(Poly(num), Poly([den0] + den_rest)), Poly(num)):
            assert typed_coeffs(expand_in_z(f, order)) == typed_coeffs(lagrange_route(f, order))

    def test_refusals(self):
        with pytest.raises(PoleAtOrigin):
            expand_in_z(RatFn(KERNEL, V - V**2), 5)
        for f in (formula("area_A"), KERNEL):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                expand_in_z(f, -1)

    def test_sqrt_series(self):
        s = algebra._sqrt_series(60)
        square = Series(s) * Series(s)
        assert square.coeffs == (1, -2, -3) + (0,) * 58
        assert s[2:13] == [-2 * m for m in MOTZKIN]  # S = 1 - z - 2z^2*M(z)


def full_row(n: int) -> tuple[int, ...]:
    """The trinomial recurrence run over the whole row, no mirror: the row
    builder before it stopped at the middle, kept as the reference."""
    row = [0] * (2 * n + 1)
    row[0] = 1
    for k in range(2 * n):
        num = (n - k) * row[k] + ((2 * n - k + 1) * row[k - 1] if k >= 1 else 0)
        q, r = divmod(num, k + 1)
        assert r == 0
        row[k + 1] = q
    return tuple(row)


class TestTrinomials:
    def test_half_row_against_direct_expansion(self):
        for n in range(61):
            assert algebra._compute_row(n) == (KERNEL**n).coeffs

    @pytest.mark.parametrize("n", [1000, 3001])
    def test_half_row_against_full_recurrence(self, n):
        assert algebra._compute_row(n) == full_row(n)

    def test_examples(self):
        assert trinomial(0, 0) == 1
        assert trinomial(3, 3) == 7
        assert trinomial(3, 2) == 6
        assert trinomial(5, -1) == 0
        assert trinomial(5, 11) == 0

    def test_row_against_direct_expansion(self):
        for n in range(12):
            assert trinomial_row(n) == (KERNEL**n).coeffs

    @pytest.mark.parametrize("n", range(0, 51, 5))
    def test_row_identities(self, n):
        row = trinomial_row(n)
        assert len(row) == 2 * n + 1
        assert sum(row) == 3**n
        assert row == row[::-1]

    def test_motzkin_identity_to_50(self):
        m = expand_in_z(RatFn(KERNEL), 50)
        for n in range(51):
            assert m.coeff(n) == trinomial(n, n) - trinomial(n, n - 2)


class TestDiskCache:
    def test_save_load_roundtrip(self, tmp_path):
        trinomial_row(17)
        target = save_cache(tmp_path)
        assert target.exists()
        payload = json.loads(target.read_text())
        assert payload["format"] == "deutschpaths-cache"
        assert payload["version"] == 2
        assert set(payload) == {"format", "version", "trinomial_rows"}
        assert payload["trinomial_rows"]["17"] == list(trinomial_row(17))
        assert load_cache(tmp_path) is True

    def test_missing_cache_is_fine(self, tmp_path):
        assert load_cache(tmp_path / "nowhere") is False

    def test_corrupt_cache_rejected(self, tmp_path):
        (tmp_path / "algebra_cache.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            load_cache(tmp_path)

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"trinomial_rows": []},
            {"trinomial_rows": {"1": 3}},
            # a version-1 file, which also stored a v(z) prefix
            {"version": 1, "v_prefix": [0, 1], "trinomial_rows": {"0": [1]}},
        ],
    )
    def test_missing_or_ill_typed_fields_rejected(self, tmp_path, fields):
        header = {"format": "deutschpaths-cache", "version": 2}
        (tmp_path / "algebra_cache.json").write_text(json.dumps({**header, **fields}))
        with pytest.raises(ValueError):
            load_cache(tmp_path)

    @pytest.mark.parametrize(
        "row",
        [
            [1, 3, 6, 7, 6, 3, 0],  # sum is not 3^3
            [1, 3, 6, 6, 7, 3, 1],  # right sum, not a palindrome
            [0] * 7,
        ],
    )
    def test_poisoned_rows_rejected_before_any_merge(self, tmp_path, monkeypatch, row):
        rows = {0: (1,)}
        monkeypatch.setattr(algebra, "_TRI_ROWS", rows)
        payload = {
            "format": "deutschpaths-cache",
            "version": 2,
            "trinomial_rows": {"2": [1, 2, 3, 2, 1], "3": row},
        }
        (tmp_path / "algebra_cache.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="corrupt trinomial row 3"):
            load_cache(tmp_path)
        assert rows == {0: (1,)}

    def test_row_past_the_digit_limit_refused_before_encoding(self, tmp_path, monkeypatch):
        monkeypatch.setattr(algebra, "_TRI_ROWS", {0: (1,)})
        target = save_cache(tmp_path)
        before = target.read_bytes()
        algebra._TRI_ROWS[10**6] = (10**4400,)

        def no_encoding(payload):
            raise AssertionError("encoding started")

        monkeypatch.setattr(algebra.json, "dumps", no_encoding)
        with pytest.raises(ValueError, match="Exceeds the limit"):
            save_cache(tmp_path)
        assert target.read_bytes() == before

    def test_failed_write_keeps_old_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(algebra, "_TRI_ROWS", {0: (1,)})
        target = save_cache(tmp_path)
        before = target.read_bytes()
        trinomial_row(23)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(algebra.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_cache(tmp_path)
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

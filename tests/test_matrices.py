"""Linear-system identities: determinants, recursion, Cramer, LU."""

from __future__ import annotations

import io
import math
import random
from fractions import Fraction
from functools import cache

import pytest

import deutschpaths.matrices as mat
from deutschpaths import algebra
from deutschpaths.algebra import KERNEL, Poly, RatFn, V
from deutschpaths.formulas import formula, phi, psi, psi0
from deutschpaths.matrices import (
    QvMatrix,
    SingularMatrix,
    _bareiss,
    _eliminate,
    _in_v,
    _strip_rows,
    adjudicate_det_product,
    build_matrix,
    cramer_solve,
    det_closed_form,
    det_product_candidate,
    determinant,
    determinant_at,
    lu_formulas,
    u_diagonal_product,
    verify_cramer,
    verify_det_recursion,
    verify_determinant,
    verify_lu,
)
from deutschpaths.reporting import MismatchFound, VerificationReport

Z = RatFn(V, KERNEL)
ONE = RatFn(Poly((1,)))
ZERO = RatFn(Poly((0,)))


def typed(p: Poly) -> list:
    return [(type(c), c) for c in p.coeffs]


def forbidden_gcd(*args, **kwargs):
    raise AssertionError("no gcd may run here")


class TestBuild:
    def test_entry_pattern(self):
        m = build_matrix(4)
        for i in range(4):
            for j in range(4):
                e = m.entry(i, j)
                if i == j:
                    assert e == ONE
                elif j == i - 1 or j > i:
                    assert e == -Z
                else:
                    assert e == ZERO

    def test_transposed_swaps(self):
        m = build_matrix(5, transposed=True)
        plain = build_matrix(5)
        for i in range(5):
            for j in range(5):
                assert m.entry(i, j) == plain.entry(j, i)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            build_matrix(0)


class TestDeterminant:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form(self, n):
        assert determinant(build_matrix(n)) == det_closed_form(n)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_transpose_invariance(self, n):
        a = determinant(build_matrix(n))
        b = determinant(build_matrix(n, transposed=True))
        assert a == b

    def test_small_cases_by_hand(self):
        # n=1: det = 1. n=2: 1 - z^2 with z = v/(1+v+v^2).
        assert det_closed_form(1) == ONE
        expected2 = ONE - Z * Z
        assert det_closed_form(2) == expected2

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_numeric_route_agrees(self, n):
        v0 = Fraction(3, 7)
        sym = det_closed_form(n)
        assert determinant_at(n, v0) == sym(v0)

    def test_battery(self):
        report = verify_determinant(8)
        assert report.ok

    def test_empty_battery_refused(self):
        with pytest.raises(ValueError):
            verify_determinant(0)

    def test_determinant_of_singular_matrix_is_zero(self):
        from deutschpaths.matrices import QvMatrix

        m = QvMatrix(((ZERO, ZERO), (ZERO, ONE)))
        assert determinant(m) == ZERO

    def test_cramer_on_singular_system_raises(self, monkeypatch):
        import deutschpaths.matrices as mat

        # cramer_solve builds its integer polynomial rows in z through
        # _strip_rows; hand it a singular system instead
        monkeypatch.setattr(
            mat, "_strip_rows", lambda n, transposed, one, zero, z: [[zero, zero], [zero, one]]
        )
        with pytest.raises(SingularMatrix):
            cramer_solve(2)


def field_recursion(n_max: int, closed_form=det_closed_form) -> VerificationReport:
    """verify_det_recursion in the rational-function field: each row's
    left-hand side is three RatFn products and two sums, each reduced by its
    gcds, with no denominator rule.  The reference route."""
    report = VerificationReport("determinant three-term recursion")
    d0, d1 = closed_form(1), closed_form(2)
    for n, d in ((1, d0), (2, d1)):
        report.expect(
            "base case anchors elimination determinant", f"n={n}",
            d, determinant(build_matrix(n)), "closed form", "elimination",
        )
    kern, wsq = RatFn(KERNEL), RatFn(Poly((1, 2, 1)))
    kern2, kern_wsq, v_wsq = kern**2, kern * wsq, RatFn(V) * wsq
    for n in range(1, n_max - 1):
        d2 = closed_form(n + 2)
        lhs = kern2 * d2 - kern_wsq * d1 + v_wsq * d0
        report.add("recursion", f"n={n}", lhs.is_zero(), "" if lhs.is_zero() else f"residual {lhs!r}")
        d0, d1 = d1, d2
    return report


def over_one_plus_two_v(k: int):
    """D_n, with D_k divided by 1 + 2v: a denominator that is no power of 1+v+v^2."""
    return lambda n: det_closed_form(n) / RatFn(Poly((1, 2))) if n == k else det_closed_form(n)


def over_the_kernel(k: int):
    """D_n, with D_k divided by 1+v+v^2: where 3 does not divide k + 2 its
    denominator is (1+v+v^2)^(k+1), a kernel power above k."""
    return lambda n: det_closed_form(n) / RatFn(KERNEL) if n == k else det_closed_form(n)


#: The forms the battery and the reference route are compared on, by name.
RECURSION_FORMS = {
    "D_n": det_closed_form,
    "(1-v) D_n": lambda n: det_closed_form(n) * RatFn(Poly((1, -1))),
    "D_n + v^n": lambda n: det_closed_form(n) + RatFn(V) ** n,
    "D_5 / (1+2v)": over_one_plus_two_v(5),
    "D_5 / (1+v+v^2)": over_the_kernel(5),
}


class TestRecursion:
    def test_battery(self):
        report = verify_det_recursion(10)
        assert report.ok

    def test_detects_uniform_rescaling(self):
        # A homogeneous recursion alone cannot see a constant rescale;
        # the base-case anchoring must catch it.
        with pytest.raises(MismatchFound) as exc:
            verify_det_recursion(8, closed_form=RECURSION_FORMS["(1-v) D_n"])
        names = [c.name for c in exc.value.report.failures]
        assert any("base" in name for name in names)

    def test_detects_genuinely_wrong_form(self):
        with pytest.raises(MismatchFound):
            verify_det_recursion(8, closed_form=RECURSION_FORMS["D_n + v^n"])

    @pytest.mark.parametrize("form", list(RECURSION_FORMS))
    def test_rows_match_the_field_route(self, form):
        # the cleared residual is (1+v+v^2)^n times the field's, so only the
        # witness text of a failing row may differ
        closed = cache(RECURSION_FORMS[form])
        for m in range(3, 41):
            got = report_of(lambda n: verify_det_recursion(n, closed_form=closed), m)
            want = field_recursion(m, closed)
            assert [c[:3] for c in got.checks] == [c[:3] for c in want.checks], m

    def test_runs_no_gcd_past_the_base_cases(self, monkeypatch):
        calls = []
        gcd = algebra.poly_gcd
        monkeypatch.setattr(algebra, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
        counts = []
        for m in (3, 40):
            calls.clear()
            assert verify_det_recursion(m).ok
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("k", [3, 5, 12])
    @pytest.mark.parametrize("control", [over_one_plus_two_v, over_the_kernel])
    def test_denominator_control_fails_the_rows_reading_it(self, control, k):
        closed = control(k)
        den = closed(k).den
        if control is over_the_kernel:
            assert den == KERNEL ** (k + 1)
        else:
            assert all(den != KERNEL**e for e in range(2 * k + 2))
        with pytest.raises(MismatchFound) as exc:
            verify_det_recursion(12, closed_form=closed)
        report = exc.value.report
        assert failing_sizes(report) == {k - 2, k - 1, k} & set(range(1, 11))
        assert all(c.name == "recursion" for c in report.failures)
        assert all(f"D_{k} has denominator" in c.witness for c in report.failures)

    @pytest.mark.parametrize("control", [over_one_plus_two_v, over_the_kernel])
    def test_denominator_control_exits_1(self, control, monkeypatch):
        from deutschpaths.cli import main

        battery = mat.verify_det_recursion
        monkeypatch.setattr(
            mat, "verify_det_recursion", lambda n: battery(n, closed_form=control(5))
        )
        out = io.StringIO()
        assert main(["verify", "recursion", "--max-n", "12"], out=out) == 1
        assert "D_5 has denominator" in out.getvalue()


class TestCramer:
    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_bounded_closed_gf_from_system(self, h):
        x = cramer_solve(h + 1)
        assert x[0] == formula(f"phi0_bounded({h})")

    @pytest.mark.parametrize("h", [1, 3, 5])
    def test_full_solution_vector_matches_phi(self, h):
        x = cramer_solve(h + 1)
        for i in range(h + 1):
            assert x[i] == formula(f"phi({h},{i})")

    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_transposed_solution_matches_psi(self, h):
        x = cramer_solve(h + 1, transposed=True)
        assert x[0] == formula(f"psi0({h})")
        for i in range(1, h + 1):
            assert x[i] == formula(f"psi({h},{i})")

    def test_solution_satisfies_system(self):
        n = 5
        m = build_matrix(n)
        x = cramer_solve(n)
        for i in range(n):
            total = ZERO
            for j in range(n):
                total = total + m.entry(i, j) * x[j]
            assert total == (ONE if i == 0 else ZERO)

    def test_battery(self):
        report = verify_cramer(6)
        assert report.ok

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_rational_function_elimination(self, n, transposed):
        # the same determinant ratios by Gaussian elimination over RatFn,
        # an independent route kept as this test's oracle
        assert cramer_solve(n, transposed) == determinant_ratios(n, transposed)

    def test_empty_battery_refused(self):
        with pytest.raises(ValueError):
            verify_cramer(-1)

    @pytest.mark.parametrize("h_max", range(11))
    def test_report_matches_the_per_size_oracle(self, h_max):
        assert verify_cramer(h_max).to_dict() == per_size_cramer(h_max).to_dict()

    @pytest.mark.parametrize(
        "name, h, i", [("phi", 0, 0), ("phi", 3, 1), ("psi", 4, 4), ("psi", 6, 2)]
    )
    def test_perturbed_catalog_value_fails_exactly_its_row(self, monkeypatch, name, h, i):
        catalog = getattr(mat, name)

        def perturbed(h_, i_):
            value = catalog(h_, i_)
            return value + RatFn(V) if (h_, i_) == (h, i) else value

        monkeypatch.setattr(mat, name, perturbed)
        report = report_of(verify_cramer, 7)
        assert [(c.name, c.dimension) for c in report.failures] == [
            (f"x_i = {name}(h,i)", f"h={h}, i={i}")
        ]

    def test_vanishing_leading_minor_fails_from_its_size_on(self, monkeypatch):
        # row 2 is zero in its first 3 columns, so the leading 3 x 3 minor is 0
        # in both orientations, and the reduction stops at its third pivot
        strip_rows = mat._strip_rows

        def rows_with_a_zero_minor(n, transposed, one, zero, z):
            rows = strip_rows(n, transposed, one, zero, z)
            if n >= 3:
                rows[2][:3] = [zero] * 3
            return rows

        monkeypatch.setattr(mat, "_strip_rows", rows_with_a_zero_minor)
        report = report_of(verify_cramer, 6)
        assert {int(c.dimension[2:]) for c in report.failures} == {2, 3, 4, 5, 6}
        assert all(c.witness == "leading minor of order 3 vanished" for c in report.failures)
        assert len(report.failures) == 2 * 5  # one row per size and orientation
        assert report.checks[: 2 * (1 + 2)] == verify_cramer(1).checks
        for transposed in (False, True):
            assert cramer_solve(2, transposed) == determinant_ratios(2, transposed)
            for n in (3, 6):
                with pytest.raises(SingularMatrix, match="leading minor of order 3 vanished"):
                    cramer_solve(n, transposed)


def replace_column(m: QvMatrix, j: int, column) -> QvMatrix:
    return QvMatrix([row[:j] + (e,) + row[j + 1 :] for row, e in zip(m.rows, column)])


def determinant_ratios(n: int, transposed: bool) -> list[RatFn]:
    """Cramer's rule taken literally, det(A_j)/det(A) with A_j a column-replaced
    copy of A, by Gaussian elimination over RatFn: an independent route kept
    as the tests' oracle."""
    m = mat.build_matrix(n, transposed)
    det = mat.determinant(m)
    e0 = [ONE] + [ZERO] * (n - 1)
    return [mat.determinant(replace_column(m, j, e0)) / det for j in range(n)]


def per_size_cramer(h_max: int) -> VerificationReport:
    """verify_cramer with the determinant ratios of each size solved on their
    own: the oracle."""
    report = VerificationReport("Cramer solutions vs formula catalog")
    for h in range(h_max + 1):
        for i, x in enumerate(determinant_ratios(h + 1, False)):
            report.expect("x_i = phi(h,i)", f"h={h}, i={i}", x, phi(h, i), "cramer", "formula")
        for i, x in enumerate(determinant_ratios(h + 1, True)):
            want = psi0(h) if i == 0 else psi(h, i)
            report.expect("x_i = psi(h,i)", f"h={h}, i={i}", x, want, "cramer", "formula")
    return report


def det_by_minors(rows) -> Fraction:
    """Determinant by expansion over column subsets, O(n 2^n): a reference
    that shares nothing with Gaussian elimination."""
    n = len(rows)
    acc = {0: Fraction(1)}
    for i in range(n):
        nxt = {}
        for used, d in acc.items():
            for j in range(n):
                if not used >> j & 1 and rows[i][j]:
                    sign = -1 if bin(used >> j).count("1") % 2 else 1
                    key = used | 1 << j
                    nxt[key] = nxt.get(key, 0) + sign * d * rows[i][j]
        acc = nxt
    return acc.get((1 << n) - 1, Fraction(0))


class TestEliminationAgainstMinors:
    """_eliminate against expansion by minors, at random rational points."""

    @staticmethod
    def check_at_random_points(m: QvMatrix, seed: int):
        det = determinant(m)
        _, minors = _eliminate([list(r) for r in m.rows], ONE)
        assert len(minors) == m.dim  # no leading minor of these matrices vanishes
        rng = random.Random(seed)
        for _ in range(3):
            v0 = Fraction(rng.randint(2, 40), rng.randint(1, 40)) * rng.choice((1, -1))
            if v0 == 1:
                continue
            rows = [[e(v0) for e in row] for row in m.rows]
            assert det(v0) == det_by_minors(rows)
            for k, minor in enumerate(minors, 1):
                assert minor(v0) == det_by_minors([r[:k] for r in rows[:k]]), k

    def test_shared_entries_with_different_factors(self):
        a, b, c = Z, RatFn(1 + V), RatFn(Poly((1,)), 1 - V)
        # rows 1 and 2 agree right of column 0 but have different factors b and
        # c there, so the same (entry, pivot-row entry) pair meets two factors
        m = QvMatrix(
            (
                (ONE, a, a, a),
                (b, c, a, b),
                (c, c, a, b),
                (a, b, c, ONE),
            )
        )
        assert determinant(m)
        self.check_at_random_points(m, 1)

    def test_matrix_without_repeated_entries(self):
        rng = random.Random(2)
        pairs = rng.sample([(x, y) for x in range(-9, 10) for y in range(1, 10)], 100)
        m = QvMatrix(tuple(tuple(RatFn(Poly(p)) for p in pairs[10 * i : 10 * i + 10]) for i in range(10)))
        self.check_at_random_points(m, 3)

    def test_strip_system_matches_minors(self):
        rng = random.Random(4)
        for n, transposed in ((6, False), (7, True)):
            v0 = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            z0 = v0 / (1 + v0 + v0 * v0)
            rows = _strip_rows(n, transposed, Fraction(1), Fraction(0), z0)
            assert determinant_at(n, v0, transposed) == det_by_minors(rows)
            _, minors = _eliminate([list(r) for r in rows], Fraction(1))
            assert minors == [det_by_minors([r[:k] for r in rows[:k]]) for k in range(1, n + 1)]

    def test_minors_stop_at_the_first_zero_diagonal_entry(self):
        # the leading 1 x 1 minor is 0; the swap still finds the determinant
        rows = [[Fraction(x) for x in r] for r in ((0, 1, 2), (1, 0, 0), (3, 1, 1))]
        want = det_by_minors(rows)
        assert _eliminate(rows, Fraction(1)) == (want, [Fraction(0)])
        assert want == 1


class TestDeterminantInZ:
    """The pivots of the fraction-free reduction over Z[z] behind cramer_solve:
    the k-th is det(A_k)."""

    @staticmethod
    def det_in_z(n, transposed):
        rows = _strip_rows(n, transposed, Poly((1,)), Poly(), Poly((0, 1)))
        pivots = [p for p, _ in _bareiss(rows)]
        assert len(pivots) == n
        return pivots[-1]

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("transposed", [False, True])
    def test_mapped_to_v_matches_elimination(self, n, transposed):
        p = self.det_in_z(n, transposed)
        assert p.degree <= n
        assert all(type(c) is int for c in p.coeffs)
        assert RatFn(_in_v([p], n)[0], KERNEL**n) == determinant(build_matrix(n, transposed))

    @pytest.mark.parametrize("d", range(13))
    def test_in_v_coefficients_match_the_kernel_powers(self, d):
        # [v^m] of the image is sum_k p_k [v^(m-k)] (1+v+v^2)^(d-k), each power
        # taken on its own; several polynomials share one call
        rng = random.Random(d)
        polys = [Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, d + 1))]) for _ in range(5)]
        mapped = _in_v(polys, d)
        assert len(mapped) == len(polys)
        for p, got in zip(polys, mapped):
            assert all(type(c) is int for c in got.coeffs)
            for m in range(2 * d + 2):
                want = sum(p.coeff(k) * (KERNEL ** (d - k)).coeff(m - k) for k in range(d + 1))
                assert got.coeff(m) == want, (p, d, m)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_numeric_elimination(self, n, transposed):
        rng = random.Random(1000 * n + transposed)
        p = self.det_in_z(n, transposed)
        for _ in range(3):
            v0 = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            z0 = v0 / (1 + v0 + v0 * v0)
            assert p(z0) == determinant_at(n, v0, transposed)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_each_snapshot_solves_its_leading_system(self, transposed):
        one, zero, z = Poly((1,)), Poly(), Poly((0, 1))
        rows = _strip_rows(9, transposed, one, zero, z)
        snapshots = list(_bareiss([list(r) for r in rows]))
        assert len(snapshots) == 9
        for k, (det, column) in enumerate(snapshots, 1):
            assert len(column) == k
            for i in range(k):  # A_k (det * x) = det * e_0
                total = sum((rows[i][j] * column[j] for j in range(k)), zero)
                assert total == (det if i == 0 else zero), (k, i)

    def test_a_zero_pivot_stops_the_reduction(self):
        z = Poly((0, 1))
        one = Poly((1,))
        # the leading 1 x 1 minor is 0, though the determinant is -1 - z^3
        rows = [[Poly(), one, z], [one, z, Poly()], [z, Poly(), one]]
        assert list(_bareiss(rows)) == []
        # det(A_1) = 1 solves A_1 x = 1 as x = 1; the leading 2 x 2 minor is 0
        rows = [[one, z, Poly()], [z, z * z, one], [Poly(), one, one]]
        assert list(_bareiss(rows)) == [(one, [one])]


class TestLU:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("transposed", [False, True])
    def test_product_reconstructs_matrix(self, n, transposed):
        lower, upper = lu_formulas(n, transposed=transposed)
        product = lower @ upper
        target = build_matrix(n, transposed=transposed)
        for i in range(n):
            for j in range(n):
                assert product.entry(i, j) == target.entry(i, j), (i, j)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lower_is_unit_lower_triangular(self, n):
        for transposed in (False, True):
            lower, upper = lu_formulas(n, transposed=transposed)
            for i in range(n):
                assert lower.entry(i, i) == ONE
                for j in range(i + 1, n):
                    assert lower.entry(i, j) == ZERO
                for j in range(i):
                    assert upper.entry(i, j) == ZERO

    @pytest.mark.parametrize("n", range(1, 11))
    def test_diagonal_product_is_determinant(self, n):
        assert u_diagonal_product(n) == det_closed_form(n)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_diagonal_product_reads_the_factor_diagonal(self, transposed):
        # built from the diagonal alone, it is the product over lu_formulas' U in both orientations
        for n in range(1, 13):
            upper = lu_formulas(n, transposed)[1]
            want = ONE
            for i in range(n):
                want = want * upper.entry(i, i)
            assert u_diagonal_product(n) == want, n

    def test_diagonal_product_is_the_product_of_the_diagonal(self):
        # summed cyclotomic exponents against the factors multiplied one by one
        for n in range(1, 41):
            want = math.prod(mat._u_diagonal(n), start=ONE)
            got = u_diagonal_product(n)
            assert (typed(got.num), typed(got.den)) == (typed(want.num), typed(want.den)), n

    def test_diagonal_is_the_geometric_formula(self):
        # U_ii = (1+v)(1 + ... + v^(i+1)) / ((1+v+v^2)(1 + ... + v^i)), reduced by gcd
        for i, got in enumerate(mat._u_diagonal(40), 1):
            want = RatFn(Poly((1, 1)) * Poly((1,) * (i + 2)), KERNEL * Poly((1,) * (i + 1)))
            assert (typed(got.num), typed(got.den)) == (typed(want.num), typed(want.den)), i

    def test_perturbed_exponent_map_fails_the_product_and_the_factors(self, monkeypatch):
        # U_22 given U_33's blocks: the adjudication and verify_lu both read them
        blocks = mat._u_blocks
        monkeypatch.setattr(mat, "_u_blocks", lambda i: blocks(i + 1 if i == 2 else i))
        report = report_of(adjudicate_det_product, 3)
        assert {c.name for c in report.failures} == {
            "exactly one candidate matches", "product equals determinant closed form",
        }
        assert report.data["verified_exponent"] == "neither"
        # the failing row, and only it, carries the product and both candidates
        prod, cand1, cand2 = (
            u_diagonal_product(3), det_product_candidate(3, 1), det_product_candidate(3, 2)
        )
        assert prod not in (cand1, cand2)
        assert report.failures[0].witness == (
            f"product {prod!r}; (1-v^(n+1)) candidate {cand1!r}; (1-v^(n+2)) candidate {cand2!r}"
        )
        lu = report_of(verify_lu, 4)
        assert failing_sizes(lu, "L*U = A") == failing_sizes(lu, "prod U_ii") == {2, 3, 4}
        assert failing_sizes(lu, "shape") == set()

    def test_diagonal_product_runs_no_gcd(self, monkeypatch):
        monkeypatch.setattr(algebra, "poly_gcd", forbidden_gcd)
        assert u_diagonal_product(60) == det_closed_form(60)

    def test_diagonal_product_refuses_an_empty_matrix(self):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            u_diagonal_product(0)

    def test_battery(self):
        report = verify_lu(8)
        assert report.ok

    def test_empty_battery_refused(self):
        with pytest.raises(ValueError):
            verify_lu(0)


def per_size_determinant(n_max: int) -> VerificationReport:
    """verify_determinant with one elimination per size: the oracle."""
    report = VerificationReport("determinant closed form")
    for n in range(1, n_max + 1):
        want = mat.det_closed_form(n)
        for name, transposed in (("det(A_n) = D_n", False), ("det(A_n^T) = D_n", True)):
            got = mat.determinant(mat.build_matrix(n, transposed))
            report.expect(name, f"n={n}", got, want, "elimination", "closed form")
    return report


def unshared_product(left: QvMatrix, right: QvMatrix) -> list[list[RatFn]]:
    """left @ right entry by entry, each product and sum reduced on its own,
    nothing shared: the oracle of QvMatrix.__matmul__."""
    n = left.dim
    return [
        [sum((left.entry(i, k) * right.entry(k, j) for k in range(n)), ZERO) for j in range(n)]
        for i in range(n)
    ]


def per_size_lu(n_max: int) -> VerificationReport:
    """verify_lu with its factors, matrix and product built for each size,
    and no product shared between entries or orientations: the oracle."""
    report = VerificationReport("LU factorization")
    for transposed in (False, True):
        label = "transposed" if transposed else "untransposed"
        for n in range(1, n_max + 1):
            A = mat.build_matrix(n, transposed)
            L, U = mat.lu_formulas(n, transposed)
            shape_ok = all(
                L.entry(i, i) == ONE and U.entry(i, j).is_zero()
                for i in range(n)
                for j in range(i)
            )
            report.add(f"{label} L unit-lower / U upper", f"n={n}", shape_ok)
            prod = unshared_product(L, U)
            witness = ""
            for i in range(n):
                for j in range(n):
                    if prod[i][j] != A.entry(i, j):
                        witness = (
                            f"entry ({i+1},{j+1}): LU gives {prod[i][j]!r}, "
                            f"matrix has {A.entry(i, j)!r}"
                        )
                        break
                if witness:
                    break
            report.add(f"{label} L*U = A", f"n={n}", not witness, witness)
            diagonal = ONE
            for i in range(n):
                diagonal = diagonal * U.entry(i, i)
            report.expect(
                f"{label} prod U_ii = D_n", f"n={n}",
                diagonal, mat.det_closed_form(n), "product", "determinant",
            )
    return report


def report_of(battery, n_max: int) -> VerificationReport:
    """The battery's report, passing or not."""
    try:
        return battery(n_max)
    except MismatchFound as exc:
        return exc.report


def failing_sizes(report: VerificationReport, name_part: str = "") -> set[int]:
    return {int(c.dimension[2:]) for c in report.failures if name_part in c.name}


def replace_entry(m: QvMatrix, i: int, j: int, value: RatFn) -> QvMatrix:
    rows = [list(r) for r in m.rows]
    rows[i][j] = value
    return QvMatrix(rows)


class TestLeadingBlocks:
    """Each battery reads every size from the leading blocks of one system."""

    @staticmethod
    def block(m: QvMatrix, n: int) -> list:
        return [list(r[:n]) for r in m.rows[:n]]

    @pytest.mark.parametrize("transposed", [False, True])
    def test_systems_and_factors_are_leading_blocks(self, transposed):
        big = (build_matrix(30, transposed), *lu_formulas(30, transposed))
        for n in range(1, 31):
            small = (build_matrix(n, transposed), *lu_formulas(n, transposed))
            for m, whole in zip(small, big):
                assert [list(r) for r in m.rows] == self.block(whole, n), n

    @pytest.mark.parametrize("n_max", range(1, 13))
    def test_determinant_report_matches_the_per_size_oracle(self, n_max):
        assert verify_determinant(n_max).to_dict() == per_size_determinant(n_max).to_dict()

    @pytest.mark.parametrize("n_max", range(1, 13))
    def test_lu_report_matches_the_per_size_oracle(self, n_max):
        assert verify_lu(n_max).to_dict() == per_size_lu(n_max).to_dict()

    @pytest.mark.parametrize("factor, k", [("L", 1), ("L", 4), ("U", 0), ("U", 4)])
    def test_perturbed_factor_entry_fails_the_blocks_holding_it(self, monkeypatch, factor, k):
        lu = mat.lu_formulas

        def perturbed(n, transposed=False):
            L, U = lu(n, transposed)
            if n <= k:
                return L, U
            if factor == "L":  # nonzero below the diagonal in both variants
                return replace_entry(L, k, k - 1, L.entry(k, k - 1) + RatFn(V)), U
            return L, replace_entry(U, k, k, U.entry(k, k) + RatFn(V))

        monkeypatch.setattr(mat, "lu_formulas", perturbed)
        report = report_of(verify_lu, 7)
        assert failing_sizes(report) == set(range(k + 1, 8))
        assert failing_sizes(report, "shape") == set()
        assert report.to_dict() == per_size_lu(7).to_dict()

    @pytest.mark.parametrize("factor", ["L", "U"])
    def test_factor_off_its_triangle_fails_the_shape_row(self, monkeypatch, factor):
        # L nonzero above its diagonal, or U below it, at (2, 3) or (3, 2)
        lu = mat.lu_formulas

        def misplaced(n, transposed=False):
            L, U = lu(n, transposed)
            if n <= 3:
                return L, U
            if factor == "L":
                return replace_entry(L, 2, 3, RatFn(V)), U
            return L, replace_entry(U, 3, 2, RatFn(V))

        monkeypatch.setattr(mat, "lu_formulas", misplaced)
        report = report_of(verify_lu, 6)
        for label in ("untransposed", "transposed"):
            assert failing_sizes(report, f"{label} L unit-lower / U upper") == {4, 5, 6}

    def test_vanishing_leading_minor_fails_from_its_size_on(self, monkeypatch):
        # row 2 is zero in its first 3 columns, so the leading 3 x 3 minor is 0;
        # the full system is not singular, and elimination reaches it by a row swap
        strip_rows = mat._strip_rows

        def rows_with_a_zero_minor(n, transposed, one, zero, z):
            rows = strip_rows(n, transposed, one, zero, z)
            if n >= 3:
                rows[2][:3] = [zero] * 3
            return rows

        monkeypatch.setattr(mat, "_strip_rows", rows_with_a_zero_minor)
        report = report_of(verify_determinant, 6)
        assert failing_sizes(report) == {3, 4, 5, 6}
        for c in report.failures:
            if c.dimension != "n=3":
                assert c.witness == "leading minor of order 3 vanished"
        v0 = Fraction(2, 5)
        for transposed in (False, True):
            det = determinant(build_matrix(6, transposed))(v0)
            want = det_by_minors([[e(v0) for e in r] for r in build_matrix(6, transposed).rows])
            assert det == want == determinant_at(6, v0, transposed)
            assert want


def typed_rows(rows) -> list:
    return [[(typed(e.num), typed(e.den)) for e in r] for r in rows]


class TestSharedProducts:
    """L @ U reduces each distinct product and sum of products once per call,
    and verify_lu each distinct running product of U's diagonal; nothing is
    kept from one call to the next."""

    @pytest.mark.parametrize("transposed", [False, True])
    def test_product_matches_the_unshared_oracle(self, transposed):
        for n in range(1, 13):
            L, U = lu_formulas(n, transposed)
            assert typed_rows((L @ U).rows) == typed_rows(unshared_product(L, U)), n

    def test_random_matrices_with_repeated_entries(self):
        # entries drawn from a small pool, so equal products and sums recur
        # with different partners
        rng = random.Random(5)
        pool = [ZERO, ONE, Z, RatFn(V), RatFn(Poly((1, 1)), KERNEL)]
        pool.append(RatFn(Poly((2, -1)), Poly((1, 0, 1))))
        for n in range(1, 7):
            for _ in range(3):
                a, b = (QvMatrix([[rng.choice(pool) for _ in range(n)] for _ in range(n)]) for _ in "ab")
                assert typed_rows((a @ b).rows) == typed_rows(unshared_product(a, b))

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("factor, i, j", [("L", 5, 2), ("U", 2, 3), ("U", 2, 5), ("U", 4, 4)])
    def test_perturbed_repeated_entry_fails_only_its_blocks(self, monkeypatch, transposed, factor, i, j):
        # each entry but (2, 5) repeats along its row, column or diagonal in one of
        # the orientations; the copies left unperturbed must keep their products
        lu = mat.lu_formulas

        def perturbed(n, transposed_=False):
            L, U = lu(n, transposed_)
            if transposed_ != transposed or n <= max(i, j):
                return L, U
            if factor == "L":
                return replace_entry(L, i, j, L.entry(i, j) + RatFn(V)), U
            return L, replace_entry(U, i, j, U.entry(i, j) + RatFn(V))

        monkeypatch.setattr(mat, "lu_formulas", perturbed)
        report = report_of(verify_lu, 7)
        label = "transposed" if transposed else "untransposed"
        assert failing_sizes(report) == failing_sizes(report, label) == set(range(max(i, j) + 1, 8))
        assert failing_sizes(report, "shape") == set()
        assert report.to_dict() == per_size_lu(7).to_dict()

    def test_nothing_is_kept_across_calls(self, monkeypatch):
        first = verify_lu(6)
        assert first.ok
        # the same entries, multiplied wrongly by U_44: a product kept from the
        # first call would hide the fault
        u44 = lu_formulas(6)[1].entry(3, 3)
        mul = RatFn.__mul__

        def wrong(a, b):
            product = mul(a, b)
            return product + RatFn(V) if u44 in (a, b) else product

        monkeypatch.setattr(RatFn, "__mul__", wrong)
        second = report_of(verify_lu, 6)
        assert second.to_dict() != first.to_dict()
        assert failing_sizes(second) == {4, 5, 6}


class TestReducedDeterminant:
    # D_n and the product candidates are built from cyclotomic exponent maps;
    # the generic reduction RatFn(num, den) is the oracle
    def test_closed_form_matches_the_generic_reduction(self):
        for n in range(1, 61):
            got = det_closed_form(n)
            want = RatFn(Poly((1, 1)) ** (n - 1) * Poly((1,) * (n + 2)), KERNEL**n)
            assert (typed(got.num), typed(got.den)) == (typed(want.num), typed(want.den)), n

    def test_product_candidates_match_the_generic_reduction(self):
        for n in range(1, 31):
            for offset in (1, 2):
                got = det_product_candidate(n, offset)
                num = Poly((1, 1)) ** n * (1 - V**(n + offset))
                want = RatFn(num, KERNEL**n * Poly((1, 0, -1)))
                assert (typed(got.num), typed(got.den)) == (typed(want.num), typed(want.den))


class TestProductExponent:
    def test_candidates_differ_everywhere(self):
        for n in range(1, 8):
            assert det_product_candidate(n, 1) != det_product_candidate(n, 2)

    def test_n_plus_2_exponent_matches_determinant(self):
        for n in range(1, 10):
            assert det_product_candidate(n, 2) == det_closed_form(n)

    def test_n_plus_1_exponent_fails_at_witness(self):
        assert det_product_candidate(3, 1) != det_closed_form(3)
        assert det_product_candidate(3, 1) != u_diagonal_product(3)

    def test_adjudication_report(self):
        report = adjudicate_det_product(3)
        assert report.ok
        assert report.data["verified_exponent"] == "n+2"
        assert report.data["witness_n"] == 3
        assert "n+2" in report.data["statement"]

"""The Deutsch-path linear system: determinants, Cramer solutions, LU forms.

Counting Deutsch paths in the strip 0..n-1 by end level sets up an n x n
system with unit diagonal and -z entries below-adjacent and everywhere
right of the diagonal (a down-step of any size enters from above, an
up-step from directly below); the reversed family transposes it.  All
entries are exact rational functions in v via z = v/(1+v+v^2).

This module builds both matrices and verifies the closed forms: the
determinant D_n, its three-term recursion (in Z[v] once (1+v+v^2)^n is
cleared, with no gcd), the Cramer solutions (which must reproduce the
phi/psi formula catalog), and the entrywise LU factorizations.  Entries
depend on (i, j) alone, so A_n and its LU factors are leading blocks of
those at the largest n: each battery eliminates or multiplies once per
orientation and reads each n from a block.  The Cramer solutions take a
second, independent route: the entries are 1, -z and 0, so one
fraction-free (Bareiss) Gauss-Jordan reduction of [A | e_0] over the
integer polynomials in z yields every size's determinant ratios, mapped to
v once each.  The product of U's diagonal retells the determinant; the
adjudication helper pins down the one exponent in that product identity
that the closed forms force.  D_n, each LU entry, that product and its
two candidates are written as ``closed_form`` arguments, built reduced.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .algebra import KERNEL, Poly, RatFn, V, closed_form, trinomial_row
from .formulas import phi, psi, psi0
from .reporting import VerificationReport


class SingularMatrix(ZeroDivisionError):
    """A leading minor vanishes, so the reduction behind Cramer's rule stops."""


#: z expressed in the substitution variable.
Z_OF_V = closed_form(1, 1, 0, -1)

_ZERO = RatFn(Poly())
_ONE = RatFn(Poly((1,)))

#: 1, 0 and z as integer polynomials in z, the strip system's entries.
_ONE_Z, _ZERO_Z, _Z = Poly((1,)), Poly(), Poly((0, 1))


class QvMatrix:
    """Immutable square matrix over the rational-function field in v."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(e if isinstance(e, RatFn) else RatFn(e) for e in r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> RatFn:
        return self.rows[i][j]

    def transpose(self) -> "QvMatrix":
        return QvMatrix(tuple(zip(*self.rows)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QvMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __matmul__(self, other: "QvMatrix") -> "QvMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        # pair only the nonzero entries: one bidiagonal factor leaves at most two
        rows = [{k: a for k, a in enumerate(r) if a} for r in self.rows]
        cols = [{k: b for k, b in enumerate(c) if b} for c in other.transpose().rows]
        # entries repeat along rows and columns (the LU factors hold O(n) distinct
        # ones), so each distinct product a*b and each distinct sum of products is
        # reduced once per call, keyed by the entries
        products: dict[tuple, RatFn] = {}
        sums: dict[tuple, RatFn] = {}

        def entry(r: dict, c: dict) -> RatFn:
            pairs = tuple((r[k], c[k]) for k in sorted(r.keys() & c))
            if pairs not in sums:
                for p in pairs:
                    if p not in products:
                        products[p] = p[0] * p[1]
                sums[pairs] = sum((products[p] for p in pairs), _ZERO)
            return sums[pairs]

        return QvMatrix([[entry(r, c) for c in cols] for r in rows])

    def __repr__(self) -> str:
        return "QvMatrix([\n" + "\n".join("  " + repr(list(r)) for r in self.rows) + "\n])"


def _strip_rows(n: int, transposed: bool, one, zero, z) -> list[list]:
    """Rows of the strip system over any field, given its one, zero and z."""

    def entry(i: int, j: int):
        if i == j:
            return one
        if transposed:
            i, j = j, i
        return -z if j == i - 1 or j > i else zero

    return [[entry(i, j) for j in range(n)] for i in range(n)]


def build_matrix(n: int, transposed: bool = False) -> QvMatrix:
    """The strip system for levels 0..n-1: unit diagonal, -z at (i, i-1)
    and at every (i, j) with j > i; transposed for the reversed family.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return QvMatrix(_strip_rows(n, transposed, _ONE, _ZERO, Z_OF_V))


def _eliminate(rows: list[list], one) -> tuple:
    """The determinant and the leading minors, by Gaussian elimination with
    row swaps over any field whose zero is falsy (RatFn or Fraction);
    ``rows`` is consumed.  Adding multiples of a row to later rows keeps
    every leading minor, so each is a running product of pivots, up to the
    first zero diagonal entry: that minor is 0, and the list stops there."""
    n = len(rows)
    det, minors = one, [one]  # det of the leading k x k block, k = 0, 1, ...
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if minors[-1]:  # no zero diagonal entry, so no row swap, yet
            minors.append(det * rows[col][col])
        if pivot_row is None:
            return one - one, minors[1:]
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        top = rows[col]
        pivot = top[col]
        det = det * pivot
        for row in rows[col + 1 :]:
            f = row[col] / pivot
            if f:
                for k in range(col + 1, n):  # column col is not read again
                    if top[k]:
                        row[k] = row[k] - f * top[k]
    return det, minors[1:]


def determinant(m: QvMatrix) -> RatFn:
    """Exact determinant by Gaussian elimination with row swaps."""
    return _eliminate([list(r) for r in m.rows], _ONE)[0]


def det_closed_form(n: int) -> RatFn:
    """D_n = (1+v)^(n-1) / (1+v+v^2)^n * (1-v^(n+2))/(1-v), built reduced."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return closed_form(1, 0, n - 1, -n, [(n + 2, 1), (1, -1)])


def verify_determinant(n_max: int = 12) -> VerificationReport:
    """Elimination determinant equals D_n, and transposition preserves it.

    A_n is the leading block of A_(n_max), so one elimination per
    orientation gives each det(A_n) as a leading minor: none vanishes, as
    A_n = I - z*N_n has determinant 1 mod z.  A size past a zero one fails.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    report = VerificationReport("determinant closed form")
    strips = (_strip_rows(n_max, t, _ONE, _ZERO, Z_OF_V) for t in (False, True))
    minors = [_eliminate(rows, _ONE)[1] for rows in strips]
    for n in range(1, n_max + 1):
        want = det_closed_form(n)
        for name, transposed in (("det(A_n) = D_n", False), ("det(A_n^T) = D_n", True)):
            got = minors[transposed]
            if n <= len(got):
                report.expect(name, f"n={n}", got[n - 1], want, "elimination", "closed form")
            else:
                report.add(name, f"n={n}", False, f"leading minor of order {len(got)} vanished")
    return report.raise_if_failed()


def verify_det_recursion(
    n_max: int = 12, closed_form: Callable[[int], RatFn] = det_closed_form
) -> VerificationReport:
    """(1+v+v^2)^2 D_(n+2) - (1+v+v^2)(1+v)^2 D_(n+1) + v(1+v)^2 D_n = 0, in Z[v]:
    P_(n+2) = (1+v)^2 (P_(n+1) - v P_n) for the polynomials P_n = (1+v+v^2)^n D_n.

    Each D_n's denominator is compared with a running power of 1+v+v^2, so no
    gcd clears it; one that is neither (1+v+v^2)^n nor (1+v+v^2)^(n-1) fails
    every row that reads that D_n.  The recursion is homogeneous, so it cannot
    see a rescaling of every D_n by one function of v: the base cases are
    anchored against the elimination determinant.  ``closed_form`` is
    injectable so a deliberately perturbed D_n can be shown to fail.
    """
    if n_max < 3:
        raise ValueError("need n_max >= 3 to exercise the recursion")
    report = VerificationReport("determinant three-term recursion")
    wsq, power, window = Poly((1, 2, 1)), Poly((1,)), []
    for n in range(1, n_max + 1):
        d, lower, power = closed_form(n), power, KERNEL * power  # D_n; (1+v+v^2)^(n-1), ^n
        if n <= 2:
            report.expect("base case anchors elimination determinant", f"n={n}",
                          d, determinant(build_matrix(n)), "closed form", "elimination")
        # P_n for the last three n, or where D_n has no P_n, the witness naming it
        window = window[-2:] + [
            d.num if d.den == power else KERNEL * d.num if d.den == lower
            else f"D_{n} has denominator {d.den!r}, not (1+v+v^2)^{n} or (1+v+v^2)^{n - 1}"
        ]
        if n > 2:
            faults = [w for w in window if isinstance(w, str)]
            if not faults:
                residual = window[2] - wsq * (window[1] - V * window[0])
                faults = [f"residual {residual!r}"] if residual else []
            report.add("recursion", f"n={n - 2}", not faults, "; ".join(faults))
    return report.raise_if_failed()


def _bareiss(rows: list[list[Poly]]):
    """Fraction-free Gauss-Jordan reduction of [A | e_0] over the integer
    polynomials (Bareiss 1968; Nakos, Turner and Williams 1997): A's ``rows``
    are augmented and reduced in place, without row swaps.  Step k updates
    every row except row k, above it as well as below, from column k + 1 on,
    and each update divides exactly by the previous pivot.  A step reads only
    its pivot's row and column, so after step k the rows 0..k are the
    reduction of [A_(k+1) | e_0]: the pivot is det(A_(k+1)) and their last
    column is det(A_(k+1)) * x, where A_(k+1) x = e_0.  That pair is yielded
    after each step; the reduction stops at the first zero pivot."""
    for i, row in enumerate(rows):
        row.append(_ZERO_Z if i else _ONE_Z)
    prev = _ONE_Z
    for k, top in enumerate(rows):
        pivot = top[k]
        if not pivot:
            return
        for row in rows[:k] + rows[k + 1 :]:
            f = row[k]
            for j in range(k + 1, len(top)):
                e = row[j] * pivot - f * top[j] if f else row[j] * pivot
                row[j] = e.exact_div(prev) if k else e  # the first step divides by 1
        prev = pivot
        yield pivot, [row[-1] for row in rows[: k + 1]]


def _in_v(polys: list[Poly], d: int) -> list[Poly]:
    """(1+v+v^2)^d * p(v/(1+v+v^2)) for each polynomial p in z of degree <= d:
    the sum of p_k * v^k * (1+v+v^2)^(d-k), the kernel's powers read as trinomial rows."""
    powers = [trinomial_row(e) for e in range(d + 1)]
    out = []
    for p in polys:
        acc = [0] * (2 * d + 1)
        for k, c in enumerate(p.coeffs):
            if c:
                for m, t in enumerate(powers[d - k], k):
                    acc[m] += c * t
        out.append(Poly(acc))
    return out


def _components(det: Poly, numerators: list[Poly]) -> list[RatFn]:
    """Each x_j = det(A_j)/det(A), its polynomials in z mapped once to v."""
    den, *nums = _in_v([det, *numerators], len(numerators))
    return [RatFn(p, den) for p in nums]


def cramer_solve(n: int, transposed: bool = False) -> list[RatFn]:
    """Solve A x = e_0 by literal determinant ratios x_j = det(A_j)/det(A).

    A_j is A with column j replaced by e_0.  Every entry is 1, -z or 0, so
    each determinant is an integer polynomial in z of degree <= n.  One
    reduction of [A | e_0] by ``_bareiss`` yields det(A) and every
    det(A_j) = det(A) * x_j; each is mapped once to v as
    (1+v+v^2)^n * p(v/(1+v+v^2)), and each component is then one ``RatFn``
    reduction.  This route shares no elimination with ``determinant``.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    solved = list(_bareiss(_strip_rows(n, transposed, _ONE_Z, _ZERO_Z, _Z)))
    if len(solved) < n:
        raise SingularMatrix(f"leading minor of order {len(solved) + 1} vanished")
    return _components(*solved[-1])


def verify_cramer(h_max: int = 8) -> VerificationReport:
    """Cramer components reproduce phi (untransposed) and psi (transposed).

    A_(h+1) is the leading block of A_(h_max+1), so one reduction per
    orientation solves every size: its (h+1)-th snapshot solves A_(h+1).
    No pivot vanishes, as every A_n is I mod z.  A size past a zero one fails.
    """
    if h_max < 0:
        raise ValueError(f"need h_max >= 0, got {h_max}")
    report = VerificationReport("Cramer solutions vs formula catalog")
    solved = [list(_bareiss(_strip_rows(h_max + 1, t, _ONE_Z, _ZERO_Z, _Z))) for t in (False, True)]
    for h in range(h_max + 1):
        for t, (name, snaps) in enumerate(zip(("x_i = phi(h,i)", "x_i = psi(h,i)"), solved)):
            if h >= len(snaps):
                order = len(snaps) + 1
                report.add(name, f"h={h}", False, f"leading minor of order {order} vanished")
                continue
            for i, x in enumerate(_components(*snaps[h])):
                want = (psi(h, i) if i else psi0(h)) if t else phi(h, i)
                report.expect(name, f"h={h}, i={i}", x, want, "cramer", "formula")
    return report.raise_if_failed()


def _u_blocks(i: int) -> list[tuple[int, int]]:
    """The blocks of U_ii = (1+v)/(1+v+v^2) * (1-v^(i+2))/(1-v^(i+1)), the
    same in both orientations."""
    return [(i + 2, 1), (i + 1, -1)]


def _u_diagonal(n: int) -> list[RatFn]:
    """U_11, ..., U_nn, each built reduced from ``_u_blocks``."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return [closed_form(1, 0, 1, -1, _u_blocks(i)) for i in range(1, n + 1)]


def lu_formulas(n: int, transposed: bool = False) -> tuple[QvMatrix, QvMatrix]:
    """The closed-form LU pair (1-based index formulas, 0-based storage).

    Untransposed: L has one nonzero subdiagonal, U is dense upper; the
    off-diagonal U formula depends on the row i only and applies to every
    j > i.  Transposed: L is dense lower, its formula depending on the
    column j only; U has one superdiagonal.  Each formula is built once.
    """
    diag = _u_diagonal(n)  # diag[i-1] = U_ii
    if not transposed:
        # below[i-2] = L_i,(i-1) = -v(1-v^i)/((1+v)(1-v^(i+1))) and
        # right[i-1] = U_ij = -v(1+v)(1-v^i)/((1+v+v^2)(1-v^(i+1))) for every j > i
        below = [closed_form(-1, 1, -1, 0, [(i, 1), (i + 1, -1)]) for i in range(2, n + 1)]
        right = [closed_form(-1, 1, 1, -1, [(i, 1), (i + 1, -1)]) for i in range(1, n)]
        L = [[below[j] if j == i - 1 else _ZERO for j in range(n)] for i in range(n)]
        U = [[right[i] if j > i else _ZERO for j in range(n)] for i in range(n)]
    else:
        # below[j-1] = L_ij = -v(1-v^j)/(1-v^(j+2)) for every i > j; U_i,(i+1) = -v/(1+v+v^2)
        below = [closed_form(-1, 1, 0, 0, [(j, 1), (j + 2, -1)]) for j in range(1, n)]
        above = closed_form(-1, 1, 0, -1)
        L = [[below[j] if j < i else _ZERO for j in range(n)] for i in range(n)]
        U = [[above if j == i + 1 else _ZERO for j in range(n)] for i in range(n)]
    for i in range(n):
        L[i][i], U[i][i] = _ONE, diag[i]
    return QvMatrix(L), QvMatrix(U)


def u_diagonal_product(n: int) -> RatFn:
    """The telescoping product U_11 * ... * U_nn, in either orientation:
    U's diagonal is the same in both.

    Neither the diagonal nor L and U is built: the ``_u_blocks`` of U_11,
    ..., U_nn, which ``lu_formulas`` builds U's diagonal from, are
    concatenated, and the product is built once, reduced, with no gcd.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return closed_form(1, 0, n, -n, [p for i in range(1, n + 1) for p in _u_blocks(i)])


def det_product_candidate(n: int, exponent_offset: int) -> RatFn:
    """((1+v)/(1+v+v^2))^n * (1-v^(n+offset))/(1-v^2) for offset 1 or 2."""
    return closed_form(1, 0, n, -n, [(n + exponent_offset, 1), (2, -1)])


def verify_lu(n_max: int = 12) -> VerificationReport:
    """L*U = A entrywise for both variants, plus the diagonal-product identity.

    A, L and U are built once at n_max, and each n reads their leading
    blocks: the entries are index formulas.  With L lower triangular, the
    leading block of L*U is L_n*U_n, so one product serves every n; the
    shape rows check L zero above its diagonal as well as U zero below.
    Each distinct running product of U's diagonal is reduced once per call.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    report = VerificationReport("LU factorization")
    dets = [det_closed_form(n) for n in range(1, n_max + 1)]
    running = {}  # (prod U_ii so far, next U_ii) -> product; the orientations share U's diagonal
    for transposed in (False, True):
        label = "transposed" if transposed else "untransposed"
        A = build_matrix(n_max, transposed)
        L, U = lu_formulas(n_max, transposed)
        prod = L @ U
        cells = [(i, j, max(i, j) + 1) for i in range(n_max) for j in range(n_max)]  # row-major
        # a bad entry fails the rows of every block holding it, of size m and larger;
        # misplaced: L not 1 on its diagonal or nonzero above it, U nonzero below
        misplaced = min(
            (m for i, j, m in cells
             if (L.entry(i, i) != _ONE if i == j else (L if i < j else U).entry(i, j))),
            default=n_max + 1,
        )
        mismatches = [
            (m, f"entry ({i+1},{j+1}): LU gives {prod.entry(i, j)!r}, matrix has {A.entry(i, j)!r}")
            for i, j, m in cells if prod.entry(i, j) != A.entry(i, j)
        ]
        diagonal = _ONE
        for n in range(1, n_max + 1):
            report.add(f"{label} L unit-lower / U upper", f"n={n}", n < misplaced)
            witness = next((w for m, w in mismatches if m <= n), "")
            report.add(f"{label} L*U = A", f"n={n}", not witness, witness)
            key = (diagonal, U.entry(n - 1, n - 1))
            if key not in running:
                running[key] = key[0] * key[1]
            diagonal = running[key]
            report.expect(
                f"{label} prod U_ii = D_n", f"n={n}",
                diagonal, dets[n - 1], "product", "determinant",
            )
    return report.raise_if_failed()


def adjudicate_det_product(n: int = 3) -> VerificationReport:
    """Decide which exponent makes prod U_ii = ((1+v)/(1+v+v^2))^n (1-v^(n+e))/(1-v^2).

    The two candidate exponents are e = 1 and e = 2; the closed forms force
    exactly one of them.  The report records the verified exponent and the
    witness dimension; a failing row carries the product and both candidates.
    """
    report = VerificationReport("determinant-product exponent adjudication")
    prod, det = u_diagonal_product(n), det_closed_form(n)
    cand1, cand2 = det_product_candidate(n, 1), det_product_candidate(n, 2)
    match1, match2 = prod == cand1, prod == cand2
    one_matches = match1 != match2
    witness = "" if one_matches else (
        f"product {prod!r}; (1-v^(n+1)) candidate {cand1!r}; (1-v^(n+2)) candidate {cand2!r}"
    )
    report.add("exactly one candidate matches", f"n={n}", one_matches, witness)
    report.add("product equals determinant closed form", f"n={n}", prod == det)
    verified = "n+2" if match2 else ("n+1" if match1 else "neither")
    report.data.update(verified_exponent=verified, witness_n=n, statement=(
        f"prod U_ii for n={n} equals ((1+v)/(1+v+v^2))^n * (1-v^({verified}))/(1-v^2); "
        f"the (1-v^(n+{1 if verified == 'n+2' else 2})) variant does not match"
    ))
    return report.raise_if_failed()


def determinant_at(n: int, v0: Fraction, transposed: bool = False) -> Fraction:
    """Determinant at v = v0: the elimination of ``determinant`` over the
    rationals, the tests' numeric spot check of the symbolic results."""
    z0 = Fraction(v0) / (1 + v0 + v0 * v0)
    return _eliminate(_strip_rows(n, transposed, Fraction(1), Fraction(0), z0), Fraction(1))[0]

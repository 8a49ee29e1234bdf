"""Exact arithmetic: polynomials and rational functions in v, series in z.

Everything downstream works in two coordinate systems.  Closed forms live
in the substitution variable v, as dense polynomials (Poly) and normalized
rational functions (RatFn) with arbitrary-precision rational coefficients:
ints and Fractions only, anything else is refused with a TypeError.
Counting sequences live in the length variable z, as truncated power
series (Series) whose order is tracked explicitly: coefficients beyond the
stored order are unknown and asking for them is an error, never a silent
zero.

The two systems are connected by the kernel substitution

    z = v/(1+v+v^2),    equivalently    v = z*(1+v+v^2),

whose series solution is v(z) = z + z^2 + 2z^3 + 4z^4 + ... (shifted
Motzkin numbers).  Two routes, sharing no code, turn a function of v into
a z-series.

``expand_in_z`` takes the quadratic normal form.  v is a root of
z*v^2 - (1-z)*v + z = 0 whose other root is 1/v, so every rational F(v)
equals A(z) + B(z)*S(z) with A, B rational in z and

    S = sqrt(1 - 2z - 3z^2) = 1 - z - 2z^2*M(z),    v = (1 - z - S)/(2z),

where M is the Motzkin series.  Numerator and denominator are reduced to
a + b*v with polynomials in z, the division is cleared by the conjugate,
the coefficients of S come from a two-term integer recurrence, and one
series division by the norm is left: O(deg) integer operations per
coefficient.

``compose_with_v`` substitutes v(z) into an explicit v-prefix by Lagrange
inversion,

    [z^n] F(v(z)) = [v^n] F(v) * (1 - v^2) * (1+v+v^2)^(n-1),    n >= 1,

with kernel powers built in one local sweep; it serves the v-series that
are not rational (the height sums) and ``v_of_z``.  ``coeff_of_z`` applies
the same form at a single n through a cached trinomial row, which is how
the large-n statistics avoid building million-term series.

Trinomial coefficients trinomial(n, k) = [v^k](1+v+v^2)^n are produced a
whole row at a time by an integer three-term recurrence in k, run to the
middle of the palindromic row and mirrored, and cached in memory;
``save_cache`` and ``load_cache`` persist the rows, but no command calls them.

The canonical form of a RatFn (numerator and denominator coprime,
denominator monic) is computed with integers only.  ``poly_gcd(a, b)``, for
nonzero a and b, returns (g, a/g, b/g) with g monic.  It splits each operand
once into a positive rational content and a primitive integer part (integer
coefficients with gcd 1) and takes the gcd of the primitive parts by the
heuristic GCDHEU (Char, Geddes and Gonnet, 1989): one integer gcd of their
values at a large integer point, read back in that base and accepted only
when it divides both exactly.  The quotients of that proof are the
cofactors; when no point gives a proof, the primitive pseudo-remainder
sequence (Knuth, TAOCP vol. 2, 4.6.1) finds the gcd and divides once each.
RatFn then scales both cofactors by the leading coefficient of b/g, once.

The public constructor ``RatFn(num, den)`` runs that whole reduction.  The
operators keep canonical operands canonical with smaller gcds, by Henrici's
method (Knuth, TAOCP vol. 2, 4.5.1), and divide only through the cofactors:
a*c/(b*d) cancels gcd(a, d) and gcd(c, b); a/b + c/d with g = gcd(b, d)
needs no further gcd when g = 1 and otherwise only the gcd of the new
numerator with g; a zero, constant or polynomial operand, a negation and a
power need no gcd at all.  Every closed form of the package is
sign * v^a * (1+v)^b * (1+v+v^2)^c * prod (1 - v^k)^e, and ``closed_form``
builds it already reduced from rows of (1+v)^b and (1+v+v^2)^c and sparse
blocks 1 - v^k, its cyclotomic exponents deciding what cancels.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import threading
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from .reporting import _num_str


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial or zero rational function."""


class DivisorNotUnit(ZeroDivisionError):
    """Series division needs a divisor with nonzero constant term."""


class PoleAtOrigin(ValueError):
    """The rational function has a pole at v = 0, so no z-expansion exists."""


def _norm_coeff(c):
    # keep ints as ints so repr/JSON stay clean; Fraction(k, 1) collapses.
    # float, Decimal and complex are refused: answers here are exact, and the
    # integer kernel reads numerator/denominator.
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, numbers.Integral):
        return int(c)
    raise TypeError(f"coefficient {c!r} is not an int or Fraction")


def _as_fraction(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


# --- the integer kernel: contents and primitive parts ------------------------


def _split(coeffs) -> tuple[int, int, list[int]]:
    """(gn, dn, prim) with coeffs = gn/dn * prim, prim integer and primitive.

    coeffs is a nonzero canonical coefficient tuple (ints and Fractions);
    numerator and denominator are read directly, no Fraction is built.
    """
    dn = math.lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (dn // c.denominator) for c in coeffs] if dn != 1 else list(coeffs)
    gn = math.gcd(*ints)
    return gn, dn, ints if gn == 1 else [c // gn for c in ints]


def _scaled(num: int, den: int, prim) -> list:
    """The coefficients num/den * prim, ints where integral."""
    s = Fraction(num, den)
    num, den = s.numerator, s.denominator
    if den == 1:
        return prim if num == 1 else [num * c for c in prim]
    return [Fraction(num * c, den) for c in prim]


def _exact_quo(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer coefficient lists, b nonzero; ValueError unless the
    quotient is an integer polynomial with no remainder.

    For primitive a and b, b divides a over Q exactly when it does over Z
    (Gauss's lemma), so this is the exact division of primitive parts.
    """
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        if r[i]:
            c, m = divmod(r[i], lb)
            if m:
                raise ValueError(f"{Poly(a)!r} not divisible by {Poly(b)!r}")
            q[i - db] = c
            for j in range(db):
                r[i - db + j] -= c * b[j]
    if any(r[:db]):
        raise ValueError(f"{Poly(a)!r} not divisible by {Poly(b)!r}")
    return q


def _prem_primitive(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of the pseudo-remainder of a by b (len(a) >= len(b));
    [] when b divides a."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    while len(r) > db:
        c = r.pop()
        if c:
            k = math.gcd(c, lb)
            m, c = lb // k, c // k
            if m != 1:
                r = [m * x for x in r]
            s = len(r) - db
            for j in range(db):
                r[s + j] -= c * b[j]
    while r and not r[-1]:
        r.pop()
    if not r:
        return r
    g = math.gcd(*r)
    return r if g == 1 else [x // g for x in r]


def _gcd_prs(a: list[int], b: list[int]) -> list[int]:
    """gcd of two nonzero primitive integer polynomials, up to sign, by the
    primitive pseudo-remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _prem_primitive(a, b)
    return [1] if b else a


def _gcd_heuristic(a: list[int], b: list[int]) -> tuple[list[int], ...] | None:
    """(g, a/g, b/g), g the gcd of two nonzero primitive integer polynomials
    up to sign, by GCDHEU (Char, Geddes and Gonnet, 1989); None when no
    point proves one.

    Both are evaluated at an integer xi > 2*min(|a|, |b|) + 2 (max norms),
    one integer gcd is taken, and its symmetric xi-adic digits are read
    back as a polynomial.  By the method's theorem, the primitive part of
    that polynomial is the gcd as soon as it divides a and b exactly, the
    two quotients being the cofactors; else it retries at a larger xi.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 3
    for _ in range(6):
        gamma = math.gcd(_at(a, xi), _at(b, xi))
        g = []
        while gamma:
            c = gamma % xi
            if 2 * c > xi:
                c -= xi
            g.append(c)
            gamma = (gamma - c) // xi
        k = math.gcd(*g)
        g = [c // k for c in g]
        try:
            return g, _exact_quo(a, g), _exact_quo(b, g)
        except ValueError:
            xi = xi * 73794 // 27011  # the method's growth factor, about 2.73
    return None


def _at(p: list[int], x: int) -> int:
    """The integer polynomial p at the integer x, by Horner's rule."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _gcd_primitive(a: list[int], b: list[int]) -> tuple[list[int], ...]:
    """(g, a/g, b/g), g the gcd of two nonzero primitive integer polynomials
    up to sign: GCDHEU first, the primitive PRS when it fails, which then
    divides once each for the cofactors."""
    found = _gcd_heuristic(a, b)
    if found is None:
        g = _gcd_prs(a, b)
        found = g, _exact_quo(a, g), _exact_quo(b, g)
    return found


def _convolve(a, b, top: int) -> list:
    """Coefficients 0..top of the product of the coefficient sequences a and b;
    zero terms of either are skipped."""
    out = [0] * (top + 1)
    for i, x in enumerate(a[: top + 1]):
        if x:
            for k, y in enumerate(b[: top + 1 - i], i):
                if y:
                    out[k] += x * y
    return out


def _power(base, e: int, one):
    """base**e for e >= 0 by repeated squaring, from the unit one."""
    result = one
    while True:
        if e & 1:
            result = result * base
        e >>= 1
        if not e:
            return result
        base = base * base


class Poly:
    """Dense univariate polynomial in v with exact rational coefficients.

    Canonical form: no trailing zero coefficients; the zero polynomial has
    an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def constant(self):
        return self.coeff(0)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes as one
        if len(self.coeffs) <= 1:
            return hash(self.coeff(0))
        return hash(("Poly", self.coeffs))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other) if isinstance(other, (int, Fraction, Poly)) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return Poly(_convolve(a, b, len(a) + len(b) - 2))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial; use RatFn")
        return _power(self, e, _UNIT)

    def __divmod__(self, other: "Poly"):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = _as_fraction(other.leading())
        dd = other.degree
        q = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            if rem[i] == 0:
                continue
            factor = _as_fraction(rem[i]) / dlead
            q[i - dd] = factor
            for j, c in enumerate(other.coeffs):
                rem[i - dd + j] -= factor * c
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("polynomial division by zero")
            return Poly(tuple(_as_fraction(c) / other for c in self.coeffs))
        if isinstance(other, Poly):
            return RatFn(self, other)
        return NotImplemented

    def exact_div(self, other: "Poly") -> "Poly":
        """Quotient that must leave no remainder (ValueError otherwise).

        The content ratio times the integer quotient of the primitive parts.
        """
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.is_zero():
            return Poly()
        gn, dn, p = _split(self.coeffs)
        hn, hd, q = _split(other.coeffs)
        return Poly(_scaled(gn * hd, dn * hn, _exact_quo(p, q)))

    def __call__(self, x):
        """Evaluate by Horner's rule; x may be an exact scalar, Poly, RatFn or Series."""
        if not isinstance(x, (Poly, RatFn, Series)):
            x = _norm_coeff(x)
        result = x * 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                mono = "v" if k == 1 else f"v^{k}"
                text = _num_str(c)
                terms.append(text if k == 0 else {1: mono, -1: f"-{mono}"}.get(c, f"{text}*{mono}"))
        return " + ".join(terms).replace("+ -", "- ") or "0"


#: The polynomial v.
V = Poly((0, 1))

#: The kernel polynomial 1 + v + v^2.
KERNEL = Poly((1, 1, 1))

_UNIT = Poly((1,))


def poly_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, a/g, b/g) for nonzero a and b, g their monic gcd over Q[v], so
    gcd(1-v^4, 1-v^6) = v^2 - 1; ValueError for a zero operand.  Integers
    only: GCDHEU on the primitive parts, its proof giving the cofactors, else
    the primitive pseudo-remainder sequence, which divides once each."""
    if not (a and b):
        raise ValueError("the gcd needs two nonzero polynomials")
    (gn, dn, p), (hn, hd, q) = _split(a.coeffs), _split(b.coeffs)
    g, p, q = _gcd_primitive(p, q)
    if len(g) == 1:
        return _UNIT, a, b
    s = g[-1]  # the monic gcd is g/s
    return Poly(_scaled(1, s, g)), Poly(_scaled(gn * s, dn, p)), Poly(_scaled(hn * s, hd, q))


def _cancel(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, a/g, b/g) with g the monic gcd; no gcd is run for a constant."""
    return (_UNIT, a, b) if a.degree < 1 or b.degree < 1 else poly_gcd(a, b)


def _monic(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num and den, both divided by the leading coefficient of the nonzero den."""
    lead = den.coeffs[-1]
    if lead == 1:
        return num, den
    s = Fraction(1) / lead
    return num * s, den * s


class RatFn:
    """Rational function in v, kept in canonical form.

    Canonical form: gcd(num, den) = 1 and den monic (leading coefficient
    1): both divided by their monic gcd, then by the new den's leading
    coefficient.  A zero denominator raises DivisionByZero; 0/d gives 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_UNIT):
        if not isinstance(num, Poly):
            num = Poly((num,))
        if not isinstance(den, Poly):
            den = Poly((den,))
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), _UNIT
        else:
            num, den = _monic(*_cancel(num, den)[1:])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("rational functions are immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        # a polynomial equals its numerator, so it hashes as one
        if self.den.coeffs == (1,):
            return hash(self.num)
        return hash(("RatFn", self.num, self.den))

    @classmethod
    def _of(cls, num: Poly, den: Poly = _UNIT) -> "RatFn":
        """num/den as given, already coprime with den monic: no gcd, no scaling."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    def __neg__(self) -> "RatFn":
        return self._of(-self.num, self.den)

    def _inverse(self) -> "RatFn":
        # den/num, scaled so that num, the new denominator, is monic
        return self._of(*_monic(self.den, self.num))

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFn):
            return x
        if isinstance(x, Poly):
            return RatFn._of(x)
        if isinstance(x, (int, Fraction)):
            return RatFn._of(Poly((x,)))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        # b = b'*g and d = d'*g (equal b and d are their own g: no gcd); a/b + c/d =
        # (a*d' + c*b')/(b'*d'*g), t is prime to b' and d', so only gcd(t, g) is left
        g, b, d = (self.den, _UNIT, _UNIT) if self.den == o.den else _cancel(self.den, o.den)
        t = self.num * d + o.num * b
        if g.degree > 0:
            _, t, g = _cancel(t, g)
            d = d * g
        return self._of(t, b * d) if t else self._of(t)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return self._of(Poly())
        # a/b and c/d are reduced, so once gcd(a, d) and gcd(c, b) are
        # cancelled the product is too
        _, a, d = _cancel(self.num, o.den)
        _, c, b = _cancel(o.num, self.den)
        return self._of(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero rational function")
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int) -> "RatFn":
        if e < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return self._inverse() ** (-e)
        return self._of(self.num**e, self.den**e)

    def __call__(self, x):
        """Evaluate at an exact scalar (int or Fraction; anything else is a TypeError)."""
        x = _norm_coeff(x)
        d = self.den(x)
        if d == 0:
            raise DivisionByZero(f"denominator vanishes at {x}")
        return _norm_coeff(_as_fraction(self.num(x)) / _as_fraction(d))

    def __repr__(self) -> str:
        if self.is_polynomial():
            return f"({self.num!r})"
        return f"({self.num!r}) / ({self.den!r})"


def _divisors(k: int) -> list[int]:
    """The divisors of k >= 1, ascending, by trial division up to sqrt(k)."""
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return small + [k // d for d in reversed(small) if d * d != k]


def _side(exponents: dict[int, int]) -> list[int]:
    """The coefficients of prod Phi_d^e over ``exponents``, every e > 0.

    Phi_2^b and Phi_3^c are the dense rows of (1+v)^b, one recurrence step
    per entry, and of (1+v+v^2)^c.  Every other Phi_d is peeled, from the
    largest d down, into a block (1 - v^d)^e that also carries Phi_q^e for
    each proper divisor q of d; a Phi_2 or Phi_3 exponent driven below 0
    becomes a block too.  Blocks that multiply come first, one pass each, so
    each division by a block is exact: a prefix sum with stride k.
    """
    left, rows, blocks = dict(exponents), {2: 0, 3: 0}, []
    while left:
        d = max(left)
        e = left.pop(d)
        if e > 0 and d in rows:
            rows[d] = e
        elif e:
            blocks.append((d, e))
            for q in _divisors(d)[:-1]:
                left[q] = left.get(q, 0) - e
    b, c = rows[2], rows[3]
    p = list(accumulate(range(b), lambda x, j: x * (b - j) // (j + 1), initial=1))
    p = _convolve(p, _compute_row(c), b + 2 * c)
    for k, e in sorted(blocks, key=lambda block: block[1] < 0):
        for _ in range(abs(e)):
            if e > 0:
                p = [x - y for x, y in zip(p + [0] * k, [0] * k + p)]
            else:
                for r in range(k):
                    p[r::k] = accumulate(p[r::k])
                if any(p[-k:]):
                    raise ArithmeticError(f"1 - v^{k} leaves a remainder: exponents miscounted")
                del p[-k:]
    return p


def closed_form(sign: int, a: int, b: int, c: int, blocks=()) -> RatFn:
    """sign * v^a * (1+v)^b * (1+v+v^2)^c * prod (1 - v^k)^e over the pairs
    (k, e), k >= 1, of ``blocks``, canonical without a gcd.

    With Phi_1 = 1 - v, 1+v = Phi_2, 1+v+v^2 = Phi_3 and 1 - v^k is the
    product of Phi_d over the divisors d of k.  The Phi_d are irreducible
    and prime to v, so once their exponents are summed the positive ones
    give a numerator prime to the denominator that the negative ones give.
    That denominator leads with (-1)^q, q its exponent of 1 - v: one sign
    flip makes it monic.
    """
    total = {2: b, 3: c}
    for k, e in blocks:
        for d in _divisors(k):
            total[d] = total.get(d, 0) + e
    num = _side({d: e for d, e in total.items() if e > 0})
    den = _side({d: -e for d, e in total.items() if e < 0})
    lead = den[-1]  # (-1)^q, its own inverse
    return RatFn._of(Poly([0] * a + [lead * sign * x for x in num]), Poly([lead * x for x in den]))


class Series:
    """Truncated power series in z with explicit order.

    A Series of order N stores the N+1 coefficients of z^0..z^N.  Binary
    operations return the minimum order of the operands; asking for a
    coefficient beyond the order raises IndexError rather than guessing 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(_norm_coeff(c) for c in coeffs)
        if not cs:
            raise ValueError("a series stores at least the constant term")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("series are immutable")

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "Series":
        cs = list(p.coeffs[: order + 1])
        cs += [0] * (order + 1 - len(cs))
        return cls(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        if n < 0:
            return 0
        if n > self.order:
            raise IndexError(f"coefficient of z^{n} unknown beyond order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Series", self.coeffs))

    def __neg__(self) -> "Series":
        return Series(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series((self.coeffs[0] + other,) + self.coeffs[1:])
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other) if isinstance(other, (int, Fraction, Series)) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Series):
            return NotImplemented
        return Series(_convolve(self.coeffs, other.coeffs, min(self.order, other.order)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisorNotUnit("division of a series by zero")
            return Series(tuple(_as_fraction(c) / other for c in self.coeffs))
        if not isinstance(other, Series):
            return NotImplemented
        if other.coeffs[0] == 0:
            raise DivisorNotUnit("series divisor has zero constant term")
        n = min(self.order, other.order)
        inv0 = _norm_coeff(1 / _as_fraction(other.coeffs[0]))
        # only the divisor's nonzero terms enter: O(n*d) for a degree-d polynomial
        terms = [(j, cb) for j, cb in enumerate(other.coeffs[1 : n + 1], 1) if cb]
        out = [0] * (n + 1)
        for i in range(n + 1):
            acc = self.coeffs[i] - sum(cb * out[i - j] for j, cb in terms if j <= i)
            out[i] = _norm_coeff(acc * inv0)
        return Series(out)

    def __pow__(self, e: int) -> "Series":
        if e < 0:
            raise ValueError("negative series power; divide instead")
        return _power(self, e, Series.from_poly(_UNIT, self.order))

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(_num_str(c) for c in self.coeffs[:8])
        more = ", ..." if self.order >= 8 else ""
        return f"Series(order={self.order}: [{shown}{more}])"


# --- the substitution v(z) ------------------------------------------------


def _times_one_minus_v2(w) -> list:
    """The prefix w(v) * (1 - v^2), truncated to len(w) terms."""
    return [c - w[k - 2] if k >= 2 else c for k, c in enumerate(w)]


def _lagrange_coeff(u, row, n: int):
    """[z^n] F(v(z)) for n >= 1 as [v^n] u*row, from u = F*(1 - v^2) and
    row = (1+v+v^2)^(n-1), both known at least through v^n."""
    return _norm_coeff(sum(u[j] * row[n - j] for j in range(max(2 - n, 0), n + 1) if u[j]))


def compose_with_v(coeffs_in_v, order: int) -> Series:
    """Substitute v(z) into an explicit v-series prefix, through z^order.

    Each coefficient is the Lagrange form of the module docstring; row n-1
    of the kernel powers is row n-2 convolved with (1, 1, 1), in one local
    sweep kept only through v^order.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    w = list(coeffs_in_v)[: order + 1]
    w += [0] * (order + 1 - len(w))
    u = _times_one_minus_v2(w)
    out = [w[0]]
    row = [1]
    for n in range(1, order + 1):
        out.append(_lagrange_coeff(u, row, n))
        row = [a + b + c for a, b, c in zip(row + [0, 0], [0] + row + [0], [0, 0] + row)]
        del row[order + 1 :]
    return Series(out)


def v_of_z(order: int) -> Series:
    """The series v(z) with v = z*(1+v+v^2), v(0) = 0, through z^order."""
    return compose_with_v((0, 1), order)


# --- the normal form A(z) + B(z)*S(z) ---------------------------------------
# Poly here holds a polynomial in z.

_Z = Poly((0, 1))


def _reduce_in_v(p: Poly) -> tuple[int, Poly, Poly]:
    """(m, a, b) with z^m * p(v) = a(z) + b(z)*v, m = max(deg p - 1, 0).

    Horner's rule in v, one factor z per step from the kernel relation
    z*v^2 = (1-z)*v - z: if z^e*H = a + b*v, then
    z^(e+1)*(c + v*H) = (c*z^(e+1) - z*b) + (z*a + (1-z)*b)*v.
    """
    cs = p.coeffs
    if len(cs) < 2:
        return 0, p, Poly()
    a, b = [cs[-2]], [cs[-1]]
    for e, c in enumerate(reversed(cs[:-2]), 1):
        a, b = [0] + [-y for y in b], [x + y - w for x, y, w in zip([0] + a, b + [0], [0] + b)]
        a[e] += c
    return len(cs) - 2, Poly(a), Poly(b)


def _sqrt_series(order: int) -> list[int]:
    """s_0..s_order of S = sqrt(1 - 2z - 3z^2), by the integer recurrence
    n*s_n = (2n-3)*s_(n-1) + (3n-9)*s_(n-2), from s_0 = 1, s_1 = -1."""
    s = [1, -1][: order + 1]
    for n in range(2, order + 1):
        q, r = divmod((2 * n - 3) * s[n - 1] + (3 * n - 9) * s[n - 2], n)
        if r:
            raise ArithmeticError(f"sqrt(1-2z-3z^2) recurrence not integral at n={n}")
        s.append(q)
    return s


def _normal_form(f: RatFn | Poly) -> tuple[int, Poly, Poly, Poly]:
    """(e, p, q, norm), polynomials in z, with f(v(z)) = z^e*(p + q*z*v)/norm.

    With z^mn*num(v) = an + bn*v and z^md*den(v) = ad + bd*v, multiplying
    both by the conjugate z*(ad + bd/v), 1/v = (1-z)/z - v, leaves the norm
    z*ad^2 + (1-z)*ad*bd + z*bd^2 below, and e = md - mn.  As
    z*v = (1 - z - S)/2, f = A + B*S with B = -z^e*q/(2*norm).
    """
    num, den = (f, Poly((1,))) if isinstance(f, Poly) else (f.num, f.den)
    if den.constant() == 0:
        raise PoleAtOrigin("denominator vanishes at v = 0")
    mn, an, bn = _reduce_in_v(num)
    md, ad, bd = _reduce_in_v(den)
    c = bd + _Z * (ad - bd)  # z*ad + (1-z)*bd
    return md - mn, an * c + _Z * bn * bd, ad * bn - an * bd, ad * c + _Z * bd * bd


def expand_in_z(f: RatFn | Poly, order: int) -> Series:
    """Compose f (a function of v) with v(z), truncated to the given order.

    Through the normal form f(v(z)) = z^e*(p + q*z*v)/norm of
    ``_normal_form``, with z*v = (1 - z - S)/2 read off the coefficients of
    S: norm = z^j*norm0 with norm0(0) != 0, the numerator series must vanish
    below z^(j-e) (ArithmeticError otherwise), and one series division by
    norm0 is left.  O(deg f) integer operations per coefficient;
    ``compose_with_v`` is the Lagrange route.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    e, p, q, norm = _normal_form(f)
    j = next(i for i, c in enumerate(norm.coeffs) if c)
    t = j - e  # mn, or mn + 1 for a constant denominator
    top = order + t
    zv = [0, 0][: top + 1] + [-c // 2 for c in _sqrt_series(top)[2:]]  # (1 - z - S)/2
    w = [a + b for a, b in zip(Series.from_poly(p, top).coeffs, _convolve(q.coeffs, zv, top))]
    if any(w[:t]):
        raise ArithmeticError(f"normal form of {f!r} does not vanish through z^{t - 1}")
    return Series(w[t:]) / Series.from_poly(Poly(norm.coeffs[j:]), order)


def expand_in_v(f: RatFn | Poly, order: int) -> Series:
    """Power-series expansion of f in the variable v itself."""
    if isinstance(f, Poly):
        f = RatFn(f)
    if f.den.constant() == 0:
        raise PoleAtOrigin("denominator vanishes at v = 0")
    num = Series.from_poly(f.num, order)
    den = Series.from_poly(f.den, order)
    return num / den


# --- trinomial coefficients ------------------------------------------------

_TRI_LOCK = threading.Lock()
_TRI_ROWS: dict[int, tuple[int, ...]] = {0: (1,)}


def _compute_row(n: int) -> tuple[int, ...]:
    # integer three-term recurrence along the row, through the middle:
    # (k+1) T(n,k+1) = (n-k) T(n,k) + (2n-k+1) T(n,k-1); the row is a
    # palindrome, T(n, 2n-k) = T(n, k), so the upper half mirrors the lower
    row = [0] * (n + 1)
    row[0] = 1
    for k in range(n):
        num = (n - k) * row[k] + ((2 * n - k + 1) * row[k - 1] if k >= 1 else 0)
        q, r = divmod(num, k + 1)
        if r:
            raise ArithmeticError(f"trinomial recurrence not integral at n={n}, k={k}")
        row[k + 1] = q
    return tuple(row + row[:n][::-1])


def trinomial_row(n: int) -> tuple[int, ...]:
    """Coefficients of (1+v+v^2)^n: the 2n+1 values trinomial(n, 0..2n)."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    with _TRI_LOCK:
        row = _TRI_ROWS.get(n)
        if row is None:
            row = _compute_row(n)
            _TRI_ROWS[n] = row
        return row


def trinomial(n: int, k: int) -> int:
    """[v^k](1+v+v^2)^n; zero outside 0 <= k <= 2n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > 2 * n:
        return 0
    return trinomial_row(n)[k]


def coeff_of_z(f: RatFn | Poly, n: int):
    """Single coefficient [z^n] f(v(z)) without building the z-series.

    The same Lagrange form as ``compose_with_v``, at one n: for n >= 1,
    [z^n] F(v(z)) = [v^n] F(v) * (1 - v^2) * (1+v+v^2)^(n-1), with the
    kernel power read from the trinomial row cache.
    """
    w = expand_in_v(f, max(n, 0)).coeffs
    if n < 1:
        return w[0] if n == 0 else 0
    return _lagrange_coeff(_times_one_minus_v2(w), trinomial_row(n - 1), n)


# --- optional disk cache ---------------------------------------------------

CACHE_FORMAT = "deutschpaths-cache"
CACHE_VERSION = 2
CACHE_FILENAME = "algebra_cache.json"


def save_cache(directory: str | Path) -> Path:
    """Persist the trinomial rows as versioned JSON.

    The file is written beside the cache under a temporary name and moved
    over it with ``os.replace``, so a failed write leaves the old cache whole.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with _TRI_LOCK:
        payload = {
            "format": CACHE_FORMAT,
            "version": CACHE_VERSION,
            "trinomial_rows": {str(n): list(row) for n, row in _TRI_ROWS.items()},
        }
    # json writes ints with str(), which raises ValueError past the interpreter's
    # int-to-str digit limit: meet that before encoding the whole cache, not midway
    for row in payload["trinomial_rows"].values():
        str(max(row))
    target = directory / CACHE_FILENAME
    tmp = directory / f".{CACHE_FILENAME}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return target


def load_cache(directory: str | Path) -> bool:
    """Merge a previously saved cache file; returns True if one was loaded.

    Every row is checked (length 2n+1, sum 3^n, palindrome) before any is
    merged, so a damaged file raises ValueError and changes nothing.
    """
    target = Path(directory) / CACHE_FILENAME
    if not target.exists():
        return False
    payload = json.loads(target.read_text())
    try:
        if payload.get("format") != CACHE_FORMAT or payload.get("version") != CACHE_VERSION:
            raise ValueError(f"unrecognized cache file {target}")
        rows = {int(k): tuple(int(c) for c in row) for k, row in payload["trinomial_rows"].items()}
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed cache file {target}: {exc!r}") from None
    for n, row in rows.items():
        if len(row) != 2 * n + 1 or sum(row) != 3**n or row != row[::-1]:
            raise ValueError(f"corrupt trinomial row {n} in {target}")
    with _TRI_LOCK:
        for n, row in rows.items():
            _TRI_ROWS.setdefault(n, row)
    return True

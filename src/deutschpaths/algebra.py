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
middle of the palindromic row and mirrored, cached in memory, and
optionally persisted to a small versioned JSON cache file.

The canonical form of a RatFn (numerator and denominator coprime,
denominator monic) is computed with integers only.  Each polynomial is split
once into a positive rational content and a primitive integer part (integer
coefficients with gcd 1); ``poly_gcd`` runs a primitive pseudo-remainder
sequence on the primitive parts (Knuth, TAOCP vol. 2, 4.6.1), both parts are
divided by the gcd exactly over the integers (Gauss's lemma), and one
rational scale, content(num) / (content(den) * lead(den / gcd)), is applied
at the end.  ``Poly.exact_div`` is the same integer division times the
ratio of the contents.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import threading
from fractions import Fraction
from pathlib import Path


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


def _gcd_primitive(a: list[int], b: list[int]) -> list[int]:
    """gcd of two nonzero primitive integer polynomials, up to sign, by the
    primitive pseudo-remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _prem_primitive(a, b)
    return [1] if b else a


class Poly:
    """Dense univariate polynomial in v with exact rational coefficients.

    Canonical form: no trailing zero coefficients; the zero polynomial has
    an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @classmethod
    def monomial(cls, c, k: int) -> "Poly":
        return cls((0,) * k + (c,))

    @classmethod
    def geometric(cls, k: int) -> "Poly":
        """1 + v + ... + v^(k-1)."""
        return cls((1,) * k)

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
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial; use RatFn")
        result = Poly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            else:
                mono = "v" if k == 1 else f"v^{k}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        out = " + ".join(terms)
        return out.replace("+ -", "- ")


#: The polynomial v.
V = Poly((0, 1))

#: The kernel polynomial 1 + v + v^2.
KERNEL = Poly((1, 1, 1))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd over Q[v], normalized to primitive integer coefficients with the
    lowest-order nonzero coefficient positive (so gcd(1-v^4, 1-v^6) = 1-v^2).

    Computed with integers only: a primitive pseudo-remainder sequence on the
    primitive parts of a and b.  gcd(0, 0) is 0.
    """
    parts = [_split(p.coeffs)[2] for p in (a, b) if p]
    if not parts:
        return Poly()
    g = _gcd_primitive(*parts) if len(parts) == 2 else parts[0]
    if next(c for c in g if c) < 0:
        g = [-c for c in g]
    return Poly(g)


class RatFn:
    """Rational function in v, kept in canonical form.

    Canonical form: gcd(num, den) = 1 and den monic (leading coefficient
    1).  Construction from a zero denominator raises DivisionByZero.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly((1,))):
        if not isinstance(num, Poly):
            num = Poly((num,))
        if not isinstance(den, Poly):
            den = Poly((den,))
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), Poly((1,))
        else:
            # num/den = (gn/dn)/(hn/hd) * p/q with p, q primitive integer
            # parts; divide both by their gcd, then make q monic
            gn, dn, p = _split(num.coeffs)
            hn, hd, q = _split(den.coeffs)
            g = poly_gcd(Poly(p), Poly(q)).coeffs
            if len(g) > 1:
                p, q = _exact_quo(p, g), _exact_quo(q, g)
            lead = q[-1]
            num = Poly(_scaled(gn * hd, dn * hn * lead, p))
            den = Poly(_scaled(1, lead, q))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("rational functions are immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_polynomial(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError(f"{self!r} is not a polynomial")
        return self.num

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFn(other if isinstance(other, Poly) else Poly((other,)))
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # a polynomial equals its numerator, so it hashes as one
        if self.den.coeffs == (1,):
            return hash(self.num)
        return hash(("RatFn", self.num, self.den))

    def __neg__(self) -> "RatFn":
        return RatFn(-self.num, self.den)

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFn):
            return x
        if isinstance(x, Poly):
            return RatFn(x)
        if isinstance(x, (int, Fraction)):
            return RatFn(Poly((x,)))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFn(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero rational function")
        return RatFn(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int) -> "RatFn":
        if e < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return RatFn(self.den, self.num) ** (-e)
        return RatFn(self.num**e, self.den**e)

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

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise IndexError(f"cannot extend series of order {self.order} to {order}")
        return Series(self.coeffs[: order + 1])

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
        if isinstance(other, (int, Fraction, Series)):
            return self + (-other if isinstance(other, Series) else -other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, ca in enumerate(self.coeffs[: n + 1]):
            if ca:
                for j in range(n + 1 - i):
                    cb = other.coeffs[j]
                    if cb:
                        out[i + j] += ca * cb
        return Series(out)

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
        result = Series.from_poly(Poly((1,)), self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
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
    w = list(Series.from_poly(p, top).coeffs)
    for i, c in enumerate(q.coeffs[: top + 1]):
        if c:
            w[i:] = [a + c * b for a, b in zip(w[i:], zv)]
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

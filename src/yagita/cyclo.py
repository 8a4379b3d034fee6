"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A ``CycNum`` stores an element of Q(zeta_N) as integer coordinates in the
power basis 1, z, ..., z^(phi(N)-1) modulo the N-th cyclotomic polynomial,
over a single positive denominator, always in lowest terms.  All integers
are arbitrary precision; exactness is non-negotiable here because matrix
eliminations and group closures blow coefficients up quickly.

The conductor is carried per number.  Binary operations on numbers with
different conductors first move both into the field of conductor
lcm(N1, N2), so plain integers, Gaussian integers and Z[zeta_p] elements mix
freely without any global state.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .numutil import divisors, euler_phi, power

__all__ = ["CycNum", "zeta", "cyclotomic_poly", "json_int"]


# ---------------------------------------------------------------------------
# integer polynomials as coefficient tuples, constant term first


def _poly_rem_monic(a, b) -> list[int]:
    """Remainder of a modulo monic b, over Z; returns a list of length deg b."""
    db = len(b) - 1
    r = list(a)
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top]
        if c:
            off = top - db
            for j in range(db):
                r[off + j] -= c * b[j]
            r[top] = 0
    del r[db:]
    return r


def _poly_div_exact(a, b) -> tuple[int, ...]:
    """Quotient of a by monic b when the division is exact over Z."""
    db = len(b) - 1
    r = list(a)
    q = [0] * (len(r) - db)
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top]
        if c:
            q[top - db] = c
            off = top - db
            for j in range(db + 1):
                r[off + j] -= c * b[j]
    if any(r):
        raise ArithmeticError("polynomial division was not exact")
    return tuple(q)


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the proper
    divisors of n; exact integer division at every step.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly: tuple[int, ...] = tuple([-1] + [0] * (n - 1) + [1])
    for d in divisors(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_poly(d))
    return poly


@functools.lru_cache(maxsize=None)
def _zeta_power(n: int, e: int) -> tuple[int, ...]:
    """Coordinates of zeta_n**e in the power basis (length phi(n))."""
    e %= n
    deg = euler_phi(n)
    if e < deg:
        return tuple(1 if i == e else 0 for i in range(deg))
    r = _poly_rem_monic([0] * e + [1], cyclotomic_poly(n))
    return tuple(r + [0] * (deg - len(r)))


def _mul_into(acc: list[int], an, bn) -> None:
    """Add the coordinate product of an and bn into acc, unreduced:
    ``an[i] * bn[j]`` goes to ``acc[i + j]``, so acc needs length
    len(an) + len(bn) - 1.  Zero coordinates are skipped.
    ``CycNum.__mul__`` and the matrix product both multiply numbers through
    this one routine."""
    if len(an) == 1 == len(bn):  # two rationals
        acc[0] += an[0] * bn[0]
        return
    for i, x in enumerate(an):
        if x:
            for k, y in enumerate(bn, i):
                if y:
                    acc[k] += x * y


def _sum_of_products(conductor: int, pairs) -> CycNum:
    """The sum of x * y over (x, y) pairs of numbers over this conductor.

    The terms are added on unreduced integer coordinates over one common
    denominator (rescaled to the lcm when a term's denominator differs), so
    the sum is reduced modulo the cyclotomic polynomial and put in lowest
    terms once, not once per term.
    """
    acc = [0] * (2 * euler_phi(conductor) - 1)
    den = 1
    for x, y in pairs:
        d = x.den * y.den
        xn = x.num
        if d != den:
            lcm = math.lcm(den, d)
            if lcm != den:
                f = lcm // den
                acc = [c * f for c in acc]
                den = lcm
            if lcm != d:
                f = lcm // d
                xn = [c * f for c in xn]
        _mul_into(acc, xn, y.num)
    return CycNum(conductor, acc, den)


# ---------------------------------------------------------------------------
# polynomials over Q, used only inside the extended Euclid for inversion


def _fpoly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _fpoly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    inv_lead = Fraction(1) / b[-1]
    q = [Fraction(0)] * max(0, len(a) - db)
    for top in range(len(a) - 1, db - 1, -1):
        c = a[top] * inv_lead
        if c:
            q[top - db] = c
            off = top - db
            for j in range(db + 1):
                a[off + j] -= c * b[j]
    return _fpoly_trim(q), _fpoly_trim(a[:db])


def _fpoly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _fpoly_trim(out)


def _fpoly_sub(a, b):
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _fpoly_trim(out)


def _inverse_coords(num: tuple[int, ...], n: int) -> tuple[list[int], int]:
    """Inverse of the algebraic number with integer coordinates num, as
    (integer coordinates, positive denominator).

    Extended Euclid of the coordinate polynomial against the (irreducible)
    cyclotomic polynomial over Q; the gcd is a nonzero constant c and the
    Bezout coefficient divided by c is the inverse.
    """
    phi = [Fraction(c) for c in cyclotomic_poly(n)]
    r0, s0 = phi, []
    r1 = _fpoly_trim([Fraction(c) for c in num])
    s1 = [Fraction(1)]
    if not r1:
        raise ZeroDivisionError("division by zero in Q(zeta_N)")
    while len(r1) > 1:
        q, r = _fpoly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _fpoly_sub(s0, _fpoly_mul(q, s1))
        if not r1:
            raise ArithmeticError("cyclotomic modulus was not coprime to numerator")
    c = r1[0]
    inv = [x / c for x in s1]
    den = math.lcm(*[f.denominator for f in inv]) if inv else 1
    coords = [int(f * den) for f in inv]
    return coords, den


# ---------------------------------------------------------------------------


class CycNum:
    """An exact element of Q(zeta_N); see the module docstring for layout."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs, den: int = 1):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        deg = euler_phi(conductor)
        cs = [int(c) for c in coeffs]
        if len(cs) > deg:
            cs = _poly_rem_monic(cs, cyclotomic_poly(conductor))
        if len(cs) < deg:
            cs = cs + [0] * (deg - len(cs))
        if den < 0:
            den = -den
            cs = [-c for c in cs]
        g = math.gcd(den, *cs) if cs else den
        if g > 1:
            den //= g
            cs = [c // g for c in cs]
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "num", tuple(cs))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("CycNum is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def rational(cls, value) -> CycNum:
        f = Fraction(value)
        return cls(1, (f.numerator,), f.denominator)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    # -- conversions ---------------------------------------------------------

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0] if self.num else 0, self.den)

    def embed(self, conductor: int) -> CycNum:
        """The same field element re-expressed with a multiple conductor."""
        if conductor % self.conductor:
            raise ValueError(
                f"conductor {conductor} is not a multiple of {self.conductor}"
            )
        if conductor == self.conductor:
            return self
        k = conductor // self.conductor
        acc = [0] * euler_phi(conductor)
        for i, c in enumerate(self.num):
            if c:
                for j, z in enumerate(_zeta_power(conductor, i * k)):
                    if z:
                        acc[j] += c * z
        return CycNum(conductor, acc, self.den)

    def galois(self, k: int) -> CycNum:
        """Image under the automorphism zeta_N -> zeta_N**k, gcd(k, N) = 1."""
        n = self.conductor
        if math.gcd(k, n) != 1:
            raise ValueError(f"{k} is not a unit mod {n}")
        acc = [0] * len(self.num)
        for i, c in enumerate(self.num):
            if c:
                for j, z in enumerate(_zeta_power(n, i * k % n)):
                    if z:
                        acc[j] += c * z
        return CycNum(n, acc, self.den)

    def inverse(self) -> CycNum:
        if self.is_zero:
            raise ZeroDivisionError("division by zero in Q(zeta_N)")
        coords, den = _inverse_coords(self.num, self.conductor)
        # self = num/d  =>  1/self = d * inverse(num)
        return CycNum(self.conductor, [self.den * c for c in coords], den)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> CycNum | None:
        if isinstance(other, CycNum):
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.rational(other)
        return None

    def _unify(self, other: CycNum) -> tuple[CycNum, CycNum]:
        if self.conductor == other.conductor:
            return self, other
        n = math.lcm(self.conductor, other.conductor)
        return self.embed(n), other.embed(n)

    def __add__(self, other) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._unify(o)
        if a.den == b.den:
            return CycNum(a.conductor, [x + y for x, y in zip(a.num, b.num)], a.den)
        return CycNum(
            a.conductor,
            [x * b.den + y * a.den for x, y in zip(a.num, b.num)],
            a.den * b.den,
        )

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return CycNum(self.conductor, [-c for c in self.num], self.den)

    def __sub__(self, other) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._unify(o)
        out = [0] * (2 * len(a.num) - 1)
        _mul_into(out, a.num, b.num)
        return CycNum(a.conductor, out, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> CycNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int) -> CycNum:
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e) if e else CycNum(self.conductor, (1,))

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._unify(o)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # hash through key() in a fixed-conductor context instead

    def key(self) -> tuple:
        """Canonical hashable form; meaningful within one fixed conductor."""
        return (self.conductor, self.num, self.den)

    # -- presentation ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "num": list(self.num), "den": self.den}

    @classmethod
    def from_json(cls, obj: dict) -> CycNum:
        num = [json_int(c) for c in obj["num"]]
        return cls(json_int(obj["conductor"]), num, json_int(obj["den"]))

    def __repr__(self) -> str:
        return f"CycNum({self.conductor}, {self.num}, {self.den})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        sym = f"z{self.conductor}"
        parts = []
        for i, c in enumerate(self.num):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = sym if i == 1 else f"{sym}^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        body = " + ".join(parts).replace("+ -", "- ")
        return body if self.den == 1 else f"({body})/{self.den}"


def json_int(value) -> int:
    """An integer field read from JSON: a JSON integer or a decimal-integer
    string.  Floats, booleans and everything else raise ValueError, so a
    malformed file is never read as some other number."""
    if type(value) is int:
        return value
    if isinstance(value, str) and re.fullmatch("-?[0-9]+", value):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r:.40}")


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n**k as an exact cyclotomic number."""
    return CycNum(n, _zeta_power(n, k))

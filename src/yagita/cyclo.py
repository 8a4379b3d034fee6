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

Every exact operation stays on integer coordinates.  A coordinate list
longer than phi(N) is reduced in two steps: it is first folded modulo
x^N - 1, which Phi_N divides, so that at most N coordinates are left (one
top coefficient for a prime N), and only those are reduced modulo Phi_N.
Division needs no polynomial arithmetic over Q: for x != 0 the norm N(x),
the product of the Galois conjugates sigma_k(x) (zeta_N -> zeta_N**k, k a
unit mod N), is a nonzero rational, so 1/x is the product of the
conjugates other than x itself divided by N(x).
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction

from .numutil import MAX_PRIME, divisors, euler_phi, factorize, power

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


def _fold(a: list[int], n: int) -> list[int]:
    """a modulo x^n - 1: coefficient i goes to i mod n.  Every cyclotomic
    polynomial of conductor n divides x^n - 1, so this is the same number;
    a product over a prime conductor p has 2p - 3 coordinates, and after
    the fold one top coefficient is left to reduce."""
    out = a[:n]
    for s in range(n, len(a), n):
        chunk = a[s:s + n]
        out[:len(chunk)] = map(operator.add, out, chunk)
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    With r the product of the primes dividing n, Phi_n(x) = Phi_r(x^(n/r)),
    and Moebius inversion of x^r - 1 = prod_{d | r} Phi_d gives
    Phi_r = prod_{d | r} (x^d - 1)^mu(r/d).  The binomials with mu = 1 are
    multiplied in first and those with mu = -1 divided out after, each in
    one pass linear in the degree; every division is exact, since each
    Phi_d (d < r) occurs as often in the binomials divided out as in those
    multiplied in.
    """
    if n < 1:
        raise ValueError("n must be positive")
    r = math.prod(factorize(n))
    by_mu: dict[int, list[int]] = {1: [], -1: []}
    for d in divisors(r):
        by_mu[(-1) ** len(factorize(r // d))].append(d)
    poly = [1]
    for d in by_mu[1]:  # times x^d - 1
        poly = [b - a for a, b in zip(poly + [0] * d, [0] * d + poly)]
    for d in by_mu[-1]:  # over x^d - 1: a_k = q_(k-d) - q_k
        q: list[int] = []
        for k in range(len(poly) - d):
            q.append((q[k - d] if k >= d else 0) - poly[k])
        if poly[len(q):] != ([0] * d + q)[len(q):]:
            raise ArithmeticError("polynomial division was not exact")
        poly = q
    out = [0] * ((len(poly) - 1) * (n // r) + 1)
    out[:: n // r] = poly
    return tuple(out)


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
    len(an) + len(bn) - 1.  Only nonzero coordinates meet: those of bn are
    listed once, so a sparse number (a root of unity, say) costs one
    product per nonzero coordinate of the other, whatever the conductor.
    ``CycNum.__mul__`` and the matrix-vector images of ``exactmat`` multiply
    numbers through this one routine; a matrix product packs its entries
    into integers instead."""
    if len(an) == 1 == len(bn):  # two rationals
        acc[0] += an[0] * bn[0]
        return
    terms = [(k, y) for k, y in enumerate(bn) if y]
    for i, x in enumerate(an):
        if x:
            for k, y in terms:
                acc[i + k] += x * y


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


class CycNum:
    """An exact element of Q(zeta_N); see the module docstring for layout."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs, den: int = 1):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        den = operator.index(den)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        deg = euler_phi(conductor)
        cs = list(map(operator.index, coeffs))
        if len(cs) > conductor:
            cs = _fold(cs, conductor)
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
    def _of(cls, conductor: int, num: tuple, den: int) -> CycNum:
        """The number num / den, trusted as it is: num holds phi(conductor)
        coordinates, already reduced, and den > 0 is in lowest terms with
        them."""
        x = object.__new__(cls)
        object.__setattr__(x, "conductor", conductor)
        object.__setattr__(x, "num", num)
        object.__setattr__(x, "den", den)
        return x

    @classmethod
    def rational(cls, value) -> CycNum:
        f = Fraction(value)
        return cls(1, (f.numerator,), f.denominator)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    # -- conversions ---------------------------------------------------------

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0] if self.num else 0, self.den)

    def _substitute(self, conductor: int, k: int) -> CycNum:
        """The number with zeta_N**i replaced by zeta_M**(i*k), M = conductor:
        the one substitution loop behind ``embed`` and ``galois``."""
        acc = [0] * euler_phi(conductor)
        for i, c in enumerate(self.num):
            if c:
                for j, z in enumerate(_zeta_power(conductor, i * k % conductor)):
                    if z:
                        acc[j] += c * z
        return CycNum(conductor, acc, self.den)

    def embed(self, conductor: int) -> CycNum:
        """The same field element re-expressed with a multiple conductor."""
        if conductor % self.conductor:
            raise ValueError(
                f"conductor {conductor} is not a multiple of {self.conductor}"
            )
        if conductor == self.conductor:
            return self
        return self._substitute(conductor, conductor // self.conductor)

    def galois(self, k: int) -> CycNum:
        """Image under the automorphism zeta_N -> zeta_N**k, gcd(k, N) = 1."""
        n = self.conductor
        if math.gcd(k, n) != 1:
            raise ValueError(f"{k} is not a unit mod {n}")
        return self._substitute(n, k)

    def inverse(self) -> CycNum:
        """1/x by the norm: N(x) = x * P is rational, where P is the product
        of the conjugates sigma_k(x) over the units k != 1 mod N, so
        1/x = P / N(x).  A rational x inverts directly."""
        if self.is_zero:
            raise ZeroDivisionError("division by zero in Q(zeta_N)")
        n, r = self.conductor, self.as_rational()
        if r is not None:
            return CycNum(n, (r.denominator,), r.numerator)
        # conjugates of the integral numerator a = den * x keep every
        # product integral; then 1/x = den * P(a) / N(a)
        a = CycNum(n, self.num)
        conj = CycNum(n, (1,))
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                conj = conj * a.galois(k)
        norm = (a * conj).as_rational()
        if norm is None:
            raise ArithmeticError("the norm of a cyclotomic number was not rational")
        return CycNum(n, [self.den * c for c in conj.num], norm.numerator)

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
        n, num = _json_entry(obj)
        return cls(n, [json_int(c) for c in num], json_int(obj["den"]))

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


def _check_conductor(value) -> int:
    """A conductor read from input, bounded before anything factors it."""
    n = json_int(value)
    if n < 1:
        raise ValueError(f"conductor {n} is not positive")
    if n > MAX_PRIME:
        raise ValueError(f"conductor {n} exceeds the cap {MAX_PRIME}")
    return n


def _json_entry(obj) -> tuple[int, list]:
    """(N, num) of a number in JSON, once N is bounded and num is a list of
    at most phi(N) items, still unread."""
    n = _check_conductor(obj["conductor"])
    num = obj["num"]
    if not isinstance(num, list):
        raise TypeError("entry num is not a list")
    if len(num) > euler_phi(n):
        raise ValueError(f"entry num of length {len(num)} exceeds the cap phi({n}) = {euler_phi(n)}")
    return n, num


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n**k as an exact cyclotomic number."""
    return CycNum(n, _zeta_power(n, k))

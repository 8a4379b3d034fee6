"""Polynomials over the prime field F_p.

These carry the total Chern classes produced by the chern module.  The two
operations that matter beyond plain arithmetic are the gcd of the exponents
appearing in a polynomial (which measures the largest n such that the
polynomial lies in the subalgebra generated by x^n) and root extraction over
the unit group F_p^x by trial division.

A polynomial is stored densely: ``coeffs[i]`` is the coefficient of x^i,
reduced mod p, with no trailing zeros.  The zero polynomial has an empty
coefficient tuple.  The exponent gcd of a constant polynomial is 0, the
gcd of no exponents, which every n divides: a constant imposes no
constraint at all.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass

from .numutil import MAX_N, MAX_PRIME, is_prime, power

_TERM_RE = re.compile(r"^\s*([+-]?\d+|[+-])?\s*\*?\s*(x(?:\^(\d+))?)?\s*$")


class FpPoly:
    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        cs = [operator.index(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))

    # immutable
    def __setattr__(self, *_):
        raise AttributeError("FpPoly is immutable")

    @classmethod
    def zero(cls, p: int) -> FpPoly:
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> FpPoly:
        return cls(p, (1,))

    @classmethod
    def constant(cls, p: int, c: int) -> FpPoly:
        return cls(p, (c,))

    @classmethod
    def x(cls, p: int) -> FpPoly:
        return cls(p, (0, 1))

    @classmethod
    def one_plus_ax(cls, p: int, a: int) -> FpPoly:
        return cls(p, (1, a))

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = FpPoly.constant(self.p, other)
        if not isinstance(other, FpPoly):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __add__(self, other) -> FpPoly:
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FpPoly(self.p, out)

    __radd__ = __add__

    def __neg__(self) -> FpPoly:
        return FpPoly(self.p, (-c for c in self.coeffs))

    def __sub__(self, other) -> FpPoly:
        return self + (-self._coerce(other))

    def __mul__(self, other) -> FpPoly:
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return FpPoly.zero(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return FpPoly(self.p, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> FpPoly:
        if e < 0:
            raise ValueError("negative powers of polynomials are undefined")
        return power(self, e) if e else FpPoly.one(self.p)

    def _coerce(self, other) -> FpPoly:
        if isinstance(other, FpPoly):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return FpPoly.constant(self.p, other)
        raise TypeError(f"cannot combine FpPoly with {type(other).__name__}")

    def evaluate(self, r: int) -> int:
        """Value at r, as a residue in [0, p)."""
        p, y = self.p, 0
        r %= p
        for c in reversed(self.coeffs):
            y = (y * r + c) % p
        return y

    __call__ = evaluate

    def compose_xk(self, k: int) -> FpPoly:
        """The polynomial f(x^k)."""
        if k < 1:
            raise ValueError("k must be positive")
        out = [0] * (k * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return FpPoly(self.p, out)

    def exponent_gcd(self) -> int:
        """Gcd of the exponents of the nonconstant terms; 0 for constants.

        For a nonconstant polynomial this is the largest n such that it can
        be written as a polynomial in x^n.  A constant is a polynomial in
        x^n for every n, and 0 is the one value every n divides.
        """
        g = 0
        for i, c in enumerate(self.coeffs):
            if i and c:
                g = math.gcd(g, i)
        return g

    def all_roots_in_units(self, candidates=None) -> tuple[bool, Counter]:
        """Strip every root in F_p^x by trial division, trying each residue
        of candidates in turn (by default every unit 1, ..., p - 1).

        Returns (True, multiset of roots) when the fully divided quotient is
        constant, i.e. the polynomial splits with all roots in the unit group;
        otherwise (False, {}).  Each trial is one Horner pass over the
        coefficient list, which gives the quotient by (x - r) and, last, the
        remainder f(r).  A caller that knows the roots, such as the distinct
        roots of linear factors it multiplied, passes them as candidates,
        each in [1, p); a root missing from them leaves a nonconstant
        quotient, and so gives False.
        """
        if self.is_zero:
            raise ValueError("zero polynomial has no well-defined root set")
        p = self.p
        g = self.coeffs[::-1]  # leading coefficient first
        roots: Counter = Counter()
        for r in range(1, p) if candidates is None else candidates:
            if len(g) == 1:
                break
            if not 0 < r < p:
                raise ValueError(f"candidate root {r} is not a unit in [1, {p})")
            while len(g) > 1:
                acc, q = 0, []
                for c in g:
                    acc = (acc * r + c) % p
                    q.append(acc)
                if q.pop():
                    break
                g = q
                roots[r] += 1
        if len(g) == 1:
            return True, roots
        return False, Counter()

    def __str__(self) -> str:
        if self.is_zero:
            return f"0 (mod {self.p})"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts) + f" (mod {self.p})"

    def __repr__(self) -> str:
        return f"FpPoly({self.p}, {self.coeffs})"


def mp_q_decompose(n: int, p: int) -> tuple[int, int]:
    """Write n = m * p**q with p not dividing m; returns (m, q)."""
    if n < 1:
        raise ValueError("n must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = 0
    while n % p == 0:
        n //= p
        q += 1
    return n, q


@dataclass(frozen=True)
class Prop6Verdict:
    gcd: int
    m: int
    q: int


def check_prop6(f: FpPoly, candidates=None) -> Prop6Verdict:
    """For nonconstant f with all roots in F_p^x, decompose its exponent gcd.
    The roots are searched among candidates (``all_roots_in_units``).

    Writing the gcd as m * p**q, the factor m must divide p - 1.  A failure
    here cannot come from the input (the divisibility is a theorem), so it is
    raised as an arithmetic error rather than returned.
    """
    if f.is_constant:
        raise ValueError("need a nonconstant polynomial")
    ok, _ = f.all_roots_in_units(candidates)
    if not ok:
        raise ValueError("polynomial has roots outside F_p^x")
    n = f.exponent_gcd()
    m, q = mp_q_decompose(n, f.p)
    if (f.p - 1) % m:
        raise ArithmeticError(
            f"exponent gcd {n} = {m}*{f.p}^{q} with {m} not dividing {f.p - 1}; "
            "this indicates an arithmetic bug"
        )
    return Prop6Verdict(n, m, q)


def random_unit_factors(p: int, rng, max_factors: int = 10) -> list[int]:
    """The a of each factor 1 + a*x of a random product of at most
    max_factors linear factors, a in F_p^x: one rng.randint for their
    number, then one for each a."""
    return [rng.randint(1, p - 1) for _ in range(rng.randint(1, max_factors))]


def linear_product(p: int, factors) -> FpPoly:
    """The product of the linear factors 1 + a*x over a in factors."""
    f = [1]
    for a in factors:
        # f * (1 + a*x) in place: coefficient i gains a times coefficient i - 1
        f.append(0)
        for i in range(len(f) - 1, 0, -1):
            f[i] = (f[i] + a * f[i - 1]) % p
    return FpPoly(p, f)


def random_unit_root_product(p: int, rng, max_factors: int = 10) -> FpPoly:
    """Random product of at most max_factors linear factors (1 + a*x), a in F_p^x."""
    return linear_product(p, random_unit_factors(p, rng, max_factors))


def parse_fp_poly(text: str, p: int | None = None) -> FpPoly:
    """Parse "c0 + c1*x + c2*x^2 (mod p)"; a trailing modulus must equal p
    when both are given, and is bounded by MAX_PRIME before any primality
    test."""
    text = text.strip()
    m = re.search(r"\(mod\s+(\d+)\)\s*$", text)
    if m:
        q = int(m.group(1))
        if q > MAX_PRIME:
            raise ValueError(f"modulus {q} exceeds the cap {MAX_PRIME}")
        if p is not None and q != p:
            raise ValueError(f"modulus {q} differs from the prime {p}")
        p = q
        text = text[: m.start()].strip()
    if p is None:
        raise ValueError("no modulus given: append '(mod p)' or pass p")
    coeffs: dict[int, int] = {}
    for chunk in re.split(r"(?=[+-])", text.replace(" ", "")):
        if not chunk or chunk in "+-":
            continue
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        c_str, x_part, exp_str = m.groups()
        if c_str is None and x_part is None:
            continue
        c = int(c_str) if c_str not in (None, "+", "-") else (-1 if c_str == "-" else 1)
        e = 0 if x_part is None else (1 if exp_str is None else int(exp_str))
        if e > MAX_N:
            # a total Chern class of an n-dimensional representation has
            # degree at most n
            raise ValueError(f"exponent {e} exceeds the cap {MAX_N}")
        coeffs[e] = coeffs.get(e, 0) + c
    out = [0] * (max(coeffs, default=0) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return FpPoly(p, out)

"""Symbolic descriptions of the coefficient ring.

The computations downstream never need general number-field arithmetic from
the coefficient ring; they need two facts about it: the degree
l = [F(zeta_p) : F] of the p-th cyclotomic extension of its fraction field,
and the order of its (cyclic) group of roots of unity.  Both are determined
symbolically for the supported ring kinds:

* ``RationalIntegers`` -- Z;
* ``Cyclotomic(n)`` -- the ring of integers Z[zeta_n] of Q(zeta_n)
  (``Z[i]`` parses to ``Cyclotomic(4)``);
* ``QuadraticOrder(d)`` -- the maximal order of Q(sqrt(d)), d squarefree;
* ``SubCyclotomicFixedField(p, d)`` -- the ring of integers of the unique
  degree-d subfield of Q(zeta_p);
* ``AbstractRing(l, m)`` -- an escape hatch where the caller asserts l and
  the order m of the root-of-unity group directly.

Anything else would require factoring cyclotomic polynomials over the field
and is deliberately rejected with ``UnsupportedFieldError`` rather than
guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .numutil import MAX_PRIME, euler_phi, is_prime, squarefree_part


class UnsupportedFieldError(ValueError):
    pass


@dataclass(frozen=True)
class RationalIntegers:
    def __str__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class Cyclotomic:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("conductor must be >= 1")

    def __str__(self) -> str:
        return f"cyclotomic:{self.n}"


@dataclass(frozen=True)
class QuadraticOrder:
    d: int

    def __post_init__(self):
        if self.d in (0, 1):
            raise ValueError("discriminant parameter must not be 0 or 1")
        if squarefree_part(self.d) != self.d:
            raise ValueError(f"{self.d} is not squarefree")

    def __str__(self) -> str:
        return f"quadratic:{self.d}"


@dataclass(frozen=True)
class SubCyclotomicFixedField:
    p: int
    d: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.d < 1 or (self.p - 1) % self.d != 0:
            raise ValueError("subfield degree must divide p - 1")

    def __str__(self) -> str:
        return f"subcyclotomic:{self.p}:{self.d}"


@dataclass(frozen=True)
class AbstractRing:
    l: int
    m: int

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.m < 2 or self.m % 2:
            raise ValueError("root-of-unity order must be even and >= 2")

    def __str__(self) -> str:
        return f"abstract:{self.l}:{self.m}"


RingSpec = Union[
    RationalIntegers, Cyclotomic, QuadraticOrder, SubCyclotomicFixedField, AbstractRing
]


def is_rational_integers(ring: RingSpec) -> bool:
    """Z itself, including the degenerate cyclotomic conductors 1 and 2 and
    the degree-1 subfield Q of any Q(zeta_p)."""
    if isinstance(ring, RationalIntegers):
        return True
    if isinstance(ring, SubCyclotomicFixedField):
        return ring.d == 1
    return isinstance(ring, Cyclotomic) and ring.n in (1, 2)


def compute_l(ring: RingSpec, p: int) -> int:
    """Degree of F(zeta_p) over the fraction field F of the ring.

    For a quadratic field the degree halves exactly when the field is the
    quadratic subfield Q(sqrt(p*)) of Q(zeta_p), where p* = (-1)^((p-1)/2) p;
    this is the classical fact sqrt(p*) in Q(zeta_p).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if isinstance(ring, RationalIntegers):
        return p - 1
    if isinstance(ring, Cyclotomic):
        return euler_phi(math.lcm(ring.n, p)) // euler_phi(ring.n)
    if isinstance(ring, QuadraticOrder):
        if p == 2:
            return 1
        pstar = p if p % 4 == 1 else -p
        return (p - 1) // 2 if ring.d == pstar else p - 1
    if isinstance(ring, SubCyclotomicFixedField):
        if p == ring.p:
            return (p - 1) // ring.d
        # F lies in Q(zeta_q), which meets the Galois field Q(zeta_p) only
        # in Q for p != q, so [F(zeta_p):F] = [Q(zeta_p):Q] (1 at p = 2)
        return p - 1
    if isinstance(ring, AbstractRing):
        return ring.l
    raise UnsupportedFieldError(f"unsupported ring {ring!r}")


def roots_of_unity_order(ring: RingSpec) -> int:
    """Order of the group of roots of unity in the fraction field."""
    if isinstance(ring, RationalIntegers):
        return 2
    if isinstance(ring, Cyclotomic):
        return ring.n if ring.n % 2 == 0 else 2 * ring.n
    if isinstance(ring, QuadraticOrder):
        if ring.d == -1:
            return 4
        if ring.d == -3:
            return 6
        return 2
    if isinstance(ring, SubCyclotomicFixedField):
        # a proper subfield of Q(zeta_p) contains only +-1; the degenerate
        # d = p-1 case is Q(zeta_p) itself, which is Q at p = 2
        return math.lcm(2, ring.p) if ring.d == ring.p - 1 else 2
    if isinstance(ring, AbstractRing):
        return ring.m
    raise UnsupportedFieldError(f"unsupported ring {ring!r}")


def has_nth_root_of_minus_one(ring: RingSpec, n: int) -> bool:
    """Whether some root of unity x in the ring satisfies x**n = -1.

    In the cyclic group of order M this means t*n = M/2 (mod M) is solvable,
    i.e. gcd(n, M) divides M/2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = roots_of_unity_order(ring)
    return (m // 2) % math.gcd(n, m) == 0


def contains_zeta_p(ring: RingSpec, p: int) -> bool:
    return compute_l(ring, p) == 1


def _bounded(text: str, name: str) -> int:
    v = int(text)
    if abs(v) > MAX_PRIME:
        raise ValueError(f"|{name}| = {abs(v)} exceeds the cap {MAX_PRIME}")
    return v


def parse_ring(text: str) -> RingSpec:
    """Parse "Z", "Z[i]", "cyclotomic:N", "quadratic:D",
    "subcyclotomic:p:d" or "abstract:l:M".

    N, |D| and p are bounded by MAX_PRIME before anything is factored."""
    t = text.strip()
    if t == "Z":
        return RationalIntegers()
    if t == "Z[i]":
        return Cyclotomic(4)
    parts = t.split(":")
    kind = parts[0].lower()
    try:
        if kind == "cyclotomic" and len(parts) == 2:
            return Cyclotomic(_bounded(parts[1], "N"))
        if kind == "quadratic" and len(parts) == 2:
            return QuadraticOrder(_bounded(parts[1], "D"))
        if kind == "subcyclotomic" and len(parts) == 3:
            return SubCyclotomicFixedField(_bounded(parts[1], "p"), int(parts[2]))
        if kind == "abstract" and len(parts) == 3:
            return AbstractRing(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise UnsupportedFieldError(f"bad ring spec {text!r}: {exc}") from exc
    raise UnsupportedFieldError(f"cannot parse ring spec {text!r}")

"""Total Chern classes mod p of order-p matrices, and the divisor bound.

An order-p matrix splits over C into one-dimensional eigenspaces with
eigenvalues zeta_p**a; the multiplicity of each exponent a is read exactly
off the one trace of the matrix by the trace form of Q(zeta_p), in integer
steps linear in p (no polynomial factorization).  The total Chern class of
the corresponding representation of the cyclic group is then the product of
(1 + a*x)^(multiplicity of a) over F_p, and the gcd of its exponents is an
upper-bound divisor for how deep the restricted cohomology image can sit.
That gcd is an exact integer; it is 0 only for the identity, whose constant
class imposes no constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycNum
from .exactmat import CycMatrix
from .fppoly import FpPoly
from .numutil import euler_phi, is_prime, ramanujan_sum


class MultiplicityError(ArithmeticError):
    """Raised when an eigenvalue multiplicity fails to come out a
    nonnegative integer; that can only mean an arithmetic bug."""


@dataclass(frozen=True)
class EigenExponents:
    """Multiplicities of the eigenvalues zeta_p**a of an order-p matrix,
    indexed by a = 0 .. p-1."""

    p: int
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.multiplicities) != self.p:
            raise ValueError("need one multiplicity per residue")
        if any(m < 0 for m in self.multiplicities):
            raise ValueError("multiplicities must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.multiplicities)

    def as_dict(self) -> dict[int, int]:
        return {a: m for a, m in enumerate(self.multiplicities) if m}


def eigen_exponents(m: CycMatrix, p: int) -> EigenExponents:
    """Exact eigenvalue-exponent multiplicities of a matrix with m**p = I;
    raises ValueError for a composite p or a matrix of another order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m**p != CycMatrix.identity(m.size, m.conductor):
        raise ValueError("matrix does not satisfy m**p = identity")
    return exponents_from_trace(m.trace(), m.size, p)


def exponents_from_trace(t: CycNum, n: int, p: int) -> EigenExponents:
    """Multiplicities of the eigenvalues zeta_p**a of an n x n matrix of
    order dividing the prime p, from its trace t alone.

    The eigenvalues are p-th roots of unity, so t lies in Q(zeta_p) and the
    trace form gives p * mult(a) = n + Tr_{Q(zeta_p)/Q}(t * zeta_p**(-a)).
    With t = sum t_i zeta_c**i / d over its conductor c and N = lcm(c, p),
    that trace is (p - 1) / phi(N) times the trace from Q(zeta_N), which is
    sum t_i c_N(k*i - a*N/p) / d with k = N/c and c_N the Ramanujan sum.
    Each value must be a nonnegative rational integer and they must sum to n.
    """
    big = math.lcm(t.conductor, p)
    k, step = big // t.conductor, big // p
    terms = [(k * i, ti) for i, ti in enumerate(t.num) if ti]
    den = euler_phi(big) * t.den
    mults = []
    for a in range(p):
        acc = sum(ti * ramanujan_sum(big, j - a * step) for j, ti in terms)
        v = (n + Fraction((p - 1) * acc, den)) / p
        if v.denominator != 1 or v < 0:
            raise MultiplicityError(
                f"multiplicity of exponent {a} came out {v!r}; arithmetic bug"
            )
        mults.append(int(v))
    if sum(mults) != n:
        raise MultiplicityError("multiplicities do not sum to the matrix size")
    return EigenExponents(p, tuple(mults))


def total_chern(e: EigenExponents) -> FpPoly:
    """Product of (1 + a*x)^multiplicity(a) over F_p; the exponent a = 0
    (trivial summand) contributes the factor 1."""
    f = FpPoly.one(e.p)
    for a, mult in enumerate(e.multiplicities):
        if a and mult:
            f = f * FpPoly.one_plus_ax(e.p, a) ** mult
    return f


def n_upper(e: EigenExponents) -> int:
    """Exponent gcd of the total Chern class of an order-p matrix with these
    eigen exponents: every group mapping into the ambient general linear
    group and containing that element has its depth invariant n(C) dividing
    this value.  0 for a trivially acting element, which every n divides
    (no constraint)."""
    return total_chern(e).exponent_gcd()

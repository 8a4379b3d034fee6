"""Total Chern classes mod p of order-p matrices, and the divisor bound.

An order-p matrix splits over C into one-dimensional eigenspaces with
eigenvalues zeta_p**a; the multiplicity of each exponent a is recovered
exactly by character orthogonality from one trace and its Galois
conjugates (no polynomial factorization needed).  The total Chern class of
the corresponding representation of the cyclic group is then the product of
(1 + a*x)^(multiplicity of a) over F_p, and the gcd of its exponents is an
upper-bound divisor for how deep the restricted cohomology image can sit.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

from .cyclo import CycNum, _sum_of_products, zeta
from .exactmat import CycMatrix, MatrixGroup, order_p_cyclic_subgroups
from .fppoly import INFINITY, FpPoly
from .numutil import is_prime


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
    """Exact eigenvalue-exponent multiplicities of a matrix with m**p = I.

    multiplicity(a) = (1/p) * sum_k trace(m**k) * zeta_p**(-a k), evaluated
    in the cyclotomic field of conductor N = lcm(conductor, p).  As the
    eigenvalues are p-th roots of unity, trace(m**k) is the image of trace(m)
    under zeta_N -> zeta_N**c for a unit c = k mod p.  Each value must be a
    nonnegative rational integer and they must sum to the size.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = m.size
    if m**p != CycMatrix.identity(n, m.conductor):
        raise ValueError("matrix does not satisfy m**p = identity")
    cond = math.lcm(m.conductor, p)
    tr = m.trace().embed(cond)
    traces = [CycNum(cond, (n,))]
    for k in range(1, p):
        # k + p*j meets every residue mod the prime-to-p part of cond
        c = next(c for c in range(k, cond + k, p) if math.gcd(c, cond) == 1)
        traces.append(tr.galois(c))
    step = cond // p  # zeta_cond**step is a primitive p-th root of unity
    roots = [zeta(cond, k * step) for k in range(p)]
    mults = []
    for a in range(p):
        # the p terms are summed on coordinates and reduced once
        acc = _sum_of_products(
            cond, ((t, roots[-a * k % p]) for k, t in enumerate(traces))
        )
        v = CycNum(cond, acc.num, acc.den * p).as_rational()
        if v is None or v.denominator != 1 or v < 0:
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


def n_upper(e: EigenExponents):
    """Exponent gcd of the total Chern class of an order-p matrix with these
    eigen exponents: every group mapping into the ambient general linear
    group and containing that element has its depth invariant n(C) dividing
    this value.  INFINITY for a trivially acting element (no constraint)."""
    return total_chern(e).exponent_gcd()


def rationality_check(m: CycMatrix, p: int, l: int) -> bool:
    """Whether the total Chern class is a polynomial in x**l, as it must be
    for an order-p element arising over a field with [F(zeta_p):F] = l."""
    g = n_upper(eigen_exponents(m, p))
    if g == INFINITY:
        return True
    return g % l == 0


def yagita_upper_witness(group: MatrixGroup, p: int):
    """Lcm of 2 * n_upper over one representative per order-p cyclic
    subgroup: an upper-bound divisor for the Yagita invariant of any group
    factoring through this matrix group.  Groups without order-p elements
    give 1 (empty lcm); infinite entries impose no constraint and are
    skipped."""
    reps = order_p_cyclic_subgroups(group, p)
    finite = []
    for m in reps:
        v = n_upper(eigen_exponents(m, p))
        if v != INFINITY:
            finite.append(2 * int(v))
    return math.lcm(*finite) if finite else 1

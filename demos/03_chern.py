#!/usr/bin/env python3
"""From an order-p matrix to its total Chern class and divisor bound.

The eigenvalues of an order-p matrix are p-th roots of unity; their
exponent multiplicities come out of exact trace sums.  The total Chern
class is then a polynomial over F_p, and the gcd of its exponents bounds
how deep the cohomology restriction can sit, which is the upper-bound half
of the invariant computation.
"""

from yagita import (
    CycMatrix,
    closure,
    eigen_exponents,
    n_upper,
    order_p_cyclic_subgroups,
    total_chern,
    yagita_upper_witness,
    zeta,
)
from yagita.witness import build_extraspecial_monomial, regular_rep_zeta

print("multiplication by zeta_5 on the power basis of Z[zeta_5]:")
m = regular_rep_zeta(5)
e = eigen_exponents(m, 5)
print("  eigenvalue exponents:", e.as_dict())
print("  total Chern class:  ", total_chern(e))
print("  exponent gcd (n_upper):", n_upper(e))

print()
print("the central element zeta_3 * I of the order-27 group:")
c = zeta(3) * CycMatrix.identity(3, 3)
e = eigen_exponents(c, 3)
print("  exponents:", e.as_dict())
print("  total Chern class:", total_chern(e))
print("  n_upper:", n_upper(e))

print()
print("identity matrices impose no constraint at all:")
nu = n_upper(eigen_exponents(CycMatrix.identity(3), 3))  # 0: every n divides it
print("  n_upper(I_3 at p=3):", "no constraint" if nu == 0 else nu)

print()
print("scanning all 13 order-3 subgroups of the order-27 witness:")
w = build_extraspecial_monomial(3, 1)
g = closure(w.generators)
for i, rep in enumerate(order_p_cyclic_subgroups(g, 3)):
    print(f"  subgroup {i:2d}: n_upper = {n_upper(eigen_exponents(g.matrix(rep), 3))}")
print("lcm of 2*n_upper over subgroups:", yagita_upper_witness(g, 3))
print("(the group invariant 6 divides it, as it must)")

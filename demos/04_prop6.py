#!/usr/bin/env python3
"""The exponent-gcd shape of polynomials with unit roots.

A polynomial over F_p whose roots all lie in F_p^x can only be a
polynomial in x^n when n = m * p^q with m dividing p - 1.  The library
surfaces this as check_prop6; here it is exercised on hand-picked products
and then on a few thousand random ones.
"""

import random

from yagita import FpPoly, check_prop6
from yagita.fppoly import random_unit_root_product

print("hand-picked products of linear factors (1 + a x):")
examples = [
    (3, [1, 2]),          # (1+x)(1+2x) = 1 + 2x^2 mod 3
    (3, [1, 1, 1]),       # (1+x)^3 = 1 + x^3 mod 3
    (5, [1, 2, 3, 4]),    # all units: 1 + 4x^4 mod 5
    (7, [3, 5]),
]
for p, roots in examples:
    f = FpPoly.one(p)
    for a in roots:
        f = f * FpPoly.one_plus_ax(p, a)
    v = check_prop6(f)
    print(f"  {str(f):28s} gcd={v.gcd} = {v.m} * {p}^{v.q}, m | p-1: {(p - 1) % v.m == 0}")

print()
print("randomized sweep:")
for p in (3, 5, 7, 11, 13):
    rng = random.Random(42)
    count = 2000
    for _ in range(count):
        assert (p - 1) % check_prop6(random_unit_root_product(p, rng)).m == 0
    print(f"  p={p:2d}: {count} random root-in-units products, decomposition holds for all")

#!/usr/bin/env python3
"""Build and machine-verify the finite witness groups.

Each construction is checked by brute force: enumerate the group closure,
compare its order with the abstract order, evaluate the presentation's
relators, and scan determinants.  The printout shows each witness with its
dimension, enumerated order and known invariant.
"""

from yagita import (
    Cyclotomic,
    RationalIntegers,
    blow_up,
    build_e2m_integer,
    build_extraspecial_monomial,
    build_g1,
    build_g2,
    build_q8,
    det,
    sl_pad,
    verify_embedding,
    zeta,
)

Z = RationalIntegers()

witnesses = [
    build_e2m_integer(1),                      # dihedral of order 8 in GL_2(Z)
    sl_pad(build_e2m_integer(1)),              # its determinant pad in SL_3(Z)
    build_e2m_integer(2),                      # extraspecial 2^5 in SL_4(Z)
    build_e2m_integer(3),                      # extraspecial 2^7 in SL_8(Z)
    build_q8(),                                # quaternions in SL_2(Z[i])
    build_g1(3, 2, Z),                         # C_3 : C_2 in GL_2(Z)
    build_g1(5, 4, Z),                         # C_5 : C_4 in GL_4(Z)
    build_g1(5, 2, Cyclotomic(5)),             # monomial C_5 : C_2 in GL_2
    build_g2(5, 2, Cyclotomic(20)),            # C_5 : C_4 twisted into SL_2
    build_extraspecial_monomial(3, 1),         # order-27 exponent-3 group in SL_3
    blow_up(build_extraspecial_monomial(3, 1)),  # its integral form in SL_6(Z)
]

for w in witnesses:
    vw = verify_embedding(w)
    flag = "SL" if w.claims_sl else "GL"
    print(
        f"{str(w.kind):8s} dim {w.dimension:2d} over {str(w.ring):13s} "
        f"order {vw.order:3d} (expected {w.expected_order:3d}) "
        f"{flag}  invariant {w.expected_yagita:2d}  verified={vw.ok}"
    )

print()
print("generator determinants of the dihedral model (the reflection is the")
print("reason it only reaches SL after padding):")
d8 = build_e2m_integer(1)
for g in d8.generators:
    print(f"  det = {det(g)}")

print()
print("the order-27 monomial model and its commutation scalar:")
w = build_extraspecial_monomial(3, 1)
x, z = w.generators[0], w.generators[1]
print("  X =", x)
print("  Z =", z)
print("  Z X (X Z)^-1 is the scalar zeta_3:", z * x == zeta(3) * (x * z))

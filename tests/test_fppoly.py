import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yagita.fppoly import (
    FpPoly,
    check_prop6,
    linear_product,
    mp_q_decompose,
    parse_fp_poly,
    random_unit_factors,
    random_unit_root_product,
)


def conv_mod(a, b, p):
    """Independent schoolbook product of coefficient lists mod p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_multiply_matches_schoolbook():
    f = FpPoly(3, (1, 1))
    g = FpPoly(3, (1, 2))
    assert (f * g).coeffs == conv_mod((1, 1), (1, 2), 3) == (1, 0, 2)


@pytest.mark.parametrize(
    "p, coeffs", [(3, [2.5, 1]), (3, [1, "1"]), (5, [Fraction(7, 2)])], ids=repr
)
def test_non_integer_coefficients_raise(p, coeffs):
    # int(c) % p would read these as (2, 1), (1, 1) and (3,), though 7/2 is
    # 1 in F_5
    with pytest.raises(TypeError):
        FpPoly(p, coeffs)


def test_exponent_gcd():
    assert FpPoly(3, (1, 0, 2)).exponent_gcd() == 2
    assert FpPoly(5, (1, 1)).exponent_gcd() == 1
    assert FpPoly(7, (1,)).exponent_gcd() == 0  # every n divides 0: no constraint
    assert FpPoly(3, (0,)).exponent_gcd() == 0  # zero polynomial
    assert type(FpPoly(7, (1,)).exponent_gcd()) is int
    assert FpPoly(3, (1, 0, 0, 1, 0, 0, 1)).exponent_gcd() == 3


def test_all_roots_in_units():
    f = FpPoly(3, conv_mod((1, 1), (1, 2), 3))  # (1+x)(1+2x) mod 3
    ok, roots = f.all_roots_in_units()
    assert ok and roots == Counter({1: 1, 2: 1})

    ok, roots = FpPoly(3, (0, 1)).all_roots_in_units()  # x: root 0 is no unit
    assert not ok and roots == Counter()

    # x^2 + 1 over F_3: no r in {1, 2} has r^2 = -1
    assert all(pow(r, 2, 3) != 2 for r in (1, 2))
    ok, roots = FpPoly(3, (1, 0, 1)).all_roots_in_units()
    assert not ok and roots == Counter()

    with pytest.raises(ValueError):
        FpPoly(3, ()).all_roots_in_units()


def test_mp_q_decompose():
    assert mp_q_decompose(12, 3) == (4, 1)
    assert mp_q_decompose(1, 5) == (1, 0)
    assert mp_q_decompose(50, 5) == (2, 2)


def test_check_prop6_product_of_all_units_mod_5():
    f = FpPoly.one(5)
    for a in range(1, 5):
        f = f * FpPoly.one_plus_ax(5, a)
    # elementary symmetric functions of {1,2,3,4} vanish mod 5 except e4 = 4
    assert f.coeffs == (1, 0, 0, 0, 4)
    v = check_prop6(f)
    assert (v.gcd, v.m, v.q, (5 - 1) % v.m) == (4, 4, 0, 0)


def test_check_prop6_cube_over_f3():
    f = FpPoly.one_plus_ax(3, 1) ** 3
    assert f.coeffs == (1, 0, 0, 1)  # binomial coefficients vanish mod 3
    v = check_prop6(f)
    assert (v.gcd, v.m, v.q, (3 - 1) % v.m) == (3, 1, 1, 0)


def test_check_prop6_two_factor_example():
    f = FpPoly(3, (1, 0, 2))
    v = check_prop6(f)
    assert (v.gcd, v.m, v.q, (3 - 1) % v.m) == (2, 2, 0, 0)


def test_check_prop6_preconditions():
    with pytest.raises(ValueError):
        check_prop6(FpPoly.one(5))
    with pytest.raises(ValueError):
        check_prop6(FpPoly(3, (1, 0, 1)))  # irreducible over F_3


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_prop6_random_products(p):
    rng = random.Random(20240 + p)
    for _ in range(200):
        f = random_unit_root_product(p, rng)
        assert (p - 1) % check_prop6(f).m == 0


@pytest.mark.parametrize("p", [7, 13, 101])
def test_candidate_roots_agree_with_the_full_search(p):
    # 1 + a*x has the one root -1/a, so a drawn product's candidates are
    # the distinct -1/a of its factors
    rng = random.Random(p)
    for _ in range(200):
        factors = random_unit_factors(p, rng)
        f = linear_product(p, factors)
        roots = sorted({p - pow(a, -1, p) for a in factors})
        full = f.all_roots_in_units()
        assert full[0] and f.all_roots_in_units(roots) == full
        assert sorted(full[1]) == roots
        assert check_prop6(f, roots) == check_prop6(f)
        # a candidate list missing a root leaves a nonconstant quotient
        for missing in roots:
            assert f.all_roots_in_units([r for r in roots if r != missing]) == (False, Counter())


def test_candidate_roots_must_be_units():
    f = FpPoly(5, (0, 1)) * FpPoly(5, (4, 1))  # roots 0 and 1
    assert f.all_roots_in_units() == (False, Counter())
    for bad in ([0, 1], [1, 5], [-4]):
        with pytest.raises(ValueError, match="is not a unit"):
            f.all_roots_in_units(bad)


def _random_product_by_objects(p, rng, max_factors=10):
    """Reference: the same draws, multiplied as FpPoly objects."""
    k = rng.randint(1, max_factors)
    f = FpPoly.one(p)
    for _ in range(k):
        f = f * FpPoly.one_plus_ax(p, rng.randint(1, p - 1))
    return f


@pytest.mark.parametrize("p", [2, 3, 13, 9973])
def test_random_product_matches_objects(p):
    # the same polynomials from the same rng calls, in the same order
    ours, ref = random.Random(p), random.Random(p)
    for _ in range(50):
        assert random_unit_root_product(p, ours) == _random_product_by_objects(p, ref)
        assert ours.getstate() == ref.getstate()


def _roots_by_objects(f):
    """Reference: trial division with FpPoly objects, evaluating f(r) and
    then dividing by (x - r) synthetically."""
    p, g = f.p, f
    roots = Counter()
    for r in range(1, p):
        while not g.is_constant and g.evaluate(r) == 0:
            out, acc = [0] * g.degree, 0
            for i in range(g.degree, 0, -1):
                acc = (acc * r + g.coeffs[i]) % p
                out[i - 1] = acc
            g = FpPoly(p, out)
            roots[r] += 1
    return (True, roots) if g.is_constant else (False, Counter())


@st.composite
def root_products(draw):
    """c * prod (x - r) over drawn roots r (0 and repeats allowed), times a
    drawn monic cofactor that may or may not split."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    f = FpPoly.constant(p, draw(st.integers(1, p - 1)))
    for r in draw(st.lists(st.integers(0, p - 1), max_size=8)):
        f = f * FpPoly(p, (-r, 1))
    cofactor = draw(st.lists(st.integers(0, p - 1), max_size=4))
    return f * FpPoly(p, cofactor + [1])


@given(root_products())
@example(FpPoly(7, (1, 1)) ** 5 * FpPoly(7, (3, 1)) ** 2)  # splits, repeated roots
@example(FpPoly(3, (1, 0, 1)) * FpPoly(3, (1, 1)))  # x^2 + 1 has no root mod 3
@example(FpPoly(5, (0, 0, 1)) * FpPoly(5, (4, 1)))  # root 0, twice
@example(FpPoly(13, (5,)))  # a constant
@settings(max_examples=150, deadline=None)
def test_all_roots_in_units_matches_objects(f):
    assert f.all_roots_in_units() == _roots_by_objects(f)


small_primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def fp_polys(draw, max_degree=6):
    p = draw(small_primes)
    coeffs = draw(st.lists(st.integers(0, 12), min_size=0, max_size=max_degree + 1))
    return FpPoly(p, coeffs)


@given(fp_polys())
@settings(max_examples=80)
def test_frobenius(f):
    assert f**f.p == f.compose_xk(f.p)


@given(fp_polys(), st.integers(1, 4))
@settings(max_examples=80)
def test_exponent_gcd_scaling(f, k):
    g = f.compose_xk(k)
    ef, eg = f.exponent_gcd(), g.exponent_gcd()
    assert eg == k * ef  # 0 for a constant f, and then for g too


@given(fp_polys(), fp_polys())
@settings(max_examples=80)
def test_exponent_gcd_of_products(f, g):
    if f.p != g.p or f.is_zero or g.is_zero:
        return
    ef, eg = f.exponent_gcd(), g.exponent_gcd()
    e = (f * g).exponent_gcd()
    if e == 0:  # a constant product has constant factors
        assert ef == eg == 0
    else:  # a constant factor's 0 leaves the other factor's gcd
        assert e % math.gcd(ef, eg) == 0


def test_evaluate():
    f = FpPoly(5, (1, 1))
    assert f.evaluate(4) == 0  # 1 + (p-1) = p
    assert f.evaluate(2) == 3
    g = FpPoly(5, (2, 0, 3))
    r = 4
    assert g(r) == (2 + 3 * r * r) % 5


def test_one_is_multiplicative_identity():
    f = FpPoly(7, (3, 1, 4))
    assert f * FpPoly.one(7) == f


def test_str_and_parse_round_trip():
    f = FpPoly(3, (1, 0, 2))
    assert str(f) == "1 + 2*x^2 (mod 3)"
    assert parse_fp_poly(str(f)) == f
    assert parse_fp_poly("1 + 2*x^2", 3) == f
    assert parse_fp_poly("x^2 - x", 5) == FpPoly(5, (0, -1, 1))
    assert parse_fp_poly("0 (mod 5)") == FpPoly.zero(5)

import pytest

from yagita.cyclo import zeta
from yagita.numutil import is_prime
from yagita.ringspec import (
    AbstractRing,
    Cyclotomic,
    QuadraticOrder,
    RationalIntegers,
    SubCyclotomicFixedField,
    UnsupportedFieldError,
    compute_l,
    contains_zeta_p,
    has_nth_root_of_minus_one,
    parse_ring,
    roots_of_unity_order,
)

Z = RationalIntegers()


def test_compute_l_rational_integers():
    assert compute_l(Z, 5) == 4
    assert compute_l(Z, 2) == 1
    assert compute_l(Z, 13) == 12


def test_compute_l_cyclotomic_self():
    assert compute_l(Cyclotomic(7), 7) == 1
    assert compute_l(Cyclotomic(5), 5) == 1
    assert compute_l(Cyclotomic(4), 2) == 1


def test_compute_l_quadratic_minus7_at_7():
    # independent oracle: the degree of an irreducible factor of the 7th
    # cyclotomic polynomial over Q(sqrt(-7))
    sympy = pytest.importorskip("sympy")
    from sympy import Poly, cyclotomic_poly, sqrt
    from sympy.abc import x

    f = Poly(cyclotomic_poly(7, x), x, extension=sqrt(-7))
    degrees = sorted(q.degree() for q, _ in f.factor_list()[1])
    assert degrees == [3, 3]
    assert compute_l(QuadraticOrder(-7), 7) == 3


@pytest.mark.parametrize("d,p", [(-1, 5), (5, 5), (-3, 3), (2, 7), (-7, 7), (13, 13)])
def test_compute_l_quadratic_against_factorization(d, p):
    sympy = pytest.importorskip("sympy")
    from sympy import Poly, cyclotomic_poly, sqrt
    from sympy.abc import x

    f = Poly(cyclotomic_poly(p, x), x, extension=sqrt(d))
    oracle = min(q.degree() for q, _ in f.factor_list()[1])
    assert compute_l(QuadraticOrder(d), p) == oracle


def test_compute_l_subcyclotomic():
    # Galois correspondence: the degree-3 subfield of Q(zeta_7) has
    # [F(zeta_7):F] = 6/3 = 2
    assert compute_l(SubCyclotomicFixedField(7, 3), 7) == 2
    assert compute_l(SubCyclotomicFixedField(7, 6), 7) == 1
    assert compute_l(SubCyclotomicFixedField(7, 1), 7) == 6
    # zeta_2 = -1 lies in every ring
    assert compute_l(SubCyclotomicFixedField(7, 3), 2) == 1
    # Q(zeta_7) meets Q(zeta_5) only in Q, so the subfield leaves the full
    # degree [Q(zeta_5):Q] = 4
    assert compute_l(SubCyclotomicFixedField(7, 3), 5) == 4
    assert compute_l(SubCyclotomicFixedField(5, 2), 7) == 6


def test_compute_l_abstract_is_stored():
    assert compute_l(AbstractRing(3, 2), 7) == 3


def test_roots_of_unity_order():
    assert roots_of_unity_order(Z) == 2
    assert roots_of_unity_order(Cyclotomic(4)) == 4
    assert roots_of_unity_order(Cyclotomic(12)) == 12
    assert roots_of_unity_order(QuadraticOrder(-1)) == 4
    assert roots_of_unity_order(QuadraticOrder(-3)) == 6
    assert roots_of_unity_order(QuadraticOrder(-5)) == 2
    assert roots_of_unity_order(SubCyclotomicFixedField(7, 3)) == 2
    assert roots_of_unity_order(SubCyclotomicFixedField(7, 6)) == 14
    assert roots_of_unity_order(AbstractRing(1, 8)) == 8


def test_roots_of_unity_cyclotomic5_by_power_enumeration():
    # -zeta_5 has order 10: enumerate its powers exactly
    x = -zeta(5)
    k, y = 1, x
    while y != 1:
        y = y * x
        k += 1
    assert k == 10
    assert roots_of_unity_order(Cyclotomic(5)) == 10


def test_has_nth_root_of_minus_one():
    assert has_nth_root_of_minus_one(Z, 3) is True
    assert has_nth_root_of_minus_one(Z, 2) is False
    assert has_nth_root_of_minus_one(Cyclotomic(4), 2) is True
    assert has_nth_root_of_minus_one(Cyclotomic(20), 2) is True
    assert has_nth_root_of_minus_one(Cyclotomic(5), 2) is False


@pytest.mark.parametrize(
    "ring",
    [Z, Cyclotomic(4), Cyclotomic(5), QuadraticOrder(-3), SubCyclotomicFixedField(7, 3)],
)
def test_odd_roots_of_minus_one_always_exist(ring):
    for n in range(1, 40, 2):
        assert has_nth_root_of_minus_one(ring, n)


def test_contains_zeta_p():
    assert contains_zeta_p(Cyclotomic(5), 5) is True
    assert contains_zeta_p(Z, 3) is False
    assert contains_zeta_p(Cyclotomic(10), 5) is True
    # oracle: zeta_10 squared is a primitive 5th root of unity
    assert zeta(10) ** 2 == zeta(5)


def test_l_divides_p_minus_1_and_matches_contains():
    rings = [
        Z,
        Cyclotomic(4),
        Cyclotomic(5),
        Cyclotomic(12),
        QuadraticOrder(-3),
        QuadraticOrder(-7),
        SubCyclotomicFixedField(7, 3),
        AbstractRing(2, 6),
    ]
    for ring in rings:
        for p in (2, 3, 5, 7, 11, 13):
            try:
                l = compute_l(ring, p)
            except UnsupportedFieldError:
                continue
            if isinstance(ring, AbstractRing) and (p - 1) % l != 0:
                continue  # abstract l is user-asserted, not validated per prime
            assert (p - 1) % l == 0
            assert contains_zeta_p(ring, p) == (l == 1)


def test_cyclotomic_coprime_conductor_gives_full_degree():
    for n in (3, 4, 8, 9):
        for p in (5, 7, 11):
            if n % p:
                assert compute_l(Cyclotomic(n), p) == p - 1


def test_parse_and_name_round_trip():
    for text in ["Z", "cyclotomic:12", "quadratic:-7", "subcyclotomic:7:3", "abstract:2:6"]:
        ring = parse_ring(text)
        assert parse_ring(str(ring)) == ring
    assert parse_ring("Z[i]") == Cyclotomic(4)
    with pytest.raises(UnsupportedFieldError):
        parse_ring("numberfield:x^3-2")
    with pytest.raises(UnsupportedFieldError):
        parse_ring("quadratic:12")  # not squarefree


def test_validation():
    with pytest.raises(ValueError):
        QuadraticOrder(0)
    with pytest.raises(ValueError):
        QuadraticOrder(4)
    with pytest.raises(ValueError):
        SubCyclotomicFixedField(7, 4)
    with pytest.raises(ValueError):
        AbstractRing(1, 3)
    with pytest.raises(ValueError):
        compute_l(Z, 6)
    assert is_prime(7) and not is_prime(1)

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yagita.cyclo import CycNum, cyclotomic_poly, json_int, zeta
from yagita.numutil import euler_phi, is_prime, ramanujan_sum


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_x12_minus_1():
    # independent check: multiplying the factors for every divisor of 12
    # must give x^12 - 1
    prod = (1,)
    for d in (1, 2, 3, 4, 6, 12):
        prod = poly_mul(prod, cyclotomic_poly(d))
    assert prod == tuple([-1] + [0] * 11 + [1])


def test_cyclotomic_poly_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy import Poly, cyclotomic_poly as sym_cyc
    from sympy.abc import x

    # 105 is the first n with a coefficient -2; 9240 = 2^3 * 3 * 5 * 7 * 11
    # has the most prime factors under the conductor cap
    for n in list(range(1, 40)) + [105, 385, 1155, 2310, 9240]:
        ours = cyclotomic_poly(n)
        theirs = tuple(reversed(Poly(sym_cyc(n, x), x).all_coeffs()))
        assert ours == theirs


def test_zeta_relations():
    assert zeta(3) + zeta(3, 2) == -1
    assert zeta(4) ** 2 == -1
    assert zeta(5) * zeta(5, 4) == 1
    x = zeta(12, 7)
    assert x * 1 == x


@pytest.mark.parametrize("p", [p for p in range(2, 51) if is_prime(p)])
def test_zeta_p_power_sum_vanishes(p):
    acc = CycNum.rational(0)
    for k in range(p):
        acc = acc + zeta(p, k)
    assert acc == 0


def test_invert():
    assert zeta(5).inverse() == zeta(5, 4)
    assert CycNum.rational(2).inverse() == Fraction(1, 2)
    x = 1 + zeta(3)
    assert x * x.inverse() == 1
    # 1 + z = -z^2, so 1/(1+z) = -z^(-2) = -z by z^3 = 1 and 1 + z + z^2 = 0
    assert (1 + zeta(3)) * (-zeta(3)) == 1
    assert x.inverse() == -zeta(3)
    with pytest.raises(ZeroDivisionError):
        CycNum.rational(0).inverse()


def test_embed_conductor():
    assert CycNum.rational(-1).embed(4) == -1
    assert zeta(3).embed(6) == zeta(6) ** 2
    assert zeta(2).embed(4) == zeta(4) ** 2
    with pytest.raises(ValueError):
        zeta(3).embed(4)


def test_galois_apply():
    assert zeta(5).galois(2) == zeta(5, 2)
    assert CycNum.rational(7).galois(3) == 7
    with pytest.raises(ValueError):
        zeta(6).galois(2)


def test_galois_composition_law():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([5, 7, 8, 12])
        units = [k for k in range(1, n) if __import__("math").gcd(k, n) == 1]
        a, b = rng.choice(units), rng.choice(units)
        x = CycNum(n, [rng.randint(-5, 5) for _ in range(8)], rng.randint(1, 4))
        assert x.galois(a).galois(b) == x.galois(a * b % n)


def test_as_rational():
    assert CycNum.rational(Fraction(7, 2)).as_rational() == Fraction(7, 2)
    assert zeta(3).as_rational() is None
    assert (zeta(3) + zeta(3, 2) + 1).as_rational() == 0


def test_denominator_normalization():
    x = CycNum(4, (2, 4), 6)
    assert x.num == (1, 2) and x.den == 3
    y = CycNum(4, (0, 0), 5)
    assert y.is_zero and y.den == 1
    z = CycNum(4, (1, 0), -2)
    assert z.num == (-1, 0) and z.den == 2


@pytest.mark.parametrize(
    "conductor, coeffs", [(1, [2.5]), (3, [Fraction(7, 2), 1]), (1, ["3"])], ids=repr
)
def test_non_integer_coordinates_raise(conductor, coeffs):
    # int() would read these as (2,), (3, 1) and (3,)
    with pytest.raises(TypeError):
        CycNum(conductor, coeffs)
    with pytest.raises(TypeError):
        CycNum(conductor, [1], coeffs[0])


@st.composite
def sparse_operands(draw):
    """A conductor and two coordinate lists for it, of mixed signs and up
    to 10**20 in size, each nonzero coordinate after a run of 0 to 8 zeros."""
    n = draw(st.sampled_from([1, 4, 5, 7, 9, 12, 13, 20, 101]))
    deg = euler_phi(n)

    def coords():
        out: list[int] = []
        while len(out) < deg:
            out += [0] * draw(st.integers(0, 8)) + [draw(st.integers(-(10**20), 10**20))]
        return out[:deg]

    return n, coords(), coords()


@given(sparse_operands())
@settings(max_examples=60, deadline=None)
def test_product_of_sparse_numbers_matches_schoolbook(operands):
    # the product meets nonzero coordinates only; the schoolbook product
    # multiplies every pair of coordinates, zeros included
    n, a, b = operands
    assert CycNum(n, a) * CycNum(n, b) == CycNum(n, poly_mul(a, b))


conductors = st.sampled_from([1, 3, 4, 5, 6, 7, 8, 9, 12, 13, 15, 20])


@st.composite
def cycnums(draw):
    n = draw(conductors)
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
    den = draw(st.integers(1, 9))
    return CycNum(n, coeffs, den)


@given(cycnums(), cycnums(), cycnums())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(cycnums())
@settings(max_examples=60, deadline=None)
def test_multiplicative_inverse(a):
    if not a.is_zero:
        assert a * a.inverse() == 1


@given(cycnums(), cycnums(), st.sampled_from([2, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_embedding_is_ring_homomorphism(a, b, k):
    import math

    target = math.lcm(a.conductor, b.conductor) * k
    ea, eb = a.embed(target), b.embed(target)
    assert (a + b).embed(target) == ea + eb
    assert (a * b).embed(target) == ea * eb


@given(cycnums(), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_galois_is_ring_homomorphism(a, seed):
    import math

    units = [k for k in range(1, a.conductor + 1) if math.gcd(k, a.conductor) == 1]
    k = units[seed % len(units)]
    b = a * a + 3
    assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert (a + b).galois(k) == a.galois(k) + b.galois(k)


def test_json_round_trip():
    x = CycNum(12, (1, -2, 0, 3), 5)
    blob = json.dumps(x.to_json())
    assert CycNum.from_json(json.loads(blob)) == x


def test_json_conductor_is_bounded_before_factoring(bounded_factoring):
    obj = {"conductor": 10**18 + 3, "num": [1], "den": 1}
    with pytest.raises(ValueError, match="^conductor 1000000000000000003 exceeds the cap 10000$"):
        CycNum.from_json(obj)
    obj = {"conductor": 7, "num": [1] * 7, "den": 1}
    with pytest.raises(ValueError, match=r"^entry num of length 7 exceeds the cap phi\(7\) = 6$"):
        CycNum.from_json(obj)


def test_json_huge_conductor_fails_fast():
    # euler_phi factors by trial division, so a conductor read unbounded
    # stalls the child process until the timeout fails the test
    code = (
        "from yagita.cyclo import CycNum\n"
        "try:\n"
        "    CycNum.from_json({'conductor': 10**18 + 3, 'num': [1], 'den': 1})\n"
        "except ValueError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('from_json returned')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=10, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("value", [1.0, 1.5, True, None, " 1", "1.0", "", [1]])
def test_json_int_rejects_non_integers(value):
    with pytest.raises(ValueError):
        json_int(value)


def test_json_int_reads_integers_and_decimal_strings():
    assert [json_int(v) for v in (7, -7, "12", "-3", "0")] == [7, -7, 12, -3, 0]


def test_ramanujan_sum_is_the_trace_of_a_root_of_unity():
    for n in range(1, 31):
        units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        for j in range(-1, n):
            trace = sum((zeta(n, j).galois(k) for k in units), CycNum.rational(0))
            assert trace == ramanujan_sum(n, j)


def test_equality_across_conductors():
    assert zeta(3) == zeta(3).embed(12)
    assert zeta(6, 2) == zeta(3)
    assert CycNum.rational(5) == CycNum(8, (5, 0, 0, 0))


def test_str_smoke():
    assert str(CycNum.rational(0)) == "0"
    assert "z12" in str(zeta(12) + 1)

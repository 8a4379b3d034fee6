import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from yagita.formulas import (
    SlResult,
    lcm_form_reduced,
    oracle_yagita,
    psi,
    yagita_gl,
    yagita_gl_Z,
    yagita_sl,
    yagita_sl_Z,
)
from yagita.harness import table, table_tsv
from yagita.numutil import divisors, is_prime
from yagita.ringspec import (
    Cyclotomic,
    RationalIntegers,
    contains_zeta_p,
    has_nth_root_of_minus_one,
    parse_ring,
)
from yagita.witness import WitnessKind

Z = RationalIntegers()


def middle_row_lcm(p, l, n):
    """Brute-force form of the l <= n <= p-1 row."""
    return 2 * math.lcm(*[m for m in range(1, n + 1) if m % l == 0 and (p - 1) % m == 0])


PRIMES_BELOW_60 = [p for p in range(60) if is_prime(p)]


# The Z and zeta_p corollaries written out piecewise, and psi on exact
# Fractions: independent oracles for the forms derived from yagita_gl and
# yagita_sl, which evaluate everything in integers.  The SL rules of the
# zeta_p corollary are weaker than yagita_sl's and live only here.


def psi_fraction(t, p):
    t = Fraction(t)
    if t < 1:
        raise ValueError("psi wants t >= 1")
    power = 1
    while power * p <= t:
        power *= p
    return power


def gl_Z_piecewise(p, n):
    if n < p - 1:
        return 1
    return 2 * (p - 1) * psi_fraction(Fraction(n, p - 1), p)


def gl_R_piecewise(p, n):
    if n <= p - 1:
        return 2 * math.lcm(*[m for m in divisors(p - 1) if m <= n])
    return 2 * (p - 1) * psi_fraction(n, p)


def sl_Z_piecewise(p, n):
    if p == 2 and n == 2:
        return 2
    if p % 2 == 1 and n == p - 1:
        return p - 1
    return gl_Z_piecewise(p, n)


def sl_R_piecewise(p, n, ring):
    """SL_n over a ring containing zeta_p, by the zeta_p corollary: exact
    when n >= max(p, 3), or the ring has a (p-1)-st root of -1 (odd p), or
    i is present (n = p = 2); otherwise only {value, value/2} is asserted."""
    assert contains_zeta_p(ring, p) and n >= 2
    value = gl_R_piecewise(p, n)
    if n >= max(p, 3):
        return SlResult(value, False)
    if p % 2 == 1 and has_nth_root_of_minus_one(ring, p - 1):
        return SlResult(value, False)
    if n == 2 and p == 2 and has_nth_root_of_minus_one(ring, 2):
        return SlResult(value, False)
    return SlResult(value, True)


def test_psi_floors_against_fraction_oracle():
    for p in PRIMES_BELOW_60:
        for l in divisors(p - 1):
            for n in range(l, 301):
                assert psi(Fraction(n, l), p) == psi_fraction(Fraction(n, l), p)


def test_specializations_against_piecewise_oracles():
    for p in PRIMES_BELOW_60:
        for n in range(1, 301):
            assert yagita_gl_Z(p, n) == gl_Z_piecewise(p, n), (p, n)
            assert yagita_gl(p, n, 1) == gl_R_piecewise(p, n), (p, n)
            if n >= 2:
                assert yagita_sl_Z(p, n) == sl_Z_piecewise(p, n), (p, n)


def test_sl_R_never_asserts_more_than_sl():
    # the zeta_p corollary pins fewer cases than the general SL form: each
    # value it leaves possible stays possible, and whatever it pins, the
    # general form pins to the same value
    cases = 0
    for p in PRIMES_BELOW_60:
        for conductor in range(1, 200):
            ring = Cyclotomic(conductor)
            if not contains_zeta_p(ring, p):
                continue
            for n in range(2, 40):
                r, s = sl_R_piecewise(p, n, ring), yagita_sl(p, n, 1, ring)
                assert set(s.candidates()) <= set(r.candidates()), (p, conductor, n)
                if not r.ambiguous:
                    assert s == r, (p, conductor, n)
                cases += 1
    assert cases == 16_302


# sha256 of table_tsv(table(p, ring, 4096)): a change to the arithmetic
# behind the closed forms must not move a byte of the table
TABLE_SHA256 = {
    (2, "Z"): "86c20fde57e9ced32c5c41ef9f1093af4c398a7c26017711860ae36934842c3c",
    (2, "Z[i]"): "1ee297f43c040457d4f8cac7194001caf616a6d42a9cc1292346a0b739b052e7",
    (2, "cyclotomic:2"): "86c20fde57e9ced32c5c41ef9f1093af4c398a7c26017711860ae36934842c3c",
    (2, "quadratic:5"): "05b39c3bc35bf3cf924baa5babaa2486017be9c9b1fc5d8ae5a9388be77c6aec",
    (3, "Z"): "c1fd7b123c1a5379d59bb4780accb6f513dbf4b6b6bd7240231b35203f98467b",
    (3, "Z[i]"): "fd7761bd9ed15024f79087217036a90144f4daec8200b907230d727d23a8e54d",
    (3, "cyclotomic:3"): "a67dc06d4cbb10d779d964615329c4e96d844a53f1fd387519f87afc6345d52c",
    (3, "quadratic:5"): "66cee87cd173416087d1df15a701dd0d03234e0fcd3ca51df524ab2c04322904",
    (5, "Z"): "9384c62333f2b008c1311f5e41f7547cf5e619ba69de341933329de32339f8a4",
    (5, "Z[i]"): "59592b3092a4cc603d835c0a3c2eb014db148e78fadb2548a7c86f9d30223f2f",
    (5, "cyclotomic:5"): "06aaf1cb993b5ddebde65c38e4e912663343fbf56a1f7addbe6165c7b3293141",
    (5, "quadratic:5"): "26961ff6151fe7b80b5c41dabdd5f66d3806b16e67d9e04434e337bd99638acc",
    (7, "Z"): "e37e380fbf5266fdff7171b5423b9a72666c0afb4399926b45cccb7f4f3769f7",
    (7, "Z[i]"): "536f3c5cd2013b3be536d6d60e5eee060c98151979aa45272913c420da05123a",
    (7, "cyclotomic:7"): "58cb9d458130269e8692bd8a44203e52c2abfe8c8c88fe85ec7ff71fa7eb9052",
    (7, "quadratic:5"): "e5a77dfb75e28f0d8fdec7e359e93cbc0c50e2f2e5b73d516fbe1f271534462e",
}


@pytest.mark.parametrize("p, ring", sorted(TABLE_SHA256))
def test_table_bytes_pinned(p, ring):
    text = table_tsv(table(p, parse_ring(ring), 4096))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256[p, ring]


def test_psi():
    assert psi(1, 7) == 1
    assert psi(Fraction(19, 2), 3) == 9
    assert psi(25, 5) == 25
    assert psi(Fraction(9, 2), 3) == 3
    with pytest.raises(ValueError):
        psi(Fraction(1, 2), 3)
    with pytest.raises(ValueError, match="4 is not prime"):
        psi(5, 4)


def test_psi_rejects_p_below_2():
    # the calls run in a child process under a timeout, so that a loop at
    # p <= 1 fails the test instead of stalling it
    code = (
        "from yagita.formulas import psi\n"
        "for p in (1, 0, -2):\n"
        "    try:\n"
        "        psi(5, p)\n"
        "    except ValueError as exc:\n"
        "        assert str(exc) == f'{p} is not prime', exc\n"
        "    else:\n"
        "        raise SystemExit(f'psi(5, {p}) returned')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=10, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_yagita_gl_examples():
    assert yagita_gl(5, 3, 4) == 1
    assert yagita_gl(7, 6, 3) == 12
    assert yagita_gl(7, 6, 3) == middle_row_lcm(7, 3, 6)
    assert yagita_gl(2, 4, 1) == 8


def test_yagita_gl_middle_row_against_bruteforce():
    for p in (3, 5, 7, 11, 13):
        for l in divisors(p - 1):
            for n in range(l, p):
                assert yagita_gl(p, n, l) == middle_row_lcm(p, l, n)


def test_yagita_gl_p2_remark():
    for n in range(1, 4097):
        assert yagita_gl(2, n, 1) == 2 * psi(n, 2)


def test_yagita_gl_monotone_in_n():
    for p, l in [(3, 1), (5, 2), (7, 6), (2, 1)]:
        values = [yagita_gl(p, n, l) for n in range(1, 60)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_yagita_sl_exceptional_cases():
    r = yagita_sl(2, 2, 1, Z)
    assert r == SlResult(4, True)
    assert r.candidates() == (4, 2)
    assert yagita_sl(5, 2, 1, Cyclotomic(5)) == SlResult(4, True)
    assert yagita_sl(5, 2, 1, Cyclotomic(20)) == SlResult(4, False)
    assert yagita_sl(2, 2, 1, Cyclotomic(4)) == SlResult(4, False)
    assert yagita_sl(2, 3, 1, Z) == SlResult(4, False)


def test_yagita_sl_divides_gl_quotient_1_or_2():
    rings = [Z, Cyclotomic(4), Cyclotomic(5), Cyclotomic(20)]
    for ring in rings:
        for p in (2, 3, 5, 7):
            from yagita.ringspec import compute_l

            l = compute_l(ring, p)
            for n in range(2, 20):
                gl = yagita_gl(p, n, l)
                sl = yagita_sl(p, n, l, ring)
                assert gl % sl.value == 0 and gl // sl.value == 1
                for c in sl.candidates():
                    assert gl % c == 0 and gl // c in (1, 2)


def test_corollary_specializations():
    for p in (2, 3, 5, 7, 11):
        for n in range(1, 40):
            assert yagita_gl_Z(p, n) == yagita_gl(p, n, p - 1)


def test_sl_over_z_special_values():
    assert yagita_sl_Z(3, 2) == 2
    assert yagita_sl_Z(2, 2) == 2
    assert yagita_sl_Z(5, 4) == 4
    assert yagita_sl_Z(7, 6) == 6
    assert yagita_sl_Z(5, 5) == yagita_gl_Z(5, 5) == 8
    assert yagita_gl_Z(5, 8) == 8


def test_theorem5_style_values():
    assert yagita_gl(3, 3, 1) == 12
    assert yagita_gl(5, 2, 1) == 4
    assert yagita_sl(2, 2, 1, Cyclotomic(4)) == SlResult(4, False)
    # n >= max(p, 3) pins the value
    assert yagita_sl(3, 3, 1, Cyclotomic(3)) == SlResult(12, False)
    # small n over a ring without the needed root of -1 stays open
    assert yagita_sl(5, 2, 1, Cyclotomic(5)).ambiguous
    # a (p-1)st root of -1 settles it
    assert yagita_sl(5, 2, 1, Cyclotomic(40)) == SlResult(4, False)


def test_oracle_yagita():
    assert oracle_yagita(WitnessKind("G1", 5, 4)) == 8
    assert oracle_yagita(WitnessKind("G2", 5, 4)) == 8
    assert oracle_yagita(WitnessKind("E", 3, 1)) == 6
    assert oracle_yagita(WitnessKind("E", 3, 2)) == 18
    assert oracle_yagita(WitnessKind("E", 2, 3)) == 16
    assert oracle_yagita(WitnessKind("Q8")) == 4
    assert oracle_yagita(WitnessKind("D8")) == 4


def test_lcm_form_reduced_examples():
    assert lcm_form_reduced(7, 3, 6) == 6
    assert lcm_form_reduced(7, 1, 6) == 6
    for p, l in [(7, 3), (13, 4), (11, 5)]:
        assert lcm_form_reduced(p, l, l) == l


def test_lcm_form_reduced_equals_middle_row_small():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        for l in divisors(p - 1):
            for n in range(l, p):
                assert 2 * lcm_form_reduced(p, l, n) == middle_row_lcm(p, l, n)


def test_input_validation():
    with pytest.raises(ValueError):
        yagita_gl(6, 3, 1)
    with pytest.raises(ValueError):
        yagita_gl(7, 3, 4)  # l must divide p - 1
    with pytest.raises(ValueError):
        yagita_sl(3, 1, 2, Z)
    with pytest.raises(ValueError):
        lcm_form_reduced(7, 2, 7)  # n beyond p - 1

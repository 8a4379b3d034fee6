"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import random
import time

from yagita.chern import eigen_exponents, n_upper
from yagita.exactmat import det, order_p_cyclic_subgroups
from yagita.formulas import (
    SlResult,
    lcm_form_reduced,
    yagita_gl,
    yagita_sl,
    yagita_sl_Z,
    yagita_gl_Z,
)
from yagita.fppoly import check_prop6, mp_q_decompose, random_unit_root_product
from yagita.harness import PASS, verify_case
from yagita.numutil import divisors, is_prime
from yagita.ringspec import Cyclotomic, RationalIntegers, compute_l
from yagita.witness import (
    blow_up,
    build_e2m_integer,
    build_extraspecial_monomial,
    build_g1,
    build_q8,
    sl_pad,
    verify_embedding,
)

Z = RationalIntegers()

_suite_cache: dict = {}


def _report(num, name, elapsed, limit):
    print(f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s (limit {limit}s)")
    assert elapsed < limit, f"criterion {num} exceeded its time budget"


def _witness_suite():
    """The eight embeddings of criterion 2, verified, keyed by label."""
    if not _suite_cache:
        specs = [
            ("D8 in GL2(Z)", build_e2m_integer(1), 8, False),
            ("pad(D8) in SL3(Z)", sl_pad(build_e2m_integer(1)), 8, True),
            ("E(2,2) in SL4(Z)", build_e2m_integer(2), 32, True),
            ("Q8 in SL2(Z[i])", build_q8(), 8, True),
            ("E(3,1) in SL3(Z[zeta3])", build_extraspecial_monomial(3, 1), 27, True),
            ("blow_up E(3,1) in SL6(Z)", blow_up(build_extraspecial_monomial(3, 1)), 27, True),
            ("G1(3,2) in GL2(Z)", build_g1(3, 2, Z), 6, False),
            ("G1(5,4) in GL4(Z)", build_g1(5, 4, Z), 20, False),
        ]
        for label, w, order, must_be_sl in specs:
            vw = verify_embedding(w)
            _suite_cache[label] = (w, vw, order, must_be_sl)
    return _suite_cache


def test_criterion_1_gl_over_z_table():
    t0 = time.monotonic()
    spots = {
        2: {1: 2, 2: 4, 3: 4, 4: 8, 8: 16},
        3: {1: 1, 2: 4, 3: 4, 6: 12, 9: 12},
        5: {3: 1, 4: 8, 20: 40},
    }
    for p, table in spots.items():
        for n, expected in table.items():
            assert yagita_gl_Z(p, n) == expected, (p, n)
    for p in (2, 3, 5, 7):
        for n in range(1, 17):
            v = yagita_gl_Z(p, n)
            assert v >= 1 and v == yagita_gl(p, n, p - 1)
    # special SL values over Z
    for p in (3, 5, 7):
        assert yagita_sl_Z(p, p - 1) == p - 1
    assert yagita_sl_Z(2, 2) == 2
    _report(1, "GL/SL over Z closed forms", time.monotonic() - t0, 1)


def test_criterion_2_witness_suite():
    t0 = time.monotonic()
    suite = _witness_suite()
    expect_dims = {
        "D8 in GL2(Z)": 2,
        "pad(D8) in SL3(Z)": 3,
        "E(2,2) in SL4(Z)": 4,
        "Q8 in SL2(Z[i])": 2,
        "E(3,1) in SL3(Z[zeta3])": 3,
        "blow_up E(3,1) in SL6(Z)": 6,
        "G1(3,2) in GL2(Z)": 2,
        "G1(5,4) in GL4(Z)": 4,
    }
    for label, (w, vw, order, must_be_sl) in suite.items():
        assert vw.ok, f"{label}: {vw.summary()}"
        assert vw.order == order == w.expected_order, label
        assert w.dimension == expect_dims[label], label
        if must_be_sl:
            assert w.claims_sl, label
            assert all(det(vw.group.matrix(x)) == 1 for x in vw.elements), label
    _report(2, "witness groups verified", time.monotonic() - t0, 30)


def test_criterion_3_chern_consistency():
    t0 = time.monotonic()
    suite = _witness_suite()
    for label, (w, vw, _, _) in suite.items():
        p = 2 if w.kind.family in ("Q8", "D8") else w.kind.p
        l_w = compute_l(w.ring, p)
        ambient = yagita_gl(p, w.dimension, l_w)
        assert ambient % w.expected_yagita == 0, label
        reps = order_p_cyclic_subgroups(vw.group, p)
        assert reps, label
        for m_rep in map(vw.group.matrix, reps):
            nu = n_upper(eigen_exponents(m_rep, p))
            assert nu != 0, label  # order-p generators act nontrivially
            m_part, _q = mp_q_decompose(nu, p)
            assert (p - 1) % m_part == 0, label
            assert nu % l_w == 0, label  # the class is a polynomial in x**l
            assert ambient % (2 * nu) == 0, label
    _report(3, "Chern divisor consistency", time.monotonic() - t0, 30)


def test_criterion_4_random_root_products():
    t0 = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        rng = random.Random(1000 + p)
        for _ in range(1000):
            f = random_unit_root_product(p, rng)
            assert (p - 1) % check_prop6(f).m == 0
    _report(4, "random unit-root polynomials", time.monotonic() - t0, 10)


def test_criterion_5_lcm_identity_exhaustive():
    t0 = time.monotonic()
    for p in (q for q in range(3, 100) if is_prime(q)):
        for l in divisors(p - 1):
            for n in range(l, p):
                brute = math.lcm(
                    *[m for m in range(1, n + 1) if m % l == 0 and (p - 1) % m == 0]
                )
                assert lcm_form_reduced(p, l, n) == brute, (p, l, n)
    _report(5, "reduced lcm identity, p < 100", time.monotonic() - t0, 5)


def test_criterion_6_end_to_end_over_z():
    t0 = time.monotonic()
    for p in (2, 3, 5, 7):
        for n in range(2, 13):
            r = verify_case(p, n, Z)
            assert r.verdict == PASS, (p, n, r.verdict)
            assert r.certified_lower == r.formula_value, (p, n)
            assert all(c.divides_formula and c.rationality_ok for c in r.chern_consistency)
    _report(6, "verify_case sweep over Z", time.monotonic() - t0, 120)


def test_criterion_7_ambiguity_surface():
    t0 = time.monotonic()
    assert yagita_sl(2, 2, 1, Z) == SlResult(4, True)
    assert yagita_sl_Z(2, 2) == 2  # settled only by the Z-specific route
    assert yagita_sl(5, 2, 1, Cyclotomic(5)) == SlResult(4, True)
    assert yagita_sl(2, 2, 1, Cyclotomic(4)) == SlResult(4, False)
    _report(7, "SL ambiguity surfaced exactly", time.monotonic() - t0, 1)

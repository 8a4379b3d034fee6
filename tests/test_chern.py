import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yagita.chern import (
    EigenExponents,
    MultiplicityError,
    eigen_exponents,
    n_upper,
    total_chern,
)
from yagita.cyclo import CycNum, zeta
from yagita.exactmat import CycMatrix, block_diag, closure
from yagita.fppoly import FpPoly
from yagita.harness import yagita_upper_witness
from yagita.ringspec import RationalIntegers
from yagita.witness import (
    build_extraspecial_monomial,
    build_g1,
    regular_rep_zeta,
)

Z = RationalIntegers()


def test_eigen_exponents_diagonal():
    m = CycMatrix.diagonal([zeta(3), zeta(3, 2)])
    e = eigen_exponents(m, 3)
    assert e.as_dict() == {1: 1, 2: 1}
    assert e.total == 2


def test_eigen_exponents_cyclic_shift():
    # the 3x3 circulant shift has all three cube roots of unity as eigenvalues
    shift = CycMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    e = eigen_exponents(shift, 3)
    assert e.as_dict() == {0: 1, 1: 1, 2: 1}


def test_eigen_exponents_identity():
    e = eigen_exponents(CycMatrix.identity(2), 5)
    assert e.as_dict() == {0: 2}
    assert e.multiplicities[0] == 2  # m_0 = n for the identity


def test_eigen_exponents_at_large_primes():
    # the cost is linear in p once m**p = I is checked
    assert eigen_exponents(CycMatrix.identity(1), 9973).as_dict() == {0: 1}
    m = CycMatrix.diagonal([zeta(211, a) for a in (1, 5, 5, 210)])
    assert eigen_exponents(m, 211).as_dict() == {1: 1, 5: 2, 210: 1}


def test_eigen_exponents_requires_mp_identity():
    with pytest.raises(ValueError):
        eigen_exponents(CycMatrix.diagonal([zeta(4)]), 3)


def test_eigen_exponents_sum_equals_size():
    for mat, p in [
        (regular_rep_zeta(3), 3),
        (regular_rep_zeta(7), 7),
        (CycMatrix.identity(4), 3),
        (CycMatrix.diagonal([zeta(5), zeta(5, 2), 1]), 5),
    ]:
        assert eigen_exponents(mat, p).total == mat.size


def test_total_chern_expansions():
    e = EigenExponents(3, (0, 1, 1))
    assert total_chern(e) == FpPoly(3, (1, 0, 2))  # (1+x)(1+2x) mod 3
    e2 = EigenExponents(3, (0, 3, 0))
    assert total_chern(e2) == FpPoly(3, (1, 0, 0, 1))  # (1+x)^3 mod 3
    e3 = EigenExponents(5, (4, 0, 0, 0, 0))
    assert total_chern(e3) == FpPoly.one(5)


def _product_of_powers(e):
    """The total Chern class as a product of FpPoly powers of 1 + a*x."""
    f = FpPoly.one(e.p)
    for a, mult in enumerate(e.multiplicities):
        if a and mult:
            f = f * FpPoly.one_plus_ax(e.p, a) ** mult
    return f


@st.composite
def _exponents(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 31, 101]))
    mults = draw(st.lists(st.integers(0, 12), min_size=p, max_size=p))
    return EigenExponents(p, tuple(mults))


@settings(max_examples=200, deadline=None)
@given(_exponents())
def test_total_chern_equals_product_of_powers(e):
    assert total_chern(e) == _product_of_powers(e)


def test_n_upper_examples():
    assert n_upper(eigen_exponents(regular_rep_zeta(3), 3)) == 2
    central = zeta(3) * CycMatrix.identity(3, 3)
    assert n_upper(eigen_exponents(central, 3)) == 3
    assert n_upper(eigen_exponents(CycMatrix.identity(3), 3)) == 0  # no constraint


def test_n_upper_regular_rep_5():
    e = eigen_exponents(regular_rep_zeta(5), 5)
    assert total_chern(e) == FpPoly(5, (1, 0, 0, 0, 4))
    assert n_upper(e) == 4


def _rational(m, p, l):
    """Whether the total Chern class of m is a polynomial in x**l, as it
    must be for an order-p element over a field with [F(zeta_p):F] = l."""
    return n_upper(eigen_exponents(m, p)) % l == 0


def test_rationality_check():
    assert _rational(regular_rep_zeta(3), 3, 2)
    assert _rational(regular_rep_zeta(5), 5, 4)
    assert _rational(CycMatrix.diagonal([zeta(5), zeta(5, 2)]), 5, 1)
    assert not _rational(CycMatrix.diagonal([zeta(5), zeta(5, 2)]), 5, 4)
    assert _rational(CycMatrix.identity(2), 5, 4)  # bound 0: no constraint


def test_yagita_upper_witness_extraspecial():
    w = build_extraspecial_monomial(3, 1)
    g = closure(w.generators)
    bound = yagita_upper_witness(g, 3)
    # central subgroup contributes 2*3, the twelve non-central ones 2*2
    assert bound == 12
    assert bound % 6 == 0  # the group invariant divides the bound


def test_yagita_upper_witness_trivial_group():
    assert yagita_upper_witness(closure([CycMatrix.identity(3)]), 3) == 1


def test_yagita_upper_witness_metacyclic():
    w = build_g1(3, 2, Z)
    g = closure(w.generators)
    assert yagita_upper_witness(g, 3) == 4  # one order-3 subgroup, n_upper 2


def test_blow_up_central_element_chern():
    # the 6x6 integral form of the central element of the order-27 group:
    # exponents {1: 3, 2: 3}, total class (1+x^3)(1+2x^3) = 1 + 2x^6 mod 3
    from yagita.witness import blow_up_matrix

    central = zeta(3) * CycMatrix.identity(3, 3)
    big = blow_up_matrix(central, 3)
    e = eigen_exponents(big, 3)
    assert e.as_dict() == {1: 3, 2: 3}
    assert total_chern(e) == FpPoly(3, (1, 0, 0, 0, 0, 0, 2))
    assert n_upper(e) == 6
    assert _rational(big, 3, 2)


def test_every_order_p_element_has_admissible_bound():
    # not just subgroup representatives: every order-p element of these
    # witnesses must give a divisor bound of the form m * p^q, m | p - 1,
    # compatible with the construction's l
    from yagita.fppoly import check_prop6
    from yagita.ringspec import compute_l
    from yagita.witness import verify_embedding

    for w, p in [(build_extraspecial_monomial(3, 1), 3), (build_g1(3, 2, Z), 3)]:
        l_w = compute_l(w.ring, p)
        vw = verify_embedding(w)
        elems = [vw.group.matrix(x) for x in vw.elements]
        eye = elems[0]
        for m in elems:
            if m == eye or m**p != eye:
                continue
            f = total_chern(eigen_exponents(m, p))
            v = check_prop6(f)
            assert (p - 1) % v.m == 0
            assert _rational(m, p, l_w)


def test_multiplicity_error_type():
    assert issubclass(MultiplicityError, ArithmeticError)


def _eigen_exponents_by_powers(m, p):
    """Reference: the multiplicities from the traces of all p matrix powers
    (the formula eigen_exponents evaluates from trace(m) alone)."""
    ident = CycMatrix.identity(m.size, m.conductor)
    powers, x = [ident], m
    for _ in range(p - 1):
        powers.append(x)
        x = x * m
    assert x == ident
    cond = math.lcm(m.conductor, p)
    traces = [q.trace().embed(cond) for q in powers]
    step = cond // p
    mults = []
    for a in range(p):
        acc = CycNum.rational(0)
        for k, t in enumerate(traces):
            acc = acc + t * zeta(cond, (-a * k * step) % cond)
        v = (acc / p).as_rational()
        assert v.denominator == 1 and v >= 0
        mults.append(int(v))
    return tuple(mults)


def _elementary(n, cond, i, j, c):
    """The identity with c added at (i, j), i != j; its inverse has -c."""
    rows = [[int(r == k) for k in range(n)] for r in range(n)]
    rows[i][j] = c
    return CycMatrix(rows, cond)


@st.composite
def conjugated_order_p_matrices(draw):
    """(p, conductor, matrix, multiplicities): a block-diagonal matrix of
    eigenvalue-1 entries, zeta_p**a entries (when p divides the conductor)
    and the rational companion block of the p-th cyclotomic polynomial,
    conjugated by elementary matrices over Q(zeta_conductor); conductors
    with p not dividing, dividing once and dividing twice."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    cond = draw(st.sampled_from(sorted({1, 4, 12, 15, p, 2 * p, p * p, 4 * p})))
    kinds = ["one", "companion"] + (["zeta"] if cond % p == 0 else [])
    mults = [0] * p
    diag = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        # a companion block past size 6 in all is drawn as an eigenvalue 1
        if kind == "companion" and sum(b.size for b in diag) + p - 1 <= 6:
            diag.append(regular_rep_zeta(p))
            for a in range(1, p):
                mults[a] += 1
        elif kind == "zeta":
            a = draw(st.integers(0, p - 1))
            diag.append(CycMatrix([[zeta(p, a)]], cond))
            mults[a] += 1
        else:
            diag.append(CycMatrix.identity(1))
            mults[0] += 1
    m = functools.reduce(block_diag, diag).embed(cond)
    n = m.size
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = CycNum(cond, draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)))
        m = _elementary(n, cond, i, j, c) * m * _elementary(n, cond, i, j, -c)
    return p, cond, m, tuple(mults)


@given(conjugated_order_p_matrices())
@settings(max_examples=60, deadline=None)
def test_eigen_exponents_matches_power_traces(case):
    p, cond, m, mults = case
    assert m.conductor == cond
    assert eigen_exponents(m, p).multiplicities == _eigen_exponents_by_powers(m, p) == mults


def test_eigen_exponents_makes_no_number_products(monkeypatch):
    # the multiplicities are integer Ramanujan sums over the coordinates of
    # the trace, and the m**p check goes through the matrix kernel, so no
    # CycNum product is made at all
    m = _elementary(3, 20, 0, 2, zeta(4)) * CycMatrix.diagonal([zeta(5), zeta(5, 2), 1])
    m = m * _elementary(3, 20, 0, 2, -zeta(4))
    mul = CycNum.__mul__
    products = []

    def counted(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    monkeypatch.setattr(CycNum, "__rmul__", counted)
    assert eigen_exponents(m, 5).as_dict() == {0: 1, 1: 1, 2: 1}
    assert products == []

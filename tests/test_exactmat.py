import json
import random

import pytest

from yagita.cyclo import CycNum, cyclotomic_poly, zeta
from yagita.exactmat import (
    CapExceededError,
    CycMatrix,
    MatrixGroup,
    block_diag,
    closure,
    det,
    element_order,
    inverse_of_finite_order,
    kron,
    order_p_cyclic_subgroups,
    relations_check,
)
from yagita.exactmat import _det_cofactor
from yagita.ringspec import parse_ring
from yagita.witness import witness_menu


def rand_int_matrix(rng, n, lo=-3, hi=3):
    return CycMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def test_kron_identities():
    assert kron(CycMatrix.identity(2), CycMatrix.identity(3)) == CycMatrix.identity(6)
    assert CycMatrix.identity(4).trace() == 4


def test_kron_mixed_product_property():
    rng = random.Random(11)
    for _ in range(10):
        a, b, c, d = (rand_int_matrix(rng, 2) for _ in range(4))
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_block_diag():
    m = block_diag(CycMatrix.identity(2), CycMatrix([[5]]))
    assert m.size == 3 and m[2, 2] == 5 and m[0, 0] == 1 and m[2, 0] == 0


def test_det_examples():
    assert det(CycMatrix.identity(7)) == 1
    assert det(CycMatrix([[0, -1], [1, 0]])) == 1
    # companion matrix of the p-th cyclotomic polynomial: det is
    # (-1)^(p-1) times the constant term
    phi5 = cyclotomic_poly(5)
    n = len(phi5) - 1
    comp = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        comp[j + 1][j] = 1
    for i in range(n):
        comp[i][n - 1] = -phi5[i]
    assert det(CycMatrix(comp)) == (-1) ** n * phi5[0] == 1


def test_det_bareiss_agrees_with_cofactor():
    rng = random.Random(23)
    for n in (5, 6):
        for _ in range(5):
            m = rand_int_matrix(rng, n, -2, 2)
            assert det(m) == _det_cofactor([list(r) for r in m.rows], n)


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(8):
        a, b = rand_int_matrix(rng, 3), rand_int_matrix(rng, 3)
        assert det(a * b) == det(a) * det(b)


def test_det_with_cyclotomic_entries():
    m = CycMatrix.diagonal([zeta(5), zeta(5, 4)])
    assert det(m) == 1
    m2 = CycMatrix([[zeta(8), 1], [0, zeta(8, 7)]])
    assert det(m2) == 1


def test_element_order():
    assert element_order(CycMatrix.identity(3)) == 1
    j = CycMatrix([[0, -1], [1, 0]])
    # oracle: iterate the powers by hand
    x, k = j, 1
    while x != CycMatrix.identity(2):
        x, k = x * j, k + 1
    assert k == 4 and element_order(j) == 4
    assert element_order(CycMatrix.diagonal([zeta(5), zeta(5, 4)])) == 5
    with pytest.raises(CapExceededError):
        element_order(CycMatrix([[1, 1], [0, 1]]), cap=50)


def test_inverse_of_finite_order():
    j = CycMatrix([[0, -1], [1, 0]])
    assert j * inverse_of_finite_order(j) == CycMatrix.identity(2)


def test_closure_dihedral_8():
    j = CycMatrix([[0, -1], [1, 0]])
    d = CycMatrix([[1, 0], [0, -1]])
    elems = closure([j, d])
    assert len(elems) == 8


def test_closure_identity_only():
    assert len(closure([CycMatrix.identity(4)])) == 1


def test_closure_quaternion_over_gaussians():
    i4 = zeta(4)
    a = CycMatrix([[i4, 0], [0, -i4]])
    b = CycMatrix([[0, -1], [1, 0]])
    assert len(closure([a, b])) == 8


def test_closure_cap():
    with pytest.raises(CapExceededError):
        closure([CycMatrix([[1, 1], [0, 1]])], cap=64)


def test_order_p_cyclic_subgroups_dihedral():
    j = CycMatrix([[0, -1], [1, 0]])
    d = CycMatrix([[1, 0], [0, -1]])
    g = MatrixGroup([j, d])
    # oracle: count elements of order 2 directly; at p = 2 every one spans
    # its own subgroup
    eye = CycMatrix.identity(2)
    order2 = [m for m in g.elements() if m != eye and m * m == eye]
    assert len(order2) == 5
    assert len(order_p_cyclic_subgroups(g, 2)) == 5


def test_order_p_cyclic_subgroups_cyclic():
    g = MatrixGroup([CycMatrix.diagonal([zeta(5), zeta(5, 2)])])
    assert len(order_p_cyclic_subgroups(g, 5)) == 1


def _order_p_reps_by_power_sets(group, p):
    """Reference: test every element's order and deduplicate subgroups by
    the frozenset of the keys of their p members."""
    elems = group.elements()
    ident = CycMatrix.identity(elems[0].size, elems[0].conductor)
    reps, seen = [], set()
    for m in elems:
        if m == ident or m**p != ident:
            continue
        powers, x = [ident], m
        for _ in range(p - 1):
            powers.append(x)
            x = x * m
        key = frozenset(q.key() for q in powers)
        if key not in seen:
            seen.add(key)
            reps.append(m)
    return reps


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("ring", ["Z", "cyclotomic"])
def test_order_p_cyclic_subgroups_matches_power_sets(p, ring):
    # the menu witnesses of order <= 250 up to dimension 7 (the four of
    # dimension 8 to 20 take 3 to 38 s each to enumerate); a determinant-
    # padded witness enumerates like its unpadded group, so it is left out
    ring = parse_ring("Z" if ring == "Z" else f"cyclotomic:{p}")
    witnesses = [
        e.embedding
        for e in witness_menu(p, 7, ring)
        if e.embedding.expected_order <= 250 and not e.embedding.padded
    ]
    assert witnesses
    for w in witnesses:
        g = MatrixGroup(w.generators)
        got = order_p_cyclic_subgroups(g, p)
        want = _order_p_reps_by_power_sets(g, p)
        assert [m.key() for m in got] == [m.key() for m in want], w


def test_power_product_count(monkeypatch):
    # left-to-right square-and-multiply: floor(log2 e) squarings and
    # popcount(e) - 1 products by the base, none by the identity
    m = CycMatrix([[0, -1], [1, 1]])
    powers = [CycMatrix.identity(2), m]
    for _ in range(38):
        powers.append(powers[-1] * m)
    mul = CycMatrix.__mul__
    products = []

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(CycMatrix, "__mul__", counted)
    for e, want in enumerate(powers):
        products.clear()
        assert m**e == want
        assert len(products) == max(e.bit_length() + bin(e).count("1") - 2, 0), e


def test_relations_check():
    # metacyclic pair: A of order 3, B of order 2, B A B^-1 = A^2
    a = CycMatrix([[0, -1], [1, -1]])
    b = CycMatrix([[1, -1], [0, -1]])
    words = [((0, 3),), ((1, 2),), ((1, 1), (0, 1), (1, -1), (0, -2))]
    assert relations_check([a, b], words)
    assert not relations_check([a, b], [((0, 2),)])


def test_matrix_json_round_trip():
    m = CycMatrix([[zeta(12), 1], [CycNum(12, (0, 1, 2, 3), 5), 0]])
    blob = json.dumps(m.to_json())
    assert CycMatrix.from_json(json.loads(blob)) == m


def test_mixed_conductor_entries_unify():
    m = CycMatrix([[zeta(3), 1], [zeta(4), 0]])
    assert m.conductor == 12
    assert m[0, 0] == zeta(3)


def test_pow_and_eq():
    j = CycMatrix([[0, -1], [1, 0]])
    assert j**4 == CycMatrix.identity(2)
    assert j**-1 == j**3
    assert (j**0).is_identity()


def test_non_square_rejected():
    with pytest.raises(ValueError):
        CycMatrix([[1, 2, 3], [4, 5, 6]])


def test_element_order_divides_group_order():
    j = CycMatrix([[0, -1], [1, 0]])
    d = CycMatrix([[1, 0], [0, -1]])
    g = MatrixGroup([j, d])
    n = g.order()
    for m in g.elements():
        assert n % element_order(m) == 0

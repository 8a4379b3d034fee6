import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yagita import exactmat
from yagita.cyclo import CycNum, cyclotomic_poly, zeta
from yagita.exactmat import (
    CapExceededError,
    CycMatrix,
    Perm,
    WidePerm,
    block_diag,
    closure,
    det,
    element_order,
    kron,
    order_p_cyclic_subgroups,
    perm,
    relations_check,
)
from yagita.numutil import euler_phi, power
from yagita.ringspec import Cyclotomic, parse_ring
from yagita.witness import WitnessKind, build, verify_embedding, witness_menu


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


def _det_cofactor(rows):
    """Reference: division-free cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = CycNum.rational(0)
    for j, c in enumerate(rows[0]):
        if not c.is_zero:
            term = c * _det_cofactor([r[:j] + r[j + 1 :] for r in rows[1:]])
            acc = acc + (term if j % 2 == 0 else -term)
    return acc


def test_det_bareiss_agrees_with_cofactor():
    # elimination divides by its pivots through CycNum.inverse (the norm);
    # the cofactor expansion never divides
    rng = random.Random(23)
    for conductor in (1, 5, 8):
        deg = euler_phi(conductor)
        for n in range(1, 7):
            for trial in range(3):
                rows = [
                    [CycNum(conductor, [rng.randint(-2, 2) for _ in range(deg)])
                     for _ in range(n)]
                    for _ in range(n)
                ]
                if trial == 0:
                    rows[0][0] = CycNum(conductor, ())  # a zero leading pivot
                m = CycMatrix(rows, conductor)
                assert det(m) == _det_cofactor(m.rows)


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


def _dense_product(a, b):
    """Reference: every entry as the sum over k of a[i, k] * b[k, j] in
    CycNum arithmetic, read off the dense rows; a term with a zero factor
    is zero and left out."""
    n = a.size
    ar, br = a.rows, b.rows
    return CycMatrix(
        [[sum((ar[i][k] * br[k][j] for k in range(n) if not (ar[i][k].is_zero or br[k][j].is_zero)),
              CycNum.rational(0))
          for j in range(n)] for i in range(n)]
    )


def _entry_keys(m):
    return [[x.key() for x in row] for row in m.rows]


def _dense_bareiss(a):
    """Reference: fraction-free elimination over every entry, with a row
    swap at a zero pivot and exact division by the previous pivot."""
    n = a.size
    m = [list(r) for r in a.rows]
    sign, prev = 1, CycNum.rational(1)
    for k in range(n - 1):
        if m[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if swap is None:
                return CycNum.rational(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


PATTERNS = ("monomial", "block", "dense", "zero_row", "zero_col", "zero_pivot", "singular")


@st.composite
def patterned_matrices(draw, n, cond):
    """An n x n matrix over Q(zeta_cond) with Fraction coordinates whose
    zeros follow one of PATTERNS (its nonzero slots may still draw 0)."""
    pattern = draw(st.sampled_from(PATTERNS))

    def entry():
        num = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
        return CycNum(cond, num, draw(st.integers(1, 3)))

    if pattern == "monomial":
        perm = draw(st.permutations(range(n)))
        mask = [[j == perm[i] for j in range(n)] for i in range(n)]
    elif pattern == "block":
        cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=3)))
        block = [sum(i >= c for c in cuts) for i in range(n)]
        mask = [[block[i] == block[j] for j in range(n)] for i in range(n)]
    else:
        mask = [[True] * n for _ in range(n)]
    if pattern == "zero_row":
        mask[draw(st.integers(0, n - 1))] = [False] * n
    if pattern == "zero_col":
        c = draw(st.integers(0, n - 1))
        for row in mask:
            row[c] = False
    if pattern == "zero_pivot":
        mask[0][0] = False
    zero = CycNum.rational(0)
    rows = [[entry() if ok else zero for ok in row] for row in mask]
    if pattern == "singular" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        c = entry()
        rows[i] = [c * x for x in rows[j]]
    elif pattern == "singular":
        rows = [[zero]]
    return CycMatrix(rows, cond)


@st.composite
def kernel_operands(draw):
    n = draw(st.integers(1, 7))
    cond = draw(st.sampled_from([1, 4, 5, 12]))
    return draw(patterned_matrices(n, cond)), draw(patterned_matrices(n, cond))


def _rescale_operands():
    # one row whose terms have denominators 2, 3 and 1: the running sum is
    # rescaled to their lcm, and 1/2 + 1/3 - 5/6 cancels to a canonical zero
    a = CycMatrix([[Fraction(1, 2), Fraction(1, 3), 1], [0, 1, 0], [0, 0, 1]], 5)
    b = CycMatrix([[1, 0, 0], [1, 1, 0], [Fraction(-5, 6), 0, zeta(5)]], 5)
    return a, b


def _dense_kron(a, b):
    na, nb = a.size, b.size
    return CycMatrix(
        [[a[i // nb, j // nb] * b[i % nb, j % nb] for j in range(na * nb)]
         for i in range(na * nb)]
    )


def _dense_block_diag(a, b):
    zero = CycNum.rational(0)
    return CycMatrix(
        [list(row) + [zero] * b.size for row in a.rows]
        + [[zero] * a.size + list(row) for row in b.rows]
    )


def _matrix_key(m):
    """The stored rows as a hashable value: equal exactly when two matrices
    over one conductor store the same rows."""
    return (
        m.size,
        m.conductor,
        tuple(tuple((j, x.num, x.den) for j, x in row) for row in m.nonzero),
    )


def _assert_canonical(m):
    # the stored rows are exactly the nonzero entries in column order, so
    # rebuilding the matrix from its dense view changes nothing
    assert _matrix_key(m) == _matrix_key(CycMatrix(m.rows, m.conductor))


@given(kernel_operands())
@example(_rescale_operands())
@settings(max_examples=80, deadline=None)
def test_product_and_det_match_dense_formulas(operands):
    a, b = operands
    ab = a * b
    assert _entry_keys(ab) == _entry_keys(_dense_product(a, b).embed(a.conductor))
    assert ab.conductor == a.conductor
    assert all(x.conductor == a.conductor for row in ab.rows for x in row)
    ab_kron, ab_diag = kron(a, b), block_diag(a, b)
    assert _entry_keys(ab_kron) == _entry_keys(_dense_kron(a, b).embed(a.conductor))
    assert _entry_keys(ab_diag) == _entry_keys(_dense_block_diag(a, b).embed(a.conductor))
    assert a.trace() == sum((a[i, i] for i in range(a.size)), CycNum.rational(0))
    for s in (b[0, 0], Fraction(-2, 3), 0):
        sa = s * a
        dense = CycMatrix([[x * s for x in row] for row in a.rows])
        assert _entry_keys(sa) == _entry_keys(dense.embed(sa.conductor))
        _assert_canonical(sa)
    for m in (ab, ab_kron, ab_diag):
        _assert_canonical(m)
    assert det(a) == _dense_bareiss(a)
    assert det(b) == _dense_bareiss(b)
    assert det(ab) == det(a) * det(b)


def _count_number_products(monkeypatch):
    mul = CycNum.__mul__
    products = []

    def counted(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    return products


class _CountedInt(int):
    """A packed entry that records each product it takes part in."""

    def __mul__(self, other):
        self.log.append(1)
        return int(self) * int(other)

    __rmul__ = __mul__


def _count_packed_products(monkeypatch):
    pack = exactmat._pack
    calls = []

    def counted(*args):
        rows = pack(*args)
        out = []
        for row in rows:
            entries = []
            for j, v in row:
                v = _CountedInt(v)
                v.log = calls
                entries.append((j, v))
            out.append(tuple(entries))
        return tuple(out)

    monkeypatch.setattr(exactmat, "_pack", counted)
    return calls


def test_sparse_product_count(monkeypatch):
    # a signed permutation matrix has one nonzero entry per row, so each
    # entry of the product is one term: n**2 products of packed entries
    # (none through CycNum.__mul__), not n**3
    n = 6
    rng = random.Random(3)
    perm = rng.sample(range(n), n)
    s = CycMatrix([[(-1) ** i if j == perm[i] else 0 for j in range(n)] for i in range(n)])
    d = CycMatrix([[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)] for _ in range(n)])
    want = CycMatrix([[(-1) ** i * d[perm[i], j] for j in range(n)] for i in range(n)])
    products = _count_number_products(monkeypatch)
    terms = _count_packed_products(monkeypatch)
    assert s * d == want
    assert len(terms) == n * n == 36
    assert products == []


@st.composite
def mixed_conductor_operands(draw):
    """Two n x n matrices over Q(zeta_ca) and Q(zeta_cb), with coordinates
    up to 10**20 in size, denominators that differ within a row, and zero
    entries."""
    n = draw(st.integers(1, 5))
    conds = draw(st.sampled_from([(4, 5), (3, 4), (1, 12), (12, 12)]))
    coord = st.integers(-(10**20), 10**20)

    def matrix(cond):
        def entry():
            if draw(st.integers(0, 3)) == 0:
                return CycNum(cond, ())
            num = draw(st.lists(coord, min_size=1, max_size=euler_phi(cond)))
            return CycNum(cond, num, draw(st.sampled_from([1, 2, 3, 4, 6, 35])))

        return CycMatrix([[entry() for _ in range(n)] for _ in range(n)], cond)

    return matrix(conds[0]), matrix(conds[1])


def _dense_cyclotomic_operands():
    # the size and field of the largest dense chern matrices
    rng = random.Random(13)
    return tuple(
        CycMatrix(
            [[CycNum(13, [rng.randint(-3, 3) for _ in range(12)]) for _ in range(12)]
             for _ in range(12)]
        )
        for _ in range(2)
    )


def _uniform_operands(n, conductor, a_coord, b_coord):
    """Two dense n x n matrices whose every coordinate is a_coord and
    b_coord: the middle coordinate of each product entry sums
    n * phi(conductor) equal terms, so it meets the packing bound
    n * phi * max|a| * max|b| exactly."""
    deg = euler_phi(conductor)
    return tuple(
        CycMatrix([[CycNum(conductor, [c] * deg) for _ in range(n)] for _ in range(n)], conductor)
        for c in (a_coord, b_coord)
    )


def _negative_top_operands():
    # the top coordinates are large, negative in the left operand and
    # positive in the right, so every packed entry on the left and every
    # packed sum of products is a negative integer
    rng = random.Random(17)

    def matrix(sign):
        return CycMatrix(
            [[CycNum(12, [rng.randint(-9, 9) for _ in range(3)] + [sign * (10**12 + rng.randint(0, 9))])
              for _ in range(4)] for _ in range(4)],
            12,
        )

    return matrix(-1), matrix(1)


def _dense_101_operands():
    rng = random.Random(101)
    return tuple(
        CycMatrix(
            [[CycNum(101, [rng.randint(-9, 9) for _ in range(100)]) for _ in range(6)]
             for _ in range(6)]
        )
        for _ in range(2)
    )


def _vanishing_operands():
    # entry (0, 0) of the product is 1 + z*(1 + z + z^2 + z^3) over Q(zeta_5):
    # five nonzero coordinates before the reduction and zero after it
    z = zeta(5)
    a = CycMatrix([[1, z, 0], [0, 1, 0], [2, 0, 1]], 5)
    b = CycMatrix([[1, 0, z], [1 + z + z**2 + z**3, 1, 0], [0, z**2, 1]], 5)
    return a, b


def _singular_operands():
    # rank one each, with a * b = 0: row 1 of a is zero, so its packed sums
    # are 0, while rows 0 and 2 each have a sum that is nonzero before the
    # reduction and zero after it
    z = zeta(5)
    s = 1 + z + z**2 + z**3
    a = CycMatrix([[1, z, 0], [0, 0, 0], [3, 3 * z, 0]], 5)
    b = CycMatrix([[1, z**2, 0], [s, z**2 * s, 0], [7, 1, z]], 5)
    return a, b


def _slot_bound_operands(coord):
    # 1x1 over Q(zeta_3): the middle coordinate of the product entry is
    # 2 * coord, and the packing bound is 2 * |coord|
    return _uniform_operands(1, 3, coord, 1)


def _monomial_operands(n, conductor):
    rng = random.Random(n)

    def matrix():
        perm = rng.sample(range(n), n)
        return CycMatrix(
            [[rng.choice((-1, 1)) * zeta(conductor, rng.randrange(conductor)) if j == perm[i] else 0
              for j in range(n)] for i in range(n)],
            conductor,
        )

    return matrix(), matrix()


# for k = 1, 2, 4, 8, a bound just below and one at 2**(8k - 1), the first
# that a k-byte slot cannot hold: the slots are 1, 2, 2, 4, 4, 8, 8 bytes
# wide and then 9 bytes, read slot by slot; the _slot_bound_operands
# examples of test_product_entries_match_dense_reference meet these bounds
SLOT_BOUNDS = [b for k in (1, 2, 4, 8) for b in (2 ** (8 * k - 1) - 2, 2 ** (8 * k - 1))]


def test_slot_widths_round_up_to_machine_integers():
    widths = [exactmat._slot_bytes(b) for b in SLOT_BOUNDS]
    assert widths == [1, 2, 2, 4, 4, 8, 8, 9]
    assert [exactmat._slot_bytes(b - 1) for b in SLOT_BOUNDS[1::2]] == [1, 2, 4, 8]


@given(mixed_conductor_operands())
@example(_rescale_operands())
@example(_vanishing_operands())
@example(_singular_operands())
@example(_monomial_operands(64, 7))
@example(_monomial_operands(4, 1))  # a signed permutation over Z
@example(_dense_cyclotomic_operands())
@example(_uniform_operands(3, 12, 10**20, 10**20))
@example(_uniform_operands(2, 3, 2**31 - 1, 2**31 - 1))  # a 64-bit bound: the sign takes a byte
@example(_uniform_operands(4, 5, -(2**31), 2**31 - 1))
@example(_negative_top_operands())
@example(_dense_101_operands())
@example(_slot_bound_operands(-(2**6 - 1)))
@example(_slot_bound_operands(2**6))
@example(_slot_bound_operands(-(2**14 - 1)))
@example(_slot_bound_operands(2**14))
@example(_slot_bound_operands(-(2**30 - 1)))
@example(_slot_bound_operands(2**30))
@example(_slot_bound_operands(-(2**62 - 1)))
@example(_slot_bound_operands(2**62))
@settings(max_examples=60, deadline=None)
def test_product_entries_match_dense_reference(operands):
    # the packed, once-reduced entries are the canonical ones, coordinate for
    # coordinate and denominator for denominator, over the lcm conductor
    a, b = operands
    ab = a * b
    assert ab.conductor == math.lcm(a.conductor, b.conductor)
    assert _entry_keys(ab) == _entry_keys(_dense_product(a, b).embed(ab.conductor))
    _assert_canonical(ab)  # entries that reduce to zero are not stored


def _count_inverses(monkeypatch):
    inverse = CycNum.inverse
    calls = []

    def counted(x):
        calls.append(1)
        return inverse(x)

    monkeypatch.setattr(CycNum, "inverse", counted)
    return calls


def test_sparse_det_count(monkeypatch):
    # elimination on a diagonal matrix: no row below a pivot has an entry in
    # its column, so nothing is eliminated, no pivot is inverted and the
    # determinant is the product of the n pivots
    n = 8
    m = CycMatrix.diagonal(range(2, n + 2))
    products = _count_number_products(monkeypatch)
    inverses = _count_inverses(monkeypatch)
    assert det(m) == math.factorial(n + 1)
    assert len(products) <= n
    assert inverses == []


def test_monomial_det_needs_no_inverse(monkeypatch):
    # one stored entry per column: each pivot is alone in its column, so
    # the determinant is the signed product of the entries, with no inverse
    n = 7
    perm = random.Random(7).sample(range(n), n)
    diag = CycMatrix.diagonal([zeta(7, i) for i in range(n)])
    signed = CycMatrix(
        [[(-1) ** i if j == perm[i] else 0 for j in range(n)] for i in range(n)], 7
    )
    want = [_det_cofactor(m.rows) for m in (diag, signed)]
    inverses = _count_inverses(monkeypatch)
    assert [det(diag), det(signed)] == want
    assert want[0] == zeta(7, n * (n - 1) // 2)
    assert inverses == []


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
    g = closure([j, d])
    # oracle: count elements of order 2 directly; at p = 2 every one spans
    # its own subgroup
    eye = CycMatrix.identity(2)
    order2 = [m for m in map(g.matrix, g.elements()) if m != eye and m * m == eye]
    assert len(order2) == 5
    assert len(order_p_cyclic_subgroups(g, 2)) == 5


def test_order_p_cyclic_subgroups_cyclic():
    g = closure([CycMatrix.diagonal([zeta(5), zeta(5, 2)])])
    assert len(order_p_cyclic_subgroups(g, 5)) == 1


def _compose(x: tuple, y: tuple) -> tuple:
    """Reference product of permutations as tuples: y first, then x."""
    return tuple(x[i] for i in y)


@pytest.mark.parametrize("points", [1, 2, 255, 256, 257, 343])
def test_perm_matches_tuple_oracle(points):
    # bytes up to 256 points and tuples past that must compose, invert,
    # power and compare as the plain tuples they stand for
    rng = random.Random(points)
    ident = tuple(range(points))
    tuples = [ident] + [tuple(rng.sample(range(points), points)) for _ in range(5)]
    perms = [perm(t) for t in tuples]
    form = Perm if points <= 256 else WidePerm
    assert all(type(x) is form and tuple(x) == t for x, t in zip(perms, tuples))
    for s, x in zip(tuples, perms):
        inv = x.inverse()
        assert type(inv) is form and _compose(s, tuple(inv)) == ident
        want = s
        for e in range(1, 8):
            assert type(power(x, e)) is form and tuple(power(x, e)) == want, e
            want = _compose(want, s)
    products = [x * y for x in perms for y in perms]
    want = [_compose(s, t) for s in tuples for t in tuples]
    assert all(type(z) is form for z in products)
    assert [tuple(z) for z in products] == want
    # products equal as tuples are equal, and hash alike, as permutations
    assert [z == perm(t) for z, t in zip(products, want)] == [True] * len(want)
    assert len(set(products)) == len(set(want)) < len(want)


@pytest.mark.parametrize(
    "kind, ring, points",
    [(WitnessKind("E", 5, 1), Cyclotomic(5), 25), (WitnessKind("G1", 131, 2), Cyclotomic(131), 262)],
)
def test_closure_matches_tuple_oracle(kind, ring, points):
    # the same elements, in the same order, as a breadth-first closure of
    # the generators' permutations held as plain tuples (262 points take
    # the tuple form)
    group = closure(build(kind, ring).generators)
    assert len(group.omega) == points
    gens = [tuple(g) for g in group.gens]
    want, seen = [tuple(range(points))], {tuple(range(points))}
    for x in want:
        for g in gens:
            y = _compose(g, x)
            if y not in seen:
                seen.add(y)
                want.append(y)
    assert [tuple(x) for x in group.elements()] == want


def _matrix_closure(gens):
    """Reference: the breadth-first closure on the matrices themselves,
    under left multiplication by the generators from the identity, each
    element keyed by its stored rows."""
    cond = math.lcm(*(g.conductor for g in gens))
    gens = [g.embed(cond) for g in gens]
    ident = CycMatrix.identity(gens[0].size, cond)
    seen = {_matrix_key(ident): ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = g * x
                if _matrix_key(y) not in seen:
                    seen[_matrix_key(y)] = y
                    new.append(y)
        frontier = new
    return list(seen.values())


def _order_p_reps_by_power_sets(elems, p):
    """Reference: test every element's order and deduplicate subgroups by
    the frozenset of the keys of their p members."""
    ident = elems[0]
    reps, seen = [], set()
    for m in elems:
        if m == ident or m**p != ident:
            continue
        powers, x = [ident], m
        for _ in range(p - 1):
            powers.append(x)
            x = x * m
        key = frozenset(_matrix_key(q) for q in powers)
        if key not in seen:
            seen.add(key)
            reps.append(m)
    return reps


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("ring", ["Z", "cyclotomic"])
def test_order_p_cyclic_subgroups_matches_power_sets(p, ring):
    # the menu witnesses of order <= 250 up to dimension 20, E(2,3) over Z
    # (dimension 8), E(3,2) over cyclotomic:3 (9) and over Z (18) and E(5,1)
    # over Z (20) included; a determinant-padded witness enumerates like its
    # unpadded group, so it is left out.  The permutation engine must give
    # the matrix closure's elements in its order, its center count and the
    # power-set reference's order-p representatives, and each element's
    # trace read off Omega must be the trace of its matrix.  The center is
    # counted on the first n points of Omega; the count of full
    # permutation products must agree with it and with the matrices.
    ring = parse_ring("Z" if ring == "Z" else f"cyclotomic:{p}")
    witnesses = [
        w for w in witness_menu(p, 20, ring) if w.expected_order <= 250 and not w.padded
    ]
    assert witnesses
    for w in witnesses:
        want = _matrix_closure(w.generators)
        vw = verify_embedding(w)
        got = [vw.group.matrix(x) for x in vw.elements]
        assert [_matrix_key(m) for m in got] == [_matrix_key(m) for m in want], w
        assert all(vw.group.trace(x).key() == m.trace().key() for x, m in zip(vw.elements, got)), w
        center = [x for x in want if all(g * x == x * g for g in w.generators)]
        assert vw.center_ok and len(center) == w.expected_center, w
        gens = vw.group.gens
        assert sum(1 for x in vw.elements if all(g * x == x * g for g in gens)) == len(center), w
        reps = [vw.group.matrix(x) for x in order_p_cyclic_subgroups(vw.group, p)]
        want_reps = _order_p_reps_by_power_sets(want, p)
        assert [_matrix_key(m) for m in reps] == [_matrix_key(m) for m in want_reps], w


def _square_operands():
    rng = random.Random(13)
    over_z = rand_int_matrix(rng, 6)
    over_q13 = CycMatrix(
        [[CycNum(13, [rng.randint(-2, 2) for _ in range(12)]) for _ in range(5)] for _ in range(5)]
    )
    with_den = CycMatrix(
        [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) * zeta(13, rng.randrange(13))
          for _ in range(4)] for _ in range(4)]
    )
    return [over_z, over_q13, with_den]


@pytest.mark.parametrize("a", _square_operands(), ids=["Z", "Q(zeta13)", "den"])
def test_square_packs_its_operand_once(monkeypatch, a):
    # a structurally equal copy is another object, packed on its own
    copy = CycMatrix(a.rows, a.conductor)
    assert copy is not a and copy == a
    pack, packed = exactmat._pack, []

    def counted(*args):
        packed.append(1)
        return pack(*args)

    monkeypatch.setattr(exactmat, "_pack", counted)
    want = a * copy
    assert len(packed) == 2
    packed.clear()
    assert _matrix_key(a * a) == _matrix_key(want)
    assert len(packed) == 1


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
    g = closure([a, b])
    assert relations_check(g, words)
    assert not relations_check(g, [((0, 2),)])


def test_relations_check_inverts_exactly():
    a = CycMatrix([[0, -1], [1, -1]])  # order 3
    b = CycMatrix([[1, -1], [0, -1]])  # order 2
    g = closure([a, b])
    conj = ((1, 1), (0, 1), (1, -1), (0, -2))
    # a**-2 is a**1, with or without the order relators in the list
    assert relations_check(g, [((0, 3),), ((1, 2),), conj])
    assert relations_check(g, [conj, ((0, 1), (0, -2), (0, -2))])
    # oracle: the same words as matrix products, inverses by the adjugate
    a_inv = CycMatrix([[-1, 1], [-1, 0]])
    b_inv = CycMatrix([[1, -1], [0, -1]])
    assert a * a_inv == CycMatrix.identity(2) == b * b_inv
    assert b * a * b_inv * a_inv * a_inv == CycMatrix.identity(2)
    # a false order relator fails the check itself
    assert not relations_check(g, [((0, 2),), ((1, 2),), conj])
    assert not relations_check(g, [((0, -1), (1, 1))])


def test_matrix_json_round_trip():
    m = CycMatrix([[zeta(12), 1], [CycNum(12, (0, 1, 2, 3), 5), 0]])
    blob = json.dumps(m.to_json())
    assert CycMatrix.from_json(json.loads(blob)) == m


@pytest.mark.parametrize("conductor", [0, -7])
def test_matrix_json_rejects_nonpositive_conductor(conductor):
    # only a missing conductor means 1
    entry = {"conductor": 1, "num": [1], "den": 1}
    obj = {"conductor": conductor, "entries": [[entry]]}
    with pytest.raises(ValueError, match=f"conductor {conductor} is not positive"):
        CycMatrix.from_json(obj)
    with pytest.raises(ValueError, match=f"conductor {conductor} is not positive"):
        CycMatrix([[1]], conductor)
    assert CycMatrix([[1]], None) == CycMatrix([[1]], 1) == CycMatrix.identity(1)


def test_matrix_json_bounds_the_lcm_of_conductors(monkeypatch, bounded_factoring):
    # each conductor is in bounds; the matrix would be over their lcm
    # 988027, with 996 * 990 coordinates per entry, and no entry is read
    # before the lcm is checked
    x, y = zeta(997).to_json(), zeta(991).to_json()
    obj = {"conductor": 1, "entries": [[x, y], [y, x]]}

    def no_parse(obj):
        raise AssertionError("entry parsed before the lcm was checked")

    monkeypatch.setattr(CycNum, "from_json", no_parse)
    with pytest.raises(ValueError, match="^conductor 988027 exceeds the cap 10000$"):
        CycMatrix.from_json(obj)


def test_mixed_conductor_entries_unify():
    m = CycMatrix([[zeta(3), 1], [zeta(4), 0]])
    assert m.conductor == 12
    assert m[0, 0] == zeta(3)


def test_pow_and_eq():
    j = CycMatrix([[0, -1], [1, 0]])
    assert j**4 == CycMatrix.identity(2)
    assert j**-1 == j**3
    assert j**0 == CycMatrix.identity(2)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        CycMatrix([[1, 2, 3], [4, 5, 6]])


def test_element_order_divides_group_order():
    j = CycMatrix([[0, -1], [1, 0]])
    d = CycMatrix([[1, 0], [0, -1]])
    g = closure([j, d])
    n = len(g)
    orders = [element_order(g.matrix(x)) for x in g.elements()]
    assert all(n % k == 0 for k in orders)
    assert sorted(orders) == [1, 2, 2, 2, 2, 2, 4, 4]

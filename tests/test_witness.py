import dataclasses
import random

import pytest

from yagita import witness
from yagita.cyclo import CycNum, zeta
from yagita.exactmat import CycMatrix, closure, det
from yagita.harness import verify_case
from yagita.ringspec import (
    AbstractRing,
    Cyclotomic,
    QuadraticOrder,
    RationalIntegers,
    SubCyclotomicFixedField,
    UnsupportedFieldError,
    parse_ring,
)
from yagita.witness import (
    WitnessError,
    WitnessKind,
    blow_up,
    blow_up_matrix,
    build,
    build_e2m_integer,
    build_extraspecial_monomial,
    build_g1,
    build_g2,
    build_q8,
    galois_rep,
    parse_kind,
    regular_rep_zeta,
    sl_pad,
    verify_embedding,
    witness_menu,
)

Z = RationalIntegers()


def _matrices(vw):
    """The verified group's elements as matrices, in enumeration order."""
    return [vw.group.matrix(x) for x in vw.elements]


def test_regular_rep_zeta_small():
    assert regular_rep_zeta(2) == CycMatrix([[-1]])
    assert regular_rep_zeta(3) == CycMatrix([[0, -1], [1, -1]])
    m5 = regular_rep_zeta(5)
    assert m5.size == 4
    assert all(m5[i, 3] == -1 for i in range(4))
    assert m5[1, 0] == 1 and m5[0, 0] == 0


def test_regular_rep_realizes_multiplication_by_zeta():
    # the matrix must satisfy the minimal polynomial of zeta_p
    for p in (3, 5, 7):
        m = regular_rep_zeta(p)
        acc = CycMatrix.identity(p - 1)
        total = acc
        for _ in range(p - 1):
            acc = acc * m
            total_rows = [
                [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total.rows, acc.rows)
            ]
            total = CycMatrix(total_rows)
        zero = CycMatrix([[0] * (p - 1) for _ in range(p - 1)])
        assert total == zero  # 1 + M + ... + M^(p-1) = 0


def test_galois_rep_small():
    assert galois_rep(3, 1) == CycMatrix.identity(2)
    assert galois_rep(3, 2) == CycMatrix([[1, -1], [0, -1]])


@pytest.mark.parametrize("p,g", [(3, 2), (5, 2), (5, 3), (7, 3), (7, 5)])
def test_galois_conjugation_relation(p, g):
    a = regular_rep_zeta(p)
    s = galois_rep(p, g)
    s_inv = s ** (-1)
    assert s * a * s_inv == a**g


def test_build_g1_over_z():
    w = build_g1(3, 2, Z)
    assert w.dimension == 2 and w.expected_order == 6
    vw = verify_embedding(w)
    assert vw.ok and vw.order == 6
    w54 = build_g1(5, 4, Z)
    assert w54.dimension == 4
    assert verify_embedding(w54).order == 20


def test_build_g1_monomial():
    w = build_g1(5, 2, Cyclotomic(5))
    assert w.dimension == 2
    vw = verify_embedding(w)
    assert vw.ok and vw.order == 10


def test_build_g1_sl_membership_parity():
    # determinant of the order-m generator: +1 exactly when m is odd or
    # (p-1)/m is even, for the Galois model over Z
    for p, m, expect_sl in [(5, 2, True), (5, 4, False), (7, 3, True), (7, 2, False), (13, 4, False), (13, 6, True)]:
        w = build_g1(p, m, Z)
        assert w.claims_sl == expect_sl
        assert det(w.generators[0]) == 1  # order-p generator always lands in SL
    w = build_g1(5, 2, Z)
    g = closure(w.generators)
    assert all(det(g.matrix(x)) == 1 for x in g.elements())


def test_build_g1_unsupported_ring():
    with pytest.raises(UnsupportedFieldError):
        build_g1(5, 2, QuadraticOrder(5))  # l = 2: no integral model here
    with pytest.raises(UnsupportedFieldError):
        build_g1(7, 3, SubCyclotomicFixedField(7, 2))
    with pytest.raises(WitnessError):
        build_g1(5, 3, Z)  # 3 does not divide 4
    with pytest.raises(WitnessError):
        build_g1(2, 2, Z)


def test_build_g1_rejects_ring_before_unit_search(monkeypatch):
    # the least unit of order m takes O(p**2) steps; a ring without a model
    # is refused first
    def no_search(p, m):
        raise AssertionError("unit search ran for a ring without a model")

    monkeypatch.setattr(witness, "_least_unit_of_order", no_search)
    with pytest.raises(UnsupportedFieldError):
        build_g1(9973, 2, AbstractRing(1, 2))


def test_sl_pad():
    w = build_g1(3, 2, Z)
    padded = sl_pad(w)
    assert padded.dimension == 3 and padded.claims_sl and padded.padded
    vw = verify_embedding(padded)
    assert vw.ok and vw.order == 6  # closure order preserved
    d8 = build_e2m_integer(1)
    p8 = sl_pad(d8)
    assert p8.dimension == 3
    assert verify_embedding(p8).order == 8


def test_build_g2():
    w = build_g2(5, 2, Cyclotomic(20))
    assert w.dimension == 2 and w.expected_order == 20 and w.claims_sl
    assert verify_embedding(w).ok
    w2 = build_g2(5, 4, Cyclotomic(40))
    assert w2.dimension == 4 and verify_embedding(w2).order == 40
    # det(mu * B) = mu^n det(B) = (-1)(-1) = 1
    assert det(w.generators[1]) == 1
    assert det(w2.generators[1]) == 1


def test_g2_is_one_model_whatever_the_ring():
    # mu, of order q = 2^(v+1), is written over lcm(p, q), the first
    # conductor of each family: every ring holding it gives the same
    # generators, and each build verifies
    families = {(3, 2): range(12, 121, 12), (5, 2): (20, 40, 60), (7, 6): (28, 56, 84)}
    for (p, m), conductors in families.items():
        first = build_g2(p, m, Cyclotomic(conductors[0]))
        assert first.ring == Cyclotomic(conductors[0])
        for N in conductors:
            w = build_g2(p, m, Cyclotomic(N))
            assert [g.to_json() for g in w.generators] == [g.to_json() for g in first.generators], N
            assert w.ring == first.ring and verify_embedding(w).ok


def test_build_g2_requires_root_of_minus_one():
    with pytest.raises(WitnessError):
        build_g2(5, 2, Cyclotomic(5))  # mu_10 has no square root of -1
    with pytest.raises(WitnessError):
        build_g2(5, 2, Z)
    with pytest.raises(WitnessError):
        build_g2(5, 3, Cyclotomic(20))  # m must be even


def test_extraspecial_monomial():
    w = build_extraspecial_monomial(3, 1)
    assert w.dimension == 3 and w.expected_order == 27 and w.claims_sl
    vw = verify_embedding(w)
    assert vw.ok and vw.order == 27
    assert all(det(m) == 1 for m in _matrices(vw))
    # the center is exactly the scalar matrices zeta^k I
    scalars = [zeta(3, k) * CycMatrix.identity(3, 3) for k in range(3)]
    central = [m for m in _matrices(vw) if all(g * m == m * g for g in w.generators)]
    assert len(central) == 3
    for m in central:
        assert any(m == s for s in scalars)
    # monomial commutation Z X = zeta X Z
    x, z = w.generators[0], w.generators[1]
    assert z * x == zeta(3) * (x * z)


def test_blow_up_of_extraspecial():
    w = blow_up(build_extraspecial_monomial(3, 1))
    assert w.dimension == 6 and w.ring == Z
    vw = verify_embedding(w)
    assert vw.ok and vw.order == 27
    assert all(det(m) == 1 for m in _matrices(vw))
    assert all(x.conductor == 1 for g in w.generators for row in g.rows for x in row)


def test_blow_up_matrix_is_multiplicative():
    rng = random.Random(3)
    for _ in range(8):
        a = CycMatrix(
            [[zeta(3, rng.randrange(3)) * rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        )
        b = CycMatrix(
            [[zeta(3, rng.randrange(3)) * rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        )
        assert blow_up_matrix(a * b, 3) == blow_up_matrix(a, 3) * blow_up_matrix(b, 3)
    assert blow_up_matrix(CycMatrix.identity(2, 3), 3) == CycMatrix.identity(4)


def test_blow_up_multiplicative_on_witness_generators():
    w = build_extraspecial_monomial(3, 1)
    gens = [g.embed(3) for g in w.generators]
    for a in gens:
        for b in gens:
            assert blow_up_matrix(a * b, 3) == blow_up_matrix(a, 3) * blow_up_matrix(b, 3)


def test_blow_up_rejects_denominators():
    m = CycMatrix([[CycNum(3, (1, 0), 2)]])
    with pytest.raises(WitnessError):
        blow_up_matrix(m, 3)


def test_e2m_integer():
    d8 = build_e2m_integer(1)
    vw = verify_embedding(d8)
    assert vw.ok and vw.order == 8 and not d8.claims_sl
    dets = sorted(str(det(g)) for g in d8.generators)
    assert dets == ["-1", "1"]  # the reflection has determinant -1

    e22 = build_e2m_integer(2)
    vw2 = verify_embedding(e22)
    assert vw2.ok and vw2.order == 32 and e22.claims_sl
    assert all(det(m) == 1 for m in _matrices(vw2))


def test_q8():
    w = build_q8()
    vw = verify_embedding(w)
    assert vw.ok and vw.order == 8
    a, b = w.generators
    # i * j = k in the quaternion presentation
    i4 = zeta(4)
    k_mat = CycMatrix([[0, -i4], [-i4, 0]])
    assert a * b == k_mat
    minus_eye = -1 * CycMatrix.identity(2)
    assert (minus_eye * minus_eye) == CycMatrix.identity(2)
    assert all(det(m) == 1 for m in _matrices(vw))


def test_witness_menu_contents():
    menu = witness_menu(3, 2, Z)
    kinds = [str(w.kind) for w in menu]
    assert "G1(3,2)" in kinds

    menu2 = witness_menu(2, 4, Z)
    kinds2 = [str(w.kind) for w in menu2]
    assert "E(2,2)" in kinds2 and "D8" in kinds2

    assert witness_menu(5, 3, Z) == []


def test_witness_menu_sl_flags():
    menu = witness_menu(5, 4, Z)
    by_kind = {(str(w.kind), w.padded): w for w in menu}
    assert by_kind[("G1(5,2)", False)].claims_sl  # (p-1)/m even: already in SL
    assert not by_kind[("G1(5,4)", False)].claims_sl  # det -1, pad does not fit n=4
    assert ("G1(5,4)", True) not in by_kind

    menu5 = witness_menu(5, 5, Z)
    padded = [w for w in menu5 if w.padded]
    assert any(str(w.kind) == "G1(5,4)" for w in padded)
    assert all(w.claims_sl for w in padded)
    # a pad is offered for SL only: the GL report lists none
    assert not any(line.padded for line in verify_case(5, 5, Z).witnesses)
    assert "G1(5,4)+pad" in [line.kind for line in verify_case(5, 5, Z, sl=True).witnesses]


def test_witness_menu_q8_needs_i():
    kinds_z = [str(w.kind) for w in witness_menu(2, 2, Z)]
    assert "Q8" not in kinds_z
    kinds_zi = [str(w.kind) for w in witness_menu(2, 2, Cyclotomic(4))]
    assert "Q8" in kinds_zi


def test_witness_menu_monomial_over_cyclotomic():
    menu = witness_menu(3, 3, Cyclotomic(3))
    kinds = [str(w.kind) for w in menu]
    assert "E(3,1)" in kinds and "G1(3,2)" in kinds
    e31 = next(w for w in menu if str(w.kind) == "E(3,1)")
    assert e31.dimension == 3  # monomial form, not the blown-up integral form


def test_witness_expected_yagita_values():
    assert build_g1(5, 4, Z).expected_yagita == 8
    assert build_extraspecial_monomial(3, 1).expected_yagita == 6
    assert build_q8().expected_yagita == 4
    assert build_e2m_integer(1).expected_yagita == 4
    assert build_e2m_integer(2).expected_yagita == 8


def test_parse_kind():
    assert str(parse_kind("g1:3:2")) == "G1(3,2)"
    assert str(parse_kind("e:2:3")) == "E(2,3)"
    assert str(parse_kind("q8")) == "Q8"
    with pytest.raises(WitnessError):
        parse_kind("g3:3:2")


def test_verified_witness_faithfulness_battery():
    cases = [
        build_g1(3, 2, Z),
        build_g1(7, 3, Z),
        build_g2(5, 2, Cyclotomic(20)),
        build_extraspecial_monomial(5, 1),
        build_e2m_integer(2),
        build_q8(),
    ]
    for w in cases:
        vw = verify_embedding(w)
        assert vw.ok, f"{w} failed: {vw.summary()}"
        assert vw.order == w.expected_order


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_sl_claim_checked_on_generators(monkeypatch):
    w = build_e2m_integer(2)
    calls = _count_calls(monkeypatch, witness, "det")
    vw = verify_embedding(w)
    assert vw.ok and vw.order == 32
    assert len(calls) == len(w.generators)


def test_menu_verification_searches_no_order(monkeypatch):
    # a relator inverts a generator's permutation exactly, so no order is
    # searched for
    import yagita.exactmat

    def no_search(*args):
        raise AssertionError("element_order called")

    monkeypatch.setattr(yagita.exactmat, "element_order", no_search)
    kinds = set()
    for p in (2, 3, 5, 7):
        for ring in (Z, Cyclotomic(p), Cyclotomic(4)):
            for w in witness_menu(p, 12, ring):
                vw = verify_embedding(w)
                assert vw.ok, f"{w} failed: {vw.summary()}"
                kinds.add(str(w.kind))
    assert {"Q8", "D8", "E(2,3)", "E(3,2)", "E(7,1)", "G1(7,6)"} <= kinds


def test_false_sl_claim_fails():
    vw = verify_embedding(dataclasses.replace(build_e2m_integer(1), claims_sl=True))
    assert vw.sl_ok is False and vw.ok is False


@pytest.mark.parametrize("center", [1, 9])
def test_false_center_fails(center):
    # the center of E(3,1) is its 3 scalars
    w = build_extraspecial_monomial(3, 1)
    assert w.expected_center == 3 and verify_embedding(w).center_ok is True
    vw = verify_embedding(dataclasses.replace(w, expected_center=center))
    assert vw.center_ok is False and vw.ok is False


@pytest.mark.parametrize(
    "w, pair",
    [
        # X_0 and X_1 commute: their commutator is the identity, not the
        # commutator Z_0 X_0 Z_0^-1 X_0^-1 of the listed pairs
        (build_extraspecial_monomial(3, 2), (0, 1)),
        # b a b^-1 a^-1 = a^(g-1) is no central element
        (build_g1(5, 4, Z), (1, 0)),
    ],
    ids=["E(3,2)-X0-X1", "G1(5,4)-b-a"],
)
def test_false_central_commutation_pair_fails(w, pair):
    assert verify_embedding(w).central_ok is True
    central = w.central_commutations + (pair,)
    vw = verify_embedding(dataclasses.replace(w, central_commutations=central))
    assert vw.central_ok is False and vw.ok is False


def test_verify_case_builds_no_matrix(monkeypatch):
    # E(3,1)/Z, E(5,1) and E(2,2)/Z carry central commutations; the harness
    # checks them, the relators and the Chern rows on permutations alone
    from yagita import harness
    from yagita.exactmat import MatrixGroup

    def no_matrix(group, x):
        raise AssertionError("verification built a matrix")

    monkeypatch.setattr(harness, "_checked", {})
    monkeypatch.setattr(MatrixGroup, "matrix", no_matrix)
    for p, n, ring in [(3, 6, Z), (5, 5, Cyclotomic(5)), (2, 4, Z)]:
        report = verify_case(p, n, ring)
        assert report.verdict == "Pass", (p, n, ring)
        assert any(w.kind.family == "E" for w in witness_menu(p, n, ring))


@pytest.mark.parametrize(
    "kind, ring",
    [
        (WitnessKind("G1", 3, 2), Z),
        (WitnessKind("G1", 5, 2), Cyclotomic(5)),
        (WitnessKind("E", 2, 1), Z),
        (WitnessKind("E", 3, 1), Cyclotomic(2)),
    ],
)
def test_build_is_memoized_and_pads(kind, ring):
    w = build(kind, ring)
    assert build(kind, ring) is w
    padded = build(kind, ring, True)
    assert build(kind, ring, True) is padded
    assert padded.generators == sl_pad(w).generators


def test_warm_menu_does_no_matrix_work(monkeypatch):
    witness_menu(7, 7, Z)
    products = _count_calls(monkeypatch, CycMatrix, "__mul__")
    dets = _count_calls(monkeypatch, witness, "det")
    menu = witness_menu(7, 7, Z)
    assert any(w.padded for w in menu)
    assert products == [] and dets == []


def test_warm_menu_orders_on_labels_named_once(monkeypatch):
    # the menu sorts on each embedding's label, named once per embedding:
    # the order of (kind name, padded, dimension), since no kind's name is a
    # proper prefix of another's
    cases = [
        (p, n, parse_ring(text))
        for p in (2, 3, 5, 7)
        for text in ("Z", "Z[i]", "cyclotomic:3", f"cyclotomic:{4 if p == 2 else p}", "cyclotomic:8")
        for n in range(1, 17)
    ]
    menus = [witness_menu(*case) for case in cases]
    assert sum(map(len, menus)) > 300
    for menu in menus:
        assert menu == sorted(menu, key=lambda w: (str(w.kind), w.padded, w.dimension))
        assert all(w.label == str(w.kind) + ("+pad" if w.padded else "") for w in menu)
    names = _count_calls(monkeypatch, WitnessKind, "__str__")
    assert [witness_menu(*case) for case in cases] == menus
    assert names == []


def test_ring_independent_witnesses_built_once():
    # E(2, m) and D8 live over Z whatever the ring, so the p = 2 menus over
    # Z and over Q(zeta_8) share one built embedding (and pad) per kind
    def e2(ring):
        menu = witness_menu(2, 4, ring)
        return [w for w in menu if w.kind.family != "Q8"]

    over_z, over_8 = e2(Z), e2(parse_ring("cyclotomic:8"))
    assert len(over_z) == len(over_8) == 3  # D8, its pad, E(2,2)
    assert all(a is b for a, b in zip(over_z, over_8))

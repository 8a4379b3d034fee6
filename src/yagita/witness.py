"""Explicit finite matrix groups realizing the lower bounds.

Five families are constructed, each packaged with the data needed to check
it by machine: generators, the abstract order, a presentation (relator
words plus central commutation pairs), whether every element is claimed to
have determinant 1, and the group's known Yagita invariant.

* ``G1(p, m)`` -- split metacyclic C_p : C_m with faithful action.  Over a
  ring containing zeta_p this is the m-dimensional monomial model
  (diagonal of zeta_p powers plus a cyclic shift); over Z it is the action
  of zeta_p-multiplication and the Galois group on the power basis of
  Z[zeta_p], in dimension p - 1.
* ``G2(p, m)`` -- split metacyclic C_p : C_2m acting through C_m, realized
  inside SL by twisting the order-m generator with a 2-power root of -1.
* ``E(p, m)`` -- extraspecial group of order p^(2m+1) and exponent p
  (p odd): tensor products of the p-cycle and the diagonal of zeta_p
  powers, one slot per central factor; plus restriction of scalars to Z
  (``blow_up``), replacing each entry by its multiplication matrix on the
  power basis of Z[zeta_p].
* ``E(2, m)`` -- over Z: the dihedral group of order 8 for m = 1 ("D8"),
  and for m >= 2 tensor products of the 2x2 swap and sign blocks, with the
  defining checks (order, center, determinants) verified rather than
  trusted.
* ``Q8`` -- the quaternion group in SL_2(Z[i]).

Constructions only exist where an explicit basis for the coefficient ring
action is available: rings containing zeta_p, and Z.  Everything else
raises ``WitnessError`` instead of guessing.  The caller's ring only picks
the model; an embedding's ``ring`` is read off its generators (Z, or
Z[zeta_N] for their conductors' lcm N), so every spelling of one field
gives the same model, and the harness verifies it once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .cyclo import zeta
from .exactmat import (
    MAX_MATRIX_SIZE,
    CycMatrix,
    MatrixGroup,
    Word,
    block_diag,
    closure,
    det,
    kron,
    relations_check,
)
from .formulas import oracle_yagita
from .numutil import divisors, factorize, is_prime
from .ringspec import (
    Cyclotomic,
    AbstractRing,
    RationalIntegers,
    RingSpec,
    UnsupportedFieldError,
    compute_l,
    contains_zeta_p,
    has_nth_root_of_minus_one,
    is_rational_integers,
)


class WitnessError(ValueError):
    pass


@dataclass(frozen=True)
class WitnessKind:
    family: str  # "G1" | "G2" | "E" | "Q8" | "D8"
    p: int = 0
    m: int = 0

    def __str__(self) -> str:
        if self.family in ("Q8", "D8"):
            return self.family
        return f"{self.family}({self.p},{self.m})"


def parse_kind(text: str) -> WitnessKind:
    t = text.strip().lower()
    if t == "q8":
        return WitnessKind("Q8")
    if t == "d8":
        return WitnessKind("D8")
    parts = t.split(":")
    if len(parts) == 3 and parts[0] in ("g1", "g2", "e"):
        return WitnessKind(parts[0].upper() if parts[0] != "e" else "E",
                           int(parts[1]), int(parts[2]))
    raise WitnessError(f"cannot parse witness kind {text!r}")


@dataclass(frozen=True)
class WitnessEmbedding:
    kind: WitnessKind
    generators: tuple[CycMatrix, ...]
    expected_order: int
    claims_sl: bool
    relators: tuple[Word, ...]
    # (i, j): every gens[i] gens[j] (gens[j] gens[i])^-1 is one central element
    central_commutations: tuple[tuple[int, int], ...] = ()
    expected_center: int = 1
    padded: bool = False

    @property
    def dimension(self) -> int:
        return self.generators[0].size

    @property
    def expected_yagita(self) -> int:
        return oracle_yagita(self.kind)

    @functools.cached_property
    def ring(self) -> RingSpec:
        """The ring the generators' entries live in: Z, or Z[zeta_N] for the
        lcm N of their conductors.  It names the model, whatever ring the
        caller spelled."""
        n = math.lcm(*(g.conductor for g in self.generators))
        return RationalIntegers() if n == 1 else Cyclotomic(n)

    @functools.cached_property
    def label(self) -> str:
        """The kind as reports name it, with "+pad" for the determinant pad."""
        return str(self.kind) + ("+pad" if self.padded else "")

    def __str__(self) -> str:
        return f"{self.label} in dim {self.dimension} over {self.ring}"


# ---------------------------------------------------------------------------
# building blocks


def _coordinate_matrix(images) -> CycMatrix:
    """The integer matrix whose column j is the power-basis coordinate
    vector of images[j]: the matrix on the basis 1, zeta, ... of Z[zeta]
    of the linear map sending zeta**j to images[j]."""
    if any(x.den != 1 for x in images):
        raise WitnessError(
            "non-integral entry; restriction of scalars needs Z[zeta_p] entries"
        )
    return CycMatrix(list(zip(*(x.num for x in images))))


def regular_rep_zeta(p: int) -> CycMatrix:
    """Multiplication by zeta_p on the power basis of Z[zeta_p]: the
    (p-1) x (p-1) integer companion matrix of the p-th cyclotomic
    polynomial."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _coordinate_matrix([zeta(p, j + 1) for j in range(p - 1)])


def galois_rep(p: int, g: int) -> CycMatrix:
    """The Galois automorphism zeta -> zeta**g on the power basis of
    Z[zeta_p], as an integer matrix."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if g % p == 0:
        raise ValueError(f"{g} is not a unit mod {p}")
    return _coordinate_matrix([zeta(p, g * j) for j in range(p - 1)])


def _least_unit_of_order(p: int, m: int) -> int:
    """The least g with multiplicative order exactly m mod p: g**m = 1 and
    g**(m/q) != 1 for each prime q dividing m."""
    qs = factorize(m)
    for g in range(1, p):
        if pow(g, m, p) == 1 and all(pow(g, m // q, p) != 1 for q in qs):
            return g
    raise WitnessError(f"no unit of order {m} mod {p}")


def _shift_matrix(n: int, step: int) -> CycMatrix:
    """Cyclic shift e_j -> e_(j+step mod n) (for step = +-1 an n-cycle,
    determinant (-1)^(n-1))."""
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[(j + step) % n][j] = 1
    return CycMatrix(rows)


def _commutator_word(a: int, b: int) -> Word:
    return ((a, 1), (b, 1), (a, -1), (b, -1))


# ---------------------------------------------------------------------------
# metacyclic witnesses


def build_g1(p: int, m: int, ring: RingSpec) -> WitnessEmbedding:
    """The split metacyclic group C_p : C_m inside GL over the given ring.

    Dimension lcm(m, l) where l = [F(zeta_p) : F]; supported over rings
    containing zeta_p (monomial model) and over Z (Galois model).
    """
    if not is_prime(p) or p == 2:
        raise WitnessError("need an odd prime p")
    if m < 2 or (p - 1) % m != 0:
        raise WitnessError(f"m = {m} must divide p - 1 = {p - 1} and exceed 1")
    l = compute_l(ring, p)
    dim = math.lcm(m, l)
    if dim > MAX_MATRIX_SIZE:
        raise WitnessError(f"dimension {dim} exceeds the matrix-size cap")
    monomial = l == 1 and not isinstance(ring, AbstractRing)
    if not (is_rational_integers(ring) or monomial):
        raise UnsupportedFieldError(
            f"no integral model over {ring} (l = {l}); supported: Z and rings "
            "containing zeta_p"
        )
    g = _least_unit_of_order(p, m)
    if is_rational_integers(ring):
        a = regular_rep_zeta(p)
        b = galois_rep(p, g)
    else:
        # monomial model: conjugation by the shift cycles the diagonal
        # exponents through g^0, g^1, ..., g^(m-1)
        a = CycMatrix.diagonal([zeta(p, pow(g, i, p)) for i in range(m)])
        b = _shift_matrix(m, -1)
    relators: tuple[Word, ...] = (
        (((0, p),)),
        (((1, m),)),
        ((1, 1), (0, 1), (1, -1), (0, -g)),
    )
    claims_sl = det(a) == 1 and det(b) == 1
    return WitnessEmbedding(
        kind=WitnessKind("G1", p, m),
        generators=(a, b),
        expected_order=p * m,
        claims_sl=claims_sl,
        relators=relators,
        expected_center=1,
    )


def build_g2(p: int, m: int, ring: RingSpec) -> WitnessEmbedding:
    """C_p : C_2m (acting through C_m) inside SL: twist the order-m
    generator B (determinant -1) by mu of order q = 2^(v+1), 2^v the 2-part
    of n, so that det(mu B) = -mu**n = 1.  mu is written over conductor
    lcm(p, q) whatever the ring's spelling, which only decides whether mu
    exists; verification checks the determinant."""
    if m % 2:
        raise WitnessError("the order-2m extension needs m even")
    base = build(WitnessKind("G1", p, m), _model_ring(p, ring))
    a, b = base.generators
    n = base.dimension
    if not has_nth_root_of_minus_one(ring, n):
        raise WitnessError(f"{ring} has no {n}-th root of -1")
    if det(b) != -1:
        raise WitnessError(
            "order-m generator has determinant +1; the root-of-unity twist "
            "only lands in SL when it is -1"
        )
    q = 2 * (n & -n)
    c = zeta(math.lcm(p, q), math.lcm(p, q) // q) * b
    return WitnessEmbedding(
        kind=WitnessKind("G2", p, m),
        generators=(a, c),
        expected_order=2 * p * m,
        claims_sl=True,
        # c conjugates a as B does; only the order of the second generator doubles
        relators=(base.relators[0], ((1, 2 * m),), base.relators[2]),
        expected_center=2,
    )


def _model_ring(p: int, ring: RingSpec) -> RingSpec:
    """The ring G1(p, m) and E(p, m) are built over at an odd prime p, once
    whatever its spelling: Z, Q(zeta_p) for a ring containing zeta_p (their
    monomial models take nothing else from it), else the ring itself."""
    if is_rational_integers(ring):
        return RationalIntegers()
    if is_prime(p) and not isinstance(ring, AbstractRing) and contains_zeta_p(ring, p):
        return Cyclotomic(p)
    return ring


def sl_pad(w: WitnessEmbedding) -> WitnessEmbedding:
    """Append the determinant as an extra diagonal entry: g -> diag(g, det g).

    Requires every generator determinant in {1, -1}; the result lands in SL
    of one dimension higher, with the closure order unchanged (the first
    block already separates elements).
    """
    dets = [det(g) for g in w.generators]
    for d in dets:
        if d != 1 and d != -1:
            raise WitnessError("generator determinant outside {1, -1}")
    new_gens = tuple(
        block_diag(g, CycMatrix([[d]])) for g, d in zip(w.generators, dets)
    )
    return replace(w, generators=new_gens, claims_sl=True, padded=True)


# ---------------------------------------------------------------------------
# extraspecial witnesses


def _tensor_extraspecial(p: int, m: int, x: CycMatrix, z: CycMatrix) -> WitnessEmbedding:
    """The extraspecial group of order p^(2m+1) on the m-fold tensor power
    of p-dimensional blocks x and z of order p that commute up to a scalar.

    Slot i carries X_i and Z_i (the block there, the identity in every
    other slot); everything commutes except Z_i with X_i, whose commutator
    is one central element for every slot: the pairs (Z_i, X_i).
    """
    if m < 1:
        raise WitnessError(f"m = {m} must be at least 1")
    eye = CycMatrix.identity(p, math.lcm(x.conductor, z.conductor))

    def at_slot(block: CycMatrix, slot: int) -> CycMatrix:
        out = block if slot == 0 else eye
        for i in range(1, m):
            out = kron(out, block if slot == i else eye)
        return out

    xs = [at_slot(x, i) for i in range(m)]
    zs = [at_slot(z, i) for i in range(m)]
    gens = tuple(xs + zs)
    relators: list[Word] = []
    for i in range(2 * m):
        relators.append(((i, p),))
    for i in range(m):
        for j in range(i + 1, m):
            relators.append(_commutator_word(i, j))  # X_i with X_j
            relators.append(_commutator_word(m + i, m + j))  # Z_i with Z_j
    for i in range(m):
        for j in range(m):
            if i != j:
                relators.append(_commutator_word(i, m + j))  # X_i with Z_j
    central = tuple((m + i, i) for i in range(m))
    return WitnessEmbedding(
        kind=WitnessKind("E", p, m),
        generators=gens,
        expected_order=p ** (2 * m + 1),
        claims_sl=True,
        relators=tuple(relators),
        central_commutations=central,
        expected_center=p,
    )


def build_extraspecial_monomial(p: int, m: int) -> WitnessEmbedding:
    """The extraspecial group of order p^(2m+1) and exponent p (p odd) in
    its p^m-dimensional monomial representation over Z[zeta_p].

    Slot i carries X_i (p-cycle) and Z_i (diagonal of zeta_p powers);
    Z_i X_i = zeta_p X_i Z_i within a slot and everything else commutes.
    """
    if not is_prime(p) or p == 2:
        raise WitnessError("need an odd prime p")
    # m first, so no huge power is taken: p^m > 2^m > cap from the cap's bit length on
    if m >= MAX_MATRIX_SIZE.bit_length() or p**m > MAX_MATRIX_SIZE:
        raise WitnessError(f"m = {m}: {p}^m exceeds the matrix-size cap {MAX_MATRIX_SIZE}")
    diag = CycMatrix.diagonal([zeta(p, i) for i in range(p)])
    return _tensor_extraspecial(p, m, _shift_matrix(p, 1), diag)


def blow_up_matrix(mat: CycMatrix, p: int) -> CycMatrix:
    """Restriction of scalars for one matrix over Z[zeta_p]: each entry x
    becomes the integer block of multiplication by x on the power basis of
    Z[zeta_p].  The entry map is a ring homomorphism, so this commutes with
    matrix products."""
    if not is_prime(p):
        raise WitnessError(f"conductor {p} is not prime")
    mat = mat.embed(p)
    blocks = {}  # witness entries are mostly 0 and roots of unity
    rows = []
    for row in mat.rows:
        for x in row:
            if x.key() not in blocks:
                images = [x * zeta(p, k) for k in range(p - 1)]
                blocks[x.key()] = _coordinate_matrix(images).rows
        rows += [sum((blocks[x.key()][i] for x in row), ()) for i in range(p - 1)]
    return CycMatrix(rows)


def blow_up(w: WitnessEmbedding) -> WitnessEmbedding:
    """Restriction of scalars of a whole embedding from Z[zeta_p] to Z,
    giving the induced integral form of dimension (p-1) * n."""
    p = math.lcm(*(g.conductor for g in w.generators))
    if p == 1:
        raise WitnessError("entries are already rational integers")
    if (p - 1) * w.dimension > MAX_MATRIX_SIZE:
        raise WitnessError("blown-up dimension exceeds the matrix-size cap")
    new_gens = tuple(blow_up_matrix(g, p) for g in w.generators)
    return replace(w, generators=new_gens, claims_sl=True)


def build_e2m_integer(m: int) -> WitnessEmbedding:
    """The extraspecial 2-group of order 2^(2m+1) (central product of m
    dihedral groups of order 8) over Z.

    m = 1 is the dihedral group of order 8 itself in GL_2(Z) (one generator
    has determinant -1; ``sl_pad`` gives the SL_3 form).  For m >= 2 the
    generators are tensor products of the swap S and sign D blocks.  Like
    every other builder this only constructs, and ``build`` memoizes it: the
    defining facts (closure order, presentation, center {+-I}, generator
    determinants 1) are checked by ``verify_embedding``, which the harness
    and the CLI run on every witness.
    """
    if m >= MAX_MATRIX_SIZE.bit_length():  # the same test as 2**m > MAX_MATRIX_SIZE
        raise WitnessError(f"m = {m}: 2^m exceeds the matrix-size cap {MAX_MATRIX_SIZE}")
    if m == 1:
        j = CycMatrix([[0, -1], [1, 0]])
        d = CycMatrix([[1, 0], [0, -1]])
        return WitnessEmbedding(
            kind=WitnessKind("D8", 2, 1),
            generators=(j, d),
            expected_order=8,
            claims_sl=False,
            relators=(((0, 4),), ((1, 2),), ((1, 1), (0, 1), (1, -1), (0, 1))),
            expected_center=2,
        )
    swap = CycMatrix([[0, 1], [1, 0]])
    sign = CycMatrix([[1, 0], [0, -1]])
    return _tensor_extraspecial(2, m, swap, sign)


def build_q8() -> WitnessEmbedding:
    """The quaternion group of order 8 in SL_2(Z[i]): the left action of the
    quaternion units on Z[i] + Z[i]j."""
    i4 = zeta(4)
    a = CycMatrix([[i4, 0], [0, -i4]])
    b = CycMatrix([[0, -1], [1, 0]])
    return WitnessEmbedding(
        kind=WitnessKind("Q8", 2, 1),
        generators=(a, b),
        expected_order=8,
        claims_sl=True,
        relators=(
            ((0, 4),),
            ((1, 4),),  # b**2 = a**2, so b**4 = a**4 = 1
            ((0, 2), (1, -2)),
            ((1, 1), (0, 1), (1, -1), (0, 1)),
        ),
        expected_center=2,
    )


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerifiedWitness:
    embedding: WitnessEmbedding
    order: int
    order_ok: bool
    relations_ok: bool
    central_ok: bool
    sl_ok: bool
    center_ok: bool
    group: MatrixGroup

    @property
    def elements(self) -> tuple:
        """Read by ``witness --json`` and the traced benchmark run."""
        return self.group.elements()

    @property
    def ok(self) -> bool:
        return (
            self.order_ok
            and self.relations_ok
            and self.central_ok
            and self.sl_ok
            and self.center_ok
        )

    def summary(self) -> dict:
        return {
            "witness": str(self.embedding.kind),
            "dimension": self.embedding.dimension,
            "order": self.order,
            "expected_order": self.embedding.expected_order,
            "order_ok": self.order_ok,
            "relations_ok": self.relations_ok,
            "central_ok": self.central_ok,
            "sl_ok": self.sl_ok,
            "center_ok": self.center_ok,
            "verified": self.ok,
        }


def verify_embedding(w: WitnessEmbedding) -> VerifiedWitness:
    """Machine-check an embedding: enumerate the group, confirm its order,
    its presentation, the determinant claim, and the center size.

    Order equality plus the presentation checks pin the group: the matrices
    satisfy all relations of the abstract group, so they generate a
    quotient of it, and matching orders force an isomorphism (faithfulness).
    Central commutation pairs (i, j) ask that the commutators
    g_i g_j (g_j g_i)^-1 are one element c commuting with every generator.
    For E(p, m), G/<c> is then abelian on 2m generators of order p, and
    z x^p z^-1 = c^p x^p gives c^p = 1: the presented group has order at
    most p^(2m+1) whatever scalar c is.  All of this, and the center, is
    read on the group's faithful permutations of the basis-vector orbit.
    The claimed order bounds the enumeration: a group with more elements
    raises CapExceededError at the first element past the claim.
    """
    group = closure(w.generators, w.expected_order)
    order_ok = len(group) == w.expected_order
    relations_ok = relations_check(group, w.relators)
    # column j of an element x is Omega[x[j]] and the action on Omega is
    # faithful, so g x = x g exactly when their columns agree: g[x[j]] ==
    # x[g[j]] for every j < n, the basis vectors at the head of Omega
    n, gens = group.size, group.gens

    def central(x) -> bool:
        return all(g[x[j]] == x[g[j]] for g in gens for j in range(n))

    commutators = {gens[i] * gens[j] * (gens[j] * gens[i]).inverse() for i, j in w.central_commutations}
    central_ok = len(commutators) <= 1 and all(map(central, commutators))
    # det is multiplicative, so the generators' determinants settle the SL
    # claim for every element of the group they generate
    sl_ok = (not w.claims_sl) or all(det(g) == 1 for g in w.generators)
    center_ok = sum(map(central, group.elements())) == w.expected_center
    return VerifiedWitness(
        embedding=w,
        order=len(group),
        order_ok=order_ok,
        relations_ok=relations_ok,
        central_ok=central_ok,
        sl_ok=sl_ok,
        center_ok=center_ok,
        group=group,
    )


def _extraspecial_over_Z(p: int, m: int) -> WitnessEmbedding:
    """Named so that the traced benchmark run can patch it."""
    return blow_up(build_extraspecial_monomial(p, m))


@functools.lru_cache(maxsize=None)
def build(kind: WitnessKind, ring: RingSpec, padded: bool = False) -> WitnessEmbedding:
    """The one constructor behind the menu and ``yagita witness``, and the
    one cache of built witnesses: each (kind, ring, padded) is built once
    per process.  ``padded`` gives the determinant pad ``sl_pad`` of the
    unpadded embedding.  Q8, D8 and E(2, m) are integral models over any
    ring; E(p, m) for odd p is the restriction-of-scalars form over Z and
    the monomial model over rings containing zeta_p."""
    if padded:
        return sl_pad(build(kind, ring))
    if kind.family == "Q8":
        return build_q8()
    if kind.family == "D8":
        return build_e2m_integer(1)
    if kind.family == "G1":
        return build_g1(kind.p, kind.m, ring)
    if kind.family == "G2":
        return build_g2(kind.p, kind.m, ring)
    if kind.family == "E":
        if kind.p == 2:
            return build_e2m_integer(kind.m)
        if is_rational_integers(ring):
            return _extraspecial_over_Z(kind.p, kind.m)
        if contains_zeta_p(ring, kind.p):
            return build_extraspecial_monomial(kind.p, kind.m)
        raise WitnessError(
            f"extraspecial model needs zeta_{kind.p} in the ring, or Z for "
            "the restriction-of-scalars form"
        )
    raise WitnessError(f"unknown kind {kind}")


# ---------------------------------------------------------------------------
# the menu: which witnesses fit inside GL_n / SL_n over a given ring


# keyed by (p, ring, min(n, MAX_MATRIX_SIZE)), the ring as the caller
# spelled it: the menu, its unpadded entries (for GL_n) and its entries that
# claim SL (for SL_n), as tuples; the entries are build's embeddings, so a
# caller that empties build's cache empties this too
_menus: dict[tuple, tuple] = {}


def witness_menu(
    p: int, n: int, ring: RingSpec, sl: bool | None = None
) -> list[WitnessEmbedding] | tuple[WitnessEmbedding, ...]:
    """All constructible witnesses fitting in dimension n over the ring, as
    a new list; with ``sl=False`` only the unpadded ones, for GL_n, and
    with ``sl=True`` only the ones with ``claims_sl``, for SL_n, as a tuple
    that every such call shares.

    An unpadded witness of dimension d <= n sits inside GL_n by padding
    with the identity; the ones with ``claims_sl`` sit inside SL_n, which
    requires determinant 1 (directly, via a root-of-unity twist, or via
    the determinant pad into dimension d + 1, which is offered for SL
    only).  The menu may be empty: over rings with 1 < l < p - 1 no
    integral model is available here.  The menus are built once per key of
    ``_menus``.
    """
    key = (p, ring, min(n, MAX_MATRIX_SIZE))
    menus = _menus.get(key)
    if menus is None:
        menu = tuple(_build_menu(p, key[2], ring))
        menus = _menus[key] = (
            menu,
            tuple(w for w in menu if not w.padded),
            tuple(w for w in menu if w.claims_sl),
        )
    if sl is None:
        return list(menus[0])
    return menus[2] if sl else menus[1]


def _build_menu(p: int, size: int, ring: RingSpec) -> list[WitnessEmbedding]:
    """The menu in dimension size <= MAX_MATRIX_SIZE, every entry built."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    entries: list[WitnessEmbedding] = []

    def add(kind: WitnessKind, model_ring: RingSpec = ring) -> None:
        w = build(kind, model_ring)
        entries.append(w)
        if not w.claims_sl and w.dimension + 1 <= size:
            entries.append(build(kind, model_ring, True))

    if isinstance(ring, AbstractRing):
        return entries
    if p == 2:
        # these models do not depend on the ring: build each over the ring
        # it lives in, so it is built once per process, not once per ring
        m = 1
        while 2**m <= size:
            add(WitnessKind("E", 2, m), RationalIntegers())
            m += 1
        if size >= 2 and has_nth_root_of_minus_one(ring, 2):
            add(WitnessKind("Q8"), Cyclotomic(4))
    else:
        try:
            l = compute_l(ring, p)
        except UnsupportedFieldError:
            return entries
        if not (is_rational_integers(ring) or l == 1):
            return entries
        # G2 keeps the caller's ring, which decides whether its twist exists
        model = _model_ring(p, ring)
        for m in divisors(p - 1):
            dim = math.lcm(m, l)
            if m < 2 or dim > size:
                continue
            add(WitnessKind("G1", p, m), model)
            if m % 2 == 0 and has_nth_root_of_minus_one(ring, dim):
                add(WitnessKind("G2", p, m))
        scale = (p - 1) if is_rational_integers(ring) else 1
        q = 1
        while p**q <= MAX_MATRIX_SIZE and scale * p**q <= size:
            add(WitnessKind("E", p, q), model)
            q += 1
    # no kind's name is a proper prefix of another's, so the label orders
    # as (kind name, padded) would
    entries.sort(key=lambda w: (w.label, w.dimension))
    return entries

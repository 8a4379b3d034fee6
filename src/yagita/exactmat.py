"""Exact matrices over cyclotomic numbers and finite matrix-group closure.

Matrices are square and immutable.  Each row is stored as its nonzero
entries only, with their columns, all over one shared conductor; that form
is canonical, so equality and hashing of elements inside a group
enumeration are purely structural, and every kernel touches stored entries
only.  A product adds the terms of each entry on unreduced integer
coordinates over one denominator, so each entry is reduced modulo the
cyclotomic polynomial and put in lowest terms once, not once per term.
The determinant is Gaussian elimination on the stored rows, which inverts
a pivot only when there is something below it to eliminate.
Group closure is a breadth-first enumeration under left multiplication by
the generators, deduplicated by a canonical serialized key; it either
returns the full element list or raises ``CapExceededError`` for groups
that are too large (or not finite at all).
"""

from __future__ import annotations

import math
from collections import defaultdict

from .cyclo import CycNum, _sum_of_products, json_int
from .numutil import power

DEFAULT_CAP = 10**6
MAX_MATRIX_SIZE = 64


class CapExceededError(RuntimeError):
    def __init__(self, cap: int, what: str = "enumeration"):
        self.cap = cap
        super().__init__(f"{what} exceeded cap {cap}")


def _coerce_entry(x) -> CycNum:
    c = CycNum._coerce(x)
    if c is None:
        raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")
    return c


def _row(pairs) -> tuple:
    """A stored row: the (column, entry) pairs, in increasing column order,
    whose entry is not zero."""
    return tuple((j, x) for j, x in pairs if not x.is_zero)


class CycMatrix:
    """A square matrix whose row i is stored as ``nonzero[i]``, the tuple of
    (column, entry) pairs of its nonzero entries in increasing column order,
    every entry over the one matrix conductor."""

    __slots__ = ("size", "conductor", "nonzero")

    def __init__(self, rows, conductor: int | None = None):
        entries = [[_coerce_entry(x) for x in row] for row in rows]
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise ValueError("matrix must be square and nonempty")
        cond = conductor or 1
        for row in entries:
            for x in row:
                cond = math.lcm(cond, x.conductor)
        nonzero = tuple(_row((j, x.embed(cond)) for j, x in enumerate(row)) for row in entries)
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "conductor", cond)
        object.__setattr__(self, "nonzero", nonzero)

    def __setattr__(self, *_):
        raise AttributeError("CycMatrix is immutable")

    @classmethod
    def _of(cls, nonzero: tuple, conductor: int) -> CycMatrix:
        """The matrix with these stored rows (nonzero entries already over
        this conductor, in column order), without coercing them again."""
        m = object.__new__(cls)
        object.__setattr__(m, "size", len(nonzero))
        object.__setattr__(m, "conductor", conductor)
        object.__setattr__(m, "nonzero", nonzero)
        return m

    @classmethod
    def identity(cls, n: int, conductor: int = 1) -> CycMatrix:
        one = CycNum(conductor, (1,))
        return cls._of(tuple(((i, one),) for i in range(n)), conductor)

    @classmethod
    def diagonal(cls, diag) -> CycMatrix:
        diag = [_coerce_entry(x) for x in diag]
        zero = CycNum.rational(0)
        n = len(diag)
        return cls([[diag[i] if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> tuple:
        """The dense rows, zeros (over the matrix conductor) included."""
        zero = CycNum(self.conductor, ())
        return tuple(
            tuple(dict(row).get(j, zero) for j in range(self.size)) for row in self.nonzero
        )

    def __getitem__(self, ij) -> CycNum:
        i, j = ij
        return dict(self.nonzero[i]).get(j, CycNum(self.conductor, ()))

    def embed(self, conductor: int) -> CycMatrix:
        if conductor == self.conductor:
            return self
        return CycMatrix._of(
            tuple(tuple((j, x.embed(conductor)) for j, x in row) for row in self.nonzero),
            conductor,
        )

    def _unify(self, other: CycMatrix) -> tuple[CycMatrix, CycMatrix]:
        if self.conductor == other.conductor:
            return self, other
        n = math.lcm(self.conductor, other.conductor)
        return self.embed(n), other.embed(n)

    def __mul__(self, other):
        if isinstance(other, CycMatrix):
            if self.size != other.size:
                raise ValueError("size mismatch")
            a, b = self._unify(other)
            # entry (i, j) sums x * y over the stored x = a[i, k] and
            # y = b[k, j]; each entry's terms are summed on integer
            # coordinates and reduced once
            cond, brows = a.conductor, b.nonzero
            out = []
            for arow in a.nonzero:
                terms = defaultdict(list)
                for k, x in arow:
                    for j, y in brows[k]:
                        terms[j].append((x, y))
                out.append(_row((j, _sum_of_products(cond, terms[j])) for j in sorted(terms)))
            return CycMatrix._of(tuple(out), cond)
        s = CycNum._coerce(other)
        if s is None:
            return NotImplemented
        m = self.embed(math.lcm(self.conductor, s.conductor))
        out = tuple(_row((j, s * x) for j, x in row) for row in m.nonzero)
        return CycMatrix._of(out, m.conductor)

    # a scalar commutes with a matrix; a matrix on the left takes __mul__
    __rmul__ = __mul__

    def __pow__(self, e: int) -> CycMatrix:
        if e < 0:
            e %= element_order(self)
        return power(self, e) if e else CycMatrix.identity(self.size, self.conductor)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.size != other.size:
            return False
        a, b = self._unify(other)
        return a.nonzero == b.nonzero

    __hash__ = None

    def key(self) -> tuple:
        """Canonical hashable form: the stored rows, whose entries are
        reduced and share the matrix conductor."""
        return (
            self.size,
            self.conductor,
            tuple(tuple((j, x.num, x.den) for j, x in row) for row in self.nonzero),
        )

    def trace(self) -> CycNum:
        diag = (x for i, row in enumerate(self.nonzero) for j, x in row if j == i)
        return sum(diag, CycNum(self.conductor, ()))

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "conductor": self.conductor,
            "entries": [[x.to_json() for x in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> CycMatrix:
        return cls(
            [[CycNum.from_json(x) for x in row] for row in obj["entries"]],
            json_int(obj["conductor"]),
        )

    def __repr__(self) -> str:
        return f"CycMatrix({self.size}x{self.size}, conductor={self.conductor})"

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(x) for x in row) for row in self.rows) + "]"


def kron(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    """Tensor (Kronecker) product, index order (i1*nb + i2, j1*nb + j2)."""
    a, b = a._unify(b)
    nb = b.size
    return CycMatrix._of(
        tuple(
            tuple((j1 * nb + j2, x * y) for j1, x in arow for j2, y in brow)
            for arow in a.nonzero
            for brow in b.nonzero
        ),
        a.conductor,
    )


def block_diag(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    a, b = a._unify(b)
    shift = a.size
    return CycMatrix._of(
        a.nonzero + tuple(tuple((shift + j, y) for j, y in row) for row in b.nonzero),
        a.conductor,
    )


def det(a: CycMatrix) -> CycNum:
    """Exact determinant by Gaussian elimination on the stored rows: the
    product of the pivots, negated once per row swap.  Step k takes as
    pivot row the first row from k on whose leading entry is in column k
    (rows below k have no entry left of column k) and subtracts multiples
    of it from the other such rows.  The pivot is inverted only when some
    such row exists, so a diagonal, upper triangular or monomial matrix
    needs no inverse."""
    n, cond = a.size, a.conductor
    rows = list(a.nonzero)
    d = CycNum(cond, (1,))
    for k in range(n):
        lead = [i for i in range(k, n) if rows[i] and rows[i][0][0] == k]
        if not lead:
            return CycNum(cond, ())
        if lead[0] != k:
            rows[k], rows[lead[0]] = rows[lead[0]], rows[k]
            d = -d
        (_, pivot), *rest = rows[k]
        if len(lead) > 1:
            inv = pivot.inverse()
            for i in lead[1:]:
                f = rows[i][0][1] * inv
                row = dict(rows[i][1:])
                for j, y in rest:
                    row[j] = row[j] - f * y if j in row else -(f * y)
                rows[i] = _row(sorted(row.items()))
        d = d * pivot
    return d


def element_order(a: CycMatrix, cap: int = DEFAULT_CAP) -> int:
    """Least k >= 1 with a**k = identity; raises CapExceededError past cap."""
    ident = CycMatrix.identity(a.size, a.conductor)
    x = a
    for k in range(1, cap + 1):
        if x == ident:
            return k
        x = x * a
    raise CapExceededError(cap, "element order search")


def closure(generators, cap: int = DEFAULT_CAP) -> list[CycMatrix]:
    """All elements of the group generated by the given matrices.

    Breadth-first closure under left multiplication by the generators,
    starting from the identity; raises CapExceededError when the element
    count passes cap.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].size
    if any(g.size != n for g in gens):
        raise ValueError("generators must share one size")
    cond = 1
    for g in gens:
        cond = math.lcm(cond, g.conductor)
    gens = [g.embed(cond) for g in gens]
    ident = CycMatrix.identity(n, cond)
    seen: dict[tuple, CycMatrix] = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = g * x
                k = y.key()
                if k not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(cap, "group closure")
                    seen[k] = y
                    new.append(y)
        frontier = new
    return list(seen.values())


class MatrixGroup:
    """A finitely generated matrix group with lazily enumerated elements."""

    def __init__(self, generators):
        gens = list(generators)
        if not gens:
            raise ValueError("need at least one generator")
        cond = 1
        for g in gens:
            cond = math.lcm(cond, g.conductor)
        self.generators = tuple(g.embed(cond) for g in gens)
        self._elements: tuple[CycMatrix, ...] | None = None

    @classmethod
    def from_elements(cls, generators, elements) -> MatrixGroup:
        """The group with its elements already enumerated (as ``closure``
        returns them for these generators), so they are not enumerated
        again."""
        group = cls(generators)
        group._elements = tuple(elements)
        return group

    def elements(self) -> tuple[CycMatrix, ...]:
        if self._elements is None:
            self._elements = tuple(closure(self.generators))
        return self._elements

    def order(self) -> int:
        return len(self.elements())


def order_p_cyclic_subgroups(group: MatrixGroup, p: int) -> list[CycMatrix]:
    """One generator per distinct cyclic subgroup of order p: the first of
    its elements in enumeration order.

    Two distinct subgroups of prime order meet only in the identity, so an
    element of a subgroup already found is skipped without an order test.
    """
    elems = group.elements()
    ident = CycMatrix.identity(elems[0].size, elems[0].conductor)
    reps: list[CycMatrix] = []
    covered = {ident.key()}  # and m**2 .. m**(p-1) of each m in reps
    for m in elems:
        if m.key() in covered or m**p != ident:
            continue
        reps.append(m)
        x = m
        for _ in range(p - 2):
            x = x * m
            covered.add(x.key())
    return reps


Word = tuple[tuple[int, int], ...]


def relations_check(gens, relators) -> bool:
    """Whether every relator word evaluates to the identity matrix.

    A relator is a sequence of (generator index, exponent) pairs.  A
    negative exponent on generator i is read modulo k, where ((i, k),) is
    the one-term relator for i in the same list; that relator is checked
    too, so no order is searched for.  An inverted generator without such a
    relator raises ValueError.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    orders = {w[0][0]: w[0][1] for w in relators if len(w) == 1 and w[0][1] > 0}
    ident = CycMatrix.identity(gens[0].size, gens[0].conductor)
    for word in relators:
        out = ident
        for i, e in word:
            if e < 0:
                if i not in orders:
                    raise ValueError(f"generator {i} is inverted but has no order relator")
                e %= orders[i]
            out = out * gens[i] ** e
        if out != ident:
            return False
    return True

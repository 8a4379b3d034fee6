"""Exact matrices over cyclotomic numbers and finite matrix-group closure.

Matrices are square, immutable, and keep all entries over one shared
conductor so that equality and hashing of elements inside a group
enumeration are purely structural.  A product skips the terms with a zero
factor and adds the other terms of each entry on unreduced integer
coordinates over one denominator, so each entry is reduced modulo the
cyclotomic polynomial and put in lowest terms once, not once per term.
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


class CycMatrix:
    __slots__ = ("size", "conductor", "rows")

    def __init__(self, rows, conductor: int | None = None):
        entries = [[_coerce_entry(x) for x in row] for row in rows]
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise ValueError("matrix must be square and nonempty")
        cond = conductor or 1
        for row in entries:
            for x in row:
                cond = math.lcm(cond, x.conductor)
        entries = [tuple(x.embed(cond) for x in row) for row in entries]
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "conductor", cond)
        object.__setattr__(self, "rows", tuple(entries))

    def __setattr__(self, *_):
        raise AttributeError("CycMatrix is immutable")

    @classmethod
    def _of(cls, rows: tuple, conductor: int) -> CycMatrix:
        """The matrix with these rows (tuples of entries already over this
        conductor, as a product's are), without coercing them again."""
        m = object.__new__(cls)
        object.__setattr__(m, "size", len(rows))
        object.__setattr__(m, "conductor", conductor)
        object.__setattr__(m, "rows", rows)
        return m

    @classmethod
    def identity(cls, n: int, conductor: int = 1) -> CycMatrix:
        one, zero = CycNum.rational(1), CycNum.rational(0)
        return cls(
            [[one if i == j else zero for j in range(n)] for i in range(n)], conductor
        )

    @classmethod
    def diagonal(cls, diag) -> CycMatrix:
        diag = [_coerce_entry(x) for x in diag]
        zero = CycNum.rational(0)
        n = len(diag)
        return cls([[diag[i] if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, ij) -> CycNum:
        i, j = ij
        return self.rows[i][j]

    def embed(self, conductor: int) -> CycMatrix:
        if conductor == self.conductor:
            return self
        return CycMatrix(
            [[x.embed(conductor) for x in row] for row in self.rows], conductor
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
            # entry (i, j) sums x * y over the nonzero x = a[i][k] and only
            # the nonzero y = b[k][j]: the pairs are gathered row by row of
            # a and b, then each entry's pairs are summed on integer
            # coordinates and reduced once.  Every entry is reduced over the
            # one conductor, so an entry is zero exactly when its
            # coordinates are those of zero.
            cond, n = a.conductor, a.size
            zero = CycNum(cond, ())
            z = zero.num
            bnz = [[(j, y) for j, y in enumerate(row) if y.num != z] for row in b.rows]
            out = []
            for arow in a.rows:
                terms = defaultdict(list)
                for k, x in enumerate(arow):
                    if x.num != z:
                        for j, y in bnz[k]:
                            terms[j].append((x, y))
                row = [zero] * n
                for j, t in terms.items():
                    row[j] = _sum_of_products(cond, t)
                out.append(tuple(row))
            return CycMatrix._of(tuple(out), a.conductor)
        s = CycNum._coerce(other)
        if s is None:
            return NotImplemented
        return CycMatrix([[s * x for x in row] for row in self.rows])

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
        return all(x == y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))

    __hash__ = None

    def key(self) -> tuple:
        """Canonical hashable form (entries are already reduced and share
        the matrix conductor)."""
        return (
            self.size,
            self.conductor,
            tuple((x.num, x.den) for row in self.rows for x in row),
        )

    def trace(self) -> CycNum:
        acc = self.rows[0][0]
        for i in range(1, self.size):
            acc = acc + self.rows[i][i]
        return acc

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
    na, nb = a.size, b.size
    out = [[None] * (na * nb) for _ in range(na * nb)]
    for i1 in range(na):
        for j1 in range(na):
            x = a.rows[i1][j1]
            for i2 in range(nb):
                for j2 in range(nb):
                    out[i1 * nb + i2][j1 * nb + j2] = x * b.rows[i2][j2]
    return CycMatrix(out, a.conductor)


def block_diag(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    a, b = a._unify(b)
    zero = CycNum.rational(0)
    n = a.size + b.size
    out = [[zero] * n for _ in range(n)]
    for i in range(a.size):
        for j in range(a.size):
            out[i][j] = a.rows[i][j]
    for i in range(b.size):
        for j in range(b.size):
            out[a.size + i][a.size + j] = b.rows[i][j]
    return CycMatrix(out, a.conductor)


def det(a: CycMatrix) -> CycNum:
    """Exact determinant by fraction-free Bareiss elimination for every
    size: step k replaces each entry below and right of the pivot by
    pivot * x - f * y divided exactly by the previous pivot (times its
    inverse, see ``CycNum.inverse``), with a row swap at a zero pivot.
    Terms with a zero factor are skipped."""
    n = a.size
    m = [list(r) for r in a.rows]
    z = CycNum(a.conductor, ()).num  # the coordinates of zero, as in __mul__
    sign = 1
    prev = CycNum.rational(1)
    for k in range(n - 1):
        if m[k][k].num == z:
            for i in range(k + 1, n):
                if m[i][k].num != z:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return CycNum.rational(0)
        rowk = m[k]
        pivot = rowk[k]
        inv_prev = None if prev.is_one else prev.inverse()
        for i in range(k + 1, n):
            row = m[i]
            f = None if row[k].num == z else row[k]
            for j in range(k + 1, n):
                # v = pivot * row[j] - f * rowk[j], without its zero terms;
                # when both are zero the entry stays zero
                x, y = row[j], rowk[j]
                if f is None or y.num == z:
                    if x.num == z:
                        continue
                    v = pivot * x
                elif x.num == z:
                    v = -(f * y)
                else:
                    v = pivot * x - f * y
                row[j] = v if inv_prev is None else v * inv_prev
        prev = pivot
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


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

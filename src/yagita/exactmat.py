"""Exact matrices over cyclotomic numbers, and finite matrix groups as
permutation groups.

Matrices are square and immutable.  Each row is stored as its nonzero
entries only, with their columns, all over one shared conductor; that form
is canonical, so equality is purely structural, and every kernel touches
stored entries only.  A product packs every stored entry of each operand,
once, into one integer (Kronecker substitution: coordinate i at bit i*w,
over one denominator per matrix, w whole bytes wide enough for every
coordinate of a product entry, rounded up to 8, 16, 32 or 64 bits when
it fits in 64), so each entry (i, j) is a sum of integer products.  The
sums of a row are read back together: each is written as two's
complement w-bit slots, one cast reads all the slots of the row as
machine integers, and the row's entries are reduced modulo the
cyclotomic polynomial together, one map per coordinate column.  A dense
14x14 product over Q(zeta_13) takes about 2 ms, a dense 16x16 integer
product about 1 ms and a dense 16x16 product over Q(zeta_101) about
50 ms on a 2-core machine.
The determinant is Gaussian elimination on the stored rows, which inverts
a pivot only when there is something below it to eliminate.
A finite group of n x n matrices acts faithfully on Omega, the orbit of
the basis vectors, since an element's columns are its images of them.
``closure`` enumerates the group as permutations of Omega, which every
group computation reads (traces too); a matrix is rebuilt only on request.
A permutation of at most 256 points is a ``Perm``, one byte per point,
and a product is one ``bytes.translate``: about 0.5 us at any size up to
256 on a 2-core machine, where composing tuples index by index took
2.3 us at 25 points and 12 us at 256.  Past 256 points it is a
``WidePerm`` tuple, composed by one ``operator.itemgetter`` (7 us at 343
points, against 18 us).
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from itertools import chain, repeat

from .cyclo import CycNum, _check_conductor, _json_entry, _sum_of_products, cyclotomic_poly
from .numutil import euler_phi, power

# closure's cap when the generators claim no order, as in element_order
DEFAULT_CAP = 10**6
MAX_MATRIX_SIZE = 64
# array and memoryview codes of the signed machine integers, by width in
# bytes, that read packed coordinate slots; a packed string is in the
# machine's byte order
_SIGNED = {array(code).itemsize: code for code in "bhiq"}
_ORDER = sys.byteorder


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


def _scale(m: CycMatrix) -> tuple[int, list[int], int]:
    """(d, coords, t): the lcm d of the stored entries' denominators, the
    coordinates of d * x over the stored entries x in storage order, and
    the largest absolute value t among them."""
    xs = [x for row in m.nonzero for _, x in row]
    d = math.lcm(*(x.den for x in xs))
    coords = list(chain.from_iterable(
        x.num if x.den == d else [c * (d // x.den) for c in x.num] for x in xs
    ))
    return d, coords, max(max(coords), -min(coords)) if coords else 0


def _slot_bytes(bound: int) -> int:
    """Bytes per coordinate slot, holding every integer of absolute value
    at most bound (sign included): 1, 2, 4 or 8 when that is enough, so
    that a machine integer reads each slot.  An entry of a product of
    n x n matrices over conductor N sums at most n * phi(N) coordinate
    products, so n * phi(N) * t_a * t_b (or an operand's own t, when the
    other stores nothing) bounds its every coordinate."""
    nbytes = bound.bit_length() // 8 + 1
    return next((s for s in _SIGNED if s >= nbytes), nbytes)


def _bias(nbytes: int, slots: int) -> int:
    """B: 2**(8*nbytes - 1), the sign bit, in each of slots slots."""
    return int.from_bytes((1 << (8 * nbytes - 1)).to_bytes(nbytes, "little") * slots, "little")


def _pack(m: CycMatrix, coords: list[int], nbytes: int) -> tuple:
    """The stored rows of m with each entry as one integer: the sum of
    c_i * 2**(8*i*nbytes) over its coordinates c_i in coords (signed
    digits, so a product of two packed entries is their coordinate
    convolution, packed).  All of coords are written as two's complement
    slots into one string, through one array at a machine width, and each
    entry reads its slots u as one unsigned integer U: (U ^ B) - B takes
    each slot u to u, or to u - 2**(8*nbytes) when its sign bit is set."""
    deg = euler_phi(m.conductor)
    if nbytes in _SIGNED:
        raw = array(_SIGNED[nbytes], coords).tobytes()
    else:
        raw = b"".join([c.to_bytes(nbytes, _ORDER, signed=True) for c in coords])
    size, bias = deg * nbytes, _bias(nbytes, deg)
    out, at = [], 0
    for row in m.nonzero:
        packed = []
        for j, _ in row:
            packed.append((j, (int.from_bytes(raw[at:at + size], _ORDER) ^ bias) - bias))
            at += size
        out.append(tuple(packed))
    return tuple(out)


def _sums(pa: tuple, pb: tuple, n: int):
    """Yield, row by row, the n packed entries of a * b from the packed
    stored rows of a and b: entry (i, j) sums x * y over the stored
    x = a[i, k] and y = b[k, j], one integer product per such pair."""
    for arow in pa:
        acc = [0] * n
        for k, x in arow:
            for j, y in pb[k]:
                acc[j] += x * y
        yield acc


def _unpack(rows, conductor: int, nbytes: int, den: int):
    """Yield the stored row of each list of packed sums over den, numbers
    over conductor with 2 * phi(conductor) - 1 unreduced coordinates each.
    Every digit has absolute value below 2**(8*nbytes-1), so t + B leaves
    each digit of a sum t, plus 2**(8*nbytes-1), in its own slot, and the
    XOR with B then writes each slot as the two's complement of its
    digit: the nonzero sums of a row are written into one string, which
    one cast reads at a machine width.  They are reduced together, put in
    lowest terms (no gcd when den is 1), and dropped if they reduce to 0."""
    slots = 2 * euler_phi(conductor) - 1
    bias, size, code = _bias(nbytes, slots), slots * nbytes, _SIGNED.get(nbytes)
    for acc in rows:
        js = [j for j, t in enumerate(acc) if t]
        if not js:
            yield ()
            continue
        raw = b"".join([((acc[j] + bias) ^ bias).to_bytes(size, _ORDER) for j in js])
        if code:
            coords = memoryview(raw).cast(code).tolist()
        else:
            coords = [int.from_bytes(raw[s:s + nbytes], _ORDER, signed=True) for s in range(0, len(raw), nbytes)]
        row = []
        for j, num in zip(js, _reduce(coords, slots, conductor)):
            if not any(num):
                continue
            g = math.gcd(den, *num) if den != 1 else 1
            if g != 1:
                num = tuple(c // g for c in num)
            row.append((j, CycNum._of(conductor, num, den // g)))
        yield tuple(row)


def _reduce(coords: list[int], slots: int, conductor: int) -> list[tuple]:
    """The reduced coordinates of the numbers over conductor N whose
    unreduced coordinates, slots per number, lie one number after another
    in coords.  They are split into columns, coordinate k of every number
    in column k; each step below is one map across all the numbers: the
    columns from N on are folded down (x^N = 1, and slots < 2N), and then,
    as in ``_poly_rem_monic``, each top column times a nonzero coefficient
    of Phi_N is taken off the column it meets (for a prime N, one top
    column, taken off every other)."""
    if slots == 1:  # phi(N) = 1: one coordinate each, already reduced
        return list(zip(coords))
    cols = [coords[k::slots] for k in range(slots)]
    for k in range(conductor, slots):
        cols[k - conductor] = list(map(operator.add, cols[k - conductor], cols[k]))
    del cols[conductor:]
    phi = cyclotomic_poly(conductor)
    deg = len(phi) - 1
    terms = [(j, c) for j, c in enumerate(phi[:deg]) if c]
    for top in range(len(cols) - 1, deg - 1, -1):
        col = cols[top]
        if any(col):
            off = top - deg
            for j, c in terms:
                scaled = col if c == 1 else map(operator.mul, col, repeat(c))
                cols[off + j] = list(map(operator.sub, cols[off + j], scaled))
    return list(zip(*cols[:deg]))


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
        cond = 1 if conductor is None else _check_conductor(conductor)
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
            cond, deg = a.conductor, euler_phi(a.conductor)
            (da, ca, ta), (db, cb, tb) = _scale(a), _scale(b)
            nbytes = _slot_bytes(max(a.size * deg * ta * tb, ta, tb))
            sums = _sums(_pack(a, ca, nbytes), _pack(b, cb, nbytes), a.size)
            return CycMatrix._of(tuple(_unpack(sums, cond, nbytes, da * db)), cond)
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
        """Every bound (rows, conductors, their lcm, num lengths) holds before an entry is read."""
        rows = obj["entries"]
        if len(rows) > MAX_MATRIX_SIZE:
            raise ValueError(f"matrix size {len(rows)} exceeds the cap {MAX_MATRIX_SIZE}")
        cond = _check_conductor(obj["conductor"])
        for x in chain.from_iterable(rows):
            cond = _check_conductor(math.lcm(cond, _json_entry(x)[0]))
        return cls([[CycNum.from_json(x) for x in row] for row in rows], cond)

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


class Perm(bytes):
    """A permutation of at most 256 indices of Omega, one byte per index;
    ``x * y`` is the permutation of the matrix product, y first, then x:
    each byte of y translated through x, padded to the 256 entries of a
    translation table (y never reads the padding)."""

    __slots__ = ()

    def __mul__(self, other: Perm) -> Perm:
        return Perm(other.translate(self.ljust(256)))

    def inverse(self) -> Perm:
        out = [0] * len(self)
        for i, j in enumerate(self):
            out[j] = i
        return type(self)(out)


class WidePerm(tuple):
    """A permutation of more than 256 indices of Omega, which a byte each no
    longer holds: a tuple, with ``Perm``'s product, the entries of x picked
    at y (an itemgetter of 257 or more indices returns a tuple)."""

    __slots__ = ()

    def __mul__(self, other: WidePerm) -> WidePerm:
        return WidePerm(operator.itemgetter(*other)(self))

    inverse = Perm.inverse


def perm(images) -> Perm | WidePerm:
    """The permutation with this sequence of images of 0, 1, ...: a
    ``Perm`` up to 256 points, a ``WidePerm`` past that."""
    return (Perm if len(images) <= 256 else WidePerm)(images)


def _image(g: CycMatrix, v: tuple) -> tuple:
    """g v, for v stored like a matrix row: its nonzero (index, entry) pairs."""
    coords = dict(v)
    terms = ([(x, coords[k]) for k, x in row if k in coords] for row in g.nonzero)
    return _row((i, _sum_of_products(g.conductor, t)) for i, t in enumerate(terms) if t)


def _orbit(points: list, gens: list, cap: int) -> list:
    """Extend the vectors points in place, breadth-first, to their orbit
    under the matrices gens and return each generator's permutation of it;
    raises CapExceededError past cap points."""

    def key(v: tuple) -> tuple:
        return tuple((i, x.num, x.den) for i, x in v)

    index = {key(x): i for i, x in enumerate(points)}
    images: list[list[int]] = [[] for _ in gens]
    for x in points:  # grows while it is walked
        for g, img in zip(gens, images):
            y = _image(g, x)
            k = key(y)
            if k not in index:
                if len(points) >= cap:
                    raise CapExceededError(cap, "basis-vector orbit")
                index[k] = len(points)
                points.append(y)
            img.append(index[k])
    return [perm(img) for img in images]


class MatrixGroup:
    """A finite matrix group as permutations of Omega (basis vectors first):
    ``gens`` are the generators' and ``elements()`` all, identity first."""

    def __init__(self, size: int, conductor: int, omega: list, gens: list, elements: list):
        self.size, self.conductor, self.omega, self.gens = size, conductor, omega, gens
        self._elements = tuple(elements)

    def elements(self) -> tuple:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def matrix(self, x: Perm) -> CycMatrix:
        """The element with permutation x: its column j is Omega[x[j]]."""
        rows: list[list] = [[] for _ in range(self.size)]
        for j in range(self.size):
            for i, y in self.omega[x[j]]:
                rows[i].append((j, y))
        return CycMatrix._of(tuple(map(tuple, rows)), self.conductor)

    def trace(self, x: Perm) -> CycNum:
        """The trace of the element x: the sum over j of coordinate j of Omega[x[j]]."""
        diag = (y for j in range(self.size) for i, y in self.omega[x[j]] if i == j)
        return sum(diag, CycNum(self.conductor, ()))


def closure(generators, cap: int = DEFAULT_CAP) -> MatrixGroup:
    """The group generated by the matrices: Omega takes one matrix-vector
    product per generator and vector, and the elements are enumerated on
    permutations of Omega by left multiplication from the identity.  Raises
    CapExceededError when the elements pass cap, or Omega passes n * cap
    vectors (no orbit of a group is larger than the group)."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].size
    if any(g.size != n for g in gens):
        raise ValueError("generators must share one size")
    cond = math.lcm(*(g.conductor for g in gens))
    one = CycNum(cond, (1,))
    omega = [((j, one),) for j in range(n)]
    perms = _orbit(omega, [g.embed(cond) for g in gens], n * cap)
    ident = perm(range(len(omega)))
    elements, seen = [ident], {ident}
    for x in elements:  # grows while it is walked
        for g in perms:
            y = g * x
            if y not in seen:
                if len(elements) >= cap:
                    raise CapExceededError(cap, "group closure")
                seen.add(y)
                elements.append(y)
    return MatrixGroup(n, cond, omega, perms, elements)


def element_order(a: CycMatrix, cap: int = DEFAULT_CAP) -> int:
    """The order of the group a generates; raises CapExceededError past cap.
    Negative ``CycMatrix`` powers call it, and the traced benchmark run
    patches it by name."""
    return len(closure([a], cap))


def order_p_cyclic_subgroups(group: MatrixGroup, p: int) -> list[Perm]:
    """One generator per distinct cyclic subgroup of order p: the first of
    its elements in enumeration order.

    Two distinct subgroups of prime order meet only in the identity, so an
    element of a subgroup already found is skipped without an order test.
    """
    elems = group.elements()
    ident = elems[0]
    reps: list[Perm] = []
    covered = {ident}  # and x**2 .. x**(p-1) of each x in reps
    for x in elems:
        if x in covered or power(x, p) != ident:
            continue
        reps.append(x)
        y = x
        for _ in range(p - 2):
            y = y * x
            covered.add(y)
    return reps


Word = tuple[tuple[int, int], ...]


def relations_check(group: MatrixGroup, relators) -> bool:
    """Whether every relator word, a sequence of (generator index, exponent)
    pairs, is the identity on the generators' permutations, where a negative
    exponent inverts exactly."""
    ident = group.elements()[0]
    for word in relators:
        out = ident
        for i, e in word:
            if e:
                g = group.gens[i]
                out = out * power(g if e > 0 else g.inverse(), abs(e))
        if out != ident:
            return False
    return True

"""Exact dense linear algebra: echelon forms, kernels, subspace lattice ops.

Matrices are immutable (tuples of row tuples) and act on column vectors,
so ``m.apply(v)`` is the usual matrix-vector product.  Subspaces are kept
in canonical reduced row-echelon form; two subspaces are equal exactly
when their canonical bases are identical.  `RowBasis.insert` is the one
elimination: every RREF, rank, kernel, solution, inverse and subspace
here is built by it, and `charpoly` is division-free and eliminates
nothing.
"""

from __future__ import annotations

from bisect import bisect

from .errors import AmbientMismatch, DimensionMismatch, DivisionByZero, NotSquare
from .fields import Poly


class Matrix:
    """A matrix over `field`, stored as a tuple of row tuples.  The column
    count is read off the first row; a matrix with no rows takes it from
    `ncols`, so a 0 x k matrix keeps its shape."""

    __slots__ = ("field", "rows", "ncols")

    def __init__(self, field, rows, ncols=0):
        self.field = field
        self.rows = rows = tuple(map(tuple, rows))
        self.ncols = len(rows[0]) if rows else ncols

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def diagonal(cls, field, entries):
        entries = list(entries)
        n = len(entries)
        z = field.zero
        return cls(field, [[entries[i] if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_ints(cls, field, rows):
        return cls(field, [[field.from_int(x) for x in r] for r in rows])

    @property
    def nrows(self):
        return len(self.rows)

    def is_square(self):
        return self.nrows == self.ncols

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(x) for x in row) for row in self.rows
        )
        return "Matrix[%s]" % body

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch("%dx%d times %dx%d" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        dot = self.field.dot
        cols = other._columns()
        return Matrix(self.field, [[dot(row, col) for col in cols] for row in self.rows],
                      other.ncols)

    def __add__(self, other):
        return self._entrywise(self.field.add, other)

    def __sub__(self, other):
        return self._entrywise(self.field.sub, other)

    def _entrywise(self, op, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("%dx%d and %dx%d matrices" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        return Matrix(self.field, [[op(a, b) for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def scale(self, c):
        f = self.field
        return Matrix(f, [f.scale(c, r) for r in self.rows], self.ncols)

    def _columns(self):
        """The columns as tuples; a matrix with no rows has ncols empty ones."""
        return list(zip(*self.rows)) if self.rows else [()] * self.ncols

    def transpose(self):
        return Matrix(self.field, self._columns(), self.nrows)

    def apply(self, v):
        """Matrix times column vector."""
        dot = self.field.dot
        return tuple([dot(row, v) for row in self.rows])

    def rank(self):
        return rank_of_rows(self.field, self.rows, self.ncols)

    def is_invertible(self):
        return self.is_square() and self.rank() == self.nrows

    def inverse(self):
        f = self.field
        n = self.nrows
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        ident = Matrix.identity(f, n).rows
        red, _, pivots = rref(Matrix(f, [a + e for a, e in zip(self.rows, ident)]))
        # [A | I] always has rank n; A is invertible exactly when its own
        # columns hold every pivot
        if pivots != tuple(range(n)):
            raise DivisionByZero("matrix is singular")
        return Matrix(f, [row[n:] for row in red.rows])


def rref(m: Matrix):
    """Reduced row-echelon form; returns (rref matrix, rank, pivot columns)."""
    basis = RowBasis.spanning(m.field, m.ncols, m.rows)
    zero_rows = [[m.field.zero] * m.ncols] * (m.nrows - basis.dim)
    return Matrix(m.field, basis.rows + zero_rows, m.ncols), basis.dim, tuple(basis.pivots)


def rank_of_rows(field, rows, ncols):
    """Rank of a collection of row vectors, without building a Matrix."""
    return RowBasis.spanning(field, ncols, rows).dim


def charpoly(m: Matrix) -> Poly:
    """Monic characteristic polynomial det(xI - m), by the Berkowitz
    division-free recursion (valid in every characteristic)."""
    if not m.is_square():
        raise NotSquare("charpoly of a non-square matrix")
    f = m.field
    n = m.nrows
    if n == 0:
        return Poly(f, [f.one])
    rows = m.rows
    # coefficient vector of charpoly of leading principal r x r block,
    # highest degree first
    c = [f.one, f.neg(rows[0][0])]
    for r in range(1, n):
        R = rows[r][:r]
        C = [rows[i][r] for i in range(r)]
        d = rows[r][r]
        ts = [f.one, f.neg(d)]
        v = C
        for _ in range(r):
            ts.append(f.neg(f.dot(R, v)))
            # v <- M v with M the leading r x r block
            v = [f.dot(rows[i][:r], v) for i in range(r)]
        # c <- the product of c and ts; len(ts) == r + 2 > len(c)
        c = [f.dot(c, ts[i::-1]) for i in range(r + 2)]
    return Poly(f, list(reversed(c)))


def solve_rows(field, rows, rhs, ncols):
    """One solution x in k^ncols of <rows[i], x> = rhs[i] for every i (free
    variables zero), or None; as in `kernel_of_rows`, no rows give the zero
    vector of length ncols."""
    basis = RowBasis.spanning(
        field, ncols + 1, [tuple(row) + (b,) for row, b in zip(rows, rhs)]
    )
    if basis.pivots and basis.pivots[-1] == ncols:
        return None
    x = [field.zero] * ncols
    for row, pc in zip(basis.rows, basis.pivots):
        x[pc] = row[-1]
    return tuple(x)


def kernel(m: Matrix) -> "Subspace":
    """Null space {x : m x = 0} as a canonical subspace of k^ncols."""
    return kernel_of_rows(m.field, m.rows, m.ncols)


def kernel_of_rows(field, rows, ncols) -> "Subspace":
    """Null space {x in k^ncols : <row, x> = 0 for every row}, as a canonical
    subspace; a system is its rows plus its number of unknowns, so no rows
    give all of k^ncols.

    One elimination, of the rows with their columns reversed.  A reduced
    row is then zero right of its pivot q (in the natural order) and at
    every other pivot, so the null vector of a free column c, with 1 at c,
    0 at the other free columns and -row_q[c] at each pivot q, is nonzero
    only at c and at pivots q > c.  Taken in order of c these vectors are
    already the kernel's RREF, with the free columns as its pivots."""
    basis = RowBasis.spanning(field, ncols, (row[::-1] for row in rows))
    if basis.dim == ncols:
        return Subspace.zero(field, ncols)
    last = ncols - 1
    # each reversed reduced row with its pivot in the natural order
    pivoted = [(last - pc, row) for row, pc in zip(basis.rows, basis.pivots)]
    pivset = {q for q, _ in pivoted}
    free = [c for c in range(ncols) if c not in pivset]
    zero, one, neg = field.zero, field.one, field.neg
    vectors = []
    for c in free:
        v = [zero] * ncols
        v[c] = one
        for q, row in pivoted:
            if q > c:
                v[q] = neg(row[last - c])
        vectors.append(v)
    return Subspace(field, ncols, Matrix(field, vectors), tuple(free))


class Subspace:
    """A subspace of k^ambient, stored as a canonical RREF basis."""

    __slots__ = ("field", "ambient", "mat", "pivots")

    def __init__(self, field, ambient, mat, pivots):
        self.field = field
        self.ambient = ambient
        self.mat = mat
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        rows = list(vectors)
        for r in rows:
            if len(r) != ambient:
                raise AmbientMismatch("vector length %d != %d" % (len(r), ambient))
        return RowBasis.spanning(field, ambient, rows).to_subspace()

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, Matrix(field, (), ambient), ())

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, Matrix.identity(field, ambient), tuple(range(ambient)))

    @property
    def dim(self):
        return self.mat.nrows

    def basis_vectors(self):
        return self.mat.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.field == other.field
            and self.mat.rows == other.mat.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.mat.rows))

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient)

    def key(self):
        """Deterministic sort key: (dim, the field's key of each canonical
        row)."""
        return (self.dim, tuple(map(self.field.row_key, self.mat.rows)))

    def contains_vector(self, v):
        if len(v) != self.ambient:
            raise AmbientMismatch("vector length mismatch")
        cmp_zero = self.field.cmp_zero
        return all(
            x == cmp_zero for x in _reduce(self.field, self.mat.rows, self.pivots, v)
        )

    def contains(self, other: "Subspace"):
        self._check(other)
        return all(self.contains_vector(v) for v in other.mat.rows)

    def sum(self, other: "Subspace"):
        """The span of both.  The larger operand's canonical basis seeds the
        elimination, so only the smaller one's rows are inserted, and the
        larger operand itself comes back when they add nothing.  The RREF of
        a span is unique, so this is the canonical basis of the sum."""
        self._check(other)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        basis = RowBasis.of(big)
        for v in small.mat.rows:
            if basis.dim == self.ambient:
                break
            basis.insert(v)
        return big if basis.dim == big.dim else basis.to_subspace()

    def annihilator(self) -> "Subspace":
        """{f in k^n : <f, v> = 0 for all v in the subspace}."""
        return kernel_of_rows(self.field, self.mat.rows, self.ambient)

    def coordinates(self, v):
        """Coordinates of v in the RREF basis; requires membership."""
        coords = tuple(v[pc] for pc in self.pivots)
        return coords

    def _check(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise AmbientMismatch("subspaces live in different ambient spaces")


class RowBasis:
    """Incrementally maintained row-echelon basis of a row span: the one
    echelon routine behind every RREF, rank and subspace here.

    `insert` keeps the rows in echelon form, each with a leading one at its
    pivot, which is all that reducing a new row against them needs.  A new
    pivot is not cleared from the rows above it; it is recorded as dirty.
    The first read of `rows` back-substitutes the dirty pivots once, giving
    the reduced form, so readers of `dim` alone do not pay for that step.

    Only a dirty pivot column can fill in: reducing a row against
    unreduced rows may make its entry there nonzero, an axpy a reduced
    basis would not need.  A row that adds nothing shows that redundant
    rows are arriving, so the insert after it back-substitutes first."""

    __slots__ = ("field", "ncols", "_rows", "pivots", "_dirty", "_due")

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self._rows = []
        self.pivots = []
        self._dirty = []  # pivots not yet cleared from the rows above them
        self._due = False  # the last insert added nothing to a dirty basis

    @classmethod
    def spanning(cls, field, ncols, rows):
        """The basis of the span of rows; stops once it is all of k^ncols."""
        basis = cls(field, ncols)
        for v in rows:
            if basis.insert(v) and len(basis._rows) == ncols:
                break
        return basis

    @classmethod
    def of(cls, subspace: Subspace):
        """A basis seeded with a subspace's canonical rows and pivots: they
        are a finished elimination, so nothing is inserted.  Later inserts
        grow this basis, never the subspace."""
        basis = cls(subspace.field, subspace.ambient)
        basis._rows = list(subspace.mat.rows)
        basis.pivots = list(subspace.pivots)
        return basis

    @property
    def dim(self):
        return len(self._rows)

    @property
    def rows(self):
        """The reduced row-echelon rows."""
        if self._dirty:
            self._back_substitute()
        return self._rows

    def _back_substitute(self):
        """Clear each dirty pivot from the rows above it, largest first: the
        row of a pivot is then clear of every larger dirty pivot, so its
        multiples put no nonzero back into those columns."""
        cmp_zero, axpy = self.field.cmp_zero, self.field.axpy
        rows, pivots = self._rows, self.pivots
        for pc in sorted(self._dirty, reverse=True):
            k = bisect(pivots, pc) - 1
            row = rows[k]
            for i in range(k):
                t = rows[i][pc]
                if t != cmp_zero:
                    rows[i] = axpy(rows[i], t, row)
        self._dirty = []
        self._due = False

    def insert(self, v) -> bool:
        """Add v to the span; returns True when the dimension grows."""
        if self._due:
            self._back_substitute()
        f = self.field
        cmp_zero, axpy = f.cmp_zero, f.axpy
        rows, pivots = self._rows, self.pivots
        w = v
        # in pivot order: each row is zero left of its pivot, so clearing
        # one pivot of w leaves the ones cleared before it at zero
        for row, pc in zip(rows, pivots):
            t = w[pc]
            if t != cmp_zero:
                w = axpy(w, t, row)
        pc = 0
        for x in w:
            if x != cmp_zero:
                break
            pc += 1
        else:
            self._due = bool(self._dirty)
            return False
        # a fresh list either way: the caller keeps v
        w = f.scale(f.inv(x), w) if x != f.one else list(w)
        at = bisect(pivots, pc)
        rows.insert(at, w)
        pivots.insert(at, pc)
        # only a row with a smaller pivot can be nonzero in column pc
        if at:
            self._dirty.append(pc)
        return True

    def to_subspace(self) -> Subspace:
        return Subspace(
            self.field, self.ncols, Matrix(self.field, self.rows, self.ncols),
            tuple(self.pivots)
        )


def _reduce(field, rows, pivots, v):
    """Residual of v after elimination against RREF rows with the given
    pivot columns, as a list; zero exactly when v lies in their span."""
    axpy, cmp_zero = field.axpy, field.cmp_zero
    w = list(v)
    for row, pc in zip(rows, pivots):
        t = w[pc]
        if t != cmp_zero:
            w = axpy(w, t, row)
    return w


def unit_vector(f, n, i):
    return tuple(f.one if j == i else f.zero for j in range(n))


def random_matrix(field, nrows, ncols, rng):
    return Matrix(field, [[field.random(rng) for _ in range(ncols)] for _ in range(nrows)])


def random_independent(field, n, count, rng, span=(), max_draws=None):
    """`count` vectors drawn uniformly from k^n, each kept when it is
    independent of `span` and of the vectors kept before it.  Stops early,
    with fewer vectors, after `max_draws` draws."""
    basis = RowBasis.spanning(field, n, span)
    kept = []
    draws = 0
    while len(kept) < count and (max_draws is None or draws < max_draws):
        draws += 1
        v = tuple(field.random(rng) for _ in range(n))
        if basis.insert(v):
            kept.append(v)
    return kept


_INVERTIBLE_TRIES = 1000


def random_invertible(field, n, rng):
    for _ in range(_INVERTIBLE_TRIES):
        m = random_matrix(field, n, n, rng)
        if m.rank() == n:
            return m
    raise RuntimeError("failed to sample an invertible matrix")

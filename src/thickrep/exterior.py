"""Exterior powers: colex wedge bases, compound matrices, the wedge pairing,
perp, decomposability and realizability.

All of Lambda^m k^n is coordinatized on the colex-ordered m-subsets of
{1..n}.  The signs of compounds, Plucker points, derivations, the
decomposability charts and contractions come from one table, `faces(n,
k)`, through the Laplace step v ^ w; the complement pairing of `perp`
takes its sign from one parity formula (`complement_sign_row`), and a
product of wedges is the wedge of the vectors of both
(`wedge_of_vectors`).  Decomposability is read in the
affine chart of the Grassmannian at the least nonzero Plucker coordinate,
with no linear system (`is_decomposable`).
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import AmbientMismatch, BadM, DimensionMismatch, MalformedInput
from .fields import DEFAULT_POINTS_CAP, field_tuples
from .linalg import Matrix, Subspace, kernel_of_rows, unit_vector


@lru_cache(maxsize=None)
def colex_subsets(n: int, m: int):
    """All m-subsets of {1..n} (1-based, increasing tuples) in colex order."""
    if m < 0 or m > n:
        return ()
    subs = itertools.combinations(range(1, n + 1), m)
    return tuple(sorted(subs, key=lambda s: tuple(reversed(s))))


def subset_rank(subset) -> int:
    """Colex position of an increasing 1-based subset."""
    return sum(comb(s - 1, t + 1) for t, s in enumerate(subset))


@lru_cache(maxsize=None)
def faces(n: int, k: int):
    """For each colex k-subset U of {1..n}, the pairs (j - 1, colex rank of
    U minus {j}) in increasing j.  For the t-th pair,
    e_j ^ e_(U minus j) = (-1)^t e_U."""
    return tuple(
        tuple((j - 1, subset_rank(U[:t] + U[t + 1:])) for t, j in enumerate(U))
        for U in colex_subsets(n, k)
    )


@lru_cache(maxsize=None)
def minor_pairs(n: int):
    """The 0-based index pairs (k, l), k < l, of the colex 2-subsets of
    {1..n}: coordinate r of u ^ v is u[k]*v[l] - u[l]*v[k] for the r-th."""
    return tuple((k, l) for (k, _), (l, _) in faces(n, 2))


def _laplace_step(f, table, v, w):
    """Coordinates of v ^ w in Lambda^k, for v in k^n and w in Lambda^(k-1),
    where `table` is faces(n, k): the Laplace expansion along v."""
    signed = (v, f.scale(f.neg(f.one), v))
    out = []
    for face in table:
        xs, ys = [], []
        for t, (j, r) in enumerate(face):
            xs.append(signed[t % 2][j])
            ys.append(w[r])
        out.append(f.dot(xs, ys))
    return out


class WedgeVector:
    """Element of Lambda^m k^n in colex coordinates."""

    __slots__ = ("field", "n", "m", "coords")

    def __init__(self, field, n, m, coords):
        coords = tuple(coords)
        if len(coords) != comb(n, m):
            raise DimensionMismatch(
                "expected %d coordinates, got %d" % (comb(n, m), len(coords))
            )
        self.field = field
        self.n = n
        self.m = m
        self.coords = coords

    @classmethod
    def basis_element(cls, field, n, subset):
        m = len(subset)
        coords = [field.zero] * comb(n, m)
        coords[subset_rank(subset)] = field.one
        return cls(field, n, m, coords)

    def is_zero(self):
        z = self.field.zero
        return all(c == z for c in self.coords)

    def items(self):
        """Nonzero (subset, coefficient) pairs."""
        subs = colex_subsets(self.n, self.m)
        z = self.field.zero
        return [(subs[i], c) for i, c in enumerate(self.coords) if c != z]

    def __eq__(self, other):
        return (
            isinstance(other, WedgeVector)
            and (self.field, self.n, self.m) == (other.field, other.n, other.m)
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.n, self.m, self.coords))

    def __repr__(self):
        parts = [
            "%s*e%s" % (self.field.format(c), "".join(str(i) for i in s))
            for s, c in self.items()
        ]
        return "Wedge(%s)" % (" + ".join(parts) or "0")

    def to_sparse(self) -> dict:
        return {
            ",".join(str(i) for i in s): self.field.format(c)
            for s, c in self.items()
        }

    @classmethod
    def from_sparse(cls, field, n, m, data: dict):
        """Inverse of `to_sparse`; raises MalformedInput unless data is an
        object whose keys are m increasing indices in 1..n, written as
        `to_sparse` writes them, so that no subset is named twice."""
        if not isinstance(data, dict):
            raise MalformedInput("a sparse wedge must be a JSON object")
        ranks = {",".join(map(str, s)): r for r, s in enumerate(colex_subsets(n, m))}
        coords = [field.zero] * len(ranks)
        for key, val in data.items():
            if key not in ranks:
                raise MalformedInput(
                    "wedge key %r is not %d increasing indices in 1..%d" % (key, m, n)
                )
            coords[ranks[key]] = field.parse(val)
        return cls(field, n, m, coords)


def wedge_of_vectors(field, n, vectors) -> WedgeVector:
    """v_1 ^ ... ^ v_m; zero exactly when the vectors are dependent."""
    vectors = [tuple(v) for v in vectors]
    m = len(vectors)
    for v in vectors:
        if len(v) != n:
            raise DimensionMismatch("vector of length %d in k^%d" % (len(v), n))
    if m > n:
        raise DimensionMismatch("cannot wedge %d vectors in k^%d" % (m, n))
    return WedgeVector(field, n, m, _wedge_coords(field, n, vectors))


def _wedge_coords(f, n, vectors):
    """The colex coordinates of the wedge of m <= n vectors of length n, as
    a list: the minors of the last two, then one Laplace step per vector
    before them."""
    m = len(vectors)
    if m < 2:
        return list(vectors[0]) if vectors else [f.one]
    coords = f.minors2(vectors[m - 2], vectors[m - 1], minor_pairs(n))
    for k in range(3, m + 1):
        coords = _laplace_step(f, faces(n, k), vectors[m - k], coords)
    return coords


def compound(a: Matrix, m: int) -> Matrix:
    """The matrix of Lambda^m a on the colex basis; entries are m-minors.

    Row S is the wedge of the rows of a indexed by S, so at level k it is
    a_(min S) ^ (row S minus min S at level k - 1).  Level 2 is one
    `minors2` per pair of rows."""
    if not a.is_square():
        raise BadM("compound of a non-square matrix")
    n = a.nrows
    if m < 0 or m > n:
        raise BadM("m=%d out of range for n=%d" % (m, n))
    f = a.field
    if m == 0:
        return Matrix.identity(f, 1)
    if m == 1:
        return a
    minors2, pairs = f.minors2, minor_pairs(n)
    rows = a.rows
    level = [minors2(rows[i], rows[j], pairs) for i, j in pairs]
    for k in range(3, m + 1):
        table = faces(n, k)
        level = [
            _laplace_step(f, table, rows[j], level[r])
            for (j, r), *_ in table
        ]
    return Matrix(f, level)


def derivation(x: Matrix, m: int) -> Matrix:
    """Matrix of the degree-m derivation sum(1 x ... x X x ... x 1) on the
    colex basis of Lambda^m; the Lie-algebra companion of `compound`."""
    if not x.is_square():
        raise BadM("derivation of a non-square matrix")
    n = x.nrows
    if m < 0 or m > n:
        raise BadM("m=%d out of range for n=%d" % (m, n))
    f = x.field
    N = comb(n, m)
    # cofaces[T]: (i, rank of T + i, parity of the sign of e_i ^ e_T) for
    # each i not in T.  X sends e_j ^ e_T to sum_i x[i][j] e_i ^ e_T, so
    # entry (T + i, T + j) gets +-x[i][j], summed over the (m-1)-subsets T.
    cofaces = [[] for _ in colex_subsets(n, m - 1)]
    for u, face in enumerate(faces(n, m)):
        for t, (i, r) in enumerate(face):
            cofaces[r].append((i, u, t % 2))
    zero, add, sub = f.zero, f.add, f.sub
    entries = [[zero] * N for _ in range(N)]
    for T in cofaces:
        for i, ti, si in T:
            row, xi = entries[ti], x.rows[i]
            for j, tj, sj in T:
                c = xi[j]
                if c != zero:
                    row[tj] = sub(row[tj], c) if si != sj else add(row[tj], c)
    return Matrix(f, entries)


@lru_cache(maxsize=None)
def complement_sign_row(n: int, m: int):
    """For each colex m-subset S: (rank of complement, sign of e_S ^ e_Sc).

    Sorting (S, Sc) moves the i-th member s_i of S past the s_i - i
    members of Sc below it, so the sign is (-1)^(sum(S) - m(m+1)/2)."""
    full = set(range(1, n + 1))
    out = []
    for S in colex_subsets(n, m):
        Sc = tuple(sorted(full - set(S)))
        out.append((subset_rank(Sc), (-1) ** (sum(S) - m * (m + 1) // 2)))
    return tuple(out)


def perp(w: Subspace, n: int, m: int) -> Subspace:
    """Annihilator of w in Lambda^(n-m) under the pairing into Lambda^n."""
    if w.ambient != comb(n, m):
        raise AmbientMismatch(
            "subspace ambient %d is not C(%d,%d)" % (w.ambient, n, m)
        )
    f = w.field
    nm = n - m
    cols = comb(n, nm)
    pairing = complement_sign_row(n, m)
    rows = []
    for basis_row in w.basis_vectors():
        row = [f.zero] * cols
        for i, c in enumerate(basis_row):
            if c == f.zero:
                continue
            crank, sg = pairing[i]
            row[crank] = f.neg(c) if sg < 0 else c
        rows.append(row)
    return kernel_of_rows(f, rows, cols)


@lru_cache(maxsize=None)
def charts(n: int, m: int):
    """The affine charts of the Grassmannian of m-planes in k^n, one per
    m-subset S of {1..n}, in lexicographic order of S: (colex rank of S,
    the 0-based columns of S, and for each j not in S the triple (j - 1,
    t_j, the face of U = S + {j} in `faces(n, m + 1)`)), where t_j is the
    0-based position of j in U."""
    table = faces(n, m + 1)
    out = []
    for S in itertools.combinations(range(1, n + 1), m):
        cofaces = []
        for j in range(1, n + 1):
            tj = bisect(S, j)
            if not (tj and S[tj - 1] == j):
                cofaces.append((j - 1, tj, table[subset_rank(S[:tj] + (j,) + S[tj:])]))
        out.append((subset_rank(S), tuple(s - 1 for s in S), tuple(cofaces)))
    return tuple(out)


def is_decomposable(v: WedgeVector):
    """(decomposable?, witness vectors spanning the factor subspace).

    The test is the affine chart of the Grassmannian at S, the
    lexicographically first m-subset with v_S != 0.  Row i of the chart
    matrix A has 1 at s_i, 0 at the rest of S, and at each j not in S the
    coordinate v_(U minus s_i) / v_S, U = S + {j}, with the sign
    (-1)^(t_i + t_j + 1) of the 0-based positions of s_i and j in U;
    `faces(n, m + 1)` supplies that rank and sign.  If v is a wedge, S is
    the pivot set of its factor subspace (the least nonzero Plucker
    coordinate), so A is that subspace's RREF and its minors are v / v_S;
    conversely A's rows wedge to v / v_S only if v is decomposable.  So v is
    decomposable exactly when the wedge of A's rows equals v / v_S, and then
    those rows, the canonical basis of the factor subspace, are the
    witness.  The zero vector reports False.
    """
    f, n, m, coords = v.field, v.n, v.m, v.coords
    cmp_zero = f.cmp_zero
    for r, cols, cofaces in charts(n, m):
        if coords[r] != cmp_zero:
            break
    else:
        return False, None
    xi = f.scale(f.inv(coords[r]), coords)
    zero, neg = f.zero, f.neg
    rows = [[zero] * n for _ in range(m)]
    for row, s in zip(rows, cols):
        row[s] = f.one
    for j, tj, face in cofaces:
        for i, row in enumerate(rows):
            ti = i + (i >= tj)
            c = xi[face[ti][1]]
            row[j] = c if (ti + tj) % 2 else neg(c)
    if _wedge_coords(f, n, rows) != xi:
        return False, None
    return True, [tuple(row) for row in rows]


def projective_count(q: int, dim: int) -> int:
    return (q**dim - 1) // (q - 1) if dim > 0 else 0


def projective_coefficients(field, dim):
    """Canonical enumeration of projective points of k^dim: leading 1 first,
    then the tails in lexicographic order.  Lazy."""
    for lead in range(dim):
        prefix = (field.zero,) * lead + (field.one,)
        for tail in field_tuples(field, dim - lead - 1):
            yield prefix + tail


def projective_images(g: Matrix):
    """g(v) for every v of `projective_coefficients(field, n)`, in that
    order, lazily, by linearity: g(v + c*e_k) = g(v) + c*g(e_k), so each
    point costs one `axpy` from the image of its prefix instead of n dot
    products.  The images are not normalised."""
    f = g.field
    cols = list(zip(*g.rows))  # cols[k] = g(e_k)
    minus = f.neg(f.one)
    negcols = [f.scale(minus, c) for c in cols]  # axpy subtracts
    for lead in range(len(cols)):
        level = iter((cols[lead],))
        for col in negcols[lead + 1:]:
            level = _extend(f, level, col)
        yield from level


def _extend(f, level, col):
    """The images w + c*col for each w of `level` and each c of the field,
    c running fastest; `col` is bound here, not late in a loop."""
    axpy, zero, elements = f.axpy, f.zero, list(f.elements())
    return (w if c == zero else axpy(w, c, col) for w in level for c in elements)


@dataclass
class RealizabilityResult:
    status: str  # "Realizable" | "NotRealizable" | "Unknown"
    witness: object = None  # WedgeVector
    witness_vectors: object = None  # list of vectors wedging to the witness
    scanned: int = 0
    exhaustive: bool = False


RATIONAL_TRIALS = 400


def realizable_search(
    w: Subspace, n: int, m: int, points_cap: int = DEFAULT_POINTS_CAP, seed: int = 0,
    rational_trials: int = RATIONAL_TRIALS,
) -> RealizabilityResult:
    """Search w <= Lambda^m k^n for a nonzero decomposable vector.

    The one place realizability is decided, by one scan.  It walks the
    projective points of w, `projective_images` of the matrix whose
    columns are w's basis, and its answer is exact for zero and lines on
    every field (a line is realizable iff its basis vector is
    decomposable), and over a finite field with the projective point count
    of w within the cap.  Otherwise (the rationals, or past the cap) the
    search is heuristic: that matrix applied to basis vectors,
    small-coefficient grids, then seeded random combinations; it never
    reports NotRealizable.  A zero vector from the grid refutes nothing:
    `is_decomposable` rejects it.
    """
    if w.ambient != comb(n, m):
        raise AmbientMismatch("ambient %d is not C(%d,%d)" % (w.ambient, n, m))
    f = w.field
    d = w.dim
    exhaustive = d <= 1 or (f.finite and projective_count(f.order, d) <= points_cap)
    basis = Matrix(f, zip(*w.basis_vectors()))
    if exhaustive:
        points = projective_images(basis)
    else:
        points = map(basis.apply, _heuristic_coefficients(f, d, seed, rational_trials))
    scanned = 0
    for coords in points:
        scanned += 1
        v = WedgeVector(f, n, m, coords)
        ok, wit = is_decomposable(v)
        if ok:
            return RealizabilityResult("Realizable", v, wit, scanned, exhaustive)
    status = "NotRealizable" if exhaustive else "Unknown"
    return RealizabilityResult(status, scanned=scanned, exhaustive=exhaustive)


def _heuristic_coefficients(f, d, seed, trials):
    # basis vectors first
    for i in range(d):
        yield unit_vector(f, d, i)
    # small grid when it stays modest
    small = [f.from_int(i) for i in (0, 1, -1, 2, -2)]
    if len(small) ** d <= 4096:
        for coeffs in itertools.product(small, repeat=d):
            yield coeffs
    rng = random.Random(seed)
    for _ in range(trials):
        yield tuple(f.random(rng) for _ in range(d))

"""Exterior powers: colex wedge bases, compound matrices, the wedge pairing,
perp, decomposability and realizability.

All of Lambda^m k^n is coordinatized on the colex-ordered m-subsets of
{1..n}; every sign in the module derives from merge inversion counts
against that one ordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import (
    AmbientMismatch,
    BadM,
    ConstructionError,
    DegreeOverflow,
    DimensionMismatch,
)
from .fields import DEFAULT_POINTS_CAP, field_tuples
from .linalg import Matrix, Subspace, det_rows, kernel


@lru_cache(maxsize=None)
def colex_subsets(n: int, m: int):
    """All m-subsets of {1..n} (1-based, increasing tuples) in colex order."""
    if m < 0 or m > n:
        return ()
    subs = itertools.combinations(range(1, n + 1), m)
    return tuple(sorted(subs, key=lambda s: tuple(reversed(s))))


@lru_cache(maxsize=None)
def _subset_index(n: int, m: int):
    return {s: i for i, s in enumerate(colex_subsets(n, m))}


def subset_rank(subset) -> int:
    """Colex position of an increasing 1-based subset."""
    return sum(comb(s - 1, t + 1) for t, s in enumerate(subset))


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
    def zero(cls, field, n, m):
        return cls(field, n, m, [field.zero] * comb(n, m))

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

    def scale(self, c):
        f = self.field
        return WedgeVector(f, self.n, self.m, [f.mul(c, x) for x in self.coords])

    def add(self, other):
        f = self.field
        return WedgeVector(
            f, self.n, self.m, [f.add(a, b) for a, b in zip(self.coords, other.coords)]
        )

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
        coords = [field.zero] * comb(n, m)
        for key, val in data.items():
            subset = tuple(int(x) for x in key.split(","))
            coords[subset_rank(subset)] = field.parse(val)
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
    coords = []
    for subset in colex_subsets(n, m):
        rows = [tuple(v[s - 1] for v in vectors) for s in subset]
        coords.append(det_rows(field, rows))
    return WedgeVector(field, n, m, coords)


def compound(a: Matrix, m: int) -> Matrix:
    """The matrix of Lambda^m a on the colex basis; entries are m-minors."""
    if not a.is_square():
        raise BadM("compound of a non-square matrix")
    n = a.nrows
    if m < 0 or m > n:
        raise BadM("m=%d out of range for n=%d" % (m, n))
    f = a.field
    subs = colex_subsets(n, m)
    if m == 2:
        # 2x2 minors straight from the rows, without building the submatrix
        mul, sub = f.mul, f.sub
        pairs = [(k - 1, l - 1) for k, l in subs]
        rows = a.rows
        return Matrix(f, [
            [sub(mul(ri[k], rj[l]), mul(ri[l], rj[k])) for k, l in pairs]
            for ri, rj in ((rows[i], rows[j]) for i, j in pairs)
        ])
    out = []
    for S in subs:
        srows = [a.rows[i - 1] for i in S]
        orow = []
        for T in subs:
            orow.append(det_rows(f, [tuple(r[j - 1] for j in T) for r in srows]))
        out.append(orow)
    return Matrix(f, out)


def derivation(x: Matrix, m: int) -> Matrix:
    """Matrix of the degree-m derivation sum(1 x ... x X x ... x 1) on the
    colex basis of Lambda^m; the Lie-algebra companion of `compound`."""
    if not x.is_square():
        raise BadM("derivation of a non-square matrix")
    n = x.nrows
    if m < 0 or m > n:
        raise BadM("m=%d out of range for n=%d" % (m, n))
    f = x.field
    subs = colex_subsets(n, m)
    index = _subset_index(n, m)
    N = len(subs)
    entries = [[f.zero] * N for _ in range(N)]
    for col, S in enumerate(subs):
        sset = set(S)
        for t, i in enumerate(S):
            for j in range(1, n + 1):
                c = x.rows[j - 1][i - 1]
                if c == f.zero:
                    continue
                if j == i:
                    entries[col][col] = f.add(entries[col][col], c)
                elif j not in sset:
                    T = tuple(sorted(sset - {i} | {j}))
                    sign = (t + T.index(j)) % 2
                    r = index[T]
                    entries[r][col] = (
                        f.sub(entries[r][col], c) if sign else f.add(entries[r][col], c)
                    )
    return Matrix(f, entries)


def merge_sign(S, T) -> int:
    """Sign of sorting the concatenation (S, T); 0 if they overlap."""
    inv = 0
    for s in S:
        for t in T:
            if s == t:
                return 0
            if s > t:
                inv += 1
    return -1 if inv % 2 else 1


def wedge_product(x: WedgeVector, y: WedgeVector) -> WedgeVector:
    """Bilinear wedge Lambda^i x Lambda^j -> Lambda^(i+j)."""
    if x.n != y.n or x.field != y.field:
        raise AmbientMismatch("wedge factors live in different spaces")
    n = x.n
    k = x.m + y.m
    if k > n:
        raise DegreeOverflow("wedge degree %d exceeds n=%d" % (k, n))
    f = x.field
    coords = [f.zero] * comb(n, k)
    index = _subset_index(n, k)
    for S, cs in x.items():
        for T, ct in y.items():
            sg = merge_sign(S, T)
            if sg == 0:
                continue
            U = tuple(sorted(S + T))
            term = f.mul(cs, ct)
            if sg < 0:
                term = f.neg(term)
            r = index[U]
            coords[r] = f.add(coords[r], term)
    return WedgeVector(f, n, k, coords)


def complement_sign_row(n: int, m: int):
    """For each colex m-subset S: (rank of complement, sign of e_S ^ e_Sc)."""
    subs = colex_subsets(n, m)
    full = set(range(1, n + 1))
    out = []
    for S in subs:
        Sc = tuple(sorted(full - set(S)))
        out.append((subset_rank(Sc), merge_sign(S, Sc)))
    return out


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
    if not rows:
        return Subspace.full(f, cols)
    return kernel(Matrix(f, rows))


def annihilator_in_v(v: WedgeVector) -> Subspace:
    """{x in k^n : x ^ v = 0}, the decomposability detector."""
    f, n, m = v.field, v.n, v.m
    if m >= n:
        # Lambda^(n+1) = 0: every vector annihilates
        return Subspace.full(f, n)
    cols = comb(n, m + 1)
    # matrix with rows indexed by Lambda^(m+1) basis, columns by e_i
    entries = [[f.zero] * n for _ in range(cols)]
    index = _subset_index(n, m + 1)
    for S, c in v.items():
        sset = set(S)
        for i in range(1, n + 1):
            if i in sset:
                continue
            U = tuple(sorted((i,) + S))
            # position of i in U determines the sign of e_i ^ e_S
            pos = U.index(i)
            term = f.neg(c) if pos % 2 else c
            r = index[U]
            entries[r][i - 1] = f.add(entries[r][i - 1], term)
    return kernel(Matrix(f, entries))


def is_decomposable(v: WedgeVector):
    """(decomposable?, witness vectors spanning the factor subspace).

    A nonzero v is a wedge of m vectors iff its annihilator in k^n has
    dimension exactly m; the annihilator basis is the witness.  The zero
    vector reports False.
    """
    if v.is_zero():
        return False, None
    ann = annihilator_in_v(v)
    if ann.dim != v.m:
        return False, None
    witness = list(ann.basis_vectors())
    if v.m > 0:
        w = wedge_of_vectors(v.field, v.n, witness)
        if not _proportional(v, w):
            raise ConstructionError("annihilator witness failed to reproduce v")
    return True, witness


def _proportional(a: WedgeVector, b: WedgeVector) -> bool:
    f = a.field
    ratio = None
    for x, y in zip(a.coords, b.coords):
        if (x == f.zero) != (y == f.zero):
            return False
        if x != f.zero:
            r = f.div(x, y)
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return True


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
    order, by linearity: g(v + c*e_k) = g(v) + c*g(e_k), so each point
    costs one `axpy` from the image of its prefix instead of n dot
    products.  The images are not normalised."""
    f = g.field
    axpy, zero = f.axpy, f.zero
    cols = list(zip(*g.rows))  # cols[k] = g(e_k)
    minus = f.neg(f.one)
    negcols = [f.scale(minus, c) for c in cols]  # axpy subtracts
    out = []
    for lead in range(len(cols)):
        level = [cols[lead]]
        for col in negcols[lead + 1:]:
            level = [
                w if c == zero else axpy(w, c, col)
                for w in level for c in f.elements()
            ]
        out.extend(level)
    return out


@dataclass
class RealizabilityResult:
    status: str  # "Realizable" | "NotRealizable" | "Unknown"
    witness: object = None  # WedgeVector
    witness_vectors: object = None  # list of vectors wedging to the witness
    scanned: int = 0
    exhaustive: bool = False


def _subspace_wedge_points(w: Subspace, n, m, coeff_iter):
    """The wedge vectors sum(c_i * basis_i) of w, one per coefficient tuple."""
    f = w.field
    basis = w.basis_vectors()
    zero, neg, axpy = f.zero, f.neg, f.axpy
    for coeffs in coeff_iter:
        v = [zero] * w.ambient
        for c, row in zip(coeffs, basis):
            if c != zero:
                v = axpy(v, neg(c), row)
        yield WedgeVector(f, n, m, v)


def realizable_search(
    w: Subspace, n: int, m: int, points_cap: int = DEFAULT_POINTS_CAP, seed: int = 0,
    rational_trials: int = 400,
) -> RealizabilityResult:
    """Search w <= Lambda^m k^n for a nonzero decomposable vector.

    The one place realizability is decided.  Zero and lines are exact over
    every field: a line is realizable iff its basis vector is decomposable.
    Over a finite field with the projective point count of w within the
    cap the scan is exhaustive and the answer exact.  Otherwise (the
    rationals, or past the cap) the search is heuristic: basis vectors,
    small-coefficient grids, then seeded random combinations; it never
    reports NotRealizable.
    """
    if w.ambient != comb(n, m):
        raise AmbientMismatch("ambient %d is not C(%d,%d)" % (w.ambient, n, m))
    f = w.field
    d = w.dim
    if d == 0:
        return RealizabilityResult("NotRealizable", exhaustive=True)
    if d == 1:
        v = WedgeVector(f, n, m, w.basis_vectors()[0])
        ok, wit = is_decomposable(v)
        if ok:
            return RealizabilityResult("Realizable", v, wit, 1, exhaustive=True)
        return RealizabilityResult("NotRealizable", scanned=1, exhaustive=True)
    if f.finite and projective_count(f.order, d) <= points_cap:
        scanned = 0
        for v in _subspace_wedge_points(w, n, m, projective_coefficients(f, d)):
            scanned += 1
            ok, wit = is_decomposable(v)
            if ok:
                return RealizabilityResult(
                    "Realizable", v, wit, scanned, exhaustive=True
                )
        return RealizabilityResult("NotRealizable", scanned=scanned, exhaustive=True)
    coeff_iter = _heuristic_coefficients(f, d, seed, rational_trials)
    scanned = 0
    for v in _subspace_wedge_points(w, n, m, coeff_iter):
        scanned += 1
        if v.is_zero():
            continue
        ok, wit = is_decomposable(v)
        if ok:
            return RealizabilityResult("Realizable", v, wit, scanned, exhaustive=False)
    return RealizabilityResult("Unknown", scanned=scanned, exhaustive=False)


def _heuristic_coefficients(field, d, seed, trials):
    import random as _random

    f = field
    one, zero = f.one, f.zero
    # basis vectors first
    for i in range(d):
        yield tuple(one if j == i else zero for j in range(d))
    # small grid when it stays modest
    small = [f.from_int(i) for i in (0, 1, -1, 2, -2)]
    if len(small) ** d <= 4096:
        for coeffs in itertools.product(small, repeat=d):
            yield coeffs
    rng = _random.Random(seed)
    for _ in range(trials):
        yield tuple(f.random(rng) for _ in range(d))

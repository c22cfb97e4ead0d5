"""Symplectic machinery: the contraction maps on exterior powers, their
kernels (the fundamental representations), symplectic normal bases,
Lagrangian complements, isotropic transversals, and the non-realizability
evidence for the perp of a contraction kernel.

Constructions derived from normal-form recipes are always post-validated;
the code never trusts displayed index ranges.  Each returned subspace is
validated once, against the contract of the function that returns it: the
normal basis by its Gram matrix and by the containment and count of its
shape in w, the complement as a Lagrangian with L + w = V, the transversal
as an isotropic i-space with U + w = V.  A subspace's canonical basis is a
finished elimination, so it seeds the later ones (`RowBasis.of`,
`Subspace.sum`) and is never reduced again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .errors import (
    BadM,
    CodimMismatch,
    CodimTooLarge,
    ConstructionError,
    PreconditionFailed,
)
from .linalg import (
    Matrix,
    RowBasis,
    Subspace,
    kernel,
    kernel_of_rows,
    random_independent,
    solve_rows,
)
from .exterior import (
    derivation,
    faces,
    perp,
    realizable_search,
    wedge_of_vectors,
    wedge_product,
)
from .constructions import lie_generators, symplectic_form_matrix


@dataclass
class SymplecticSpace:
    """k^(2n) with the form pairing e_i against e_(n+i)."""

    n: int
    field: object

    def __post_init__(self):
        self.form = symplectic_form_matrix(self.field, self.n)

    @property
    def dim(self):
        return 2 * self.n

    def omega(self, u, v):
        """sum_i u_i v_(n+i) - u_(n+i) v_i, the form without its matrix."""
        n, f = self.n, self.field
        return f.sub(f.dot(u[:n], v[n:]), f.dot(u[n:], v[:n]))

    def lie_algebra(self):
        return lie_generators("sp", self.n, self.field)


def contraction_matrix(sp: SymplecticSpace, m: int) -> Matrix:
    """The C(2n,m-2) x C(2n,m) matrix of the form contraction on Lambda^m:
    e_S = +-e_a ^ e_b ^ e_T maps to +-omega(e_a, e_b) e_T, summed over the
    pairs a < b in S, with the signs read from two faces."""
    N = sp.dim
    if m < 2 or m > N:
        raise BadM("m=%d out of range for dim %d" % (m, N))
    f = sp.field
    form = sp.form.rows
    inner = faces(N, m - 1)
    entries = [[f.zero] * comb(N, m) for _ in range(comb(N, m - 2))]
    for col, face in enumerate(faces(N, m)):
        for t, (a, r) in enumerate(face):
            # the pairs of S minus a from position t on are the b > a
            for t2, (b, r2) in enumerate(inner[r][t:], t):
                om = form[a][b]
                if om != f.zero:
                    term = f.neg(om) if (t + t2) % 2 else om
                    entries[r2][col] = f.add(entries[r2][col], term)
    return Matrix(f, entries)


def ker_fm(sp: SymplecticSpace, m: int) -> Subspace:
    """Kernel of the contraction on Lambda^m; for m <= n this is the m-th
    fundamental representation of the symplectic algebra."""
    N = sp.dim
    if m < 2 or m > sp.n:
        raise BadM("m=%d out of range (2..%d)" % (m, sp.n))
    ker = kernel(contraction_matrix(sp, m))
    expected = comb(N, m) - comb(N, m - 2)
    if ker.dim != expected:
        raise ConstructionError(
            "contraction kernel has dim %d, expected %d" % (ker.dim, expected)
        )
    return ker


def contraction_is_equivariant(sp: SymplecticSpace, m: int) -> bool:
    """Exact matrix identity: contraction intertwines the degree-m and
    degree-(m-2) derivation actions of every algebra generator."""
    fm = contraction_matrix(sp, m)
    for x in sp.lie_algebra():
        if fm * derivation(x, m) != derivation(x, m - 2) * fm:
            return False
    return True


def _omega_row(sp: SymplecticSpace, u):
    """Row vector c with c . z = omega(u, z): (-u[n:], u[:n])."""
    return tuple(map(sp.field.neg, u[sp.n:])) + tuple(u[:sp.n])


def is_isotropic(sp: SymplecticSpace, w: Subspace) -> bool:
    f = sp.field
    vecs = w.basis_vectors()
    for i, u in enumerate(vecs):
        row = _omega_row(sp, u)
        if any(f.dot(row, v) != f.cmp_zero for v in vecs[i + 1:]):
            return False
    return True


def symplectic_normal_basis(sp: SymplecticSpace, w: Subspace):
    """A symplectic basis v_1..v_2n adapted to w.

    Returns (basis, k, l) where omega(v_i, v_(n+i)) = 1, all other basis
    pairings vanish, and w is spanned by v_1..v_k, v_(k+1)..v_(n-l),
    v_(n+1)..v_(n+k).  The output is validated, not trusted.

    Every omega(u, .) is one `dot` against `_omega_row(u)`, computed once
    per vector; the projections and normalisations are `axpy` and `scale`.
    """
    f = sp.field
    n = sp.n
    N = sp.dim
    cmp_zero = f.cmp_zero

    def hyperbolic(a, row_a, b):
        """(a, b, their omega rows), with b rescaled so omega(a, b) = 1."""
        b = tuple(f.scale(f.inv(f.dot(row_a, b)), b))
        return a, b, row_a, _omega_row(sp, b)

    # split w into hyperbolic pairs and its omega-radical.  The search for
    # the first pair (i, j) with omega nonzero reads j > i only: since
    # omega(w_j, w_i) = -omega(w_i, w_j), a pair with j < i is met at row j
    work = [tuple(v) for v in w.basis_vectors()]
    pairs = []
    while True:
        for i, u in enumerate(work):
            row = _omega_row(sp, u)
            j = next((j for j in range(i + 1, len(work))
                      if f.dot(row, work[j]) != cmp_zero), None)
            if j is not None:
                break
        else:
            break
        a, b, row_a, row_b = pair = hyperbolic(u, row, work[j])
        projected = RowBasis(f, N)
        for t, y in enumerate(work):
            if t not in (i, j):
                # y + omega(y,a) b - omega(y,b) a is orthogonal to both a and
                # b; axpy subtracts, and ta = omega(a,y) = -omega(y,a)
                ta, tb = f.dot(row_a, y), f.dot(row_b, y)
                projected.insert(f.axpy(f.axpy(y, ta, b), f.neg(tb), a))
        pairs.append(pair)
        work = [tuple(r) for r in projected.rows]
    k = len(pairs)
    r = len(work)

    # pair each radical vector with a partner outside w
    pending = [(v, _omega_row(sp, v)) for v in work]
    while pending:
        v0, row0 = pending.pop(0)
        rows = [row for p in pairs for row in p[2:]] + [row for _, row in pending]
        z = solve_rows(f, rows + [row0], [f.zero] * len(rows) + [f.one], N)
        if z is None:
            raise ConstructionError("no symplectic partner found")
        pairs.append((v0, z, row0, _omega_row(sp, z)))

    # fill the remaining dimension with fresh hyperbolic pairs
    while len(pairs) < n:
        rows = [row for p in pairs for row in p[2:]]
        u0, *rest = kernel_of_rows(f, rows, N).basis_vectors()
        row0 = _omega_row(sp, u0)
        y = next((y for y in rest if f.dot(row0, y) != cmp_zero), None)
        if y is None:
            raise ConstructionError("degenerate complement while completing basis")
        pairs.append(hyperbolic(u0, row0, y))

    basis = [p[0] for p in pairs] + [p[1] for p in pairs]
    l = n - k - r
    _validate_normal_basis(sp, basis, w, k, l)
    return basis, k, l


def _validate_normal_basis(sp, basis, w, k, l):
    """Check the Gram matrix and the shape of w.  omega(u, u) = 0 and
    omega(v, u) = -omega(u, v) hold exactly by its formula, so the pairs
    i < j decide the whole Gram matrix.  A Gram matrix that passes is
    invertible, so the basis is independent, and the shape's vectors,
    distinct members of it when 0 <= k <= n - l <= n, span w exactly when
    each lies in w and there are w.dim of them."""
    f = sp.field
    n = sp.n
    for i, u in enumerate(basis):
        row = _omega_row(sp, u)
        for j in range(i + 1, 2 * n):
            if f.dot(row, basis[j]) != (f.one if j == i + n else f.cmp_zero):
                raise ConstructionError("normal basis fails the form conditions")
    shape = basis[:k] + basis[k : n - l] + basis[n : n + k]
    if not (0 <= k <= n - l <= n and len(shape) == w.dim
            and all(w.contains_vector(v) for v in shape)):
        raise ConstructionError("normal basis does not exhibit the subspace shape")


def _lagrangian(sp: SymplecticSpace, w: Subspace) -> Subspace:
    """The Lagrangian built from a normal basis of w's first n canonical
    rows (all of w when dim w <= n), unchecked: `lagrangian_complement`
    checks it, and `isotropic_transversal` checks what it takes from it."""
    f = sp.field
    n = sp.n
    N = sp.dim
    codim = N - w.dim
    if codim > n:
        raise CodimTooLarge("codim %d exceeds %d" % (codim, n))
    # shrinking w to codimension exactly n only strengthens L + w0 = V; a
    # subset of RREF rows is already RREF, so w0 needs no elimination
    if w.dim > n:
        w0 = Subspace(f, N, Matrix(f, w.basis_vectors()[:n]), w.pivots[:n])
    else:
        w0 = w
    basis, k, l = symplectic_normal_basis(sp, w0)
    v = basis  # v[i] is v_(i+1)
    minus_one = f.neg(f.one)
    gens = list(v[n + k : 2 * n - k])
    # v_(n-k+i) + v_(n+i) and v_(2n-k+i) + v_i for i = 1..k
    gens += [f.axpy(v[n - k + i], minus_one, v[n + i]) for i in range(k)]
    gens += [f.axpy(v[2 * n - k + i], minus_one, v[i]) for i in range(k)]
    return Subspace.from_vectors(f, N, gens)


def lagrangian_complement(sp: SymplecticSpace, w: Subspace) -> Subspace:
    """A Lagrangian L with L + w = V, for codim(w) <= n."""
    L = _lagrangian(sp, w)
    if L.dim != sp.n or not is_isotropic(sp, L):
        raise ConstructionError("complement is not Lagrangian")
    if w.sum(L).dim != sp.dim:
        raise ConstructionError("Lagrangian does not complement the subspace")
    return L


def isotropic_transversal(sp: SymplecticSpace, w: Subspace, i: int) -> Subspace:
    """An isotropic subspace U of dimension i with U intersect w = 0,
    for w of codimension exactly i <= n.

    U is spanned by the rows of the Lagrangian L of `_lagrangian` that are
    independent modulo w.  For S in L the modular law gives
    (span S + w) meet L = span S + (L meet w), so these are the rows that
    are independent modulo L meet w, with one elimination seeded with w's
    canonical basis and no intersection.  U itself is checked against this
    contract, so L is not checked on the way."""
    f = sp.field
    N = sp.dim
    if N - w.dim != i:
        raise CodimMismatch("subspace has codim %d, not %d" % (N - w.dim, i))
    if i == 0:
        return Subspace.zero(f, N)
    L = _lagrangian(sp, w)
    added = RowBasis.of(w)
    picks = [t for t, row in enumerate(L.basis_vectors()) if added.insert(row)]
    # a subset of L's canonical rows is already RREF, so U needs no elimination
    U = Subspace(f, N, Matrix(f, [L.basis_vectors()[t] for t in picks]),
                 tuple(L.pivots[t] for t in picks))
    if U.dim != i or not is_isotropic(sp, U):
        raise ConstructionError("transversal is not an isotropic i-space")
    # a second elimination of U's rows against w, not a read of `added`
    if w.sum(U).dim != N:
        raise ConstructionError("transversal meets the subspace")
    return U


@dataclass
class KerPerpReport:
    """Evidence that the perp of a contraction kernel contains no nonzero
    decomposable vector: constructive pairings against isotropic
    transversals, plus an exhaustive projective scan where finite."""

    n: int
    m: int
    trials: int = 0
    nonzero_pairings: int = 0
    pairing_prong_pass: bool = False
    scan_prong_ran: bool = False
    scan_prong_pass: bool = False
    scan_points: int = 0


def ker_perp_realizability_check(
    sp: SymplecticSpace, m: int, trials: int = 200, seed: int = 0,
) -> KerPerpReport:
    """Check both prongs of non-realizability for perp(ker of contraction).

    (a) For seeded random codim-m subspaces W, the top wedge of W pairs
    nontrivially with the wedge of an isotropic transversal of W, which
    lies in the contraction kernel; so no wedge of a codim-m subspace can
    land in the perp.  (b) Where `realizable_search` can decide the perp
    exactly (a line, or a finite field within its points cap), assert
    directly that no point of the perp is decomposable.
    """
    if not 1 < m <= sp.n:
        raise PreconditionFailed("need 1 < m <= n")
    if trials < 1:
        # with no trial the pairing prong would pass on no evidence
        raise PreconditionFailed("need at least one trial, got %d" % trials)
    f = sp.field
    N = sp.dim
    report = KerPerpReport(n=sp.n, m=m, trials=trials)
    kf = ker_fm(sp, m)
    contraction = contraction_matrix(sp, m)
    rng = random.Random(seed)
    good = 0
    for _ in range(trials):
        w = Subspace.from_vectors(f, N, random_independent(f, N, N - m, rng))
        u = isotropic_transversal(sp, w, m)
        x = wedge_of_vectors(f, N, w.basis_vectors())
        y = wedge_of_vectors(f, N, u.basis_vectors())
        # wedges of isotropic subspaces live in the contraction kernel
        if any(c != f.zero for c in contraction.apply(y.coords)):
            raise ConstructionError("isotropic wedge escaped the kernel")
        if not wedge_product(x, y).is_zero():
            good += 1
    report.nonzero_pairings = good
    report.pairing_prong_pass = good == trials

    kp = perp(kf, N, m)
    if kp.dim <= 1 or f.finite:
        res = realizable_search(kp, N, N - m)
        report.scan_prong_ran = res.exhaustive
        report.scan_prong_pass = res.status == "NotRealizable"
        report.scan_points = res.scanned
    return report

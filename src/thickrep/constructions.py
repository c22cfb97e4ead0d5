"""Factories for the explicit representation families and distinguished
subspaces used throughout the package, each with built-in self-verification:
every returned wedge span is built by `_wedge_span`, which re-checks its
dimension and, given the representation, its invariance before it leaves
the factory.
"""

from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass, field as dc_field
from math import comb

from .errors import (
    BadFamily,
    BadN,
    ConstructionError,
    FieldTooSmall,
    PreconditionFailed,
    ScaleExceeded,
)
from .fields import GF, PrimeField, QQ, _is_prime, check_scan, has_all_nth_roots, poly_roots
from .linalg import Matrix, Subspace, charpoly, kernel, random_independent, random_invertible
from .exterior import WedgeVector
from .repcore import (
    GROUP,
    YES,
    Representation,
    absolute_irreducibility,
    exterior_rep,
    is_invariant,
    spin,
)


def _block_cycle(field, blocks) -> Matrix:
    """Block matrix sending block j to block j+1 via blocks[j-1], and the
    last block to the first via blocks[-1]."""
    ell = len(blocks)
    m = blocks[0].nrows
    n = ell * m
    entries = [[field.zero] * n for _ in range(n)]
    for t in range(ell):
        col = (t - 1) % ell * m
        for i in range(m):
            entries[t * m + i][col : col + m] = blocks[t - 1].rows[i]
    return Matrix(field, entries)


# the invariance check lifts rep to Lambda^m, C(n, m)^2 minors per generator;
# a companion pair over Q takes about 1 s at n = 9 and five times as long per
# step of n (2-CPU Xeon), so a larger n is refused before the lift
_LIFT_MAX_N = 9


def _wedge_span(field, n: int, subsets, dim: int, rep=None) -> Subspace:
    """The span of the basis wedges e_S of Lambda^m k^n, S in `subsets`,
    checked to have dimension `dim` and, given `rep`, to be invariant under
    its m-th exterior power."""
    if rep is not None and n > _LIFT_MAX_N:
        raise ScaleExceeded("desk scale of the invariance check is n <= %d" % _LIFT_MAX_N)
    wedges = [WedgeVector.basis_element(field, n, s) for s in subsets]
    m = wedges[0].m
    w = Subspace.from_vectors(field, comb(n, m), [x.coords for x in wedges])
    if w.dim != dim:
        raise ConstructionError("wedge span has dim %d, not %d" % (w.dim, dim))
    if rep is not None and not is_invariant(exterior_rep(rep, m), w):
        raise ConstructionError("wedge span is not invariant")
    return w


@dataclass
class CompanionPairResult:
    rep: Representation
    windows: dict  # m -> Subspace of Lambda^m
    roots_available: bool  # n-th-root precondition for guaranteed irreducibility


def companion_pair(field, n: int, a, b) -> CompanionPairResult:
    """Two cyclic-shift generators with corner entries a and b, plus for each
    0 < m < n the n-dimensional invariant window subspace spanned by the
    cyclic wedges e_i ^ e_(i+1) ^ ... ^ e_(i+m-1)."""
    if n < 1:
        raise BadN("n must be positive")
    if a == b or a == field.zero or b == field.zero:
        raise PreconditionFailed("a and b must be distinct and nonzero")
    one_blocks = [Matrix(field, [[field.one]])] * (n - 1)
    A = _block_cycle(field, one_blocks + [Matrix(field, [[a]])])
    B = _block_cycle(field, one_blocks + [Matrix(field, [[b]])])
    rep = Representation(field, n, GROUP, [A, B], label="companion_pair_n%d" % n)
    roots_available = has_all_nth_roots(field, a, n) and has_all_nth_roots(field, b, n)
    windows = {}
    for m in range(1, n):
        cyclic = [tuple(sorted((i + t) % n + 1 for t in range(m))) for i in range(n)]
        windows[m] = _wedge_span(field, n, cyclic, n, rep)
    return CompanionPairResult(rep, windows, roots_available)


def _check_block_sizes(ell: int, m: int):
    if ell < 2 or m < 2:
        raise PreconditionFailed("ell and m must be at least 2")


@dataclass
class BlockRepSpec:
    """Parameters for the two-generator block construction on k^(ell*m),
    with the eigenpairs of the shift generator, which the alphas alone fix."""

    ell: int
    m: int
    alphas: tuple
    b_ell: Matrix
    field: object
    alpha_pairs: list = dc_field(init=False, repr=False, compare=False)

    @property
    def n(self):
        return self.ell * self.m

    def __post_init__(self):
        self.alphas = tuple(self.alphas)
        f = self.field
        _check_block_sizes(self.ell, self.m)
        if len(self.alphas) != self.m or len(set(self.alphas)) != self.m:
            raise PreconditionFailed("alphas must be %d distinct values" % self.m)
        if any(a == f.zero for a in self.alphas):
            raise PreconditionFailed("alphas must be nonzero")
        if f.char and self.ell % f.char == 0:
            raise PreconditionFailed("field characteristic divides ell")
        # the eigenvalues of the shift's corner product are the alphas, so
        # `block_eigenvectors` searches each alpha's roots, once; distinct
        # alphas cannot share a root: xi^ell is xi's own alpha
        ident = [Matrix.identity(f, self.m)] * (self.ell - 1)
        try:
            self.alpha_pairs = block_eigenvectors(ident + [Matrix.diagonal(f, self.alphas)])
        except PreconditionFailed as e:
            # name the first alpha, in the given order, that lacks its roots
            for a in self.alphas:
                if not has_all_nth_roots(f, a, self.ell):
                    raise PreconditionFailed(
                        "alpha %s lacks %d distinct ell-th roots" % (f.format(a), self.ell)
                    ) from e
            raise
        self._check_b_ell()

    def _check_b_ell(self):
        if self.b_ell.nrows != self.m or not self.b_ell.is_invertible():
            raise PreconditionFailed("b_ell must be an invertible %dx%d matrix" % (self.m, self.m))

    def _with_b_ell(self, b_ell) -> "BlockRepSpec":
        """This spec with another b_ell, of which only b_ell is checked: the
        alpha checks and eigenpairs do not depend on it."""
        spec = copy.copy(self)
        spec.b_ell = b_ell
        spec._check_b_ell()
        return spec


@dataclass
class BlockRepResult:
    rep: Representation
    w: Subspace  # block wedges, dim ell in Lambda^m
    y: Subspace  # one-index-per-block wedges, dim m^ell in Lambda^ell
    spec: BlockRepSpec
    cramer_checked: bool
    cramer_nonzero: bool


def block_rep(spec: BlockRepSpec, beta_roots=None) -> BlockRepResult:
    """The block construction: a block cyclic shift with diagonal corner, and
    a second generator carrying b_ell; returns the representation together
    with its two distinguished invariant realizable subspaces.  `beta_roots`,
    if given, maps eigenvalues of b_ell to their ell-th roots, searched
    once by a caller that draws many b_ell with the same eigenvalues."""
    f = spec.field
    ell, m, n = spec.ell, spec.m, spec.n
    ident = Matrix.identity(f, m)
    A = _block_cycle(f, [ident] * (ell - 1) + [Matrix.diagonal(f, spec.alphas)])
    B = _block_cycle(f, [ident] * (ell - 1) + [spec.b_ell])
    rep = Representation(f, n, GROUP, [A, B], label="block_%dx%d" % (ell, m))

    # W: the wedge of each block; Y: one basis index from each block
    blocks = [tuple(range(t * m + 1, (t + 1) * m + 1)) for t in range(ell)]
    w = _wedge_span(f, n, blocks, ell, rep)
    y = _wedge_span(f, n, itertools.product(*blocks), m**ell, rep)
    cramer_checked, cramer_nonzero = _cramer_coefficients_nonzero(spec, beta_roots)
    return BlockRepResult(rep, w, y, spec, cramer_checked, cramer_nonzero)


def _cramer_coefficients_nonzero(spec: BlockRepSpec, beta_roots=None):
    """Expand each shift-generator eigenvector in the eigenbasis of the
    second generator and test every coefficient against zero.  Skipped
    (checked=False) when `block_eigenvectors` finds no full eigenbasis for
    b_ell, or when the two generators share an eigenvalue."""
    f = spec.field
    ident = [Matrix.identity(f, spec.m)] * (spec.ell - 1)
    try:
        b_pairs = block_eigenvectors(ident + [spec.b_ell], beta_roots)
    except PreconditionFailed:
        return False, False
    a_pairs = spec.alpha_pairs
    if {xi for xi, _ in a_pairs} & {eta for eta, _ in b_pairs}:
        return False, False
    wmat = Matrix(f, [list(v) for _, v in a_pairs]).transpose()
    wpmat = Matrix(f, [list(v) for _, v in b_pairs]).transpose()
    coeffs = wpmat.inverse() * wmat
    return True, all(x != f.zero for row in coeffs.rows for x in row)


def suggest_block_field(ell: int, m: int) -> PrimeField:
    """Smallest prime field where the block construction has full root sets
    with headroom: ell divides p-1 and there are at least 2m+2 ell-th powers."""
    _check_block_sizes(ell, m)
    p = 2
    while True:
        p += 1
        if not _is_prime(p):
            continue
        if (p - 1) % ell:
            continue
        if (p - 1) // ell >= 2 * m + 2:
            return GF(p)


_BLOCK_REP_TRIES = 32


def build_block_rep(ell: int, m: int, field=None, alphas=None, betas=None,
                    seed: int = 0) -> BlockRepResult:
    """Construct a block representation that is verified absolutely
    irreducible, retrying the random basis of the second generator with
    fresh draws up to `_BLOCK_REP_TRIES` times.  Missing alphas or betas
    are the first ell-th powers of a finite field; over Q pass both."""
    _check_block_sizes(ell, m)
    field = field or suggest_block_field(ell, m)
    if alphas is None or betas is None:
        # the ell-th powers with ell distinct roots, to choose from
        if not field.finite:
            raise PreconditionFailed("alphas and betas are chosen over finite fields only")
        check_scan(field)
        powers = [x for x in field.nonzero_elements() if has_all_nth_roots(field, x, ell)]
        if alphas is None:
            alphas = tuple(powers[:m])
        if betas is None:
            taken = set(alphas)
            betas = tuple(x for x in powers if x not in taken)[:m]
    if len(set(betas)) != m:
        raise FieldTooSmall("not enough ell-th powers for distinct betas")
    # the part of the Cramer check that no draw changes, with the one root
    # search of each beta: b_ell has the betas as eigenvalues whatever the
    # basis, so every draw's eigenpairs take their roots from here
    beta_roots = {b: field.nth_roots(b, ell) for b in betas if b not in alphas}
    for b in betas:
        if b in alphas:
            problem = "is also an alpha"
        elif len(beta_roots[b]) != ell:
            problem = "lacks %d distinct ell-th roots" % ell
        else:
            continue
        raise ConstructionError(
            "no irreducible block representation: beta %s %s" % (field.format(b), problem)
        )
    rng = random.Random(seed)
    last_error = None
    spec = None
    diag = Matrix.diagonal(field, betas)
    for _ in range(_BLOCK_REP_TRIES):
        p = random_invertible(field, m, rng)
        b_ell = p * diag * p.inverse()
        try:
            # only b_ell depends on the draw, so the first valid spec's alpha
            # checks and eigenpairs serve every later draw
            spec = (BlockRepSpec(ell, m, alphas, b_ell, field) if spec is None
                    else spec._with_b_ell(b_ell))
            result = block_rep(spec, beta_roots)
        except (PreconditionFailed, ConstructionError) as e:
            last_error = e
            continue
        if not (result.cramer_checked and result.cramer_nonzero):
            continue
        if absolute_irreducibility(result.rep).verdict == YES:
            return result
    raise ConstructionError(
        "no irreducible block representation found in %d tries (%s)"
        % (_BLOCK_REP_TRIES, last_error)
    )


def block_eigenvectors(blocks, ell_roots=None):
    """All eigenpairs of the block cycle built from blocks[0..ell-1].

    With C the product of the blocks and alpha ranging over its eigenvalues,
    each ell-th root xi of alpha contributes the eigenvector whose block
    components are xi^(ell-1-t) times the partial products applied to the
    alpha-eigenvector of C.  The ell-th roots of an eigenvalue are read from
    `ell_roots` when it maps that eigenvalue, and searched otherwise.  Each
    returned pair is verified by direct matrix-vector multiplication.
    """
    ell = len(blocks)
    if ell < 2:
        raise PreconditionFailed("need at least two blocks")
    f = blocks[0].field
    m = blocks[0].nrows
    n = ell * m
    C = blocks[-1]
    for blk in reversed(blocks[:-1]):
        C = C * blk
    roots = poly_roots(charpoly(C))
    if len(roots) != m or any(mult != 1 for _, mult in roots):
        raise PreconditionFailed("product matrix lacks %d distinct eigenvalues" % m)
    X = _block_cycle(f, blocks)
    ident = Matrix.identity(f, m)
    pairs = []
    for alpha, _ in roots:
        eig = kernel(C - ident.scale(alpha))
        if eig.dim != 1:
            raise PreconditionFailed("eigenvalue %s is not simple" % f.format(alpha))
        v = eig.basis_vectors()[0]
        xs = (ell_roots or {}).get(alpha) or f.nth_roots(alpha, ell)
        if len(xs) != ell:
            raise PreconditionFailed(
                "eigenvalue %s lacks %d ell-th roots" % (f.format(alpha), ell)
            )
        partial = [v]
        for t in range(ell - 1):
            partial.append(blocks[t].apply(partial[-1]))
        for xi in xs:
            w = []
            power = f.one
            scales = [f.one]
            for _ in range(ell - 1):
                power = f.mul(power, xi)
                scales.append(power)
            # block t gets xi^(ell-1-t) * partial[t]
            for t in range(ell):
                s = scales[ell - 1 - t]
                w.extend(f.mul(s, x) for x in partial[t])
            w = tuple(w)
            if X.apply(w) != tuple(f.mul(xi, x) for x in w):
                raise ConstructionError("eigenvector validation failed")
            pairs.append((xi, w))
    if len(pairs) != n:
        raise ConstructionError("expected %d eigenpairs, got %d" % (n, len(pairs)))
    return sorted(pairs, key=lambda p: f.sort_key(p[0]))


def generic_diagonalizable(field, v, avoid, seed: int = 0):
    """A diagonalizable map with distinct nonzero eigenvalues outside
    `avoid` whose eigenbasis sums to v; v then lies in no proper invariant
    subspace of the map.  Returns (matrix, eigenbasis, eigenvalues)."""
    v = tuple(v)
    n = len(v)
    f = field
    if all(x == f.zero for x in v):
        raise PreconditionFailed("v must be nonzero")
    avoid = set(avoid)
    rng = random.Random(seed)
    if f.finite:
        check_scan(f)
        pool = [x for x in f.nonzero_elements() if x not in avoid]
        if len(pool) < n:
            raise FieldTooSmall(
                "need %d eigenvalues outside the excluded set, have %d"
                % (n, len(pool))
            )
        betas = rng.sample(pool, n)
    else:
        pool = []
        i = 1
        while len(pool) < n + 3:
            c = f.from_int(i)
            if c not in avoid:
                pool.append(c)
            i += 1
        betas = rng.sample(pool, n)
    # complete v to a basis {v, v_1, .., v_(n-1)}, then v_n = v - sum v_i
    basis_head = random_independent(f, n, n - 1, rng, span=[v], max_draws=200 * n)
    if len(basis_head) < n - 1:
        raise ConstructionError("failed to complete v to a basis")
    vn = v
    for u in basis_head:
        vn = tuple(f.sub(a, b) for a, b in zip(vn, u))
    basis = basis_head + [vn]
    vmat = Matrix(f, [list(col) for col in basis]).transpose()
    fmat = vmat * Matrix.diagonal(f, betas) * vmat.inverse()
    for b, u in zip(betas, basis):
        if fmat.apply(u) != tuple(f.mul(b, x) for x in u):
            raise ConstructionError("eigenbasis validation failed")
    total = tuple(f.zero for _ in range(n))
    for u in basis:
        total = tuple(f.add(a, b) for a, b in zip(total, u))
    if total != v:
        raise ConstructionError("eigenbasis does not sum to v")
    rep = Representation(f, n, GROUP, [fmat])
    if spin(rep, [v]).dim != n:
        raise ConstructionError("v generates a proper invariant subspace")
    return fmat, basis, betas


def e1_wedge_subspace(field, n: int) -> Subspace:
    """The (n-1)-dimensional subspace e_1 ^ k^n of Lambda^2 k^n."""
    if n < 4:
        raise BadN("n must be at least 4")
    return _wedge_span(field, n, [(1, j) for j in range(2, n + 1)], n - 1)


def symplectic_form_matrix(field, n: int) -> Matrix:
    """The 2n x 2n form pairing e_i with e_(n+i): omega(e_i, e_(n+i)) = 1."""
    entries = [[field.zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        entries[i][n + i] = field.one
        entries[n + i][i] = field.neg(field.one)
    return Matrix(field, entries)


def split_orthogonal_form_matrix(field, n: int) -> Matrix:
    """Split symmetric form: e_i pairs with e_(k+i); odd n gets a trailing 1."""
    k = n // 2
    entries = [[field.zero] * n for _ in range(n)]
    for i in range(k):
        entries[i][k + i] = field.one
        entries[k + i][i] = field.one
    if n % 2:
        entries[n - 1][n - 1] = field.one
    return Matrix(field, entries)


def _basis_matrix(field, n, assign):
    entries = [[field.zero] * n for _ in range(n)]
    for (i, j), val in assign:
        entries[i][j] = val
    return Matrix(field, entries)


def lie_generators(family: str, n: int, field=QQ):
    """Spanning sets of the classical split Lie algebras.

    gl/sl/so_split take n as the matrix size; sp takes the half-dimension
    (matrices are 2n x 2n), matching the symplectic form e_i ^ e_(n+i).
    The so/sp outputs are verified against their stored bilinear forms.
    """
    if n < 1:
        raise BadN("n must be positive")
    one = field.one
    neg = field.neg
    if family == "gl":
        return [
            _basis_matrix(field, n, [((i, j), one)])
            for i in range(n)
            for j in range(n)
        ]
    if family == "sl":
        out = [
            _basis_matrix(field, n, [((i, j), one)])
            for i in range(n)
            for j in range(n)
            if i != j
        ]
        out.extend(
            _basis_matrix(field, n, [((i, i), one), ((i + 1, i + 1), neg(one))])
            for i in range(n - 1)
        )
        return out
    if family == "sp":
        # [[A, B], [C, -A^t]] with B, C symmetric, on the form e_i ^ e_(n+i)
        pairs = [(i, j) for i in range(n) for j in range(n)]
        pairs += [p for i in range(n) for j in range(i, n) for p in ((i, n + j), (n + i, j))]
        out = _form_algebra(field, symplectic_form_matrix(field, n), pairs)
        if len(out) != n * (2 * n + 1):
            raise ConstructionError("sp basis has %d elements" % len(out))
        return out
    if family == "so_split":
        k = n // 2
        pairs = [(i, j) for i in range(k) for j in range(k)]
        pairs += [p for i in range(k) for j in range(i + 1, k) for p in ((i, k + j), (k + i, j))]
        if n % 2:
            pairs += [p for i in range(k) for p in ((i, n - 1), (k + i, n - 1))]
        out = _form_algebra(field, split_orthogonal_form_matrix(field, n), pairs)
        if len(out) != n * (n - 1) // 2:
            raise ConstructionError("so basis has %d elements" % len(out))
        return out
    raise BadFamily("unknown family %r" % (family,))


def _form_algebra(field, form, pairs):
    """E_ab + theta(E_ab) for each (a, b) in `pairs`, where theta(X) =
    -F^-1 X^t F is the adjoint involution of the symmetric or alternating
    form F; its fixed points are the algebra {X : X^t F + F X = 0}, so each
    sum lies in it.  F is a signed permutation matrix, so F^-1 = F^t and
    theta(E_ab) is the single entry -F[a][a'] F[b][b'] at (b', a'), with a'
    the column of row a's nonzero entry.  When theta fixes E_ab, E_ab is
    the generator."""
    rows = form.rows
    col = [next(j for j, x in enumerate(row) if x != field.zero) for row in rows]
    out = []
    for a, b in pairs:
        entries = [[field.zero] * form.nrows for _ in rows]
        entries[a][b] = field.one
        c = field.neg(field.mul(rows[a][col[a]], rows[b][col[b]]))
        if (col[b], col[a]) != (a, b) or c != field.one:
            entries[col[b]][col[a]] = field.add(entries[col[b]][col[a]], c)
        out.append(Matrix(field, entries))
    _verify_form_compat(out, form)
    return out


def _verify_form_compat(mats, form):
    zero = Matrix.zero(form.field, form.nrows, form.ncols)
    for x in mats:
        if x.transpose() * form + form * x != zero:
            raise ConstructionError("generator violates the bilinear form")

"""Representations by generator matrices, invariant-subspace search, and the
thickness / denseness deciders with re-checkable certificates.

Complete decision procedures are scoped to finite fields under explicit
caps.  Over the rationals the module offers `absolute_irreducibility`
(complete, with a witness either way) and commutant-based decomposition
(complete for multiplicity-free split modules); thickness verdicts carry
their field scope and fall back to Unknown rather than overreach.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
import random
from dataclasses import InitVar, dataclass, field as dc_field, fields, replace
from math import comb

from .errors import (
    BadCaps,
    BadM,
    CapExceeded,
    ConstructionError,
    DimensionMismatch,
    PreconditionFailed,
    WrongField,
)
from .fields import DEFAULT_POINTS_CAP, GF, poly_roots
from .linalg import (
    Matrix,
    RowBasis,
    Subspace,
    charpoly,
    kernel,
    kernel_of_rows,
    unit_vector,
)
from .exterior import (
    RATIONAL_TRIALS,
    compound,
    derivation,
    field_tuples,
    perp,
    projective_coefficients,
    projective_count,
    projective_images,
    realizable_search,
    wedge_of_vectors,
)

GROUP = "group"
LIE = "lie"

THICK = "Thick"
NOT_THICK = "NotThick"
UNKNOWN = "Unknown"

YES = "Yes"
NO = "No"


@dataclass
class Caps:
    """Budgets for the complete decision procedures; THICKREP_CAPS (a JSON
    object in the environment) overrides individual fields.  `lattice_cap`
    bounds every lattice the criterion walks: the submodule lattice over a
    finite field and the isotypic sums over Q."""

    group_cap: int = 100_000
    points_cap: int = DEFAULT_POINTS_CAP
    submodule_points_cap: int = 50_000
    lattice_cap: int = 20_000
    pair_cap: int = 1_000_000
    candidate_cap: int = 2_000
    rational_trials: int = RATIONAL_TRIALS

    @classmethod
    def default(cls, overrides: str = "") -> "Caps":
        """The built-in caps, updated from THICKREP_CAPS and then from
        `overrides`; each is a JSON object mapping cap names to
        non-negative integers.  Raises BadCaps on anything else, such as
        an unknown name or a negative value."""
        caps = cls()
        names = {f.name for f in fields(cls)}
        for raw in (os.environ.get("THICKREP_CAPS", ""), overrides):
            if not raw:
                continue
            try:
                values = json.loads(raw)
            except ValueError:
                values = None
            if not isinstance(values, dict):
                raise BadCaps("caps %r are not a JSON object" % (raw,))
            for key, val in values.items():
                if key not in names:
                    raise BadCaps("unknown cap %r" % (key,))
                if type(val) is not int or val < 0:
                    raise BadCaps("cap %s=%r is not a non-negative integer" % (key, val))
                setattr(caps, key, val)
        return caps


@dataclass(frozen=True)
class Representation:
    """Generator matrices acting on k^dim, stored as a tuple.  The rep is
    immutable, so its lifts, lattices, Norton outcome, point action and
    commutant are memoised on it (`_memo`, written only by `_memoised`):
    they live and die with the object.  Only what depends on the field and
    dimensions alone is cached at module level (`_point_index`,
    `_pair_table`)."""

    field: object
    dim: int
    mode: str  # "group" | "lie"
    generators: tuple
    label: str = ""
    _lifted: InitVar[bool] = False  # built by exterior_rep from a checked rep
    _memo: dict = dc_field(default_factory=dict, init=False, compare=False,
                           hash=False, repr=False)

    def __post_init__(self, _lifted):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.mode not in (GROUP, LIE):
            raise PreconditionFailed("mode must be %r or %r" % (GROUP, LIE))
        if not self.generators:
            raise PreconditionFailed("at least one generator required")
        for g in self.generators:
            if g.nrows != self.dim or g.ncols != self.dim:
                raise DimensionMismatch("generator is not %dx%d" % (self.dim, self.dim))
            if g.field != self.field:
                raise WrongField("generator over a different field")
        # a compound of an invertible matrix is invertible
        if self.mode == GROUP and not _lifted:
            for g in self.generators:
                if not g.is_invertible():
                    raise PreconditionFailed("group generators must be invertible")


def _memoised(r: Representation, key, build, *args):
    """`r._memo[key]`, stored from `build(*args)` on the first call; the one
    writer of the memo.  A raised error is not memoised."""
    if key not in r._memo:
        r._memo[key] = build(*args)
    return r._memo[key]


def exterior_rep(r: Representation, m: int) -> Representation:
    """The induced action on Lambda^m: compound matrices in group mode,
    derivations in Lie mode.  Memoised on `r`; Lambda^1 is `r` itself."""
    if m < 0 or m > r.dim:
        raise BadM("m=%d out of range" % m)
    if m == 1:
        return r
    return _memoised(r, ("exterior", m), _exterior_lift, r, m)


def _exterior_lift(r: Representation, m: int) -> Representation:
    lift = compound if r.mode == GROUP else derivation
    return Representation(
        r.field, comb(r.dim, m), r.mode, [lift(g, m) for g in r.generators],
        label="%s_wedge%d" % (r.label or "rep", m), _lifted=True,
    )


def _span_closure(field, dim, seeds, moves) -> RowBasis:
    """The smallest subspace of k^dim that contains the seed vectors and is
    closed under the linear maps `moves`, found breadth-first as in Parker's
    spinning (1984): each vector that grows the span is moved once by every
    map, until no image grows it or it is all of k^dim."""
    basis = RowBasis(field, dim)
    queue = [v for v in seeds if basis.insert(v)]
    for v in queue:
        if basis.dim == dim:
            break
        for move in moves:
            w = move(v)
            if basis.insert(w):
                queue.append(w)
    return basis


def spin(r: Representation, seeds) -> Subspace:
    """Smallest invariant subspace containing the seed vectors."""
    seeds = [tuple(v) for v in seeds]
    for v in seeds:
        if len(v) != r.dim:
            raise DimensionMismatch("seed length %d != %d" % (len(v), r.dim))
    return _span_closure(r.field, r.dim, seeds, [g.apply for g in r.generators]).to_subspace()


def is_invariant(r: Representation, w: Subspace) -> bool:
    if w.ambient != r.dim:
        raise DimensionMismatch("subspace ambient %d != %d" % (w.ambient, r.dim))
    return all(
        w.contains_vector(g.apply(v)) for g in r.generators for v in w.basis_vectors()
    )


def _algebra_closure_dim(field, gens, n):
    """Dimension of the unital algebra the n x n matrices `gens` generate:
    the span closure of the identity, flattened row by row, under right
    multiplication by each generator.  Row i of a*g is g^T applied to row
    i of a."""
    def right_multiplication(g):
        image = g.transpose().apply
        return lambda a: tuple(itertools.chain.from_iterable(
            image(a[i:i + n]) for i in range(0, n * n, n)))

    ident = tuple(itertools.chain.from_iterable(Matrix.identity(field, n).rows))
    return _span_closure(field, n * n, [ident], list(map(right_multiplication, gens))).dim


# the candidate primes for reducing a rational rep in `_norton`
_REDUCTION_PRIMES = (101, 103, 107, 109, 113)


def _reduction_prime(gens):
    """The first of `_REDUCTION_PRIMES` that divides no denominator of a
    generator entry, or None when each divides one."""
    return next((p for p in _REDUCTION_PRIMES
                 if all(x.denominator % p for g in gens for row in g.rows for x in row)),
                None)


def burnside_dim(r: Representation) -> int:
    """Dimension of the unital matrix algebra generated by the generators,
    closed exactly by breadth-first products of the generators; equals
    dim^2 exactly when the representation is absolutely irreducible.
    `absolute_irreducibility` decides that question faster, with a
    witness."""
    return _algebra_closure_dim(r.field, r.generators, r.dim)


@dataclass(frozen=True)
class Decision:
    """The outcome of every decider: its verdict, the route that decided
    ("trivial" for Lambda^0 and Lambda^n), that route's witness as
    `certificate` (a NotThickCertificate on NotThick; each decider names
    the others), its counters and, when undecided, the reason.  Norton's
    are memoised and shared, so no caller may change a decision's log."""

    verdict: str
    route: str
    certificate: object = None
    log: dict = dc_field(default_factory=dict)
    reason: str = ""


def absolute_irreducibility(r: Representation) -> Decision:
    """Decide absolute irreducibility with a witness either way, by one
    ladder on every field.  First Norton's test (`_norton`): route "norton"
    (YES, its proof) or, over a finite field, "submodule" (NO, a proper
    invariant subspace).  Then "commutant" (NO, a non-scalar commuting
    matrix), since the commutant of M_N is the scalars (Schur); then
    "closure" (the dimension of the algebra, closed exactly)."""
    outcome = _norton(r)
    if outcome:
        return outcome
    cdim, cbasis = commutant(r)
    if cdim > 1:
        ident = Matrix.identity(r.field, r.dim)
        witness = next(b for b in cbasis if b != ident.scale(b.rows[0][0]))
        return Decision(NO, "commutant", witness)
    dim = _algebra_closure_dim(r.field, r.generators, r.dim)
    return Decision(YES if dim == r.dim ** 2 else NO, "closure", dim)


def _orbits(points, moves, cap=None):
    """The orbits of the maps `moves`, which permute a finite set of hashable
    points, on the iterable `points` (Holt, Eick & O'Brien 2005, 4.1).  Each
    orbit is a list in breadth-first order from its first point in
    iteration order.  Raises CapExceeded once an orbit has more than `cap`
    points."""
    seen = {}  # a set, kept as a dict: on 20160 points its table is a third the size
    orbits = []
    for start in points:
        if start in seen:
            continue
        seen[start] = None
        orbit = [start]
        for x in orbit:
            for move in moves:
                y = move(x)
                if y not in seen:
                    seen[y] = None
                    orbit.append(y)
                    if cap is not None and len(orbit) > cap:
                        raise CapExceeded("orbit exceeded %d points" % cap)
        orbits.append(orbit)
    return orbits


def _projective(f, x):
    """The nonzero vector x scaled so that its first nonzero entry is 1, as
    a tuple: the canonical point of its line."""
    zero = f.zero
    for lead in x:  # a loop, not next() on a generator: half the cost
        if lead != zero:
            break
    return tuple(x) if lead == f.one else tuple(f.scale(f.inv(lead), x))


def group_closure(r: Representation, cap: int):
    """All elements of the generated matrix group, by breadth-first products.

    The walk runs on row tuples: row i of a*g is g^T applied to row i of a,
    and each generator computes its image of a distinct row only once."""
    if r.mode != GROUP:
        raise PreconditionFailed("group closure needs group mode")
    moves = [
        lambda a, image=functools.cache(g.transpose().apply): tuple(map(image, a))
        for g in r.generators
    ]
    ident = Matrix.identity(r.field, r.dim)
    return [Matrix(r.field, a) for a in _orbits([ident.rows], moves, cap)[0]]


def _combination(f, coeffs, mats):
    """The matrix sum of coeffs[k] * mats[k], one `dot` per entry."""
    return Matrix(f, [
        [f.dot(coeffs, entries) for entries in zip(*rows)]
        for rows in zip(*(m.rows for m in mats))
    ])


_NORTON_SEED = 1984
_NORTON_TRIES = 8


def _norton_irreducible(r: Representation):
    """Norton's irreducibility test (Parker 1984; Holt & Rees 1994), with a
    witness either way.

    Draw theta from the span of the generators and their pairwise products,
    and look for an eigenvalue lambda in the field (from `poly_roots` of its
    charpoly) whose eigenspace is a line.  If that line spins to the whole
    space under the generators, and the line ker (theta - lambda)^T spins to
    the whole space under the transposed generators, the module is
    irreducible: a proper submodule U either contains the line, or
    theta - lambda is invertible on U and so singular on V/U, whose dual
    U^perp then contains the transposed line.  The same holds over every
    extension field, so the module is absolutely irreducible.

    Returns the Decision (YES, "norton", (theta's coefficients, lambda))
    when the test succeeds; (NO, "submodule", W) with W a proper invariant
    subspace when a spin is proper: the spin of an eigenvector, or the
    annihilator of the transposed line's spin, which the transposed
    generators leave invariant; and None when no theta among the fixed
    number of tries has a one-dimensional eigenspace.  Irreducible modules
    that are not absolutely irreducible always end in None, since their
    eigenspaces over the field have dimension divisible by the degree of
    the splitting extension.
    """
    f = r.field
    n = r.dim
    gens = r.generators
    # products among the first three generators only, so that large Lie
    # spanning sets add at most nine words
    words = list(gens) + [a * b for a in gens[:3] for b in gens[:3]]
    ident = Matrix.identity(f, n)
    rng = random.Random(_NORTON_SEED)
    for _ in range(_NORTON_TRIES):
        coeffs = tuple(f.random(rng) for _ in words)
        theta = _combination(f, coeffs, words)
        for lam, _ in poly_roots(charpoly(theta)):
            shifted = theta - ident.scale(lam)
            null = kernel(shifted)
            w = spin(r, null.basis_vectors()[:1])
            if w.dim < n:
                return Decision(NO, "submodule", w)
            if null.dim != 1:
                continue
            w = _span_closure(f, n, kernel(shifted.transpose()).basis_vectors(),
                              [g.transpose().apply for g in gens])
            if w.dim == n:
                return Decision(YES, "norton", (coeffs, lam))
            return Decision(NO, "submodule", w.to_subspace().annihilator())
    return None


def _norton(r: Representation):
    """Norton's test for `r` on every field, memoised on `r`: it reads the
    generators and the fixed `_NORTON_SEED` alone, no cap and no seed.

    Over a finite field it is `_norton_irreducible(r)`, and None when the
    field has more elements than `check_scan` lets the eigenvalue search
    walk.  Over Q it runs on the reduction mod the first of
    `_REDUCTION_PRIMES` that divides no denominator, and gives the
    Decision (YES, "norton", (p, theta's coefficients, lambda)) or None.
    The test's one-dimensional eigenspace proves the reduction absolutely
    irreducible over F_p, so the reduced words span all n^2 dimensions of
    M_n(F_p).  Words with entries in Z_(p) that are independent mod p are
    independent over Q, so the algebra over Q has dimension n^2 as well.
    The reduction is built in LIE mode, because a group generator may be
    singular mod p and spinning needs only the matrices.  None over Q
    means no proof: every candidate prime divides a denominator, or the
    test does not answer YES; a submodule of the reduction says nothing
    about `r`, which may not split over Q."""
    return _memoised(r, ("norton",), _norton_outcome, r)


def _norton_outcome(r: Representation):
    """`_norton(r)`, computed."""
    if r.field.finite:
        return _norton_irreducible(r) if r.field.order <= DEFAULT_POINTS_CAP else None
    p = _reduction_prime(r.generators)
    if p is None:
        return None
    F = GF(p)
    reduced = [Matrix(F, [[x.numerator * pow(x.denominator, -1, p) % p for x in row]
                          for row in g.rows]) for g in r.generators]
    outcome = _norton_irreducible(Representation(F, r.dim, LIE, reduced))
    if outcome and outcome.verdict == YES:
        return Decision(YES, "norton", (p, *outcome.certificate))


def all_submodules(r: Representation, caps: Caps | None = None):
    """The complete lattice of invariant subspaces over a finite field;
    sorted by (dim, canonical basis).  Raises CapExceeded when the
    projective point count exceeds `submodule_points_cap` or the lattice
    has more than `lattice_cap` elements.

    A line is irreducible and needs no search.  Otherwise, after the
    projective-point cap check, Norton's test (`_norton`, memoised on `r`)
    tries to prove the module irreducible and then returns [0, V] at once.
    It falls through to `_enumerate_submodules` when it finds a proper
    invariant subspace (the module is reducible), when none of its fixed
    number of seeded tries finds a one-dimensional eigenspace, which always
    happens for irreducible modules that are not absolutely irreducible,
    or when the field is too large for its eigenvalue search.

    The lattice is memoised on `r`, keyed on the two caps it reads; each
    call returns a fresh list, and a raised error is not memoised.
    """
    caps = caps or Caps.default()
    key = ("lattice", caps.submodule_points_cap, caps.lattice_cap)
    return list(_memoised(r, key, _submodule_lattice, r, caps))


def _submodule_lattice(r: Representation, caps: Caps):
    f = r.field
    if not f.finite:
        raise WrongField("all_submodules requires a finite field")
    n = r.dim
    if n == 0:
        return [Subspace.zero(f, 0)]
    npts = projective_count(f.order, n)
    if npts > caps.submodule_points_cap:
        raise CapExceeded("projective point count %d exceeds cap" % npts)
    if caps.lattice_cap >= 2 and (n == 1 or getattr(_norton(r), "verdict", NO) == YES):
        return [Subspace.zero(f, n), Subspace.full(f, n)]
    return _enumerate_submodules(r, caps)


@functools.lru_cache(maxsize=16)
def _point_index(f, n: int):
    """The projective points of k^n as a dict from each point to its index
    in `projective_coefficients` order; it depends on (field, n) only and
    is shared, so callers must not change it."""
    return {v: i for i, v in enumerate(projective_coefficients(f, n))}


def _point_permutations(f, n: int, gens):
    """`_point_index(f, n)`, and for each matrix of `gens` the permutation
    of the indices that it induces: its images of all points by linearity
    (`projective_images`), each scaled to its first nonzero entry 1 and
    looked up once."""
    index = _point_index(f, n)
    return index, [[index[_projective(f, x)] for x in projective_images(g)] for g in gens]


def _point_action(r: Representation):
    """`_point_permutations` of the generators of `r`, memoised on `r`: it
    depends on the generators alone, not on any cap or seed."""
    return _memoised(r, ("point_action",), _point_permutations, r.field, r.dim, r.generators)


def _enumerate_submodules(r: Representation, caps: Caps):
    """The lattice as the join-closure of the cyclic submodules.

    Every submodule is a finite sum of cyclic ones, spin(v).  One spin per
    projective G-orbit finds them all in group mode: the generated group G
    lies in GL_n(F_q), so it is finite and each g^-1 is a power of g.  For
    g in G and c != 0, spin(v) is invariant and contains c.g.v, and
    v = c^-1.g^-1.(c.g.v) lies in spin(c.g.v); so the two spins are equal.
    So only the first point of each orbit of `_orbits` on the canonical
    projective points is spun, and the orbits are walked on the indices
    that `_point_action` gives the points.  Lie generators need not be
    invertible, so in Lie mode there are no moves and every point is its
    own orbit.

    Their join closure (`_join_closure`) is the lattice; CapExceeded comes
    as soon as it has more than `lattice_cap` elements.
    """
    f = r.field
    n = r.dim
    index, perms = _point_action(r) if r.mode == GROUP else (_point_index(f, n), ())
    points = list(index)
    cyclic = {}
    for orbit in _orbits(range(len(points)), [p.__getitem__ for p in perms]):
        w = spin(r, [points[orbit[0]]])
        cyclic.setdefault(w.mat.rows, w)
    parts = sorted(cyclic.values(), key=Subspace.key)
    return _join_closure(Subspace.zero(f, n), parts, caps.lattice_cap)


def _join_closure(bottom: Subspace, parts, cap: int):
    """The subspaces that are sums of some of `parts`, bottom included,
    sorted: the smallest set that holds `bottom` and is closed under sums
    with each part.  It adds one part C at a time: when L contains 0 and
    is closed under sums, L u {X + C : X in L} is the closure of L u {C}.
    Raises CapExceeded as soon as it has more than `cap` elements.

    Each element is stored under its `Subspace.key`, computed once: the
    dict hashes that tuple of ints in C and the final sort reads it.  A sum
    that returns X itself (C lies in X) is already stored, and one that
    returns C itself reuses C's key."""
    lattice = {bottom.key(): bottom}
    for c in parts:
        c_key = c.key()
        if c_key in lattice:
            continue
        for x in list(lattice.values()):
            s = x.sum(c)
            if s is not x:
                lattice.setdefault(c_key if s is c else s.key(), s)
                if len(lattice) > cap:
                    raise CapExceeded("submodule lattice exceeded cap")
    return [lattice[key] for key in sorted(lattice)]


def _is_diagonal(m: Matrix) -> bool:
    z = m.field.cmp_zero
    return all(
        m.rows[i][j] == z for i in range(m.nrows) for j in range(m.ncols) if i != j
    )


def commutant(r: Representation):
    """(dimension, matrix basis) of {M : Mg = gM for every generator},
    memoised on `r`: it reads the generators alone.  Each call returns a
    fresh list."""
    basis = _memoised(r, ("commutant",), _commutant_basis, r)
    return len(basis), list(basis)


def _commutant_basis(r: Representation):
    """The solve behind `commutant`: a tuple of basis matrices.

    Diagonal generators are handled combinatorially first: they force
    M[i][j] = 0 whenever positions i and j have different joint eigenvalue
    signatures, which keeps the linear solve small for split Lie examples.
    With no diagonal generator every signature is empty and every position
    stays.
    """
    f = r.field
    n = r.dim
    diag = [g for g in r.generators if _is_diagonal(g)]
    others = [g for g in r.generators if not _is_diagonal(g)]
    sig = [tuple(g.rows[i][i] for g in diag) for i in range(n)]
    positions = [(i, j) for i in range(n) for j in range(n) if sig[i] == sig[j]]
    pos_index = {pos: k for k, pos in enumerate(positions)}
    nvars = len(positions)
    rows = []
    zero, cmp_zero = f.zero, f.cmp_zero
    for g in others:
        grows = g.rows
        for i in range(n):
            for j in range(n):
                row = [zero] * nvars
                nonzero = False
                for k in range(n):
                    # (Mg - gM)[i][j]: M[i][k] g[k][j] - g[i][k] M[k][j]
                    c = grows[k][j]
                    if c != cmp_zero and (i, k) in pos_index:
                        idx = pos_index[(i, k)]
                        row[idx] = f.add(row[idx], c)
                        nonzero = True
                    c = grows[i][k]
                    if c != cmp_zero and (k, j) in pos_index:
                        idx = pos_index[(k, j)]
                        row[idx] = f.sub(row[idx], c)
                        nonzero = True
                if nonzero:
                    rows.append(row)
    basis = []
    for vec in kernel_of_rows(f, rows, nvars).basis_vectors():
        entries = [[zero] * n for _ in range(n)]
        for (i, j), c in zip(positions, vec):
            entries[i][j] = c
        basis.append(Matrix(f, entries))
    return tuple(basis)


_ISOTYPIC_TRIES = 8


def isotypic_decomposition(r: Representation, seed: int = 0):
    """Eigenspace decomposition from a random commutant element.

    Each of `_ISOTYPIC_TRIES` seeded tries draws E from the commutant C,
    of dimension c.  The try succeeds when E has c distinct eigenvalues in
    the field and their eigenspaces E_1..E_c sum to the whole module; they
    are then its unique invariant summands.  Proof: each E_i is a submodule,
    since E commutes with the action, so the c projections onto them are
    independent idempotents of C.  As dim C = c, C is their span, so C is
    k^c: commutative, with End(E_i) = k and Hom(E_i, E_j) = 0 for i != j.
    The module is multiplicity-free and E diagonalizable, and no other
    check is needed.  (The count alone forces the sum: the generalized
    eigenspaces and the part where the charpoly does not split are
    submodules with an identity each in C; the sum is kept as the split's
    witness.)  A commutant that is not commutative passes no try; a draw
    that does not commute with the first basis matrix shows this at once,
    and the search returns None.  Returns None when no try succeeds.
    """
    f = r.field
    n = r.dim
    cdim, cbasis = commutant(r)
    if cdim <= 1:
        # the zero module (c = 0) has no summand
        return [Subspace.full(f, n)] if cdim else []
    ident = Matrix.identity(f, n)
    rng = random.Random(seed)
    for _ in range(_ISOTYPIC_TRIES):
        elem = _combination(f, [f.random(rng) for _ in cbasis], cbasis)
        if elem * cbasis[0] != cbasis[0] * elem:
            return None
        roots = poly_roots(charpoly(elem))
        if len(roots) != cdim:
            continue
        eig = [kernel(elem - ident.scale(a)) for a, _ in roots]
        # the split's witness: the eigenspaces fill the module
        if sum(e.dim for e in eig) == n:
            return sorted(eig, key=Subspace.key)
    return None


def restrict_to_invariant(r: Representation, w: Subspace) -> Representation:
    """The action of the generators on an invariant subspace, in the
    coordinates of its canonical basis."""
    f = r.field
    rows = w.basis_vectors()
    gens = []
    for g in r.generators:
        cols = []
        for v in rows:
            img = g.apply(v)
            if not w.contains_vector(img):
                raise PreconditionFailed("subspace is not invariant")
            cols.append(w.coordinates(img))
        gens.append(Matrix(f, list(zip(*cols))))
    return Representation(f, w.dim, r.mode, gens, label=(r.label or "rep") + "_restr")


def decide_m_dense(r: Representation, m: int, absolute: bool = True,
                   caps: Caps | None = None) -> Decision:
    """Is Lambda^m of the representation irreducible?  "Yes" / "No" /
    "Unknown", decided by `absolute_irreducibility` of Lambda^m in absolute
    mode.  Non-absolute mode is exact over finite fields: after the
    projective-point cap check, Norton's test decides with a witness
    either way, and only when it finds none does the route "lattice", the
    complete submodule lattice, with a smallest proper submodule as the
    witness of No.  Over Q an absolutely irreducible Lambda^m still
    certifies "Yes" and anything else is "Unknown"."""
    n = r.dim
    if m < 0 or m > n:
        raise BadM("m=%d out of range" % m)
    if m == 0 or m == n:
        return Decision(YES, "trivial")
    caps = caps or Caps.default()
    ext = exterior_rep(r, m)
    if r.field.finite and not absolute:
        if projective_count(r.field.order, ext.dim) > caps.submodule_points_cap:
            return Decision(UNKNOWN, "lattice", reason="projective point count exceeds cap")
        if _norton(ext):
            return absolute_irreducibility(ext)  # Norton's memoised decision
        try:
            subs = all_submodules(ext, caps)
        except CapExceeded as e:
            return Decision(UNKNOWN, "lattice", reason=str(e))
        return Decision(YES, "lattice") if len(subs) == 2 else Decision(NO, "lattice", subs[1])
    decision = absolute_irreducibility(ext)
    if absolute or decision.verdict == YES:
        return decision
    return replace(decision, verdict=UNKNOWN, reason="not absolutely irreducible over Q")


def is_m_dense(r: Representation, m: int, absolute: bool = True,
               caps: Caps | None = None) -> str:
    """The verdict of `decide_m_dense`: "Yes" / "No" / "Unknown"."""
    return decide_m_dense(r, m, absolute, caps).verdict


# thickness machinery


@dataclass
class NotThickCertificate:
    """Everything needed to re-check a refutation with exterior/linalg only:
    invariant W1 in Lambda^m and W2 = W1-perp in Lambda^(n-m), plus vector
    witnesses whose wedges exhibit realizability of each side."""

    field: object
    n: int
    m: int
    w1: Subspace
    w2: Subspace
    witness1: tuple  # m vectors in k^n
    witness2: tuple  # n-m vectors in k^n
    pair: tuple | None = None  # (V1, V2) subspace pair for definition refutations


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise ConstructionError("Gaussian binomial quotient is not integral")
    return num // den


def enumerate_subspaces(field, n: int, k: int):
    """All k-dim subspaces of k^n over a finite field, lazily, via canonical
    RREF profiles: pivot columns in lex order, then free entries."""
    zero, one = field.zero, field.one
    for pivots in itertools.combinations(range(n), k):
        pivset = set(pivots)
        free_cells = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivset
        ]
        for values in field_tuples(field, len(free_cells)):
            rows = [[zero] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = one
            for (i, j), v in zip(free_cells, values):
                rows[i][j] = v
            yield Subspace(field, n, Matrix(field, rows), tuple(pivots))


@functools.lru_cache(maxsize=16)
def _pair_table(f, n: int, m: int):
    """(m-subspaces, points, frames, incident, complements, through) for
    the definition decider; it depends on (field, n, m) only.  Both lists
    of subspaces come in `enumerate_subspaces` order.  The points of a
    subspace are the indices of the projective points of k^n it contains,
    in `projective_coefficients` order.  With an RREF basis b_1..b_m the
    points are b_i + sum_{j>i} c_j b_j, whose first nonzero entry is
    already 1, so `projective_images` lists them at one `axpy` each; the
    rows b_i are points themselves, and frames[k][i] is the index of row k
    of subspace i.  incident[p] has bit i set when m-subspace i contains
    point p, and through[p] has bit j set when complement j contains it.
    When n = 2m the complements are the m-subspaces and through is
    incident."""
    index = _point_index(f, n)

    def points_of(v):
        return tuple(index[tuple(x)] for x in projective_images(Matrix(f, zip(*v.mat.rows))))

    subspaces = tuple(enumerate_subspaces(f, n, m))
    points = tuple(map(points_of, subspaces))
    frames = tuple(zip(*(map(index.__getitem__, v.mat.rows) for v in subspaces)))
    incident = _incidence(len(index), len(points), points)
    if 2 * m == n:
        return subspaces, points, frames, incident, subspaces, incident
    complements = tuple(enumerate_subspaces(f, n, n - m))
    through = _incidence(len(index), len(complements), map(points_of, complements))
    return subspaces, points, frames, incident, complements, through


def _incidence(npoints: int, nsets: int, point_lists):
    """For each of `npoints` points, the int with bit j set when the j-th
    of the `nsets` lists of `point_lists` holds that point.  One bytearray
    per point is converted once: an int |= would copy every bit at each
    incidence."""
    rows = [bytearray((nsets + 7) // 8) for _ in range(npoints)]
    for j, pts in enumerate(point_lists):
        byte, bit = j >> 3, 1 << (j & 7)
        for p in pts:
            rows[p][byte] |= bit
    return tuple(int.from_bytes(row, "little") for row in rows)


def _subspace_permutations(r: Representation, frames, incident):
    """For each generator, the permutation of subspace indices it induces on
    the subspaces of `_pair_table` with these `frames` and `incident`: it
    permutes the points of k^n, and m independent points lie in exactly
    one m-subspace, so subspace i moves to the lowest (and only) subspace
    that contains the images of all its frame points."""
    _, perms = _point_action(r)
    first, *rest = frames
    moves = []
    for perm in perms:
        moved = [incident[p] for p in perm].__getitem__
        common = map(moved, first)
        for col in rest:
            common = map(operator.and_, common, map(moved, col))
        # c ^ (c - 1) has the bits up to the lowest set bit of c: no
        # negative int, which & would first convert
        moves.append([(c ^ (c - 1)).bit_length() - 1 for c in common])
    return moves


def is_m_thick_definition(r: Representation, m: int,
                          caps: Caps | None = None) -> Decision:
    """Decide m-thickness over a finite field straight from the definition:
    every (V1, V2) pair must admit a group element with rho(g)V1 + V2 = V.

    The group acts on m-subspaces through orbits, so the existential over
    group elements is decided by scanning the orbit of V1 under the
    generators; verdicts are identical to enumerating group elements and
    the group itself is never materialized.  A subspace is the list of the
    projective points of k^n it contains, from `_pair_table`, which is
    built once per (field, n, m) after the pair cap check.  The generators'
    permutations of the points are memoised on `r` (`_point_action`),
    `_subspace_permutations` turns them into permutations of the subspace
    indices, and the orbits are walked on those.  Since dim V1 + dim V2 = n,
    V1 + V2 = V exactly when V1 and V2 share no point.  So the complements
    that meet V1 are the OR of `through` over V1's points, and an orbit
    refutes when the AND of these over the orbit is nonzero; its lowest bit
    is the first such complement.  Both verdicts carry the same log
    counters, and `pairs_checked` counts the pairs that a test of one
    complement at a time would make.  The route is "orbits".
    """
    caps = caps or Caps.default()
    if r.mode != GROUP:
        raise PreconditionFailed("definition decider needs group mode")
    f = r.field
    if not f.finite:
        raise WrongField("definition decider needs a finite field")
    n = r.dim
    if m < 0 or m > n:
        raise BadM("m=%d out of range" % m)
    if m == 0 or m == n:
        return Decision(THICK, "trivial", log={"trivial": True})
    q = f.order
    n1 = gaussian_binomial(n, m, q)
    n2 = gaussian_binomial(n, n - m, q)
    if n1 * n2 > caps.pair_cap:
        raise CapExceeded("pair enumeration %d x %d exceeds cap" % (n1, n2))
    subspaces, points, frames, incident, complements, through = _pair_table(f, n, m)
    moves = _subspace_permutations(r, frames, incident)
    orbits = _orbits(range(n1), [p.__getitem__ for p in moves])
    log = {
        "m_subspaces": n1,
        "complement_subspaces": n2,
        "points": projective_count(q, n),
        "orbits": len(orbits),
        "orbit_sizes": sorted(len(o) for o in orbits),
        "pairs_checked": 0,
    }
    for orbit in orbits:
        common = -1
        for i in orbit:
            common &= functools.reduce(operator.or_, map(through.__getitem__, points[i]))
            if not common:
                break
        if common:
            j = (common & -common).bit_length() - 1
            log["pairs_checked"] += j + 1
            v1 = min((subspaces[i] for i in orbit), key=Subspace.key)
            return Decision(NOT_THICK, "orbits",
                            _certificate_from_pair(r, m, v1, complements[j]), log)
        log["pairs_checked"] += n2
    return Decision(THICK, "orbits", log=log)


def _certificate_from_pair(r, m, v1: Subspace, v2: Subspace) -> NotThickCertificate:
    f = r.field
    n = r.dim
    x = wedge_of_vectors(f, n, v1.basis_vectors())
    ext = exterior_rep(r, m)
    w1 = spin(ext, [x.coords])
    w2 = perp(w1, n, m)
    y = wedge_of_vectors(f, n, v2.basis_vectors())
    if not w2.contains_vector(y.coords):
        raise ConstructionError("failing pair did not yield a perp witness")
    return NotThickCertificate(
        field=f, n=n, m=m, w1=w1, w2=w2,
        witness1=tuple(v1.basis_vectors()),
        witness2=tuple(v2.basis_vectors()),
        pair=(v1, v2),
    )


def is_m_thick_criterion(r: Representation, m: int, caps: Caps | None = None,
                         seed: int = 0) -> Decision:
    """Decide m-thickness via invariant realizable subspace pairs: the
    representation fails to be m-thick exactly when some invariant
    W1 <= Lambda^m and its perp W2 are both realizable.

    One pair test runs over invariant W1 candidates from one of three
    sources, in order of preference: the complete submodule lattice
    (finite field, within caps), the isotypic sums of a multiplicity-free
    module with absolutely irreducible summands (over Q, at most
    `lattice_cap` sums), and the spins of wedges of m-subspaces V1, each
    with V1 as its witness.  The first two list every invariant subspace.
    The spins are complete for refutations: if any realizable invariant
    pair exists, the spin of a decomposable witness of W1 is an invariant
    realizable subspace whose perp contains W2, so some m-subspace V1
    already exhibits the failure; they are exhausted over a finite field
    with at most `candidate_cap` m-subspaces.  W1 = 0 is not realizable
    and the perp of W1 = Lambda^m is 0, so neither pair can refute or stay
    undecided: both are skipped before any search or perp, and
    log["pairs_tested"] counts the candidates left.  The source is the
    route, "lattice", "isotypic" or "spin", also in the log.
    """
    caps = caps or Caps.default()
    f = r.field
    n = r.dim
    if m < 0 or m > n:
        raise BadM("m=%d out of range" % m)
    if m == 0 or m == n:
        return Decision(THICK, "trivial", log={"trivial": True})
    ext = exterior_rep(r, m)

    subs = None
    if f.finite:
        try:
            subs, route = all_submodules(ext, caps), "lattice"
        except CapExceeded:
            pass
    else:
        subs, route = _isotypic_sums(ext, caps, seed), "isotypic"
    if subs is not None:
        log = {"route": route, "submodules": len(subs), "pairs_tested": 0}
        candidates = ((w1, None) for w1 in subs)
        complete = True
    else:
        route = "spin"
        log = {"route": route, "candidates": 0, "pairs_tested": 0}
        candidates = _spin_candidates(r, ext, m, caps, seed, log)
        complete = f.finite and gaussian_binomial(n, m, f.order) <= caps.candidate_cap

    def search(w, k):
        return realizable_search(w, n, k, points_cap=caps.points_cap, seed=seed,
                                 rational_trials=caps.rational_trials)

    unresolved = 0
    for w1, witness1 in candidates:
        if w1.dim in (0, ext.dim):
            continue
        log["pairs_tested"] += 1
        if witness1 is None:
            r1 = search(w1, m)
            if r1.status == "NotRealizable":
                continue
            witness1 = r1.witness_vectors
        w2 = perp(w1, n, m)
        r2 = search(w2, n - m)
        if witness1 is not None and r2.status == "Realizable":
            return Decision(NOT_THICK, route, NotThickCertificate(
                field=f, n=n, m=m, w1=w1, w2=w2,
                witness1=tuple(witness1), witness2=tuple(r2.witness_vectors),
            ), log)
        if r2.status != "NotRealizable":
            unresolved += 1
    reason = ""
    if not complete:
        reason = "candidate search not exhaustive"
    elif unresolved:
        reason = "%d %s with undecided realizability" % (
            unresolved, "perps" if route == "spin" else "invariant pairs"
        )
    return Decision(UNKNOWN if reason else THICK, route, log=log, reason=reason)


def _isotypic_sums(ext: Representation, caps: Caps, seed: int):
    """Every invariant subspace of a multiplicity-free module whose s
    summands are absolutely irreducible: the 2^s sums of its summands
    (`_join_closure`), sorted.  None when the module is not of that kind,
    when 2^s exceeds `lattice_cap`, and at once when the cap is below the
    two elements of any lattice.  An absolutely irreducible module is its
    one summand.  Any other module cannot be its own one summand, and its
    decomposition reads the commutant that `absolute_irreducibility`
    memoised when it solved one.

    The decomposition for `seed` is memoised on `ext` under
    ("isotypic", seed), and the verdict on its summands under
    ("isotypic", seed, "summands"): neither reads a cap.  They are two
    entries so that the lattice size is checked against the cap before
    any summand is decided."""
    if caps.lattice_cap < 2:
        return None
    bottom = Subspace.zero(ext.field, ext.dim)
    if absolute_irreducibility(ext).verdict == YES:
        return [bottom, Subspace.full(ext.field, ext.dim)]
    dec = _memoised(ext, ("isotypic", seed), isotypic_decomposition, ext, seed)
    if dec is None or len(dec) < 2 or 2 ** len(dec) > caps.lattice_cap:
        return None
    if not _memoised(ext, ("isotypic", seed, "summands"), _summands_absolutely_irreducible,
                     ext, dec):
        return None
    return _join_closure(bottom, dec, caps.lattice_cap)


def _summands_absolutely_irreducible(ext: Representation, dec) -> bool:
    """Is every summand of the decomposition `dec` of `ext` absolutely
    irreducible?  Each is restricted and decided once."""
    return all(absolute_irreducibility(restrict_to_invariant(ext, e)).verdict == YES
               for e in dec)


def _spin_candidates(r, ext, m, caps: Caps, seed: int, log: dict):
    """(spin of wedge V1, basis of V1) for each m-subspace V1 whose spin is
    new: every one over a finite field, the coordinate and seeded random
    ones over the rationals.  Counts the subspaces into log["candidates"]
    and stops past `candidate_cap`."""
    f = r.field
    n = r.dim
    if f.finite:
        subspaces = enumerate_subspaces(f, n, m)
    else:
        subspaces = _rational_candidate_subspaces(f, n, m, caps, seed)
    seen = set()
    for v1 in subspaces:
        log["candidates"] += 1
        if log["candidates"] > caps.candidate_cap:
            return
        basis = v1.basis_vectors()
        w1 = spin(ext, [wedge_of_vectors(f, n, basis).coords])
        if w1.mat.rows not in seen:
            seen.add(w1.mat.rows)
            yield w1, basis


def _rational_candidate_subspaces(f, n, m, caps: Caps, seed: int):
    for combo in itertools.combinations(range(n), m):
        yield Subspace.from_vectors(f, n, [unit_vector(f, n, i) for i in combo])
    rng = random.Random(seed)
    for _ in range(caps.rational_trials):
        vecs = [[f.random(rng) for _ in range(n)] for _ in range(m)]
        w = Subspace.from_vectors(f, n, vecs)
        if w.dim == m:
            yield w


def verify_not_thick_certificate(r: Representation, cert: NotThickCertificate) -> bool:
    """Independent re-check of a refutation using exterior/linalg operations:
    invariance of both sides, the perp relation, both wedge witnesses, and
    that a `pair`, when present, is the pair of spans of the witnesses.  A
    certificate of the wrong shape does not verify."""
    f, n, m = cert.field, cert.n, cert.m
    if f != r.field or n != r.dim or not 0 < m < n:
        return False
    if len(cert.witness1) != m or len(cert.witness2) != n - m:
        return False
    if any(len(v) != n for v in (*cert.witness1, *cert.witness2)):
        return False
    if cert.pair is not None and tuple(cert.pair) != (
        Subspace.from_vectors(f, n, cert.witness1),
        Subspace.from_vectors(f, n, cert.witness2),
    ):
        return False
    if cert.w1.ambient != comb(n, m) or cert.w2.ambient != comb(n, n - m):
        return False
    if not is_invariant(exterior_rep(r, m), cert.w1):
        return False
    if not is_invariant(exterior_rep(r, n - m), cert.w2):
        return False
    if perp(cert.w1, n, m) != cert.w2:
        return False
    x = wedge_of_vectors(f, n, cert.witness1)
    if x.is_zero() or not cert.w1.contains_vector(x.coords):
        return False
    y = wedge_of_vectors(f, n, cert.witness2)
    if y.is_zero() or not cert.w2.contains_vector(y.coords):
        return False
    return True


@dataclass
class RNumberBounds:
    n: int
    m: int
    lower: int
    upper: int
    exact: int | None = None


def r_number_bounds(n: int, m: int) -> RNumberBounds:
    """Bounds for the minimal dimension of an invariant realizable subspace
    of Lambda^m over all n-dimensional irreducible representations."""
    if m < 0 or m > n:
        raise BadM("m=%d out of range for n=%d" % (m, n))
    if m == 0 or m == n:
        return RNumberBounds(n, m, 1, 1, 1)
    k = min(m, n - m)
    lower = (n - 1) // k + 1
    upper = n
    exact = None
    if n % m == 0:
        exact = n // m
    elif n % (n - m) == 0:
        exact = n // (n - m)
    elif n == 5 and m in (2, 3):
        exact = 4
    if exact is not None and not lower <= exact <= upper:
        raise ConstructionError("r-number %d outside [%d, %d]" % (exact, lower, upper))
    return RNumberBounds(n, m, lower, upper, exact)

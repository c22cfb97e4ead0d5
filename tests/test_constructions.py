import random
import time

import pytest

from thickrep.errors import (
    BadN,
    ConstructionError,
    FieldTooSmall,
    PreconditionFailed,
    ScaleExceeded,
)
from thickrep.fields import GF, QQ
from thickrep.linalg import Matrix, Subspace
from thickrep.exterior import WedgeVector, is_decomposable
from thickrep.repcore import (
    GROUP,
    Representation,
    burnside_dim,
    exterior_rep,
    is_invariant,
    r_number_bounds,
    spin,
)
from thickrep.constructions import (
    BlockRepSpec,
    _wedge_span,
    block_eigenvectors,
    block_rep,
    build_block_rep,
    companion_pair,
    e1_wedge_subspace,
    generic_diagonalizable,
    lie_generators,
    suggest_block_field,
    symplectic_form_matrix,
    split_orthogonal_form_matrix,
)


def test_companion_pair_burnside_absolutely_irreducible():
    res = companion_pair(QQ, 4, QQ.from_int(2), QQ.from_int(3))
    assert burnside_dim(res.rep) == 16
    assert res.roots_available is False  # no four rational 4th roots of 2


def test_companion_pair_windows():
    res = companion_pair(QQ, 4, QQ.from_int(2), QQ.from_int(3))
    w2 = res.windows[2]
    assert w2.dim == 4
    ext = exterior_rep(res.rep, 2)
    assert is_invariant(ext, w2)
    assert w2.contains_vector(WedgeVector.basis_element(QQ, 4, (1, 2)).coords)


def test_companion_pair_equal_scalars_rejected():
    with pytest.raises(PreconditionFailed):
        companion_pair(QQ, 3, QQ.from_int(2), QQ.from_int(2))


def test_companion_pair_roots_available_over_f5():
    # x^4 = a has 4 solutions in F_5 exactly when a = 1
    res = companion_pair(GF(5), 4, 1, 2)
    assert res.roots_available is False


def test_companion_pair_roots_available_over_a_large_prime():
    # 2**61 - 2 = 2 * (2**60 - 1): 4 and 9 have two square roots, none has four fourth roots
    field = GF(2**61 - 1)
    t0 = time.perf_counter()
    assert companion_pair(field, 2, 4, 9).roots_available is True
    assert companion_pair(field, 2, 4, 3).roots_available is False
    assert companion_pair(field, 4, 1, 16).roots_available is False
    assert time.perf_counter() - t0 < 2.0


def test_constructions_refuse_scans_of_a_large_field():
    field = GF(2**61 - 1)
    for build in (
        lambda: build_block_rep(2, 2, field),
        lambda: build_block_rep(2, 2, field, alphas=(1, 4), betas=(9, 16)),
        lambda: BlockRepSpec(2, 2, (1, 4), Matrix.identity(field, 2), field),
        # the eigenvalue pool lists the field: refused just past the bound
        lambda: generic_diagonalizable(GF(1_000_003), (1, 1), {1}, seed=3),
    ):
        with pytest.raises(ScaleExceeded):
            build()


def test_block_rep_over_q_needs_alphas_and_betas():
    # the ell-th powers are listed only to choose missing alphas or betas,
    # which Q cannot do; given both, Q builds like any field
    for alphas, betas in ((None, None), ((1, 4), None), (None, (9, 16))):
        with pytest.raises(PreconditionFailed):
            build_block_rep(2, 2, QQ, alphas=alphas, betas=betas)
    res = build_block_rep(2, 2, QQ, alphas=(1, 4), betas=(9, 16))
    assert res.cramer_checked and res.cramer_nonzero
    assert burnside_dim(res.rep) == 16


def test_suggest_block_field():
    assert suggest_block_field(2, 2).p == 13


@pytest.fixture
def draws(monkeypatch):
    """The arguments of every random basis the constructions draw."""
    import thickrep.constructions as cons

    calls = []
    draw = cons.random_invertible
    monkeypatch.setattr(cons, "random_invertible", lambda *a: calls.append(a) or draw(*a))
    return calls


def test_impossible_block_and_companion_sizes_are_refused_before_any_draw(draws):
    # block sizes below 2 once divided by zero (ell = 0), searched primes
    # forever (ell < 0) or drew every basis first (ell or m = 1); n = 0
    # once reached the generator's shape check
    t0 = time.perf_counter()
    for ell, m in ((0, 2), (-1, 2), (1, 2), (2, 1), (2, 0)):
        with pytest.raises(PreconditionFailed, match="^ell and m must be at least 2$"):
            build_block_rep(ell, m)
        with pytest.raises(PreconditionFailed):
            build_block_rep(ell, m, GF(13), alphas=(1, 4), betas=(3, 9))
        with pytest.raises(PreconditionFailed):
            suggest_block_field(ell, m)
    for n in (0, -1):
        with pytest.raises(BadN):
            companion_pair(QQ, n, QQ.from_int(2), QQ.from_int(3))
    assert draws == []
    assert time.perf_counter() - t0 < 1.0


def test_invariance_checks_past_the_desk_scale_are_refused(draws):
    # the lift to Lambda^m costs C(n, m)^2 minors per generator, so a rep
    # on more than 9 dimensions is refused before it is lifted
    F2 = GF(2)
    lines = [(i,) for i in range(1, 11)]
    shift = Matrix(F2, [[int(j == (i - 1) % 9) for j in range(9)] for i in range(9)])
    assert _wedge_span(F2, 9, lines[:9], 9, Representation(F2, 9, GROUP, [shift])).dim == 9
    wide = Representation(F2, 10, GROUP, [Matrix.identity(F2, 10)])
    with pytest.raises(ScaleExceeded):
        _wedge_span(F2, 10, lines, 10, wide)
    # without a rep nothing is lifted, so any n is checked
    assert e1_wedge_subspace(QQ, 12).dim == 11
    t0 = time.perf_counter()
    with pytest.raises(ScaleExceeded):
        companion_pair(QQ, 10, QQ.from_int(2), QQ.from_int(3))
    # a 5 x 2 block rep reaches the lift on its first draw and is not retried
    with pytest.raises(ScaleExceeded):
        build_block_rep(5, 2, GF(31), alphas=(1, 5), betas=(6, 25))
    assert len(draws) == 1
    assert time.perf_counter() - t0 < 1.0


def test_block_rep_2x2_f13():
    F13 = GF(13)
    res = build_block_rep(2, 2, F13, alphas=(1, 4), betas=(3, 9), seed=0)
    assert res.rep.dim == 4
    assert burnside_dim(res.rep) == 16
    assert res.w.dim == 2
    assert res.y.dim == 4
    assert res.cramer_checked and res.cramer_nonzero
    # W is the span of the two block wedges
    expected = Subspace.from_vectors(
        F13,
        6,
        [
            WedgeVector.basis_element(F13, 4, (1, 2)).coords,
            WedgeVector.basis_element(F13, 4, (3, 4)).coords,
        ],
    )
    assert res.w == expected


def test_block_rep_dimensions_3x2():
    res = build_block_rep(3, 2, GF(13), alphas=(1, 5), betas=(8, 12), seed=1)
    assert res.rep.dim == 6
    assert res.w.dim == 3  # one wedge per block
    assert res.y.dim == 2**3


def test_block_spec_validation():
    F13 = GF(13)
    with pytest.raises(PreconditionFailed):
        BlockRepSpec(2, 2, (1, 1), Matrix.identity(F13, 2), F13)
    with pytest.raises(PreconditionFailed):
        # 2 has no square root in F_13
        BlockRepSpec(2, 2, (1, 2), Matrix.identity(F13, 2), F13)
    with pytest.raises(PreconditionFailed):
        BlockRepSpec(1, 2, (1,), Matrix.identity(F13, 1), F13)


def test_block_spec_searches_each_alphas_roots_once(monkeypatch):
    F13 = GF(13)
    searched = []
    search = type(F13).nth_roots

    def counted(field, a, n):
        searched.append(a)
        return search(field, a, n)

    monkeypatch.setattr(type(F13), "nth_roots", counted)
    spec = BlockRepSpec(2, 2, (4, 1), Matrix.identity(F13, 2), F13)
    assert sorted(searched) == [1, 4]
    assert sorted(xi for xi, _ in spec.alpha_pairs) == [1, 2, 11, 12]
    # neither 5 nor 2 is a square mod 13: the first alpha given is named
    with pytest.raises(PreconditionFailed, match="^alpha 5 lacks 2 distinct ell-th roots$"):
        BlockRepSpec(2, 2, (5, 2), Matrix.identity(F13, 2), F13)


def test_build_block_rep_searches_each_betas_roots_once(monkeypatch):
    # every draw's b_ell has the betas as eigenvalues, so the Cramer check
    # of each draw reads their roots from the one search up front
    F13 = GF(13)
    searched = []
    search = type(F13).nth_roots

    def counted(field, a, n):
        searched.append(a)
        return search(field, a, n)

    monkeypatch.setattr(type(F13), "nth_roots", counted)
    res = build_block_rep(2, 2, F13, alphas=(1, 4), betas=(3, 9), seed=123)
    assert sorted(searched) == [1, 3, 4, 9]
    assert res.cramer_checked and res.cramer_nonzero
    # a map that lacks an eigenvalue leaves it to the search
    searched.clear()
    pairs = block_eigenvectors([Matrix.identity(F13, 2), res.spec.b_ell], {3: [4, 9]})
    assert searched == [9]
    assert pairs == block_eigenvectors([Matrix.identity(F13, 2), res.spec.b_ell])


def test_cramer_check_skips_without_a_full_or_disjoint_eigenbasis():
    # b_ell = 1 has no two distinct eigenvalues, and b_ell = diag(alphas)
    # shares every eigenvalue of the shift generator
    F13 = GF(13)
    for b_ell in (Matrix.identity(F13, 2), Matrix.diagonal(F13, (1, 4))):
        res = block_rep(BlockRepSpec(2, 2, (1, 4), b_ell, F13))
        assert (res.cramer_checked, res.cramer_nonzero) == (False, False)
        assert res.w.dim == 2 and res.y.dim == 4


def test_wedge_span_checks_its_dimension_and_invariance():
    F5 = GF(5)
    w = _wedge_span(F5, 4, [(1, 2), (3, 4)], 2)
    assert w == Subspace.from_vectors(F5, 6, [
        WedgeVector.basis_element(F5, 4, s).coords for s in ((1, 2), (3, 4))
    ])
    with pytest.raises(ConstructionError):
        _wedge_span(F5, 4, [(1, 2), (1, 2)], 2)
    # one cyclic window wedge alone is moved by the companion shift
    pair = companion_pair(F5, 4, 2, 3)
    with pytest.raises(ConstructionError):
        _wedge_span(F5, 4, [(1, 2)], 1, pair.rep)
    windows = _wedge_span(F5, 4, [(1, 2), (2, 3), (3, 4), (1, 4)], 4, pair.rep)
    assert windows == pair.windows[2]


def test_block_eigenvectors_scalar_case():
    F5 = GF(5)
    blocks = [Matrix(F5, [[1]]), Matrix(F5, [[4]])]
    pairs = block_eigenvectors(blocks)
    assert [(xi, v) for xi, v in pairs] == [(2, (2, 1)), (3, (3, 1))]


def test_block_eigenvectors_counts():
    F5 = GF(5)
    blocks = [Matrix.identity(F5, 2), Matrix.diagonal(F5, (1, 4))]
    pairs = block_eigenvectors(blocks)
    assert len(pairs) == 4
    assert sorted(xi for xi, _ in pairs) == [1, 2, 3, 4]


def test_block_eigenvectors_independent():
    F13 = GF(13)
    rng = random.Random(3)
    blocks = [Matrix.identity(F13, 2), Matrix.diagonal(F13, (3, 9))]
    pairs = block_eigenvectors(blocks)
    from thickrep.linalg import rank_of_rows

    assert rank_of_rows(F13, [v for _, v in pairs], 4) == 4


def test_generic_diagonalizable_postconditions():
    f, basis, betas = generic_diagonalizable(QQ, (1, 0), set(), seed=5)
    assert len(set(betas)) == 2
    total = tuple(map(sum, zip(*basis)))
    assert tuple(QQ.reduce(x) for x in total) == (1, 0)
    for b, v in zip(betas, basis):
        assert f.apply(v) == tuple(QQ.mul(b, x) for x in v)


def test_generic_diagonalizable_spin_full():
    fmat, _, _ = generic_diagonalizable(GF(7), (1, 1, 1), {1}, seed=9)
    rep = Representation(GF(7), 3, GROUP, [fmat])
    assert spin(rep, [(1, 1, 1)]).dim == 3


def test_generic_diagonalizable_restricted_pool():
    _, _, betas = generic_diagonalizable(GF(5), (1, 0), {1, 2}, seed=0)
    assert set(betas) == {3, 4}


def test_generic_diagonalizable_past_the_element_scan_bound():
    # the largest prime under the scan bound still draws its eigenvalues;
    # the first prime over it is refused before its pool is listed
    f = GF(999_983)
    g, basis, betas = generic_diagonalizable(f, (1, 1), {1}, seed=3)
    assert len(set(betas)) == 2 and 1 not in betas
    for b, v in zip(betas, basis):
        assert g.apply(v) == tuple(f.mul(b, x) for x in v)
    with pytest.raises(ScaleExceeded):
        generic_diagonalizable(GF(1_000_003), (1, 1), {1}, seed=3)


def test_generic_diagonalizable_field_too_small():
    with pytest.raises(FieldTooSmall):
        generic_diagonalizable(GF(3), (1, 0, 1), {1}, seed=0)


def test_e1_wedge_subspace():
    w = e1_wedge_subspace(GF(2), 4)
    assert w.dim == 3
    for row in w.basis_vectors():
        ok, _ = is_decomposable(WedgeVector(GF(2), 4, 2, row))
        assert ok
    with pytest.raises(BadN):
        e1_wedge_subspace(QQ, 3)


def _lie_generators_oracle(family, n, field):
    """The sp and so_split bases written out entry by entry, each partner
    entry signed by hand, as lie_generators built them before it derived
    them from the forms' adjoint involutions."""
    one, neg = field.one, field.neg

    def basis(size, assign):
        entries = [[field.zero] * size for _ in range(size)]
        for (i, j), val in assign:
            entries[i][j] = val
        return Matrix(field, entries)

    out = []
    if family == "sp":
        h = n
        for i in range(h):
            for j in range(h):
                out.append(basis(2 * h, [((i, j), one), ((h + j, h + i), neg(one))]))
        for i in range(h):
            for j in range(i, h):
                if i == j:
                    out.append(basis(2 * h, [((i, h + i), one)]))
                    out.append(basis(2 * h, [((h + i, i), one)]))
                else:
                    out.append(basis(2 * h, [((i, h + j), one), ((j, h + i), one)]))
                    out.append(basis(2 * h, [((h + i, j), one), ((h + j, i), one)]))
        return out
    k = n // 2
    for i in range(k):
        for j in range(k):
            out.append(basis(n, [((i, j), one), ((k + j, k + i), neg(one))]))
    for i in range(k):
        for j in range(i + 1, k):
            out.append(basis(n, [((i, k + j), one), ((j, k + i), neg(one))]))
            out.append(basis(n, [((k + i, j), one), ((k + j, i), neg(one))]))
    if n % 2:
        for i in range(k):
            out.append(basis(n, [((i, n - 1), one), ((n - 1, k + i), neg(one))]))
            out.append(basis(n, [((k + i, n - 1), one), ((n - 1, i), neg(one))]))
    return out


def test_lie_generators_match_the_written_out_bases():
    # the same matrices in the same order, entry values and types alike,
    # over prime fields of characteristic 2 to 11 and three proper
    # extensions; F2 and GF(4), where -1 = 1, catch a doubled fixed entry
    def entries(mats):
        return [[[(type(x), x) for x in row] for row in g.rows] for g in mats]

    fields = (QQ, GF(2), GF(3), GF(5), GF(7), GF(11), GF(2, 2), GF(3, 2), GF(5, 2))
    sizes = [("sp", n) for n in range(1, 6)] + [("so_split", n) for n in range(1, 10)]
    for field in fields:
        for family, n in sizes:
            got = lie_generators(family, n, field)
            want = _lie_generators_oracle(family, n, field)
            assert entries(got) == entries(want), (family, n, field)


def test_lie_generators_sl2():
    gens = lie_generators("sl", 2)
    assert len(gens) == 3


def test_lie_generators_sp2_dimension_and_form():
    gens = lie_generators("sp", 2)
    assert len(gens) == 10
    J = symplectic_form_matrix(QQ, 2)
    zero = Matrix.zero(QQ, 4, 4)
    for x in gens:
        assert x.transpose() * J + J * x == zero


def test_lie_generators_so5_dimension():
    gens = lie_generators("so_split", 5)
    assert len(gens) == 10
    S = split_orthogonal_form_matrix(QQ, 5)
    zero = Matrix.zero(QQ, 5, 5)
    for x in gens:
        assert x.transpose() * S + S * x == zero


def test_lie_generators_so4_dimension():
    assert len(lie_generators("so_split", 4)) == 6


def test_lie_generators_gl_and_span():
    gens = lie_generators("gl", 3)
    assert len(gens) == 9


def test_lie_generators_include_diagonal_cartan():
    for fam, n in (("sp", 2), ("so_split", 4), ("so_split", 5)):
        gens = lie_generators(fam, n)
        diag = [
            g
            for g in gens
            if all(
                g.rows[i][j] == QQ.zero
                for i in range(g.nrows)
                for j in range(g.ncols)
                if i != j
            )
        ]
        assert diag, fam


def test_window_block_witness_dims_match_r_number():
    res = build_block_rep(3, 2, GF(13), alphas=(1, 5), betas=(8, 12), seed=1)
    b = r_number_bounds(6, 2)
    assert res.w.dim == b.exact == b.lower


def test_block_rep_over_quadratic_extension():
    # the eigenvalues of b_ell are found in GF(9) itself, so the Cramer
    # coefficient check runs there as over a prime field
    F9 = GF(3, 2)
    res = build_block_rep(2, 2, F9)
    assert res.cramer_checked and res.cramer_nonzero
    assert burnside_dim(res.rep) == 16
    assert res.w.dim == 2 and res.y.dim == 4
    pairs = block_eigenvectors([Matrix.identity(F9, 2), res.spec.b_ell])
    assert len(pairs) == 4

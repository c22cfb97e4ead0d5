import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest

from thickrep.errors import DimensionMismatch
from thickrep.fields import GF, QQ
from thickrep.linalg import (
    Matrix,
    Subspace,
    kernel,
    kernel_of_rows,
    random_invertible,
    unit_vector,
)
from thickrep.exterior import (
    WedgeVector,
    charts,
    colex_subsets,
    complement_sign_row,
    compound,
    derivation,
    faces,
    field_tuples,
    is_decomposable,
    minor_pairs,
    perp,
    projective_coefficients,
    projective_count,
    projective_images,
    realizable_search,
    subset_rank,
    wedge_of_vectors,
)
from thickrep.symplectic import SymplecticSpace, contraction_matrix

from test_linalg import inversion_parity, leibniz_det


def e(n, i):
    return unit_vector(QQ, n, i - 1)


def wedge(field, n, terms):
    """The sum of c * e_S over the (S, c) of `terms`, built from its colex
    coordinates."""
    m = len(next(iter(terms)))
    coords = [field.zero] * comb(n, m)
    for S, c in terms.items():
        coords[subset_rank(S)] = field.from_int(c)
    return WedgeVector(field, n, m, coords)


def test_colex_order_and_rank():
    subs = colex_subsets(4, 2)
    assert subs == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    for i, s in enumerate(subs):
        assert subset_rank(s) == i
    for n in (3, 5, 6):
        for m in range(n + 1):
            for i, s in enumerate(colex_subsets(n, m)):
                assert subset_rank(s) == i


def test_wedge_of_unit_vectors():
    v = wedge_of_vectors(QQ, 4, [e(4, 1), e(4, 2)])
    assert v == WedgeVector.basis_element(QQ, 4, (1, 2))


def test_wedge_of_dependent_vectors_is_zero():
    v = wedge_of_vectors(QQ, 4, [e(4, 1), e(4, 1)])
    assert v.is_zero()


def test_wedge_hand_expanded_minors():
    # (e1 + e3) ^ (e2 + e4)
    a = (1, 0, 1, 0)
    b = (0, 1, 0, 1)
    v = wedge_of_vectors(QQ, 4, [a, b])
    expect = {(1, 2): 1, (1, 4): 1, (2, 3): -1, (3, 4): 1}
    for s, c in v.items():
        assert expect[s] == c
    assert len(v.items()) == len(expect)


def test_compound_identity():
    assert compound(Matrix.identity(QQ, 4), 2) == Matrix.identity(QQ, 6)


def test_compound_diagonal():
    d = compound(Matrix.from_ints(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]]), 2)
    assert d == Matrix.diagonal(QQ, [QQ.from_int(x) for x in (2, 3, 6)])


def test_compound_multiplicative_f5():
    rng = random.Random(123)
    F5 = GF(5)
    for _ in range(10):
        a = Matrix(F5, [[F5.random(rng) for _ in range(4)] for _ in range(4)])
        b = Matrix(F5, [[F5.random(rng) for _ in range(4)] for _ in range(4)])
        assert compound(a * b, 2) == compound(a, 2) * compound(b, 2)


def test_compound_multiplicative_up_to_n6():
    rng = random.Random(321)
    for field in (QQ, GF(2), GF(5)):
        for n in (3, 4, 5, 6):
            for m in range(n + 1):
                a = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(n)])
                b = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(n)])
                assert compound(a * b, m) == compound(a, m) * compound(b, m)


def test_compound_inverse_property():
    rng = random.Random(5)
    for field in (QQ, GF(3)):
        for n in (3, 4, 5, 6):
            for m in range(n + 1):
                a = random_invertible(field, n, rng)
                assert compound(a.inverse(), m) == compound(a, m).inverse()


def test_compound_extremes():
    rng = random.Random(1)
    a = random_invertible(QQ, 4, rng)
    assert compound(a, 1) == a
    assert compound(a, 0) == Matrix.identity(QQ, 1)


# the product of the wedges of two lists of vectors is the wedge of both
# lists, one after the other


def test_wedge_product_disjoint():
    x = wedge_of_vectors(QQ, 4, [e(4, 1), e(4, 2), e(4, 3), e(4, 4)])
    assert x == WedgeVector.basis_element(QQ, 4, (1, 2, 3, 4))


def test_wedge_product_sign():
    x = wedge_of_vectors(QQ, 4, [e(4, 1), e(4, 3), e(4, 2), e(4, 4)])
    assert x == wedge(QQ, 4, {(1, 2, 3, 4): -1})


def test_wedge_product_overlap_zero():
    assert wedge_of_vectors(QQ, 4, [e(4, 1), e(4, 2), e(4, 2), e(4, 3)]).is_zero()


def test_wedge_product_degree_overflow():
    with pytest.raises(DimensionMismatch):
        wedge_of_vectors(QQ, 4, [e(4, 1), e(4, 2), e(4, 3)] * 2)


def test_perp_single_wedge():
    w = Subspace.from_vectors(
        QQ, 6, [WedgeVector.basis_element(QQ, 4, (1, 2)).coords]
    )
    p = perp(w, 4, 2)
    assert p.dim == 5
    # e3^e4 is the only basis wedge pairing nontrivially with e1^e2
    assert not p.contains_vector(WedgeVector.basis_element(QQ, 4, (3, 4)).coords)
    for s in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)):
        assert p.contains_vector(WedgeVector.basis_element(QQ, 4, s).coords)


def test_complement_sign_row_cache_matches_fresh_build():
    for n in range(1, 7):
        for m in range(n + 1):
            cached = complement_sign_row(n, m)
            assert complement_sign_row(n, m) is cached
            assert isinstance(cached, tuple)
            assert complement_sign_row.__wrapped__(n, m) == cached
            assert len(cached) == comb(n, m)


def test_perp_extremes():
    assert perp(Subspace.zero(QQ, 6), 4, 2) == Subspace.full(QQ, 6)
    assert perp(Subspace.full(QQ, 6), 4, 2) == Subspace.zero(QQ, 6)


def test_perp_of_zero_and_annihilator_past_the_top_are_the_whole_space():
    # both are kernels of systems with no equations
    for field in (QQ, GF(2), GF(5)):
        for n in range(1, 6):
            for m in range(n + 1):
                z = Subspace.zero(field, comb(n, m))
                assert perp(z, n, m) == Subspace.full(field, comb(n, n - m))
            top = WedgeVector(field, n, n, [field.from_int(3)])
            assert _annihilator_in_v(top) == Subspace.full(field, n)
            assert is_decomposable(top)[0]
            past = WedgeVector(field, n, n + 1, [])
            assert _annihilator_in_v(past) == Subspace.full(field, n)


def test_perp_perfection_random():
    rng = random.Random(31)
    for field in (QQ, GF(2), GF(3)):
        for n, m in ((4, 2), (5, 2), (5, 3)):
            dim_amb = comb(n, m)
            for _ in range(8):
                k = rng.randint(0, dim_amb)
                vecs = [
                    [field.random(rng) for _ in range(dim_amb)] for _ in range(k)
                ]
                w = Subspace.from_vectors(field, dim_amb, vecs)
                p = perp(w, n, m)
                assert p.dim == dim_amb - w.dim
                assert perp(p, n, n - m) == w


def test_is_decomposable_basis_wedge():
    ok, wit = is_decomposable(WedgeVector.basis_element(QQ, 4, (1, 2)))
    assert ok
    span = Subspace.from_vectors(QQ, 4, wit)
    assert span == Subspace.from_vectors(QQ, 4, [e(4, 1), e(4, 2)])


def test_is_decomposable_sum_of_disjoint_wedges():
    v = wedge(QQ, 4, {(1, 2): 1, (3, 4): 1})
    ok, wit = is_decomposable(v)
    assert not ok and wit is None


def test_is_decomposable_factorable_sum():
    # e1^e2 + e1^e3 = e1 ^ (e2 + e3)
    v = wedge(QQ, 4, {(1, 2): 1, (1, 3): 1})
    ok, wit = is_decomposable(v)
    assert ok
    span = Subspace.from_vectors(QQ, 4, wit)
    assert span == Subspace.from_vectors(QQ, 4, [e(4, 1), (0, 1, 1, 0)])


def test_is_decomposable_zero():
    assert is_decomposable(WedgeVector(QQ, 4, 2, [QQ.zero] * 6)) == (False, None)


def test_decomposable_roundtrip_random():
    rng = random.Random(77)
    for field in (QQ, GF(3)):
        for _ in range(20):
            n = rng.randint(3, 5)
            m = rng.randint(1, n - 1)
            vecs = [
                tuple(field.random(rng) for _ in range(n)) for _ in range(m)
            ]
            from thickrep.linalg import rank_of_rows

            if rank_of_rows(field, vecs, n) < m:
                continue
            v = wedge_of_vectors(field, n, vecs)
            ok, wit = is_decomposable(v)
            assert ok
            assert Subspace.from_vectors(field, n, wit) == Subspace.from_vectors(
                field, n, vecs
            )


def _annihilator_in_v(v):
    """{x in k^n : x ^ v = 0}: the kernel of the C(n, m+1) x n matrix of
    x -> x ^ v, whose row U holds +-v[U minus j] in column j; it has no rows
    when m >= n, as Lambda^(m+1) = 0."""
    f, n, m = v.field, v.n, v.m
    entries = [[f.zero] * n for _ in range(comb(n, m + 1))]
    for row, face in zip(entries, faces(n, m + 1)):
        for t, (j, r) in enumerate(face):
            row[j] = f.neg(v.coords[r]) if t % 2 else v.coords[r]
    return kernel_of_rows(f, entries, n)


def _proportional(a, b):
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


def _is_decomposable_oracle(v):
    """Decomposability by the annihilator: a nonzero v is a wedge of m
    vectors iff {x : x ^ v = 0} has dimension m, and that kernel's
    canonical basis is the witness."""
    if v.is_zero():
        return False, None
    ann = _annihilator_in_v(v)
    if ann.dim != v.m:
        return False, None
    witness = list(ann.basis_vectors())
    if v.m > 0:
        assert _proportional(v, wedge_of_vectors(v.field, v.n, witness))
    return True, witness


def _decomposability_inputs(field, n, m, rng):
    """A random vector, a wedge, a sparse vector whose lexicographically
    first coordinates are zero, a wedge of vectors with zero leading
    columns, and a wedge with one coordinate perturbed."""
    N = comb(n, m)
    rand = lambda: [field.random(rng) for _ in range(N)]
    vecs = lambda lead: [[field.zero] * lead + [field.random(rng) for _ in range(n - lead)]
                         for _ in range(m)]
    wedge = list(wedge_of_vectors(field, n, vecs(0)).coords)
    sparse = [x if rng.random() < 0.3 else field.zero for x in rand()]
    for r, _, _ in charts(n, m)[:N // 2]:
        sparse[r] = field.zero
    lead = rng.randint(0, n - m)
    late = list(wedge_of_vectors(field, n, vecs(lead)).coords)
    perturbed = list(wedge)
    if N:
        k = rng.randrange(N)
        perturbed[k] = field.add(perturbed[k], field.one)
    return [WedgeVector(field, n, m, c) for c in (rand(), wedge, sparse, late, perturbed)]


def _assert_same_decomposability(v):
    ok, wit = is_decomposable(v)
    want_ok, want = _is_decomposable_oracle(v)
    label = (v.field.kind, v.n, v.m, v.coords)
    assert ok == want_ok, label
    if not ok:
        assert wit is None, label
        return
    assert type(wit) is list and wit == want, label
    assert [type(row) for row in wit] == [type(row) for row in want], label
    assert [type(x) for row in wit for x in row] == \
        [type(x) for row in want for x in row], label
    span = Subspace.from_vectors(v.field, v.n, wit)
    assert span.pivots == _annihilator_in_v(v).pivots, label
    assert span.mat.rows == tuple(wit), label


def test_is_decomposable_matches_the_annihilator_oracle():
    # value, witness rows, pivots and element types (Fraction over Q)
    rng = random.Random(32)
    for field in (GF(2), GF(3), GF(2, 2), GF(5), GF(3, 2), QQ):
        for n in range(1, 7):
            for m in range(n + 1):
                for _ in range(8):
                    for v in _decomposability_inputs(field, n, m, rng):
                        _assert_same_decomposability(v)
    for field, n, m in ((QQ, 10, 3), (GF(7), 8, 2)):
        for _ in range(2):
            for v in _decomposability_inputs(field, n, m, rng):
                _assert_same_decomposability(v)


def test_decomposability_witness_is_the_rref_of_the_factor_subspace():
    # the chart sits at the least nonzero Plucker coordinate, the pivot set
    # {2, 4} here, so the witness is the RREF whatever basis was wedged
    f = GF(5)
    v = wedge_of_vectors(f, 4, [(0, 1, 2, 3), (0, 3, 1, 0)])
    ok, wit = is_decomposable(v)
    assert ok and wit == [(0, 1, 2, 0), (0, 0, 0, 1)]
    # the pivot set is below every nonzero coordinate entry by entry, so it
    # is also the colex-first one: a wedge's chart is the same in both orders
    rng = random.Random(4)
    for n in range(1, 7):
        for m in range(n + 1):
            for _ in range(10):
                p = wedge_of_vectors(f, n, [
                    [f.random(rng) if rng.random() < 0.4 else 0 for _ in range(n)]
                    for _ in range(m)])
                nonzero = [S for S, c in zip(colex_subsets(n, m), p.coords) if c]
                assert not nonzero or nonzero[0] == min(nonzero)


def test_charts_list_every_subset_in_lexicographic_order():
    for n in range(7):
        for m in range(n + 1):
            table = charts(n, m)
            assert charts(n, m) is table
            assert [r for r, _, _ in table] == [
                subset_rank(S) for S in sorted(colex_subsets(n, m))]
            for r, cols, cofaces in table:
                S = colex_subsets(n, m)[r]
                assert cols == tuple(s - 1 for s in S)
                assert [j for j, _, _ in cofaces] == [
                    j - 1 for j in range(1, n + 1) if j not in S]
                for j, tj, face in cofaces:
                    U = tuple(sorted(S + (j + 1,)))
                    assert U.index(j + 1) == tj
                    assert face == faces(n, m + 1)[subset_rank(U)]


def test_projective_enumeration_count():
    for q, d in ((2, 3), (3, 2), (5, 2)):
        pts = list(projective_coefficients(GF(q), d))
        assert len(pts) == projective_count(q, d)
        assert len(set(pts)) == len(pts)


def test_field_tuples_match_product_and_stay_lazy():
    for field in (GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)):
        elems = sorted(field.elements(), key=field.sort_key)
        for length in range(4):
            assert list(field_tuples(field, length)) == list(
                itertools.product(elems, repeat=length)
            )
    big = GF(2**61 - 1)
    t0 = time.perf_counter()
    assert list(itertools.islice(field_tuples(big, 3), 3)) == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2)
    ]
    pts = projective_coefficients(big, 3)
    assert list(itertools.islice(pts, 2)) == [(1, 0, 0), (1, 0, 1)]
    # an extension field past the element-scan bound enumerates lazily too
    one, zero = (1, 0), (0, 0)
    pts = projective_coefficients(GF(1009, 2), 3)
    assert list(itertools.islice(pts, 3)) == [
        (one, zero, zero), (one, zero, (0, 1)), (one, zero, (0, 2))
    ]
    assert time.perf_counter() - t0 < 1.0


def test_projective_images_match_matrix_apply():
    rng = random.Random(17)
    for field in (GF(2), GF(3), GF(5), GF(2, 2)):
        for n in (1, 2, 3, 4):
            for _ in range(2):
                g = random_invertible(field, n, rng)
                images = list(projective_images(g))
                expected = [g.apply(v) for v in projective_coefficients(field, n)]
                assert [tuple(x) for x in images] == expected


def test_realizable_search_block_span():
    vecs = [
        WedgeVector.basis_element(QQ, 4, (1, 2)).coords,
        WedgeVector.basis_element(QQ, 4, (3, 4)).coords,
    ]
    w = Subspace.from_vectors(QQ, 6, vecs)
    res = realizable_search(w, 4, 2)
    assert res.status == "Realizable"
    assert res.witness == WedgeVector.basis_element(QQ, 4, (1, 2))


def test_realizable_search_not_realizable_f3():
    v = wedge(GF(3), 4, {(1, 2): 1, (3, 4): 1})
    w = Subspace.from_vectors(GF(3), 6, [v.coords])
    res = realizable_search(w, 4, 2)
    assert res.status == "NotRealizable"
    assert res.exhaustive and res.scanned == 1


def test_realizable_search_full_space_f2():
    w = Subspace.full(GF(2), 6)
    res = realizable_search(w, 4, 2)
    assert res.status == "Realizable"


def test_realizable_search_rational_never_notrealizable():
    # a(e12 + e34) + b(e13 - e24) has Pluecker form a^2 + b^2, so this plane
    # holds no nonzero decomposable vector over Q; the heuristic scan of a
    # plane cannot prove that and must say Unknown
    basis = [wedge(QQ, 4, {(1, 2): 1, (3, 4): 1}), wedge(QQ, 4, {(1, 3): 1, (2, 4): -1})]
    w = Subspace.from_vectors(QQ, 6, [v.coords for v in basis])
    res = realizable_search(w, 4, 2)
    assert res.status == "Unknown" and not res.exhaustive
    # a line is decided exactly over every field, the rationals included
    line = Subspace.from_vectors(QQ, 6, [basis[0].coords])
    res = realizable_search(line, 4, 2)
    assert res.status == "NotRealizable"
    assert res.exhaustive and res.scanned == 1


def test_realizable_search_line_is_exact_over_every_field():
    rng = random.Random(8)
    for field in (QQ, GF(2), GF(3), GF(2, 2)):
        for n, m in ((4, 2), (5, 2), (5, 3)):
            for _ in range(6):
                v = WedgeVector(field, n, m, [
                    field.random(rng) if rng.random() < 0.5 else field.zero
                    for _ in range(comb(n, m))
                ])
                if v.is_zero():
                    continue
                line = Subspace.from_vectors(field, comb(n, m), [v.coords])
                res = realizable_search(line, n, m, points_cap=0)
                ok, wit = is_decomposable(WedgeVector(field, n, m, line.basis_vectors()[0]))
                assert res.exhaustive and res.scanned == 1
                assert res.status == ("Realizable" if ok else "NotRealizable")
                assert res.witness_vectors == wit


def test_low_codim_spot_check_flags_only():
    # Over small finite fields, low-codimension subspaces are usually
    # realizable; exceptions are collected, never asserted away.
    rng = random.Random(2024)
    flagged = 0
    for q in (2, 3):
        field = GF(q)
        for n, m in ((4, 2), (5, 2)):
            amb = comb(n, m)
            bound = m * (n - m)
            for _ in range(10):
                dim = rng.randint(max(1, amb - bound), amb)
                vecs = [
                    [field.random(rng) for _ in range(amb)] for _ in range(dim)
                ]
                w = Subspace.from_vectors(field, amb, vecs)
                if w.dim == 0 or amb - w.dim > bound:
                    continue
                res = realizable_search(w, n, m)
                assert res.exhaustive
                if res.status == "NotRealizable":
                    flagged += 1
    # the closed-field statement can fail over F_q; just record
    assert flagged >= 0


def _compound_oracle(a, m):
    """Every m-minor of a as a Leibniz determinant."""
    f = a.field
    subs = colex_subsets(a.nrows, m)
    return Matrix(f, [
        [leibniz_det(f, [[a.rows[i - 1][j - 1] for j in T] for i in S]) for T in subs]
        for S in subs
    ])


def _wedge_oracle(field, n, vectors):
    coords = [
        leibniz_det(field, [[v[s - 1] for v in vectors] for s in S])
        for S in colex_subsets(n, len(vectors))
    ]
    return WedgeVector(field, n, len(vectors), coords)


def _derivation_oracle(x, m):
    """The derivation with each sign from the position of the replaced index."""
    f, n = x.field, x.nrows
    subs = colex_subsets(n, m)
    entries = [[f.zero] * len(subs) for _ in subs]
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
                    r = subset_rank(T)
                    entries[r][col] = (
                        f.sub(entries[r][col], c) if sign else f.add(entries[r][col], c)
                    )
    return Matrix(f, entries)


def _annihilator_oracle(v):
    f, n, m = v.field, v.n, v.m
    if m >= n:
        return Subspace.full(f, n)
    entries = [[f.zero] * n for _ in range(comb(n, m + 1))]
    for S, c in v.items():
        for i in range(1, n + 1):
            if i in S:
                continue
            U = tuple(sorted((i,) + S))
            term = f.neg(c) if U.index(i) % 2 else c
            r = subset_rank(U)
            entries[r][i - 1] = f.add(entries[r][i - 1], term)
    return kernel(Matrix(f, entries))


def _contraction_oracle(sp, m):
    """The contraction with omega(e_a, e_b) from the index pattern and the
    sign (-1)^(i+j-1) from the 1-based positions i < j of a and b."""
    f, N = sp.field, sp.dim
    subs = colex_subsets(N, m)
    entries = [[f.zero] * len(subs) for _ in range(comb(N, m - 2))]
    for col, S in enumerate(subs):
        for i in range(m):
            for j in range(i + 1, m):
                a, b = S[i], S[j]
                om = f.one if b == a + sp.n else f.zero
                if om == f.zero:
                    continue
                r = subset_rank(tuple(x for x in S if x != a and x != b))
                term = f.neg(om) if ((i + 1) + (j + 1) - 1) % 2 else om
                entries[r][col] = f.add(entries[r][col], term)
    return Matrix(f, entries)


def _oracle_matrices(field, n, rng):
    """A random, a singular (repeated row) and a sparse n x n matrix."""
    rand = [[field.random(rng) for _ in range(n)] for _ in range(n)]
    singular = rand[:-1] + [rand[0] if n > 1 else [field.zero]]
    sparse = [
        [field.random(rng) if rng.random() < 0.25 else field.zero for _ in range(n)]
        for _ in range(n)
    ]
    return [Matrix(field, rows) for rows in (rand, singular, sparse)]


def test_exterior_maps_match_determinant_oracles():
    rng = random.Random(12)
    for field in (GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2), QQ):
        for n in range(1, 7):
            for a in _oracle_matrices(field, n, rng):
                for m in range(n + 1):
                    assert compound(a, m).rows == _compound_oracle(a, m).rows
                    assert derivation(a, m).rows == _derivation_oracle(a, m).rows
                    p = wedge_of_vectors(field, n, a.rows[:m])
                    assert p == _wedge_oracle(field, n, a.rows[:m])
                    coords = [field.random(rng) for _ in range(comb(n, m))]
                    for v in (p, WedgeVector(field, n, m, coords)):
                        assert _annihilator_in_v(v) == _annihilator_oracle(v)
        for half in (1, 2, 3):
            sp = SymplecticSpace(half, field)
            for m in range(2, sp.dim + 1):
                assert contraction_matrix(sp, m).rows == _contraction_oracle(sp, m).rows


def _minors2_oracle(field, u, v, pairs):
    """The 2x2 minors as `compound` wrote them out before `minors2`: the
    field's own mul and sub, entry by entry."""
    mul, sub = field.mul, field.sub
    return [sub(mul(u[k], v[l]), mul(u[l], v[k])) for k, l in pairs]


def _compound2_oracle(a):
    pairs = [(k, l) for (k, _), (l, _) in faces(a.nrows, 2)]
    rows = a.rows
    return Matrix(a.field, [_minors2_oracle(a.field, rows[i], rows[j], pairs)
                            for i, j in pairs])


def test_level_two_minors_match_the_mul_sub_oracle():
    rng = random.Random(29)
    for field in (GF(2), GF(3), GF(2, 2), GF(5), GF(3, 2), QQ):
        for n in range(2, 7):
            pairs = minor_pairs(n)
            assert list(pairs) == [(k, l) for (k, _), (l, _) in faces(n, 2)]
            mats = _oracle_matrices(field, n, rng)
            if field is QQ:
                mats.append(Matrix(field, [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
                    for _ in range(n)
                ]))
            for a in mats:
                assert compound(a, 2) == _compound2_oracle(a)
                u, v = a.rows[0], a.rows[-1]
                assert field.minors2(u, v, pairs) == _minors2_oracle(field, u, v, pairs)
                # one pair only, and pairs with k > l, are minors too
                swapped = [(l, k) for k, l in pairs[:3]]
                assert field.minors2(u, v, swapped) == _minors2_oracle(field, u, v, swapped)
                assert wedge_of_vectors(field, n, a.rows[:2]).coords == tuple(
                    _minors2_oracle(field, a.rows[0], a.rows[1], pairs))


def test_faces_match_inversion_parity():
    # e_j ^ e_(U minus j) = (-1)^t e_U for the t-th face of U: the sign of
    # sorting (j, U minus j), the parity of its inversions
    for n in range(1, 9):
        for k in range(n + 1):
            lower = colex_subsets(n, k - 1)
            for U, face in zip(colex_subsets(n, k), faces(n, k)):
                assert [j + 1 for j, _ in face] == list(U)
                for t, (j, r) in enumerate(face):
                    rest = lower[r]
                    assert sorted((j + 1,) + rest) == list(U)
                    assert (-1) ** t == inversion_parity((j + 1,) + rest)


def test_complement_signs_match_inversion_parity():
    # e_S ^ e_Sc is the sign of sorting (S, Sc) times e_(1..n), the parity
    # of its inversions; the parity formula of `complement_sign_row`
    # replaced a pairwise count of them
    for n in range(1, 9):
        for m in range(n + 1):
            complements = colex_subsets(n, n - m)
            row = complement_sign_row(n, m)
            assert len(row) == comb(n, m)
            for S, (crank, sign) in zip(colex_subsets(n, m), row):
                Sc = complements[crank]
                assert sorted(S + Sc) == list(range(1, n + 1))
                assert sign == inversion_parity(S + Sc)

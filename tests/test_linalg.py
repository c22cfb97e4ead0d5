import copy
import itertools
import random
from bisect import bisect
from fractions import Fraction

import pytest

from thickrep.errors import AmbientMismatch, DimensionMismatch, DivisionByZero, NotSquare
from thickrep.fields import GF, QQ, Poly, Rationals
from thickrep.linalg import (
    Matrix,
    RowBasis,
    Subspace,
    charpoly,
    kernel,
    kernel_of_rows,
    random_independent,
    random_invertible,
    rank_of_rows,
    rref,
    solve_rows,
)
from thickrep.repcore import _span_closure


def M(field, rows):
    return Matrix.from_ints(field, rows)


def inversion_parity(seq):
    """1 or -1: the parity of the number of inversions of seq."""
    return -1 if sum(a > b for a, b in itertools.combinations(seq, 2)) % 2 else 1


def leibniz_det(field, rows):
    """The determinant as the sum over permutations p of the signed
    products of rows[i][p(i)], each sign the parity of p's inversions: an
    oracle with no elimination."""
    total = field.zero
    for perm in itertools.permutations(range(len(rows))):
        term = field.one
        for row, j in zip(rows, perm):
            term = field.mul(term, row[j])
            if term == field.zero:
                break
        else:
            total = field.add(total, term if inversion_parity(perm) > 0 else field.neg(term))
    return total


def meet(a, b):
    """a meet b, the kernel of the rows of both annihilators."""
    rows = a.annihilator().basis_vectors() + b.annihilator().basis_vectors()
    return kernel_of_rows(a.field, rows, a.ambient)


def _rref_rows(field, rows, ncols):
    """Batch Gauss-Jordan, column by column: the oracle for RowBasis.
    In-place RREF of a list of row lists; returns (rank, pivots)."""
    zero = field.zero
    nrows = len(rows)
    pivots = []
    r = 0
    axpy = field.axpy
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        pivval = rows[r][c]
        if pivval != field.one:
            rows[r] = field.scale(field.inv(pivval), rows[r])
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            t = rows[i][c]
            if t != zero:
                rows[i] = axpy(rows[i], t, prow)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def _kernel_rows(field, red, pivots, ncols):
    """Canonical kernel basis read off a batch RREF: one vector per free
    column, reduced again by the oracle."""
    null = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(red[i][fc])
        null.append(v)
    _rref_rows(field, null, ncols)
    return null


class _FractionRowsQQ(Rationals):
    """The rationals with row operations written as Fraction operators, one
    gcd per term: the oracle for the integer-numerator kernel."""

    def dot(self, u, v):
        return sum(a * b for a, b in zip(u, v))

    def axpy(self, w, t, row):
        return [x - t * y for x, y in zip(w, row)]

    def scale(self, c, row):
        return [c * x for x in row]


def _echelon_samples():
    """(field, rows, ncols): seeded tall, wide, square, rank-deficient,
    zero and empty matrices over Q, GF(2), GF(3) and GF(4)."""
    rng = random.Random(23)
    for field in (QQ, GF(2), GF(3), GF(2, 2)):
        rand = lambda r, c: [[field.random(rng) for _ in range(c)] for _ in range(r)]
        yield field, [], 4
        yield field, [[] for _ in range(3)], 0
        yield field, [[field.zero] * 4 for _ in range(3)], 4
        for _ in range(12):
            for nr, nc in ((7, 3), (3, 7), (5, 5), (1, 6), (6, 1)):
                yield field, rand(nr, nc), nc
            # rank at most k: combinations of k random rows
            k, nc = rng.randint(1, 3), rng.randint(4, 6)
            basis = rand(k, nc)
            rows = []
            for coeffs in rand(rng.randint(k + 1, 7), k):
                v = [field.zero] * nc
                for c, b in zip(coeffs, basis):
                    v = field.axpy(v, field.neg(c), b)
                rows.append(v)
            yield field, rows, nc


def test_rref_swap():
    red, rank, pivots = rref(M(QQ, [[0, 1], [1, 0]]))
    assert red == Matrix.identity(QQ, 2)
    assert rank == 2 and pivots == (0, 1)


def test_rref_rank_one():
    red, rank, _ = rref(M(QQ, [[1, 2], [2, 4]]))
    assert red == M(QQ, [[1, 2], [0, 0]])
    assert rank == 1


def test_rref_f2():
    red, rank, _ = rref(M(GF(2), [[1, 1], [1, 1]]))
    assert red == M(GF(2), [[1, 1], [0, 0]])
    assert rank == 1


def test_rref_idempotent_random():
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(25):
            rows = [[field.random(rng) for _ in range(4)] for _ in range(3)]
            m = Matrix(field, rows)
            r1, _, _ = rref(m)
            r2, _, _ = rref(r1)
            assert r1 == r2


def test_kernel_examples():
    assert kernel(Matrix.identity(QQ, 3)).dim == 0
    assert kernel(Matrix.zero(QQ, 2, 3)) == Subspace.full(QQ, 3)
    k = kernel(M(GF(2), [[1, 1]]))
    assert k == Subspace.from_vectors(GF(2), 2, [[1, 1]])


def test_rank_nullity_random():
    rng = random.Random(5)
    for field in (QQ, GF(3)):
        for _ in range(30):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = Matrix(field, [[field.random(rng) for _ in range(nc)] for _ in range(nr)])
            assert kernel(m).dim + m.rank() == nc


def test_kernel_of_rows_matches_kernel_of_its_matrix():
    rng = random.Random(29)
    for field in (QQ, GF(2), GF(5), GF(2, 2)):
        rand = lambda r, c: [[field.random(rng) for _ in range(c)] for _ in range(r)]
        for k in range(5):
            assert kernel_of_rows(field, [], k) == Subspace.full(field, k)
        for _ in range(15):
            nc = rng.randint(1, 6)
            low = rand(rng.randint(1, 3), nc)
            coeffs = rand(rng.randint(1, 7), len(low))
            systems = [
                rand(rng.randint(1, 7), nc),
                # rank-deficient: every row a combination of the rows of `low`
                [[field.dot(c, col) for col in zip(*low)] for c in coeffs],
                # full rank: the rows of an invertible matrix, kernel zero
                random_invertible(field, nc, rng).rows,
                [[field.zero] * nc for _ in range(rng.randint(1, 3))],
            ]
            for rows in systems:
                k = kernel_of_rows(field, rows, nc)
                assert k == kernel(Matrix(field, rows)), (field.kind, rows)
                assert k.dim == nc - rank_of_rows(field, rows, nc)
                assert all(field.dot(r, v) == field.zero
                           for r in rows for v in k.basis_vectors())


def _kernel_two_eliminations(field, rows, ncols):
    """The kernel by a natural-order elimination: one null vector per free
    column, which is not yet reduced at the pivots left of it, and a second
    elimination (`Subspace.from_vectors`) to make the basis canonical."""
    basis = RowBasis.spanning(field, ncols, rows)
    pivset = set(basis.pivots)
    vectors = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for row, pc in zip(basis.rows, basis.pivots):
            v[pc] = field.neg(row[fc])
        vectors.append(v)
    return Subspace.from_vectors(field, ncols, vectors)


def _kernel_systems(field, ncols, rng):
    """0 to ncols + 1 random rows, repeated rows, sparse rows, zero rows and
    a full-rank system."""
    rand = lambda: [field.random(rng) for _ in range(ncols)]
    sparse = lambda: [x if rng.random() < 0.3 else field.zero for x in rand()]
    some = [rand() for _ in range(rng.randint(1, 3))]
    systems = [[rand() for _ in range(k)] for k in range(ncols + 2)]
    systems += [
        [rng.choice(some) for _ in range(rng.randint(1, ncols + 1))],
        [sparse() for _ in range(rng.randint(1, ncols + 1))],
        [[field.zero] * ncols for _ in range(2)],
    ]
    if ncols:
        systems.append(random_invertible(field, ncols, rng).rows)
    return systems


def test_kernel_of_rows_matches_the_two_elimination_oracle():
    # rows, pivots and element types (Fraction over Q) agree
    rng = random.Random(32)
    for field in (GF(2), GF(3), GF(2, 2), GF(5), GF(3, 2), QQ):
        for ncols in range(7):
            for _ in range(20):
                for rows in _kernel_systems(field, ncols, rng):
                    k = kernel_of_rows(field, rows, ncols)
                    want = _kernel_two_eliminations(field, rows, ncols)
                    label = (field.kind, ncols, rows)
                    assert k.mat.rows == want.mat.rows, label
                    assert k.pivots == want.pivots, label
                    assert k.ambient == want.ambient == ncols, label
                    assert [type(x) for row in k.mat.rows for x in row] == \
                        [type(x) for row in want.mat.rows for x in row], label
                    if field is QQ:
                        assert all(type(x) is Fraction
                                   for row in k.mat.rows for x in row), label


def test_kernel_of_rows_at_full_rank_reads_no_rows(monkeypatch):
    # a full-rank system has the zero kernel, known from the rank alone
    read = []
    rows_of = RowBasis.rows

    def counted(basis):
        read.append(basis.dim)
        return rows_of.fget(basis)

    monkeypatch.setattr(RowBasis, "rows", property(counted))
    rng = random.Random(5)
    for field in (GF(3), QQ):
        rows = random_invertible(field, 4, rng).rows
        assert kernel_of_rows(field, rows, 4) == Subspace.zero(field, 4)
    assert read == []
    kernel_of_rows(GF(3), [(1, 2, 0, 0)], 4)
    assert read == [1]


def test_solve_rows_keeps_its_width():
    for field in (QQ, GF(2), GF(5)):
        one, zero = field.one, field.zero
        # no rows: the zero vector of length ncols, whatever ncols is
        for k in range(4):
            assert solve_rows(field, [], [], k) == (zero,) * k
        # x0 + x1 = 1 and x0 + x1 = 0 cannot both hold
        assert solve_rows(field, [(one, one, zero)] * 2, [one, zero], 3) is None
        # x0 + x1 = 1, x1 = 1: x1 = 1, x0 = 0, the free x2 is zero
        rows, rhs = [(one, one, zero), (zero, one, zero)], [one, one]
        x = solve_rows(field, rows, rhs, 3)
        assert x == (zero, one, zero)
        assert [field.dot(r, x) for r in rows] == rhs


def test_empty_systems_in_annihilator_and_intersect():
    for field in (QQ, GF(2), GF(5)):
        for n in range(4):
            zero, full = Subspace.zero(field, n), Subspace.full(field, n)
            assert zero.annihilator() == full
            assert full.annihilator() == zero
            # both annihilators zero: no equations, the whole space
            assert meet(full, full) == full
            assert meet(full, zero) == meet(zero, full) == zero
            assert meet(zero, zero) == zero
        line = Subspace.from_vectors(field, 3, [(field.one, field.one, field.zero)])
        assert meet(line, Subspace.full(field, 3)) == line
        assert meet(line, Subspace.zero(field, 3)) == Subspace.zero(field, 3)


def test_subspace_sum_intersect():
    a = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(1))])
    b = Subspace.from_vectors(QQ, 2, [(Fraction(0), Fraction(1))])
    assert meet(a, b).dim == 0
    assert a.sum(b) == Subspace.full(QQ, 2)


def test_subspace_contains():
    big = Subspace.from_vectors(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    small = Subspace.from_vectors(QQ, 3, [(1, 1, 0)])
    other = Subspace.from_vectors(QQ, 3, [(0, 0, 1)])
    assert big.contains(small)
    assert not big.contains(other)
    assert big.contains_vector((2, 3, 0))
    assert not big.contains_vector((0, 0, 1))


def test_subspace_ambient_mismatch():
    a = Subspace.full(QQ, 2)
    b = Subspace.full(QQ, 3)
    with pytest.raises(AmbientMismatch):
        a.sum(b)


def test_dimension_formula_random():
    rng = random.Random(17)
    for field in (GF(2), GF(3), QQ):
        for _ in range(25):
            n = rng.randint(2, 5)
            va = [[field.random(rng) for _ in range(n)] for _ in range(rng.randint(0, n))]
            vb = [[field.random(rng) for _ in range(n)] for _ in range(rng.randint(0, n))]
            a = Subspace.from_vectors(field, n, va)
            b = Subspace.from_vectors(field, n, vb)
            assert a.dim + b.dim == a.sum(b).dim + meet(a, b).dim


def test_matrix_arithmetic_refuses_mismatched_shapes():
    # zip would truncate: [[1, 2]] * [[1, 2]] read as [1 2] and
    # [[1, 2]] + [[1, 2, 3]] as [2 4]
    F = GF(5)
    row, wide = M(F, [[1, 2]]), M(F, [[1, 2, 3]])
    for a, b in ((row, row), (wide, M(F, [[1, 2], [3, 4]]))):
        with pytest.raises(DimensionMismatch):
            a * b
    for a, b in ((row, wide), (row, row.transpose()), (Matrix.identity(F, 2), row)):
        with pytest.raises(DimensionMismatch):
            a + b
        with pytest.raises(DimensionMismatch):
            a - b
    assert row * row.transpose() == M(F, [[0]])
    assert row + row == M(F, [[2, 4]]) and wide - wide == Matrix.zero(F, 1, 3)
    empty = Matrix.zero(F, 0, 0)
    assert empty * empty == empty + empty == empty - empty == empty


def test_a_matrix_with_no_rows_keeps_its_column_count():
    F = GF(5)
    empty = Matrix.zero(F, 0, 3)
    assert (empty.nrows, empty.ncols) == (0, 3)
    # the shape checks see rowless operands, and the zero subspace of k^n
    # holds a 0 x n matrix
    with pytest.raises(DimensionMismatch):
        empty + Matrix.zero(F, 0, 2)
    with pytest.raises(DimensionMismatch):
        Matrix.zero(F, 2, 2) * empty
    assert Subspace.zero(F, 4).mat.ncols == 4


def test_a_product_through_no_columns_is_the_zero_matrix_of_its_shape():
    F = GF(5)
    product = Matrix.zero(F, 2, 0) * Matrix.zero(F, 0, 3)
    assert (product.nrows, product.ncols, product) == (2, 3, Matrix.zero(F, 2, 3))


def test_the_transpose_of_a_matrix_with_no_columns_has_no_rows():
    F = GF(5)
    flat = Matrix.zero(F, 2, 0).transpose()
    assert (flat.nrows, flat.ncols) == (0, 2)
    assert (flat.transpose().nrows, flat.transpose().ncols) == (2, 0)


def test_charpoly_f2():
    p = charpoly(M(GF(2), [[0, 1], [1, 1]]))
    assert p == Poly.from_ints(GF(2), [1, 1, 1])


def test_charpoly_diag():
    p = charpoly(Matrix.diagonal(QQ, [Fraction(1), Fraction(2), Fraction(3)]))
    expect = Poly.from_ints(QQ, [-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    assert p == expect


def test_charpoly_companion():
    a = Fraction(7)
    p = charpoly(Matrix(QQ, [[0, a], [1, 0]]))
    assert p == Poly(QQ, [-a, 0, 1])


def test_charpoly_not_square():
    with pytest.raises(NotSquare):
        charpoly(Matrix.zero(QQ, 2, 3))


def test_charpoly_similarity_invariance():
    rng = random.Random(99)
    samples = 0
    while samples < 100:
        field = (QQ, GF(5), GF(2))[samples % 3]
        n = rng.randint(2, 6)
        m = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(n)])
        p = random_invertible(field, n, rng)
        conj = p.inverse() * m * p
        assert charpoly(conj) == charpoly(m)
        samples += 1


def test_det_matches_charpoly_constant():
    rng = random.Random(3)
    for field in (QQ, GF(7), GF(2, 2)):
        for _ in range(20):
            n = rng.randint(1, 4)
            m = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(n)])
            cp = charpoly(m)
            c0 = cp.coeffs[0] if cp.coeffs else field.zero
            expect = c0 if n % 2 == 0 else field.neg(c0)
            assert leibniz_det(field, m.rows) == expect


def test_inverse():
    rng = random.Random(4)
    for field in (QQ, GF(5)):
        for _ in range(10):
            m = random_invertible(field, 3, rng)
            assert m * m.inverse() == Matrix.identity(field, 3)


def test_singular_inverse_raises():
    F4 = GF(2, 2)
    a = next(x for x in F4.elements() if x not in (F4.zero, F4.one))
    singular = [
        M(QQ, [[1, 1], [1, 1]]),
        M(GF(3), [[1, 2, 0], [2, 1, 0], [0, 0, 0]]),
        Matrix(F4, [[a, F4.one], [F4.mul(a, a), a]]),
        M(F4, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
    ]
    for m in singular:
        with pytest.raises(DivisionByZero):
            m.inverse()
    rng = random.Random(8)
    for field in (QQ, GF(3), F4):
        for _ in range(30):
            n = rng.randint(1, 3)
            m = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(n)])
            if m.rank() < n:
                with pytest.raises(DivisionByZero):
                    m.inverse()
            else:
                assert m * m.inverse() == Matrix.identity(field, n)


def test_rational_echelon_matches_fraction_arithmetic_oracle():
    # entries with denominators up to 12, negatives and zeros: the batch
    # oracle runs on Fraction arithmetic, the package on its row kernel
    rng = random.Random(41)
    oracle = _FractionRowsQQ()

    def entry():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))

    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[entry() for _ in range(nc)] for _ in range(nr)]
        work = [list(r) for r in rows]
        rank, pivots = _rref_rows(oracle, work, nc)
        red = rref(Matrix(QQ, rows))
        assert red == (Matrix(QQ, work), rank, tuple(pivots)), rows
        assert all(type(x) is Fraction for r in red[0].rows for x in r)
        null = _kernel_rows(oracle, work, pivots, nc)
        assert kernel(Matrix(QQ, rows)).mat == Matrix(QQ, null), rows
        # inverse of the leading square block: the right half of RREF [A | I]
        n = min(nr, nc)
        a = [r[:n] for r in rows[:n]]
        aug = [r + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
        _, aug_pivots = _rref_rows(oracle, aug, 2 * n)
        if aug_pivots[:n] == list(range(n)):
            assert Matrix(QQ, a).inverse() == Matrix(QQ, [r[n:] for r in aug]), a
        else:
            with pytest.raises(DivisionByZero):
                Matrix(QQ, a).inverse()


def test_echelon_routines_match_batch_oracle():
    for field, rows, nc in _echelon_samples():
        work = [list(r) for r in rows]
        rank, pivots = _rref_rows(field, work, nc)
        label = (field.kind, rows)
        if rows:
            # a Matrix takes its column count from its rows
            m = Matrix(field, rows)
            assert rref(m) == (Matrix(field, work), rank, tuple(pivots)), label
            k = kernel(m)
            null = _kernel_rows(field, work, pivots, nc)
            assert k.mat == Matrix(field, null) and k.ambient == nc, label
        # no rows: the oracle's kernel is every unit vector, all of k^nc
        k = kernel_of_rows(field, rows, nc)
        assert k.mat == Matrix(field, _kernel_rows(field, work, pivots, nc)), label
        assert k.ambient == nc, label
        assert rank_of_rows(field, rows, nc) == rank, label
        sub = Subspace.from_vectors(field, nc, rows)
        assert sub.mat == Matrix(field, work[:rank]), label
        assert sub.pivots == tuple(pivots), label
        # one row at a time: insert reports growth exactly when the
        # oracle rank of the prefix grows, and keeps no caller's list
        basis = RowBasis(field, nc)
        for i, r in enumerate(rows):
            v = list(r)
            before = _rref_rows(field, [list(x) for x in rows[:i]], nc)[0]
            after = _rref_rows(field, [list(x) for x in rows[: i + 1]], nc)[0]
            assert basis.insert(v) == (after > before), label
            v[:] = [field.one] * nc
        assert basis.to_subspace() == sub, label


def test_random_independent_matches_rank_loop():
    # the oracle is the loop it replaced: draw, keep the draw when the rank
    # of the span and the kept vectors grows; both take the same RNG draws
    for field, n, span in ((GF(2), 4, []), (GF(5), 6, [(1, 0, 2, 0, 0, 3)]),
                           (GF(3), 3, [(1, 1, 0), (0, 1, 1)]), (QQ, 3, [])):
        for seed in range(5):
            count = n - len(span)
            rng = random.Random(seed)
            kept = []
            while len(kept) < count:
                cand = tuple(field.random(rng) for _ in range(n))
                if rank_of_rows(field, span + kept + [cand], n) == len(span) + len(kept) + 1:
                    kept.append(cand)
            oracle_next = rng.random()
            rng = random.Random(seed)
            assert random_independent(field, n, count, rng, span=span) == kept
            assert rng.random() == oracle_next
    # past max_draws it stops with what it has
    rng = random.Random(0)
    assert len(random_independent(GF(2), 4, 4, rng, max_draws=2)) <= 2
    assert random_independent(GF(2), 2, 1, rng, span=[(1, 0), (0, 1)], max_draws=9) == []


def _seeded_pairs(field, n, rng):
    """Pairs of subspaces of k^n: zero, full, equal, nested and
    complementary pairs, and two independent random draws."""
    zero, full = Subspace.zero(field, n), Subspace.full(field, n)
    a = Subspace.from_vectors(field, n, random_independent(field, n, rng.randint(0, n), rng))
    b = Subspace.from_vectors(field, n, random_independent(field, n, rng.randint(0, n), rng))
    # a part of a's rows spans a subspace of a; rows drawn independent of a
    # span a complement of it
    inner = Subspace.from_vectors(field, n, a.basis_vectors()[: a.dim // 2])
    comp = Subspace.from_vectors(
        field, n, random_independent(field, n, n - a.dim, rng, span=a.basis_vectors()))
    same = Subspace.from_vectors(field, n, a.basis_vectors()[::-1])
    return [(zero, a), (full, a), (zero, zero), (full, full), (a, same), (a, inner),
            (a, comp), (a, b), (zero, full)]


SUM_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), QQ]


@pytest.mark.parametrize("field", SUM_FIELDS, ids=repr)
def test_seeded_sum_matches_the_eliminated_span(field):
    # the sum seeded from the larger canonical basis is the RREF of all the
    # rows eliminated from scratch, pivots included, in either order
    rng = random.Random(41 + (field.order if field.finite else 0))
    for n in range(0, 6):
        for _ in range(6):
            for a, b in _seeded_pairs(field, n, rng):
                oracle = Subspace.from_vectors(field, n, a.basis_vectors() + b.basis_vectors())
                for s in (a.sum(b), b.sum(a)):
                    assert s == oracle and s.pivots == oracle.pivots


@pytest.mark.parametrize("field", SUM_FIELDS, ids=repr)
def test_sum_that_adds_nothing_is_the_other_operand(field):
    # for y inside x, x + y is x itself; y + x is x, or y when the two are
    # equal, since the left operand seeds a tie in dimension
    rng = random.Random(43 + (field.order if field.finite else 0))
    for n in range(0, 6):
        for _ in range(6):
            a = Subspace.from_vectors(
                field, n, random_independent(field, n, rng.randint(0, n), rng))
            inner = Subspace.from_vectors(field, n, a.basis_vectors()[: a.dim // 2])
            same = Subspace.from_vectors(field, n, a.basis_vectors()[::-1])
            full = Subspace.full(field, n)
            for x, y in ((a, Subspace.zero(field, n)), (full, a), (a, inner), (a, same)):
                assert x.sum(y) is x
                assert y.sum(x) is (y if y.dim == x.dim else x)


@pytest.mark.parametrize("field", SUM_FIELDS, ids=repr)
def test_row_basis_of_a_subspace_is_a_copy(field):
    rng = random.Random(47 + (field.order if field.finite else 0))
    for n in range(1, 6):
        for d in range(n):
            s = Subspace.from_vectors(field, n, random_independent(field, n, d, rng))
            rows, pivots = s.mat.rows, s.pivots
            basis = RowBasis.of(s)
            assert basis.to_subspace() == s and tuple(basis.pivots) == s.pivots
            # a vector outside s grows the basis and leaves s as it was
            v = random_independent(field, n, 1, rng, span=rows)[0]
            assert basis.insert(v) and basis.dim == d + 1
            assert s.mat.rows == rows and s.pivots == pivots and s.dim == d
            assert basis.to_subspace() == Subspace.from_vectors(field, n, rows + (v,))


class _EagerRowBasis:
    """The eager insert that `RowBasis` replaced: each new pivot is
    eliminated from the earlier rows at once, so the rows are always in
    reduced row-echelon form.  The oracle for the rows read off a
    `RowBasis` that reduces them once, on read."""

    def __init__(self, field, ncols, rows=(), pivots=()):
        self.field, self.ncols = field, ncols
        self.rows, self.pivots = list(rows), list(pivots)

    def insert(self, v):
        f = self.field
        cmp_zero, axpy = f.cmp_zero, f.axpy
        rows, pivots = self.rows, self.pivots
        w = v
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
            return False
        w = f.scale(f.inv(x), w) if x != f.one else list(w)
        for k, row in enumerate(rows):
            t = row[pc]
            if t != cmp_zero:
                rows[k] = axpy(row, t, w)
        at = bisect(pivots, pc)
        rows.insert(at, w)
        pivots.insert(at, pc)
        return True


def _seeded_row(field, n, rows, rng):
    """A random row, a sparse one, or a combination of the given rows."""
    kind = rng.randrange(3)
    if kind == 2 and rows:
        v = [field.zero] * n
        for row in rng.sample(rows, rng.randint(1, len(rows))):
            v = field.axpy(v, field.random(rng), row)
        return tuple(v)
    p = 0.3 if kind == 1 else 1.0
    entry = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))) if field is QQ \
        else (lambda: field.random(rng))
    return tuple(entry() if rng.random() < p else field.zero for _ in range(n))


def _check_reads_match_the_eager_basis(field, seed):
    """Insert, read, insert, read: after every insert the dimension and
    pivots, and at every read the rows, equal the eager oracle's; half the
    bases start from a subspace's canonical rows."""
    rng = random.Random(seed)
    for n in range(1, 7):
        for _ in range(6):
            seed_rows = [_seeded_row(field, n, [], rng) for _ in range(rng.randint(0, n))]
            if rng.random() < 0.5:
                s = Subspace.from_vectors(field, n, seed_rows)
                lazy = RowBasis.of(s)
                eager = _EagerRowBasis(field, n, s.mat.rows, s.pivots)
            else:
                lazy, eager = RowBasis(field, n), _EagerRowBasis(field, n)
            inserted = []
            for _ in range(2 * n + 2):
                v = _seeded_row(field, n, inserted, rng)
                inserted.append(v)
                assert lazy.insert(v) == eager.insert(v)
                assert lazy.dim == len(eager.rows) and lazy.pivots == eager.pivots
                if rng.random() < 0.4:
                    assert [tuple(r) for r in lazy.rows] == [tuple(r) for r in eager.rows]
            assert lazy.to_subspace().mat == Matrix(field, eager.rows)
            assert lazy.to_subspace() == Subspace.from_vectors(
                field, n, [tuple(r) for r in eager.rows] + inserted)


@pytest.mark.parametrize("field", SUM_FIELDS, ids=repr)
def test_rows_read_between_inserts_match_the_eager_basis(field):
    _check_reads_match_the_eager_basis(field, 53 + (field.order if field.finite else 0))


@pytest.mark.parametrize("field", SUM_FIELDS, ids=repr)
def test_mutant_that_skips_the_back_substitution_is_caught(field, monkeypatch):
    # with no back-substitution the rows read stay echelon but unreduced
    monkeypatch.setattr(RowBasis, "_back_substitute", lambda self: None)
    with pytest.raises(AssertionError):
        _check_reads_match_the_eager_basis(field, 53 + (field.order if field.finite else 0))


def _counting(field):
    """A copy of the field whose `axpy` counts its calls in `axpys`."""
    cls = type(field)

    def axpy(self, w, t, row):
        self.axpys += 1
        return cls.axpy(self, w, t, row)

    counting = copy.copy(field)
    counting.__class__ = type("Counting" + cls.__name__, (cls,), {"axpy": axpy})
    counting.axpys = 0
    return counting


def _unit_upper_rows(f, n, rng):
    """Unit upper-triangular rows with random entries above the diagonal
    and a one at (0, 1): inserted in order, no row needs an axpy to be
    reduced, but the basis they span needs back-substitution."""
    rows = [[f.zero] * i + [f.one] + [f.random(rng) for _ in range(n - i - 1)]
            for i in range(n)]
    rows[0][1] = f.one
    return rows


@pytest.mark.parametrize("field", SUM_FIELDS, ids=repr)
def test_rank_only_readers_never_back_substitute(field):
    # an eager insert would clear each new pivot from the rows above it,
    # so any axpy before the first read here is back-substitution
    rng = random.Random(59 + (field.order if field.finite else 0))
    f = _counting(field)
    for n in range(3, 7):
        rows = _unit_upper_rows(f, n, rng)
        for part in (rows, rows[:-1]):
            d = len(part)
            assert rank_of_rows(f, part, n) == d
            assert Matrix(f, part).rank() == d
            assert Matrix(f, part).is_invertible() == (d == n)
            basis = _span_closure(f, n, part, [])
            assert basis.dim == d
            assert f.axpys == 0
            # the first read reduces, once
            reduced = [tuple(r) for r in basis.rows]
            assert f.axpys > 0
            count = f.axpys
            assert [tuple(r) for r in basis.rows] == reduced and f.axpys == count
            eager = _EagerRowBasis(field, n)
            for r in part:
                eager.insert(r)
            assert reduced == [tuple(r) for r in eager.rows]
            f.axpys = 0


@pytest.mark.parametrize("field", SUM_FIELDS, ids=repr)
def test_insert_after_a_redundant_row_reduces_first(field):
    # a row that adds nothing leaves the basis unreduced, so a rank-only
    # caller whose last row is redundant never reduces; the insert after
    # it back-substitutes before it reduces its own row
    rng = random.Random(61 + (field.order if field.finite else 0))
    f = _counting(field)
    for n in range(3, 7):
        rows = _unit_upper_rows(f, n, rng)
        basis = RowBasis.spanning(f, n + 1, [r + [f.zero] for r in rows])
        assert not basis.insert(rows[0] + [f.zero]) and basis._dirty
        assert not basis.insert(rows[1] + [f.zero]) and not basis._dirty
        count = f.axpys
        eager = _EagerRowBasis(field, n + 1)
        for r in rows:
            eager.insert(r + [f.zero])
        assert [tuple(r) for r in basis.rows] == [tuple(r) for r in eager.rows]
        assert f.axpys == count
        f.axpys = 0

import random
from fractions import Fraction

import pytest

from thickrep.errors import AmbientMismatch, NotSquare
from thickrep.fields import GF, QQ, Poly
from thickrep.linalg import (
    Matrix,
    Subspace,
    charpoly,
    det,
    kernel,
    random_invertible,
    rref,
    subspace_algebra,
    unit_vector,
)


def M(field, rows):
    return Matrix.from_ints(field, rows)


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


def test_subspace_direct_sum():
    a = Subspace.from_vectors(QQ, 2, [unit_vector(QQ, 2, 0)])
    b = Subspace.from_vectors(QQ, 2, [unit_vector(QQ, 2, 1)])
    assert subspace_algebra(a, b, "direct_sum_is_ambient") is True
    assert subspace_algebra(a, a, "direct_sum_is_ambient") is False


def test_subspace_sum_intersect():
    a = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(1))])
    b = Subspace.from_vectors(QQ, 2, [(Fraction(0), Fraction(1))])
    assert subspace_algebra(a, b, "intersect").dim == 0
    assert subspace_algebra(a, b, "sum") == Subspace.full(QQ, 2)


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
            assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


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
            assert det(m) == expect


def test_inverse():
    rng = random.Random(4)
    for field in (QQ, GF(5)):
        for _ in range(10):
            m = random_invertible(field, 3, rng)
            assert m * m.inverse() == Matrix.identity(field, 3)

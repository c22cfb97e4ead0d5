import dataclasses
import random
from math import comb

import pytest

from thickrep import symplectic
from thickrep.errors import (
    CodimMismatch,
    CodimTooLarge,
    ConstructionError,
    PreconditionFailed,
)
from thickrep.fields import GF, QQ
from thickrep.linalg import (
    Matrix,
    RowBasis,
    Subspace,
    kernel_of_rows,
    random_independent,
    rank_of_rows,
    solve_rows,
    unit_vector,
)
from thickrep.exterior import (
    WedgeVector,
    is_decomposable,
    perp,
    projective_coefficients,
    projective_count,
    wedge_of_vectors,
)
from thickrep.symplectic import (
    SymplecticSpace,
    contraction_is_equivariant,
    contraction_matrix,
    is_isotropic,
    isotropic_transversal,
    ker_fm,
    ker_perp_realizability_check,
    lagrangian_complement,
    symplectic_normal_basis,
    _omega_row,
    _validate_normal_basis,
)


def basis_wedge(field, n, subset):
    return WedgeVector.basis_element(field, n, subset).coords


def omega(sp, u, v):
    """The form of sp on u and v, sum u_i v_(n+i) - u_(n+i) v_i, written
    out: `test_omega_and_its_row_match_the_form_matrix` checks that it is
    u . (F v) for the form matrix F, which costs 2n + 1 dots to its 2."""
    n, f = sp.n, sp.field
    return f.sub(f.dot(u[:n], v[n:]), f.dot(u[n:], v[:n]))


def meet(a, b):
    """a meet b, the kernel of the rows of both annihilators."""
    rows = a.annihilator().basis_vectors() + b.annihilator().basis_vectors()
    return kernel_of_rows(a.field, rows, a.ambient)


def test_contraction_values_2n4():
    sp = SymplecticSpace(2, QQ)
    f2 = contraction_matrix(sp, 2)
    # e1 ^ e3 pairs to omega(e1, e3) = 1
    assert f2.apply(basis_wedge(QQ, 4, (1, 3))) == (QQ.one,)
    assert f2.apply(basis_wedge(QQ, 4, (1, 2))) == (QQ.zero,)
    assert f2.rank() == 1


def test_ker_f2_dim_and_members():
    sp = SymplecticSpace(2, QQ)
    k = ker_fm(sp, 2)
    assert k.dim == 5
    assert k.contains_vector(basis_wedge(QQ, 4, (1, 2)))
    # e1^e3 + e2^e4 contracts to 2
    v = tuple(a + b for a, b in zip(basis_wedge(QQ, 4, (1, 3)), basis_wedge(QQ, 4, (2, 4))))
    assert not k.contains_vector(v)


def test_ker_dims_up_to_2n8():
    for n in (2, 3, 4):
        sp = SymplecticSpace(n, QQ)
        for m in range(2, n + 1):
            k = ker_fm(sp, m)
            assert k.dim == comb(2 * n, m) - comb(2 * n, m - 2)


def test_contraction_equivariance():
    for n in (2, 3):
        sp = SymplecticSpace(n, QQ)
        for m in range(2, n + 1):
            assert contraction_is_equivariant(sp, m)


def test_isotropic_wedges_in_kernel():
    rng = random.Random(12)
    for field in (QQ, GF(5)):
        sp = SymplecticSpace(3, field)
        cm = contraction_matrix(sp, 2)
        for _ in range(20):
            # random isotropic plane via two orthogonal vectors
            while True:
                u = tuple(field.random(rng) for _ in range(6))
                v = tuple(field.random(rng) for _ in range(6))
                if (
                    rank_of_rows(field, [u, v], 6) == 2
                    and omega(sp, u, v) == field.zero
                ):
                    break
            w = wedge_of_vectors(field, 6, [u, v])
            assert all(c == field.zero for c in cm.apply(w.coords))


def test_normal_basis_small_cases():
    sp = SymplecticSpace(2, QQ)
    basis, k, l = symplectic_normal_basis(sp, Subspace.zero(QQ, 4))
    assert (k, l) == (0, 2)
    basis, k, l = symplectic_normal_basis(sp, Subspace.full(QQ, 4))
    assert (k, l) == (2, 0)
    w = Subspace.from_vectors(QQ, 4, [unit_vector(QQ, 4, 0), unit_vector(QQ, 4, 2)])
    basis, k, l = symplectic_normal_basis(sp, w)
    assert k == 1


def test_normal_basis_random_validated():
    rng = random.Random(5)
    for field in (GF(5), QQ):
        for n in (2, 3):
            sp = SymplecticSpace(n, field)
            for _ in range(15):
                d = rng.randint(0, 2 * n)
                vecs = [
                    tuple(field.random(rng) for _ in range(2 * n)) for _ in range(d)
                ]
                w = Subspace.from_vectors(field, 2 * n, vecs)
                basis, k, l = symplectic_normal_basis(sp, w)
                assert 0 <= k <= n and 0 <= l <= n
                assert w.dim == (sp.n - l) + k


def test_lagrangian_complement_validated():
    sp = SymplecticSpace(2, QQ)
    w = Subspace.from_vectors(QQ, 4, [unit_vector(QQ, 4, i) for i in (0, 1, 2)])
    L = lagrangian_complement(sp, w)
    assert L.dim == 2 and is_isotropic(sp, L)
    assert rank_of_rows(QQ, L.basis_vectors() + w.basis_vectors(), 4) == 4


def test_lagrangian_complement_of_lagrangian():
    sp = SymplecticSpace(2, QQ)
    L0 = Subspace.from_vectors(QQ, 4, [unit_vector(QQ, 4, 0), unit_vector(QQ, 4, 1)])
    assert is_isotropic(sp, L0)
    L = lagrangian_complement(sp, L0)
    assert rank_of_rows(QQ, L.basis_vectors() + L0.basis_vectors(), 4) == 4


def test_normal_basis_of_zero_fills_from_the_whole_space():
    # the first fresh pair is solved from no equations: all of k^2n
    for field in (QQ, GF(2), GF(5)):
        for n in (1, 2, 3):
            sp = SymplecticSpace(n, field)
            basis, k, l = symplectic_normal_basis(sp, Subspace.zero(field, 2 * n))
            assert (basis, k, l) == (list(Matrix.identity(field, 2 * n).rows), 0, n)


def test_lagrangian_complement_without_hyperbolic_pairs_is_the_second_half():
    # a Lagrangian w has k = 0, and its complement is v_(n+1), ..., v_2n
    rng = random.Random(3)
    for field in (QQ, GF(5)):
        for n in (1, 2, 3):
            sp = SymplecticSpace(n, field)
            for _ in range(5):
                # the graph of a symmetric matrix is Lagrangian
                sym = [[field.random(rng) for _ in range(n)] for _ in range(n)]
                rows = [unit_vector(field, n, i) + tuple(
                    field.add(sym[i][j], sym[j][i]) for j in range(n)) for i in range(n)]
                w = Subspace.from_vectors(field, 2 * n, rows)
                assert is_isotropic(sp, w)
                basis, k, _ = symplectic_normal_basis(sp, w)
                assert k == 0
                assert lagrangian_complement(sp, w) == Subspace.from_vectors(
                    field, 2 * n, basis[n:])


def test_lagrangian_codim_too_large():
    sp = SymplecticSpace(2, QQ)
    w = Subspace.from_vectors(QQ, 4, [unit_vector(QQ, 4, 0)])
    with pytest.raises(CodimTooLarge):
        lagrangian_complement(sp, w)


def test_isotropic_transversal():
    sp = SymplecticSpace(2, QQ)
    w = Subspace.from_vectors(QQ, 4, [unit_vector(QQ, 4, i) for i in (0, 1, 2)])
    u = isotropic_transversal(sp, w, 1)
    assert u.dim == 1 and u.sum(w).dim == u.dim + w.dim
    with pytest.raises(CodimMismatch):
        isotropic_transversal(sp, w, 2)
    assert isotropic_transversal(sp, Subspace.full(QQ, 4), 0).dim == 0


def test_isotropic_transversal_of_lagrangian():
    sp = SymplecticSpace(2, GF(5))
    L0 = Subspace.from_vectors(GF(5), 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    u = isotropic_transversal(sp, L0, 2)
    assert u.dim == 2 and is_isotropic(sp, u) and u.sum(L0).dim == u.dim + L0.dim


def test_seeded_constructions_over_f5():
    rng = random.Random(99)
    count = 0
    for n in (2, 3):
        sp = SymplecticSpace(n, GF(5))
        while count < 60 * (n - 1):
            i = rng.randint(0, n)
            vecs = []
            while len(vecs) < 2 * n - i:
                cand = tuple(GF(5).random(rng) for _ in range(2 * n))
                if rank_of_rows(GF(5), vecs + [cand], 2 * n) == len(vecs) + 1:
                    vecs.append(cand)
            w = Subspace.from_vectors(GF(5), 2 * n, vecs)
            L = lagrangian_complement(sp, w)
            assert L.dim == n and is_isotropic(sp, L)
            if i:
                u = isotropic_transversal(sp, w, i)
                assert u.dim == i and u.sum(w).dim == u.dim + w.dim
            count += 1


def test_ker_perp_line_not_decomposable_over_q():
    sp = SymplecticSpace(2, QQ)
    kp = perp(ker_fm(sp, 2), 4, 2)
    assert kp.dim == 1
    ok, _ = is_decomposable(WedgeVector(QQ, 4, 2, kp.basis_vectors()[0]))
    assert not ok


def test_ker_perp_report_2n4():
    sp = SymplecticSpace(2, GF(5))
    report = ker_perp_realizability_check(sp, 2, trials=50, seed=3)
    assert report.pairing_prong_pass and report.nonzero_pairings == 50
    assert report.scan_prong_ran and report.scan_prong_pass


def test_ker_perp_report_rejects_m1():
    sp = SymplecticSpace(2, GF(5))
    with pytest.raises(PreconditionFailed):
        ker_perp_realizability_check(sp, 1)


def test_ker_perp_exhaustive_f3():
    sp = SymplecticSpace(2, GF(3))
    report = ker_perp_realizability_check(sp, 2, trials=10, seed=0)
    assert report.scan_prong_ran and report.scan_prong_pass


def _scan_prong_oracle(sp, m, points_cap=200_000):
    """The scan prong as its own projective scan: dim 0 and 1 directly,
    otherwise every projective point of the perp within the cap, counting
    all decomposable points instead of stopping at the first."""
    f = sp.field
    N = sp.dim
    kp = perp(ker_fm(sp, m), N, m)
    if kp.dim == 0:
        return {"scan_prong_ran": True, "scan_prong_pass": True, "scan_points": 0}
    if kp.dim == 1:
        ok, _ = is_decomposable(WedgeVector(f, N, N - m, kp.basis_vectors()[0]))
        return {"scan_prong_ran": True, "scan_prong_pass": not ok, "scan_points": 1}
    if not f.finite or projective_count(f.order, kp.dim) > points_cap:
        return {"scan_prong_ran": False, "scan_prong_pass": False, "scan_points": 0}
    bad = count = 0
    for coeffs in projective_coefficients(f, kp.dim):
        v = [f.zero] * kp.ambient
        for c, row in zip(coeffs, kp.basis_vectors()):
            v = f.axpy(v, f.neg(c), row)
        count += 1
        bad += is_decomposable(WedgeVector(f, N, N - m, v))[0]
    return {"scan_prong_ran": True, "scan_prong_pass": bad == 0, "scan_points": count}


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=repr)
def test_ker_perp_scan_prong_matches_projective_scan_oracle(field):
    for n, m in ((2, 2), (3, 2), (3, 3)):
        sp = SymplecticSpace(n, field)
        report = ker_perp_realizability_check(sp, m, trials=3, seed=1)
        expect = dataclasses.replace(report, **_scan_prong_oracle(sp, m))
        assert report == expect


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=str)
def test_omega_and_its_row_match_the_form_matrix(field):
    # the fixed shape of the form: omega(u, v) = sum u_i v_(n+i) - u_(n+i) v_i
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        sp = SymplecticSpace(n, field)
        for _ in range(20):
            u, v = (tuple(field.random(rng) for _ in range(2 * n)) for _ in range(2))
            assert omega(sp, u, v) == field.dot(u, sp.form.apply(v))
            row = _omega_row(sp, u)
            assert row == sp.form.transpose().apply(u)
            assert field.dot(row, v) == omega(sp, u, v)


# The normal-form layer as it was written before it ran on the row
# operations: each omega is two dots and a sub, the projection three scalar
# operations per coordinate, the validation the whole Gram matrix, and the
# transversal's picks independent modulo L meet w.  Kept as the oracle that
# the row-operation versions must match value for value.


def _reference_omega_row(sp, u):
    """The row c with c . z = omega(u, z), read off the form matrix."""
    return sp.form.transpose().apply(u)


def _reference_is_isotropic(sp, w):
    vecs = w.basis_vectors()
    z = sp.field.zero
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if omega(sp, vecs[i], vecs[j]) != z:
                return False
    return True


def _reference_symplectic_normal_basis(sp, w):
    f = sp.field
    n = sp.n
    N = sp.dim
    zero = f.zero

    work = [tuple(v) for v in w.basis_vectors()]
    pairs_w = []
    while True:
        found = None
        for i in range(len(work)):
            for j in range(len(work)):
                if i != j and omega(sp, work[i], work[j]) != zero:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        a = work[i]
        val = omega(sp, a, work[j])
        b = tuple(f.mul(f.inv(val), x) for x in work[j])
        rest = [work[t] for t in range(len(work)) if t not in (i, j)]
        projected = RowBasis(f, N)
        for y in rest:
            ya = omega(sp, y, a)
            yb = omega(sp, y, b)
            yp = tuple(
                f.sub(f.add(yc, f.mul(ya, bc)), f.mul(yb, ac))
                for yc, bc, ac in zip(y, b, a)
            )
            projected.insert(yp)
        pairs_w.append((a, b))
        work = [tuple(r) for r in projected.rows]
    rad = list(work)
    k = len(pairs_w)
    r = len(rad)

    pairs = list(pairs_w)
    pending = list(rad)
    while pending:
        v0 = pending.pop(0)
        rows = []
        rhs = []
        for u in [x for p in pairs for x in p] + pending:
            rows.append(_reference_omega_row(sp, u))
            rhs.append(zero)
        rows.append(_reference_omega_row(sp, v0))
        rhs.append(f.one)
        z = solve_rows(f, rows, rhs, N)
        if z is None:
            raise ConstructionError("no symplectic partner found")
        pairs.append((v0, z))

    while len(pairs) < n:
        rows = [_reference_omega_row(sp, u) for p in pairs for u in p]
        cb = kernel_of_rows(f, rows, N).basis_vectors()
        u0 = cb[0]
        partner = None
        for y in cb[1:]:
            val = omega(sp, u0, y)
            if val != zero:
                partner = tuple(f.mul(f.inv(val), x) for x in y)
                break
        if partner is None:
            raise ConstructionError("degenerate complement while completing basis")
        pairs.append((u0, partner))

    basis = [p[0] for p in pairs] + [p[1] for p in pairs]
    l = n - k - r
    _reference_validate_normal_basis(sp, basis, w, k, l)
    return basis, k, l


def _reference_validate_normal_basis(sp, basis, w, k, l):
    f = sp.field
    n = sp.n
    zero, one = f.zero, f.one
    for i in range(2 * n):
        for j in range(2 * n):
            expect = zero
            if j == i + n:
                expect = one
            elif i == j + n:
                expect = f.neg(one)
            if omega(sp, basis[i], basis[j]) != expect:
                raise ConstructionError("normal basis fails the form conditions")
    shape = basis[:k] + basis[k : n - l] + basis[n : n + k]
    span = Subspace.from_vectors(f, 2 * n, shape)
    if span != w:
        raise ConstructionError("normal basis does not exhibit the subspace shape")


def _reference_lagrangian_complement(sp, w):
    f = sp.field
    n = sp.n
    N = sp.dim
    codim = N - w.dim
    if codim > n:
        raise CodimTooLarge("codim %d exceeds %d" % (codim, n))
    if w.dim > n:
        w0 = Subspace.from_vectors(f, N, w.basis_vectors()[:n])
    else:
        w0 = w
    basis, k, l = _reference_symplectic_normal_basis(sp, w0)
    v = basis
    gens = list(v[n + k : 2 * n - k])
    for i in range(1, k + 1):
        gens.append(
            tuple(f.add(a, b) for a, b in zip(v[n - k + i - 1], v[n + i - 1]))
        )
    for i in range(1, k + 1):
        gens.append(
            tuple(f.add(a, b) for a, b in zip(v[2 * n - k + i - 1], v[i - 1]))
        )
    L = Subspace.from_vectors(f, N, gens)
    if L.dim != n or not _reference_is_isotropic(sp, L):
        raise ConstructionError("complement is not Lagrangian")
    if rank_of_rows(f, L.basis_vectors() + w.basis_vectors(), N) != N:
        raise ConstructionError("Lagrangian does not complement the subspace")
    return L


def _reference_isotropic_transversal(sp, w, i):
    f = sp.field
    N = sp.dim
    if N - w.dim != i:
        raise CodimMismatch("subspace has codim %d, not %d" % (N - w.dim, i))
    if i == 0:
        return Subspace.zero(f, N)
    L = _reference_lagrangian_complement(sp, w)
    inter = meet(L, w)
    added = RowBasis(f, N)
    for row in inter.basis_vectors():
        added.insert(row)
    ugens = []
    for row in L.basis_vectors():
        if added.insert(row):
            ugens.append(row)
    U = Subspace.from_vectors(f, N, ugens)
    if U.dim != i or not _reference_is_isotropic(sp, U):
        raise ConstructionError("transversal is not an isotropic i-space")
    if U.sum(w).dim != U.dim + w.dim:
        raise ConstructionError("transversal meets the subspace")
    return U


def _seeded_subspaces(field, n, per_dim=15):
    """`per_dim` seeded subspaces of k^2n of each dimension n..2n: the
    range on which a Lagrangian complement exists."""
    rng = random.Random(1000 * n + (field.order if field.finite else 0))
    for d in range(n, 2 * n + 1):
        for _ in range(per_dim):
            yield Subspace.from_vectors(
                field, 2 * n, random_independent(field, 2 * n, d, rng))


def _validates(validate, sp, basis, w, k, l):
    try:
        validate(sp, basis, w, k, l)
    except ConstructionError:
        return False
    return True


NORMAL_FORM_FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7), GF(2, 2)]


@pytest.mark.parametrize("field", NORMAL_FORM_FIELDS, ids=repr)
def test_normal_forms_match_the_reference_value_for_value(field):
    for n in (1, 2, 3, 4):
        sp = SymplecticSpace(n, field)
        for w in _seeded_subspaces(field, n):
            i = 2 * n - w.dim
            normal = symplectic_normal_basis(sp, w)
            assert normal == _reference_symplectic_normal_basis(sp, w)
            L = lagrangian_complement(sp, w)
            assert L == _reference_lagrangian_complement(sp, w)
            U = isotropic_transversal(sp, w, i)
            assert U == _reference_isotropic_transversal(sp, w, i)
            assert U.dim == i and rank_of_rows(
                field, U.basis_vectors() + w.basis_vectors(), 2 * n) == 2 * n
            for x in (w, L, U, Subspace.full(field, 2 * n)):
                assert is_isotropic(sp, x) == _reference_is_isotropic(sp, x)


@pytest.mark.parametrize("field", NORMAL_FORM_FIELDS, ids=repr)
def test_half_gram_validation_agrees_with_the_whole_gram_matrix(field):
    # the validation reads the pairs i < j only; on valid bases, on bases
    # with the form conditions broken and on the wrong subspace it accepts
    # and refuses exactly as the whole Gram matrix does
    for n in (1, 2, 3):
        sp = SymplecticSpace(n, field)
        subspaces = list(_seeded_subspaces(field, n, per_dim=3))
        for w, other in zip(subspaces, subspaces[1:] + subspaces[:1]):
            basis, k, l = symplectic_normal_basis(sp, w)
            swapped = [basis[n]] + basis[1:n] + [basis[0]] + basis[n + 1:]
            degenerate = basis[:n] + [basis[0]] + basis[n + 1:]
            for b, target in ((basis, w), (basis, other), (basis[::-1], w),
                              (swapped, w), (degenerate, w)):
                fast = _validates(_validate_normal_basis, sp, b, target, k, l)
                assert fast == _validates(_reference_validate_normal_basis,
                                          sp, b, target, k, l)
                if b is degenerate or target != w:
                    assert not fast
                elif b is basis:
                    assert fast


# The checks as they were before canonical bases seeded the eliminations:
# the shape eliminated again and compared with w, L + w and U + w ranked
# from scratch, w's leading rows eliminated again, and the Lagrangian that
# a transversal is built from checked as `lagrangian_complement` checks it.
# Kept as the oracles that the seeded checks must match value for value.


def _reference_shape_holds(sp, basis, w, k, l):
    n = sp.n
    shape = basis[:k] + basis[k : n - l] + basis[n : n + k]
    return Subspace.from_vectors(sp.field, 2 * n, shape) == w


def _reference_spans_with(sp, x, w):
    """x + w is the whole space, by the rank of both row sets together."""
    return rank_of_rows(sp.field, x.basis_vectors() + w.basis_vectors(), sp.dim) == sp.dim


def _reference_leading_rows(sp, w):
    if w.dim > sp.n:
        return Subspace.from_vectors(sp.field, sp.dim, w.basis_vectors()[: sp.n])
    return w


def _reference_complement_checks(sp, L, w):
    return L.dim == sp.n and _reference_is_isotropic(sp, L) and _reference_spans_with(sp, L, w)


@pytest.mark.parametrize("field", NORMAL_FORM_FIELDS, ids=repr)
def test_seeded_checks_match_the_reference_checks(field, monkeypatch):
    real = symplectic.symplectic_normal_basis
    seen = []
    monkeypatch.setattr(symplectic, "symplectic_normal_basis",
                        lambda sp, w0: seen.append(w0) or real(sp, w0))
    for n in (1, 2, 3, 4):
        sp = SymplecticSpace(n, field)
        subspaces = list(_seeded_subspaces(field, n))
        for w, other in zip(subspaces, subspaces[1:] + subspaces[:1]):
            # the shape check, where the Gram matrix holds: a normal basis
            # of w against w and against another subspace, and one of the
            # other subspace against w
            basis, k, l = real(sp, w)
            other_basis, ok, ol = real(sp, other)
            for b, kk, ll, target in ((basis, k, l, w), (basis, k, l, other),
                                      (other_basis, ok, ol, w)):
                assert _validates(_validate_normal_basis, sp, b, target, kk, ll) == \
                    _reference_shape_holds(sp, b, target, kk, ll)
            # w0 is w's leading rows, pivots included; the Lagrangian a
            # transversal is built from passes the complement's checks
            seen.clear()
            L = symplectic._lagrangian(sp, w)
            w0 = _reference_leading_rows(sp, w)
            assert seen == [w0] and seen[0].pivots == w0.pivots
            assert _reference_complement_checks(sp, L, w)
            assert L == lagrangian_complement(sp, w)
            U = isotropic_transversal(sp, w, 2 * n - w.dim)
            for x in (L, U, other, w, Subspace.zero(field, 2 * n)):
                assert (w.sum(x).dim == 2 * n) == _reference_spans_with(sp, x, w)


# Seeded mutants: each breaks one step of a construction and must be
# refused by the check that guards that step's contract.


@pytest.mark.parametrize("field", NORMAL_FORM_FIELDS, ids=repr)
def test_mutant_shape_vector_outside_w_is_refused(field, monkeypatch):
    # validate a normal basis of another subspace of the same shape: the
    # Gram matrix holds and the count is right, so containment must refuse
    real = symplectic._validate_normal_basis
    fired = 0
    for n in (1, 2, 3):
        sp = SymplecticSpace(n, field)
        normal = [(w, symplectic_normal_basis(sp, w))
                  for w in _seeded_subspaces(field, n, per_dim=3)]
        for w, (_, k, l) in normal:
            others = [b for x, (b, kk, ll) in normal if (kk, ll) == (k, l) and x != w]
            if not others:
                continue
            monkeypatch.setattr(symplectic, "_validate_normal_basis",
                                lambda sp_, basis_, w_, k_, l_: real(sp_, others[0], w_, k_, l_))
            with pytest.raises(ConstructionError, match="subspace shape"):
                symplectic_normal_basis(sp, w)
            monkeypatch.setattr(symplectic, "_validate_normal_basis", real)
            fired += 1
    assert fired


class _MisseededRowBasis(RowBasis):
    """A RowBasis whose `of` seeds with the subspace `wrong` instead of the
    one it is given, so a transversal keeps the rows of L independent
    modulo `wrong`, whether or not they meet w."""

    wrong = None

    @classmethod
    def of(cls, subspace):
        return RowBasis.of(cls.wrong)


def _reference_picks(L, x):
    """The span of the rows of L independent modulo x, eliminated afresh."""
    f, N = L.field, L.ambient
    added = RowBasis.spanning(f, N, x.basis_vectors())
    return Subspace.from_vectors(f, N, [row for row in L.basis_vectors() if added.insert(row)])


def _transversal_outcome(sp, w, i, expect):
    """Run `isotropic_transversal` and require what the reference checks
    say of the expected span: the message of the check that refuses it,
    or the span itself; returns the message or None."""
    if expect.dim != i or not _reference_is_isotropic(sp, expect):
        message = "not an isotropic"
    elif not _reference_spans_with(sp, expect, w):
        message = "meets the subspace"
    else:
        assert isotropic_transversal(sp, w, i) == expect
        return None
    with pytest.raises(ConstructionError, match=message):
        isotropic_transversal(sp, w, i)
    return message


def test_mutant_transversal_meeting_w_is_refused(monkeypatch):
    # seed the picks with another subspace of w's dimension: over small
    # fields some of the transversals they span meet w
    monkeypatch.setattr(symplectic, "RowBasis", _MisseededRowBasis)
    fired = 0
    for field in NORMAL_FORM_FIELDS:
        for n in (2, 3):
            sp = SymplecticSpace(n, field)
            subspaces = list(_seeded_subspaces(field, n, per_dim=5))
            for w, other in zip(subspaces, subspaces[1:] + subspaces[:1]):
                i = 2 * n - w.dim
                if not i or other.dim != w.dim:
                    continue
                monkeypatch.setattr(_MisseededRowBasis, "wrong", other)
                expect = _reference_picks(symplectic._lagrangian(sp, w), other)
                fired += _transversal_outcome(sp, w, i, expect) == "meets the subspace"
    assert fired


def test_mutant_non_isotropic_transversal_is_refused(monkeypatch):
    # build the transversal from an n-space whose first two canonical rows
    # e_1 and e_2 + e_(n+1) pair to 1: the picks are independent modulo w,
    # so only the isotropy check can refuse them
    fired = 0
    for field in NORMAL_FORM_FIELDS:
        for n in (2, 3):
            sp = SymplecticSpace(n, field)
            e = Matrix.identity(field, 2 * n).rows
            partner = field.axpy(e[1], field.neg(field.one), e[n])
            x = Subspace.from_vectors(field, 2 * n, [e[0], partner] + list(e[2:n]))
            monkeypatch.setattr(symplectic, "_lagrangian", lambda sp_, w_: x)
            for w in _seeded_subspaces(field, n, per_dim=5):
                i = 2 * n - w.dim
                if i:
                    expect = _reference_picks(x, w)
                    fired += (_transversal_outcome(sp, w, i, expect) == "not an isotropic"
                              and expect.dim == i)
    assert fired


@pytest.mark.parametrize("field", NORMAL_FORM_FIELDS, ids=repr)
def test_mutant_w0_outside_w_is_refused(field, monkeypatch):
    # build the complement from another subspace's leading rows: the result
    # L' is Lagrangian, so only the check L + w = V can refuse it.  It
    # must refuse every w that holds a row of L'
    real = symplectic.symplectic_normal_basis
    rng = random.Random(11)
    fired = 0
    for n in (1, 2, 3):
        sp = SymplecticSpace(n, field)
        subspaces = list(_seeded_subspaces(field, n, per_dim=5))
        for w, other in zip(subspaces, subspaces[1:] + subspaces[:1]):
            L_other = symplectic._lagrangian(sp, other)
            row = L_other.basis_vectors()[0]
            meeting = Subspace.from_vectors(field, 2 * n, [row] + random_independent(
                field, 2 * n, w.dim - 1, rng, span=[row]))
            monkeypatch.setattr(symplectic, "symplectic_normal_basis",
                                lambda sp_, w0: real(sp_, _reference_leading_rows(sp_, other)))
            for target in (w, meeting):
                if _reference_spans_with(sp, L_other, target):
                    assert lagrangian_complement(sp, target) == L_other
                else:
                    with pytest.raises(ConstructionError, match="does not complement"):
                        lagrangian_complement(sp, target)
                    fired += 1
            monkeypatch.setattr(symplectic, "symplectic_normal_basis", real)
    assert fired


@pytest.mark.parametrize("field", NORMAL_FORM_FIELDS, ids=repr)
def test_mutant_non_lagrangian_complement_is_refused(field, monkeypatch):
    for n in (1, 2, 3):
        sp = SymplecticSpace(n, field)
        units = Matrix.identity(field, 2 * n).rows
        # all of V, and for n >= 2 an n-space holding the hyperbolic pair
        # e_1, e_(n+1)
        bad = [Subspace.full(field, 2 * n)]
        if n >= 2:
            bad.append(Subspace.from_vectors(
                field, 2 * n, [units[0], units[n]] + list(units[1 : n - 1])))
        for x in bad:
            monkeypatch.setattr(symplectic, "_lagrangian", lambda sp_, w_: x)
            for w in _seeded_subspaces(field, n, per_dim=2):
                with pytest.raises(ConstructionError, match="not Lagrangian"):
                    lagrangian_complement(sp, w)

from fractions import Fraction
from math import factorial

import pytest

from thickrep.errors import NonIntegralMultiplicity, ScaleExceeded
from thickrep.characters import (
    ClassFunction,
    class_size,
    decompose,
    distinct_parts_coeffs,
    exterior_square_char,
    gl2_wedge_identity,
    hook_dimension,
    inner_product,
    partitions,
    plethysm_component_count,
    square_cycle_type,
    sym_char,
)


def test_partitions_order_and_counts():
    assert partitions(5) == (
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    )
    assert len(partitions(6)) == 11
    assert len(partitions(8)) == 22


def test_class_sizes_sum_to_group_order():
    for d in range(1, 7):
        assert sum(class_size(mu) for mu in partitions(d)) == factorial(d)


def test_hook_dimensions():
    assert hook_dimension((3, 2)) == 5
    assert hook_dimension((3, 1, 1)) == 6
    assert hook_dimension((2, 1, 1, 1)) == 4


def test_degrees():
    assert sym_char((3, 2)).degree == 5
    assert sym_char((2, 1, 1, 1)).degree == 4
    assert sym_char((3, 1, 1)).degree == 6


def test_sign_character():
    d = 5
    chi = sym_char((1,) * d)
    for mu in partitions(d):
        assert chi.value_on(mu) == (-1) ** (d - len(mu))


def test_trivial_character():
    chi = sym_char((4,))
    assert all(v == 1 for v in chi.values)


def test_orthogonality_small_degrees():
    for d in range(1, 7):
        chars = {lam: sym_char(lam) for lam in partitions(d)}
        for lam, chi in chars.items():
            for mu, psi in chars.items():
                assert inner_product(chi, psi) == (1 if lam == mu else 0)


def test_sum_of_squares_of_degrees():
    for d in range(1, 7):
        assert sum(sym_char(lam).degree ** 2 for lam in partitions(d)) == factorial(d)


def test_square_cycle_type():
    assert square_cycle_type((4,)) == (2, 2)
    assert square_cycle_type((3,)) == (3,)
    assert square_cycle_type((2, 2, 1)) == (1, 1, 1, 1, 1)


def test_exterior_square_of_trivial_is_zero():
    chi = sym_char((3,))
    assert all(v == 0 for v in exterior_square_char(chi).values)


def test_exterior_square_degree():
    psi = exterior_square_char(sym_char((3, 2)))
    assert psi.degree == 10


def test_wedge_square_decomposition_of_five_dim_reps():
    for lam in ((3, 2), (2, 2, 1)):
        psi = exterior_square_char(sym_char(lam))
        assert decompose(psi) == [((3, 1, 1), 1), ((2, 1, 1, 1), 1)]


def test_decompose_irreducible():
    assert decompose(sym_char((3, 2))) == [((3, 2), 1)]


def test_decompose_rejects_non_character():
    d = 3
    bogus = ClassFunction(d, tuple(Fraction(1, 2) for _ in partitions(d)))
    with pytest.raises(NonIntegralMultiplicity):
        decompose(bogus)


def test_gl2_identity_base_cases():
    assert gl2_wedge_identity(1, 0)
    assert gl2_wedge_identity(3, 0)
    assert gl2_wedge_identity(4, 1)


def test_gl2_identity_full_range():
    for a in range(0, 9):
        for b in range(-3, 4):
            assert gl2_wedge_identity(a, b), (a, b)


def test_gl2_identity_shifted_range_fails():
    assert not gl2_wedge_identity(4, 0, shift=1)
    assert not gl2_wedge_identity(5, 1, shift=1)


def test_distinct_parts_coeffs():
    assert distinct_parts_coeffs(3) == [1, 1, 1, 2, 1, 1, 1]
    assert distinct_parts_coeffs(4) == [1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1]


def test_distinct_parts_refused_past_the_desk_scale():
    # the work is cubic in n; n = 65 still takes milliseconds, so without
    # the bound this fails at once instead of stalling
    assert len(distinct_parts_coeffs(64)) == 64 * 65 // 2 + 1
    with pytest.raises(ScaleExceeded, match="1 <= n <= 64"):
        distinct_parts_coeffs(65)


def test_gl2_identity_refused_past_the_desk_scale():
    assert gl2_wedge_identity(64, -5)
    with pytest.raises(ScaleExceeded, match="0 <= a <= 64"):
        gl2_wedge_identity(65, 0)


def test_distinct_parts_symmetry():
    for n in range(3, 10):
        coeffs = distinct_parts_coeffs(n)
        assert coeffs == coeffs[::-1]


def test_plethysm_examples():
    assert plethysm_component_count("sym2", 3, 3) == 2
    assert plethysm_component_count("wedge2", 4, 3) == 2
    assert plethysm_component_count("sym2", 3, 0) == 1


def test_plethysm_matches_generating_function():
    for n in range(1, 5):
        sym_coeffs = distinct_parts_coeffs(n)
        wedge_coeffs = distinct_parts_coeffs(n - 1) if n > 1 else [1]
        for m in range(0, 7):
            expect_sym = sym_coeffs[m] if m < len(sym_coeffs) else 0
            expect_wedge = wedge_coeffs[m] if m < len(wedge_coeffs) else 0
            assert plethysm_component_count("sym2", n, m) == expect_sym, (n, m)
            assert plethysm_component_count("wedge2", n, m) == expect_wedge, (n, m)


# The reference count: expand e_m of the weight monomials and peel Schur
# polynomials, each summed over its semistandard tableaux, greedily by the
# lexicographically leading monomial.  It shares no code with the module's
# antisymmetrization count.


def _ref_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def _ref_elementary(monos, m, nvars):
    layers = [{(0,) * nvars: 1}] + [{} for _ in range(m)]
    for mono in monos:
        for t in range(m, 0, -1):
            shifted = {tuple(a + b for a, b in zip(k, mono)): v
                       for k, v in layers[t - 1].items()}
            layers[t] = _ref_add(layers[t], shifted)
    return layers[m]


def _ssyt(lam, nvars):
    """All semistandard tableaux of the shape: rows weakly increase,
    columns strictly increase, entries in 1..nvars."""
    rows = len(lam)

    def fill(r, above):
        if r == rows:
            yield []
            return
        width = lam[r]

        def fill_row(c, prev, row):
            if c == width:
                for rest in fill(r + 1, row):
                    yield [tuple(row)] + rest
                return
            lo = prev
            if above is not None and c < len(above):
                lo = max(lo, above[c] + 1)
            for val in range(lo, nvars + 1):
                row.append(val)
                yield from fill_row(c + 1, val, row)
                row.pop()

        yield from fill_row(0, 1, [])

    yield from fill(0, None)


def _schur_poly(lam, nvars):
    if len(lam) > nvars:
        return {}
    counts = {}
    for filling in _ssyt(lam, nvars):
        expo = [0] * nvars
        for row in filling:
            for entry in row:
                expo[entry - 1] += 1
        counts[tuple(expo)] = counts.get(tuple(expo), 0) + 1
    return counts


def _peel_count(kind, n, m):
    """(number of constituents, their multiplicities) by the greedy peel."""
    first = 0 if kind == "sym2" else 1
    monos = [tuple((t == i) + (t == j) for t in range(n))
             for i in range(n) for j in range(i + first, n)]
    poly = _ref_elementary(monos, m, n)
    mults = []
    while poly:
        lead = max(poly)
        assert list(lead) == sorted(lead, reverse=True), lead
        mults.append(poly[lead])
        lam = tuple(x for x in lead if x > 0)
        schur = _schur_poly(lam, n)
        poly = _ref_add(poly, {k: poly[lead] * v for k, v in schur.items()}, -1)
    return len(mults), mults


def test_plethysm_count_matches_the_schur_peel():
    for kind in ("sym2", "wedge2"):
        for n in range(1, 5):
            for m in range(0, 7):
                count, mults = _peel_count(kind, n, m)
                assert set(mults) <= {1}, (kind, n, m, mults)
                assert plethysm_component_count(kind, n, m) == count, (kind, n, m)

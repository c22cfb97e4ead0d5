import itertools
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, prod

import pytest

from thickrep.errors import (
    DivisionByZero,
    FieldMismatch,
    NotMonic,
    ScaleExceeded,
    WrongField,
    ZeroInput,
)
from thickrep.fields import (
    GF,
    QQ,
    ExtensionField,
    PrimeField,
    Poly,
    _MR_BOUND,
    _is_prime,
    check_scan,
    field_from_json,
    field_to_json,
    has_all_nth_roots,
    nth_roots,
    poly_factor_fp,
    poly_roots,
    rational_roots,
    scalar,
    scalar_arith,
)


def test_scalar_arith_rationals():
    a = scalar(QQ, "2/3")
    b = scalar(QQ, "1/6")
    assert scalar_arith(a, b, "add") == scalar(QQ, "5/6")


def test_scalar_arith_prime_field():
    F5 = GF(5)
    assert scalar_arith(scalar(F5, 3), scalar(F5, 4), "mul") == scalar(F5, 2)
    F7 = GF(7)
    assert scalar_arith(scalar(F7, 1), scalar(F7, 3), "div") == scalar(F7, 5)


def test_scalar_arith_errors():
    with pytest.raises(FieldMismatch):
        scalar_arith(scalar(QQ, 1), scalar(GF(5), 1), "add")
    with pytest.raises(DivisionByZero):
        scalar_arith(scalar(GF(5), 1), scalar(GF(5), 0), "div")


def test_cmp_zero_tests_like_zero():
    # the elimination loops compare entries with cmp_zero instead of zero
    for f in (GF(2), GF(5), GF(3, 2)):
        assert [x != f.cmp_zero for x in f.elements()] == [x != f.zero for x in f.elements()]
    values = [QQ.zero, QQ.one, Fraction(-3, 7), QQ.parse("0/5"), QQ.from_int(0)]
    assert [x != QQ.cmp_zero for x in values] == [x != QQ.zero for x in values]


def test_division_roundtrip():
    rng = random.Random(7)
    F7 = GF(7)
    for _ in range(50):
        a = QQ.random(rng)
        b = QQ.random(rng)
        if b != 0:
            assert QQ.mul(QQ.div(a, b), b) == a
        x, y = rng.randrange(7), rng.randrange(1, 7)
        assert F7.mul(F7.div(x, y), y) == x % 7


def _poly(field, ints):
    return Poly.from_ints(field, ints)


def test_factor_irreducible_quadratic_f2():
    F2 = GF(2)
    f = _poly(F2, [1, 1, 1])
    assert poly_factor_fp(f) == [(f, 1)]


def test_factor_split_quadratic_f5():
    F5 = GF(5)
    f = _poly(F5, [-1, 0, 1])  # x^2 - 1
    facs = poly_factor_fp(f)
    assert facs == [(_poly(F5, [1, 1]), 1), (_poly(F5, [4, 1]), 1)]
    # multiply back
    prod = _poly(F5, [1])
    for g, mult in facs:
        for _ in range(mult):
            prod = prod * g
    assert prod == f


def test_factor_repeated_root():
    F3 = GF(3)
    f = _poly(F3, [0, 0, 0, 1])  # x^3
    assert poly_factor_fp(f) == [(_poly(F3, [0, 1]), 3)]


def test_factor_not_monic():
    F3 = GF(3)
    with pytest.raises(NotMonic):
        poly_factor_fp(_poly(F3, [1, 2]))


def test_factor_wrong_field():
    with pytest.raises(WrongField):
        poly_factor_fp(_poly(QQ, [1, 0, 1]))


def test_factor_product_roundtrip_random():
    rng = random.Random(20240)
    for p in (2, 3, 5, 13):
        F = GF(p)
        for _ in range(20):
            deg = rng.randint(1, 6)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
            f = Poly(F, coeffs)
            facs = poly_factor_fp(f)
            prod = _poly(F, [1])
            for g, mult in facs:
                assert g.is_monic()
                if g.degree >= 2:
                    assert all(g(x) != 0 for x in F.elements())
                for _ in range(mult):
                    prod = prod * g
            assert prod == f


def test_poly_roots_fp_match_linear_factors():
    # oracle: the linear factors x - r of the factorization, in root order
    rng = random.Random(909)
    for p in (2, 3, 5, 13):
        F = GF(p)
        for _ in range(20):
            deg = rng.randint(1, 6)
            f = Poly(F, [rng.randrange(p) for _ in range(deg)] + [1])
            linear = sorted(
                (F.neg(g.coeffs[0]), mult)
                for g, mult in poly_factor_fp(f) if g.degree == 1
            )
            assert poly_roots(f) == linear


def _roots_by_division(f, candidates):
    """The root scan that `poly_roots` replaced, the oracle for its
    synthetic division: Horner evaluation, then `Poly.divmod` by x - a
    while a is still a root."""
    out = []
    for a in candidates:
        mult = 0
        rem = f
        while rem.degree >= 1 and rem(a) == f.field.zero:
            rem, _ = rem.divmod(Poly.x_minus(f.field, a))
            mult += 1
        if mult:
            out.append((a, mult))
    return out


def test_poly_roots_match_division_oracle():
    # products of linear factors, zero roots and repeats among them, with a
    # random monic cofactor
    rng = random.Random(1313)
    fields = (GF(2), GF(3), GF(5), GF(13), GF(2, 2), GF(3, 2), QQ)
    for field in fields:
        for _ in range(40):
            f = Poly(field, [field.random(rng) for _ in range(rng.randint(0, 3))] + [field.one])
            for _ in range(rng.randint(0, 4)):
                r = field.zero if rng.random() < 0.3 else field.random(rng)
                f = f * Poly.x_minus(field, r)
                if rng.random() < 0.3:
                    f = f * Poly.x_minus(field, r)
            if field.finite:
                expected = _roots_by_division(f, field.elements())
            else:
                expected = _rational_roots_by_divisors(f)
            assert poly_roots(f) == expected, (field, f)


def test_poly_roots_rootless_quartic_over_large_prime():
    p = 10007
    F = GF(p)
    s, s2 = [x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1][:2]
    f = _poly(F, [-s, 0, 1]) * _poly(F, [-s2, 0, 1])
    t0 = time.perf_counter()
    assert poly_roots(f) == []
    assert time.perf_counter() - t0 < 1.0


def test_nth_roots_examples():
    F5 = GF(5)
    assert nth_roots(scalar(F5, 4), 2) == [scalar(F5, 2), scalar(F5, 3)]
    assert nth_roots(scalar(F5, 2), 2) == []
    assert nth_roots(scalar(QQ, 8), 3) == [scalar(QQ, 2)]


def test_nth_roots_zero_input():
    with pytest.raises(ZeroInput):
        nth_roots(scalar(GF(5), 0), 2)


def test_nth_roots_count_matches_gcd():
    for p in (5, 7, 13):
        F = GF(p)
        for n in (2, 3, 4):
            for a in range(1, p):
                roots = F.nth_roots(a, n)
                for r in roots:
                    assert pow(r, n, p) == a
                assert len(roots) in (0, gcd(n, p - 1))
                if roots:
                    assert len(roots) == gcd(n, p - 1)


def test_has_all_nth_roots_matches_root_scan():
    for field in (GF(2), GF(5), GF(7), GF(13), GF(2, 2), GF(3, 2), GF(5, 2)):
        for n in range(1, 7):
            for a in field.nonzero_elements():
                expected = len(field.nth_roots(a, n)) == n
                assert has_all_nth_roots(field, a, n) == expected, (field, a, n)
    for a, n in ((Fraction(9, 4), 2), (Fraction(8), 3), (Fraction(2), 2), (Fraction(1), 1)):
        assert has_all_nth_roots(QQ, a, n) == (len(QQ.nth_roots(a, n)) == n)


def test_element_scans_of_large_fields_raise_scale_exceeded():
    # 2**61 - 2 = 2 * (2**60 - 1): squares have both roots, fourth roots never
    big, big2 = GF(2**61 - 1), GF(2**61 - 1, 2)
    t0 = time.perf_counter()
    for scan in (
        lambda: big.nth_roots(4, 2),
        lambda: big2.nth_roots((0, 1), 2),
    ):
        with pytest.raises(ScaleExceeded):
            scan()
    # enumerating stays lazy: only a whole scan is refused
    assert list(itertools.islice(big2.nonzero_elements(), 2)) == [(0, 1), (0, 2)]
    assert has_all_nth_roots(big, 4, 2) and not has_all_nth_roots(big, 3, 2)
    assert not has_all_nth_roots(big, 16, 4)
    assert has_all_nth_roots(big2, (0, 1), 2)
    assert time.perf_counter() - t0 < 1.0
    check_scan(GF(999_983))
    with pytest.raises(ScaleExceeded):
        check_scan(GF(1_000_003))


def test_root_searches_of_a_huge_field_refuse_at_once():
    # Norton's eigenvalue search and the linear factors of poly_factor_fp go
    # through poly_roots, which refuses a field of 2**61 - 1 elements before
    # walking it, while all_submodules answers a line with no search; a
    # child process with a timeout turns a stall into a failure instead of
    # a hang
    code = """
import time
from thickrep.errors import ScaleExceeded
from thickrep.fields import GF, Poly, poly_factor_fp
from thickrep.linalg import Matrix, Subspace
from thickrep.repcore import GROUP, Representation, _norton_irreducible, all_submodules
p = 2**61 - 1
F = GF(p)
plane = Representation(F, 2, GROUP, [Matrix(F, [[p - 2, 1], [0, 3]])])
for search in (lambda: _norton_irreducible(plane),
               lambda: poly_factor_fp(Poly.from_ints(F, [-5, 1]))):
    t0 = time.perf_counter()
    try:
        search()
    except ScaleExceeded:
        print(time.perf_counter() - t0)
line = Representation(F, 1, GROUP, [Matrix(F, [[p - 2]])])
t0 = time.perf_counter()
assert all_submodules(line) == [Subspace.zero(F, 1), Subspace.full(F, 1)]
print(time.perf_counter() - t0)
"""
    import thickrep

    src = str(pathlib.Path(thickrep.__file__).resolve().parents[1])
    path = [src] + [d for d in os.environ.get("PYTHONPATH", "").split(os.pathsep) if d]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    seconds = [float(x) for x in done.stdout.split()]
    assert len(seconds) == 3 and max(seconds) < 1.0, done.stdout


def test_finite_field_elements_come_in_canonical_order():
    for field in (GF(2), GF(3), GF(7), GF(2, 2), GF(3, 2)):
        elems = list(field.elements())
        assert elems == sorted(elems, key=field.sort_key)
        assert len(set(elems)) == field.order
        assert list(field.nonzero_elements()) == [x for x in elems if x != field.zero]


def test_negative_and_even_rational_roots():
    assert QQ.nth_roots(Fraction(9, 4), 2) == [Fraction(-3, 2), Fraction(3, 2)]
    assert QQ.nth_roots(Fraction(-8), 3) == [Fraction(-2)]
    assert QQ.nth_roots(Fraction(-4), 2) == []


def _int_nth_root(v, n):
    """Exact integer n-th root of v >= 1 by bisection, or None."""
    lo, hi = 1, 1
    while hi**n < v:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < v:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == v else None


def _rational_nth_roots_exact(a, n):
    """The oracle for `QQ.nth_roots`: x = u/v in lowest terms has u**n the
    numerator and v**n the denominator of a, so only exact integer roots
    of both give a root, and then -x too when n is even."""
    u = _int_nth_root(abs(a.numerator), n)
    v = _int_nth_root(a.denominator, n)
    if u is None or v is None:
        return []
    r = Fraction(u, v)
    if a < 0:
        return [-r] if n % 2 else []
    return [-r, r] if n % 2 == 0 else [r]


def test_rational_nth_roots_match_exact_integer_roots():
    rng = random.Random(606)
    values = [Fraction(3**40 + 1), Fraction(-(7**30)), Fraction(10**18 + 9, 2**60)]
    for _ in range(60):
        base = Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 30))
        values.append(base ** rng.randint(1, 6))
        values.append(base ** rng.randint(1, 6) * rng.choice((1, 2, -1, Fraction(1, 3))))
        values.append(Fraction(rng.randint(-10**30, 10**30) or 1, rng.randint(1, 10**6)))
    values += [Fraction(12345678910111213) ** k for k in (2, 3, 5)]
    for a in values:
        for n in range(1, 7):
            assert QQ.nth_roots(a, n) == _rational_nth_roots_exact(a, n), (a, n)


def test_rational_roots_of_poly():
    f = Poly(QQ, [Fraction(-2), Fraction(1), Fraction(0), Fraction(1)])
    # x^3 + x - 2 = (x - 1)(x^2 + x + 2)
    assert rational_roots(f) == [(Fraction(1), 1)]


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            out.append(n // i)
        i += 1
    return sorted(set(out))


def _rational_roots_by_divisors(f):
    """The rational root test: every root is r/s with r dividing the lowest
    nonzero coefficient and s the leading one of the primitive integer form.
    The oracle for the Hensel root finder; it factors by trial division."""
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in f.coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    lead, const = ints[-1], next(c for c in ints if c != 0)
    cands = {Fraction(0)}
    for r in _divisors(abs(const)):
        for s in _divisors(abs(lead)):
            cands.update((Fraction(r, s), Fraction(-r, s)))
    return _roots_by_division(f, sorted(cands, key=QQ.sort_key))


def test_rational_roots_match_divisor_scan():
    # a rational constant times linear factors with rational roots,
    # irreducible quadratics and random factors, some repeated
    rng = random.Random(2024)

    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    for _ in range(150):
        f = Poly(QQ, [q() or Fraction(1)])
        target = rng.randint(1, 8)
        while f.degree < target:
            k = rng.random()
            if k < 0.5:
                fac = Poly(QQ, [-q(), Fraction(rng.randint(1, 4))])
            elif k < 0.8:
                fac = _poly(QQ, [rng.randint(1, 7), rng.randint(-3, 3), 1])
            else:
                fac = Poly(QQ, [q() for _ in range(rng.randint(2, 4))] + [Fraction(1)])
            f = f * fac * (fac if rng.random() < 0.2 else _poly(QQ, [1]))
        assert rational_roots(f) == _rational_roots_by_divisors(f), f


def test_rational_roots_edge_cases():
    assert rational_roots(_poly(QQ, [5])) == []
    assert rational_roots(_poly(QQ, [0, 0, 0, 1])) == [(Fraction(0), 3)]
    # -6x^3 + x^2 + x = -x(3x + 1)(2x - 1)
    f = _poly(QQ, [0, 1, 1, -6])
    assert rational_roots(f) == [(Fraction(-1, 3), 1), (Fraction(0), 1), (Fraction(1, 2), 1)]
    assert rational_roots(_poly(QQ, [2, 0, 1])) == []
    with pytest.raises(ZeroInput):
        rational_roots(Poly(QQ, []))
    with pytest.raises(WrongField):
        rational_roots(_poly(GF(5), [1, 1]))


def test_rational_roots_of_large_constant_without_factoring():
    # (x - 1)(x - 2)(x - (10**9 + 7) * (10**8 + 9)): the divisor scan
    # would trial-divide a constant near 2 * 10**17
    big = (10**9 + 7) * (10**8 + 9)
    f = _poly(QQ, [-1, 1]) * _poly(QQ, [-2, 1]) * _poly(QQ, [-big, 1])
    t0 = time.perf_counter()
    assert rational_roots(f) == [(Fraction(1), 1), (Fraction(2), 1), (Fraction(big), 1)]
    assert time.perf_counter() - t0 < 1.0


def test_field_json_roundtrip():
    for f in (QQ, GF(5)):
        assert field_from_json(field_to_json(f)) == f
    assert field_to_json(GF(5)) == {"kind": "Fp", "p": 5}
    assert field_to_json(QQ) == {"kind": "Q"}


def test_scalar_formatting():
    assert str(scalar(QQ, "3/2")) == "3/2"
    assert str(scalar(GF(5), 9)) == "4"


def test_extension_field_basics():
    F4 = GF(2, 2)
    elems = list(F4.elements())
    assert len(elems) == 4
    for a in elems:
        if a == F4.zero:
            continue
        assert F4.mul(a, F4.inv(a)) == F4.one
    F9 = GF(3, 2)
    assert len(list(F9.elements())) == 9
    for a in F9.elements():
        if a == F9.zero:
            continue
        assert F9.mul(a, F9.inv(a)) == F9.one


def _inverse_by_scan(field, a):
    return next(b for b in field.elements() if field.mul(a, b) == field.one)


def test_extension_inverse_matches_scan_oracle():
    for field in (GF(2, 2), GF(3, 2), GF(5, 2)):
        for a in field.nonzero_elements():
            assert field.inv(a) == _inverse_by_scan(field, a)
        with pytest.raises(DivisionByZero):
            field.inv(field.zero)


def test_rational_inverse_matches_fraction_division():
    # QQ.inv swaps numerator and denominator instead of dividing
    values = [1, -1, 7, -12, Fraction(3, 4), Fraction(-5, 9), Fraction(-1, 2),
              Fraction(2 ** 61 - 1, 3 ** 40), Fraction(-(10 ** 30) - 7, 10 ** 45 + 1)]
    for a in values:
        inv = QQ.inv(a)
        # normalised: a positive denominator and no common factor
        assert type(inv) is Fraction and inv.denominator > 0
        assert gcd(inv.numerator, inv.denominator) == 1
        assert inv == 1 / Fraction(a)
    for zero in (0, QQ.zero, Fraction(0, 5)):
        with pytest.raises(DivisionByZero):
            QQ.inv(zero)


def test_extension_inverse_refuses_a_reducible_modulus():
    F = ExtensionField(3, (2, 0, 1))  # x^2 - 1 = (x - 1)(x + 1)
    assert F.inv(F.one) == F.one
    with pytest.raises(WrongField):
        F.inv((1, 1))


def test_large_quadratic_extension_inverts_fast():
    f = GF(2**61 - 1, 2)
    t0 = time.perf_counter()
    b = f.inv((0, 1))
    assert f.mul((0, 1), b) == f.one
    assert time.perf_counter() - t0 < 1.0


def test_canonical_scalar_ordering():
    vals = [Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(0)]
    ordered = sorted(vals, key=QQ.sort_key)
    assert ordered == [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(2)]
    assert sorted([4, 0, 2], key=GF(5).sort_key) == [0, 2, 4]


ROW_FIELDS = (QQ, GF(2), GF(3), GF(7), GF(2**61 - 1), GF(2, 2), GF(3, 2))


def _canonical(field, x):
    if field.finite:
        return x in field.elements()
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def _row_entry(field, rng):
    # over Q: denominators up to 12, signs, and zeros the kernel skips
    if field is QQ:
        if rng.random() < 0.3:
            return field.zero
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    return field.random(rng)


def test_row_kernel_matches_elementwise_definitions():
    # over Q the elementwise definitions are the Fraction-operator forms
    # sum(a * b), [x - t * y] and [c * x]: the oracle for the integer kernel
    rng = random.Random(5)
    for field in ROW_FIELDS:
        for _ in range(100):
            n = rng.randint(0, 12)
            u = [_row_entry(field, rng) for _ in range(n)]
            v = [_row_entry(field, rng) for _ in range(n)]
            for t in (_row_entry(field, rng), field.zero):
                expect = field.zero
                for a, b in zip(u, v):
                    expect = field.add(expect, field.mul(a, b))
                assert field.dot(u, v) == expect
                assert field.axpy(u, t, v) == [
                    field.sub(x, field.mul(t, y)) for x, y in zip(u, v)
                ]
                assert field.scale(t, v) == [field.mul(t, x) for x in v]
                pairs = list(itertools.permutations(range(n), 2))
                minors = field.minors2(u, v, pairs)
                assert minors == [
                    field.sub(field.mul(u[k], v[l]), field.mul(u[l], v[k])) for k, l in pairs
                ]
                outputs = [field.dot(u, v)] + field.axpy(u, t, v) + field.scale(t, v) + minors
                assert all(_canonical(field, x) for x in outputs)
            # a row's key is the tuple of its entries' keys
            assert field.row_key(tuple(u)) == tuple(field.sort_key(x) for x in u)


def test_rational_dot_of_empty_rows_is_a_fraction():
    assert type(QQ.dot([], [])) is Fraction and QQ.dot([], []) == 0
    assert QQ.axpy([], Fraction(1, 2), []) == [] and QQ.scale(Fraction(3), []) == []


def test_no_per_field_branches_in_elimination_modules():
    # every elimination goes through the field's row operations
    import thickrep.exterior
    import thickrep.linalg
    import thickrep.symplectic

    for mod in (thickrep.linalg, thickrep.exterior, thickrep.symplectic):
        with open(mod.__file__, encoding="utf-8") as fh:
            src = fh.read()
        assert ".native" not in src
        assert "native_p" not in src
        assert not re.search(r"isinstance\([^)]*PrimeField", src), mod.__name__


def _is_prime_by_trial_division(p):
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def test_miller_rabin_matches_trial_division():
    for p in range(-3, 10_000):
        assert _is_prime(p) == _is_prime_by_trial_division(p), p


def test_miller_rabin_rejects_pseudoprimes():
    composites = {
        2047: (23, 89),  # strong pseudoprime to base 2
        3215031751: (151, 751, 28351),  # strong pseudoprime to bases 2, 3, 5, 7
        41041: (7, 11, 13, 41),  # Carmichael number
    }
    for n, factors in composites.items():
        assert n == prod(factors)
        assert not _is_prime(n), n
        with pytest.raises(WrongField):
            GF(n)


def test_large_prime_field_builds_fast():
    t0 = time.perf_counter()
    f = PrimeField(2**61 - 1)
    assert time.perf_counter() - t0 < 1.0
    assert f.mul(f.inv(3), 3) == 1
    # beyond the bound the fixed bases decide nothing, so p is refused
    for p in (_MR_BOUND, 2**89 - 1):
        with pytest.raises(WrongField):
            GF(p)


def test_quadratic_extension_refuses_non_primes():
    for p in (0, 1, 9):
        with pytest.raises(WrongField):
            GF(p, 2)


def test_quadratic_extension_modulus_matches_squares_oracle():
    for p in range(3, 200):
        if not _is_prime(p):
            continue
        squares = {pow(x, 2, p) for x in range(1, p)}
        s = next(x for x in range(2, p) if x not in squares)
        assert GF(p, 2).modulus == (-s % p, 0, 1)


def test_large_quadratic_extension_builds_fast():
    t0 = time.perf_counter()
    p = 2**61 - 1
    f = GF(p, 2)
    assert time.perf_counter() - t0 < 1.0
    s = f.mul((0, 1), (0, 1))[0]  # x^2 = s, a quadratic nonresidue
    assert pow(s, (p - 1) // 2, p) == p - 1


def test_rational_sort_key_matches_the_fraction_built_key():
    # the key reads numerator and denominator off the element; the key of
    # Fraction(a), which it replaces, is the oracle
    rng = random.Random(7)
    values = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(500)]
    values += [Fraction(-3), Fraction(0), Fraction(4, 2), Fraction(-7, 7), -2, 0, 5]
    oracle = lambda a: (Fraction(a).numerator, Fraction(a).denominator)  # noqa: E731
    assert [QQ.sort_key(a) for a in values] == [oracle(a) for a in values]
    assert sorted(values, key=QQ.sort_key) == sorted(values, key=oracle)

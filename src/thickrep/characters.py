"""Symmetric-group characters, partition generating functions, and exact
two-variable / n-variable symmetric polynomial decompositions.

Partitions are plain weakly-decreasing tuples.  Class functions hold one
exact value per cycle type of S_d, in the canonical (descending
lexicographic) order of partitions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import BadN, ConstructionError, NonIntegralMultiplicity, ScaleExceeded

MN_DEGREE_CAP = 8  # Murnaghan-Nakayama memo guard


@lru_cache(maxsize=None)
def partitions(d: int):
    """All partitions of d as decreasing tuples, descending lexicographic."""

    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(sorted(gen(d, d), reverse=True))


def conjugate_partition(lam):
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def hook_dimension(lam) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    d = sum(lam)
    conj = conjugate_partition(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= row - j + conj[j] - i - 1
    if factorial(d) % prod:
        raise ConstructionError("hook product %d does not divide %d!" % (prod, d))
    return factorial(d) // prod


def class_size(mu) -> int:
    """Size of the conjugacy class of cycle type mu in S_d."""
    z = 1
    for part, count in Counter(mu).items():
        z *= part**count * factorial(count)
    return factorial(sum(mu)) // z


@lru_cache(maxsize=None)
def _mn_value(lam, mu) -> int:
    """Murnaghan-Nakayama recursion on border-strip removals, computed with
    beta-sets: removing a strip of length t moves one beta number down by t."""
    if not mu:
        return 1
    t = mu[0]
    rest = mu[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        crossings = sum(1 for c in beta if nb < c < b)
        newbeta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        newlam = tuple(x - (ell - 1 - k) for k, x in enumerate(newbeta) if x > ell - 1 - k)
        total += (-1) ** crossings * _mn_value(newlam, rest)
    return total


@dataclass(frozen=True)
class ClassFunction:
    d: int
    values: tuple  # aligned with partitions(d)

    def value_on(self, mu):
        return self.values[partitions(self.d).index(tuple(mu))]

    @property
    def degree(self):
        return self.values[partitions(self.d).index((1,) * self.d)]


def sym_char(lam) -> ClassFunction:
    """The irreducible symmetric-group character of the given partition;
    BadN unless lam is a weakly decreasing tuple of positive integers."""
    lam = tuple(lam)
    if any(type(x) is not int or x < 1 for x in lam) or list(lam) != sorted(lam, reverse=True):
        raise BadN("%s is not a partition" % (lam,))
    d = sum(lam)
    if d > MN_DEGREE_CAP:
        raise ScaleExceeded("degree %d beyond the implemented range" % d)
    values = tuple(_mn_value(lam, mu) for mu in partitions(d))
    chi = ClassFunction(d, values)
    if chi.degree != hook_dimension(lam):
        raise ConstructionError("degree of %s disagrees with the hook formula" % (lam,))
    return chi


def square_cycle_type(mu):
    """Cycle type of g^2 for g of type mu: even parts halve and double up."""
    parts = []
    for c in mu:
        if c % 2 == 0:
            parts.extend([c // 2, c // 2])
        else:
            parts.append(c)
    return tuple(sorted(parts, reverse=True))


def exterior_square_char(chi: ClassFunction) -> ClassFunction:
    """Character of the alternating square: (chi(g)^2 - chi(g^2)) / 2."""
    d = chi.d
    values = []
    for mu in partitions(d):
        a = chi.value_on(mu)
        b = chi.value_on(square_cycle_type(mu))
        values.append(Fraction(a * a - b, 2))
    return ClassFunction(d, tuple(values))


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    if f.d != g.d:
        raise ValueError("class functions of S_%d and S_%d" % (f.d, g.d))
    total = Fraction(0)
    for mu, a, b in zip(partitions(f.d), f.values, g.values):
        total += class_size(mu) * Fraction(a) * Fraction(b)
    return total / factorial(f.d)


def decompose(f: ClassFunction):
    """Multiplicities of the irreducible characters in a virtual character;
    the reconstruction is re-checked before returning."""
    d = f.d
    out = []
    recon = [Fraction(0)] * len(partitions(d))
    for lam in partitions(d):
        chi = sym_char(lam)
        mult = inner_product(f, chi)
        if mult.denominator != 1:
            raise NonIntegralMultiplicity("<f, chi_%s> = %s" % (lam, mult))
        if mult:
            out.append((lam, int(mult)))
            recon = [
                r + int(mult) * v for r, v in zip(recon, chi.values)
            ]
    if tuple(recon) != tuple(Fraction(v) for v in f.values):
        raise NonIntegralMultiplicity("decomposition does not reconstruct input")
    return out


# polynomials in any number of variables as {exponent tuple: int}; the
# exponents may be negative (Laurent polynomials)


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def weight_char_2var(high: int, low: int) -> dict:
    """Character of the irreducible 2-variable weight (high, low): the
    homogeneous sum x^high y^low + x^(high-1) y^(low+1) + ... + x^low y^high."""
    if high < low:
        raise BadN("weight (%d, %d) has high < low" % (high, low))
    return {(high - t, low + t): 1 for t in range(high - low + 1)}


def gl2_wedge_identity(a: int, b: int, shift: int = 0) -> bool:
    """Exact check that the alternating square of the weight-(a+b, b)
    character equals the predicted sum of weight characters.  The work is
    quadratic in a, so a is refused (ScaleExceeded) beyond 64.

    `shift` displaces the summand index range; nonzero shifts are for
    verifying the detector is not vacuous.
    """
    if a < 0:
        raise BadN("a must be nonnegative")
    if a > 64:
        raise ScaleExceeded("desk scale is 0 <= a <= 64")
    ch = weight_char_2var(a + b, b)
    # ch(x, y)^2 - ch(x^2, y^2) is twice the alternating square
    lhs = _poly_add(_poly_mul(ch, ch), {(2 * i, 2 * j): -c for (i, j), c in ch.items()})
    if any(v % 2 for v in lhs.values()):
        return False
    rhs = {}
    for k in range(1 + shift, (a + 1) // 2 + 1 + shift):
        high = 2 * a + 2 * b - 2 * k + 1
        low = 2 * b + 2 * k - 1
        if high < low:
            return False
        rhs = _poly_add(rhs, weight_char_2var(high, low))
    return {k: v // 2 for k, v in lhs.items()} == rhs


def distinct_parts_coeffs(n: int):
    """Coefficients of prod_(i=1..n) (1 + x^i); for n >= 3 the documented
    positivity margins are checked before returning.  The work is cubic in
    n, so n is refused (ScaleExceeded) beyond 64."""
    if n < 1:
        raise BadN("n must be at least 1")
    if n > 64:
        raise ScaleExceeded("desk scale is 1 <= n <= 64")
    coeffs = [1]
    for i in range(1, n + 1):
        # (1 + x^i) p = p + x^i p
        coeffs = [a + b for a, b in zip(coeffs + [0] * i, [0] * i + coeffs)]
    top = n * (n + 1) // 2
    if len(coeffs) != top + 1:
        raise ConstructionError("%d coefficients for degree %d" % (len(coeffs), top))
    if n >= 3 and not (
        all(c >= 1 for c in coeffs) and all(coeffs[i] >= 2 for i in range(3, top - 2))
    ):
        raise ConstructionError("positivity margins fail at n=%d" % n)
    return coeffs


def plethysm_component_count(kind: str, n: int, m: int) -> int:
    """Number of irreducible GL_n constituents of the m-th alternating power
    of the symmetric square (kind "sym2") or alternating square (kind
    "wedge2") of the standard n-dimensional space.

    Computed from first principles by antisymmetrization: the character
    f = e_m(weights) is symmetric, say f = sum_lam c_lam s_lam, and times
    the Vandermonde a_delta = prod_(i<j) (x_i - x_j) it becomes
    sum_lam c_lam a_(lam+delta).  Each a_(lam+delta) has exactly one
    strictly decreasing exponent, lam + delta, with coefficient 1, so c_lam
    is the coefficient of f * a_delta there.  Each must be 1 (the
    decompositions in range are multiplicity-free); anything else raises.
    """
    if kind not in ("sym2", "wedge2"):
        raise ScaleExceeded("unknown kind %r" % (kind,))
    if n > 4 or m > 6 or n < 1 or m < 0:
        raise ScaleExceeded("desk scale is 1 <= n <= 4, 0 <= m <= 6")
    unit = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    # x_i x_j for i <= j (sym2) or i < j (wedge2)
    first = 0 if kind == "sym2" else 1
    weights = [
        tuple(x + y for x, y in zip(unit[i], unit[j]))
        for i in range(n)
        for j in range(i + first, n)
    ]
    # layers[t] is e_t of the weights read so far
    layers = [{(0,) * n: 1}] + [{} for _ in range(m)]
    for w in weights:
        for t in range(m, 0, -1):
            layers[t] = _poly_add(layers[t], _poly_mul(layers[t - 1], {w: 1}))
    vandermonde = {(0,) * n: 1}
    for i in range(n):
        for j in range(i + 1, n):
            vandermonde = _poly_mul(vandermonde, {unit[i]: 1, unit[j]: -1})
    delta = tuple(range(n - 1, -1, -1))
    count = 0
    for expo, coeff in _poly_mul(layers[m], vandermonde).items():
        lam = tuple(e - d for e, d in zip(expo, delta))
        if list(lam) != sorted(lam, reverse=True):
            continue
        if coeff != 1:
            raise ScaleExceeded(
                "unexpected multiplicity %d at %r" % (coeff, tuple(x for x in lam if x > 0))
            )
        count += 1
    return count

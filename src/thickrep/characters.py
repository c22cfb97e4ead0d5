"""Symmetric-group characters, partition generating functions, and exact
two-variable / n-variable symmetric polynomial decompositions.

Partitions are plain weakly-decreasing tuples.  Class functions hold one
exact value per cycle type of S_d, in the canonical (descending
lexicographic) order of partitions.
"""

from __future__ import annotations

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
    d = sum(mu)
    z = 1
    for part, count in _multiplicities(mu).items():
        z *= part**count * factorial(count)
    return factorial(d) // z


def _multiplicities(mu):
    out = {}
    for part in mu:
        out[part] = out.get(part, 0) + 1
    return out


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
    for i, b in enumerate(beta):
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        crossings = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((x for x in beta if x != b), reverse=True)
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        newlam = tuple(
            x - (len(newbeta) - 1 - k) for k, x in enumerate(newbeta)
        )
        newlam = tuple(x for x in newlam if x > 0)
        sign = -1 if crossings % 2 else 1
        total += sign * _mn_value(newlam, rest)
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
    d = f.d
    total = Fraction(0)
    for mu in partitions(d):
        total += class_size(mu) * Fraction(f.value_on(mu)) * Fraction(g.value_on(mu))
    return total / factorial(d)


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


# two-variable exact Laurent polynomials as {(i, j): int}


def _lp_mul(a: dict, b: dict) -> dict:
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _lp_square_substitute(a: dict) -> dict:
    return {(2 * i, 2 * j): c for (i, j), c in a.items()}


def weight_char_2var(high: int, low: int) -> dict:
    """Character of the irreducible 2-variable weight (high, low): the
    homogeneous sum x^high y^low + x^(high-1) y^(low+1) + ... + x^low y^high."""
    if high < low:
        raise BadN("weight (%d, %d) has high < low" % (high, low))
    return {(high - t, low + t): 1 for t in range(high - low + 1)}


def gl2_wedge_identity(a: int, b: int, shift: int = 0) -> bool:
    """Exact check that the alternating square of the weight-(a+b, b)
    character equals the predicted sum of weight characters.

    `shift` displaces the summand index range; nonzero shifts are for
    verifying the detector is not vacuous.
    """
    if a < 0:
        raise BadN("a must be nonnegative")
    ch = weight_char_2var(a + b, b)
    lhs = _poly_sub(_lp_mul(ch, ch), _lp_square_substitute(ch))
    half = {}
    for k, v in lhs.items():
        if v % 2:
            return False
        if v:
            half[k] = v // 2
    rhs = {}
    for k in range(1 + shift, (a + 1) // 2 + 1 + shift):
        high = 2 * a + 2 * b - 2 * k + 1
        low = 2 * b + 2 * k - 1
        if high < low:
            return False
        rhs = _poly_add(rhs, weight_char_2var(high, low))
    return half == rhs


def distinct_parts_coeffs(n: int):
    """Coefficients of prod_(i=1..n) (1 + x^i); for n >= 3 the documented
    positivity margins are checked before returning."""
    if n < 1:
        raise BadN("n must be at least 1")
    coeffs = [1]
    for i in range(1, n + 1):
        new = coeffs + [0] * i
        for j, c in enumerate(coeffs):
            new[j + i] += c
        coeffs = new
    top = n * (n + 1) // 2
    if len(coeffs) != top + 1:
        raise ConstructionError("%d coefficients for degree %d" % (len(coeffs), top))
    if n >= 3 and not (
        all(c >= 1 for c in coeffs) and all(coeffs[i] >= 2 for i in range(3, top - 2))
    ):
        raise ConstructionError("positivity margins fail at n=%d" % n)
    return coeffs


# n-variable polynomials as {exponent tuple: int}


def _poly_mul_term(p: dict, mono: tuple, coeff: int) -> dict:
    out = {}
    for k, v in p.items():
        key = tuple(a + b for a, b in zip(k, mono))
        out[key] = out.get(key, 0) + v * coeff
    return out


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _poly_sub(a: dict, b: dict) -> dict:
    return _poly_add(a, {k: -v for k, v in b.items()})


def _elementary_in_monomials(monos, m: int, nvars: int) -> dict:
    """e_m evaluated at the given list of monomials."""
    zero = tuple([0] * nvars)
    layers = [{zero: 1}] + [{} for _ in range(m)]
    for mono in monos:
        for t in range(min(m, len(monos)), 0, -1):
            if layers[t - 1]:
                layers[t] = _poly_add(layers[t], _poly_mul_term(layers[t - 1], mono, 1))
    return layers[m]


@lru_cache(maxsize=None)
def schur_poly(lam: tuple, nvars: int) -> tuple:
    """Schur polynomial as a tuple of (exponent, coeff), by summing over
    semistandard tableaux with entries bounded by nvars."""
    lam = tuple(x for x in lam if x > 0)
    if not lam:
        return ((tuple([0] * nvars), 1),)
    if len(lam) > nvars:
        return ()
    counts = {}
    for filling in _ssyt(lam, nvars):
        expo = [0] * nvars
        for row in filling:
            for entry in row:
                expo[entry - 1] += 1
        key = tuple(expo)
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


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

    for t in fill(0, None):
        yield t


def plethysm_component_count(kind: str, n: int, m: int) -> int:
    """Number of irreducible GL_n constituents of the m-th alternating power
    of the symmetric square (kind "sym2") or alternating square (kind
    "wedge2") of the standard n-dimensional space.

    Computed from first principles: expand the exact character polynomial
    and peel Schur polynomials greedily by lexicographic leading monomial.
    Each peeled coefficient must be 1 (the decompositions in range are
    multiplicity-free); anything else raises.
    """
    if kind not in ("sym2", "wedge2"):
        raise ScaleExceeded("unknown kind %r" % (kind,))
    if n > 4 or m > 6 or n < 1 or m < 0:
        raise ScaleExceeded("desk scale is 1 <= n <= 4, 0 <= m <= 6")
    if kind == "sym2":
        monos = [
            tuple((1 if t == i else 0) + (1 if t == j else 0) for t in range(n))
            for i in range(n)
            for j in range(i, n)
        ]
    else:
        monos = [
            tuple((1 if t == i else 0) + (1 if t == j else 0) for t in range(n))
            for i in range(n)
            for j in range(i + 1, n)
        ]
    if m > len(monos):
        return 0
    poly = _elementary_in_monomials(monos, m, n)
    count = 0
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        lam = tuple(x for x in lead if x > 0)
        if list(lead) != sorted(lead, reverse=True):
            raise ScaleExceeded("leading monomial %r is not a partition" % (lead,))
        if coeff != 1:
            raise ScaleExceeded(
                "unexpected multiplicity %d at %r" % (coeff, lam)
            )
        poly = _poly_sub(poly, dict(schur_poly(lam, n)))
        count += 1
    return count

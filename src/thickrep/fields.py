"""Exact scalars and univariate polynomials over the rationals and prime fields.

Field objects carry the arithmetic; scalar values themselves are plain
Python objects (`fractions.Fraction` for the rationals, canonical residues
in ``[0, p)`` for a prime field).  All operations are exact.

Besides scalar ``add``/``sub``/``mul``/``neg``/``inv``/``div`` every field
has the row operations that all elimination and every minor in the package
run on: ``dot(u, v)``, ``axpy(w, t, row)`` = w - t*row, ``scale(c, row)``
and ``minors2(u, v, pairs)``, the coordinates u[k]*v[l] - u[l]*v[k] of
u ^ v, each returning canonical values; ``row_key(row)`` is a row's sort
key.  The elimination loops test entries with
``x != cmp_zero``: ``cmp_zero`` is ``zero`` itself except over Q, where it is
the int 0, because a ``Fraction`` compared with an int takes the fast path of
``Fraction.__eq__`` and one compared with ``Fraction(0)`` runs an
abstract-base-class check.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    BadScalar,
    DivisionByZero,
    FieldMismatch,
    MalformedInput,
    NotMonic,
    ScaleExceeded,
    WrongField,
    ZeroInput,
)

# guard for monic-poly enumeration in trial-division factoring
_ENUMERATION_CAP = 2_000_000

# the most elements a scan over a finite field may walk; past it the scan
# raises ScaleExceeded instead of stalling (also the default points cap of
# `exterior.realizable_search`)
DEFAULT_POINTS_CAP = 1_000_000


def check_scan(field):
    """Raise ScaleExceeded when the finite field has more elements than a
    scan over them may walk."""
    if field.order > DEFAULT_POINTS_CAP:
        raise ScaleExceeded(
            "scanning %d field elements exceeds %d" % (field.order, DEFAULT_POINTS_CAP)
        )


def _nth_roots(field, a, n: int):
    """The roots of x^n - a in the field, in canonical order, from
    `poly_roots`; every field class binds this as its `nth_roots`."""
    a = field.reduce(a)
    if a == field.zero:
        raise ZeroInput("nth_roots of zero")
    return [r for r, _ in poly_roots(
        Poly(field, [field.neg(a)] + [field.zero] * (n - 1) + [field.one])
    )]


def field_tuples(field, length):
    """Every `length`-tuple of elements of a finite field, in lexicographic
    canonical order, lazily: `itertools.product` would first materialise
    the elements, which a large prime field cannot afford."""
    if length == 0:
        yield ()
        return
    for head in field_tuples(field, length - 1):
        for x in field.elements():
            yield head + (x,)


class Rationals:
    """The field of rational numbers.  Values are Fraction instances."""

    kind = "Q"
    finite = False
    char = 0

    zero = Fraction(0)
    one = Fraction(1)
    cmp_zero = 0
    RANDOM_SPAN = 5

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        # one Fraction built, where 1 / Fraction(a) builds two
        return Fraction(a.denominator, a.numerator)

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero")
        return Fraction(a) / b

    def reduce(self, a):
        return a

    # The row operations work on integer numerators and denominators and
    # build one Fraction per result, so each pays one gcd; zero terms are
    # skipped.  Fraction arithmetic would pay a gcd per product and sum.

    def dot(self, u, v):
        # the products summed over a running common denominator
        num, den = 0, 1
        for a, b in zip(u, v):
            an = a.numerator
            if an:
                bn = b.numerator
                if bn:
                    d = a.denominator * b.denominator
                    if den % d:
                        num = num * d + an * bn * den
                        den *= d
                    else:
                        num += an * bn * (den // d)
        return Fraction(num, den)

    def axpy(self, w, t, row):
        tn = t.numerator
        if not tn:
            return list(w)
        td = t.denominator
        out = []
        for x, y in zip(w, row):
            yn = y.numerator
            if yn:
                # x - t*y = (xn*td*yd - tn*yn*xd) / (xd*td*yd)
                d = y.denominator * td
                xd = x.denominator
                x = Fraction(x.numerator * d - tn * yn * xd, xd * d)
            out.append(x)
        return out

    def scale(self, c, row):
        cn, cd = c.numerator, c.denominator
        return [
            Fraction(cn * x.numerator, cd * x.denominator) if x.numerator else x
            for x in row
        ]

    def minors2(self, u, v, pairs):
        zero = self.zero
        out = []
        for k, l in pairs:
            a, b, c, d = u[k], v[l], u[l], v[k]
            n1 = a.numerator * b.numerator
            n2 = c.numerator * d.numerator
            if n1 or n2:
                # a*b - c*d = (n1*d2 - n2*d1) / (d1*d2)
                d1 = a.denominator * b.denominator
                d2 = c.denominator * d.denominator
                out.append(Fraction(n1 * d2 - n2 * d1, d1 * d2))
            else:
                out.append(zero)
        return out

    def from_int(self, i):
        return Fraction(i)

    def sort_key(self, a):
        # canonical order: by (numerator, denominator) of the element, a
        # normalized Fraction or an int
        return (a.numerator, a.denominator)

    def row_key(self, row):
        return tuple([(a.numerator, a.denominator) for a in row])

    def format(self, a) -> str:
        return str(Fraction(a))

    def parse(self, s: str):
        """A string such as "3/2" or a non-bool integer; a JSON float or
        boolean, or any other value, is BadScalar."""
        if type(s) is not int and not isinstance(s, str):
            raise BadScalar("not a rational number: %r" % (s,))
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise DivisionByZero("zero denominator in %r" % (s,)) from None
        except ValueError:
            raise BadScalar("not a rational number: %r" % (s,)) from None

    def random(self, rng):
        """A seeded integer in [-RANDOM_SPAN, RANDOM_SPAN]."""
        return Fraction(rng.randint(-self.RANDOM_SPAN, self.RANDOM_SPAN))

    nth_roots = _nth_roots

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises WrongField for p >= _MR_BOUND,
    where the fixed bases no longer decide primality."""
    if p >= _MR_BOUND:
        raise WrongField("primality of p >= %d is not decided" % _MR_BOUND)
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(s)):
            return False
    return True


class PrimeField:
    """The field with p elements. Values are canonical residues in [0, p)."""

    kind = "Fp"
    finite = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise WrongField("p must be prime, got %r" % (p,))
        self.p = p
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1 % p
        self.cmp_zero = 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def reduce(self, a):
        return a % self.p

    def dot(self, u, v):
        return sum(map(operator.mul, u, v)) % self.p

    def axpy(self, w, t, row):
        p = self.p
        return [(x - t * y) % p for x, y in zip(w, row)]

    def scale(self, c, row):
        p = self.p
        return [(c * x) % p for x in row]

    def minors2(self, u, v, pairs):
        p = self.p
        return [(u[k] * v[l] - u[l] * v[k]) % p for k, l in pairs]

    def from_int(self, i):
        return i % self.p

    def elements(self):
        """Every element, lazily and in canonical order."""
        return range(self.p)

    def nonzero_elements(self):
        return range(1, self.p)

    def sort_key(self, a):
        return a

    def row_key(self, row):
        # residues already sort, so a row tuple is its own key
        return row

    def format(self, a) -> str:
        return str(a % self.p)

    def parse(self, s: str):
        """A string such as "4" or a non-bool integer, reduced mod p; a
        JSON float or boolean, or any other value, is BadScalar."""
        if type(s) is not int and not isinstance(s, str):
            raise BadScalar("not an integer residue: %r" % (s,))
        try:
            return int(s) % self.p
        except ValueError:
            raise BadScalar("not an integer residue: %r" % (s,)) from None

    def random(self, rng):
        return rng.randrange(self.p)

    def power(self, a, n):
        return pow(a, n, self.p)

    nth_roots = _nth_roots

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class ExtensionField:
    """GF(p^k) as polynomials modulo a fixed irreducible.

    Internal helper for field-extension property tests; not part of the
    JSON field surface.  Values are coefficient tuples of length k.
    """

    kind = "Fq"
    finite = True

    def __init__(self, p: int, modulus):
        # modulus: monic coefficients low-first, degree k >= 2
        self.p = p
        self.char = p
        self.base = GF(p)
        self.modulus = tuple(c % p for c in modulus)
        if self.modulus[-1] != 1:
            raise NotMonic("the modulus must be monic")
        self.k = len(self.modulus) - 1
        self.order = p**self.k
        self.zero = (0,) * self.k
        self.one = tuple([1 % p] + [0] * (self.k - 1))
        self.cmp_zero = self.zero

    def _wrap(self, coeffs):
        p, k = self.p, self.k
        c = [x % p for x in coeffs]
        while len(c) >= k + 1:
            # reduce leading term against modulus
            lead = c.pop()
            if lead:
                d = len(c) - k
                for i in range(k):
                    c[d + i] = (c[d + i] - lead * self.modulus[i]) % p
        c += [0] * (k - len(c))
        return tuple(c)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        k = self.k
        out = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._wrap(out)

    def inv(self, a):
        if a == self.zero:
            raise DivisionByZero("inverse of zero")
        # Fermat: a^(q-1) = 1, so a^(q-2) is the inverse if the modulus is
        # irreducible; the product check catches one that is not
        b = self.power(a, self.order - 2)
        if self.mul(a, b) != self.one:
            raise WrongField("%r has no inverse: the modulus is reducible" % (a,))
        return b

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def reduce(self, a):
        return a

    def dot(self, u, v):
        add, mul = self.add, self.mul
        s = self.zero
        for a, b in zip(u, v):
            s = add(s, mul(a, b))
        return s

    def axpy(self, w, t, row):
        sub, mul = self.sub, self.mul
        return [sub(x, mul(t, y)) for x, y in zip(w, row)]

    def scale(self, c, row):
        mul = self.mul
        return [mul(c, x) for x in row]

    def minors2(self, u, v, pairs):
        sub, mul = self.sub, self.mul
        return [sub(mul(u[k], v[l]), mul(u[l], v[k])) for k, l in pairs]

    def from_int(self, i):
        return tuple([i % self.p] + [0] * (self.k - 1))

    def elements(self):
        """Every element, lazily and in canonical order."""
        return field_tuples(self.base, self.k)

    def nonzero_elements(self):
        for e in self.elements():
            if e != self.zero:
                yield e

    def sort_key(self, a):
        return a

    def row_key(self, row):
        # coefficient tuples already sort, so a row tuple is its own key
        return row

    def format(self, a) -> str:
        return ",".join(str(x) for x in a)

    def parse(self, s: str):
        return tuple(int(x) % self.p for x in s.split(","))

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    nth_roots = _nth_roots

    def power(self, a, n):
        """a^n by square-and-multiply."""
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.k)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("Fq", self.p, self.modulus))


QQ = Rationals()

_prime_fields: dict = {}


def GF(p: int, k: int = 1):
    """Field constructor: GF(p) prime field, GF(p, 2) a quadratic extension."""
    if k == 1:
        if p not in _prime_fields:
            _prime_fields[p] = PrimeField(p)
        return _prime_fields[p]
    if k != 2:
        raise WrongField("only quadratic extensions are provided")
    GF(p)  # refuses p = 0, 1 and composites with WrongField
    if p == 2:
        return ExtensionField(2, (1, 1, 1))  # x^2 + x + 1
    # x^2 - s for the first quadratic nonresidue s, by Euler's criterion
    s = next(x for x in itertools.count(2) if pow(x, (p - 1) // 2, p) == p - 1)
    return ExtensionField(p, (-s % p, 0, 1))


def field_to_json(field) -> dict:
    if isinstance(field, Rationals):
        return {"kind": "Q"}
    if isinstance(field, PrimeField):
        return {"kind": "Fp", "p": field.p}
    raise WrongField("field %r has no JSON form" % (field,))


def field_from_json(data: dict):
    if not isinstance(data, dict):
        raise MalformedInput("a field must be a JSON object, got %r" % (data,))
    kind = data.get("kind")
    if kind == "Q":
        return QQ
    if kind == "Fp":
        p = data.get("p")
        if type(p) is not int:
            raise MalformedInput("field.p must be a JSON integer, got %r" % (p,))
        return GF(p)
    raise WrongField("unknown field kind %r" % (kind,))


@dataclass(frozen=True)
class Scalar:
    """A field element tagged with its field; the JSON-boundary type."""

    field: object
    value: object

    def __str__(self):
        return self.field.format(self.value)


def scalar(field, v) -> Scalar:
    if isinstance(v, Scalar):
        if v.field != field:
            raise FieldMismatch("scalar belongs to %r" % (v.field,))
        return v
    if isinstance(v, str):
        return Scalar(field, field.parse(v))
    return Scalar(field, field.from_int(v) if isinstance(v, int) else v)


def scalar_arith(a: Scalar, b: Scalar, op: str) -> Scalar:
    """Exact field arithmetic on tagged scalars; op in {add, sub, mul, div}."""
    if a.field != b.field:
        raise FieldMismatch("%r vs %r" % (a.field, b.field))
    f = a.field
    if op == "add":
        return Scalar(f, f.add(a.value, b.value))
    if op == "sub":
        return Scalar(f, f.sub(a.value, b.value))
    if op == "mul":
        return Scalar(f, f.mul(a.value, b.value))
    if op == "div":
        if b.value == f.zero:
            raise DivisionByZero("division by zero")
        return Scalar(f, f.div(a.value, b.value))
    raise ValueError("unknown op %r" % (op,))


def nth_roots(a: Scalar, n: int):
    return [Scalar(a.field, r) for r in a.field.nth_roots(a.value, n)]


def has_all_nth_roots(field, a, n: int) -> bool:
    """Whether a != 0 has n distinct n-th roots in the field.

    Over a finite field of order q no element is scanned: F_q^* is cyclic
    of order q - 1, so a has n distinct n-th roots exactly when n divides
    q - 1 and a^((q-1)/n) = 1."""
    if not field.finite:
        return len(field.nth_roots(a, n)) == n
    q = field.order
    return (q - 1) % n == 0 and field.power(a, (q - 1) // n) == field.one


class Poly:
    """Univariate polynomial; coefficients stored low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        c = [field.reduce(x) for x in coeffs]
        while c and c[-1] == field.zero:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(i) for i in ints])

    @classmethod
    def x_minus(cls, field, a):
        return cls(field, [field.neg(a), field.one])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def leading(self):
        return self.coeffs[-1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __mul__(self, other):
        f = self.field
        if self.is_zero() or other.is_zero():
            return Poly(f, [])
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x == f.zero:
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(x, y))
        return Poly(f, out)

    def scale(self, c):
        f = self.field
        return Poly(f, [f.mul(c, x) for x in self.coeffs])

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def divmod(self, other):
        f = self.field
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = f.inv(other.leading())
        quo = [f.zero] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            c = f.mul(rem[-1], lead_inv)
            k = len(rem) - 1 - d
            quo[k] = c
            for i, oc in enumerate(other.coeffs):
                rem[k + i] = f.sub(rem[k + i], f.mul(c, oc))
            while rem and rem[-1] == f.zero:
                rem.pop()
        return Poly(f, quo), Poly(f, rem)

    def __call__(self, x):
        f = self.field
        out = f.zero
        for c in reversed(self.coeffs):
            out = f.add(f.mul(out, x), c)
        return out

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c != self.field.zero:
                terms.append("%s*x^%d" % (self.field.format(c), i))
        return "Poly(%s)" % " + ".join(terms)

    def sort_key(self):
        f = self.field
        return (self.degree, tuple(f.sort_key(c) for c in self.coeffs))


def _monic_polys(field, degree):
    """All monic polynomials of the given degree over a prime field."""
    if field.p**degree > _ENUMERATION_CAP:
        raise ScaleExceeded(
            "enumeration of %d^%d monic polynomials" % (field.p, degree)
        )
    for tail in itertools.product(range(field.p), repeat=degree):
        yield Poly(field, list(tail) + [1])


def poly_factor_fp(f: Poly):
    """Factor a monic polynomial over F_p into irreducibles.

    Returns a list of (factor, multiplicity) with factors monic and sorted
    by (degree, coefficients).  The linear factors come from `poly_roots`;
    the rest by trial division in increasing degree: any divisor found is
    automatically irreducible because all lower-degree factors were
    already removed.
    """
    if not isinstance(f.field, PrimeField):
        raise WrongField("factoring is implemented over prime fields")
    if f.degree < 1:
        raise NotMonic("degree >= 1 required")
    if not f.is_monic():
        raise NotMonic("leading coefficient must be 1")
    field = f.field
    factors = {}
    rem = f
    # the linear factors, each divided out as often as its root repeats
    for r, mult in poly_roots(f):
        factors[Poly.x_minus(field, r)] = mult
        for _ in range(mult):
            rem = rem.divmod(Poly.x_minus(field, r))[0]
    d = 2
    while 2 * d <= rem.degree:
        # one full pass removes every irreducible factor of degree d
        for cand in _monic_polys(field, d):
            while True:
                quo, r0 = rem.divmod(cand)
                if r0.is_zero():
                    factors.setdefault(cand, 0)
                    factors[cand] += 1
                    rem = quo
                else:
                    break
            if 2 * d > rem.degree:
                break
        d += 1
    if rem.degree >= 1:
        factors.setdefault(rem.monic(), 0)
        factors[rem.monic()] += 1
    out = sorted(factors.items(), key=lambda kv: kv[0].sort_key())
    return out


def poly_roots(f: Poly):
    """Roots of f in its field with multiplicities, as (root, mult) pairs in
    canonical order: the one root search of the package.

    Over a finite field this tests every element in canonical order, after
    `check_scan` has refused a field too large to walk; over Q it is
    `rational_roots`."""
    field = f.field
    if isinstance(field, Rationals):
        return rational_roots(f)
    check_scan(field)
    return _roots_among(f, field.elements())


def _roots_among(f: Poly, candidates):
    """The (a, multiplicity) pairs of the candidates a that are roots of f."""
    out = []
    for a in candidates:
        mult = _multiplicity(f, a)
        if mult:
            out.append((a, mult))
    return out


def _multiplicity(f: Poly, a) -> int:
    """How often x - a divides f.  A Horner pass from the leading
    coefficient is synthetic division by x - a: its last value is f(a) and
    the values before it are the quotient, which is divided again while
    the value is zero."""
    field = f.field
    add, mul, zero = field.add, field.mul, field.zero
    coeffs = f.coeffs[::-1]
    mult = 0
    while len(coeffs) > 1:
        acc = zero
        quo = []
        for c in coeffs:
            acc = add(mul(acc, a), c)
            quo.append(acc)
        if quo.pop() != zero:
            break
        coeffs = quo
        mult += 1
    return mult


def rational_roots(f: Poly):
    """Rational roots of f over Q with multiplicities, in canonical order.

    With c_0..c_d the primitive integer coefficients of the squarefree part
    f / gcd(f, f'), y = c_d*x gives a monic integer polynomial h whose
    integer roots y are the roots y / c_d of f.  Nothing is factored.
    """
    field = f.field
    if not isinstance(field, Rationals):
        raise WrongField("rational_roots requires the rational field")
    if f.is_zero():
        raise ZeroInput("zero polynomial")
    a, b = f, Poly(field, [c * i for i, c in enumerate(f.coeffs)][1:])
    while not b.is_zero():
        a, b = b, a.divmod(b)[1].monic()
    # the squarefree part f / gcd(f, f') in primitive integer form
    g = f.divmod(a)[0].coeffs
    den = lcm(*(c.denominator for c in g))
    ints = [c.numerator * (den // c.denominator) for c in g]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    lead, d = ints[-1], len(ints) - 1
    h = [c * lead ** (d - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    roots = sorted((Fraction(y, lead) for y in _integer_roots(h)), key=field.sort_key)
    return _roots_among(f, roots)


def _integer_roots(h):
    """Candidates for the integer roots of a squarefree monic integer
    polynomial h (low degree first): every root is among them.

    At the first prime p where every root of h mod p (from `poly_roots`)
    is simple, each root lifts by Newton steps r <- r - h(r)/h'(r),
    squaring the modulus, to the one p-adic root above it (von zur Gathen &
    Gerhard, *Modern Computer Algebra*, ch. 15).  An integer root lies
    within the Cauchy bound B = 1 + max |h_i|, so once the modulus exceeds
    2B it is the symmetric residue of its lift.
    """
    dh = [i * c for i, c in enumerate(h)][1:]

    def ev(coeffs, x, m):
        out = 0
        for c in reversed(coeffs):
            out = (out * x + c) % m
        return out

    # h is squarefree over Q, so only the finitely many primes dividing
    # its discriminant are skipped
    for p in itertools.count(2):
        if not _is_prime(p):
            continue
        roots = poly_roots(Poly.from_ints(GF(p), h))
        if all(mult == 1 for _, mult in roots):
            break
    bound = 1 + max((abs(c) for c in h[:-1]), default=0)
    out = []
    for r, _ in roots:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - ev(h, r, m) * pow(ev(dh, r, m), -1, m)) % m
        out.append(r - m if 2 * r > m else r)
    return out

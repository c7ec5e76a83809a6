"""Shared helpers for the test suite: seeded random algebra objects and
small independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, perm, prod

from quartics.polyring import Polynomial, VarTable

XYZ = VarTable(("x", "y", "z"))
XY = VarTable(("x", "y"))


def random_fraction(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_quartic(rng: random.Random, table: VarTable = XYZ) -> Polynomial:
    """A random ternary quartic with small rational coefficients, never zero."""
    while True:
        poly = Polynomial.zero(table)
        for i in range(5):
            for j in range(5 - i):
                c = random_fraction(rng)
                if c:
                    poly = poly + Polynomial.monomial(
                        table, {"x": i, "y": j, "z": 4 - i - j}, c
                    )
        if not poly.is_zero() and poly.geometric_degree() == 4:
            return poly


def random_binary_form(rng: random.Random, degree: int, table: VarTable = XY) -> Polynomial:
    while True:
        poly = Polynomial.zero(table)
        for i in range(degree + 1):
            c = random_fraction(rng)
            if c:
                poly = poly + Polynomial.monomial(table, {"x": degree - i, "y": i}, c)
        if not poly.is_zero():
            return poly


def ref_partial(terms, i, order):
    """The *order*-th partial in variable slot *i* of a dict from exponent tuples to
    Fractions, term by term: the exponent-tuple oracle of the differentiation kernels."""
    out = {}
    for exps, c in terms.items():
        if exps[i] >= order:
            new = exps[:i] + (exps[i] - order,) + exps[i + 1:]
            out[new] = out.get(new, Fraction(0)) + c * perm(exps[i], order)
    return {e: c for e, c in out.items() if c}


def random_unimodular(rng: random.Random, size: int = 3):
    """A random integer matrix of determinant 1 (product of elementary shears)."""
    m = [[Fraction(1 if i == j else 0) for j in range(size)] for i in range(size)]
    for _ in range(6):
        i, j = rng.sample(range(size), 2)
        k = rng.randint(-2, 2)
        for col in range(size):
            m[i][col] += k * m[j][col]
    return m


def univariate_gcd_degree(p: list[Fraction], q: list[Fraction]) -> int:
    """Degree of gcd of two exact univariate polynomials (ascending coeffs).

    Plain Euclidean algorithm over the rationals; an independent squarefree
    oracle for the discriminant tests.
    """

    def trim(v):
        v = list(v)
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(p), trim(q)
    while b:
        # a mod b
        a = list(a)
        while len(a) >= len(b):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) - 1 if a else -1


def bareiss_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so only integers occur."""
    m = [list(row) for row in matrix]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top, pivot = m[k], m[k][k]
        for row in m[k + 1:]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - factor * top[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


#: A fixed unimodular change of coordinates (determinant 1).  The families'
#: partials are so sparse that Macaulay's extraneous minor vanishes in the
#: original coordinates.
DISCRIMINANT_CHART = ((1, 0, 0), (1, 1, 0), (2, -1, 1))

#: The 36 monomials of degree 7 in x, y, z, the critical degree of three cubics.
_DEGREE_7 = [(a, b, 7 - a - b) for a in range(8) for b in range(8 - a)]


def _times(p: dict, q: dict) -> dict:
    """The product of two polynomials given as exponent tuples -> coefficients."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _chart_resultant(terms) -> Fraction | None:
    """Macaulay's resultant det(M) / det(M') of the three partials of the
    quartic *terms* after x -> DISCRIMINANT_CHART x, or None when det(M') = 0.
    M's row for a degree-7 monomial m is (m / x_i^3) times the x_i partial,
    for the first i with x_i^3 | m; M' is its 9x9 minor on the monomials
    divisible by two cubes.  The quartic is scaled to integer coefficients
    first (the resultant has degree 27 in them), so only integers occur."""
    den = 1
    for c in terms.values():
        d = Fraction(c).denominator
        den = den * d // gcd(den, d)
    g = {}
    for exps, c in terms.items():
        part = {(0, 0, 0): int(c * den)}
        for row, k in zip(DISCRIMINANT_CHART, exps):
            linear = {tuple(int(i == j) for j in range(3)): a for i, a in enumerate(row)}
            for _ in range(k):
                part = _times(part, linear)
        for e, v in part.items():
            g[e] = g.get(e, 0) + v
    cubics = [ref_partial(g, i, 1) for i in range(3)]
    column = {m: j for j, m in enumerate(_DEGREE_7)}
    rows = []
    for m in _DEGREE_7:
        i = next(i for i in range(3) if m[i] >= 3)
        shift = m[:i] + (m[i] - 3,) + m[i + 1:]
        row = [0] * len(_DEGREE_7)
        for exps, c in cubics[i].items():
            row[column[tuple(a + b for a, b in zip(exps, shift))]] = int(c)
        rows.append(row)
    extra = [j for j, m in enumerate(_DEGREE_7) if sum(e >= 3 for e in m) >= 2]
    minor = bareiss_det([[rows[i][j] for j in extra] for i in extra])
    if minor == 0:
        return None
    res, rest = divmod(bareiss_det(rows), minor)
    assert rest == 0
    return Fraction(res, den ** 27)


def pencil_resultant(terms) -> Fraction:
    """The resultant of :func:`_chart_resultant` at t = 0, interpolated from
    the quartics f + t (x^4 + y^4 + z^4) for t = 1, 2, ...: it has degree at
    most 27 in t, so 28 values whose minor does not vanish determine it."""
    samples = []
    for t in range(1, 100):
        shifted = dict(terms)
        for e in ((4, 0, 0), (0, 4, 0), (0, 0, 4)):
            shifted[e] = shifted.get(e, 0) + t
        if (value := _chart_resultant(shifted)) is not None:
            samples.append((t, value))
        if len(samples) == 28:
            # Lagrange's formula at 0
            return sum(value * prod(Fraction(u, u - t) for u, _ in samples if u != t)
                       for t, value in samples)
    raise ValueError("Macaulay's extraneous minor vanishes along the pencil")


def quartic_discriminant(terms) -> Fraction:
    """The resultant of the three partials of a ternary quartic, given as
    exponent tuples over (x, y, z) -> rationals: a nonzero constant times its
    discriminant, Dixmier's I27, so it vanishes exactly when the curve is
    singular.  It is :func:`_chart_resultant`, or :func:`pencil_resultant`
    where Macaulay's extraneous minor vanishes (on a double conic it always
    does, since the partials share a factor)."""
    value = _chart_resultant(terms)
    return pencil_resultant(terms) if value is None else value

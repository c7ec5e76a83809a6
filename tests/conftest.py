"""Shared helpers for the test suite: seeded random algebra objects and
small independent oracles.

Every property test draws one ``st.randoms(use_true_random=False)`` per example
and builds its inputs from it: drawing nested strategies cost most of the
suite's time.  A failure found that way shrinks worse than one from drawn
values (Hypothesis shrinks the random calls, not the polynomial), so those tests
report it as found (:func:`drawn`)."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from math import gcd, perm, prod

import pytest
from hypothesis import Phase, settings, strategies as st

from quartics import polyring
from quartics.errors import DegreeError
from quartics.polyring import Polynomial, VarTable, eval_complex

# one profile for the whole suite: an example's time depends on the host, so no deadline
settings.register_profile("quartics", deadline=None)
settings.load_profile("quartics")

#: What every property test draws: one random source per example.
RANDOMS = st.randoms(use_true_random=False)


def drawn(examples: int) -> settings:
    """The settings of a test that draws :data:`RANDOMS`: *examples* of them, and no shrink or
    explain phase, which would rerun it on shrunk random calls that seldom give a smaller
    polynomial.  With one weight of the J-bracket plan wrong, its oracle took 5.7 s to fail
    with them and 0.4 s without."""
    return settings(max_examples=examples,
                    phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)])


XYZ = VarTable(("x", "y", "z"))
XY = VarTable(("x", "y"))
PAR = VarTable(("x", "y", "z"), ("r", "s", "u"))
SEVEN = VarTable(("x", "y", "z"), ("a", "b", "c", "d"))
LIMIT = 65535       # the largest exponent or total degree of a packed monomial
DENOMINATORS = (1, 1, 2, 3, 4, 6, 9, 12, 35, 1000003)


@pytest.fixture
def compiles(monkeypatch):
    """The plans that ``polyring._kernel`` compiles while the test runs, in order."""
    plans, kernel = [], polyring._kernel
    monkeypatch.setattr(polyring, "_kernel", lambda plan: plans.append(plan) or kernel(plan))
    return plans


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


def random_exponents(rng: random.Random, n: int, top: int = LIMIT, small: int = 4) -> tuple:
    """An exponent tuple of length *n*: each exponent up to *small*, or, half the
    time, of total degree within 20 of *top*, nearly all of it in one variable."""
    exps = [rng.randint(0, small) for _ in range(n)]
    if n and rng.random() < 0.5:
        exps[rng.randrange(n)] += max(0, rng.randint(top - 20, top) - sum(exps))
    return tuple(exps)


def random_terms(rng: random.Random, table: VarTable, top: int = LIMIT, max_size: int = 8,
                 small: int = 4) -> dict:
    """Up to *max_size* terms over *table*, exponents from :func:`random_exponents`
    and coefficients n / d with |n| <= 30 over mixed denominators, zeros dropped."""
    terms = {random_exponents(rng, len(table), top, small):
             Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))
             for _ in range(rng.randint(0, max_size))}
    return {e: c for e, c in terms.items() if c}


def ref_partial(terms, i, order):
    """The *order*-th partial in variable slot *i* of a dict from exponent tuples to
    Fractions, term by term: the exponent-tuple oracle of the differentiation kernels."""
    out = {}
    for exps, c in terms.items():
        if exps[i] >= order:
            new = exps[:i] + (exps[i] - order,) + exps[i + 1:]
            out[new] = out.get(new, Fraction(0)) + c * perm(exps[i], order)
    return {e: c for e, c in out.items() if c}


def homogenize(p: Polynomial, var: str, degree: int) -> Polynomial:
    """*p* with each term padded with powers of the geometric variable *var*, which *p* does
    not hold, up to geometric degree *degree*: the last step of the transvectant route to
    the contravariants (``test_dixmier``), which ``dixmier`` folds into its plan's keys."""
    table = p.table
    i, ng = table.index(var), table.n_geometric
    return Polynomial(table, {e[:i] + (degree - sum(e[:ng]),) + e[i + 1:]: c
                              for e, c in p.terms.items()})


def adjugate(m) -> tuple[tuple[Polynomial, ...], ...]:
    """Rows of the classical adjugate (transpose of cofactors) of a 3x3 matrix
    given by its rows, each cofactor one sum of products: the route to
    ``J22`` that ``diffcalc.j_bracket`` replaced.

    Satisfies ``m * adj(m) = det(m) * Id`` exactly.
    """
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise DegreeError("adjugate implemented for 3x3 matrices")
    def cof(i, j):      # from the cyclically next rows and columns, so the sign is built in
        i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        return Polynomial.sum_of_products(
            m[0][0].table, ((1, m[i1][j1], m[i2][j2]), (-1, m[i1][j2], m[i2][j1])))
    # adjugate[i][j] = cofactor(j, i)
    return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))


def dot(a, b) -> Polynomial:
    """Matrix dot product ``sum_ij a[i][j] * b[j][i]`` of two square matrices
    given by their rows (exact), all n^2 products: the route to ``J11`` and
    ``J22`` that ``diffcalc.j_bracket`` replaced."""
    n = len(a)
    if not n or any(len(m) != n or any(len(row) != n for row in m) for m in (a, b)):
        raise DegreeError("dot needs two n x n matrices with n >= 1")
    return Polynomial.sum_of_products(
        a[0][0].table, ((1, a[i][j], b[j][i]) for i in range(n) for j in range(n)))


def left_to_right_det(rows):
    """The recursive Laplace expansion along the first row, with a running total, its
    signed terms added left to right: each minor is expanded again on every path.
    The reference for ``diffcalc.det`` on polynomial entries and, on complex ones, for
    the float determinant ``diffcalc._pencil_det``, whose operations it makes in the
    same order."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0 * rows[0][0]
    for j, entry in enumerate(rows[0]):
        if not entry:
            continue
        term = entry * left_to_right_det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total + (term if j % 2 == 0 else -term)
    return total


def interpreted_determinant_residual(rep, quartic, points) -> float:
    """The largest |det(xA + yB + zC) - f| / (1 + |f|) over *points*, NaN at the first
    NaN residual: the pencil formed entry by entry, :func:`left_to_right_det` and
    one ``eval_complex`` per point, the loop that ``detrep._determinant_residual``'s
    generated certificate replaced."""
    rows = tuple(zip(rep.a_matrix, rep.b_matrix, rep.c_matrix))
    worst = 0.0
    for x, y, z in points:
        pencil = [[x * a + y * b + z * c for a, b, c in zip(*row)] for row in rows]
        value = left_to_right_det(pencil)
        fval = eval_complex(quartic, {"x": x, "y": y, "z": z})
        residual = abs(value - fval) / (1.0 + abs(fval))
        if math.isnan(residual):    # max() would skip it
            return residual
        worst = max(worst, residual)
    return worst


def unpruned_square_fit(c: list[complex], tol: float):
    """``bitangent._square_fit`` without its early exits: every candidate's five
    mismatches in full, one ``max`` over them, then the comparison with tol and the
    best residual so far."""
    top = max(abs(v) for v in c)
    if top == 0.0 or not all(map(cmath.isfinite, c)):
        return None
    candidates = []
    c40, c31, c22, c13, c04 = c
    if abs(c40) > 1e-18 * top:
        l0 = cmath.sqrt(c40)
        l1 = c31 / (2 * l0)
        candidates.append((l0, l1, (c22 - l1 * l1) / (2 * l0)))
        for sign in (1, -1):
            candidates.append((l0, l1, sign * cmath.sqrt(c04)))
    if abs(c04) > 1e-18 * top:
        l2 = cmath.sqrt(c04)
        l1 = c13 / (2 * l2)
        candidates.append(((c22 - l1 * l1) / (2 * l2), l1, l2))
    if abs(c22) > 1e-18 * top:
        l1 = cmath.sqrt(c22)
        candidates.append((c31 / (2 * l1), l1, c13 / (2 * l1)))
    best = None
    for lam in candidates:
        l0, l1, l2 = lam
        residual = max(abs(c40 - l0 * l0), abs(c31 - 2 * l0 * l1),
                       abs(c22 - (l1 * l1 + 2 * l0 * l2)), abs(c13 - 2 * l1 * l2),
                       abs(c04 - l2 * l2)) / top
        if residual < tol and (best is None or residual < best[1]):
            best = (lam, residual)
    return best


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

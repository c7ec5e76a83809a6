"""The straight-line numeric kernels against the loops they replaced.

``eval_scaled_many`` runs generated straight-line code and ``det`` expands
its minors in one bottom-up pass.  The reference oracles below are the
interpreter loop and the memoized recursive expansion they replaced, in the
standard library only.  Floats must agree in ``repr`` (so signed zeros and
NaN count), errors in type and message, and exact determinants exactly.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quartics.diffcalc import det
from quartics.errors import DomainError
from quartics.polyring import Polynomial, VarTable, eval_scaled_many

TABLE = VarTable(("x", "y", "z"), ("r", "s"))


def interpreted_eval_scaled_many(polys, point):
    """The interpreter loop of ``eval_scaled_many``: the terms of ``compiled()`` in
    order, one table of powers for all the polynomials, built on first need."""
    powers = {}
    out = []
    for p in polys:
        total = 0j
        scale = 0.0
        for term, monomial in p.compiled():
            for factor in monomial:
                power = powers.get(factor)
                if power is None:
                    v = point.get(factor[0])
                    if v is None:
                        raise DomainError(f"variable {factor[0]!r} not assigned")
                    power = powers[factor] = complex(v) ** factor[1]
                term *= power
            total += term
            size = abs(term)
            if size > scale:    # max(scale, size), which skips a NaN size
                scale = size
        out.append((total, scale))
    return out


def memoized_det(rows):
    """The recursive cofactor expansion along the first row, each minor of the
    rows below expanded once and kept, zero entries skipped."""
    n = len(rows)
    minors = {(c,): entry for c, entry in enumerate(rows[-1])}

    def minor(cols):
        row = rows[n - len(cols)]
        terms = []
        for j, c in enumerate(cols):
            if entry := row[c]:
                rest = cols[:j] + cols[j + 1:]
                if (sub := minors.get(rest)) is None:
                    sub = minors[rest] = minor(rest)
                terms.append((-1 if j % 2 else 1, entry, sub))
        first = row[cols[0]]
        if isinstance(first, Polynomial):
            return Polynomial.sum_of_products(first.table, terms)
        total = 0 * first
        for sign, entry, sub in terms:
            term = entry * sub
            total = total + (term if sign > 0 else -term)
        return total

    cols = tuple(range(n))
    return minors[cols] if n == 1 else minor(cols)


def outcome(call, *args):
    """``repr`` of the result, or the type and message of the error raised."""
    try:
        return repr(call(*args))
    except (ArithmeticError, DomainError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


# -- eval_scaled_many ------------------------------------------------------------

#: A pool of monomials that share variables and powers: the zero exponent tuple,
#: one-variable powers and products of up to four variables.
_MONOMIALS = st.tuples(*(st.integers(0, 3) for _ in TABLE.names))
_COEFFICIENTS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
_SPECIAL = [0.0, -0.0, 1e300, -1e300, 1e155, 1.5e308, 5e-324, math.inf, -math.inf, math.nan]
_PARTS = st.one_of(st.floats(-3, 3), st.floats(-3, 3), st.sampled_from(_SPECIAL))
_VALUES = st.one_of(
    st.builds(complex, _PARTS, _PARTS), st.builds(complex, _PARTS, _PARTS), st.integers(-5, 5),
    st.fractions(min_value=-10, max_value=10, max_denominator=7))


@st.composite
def polynomial_sets(draw):
    """1-5 polynomials, each the zero polynomial, a constant, one term or several,
    over one small pool of monomials."""
    pool = draw(st.lists(_MONOMIALS, min_size=1, max_size=8))
    polys = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["zero", "constant", "one term", "terms"]))
        if kind == "zero":
            terms = {}
        elif kind == "constant":
            terms = {(0,) * len(TABLE): draw(_COEFFICIENTS)}
        else:
            size = 1 if kind == "one term" else draw(st.integers(2, 8))
            terms = {draw(st.sampled_from(pool)): draw(_COEFFICIENTS) for _ in range(size)}
        polys.append(Polynomial(TABLE, terms))
    return polys


@st.composite
def points(draw):
    """A value for each variable, from small, huge, infinite and NaN parts; some
    variables left out or None (unassigned) in a fifth of the points."""
    point = {name: draw(_VALUES) for name in TABLE.names}
    if draw(st.integers(0, 4)) == 0:
        for name in draw(st.lists(st.sampled_from(TABLE.names), unique=True)):
            if draw(st.booleans()):
                del point[name]
            else:
                point[name] = None
    return point


class TestEvalScaledMany:
    @settings(max_examples=150, deadline=None)
    @given(polynomial_sets(), points())
    def test_matches_the_interpreter_loop(self, polys, point):
        want = outcome(interpreted_eval_scaled_many, polys, point)
        assert outcome(eval_scaled_many, polys, point) == want
        assert outcome(eval_scaled_many, polys, point) == want     # the cached evaluator

    @settings(max_examples=80, deadline=None)
    @given(polynomial_sets(), st.data())
    def test_names_the_first_unassigned_variable(self, polys, data):
        # finite values, so that the only error is the unassigned variable
        kept = data.draw(st.lists(st.sampled_from(TABLE.names), unique=True))
        point = {name: complex(data.draw(st.floats(-2, 2)), 0.5) for name in kept}
        want = outcome(interpreted_eval_scaled_many, polys, point)
        assert outcome(eval_scaled_many, polys, point) == want

    @pytest.mark.parametrize("x", [complex(a, b) for a in (0.0, -0.0, 1e300, 1.5e308, 5e-324, -2.5)
                                   for b in (0.0, -0.0, -1.0, 1.5e308, math.inf, math.nan)])
    def test_special_values(self, x):
        # x ** 1 is not x for every x, a NaN modulus is skipped, an overflowing
        # modulus raises before a later unassigned variable is looked up
        vx, vy, vz = (Polynomial.variable(TABLE, n) for n in "xyz")
        polys = [vx, vx * vy, vx ** 2 + vy, vx * 3 - vy ** 3, vx + 1, vx * vz + vy,
                 Polynomial.constant(TABLE, -2)]
        for point in ({"x": x, "y": -0.0 - 1j, "z": 1}, {"x": x, "z": 1}, {"x": x, "y": None}):
            for chosen in (polys, polys[:1], polys[2:], polys[::-1]):
                want = outcome(interpreted_eval_scaled_many, chosen, point)
                assert outcome(eval_scaled_many, chosen, point) == want

    def test_long_polynomial(self):
        # more terms than one sum expression holds
        rng = random.Random(11)
        terms = {tuple(rng.randint(0, 6) for _ in TABLE.names):
                 Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(400)}
        p = Polynomial(TABLE, terms)
        assert len(p.compiled()) > 300
        point = {n: complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for n in TABLE.names}
        polys = [p, p * 3, Polynomial.zero(TABLE)]
        assert repr(eval_scaled_many(polys, point)) == repr(
            interpreted_eval_scaled_many(polys, point))

    def test_sets_that_differ_in_names_share_one_evaluator(self):
        # the restriction coefficients of the three charts: the same numbered layout
        from quartics.bitangent import CHARTS, restriction_coefficients
        from quartics.polyring import _evaluator
        from quartics.symfam import make_family

        form = make_family("X4", (3, Fraction(5, 2), -7))
        got = set()
        for chart in CHARTS.values():
            coeffs = restriction_coefficients(form, chart.id)
            point = {chart.unknowns[0]: 0.25 - 1j, chart.unknowns[1]: -2 + 0.5j}
            assert repr(eval_scaled_many(coeffs, point)) == repr(
                interpreted_eval_scaled_many(coeffs, point))
            evaluate, names = _evaluator(tuple(p._compiled[0] for p in coeffs))
            assert set(names) == set(chart.unknowns)
            got.add(evaluate)
        assert len(got) == 1

    def test_empty_set(self):
        assert eval_scaled_many((), {}) == []


# -- det -------------------------------------------------------------------------


def _complex_entries(rng, special):
    """Entries from 1e-8 to 1e8 in modulus, 30 % of them zero, a few of them
    signed zeros, infinities or NaN when *special*."""
    def entry():
        u = rng.random()
        if u < 0.3:
            return 0j
        if special and u < 0.4:
            return complex(*rng.choices([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300], k=2))
        scale = 10.0 ** rng.randint(-8, 8)
        return complex(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
    return entry


class TestDet:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.randoms(use_true_random=False), st.booleans())
    def test_complex_matrices_match_the_recursive_expansion(self, n, rng, special):
        entry = _complex_entries(rng, special)
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        assert repr(det(rows)) == repr(memoized_det(rows))

    def test_many_complex_4x4(self):
        rng = random.Random(2026)
        entry = _complex_entries(rng, False)
        for _ in range(2000):
            rows = [[entry() for _ in range(4)] for _ in range(4)]
            assert repr(det(rows)) == repr(memoized_det(rows))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.randoms(use_true_random=False))
    def test_polynomial_matrices_match_exactly(self, n, rng):
        table = VarTable(("x", "y"), ("t",))

        def entry():
            if rng.random() < 0.3:
                return Polynomial.zero(table)
            return Polynomial(table, {tuple(rng.randint(0, 2) for _ in range(3)):
                                      Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                      for _ in range(rng.randint(1, 3))})

        rows = [[entry() for _ in range(n)] for _ in range(n)]
        assert det(rows) == memoized_det(rows)

    @pytest.mark.parametrize("rows", [[[2]], [[1, 2], [3, 4]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]])
    def test_integer_matrices(self, rows):
        assert det(rows) == memoized_det(rows)

"""The rewritten kernels against one reference oracle each.

``eval_scaled_many`` runs generated straight-line code and ``det`` expands
its minors of polynomials in one bottom-up pass; ``sum_of_products`` forms its
products in one pass over a dict and skips zero operands; ``diff_pair`` runs a plan
kept per pair of key sets (the last 256), by its loop while it is cold or small and
then as generated code; ``j_bracket`` runs the two stages of a plan kept per pair of
key sets, and ``decompose_symmetric`` and ``is_symmetric`` work on the packed keys.
``eval_exact`` keeps a plan per polynomial.  Detrep's determinant certificate is generated straight-line code,
the square fit drops a candidate at its first mismatch that rules it out, and
X24 solves its chart system once.

The oracles, in the standard library only:

* :func:`eval_scaled_reference`, the per-term loop over the sorted terms;
* :func:`scanned_diff_pair`, every pair of terms scanned;
* :func:`full_matrix_j_bracket`, from ``dot``, ``adjugate`` and
  ``left_to_right_det`` (``conftest``) on the full Hessians;
* :func:`expanded_sum_of_products`, every product term by term;
* :func:`eval_exact_reference`, a sum of ``Fraction`` terms;
* :func:`six_permutation_symmetric` and :func:`peeled_decomposition`, symmetry
  by definition and greedy peeling of the leading monomial;
* :func:`three_chart_solves`, X24's chart system solved once per chart;
* from ``conftest``: ``left_to_right_det``, the recursive expansion with a running
  total, for ``det`` and for the float determinant ``_pencil_det``; the
  interpreted certificate loop and the unpruned fit.

Floats must agree in ``repr`` (so signed zeros and NaN count), errors in type
and message, and exact results in their stored form.  The drivers of
``expanded_sum_of_products``, ``scanned_diff_pair`` and ``full_matrix_j_bracket``
run each case cold, with no plan kept, and hot, on its plan's ``_HOT``-th use
(:func:`cold_and_hot`).
"""

import gc
import itertools
import math
import random
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from math import perm

import pytest
from hypothesis import given

from quartics.diffcalc import (_bracket, _hessian_det_plan, _pencil_det, det, hessian,
                               hessian_det, j_bracket)
from quartics.dixmier import _contravariant_plan, binary_invariants
from quartics.errors import DegreeError, DomainError, TableMismatchError
from quartics.polyring import (_HOT, _PIECE, Polynomial, VarTable, _pairing, _restriction,
                               diff_pair, eval_exact, eval_scaled_many, restrict_to_line)
from quartics.symfam import (Partition, SymmetricDecomposition, decompose_symmetric,
                             is_symmetric, make_family, reconstruct, s_basis)

from conftest import (DENOMINATORS, LIMIT, PAR, RANDOMS, SEVEN, XYZ, adjugate, dot, drawn,
                      left_to_right_det, random_terms)

TABLE = VarTable(("x", "y", "z"), ("r", "s"))
PQ = VarTable(("x", "y", "z"), ("p", "q"))
BINARY = VarTable(("x", "y"))


def outcome(call, *args):
    """``repr`` of the result, or the type and message of the error raised."""
    try:
        return repr(call(*args))
    except (ArithmeticError, DomainError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def exact_outcome(call, *args):
    """The stored form (table, denominator, numerators) of each polynomial of the
    result, or its ``repr``; the type and message of a ``DomainError``,
    ``TableMismatchError`` or ``DegreeError``, the degree a packing error names
    left out (it is the first one found, which depends on the order of the work)."""
    try:
        got = call(*args)
    except (DegreeError, DomainError, TableMismatchError) as exc:
        return type(exc).__name__ + ": " + re.sub(r"^degree \d+ ", "degree ", str(exc))
    polys = got if isinstance(got, tuple) else (got,)
    if not all(isinstance(p, Polynomial) for p in polys):
        return repr(got)
    return [(p.table, p.denominator, dict(p.numerators)) for p in polys]


def cold_and_hot(call, *args):
    """:func:`exact_outcome` of *call* with no plan kept, which runs the plans' loops,
    asserted equal to that of each further run up to the ``_HOT``-th, from which a
    plan of 8 pairs or more runs compiled."""
    for cache in (_pairing, _bracket, _hessian_det_plan, _contravariant_plan, _restriction):
        cache.cache_clear()
    cold = exact_outcome(call, *args)
    for _ in range(_HOT - 1):
        assert exact_outcome(call, *args) == cold
    return cold


# -- eval_scaled_many ------------------------------------------------------------


def eval_scaled_reference(p, point):
    """The per-term evaluator that :func:`eval_scaled` replaced: each term's
    coefficient as a float, times ``complex(value) ** e`` for each variable that
    occurs, in the canonical term order; the largest term modulus as the scale."""
    names = p.table.names
    total = 0j
    scale = 0.0
    for exps, coeff in p.sorted_terms():
        term = complex(float(coeff))
        for i, e in enumerate(exps):
            if not e:
                continue
            v = point.get(names[i])
            if v is None:
                raise DomainError(f"variable {names[i]!r} not assigned")
            term *= complex(v) ** e
        total += term
        scale = max(scale, abs(term))   # skips a NaN modulus
    return total, scale


def eval_scaled_many_reference(polys, point):
    return [eval_scaled_reference(p, point) for p in polys]


_SPECIAL = [0.0, -0.0, 1e300, -1e300, 1e155, 1.5e308, 5e-324, math.inf, -math.inf, math.nan]


def polynomial_set(rng, table):
    """1-6 polynomials over one pool of 1-12 sparse monomials (exponents up to 4), so
    that they share variables and powers: each the zero polynomial, a constant, one
    term or up to 30 drawn from the pool, with coefficients up to 10^6 over
    denominators up to 10^4."""
    pool = [tuple(rng.choice((0, 0, 0, 0, 0, 1, 1, 2, 3, 4)) for _ in table.names)
            for _ in range(rng.randint(1, 12))]
    polys = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(("zero", "constant", "one term", "terms"))
        size = {"zero": 0, "constant": 0, "one term": 1, "terms": 2}[kind]
        exponents = ([(0,) * len(table)] if kind == "constant" else
                     [rng.choice(pool) for _ in range(rng.randint(size, 30) if size > 1 else size)])
        polys.append(Polynomial(table, {e: Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                                    rng.randint(1, 10 ** 4))
                                        for e in exponents}))
    return polys


def complex_point(rng, names):
    """A value for each name: complex numbers with parts in [-3, 3], ints and
    fractions; in half the points one or two of them with parts from ``_SPECIAL``
    (small, huge, infinite, NaN); in two points of five some variables left out or
    None (unassigned)."""
    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-5, 5)
        if kind == 1:
            return Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3) if kind == 2 else 0.5)

    point = {name: value() for name in names}
    if rng.random() < 0.5:
        for name in rng.sample(names, rng.randint(1, 2)):
            parts = [rng.choice(_SPECIAL) if rng.random() < 0.7 else rng.uniform(-3, 3)
                     for _ in range(2)]
            point[name] = complex(*parts)
    if rng.random() < 0.4:
        for name in rng.sample(names, rng.randint(1, len(names))):
            if rng.random() < 0.5:
                del point[name]
            else:
                point[name] = None
    return point


class TestEvalScaledMany:
    @drawn(150)
    @given(RANDOMS)
    def test_matches_the_per_term_loop(self, rng):
        table = rng.choice((TABLE, PAR))
        polys = polynomial_set(rng, table)
        point = complex_point(rng, table.names)
        want = outcome(eval_scaled_many_reference, polys, point)
        assert outcome(eval_scaled_many, polys, point) == want
        assert outcome(eval_scaled_many, polys, point) == want     # the cached evaluator

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_sets(self, seed):
        # fixed sets and points, the same in every run
        rng = random.Random(20261019 + seed)
        for _ in range(15):
            table = rng.choice((TABLE, PAR))
            polys = polynomial_set(rng, table)
            point = complex_point(rng, table.names)
            assert outcome(eval_scaled_many, polys, point) == outcome(
                eval_scaled_many_reference, polys, point)

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
                want = outcome(eval_scaled_many_reference, chosen, point)
                assert outcome(eval_scaled_many, chosen, point) == want

    def test_long_polynomial(self):
        # more terms than one sum expression holds
        rng = random.Random(11)
        terms = {tuple(rng.randint(0, 6) for _ in TABLE.names):
                 Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(400)}
        p = Polynomial(TABLE, terms)
        assert len(p.terms) > 300
        point = {n: complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for n in TABLE.names}
        polys = [p, p * 3, Polynomial.zero(TABLE)]
        assert repr(eval_scaled_many(polys, point)) == repr(
            eval_scaled_many_reference(polys, point))

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
                eval_scaled_many_reference(coeffs, point))
            evaluate, names = _evaluator(tuple(p._compiled[0] for p in coeffs))
            assert set(names) == set(chart.unknowns)
            got.add(evaluate)
        assert len(got) == 1

    def test_charts_share_one_evaluator_after_many_new_layouts(self):
        # one chart's set stays cached while more than 64 new layouts are generated
        # and evaluated; the other two charts must still get its function
        from quartics.bitangent import CHARTS, restriction_coefficients
        from quartics.polyring import _evaluator
        from quartics.symfam import make_family

        form = make_family("X4", (3, Fraction(5, 2), -7))
        charts = list(CHARTS.values())
        sets = [restriction_coefficients(form, chart.id) for chart in charts]
        points = [dict.fromkeys(chart.unknowns, 0.25 - 1j) for chart in charts]
        eval_scaled_many(sets[0], points[0])
        for k in range(80):
            fresh = Polynomial.monomial(TABLE, {"x": 1000 + k, "y": 3})
            eval_scaled_many([fresh], {"x": 0.5, "y": 0.5})
            eval_scaled_many(sets[0], points[0])
        got = set()
        for coeffs, point in zip(sets, points):
            assert repr(eval_scaled_many(coeffs, point)) == repr(
                eval_scaled_many_reference(coeffs, point))
            got.add(_evaluator(tuple(p._compiled[0] for p in coeffs))[0])
        assert len(got) == 1

    def test_empty_set(self):
        assert eval_scaled_many((), {}) == []


# -- det and the float determinant -------------------------------------------------


def _complex_entries(rng, special, zeros=0.3):
    """Entries from 1e-8 to 1e8 in modulus, a share *zeros* of them zero, a few of
    them signed zeros, infinities or NaN when *special*."""
    def entry():
        u = rng.random()
        if u < zeros:
            return 0j
        if special and u < zeros + 0.1:
            return complex(*rng.choices([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300], k=2))
        scale = 10.0 ** rng.randint(-8, 8)
        return complex(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
    return entry


def _pencil_rows(n, coefficients, x, y, z):
    """The rows of x*A + y*B + z*C, entry by entry, as the certificate forms them."""
    return [[x * a + y * b + z * c for a, b, c in
             zip(*[iter(coefficients[3 * n * i:3 * n * (i + 1)])] * 3)] for i in range(n)]


def _guessed_pattern(coefficients):
    """The zero pattern of a pencil's coefficients, as detrep guesses it."""
    return tuple(not (a or b or c) for a, b, c in zip(*[iter(coefficients)] * 3))


def assert_pencil_det(n, coefficients, x, y, z):
    """``_pencil_det`` of the guessed pattern agrees in ``repr`` with
    :func:`left_to_right_det` of the pencil's entries at (x, y, z)."""
    want = repr(left_to_right_det(_pencil_rows(n, coefficients, x, y, z)))
    assert repr(_pencil_det(_guessed_pattern(coefficients))(coefficients, x, y, z)) == want


def _as_pencil(rows):
    """The coefficients of the pencil 1 * M + 0 * B + 0 * C, M the matrix of *rows*:
    at the point (1, 0, 0) its entries are those of M, unless M has signed zeros,
    infinities or NaN, whose products with 1 + 0j may differ from them."""
    return [v for row in rows for entry in row for v in (entry, 0j, 0j)]


def assert_matrix_det(rows):
    """:func:`assert_pencil_det` on the pencil of :func:`_as_pencil` at (1, 0, 0)."""
    assert_pencil_det(len(rows), _as_pencil(rows), 1 + 0j, 0j, 0j)


class TestDet:
    """``det`` on polynomial matrices, and the float determinant ``_pencil_det`` on
    complex ones, against :func:`left_to_right_det`."""

    @drawn(150)
    @given(RANDOMS)
    def test_complex_matrices_match_the_recursive_expansion(self, rng):
        n = rng.randint(1, 4)
        entry = _complex_entries(rng, rng.random() < 0.5, rng.choice((0.15, 0.3)))
        assert_matrix_det([[entry() for _ in range(n)] for _ in range(n)])

    @pytest.mark.parametrize("seed", range(20))
    def test_complex_det_is_bit_identical_to_the_left_to_right_sum(self, seed):
        # magnitudes from 1e-8 to 1e8 and some zero entries, so that any other order
        # of the additions rounds differently
        entry = _complex_entries(random.Random(seed), False, 0.15)
        rows = [[entry() for _ in range(4)] for _ in range(4)]
        assert _pencil_rows(4, _as_pencil(rows), 1 + 0j, 0j, 0j) == rows
        assert_matrix_det(rows)

    def test_many_complex_4x4(self):
        rng = random.Random(2026)
        entry = _complex_entries(rng, False)
        for _ in range(2000):
            assert_matrix_det([[entry() for _ in range(4)] for _ in range(4)])

    @pytest.mark.parametrize("seed", range(20))
    def test_detreps_pattern(self, seed):
        # the detrep pencil x*I + y*B + z*C: B diagonal, C with a zero diagonal and
        # a = f = 0, so the entries (0, 1), (1, 0), (2, 3) and (3, 2) vanish
        rng = random.Random(100 + seed)

        def value():
            scale = 10.0 ** rng.randint(-8, 8)
            return complex(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)

        x, y, z, p, q, b, c, d, e = (value() for _ in range(9))
        b_m = (p, -p, q, -q)
        c_m = [[0j, 0j, b, d], [0j, 0j, c, e], [b, c, 0j, 0j], [d, e, 0j, 0j]]
        coefficients = [v for i in range(4) for j in range(4)
                        for v in (1.0 + 0j if i == j else 0j, b_m[i] if i == j else 0j,
                                  c_m[i][j])]
        rows = _pencil_rows(4, coefficients, x, y, z)
        assert [rows[i][j] == 0 for i, j in ((0, 1), (1, 0), (2, 3), (3, 2))] == [True] * 4
        assert_pencil_det(4, coefficients, x, y, z)

    @drawn(60)
    @given(RANDOMS)
    def test_polynomial_matrices_match_exactly(self, rng):
        n = rng.randint(1, 4)
        table = VarTable(("x", "y"), ("t",))

        def entry():
            if rng.random() < 0.3:
                return Polynomial.zero(table)
            return Polynomial(table, {tuple(rng.randint(0, 2) for _ in range(3)):
                                      Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                      for _ in range(rng.randint(1, 3))})

        rows = [[entry() for _ in range(n)] for _ in range(n)]
        assert exact_outcome(det, rows) == exact_outcome(left_to_right_det, rows)

    @pytest.mark.parametrize("kind", [tuple, list])
    def test_integer_matrices(self, kind):
        def constants(rows):
            return kind(kind(Polynomial.constant(XYZ, v) for v in row) for row in rows)

        assert det(constants([[2]])) == 2
        rng = random.Random(23)
        for rows in ([[1, 2], [3, 4]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
                     *([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                       for n in (1, 2, 3, 4))):
            assert det(constants(rows)) == left_to_right_det(rows)

    def test_symbolic_pencil(self):
        from quartics.detrep import symbolic_pencil

        a_m, b_m, c_m = symbolic_pencil()
        table = a_m[0][0].table
        x, y, z = (Polynomial.variable(table, n) for n in "xyz")
        rows = [[a_m[i][j] * x + b_m[i][j] * y + c_m[i][j] * z for j in range(4)]
                for i in range(4)]
        got = det(rows)
        assert got == left_to_right_det(rows) and got.geometric_degree() == 4


# -- the exact kernels -----------------------------------------------------------


def random_form(rng, table, max_degree, max_terms, homogeneous=False):
    """A polynomial over *table* of up to *max_terms* terms, zero at times: geometric
    exponents either of one total degree (*homogeneous*) or of any up to *max_degree*,
    or each up to *max_degree*; parameter exponents up to 2, now and then one near
    half the packing limit; coefficients over mixed denominators."""
    ng, names = table.n_geometric, table.names
    degree, spread = rng.randint(0, max_degree), rng.random() < 0.3
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        if spread and not homogeneous:
            geo = [rng.randint(0, max_degree) for _ in range(ng)]
        else:
            geo = [0] * ng
            for _ in range(degree if homogeneous else rng.randint(0, max_degree)):
                geo[rng.randrange(ng)] += 1
        params = [rng.randint(0, 2) for _ in names[ng:]]
        if params and rng.random() < 0.1:
            params[rng.randrange(len(params))] = rng.randint(LIMIT // 2 - 3, LIMIT // 2 + 3)
        terms[tuple(geo + params)] = Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))
    return Polynomial(table, terms)


def low_form_of_degree(rng, table, degree):
    """A ternary form of geometric degree at most *degree* (possibly zero) whose
    coefficients are small rationals times random monomials in the parameters."""
    return Polynomial(table, {(i, j, degree - i - j) + tuple(rng.randint(0, 2) for _ in
                                                             table.parameters):
                              Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                              for i in range(degree + 1) for j in range(degree + 1 - i)
                              if rng.random() < 0.6})


def expanded_sum_of_products(table, products):
    """``sum c * a * b`` expanded term by term over the exponent tuples of ``terms``,
    every table checked before any product; every product's exponents are packed,
    so a product past the packing limit is a ``DegreeError`` even when it cancels."""
    products = list(products)
    for _, a, b in products:
        for p in (a, b):
            if p.table != table:
                raise TableMismatchError(
                    f"cannot combine polynomials over {table.names} and {p.table.names}")
    out = {}
    for c, a, b in products:
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + c * ca * cb
    return Polynomial(table, out)


class TestSumOfProducts:
    @drawn(150)
    @given(RANDOMS)
    def test_matches_the_expansion(self, rng):
        table = rng.choice((XYZ, PQ, PAR, SEVEN))
        other = XYZ if table is PQ else PQ
        products = []
        for _ in range(rng.randint(0, 6)):
            c = rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-30, 30),
                                                         rng.choice(DENOMINATORS))))
            # operands up to half the packing limit, so some products cross it; zero
            # operands often, and now and then one over another table
            a, b = (rng.choices((
                lambda: random_form(rng, table, 3, 6),
                lambda: Polynomial(table, random_terms(rng, table, LIMIT // 2 + 10, 6, 3)),
                lambda: Polynomial.zero(table),
                lambda: rng.choice((Polynomial.zero(other), Polynomial.constant(PQ, 2)))),
                (4, 4, 2, 1))[0]() for _ in range(2))
            products.append((c, a, b))
        want = exact_outcome(expanded_sum_of_products, table, products)
        assert cold_and_hot(Polynomial.sum_of_products, table, products) == want
        assert exact_outcome(Polynomial.sum_of_products, table, iter(products)) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_mixed_denominators(self, seed):
        rng = random.Random(seed)
        table = (PAR, SEVEN)[seed % 2]
        products = []
        for _ in range(rng.randint(1, 6)):
            c = rng.choice([rng.randint(-9, 9),
                            Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))])
            a, b = (Polynomial(table, {tuple(rng.randint(0, 3) for _ in table.names):
                                       Fraction(rng.randint(-20, 20), rng.choice(DENOMINATORS))
                                       for _ in range(rng.randint(0, 5))}) for _ in range(2))
            products.append((c, a, b))
        assert cold_and_hot(Polynomial.sum_of_products, table, products) == exact_outcome(
            expanded_sum_of_products, table, products)

    def test_every_nonzero_product_counts(self):
        # single-term and constant operands, zero ones between them
        x, p = Polynomial.variable(PQ, "x"), Polynomial.variable(PQ, "p")
        zero, two = Polynomial.zero(PQ), Polynomial.constant(PQ, 2)
        products = [(1, x, p), (3, zero, x), (1, two, two), (-1, p, zero), (5, x, x), (0, x, p)]
        for k in range(len(products) + 1):
            assert (cold_and_hot(Polynomial.sum_of_products, PQ, products[:k])
                    == exact_outcome(expanded_sum_of_products, PQ, products[:k]))

    def test_a_zero_over_another_table_is_a_mismatch(self):
        x = Polynomial.variable(PQ, "x")
        for products in ([(1, x, Polynomial.zero(XYZ))], [(1, Polynomial.zero(XYZ), x)],
                         [(1, x, x), (2, Polynomial.zero(PQ), Polynomial.zero(XYZ))]):
            want = exact_outcome(expanded_sum_of_products, PQ, products)
            assert want.startswith("TableMismatchError")
            assert exact_outcome(Polynomial.sum_of_products, PQ, products) == want

    def test_table_mismatch(self):
        a, b = Polynomial.variable(PAR, "x"), Polynomial.monomial(PAR, {"r": 2}, Fraction(1, 3))
        foreign = Polynomial.variable(SEVEN, "x")
        for table, products in ((PAR, [(1, a, foreign)]), (PAR, [(1, foreign, a)]),
                                (PAR, [(1, a, b), (2, b, foreign)]), (SEVEN, [(1, a, b)])):
            want = exact_outcome(expanded_sum_of_products, table, products)
            assert want.startswith("TableMismatchError")
            assert exact_outcome(Polynomial.sum_of_products, table, products) == want

    def test_empty_list_is_zero_over_the_table(self):
        for table in (XYZ, PAR, SEVEN):
            got = Polynomial.sum_of_products(table, [])
            assert got.is_zero() and got.table == table and got.denominator == 1
            assert got == Polynomial.zero(table)

    def test_cancellation_to_zero_has_denominator_one(self):
        a = Polynomial(PAR, {(1, 0, 0, 2, 0, 0): Fraction(3, 7), (0, 0, 0, 0, 0, 1): Fraction(-1, 6)})
        b = Polynomial(PAR, {(0, 1, 0, 0, 0, 0): Fraction(5, 4), (0, 0, 0, 0, 0, 0): Fraction(2, 9)})
        for products in ([(1, a, b), (-1, b, a)],
                         [(Fraction(1, 3), a, b), (Fraction(-2, 6), b, a)],
                         [(2, a, a), (Fraction(1, 5), b, b), (-2, a, a), (Fraction(-1, 5), b, b)]):
            got = Polynomial.sum_of_products(PAR, products)
            assert got.is_zero() and got.denominator == 1 and dict(got.numerators) == {}

    def test_int_and_fraction_scales_over_mixed_denominators(self):
        a = Polynomial(PAR, {(1, 0, 0, 0, 0, 0): Fraction(1, 6), (0, 0, 0, 1, 0, 0): Fraction(5, 4)})
        b = Polynomial(PAR, {(0, 1, 0, 0, 0, 0): Fraction(7, 35), (0, 0, 0, 0, 0, 0): 3})
        products = [(4, a, b), (Fraction(4, 9), b, b), (-3, a, a)]
        got = Polynomial.sum_of_products(PAR, products)
        assert got == expanded_sum_of_products(PAR, products)
        assert got == 4 * (a * b) + Fraction(4, 9) * (b * b) - 3 * (a * a)

    def test_product_is_the_one_product_case(self):
        from conftest import random_quartic

        rng = random.Random(5)
        for _ in range(10):
            a, b = (random_quartic(rng) for _ in range(2))
            one = Polynomial.sum_of_products(XYZ, [(1, a, b)])
            assert a * b == one and list((a * b).numerators) == list(one.numerators)

    def test_degree_error_exactly_past_the_limit(self):
        x, r = Polynomial.variable(PAR, "x"), Polynomial.variable(PAR, "r")
        fits = [(1, x ** 30000, r ** 35535), (-1, r ** 35535, x ** 30000), (2, x, x)]
        assert Polynomial.sum_of_products(PAR, fits) == 2 * x ** 2
        # the second product crosses even though its scale is zero and the sum cancels
        for c in (1, 0):
            products = [(1, x, x), (c, x ** 30000, r ** 35536)]
            want = exact_outcome(expanded_sum_of_products, PAR, products)
            assert want == "DegreeError: degree exceeds the packing limit 65535"
            assert cold_and_hot(Polynomial.sum_of_products, PAR, products) == want

    def test_degree_error_of_a_plan_large_enough_to_compile(self, compiles):
        # 9 pairs, some past the limit, as many as a kept plan compiles from: every
        # call raises before any pair is formed, naming the top keys' degree, and
        # compiles nothing
        x, r = Polynomial.variable(PAR, "x"), Polynomial.variable(PAR, "r")
        a = x ** 30000 * (1 + r + r * r)
        products = [(1, a, r ** 35534 * (1 + x + x * x))]
        want = exact_outcome(expanded_sum_of_products, PAR, products)
        assert want == "DegreeError: degree exceeds the packing limit 65535"
        assert cold_and_hot(Polynomial.sum_of_products, PAR, products) == want
        with pytest.raises(DegreeError, match="^degree 65538 exceeds"):
            Polynomial.sum_of_products(PAR, products)
        assert compiles == []

    def test_a_product_plans_nothing(self, compiles):
        # a sum of products is one pass over a dict: hot or cold, no plan is looked up,
        # built or compiled
        rng = random.Random(4)
        products = [(Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)),
                     random_form(rng, PAR, 4, 8), random_form(rng, PAR, 3, 12)) for _ in range(3)]
        want = exact_outcome(expanded_sum_of_products, PAR, products)
        info = _pairing.cache_info()
        for _ in range(_HOT + 1):
            assert exact_outcome(Polynomial.sum_of_products, PAR, products) == want
            assert exact_outcome(lambda: products[0][1] * products[0][2]) == exact_outcome(
                expanded_sum_of_products, PAR, [(1, products[0][1], products[0][2])])
        assert _pairing.cache_info() == info and compiles == []

    def test_product_keys_descend_from_operands_stored_out_of_order(self):
        rng = random.Random(6)
        for _ in range(20):
            a, b = (Polynomial(PAR, {tuple(rng.randint(0, 3) for _ in PAR.names):
                                     Fraction(rng.randint(-20, 20), rng.choice(DENOMINATORS))
                                     for _ in range(rng.randint(1, 10))}) for _ in range(2))
            want = a * b
            assert list(want._num) == sorted(want._num, reverse=True)
            for x, y in ((reordered(a), b), (a, reordered(b)), (reordered(a), reordered(b))):
                got = x * y
                assert got == want and tuple(got._num) == tuple(want._num)


def full_matrix_j_bracket(f, g):
    """The four J-brackets from the full Hessians: the dot product of the Hessians
    and of their adjugates, and the two determinants."""
    for p in (f, g):
        if p.geometric_degree() > 2:
            raise DegreeError("J brackets are defined for quadratic forms")
    hf, hg = hessian(f), hessian(g)
    return (dot(hf, hg), dot(adjugate(hf), adjugate(hg)), left_to_right_det(hf),
            left_to_right_det(hg))


def low_form(rng, table):
    """A form as j_bracket meets it: a quadratic with parameter coefficients or
    without, with cross terms, a form of geometric degree below 2, zero, or a dense
    form of degree 0 to 2 with every monomial likely."""
    kind = rng.randrange(5)
    if kind == 3:
        return Polynomial.zero(table)
    if kind < 3:
        return random_form(rng, table, (2, 2, 1)[kind], 6, homogeneous=kind == 0)
    return low_form_of_degree(rng, table, rng.choice((0, 1, 2, 2, 2)))


class TestJBracket:
    @drawn(150)
    @given(RANDOMS)
    def test_matches_the_full_matrices(self, rng):
        table = rng.choice((XYZ, PQ))
        f, g = low_form(rng, table), low_form(rng, table)
        assert cold_and_hot(j_bracket, f, g) == exact_outcome(full_matrix_j_bracket, f, g)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_pairs(self, seed):
        # quadratics, linear forms and constants, with and without parameter coefficients
        rng = random.Random(seed)
        table = (XYZ, PQ)[seed % 2]
        f, g = (low_form_of_degree(rng, table, rng.choice((0, 1, 2, 2, 2))) for _ in range(2))
        assert cold_and_hot(j_bracket, f, g) == exact_outcome(full_matrix_j_bracket, f, g)

    @pytest.mark.parametrize("seed", range(8))
    def test_general_quadratics(self, seed):
        # all six monomials, every off-diagonal Hessian entry nonzero
        rng = random.Random(seed)
        table = (XYZ, PQ)[seed % 2]
        def quadratic():
            return Polynomial(table, {tuple(e + (rng.randint(0, 2),) * len(table.parameters)):
                                      Fraction(rng.randint(1, 9), rng.randint(1, 4))
                                      for e in itertools.product(range(3), repeat=3) if sum(e) == 2})
        f, g = quadratic(), quadratic()
        assert all(entry for row in hessian(f) for entry in row)
        assert cold_and_hot(j_bracket, f, g) == exact_outcome(full_matrix_j_bracket, f, g)

    def test_j22_keys_past_the_packing_limit(self):
        # Hessian entries of degree 16,400 in p and in q: J11's keys reach 32,800, the
        # cofactors' 32,800 and the determinants' 49,200, but J22's 65,600
        p, q = (Polynomial.variable(PQ, name) ** 16400 for name in "pq")
        x, y, z = (Polynomial.variable(PQ, name) for name in "xyz")
        f, g = p * (x * x + y * y + z * z + x * y), q * (x * x + y * y + z * z + 3 * y * z)
        want = exact_outcome(full_matrix_j_bracket, f, g)
        assert want == "DegreeError: degree exceeds the packing limit 65535"
        assert cold_and_hot(j_bracket, f, g) == want

    def test_past_the_limit_only_through_a_cofactor_that_cancels(self):
        # H(p^16400 (x + y)^2) has rank 1: its one cofactor with terms cancels, so its
        # products with g's cofactors, whose keys would pass the limit, form no key
        p, q = (Polynomial.variable(PQ, name) ** 16400 for name in "pq")
        x, y, z = (Polynomial.variable(PQ, name) for name in "xyz")
        f, g = p * (x + y) ** 2, Fraction(1, 3) * q * (x * x + y * y + z * z)
        want = exact_outcome(full_matrix_j_bracket, f, g)
        assert "Error" not in str(want) and want[1][2] == {}
        assert cold_and_hot(j_bracket, f, g) == want

    @pytest.mark.parametrize("f, g", [
        (Polynomial.variable(PQ, "x"), Polynomial.zero(XYZ)),           # a zero over another table
        (Polynomial.zero(PQ), Polynomial.zero(XYZ)),
        (Polynomial.variable(PQ, "p") ** 3, Polynomial.variable(XYZ, "z") ** 3),  # degree first
        (Polynomial.variable(PQ, "x"), Polynomial.variable(XYZ, "y") ** 3),
        (Polynomial.variable(VarTable(("x", "y")), "x"), Polynomial.zero(PQ)),    # 3 geometric
    ])
    def test_errors_in_the_same_order(self, f, g):
        want = exact_outcome(full_matrix_j_bracket, f, g)
        assert "Error" in str(want)
        assert exact_outcome(j_bracket, f, g) == want

    @pytest.mark.parametrize("f, g, error", [
        (Polynomial.variable(XYZ, "x") ** 2, Polynomial.variable(PQ, "y") ** 2, "TableMismatch"),
        (Polynomial.variable(XYZ, "x") ** 2, Polynomial.variable(BINARY, "y"), "DegreeError: hess"),
        (Polynomial.variable(BINARY, "y"), Polynomial.variable(XYZ, "x") ** 2, "DegreeError: hess"),
    ], ids=["tables", "g binary", "f binary"])
    def test_an_error_route_plans_nothing(self, f, g, error):
        # the full matrices would form both Hessians' partials before the error
        info = _pairing.cache_info()
        assert exact_outcome(j_bracket, f, g).startswith(error)
        assert _pairing.cache_info() == info

    @pytest.mark.parametrize("f, g", [
        (Polynomial.variable(XYZ, "x") ** 3, Polynomial.variable(XYZ, "y") ** 2),
        (Polynomial.variable(PQ, "y") ** 2, Polynomial.monomial(PQ, {"p": 1, "z": 3})),
    ])
    def test_a_cubic_is_rejected_before_its_plans_are_built(self, f, g):
        kept = _bracket.cache_info().currsize
        want = "DegreeError: J brackets are defined for quadratic forms"
        assert exact_outcome(j_bracket, f, g) == want
        assert _bracket.cache_info().currsize == kept


# -- binary_invariants and det H: the staged plans of the contravariants and covariants -----


def fraction_binary_invariants(a):
    """Sigma and Psi of the coefficients *a* from the closed forms of
    ``dixmier.binary_invariants``, every product of ``Fraction`` terms expanded over
    the exponent tuples, Psi's bracket multiplied out."""
    table, terms = a[0].table, [dict(p.terms) for p in a]

    def expanded(*products):
        out = {}
        for c, *factors in products:
            part = {(0,) * len(table): Fraction(c)}
            for i in factors:
                step = {}
                for e, x in part.items():
                    for f, y in terms[i].items():
                        key = tuple(map(sum, zip(e, f)))
                        step[key] = step.get(key, 0) + x * y
                part = step
            for e, x in part.items():
                out[e] = out.get(e, 0) + x
        return Polynomial(table, out)

    return (expanded((1, 0, 4), (Fraction(-1, 4), 1, 3), (Fraction(1, 12), 2, 2)),
            expanded((Fraction(1, 6), 2, 0, 4), (Fraction(1, 48), 2, 1, 3),
                     (Fraction(-1, 216), 2, 2, 2), (Fraction(-1, 16), 0, 3, 3),
                     (Fraction(-1, 16), 1, 1, 4)))


def binary_coefficients(rng, table):
    """Five coefficients as ``binary_invariants`` meets them: each zero at times, else up to
    6 terms of exponents up to 2, parameters included, over mixed denominators."""
    return [Polynomial(table, {tuple(rng.randint(0, 2) for _ in table.names):
                               Fraction(rng.randint(-30, 30), rng.choice(DENOMINATORS))
                               for _ in range(rng.choice((0, rng.randint(1, 6))))})
            for _ in range(5)]


class TestBinaryInvariants:
    @drawn(150)
    @given(RANDOMS)
    def test_matches_the_fraction_terms(self, rng):
        a = binary_coefficients(rng, rng.choice((BINARY, PQ, PAR)))
        assert cold_and_hot(binary_invariants, a) == exact_outcome(fraction_binary_invariants, a)

    @pytest.mark.parametrize("name", ["X4", "X16", "X24", "X96"])
    def test_family_restrictions(self, name):
        # the coefficients that contravariants forms in its first stage, as polynomials
        p = make_family(name).poly
        a = restrict_to_line(p, p.table, "z", ("x", "y"), ("x", "y"))
        assert cold_and_hot(binary_invariants, a) == exact_outcome(fraction_binary_invariants, a)

    def test_a_coefficient_over_another_table(self):
        a = [Polynomial.variable(PQ, "p")] * 4 + [Polynomial.variable(XYZ, "x")]
        with pytest.raises(TableMismatchError):
            binary_invariants(a)


def hessian_then_det(f):
    return det(hessian(f))


def quartic_with_gaps(rng, table):
    """A ternary quartic with each of its 15 monomials at times missing, parameter
    coefficients over mixed denominators, and now and then a parameter exponent near a
    third of the packing limit, so that det H's keys pass it."""
    params = len(table.parameters)
    terms = {}
    for i, j in itertools.product(range(5), repeat=2):
        if i + j <= 4 and rng.random() < 0.6:
            exps = [rng.randint(0, 2) for _ in range(params)]
            if params and rng.random() < 0.05:
                exps[rng.randrange(params)] = rng.randint(LIMIT // 3 - 4, LIMIT // 3 + 4)
            terms[(i, j, 4 - i - j, *exps)] = Fraction(rng.randint(-30, 30),
                                                       rng.choice(DENOMINATORS))
    return Polynomial(table, terms)


class TestHessianDet:
    @drawn(100)
    @given(RANDOMS)
    def test_matches_det_of_the_hessian(self, rng):
        table = rng.choice((XYZ, PQ, PAR))
        f = (quartic_with_gaps(rng, table) if rng.random() < 0.7 else
             random_form(rng, table, 4, 10, homogeneous=rng.random() < 0.5))
        assert cold_and_hot(hessian_det, f) == exact_outcome(hessian_then_det, f)

    @pytest.mark.parametrize("name", ["X4", "X16", "X24", "X96"])
    def test_families(self, name):
        # the families' key sets, symbolic and at a seeded member
        rng = random.Random(name)
        for f in (make_family(name), make_family(name, [Fraction(rng.randint(-9, 9), 7)
                                                        for _ in make_family(name).params])):
            assert cold_and_hot(hessian_det, f.poly) == exact_outcome(hessian_then_det, f.poly)

    def test_past_the_limit_only_through_a_minor_det_does_not_form(self):
        # H00 = 0, so det forms no cofactor of it: H11 H22 would reach p^66000
        p = Polynomial.variable(PQ, "p") ** 33000
        x, y, z = (Polynomial.variable(PQ, name) for name in "xyz")
        f = p * (y ** 4 + z ** 4) + x * y * z * z
        want = exact_outcome(hessian_then_det, f)
        assert "Error" not in str(want)
        assert cold_and_hot(hessian_det, f) == want

    def test_not_ternary_before_any_plan(self):
        info = _hessian_det_plan.cache_info()
        with pytest.raises(DegreeError, match="^hessian needs 3 geometric variables, table has 2$"):
            hessian_det(Polynomial.variable(BINARY, "x") ** 4)
        assert _hessian_det_plan.cache_info() == info


def scanned_diff_pair(f, g):
    """``D_f(g)`` by scanning every term of *g* for each geometric monomial a of *f*:
    terms whose geometric exponents b >= a give ``f_c * g_c * prod perm(b_i, a_i)``
    at the exponents of the f term plus b minus 2a."""
    if f.table != g.table:
        raise TableMismatchError(
            f"cannot combine polynomials over {f.table.names} and {g.table.names}")
    ng = f.table.n_geometric
    groups = {}
    for exps, c in f.numerators.items():
        groups.setdefault(exps[:ng], []).append((exps, c))
    out = {}
    for a, terms in groups.items():
        for b, c in g.numerators.items():
            for i, e in enumerate(a):
                if b[i] < e:
                    break
                c *= perm(b[i], e)
            else:
                for exps, fc in terms:
                    k = tuple(x + y - 2 * (a[i] if i < ng else 0)
                              for i, (x, y) in enumerate(zip(exps, b)))
                    out[k] = out.get(k, 0) + fc * c
    return Polynomial.from_numerators(f.table, out, f.denominator * g.denominator)


def relabelled(rng, p):
    """*p*'s keys in their order, with other numerators over another denominator:
    what :func:`diff_pair` plans from is unchanged."""
    return Polynomial._from_packed(p.table, {key: rng.choice((-1, 1)) * rng.randint(1, 10 ** 9)
                                             for key in p._num}, rng.choice(DENOMINATORS))


def reordered(p):
    """*p* with its keys stored in reverse order: an equal polynomial, another plan."""
    return Polynomial._from_packed(p.table, dict(reversed(p._num.items())), p.denominator)


class TestDiffPair:
    @drawn(200)
    @given(RANDOMS)
    def test_matches_the_scan(self, rng):
        # mixed degrees and non-homogeneous operands, zero at times; parameter
        # exponents near half the packing limit, so that some pairings cross it
        table = rng.choice((XYZ, PQ, PAR, SEVEN))
        f = random_form(rng, table, 4, 8)
        g = random_form(rng, table, rng.choice((6, 7)), 10)
        want = exact_outcome(scanned_diff_pair, f, g)
        assert cold_and_hot(diff_pair, f, g) == want
        # the same key tuples again: the plan is reused with the new numerators
        hits = _pairing.cache_info().hits
        f2, g2 = relabelled(rng, f), relabelled(rng, g)
        assert exact_outcome(diff_pair, f2, g2) == exact_outcome(scanned_diff_pair, f2, g2)
        assert _pairing.cache_info().hits == hits + 1
        # the keys in another order: another plan, the same answer
        assert exact_outcome(diff_pair, reordered(f), reordered(g)) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_higher_degree_operands(self, seed):
        # each monomial of f of degree d against g's monomials of degree d, d + 1 and d + 2
        rng = random.Random(seed)
        table = (XYZ, PQ)[seed % 2]
        def form(degrees, count):
            terms = {}
            for _ in range(count):
                geo = [0, 0, 0]
                for _ in range(rng.choice(degrees)):
                    geo[rng.randrange(3)] += 1
                terms[tuple(geo) + tuple(rng.randint(0, 1) for _ in table.parameters)] = \
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            return Polynomial(table, terms)
        f, g = form((1, 2), 6), form((1, 2, 3, 4), 25)
        assert cold_and_hot(diff_pair, f, g) == exact_outcome(scanned_diff_pair, f, g)
        assert cold_and_hot(diff_pair, g, f) == exact_outcome(scanned_diff_pair, g, f)

    @pytest.mark.parametrize("seed", range(8))
    def test_pipeline_shapes(self, seed):
        # quartic against sextic and sextic against sextic, as rho and I6 pair them
        rng = random.Random(seed)
        table = (XYZ, PAR)[seed % 2]
        f, g, h = (low_form_of_degree(rng, table, d) for d in (4, 6, 6))
        for a, b in ((f, g), (g, h), (f, f), (g, f)):
            assert cold_and_hot(diff_pair, a, b) == exact_outcome(scanned_diff_pair, a, b)

    def test_zero_operands_and_other_tables(self):
        # operands over other tables are refused before any plan is looked up; zero
        # operands, and an operator of higher degree than every term, give zero over 1
        mono = Polynomial.monomial
        x = Polynomial.variable(PQ, "x")
        zeros = [(mono(PAR, {"x": 2, "y": 1, "r": 3}, Fraction(5, 3)),
                  mono(PAR, {"x": 2, "s": 1}, 7) + mono(PAR, {"y": 4}, Fraction(-1, 2)))]
        for table in (XYZ, PAR, SEVEN):
            zero, x2 = Polynomial.zero(table), mono(table, {"x": 2}, Fraction(3, 7))
            zeros += [(zero, x2), (x2, zero), (zero, zero)]
        for f, g in ((x, Polynomial.zero(PQ)), (Polynomial.zero(PQ), x),
                     (x, Polynomial.zero(XYZ)), (Polynomial.zero(XYZ), x),
                     (Polynomial.variable(PAR, "x"), Polynomial.variable(SEVEN, "x")),
                     (Polynomial.variable(XYZ, "x"), mono(PAR, {"x": 2})), *zeros):
            info = _pairing.cache_info()
            want = exact_outcome(scanned_diff_pair, f, g)
            assert exact_outcome(diff_pair, f, g) == want
            if want.__class__ is str:
                assert want.startswith("TableMismatchError") and _pairing.cache_info() == info
        for f, g in zeros:
            assert exact_outcome(diff_pair, f, g) == [(f.table, 1, {})]

    def test_mixed_denominators(self):
        mono = Polynomial.monomial
        f = mono(PAR, {"x": 1, "r": 1}, Fraction(3, 4)) + mono(PAR, {"y": 1}, Fraction(-5, 6))
        g = mono(PAR, {"x": 2, "y": 1, "s": 2}, Fraction(7, 10)) + mono(PAR, {"y": 3}, Fraction(1, 9))
        want = exact_outcome(scanned_diff_pair, f, g)
        assert cold_and_hot(diff_pair, f, g) == want
        # by hand: d_x g * 3r/4 - d_y g * 5/6
        hand = (mono(PAR, {"x": 1, "y": 1, "r": 1, "s": 2}, Fraction(21, 20))
                - mono(PAR, {"x": 2, "s": 2}, Fraction(7, 12)) - mono(PAR, {"y": 2}, Fraction(5, 18)))
        assert want == [(PAR, hand.denominator, dict(hand.numerators))]

    def test_degree_at_the_packing_limit(self):
        # the parameter parts multiply: r^32768 * r^32768 crosses the limit, in one
        # field or spread over two, while the geometric part only falls; the second
        # call reuses the plan, which keeps the key past the limit
        mono = Polynomial.monomial
        f = mono(PAR, {"x": 1, "r": 32768})
        for g, crosses in ((mono(PAR, {"x": 3, "r": 32768}), True),
                           (mono(PAR, {"x": 1, "s": 32768}), True),
                           (mono(PAR, {"x": 1, "s": LIMIT - 32768}), False)):
            want = exact_outcome(scanned_diff_pair, f, g)
            if crosses:
                assert want.startswith("DegreeError") and "65535" in want
            else:
                assert not isinstance(want, str)
            assert exact_outcome(diff_pair, f, g) == want
            hits = _pairing.cache_info().hits
            assert exact_outcome(diff_pair, f, g) == want
            assert _pairing.cache_info().hits == hits + 1
        p, q = Polynomial.variable(PQ, "p") ** 40000, Polynomial.variable(PQ, "q") ** 30000
        assert cold_and_hot(diff_pair, p, q) == exact_outcome(scanned_diff_pair, p, q)

    def test_weights_of_more_digits_than_str_converts(self, compiles):
        # 2000! has 5,736 digits: generated code writes a weight in hex, which has no
        # digit limit, so the compiled plan gives the loop's answer
        mono = Polynomial.monomial
        f = sum((mono(PAR, {"x": 2000, "r": k}, k + 1) for k in range(3)), Polynomial.zero(PAR))
        g = sum((mono(PAR, {"x": 2000 + k % 2, "s": k}, Fraction(1, k + 1)) for k in range(3)),
                Polynomial.zero(PAR))
        assert cold_and_hot(diff_pair, f, g) == exact_outcome(scanned_diff_pair, f, g)
        assert len(compiles) == 1

    def test_table_mismatch_before_any_plan_or_compile(self, compiles):
        # hot: the plans of f and g compiled; operands over another table are refused
        # before any plan is looked up, built or compiled
        rng = random.Random(8)
        f, g = random_form(rng, PAR, 4, 8), random_form(rng, PAR, 6, 10)
        assert cold_and_hot(diff_pair, f, g) == exact_outcome(scanned_diff_pair, f, g)
        products = [(1, f, g), (2, g, g)]
        assert (cold_and_hot(Polynomial.sum_of_products, PAR, products)
                == exact_outcome(expanded_sum_of_products, PAR, products))
        foreign = Polynomial.variable(SEVEN, "x")
        kept = _pairing.cache_info(), len(compiles)
        for call, args in ((diff_pair, (f, foreign)), (diff_pair, (foreign, g)),
                           (Polynomial.sum_of_products, (PAR, products + [(1, f, foreign)])),
                           (Polynomial.sum_of_products, (PAR, [(1, foreign, g)] + products))):
            assert exact_outcome(call, *args).startswith("TableMismatchError")
        assert (_pairing.cache_info(), len(compiles)) == kept

    def test_a_plan_over_the_terms_of_one_function(self):
        # each of the 300 monomials m of degree 23 in x, y, z pairs only with itself: f's
        # terms m and m*r against g's m and m*s form the keys 1, r, s and r*s by 300 pairs
        # each, so their sums run over several functions of _PIECE pairs, in parts, and
        # the first and last pairs of a function fall in shared slots
        rng = random.Random(3)
        f, g = ({(i, j, 23 - i - j, *extra): Fraction(rng.randint(-9, 9) or 1,
                                                     rng.choice(DENOMINATORS))
                 for i in range(24) for j in range(24 - i) for extra in parameters}
                for parameters in (((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0))))
        f, g = Polynomial(PAR, f), Polynomial(PAR, g)
        want = exact_outcome(scanned_diff_pair, f, g)
        assert len(want[0][2]) == 4
        assert cold_and_hot(diff_pair, f, g) == want
        plan = _pairing(PAR, tuple(f._num), tuple(g._num))
        assert len(plan.pairs) // 4 == 1200 and len(plan.kernel) == -(-1200 // _PIECE)

    def test_compiled_code_goes_with_its_plan(self, compiles):
        # a plan keeps the kernel it compiles on its _HOT-th use, and only then; dropped
        # from the plan cache it takes the functions with it (no other plan's source has
        # weights of 1234! and 1235!), and built again it compiles again, once
        mono = Polynomial.monomial
        f = sum((mono(PAR, {"x": 1234, "r": k}, k + 1) for k in range(3)), Polynomial.zero(PAR))
        g = sum((mono(PAR, {"x": 1234 + k % 2, "s": k}, Fraction(1, k + 1)) for k in range(3)),
                Polynomial.zero(PAR))
        want, operands = exact_outcome(scanned_diff_pair, f, g), (tuple(f._num), tuple(g._num))
        _pairing.cache_clear()
        for _ in range(2):
            for use in range(1, _HOT + 3):
                assert exact_outcome(diff_pair, f, g) == want
                plan = _pairing(PAR, *operands)     # a hit, which is not a use
                assert plan.uses == use and compiles == [plan] * (use >= _HOT)
            assert len(plan.kernel) == 1
            code = weakref.ref(plan.kernel[0])
            del plan, compiles[:]
            _pairing.cache_clear()
            gc.collect()
            assert code() is None

    def test_the_plans_kept_are_bounded(self):
        # more pairs of key sets than the cache keeps: the oldest plans are dropped,
        # and a dropped one is built again, with the same answers
        rng = random.Random(5)
        _pairing.cache_clear()
        bound = _pairing.cache_info().maxsize
        # r^(k + 3) makes each f's key set its own
        pairs = [(random_form(rng, PAR, 4, 8) + Polynomial.monomial(PAR, {"r": k + 3}),
                  random_form(rng, PAR, 6, 10)) for k in range(bound + 16)]
        for f, g in pairs:
            assert exact_outcome(diff_pair, f, g) == exact_outcome(scanned_diff_pair, f, g)
        assert _pairing.cache_info()[1:] == (bound + 16, bound, bound)  # misses, maxsize, currsize
        for f, g in pairs[:3]:
            assert exact_outcome(diff_pair, f, g) == exact_outcome(scanned_diff_pair, f, g)
        assert _pairing.cache_info()[:2] == (0, bound + 19)


# -- eval_exact -------------------------------------------------------------------


def eval_exact_reference(p, point):
    """The value of *p* at *point* as a sum of ``Fraction`` terms in canonical
    order; the error names the first unassigned variable of the first term that
    has one."""
    total = Fraction(0)
    for exps, c in p.sorted_terms():
        for name, e in zip(p.table.names, exps):
            if e:
                if name not in point:
                    raise DomainError(f"variable {name!r} not assigned")
                c *= Fraction(point[name]) ** e
        total += c
    return total


def _component_polynomials():
    """Every polynomial that ``quartics.components`` holds, tuples flattened."""
    from quartics import components

    def flatten(value):
        if isinstance(value, Polynomial):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                yield from flatten(item)

    # by name, a fixed order: a test draws a table's point on its first polynomial
    tables = vars(components.tables())
    return [p for name in sorted(tables) for p in flatten(tables[name])]


_BIG = 10 ** 40 + 7
#: The kinds of exact point values: small fractions, negative, huge and tiny,
#: with large denominators, zero, ints, and mixed forms (a string, a float).
_EXACT_VALUES = [
    lambda rng: Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)),
    lambda rng: Fraction(-rng.randint(1, 10 ** 6), rng.choice(DENOMINATORS)),
    lambda rng: Fraction(rng.randint(-_BIG, _BIG), _BIG + rng.randint(0, 9)),
    lambda rng: rng.choice((0, Fraction(0), Fraction(3, 7))),
    lambda rng: rng.randint(-50, 50),
    lambda rng: rng.choice((-3, Fraction(-1, 10 ** 20), 0, "5/7", 0.375)),
    lambda rng: rng.choice((0, 1, -1, Fraction(-7, 3), Fraction(12345, 1000), -4, 2, 10 ** 30,
                            -10 ** 30 + 1, Fraction(10 ** 30, 7), Fraction(-3, 10 ** 30),
                            Fraction(1, 10 ** 30))),
]


class TestEvalExact:
    def test_every_table(self):
        from quartics import components

        polys = _component_polynomials()
        assert len(polys) == 37 and {p.table for p in polys} == {
            components.TABLE_X4, components.TABLE_X16, components.TABLE_X24}

    @drawn(60)
    @given(RANDOMS)
    def test_matches_the_fraction_sum(self, rng):
        # random polynomials with exponents up to 5 or near the packing limit (where
        # only 0 and +-1 keep the powers small) and every component polynomial, at
        # one point per table; in a third of the points some variables are left out
        value = rng.choice(_EXACT_VALUES)
        table = rng.choice((XYZ, PAR, SEVEN))
        small = Polynomial(table, random_terms(rng, table, 0, 12, 5))
        large = Polynomial(table, random_terms(rng, table))
        points = {}     # one point per table, drawn on its first polynomial
        for p in (small, large, *_component_polynomials()):
            if (point := points.get(p.table)) is None or p is large:
                names = list(p.table.names)
                if rng.random() < 0.3:
                    names = rng.sample(names, rng.randint(0, len(names) - 1))
                point = {name: rng.choice((0, 1, -1, Fraction(-1))) if p is large else value(rng)
                         for name in names}
                points.setdefault(p.table, point)
            want = outcome(eval_exact_reference, p, point)
            for _ in range(2):      # the plan of the first call, then the kept one
                assert outcome(eval_exact, p, point) == want


    @pytest.mark.parametrize("kind", range(len(_EXACT_VALUES)))
    @pytest.mark.parametrize("table", [XYZ, PAR, SEVEN], ids=["XYZ", "PAR", "SEVEN"])
    def test_seeded_points(self, table, kind):
        rng = random.Random(60606 + kind)
        value = _EXACT_VALUES[kind]
        for _ in range(20):
            p = Polynomial(table, random_terms(rng, table, 0, 12, 5))
            point = {name: value(rng) for name in table.names}
            got = eval_exact(p, point)
            assert type(got) is Fraction and repr(got) == outcome(eval_exact_reference, p, point)

    def test_names_the_same_unassigned_variable(self):
        rng = random.Random(60607)
        raised = 0
        for _ in range(100):
            table = rng.choice((XYZ, PAR, SEVEN))
            p = Polynomial(table, random_terms(rng, table, 0, 10, 4))
            kept = rng.sample(table.names, rng.randint(0, len(table) - 1))
            point = {n: Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for n in kept}
            want = outcome(eval_exact_reference, p, point)
            raised += want.startswith("DomainError")
            assert outcome(eval_exact, p, point) == want
        assert raised > 30


# -- is_symmetric and decompose_symmetric ------------------------------------------


def _basis_indices(table):
    for name in ("r", "s", "u"):
        if name not in table.names:
            raise DomainError(f"the symmetric basis needs variable {name!r}; table has {table.names}")
    return [table.index(n) for n in ("r", "s", "u")]


def permuted(p, perm_):
    """*p* with r, s, u moved to the positions of ``perm_[0]``, ``perm_[1]``, ``perm_[2]``."""
    idx = _basis_indices(p.table)
    out = {}
    for exps, coeff in p.terms.items():
        new = list(exps)
        for a, b in zip(idx, perm_):
            new[idx[b]] = exps[a]
        out[tuple(new)] = coeff
    return Polynomial(p.table, out)


def six_permutation_symmetric(p):
    """Symmetry by definition: *p* equals each of its six permuted copies."""
    return all(permuted(p, perm_) == p for perm_ in itertools.permutations(range(3)))


def peeled_decomposition(p):
    """The decomposition by greedy peeling: subtract ``coeff * S[partition]`` for the
    graded-lex leading monomial until only the constant remains, then sort the terms
    as decompose_symmetric does; the errors of decompose_symmetric, in its order."""
    extra = p.support_names() - {"r", "s", "u"}
    if extra:
        raise DomainError(f"polynomial involves non-basis variables {sorted(extra)}")
    if not six_permutation_symmetric(p):
        raise DomainError("polynomial is not symmetric in the parameters")
    idx = _basis_indices(p.table)
    remainder = p
    collected = []
    while True:
        lead = None
        for exps, coeff in remainder.terms.items():
            key = (sum(exps), exps)
            if sum(exps) and (lead is None or key > lead[0]):
                lead = (key, exps, coeff)
        if lead is None:
            break
        _, exps, coeff = lead
        part = Partition(tuple(sorted((exps[i] for i in idx if exps[i]), reverse=True)))
        collected.append((part, coeff))
        remainder = remainder - s_basis(part, p.table) * coeff
    collected.sort(key=lambda pc: (sum(pc[0].parts), pc[0].parts), reverse=True)
    return SymmetricDecomposition(remainder.constant_value(), tuple(collected))


RSU = VarTable(("x", "y", "z"), ("r", "s", "u"))
#: r, s, u in other orders and between other parameters, and tables missing one
_BASIS_TABLES = [RSU, VarTable(("x", "y", "z"), ("u", "r", "s")),
                 VarTable(("x",), ("a", "s", "r", "b", "u")),
                 VarTable(("x", "y", "z"), ("t", "s", "u", "r")),
                 VarTable(("x", "y", "z"), ("r", "s")), VarTable(("x", "y", "z"), ("s", "u"))]
_SUBGROUPS = [[(0, 1, 2)], [(0, 1, 2), (1, 0, 2)], [(0, 1, 2), (0, 2, 1)], [(0, 1, 2), (2, 1, 0)],
              [(0, 1, 2), (1, 2, 0), (2, 0, 1)], list(itertools.permutations(range(3)))]


def basis_polynomial(rng):
    """A polynomial over one of ``_BASIS_TABLES``: a sum of orbits under the
    permutations of (r, s, u), so symmetric, or one of them with a coefficient
    changed, a term dropped or a term in another variable added; or a random
    polynomial in all the variables averaged over a subgroup of S3."""
    table = rng.choice(_BASIS_TABLES)
    names = [n for n in ("r", "s", "u") if n in table.names]
    if len(names) == 3 and rng.random() < 0.3:
        q = Polynomial(table, {tuple(rng.randint(0, 3) if rng.random() < 0.6 else 0
                                     for _ in table.names):
                               Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                               for _ in range(rng.randint(1, 4))})
        return sum((permuted(q, perm_) for perm_ in rng.choice(_SUBGROUPS)),
                   Polynomial.zero(table))
    terms = {}
    for _ in range(rng.randint(0, 7)):
        leading = [rng.randint(0, 6) for _ in names]
        coeff = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        for perm_ in set(itertools.permutations(leading)):
            exps = [0] * len(table)
            for name, e in zip(names, perm_):
                exps[table.index(name)] = e
            terms[tuple(exps)] = coeff
    change = rng.choice(("none", "none", "coefficient", "drop", "other"))
    if terms and change == "coefficient":
        terms[rng.choice(sorted(terms))] += 1
    elif terms and change == "drop":
        del terms[rng.choice(sorted(terms))]
    elif change == "other":
        exps = [0] * len(table)
        exps[rng.randrange(len(table))] = rng.randint(1, 2)
        terms[tuple(exps)] = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
    return Polynomial(table, terms)


class TestSymmetric:
    @drawn(200)
    @given(RANDOMS)
    def test_matches_the_definition_and_the_peeling(self, rng):
        p = basis_polynomial(rng)
        assert exact_outcome(is_symmetric, p) == exact_outcome(six_permutation_symmetric, p)
        want = exact_outcome(peeled_decomposition, p)
        assert exact_outcome(decompose_symmetric, p) == want
        if not want.startswith("DomainError"):
            assert reconstruct(decompose_symmetric(p), p.table) == p

    @pytest.mark.parametrize("subgroup", range(len(_SUBGROUPS)))
    def test_averages_over_a_subgroup(self, subgroup):
        # symmetric exactly when averaged over all of S3, on tables with r, s, u in
        # other orders and between other parameters; now and then with a term in another
        # variable, which no decomposition takes
        rng = random.Random(65 + subgroup)
        for table in _BASIS_TABLES[:4]:
            for _ in range(5):
                q = Polynomial(table, {tuple(rng.randint(0, 3) if rng.random() < (
                                                 0.6 if name in "rsu" else 0.05) else 0
                                             for name in table.names):
                                       Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                       for _ in range(rng.randint(1, 4))})
                p = sum((permuted(q, perm_) for perm_ in _SUBGROUPS[subgroup]),
                        Polynomial.zero(table))
                assert exact_outcome(is_symmetric, p) == exact_outcome(
                    six_permutation_symmetric, p)
                assert exact_outcome(decompose_symmetric, p) == exact_outcome(
                    peeled_decomposition, p)

    def test_sums_of_the_s_basis(self):
        rng = random.Random(63)
        for trial in range(60):
            table = _BASIS_TABLES[trial % 3]
            p = Polynomial.constant(table, rng.choice((0, Fraction(rng.randint(-9, 9),
                                                                   rng.randint(1, 5)))))
            for _ in range(rng.randint(0, 7)):
                parts = sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 3))),
                               reverse=True)
                p = p + s_basis(parts, table) * Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            dec = decompose_symmetric(p)
            assert exact_outcome(decompose_symmetric, p) == exact_outcome(peeled_decomposition, p)
            assert reconstruct(dec, table) == p

    def test_partly_symmetric(self):
        r, s, u = (Polynomial.variable(RSU, n) for n in ("r", "s", "u"))
        cyclic = r ** 2 * s + s ** 2 * u + u ** 2 * r
        assert permuted(cyclic, (1, 2, 0)) == cyclic
        assert not is_symmetric(cyclic) and not six_permutation_symmetric(cyclic)
        assert permuted(r + s, (1, 0, 2)) == r + s
        assert not is_symmetric(r + s) and not six_permutation_symmetric(r + s)

    def test_x4_invariants(self):
        from quartics.dixmier import dixmier_invariants
        from quartics.symfam import make_family

        for value in dixmier_invariants(make_family("X4")).as_dict().values():
            assert is_symmetric(value)
            assert exact_outcome(decompose_symmetric, value) == exact_outcome(
                peeled_decomposition, value)
            assert reconstruct(decompose_symmetric(value), value.table) == value
            shifted = value + Polynomial.monomial(value.table, {"r": 1, "s": 2})
            assert not is_symmetric(shifted)
            assert exact_outcome(decompose_symmetric, shifted) == exact_outcome(
                peeled_decomposition, shifted)


# -- detrep's determinant certificate ---------------------------------------------

#: Parts of pencil coefficients: signed zeros, a subnormal that the points' coordinates
#: (moduli below 1) can round to zero, huge values, infinities and NaN.
_PENCIL_PARTS = [0.0, -0.0, 1.0, -2.5, 5e-324, 1e-310, 1e300, math.inf, -math.inf, math.nan]


def pencil_value(rng):
    """0j, a complex number with parts in [-3, 3] (three times in five draws), or
    one whose parts are from ``_PENCIL_PARTS``."""
    kind = rng.randrange(5)
    if kind == 0:
        return 0j
    if kind == 4:
        return complex(rng.choice(_PENCIL_PARTS), rng.choice(_PENCIL_PARTS))
    return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))


def point_value(rng):
    if rng.random() < 0.5:
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return rng.choice([0j, complex(-0.0, 0.0), complex(1e-200, -1e-200)])


class TestDeterminantCertificate:
    @drawn(200)
    @given(RANDOMS)
    def test_generated_determinant_matches_the_recursive_expansion(self, rng):
        n = rng.randint(1, 4)
        coefficients = [pencil_value(rng) for _ in range(3 * n * n)]
        x, y, z = (point_value(rng) for _ in range(3))
        want = repr(left_to_right_det(_pencil_rows(n, coefficients, x, y, z)))
        # the pattern of the coefficients, as detrep guesses it, and one drawn at random:
        # a point whose entries have other zeros goes to that pattern's function
        drawn = tuple(rng.random() < 0.5 for _ in range(n * n))
        for zero in (_guessed_pattern(coefficients), drawn):
            assert repr(_pencil_det(zero)(coefficients, x, y, z)) == want

    def test_many_dense_pencils(self):
        # dense 4 x 4 pencils of detrep's shape, with one to three extra zeros in C,
        # at the certificate's points
        from quartics.detrep import _certificate_points

        rng = random.Random(29)
        points = _certificate_points(20240)
        for _ in range(300):
            def value():
                return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            coefficients = []
            zeros = rng.sample(range(16), rng.randint(1, 3))
            for i in range(4):
                for j in range(4):
                    coefficients += [1.0 + 0j if i == j else 0j, value() if i == j else 0j,
                                     0j if 4 * i + j in zeros else value()]
            for x, y, z in rng.sample(points, 5):
                assert_pencil_det(4, coefficients, x, y, z)

    def test_a_fresh_process_generates_one_determinant(self):
        # nothing is generated at import, and a solve generates the function of the
        # one zero pattern its branches share
        script = ("from quartics import cli, detrep\n"
                  "from quartics.diffcalc import _pencil_det\n"
                  "assert _pencil_det.cache_info().currsize == 0\n"
                  "detrep.solve_detrep(1, 5, 7)\n"
                  "print(_pencil_det.cache_info().misses)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n"

    @drawn(150)
    @given(RANDOMS)
    def test_residual_matches_the_interpreted_loop(self, rng):
        from quartics.detrep import DetRep, _certificate_points, _determinant_residual
        from quartics.symfam import make_family

        from conftest import interpreted_determinant_residual

        diagonal = tuple(pencil_value(rng) for _ in range(4))
        c_entries = [pencil_value(rng) for _ in range(16)]
        params = [Fraction(rng.randint(-50 * d, 50 * d), d) for d in rng.choices(range(1, 10), k=3)]
        seed = rng.choice((20240, 1, 7))
        c_matrix = tuple(tuple(c_entries[4 * i:4 * i + 4]) for i in range(4))
        rep = DetRep(diagonal, c_matrix, None, None)
        quartic = make_family("X4", params).poly
        assert outcome(_determinant_residual, rep, quartic, seed) == outcome(
            interpreted_determinant_residual, rep, quartic, _certificate_points(seed))

    @pytest.mark.parametrize("params", [
        (Fraction(50, 17), 3, 7), (Fraction(50, 17), 7, 3), (Fraction(50, 17), -3, -7),
        (3, 5, 7), (Fraction(-9, 2), Fraction(1, 3), 11), (1000, -3, Fraction(7, 5))])
    def test_members(self, params):
        # t = 0 solves the t quadratic of X4(50/17, 3, 7) exactly, so c * d = 0 and C
        # has a zero beyond a = f = 0; the others have only those two
        from quartics.detrep import _certificate_points, _determinant_residual, solve_detrep
        from quartics.symfam import make_family

        from conftest import interpreted_determinant_residual

        rep = solve_detrep(*params)
        zeros = sum(not v for v in rep.off_diagonal())
        assert zeros == (3 if params[0] == Fraction(50, 17) else 2)
        quartic = make_family("X4", params).poly
        want = interpreted_determinant_residual(rep, quartic, _certificate_points(20240))
        assert repr(rep.residuals["det"]) == repr(want)
        assert repr(_determinant_residual(rep, quartic, 20240)) == repr(want)


# -- the square fit ----------------------------------------------------------------

_FIT_SCALES = [1.0, 1.0, 1e-300, 1e150, 2.0 ** 850, 1e300, 1.5e308]


def _square(lam):
    l0, l1, l2 = lam
    return [l0 * l0, 2 * l0 * l1, l1 * l1 + 2 * l0 * l2, 2 * l1 * l2, l2 * l2]


def fit_coefficients(rng):
    """Five coefficients: small Gaussian integers (many exact ties between the
    candidates), exact and near squares, each at times scaled up to the overflow
    range, or with a non-finite part."""
    def part():     # zero and +-1 more often than the others, as drawn integers are
        return rng.choice((0, 0, 0, 1, 1, -1, -1, 2, -2, 3, -3))

    def gaussian():
        return complex(part(), part())

    kind = rng.choice(("gaussian", "square", "near square", "floats", "special"))
    if kind == "gaussian":
        c = [gaussian() for _ in range(5)]
    elif kind in ("square", "near square"):
        def entry():
            return gaussian() if rng.random() < 0.5 else complex(rng.uniform(-2, 2),
                                                                 rng.uniform(-2, 2))
        c = _square((entry(), entry(), entry()))
        if kind == "near square":
            k = rng.randint(0, 4)
            c[k] += rng.choice([1e-15, 1e-12, 1e-10, 1e-9, 1e-6]) * (1 + abs(c[k]))
    elif kind == "floats":
        c = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(5)]
    else:
        parts = [0.0, -0.0, 1.0, -1.0, math.inf, math.nan, 1e308]
        c = [complex(rng.choice(parts), rng.choice(parts)) for _ in range(5)]
    scale = rng.choice(_FIT_SCALES)
    return [v * scale for v in c]


def _unpruned_perfect_square_fit(coeffs, tol):
    """``perfect_square_fit`` over the unpruned fit, its overflow path included."""
    from quartics.bitangent import _scaled

    from conftest import unpruned_square_fit

    c = [complex(v) for v in coeffs]
    try:
        return unpruned_square_fit(c, tol)
    except OverflowError:
        fit = unpruned_square_fit(_scaled(c, -1024), tol)
        return fit and (_scaled(fit[0], 512), fit[1])


class TestSquareFit:
    @drawn(600)
    @given(RANDOMS)
    def test_matches_the_unpruned_fit(self, rng):
        from quartics.bitangent import _square_fit, perfect_square_fit

        from conftest import unpruned_square_fit

        c = fit_coefficients(rng)
        tol = rng.choice([1e-9, 1e-6, 0.5, 1.0, 10.0, 1e300])
        assert outcome(_square_fit, c, tol) == outcome(unpruned_square_fit, c, tol)
        assert outcome(perfect_square_fit, c, tol) == outcome(
            _unpruned_perfect_square_fit, c, tol)

    def test_overflow_in_a_mismatch(self):
        # every coefficient's modulus is finite, one mismatch's is not: the unpruned
        # fit raises, and perfect_square_fit fits the scaled coefficients instead
        from quartics.bitangent import _square_fit, perfect_square_fit

        from conftest import unpruned_square_fit

        c = [1e308 + 0j, 0j, 0j, 0j, 1e308j]
        assert outcome(unpruned_square_fit, c, 1e-9).startswith("OverflowError")
        assert outcome(_square_fit, c, 1e-9) == outcome(unpruned_square_fit, c, 1e-9)
        assert repr(perfect_square_fit(c, 1e-9)) == repr(_unpruned_perfect_square_fit(c, 1e-9))

    def test_overflow_in_a_skipped_mismatch(self):
        # a candidate that an early exit would drop before its overflowing mismatch: at
        # this size every abs() runs, so the fit raises as the unpruned one does
        from quartics.bitangent import _PRUNED_TOP, _square_fit, perfect_square_fit

        from conftest import unpruned_square_fit

        c = [1.7e299 + 1.7000000000000003e294j, 1.7e300 - 1.6999999999999999e305j, 1.7e289j,
             -1.7e308j, -1.6999999999999999e305 + 1.7e300j]
        assert max(map(abs, c)) >= _PRUNED_TOP
        assert outcome(unpruned_square_fit, c, 1e-3).startswith("OverflowError")
        assert outcome(_square_fit, c, 1e-3) == outcome(unpruned_square_fit, c, 1e-3)
        assert repr(perfect_square_fit(c, 1e-3)) == repr(_unpruned_perfect_square_fit(c, 1e-3))

    def test_ties_keep_the_first_candidate(self):
        # (1, 0, 0) and (0, 0, 1) both fit x^4 + y^4 with residual 1, the second with
        # its largest mismatch first: the first candidate is kept
        from quartics.bitangent import _square_fit

        from conftest import unpruned_square_fit

        c = [1 + 0j, 0j, 0j, 0j, 1 + 0j]
        assert repr(_square_fit(c, 10.0)) == repr(unpruned_square_fit(c, 10.0))
        assert _square_fit(c, 10.0) == ((1, 0, 0), 1.0)
        # a near square with a later candidate whose second mismatch over top equals
        # the best residual so far: the first candidate is kept
        c = [-3 + 4j, 3.678984959885482 - 6.667312184065907j,
             -3.676691398701127 + 5.441319710536591j, 1.7034176661581204 - 2.3402178709722627j,
             -0.5629361502237976 + 0.45275054996687775j]
        assert repr(_square_fit(c, 1.0)) == repr(unpruned_square_fit(c, 1.0))


# -- X24's candidates ----------------------------------------------------------------


def three_chart_solves(triple):
    """X24's candidates with the chart system solved once per chart."""
    from quartics.bitangent import _CHART_ROTATIONS, _solve_x24_chart

    return [(embed(a, b), f"X24.{tag}")
            for order, embed in _CHART_ROTATIONS
            for a, b, tag in _solve_x24_chart(*(triple[i] for i in order))]


class TestX24Candidates:
    @pytest.mark.parametrize("triple", [
        (3, 3, 3), (Fraction(-7, 2),) * 3, (Fraction(1001, 1000),) * 3, (10 ** 4,) * 3,
        (1, 3, 5), (Fraction(2, 3), -7, Fraction(2, 3)), (5, 5, Fraction(1, 9))])
    def test_matches_three_chart_solves(self, triple):
        from quartics.bitangent import _x24_candidates

        got = _x24_candidates(triple)
        assert len(got) == 72 and repr(got) == repr(three_chart_solves(triple))

    def test_solves_each_distinct_entry_once(self):
        # each distinct rotated triple once a call, in chart order: X24's (r, r, r) once
        from quartics import bitangent

        calls = []
        source = bitangent._in_charts(
            "X24", (lambda *rotated: calls.append(rotated) or bitangent._solve_x24_chart(*rotated),),
            bitangent._CHART_ROTATIONS)
        for triple in ((Fraction(5, 2),) * 3, (1, 3, 1)):
            assert repr(source(triple)) == repr(bitangent._x24_candidates(triple))
        assert calls == [(Fraction(5, 2),) * 3, (1, 3, 1), (3, 1, 1), (1, 1, 3)]

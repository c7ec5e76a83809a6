"""The rewritten kernels against the loops they replaced.

``eval_scaled_many`` runs generated straight-line code and ``det`` expands
its minors in one bottom-up pass; ``sum_of_products`` skips zero operands,
``j_bracket`` forms each distinct Hessian entry and cofactor once, ``diff_pair``
looks up the equal-degree monomials, and ``decompose_symmetric`` and
``is_symmetric`` work on the packed keys.  Detrep's determinant certificate is
generated straight-line code, the square fit drops a candidate at its first
mismatch that rules it out, ``eval_exact`` keeps a plan per polynomial, and X24
solves its chart system once.  The reference oracles below are the interpreter
loop, the memoized recursive expansion, the full-matrix J-brackets, the scan
over every pair of terms, the exponent-tuple symmetry check, the interpreted
certificate loop and the unpruned fit (both in ``conftest``), a sum of
``Fraction`` terms and the three chart solves they replaced, in the standard
library only.  Floats must agree in ``repr`` (so signed zeros and NaN count),
errors in type and message, and exact results in their stored form.
"""

import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from math import perm

import pytest
from hypothesis import given, settings, strategies as st

from quartics.diffcalc import det, diff_pair, hessian, j_bracket
from quartics.errors import DegreeError, DomainError, TableMismatchError
from quartics.polyring import Polynomial, VarTable, eval_scaled_many
from quartics.symfam import (Partition, SymmetricDecomposition, decompose_symmetric,
                             is_symmetric)

from conftest import adjugate, dot

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
                interpreted_eval_scaled_many(coeffs, point))
            got.add(_evaluator(tuple(p._compiled[0] for p in coeffs))[0])
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


# -- the exact kernels -----------------------------------------------------------


def exact_outcome(call, *args):
    """The stored form (table, denominator, numerators) of each polynomial of the
    result, or its ``repr``; the type and message of a ``DomainError`` or
    ``TableMismatchError``; only the type of a ``DegreeError`` (the degree it names
    is the first one found, which depends on the order of the work)."""
    try:
        got = call(*args)
    except DegreeError:
        return "DegreeError"
    except (DomainError, TableMismatchError) as exc:
        return f"{type(exc).__name__}: {exc}"
    polys = got if isinstance(got, tuple) else (got,)
    if not all(isinstance(p, Polynomial) for p in polys):
        return repr(got)
    return [(p.table, p.denominator, dict(p.numerators)) for p in polys]


def expanded_sum_of_products(table, products):
    """``sum c * a * b`` expanded term by term over the exponent tuples of ``terms``,
    every table checked before any product."""
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


def full_matrix_j_bracket(f, g):
    """The four J-brackets from the full Hessians: the dot product of the Hessians
    and of their adjugates, and the two determinants."""
    for p in (f, g):
        if p.geometric_degree() > 2:
            raise DegreeError("J brackets are defined for quadratic forms")
    hf, hg = hessian(f), hessian(g)
    return dot(hf, hg), dot(adjugate(hf), adjugate(hg)), memoized_det(hf), memoized_det(hg)


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


def _basis_indices(table):
    for name in ("r", "s", "u"):
        if name not in table.names:
            raise DomainError(f"the symmetric basis needs variable {name!r}; table has {table.names}")
    return [table.index(n) for n in ("r", "s", "u")]


def tuple_is_symmetric(p):
    """The transpositions (r s) and (s u) on each exponent tuple, two lookups per term."""
    num, (r, s, u) = p.numerators, _basis_indices(p.table)
    for exps, coeff in num.items():
        for a, b in ((r, s), (s, u)):
            if exps[a] != exps[b]:
                swapped = list(exps)
                swapped[a], swapped[b] = exps[b], exps[a]
                if num.get(tuple(swapped)) != coeff:
                    return False
    return True


def tuple_decompose_symmetric(p):
    """The S-basis coefficients read off the weakly decreasing exponent tuples."""
    extra = p.support_names() - {"r", "s", "u"}
    if extra:
        raise DomainError(f"polynomial involves non-basis variables {sorted(extra)}")
    idx = _basis_indices(p.table)
    if not tuple_is_symmetric(p):
        raise DomainError("polynomial is not symmetric in the parameters")
    constant = Fraction(0)
    collected = []
    for exps, coeff in p.numerators.items():
        i1, i2, i3 = (exps[i] for i in idx)
        if not i1 >= i2 >= i3:
            continue
        coeff = Fraction(coeff, p.denominator)
        if i1:
            collected.append((Partition(tuple(e for e in (i1, i2, i3) if e)), coeff))
        else:
            constant = coeff
    collected.sort(key=lambda pc: (sum(pc[0].parts), pc[0].padded()), reverse=True)
    return SymmetricDecomposition(constant, tuple(collected))


PQ = VarTable(("x", "y", "z"), ("p", "q"))
XYZ = VarTable(("x", "y", "z"))
_SMALL = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def forms(draw, table, max_degree, max_terms=6, homogeneous=False):
    """A polynomial over *table* of geometric degree at most *max_degree* (one degree
    for all terms when *homogeneous*), with parameter powers up to 2; zero at times."""
    names, ng = table.names, table.n_geometric
    degree = draw(st.integers(0, max_degree))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        d = degree if homogeneous else draw(st.integers(0, max_degree))
        geo = [0] * ng
        for _ in range(d):
            geo[draw(st.integers(0, ng - 1))] += 1
        params = [draw(st.integers(0, 2)) for _ in names[ng:]]
        terms[tuple(geo + params)] = draw(_SMALL)
    return Polynomial(table, terms)


class TestSumOfProducts:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_expansion(self, data):
        table = data.draw(st.sampled_from([PQ, XYZ]))
        products = []
        for _ in range(data.draw(st.integers(0, 5))):
            c = data.draw(st.one_of(st.integers(-3, 3), _SMALL))
            # zero operands often, and now and then one over another table
            a, b = (data.draw(st.one_of(forms(table, 3), st.just(Polynomial.zero(table)),
                                        st.sampled_from([Polynomial.zero(XYZ if table is PQ else PQ),
                                                         Polynomial.constant(PQ, 2)])))
                    for _ in range(2))
            products.append((c, a, b))
        want = exact_outcome(expanded_sum_of_products, table, products)
        assert exact_outcome(Polynomial.sum_of_products, table, products) == want
        assert exact_outcome(Polynomial.sum_of_products, table, iter(products)) == want

    def test_every_nonzero_product_counts(self):
        # single-term and constant operands, zero ones between them
        x, p = Polynomial.variable(PQ, "x"), Polynomial.variable(PQ, "p")
        zero, two = Polynomial.zero(PQ), Polynomial.constant(PQ, 2)
        products = [(1, x, p), (3, zero, x), (1, two, two), (-1, p, zero), (5, x, x), (0, x, p)]
        for k in range(len(products) + 1):
            assert (Polynomial.sum_of_products(PQ, products[:k])
                    == expanded_sum_of_products(PQ, products[:k]))

    def test_a_zero_over_another_table_is_a_mismatch(self):
        x = Polynomial.variable(PQ, "x")
        for products in ([(1, x, Polynomial.zero(XYZ))], [(1, Polynomial.zero(XYZ), x)],
                         [(1, x, x), (2, Polynomial.zero(PQ), Polynomial.zero(XYZ))]):
            want = exact_outcome(expanded_sum_of_products, PQ, products)
            assert want.startswith("TableMismatchError")
            assert exact_outcome(Polynomial.sum_of_products, PQ, products) == want


#: Quadratics as j_bracket meets them: with parameter coefficients or without,
#: with cross terms, of geometric degree below 2, and zero.
_QUADRATICS = st.one_of(forms(PQ, 2, homogeneous=True), forms(PQ, 2), forms(PQ, 1),
                        st.just(Polynomial.zero(PQ)))


class TestJBracket:
    @settings(max_examples=150, deadline=None)
    @given(_QUADRATICS, _QUADRATICS)
    def test_matches_the_full_matrices(self, f, g):
        assert exact_outcome(j_bracket, f, g) == exact_outcome(full_matrix_j_bracket, f, g)

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
        assert exact_outcome(j_bracket, f, g) == exact_outcome(full_matrix_j_bracket, f, g)

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


class TestDiffPair:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_scan(self, data):
        # mixed degrees and non-homogeneous operands, zero at times
        table = data.draw(st.sampled_from([PQ, XYZ]))
        f = data.draw(forms(table, 4, max_terms=8))
        g = data.draw(forms(table, 6, max_terms=10))
        assert exact_outcome(diff_pair, f, g) == exact_outcome(scanned_diff_pair, f, g)

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
        assert exact_outcome(diff_pair, f, g) == exact_outcome(scanned_diff_pair, f, g)
        assert exact_outcome(diff_pair, g, f) == exact_outcome(scanned_diff_pair, g, f)

    def test_zero_operands_and_other_tables(self):
        x = Polynomial.variable(PQ, "x")
        for f, g in ((x, Polynomial.zero(PQ)), (Polynomial.zero(PQ), x),
                     (x, Polynomial.zero(XYZ)), (Polynomial.zero(XYZ), x)):
            assert exact_outcome(diff_pair, f, g) == exact_outcome(scanned_diff_pair, f, g)

    def test_degree_past_the_limit(self):
        f, g = Polynomial.variable(PQ, "p") ** 40000, Polynomial.variable(PQ, "q") ** 30000
        assert exact_outcome(diff_pair, f, g) == exact_outcome(scanned_diff_pair, f, g) \
            == "DegreeError"


RSU = VarTable(("x", "y", "z"), ("r", "s", "u"))
#: r, s, u in another order and between other parameters, and tables missing one
_BASIS_TABLES = [RSU, VarTable(("x", "y", "z"), ("u", "r", "s")),
                 VarTable(("x",), ("a", "s", "r", "b", "u")), VarTable(("x", "y", "z"), ("r", "s")),
                 VarTable(("x", "y", "z"), ("s", "u"))]


@st.composite
def basis_polynomials(draw):
    """A polynomial in the basis variables of one of ``_BASIS_TABLES``: a sum of
    orbits under the permutations of (r, s, u), so symmetric, or one of them with a
    coefficient changed, a term dropped or a term in another variable added."""
    table = draw(st.sampled_from(_BASIS_TABLES))
    names = [n for n in ("r", "s", "u") if n in table.names]
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        leading = [draw(st.integers(0, 4)) for _ in names]
        coeff = draw(_SMALL)
        for perm_ in set(itertools.permutations(leading)):
            exps = [0] * len(table)
            for name, e in zip(names, perm_):
                exps[table.index(name)] = e
            terms[tuple(exps)] = coeff
    change = draw(st.sampled_from(["none", "none", "coefficient", "drop", "other"]))
    if terms and change == "coefficient":
        key = draw(st.sampled_from(sorted(terms)))
        terms[key] += 1
    elif terms and change == "drop":
        del terms[draw(st.sampled_from(sorted(terms)))]
    elif change == "other":
        exps = [0] * len(table)
        exps[draw(st.integers(0, len(table) - 1))] = draw(st.integers(1, 2))
        terms[tuple(exps)] = draw(_SMALL)
    return Polynomial(table, terms)


class TestSymmetric:
    @settings(max_examples=200, deadline=None)
    @given(basis_polynomials())
    def test_matches_the_tuple_check(self, p):
        assert exact_outcome(is_symmetric, p) == exact_outcome(tuple_is_symmetric, p)
        assert (exact_outcome(decompose_symmetric, p)
                == exact_outcome(tuple_decompose_symmetric, p))

    def test_x4_invariants(self):
        from quartics.dixmier import dixmier_invariants
        from quartics.symfam import make_family

        for value in dixmier_invariants(make_family("X4")).as_dict().values():
            assert is_symmetric(value)
            assert decompose_symmetric(value) == tuple_decompose_symmetric(value)
            shifted = value + Polynomial.monomial(value.table, {"r": 1, "s": 2})
            assert not is_symmetric(shifted)
            assert exact_outcome(decompose_symmetric, shifted) == exact_outcome(
                tuple_decompose_symmetric, shifted)


# -- detrep's determinant certificate ---------------------------------------------

#: Parts of pencil coefficients: signed zeros, a subnormal that the points' coordinates
#: (moduli below 1) can round to zero, huge values, infinities and NaN.
_PENCIL_PARTS = [0.0, -0.0, 1.0, -2.5, 5e-324, 1e-310, 1e300, math.inf, -math.inf, math.nan]
_PENCIL_FLOATS = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))
_PENCIL_VALUES = st.one_of(
    st.just(0j), _PENCIL_FLOATS, _PENCIL_FLOATS, _PENCIL_FLOATS,
    st.builds(complex, st.sampled_from(_PENCIL_PARTS), st.sampled_from(_PENCIL_PARTS)))
_POINT_VALUES = st.one_of(st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)),
                          st.sampled_from([0j, complex(-0.0, 0.0), complex(1e-200, -1e-200)]))


def _pencil_rows(n, coefficients, x, y, z):
    """The rows of x*A + y*B + z*C, entry by entry, as the certificate forms them."""
    return [[x * a + y * b + z * c for a, b, c in
             zip(*[iter(coefficients[3 * n * i:3 * n * (i + 1)])] * 3)] for i in range(n)]


class TestDeterminantCertificate:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_generated_determinant_matches_det(self, n, data):
        from quartics.diffcalc import _pencil_det

        coefficients = data.draw(st.lists(_PENCIL_VALUES, min_size=3 * n * n,
                                          max_size=3 * n * n))
        x, y, z = (data.draw(_POINT_VALUES) for _ in range(3))
        want = repr(det(_pencil_rows(n, coefficients, x, y, z)))
        # the pattern of the coefficients, as detrep guesses it, and one drawn at random:
        # a point whose entries have other zeros goes to that pattern's function
        guessed = tuple(not (a or b or c) for a, b, c in zip(*[iter(coefficients)] * 3))
        drawn = tuple(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        for zero in (guessed, drawn):
            assert repr(_pencil_det(zero)(coefficients, x, y, z)) == want

    def test_many_dense_pencils(self):
        # dense 4 x 4 pencils of detrep's shape, with one to three extra zeros in C,
        # at the certificate's points
        from quartics.detrep import _certificate_points
        from quartics.diffcalc import _pencil_det

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
            guessed = tuple(not (a or b or c) for a, b, c in zip(*[iter(coefficients)] * 3))
            determinant = _pencil_det(guessed)
            for x, y, z in rng.sample(points, 5):
                assert repr(determinant(coefficients, x, y, z)) == repr(
                    det(_pencil_rows(4, coefficients, x, y, z)))

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

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_PENCIL_VALUES, min_size=4, max_size=4),
           st.lists(_PENCIL_VALUES, min_size=16, max_size=16),
           st.tuples(*(st.fractions(-50, 50, max_denominator=9) for _ in range(3))),
           st.sampled_from([20240, 1, 7]))
    def test_residual_matches_the_interpreted_loop(self, diagonal, c_entries, params, seed):
        from quartics.detrep import DetRep, _certificate_points, _determinant_residual
        from quartics.symfam import make_family

        from conftest import interpreted_determinant_residual

        c_matrix = tuple(tuple(c_entries[4 * i:4 * i + 4]) for i in range(4))
        rep = DetRep(tuple(diagonal), c_matrix, None, None)
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

_GAUSSIAN = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
_FIT_SCALES = [1.0, 1.0, 1e-300, 1e150, 2.0 ** 850, 1e300, 1.5e308]


def _square(lam):
    l0, l1, l2 = lam
    return [l0 * l0, 2 * l0 * l1, l1 * l1 + 2 * l0 * l2, 2 * l1 * l2, l2 * l2]


@st.composite
def fit_coefficients(draw):
    """Five coefficients: small Gaussian integers (many exact ties between the
    candidates), exact and near squares, each at times scaled up to the overflow
    range, or with a non-finite part."""
    kind = draw(st.sampled_from(["gaussian", "square", "near square", "floats", "special"]))
    if kind == "gaussian":
        c = draw(st.lists(_GAUSSIAN, min_size=5, max_size=5))
    elif kind in ("square", "near square"):
        part = st.one_of(_GAUSSIAN, st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))
        c = _square(draw(st.tuples(part, part, part)))
        if kind == "near square":
            k = draw(st.integers(0, 4))
            c[k] += draw(st.sampled_from([1e-15, 1e-12, 1e-10, 1e-9, 1e-6])) * (1 + abs(c[k]))
    elif kind == "floats":
        part = st.floats(-4, 4)
        c = draw(st.lists(st.builds(complex, part, part), min_size=5, max_size=5))
    else:
        parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, math.nan, 1e308])
        c = draw(st.lists(st.builds(complex, parts, parts), min_size=5, max_size=5))
    scale = draw(st.sampled_from(_FIT_SCALES))
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
    @settings(max_examples=600, deadline=None)
    @given(fit_coefficients(), st.sampled_from([1e-9, 1e-6, 0.5, 1.0, 10.0, 1e300]))
    def test_matches_the_unpruned_fit(self, c, tol):
        from quartics.bitangent import _square_fit, perfect_square_fit

        from conftest import unpruned_square_fit

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


# -- exact values of the fixed component polynomials --------------------------------


def _component_polynomials():
    """Every polynomial that ``quartics.components`` holds, tuples flattened."""
    from quartics import components

    def flatten(value):
        if isinstance(value, Polynomial):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                yield from flatten(item)

    # dir(), not vars(): a table is in the module dict only once it has been read
    return [p for name in dir(components) if name.isupper()
            for p in flatten(getattr(components, name))]


def summed_eval_exact(p, point):
    """The value of *p* at *point* as a sum of ``Fraction`` terms."""
    total = Fraction(0)
    for exps, c in p.terms.items():
        for name, e in zip(p.table.names, exps):
            c *= Fraction(point[name]) ** e
        total += c
    return total


_EXACT_VALUES = st.sampled_from([
    0, 1, -1, Fraction(-7, 3), Fraction(12345, 1000), -4, 2,
    10 ** 30, -10 ** 30 + 1, Fraction(10 ** 30, 7), Fraction(-3, 10 ** 30), Fraction(1, 10 ** 30)])


class TestComponentValues:
    def test_every_table(self):
        from quartics import components

        polys = _component_polynomials()
        assert len(polys) == 37 and {p.table for p in polys} == {
            components.TABLE_X4, components.TABLE_X16, components.TABLE_X24}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_fraction_sum(self, data):
        from quartics.polyring import eval_exact

        for p in _component_polynomials():
            point = {name: data.draw(_EXACT_VALUES) for name in p.table.names}
            want = summed_eval_exact(p, point)
            for _ in range(2):      # the plan of the first call, then the kept one
                got = eval_exact(p, point)
                assert type(got) is Fraction and got == want


# -- X24's candidates ----------------------------------------------------------------


def three_chart_solves(triple):
    """X24's candidates with the chart system solved once per chart."""
    from quartics.bitangent import _CHART_ROTATIONS, _solve_x24_chart

    return [(embed(a, b), f"X24.{tag}")
            for order, embed in _CHART_ROTATIONS
            for a, b, tag in _solve_x24_chart(triple[order[0]])]


class TestX24Candidates:
    @pytest.mark.parametrize("triple", [
        (3, 3, 3), (Fraction(-7, 2),) * 3, (Fraction(1001, 1000),) * 3, (10 ** 4,) * 3,
        (1, 3, 5), (Fraction(2, 3), -7, Fraction(2, 3)), (5, 5, Fraction(1, 9))])
    def test_matches_three_chart_solves(self, triple):
        from quartics.bitangent import _x24_candidates

        got = _x24_candidates(triple)
        assert len(got) == 72 and repr(got) == repr(three_chart_solves(triple))

    def test_solves_each_distinct_entry_once(self, monkeypatch):
        from quartics import bitangent

        calls = []
        solve = bitangent._solve_x24_chart
        monkeypatch.setattr(bitangent, "_solve_x24_chart", lambda r: calls.append(r) or solve(r))
        bitangent._x24_candidates((Fraction(5, 2),) * 3)
        bitangent._x24_candidates((1, 3, 1))
        assert calls == [Fraction(5, 2), 1, 3]

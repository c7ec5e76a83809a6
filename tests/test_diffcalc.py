"""Differential pairing, Hessians, J brackets and transvectants, each checked
against an independent route (hand values, exhaustive monomials, or the
literal two-point operator oracle)."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from quartics.diffcalc import (adjugate, det, diff_pair, dot, hessian,
                               j_bracket, transvectant)
from quartics.errors import DegreeError, DomainError, TableMismatchError
from quartics.polyring import (Polynomial, VarTable, convert, multi_partial,
                               substitute_linear)

from conftest import XY, XYZ, random_binary_form, random_quartic, ref_partial


def mono(table, powers, c=1):
    return Polynomial.monomial(table, powers, c)


class TestDiffPair:
    def test_monomial_self_pairing(self):
        p = mono(XYZ, {"x": 4})
        assert diff_pair(p, p) == Polynomial.constant(XYZ, 24)

    def test_higher_degree_annihilates(self):
        assert diff_pair(mono(XYZ, {"x": 3}), mono(XYZ, {"x": 2})).is_zero()

    def test_fermat_self_pairing(self):
        f = mono(XYZ, {"x": 4}) + mono(XYZ, {"y": 4}) + mono(XYZ, {"z": 4})
        assert diff_pair(f, f) == Polynomial.constant(XYZ, 72)

    def test_monomial_orthogonality_exhaustive(self):
        # degree-d monomial pairs: D_f(g) = i1! i2! i3! exactly when f = g, else 0
        for d in range(5):
            exps = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]
            for ef in exps:
                f = Polynomial(XYZ, {ef: Fraction(1)})
                for eg in exps:
                    g = Polynomial(XYZ, {eg: Fraction(1)})
                    got = diff_pair(f, g)
                    if ef == eg:
                        want = 1
                        for e in ef:
                            for k in range(1, e + 1):
                                want *= k
                        assert got == Polynomial.constant(XYZ, want)
                    else:
                        assert got.is_zero()

    def test_bilinearity(self):
        rng = random.Random(11)
        for _ in range(5):
            f1, f2 = random_quartic(rng), random_quartic(rng)
            g = random_quartic(rng)
            lhs = diff_pair(f1 + 3 * f2, g)
            assert lhs == diff_pair(f1, g) + 3 * diff_pair(f2, g)
            lhs = diff_pair(g, f1 + 3 * f2)
            assert lhs == diff_pair(g, f1) + 3 * diff_pair(g, f2)

    def test_degree_drop(self):
        rng = random.Random(12)
        for _ in range(5):
            f = random_quartic(rng)
            g = random_quartic(rng) * random_quartic(rng)  # degree 8
            out = diff_pair(f, g)
            assert out.is_zero() or out.geometric_degree() == 4


class TestHessian:
    def test_fermat_diagonal(self):
        f = mono(XYZ, {"x": 4}) + mono(XYZ, {"y": 4}) + mono(XYZ, {"z": 4})
        h = hessian(f)
        assert h[0][0] == mono(XYZ, {"x": 2}, 12)
        assert h[1][1] == mono(XYZ, {"y": 2}, 12)
        assert h[2][2] == mono(XYZ, {"z": 2}, 12)
        assert h[0][1].is_zero()
        assert det(h) == mono(XYZ, {"x": 2, "y": 2, "z": 2}, 1728)

    def test_quadratic_constant_entries(self):
        q = mono(XYZ, {"x": 2}, 3) + mono(XYZ, {"y": 2}, 5) + mono(XYZ, {"z": 2}, 7)
        h = hessian(q)
        assert h[0][0] == Polynomial.constant(XYZ, 6)
        assert h[1][1] == Polynomial.constant(XYZ, 10)
        assert h[2][2] == Polynomial.constant(XYZ, 14)

    def test_off_diagonal(self):
        q = mono(XYZ, {"x": 1, "y": 1})
        h = hessian(q)
        assert h[0][1] == Polynomial.constant(XYZ, 1)
        assert h[1][0] == Polynomial.constant(XYZ, 1)
        assert h[0][0].is_zero()


# diff_pair and hessian each run one pass over the packed keys.  The references
# are other routes: a sum of products over multi_partial for diff_pair (itself
# checked against the exponent-tuple partials in test_polyring.py), and for
# each Hessian entry two exponent-tuple partials of conftest, which share no
# code with the kernels.  The stored forms (table, denominator, numerators)
# must be equal, and a DegreeError must come on exactly the inputs where the
# reference raises one.

PAR = VarTable(("x", "y", "z"), ("r", "s", "u"))
SEVEN = VarTable(("x", "y", "z"), ("a", "b", "c", "d"))
LIMIT = 65535


def reference_diff_pair(f, g):
    if f.table != g.table:
        raise TableMismatchError("operands use different variable tables")
    names = f.table.geometric
    return Polynomial.sum_of_products(f.table, (
        (1, coeff, multi_partial(g, {n: e for n, e in zip(names, geo) if e}))
        for geo, coeff in f.geometric_coefficients().items()))


def reference_hessian(f):
    terms, slots = dict(f.terms), [f.table.index(n) for n in f.table.geometric]
    return tuple(tuple(Polynomial(f.table, ref_partial(ref_partial(terms, a, 1), b, 1))
                       for b in slots) for a in slots)


def assert_same_stored_form(got, want):
    assert got.table == want.table
    assert got.denominator == want.denominator
    assert dict(got.numerators) == dict(want.numerators)


def outcome(call, *args):
    """The result, or DegreeError (the class) if the call raised one."""
    try:
        return call(*args)
    except DegreeError:
        return DegreeError


def assert_pairing_matches_reference(f, g):
    got, want = outcome(diff_pair, f, g), outcome(reference_diff_pair, f, g)
    if want is DegreeError or got is DegreeError:
        assert got is want
    else:
        assert_same_stored_form(got, want)


_DENOMINATORS = (1, 1, 2, 3, 4, 6, 9, 35, 1000003)


def forms(table, geometric):
    """Polynomials over *table* whose geometric exponents are drawn from *geometric*,
    with mixed denominators; at most one parameter exponent per term is near half
    the packing limit, so that some pairings cross it."""
    def lift(args):
        exps, big = args
        if big is None or not table.parameters:
            return exps
        slot, e = 3 + big[0] % len(table.parameters), big[1]
        return exps[:slot] + (e,) + exps[slot + 1:]
    small = st.tuples(*[geometric] * 3, *[st.integers(0, 2)] * len(table.parameters))
    big = st.none() | st.tuples(st.integers(0, 3), st.integers(LIMIT // 2 - 3, LIMIT // 2 + 3))
    coeff = st.builds(Fraction, st.integers(-30, 30), st.sampled_from(_DENOMINATORS))
    terms = st.dictionaries(st.tuples(small, big).map(lift), coeff, max_size=8)
    return terms.map(lambda t: Polynomial(table, t))


_THREE_TABLES = pytest.mark.parametrize("table", [XYZ, PAR, SEVEN], ids=["XYZ", "PAR", "SEVEN"])
# the explain phase is left out: it spent 40-55 s of about a minute reporting one failure
_NO_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]


class TestFusedOperatorsMatchTheOldRoutes:
    @_THREE_TABLES
    @settings(max_examples=60, deadline=None, phases=_NO_EXPLAIN)
    @given(data=st.data())
    def test_diff_pair(self, table, data):
        # exponents up to 4 in f and 7 in g: neither is homogeneous, and many
        # terms of f divide no term of g, so terms or all of the result vanish
        f = data.draw(forms(table, st.integers(0, 4)))
        g = data.draw(forms(table, st.integers(0, 7)))
        assert_pairing_matches_reference(f, g)

    @_THREE_TABLES
    @settings(max_examples=40, deadline=None, phases=_NO_EXPLAIN)
    @given(data=st.data())
    def test_hessian(self, table, data):
        f = data.draw(forms(table, st.integers(0, 6)))
        got, want = hessian(f), reference_hessian(f)
        for i, j in itertools.product(range(3), repeat=2):
            assert_same_stored_form(got[i][j], want[i][j])
            assert got[i][j] is got[j][i]

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_pairings_of_the_pipeline_shapes(self, seed):
        # quartic against sextic and sextic against sextic, as rho and I6 pair them
        rng = random.Random(seed)
        table = (XYZ, PAR)[seed % 2]
        f, g, h = (random_low_form(rng, table, d) for d in (4, 6, 6))
        for a, b in ((f, g), (g, h), (f, f), (g, f)):
            assert_pairing_matches_reference(a, b)

    def test_zero_operands(self):
        for table in (XYZ, PAR, SEVEN):
            zero, x2 = Polynomial.zero(table), mono(table, {"x": 2}, Fraction(3, 7))
            for f, g in ((zero, x2), (x2, zero), (zero, zero)):
                got = diff_pair(f, g)
                assert got == zero and got.denominator == 1
            assert all(entry == zero for row in hessian(zero) for entry in row)

    def test_higher_degree_operator_gives_zero(self):
        f = mono(PAR, {"x": 2, "y": 1, "r": 3}, Fraction(5, 3))
        g = mono(PAR, {"x": 2, "s": 1}, 7) + mono(PAR, {"y": 4}, Fraction(-1, 2))
        got = diff_pair(f, g)
        assert got.is_zero() and got.denominator == 1

    def test_mixed_denominators(self):
        f = mono(PAR, {"x": 1, "r": 1}, Fraction(3, 4)) + mono(PAR, {"y": 1}, Fraction(-5, 6))
        g = mono(PAR, {"x": 2, "y": 1, "s": 2}, Fraction(7, 10)) + mono(PAR, {"y": 3}, Fraction(1, 9))
        # d_x g * 3r/4 - d_y g * 5/6
        want = (mono(PAR, {"x": 1, "y": 1, "r": 1, "s": 2}, Fraction(21, 20))
                - mono(PAR, {"x": 2, "s": 2}, Fraction(7, 12))
                - mono(PAR, {"y": 2}, Fraction(5, 18)))
        assert_same_stored_form(diff_pair(f, g), want)
        assert_pairing_matches_reference(f, g)

    def test_table_mismatch(self):
        with pytest.raises(TableMismatchError):
            diff_pair(mono(PAR, {"x": 1}), mono(SEVEN, {"x": 1}))
        with pytest.raises(TableMismatchError):
            diff_pair(mono(XYZ, {"x": 1}), mono(PAR, {"x": 2}))

    def test_degree_error_at_the_packing_limit(self):
        # the parameter parts multiply: r^32768 * r^32768 crosses the limit, in one
        # field or spread over two, while the geometric part only falls
        f = mono(PAR, {"x": 1, "r": 32768})
        for g in (mono(PAR, {"x": 3, "r": 32768}), mono(PAR, {"x": 1, "s": 32768})):
            assert outcome(reference_diff_pair, f, g) is DegreeError
            with pytest.raises(DegreeError, match="65535"):
                diff_pair(f, g)
        at_limit = mono(PAR, {"x": 1, "s": LIMIT - 32768})
        assert_same_stored_form(diff_pair(f, at_limit),
                                mono(PAR, {"r": 32768, "s": LIMIT - 32768}))

    def test_hessian_needs_three_geometric_variables(self):
        with pytest.raises(DegreeError, match="3 geometric"):
            hessian(mono(XY, {"x": 2}))


def constant_rows(rows, kind=tuple):
    """A matrix of constant polynomials as a *kind* (tuple or list) of rows of that kind."""
    return kind(kind(Polynomial.constant(XYZ, v) for v in row) for row in rows)


class TestAdjugate:
    def test_identity(self):
        for kind in (tuple, list):
            m = constant_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], kind)
            adj = adjugate(m)
            assert adj == constant_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_diagonal(self):
        m = constant_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        adj = adjugate(m)
        assert adj[0][0] == Polynomial.constant(XYZ, 15)
        assert adj[1][1] == Polynomial.constant(XYZ, 10)
        assert adj[2][2] == Polynomial.constant(XYZ, 6)

    def test_3x4_is_a_degree_error(self):
        # not read as its leading 3x3 block
        with pytest.raises(DegreeError):
            adjugate(constant_rows([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]))

    def test_fundamental_identity(self):
        rng = random.Random(21)
        for k in range(10):
            rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            m = constant_rows(rows, (tuple, list)[k % 2])
            adj = adjugate(m)
            d = det(m)
            for i in range(3):
                for j in range(3):
                    prod = Polynomial.zero(XYZ)
                    for k in range(3):
                        prod = prod + m[i][k] * adj[k][j]
                    assert prod == (d if i == j else Polynomial.zero(XYZ))


class TestDet:
    def test_empty_is_not_square(self):
        with pytest.raises(ValueError, match="not square"):
            det(())

    @pytest.mark.parametrize("kind", [tuple, list])
    def test_integer_matrices(self, kind):
        # against an independent determinant: Leibniz's permutation sum
        rng = random.Random(23)
        for n in (1, 2, 3, 4):
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            want = 0
            for perm in itertools.permutations(range(n)):
                inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                term = (-1) ** inversions
                for i, j in enumerate(perm):
                    term *= rows[i][j]
                want += term
            assert det(constant_rows(rows, kind)) == Polynomial.constant(XYZ, want)

    def test_complex_entries(self):
        assert det([[1j, 2.0], [3.0, 4j]]) == -10.0

    @pytest.mark.parametrize("kind", [tuple, list])
    def test_not_square(self, kind):
        with pytest.raises(ValueError, match="not square"):
            det(constant_rows([[1, 2, 3], [4, 5, 6]], kind))


class TestDot:
    def _diag(self, values, kind=tuple):
        return constant_rows([[values[i] if i == j else 0 for j in range(3)] for i in range(3)],
                             kind)

    def test_identity_dot(self):
        for kind in (tuple, list):
            m = self._diag([1, 1, 1], kind)
            assert dot(m, m) == Polynomial.constant(XYZ, 3)

    def test_diagonal_dot(self):
        for kind in (tuple, list):
            assert dot(self._diag([1, 2, 3], kind), self._diag([4, 5, 6])) == Polynomial.constant(XYZ, 32)

    def test_symmetry(self):
        rng = random.Random(22)
        for _ in range(5):
            a = constant_rows([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            b = constant_rows([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)], list)
            assert dot(a, b) == dot(b, a)

    def test_size_mismatch(self):
        with pytest.raises(DegreeError):
            dot(constant_rows([[1, 0], [0, 1]]), self._diag([1, 1, 1]))

    def test_2x3_and_empty_are_degree_errors(self):
        m = constant_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DegreeError):
            dot(m, m)
        with pytest.raises(DegreeError):
            dot((), ())


XYZ_PQ = VarTable(("x", "y", "z"), ("p", "q"))


def random_low_form(rng, table, degree):
    """A ternary form of geometric degree at most *degree* (possibly zero) whose
    coefficients are small rationals times random monomials in the parameters."""
    poly = Polynomial.zero(table)
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if rng.random() < 0.6:
                powers = dict(zip(("x", "y", "z"), (i, j, degree - i - j)))
                powers.update((n, rng.randint(0, 2)) for n in table.parameters)
                poly = poly + mono(table, powers, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return poly


def _sphere():
    return mono(XYZ, {"x": 2}) + mono(XYZ, {"y": 2}) + mono(XYZ, {"z": 2})


def _seeded_pair(seed):
    rng = random.Random(seed)
    table = (XYZ, XYZ_PQ)[seed % 2]
    return (random_low_form(rng, table, rng.choice((0, 1, 2, 2, 2))),
            random_low_form(rng, table, rng.choice((0, 1, 2, 2, 2))))


#: (f, g, hand values of (J11, J22, J30, J03) or None): the sphere gives
#: <2I, 2I> = 12, <4I, 4I> = 48 and det 2I = 8; x^2 and y^2 give all zeros;
#: the seeded pairs mix quadratics, linear forms and constants, with and
#: without parameter coefficients
J_CASES = {
    "sphere": (_sphere(), _sphere(), (12, 48, 8, 8)),
    "disjoint_squares": (mono(XYZ, {"x": 2}), mono(XYZ, {"y": 2}), (0, 0, 0, 0)),
    **{f"seed{seed}": (*_seeded_pair(seed), None) for seed in range(12)},
}


class TestJBracket:
    @pytest.mark.parametrize("case", sorted(J_CASES))
    def test_matches_hessian_route(self, case):
        f, g, hand = J_CASES[case]
        hf, hg = hessian(f), hessian(g)
        want = (dot(hf, hg), dot(adjugate(hf), adjugate(hg)), det(hf), det(hg))
        got = j_bracket(f, g)
        assert got == want
        if hand is not None:
            assert got == tuple(Polynomial.constant(XYZ, v) for v in hand)

    def test_j30(self):
        _, _, j30, j03 = j_bracket(_sphere(), _sphere())
        assert j30 == j03 == Polynomial.constant(XYZ, 8)

    def test_j22_sphere(self):
        _, j22, _, _ = j_bracket(_sphere(), _sphere())
        assert j22 == Polynomial.constant(XYZ, 48)

    def test_degree_guard(self):
        with pytest.raises(DegreeError):
            j_bracket(mono(XYZ, {"x": 3}), mono(XYZ, {"y": 2}))
        with pytest.raises(DegreeError):
            j_bracket(mono(XYZ, {"x": 2}), mono(XYZ, {"y": 3}))


def transvectant_oracle(F, G, k):
    """Literal two-point operator: build F(x1,y1) G(x2,y2) in four variables,
    apply (d2/dx1 dy2 - d2/dy1 dx2)^k, identify the points, scale."""
    four = VarTable(("x1", "y1", "x2", "y2"))
    f4 = convert(F, four, {"x": "x1", "y": "y1"})
    g4 = convert(G, four, {"x": "x2", "y": "y2"})
    h = f4 * g4
    for _ in range(k):
        h = (multi_partial(h, {"x1": 1, "y2": 1})
             - multi_partial(h, {"y1": 1, "x2": 1}))
    h = substitute_linear(h, "x2", Polynomial.variable(four, "x1"))
    h = substitute_linear(h, "y2", Polynomial.variable(four, "y1"))
    out = convert(h, XY, {"x1": "x", "y1": "y"})
    r, s = F.geometric_degree(), G.geometric_degree()
    fact = lambda n: 1 if n <= 1 else n * fact(n - 1)
    return out * Fraction(fact(r - k) * fact(s - k), fact(r) * fact(s))


class TestTransvectant:
    def test_k0_is_product(self):
        rng = random.Random(31)
        F, G = random_binary_form(rng, 3), random_binary_form(rng, 4)
        assert transvectant(F, G, 0) == F * G

    def test_quartic_apolar_closed_form(self):
        # (P,P)^4 = 2 a0 a4 - 1/2 a1 a3 + 1/6 a2^2
        t = VarTable(("x", "y"), ("a0", "a1", "a2", "a3", "a4"))
        coeffs = [Polynomial.variable(t, f"a{i}") for i in range(5)]
        P = Polynomial.zero(t)
        for i, c in enumerate(coeffs):
            P = P + c * mono(t, {"x": 4 - i, "y": i})
        got = transvectant(P, P, 4)
        a0, a1, a2, a3, a4 = coeffs
        want = 2 * a0 * a4 - Fraction(1, 2) * a1 * a3 + Fraction(1, 6) * a2 * a2
        assert got == want

    def test_antisymmetry(self):
        rng = random.Random(32)
        for _ in range(10):
            F = random_binary_form(rng, 4)
            G = random_binary_form(rng, 4)
            for k in range(5):
                assert transvectant(F, G, k) == transvectant(G, F, k) * Fraction((-1) ** k)

    def test_order_guard(self):
        rng = random.Random(33)
        with pytest.raises(DomainError):
            transvectant(random_binary_form(rng, 2), random_binary_form(rng, 4), 3)

    def test_operand_checks(self):
        F = mono(XY, {"x": 2}) + mono(XY, {"y": 2})
        with pytest.raises(TableMismatchError):
            transvectant(F, mono(XYZ, {"x": 2}), 1)
        line = VarTable(("x",), ("a",))
        with pytest.raises(DegreeError, match="fewer than two geometric"):
            transvectant(mono(line, {"x": 1}), mono(line, {"x": 1}), 0)
        ternary = mono(XYZ, {"x": 1, "z": 1})
        with pytest.raises(DegreeError, match=r"F is not a binary form in \(x,y\): uses \['z'\]"):
            transvectant(ternary, mono(XYZ, {"y": 2}), 1)
        with pytest.raises(DegreeError, match=r"G is not homogeneous in \(x,y\)"):
            transvectant(F, mono(XY, {"x": 2}) + mono(XY, {"y": 1}), 1)
        with pytest.raises(DomainError, match="order -1"):
            transvectant(F, F, -1)

    def test_zero_operand_gives_zero(self):
        # a zero operand counts as having the other operand's degree, so the
        # order is checked as for (F, F, k); zero has degree 0
        zero = Polynomial.zero(XY)
        F = mono(XY, {"x": 2, "y": 1}, 3)
        for a, b in ((zero, F), (F, zero), (zero, zero)):
            got = transvectant(a, b, 0)
            assert got.is_zero() and got.table == XY
        for a, b in ((zero, F), (F, zero)):
            for k in range(4):
                got = transvectant(a, b, k)
                assert got.is_zero() and got.table == XY
        for k in (7, 4, -1):
            with pytest.raises(DomainError) as want:
                transvectant(F, F, k)
            for a, b in ((zero, F), (F, zero)):
                with pytest.raises(DomainError) as got:
                    transvectant(a, b, k)
                assert str(got.value) == str(want.value)
        with pytest.raises(DomainError, match=r"order 1 exceeds min\(deg F, deg G\) = 0"):
            transvectant(zero, zero, 1)

    def test_zero_operand_still_checks_the_other(self):
        zero = Polynomial.zero(XYZ)
        with pytest.raises(DegreeError, match=r"G is not a binary form in \(x,y\): uses \['z'\]"):
            transvectant(zero, mono(XYZ, {"z": 2}), 0)

    def test_matches_two_point_oracle(self):
        rng = random.Random(34)
        for _ in range(25):
            r = rng.randint(1, 4)
            s = rng.randint(1, 4)
            F = random_binary_form(rng, r)
            G = random_binary_form(rng, s)
            for k in range(min(r, s) + 1):
                assert transvectant(F, G, k) == transvectant_oracle(F, G, k)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
           st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    def test_bilinearity(self, fc, gc):
        def build(cs):
            p = Polynomial.zero(XY)
            for i, c in enumerate(cs):
                if c:
                    p = p + mono(XY, {"x": 4 - i, "y": i}, c)
            return p

        F, G = build(fc), build(gc)
        if F.is_zero() or G.is_zero() or F.geometric_degree() < 4 or G.geometric_degree() < 4:
            return
        assert transvectant(F + G, G, 2) == transvectant(F, G, 2) + transvectant(G, G, 2)


def _det_left_to_right(rows):
    """The recursive Laplace expansion along the first row, with a running total, its
    signed terms added left to right: each minor is expanded again on every path."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0 * rows[0][0]
    for j, entry in enumerate(rows[0]):
        if not entry:
            continue
        term = entry * _det_left_to_right([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total + (term if j % 2 == 0 else -term)
    return total


@pytest.mark.parametrize("seed", range(20))
def test_complex_det_is_bit_identical_to_the_left_to_right_sum(seed):
    # magnitudes from 1e-8 to 1e8 and some zero entries, so that any other order
    # of the additions rounds differently
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.15:
            return 0j
        scale = 10.0 ** rng.randint(-8, 8)
        return complex(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)

    rows = [[entry() for _ in range(4)] for _ in range(4)]
    assert repr(det(rows)) == repr(_det_left_to_right(rows))


@pytest.mark.parametrize("seed", range(20))
def test_complex_det_of_detreps_pattern_is_bit_identical(seed):
    # the detrep pencil x*I + y*B + z*C: B diagonal, C with a zero diagonal and
    # a = f = 0, so the entries (0, 1), (1, 0), (2, 3) and (3, 2) vanish
    rng = random.Random(100 + seed)

    def value():
        scale = 10.0 ** rng.randint(-8, 8)
        return complex(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)

    x, y, z = value(), value(), value()
    p, q = value(), value()
    b, c, d, e = value(), value(), value(), value()
    a_m = [[1.0 + 0j if i == j else 0j for j in range(4)] for i in range(4)]
    b_m = [[(p, -p, q, -q)[i] if i == j else 0j for j in range(4)] for i in range(4)]
    c_m = [[0j, 0j, b, d], [0j, 0j, c, e], [b, c, 0j, 0j], [d, e, 0j, 0j]]
    rows = [[x * a_m[i][j] + y * b_m[i][j] + z * c_m[i][j] for j in range(4)]
            for i in range(4)]
    assert [rows[i][j] == 0 for i, j in ((0, 1), (1, 0), (2, 3), (3, 2))] == [True] * 4
    assert repr(det(rows)) == repr(_det_left_to_right(rows))


def test_symbolic_pencil_det_equals_the_recursive_expansion():
    from quartics.detrep import symbolic_pencil

    a_m, b_m, c_m = symbolic_pencil()
    table = a_m[0][0].table
    x, y, z = (Polynomial.variable(table, n) for n in "xyz")
    rows = [[a_m[i][j] * x + b_m[i][j] * y + c_m[i][j] * z for j in range(4)]
            for i in range(4)]
    got = det(rows)
    assert got == _det_left_to_right(rows)
    assert got.geometric_degree() == 4

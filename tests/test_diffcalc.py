"""Differential pairing, Hessians, J brackets and transvectants, each checked
against an independent route (hand values, exhaustive monomials, or the
literal two-point operator oracle)."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quartics.diffcalc import det, diff_pair, hessian, j_bracket, transvectant
from quartics.errors import DegreeError, DomainError, QuarticsError, TableMismatchError
from quartics.polyring import (Polynomial, VarTable, _operator, _pairing, convert,
                               multi_partial, substitute_linear)

from conftest import (LIMIT, PAR, RANDOMS, SEVEN, XY, XYZ, adjugate, dot, drawn,
                      random_binary_form, random_quartic, random_terms, ref_partial)


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


# hessian reads its six distinct entries off f's terms in one pass.  The reference
# for each entry is two exponent-tuple partials of conftest, which share no code
# with the kernel; the stored forms (table, denominator, numerators) must be
# equal.  diff_pair's oracle is in test_kernel_oracles.py.

def reference_hessian(f):
    terms, slots = dict(f.terms), [f.table.index(n) for n in f.table.geometric]
    return tuple(tuple(Polynomial(f.table, ref_partial(ref_partial(terms, a, 1), b, 1))
                       for b in slots) for a in slots)


def assert_same_stored_form(got, want):
    assert got.table == want.table
    assert got.denominator == want.denominator
    assert dict(got.numerators) == dict(want.numerators)


_THREE_TABLES = pytest.mark.parametrize("table", [XYZ, PAR, SEVEN], ids=["XYZ", "PAR", "SEVEN"])


class TestFusedOperatorsMatchTheOldRoutes:
    @_THREE_TABLES
    @drawn(40)
    @given(rng=RANDOMS)
    def test_hessian(self, table, rng):
        # exponents up to 6, now and then one near half the packing limit
        f = Polynomial(table, random_terms(rng, table, LIMIT // 2 + 3, small=6))
        got, want = hessian(f), reference_hessian(f)
        # f's terms stored in reverse order: the same entries, keys descending
        again = hessian(Polynomial._from_packed(table, dict(reversed(f._num.items())), f._den))
        for i, j in itertools.product(range(3), repeat=2):
            assert_same_stored_form(got[i][j], want[i][j])
            assert got[i][j] is got[j][i]
            keys = tuple(got[i][j]._num)
            assert keys == tuple(sorted(keys, reverse=True)) == tuple(again[i][j]._num)
            assert again[i][j] == got[i][j]

    def test_hessian_builds_no_plan(self):
        # the entries are read off f's terms: no operator x^a, no diff_pair plan
        f = random_quartic(random.Random(11), PAR)
        kept = _pairing.cache_info(), _operator.cache_info()
        assert hessian(f) == reference_hessian(f)
        assert (_pairing.cache_info(), _operator.cache_info()) == kept

    def test_zero_operands(self):
        for table in (XYZ, PAR, SEVEN):
            zero = Polynomial.zero(table)
            assert all(entry == zero for row in hessian(zero) for entry in row)

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

    @pytest.mark.parametrize("entry", [1j, 2.0, 2])
    def test_non_polynomial_entry_is_a_domain_error(self, entry):
        # the float determinant is detrep's generated certificate, not det
        one = Polynomial.constant(XYZ, 1)
        for rows in ([[entry]], [[one, one], [entry, one]]):
            with pytest.raises(DomainError, match="^det takes polynomial entries$"):
                det(rows)

    def test_complex_entries(self):
        # the complex value is _pencil_det's; det's error is a QuarticsError
        with pytest.raises(QuarticsError, match="^det takes polynomial entries$"):
            det([[1j, 2.0], [3.0, 4j]])

    @pytest.mark.parametrize("position", range(9))
    def test_an_entry_the_expansion_skips_is_checked(self, position):
        # a zero entry is never multiplied, so only the entry check can see it
        one = Polynomial.constant(XYZ, 1)
        for entry in (0, 0.0, 0j):
            rows = [[one] * 3 for _ in range(3)]
            rows[position // 3][position % 3] = entry
            with pytest.raises(DomainError, match="^det takes polynomial entries$"):
                det(rows)

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


def _sphere():
    return mono(XYZ, {"x": 2}) + mono(XYZ, {"y": 2}) + mono(XYZ, {"z": 2})


class TestJBracket:
    # the sphere gives <2I, 2I> = 12, <4I, 4I> = 48 and det 2I = 8; x^2 and y^2 give
    # all zeros (the oracle of the J-brackets is in test_kernel_oracles.py)
    @pytest.mark.parametrize("f, g, hand", [
        (_sphere(), _sphere(), (12, 48, 8, 8)),
        (mono(XYZ, {"x": 2}), mono(XYZ, {"y": 2}), (0, 0, 0, 0))], ids=["sphere", "disjoint"])
    def test_hand_values(self, f, g, hand):
        assert j_bracket(f, g) == tuple(Polynomial.constant(XYZ, v) for v in hand)

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

    @settings(max_examples=25)
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

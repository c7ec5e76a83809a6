"""Ring arithmetic, substitution, homogenization and evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quartics.errors import DegreeError, DomainError, RoleError, TableMismatchError
from quartics.polyring import (Polynomial, VarTable, compose_linear,
                               convert, eval_complex, eval_exact, eval_scaled,
                               homogenize,
                               partial, restrict_to_line, substitute_linear,
                               substitute_values)

from conftest import XYZ, random_quartic

PAR = VarTable(("x", "y", "z"), ("r", "s", "u"))


def mono(table, powers, c=1):
    return Polynomial.monomial(table, powers, c)


def var(table, name):
    return Polynomial.variable(table, name)


class TestAdd:
    def test_additive_inverse(self):
        p = mono(XYZ, {"x": 4})
        assert (p + -p).is_zero()

    def test_doubling(self):
        p = mono(XYZ, {"x": 2, "y": 2})
        assert p + p == mono(XYZ, {"x": 2, "y": 2}, 2)

    def test_symmetric_table_sum(self):
        # 6*S[2] + 2*S[1,1,1] + 72 assembled termwise equals 2*(3*S[2] + S[1,1,1] + 36)
        from quartics.symfam import s_basis, Partition

        table = PAR
        lhs = 6 * s_basis(Partition((2,)), table) + 2 * s_basis(Partition((1, 1, 1)), table) + 72
        rhs = (3 * s_basis(Partition((2,)), table) + s_basis(Partition((1, 1, 1)), table) + 36) * 2
        assert lhs == rhs

    def test_table_mismatch(self):
        with pytest.raises(TableMismatchError):
            mono(XYZ, {"x": 1}) + mono(PAR, {"x": 1})


class TestMul:
    def test_difference_of_squares(self):
        x, y = var(XYZ, "x"), var(XYZ, "y")
        assert (x + y) * (x - y) == x * x - y * y

    def test_quadratic_square_expansion(self):
        # (l0 x^2 + l1 xy + l2 y^2)^2, the certified-square shape
        t = VarTable(("x", "y"), ("l0", "l1", "l2"))
        x, y = var(t, "x"), var(t, "y")
        l0, l1, l2 = (var(t, n) for n in ("l0", "l1", "l2"))
        square = (l0 * x**2 + l1 * x * y + l2 * y**2) ** 2
        expected = (
            l0**2 * x**4 + 2 * l0 * l1 * x**3 * y
            + (l1**2 + 2 * l0 * l2) * x**2 * y**2
            + 2 * l1 * l2 * x * y**3 + l2**2 * y**4
        )
        assert square == expected

    def test_multiply_by_zero(self):
        p = random_quartic(random.Random(1))
        assert (p * Polynomial.zero(XYZ)).is_zero()


class TestPartial:
    def test_fourth_derivative(self):
        assert partial(mono(XYZ, {"x": 4}), "x", 4) == Polynomial.constant(XYZ, 24)

    def test_mixed_second(self):
        p = mono(XYZ, {"x": 2, "y": 2})
        assert partial(partial(p, "x"), "y") == mono(XYZ, {"x": 1, "y": 1}, 4)

    def test_family_z_derivative_vanishes_on_section(self):
        from quartics.symfam import make_family

        f = make_family("X4").poly
        dz = partial(f, "z")
        # 4z^3 + 2sy^2z + 2uzx^2, identically zero on z = 0
        assert substitute_values(dz, {"z": 0}).is_zero()
        t = f.table
        expected = (4 * mono(t, {"z": 3}) + 2 * var(t, "s") * mono(t, {"y": 2, "z": 1})
                    + 2 * var(t, "u") * mono(t, {"z": 1, "x": 2}))
        assert dz == expected

    def test_parameter_differentiation_rejected(self):
        with pytest.raises(RoleError):
            partial(mono(PAR, {"r": 1}), "r")


class TestSubstituteLinear:
    def test_fermat_restriction(self):
        t = VarTable(("x", "y", "z"), ("a", "b"))
        x, y, z, a, b = (var(t, n) for n in ("x", "y", "z", "a", "b"))
        f = x**4 + y**4 + z**4
        g = substitute_linear(f, "z", -(a * x + b * y))
        assert g == x**4 + y**4 + (a * x + b * y) ** 4

    def test_family_z_zero_section(self):
        from quartics.symfam import make_family

        f = make_family("X4").poly
        section = substitute_values(f, {"z": 0})
        t = f.table
        assert section == mono(t, {"x": 4}) + mono(t, {"y": 4}) + var(t, "r") * mono(t, {"x": 2, "y": 2})

    def test_identity_substitution(self):
        p = random_quartic(random.Random(2))
        assert substitute_linear(p, "z", var(XYZ, "z")) == p


class TestRestrictToLine:
    LINE = VarTable(("x", "y", "z"), ("r", "s", "u", "a", "b"))

    @staticmethod
    def substituted(p, table, var_name, pair, unknowns):
        """Reference: substitute the line and read off the binary coefficients."""
        line = -(var(table, unknowns[0]) * var(table, pair[0])
                 + var(table, unknowns[1]) * var(table, pair[1]))
        groups = substitute_linear(convert(p, table), var_name, line).geometric_coefficients()
        slots = []
        for i in range(5):
            exps = {pair[0]: 4 - i, pair[1]: i, var_name: 0}
            key = tuple(exps[n] for n in table.geometric)
            slots.append(groups.get(key, Polynomial.zero(table)))
        return slots

    def test_matches_substitution(self):
        rng = random.Random(5)
        for _ in range(6):
            p = random_quartic(rng, PAR)
            p = p + mono(PAR, {"x": 1, "z": 3, "r": 1, "u": 2}, rng.randint(-3, 3))
            for sub, pair in (("z", ("x", "y")), ("x", ("y", "z")), ("y", ("x", "z"))):
                got = restrict_to_line(p, self.LINE, sub, pair, ("a", "b"))
                assert got == self.substituted(p, self.LINE, sub, pair, ("a", "b"))

    def test_fermat(self):
        x4, y4, z4 = (mono(XYZ, {n: 4}) for n in "xyz")
        t = VarTable(("x", "y", "z"), ("a", "b"))
        got = restrict_to_line(x4 + y4 + z4, t, "z", ("x", "y"), ("a", "b"))
        a, b = var(t, "a"), var(t, "b")
        assert got == [1 + a**4, 4 * a**3 * b, 6 * a**2 * b**2, 4 * a * b**3, 1 + b**4]

    @pytest.mark.parametrize("powers", [{"x": 3}, {"z": 5}])
    def test_non_quartic_rejected(self, powers):
        p = mono(PAR, {"y": 4}) + mono(PAR, powers)
        with pytest.raises(DegreeError):
            restrict_to_line(p, self.LINE, "z", ("x", "y"), ("a", "b"))


class TestHomogenize:
    def test_dual_quartic(self):
        t = VarTable(("u", "v", "w"))
        p = 1 + mono(t, {"u": 4}) + mono(t, {"v": 4})
        assert homogenize(p, "w", 4) == mono(t, {"w": 4}) + mono(t, {"u": 4}) + mono(t, {"v": 4})

    def test_constant(self):
        t = VarTable(("u", "v", "w"))
        assert homogenize(Polynomial.constant(t, 1), "w", 2) == mono(t, {"w": 2})

    def test_mixed(self):
        t = VarTable(("u", "v", "w"))
        p = mono(t, {"u": 2}) + var(t, "v")
        assert homogenize(p, "w", 2) == mono(t, {"u": 2}) + mono(t, {"v": 1, "w": 1})

    def test_excess_degree_rejected(self):
        t = VarTable(("u", "v", "w"))
        with pytest.raises(DegreeError):
            homogenize(mono(t, {"u": 3}), "w", 2)

    def test_roundtrip(self):
        # homogenize then set the new variable to 1 recovers the input
        rng = random.Random(3)
        t = VarTable(("u", "v", "w"), ("r",))
        for _ in range(10):
            p = Polynomial.zero(t)
            for _ in range(6):
                p = p + mono(t, {"u": rng.randint(0, 2), "v": rng.randint(0, 2),
                                 "r": rng.randint(0, 1)}, rng.randint(-4, 4))
            h = homogenize(p, "w", 4)
            assert substitute_values(h, {"w": 1}) == p


class TestEval:
    def test_fermat_at_ones(self):
        f = mono(XYZ, {"x": 4}) + mono(XYZ, {"y": 4}) + mono(XYZ, {"z": 4})
        assert eval_complex(f, {"x": 1, "y": 1, "z": 1}) == 3

    def test_difference_of_squares_point(self):
        p = mono(XY2 := VarTable(("x", "y")), {"x": 2}) - mono(XY2, {"y": 2})
        assert eval_complex(p, {"x": 2, "y": 1}) == 3

    def test_family_at_ones(self):
        from quartics.symfam import make_family

        f = make_family("X4", (1, 2, 3)).poly
        assert eval_complex(f, {"x": 1, "y": 1, "z": 1}) == 9
        assert eval_exact(f, {"x": 1, "y": 1, "z": 1}) == 9

    def test_unassigned_variable(self):
        from quartics.errors import DomainError

        with pytest.raises(DomainError):
            eval_complex(mono(XYZ, {"x": 1}), {"y": 1, "z": 1})


def _eval_scaled_reference(p, point):
    """The per-term evaluator that :func:`eval_scaled` replaced: it sorts the
    terms and converts every coefficient on each call.  The oracle for exact
    equality of values, scales and error messages."""
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
        scale = max(scale, abs(term))
    return total, scale


def _random_parametric(rng: random.Random) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 30)):
        exps = tuple(rng.randint(0, 4) for _ in range(len(PAR)))
        terms[exps] = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
    return Polynomial(PAR, terms)


class TestEvalScaledExact:
    def test_matches_reference_bit_for_bit(self):
        rng = random.Random(20261018)
        for k in range(300):
            p = _random_parametric(rng)
            if k % 3:
                point = {n: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for n in PAR.names}
            else:
                point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in PAR.names}
            want = repr(_eval_scaled_reference(p, point))
            assert repr(eval_scaled(p, point)) == want      # compiles on first use
            assert repr(eval_scaled(p, point)) == want      # runs on the kept form

    def test_missing_variable_message(self):
        rng = random.Random(5)
        for _ in range(100):
            p = _random_parametric(rng)
            kept = rng.sample(PAR.names, rng.randint(0, len(PAR) - 1))
            point = {n: 0.5 - 0.25j for n in kept}
            try:
                _eval_scaled_reference(p, point)
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    eval_scaled(p, point)
                assert str(got.value) == str(exc)
            else:
                assert eval_scaled(p, point) == _eval_scaled_reference(p, point)

    def test_compiled_form_is_built_once(self):
        p = mono(PAR, {"x": 2, "r": 1}, Fraction(1, 3)) + 5
        assert p.compiled() is p.compiled()
        assert p.compiled() == ((complex(1 / 3), (("x", 2), ("r", 1))), (5 + 0j, ()))


class TestImmutability:
    def test_terms_are_read_only(self):
        p = mono(XYZ, {"x": 2}, 3)
        h = hash(p)
        with pytest.raises(TypeError):
            p.terms[(2, 0, 0)] = Fraction(5)
        with pytest.raises(TypeError):
            del p.terms[(2, 0, 0)]
        assert p == mono(XYZ, {"x": 2}, 3) and hash(p) == h


small_coeff = st.integers(-4, 4)


def poly_strategy(table=XYZ, max_terms=4, max_exp=2):
    n = len(table)
    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp) for _ in range(n)]), small_coeff
    )
    return st.lists(term, max_size=max_terms).map(
        lambda terms: Polynomial(table, {e: Fraction(c) for e, c in dict(terms).items()})
    )


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_distributivity(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), poly_strategy())
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy())
    def test_partials_commute(self, p):
        assert partial(partial(p, "x"), "y") == partial(partial(p, "y"), "x")

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(max_exp=1), poly_strategy(max_exp=1))
    def test_substitution_is_ring_hom(self, p, q):
        rep = var(XYZ, "x") + 2 * var(XYZ, "y")
        lhs = substitute_linear(p * q, "z", rep)
        rhs = substitute_linear(p, "z", rep) * substitute_linear(q, "z", rep)
        assert lhs == rhs

    @settings(max_examples=30, deadline=None)
    @given(poly_strategy(), poly_strategy())
    def test_eval_additive(self, p, q):
        point = {"x": 0.7 + 0.2j, "y": -0.3 + 0.9j, "z": 0.1 - 0.5j}
        lhs = eval_complex(p + q, point)
        rhs = eval_complex(p, point) + eval_complex(q, point)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs) + abs(rhs))


class TestConvertCompose:
    def test_convert_promotes_roles(self):
        src = VarTable(("x", "y"), ("du", "dv"))
        dst = VarTable(("x", "y", "z"))
        p = mono(src, {"du": 2, "dv": 1}, 3)
        q = convert(p, dst, {"du": "x", "dv": "y"})
        assert q == mono(dst, {"x": 2, "y": 1}, 3)

    def test_compose_linear_identity(self):
        p = random_quartic(random.Random(4))
        ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert compose_linear(p, ident) == p

    def test_compose_linear_swap(self):
        p = mono(XYZ, {"x": 3, "y": 1})
        swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        assert compose_linear(p, swap) == mono(XYZ, {"y": 3, "x": 1})

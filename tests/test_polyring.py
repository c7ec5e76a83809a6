"""Ring arithmetic, substitution, homogenization and evaluation."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from quartics.diffcalc import det
from quartics.errors import (DegreeError, DomainError, QuarticsError, RoleError,
                             TableMismatchError)
from quartics.polyring import (Polynomial, VarTable, compose_linear,
                               convert, eval_complex, eval_exact, eval_scaled,
                               eval_scaled_many, homogenize, multi_partial,
                               partial, restrict_to_line, substitute,
                               substitute_linear, substitute_values)

from conftest import XYZ, random_quartic, ref_partial

PAR = VarTable(("x", "y", "z"), ("r", "s", "u"))


def mono(table, powers, c=1):
    return Polynomial.monomial(table, powers, c)


def var(table, name):
    return Polynomial.variable(table, name)


class TestInputChecks:
    def test_var_table_needs_a_geometric_variable(self):
        with pytest.raises(ValueError, match="at least one geometric"):
            VarTable((), ("r",))

    @pytest.mark.parametrize("geometric, parameters", [(("x", "x"), ()), (("x", "y"), ("y",))])
    def test_var_table_names_are_unique(self, geometric, parameters):
        with pytest.raises(ValueError, match="not unique"):
            VarTable(geometric, parameters)

    def test_constant_value_of_a_non_constant(self):
        assert mono(PAR, {}, Fraction(-3, 4)).constant_value() == Fraction(-3, 4)
        assert Polynomial.zero(PAR).constant_value() == 0
        for p in (var(PAR, "x"), var(PAR, "r") + 1):
            with pytest.raises(DegreeError, match="not constant"):
                p.constant_value()

    @pytest.mark.parametrize("op", [
        lambda p: p + "a", lambda p: "a" + p, lambda p: p - "a", lambda p: "a" - p,
        lambda p: p * "a", lambda p: p * 1.5, lambda p: 1.5 + p])
    def test_foreign_operands_are_type_errors(self, op):
        with pytest.raises(TypeError):
            op(var(PAR, "x") + 1)

    def test_foreign_operands_are_not_equal(self):
        p = var(PAR, "x") + 1
        assert (p == "a") is False and (p != "a") is True
        assert p != None and p != [p]     # noqa: E711
        assert Polynomial.constant(PAR, 2) == 2 and Polynomial.constant(PAR, 2) != "2"

    def test_repr(self):
        assert repr(mono(PAR, {"x": 2, "r": 1}, Fraction(-3, 2))) == "Polynomial(-3/2*x^2*r)"
        assert repr(Polynomial.zero(XYZ)) == "Polynomial(0)"


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


class TestPow:
    @staticmethod
    def _bases():
        rng = random.Random(3)
        x, r = var(PAR, "x"), var(PAR, "r")
        return [Polynomial.zero(PAR), Polynomial.constant(PAR, Fraction(-2, 3)),
                x, Fraction(1, 2) * x - 3 * r, random_quartic(rng), random_quartic(rng)]

    def test_matches_the_repeated_product(self):
        for p in self._bases():
            want = Polynomial.constant(p.table, 1)
            for n in range(10):
                got = p ** n
                assert got == want and got.table == p.table
                want = want * p

    def test_zeroth_power_is_one_over_the_table(self):
        for table in (XYZ, PAR, SEVEN):
            for p in (Polynomial.zero(table), var(table, "x") + 2):
                one = p ** 0
                assert one == Polynomial.constant(table, 1) and one.table == table

    def test_negative_power_raises(self):
        with pytest.raises(ValueError, match="negative power"):
            var(PAR, "x") ** -1

    def test_no_product_has_the_factor_one(self, monkeypatch):
        formed = []
        inner = Polynomial.sum_of_products

        def counting(table, products):
            products = list(products)
            formed.extend(products)
            return inner(table, products)

        monkeypatch.setattr(Polynomial, "sum_of_products", staticmethod(counting))
        for p in self._bases()[1:]:
            formed.clear()
            assert p ** 1 == p and formed == []
            for n in range(2, 10):
                p ** n
            one = Polynomial.constant(p.table, 1)
            assert formed and not any(a == one or b == one for _, a, b in formed)


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

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="negative differentiation order"):
            partial(mono(XYZ, {"x": 2}), "x", -1)
        with pytest.raises(ValueError, match="negative differentiation order"):
            multi_partial(mono(XYZ, {"x": 2}), {"x": 1, "y": -1})

    def test_multi_partial_checks_every_variable(self):
        # the x order alone already gives zero; the checks still cover r and y
        p = mono(PAR, {"x": 2, "r": 1})
        with pytest.raises(RoleError, match="'r'"):
            multi_partial(p, {"x": 5, "r": 1})
        with pytest.raises(RoleError, match="'s'"):
            multi_partial(p, {"s": 0})
        with pytest.raises(ValueError, match="negative"):
            multi_partial(p, {"x": 5, "y": -2})

    def test_checks_hold_on_every_call(self):
        # the checked operator is cached per table and orders; a failed check is not
        p = mono(PAR, {"x": 2, "r": 1})
        for _ in range(2):
            with pytest.raises(RoleError, match="'r'"):
                multi_partial(p, {"r": 1})
            with pytest.raises(ValueError, match="negative"):
                multi_partial(p, {"x": -1})
            assert multi_partial(p, {"x": 1}) == mono(PAR, {"x": 1, "r": 1}, 2)
        # equal orders over equal tables of other objects give the same operator
        twin = VarTable(PAR.geometric, PAR.parameters)
        q = mono(twin, {"x": 2, "r": 1})
        assert multi_partial(q, {"x": 1}) == mono(twin, {"x": 1, "r": 1}, 2)


class TestUnknownVariable:
    """An unknown name raises a :class:`DomainError`, which is also a KeyError,
    with the plain message (KeyError's ``__str__`` would quote it)."""

    MESSAGE = "unknown variable 'w' (table has ('x', 'y', 'z', 'r', 's', 'u'))"

    @pytest.mark.parametrize("call", [
        lambda p: partial(p, "w"),
        lambda p: multi_partial(p, {"x": 1, "w": 1}),
        lambda p: homogenize(p, "w", 4),
        lambda p: Polynomial.monomial(PAR, {"w": 1}),
        lambda p: p.coefficient({"w": 1}),
        lambda p: PAR.index("w"),
    ])
    def test_type_and_message(self, call):
        with pytest.raises(DomainError) as info:
            call(mono(PAR, {"x": 2, "r": 1}))
        assert type(info.value) is DomainError
        assert isinstance(info.value, KeyError)
        assert str(info.value) == self.MESSAGE
        assert info.value.args == (self.MESSAGE,)

    def test_other_domain_errors_keep_their_text(self):
        assert str(DomainError("tol must be a finite number > 0, got nan")) == \
            "tol must be a finite number > 0, got nan"
        assert str(DomainError()) == ""


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


class TestSubstitute:
    def test_simultaneous_swap(self):
        x, y = var(XYZ, "x"), var(XYZ, "y")
        p = x ** 3 * y
        assert substitute(p, {"x": y, "y": x}) == x * y ** 3
        # one variable after the other is not a swap
        assert substitute_linear(substitute_linear(p, "x", y), "y", x) == x ** 4

    def test_matches_the_old_routines(self):
        """substitute_linear, substitute_values and compose_linear against the
        dict-based :func:`_ref_substitute`."""
        rng = random.Random(90901)
        unit = {n: tuple(int(m == n) for m in PAR.names) for n in PAR.names}
        for k in range(200):
            a = _random_terms(rng, PAR, rng.randint(0, 6), max_exp=2)
            p = Polynomial(PAR, a)
            name = rng.choice(PAR.names)
            rep = _random_terms(rng, PAR, rng.randint(0, 3), max_exp=1)
            if k % 3 == 0:      # the replacement contains the substituted variable
                rep = _ref_add(rep, {unit[name]: Fraction(rng.randint(-3, 3), rng.choice(_DENS))})
            want = Polynomial(PAR, _ref_substitute(a, PAR, {name: rep}))
            assert substitute_linear(p, name, Polynomial(PAR, rep)) == want
            assert substitute(p, {name: Polynomial(PAR, rep)}) == want
            values = {n: Fraction(rng.randint(-9, 9), rng.choice(_DENS))
                      for n in rng.sample(PAR.names, rng.randint(0, 3))}
            constants = {n: _ref_clean({(0,) * len(PAR): v}) for n, v in values.items()}
            assert substitute_values(p, values) == Polynomial(PAR, _ref_substitute(a, PAR, constants))
            matrix = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(3)]
                      for _ in range(3)]
            images = {n: _ref_clean({unit[m]: c for m, c in zip(PAR.geometric, row)})
                      for n, row in zip(PAR.geometric, matrix)}
            assert compose_linear(p, matrix) == Polynomial(PAR, _ref_substitute(a, PAR, images))

    def test_table_mismatch(self):
        with pytest.raises(TableMismatchError):
            substitute(mono(XYZ, {"x": 2}), {"x": var(PAR, "y")})

    def test_unknown_variable(self):
        with pytest.raises(KeyError, match="unknown variable 'w'"):
            substitute(mono(XYZ, {"x": 2}), {"w": var(XYZ, "y")})


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

    @pytest.mark.parametrize("table", [XYZ, PAR], ids=["plain", "parameters"])
    def test_pair_as_unknowns(self, table):
        """Naming the unknowns after the pair gives what fresh unknowns give,
        renamed onto the pair (the contravariants' route)."""
        rng = random.Random(6)
        wide = VarTable(table.geometric, table.parameters + ("a", "b"))
        for _ in range(6):
            p = random_quartic(rng, table)
            for _ in range(3 if table.parameters else 0):
                powers = {"x": 1, "y": 1, "z": 2, rng.choice("rsu"): rng.randint(1, 3)}
                p = p + mono(table, powers, rng.randint(-3, 3))
            for sub, pair in (("z", ("x", "y")), ("x", ("y", "z")), ("y", ("x", "z"))):
                fresh = restrict_to_line(p, wide, sub, pair, ("a", "b"))
                want = [convert(c, table, {"a": pair[0], "b": pair[1]}) for c in fresh]
                assert restrict_to_line(p, table, sub, pair, pair) == want

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

    def test_parameter_or_present_variable_rejected(self):
        with pytest.raises(RoleError, match="must be geometric"):
            homogenize(mono(PAR, {"x": 1}), "r", 2)
        with pytest.raises(ValueError, match="already occurs"):
            homogenize(mono(PAR, {"x": 1, "z": 1}), "z", 3)

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

    def test_equal_polynomials_name_the_same_unassigned_variable(self):
        # stored in the order of their terms, but scanned in canonical order
        x, y = (mono(XYZ, {n: 1}) for n in "xy")
        first, second = x + y ** 2, y ** 2 + x
        assert first == second
        for p in (first, second):
            for evaluate in (eval_exact, eval_complex):
                with pytest.raises(DomainError, match="^variable 'y' not assigned$"):
                    evaluate(p, {"z": 1})

    @pytest.mark.parametrize("bad", ["q", "1/0", None, 1j])
    def test_exact_point_value_that_is_not_rational(self, bad):
        from quartics.symfam import make_family

        point = {"x": 1, "y": 1, "z": 1, "r": bad, "s": 2, "u": 3}
        with pytest.raises(DomainError, match="^cannot parse rational"):
            eval_exact(make_family("X4").poly, point)


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

    @staticmethod
    def _overlapping(rng: random.Random) -> list[Polynomial]:
        """1-6 polynomials whose terms come from one small pool of monomials,
        so that they share variables and powers."""
        pool = [tuple(rng.randint(0, 4) for _ in range(len(PAR))) for _ in range(12)]
        return [Polynomial(PAR, {e: Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                             rng.randint(1, 10 ** 4))
                                 for e in rng.sample(pool, rng.randint(1, 10))})
                for _ in range(rng.randint(1, 6))]

    def test_shared_power_table_matches_one_by_one(self):
        rng = random.Random(20261019)
        for k in range(300):
            polys = self._overlapping(rng)
            if k % 3:
                point = {n: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for n in PAR.names}
            else:
                point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in PAR.names}
            got = eval_scaled_many(polys, point)
            assert repr(got) == repr([_eval_scaled_reference(p, point) for p in polys])
            assert repr(got) == repr([eval_scaled(p, point) for p in polys])

    def test_shared_power_table_missing_variable_message(self):
        rng = random.Random(6)
        raised = 0
        for _ in range(200):
            polys = self._overlapping(rng)
            kept = rng.sample(PAR.names, rng.randint(0, len(PAR) - 1))
            point = {n: 0.5 - 0.25j for n in kept}
            try:
                want = [_eval_scaled_reference(p, point) for p in polys]
            except DomainError as exc:
                raised += 1
                with pytest.raises(DomainError) as got:
                    eval_scaled_many(polys, point)
                assert str(got.value) == str(exc)
            else:
                assert eval_scaled_many(polys, point) == want
        assert raised > 50

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

    def test_convert_must_be_injective_on_the_support(self):
        p = var(XYZ, "x") + var(XYZ, "y")
        with pytest.raises(ValueError, match="not injective"):
            convert(p, XYZ, {"x": "y"})
        # a variable that does not occur may share a target
        assert convert(var(XYZ, "x"), XYZ, {"x": "y", "z": "y"}) == var(XYZ, "y")

    def test_compose_linear_needs_a_square_geometric_matrix(self):
        p = mono(XYZ, {"x": 3, "y": 1})
        for matrix in ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0]]):
            with pytest.raises(ValueError, match="3x3"):
                compose_linear(p, matrix)


# -- the integer form against per-term Fraction arithmetic ---------------------
#
# The reference functions below are the per-term Fraction implementations that
# the integer-numerator representation replaced.  They work on plain dicts from
# exponent tuples to Fractions and are the oracle for every public view of the
# results: terms, str, == and hash, and the compiled form.


def _ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return _ref_clean(out)


def _ref_scale(a, c):
    return _ref_clean({e: k * Fraction(c) for e, k in a.items()})


def _ref_convert(a, src, dst, rename):
    out = {}
    for exps, c in a.items():
        new = [0] * len(dst)
        for name, e in zip(src.names, exps):
            if e:
                new[dst.index(rename.get(name, name))] = e
        out[tuple(new)] = out.get(tuple(new), Fraction(0)) + c
    return _ref_clean(out)


def _ref_homogenize(a, table, var, degree):
    i, ng = table.index(var), table.n_geometric
    return {exps[:i] + (degree - sum(exps[:ng]),) + exps[i + 1:]: c for exps, c in a.items()}


def _ref_restrict(a, table, var, pair, unknowns):
    iv, i0, i1, j0, j1 = (table.index(n) for n in (var, *pair, *unknowns))
    ng = table.n_geometric
    out = [{} for _ in range(5)]
    for exps, c in a.items():
        k = exps[iv]
        for m in range(k + 1):
            key = [0] * ng + list(exps[ng:])
            key[j0] += m
            key[j1] += k - m
            slot = out[exps[i1] + k - m]
            slot[tuple(key)] = slot.get(tuple(key), Fraction(0)) + c * (-1) ** k * comb(k, m)
    return [_ref_clean(slot) for slot in out]


def _eval_exact_reference(a, names, point):
    """The per-term ``Fraction`` evaluator of the terms *a* over the variables
    *names*: the oracle for the value of :func:`eval_exact` and, given a
    polynomial's terms in canonical order, for which unassigned variable its error names."""
    total = Fraction(0)
    for exps, c in a.items():
        for name, e in zip(names, exps):
            if e:
                if name not in point:
                    raise DomainError(f"variable {name!r} not assigned")
                c *= Fraction(point[name]) ** e
        total += c
    return total


def _ref_sorted(a):
    return sorted(a.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)


def _ref_str(table, a):
    if not a:
        return "0"
    parts = []
    for exps, c in _ref_sorted(a):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(table.names, exps) if e]
        mag = abs(c)
        body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        parts.append(("-" if c < 0 else "+", body))
    text = " ".join(f"{sign} {body}" for sign, body in parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _ref_compiled(table, a):
    return tuple((complex(float(c)), tuple((n, e) for n, e in zip(table.names, exps) if e))
                 for exps, c in _ref_sorted(a))


def assert_matches_reference(got, table, want):
    """*got* equals the per-term Fraction result *want* in every public view,
    and its stored form is reduced."""
    assert got.table == table
    assert dict(got.terms) == want
    for c in got.terms.values():
        assert type(c) is Fraction and c and gcd(c.numerator, c.denominator) == 1
    den = got.denominator
    assert den > 0 and gcd(den, *got.numerators.values()) == 1
    assert 0 not in got.numerators.values()
    assert str(got) == _ref_str(table, want)
    twin = Polynomial(table, want)
    assert got == twin and hash(got) == hash(twin)
    assert hash(got) == hash((table, tuple(sorted(want.items()))))
    assert repr(got.compiled()) == repr(_ref_compiled(table, want))
    if want:
        assert got.leading_term() == max(want.items(), key=lambda t: (sum(t[0]), t[0]))


_DENS = (1, 1, 2, 3, 4, 6, 9, 12, 35, 1000003)


def _random_terms(rng, table, n_terms, max_exp=3):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(len(table)))
        terms[exps] = Fraction(rng.randint(-30, 30), rng.choice(_DENS))
    return _ref_clean(terms)


def _random_form(rng, table, degree, n_terms):
    """A form of geometric degree *degree* in x, y, z with parameter-valued coefficients."""
    terms = {}
    for _ in range(n_terms):
        i = rng.randint(0, degree)
        j = rng.randint(0, degree - i)
        par = tuple(rng.randint(0, 2) for _ in table.parameters)
        terms[(i, j, degree - i - j) + par] = Fraction(rng.randint(-30, 30), rng.choice(_DENS))
    return _ref_clean(terms)


class TestIntegerFormMatchesFractionReference:
    N = 300

    def test_sums_and_products(self):
        rng = random.Random(60601)
        for k in range(self.N):
            table = PAR if k % 2 else XYZ
            a = _random_terms(rng, table, rng.randint(0, 8))
            b = _random_terms(rng, table, rng.randint(0, 8))
            if k % 5 == 0:      # share most terms with opposite sign: cancellation
                b = _ref_add(_ref_scale(a, -1), b if k % 10 else {})
            pa, pb = Polynomial(table, a), Polynomial(table, b)
            assert_matches_reference(pa + pb, table, _ref_add(a, b))
            assert_matches_reference(pa - pb, table, _ref_add(a, _ref_scale(b, -1)))
            assert_matches_reference(pa * pb, table, _ref_mul(a, b))
            c = Fraction(rng.randint(-6, 6), rng.choice(_DENS))
            assert_matches_reference(pa * c, table, _ref_scale(a, c))
            assert_matches_reference(pa + c, table, _ref_add(a, _ref_clean({(0,) * len(table): c})))
            assert_matches_reference(pa + -pa, table, {})

    def test_products_that_cancel_to_zero_and_reduce(self):
        x, y = var(XYZ, "x"), var(XYZ, "y")
        half, third = Fraction(1, 2), Fraction(1, 3)
        got = (x * half + y * third) * (x * 6 - y * 4) - (x * x * 3 - y * y * Fraction(4, 3))
        assert_matches_reference(got, XYZ, {})
        assert got.denominator == 1 and not got.numerators
        sixth = mono(XYZ, {"x": 1}, Fraction(1, 6)) + mono(XYZ, {"x": 1}, Fraction(1, 3))
        assert_matches_reference(sixth, XYZ, {(1, 0, 0): Fraction(1, 2)})
        assert sixth.denominator == 2

    def test_partials(self):
        rng = random.Random(60602)
        for k in range(self.N):
            a = _random_terms(rng, PAR, rng.randint(0, 8), max_exp=4)
            name = "xyz"[k % 3]
            order = k % 4
            got = partial(Polynomial(PAR, a), name, order)
            assert_matches_reference(got, PAR, ref_partial(a, PAR.index(name), order))

    def test_convert_and_homogenize(self):
        rng = random.Random(60603)
        src = VarTable(("x", "y", "z"), ("du", "dv", "r"))
        dst = VarTable(("x", "y", "z"), ("r",))
        rename = {"du": "x", "dv": "y"}
        for _ in range(self.N):
            terms = _random_terms(rng, src, rng.randint(0, 8))
            a = _ref_clean({(0, 0, 0) + e[3:]: c for e, c in terms.items()})
            pa = Polynomial(src, a)
            moved = convert(pa, dst, rename)
            assert_matches_reference(moved, dst, _ref_convert(a, src, dst, rename))
            want = _ref_homogenize(_ref_convert(a, src, dst, rename), dst, "z", 8)
            assert_matches_reference(homogenize(moved, "z", 8), dst, want)
            assert_matches_reference(convert(pa, src), src, a)

    def test_restrict_to_line(self):
        rng = random.Random(60604)
        line = TestRestrictToLine.LINE
        for k in range(self.N):
            a = _random_form(rng, PAR, 4, rng.randint(1, 12))
            sub, pair = (("z", ("x", "y")), ("x", ("y", "z")), ("y", ("x", "z")))[k % 3]
            got = restrict_to_line(Polynomial(PAR, a), line, sub, pair, ("a", "b"))
            want = _ref_restrict(_ref_convert(a, PAR, line, {}), line, sub, pair, ("a", "b"))
            for g, w in zip(got, want):
                assert_matches_reference(g, line, w)

    def test_eval_exact(self):
        rng = random.Random(60605)
        for _ in range(self.N):
            a = _random_terms(rng, PAR, rng.randint(0, 10))
            point = {n: Fraction(rng.randint(-9, 9), rng.choice(_DENS)) for n in PAR.names}
            got = eval_exact(Polynomial(PAR, a), point)
            assert type(got) is Fraction and got == _eval_exact_reference(a, PAR.names, point)

    @pytest.mark.parametrize("kind", ["negative", "large denominator", "zero", "int", "mixed"])
    def test_eval_exact_points(self, kind):
        rng = random.Random(60606)
        big = 10 ** 40 + 7
        for _ in range(100):
            p = Polynomial(PAR, _random_terms(rng, PAR, rng.randint(0, 12), max_exp=5))
            values = {
                "negative": lambda: Fraction(-rng.randint(1, 10 ** 6), rng.choice(_DENS)),
                "large denominator": lambda: Fraction(rng.randint(-big, big), big + rng.randint(0, 9)),
                "zero": lambda: rng.choice((0, Fraction(0), Fraction(3, 7))),
                "int": lambda: rng.randint(-50, 50),
                "mixed": lambda: rng.choice((-3, Fraction(-1, 10 ** 20), 0, "5/7", 0.375)),
            }[kind]
            point = {n: values() for n in PAR.names}
            got = eval_exact(p, point)
            assert type(got) is Fraction and got == _eval_exact_reference(p.terms, PAR.names, point)

    def test_eval_exact_names_the_same_unassigned_variable(self):
        rng = random.Random(60607)
        raised = 0
        for _ in range(300):
            p = Polynomial(PAR, _random_terms(rng, PAR, rng.randint(1, 10)))
            kept = rng.sample(PAR.names, rng.randint(0, len(PAR) - 1))
            point = {n: Fraction(rng.randint(-9, 9), rng.choice(_DENS)) for n in kept}
            try:
                want = _eval_exact_reference(dict(p.sorted_terms()), PAR.names, point)
            except DomainError as exc:
                raised += 1
                with pytest.raises(DomainError) as got:
                    eval_exact(p, point)
                assert str(got.value) == str(exc)
            else:
                assert eval_exact(p, point) == want
        assert raised > 100

    def test_constructor_reduces_mixed_denominators(self):
        p = Polynomial(XYZ, {(1, 0, 0): Fraction(3, 4), (0, 1, 0): Fraction(5, 6), (0, 0, 1): 0})
        assert p.denominator == 12 and dict(p.numerators) == {(1, 0, 0): 9, (0, 1, 0): 10}
        assert_matches_reference(p, XYZ, {(1, 0, 0): Fraction(3, 4), (0, 1, 0): Fraction(5, 6)})
        assert Polynomial.zero(XYZ).denominator == Polynomial(XYZ, {(1, 0, 0): 0}).denominator == 1
        q = Polynomial.from_numerators(XYZ, {(1, 0, 0): 6, (0, 1, 0): 0, (0, 0, 1): -4}, 8)
        assert q.denominator == 4 and dict(q.numerators) == {(1, 0, 0): 3, (0, 0, 1): -2}
        assert Polynomial.from_numerators(XYZ, {(1, 0, 0): 0}, 7) == Polynomial.zero(XYZ)


# -- the packed stored form ---------------------------------------------------
#
# Each monomial is stored as one int with a 16-bit field per exponent and one
# for the total degree; the views above stay keyed by exponent tuples.  The
# tests below pin the range check at the field limit and compare every
# operation that works on the packed keys with the exponent-tuple reference
# functions above, on tables of 6 and 7 variables and with exponents both small
# and near the limit.

LIMIT = 65535
SEVEN = VarTable(("x", "y", "z"), ("a", "b", "c", "d"))


class TestPackingLimit:
    @pytest.mark.parametrize("table", [XYZ, PAR, SEVEN])
    def test_largest_exponent_round_trips(self, table):
        for i in range(len(table)):
            exps = tuple(LIMIT if j == i else 0 for j in range(len(table)))
            p = Polynomial(table, {exps: Fraction(-3, 7)})
            assert dict(p.terms) == {exps: Fraction(-3, 7)}
            assert dict(p.numerators) == {exps: -3} and p.denominator == 7
            assert p.sorted_terms() == [(exps, Fraction(-3, 7))]
            assert p.total_degree() == p.degree_in(table.names[i]) == LIMIT
        spread = (LIMIT - 6 * 9000,) + (9000,) * 6
        p = Polynomial.from_numerators(SEVEN, {spread: 5, (0,) * 7: 1})
        assert dict(p.numerators) == {spread: 5, (0,) * 7: 1}
        assert p.leading_term() == (spread, 5) and p.total_degree() == LIMIT

    @pytest.mark.parametrize("exps", [(LIMIT + 1, 0, 0), (0, 0, 2 ** 20),
                                      (40000, 30000, 0), (LIMIT, 1, 0)])
    def test_above_the_limit_is_a_degree_error(self, exps):
        for build in (lambda: Polynomial(XYZ, {exps: 1}),
                      lambda: Polynomial.from_numerators(XYZ, {exps: 1}),
                      lambda: mono(XYZ, dict(zip("xyz", exps)))):
            with pytest.raises(DegreeError, match="65535"):
                build()

    def test_products_and_powers_that_cross_the_limit(self):
        x, y = var(PAR, "x"), var(PAR, "y")
        r = var(PAR, "r")
        big = x ** 40000
        with pytest.raises(DegreeError, match="65535"):
            big * big
        with pytest.raises(DegreeError, match="65535"):
            x ** (LIMIT + 1)
        with pytest.raises(DegreeError, match="65535"):
            (x ** 32768) * (y ** 32768)     # no single exponent crosses, the degree does
        with pytest.raises(DegreeError, match="65535"):
            (x ** 40000 + 1) * (r ** 30000 + y)
        assert x ** LIMIT == mono(PAR, {"x": LIMIT})
        assert (x ** 30000) * (r ** 35535) == mono(PAR, {"x": 30000, "r": 35535})
        assert (x ** 40000 + 1) * (r ** 25535 - 1) == (mono(PAR, {"x": 40000, "r": 25535})
                                                        - x ** 40000 + r ** 25535 - 1)

    def test_homogenize_across_the_limit(self):
        p = mono(PAR, {"x": 1, "r": LIMIT - 5})
        assert homogenize(p, "z", 5) == mono(PAR, {"x": 1, "z": 4, "r": LIMIT - 5})
        with pytest.raises(DegreeError, match="65535"):
            homogenize(p, "z", 6)

    def test_negative_and_wrong_length_are_value_errors(self):
        for exps in [(-1, 0, 0), (0, 0, -LIMIT), (1, 0), (0, 0, 0, 0)]:
            with pytest.raises(ValueError):
                Polynomial(XYZ, {exps: 1})
            with pytest.raises(ValueError):
                Polynomial.from_numerators(XYZ, {exps: 1})

    def test_from_numerators_reads_tuple_keys(self):
        num = {(1, 0, 0, 2, 0, 0): 6, (0, 1, 0, 0, 0, 0): 0, (0, 0, 0, 0, 0, 1): -4}
        q = Polynomial.from_numerators(PAR, num, 8)
        assert q.denominator == 4
        assert dict(q.numerators) == {(1, 0, 0, 2, 0, 0): 3, (0, 0, 0, 0, 0, 1): -2}
        assert q == Polynomial(PAR, {(1, 0, 0, 2, 0, 0): Fraction(3, 4),
                                     (0, 0, 0, 0, 0, 1): Fraction(-1, 2)})
        num[(1, 0, 0, 2, 0, 0)] = 7       # the caller's dict is not kept
        assert dict(q.numerators) == {(1, 0, 0, 2, 0, 0): 3, (0, 0, 0, 0, 0, 1): -2}
        with pytest.raises(TypeError):
            q.numerators[(0, 0, 0, 0, 0, 1)] = 1


def _exponents(n, top):
    """Exponent tuples of length *n* and total degree at most *top*: small ones, and
    ones whose degree is within 20 of *top*, nearly all of it in one variable."""
    small = st.lists(st.integers(0, 3), min_size=n, max_size=n)

    def lift(args):
        exps, i, degree = args
        exps[i] += degree - sum(exps)
        return tuple(exps)

    return st.one_of(small.map(tuple),
                     st.tuples(small, st.integers(0, n - 1), st.integers(top - 20, top)).map(lift))


_coefficients = st.builds(Fraction, st.integers(-30, 30), st.sampled_from(_DENS))


def _terms(table, top=LIMIT, max_size=6):
    return st.dictionaries(_exponents(len(table), top), _coefficients,
                           max_size=max_size).map(_ref_clean)


def _degree(terms):
    return max((sum(e) for e in terms), default=0)


def _merged(pairs):
    """Exponent-tuple terms from ``(exps, coeff)`` pairs whose exponents may repeat."""
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_clean(out)


def _ref_monomial_power(a, e, n):
    out = {(0,) * n: Fraction(1)}
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a, table, replacements):
    total = {}
    for exps, c in a.items():
        rest = list(exps)
        term = {(0,) * len(table): Fraction(1)}
        for name, rep in replacements.items():
            rest[table.index(name)] = 0
            term = _ref_mul(term, _ref_monomial_power(rep, exps[table.index(name)], len(table)))
        total = _ref_add(total, _ref_mul({tuple(rest): c}, term))
    return total


def _ref_geometric_coefficients(a, table):
    ng = table.n_geometric
    out = {}
    for exps, c in a.items():
        out.setdefault(exps[:ng], {})[(0,) * ng + exps[ng:]] = c
    return out


_TABLES = pytest.mark.parametrize("table", [PAR, SEVEN], ids=["PAR", "SEVEN"])
_PROPERTY = settings(max_examples=40, deadline=None)


class TestPackedFormMatchesTupleReference:
    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_products(self, table, data):
        a, b = (data.draw(_terms(table, LIMIT // 2 + 10)) for _ in range(2))
        want = _ref_mul(a, b)
        pa, pb = Polynomial(table, a), Polynomial(table, b)
        if _degree(want) > LIMIT:
            with pytest.raises(DegreeError, match="65535"):
                pa * pb
        else:
            assert_matches_reference(pa * pb, table, want)

    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_powers(self, table, data):
        a = data.draw(_terms(table, LIMIT // 3 + 10, max_size=3))
        n = data.draw(st.integers(0, 3))
        want = _ref_monomial_power(a, n, len(table))
        if _degree(want) > LIMIT:
            with pytest.raises(DegreeError, match="65535"):
                Polynomial(table, a) ** n
        else:
            assert_matches_reference(Polynomial(table, a) ** n, table, want)

    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_partial(self, table, data):
        a = data.draw(_terms(table))
        name = data.draw(st.sampled_from(table.geometric))
        order = data.draw(st.one_of(st.integers(0, 4), st.integers(LIMIT - 25, LIMIT + 1)))
        got = partial(Polynomial(table, a), name, order)
        want = ref_partial(a, table.index(name), order)
        if order < 5:
            assert_matches_reference(got, table, want)
        else:   # coefficients near 65535! have no float or short decimal form
            assert dict(got.terms) == want and got.total_degree() == _degree(want)

    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_multi_partial(self, table, data):
        # against one tuple partial per variable, in turn; orders of 0, up to the
        # term exponents and past them, and past the packing limit
        a = data.draw(_terms(table))
        order = st.one_of(st.integers(0, 4), st.integers(LIMIT - 25, LIMIT + 3))
        orders = data.draw(st.dictionaries(st.sampled_from(table.geometric), order, max_size=3))
        got = multi_partial(Polynomial(table, a), orders)
        want = a
        for name, k in orders.items():
            want = ref_partial(want, table.index(name), k)
        if max(orders.values(), default=0) < 5:
            assert_matches_reference(got, table, want)
        else:   # coefficients near 65535! have no float or short decimal form
            assert dict(got.terms) == want and got.total_degree() == _degree(want)

    def test_multi_partial_edge_orders(self):
        for table in (PAR, SEVEN):
            top = tuple(LIMIT if n == "z" else 0 for n in table.names)
            a = {top: Fraction(5, 3), (3, 1, 0) + (2,) * len(table.parameters): Fraction(-7, 4),
                 (1, 0, 0) + (0,) * len(table.parameters): Fraction(1, 6)}
            p = Polynomial(table, a)
            for orders in ({}, {"x": 0}, {"x": 0, "y": 0, "z": 0}):
                assert_matches_reference(multi_partial(p, orders), table, a)
            for orders in ({"x": 4}, {"z": LIMIT + 1}, {"x": 1, "y": 1, "z": 1},
                           {"x": LIMIT + 1, "y": 2 ** 20}):
                got = multi_partial(p, orders)
                assert got.is_zero() and got.denominator == 1
            want = {(2, 0, 0) + (2,) * len(table.parameters): Fraction(-21, 4)}
            assert_matches_reference(multi_partial(p, {"x": 1, "y": 1}), table, want)
            want = {(0,) * len(table): Fraction(-7, 4) * 3 * 2}
            q = Polynomial(table, {(3, 1, 0) + (0,) * len(table.parameters): Fraction(-7, 4)})
            assert_matches_reference(multi_partial(q, {"y": 1, "x": 3}), table, want)

    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_homogenize(self, table, data):
        iz, ng = table.index("z"), table.n_geometric
        a = _merged((e[:iz] + (0,) + e[iz + 1:], c) for e, c in data.draw(_terms(table)).items())
        target = max((sum(e[:ng]) for e in a), default=0) + data.draw(
            st.one_of(st.integers(0, 5), st.integers(LIMIT - 40, LIMIT)))
        want = _ref_homogenize(a, table, "z", target)
        if _degree(want) > LIMIT:
            with pytest.raises(DegreeError, match="65535"):
                homogenize(Polynomial(table, a), "z", target)
        else:
            assert_matches_reference(homogenize(Polynomial(table, a), "z", target), table, want)

    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_substitute(self, table, data):
        names = data.draw(st.sampled_from([("x",), ("y", "x"), ("z", "r" if table is PAR else "d")]))
        slots = [table.index(n) for n in names]
        # the substituted exponents stay small, so each power is a few products
        a = _merged((tuple(e % 4 if i in slots else e for i, e in enumerate(exps)), c)
                    for exps, c in data.draw(_terms(table)).items())
        linear = st.sampled_from([tuple(int(i == j) for j in range(len(table)))
                                  for i in range(-1, len(table))])
        reps = {n: data.draw(st.dictionaries(linear, _coefficients, max_size=3).map(_ref_clean))
                for n in names}
        got = substitute(Polynomial(table, a), {n: Polynomial(table, r) for n, r in reps.items()})
        assert_matches_reference(got, table, _ref_substitute(a, table, reps))

    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_convert(self, table, data):
        a = data.draw(_terms(table))
        # roles swapped, orders reversed, one variable renamed and one added
        dst = VarTable(tuple(reversed(table.parameters)),
                       tuple(reversed(table.geometric[1:])) + ("x2", "extra"))
        rename = {"x": "x2"}
        got = convert(Polynomial(table, a), dst, rename)
        assert_matches_reference(got, dst, _ref_convert(a, table, dst, rename))
        assert_matches_reference(convert(got, table, {"x2": "x"}), table, a)

    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_geometric_coefficients(self, table, data):
        a = data.draw(_terms(table))
        got = Polynomial(table, a).geometric_coefficients()
        want = _ref_geometric_coefficients(a, table)
        assert list(got) == list(want)
        for geo, w in want.items():
            assert_matches_reference(got[geo], table, w)

    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_restrict_to_line(self, table, data):
        geo = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda ij: sum(ij) <= 4)
        pars = _exponents(len(table.parameters), LIMIT - 4)
        form = st.dictionaries(st.tuples(geo, pars), _coefficients, max_size=8)
        a = _ref_clean({(i, j, 4 - i - j) + p: c for ((i, j), p), c in data.draw(form).items()})
        line = VarTable(table.geometric, table.parameters + ("t1", "t2"))
        got = restrict_to_line(Polynomial(table, a), line, "z", ("x", "y"), ("t1", "t2"))
        want = _ref_restrict(_ref_convert(a, table, line, {}), line, "z", ("x", "y"), ("t1", "t2"))
        for g, w in zip(got, want):
            assert_matches_reference(g, line, w)
        got = restrict_to_line(Polynomial(table, a), table, "x", ("y", "z"), ("y", "z"))
        for g, w in zip(got, _ref_restrict(a, table, "x", ("y", "z"), ("y", "z"))):
            assert_matches_reference(g, table, w)

    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_eval_exact(self, table, data):
        a = data.draw(_terms(table))
        # near the limit only 0 and ±1 keep the powers small
        large = max((max(e) for e in a), default=0) > 12
        value = st.sampled_from([0, 1, -1, Fraction(-1)]) if large else _coefficients
        point = {n: data.draw(value) for n in table.names}
        got = eval_exact(Polynomial(table, a), point)
        assert type(got) is Fraction and got == _eval_exact_reference(a, table.names, point)

    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_sorted_terms_are_descending_by_degree_then_exponents(self, table, data):
        a = data.draw(_terms(table, max_size=10))
        want = sorted(a.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        assert Polynomial(table, a).sorted_terms() == want


# Polynomial.sum_of_products adds every scaled product into one dict and
# normalizes once.  The reference is the running total it replaces: one
# per-term Fraction product per (c, a, b), scaled and added in turn.

def _ref_sum_of_products(products):
    total = {}
    for c, a, b in products:
        total = _ref_add(total, _ref_scale(_ref_mul(a, b), c))
    return total


_scales = st.one_of(st.integers(-5, 5), _coefficients)


class TestSumOfProducts:
    @_TABLES
    @_PROPERTY
    @given(data=st.data())
    def test_matches_the_running_total(self, table, data):
        # operands up to half the limit, so some products cross it
        products = data.draw(st.lists(st.tuples(_scales, _terms(table, LIMIT // 2 + 10),
                                                _terms(table, LIMIT // 2 + 10)), max_size=4))
        polys = [(c, Polynomial(table, a), Polynomial(table, b)) for c, a, b in products]
        if any(_degree(_ref_mul(a, b)) > LIMIT for _, a, b in products):
            with pytest.raises(DegreeError, match="65535"):
                Polynomial.sum_of_products(table, polys)
        else:
            want = _ref_sum_of_products(products)
            assert_matches_reference(Polynomial.sum_of_products(table, polys), table, want)
            assert_matches_reference(Polynomial.sum_of_products(table, iter(polys)), table, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_mixed_denominators(self, seed):
        rng = random.Random(seed)
        table = (PAR, SEVEN)[seed % 2]
        products = []
        for _ in range(rng.randint(1, 6)):
            c = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.choice(_DENS))])
            a, b = ({tuple(rng.randint(0, 3) for _ in table.names):
                     Fraction(rng.randint(-20, 20), rng.choice(_DENS)) for _ in range(rng.randint(0, 5))}
                    for _ in range(2))
            products.append((c, _ref_clean(a), _ref_clean(b)))
        got = Polynomial.sum_of_products(
            table, [(c, Polynomial(table, a), Polynomial(table, b)) for c, a, b in products])
        assert_matches_reference(got, table, _ref_sum_of_products(products))

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
        got = Polynomial.sum_of_products(PAR, [(4, a, b), (Fraction(4, 9), b, b), (-3, a, a)])
        want = _ref_sum_of_products([(4, dict(a.terms), dict(b.terms)),
                                     (Fraction(4, 9), dict(b.terms), dict(b.terms)),
                                     (-3, dict(a.terms), dict(a.terms))])
        assert_matches_reference(got, PAR, want)
        assert got == 4 * (a * b) + Fraction(4, 9) * (b * b) - 3 * (a * a)

    def test_product_is_the_one_product_case(self):
        rng = random.Random(5)
        for _ in range(10):
            a, b = (random_quartic(rng) for _ in range(2))
            one = Polynomial.sum_of_products(XYZ, [(1, a, b)])
            assert a * b == one and list((a * b).numerators) == list(one.numerators)

    def test_table_mismatch(self):
        a, b = mono(PAR, {"x": 1}), mono(PAR, {"r": 2}, Fraction(1, 3))
        foreign = mono(SEVEN, {"x": 1})
        for products in ([(1, a, foreign)], [(1, foreign, a)], [(1, a, b), (2, b, foreign)]):
            with pytest.raises(TableMismatchError):
                Polynomial.sum_of_products(PAR, products)
        with pytest.raises(TableMismatchError):
            Polynomial.sum_of_products(SEVEN, [(1, a, b)])

    def test_degree_error_exactly_past_the_limit(self):
        x, r = var(PAR, "x"), var(PAR, "r")
        fits = [(1, x ** 30000, r ** 35535), (-1, r ** 35535, x ** 30000), (2, x, x)]
        assert Polynomial.sum_of_products(PAR, fits) == 2 * x ** 2
        # the second product crosses even though its scale is zero and the sum cancels
        for c in (1, 0):
            with pytest.raises(DegreeError, match="65535"):
                Polynomial.sum_of_products(PAR, [(1, x, x), (c, x ** 30000, r ** 35536)])


# each malformed argument that raised a plain ValueError, which ``except
# QuarticsError`` missed; the error is still a ValueError for older callers
MALFORMED = {
    "at least one geometric": lambda: VarTable(()),
    "not unique": lambda: VarTable(("x", "x")),
    "does not match": lambda: Polynomial(XYZ, {(1, 0): 1}),
    "negative exponent": lambda: Polynomial(XYZ, {(-1, 0, 0): 1}),
    "negative power": lambda: var(XYZ, "x") ** -1,
    "negative differentiation": lambda: multi_partial(var(XYZ, "x"), {"x": -1}),
    "already occurs": lambda: homogenize(var(XYZ, "z"), "z", 2),
    "not injective": lambda: convert(var(XYZ, "x") + var(XYZ, "y"), XYZ, {"x": "y"}),
    "3x3": lambda: compose_linear(var(XYZ, "x"), [[1, 0], [0, 1]]),
    "not square": lambda: det(()),
}


@pytest.mark.parametrize("message", MALFORMED)
def test_malformed_arguments_are_quartics_errors(message):
    with pytest.raises(QuarticsError, match=message) as info:
        MALFORMED[message]()
    assert isinstance(info.value, ValueError)

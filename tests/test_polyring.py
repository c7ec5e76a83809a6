"""Ring arithmetic, substitution, homogenization and evaluation."""

import random
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quartics
from quartics.diffcalc import det
from quartics.errors import (DegreeError, DomainError, QuarticsError, RoleError,
                             TableMismatchError)
from quartics.polyring import (Polynomial, VarTable, compose_linear, convert, eval_complex,
                               eval_exact, multi_partial, partial, restrict_to_line,
                               substitute, substitute_linear, substitute_values)

from conftest import (DENOMINATORS, LIMIT, PAR, RANDOMS, SEVEN, XYZ, drawn, homogenize,
                      random_exponents, random_quartic, random_terms, ref_partial)

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

    @pytest.mark.parametrize("build", [
        lambda c: Polynomial(XYZ, {(1, 0, 0): c}),
        lambda c: Polynomial.constant(XYZ, c),
        lambda c: Polynomial.monomial(XYZ, {"x": 1}, c),
    ], ids=["init", "constant", "monomial"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "x", True, None], ids=repr)
    def test_constructors_reject_what_rational_rejects(self, build, value):
        with pytest.raises(DomainError, match=f"cannot parse rational {value!r}"):
            build(value)

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

    def test_exponent_that_is_not_an_int(self):
        x = var(PAR, "x")
        # Fraction.__rpow__ takes an integral Fraction back to an int power
        assert x ** Fraction(2) == x * x
        with pytest.raises(DomainError, match="^negative power$"):
            x ** Fraction(-1)
        # a foreign exponent is NotImplemented, so Python's error names ** and the types
        with pytest.raises(TypeError, match=r"\*\*.*'Polynomial' and 'float'"):
            x ** 2.0

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
        # equal orders over equal tables of other objects give the same operator, and
        # the partial keeps the table object of the polynomial it differentiates
        twin = VarTable(PAR.geometric, PAR.parameters)
        q = mono(twin, {"x": 2, "r": 1})
        got = multi_partial(q, {"x": 1})
        assert got == mono(twin, {"x": 1, "r": 1}, 2) and got.table is twin


class TestUnknownVariable:
    """An unknown name raises a :class:`DomainError`, which is also a KeyError,
    with the plain message (KeyError's ``__str__`` would quote it)."""

    MESSAGE = "unknown variable 'w' (table has ('x', 'y', 'z', 'r', 's', 'u'))"

    @pytest.mark.parametrize("call", [
        lambda p: partial(p, "w"),
        lambda p: multi_partial(p, {"x": 1, "w": 1}),
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
    """The tests' ``homogenize`` (``conftest``), the transvectant route's last step."""

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

    @pytest.mark.parametrize("bad", ["q", "1/0", None, 1j, True])
    def test_exact_point_value_that_is_not_rational(self, bad):
        from quartics.symfam import make_family

        point = {"x": 1, "y": 1, "z": 1, "r": bad, "s": 2, "u": 3}
        with pytest.raises(DomainError, match="^cannot parse rational"):
            eval_exact(make_family("X4").poly, point)


class TestHash:
    def test_equal_polynomials_built_by_different_routes_hash_equal(self):
        x, r = var(PAR, "x"), var(PAR, "r")
        routes = [
            x * x + Fraction(1, 2) * r - x * x + Fraction(1, 2) * r + x * x,     # a sum
            (x + r) * (x - r) + r * r + r,                                      # a product
            Polynomial.from_numerators(PAR, {(2, 0, 0, 0, 0, 0): 6, (0, 0, 0, 1, 0, 0): 6}, 6),
        ]
        assert all(p == routes[0] for p in routes)
        assert len({hash(p) for p in routes}) == 1 and len(set(routes)) == 1

    @pytest.mark.parametrize("table", [XYZ, PAR], ids=["XYZ", "PAR"])
    @pytest.mark.parametrize("value", [0, 3, -7, Fraction(1, 2), Fraction(-5, 3)])
    def test_a_constant_is_found_where_its_value_is(self, table, value):
        # == compares a constant with an int or a Fraction by value, so sets and dicts must too
        p = Polynomial.constant(table, value)
        assert p == value and hash(p) == hash(value)
        assert p in {value} and value in {p} and {value: "v"}[p] == "v" and {p: "p"}[value] == "p"
        x = var(table, "x")
        assert (x - x) in {0} and Polynomial.zero(table) in {0} and (x + value - x) in {value}
        assert x not in {0, 1} and x + 1 != 1


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
    @settings(max_examples=60)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_distributivity(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @settings(max_examples=60)
    @given(poly_strategy(), poly_strategy())
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @settings(max_examples=40)
    @given(poly_strategy())
    def test_partials_commute(self, p):
        assert partial(partial(p, "x"), "y") == partial(partial(p, "y"), "x")

    @settings(max_examples=40)
    @given(poly_strategy(max_exp=1), poly_strategy(max_exp=1))
    def test_substitution_is_ring_hom(self, p, q):
        rep = var(XYZ, "x") + 2 * var(XYZ, "y")
        lhs = substitute_linear(p * q, "z", rep)
        rhs = substitute_linear(p, "z", rep) * substitute_linear(q, "z", rep)
        assert lhs == rhs

    @settings(max_examples=30)
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


# -- the ring operations against per-term Fraction arithmetic -------------------
#
# The reference functions below are the per-term Fraction implementations that
# the packed integer-numerator representation replaced.  They work on plain
# dicts from exponent tuples to Fractions and are the oracle for every public
# view of the results: terms, str, == and hash.  Each property test builds its
# inputs from one random source (see ``conftest``), on tables of 6 and 7
# variables (and of 3 for sums and products), with mixed denominators and with
# exponents both small and near the packing limit of the stored form.


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
    # a constant hashes as the value it equals; any other polynomial by the canonical
    # stored form, not the terms view
    if set(want) <= {(0,) * len(table)}:
        assert hash(got) == hash(Fraction(want.get((0,) * len(table), 0)))
    else:
        assert hash(got) == hash((table, den, frozenset(got._num.items())))
    if want:
        assert got.leading_term() == max(want.items(), key=lambda t: (sum(t[0]), t[0]))


def _degree(terms):
    return max((sum(e) for e in terms), default=0)


def _merged(pairs):
    """Exponent-tuple terms from ``(exps, coeff)`` pairs whose exponents may repeat."""
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_clean(out)


def _assert_partial_matches(got, table, want, orders):
    if max(orders, default=0) < 5:
        assert_matches_reference(got, table, want)
    else:   # coefficients near 65535! have no short decimal form
        assert dict(got.terms) == want and got.total_degree() == _degree(want)


_TABLES = pytest.mark.parametrize("table", [PAR, SEVEN], ids=["PAR", "SEVEN"])
_PROPERTY = drawn(40)
#: The three ways to restrict a quartic to a line: the variable solved for and the pair
_LINE_CHARTS = (("z", ("x", "y")), ("x", ("y", "z")), ("y", ("x", "z")))


class TestRingMatchesFractionReference:
    @pytest.mark.parametrize("table", [XYZ, PAR, SEVEN], ids=["XYZ", "PAR", "SEVEN"])
    @_PROPERTY
    @given(RANDOMS)
    def test_sums_and_products(self, table, rng):
        # operands up to half the packing limit, so some products cross it
        a, b = (random_terms(rng, table, LIMIT // 2 + 10) for _ in range(2))
        if rng.random() < 0.2:      # share most terms with opposite sign: cancellation
            b = _ref_add(_ref_scale(a, -1), b if rng.random() < 0.5 else {})
        pa, pb = Polynomial(table, a), Polynomial(table, b)
        assert_matches_reference(pa + pb, table, _ref_add(a, b))
        assert_matches_reference(pa - pb, table, _ref_add(a, _ref_scale(b, -1)))
        c = Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS))
        assert_matches_reference(pa * c, table, _ref_scale(a, c))
        assert_matches_reference(pa + c, table, _ref_add(a, _ref_clean({(0,) * len(table): c})))
        assert_matches_reference(pa + -pa, table, {})
        want = _ref_mul(a, b)
        if _degree(want) > LIMIT:
            with pytest.raises(DegreeError, match="65535"):
                pa * pb
        else:
            assert_matches_reference(pa * pb, table, want)

    def test_products_that_cancel_to_zero_and_reduce(self):
        x, y = var(XYZ, "x"), var(XYZ, "y")
        half, third = Fraction(1, 2), Fraction(1, 3)
        got = (x * half + y * third) * (x * 6 - y * 4) - (x * x * 3 - y * y * Fraction(4, 3))
        assert_matches_reference(got, XYZ, {})
        assert got.denominator == 1 and not got.numerators
        sixth = mono(XYZ, {"x": 1}, Fraction(1, 6)) + mono(XYZ, {"x": 1}, Fraction(1, 3))
        assert_matches_reference(sixth, XYZ, {(1, 0, 0): Fraction(1, 2)})
        assert sixth.denominator == 2

    @_TABLES
    @_PROPERTY
    @given(RANDOMS)
    def test_powers(self, table, rng):
        a = random_terms(rng, table, LIMIT // 3 + 10, max_size=3)
        n = rng.randint(0, 3)
        want = _ref_monomial_power(a, n, len(table))
        if _degree(want) > LIMIT:
            with pytest.raises(DegreeError, match="65535"):
                Polynomial(table, a) ** n
        else:
            assert_matches_reference(Polynomial(table, a) ** n, table, want)

    @_TABLES
    @_PROPERTY
    @given(RANDOMS)
    def test_partials(self, table, rng):
        # partial, and multi_partial against one tuple partial per variable in turn;
        # orders of 0, up to the term exponents and past them, and past the packing limit
        def order():
            return rng.randint(0, 4) if rng.random() < 0.5 else rng.randint(LIMIT - 25, LIMIT + 3)

        a = random_terms(rng, table)
        p = Polynomial(table, a)
        name, k = rng.choice(table.geometric), order()
        _assert_partial_matches(partial(p, name, k), table, ref_partial(a, table.index(name), k),
                                [k])
        orders = {rng.choice(table.geometric): order() for _ in range(rng.randint(0, 3))}
        want = a
        for name, k in orders.items():
            want = ref_partial(want, table.index(name), k)
        _assert_partial_matches(multi_partial(p, orders), table, want, orders.values())

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
    @given(RANDOMS)
    def test_convert(self, table, rng):
        a = random_terms(rng, table)
        # roles swapped, orders reversed, one variable renamed and one added
        dst = VarTable(tuple(reversed(table.parameters)),
                       tuple(reversed(table.geometric[1:])) + ("x2", "extra"))
        rename = {"x": "x2"}
        got = convert(Polynomial(table, a), dst, rename)
        assert_matches_reference(got, dst, _ref_convert(a, table, dst, rename))
        assert_matches_reference(convert(got, table, {"x2": "x"}), table, a)
        # two parameters renamed onto x and y, which do not occur, the others kept:
        # the parameter-only part of small terms
        dst = VarTable(table.geometric, table.parameters[2:])
        rename = dict(zip(table.parameters, "xy"))
        b = _merged(((0, 0, 0) + e[3:], c) for e, c in random_terms(rng, table, 0, small=3).items())
        moved = convert(Polynomial(table, b), dst, rename)
        want = _ref_convert(b, table, dst, rename)
        assert_matches_reference(moved, dst, want)

    @_TABLES
    @_PROPERTY
    @given(RANDOMS)
    def test_geometric_coefficients(self, table, rng):
        a = random_terms(rng, table)
        got = Polynomial(table, a).geometric_coefficients()
        want = _ref_geometric_coefficients(a, table)
        assert list(got) == list(want)
        for geo, w in want.items():
            assert_matches_reference(got[geo], table, w)

    @_TABLES
    @_PROPERTY
    @given(RANDOMS)
    def test_restrict_to_line(self, table, rng):
        # parameter exponents small or up to 4 below the packing limit, which the
        # unknowns reach; fresh unknowns t1, t2, and the pair as its own unknowns
        terms = {}
        for _ in range(rng.randint(0, 12)):
            i = rng.randint(0, 4)
            j = rng.randint(0, 4 - i)
            pars = random_exponents(rng, len(table.parameters), LIMIT - 4, small=2)
            terms[(i, j, 4 - i - j) + pars] = Fraction(rng.randint(-30, 30),
                                                       rng.choice(DENOMINATORS))
        a = _ref_clean(terms)
        sub, pair = rng.choice(_LINE_CHARTS)
        line = VarTable(table.geometric, table.parameters + ("t1", "t2"))
        got = restrict_to_line(Polynomial(table, a), line, sub, pair, ("t1", "t2"))
        want = _ref_restrict(_ref_convert(a, table, line, {}), line, sub, pair, ("t1", "t2"))
        for g, w in zip(got, want):
            assert_matches_reference(g, line, w)
        got = restrict_to_line(Polynomial(table, a), table, sub, pair, pair)
        for g, w in zip(got, _ref_restrict(a, table, sub, pair, pair)):
            assert_matches_reference(g, table, w)

    @_TABLES
    @_PROPERTY
    @given(RANDOMS)
    def test_substitute(self, table, rng):
        # either terms up to the packing limit whose substituted exponents stay
        # small, with linear replacements, or small terms with multilinear ones that
        # may hold the substituted variable, plus values and a linear change of
        # coordinates
        names = rng.choice([("x",), ("y", "x"), ("z", table.names[-1])])
        slots = [table.index(n) for n in names]
        unit = [tuple(int(i == j) for j in range(len(table))) for i in range(-1, len(table))]
        small = rng.random() < 0.5
        a = _merged((tuple(e % 4 if i in slots else e for i, e in enumerate(exps)), c)
                    for exps, c in random_terms(rng, table, 0 if small else LIMIT,
                                                small=2 if small else 4).items())
        reps = {n: random_terms(rng, table, 0, 3, small=1) if small else
                _ref_clean({rng.choice(unit): Fraction(rng.randint(-30, 30),
                                                       rng.choice(DENOMINATORS))
                            for _ in range(rng.randint(0, 3))}) for n in names}
        p = Polynomial(table, a)
        got = substitute(p, {n: Polynomial(table, r) for n, r in reps.items()})
        assert_matches_reference(got, table, _ref_substitute(a, table, reps))
        if len(names) == 1:
            assert substitute_linear(p, names[0], Polynomial(table, reps[names[0]])) == got
        if small:
            values = {n: Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
                      for n in rng.sample(table.names, rng.randint(0, 3))}
            constants = {n: _ref_clean({(0,) * len(table): v}) for n, v in values.items()}
            assert_matches_reference(substitute_values(p, values), table,
                                     _ref_substitute(a, table, constants))
            matrix = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(3)]
                      for _ in range(3)]
            images = {n: _ref_clean({unit[1 + m]: c for m, c in enumerate(row)})
                      for n, row in zip(table.geometric, matrix)}
            assert_matches_reference(compose_linear(p, matrix), table,
                                     _ref_substitute(a, table, images))

    @_TABLES
    @_PROPERTY
    @given(RANDOMS)
    def test_sorted_terms_are_descending_by_degree_then_exponents(self, table, rng):
        a = random_terms(rng, table, max_size=10)
        want = sorted(a.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        assert Polynomial(table, a).sorted_terms() == want

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
# tests below pin the range check at the field limit; the property tests above
# compare every operation that works on the packed keys with the exponent-tuple
# reference functions.

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


# each malformed argument that raised a plain ValueError, which ``except
# QuarticsError`` missed; the error is still a ValueError for older callers
MALFORMED = {
    "at least one geometric": lambda: VarTable(()),
    "not unique": lambda: VarTable(("x", "x")),
    "does not match": lambda: Polynomial(XYZ, {(1, 0): 1}),
    "negative exponent": lambda: Polynomial(XYZ, {(-1, 0, 0): 1}),
    "negative power": lambda: var(XYZ, "x") ** -1,
    "negative differentiation": lambda: multi_partial(var(XYZ, "x"), {"x": -1}),
    "not injective": lambda: convert(var(XYZ, "x") + var(XYZ, "y"), XYZ, {"x": "y"}),
    "3x3": lambda: compose_linear(var(XYZ, "x"), [[1, 0], [0, 1]]),
    "not square": lambda: det(()),
}


@pytest.mark.parametrize("message", MALFORMED)
def test_malformed_arguments_are_quartics_errors(message):
    with pytest.raises(QuarticsError, match=message) as info:
        MALFORMED[message]()
    assert isinstance(info.value, ValueError)


#: every module of the package but ``polyring``, which alone knows a packed key's fields and
#: the layout of a plan's ints: the others read keys through ``VarTable._pack``, ``_unpack``
#: and ``_unit``, and build plans through ``_Stages``
OUTSIDE_POLYRING = sorted(path for path in Path(quartics.__file__).parent.glob("*.py")
                          if path.name != "polyring.py")


@pytest.mark.parametrize("path", OUTSIDE_POLYRING, ids=lambda path: path.stem)
def test_only_polyring_reads_the_key_fields_and_plan_layout(path):
    source = path.read_text(encoding="utf-8")
    assert [name for name in ("_LIMIT", "._top", "._shift", "_flatten") if name in source] == []

"""Binary invariants, contravariants, covariants and the six invariants,
anchored by exact reference values and checked by independent closed forms."""

import random
from fractions import Fraction

import pytest

from quartics import diffcalc, dixmier, polyring
from quartics.dixmier import (I6_CORRECTION, contravariants,
                              covariants, delta_binary, dixmier_invariants,
                              psi_binary, sigma_binary)
from quartics.diffcalc import det, diff_pair, hessian, transvectant
from quartics.errors import DegreeError
from quartics.polyring import (Polynomial, VarTable, compose_linear, convert,
                               substitute_linear, substitute_values)
from quartics.symfam import make_family, make_generic

from conftest import (XY, XYZ, homogenize, random_binary_form, random_fraction, random_quartic,
                      random_unimodular)

PQ = VarTable(("x", "y"), ("p", "q"))
XYZ_PQ = VarTable(("x", "y", "z"), ("p", "q"))


def mono(table, powers, c=1):
    return Polynomial.monomial(table, powers, c)


def random_parameter_form(rng, table, degree):
    """A binary or ternary form of *degree* whose coefficients are random
    polynomials in the parameters ``p, q``."""
    geo = table.geometric
    poly = Polynomial.zero(table)
    for exps in _compositions(degree, len(geo)):
        for _ in range(2):
            powers = dict(zip(geo, exps), p=rng.randint(0, 2), q=rng.randint(0, 1))
            poly = poly + mono(table, powers, random_fraction(rng))
    return poly


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def transvectant_contravariants(f):
    """The transvectant construction of ``sigma`` and ``psi``: restrict ``f``
    to ``z = -du*x - dv*y``, take ``1/2 (g,g)^4`` and ``1/6 (g,(g,g)^2)^4``,
    and homogenize in the dual coordinates.  The reference for the closed
    forms that :func:`contravariants` evaluates."""
    p = getattr(f, "poly", f)
    table = p.table
    x, y, z = table.geometric
    work = VarTable(table.geometric, table.parameters + ("du", "dv"))
    line = -(Polynomial.variable(work, "du") * Polynomial.variable(work, x)
             + Polynomial.variable(work, "dv") * Polynomial.variable(work, y))
    g = substitute_linear(convert(p, work), z, line)
    sig = transvectant(g, g, 4, (x, y)) * Fraction(1, 2)
    psi = transvectant(g, transvectant(g, g, 2, (x, y)), 4, (x, y)) * Fraction(1, 6)

    def promote(expr, degree):
        dual = convert(expr, work, {"du": x, "dv": y})
        return convert(homogenize(dual, z, degree), table)

    return promote(sig, 4), promote(psi, 6)


def classical_S(P):
    """Independent closed form a0 a4 - a1 a3 / 4 + a2^2 / 12."""
    a = [P.coefficient({"x": 4 - i, "y": i}) for i in range(5)]
    return a[0] * a[4] - Fraction(1, 4) * a[1] * a[3] + Fraction(1, 12) * a[2] ** 2


def classical_T(P):
    """Independent closed form, the 3x3 catalecticant determinant."""
    a = [P.coefficient({"x": 4 - i, "y": i}) for i in range(5)]
    return (Fraction(1, 6) * a[0] * a[2] * a[4]
            + Fraction(1, 48) * a[1] * a[2] * a[3]
            - Fraction(1, 16) * a[0] * a[3] ** 2
            - Fraction(1, 16) * a[1] ** 2 * a[4]
            - Fraction(1, 216) * a[2] ** 3)


class TestBinaryInvariants:
    def test_sigma_values(self):
        assert sigma_binary(mono(XY, {"x": 4}) + mono(XY, {"y": 4})) == 1
        assert sigma_binary(mono(XY, {"x": 4})).is_zero()
        squared_circle = mono(XY, {"x": 4}) + mono(XY, {"x": 2, "y": 2}, 2) + mono(XY, {"y": 4})
        assert sigma_binary(squared_circle) == Fraction(4, 3)

    def test_psi_values(self):
        assert psi_binary(mono(XY, {"x": 4})).is_zero()
        fermat = mono(XY, {"x": 4}) + mono(XY, {"y": 4})
        assert psi_binary(fermat).is_zero()
        assert delta_binary(fermat) == 1  # distinct roots

    def test_matches_classical_closed_forms(self):
        rng = random.Random(51)
        for _ in range(25):
            P = random_binary_form(rng, 4)
            assert sigma_binary(P) == classical_S(P)
            assert psi_binary(P) == classical_T(P)

    def test_delta_zero_on_fourth_power(self):
        assert delta_binary(mono(XY, {"x": 4})).is_zero()

    def test_delta_zero_with_forced_double_root(self):
        x, y = Polynomial.variable(XY, "x"), Polynomial.variable(XY, "y")
        P = (x - y) ** 2 * (x + y) * (x - 2 * y)
        assert delta_binary(P).is_zero()

    def test_transvectant_definitions_with_polynomial_coefficients(self):
        rng = random.Random(59)
        for _ in range(8):
            P = random_parameter_form(rng, PQ, 4)
            assert sigma_binary(P) == transvectant(P, P, 4) * Fraction(1, 2)
            assert psi_binary(P) == transvectant(P, transvectant(P, P, 2), 4) * Fraction(1, 6)

    @pytest.mark.parametrize("invariant", [sigma_binary, psi_binary, delta_binary])
    @pytest.mark.parametrize("powers", [
        [{"x": 3}, {"y": 3}],            # cubic
        [{"x": 5}, {"x": 1, "y": 4}],    # quintic
        [{"x": 4}, {"x": 1, "y": 2}],    # not homogeneous
    ])
    def test_non_quartic_rejected(self, invariant, powers):
        P = sum((mono(XY, m) for m in powers), Polynomial.zero(XY))
        with pytest.raises(DegreeError, match=r"outside \(x,y\) degree 4"):
            invariant(P)

    def test_one_variable_rejected(self):
        with pytest.raises(DegreeError, match="needs two geometric variables"):
            sigma_binary(mono(VarTable(("x",)), {"x": 4}))


class TestContravariants:
    def test_equals_transvectant_construction(self):
        rng = random.Random(60)
        forms = [random_quartic(rng) for _ in range(12)]
        forms += [make_family(name) for name in ("X4", "X16", "X24", "X96")]
        forms.append(random_parameter_form(rng, XYZ_PQ, 4))
        for f in forms:
            assert contravariants(f) == transvectant_contravariants(f)

    def test_fermat(self):
        f = make_family("X96")
        sigma, psi = contravariants(f)
        t = f.poly.table
        assert sigma == mono(t, {"x": 4}) + mono(t, {"y": 4}) + mono(t, {"z": 4})
        assert psi == mono(t, {"x": 2, "y": 2, "z": 2})

    def test_swap_equivariance(self):
        rng = random.Random(53)
        swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        for _ in range(3):
            f = random_quartic(rng)
            s1, p1 = contravariants(compose_linear(f, swap))
            s0, p0 = contravariants(f)
            assert s1 == compose_linear(s0, swap)
            assert p1 == compose_linear(p0, swap)

    @pytest.mark.parametrize("form", [
        mono(XYZ, {"x": 3}) + mono(XYZ, {"y": 2, "z": 1}),      # a cubic
        mono(XYZ, {"x": 4}) + mono(XYZ, {"y": 3}),              # not homogeneous
        mono(XY, {"x": 4}) + mono(XY, {"y": 4}),                # binary
    ])
    def test_non_quartic_rejected(self, form):
        info = dixmier._contravariant_plan.cache_info()
        with pytest.raises(DegreeError, match="homogeneous ternary quartic"):
            contravariants(form)
        assert dixmier._contravariant_plan.cache_info() == info     # before any plan

    def test_fold_past_the_packing_limit(self):
        # sigma = -a1 a3 / 4 = -r^(2n) / 4 has no x or y, so padded with z^4 its degree
        # is 2n + 4, past 65,535 from n = 32,766; psi is 0, as a0, a2 and a4 are
        table = VarTable(("x", "y", "z"), ("r",))

        def form(n):
            return mono(table, {"x": 3, "y": 1, "r": n}) + mono(table, {"x": 1, "y": 3, "r": n})

        sigma = mono(table, {"z": 4, "r": 65530}, Fraction(-1, 4))
        assert contravariants(form(32765)) == (sigma, 0)
        with pytest.raises(DegreeError, match="^degree 65536 exceeds the packing limit 65535$"):
            contravariants(form(32766))

    def test_psi_symmetric_for_fermat(self):
        _, psi = contravariants(make_family("X96"))
        for perm in ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]):
            assert compose_linear(psi, perm) == psi


class TestCovariants:
    def test_fermat_hessian_determinant(self):
        f = make_family("X96")
        rho, tau, hdet = covariants(f)
        assert hdet == mono(f.poly.table, {"x": 2, "y": 2, "z": 2}, 1728)
        assert rho.is_zero() and tau.is_zero()

    def test_generic_degrees(self):
        rng = random.Random(54)
        f = random_quartic(rng)
        rho, tau, hdet = covariants(f)
        assert rho.geometric_degree() == 2
        assert tau.geometric_degree() == 2
        assert hdet.geometric_degree() == 6

    def test_rho_coefficient_homogeneity(self):
        rng = random.Random(55)
        f = random_quartic(rng)
        rho1, _, _ = covariants(f)
        rho2, _, _ = covariants(f * 2)
        assert rho2 == rho1 * 16


class TestInvariants:
    def test_fermat_anchors(self):
        inv = dixmier_invariants(make_family("X96"))
        assert inv.I3 == 72
        assert inv.I6 == 13822
        assert inv.I9.is_zero() and inv.I12.is_zero()
        assert inv.I15.is_zero() and inv.I18.is_zero()

    def test_half_hessian_convention_would_fail(self):
        # the alternative 1/2 scale misses the I6 anchor by a wide margin,
        # which is what pins the bare second partials; det of the halved
        # 3x3 Hessian is det(H) / 8
        f = make_family("X96")
        _, psi = contravariants(f)
        halved = det(hessian(f.poly)) * Fraction(1, 8)
        i3 = diff_pair(contravariants(f)[0], f.poly)
        i6_half = diff_pair(psi, halved) - i3 * i3 * I6_CORRECTION
        assert i6_half.constant_value() != 13822
        assert i6_half.constant_value() == 1726  # 13824/8 - 2

    def test_x24_against_reference_table(self):
        from quartics.symfam import golden_compare

        report = golden_compare(dixmier_invariants(make_family("X24")), "X24")
        assert report.ok
        assert all(g == 1 for g in report.gamma.values())

    def test_specialization_u_equals_s(self):
        inv4 = dixmier_invariants(make_family("X4"))
        inv16 = dixmier_invariants(make_family("X16"))
        t4 = inv4.I3.table
        s_var = Polynomial.variable(t4, "s")
        for k, v4 in inv4.as_dict().items():
            specialized = substitute_linear(v4, "u", s_var)
            lifted = convert(inv16.as_dict()[k], t4)
            assert specialized == lifted, f"I{k} mismatch under u -> s"

    def test_scaling_homogeneity(self):
        rng = random.Random(56)
        f = random_quartic(rng)
        base = dixmier_invariants(f)
        for lam in (2, 3):
            scaled = dixmier_invariants(f * lam)
            for k, v in base.as_dict().items():
                assert scaled.as_dict()[k] == v * Fraction(lam) ** k

    def test_sl3_invariance(self):
        rng = random.Random(57)
        for _ in range(3):
            f = random_quartic(rng)
            base = dixmier_invariants(f)
            g = random_unimodular(rng)
            moved = dixmier_invariants(compose_linear(f, g))
            for k, v in base.as_dict().items():
                assert moved.as_dict()[k] == v, f"I{k} not invariant"

    def test_parameter_symmetry(self):
        from quartics.symfam import is_symmetric

        inv = dixmier_invariants(make_family("X4"))
        for k, v in inv.as_dict().items():
            assert is_symmetric(v), f"I{k} not symmetric in (r,s,u)"

    def test_geometric_degree_zero(self):
        rng = random.Random(58)
        inv = dixmier_invariants(random_quartic(rng))
        for v in inv.as_dict().values():
            assert v.geometric_degree() == 0

    def test_answers_do_not_depend_on_the_pairing_plans_kept(self, compiles):
        # diff_pair keeps a plan per pair of key sets, j_bracket a two-stage
        # plan per pair of key sets, contravariants, det H and the restriction a staged
        # plan per key set,
        # each run compiled from its _HOT-th use, and multi_partial an operator x^a per
        # table and orders: the invariants of the families and of seeded generic quartics
        # are the same with nothing kept, with their plans and operators kept, with the
        # plans compiled, and after other pairs of key sets pushed those plans out and the
        # staged plans were dropped
        rng = random.Random(59)
        forms = [make_family(name) for name in ("X4", "X16", "X24", "X96")]
        forms += [make_generic([random_fraction(rng, 1000, 100) for _ in range(15)])
                  for _ in range(3)]
        plans, operators = polyring._pairing, polyring._operator
        staged = (diffcalc._bracket, diffcalc._hessian_det_plan, dixmier._contravariant_plan,
                  polyring._restriction)

        def invariants():
            return [dixmier_invariants(f).as_dict() for f in forms]

        def misses(caches):
            return [cache.cache_info().misses for cache in caches]

        for cache in (plans, operators, *staged):
            cache.cache_clear()
        cold = invariants()
        built, made = plans.cache_info().misses, operators.cache_info().misses
        stages_built = misses(staged)
        warm = invariants()
        assert plans.cache_info().misses == built       # every plan reused
        assert misses(staged) == stages_built and min(stages_built) > 0   # no staged plan built
        assert operators.cache_info().misses == made    # every operator reused
        hot = [invariants() for _ in range(polyring._HOT)]
        compiled = len(compiles)
        assert compiled > 0 and plans.cache_info().misses == built
        for k in range(plans.cache_info().maxsize):
            diff_pair(mono(XYZ, {"x": k}), mono(XYZ, {"x": k + 1}))
        for cache in staged:
            cache.cache_clear()
        before = plans.cache_info().misses
        evicted = [invariants() for _ in range(polyring._HOT)]
        assert plans.cache_info().misses - before == built      # every plan built again
        assert len(compiles) == 2 * compiled       # and compiled again
        assert cold == warm == hot[0] == hot[-1] == evicted[0] == evicted[-1]

    def test_numeric_equals_symbolic_substitution(self):
        point = (Fraction(3), Fraction(-1, 2), Fraction(7, 3))
        inv_sym = dixmier_invariants(make_family("X4"))
        inv_num = dixmier_invariants(make_family("X4", point))
        subs = dict(zip(("r", "s", "u"), point))
        for k, v in inv_sym.as_dict().items():
            want = substitute_values(v, subs).constant_value()
            assert inv_num.as_dict()[k].constant_value() == want

"""Determinantal representation solver: normal form, branch construction,
residual certification and the symbolic determinant expansion."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from quartics.detrep import (E_SYSTEM, OEQ_SYSTEM, DetRep, compute_pq,
                             determinant_expand, residuals_e_system,
                             solve_detrep, symbolic_pencil, _determinant_residual, _SYS_TABLE)
from quartics.errors import DegeneracyError, DomainError, SolverError
from quartics.numroots import roots
from quartics.polyring import Polynomial, convert, eval_complex, substitute_values
from quartics.symfam import make_family

from conftest import random_fraction


class TestNormalForm:
    """f(x, 0, 0) = x^4 and f(x, y, 0) = (x + py)(x - py)(x + qy)(x - qy)."""

    @staticmethod
    def _section_roots_vanish(family, params, p, q):
        f = make_family(family, params).poly
        assert f.coefficient({"x": 4}) == 1
        for beta in (p, -p, q, -q):
            # x = -beta y is a root of f(x, 1, 0)
            assert abs(eval_complex(f, {"x": -beta, "y": 1, "z": 0})) < 1e-9

    def test_x4_beta_structure(self):
        p, q = compute_pq(5)
        self._section_roots_vanish("X4", (5, 1, 7), p, q)
        assert len({(round(v.real, 8), round(v.imag, 8)) for v in (p, -p, q, -q)}) == 4

    def test_fermat_betas_are_fourth_roots(self):
        p, q = compute_pq(0)
        self._section_roots_vanish("X96", (), p, q)
        for b in (p, -p, q, -q):
            assert abs(b ** 4 + 1) < 1e-10


class TestComputePQ:
    def test_reference_value(self):
        p, q = compute_pq(5)
        # p^2 q^2 = (25 - 21)/4 = 1
        assert abs(p * p * q * q - 1) < 1e-12
        assert abs(p * p + q * q + 5) < 1e-12

    def test_identities_random(self):
        rng = random.Random(81)
        for _ in range(100):
            r = random_fraction(rng, span=20, den=7)
            if abs(r) == 2:
                continue
            p, q = compute_pq(r)
            assert abs(p * p * q * q - 1) < 1e-12
            assert abs(p * p + q * q + float(r)) < 1e-12

    def test_degenerate(self):
        for r in (2, -2):
            with pytest.raises(DegeneracyError):
                compute_pq(r)

    @pytest.mark.parametrize("r", [10 ** 4, -(10 ** 4), 222633, 10 ** 100, -(10 ** 100), 10 ** 150])
    def test_identities_without_cancellation(self, r):
        # q = 1/p and the larger root of z^2 + r z + 1 for p^2: nothing cancels
        p, q = compute_pq(r)
        assert abs(p * q - 1) < 1e-15
        assert abs(p * p * q * q - 1) < 1e-15
        assert abs(p * p + q * q + float(r)) < 1e-15 * abs(float(r))
        assert abs(p) >= abs(q)


class TestSolver:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_bad_tolerance_rejected(self, value):
        with pytest.raises(DomainError, match="^tol must be a finite number > 0"):
            solve_detrep(1, 2, 3, tol=value)

    def test_fermat_t_roots(self):
        # at r = s = u = 0 the t quadratic is 8t^2 + 8t + 4 with roots (-1 +- i)/2
        got = sorted(roots([4, 8, 8]), key=lambda z: z.imag)
        assert abs(got[0] - complex(-0.5, -0.5)) < 1e-12
        assert abs(got[1] - complex(-0.5, 0.5)) < 1e-12
        rep = solve_detrep(0, 0, 0)
        b, c, d, e = (rep.off_diagonal()[i] for i in (1, 3, 2, 4))
        t = c * d
        assert min(abs(t - complex(-0.5, 0.5)), abs(t - complex(-0.5, -0.5))) < 1e-10

    def test_residual_keys_in_order(self):
        # repr(DetRep) shows this order, and the certify digest hashes that repr
        rep = solve_detrep(1, 3, 5)
        assert list(rep.residuals) == [*(f"e{i}" for i in range(1, 7)),
                                       *(f"oeq{i}" for i in range(1, 7)),
                                       "pq_identity", "p2q2_sum", "det"]
        assert list(residuals_e_system(rep, 1, 3, 5)) == list(rep.residuals)[:-1]

    @pytest.mark.parametrize("rsu", [(0, 0, 0), (1, 2, 3), (5, 1, 7),
                                     (Fraction(9, 2), -3, Fraction(22, 7))])
    def test_certified(self, rsu):
        rep = solve_detrep(*rsu)
        assert max(rep.residuals[f"e{i}"] for i in range(1, 7)) < 1e-10
        assert rep.residuals["det"] < 1e-8
        assert rep.residuals["pq_identity"] < 1e-12
        assert rep.residuals["p2q2_sum"] < 1e-12

    def test_be_cd_relation(self):
        rep = solve_detrep(3, 4, 5)
        a, b, d, c, e, f = rep.off_diagonal()
        assert abs(b * e - c * d - 1) < 1e-10  # the chosen branch of (be - cd)^2 = 1
        assert a == 0 and f == 0

    def test_matrix_shape(self):
        rep = solve_detrep(1, 2, 3)
        assert rep.a_matrix == tuple(
            tuple(1.0 + 0j if i == j else 0j for j in range(4)) for i in range(4)
        )
        diag = rep.b_diagonal
        assert abs(diag[0] + diag[1]) < 1e-15 and abs(diag[2] + diag[3]) < 1e-15
        for i in range(4):
            assert rep.c_matrix[i][i] == 0
            for j in range(4):
                assert rep.c_matrix[i][j] == rep.c_matrix[j][i]

    def test_random_parameters(self):
        rng = random.Random(82)
        done = 0
        while done < 10:
            r = random_fraction(rng, span=50, den=5)
            s = random_fraction(rng, span=50, den=5)
            u = random_fraction(rng, span=50, den=5)
            if abs(r) == 2:
                continue
            rep = solve_detrep(r, s, u)
            assert max(rep.residuals[f"e{i}"] for i in range(1, 7)) < 1e-10
            assert rep.residuals["det"] < 1e-8
            done += 1

    @pytest.mark.parametrize("seed", [None, 2.5, True, False, "7", Fraction(3)])
    def test_seed_that_is_not_an_int_is_a_domain_error(self, seed):
        # seed=None drew the det points from the system's randomness, so two
        # identical calls gave different residuals
        with pytest.raises(DomainError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
            solve_detrep(1, 2, 3, seed=seed)

    def test_int_seed_gives_the_same_residuals(self):
        a, b = (solve_detrep(1, 2, 3, seed=2 ** 70) for _ in "ab")
        assert a.residuals == b.residuals

    def test_determinism(self):
        a = solve_detrep(3, -1, Fraction(7, 2))
        b = solve_detrep(3, -1, Fraction(7, 2))
        assert a.branch == b.branch
        assert a.c_matrix == b.c_matrix
        assert a.b_diagonal == b.b_diagonal

    @pytest.mark.parametrize("rsu", [("x", 1, 1), (1, "nan", 1), (1, 2, None),
                                     (float("inf"), 1, 1), (1, "1/0", 3)])
    def test_non_rational_parameter_is_a_domain_error(self, rsu):
        bad = next(v for v in rsu if not isinstance(v, int))
        with pytest.raises(DomainError, match=f"^cannot parse rational {re.escape(repr(bad))}"):
            solve_detrep(*rsu)

    def test_pq_identity_above_the_tolerance_is_a_solver_error(self):
        # |p^2 q^2 - 1| is a rounding error of about 1e-16, so tol 1e-20 cannot hold
        want = r"pq_identity \|p\^2 q\^2 - 1\| = .* exceeds tol 1e-20"
        with pytest.raises(SolverError, match=want):
            solve_detrep(1, 2, 3, tol=1e-20)

    def test_degenerate_r(self):
        for r in (2, -2):
            with pytest.raises(DegeneracyError):
                solve_detrep(r, 0, 0)

    @pytest.mark.parametrize("bad", ["x", "nan", None, float("inf"), "1/0"])
    def test_helpers_name_a_non_rational_parameter(self, bad):
        # compute_pq and both residual checks convert their parameters as
        # solve_detrep does, so a bad value is a DomainError, never a bare ValueError
        rep = solve_detrep(1, 3, 5)
        calls = [lambda: compute_pq(bad),
                 lambda: residuals_e_system(rep, bad, 1, 5),
                 lambda: residuals_e_system(rep, 1, 3, bad),
                 lambda: _determinant_residual(rep, 1, bad, 5, 0)]
        for call in calls:
            with pytest.raises(DomainError, match=f"^cannot parse rational {re.escape(repr(bad))}"):
                call()

    @pytest.mark.parametrize("rsu", [
        (3, "1e200", 1),        # the t quadratic's coefficients do not fit a double
        ("1e400", 1, 3),        # r itself does not
        ("1e155", 1, 3),        # r does, r^2 does not
        ("1e140", "1e140", "1e140"),  # every branch residual is NaN
    ])
    def test_double_overflow_is_a_solver_error(self, rsu):
        with pytest.raises(SolverError, match="overflows double precision"):
            solve_detrep(*(Fraction(v) for v in rsu))

    def test_squaring_consistency(self):
        # a branch passing the unsquared condition also satisfies its square
        rep = solve_detrep(5, 1, 7)
        _, b, d, c, e, _ = rep.off_diagonal()
        p, q = rep.p, rep.q
        lhs = (b * b + e * e + 2 * b * e) * (b * b + e * e - 2 * b * e) * (q + p) ** 2
        rhs = (c * c + d * d + 2 * c * d) * (c * c + d * d - 2 * c * d) * (q - p) ** 2
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


class TestResiduals:
    def test_perturbation_first_order(self):
        rep = solve_detrep(5, 1, 7)
        a, b, d, c, e, f = rep.off_diagonal()
        delta = 1e-3
        perturbed_c = (
            (0j, 0j, b + delta, d),
            (0j, 0j, c, e),
            (b + delta, c, 0j, 0j),
            (d, e, 0j, 0j),
        )
        bad = DetRep(rep.b_diagonal, perturbed_c, rep.branch, {})
        res = residuals_e_system(bad, 5, 1, 7)
        want = abs(2 * b * delta + delta ** 2)
        assert abs(res["e3"] - want) < 1e-9

    def test_e4_e5_vanish_identically_when_a_f_zero(self):
        zero = Polynomial.zero(_SYS_TABLE)
        for gen in (E_SYSTEM[3], E_SYSTEM[4]):
            assert substitute_values(gen, {"a": 0, "f": 0}) == zero

    def test_diagonal_vanishing_is_exact(self):
        # the z-derivative of the family quartic vanishes identically on z = 0,
        # which is what forces the zero diagonal of C
        from quartics.polyring import partial

        f = make_family("X4").poly
        assert substitute_values(partial(f, "z"), {"z": 0}).is_zero()


class TestSymbolicDeterminant:
    @staticmethod
    def _zero_matrix():
        zero = Polynomial.zero(_SYS_TABLE)
        return tuple(tuple(zero for _ in range(4)) for _ in range(4))

    def test_identity_pencil(self):
        A, _, _ = symbolic_pencil()
        det = determinant_expand(A, self._zero_matrix(), self._zero_matrix())
        assert det == Polynomial.monomial(_SYS_TABLE, {"x": 4})

    def test_xy_pencil_factors(self):
        A, B, _ = symbolic_pencil()
        det = determinant_expand(A, B, self._zero_matrix())
        x = Polynomial.variable(_SYS_TABLE, "x")
        y = Polynomial.variable(_SYS_TABLE, "y")
        p = Polynomial.variable(_SYS_TABLE, "p")
        q = Polynomial.variable(_SYS_TABLE, "q")
        want = (x * x - p * p * y * y) * (x * x - q * q * y * y)
        assert det == want

    def test_reproduces_coefficient_system(self):
        det = determinant_expand(*symbolic_pencil())
        f4 = convert(make_family("X4").poly, _SYS_TABLE)
        diff = det - f4
        groups = {k: v for k, v in diff.geometric_coefficients().items()
                  if not v.is_zero()}
        slots = {
            (1, 1, 2): OEQ_SYSTEM[0], (0, 2, 2): OEQ_SYSTEM[1],
            (2, 0, 2): OEQ_SYSTEM[2], (0, 1, 3): OEQ_SYSTEM[3],
            (1, 0, 3): OEQ_SYSTEM[4], (0, 0, 4): OEQ_SYSTEM[5],
            (2, 2, 0): OEQ_SYSTEM[6], (0, 4, 0): OEQ_SYSTEM[7],
        }
        assert set(groups) == set(slots)
        for key, want in slots.items():
            assert groups[key] == want


def _var(name):
    return Polynomial.variable(_SYS_TABLE, name)


class TestDerivedSystems:
    """OEQ_SYSTEM and E_SYSTEM are derived from the package's own pencil; these
    checks rebuild them without ``symbolic_pencil``, ``det`` or
    ``determinant_expand``."""

    def test_leibniz_determinant_minus_f_is_the_raw_system(self):
        x, y, z, p, q, a, b, c, d, e, f, r, s, u = map(_var, _SYS_TABLE.names)
        zero = Polynomial.zero(_SYS_TABLE)
        pencil = (
            (x + y * p, z * a, z * b, z * d),
            (z * a, x - y * p, z * c, z * e),
            (z * b, z * c, x + y * q, z * f),
            (z * d, z * e, z * f, x - y * q),
        )
        det = zero
        for perm in itertools.permutations(range(4)):
            inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
            term = Polynomial.constant(_SYS_TABLE, (-1) ** inversions)
            for i in range(4):
                term = term * pencil[i][perm[i]]
            det = det + term
        quartic = (x**4 + y**4 + z**4 + r * x**2 * y**2 + s * y**2 * z**2
                   + u * z**2 * x**2)
        groups = {k: v for k, v in (det - quartic).geometric_coefficients().items()
                  if not v.is_zero()}
        slots = ((1, 1, 2), (0, 2, 2), (2, 0, 2), (0, 1, 3), (1, 0, 3), (0, 0, 4),
                 (2, 2, 0), (0, 4, 0))
        assert set(groups) == set(slots)
        for key, row in zip(slots, OEQ_SYSTEM, strict=True):
            assert groups[key] == row

    def test_reduced_rows_are_the_raw_rows(self):
        P, Q, B, C, D, E = map(_var, "pqbcde")
        oeq, e_sys = OEQ_SYSTEM, E_SYSTEM
        assert len(e_sys) == 6
        assert e_sys[0] == oeq[0]
        # the one row simplified by p*q = 1
        assert e_sys[1] - oeq[1] == (1 - P * Q) * (C**2 + D**2 - B**2 - E**2)
        assert e_sys[2] == -oeq[2]
        assert 2 * e_sys[3] == oeq[3]
        assert 2 * e_sys[4] == oeq[4]
        assert e_sys[5] == oeq[5]

    def test_last_raw_rows_are_the_identities_of_p_and_q(self):
        # residuals_e_system reports them as pq_identity and p2q2_sum
        P, Q, R = map(_var, "pqr")
        assert OEQ_SYSTEM[7] == P**2 * Q**2 - 1
        assert OEQ_SYSTEM[6] == -(P**2 + Q**2 + R)

"""Closed-form root finder: correctness against residuals, determinism,
degree guards and the palindromic reduction."""

import cmath
import random
from fractions import Fraction

import pytest

from quartics.errors import DegreeError
from quartics.numroots import (biquadratic_roots, eval_poly, newton_polish,
                               palindromic_quartic_roots, roots)


class TestRoots:
    def test_quadratic(self):
        got = roots([-1, 0, 1])  # x^2 - 1
        assert got == sorted([1.0 + 0j, -1.0 + 0j], key=lambda z: (z.real, z.imag))

    def test_quartic_roots_of_minus_one(self):
        got = palindromic_quartic_roots(1, 0, 0)  # x^4 + 1
        for z in got:
            assert abs(z ** 4 + 1) < 1e-12
        assert len(got) == 4
        assert len({(round(z.real, 6), round(z.imag, 6)) for z in got}) == 4

    def test_family_biquadratic_roots_certify(self):
        # the a=0 component of X4 at (1, 2, 3): (u^2-4) b^4 + (2ru-4s) b^2 + r^2-4
        coeffs = [1 - 4, 0, 2 * 3 - 4 * 2, 0, 9 - 4]
        got = biquadratic_roots(coeffs[::2])
        assert len(got) == 4
        for z in got:
            assert abs(eval_poly(coeffs, z)) < 1e-10

    def test_residual_bound_random(self):
        rng = random.Random(41)
        for _ in range(30):
            deg = rng.randint(1, 2)
            coeffs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(deg)]
            coeffs.append(complex(rng.uniform(1, 3), rng.uniform(-1, 1)))
            got = roots(coeffs)
            assert len(got) == deg
            top = max(abs(c) for c in coeffs)
            for z in got:
                assert abs(eval_poly(coeffs, z)) / (1 + top) < 1e-10

    def test_determinism(self):
        coeffs = [3 - 2j, 0.5, 1]
        a = roots(coeffs)
        b = roots(coeffs)
        assert all(x == y for x, y in zip(a, b))

    def test_degree_guard(self):
        with pytest.raises(DegreeError):
            roots([5])

    @pytest.mark.parametrize("coeffs", [[1, 0, 0, 1], [1, 0, 0, 0, 1], [0, 1, 2, 3, 0]])
    def test_degree_three_and_up_rejected(self, coeffs):
        with pytest.raises(DegreeError, match="degree 1 or 2"):
            roots(coeffs)


class TestPalindromic:
    def test_reciprocal_pairs_random(self):
        rng = random.Random(43)
        for _ in range(30):
            k0, k1, k2 = (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3))
            coeffs = [k0, k1, k2, k1, k0]
            got = palindromic_quartic_roots(k0, k1, k2)
            assert len(got) == 4
            top = max(abs(c) for c in coeffs)
            for z in got:
                assert abs(eval_poly(coeffs, z)) / (top * max(1, abs(z)) ** 4) < 1e-10
                assert any(abs(z * w - 1) < 1e-9 for w in got)

    def test_exact_middle_coefficient(self):
        # k2 - 2 k0 is taken in the caller's exact arithmetic
        # (in doubles 2e20 + 1 rounds to 2e20 and W would be 0): 1e20 W^2 + 1 = 0
        got = palindromic_quartic_roots(Fraction(10 ** 20), Fraction(0), Fraction(2 * 10 ** 20 + 1))
        assert len(got) == 4
        for z in got:
            assert abs(abs(z + 1 / z) - 1e-10) < 1e-16


class TestBiquadratic:
    def test_integer_pairs(self):
        got = biquadratic_roots([4, -5, 1])  # b^4 - 5 b^2 + 4
        want = sorted([1, -1, 2, -2], key=lambda v: (round(v, 8),))
        assert len(got) == 4
        for z, w in zip(sorted(got, key=lambda z: (z.real, z.imag)),
                        sorted([complex(v) for v in want], key=lambda z: (z.real, z.imag))):
            assert abs(z - w) < 1e-12

    def test_unit_circle(self):
        got = biquadratic_roots([1, 0, 1])  # b^4 + 1
        assert len(got) == 4
        for z in got:
            assert abs(abs(z) - 1) < 1e-12

    def test_sign_pairing(self):
        rng = random.Random(42)
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        got = biquadratic_roots(coeffs)
        assert len(got) == 4
        for z in got:
            assert any(abs(z + w) < 1e-9 for w in got)


class TestNewton:
    def test_polish_improves(self):
        coeffs = [-2, 0, 1]  # x^2 - 2
        rough = 1.4142
        polished = newton_polish(coeffs, rough)
        assert abs(polished - cmath.sqrt(2)) < abs(rough - cmath.sqrt(2))

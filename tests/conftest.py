"""Shared helpers for the test suite: seeded random algebra objects and
small independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import perm

from quartics.polyring import Polynomial, VarTable

XYZ = VarTable(("x", "y", "z"))
XY = VarTable(("x", "y"))


def random_fraction(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_quartic(rng: random.Random, table: VarTable = XYZ) -> Polynomial:
    """A random ternary quartic with small rational coefficients, never zero."""
    while True:
        poly = Polynomial.zero(table)
        for i in range(5):
            for j in range(5 - i):
                c = random_fraction(rng)
                if c:
                    poly = poly + Polynomial.monomial(
                        table, {"x": i, "y": j, "z": 4 - i - j}, c
                    )
        if not poly.is_zero() and poly.geometric_degree() == 4:
            return poly


def random_binary_form(rng: random.Random, degree: int, table: VarTable = XY) -> Polynomial:
    while True:
        poly = Polynomial.zero(table)
        for i in range(degree + 1):
            c = random_fraction(rng)
            if c:
                poly = poly + Polynomial.monomial(table, {"x": degree - i, "y": i}, c)
        if not poly.is_zero():
            return poly


def ref_partial(terms, i, order):
    """The *order*-th partial in variable slot *i* of a dict from exponent tuples to
    Fractions, term by term: the exponent-tuple oracle of the differentiation kernels."""
    out = {}
    for exps, c in terms.items():
        if exps[i] >= order:
            new = exps[:i] + (exps[i] - order,) + exps[i + 1:]
            out[new] = out.get(new, Fraction(0)) + c * perm(exps[i], order)
    return {e: c for e, c in out.items() if c}


def random_unimodular(rng: random.Random, size: int = 3):
    """A random integer matrix of determinant 1 (product of elementary shears)."""
    m = [[Fraction(1 if i == j else 0) for j in range(size)] for i in range(size)]
    for _ in range(6):
        i, j = rng.sample(range(size), 2)
        k = rng.randint(-2, 2)
        for col in range(size):
            m[i][col] += k * m[j][col]
    return m


def univariate_gcd_degree(p: list[Fraction], q: list[Fraction]) -> int:
    """Degree of gcd of two exact univariate polynomials (ascending coeffs).

    Plain Euclidean algorithm over the rationals; an independent squarefree
    oracle for the discriminant tests.
    """

    def trim(v):
        v = list(v)
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(p), trim(q)
    while b:
        # a mod b
        a = list(a)
        while len(a) >= len(b):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) - 1 if a else -1

"""Deterministic closed-form complex roots of the polynomials this package meets.

Coefficients are given in ascending order (``p[k]`` multiplies ``x^k``).
Every root the package needs is a square root inside a quadratic: linear
and quadratic equations are solved directly, biquadratics as a quadratic in
``B = b^2``, and the palindromic quartic resolvent of the general bitangent
component through ``W = B + 1/B``.  Each root gets one Newton polish.
Identical inputs always produce bit-identical output.
"""

from __future__ import annotations

import cmath

from .errors import DegreeError


def _trim(coeffs) -> list[complex]:
    c = [complex(v) for v in coeffs]
    while c and abs(c[-1]) == 0.0:
        c.pop()
    return c


def eval_poly(coeffs, x: complex) -> complex:
    """Horner evaluation of an ascending coefficient vector."""
    total = 0j
    for c in reversed(list(coeffs)):
        total = total * x + c
    return total


def eval_deriv(coeffs, x: complex) -> complex:
    total = 0j
    for k in range(len(coeffs) - 1, 0, -1):
        total = total * x + k * coeffs[k]
    return total


def newton_polish(coeffs, x: complex) -> complex:
    """One Newton step; returns x unchanged when p'(x) vanishes."""
    d = eval_deriv(coeffs, x)
    if abs(d) == 0.0:
        return x
    return x - eval_poly(coeffs, x) / d


def _sort_key(z: complex):
    return (round(z.real, 8), round(z.imag, 8), z.real, z.imag)


def roots(coeffs) -> list[complex]:
    """Both complex roots (with multiplicity) of a polynomial of degree 1 or 2.

    Roots come back sorted lexicographically by rounded real then imaginary
    part, so repeated runs are reproducible bit for bit.  Degree 0 and
    degree 3 or more raise :class:`DegreeError`.
    """
    c = _trim(coeffs)
    if not 2 <= len(c) <= 3:
        raise DegreeError(f"closed-form root finding needs degree 1 or 2, got {len(c) - 1}")
    lead = c[-1]
    monic = [v / lead for v in c]

    if len(c) == 2:
        out = [-monic[0]]
    else:
        b, a = monic[1], monic[0]
        disc = cmath.sqrt(b * b - 4 * a)
        # pick the larger-magnitude numerator first to avoid cancellation
        if abs(-b + disc) >= abs(-b - disc):
            r1 = (-b + disc) / 2
        else:
            r1 = (-b - disc) / 2
        r2 = a / r1 if abs(r1) > 0 else -b - r1
        out = [r1, r2]

    out = [newton_polish(monic, z) for z in out]
    return sorted(out, key=_sort_key)


def biquadratic_roots(even) -> list[complex]:
    """Roots of ``c0 + c2 b^2 + c4 b^4`` from its even coefficients ``(c0, c2, c4)``.

    Solves in ``B = b^2`` and returns both square roots of every ``B``,
    sorted deterministically.
    """
    out: list[complex] = []
    for big in roots(even):
        root = cmath.sqrt(big)
        out.extend([root, -root])
    return sorted(out, key=_sort_key)


def palindromic_quartic_roots(k0, k1, k2) -> list[complex]:
    """Roots of the palindromic ``k0 + k1 B + k2 B^2 + k1 B^3 + k0 B^4``.

    Dividing by ``B^2`` and setting ``W = B + 1/B`` leaves the quadratic
    ``k0 W^2 + k1 W + (k2 - 2 k0) = 0``; each root ``W`` gives the reciprocal
    pair ``B^2 - W B + 1 = 0``.  Exact (``Fraction``) coefficients keep
    ``k2 - 2 k0`` exact.  Sorted deterministically.
    """
    out: list[complex] = []
    for w in roots([k2 - 2 * k0, k1, k0]):
        out.extend(roots([1.0, -w, 1.0]))
    return sorted(out, key=_sort_key)

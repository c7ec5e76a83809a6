"""Deterministic complex root finding for low-degree polynomials.

Coefficients are given in ascending order (``p[k]`` multiplies ``x^k``).
Degrees at most 8 occur in this package (biquadratics, the quartic
resolvent of the general bitangent component, and its degree-8 eliminant).
Linear and quadratic equations are solved in closed form; higher degrees
use Durand-Kerner iteration from a fixed initial configuration, followed by
one Newton polish per root.  Identical inputs always produce bit-identical
output.
"""

from __future__ import annotations

import cmath

from .errors import DegreeError, RootFindingError

_DK_SEED = 0.4 + 0.9j
_DK_TOL = 1e-13
_DK_MAX_ITER = 400
_ODD_TOL = 1e-14  # odd-power coefficients up to this times the largest count as 0


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
    """All complex roots (with multiplicity) of a polynomial of degree >= 1.

    Roots come back sorted lexicographically by rounded real then imaginary
    part, so repeated runs are reproducible bit for bit.
    """
    c = _trim(coeffs)
    if len(c) < 2:
        raise DegreeError("root finding needs degree >= 1")
    n = len(c) - 1
    lead = c[-1]
    monic = [v / lead for v in c]

    if n == 1:
        out = [-monic[0]]
    elif n == 2:
        b, a = monic[1], monic[0]
        disc = cmath.sqrt(b * b - 4 * a)
        # pick the larger-magnitude numerator first to avoid cancellation
        if abs(-b + disc) >= abs(-b - disc):
            r1 = (-b + disc) / 2
        else:
            r1 = (-b - disc) / 2
        r2 = a / r1 if abs(r1) > 0 else -b - r1
        out = [r1, r2]
    else:
        out = _durand_kerner(monic)

    out = [newton_polish(monic, z) for z in out]
    return sorted(out, key=_sort_key)


def _backward_error(monic, z: complex) -> float:
    value = abs(eval_poly(monic, z))
    scale = sum(abs(c) * abs(z) ** k for k, c in enumerate(monic))
    return value / max(scale, 1e-300)


def _durand_kerner(monic: list[complex]) -> list[complex]:
    n = len(monic) - 1
    zs = [_DK_SEED ** k for k in range(1, n + 1)]
    for _ in range(_DK_MAX_ITER):
        shift = 0.0
        for i in range(n):
            num = eval_poly(monic, zs[i])
            den = 1.0 + 0j
            for j in range(n):
                if j != i:
                    den *= zs[i] - zs[j]
            if abs(den) == 0.0:
                den = 1e-30
            dz = num / den
            zs[i] = zs[i] - dz
            shift = max(shift, abs(dz))
        if shift < _DK_TOL * max(1.0, max(abs(z) for z in zs)):
            return zs
    # multiple roots converge only linearly; accept a small backward error
    if all(_backward_error(monic, z) < 1e-10 for z in zs):
        return zs
    raise RootFindingError(
        f"Durand-Kerner did not converge in {_DK_MAX_ITER} iterations (last shift {shift:.2e})"
    )


def with_multiplicity(root_list, tol: float = 1e-8) -> list[tuple[complex, int]]:
    """Cluster a sorted root list into (representative, multiplicity) pairs."""
    out: list[tuple[complex, int]] = []
    for z in root_list:
        if out and abs(z - out[-1][0]) < tol:
            rep, m = out[-1]
            out[-1] = (rep, m + 1)
        else:
            out.append((z, 1))
    return out


def biquadratic_roots(coeffs) -> list[complex]:
    """Roots of a polynomial that is even in its variable.

    Solves in ``B = b^2`` and returns both square roots of every ``B``,
    sorted deterministically.  Raises if an odd-degree coefficient is
    significantly nonzero.
    """
    c = _trim(coeffs)
    if len(c) < 2:
        raise DegreeError("root finding needs degree >= 1")
    scale = max(abs(v) for v in c)
    for k in range(1, len(c), 2):
        if abs(c[k]) > _ODD_TOL * scale:
            raise DegreeError(f"coefficient of odd power {k} is not zero: {c[k]}")
    even = [c[k] for k in range(0, len(c), 2)]
    out: list[complex] = []
    for big in roots(even):
        root = cmath.sqrt(big)
        out.extend([root, -root])
    return sorted(out, key=_sort_key)

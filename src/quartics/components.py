"""Bitangent condition ideals for the symmetric quartic families, as data.

For a line ``a*x + b*y + z = 0`` the bitangent condition on ``(a, b)`` is an
ideal in ``K[a, b]`` (parameters adjoined).  Its primary decomposition for
each family was computed once with a Groebner engine and is embedded here
as exact polynomials; the enumeration code solves the components and then
*certifies* every candidate line numerically, so these tables are inputs to
be checked, not trusted blindly.  A component that is another one at
permuted or specialized parameters is not stored again.

All polynomials live over tables whose geometric slots are the line
coefficients ``(a, b)`` and whose parameters are the family parameters.

The three ``TABLE_*`` variable tables are built at import.  The ten component
tables are the attributes of the one namespace built by :func:`tables` on its
first call: only the bitangent enumeration pays for their polynomial
arithmetic, not an import for another command.
"""

from __future__ import annotations

from functools import cache
from types import SimpleNamespace

from .polyring import Polynomial, VarTable

TABLE_X4 = VarTable(("a", "b"), ("r", "s", "u"))
TABLE_X16 = VarTable(("a", "b"), ("r", "s"))
TABLE_X24 = VarTable(("a", "b"), ("r",))


def _vars(table: VarTable):
    return [Polynomial.variable(table, n) for n in table.names]


@cache
def tables() -> SimpleNamespace:
    """The component tables as attributes, each a tuple of polynomials (of
    ``(tag, a, b)`` for the rational points)."""
    # -- X4: three components in the (a, b) chart ----------------------------

    a, b, r, s, u = _vars(TABLE_X4)

    # The ten generators of the general-position component J1.
    x4_j1_generators = (
        s**2 * a**4 - u**2 * b**4 + s**2 * u * a**2 - s * u**2 * b**2
        - 4 * a**4 + 4 * b**4 - 4 * u * a**2 + 4 * s * b**2 + s**2 - u**2,

        r * u**2 * a**2 * b**2 - r**2 * a**4 + u**2 * a**4 + u**2 * b**4
        - r**2 * u * a**2 - 4 * r * a**2 * b**2 - 4 * b**4 + 4 * u * a**2
        - r**2 + 4,

        r * s**2 * a**2 * b**2 - r**2 * b**4 + s**2 * b**4 + u**2 * b**4
        - s**2 * u * a**2 - r**2 * s * b**2 + s * u**2 * b**2
        - 4 * r * a**2 * b**2 - 4 * b**4 + 4 * u * a**2 - r**2 - s**2
        + u**2 + 4,

        s * u * a**2 * b**4 + u**2 * b**6 + s * u**2 * b**4
        - 2 * r * a**2 * b**4 - 2 * r * s * a**2 * b**2 - r * u * b**4
        - 4 * b**6 - r * s * u * b**2 + 4 * u * a**2 * b**2
        - 2 * s * b**4 + s * u * a**2 + u**2 * b**2 - 2 * r * a**2
        - r * u + 4 * b**2 + 2 * s,

        s**2 * a**2 * b**4 + s * u * b**6 + s**2 * u * b**4
        - 2 * r * b**6 - 3 * r * s * b**4 - 4 * a**2 * b**4
        - r * s**2 * b**2 + 2 * u * b**4 - s**2 * a**2
        + 3 * s * u * b**2 - 2 * r * b**2 - r * s + 4 * a**2 + 2 * u,

        r * s * a**2 * b**4 - r * u * b**6 - r * s * u * b**4
        - 2 * u * a**2 * b**4 + 2 * s * b**6 - 2 * s * u * a**2 * b**2
        + r**2 * b**4 + r**2 * s * b**2 + 4 * r * a**2 * b**2
        + r * s * a**2 - r * u * b**2 + 4 * b**4 - 2 * u * a**2
        - 2 * s * b**2 + r**2 - 4,

        s * u * a**4 * b**2 + u**2 * a**2 * b**4 + s * u**2 * a**2 * b**2
        - 2 * r * a**4 * b**2 - r * s * a**4 - 2 * r * u * a**2 * b**2
        - 4 * a**2 * b**4 - r * s * u * a**2 + 2 * u * a**4 + u**2 * a**2
        + s * u * b**2 - 2 * r * b**2 - r * s + 4 * a**2 + 2 * u,

        r * s * a**4 * b**2 - r * u * a**2 * b**4 - 2 * u * a**4 * b**2
        + 2 * s * a**2 * b**4 - s * u * a**4 + s * u * b**4
        + 2 * r * a**4 - 2 * r * b**4 + r * u * a**2 - r * s * b**2
        - 2 * s * a**2 + 2 * u * b**2,

        s * u * a**6 + u**2 * a**4 * b**2 + s * u**2 * a**4
        - 2 * r * a**6 - 3 * r * u * a**4 - 4 * a**4 * b**2
        - r * u**2 * a**2 + 2 * s * a**4 + 3 * s * u * a**2
        - u**2 * b**2 - 2 * r * a**2 - r * u + 4 * b**2 + 2 * s,

        r * s * a**6 - r * u * a**4 * b**2 + r * s * u * a**4
        - 2 * u * a**6 + 2 * s * a**4 * b**2 - r**2 * a**4
        + 2 * s * u * a**2 * b**2 - r**2 * u * a**2
        - 4 * r * a**2 * b**2 + r * s * a**2 - 4 * a**4 - r * u * b**2
        + 2 * u * a**2 + 2 * s * b**2 - r**2 + 4,
    )

    # Quartic resolvent of J1 in B = b^2, ascending and palindromic (k0, k1, k2, k1, k0);
    # W = B + 1/B turns it into two quadratics (numroots.palindromic_quartic_roots).
    # k0 = -(r^2 + s^2 + u^2 - rsu - 4) vanishes only on the singular locus.
    x4_j1_quartic_b = (
        k0 := -u**2 + r * s * u - s**2 - r**2 + 4,
        k1 := -2 * s * u**2 + r * s**2 * u + 4 * r * u - 2 * r**2 * s,
        -s**2 * u**2 - 2 * u**2 + 6 * r * s * u - r**2 * s**2
        + 2 * s**2 - 2 * r**2 - 8,
        k1,
        k0,
    )

    # The coordinate-type component J2 (a = 0): ascending coefficients of (b^0, b^2, b^4).
    # At (r, u, s) it is J3 (b = 0; x <-> y swaps s and u), at (r, s, s) X16's J1 and J2,
    # and at (s, r, s) X16's lines x + b*y = 0.
    x4_j2_biquadratic = (r**2 - 4, 2 * r * u - 4 * s, u**2 - 4)

    # Generators of J1 that are linear in a^2, split as (coefficient of a^2, rest),
    # the pairs of each in turn in one flat tuple, evaluated in one call.  They
    # recover ``a`` for each root ``b`` of the resolvent; the solver picks
    # whichever split has the best-conditioned leading value.  ``e[0]`` is the
    # exponent of a, the first variable of TABLE_X4.
    x4_j1_a2_splits = tuple(
        Polynomial.from_numerators(TABLE_X4, {(0,) + e[1:]: c
                                              for e, c in gen.numerators.items()
                                              if e[0] == k}, gen.denominator)
        for gen in x4_j1_generators[2:5] for k in (2, 0))

    # -- X16 ------------------------------------------------------------------

    a, b, r, s = _vars(TABLE_X16)

    # Ascending coefficients of (b^0, b^2, b^4) in the (a, b) chart.
    x16_j56_biquadratic = (2 - r, 2 * s - r * s, s**2 - r - 2)     # a = -b / a = b
    x16_j7_biquadratic = (r + 2 - s**2, r * s - 2 * s, r - 2)      # a^2 = -s - b^2

    # -- X24 ------------------------------------------------------------------

    a, b, r = _vars(TABLE_X24)

    x24_j2_biquadratic = (r + 2, 2 * r, r + 2)     # a = 0, and also the x+b*y lines
    x24_rational_points = (                         # (tag, a, b)
        ("J4", 1, -1),
        ("J5", -1, 1),
        ("J7", -1, -1),
        ("J8", 1, 1),
    )
    one = Polynomial.constant(TABLE_X24, 1)
    x24_j69_quadratic = (one, r + 1)               # (r+1) b^2 + 1, a = -/+ b
    x24_j10_13_quadratic = (r + 1, one)            # b^2 + r + 1 with a = -/+ 1

    return SimpleNamespace(
        X4_J1_GENERATORS=x4_j1_generators, X4_J1_QUARTIC_B=x4_j1_quartic_b,
        X4_J2_BIQUADRATIC=x4_j2_biquadratic, X4_J1_A2_SPLITS=x4_j1_a2_splits,
        X16_J56_BIQUADRATIC=x16_j56_biquadratic, X16_J7_BIQUADRATIC=x16_j7_biquadratic,
        X24_J2_BIQUADRATIC=x24_j2_biquadratic, X24_RATIONAL_POINTS=x24_rational_points,
        X24_J69_QUADRATIC=x24_j69_quadratic, X24_J10_13_QUADRATIC=x24_j10_13_quadratic)

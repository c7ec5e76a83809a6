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
"""

from __future__ import annotations

from .polyring import Polynomial, VarTable

TABLE_X4 = VarTable(("a", "b"), ("r", "s", "u"))
TABLE_X16 = VarTable(("a", "b"), ("r", "s"))
TABLE_X24 = VarTable(("a", "b"), ("r",))


def _vars(table: VarTable):
    return [Polynomial.variable(table, n) for n in table.names]


# -- X4: three components in the (a, b) chart --------------------------------

_a, _b, _r, _s, _u = _vars(TABLE_X4)

#: The ten generators of the general-position component J1.
X4_J1_GENERATORS: tuple[Polynomial, ...] = (
    _s**2 * _a**4 - _u**2 * _b**4 + _s**2 * _u * _a**2 - _s * _u**2 * _b**2
    - 4 * _a**4 + 4 * _b**4 - 4 * _u * _a**2 + 4 * _s * _b**2 + _s**2 - _u**2,

    _r * _u**2 * _a**2 * _b**2 - _r**2 * _a**4 + _u**2 * _a**4 + _u**2 * _b**4
    - _r**2 * _u * _a**2 - 4 * _r * _a**2 * _b**2 - 4 * _b**4 + 4 * _u * _a**2
    - _r**2 + 4,

    _r * _s**2 * _a**2 * _b**2 - _r**2 * _b**4 + _s**2 * _b**4 + _u**2 * _b**4
    - _s**2 * _u * _a**2 - _r**2 * _s * _b**2 + _s * _u**2 * _b**2
    - 4 * _r * _a**2 * _b**2 - 4 * _b**4 + 4 * _u * _a**2 - _r**2 - _s**2
    + _u**2 + 4,

    _s * _u * _a**2 * _b**4 + _u**2 * _b**6 + _s * _u**2 * _b**4
    - 2 * _r * _a**2 * _b**4 - 2 * _r * _s * _a**2 * _b**2 - _r * _u * _b**4
    - 4 * _b**6 - _r * _s * _u * _b**2 + 4 * _u * _a**2 * _b**2
    - 2 * _s * _b**4 + _s * _u * _a**2 + _u**2 * _b**2 - 2 * _r * _a**2
    - _r * _u + 4 * _b**2 + 2 * _s,

    _s**2 * _a**2 * _b**4 + _s * _u * _b**6 + _s**2 * _u * _b**4
    - 2 * _r * _b**6 - 3 * _r * _s * _b**4 - 4 * _a**2 * _b**4
    - _r * _s**2 * _b**2 + 2 * _u * _b**4 - _s**2 * _a**2
    + 3 * _s * _u * _b**2 - 2 * _r * _b**2 - _r * _s + 4 * _a**2 + 2 * _u,

    _r * _s * _a**2 * _b**4 - _r * _u * _b**6 - _r * _s * _u * _b**4
    - 2 * _u * _a**2 * _b**4 + 2 * _s * _b**6 - 2 * _s * _u * _a**2 * _b**2
    + _r**2 * _b**4 + _r**2 * _s * _b**2 + 4 * _r * _a**2 * _b**2
    + _r * _s * _a**2 - _r * _u * _b**2 + 4 * _b**4 - 2 * _u * _a**2
    - 2 * _s * _b**2 + _r**2 - 4,

    _s * _u * _a**4 * _b**2 + _u**2 * _a**2 * _b**4 + _s * _u**2 * _a**2 * _b**2
    - 2 * _r * _a**4 * _b**2 - _r * _s * _a**4 - 2 * _r * _u * _a**2 * _b**2
    - 4 * _a**2 * _b**4 - _r * _s * _u * _a**2 + 2 * _u * _a**4 + _u**2 * _a**2
    + _s * _u * _b**2 - 2 * _r * _b**2 - _r * _s + 4 * _a**2 + 2 * _u,

    _r * _s * _a**4 * _b**2 - _r * _u * _a**2 * _b**4 - 2 * _u * _a**4 * _b**2
    + 2 * _s * _a**2 * _b**4 - _s * _u * _a**4 + _s * _u * _b**4
    + 2 * _r * _a**4 - 2 * _r * _b**4 + _r * _u * _a**2 - _r * _s * _b**2
    - 2 * _s * _a**2 + 2 * _u * _b**2,

    _s * _u * _a**6 + _u**2 * _a**4 * _b**2 + _s * _u**2 * _a**4
    - 2 * _r * _a**6 - 3 * _r * _u * _a**4 - 4 * _a**4 * _b**2
    - _r * _u**2 * _a**2 + 2 * _s * _a**4 + 3 * _s * _u * _a**2
    - _u**2 * _b**2 - 2 * _r * _a**2 - _r * _u + 4 * _b**2 + 2 * _s,

    _r * _s * _a**6 - _r * _u * _a**4 * _b**2 + _r * _s * _u * _a**4
    - 2 * _u * _a**6 + 2 * _s * _a**4 * _b**2 - _r**2 * _a**4
    + 2 * _s * _u * _a**2 * _b**2 - _r**2 * _u * _a**2
    - 4 * _r * _a**2 * _b**2 + _r * _s * _a**2 - 4 * _a**4 - _r * _u * _b**2
    + 2 * _u * _a**2 + 2 * _s * _b**2 - _r**2 + 4,
)

#: Quartic resolvent of J1 in B = b^2, ascending and palindromic (k0, k1, k2, k1, k0);
#: W = B + 1/B turns it into two quadratics (numroots.palindromic_quartic_roots).
#: k0 = -(r^2 + s^2 + u^2 - rsu - 4) vanishes only on the singular locus.
X4_J1_QUARTIC_B: tuple[Polynomial, ...] = (
    _k0 := -_u**2 + _r * _s * _u - _s**2 - _r**2 + 4,
    _k1 := -2 * _s * _u**2 + _r * _s**2 * _u + 4 * _r * _u - 2 * _r**2 * _s,
    -_s**2 * _u**2 - 2 * _u**2 + 6 * _r * _s * _u - _r**2 * _s**2
    + 2 * _s**2 - 2 * _r**2 - 8,
    _k1,
    _k0,
)

#: The coordinate-type component J2 (a = 0): ascending coefficients of (b^0, b^2, b^4).
#: At (r, u, s) it is J3 (b = 0; x <-> y swaps s and u), at (r, s, s) X16's J1 and J2,
#: and at (s, r, s) X16's lines x + b*y = 0.
X4_J2_BIQUADRATIC = (_r**2 - 4, 2 * _r * _u - 4 * _s, _u**2 - 4)


#: Generators of J1 that are linear in a^2, split as (coefficient of a^2, rest).
#: They recover ``a`` for each root ``b`` of the resolvent; the solver picks
#: whichever split has the best-conditioned leading value.  ``e[0]`` is the
#: exponent of a, the first variable of TABLE_X4.
X4_J1_A2_SPLITS: tuple[tuple[Polynomial, Polynomial], ...] = tuple(
    tuple(Polynomial.from_numerators(TABLE_X4, {(0,) + e[1:]: c for e, c in gen.numerators.items()
                                                if e[0] == k}, gen.denominator)
          for k in (2, 0))
    for gen in X4_J1_GENERATORS[2:5])


# -- X16 ----------------------------------------------------------------------

_a, _b, _r, _s = _vars(TABLE_X16)

#: Ascending coefficients of (b^0, b^2, b^4) in the (a, b) chart.
X16_J56_BIQUADRATIC = (2 - _r, 2 * _s - _r * _s, _s**2 - _r - 2)        # a = -b / a = b
X16_J7_BIQUADRATIC = (_r + 2 - _s**2, _r * _s - 2 * _s, _r - 2)         # a^2 = -s - b^2


# -- X24 ----------------------------------------------------------------------

_a, _b, _r = _vars(TABLE_X24)

X24_J2_BIQUADRATIC = (_r + 2, 2 * _r, _r + 2)      # a = 0, and also the x+b*y lines
X24_RATIONAL_POINTS = (                            # (tag, a, b)
    ("J4", 1, -1),
    ("J5", -1, 1),
    ("J7", -1, -1),
    ("J8", 1, 1),
)
_one = Polynomial.constant(TABLE_X24, 1)
X24_J69_QUADRATIC = (_one, _r + 1)                 # (r+1) b^2 + 1, a = -/+ b
X24_J10_13_QUADRATIC = (_r + 1, _one)              # b^2 + r + 1 with a = -/+ 1

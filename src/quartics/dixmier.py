"""The Dixmier invariant pipeline for ternary quartics.

The construction restricts a quartic ``f(x, y, z)`` to the pencil of lines
``z = -u*x - v*y`` and takes the two classical invariants of the resulting
binary quartic (``Sigma``, the apolar invariant, and ``Psi``, the
catalecticant) in closed form.  They are polynomials in the line coordinates
``(u, v)``, which are the dual coordinates, so they are written in ``(x, y)``
from the start and homogenized with ``z`` into the contravariants ``sigma``
(degree 4) and ``psi`` (degree 6), by one plan per key set of ``f``: the
restriction's stage, then two more after it (``polyring._Stages``), the padding in
``z`` folded into the output keys.  The public pairing
``diffcalc.transvectant`` is the tests' oracle for the closed forms.  Pairing back
against ``f`` produces the quadratic covariants ``rho`` and ``tau``, and the six invariants

    I3  = D_sigma(f)
    I6  = D_psi(det H(f)) - I3^2 / 2592
    I9  = J11(tau, rho)          I12 = J03(tau, rho) = det H(rho)
    I18 = J22(tau, rho)          I15 = J30(tau, rho) = det H(tau)

where the four J-brackets come from one :func:`~quartics.diffcalc.j_bracket`
call and ``det H(f)`` from :func:`~quartics.diffcalc.hessian_det`: two stages each,
the cofactors, then the sums against them.

Conventions are pinned by exact reference values, anchored at ``I6 = 13822``
for the Fermat quartic: the Hessian carries bare second partials (halving it
gives ``I6 = 1726`` there; see tests/test_dixmier.py), and the
``1/2592 = 8/144^2`` correction inside ``I6`` is the unique constant
reproducing the reference tables of all four symmetric families.

All six invariants are polynomials in the curve parameters with no
geometric content; everything here is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .diffcalc import diff_pair, hessian_det, j_bracket
from .errors import DegreeError
from .polyring import (_SHAPES, Polynomial, VarTable, _check_table, _Record, _restriction, _staged,
                       _Stages)

# Coefficient of the I3^2 correction inside I6, equal to 8/144^2.  Fixed by
# requiring I6 to match the reference tables exactly (it is the only rational
# constant that does, across all four families simultaneously).
I6_CORRECTION = Fraction(8, 144 ** 2)


def _binary_stages(a, stages: _Stages):
    """``(stages, (sigma, psi))`` of :func:`binary_invariants` on the term lists *a* of a0..a4,
    the two added to *stages*: B forms 12 Sigma, 432 times Psi's bracket, a3^2 and a1^2, C
    6912 Psi; with the term lists of 12 Sigma and 6912 Psi."""
    a0, a1, a2, a3, a4 = a
    sigma, bracket, q3, q1 = stages.add([
        ((12, a0, a4), (-3, a1, a3), (1, a2, a2)), ((72, a0, a4), (9, a1, a3), (-2, a2, a2)),
        ((1, a3, a3),), ((1, a1, a1),)])[1]
    (psi,) = stages.add([((16, a2, bracket), (-432, a0, q3), (-432, q1, a4))])[1]
    return stages.stages, (sigma, psi)


def binary_invariants(a) -> tuple[Polynomial, Polynomial]:
    """``(Sigma, Psi)`` of ``a0*x^4 + a1*x^3*y + ... + a4*y^4`` in closed form::

        Sigma = a0 a4 - a1 a3 / 4 + a2^2 / 12
        Psi   = a2 (a0 a4 / 6 + a1 a3 / 48 - a2^2 / 216) - a0 a3^2 / 16 - a1^2 a4 / 16

    by the stages of :func:`_binary_stages` over the lcm d of the denominators, each
    normalized once, over ``12 d^2`` and ``6912 d^3``.
    """
    a = tuple(a)
    table = a[0].table
    den = lcm(*[_check_table(table, p) or p._den for p in a])     # every table checked first
    stages = _Stages(table, *[p._num for p in a])
    return _staged(table, [v * (den // p._den) for p in a for v in p._num.values()],
                   _binary_stages(stages.operands, stages), (12 * den ** 2, 6912 * den ** 3))


def _binary_coefficients(P: Polynomial) -> list[Polynomial]:
    """The coefficients ``a0..a4`` of the binary quartic ``P`` in the first two
    geometric variables of its table."""
    table = P.table
    if table.n_geometric < 2:
        raise DegreeError("a binary quartic needs two geometric variables")
    x, y = table.geometric[:2]
    pad = (0,) * (table.n_geometric - 2)
    slots = [(4 - i, i) + pad for i in range(5)]
    groups = P.geometric_coefficients()
    bad = set(groups) - set(slots)
    if bad:
        raise DegreeError(f"form has geometric monomials outside ({x},{y}) degree 4: {sorted(bad)}")
    return [groups.get(s, Polynomial.zero(table)) for s in slots]


def sigma_binary(P: Polynomial) -> Polynomial:
    """Apolar invariant ``Sigma(P) = 1/2 (P,P)^4`` of a binary quartic."""
    return binary_invariants(_binary_coefficients(P))[0]


def psi_binary(P: Polynomial) -> Polynomial:
    """Catalecticant ``Psi(P) = 1/6 (P, (P,P)^2)^4`` of a binary quartic.

    ``(P,P)^2`` is the classical quartic covariant of ``P``; pairing it back
    against ``P`` gives the degree-3 invariant, normalized so that
    ``Sigma^3 - 27 Psi^2`` is the discriminant.
    """
    return binary_invariants(_binary_coefficients(P))[1]


def delta_binary(P: Polynomial) -> Polynomial:
    """Discriminant ``Delta(P) = Sigma(P)^3 - 27 Psi(P)^2`` (zero iff P has a repeated root)."""
    s, t = binary_invariants(_binary_coefficients(P))
    return s ** 3 - t ** 2 * 27


class InvariantSet(_Record):
    """The six quartic invariants as exact polynomials in the curve parameters."""

    __slots__ = _fields = ("I3", "I6", "I9", "I12", "I15", "I18")

    def as_dict(self) -> dict[int, Polynomial]:
        return {3: self.I3, 6: self.I6, 9: self.I9, 12: self.I12, 15: self.I15, 18: self.I18}


@lru_cache(maxsize=_SHAPES)
def _contravariant_plan(table: VarTable, keys: tuple[int, ...]):
    """``(stages, (sigma, psi))`` of :func:`contravariants` for a quartic of the keys *keys* (the
    last 256): the restriction's stage, then :func:`_binary_stages`, with z folded into sigma's
    and psi's keys up to degrees 4 and 6.  A key of higher degree in x, y is left out: sigma and
    psi are forms of degrees 4 and 6, so its sum is 0 for every quartic."""
    x, y, z = table.geometric
    restriction, a = _restriction(table, keys, z, (x, y), (x, y))
    stages, outputs = _binary_stages(a, _Stages(table, keys, stages=restriction))
    return stages, [[(i, 1, key + pad * table._unit(z)) for (i, _, key), e in zip(
        terms, table._unpack([key for *_, key in terms])) if (pad := degree - e[0] - e[1]) >= 0]
        for terms, degree in zip(outputs, (4, 6))]


def contravariants(f) -> tuple[Polynomial, Polynomial]:
    """The contravariants ``sigma`` (quartic) and ``psi`` (sextic) of a ternary quartic.

    :func:`binary_invariants` of ``f`` restricted to the line ``z = -u*x - v*y``, whose
    coefficients are polynomials in the dual coordinates ``(u, v)``, written as ``(x, y)``
    of the table of ``f``, then homogenized with ``z``: the three stages of the plan of f's
    keys (:func:`_contravariant_plan`), over ``12 d^2`` and ``6912 d^3``.
    """
    p = getattr(f, "poly", f)
    table, d = p.table, p._den
    if table.n_geometric != 3 or p.geometric_degree() != 4 or not p.is_geometric_homogeneous():
        raise DegreeError("contravariants need a homogeneous ternary quartic")
    return _staged(table, [*p._num.values()], _contravariant_plan(table, tuple(p._num)),
                   (12 * d * d, 6912 * d ** 3))


def covariants(f, psi: Polynomial | None = None) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The quadratic covariants ``rho = D_f(psi)``, ``tau = D_rho(f)`` and
    the Hessian determinant ``det H(f)`` (a sextic)."""
    p = getattr(f, "poly", f)
    if psi is None:
        _, psi = contravariants(p)
    rho = diff_pair(p, psi)
    tau = diff_pair(rho, p)
    return rho, tau, hessian_det(p)


def dixmier_invariants(f) -> InvariantSet:
    """All six invariants of a ternary quartic, exactly.

    Accepts a :class:`~quartics.symfam.QuarticForm` or a plain quartic
    :class:`Polynomial`; parameter-valued coefficients are fine, in which
    case the invariants are polynomials in those parameters.
    """
    p = getattr(f, "poly", f)
    sigma, psi = contravariants(p)
    rho, tau, hdet = covariants(p, psi)

    i3 = diff_pair(sigma, p)
    i6 = diff_pair(psi, hdet) - i3 * i3 * I6_CORRECTION
    i9, i18, i15, i12 = j_bracket(tau, rho)
    # each is a full contraction of forms built from a checked quartic: no geometric content
    return InvariantSet(i3, i6, i9, i12, i15, i18)

"""The Dixmier invariant pipeline for ternary quartics.

The construction restricts a quartic ``f(x, y, z)`` to the pencil of lines
``z = -u*x - v*y`` and takes the two classical invariants of the resulting
binary quartic (``Sigma``, the apolar invariant, and ``Psi``, the
catalecticant) in closed form.  They are polynomials in the line coordinates
``(u, v)``, which are the dual coordinates, so they are written in ``(x, y)``
from the start and homogenized with ``z`` into the contravariants ``sigma``
(degree 4) and ``psi`` (degree 6).  The public pairing
``diffcalc.transvectant`` is the tests' oracle for the closed forms.  Pairing
back against ``f`` produces the quadratic covariants ``rho`` and ``tau``, and
the six invariants

    I3  = D_sigma(f)
    I6  = D_psi(det H(f)) - I3^2 / 2592
    I9  = J11(tau, rho)          I12 = J03(tau, rho) = det H(rho)
    I18 = J22(tau, rho)          I15 = J30(tau, rho) = det H(tau)

where the four J-brackets come from one :func:`~quartics.diffcalc.j_bracket`
call: two runs of one plan, the covariants' cofactors, then the four sums.

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

from .diffcalc import det, diff_pair, hessian, j_bracket
from .errors import DegreeError
from .polyring import Polynomial, _Record, homogenize, restrict_to_line

# Coefficient of the I3^2 correction inside I6, equal to 8/144^2.  Fixed by
# requiring I6 to match the reference tables exactly (it is the only rational
# constant that does, across all four families simultaneously).
I6_CORRECTION = Fraction(8, 144 ** 2)


def binary_invariants(a) -> tuple[Polynomial, Polynomial]:
    """``(Sigma, Psi)`` of ``a0*x^4 + a1*x^3*y + ... + a4*y^4`` in closed form::

        Sigma = a0 a4 - a1 a3 / 4 + a2^2 / 12
        Psi   = a2 (a0 a4 / 6 + a1 a3 / 48 - a2^2 / 216) - a0 a3^2 / 16 - a1^2 a4 / 16

    each sum of products (and Psi's bracket) formed in one
    :meth:`~quartics.polyring.Polynomial.sum_of_products` call.
    """
    a0, a1, a2, a3, a4 = a
    table = a0.table
    sigma = Polynomial.sum_of_products(
        table, ((1, a0, a4), (Fraction(-1, 4), a1, a3), (Fraction(1, 12), a2, a2)))
    bracket = Polynomial.sum_of_products(
        table, ((Fraction(1, 6), a0, a4), (Fraction(1, 48), a1, a3), (Fraction(-1, 216), a2, a2)))
    psi = Polynomial.sum_of_products(
        table, ((1, a2, bracket), (Fraction(-1, 16), a0, a3 * a3), (Fraction(-1, 16), a1 * a1, a4)))
    return sigma, psi


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


def contravariants(f) -> tuple[Polynomial, Polynomial]:
    """The contravariants ``sigma`` (quartic) and ``psi`` (sextic) of a ternary quartic.

    Restrict ``f`` to the line ``z = -u*x - v*y`` and evaluate
    :func:`binary_invariants` on the five coefficients.  Those are
    polynomials in the line coordinates ``(u, v)``, which are the dual
    coordinates, so :func:`restrict_to_line` writes them as ``(x, y)`` of the
    table of ``f``; homogenizing with ``z`` to degrees 4 and 6 gives both
    forms in that table.
    """
    p = getattr(f, "poly", f)
    table = p.table
    if table.n_geometric != 3 or p.geometric_degree() != 4 or not p.is_geometric_homogeneous():
        raise DegreeError("contravariants need a homogeneous ternary quartic")
    x, y, z = table.geometric
    sig, psi = binary_invariants(restrict_to_line(p, table, z, (x, y), (x, y)))
    return homogenize(sig, z, 4), homogenize(psi, z, 6)


def covariants(f, psi: Polynomial | None = None) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The quadratic covariants ``rho = D_f(psi)``, ``tau = D_rho(f)`` and
    the Hessian determinant ``det H(f)`` (a sextic)."""
    p = getattr(f, "poly", f)
    if psi is None:
        _, psi = contravariants(p)
    rho = diff_pair(p, psi)
    tau = diff_pair(rho, p)
    hdet = det(hessian(p))
    return rho, tau, hdet


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

"""Symmetric determinantal representations det(xA + yB + zC) = f for the
three-parameter quartic family.

With ``f = x^4 + y^4 + z^4 + r x^2 y^2 + s y^2 z^2 + u z^2 x^2`` the normal
form ``f(x,0,0) = x^4`` and the factorization ``f(x,y,0) = (x+py)(x-py)
(x+qy)(x-qy)`` allow ``A = Id`` and ``B = diag(p, -p, q, -q)``.  The section
``f(x, 0, z)`` forces a zero diagonal on ``C``, whose six off-diagonal
unknowns ``(a, b, d, c, e, f)`` must solve a small algebraic system; two of
them vanish (``a = f = 0``) and the rest reduce to one quadratic in
``t = c*d`` plus square-root extractions.  The solver enumerates the finite
branch choices, filters with the *unsquared* linear condition that the
squaring step of the reduction would otherwise blur, and certifies the
winning branch against the determinant identity at seeded random points.

The systems ``OEQ_SYSTEM`` and ``E_SYSTEM`` are derived exactly from the
symbolic pencil by :func:`systems` on its first call, not at import.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import cache, lru_cache
from operator import itemgetter
from types import SimpleNamespace

from . import numroots
from .diffcalc import _pencil_det, det
from .errors import (DegeneracyError, DomainError, SolverError, check_tolerance, overflow_as,
                     rational)
from .polyring import Polynomial, VarTable, _Record, convert, eval_scaled_many
from .symfam import make_family

DEFAULT_TOL = 1e-8
DEFAULT_SEED = 20240
N_CERT_POINTS = 50


class BranchChoice(_Record):
    """One resolution of the either-or steps: which root of the ``t`` quadratic,
    and which of the two quadratic roots is assigned to ``c^2`` resp. ``b^2``."""

    __slots__ = _fields = ("t_index", "cd_swap", "be_swap")


class DetRep(_Record):
    """A certified representation: A = Id, B = diag(p,-p,q,-q), C symmetric
    with zero diagonal, plus the residual record of the defining equations."""

    __slots__ = _fields = ("b_diagonal", "c_matrix", "branch", "residuals")

    @property
    def a_matrix(self) -> tuple[tuple[complex, ...], ...]:
        return _diagonal((1.0 + 0j,) * 4, 0j)

    @property
    def b_matrix(self) -> tuple[tuple[complex, ...], ...]:
        return _diagonal(self.b_diagonal, 0j)

    @property
    def p(self) -> complex:
        return self.b_diagonal[0]

    @property
    def q(self) -> complex:
        return self.b_diagonal[2]

    def off_diagonal(self) -> tuple[complex, ...]:
        """(c12, c13, c14, c23, c24, c34) = (a, b, d, c, e, f)."""
        m = self.c_matrix
        return (m[0][1], m[0][2], m[0][3], m[1][2], m[1][3], m[2][3])


def compute_pq(r: Fraction | int) -> tuple[complex, complex]:
    """The factorization constants p, q of x^4 + r x^2 y^2 + y^4.

    ``p^2`` and ``q^2`` are the roots of ``z^2 + r z + 1``.  ``p^2`` is the
    one of larger modulus, whose formula ``(-r -+ sqrt(r^2 - 4))/2`` does
    not cancel, and ``q = 1/p``; then ``p^2 q^2 = 1`` and ``p^2 + q^2 = -r``
    hold to rounding error for every magnitude of ``r``.  Degenerate at
    r = +-2 where p and q collide or vanish.
    """
    r = rational(r)
    if r == 2 or r == -2:
        raise DegeneracyError(f"r = {r}: repeated line pair in f(x,y,0) (double-conic locus)")
    rf = float(r)
    w = cmath.sqrt(rf * rf - 4.0)
    p = cmath.sqrt(max((-rf - w) / 2, (-rf + w) / 2, key=abs))
    return p, 1 / p


def _diagonal(diagonal, zero):
    """The 4x4 matrix with *diagonal* on its diagonal and *zero* elsewhere."""
    return tuple(tuple(diagonal[i] if i == j else zero for j in range(4)) for i in range(4))


def _pencil(one, zero, diagonal, off_diagonal):
    """The pencil's coefficient matrices (A, B, C): A the identity, B the
    *diagonal* and C the zero-diagonal symmetric matrix whose entries
    (c12, c13, c14, c23, c24, c34) are *off_diagonal* = (a, b, d, c, e, f)."""
    a, b, d, c, e, f = off_diagonal
    return (_diagonal((one,) * 4, zero), _diagonal(diagonal, zero),
            ((zero, a, b, d), (a, zero, c, e), (b, c, zero, f), (d, e, f, zero)))


# -- the equation systems, derived exactly from the symbolic pencil -----------

_SYS_TABLE = VarTable(("x", "y", "z"), ("p", "q", "a", "b", "c", "d", "e", "f", "r", "s", "u"))

_P, _Q, _A, _B, _C, _D, _E, _F, _R, _S, _U = (
    Polynomial.variable(_SYS_TABLE, n) for n in _SYS_TABLE.parameters
)


def symbolic_pencil():
    """The coefficient matrices (A, B, C) of the symbolic pencil: A the
    identity, B the diagonal of p, -p, q, -q and C the zero-diagonal
    symmetric matrix of the six unknowns."""
    return _pencil(Polynomial.constant(_SYS_TABLE, 1), Polynomial.zero(_SYS_TABLE),
                   (_P, -_P, _Q, -_Q), (_A, _B, _D, _C, _E, _F))


def determinant_expand(A, B, C) -> Polynomial:
    """Exact determinant of ``x*A + y*B + z*C`` by cofactor expansion.

    The arguments are square matrices of polynomials over a common table
    whose geometric variables start with (x, y, z).
    """
    table = A[0][0].table
    x, y, z = (Polynomial.variable(table, n) for n in table.geometric[:3])
    n = len(A)
    pencil = [
        [A[i][j] * x + B[i][j] * y + C[i][j] * z for j in range(n)]
        for i in range(n)
    ]
    return det(pencil)


@cache
def systems() -> SimpleNamespace:
    """``OEQ_SYSTEM``, ``E_SYSTEM`` and ``RESIDUAL_ROWS``, tuples of polynomials."""
    # OEQ_SYSTEM, the raw coefficient-comparison system: the coefficients of
    # det(xA + yB + zC) - f at x y z^2, y^2 z^2, x^2 z^2, y z^3, x z^3, z^4, x^2 y^2
    # and y^4 (all must vanish); the last two are the identities satisfied by p and q.
    oeq = itemgetter(
        (1, 1, 2), (0, 2, 2), (2, 0, 2), (0, 1, 3), (1, 0, 3), (0, 0, 4), (2, 2, 0), (0, 4, 0))(
        (determinant_expand(*symbolic_pencil())
         - convert(make_family("X4").poly, _SYS_TABLE)).geometric_coefficients())
    # E_SYSTEM, the six reduced conditions on the off-diagonal unknowns: the raw
    # rows up to sign and a factor 2, except the second, simplified by p*q = 1.
    e_system = (
        oeq[0],
        _A**2 * _Q**2 - _B**2 + _C**2 + _D**2 - _E**2 + _F**2 * _P**2 - _S,
        -oeq[2],
        oeq[3] * Fraction(1, 2),
        oeq[4] * Fraction(1, 2),
        oeq[5],
    )
    # RESIDUAL_ROWS, the rows of residuals_e_system in the order of _RESIDUAL_KEYS:
    # the six reduced conditions, the first six raw rows, then the identities
    # p^2 q^2 - 1 and -p^2 - q^2 - r of p and q.
    return SimpleNamespace(OEQ_SYSTEM=oeq, E_SYSTEM=e_system,
                           RESIDUAL_ROWS=e_system + oeq[:6] + (oeq[7], oeq[6]))


#: The keys of :func:`residuals_e_system`, one for each of the residual rows.
_RESIDUAL_KEYS = (*(f"e{i}" for i in range(1, 7)), *(f"oeq{i}" for i in range(1, 7)),
                  "pq_identity", "p2q2_sum")


def residuals_e_system(rep: DetRep, r, s, u) -> dict:
    """Residuals of the six reduced conditions, the raw system and the identities
    of p and q at the rep."""
    a, b, d, c, e, f = rep.off_diagonal()
    r, s, u = (float(rational(v)) for v in (r, s, u))
    point = {"p": rep.p, "q": rep.q, "a": a, "b": b, "c": c, "d": d, "e": e, "f": f,
             "r": r, "s": s, "u": u}
    return {key: abs(v) for key, (v, _) in
            zip(_RESIDUAL_KEYS, eval_scaled_many(systems().RESIDUAL_ROWS, point))}


@lru_cache(maxsize=4)
def _certificate_points(seed: int) -> tuple[tuple[complex, complex, complex], ...]:
    """The seeded random points (x, y, z) of :func:`_determinant_residual`, drawn once
    per seed: each coordinate's real and imaginary parts uniform in [-1, 1] / sqrt(2)."""
    rng = random.Random(seed)
    scale = 1 / 2 ** 0.5
    return tuple(tuple(complex(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
                       for _ in range(3))
                 for _ in range(N_CERT_POINTS))


def _determinant_residual(rep: DetRep, quartic: Polynomial, seed: int) -> float:
    """The largest |det(xA + yB + zC) - f| / (1 + |f|) over the seeded points, f the
    member *quartic*; NaN when a point's residual is NaN, so that the certificate fails.
    The pencil's entries and their determinant are one generated function per zero
    pattern (``diffcalc._pencil_det``), first the pattern of the coefficients; each
    point's entries are checked against it."""
    entries = [entry for row in zip(rep.a_matrix, rep.b_matrix, rep.c_matrix)
               for entry in zip(*row)]      # (a, b, c) of each pencil entry, row by row
    coefficients = [v for entry in entries for v in entry]
    determinant = _pencil_det(tuple([not any(entry) for entry in entries]))
    worst = 0.0
    for x, y, z in _certificate_points(seed):
        value = determinant(coefficients, x, y, z)
        fval = eval_scaled_many((quartic,), {"x": x, "y": y, "z": z})[0][0]
        residual = abs(value - fval) / (1.0 + abs(fval))
        if math.isnan(residual):    # max() would skip it
            return residual
        worst = max(worst, residual)
    return worst


def _root_pair(first: complex, second: complex, product: complex) -> tuple[complex, complex]:
    """(x, y) with x^2 = *first* and x y = *product*: x the principal square root, y =
    *product* / x, or the principal square root of *second* when |x| <= 1e-150."""
    x = cmath.sqrt(first)
    return x, (product / x if abs(x) > 1e-150 else cmath.sqrt(second))


def solve_detrep(r, s, u, tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED) -> DetRep:
    """A certified symmetric determinantal representation of the family member.

    Follows the finite construction: ``a = f = 0``; ``t = c*d`` from the
    quadratic ``((r+2)/(r-2)) ((u-s)^2/4 - 4 t^2) + 4 (t+1)^2 - (u+s)^2/4 = 0``;
    ``b*e = t + 1``; ``(c^2, d^2)`` the roots of ``w^2 + ((u-s)/2) w + t^2``
    and ``(b^2, e^2)`` of ``w^2 + ((u+s)/2) w + (t+1)^2``, each pair in both
    orders.  Branches are tried by increasing residual of the unsquared linear
    condition (ties in generation order) up to ``tol * (1 + max(|r|,|s|,|u|))``;
    the first whose six reduced conditions are at most *tol* and whose
    ``det(xA + yB + zC) = f`` holds to *tol* at seeded random points is returned
    with its residuals (:func:`residuals_e_system`'s, then ``"det"``).
    A *tol* that is not a finite number > 0, a parameter that is not a
    rational or a *seed* that is not an int (the points, and so ``det``'s
    residual, must not change between identical calls) raises
    :class:`DomainError`; a value that overflows double precision raises
    :class:`SolverError`.
    """
    check_tolerance("tol", tol)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise DomainError(f"seed must be an int, got {seed!r}")
    r, s, u = map(rational, (r, s, u))
    with overflow_as(SolverError, f"(r,s,u) = ({r},{s},{u})"):
        p, q = compute_pq(r)
        kappa = Fraction(r + 2, r - 2)
        us_half = complex(float(Fraction(u - s, 2)))
        up_half = complex(float(Fraction(u + s, 2)))

        # quadratic in t: (4 - 4*kappa) t^2 + 8 t + (kappa*(u-s)^2/4 + 4 - (u+s)^2/4)
        c0 = kappa * Fraction(u - s, 2) ** 2 + 4 - Fraction(u + s, 2) ** 2
        t_roots = numroots.roots([complex(float(c0)), 8 + 0j, complex(float(4 - 4 * kappa))])

        branches = []
        for ti, t in enumerate(t_roots):
            w_cd = numroots.roots([t * t, us_half, 1.0 + 0j])
            w_be = numroots.roots([(t + 1) * (t + 1), up_half, 1.0 + 0j])
            cd_pairs = (_root_pair(*w_cd, t), _root_pair(*w_cd[::-1], t))
            be_pairs = (_root_pair(*w_be, t + 1), _root_pair(*w_be[::-1], t + 1))
            for cd_swap, (cc, dd) in zip((False, True), cd_pairs):
                for be_swap, (bb, ee) in zip((False, True), be_pairs):
                    e1 = (bb * bb - ee * ee) * (q + p) + (cc * cc - dd * dd) * (q - p)
                    e6 = abs((bb * ee - cc * dd) ** 2 - 1)
                    branches.append((abs(e1) + e6, BranchChoice(ti, cd_swap, be_swap),
                                     (bb, cc, dd, ee)))

        # a NaN residual would pass every comparison below
        branches = [b for b in branches if math.isfinite(b[0])]
        if not branches:
            raise OverflowError("every branch residual is infinite or NaN")
        # p^2 q^2 = 1 up to rounding by construction; checked anyway, after the
        # overflow filter, so overflowing members keep that error
        pq_identity = abs(eval_scaled_many((systems().OEQ_SYSTEM[7],), {"p": p, "q": q})[0][0])
        if not pq_identity <= tol:      # written so that NaN fails too
            raise SolverError(f"(r,s,u) = ({r},{s},{u}): pq_identity |p^2 q^2 - 1| = "
                              f"{pq_identity:.3e} exceeds tol {tol:g}")
        branches.sort(key=itemgetter(0))    # stable: ties stay in (t_index, cd_swap, be_swap) order
        scale = 1.0 + max(abs(float(v)) for v in (r, s, u))
        diagonal = (p, -p, q, -q)
        quartic = make_family("X4", (r, s, u)).poly     # for the determinant check
        for residual, choice, (bb, cc, dd, ee) in branches:
            if residual > tol * scale:      # so is every later one
                break
            c_matrix = _pencil(1.0 + 0j, 0j, diagonal, (0j, bb, dd, cc, ee, 0j))[2]
            trial = DetRep(diagonal, c_matrix, choice, None)    # residuals not known yet
            res = residuals_e_system(trial, r, s, u)
            if not all(res[f"e{i}"] <= tol for i in range(1, 7)):
                continue
            det_res = _determinant_residual(trial, quartic, seed)
            if det_res < tol:
                return DetRep(diagonal, c_matrix, choice, {**res, "det": det_res})
        raise SolverError(f"no branch certified for (r,s,u) = ({r},{s},{u}); "
                          f"best unsquared-condition residual {branches[0][0]:.3e}")

"""Enumeration and numeric certification of the 28 bitangents.

A line is a bitangent of the quartic ``f`` exactly when the restriction of
``f`` to the line is the square of a binary quadratic.  Working in an affine
chart of the dual plane (one line coefficient normalized to 1), comparing
coefficients of ``f(x, y, -a*x - b*y) = (l0*x^2 + l1*x*y + l2*y^2)^2`` gives
five polynomial conditions; their eliminations split into the per-family
components embedded in :mod:`quartics.components`.

The enumeration solves those components in closed form (quadratics,
biquadratics, and a palindromic quartic resolvent that reduces to two
quadratics), polishes the roots, then deduplicates and certifies each
candidate line: a candidate within ``dedupe_tol`` of a line already kept is
skipped, and any other is *certified* independently: the restricted quartic
must fit a perfect square to ``tol`` and, for a candidate from the
general-position component of the three-parameter family (whichever
family's member it is tried on), all ten ideal generators must vanish.  So
each distinct line is certified once, and the kept lines are those of
certifying every candidate and deduplicating afterwards.  Candidates come in
passes: a family's own components first, then supplements that run only when
the lines kept so far are not exactly 28 (a smooth plane quartic has exactly
28 bitangents), which the final count must be.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from . import components as comp
from . import numroots
from .errors import DomainError, EnumerationError, check_tolerance, overflow_as
from .polyring import Polynomial, VarTable, _Record, eval_exact, eval_scaled_many, restrict_to_line
from .polyring import eval_scaled  # noqa: F401  (the acceptance tests and perfbench import it from here)
from .symfam import FAMILY_PARAMS, make_family, singular_locus_check, x4_triple

DEFAULT_CERT_TOL = 1e-9
DEFAULT_DEDUPE_TOL = 1e-8
#: absolute slack of a dedupe cell, far above the rounding of a modulus sum
_CELL_MARGIN = 2.0 ** -40


class AffineChart(_Record):
    """One affine chart of the dual plane: the named coordinate's line
    coefficient is normalized to 1 and the coordinate is eliminated.  The
    line coefficients in ``slots`` are the values of the two ``unknowns``."""

    __slots__ = _fields = ("id", "normalized", "pair", "unknowns", "slots")

    def point(self, coefficients) -> dict:
        """The chart point of a line: its coefficients in ``slots``, by unknown."""
        return {self.unknowns[0]: coefficients[self.slots[0]],
                self.unknowns[1]: coefficients[self.slots[1]]}


CHARTS = {
    "XY": AffineChart("XY", "z", ("x", "y"), ("a", "b"), (0, 1)),
    "YZ": AffineChart("YZ", "x", ("y", "z"), ("b", "c"), (1, 2)),
    "ZX": AffineChart("ZX", "y", ("x", "z"), ("a", "c"), (0, 2)),
}

#: Chart of a line whose coefficient in the given slot is normalized to 1.
_SLOT_CHART = {"xyz".index(c.normalized): c.id for c in CHARTS.values()}


class ProjLine(_Record):
    """A projective line with deterministically normalized complex coefficients.

    :meth:`from_coefficients` scales the coefficient of largest modulus (first
    such slot on ties) to exactly 1, so every modulus is at most 1 up to
    rounding; the constructor takes only a triple already in that form.  The
    three moduli are computed and checked once, when the line is built; they
    stay out of ``repr`` and equality.
    """

    _fields = ("coefficients",)
    __slots__ = _fields + ("moduli",)

    def __init__(self, coefficients: tuple[complex, complex, complex]):
        try:
            moduli = _moduli(coefficients)
        except OverflowError:       # a modulus above the largest double is not normalized
            moduli = (math.inf,)
        if not abs(max(moduli) - 1.0) < _CELL_MARGIN:     # the dedupe's cells need it
            raise DomainError(f"line {coefficients} is not normalized: use from_coefficients")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "moduli", moduli)

    @classmethod
    def from_coefficients(cls, coeffs) -> "ProjLine":
        c = tuple(map(complex, coeffs))
        try:
            mags = _moduli(c)
        except OverflowError:       # a modulus above the largest double: the line of c / 4
            return cls.from_coefficients(_scaled(c, -2))
        k = mags.index(max(mags))
        # exact unit in the pivot slot
        return cls(tuple(1.0 + 0.0j if i == k else v / c[k] for i, v in enumerate(c)))

    @property
    def pivot(self) -> int:
        return self.moduli.index(max(self.moduli))

    @property
    def chart(self) -> str:
        return _SLOT_CHART[self.pivot]

    def sort_key(self):
        return tuple(
            (round(v.real, 9), round(v.imag, 9)) for v in self.coefficients
        )


def _moduli(coefficients) -> tuple[float, ...]:
    """The moduli of a line's coefficients, which must be three, finite and
    not all zero (else :class:`DomainError`)."""
    if len(coefficients) != 3:
        raise DomainError(f"a line has 3 coefficients, got {len(coefficients)}")
    mags = tuple(map(abs, coefficients))
    if not all(map(math.isfinite, mags)):
        raise DomainError(f"non-finite line: coefficients not all finite: {tuple(coefficients)}")
    if max(mags) == 0.0:
        raise DomainError("zero line: all coefficients are zero")
    return mags


def _scaled(c, e: int) -> tuple[complex, ...]:
    """*c* times 2**e part by part (no 0 * inf NaN), exact within the normal range."""
    return tuple(complex(math.ldexp(v.real, e), math.ldexp(v.imag, e)) for v in c)


def _distance(p: ProjLine, q: ProjLine) -> float:
    """:func:`proj_distance` of two lines.  Their largest moduli are 1 up to
    rounding, so no minor overflows."""
    (p0, p1, p2), (q0, q1, q2) = p.coefficients, q.coefficients
    minor = max(abs(p0 * q1 - p1 * q0), abs(p0 * q2 - p2 * q0), abs(p1 * q2 - p2 * q1))
    return minor / (max(p.moduli) * max(q.moduli))


def proj_distance(p, q) -> float:
    """Projective distance of two coefficient triples: the largest 2x2 minor
    of their :meth:`ProjLine.from_coefficients` lines, over the product of
    their largest moduli."""
    return _distance(ProjLine.from_coefficients(p), ProjLine.from_coefficients(q))


class _LineSet:
    """The one projective dedupe: the lines kept so far, each filed in the cell
    of its modulus sum (see :func:`dedupe_lines`)."""

    def __init__(self, tol: float):
        self._tol = tol
        self._width = 8 * tol + _CELL_MARGIN
        self._slack = 2 * tol + _CELL_MARGIN
        self._cells: dict[int, list] = {}

    def fresh(self, line: ProjLine) -> int | None:
        """The cell of a line for :meth:`keep`, or None when a kept line lies within tol."""
        m0, m1, m2 = line.moduli
        cell = int((m0 + m1 + m2) / self._width)
        slack, tol = self._slack, self._tol
        for near in (cell - 1, cell, cell + 1):
            for rep in self._cells.get(near, ()):
                r0, r1, r2 = rep.moduli
                if (abs(m0 - r0) < slack and abs(m1 - r1) < slack and abs(m2 - r2) < slack
                        and _distance(line, rep) < tol):
                    return None
        return cell

    def keep(self, line: ProjLine, cell: int) -> None:
        self._cells.setdefault(cell, []).append(line)


def dedupe_lines(lines, tol: float = DEFAULT_DEDUPE_TOL):
    """Collapse projectively equal lines, keeping the first of each class.

    Items are :class:`ProjLine`, :class:`BitangentCert` or coefficient
    triples; the representatives come back in deterministic ``sort_key`` order.
    A line is kept when no representative kept so far lies within *tol*.

    Each line is normalized once, to its :class:`ProjLine` P, and compared
    only with the representatives Q that can lie within *tol*.  Let k be the
    slot of P's largest modulus, so |P_k| = 1 up to rounding.  If
    d(P, Q) < tol, the minor of slots k, j gives | |Q_j| - |P_j| |Q_k| | < tol
    for every j; at the slot of Q's largest modulus this gives |Q_k| > 1 - tol,
    so ||Q_k| - |P_k|| < tol and ||Q_j| - |P_j|| < 2 tol for j != k.  Hence the
    modulus sums S = sum |P_i| and sum |Q_i| differ by less than 5 tol.  Every
    representative sits in the cell floor(S / w) with w = 8 tol + 2^-40; a
    match therefore lies in the line's own cell or one next to it, and within
    it each of its moduli |Q_j| lies within 2 tol + 2^-40 of |P_j|, so the
    distance is computed only for a representative that passes both tests.
    The absolute 2^-40 covers the float rounding of S, of the moduli (|P_k|
    among them) and of the distance, which a margin proportional to a
    tolerance near 1e-300 or 5e-324 would not.  Since a line is kept exactly
    when no match exists, the decisions (and the result) are those of
    comparing with every representative.
    """
    check_tolerance("tol", tol)
    seen = _LineSet(tol)
    reps = []
    for line in lines:
        if not isinstance(line, (ProjLine, BitangentCert)):
            line = ProjLine.from_coefficients(line)
        proj = line.line if isinstance(line, BitangentCert) else line
        cell = seen.fresh(proj)
        if cell is not None:
            seen.keep(proj, cell)
            reps.append(line)
    return sorted(reps, key=lambda l: l.sort_key())


class BitangentCert(_Record):
    """A certified bitangent: the line, its perfect-square fit and residuals."""

    __slots__ = _fields = ("line", "lam", "residual", "source", "chart")

    def __init__(self, line: ProjLine, lam: tuple[complex, complex, complex], residual: float,
                 source: str, chart: str):
        put = object.__setattr__     # as fast as a generated __init__: certify builds many
        put(self, "line", line)
        put(self, "lam", lam)
        put(self, "residual", residual)
        put(self, "source", source)
        put(self, "chart", chart)

    @property
    def coefficients(self) -> tuple[complex, complex, complex]:
        return self.line.coefficients

    def sort_key(self):
        return self.line.sort_key()


# -- the tangency system ------------------------------------------------------


def _chart_table(table: VarTable, chart: str) -> VarTable:
    clash = [n for n in ("a", "b", "c", "l0", "l1", "l2") if n in table.names]
    if clash:
        raise DomainError(f"variable {clash[0]!r} is reserved for the bitangent unknowns")
    return VarTable(table.geometric, table.parameters + CHARTS[chart].unknowns + ("l0", "l1", "l2"))


def restriction_coefficients(f, chart: str) -> tuple[Polynomial, ...]:
    """The five coefficients of ``f`` restricted to the chart's general line.

    Returned in the order ``v1^4, v1^3 v2, v1^2 v2^2, v1 v2^3, v2^4`` where
    ``(v1, v2)`` is the chart's binary pair; entries are polynomials in the
    chart unknowns and the family parameters.  The tuple is shared through a
    cache, so it is immutable.  A chart not in :data:`CHARTS` raises
    :class:`DomainError`.
    """
    if not (isinstance(chart, str) and chart in CHARTS):     # a list is not hashable
        raise DomainError(f"unknown chart {chart!r}; the charts are {', '.join(CHARTS)}")
    poly = getattr(f, "poly", f)
    return _restriction_coefficients_cached(poly, chart)


@lru_cache(maxsize=len(CHARTS))
def _restriction_coefficients_cached(poly: Polynomial, chart: str) -> tuple[Polynomial, ...]:
    spec = CHARTS[chart]
    return tuple(restrict_to_line(poly, _chart_table(poly.table, chart), spec.normalized,
                                  spec.pair, spec.unknowns))


def build_tangency_system(f, chart: str = "XY") -> list[Polynomial]:
    """The five coefficient-comparison generators of the bitangent ideal.

    Generator k is (coefficient k of the restricted quartic) minus
    (coefficient k of ``(l0 v1^2 + l1 v1 v2 + l2 v2^2)^2``).
    """
    coeffs = restriction_coefficients(f, chart)
    table = coeffs[0].table
    l0 = Polynomial.variable(table, "l0")
    l1 = Polynomial.variable(table, "l1")
    l2 = Polynomial.variable(table, "l2")
    squares = [l0 * l0, 2 * l0 * l1, l1 * l1 + 2 * l0 * l2, 2 * l1 * l2, l2 * l2]
    return [c - sq for c, sq in zip(coeffs, squares)]


def perfect_square_fit(coeffs, tol: float = DEFAULT_CERT_TOL):
    """Fit ``(l0, l1, l2)`` with ``sum coeffs[k] monomials == (l0 x^2 + l1 xy + l2 y^2)^2``.

    ``coeffs`` are the five binary-quartic coefficients ``c40..c04``.  Tries
    the three well-conditioned anchors (leading, trailing, middle) and keeps
    the branch with the smallest residual, the maximum coefficient mismatch
    normalized by ``max |c|``.  Returns ``(lam, residual)`` or ``None`` when
    no branch fits below *tol* (a NaN residual never does) or a coefficient
    is not finite.  A *tol* that is not a finite number > 0, or a count of
    coefficients other than five, raises :class:`DomainError`.  Coefficients
    whose moduli overflow a double are fitted divided by 4^512.
    """
    check_tolerance("tol", tol)
    c = [complex(v) for v in coeffs]
    if len(c) != 5:
        raise DomainError(f"a square fit takes 5 coefficients, got {len(c)}")
    try:
        return _square_fit(c, tol)
    except OverflowError:       # a modulus above the largest double
        # fit c / 4^512, whose moduli are at most 2, and scale the square root back
        fit = _square_fit(_scaled(c, -1024), tol)
        return fit and (_scaled(fit[0], 512), fit[1])


def _square_fit(c: list[complex], tol: float):
    """:func:`perfect_square_fit` of five complex coefficients."""
    top = max(abs(v) for v in c)
    # max() skips a NaN that is not first, so test every coefficient
    if top == 0.0 or not all(map(cmath.isfinite, c)):
        return None
    candidates = []
    c40, c31, c22, c13, c04 = c
    # every strategy with a usable anchor competes; the residual decides
    if abs(c40) > 1e-18 * top:
        l0 = cmath.sqrt(c40)
        l1 = c31 / (2 * l0)
        candidates.append((l0, l1, (c22 - l1 * l1) / (2 * l0)))
        for sign in (1, -1):
            candidates.append((l0, l1, sign * cmath.sqrt(c04)))
    if abs(c04) > 1e-18 * top:
        l2 = cmath.sqrt(c04)
        l1 = c13 / (2 * l2)
        candidates.append(((c22 - l1 * l1) / (2 * l2), l1, l2))
    if abs(c22) > 1e-18 * top:
        l1 = cmath.sqrt(c22)
        candidates.append((c31 / (2 * l1), l1, c13 / (2 * l1)))
    best = None
    for lam in candidates:
        l0, l1, l2 = lam
        # the coefficients of (l0 x^2 + l1 xy + l2 y^2)^2 subtracted from c40..c04
        residual = max(abs(c40 - l0 * l0), abs(c31 - 2 * l0 * l1),
                       abs(c22 - (l1 * l1 + 2 * l0 * l2)), abs(c13 - 2 * l1 * l2),
                       abs(c04 - l2 * l2)) / top
        if residual < tol and (best is None or residual < best[1]):
            best = (lam, residual)
    return best


# -- per-family component solving ----------------------------------------------


def _coeff_values(coeff_polys, params: dict) -> list[Fraction]:
    return [eval_exact(c, params) for c in coeff_polys]


def _biq_roots(coeff_polys, params) -> list[complex]:
    """Roots from ascending even-power coefficients (c0, c2, c4)."""
    return numroots.biquadratic_roots(_coeff_values(coeff_polys, params))


def _quad_b2_roots(coeff_polys, params) -> list[complex]:
    """Both roots b of c0 + c1 b^2 = 0; c1 is 1 or r + 1, and r = -1 is X24's singular locus."""
    c0, c1 = _coeff_values(coeff_polys, params)
    root = cmath.sqrt(complex(-c0 / c1))
    return [root, -root]


#: The (coefficient, rest) pairs of the J1 a^2 splits, flattened for one evaluation.
_X4_J1_SPLIT_POLYS = tuple(p for split in comp.X4_J1_A2_SPLITS for p in split)


def _solve_x4_axes(r, s, u):
    """Chart solutions (a, b, tag) of the three-parameter family on the chart's
    axes: the J2 biquadratic, and for J3 the same at (r, u, s)."""
    out = []
    for b in _biq_roots(comp.X4_J2_BIQUADRATIC, {"r": r, "s": s, "u": u}):
        out.append((0j, b, "J2"))
    for a in _biq_roots(comp.X4_J2_BIQUADRATIC, {"r": r, "s": u, "u": s}):
        out.append((a, 0j, "J3"))
    return out


def _solve_x4_j1(r, s, u):
    """Chart solutions (a, b, tag) of the three-parameter family's general
    component J1: the palindromic resolvent in b, then a^2 from a split."""
    params = {"r": r, "s": s, "u": u}
    out = []
    quartic = _coeff_values(comp.X4_J1_QUARTIC_B[:3], params)
    quartic += quartic[1::-1]       # palindromic: (k0, k1, k2, k1, k0)
    eliminant = [0j] * 9
    for k, c in enumerate(quartic):
        eliminant[2 * k] = complex(c)
    point = {k: complex(float(v)) for k, v in params.items()}
    for big in numroots.palindromic_quartic_roots(*quartic[:3]):
        for b in (cmath.sqrt(big), -cmath.sqrt(big)):
            point["b"] = b = numroots.newton_polish(eliminant, b)
            values = [v for v, _ in eval_scaled_many(_X4_J1_SPLIT_POLYS, point)]
            # the first split of largest coefficient modulus; a NaN never replaces it
            cval, rval = values[0], values[1]
            for c, rest in zip(values[2::2], values[3::2]):
                if abs(c) > abs(cval):
                    cval, rval = c, rest
            if abs(cval) < 1e-12:
                # no usable split: a NaN candidate, rejected under "J1(split)"
                out.append((cmath.nan, b, "J1(split)"))
                continue
            a2 = -rval / cval
            a = cmath.sqrt(a2)
            out.append((a, b, "J1"))
            out.append((-a, b, "J1"))
    return out


def _solve_x16_chart(r, s):
    params = {"r": r, "s": s}
    out = []
    axis = _biq_roots(comp.X4_J2_BIQUADRATIC, {"r": r, "s": s, "u": s})
    for b in axis:
        out.append((0j, b, "J1"))
    for a in axis:
        out.append((a, 0j, "J2"))
    for b in _biq_roots(comp.X16_J56_BIQUADRATIC, params):
        out.append((-b, b, "J5"))
        out.append((b, b, "J6"))
    for b in _biq_roots(comp.X16_J7_BIQUADRATIC, params):
        a = cmath.sqrt(-complex(float(s)) - b * b)
        out.append((a, b, "J7"))
        out.append((-a, b, "J7"))
    return out


def _solve_x24_chart(r):
    params = {"r": r}
    out = []
    axis = _biq_roots(comp.X24_J2_BIQUADRATIC, params)
    for b in axis:
        out.append((0j, b, "J2"))
    for a in axis:
        out.append((a, 0j, "J3"))
    for tag, a, b in comp.X24_RATIONAL_POINTS:
        out.append((complex(a), complex(b), tag))
    for b in _quad_b2_roots(comp.X24_J69_QUADRATIC, params):
        out.append((-b, b, "J6"))
        out.append((b, b, "J9"))
    for b in _quad_b2_roots(comp.X24_J10_13_QUADRATIC, params):
        out.append((-1 + 0j, b, "J10"))
        out.append((1 + 0j, b, "J11"))
        out.append((b, -1 + 0j, "J12"))
        out.append((b, 1 + 0j, "J13"))
    return out


_EIGHTH_ROOTS = tuple(cmath.exp(1j * cmath.pi * k / 4) for k in range(8))


def _x96_candidates(_triple):
    """The closed-form list: Fermat's 28 lines need no parameters.  The 16
    general lines have fourth roots of unity as coefficients and the 12 axis
    lines a primitive eighth root w (w^4 = -1)."""
    out = []
    for za in _EIGHTH_ROOTS[::2]:
        for zb in _EIGHTH_ROOTS[::2]:
            out.append(((za, zb, 1.0 + 0j), "X96.full"))
    for w in _EIGHTH_ROOTS[1::2]:
        for pattern in ((0, 1, w), (0, w, 1), (1, 0, w), (w, 0, 1), (1, w, 0), (w, 1, 0)):
            out.append((tuple(complex(v) for v in pattern), "X96.axis"))
    return out


# -- candidate sources ---------------------------------------------------------

#: Per chart: the order of the X4 triple in its solver and the line embedding.
_CHART_ROTATIONS = (
    ((0, 1, 2), lambda a, b: (a, b, 1 + 0j)),
    ((1, 2, 0), lambda a, b: (1 + 0j, a, b)),
    ((2, 0, 1), lambda a, b: (b, 1 + 0j, a)),
)


def _in_charts(family: str, solvers, rotations=_CHART_ROTATIONS):
    """A candidate source: in each chart, the chart solvers in turn on the rotated triple."""
    def source(triple):
        return [(embed(a, b), f"{family}.{tag}")
                for order, embed in rotations
                for solve in solvers
                for a, b, tag in solve(*(triple[i] for i in order))]
    return source


def _x16_candidates(triple):
    r, s, _ = triple
    out = [((a, b, 1 + 0j), f"X16.{tag}") for a, b, tag in _solve_x16_chart(r, s)]
    for b in _biq_roots(comp.X4_J2_BIQUADRATIC, {"r": s, "s": r, "u": s}):
        out.append(((1 + 0j, b, 0j), "X16.J1''"))
    return out


_x4_xy_candidates = _in_charts("X4", (_solve_x4_axes, _solve_x4_j1), _CHART_ROTATIONS[:1])
_x4_axis_candidates = _in_charts("X4", (_solve_x4_axes,), _CHART_ROTATIONS[1:])
_x4_j1_candidates = _in_charts("X4", (_solve_x4_j1,), _CHART_ROTATIONS[1:])
_x24_candidates = _in_charts("X24", (lambda r, s, u: _solve_x24_chart(r),))


def _x4_diagonal_candidates(triple):
    """X4 members with |r| = |s| = |u|, where the J1 resolvent has the double
    root B = 1 and every a^2 split vanishes.  Such a member is X24(a) with
    a = sign(rsu) |r| after x, y, z -> d_x x, y, d_z z, where d in {1, i} and
    d_x^2 r = a = d_z^2 s; its lines are X24(a)'s with each coefficient
    multiplied by its d."""
    r, s, u = triple
    if not abs(r) == abs(s) == abs(u):
        return []
    a = abs(r) if r * s * u >= 0 else -abs(r)
    d = (1 if r == a else 1j, 1, 1 if s == a else 1j)
    return [(tuple(c * k for c, k in zip(coeffs, d)), source)
            for coeffs, source in _x24_candidates((a, a, a))]


#: Candidate passes per family, each a tuple of sources called with the
#: member's X4 triple.  A pass after the first runs only when the lines
#: certified so far do not dedupe to exactly 28.  Family components come
#: first, so deduplication keeps their tags for lines found both ways.  The
#: run counts below are over the first 300 certify inputs of seeds 1-10.
#:
#: X4's first pass is chart XY's full solve, whose J1 gives the 16 general
#: lines, the J2/J3 components of charts YZ and ZX, which give the four
#: lines with a zero z coefficient, and the diagonal source (empty off
#: |r| = |s| = |u|; it keeps the X24 tags of the lines it finds there).  The
#: J1 components of YZ and ZX repeat XY's general lines, and near the
#: singular surface they also add false ones (32-line over-counts), so they
#: run second: for 197 of 1,000 X4 members, 119 of which then certify.
_X4_PASSES = ((_x4_xy_candidates, _x4_axis_candidates, _x4_diagonal_candidates),
              (_x4_j1_candidates,))

#: X16(r, s) is X4(r, s, s), so its later passes are X4's.  They rescue
#: members whose X16.J7 candidates have no perfect-square lift on thin loci
#: (53 of the 58 rescued in a sweep of 1,561).  X4's first pass runs for 102
#: of 1,000 X16 members (22 then certify), its second for 80 (7 certify).
#: Run on every member, they let near-tangent X4.J1 lines over-count.
#:
#: X24's own 72 candidates already give all 28 lines.
CANDIDATE_SOURCES = {
    "X4": _X4_PASSES,
    "X16": ((_x16_candidates,), *_X4_PASSES),
    "X24": ((_x24_candidates,),),
    "X96": ((_x96_candidates,),),
}


def _kills_x4_j1_generators(cert: BitangentCert, triple, tol: float) -> bool:
    """Whether a line from X4's general component J1 also kills all ten ideal
    generators in chart XY; one with a vanishing z coefficient cannot be
    checked there and fails."""
    c0, c1, c2 = cert.coefficients
    if not abs(c2) > 1e-12:
        return False
    point = {"a": c0 / c2, "b": c1 / c2,
             **{k: complex(float(v)) for k, v in zip(FAMILY_PARAMS["X4"], triple)}}
    return all(abs(v) / max(scale, 1.0) < tol
               for v, scale in eval_scaled_many(comp.X4_J1_GENERATORS, point))


def _certify(fpoly: Polynomial, line: ProjLine, tol: float, source: str):
    """Perfect-square certification of a normalized candidate line against ``fpoly``."""
    chart = line.chart
    point = CHARTS[chart].point(line.coefficients)
    values = [v for v, _ in eval_scaled_many(_restriction_coefficients_cached(fpoly, chart), point)]
    fit = perfect_square_fit(values, tol)
    if fit is None:
        return None
    lam, residual = fit
    return BitangentCert(line, lam, residual, source, chart)


def enumerate_bitangents(family: str, params=(), tol: float = DEFAULT_CERT_TOL,
                         dedupe_tol: float = DEFAULT_DEDUPE_TOL) -> list[BitangentCert]:
    """All 28 bitangents of a family member at exact rational parameters.

    Raises :class:`DegeneracyError` on the excluded parameter loci,
    :class:`EnumerationError` (with per-component diagnostics) if
    certification and projective deduplication do not end at exactly 28
    distinct lines or if a value overflows double precision, and
    :class:`DomainError` on an unknown family, a wrong parameter count or a
    tolerance that is not a finite number > 0.

    A candidate within *dedupe_tol* of a line kept so far is skipped: a
    dedupe of every certified line, in candidate order, would drop it whether
    or not it certifies.  The skipped candidates are certified only when the
    count is not 28, so that the error counts every rejected candidate, its
    sources in candidate order.
    """
    check_tolerance("tol", tol)
    check_tolerance("dedupe_tol", dedupe_tol)
    form = make_family(family, tuple(params))
    params = form.params
    singular_locus_check(family, params)
    triple = x4_triple(family, params)
    member = f"{family}{tuple(str(v) for v in params)}"

    seen = _LineSet(dedupe_tol)
    reps: list[BitangentCert] = []
    rejected: list[tuple[float, str]] = []      # (candidate index, source) of each failure
    skipped: list[tuple[int, ProjLine, str]] = []

    def certify(index: int, line: ProjLine, source: str):
        """The certificate of a candidate, or None once its rejection is counted."""
        cert = _certify(form.poly, line, tol, source)
        if cert is None:
            rejected.append((index, source))
        elif source == "X4.J1" and not _kills_x4_j1_generators(cert, triple, tol):
            # a general-position X4 line, whatever the family, must also kill
            # the J1 generators; index inf sorts it after the other failures
            rejected.append((math.inf, "X4.J1(generators)"))
        else:
            return cert
        return None

    index = itertools.count()
    with overflow_as(EnumerationError, member):
        for sources in CANDIDATE_SOURCES[family]:
            for source in sources:
                for coeffs, tag in source(triple):
                    i = next(index)
                    if not all(map(cmath.isfinite, coeffs)):
                        rejected.append((i, tag))
                        continue
                    line = ProjLine.from_coefficients(coeffs)
                    cell = seen.fresh(line)
                    if cell is None:
                        skipped.append((i, line, tag))
                    elif (cert := certify(i, line, tag)) is not None:
                        seen.keep(line, cell)
                        reps.append(cert)
            if len(reps) == 28:
                break
        reps.sort(key=BitangentCert.sort_key)
        if len(reps) != 28:
            for i, line, tag in skipped:
                certify(i, line, tag)

    if len(reps) != 28:
        counts = dict(Counter(c.source for c in reps))
        failures = dict(Counter(tag for _, tag in sorted(rejected)))
        raise EnumerationError(
            f"{member}: {len(reps)} distinct certified lines instead of 28 "
            f"(by component: {counts}; rejected: {failures})"
        )
    return reps


def coordinate_type_count(certs) -> tuple[int, int]:
    """Split a certified line list into (coordinate-type, general) counts.

    Coordinate-type bitangents have a vanishing coefficient; the general
    lines of the three-parameter family have full support.
    """
    coord = sum(
        1 for c in certs if any(abs(v) < 1e-7 for v in c.line.coefficients)
    )
    return coord, len(certs) - coord

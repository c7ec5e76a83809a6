"""Differential pairings, Hessian machinery and binary transvectants.

These are the computational primitives behind the quartic invariants:

* ``diff_pair(f, g)`` applies the differential operator determined by ``f``
  to ``g``: each term ``c * x1^i1 ... xn^in`` of ``f`` contributes
  ``c * d^(i1+...+in) g / dx1^i1 ... dxn^in``.  Only geometric variables
  differentiate; parameter content of ``f`` multiplies through.  It is owned
  by :mod:`quartics.polyring`, with ``multi_partial``, and imported here so
  that the invariant pipeline finds all its operators in one module.
* ``hessian(f)`` builds the matrix of bare second partials, the convention
  pinned by the Fermat anchor ``I6 = 13822`` (see :mod:`quartics.dixmier`).
* ``transvectant(F, G, k)`` is the classical bilinear pairing of two binary
  forms, computed by direct binomial expansion of the Cayley operator.

``diff_pair`` is one pass over the packed keys of both operands, and each
distinct Hessian entry is one ``multi_partial``: one pass over the keys of
``f``.  Each has one normalization per result and builds no intermediate
polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegreeError, DomainError, TableMismatchError
from .polyring import Polynomial, diff_pair, multi_partial  # noqa: F401  (re-exports diff_pair)


def hessian(f: Polynomial) -> tuple[tuple[Polynomial, ...], ...]:
    """Rows of the matrix of bare second partials of ``f`` in its 3 geometric variables."""
    if f.table.n_geometric != 3:
        raise DegreeError(f"hessian needs 3 geometric variables, table has {f.table.n_geometric}")
    x = f.table.geometric
    h = {(i, j): multi_partial(f, {x[i]: 2} if i == j else {x[i]: 1, x[j]: 1})
         for i in range(3) for j in range(i, 3)}
    return tuple(tuple(h[min(i, j), max(i, j)] for j in range(3)) for i in range(3))


def det(rows):
    """Determinant of a square matrix given by its rows, by cofactor expansion
    along the first row (sizes up to 4 in practice).

    The minor of the rows below a row on a set of columns is the same on every
    expansion path that reaches it, so each is expanded once and kept.  A zero
    entry is skipped, and complex terms are added left to right (not by
    ``sum``: newer Pythons compensate its float sums).  Exact for polynomial
    entries; complex entries give the numeric value.
    """
    n = len(rows)
    if not rows or any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    minors = {(c,): entry for c, entry in enumerate(rows[-1])}

    def minor(cols):
        """The determinant of the last ``len(cols)`` rows on the columns *cols*."""
        row = rows[n - len(cols)]
        terms = []
        for j, c in enumerate(cols):
            if entry := row[c]:
                rest = cols[:j] + cols[j + 1:]
                if (sub := minors.get(rest)) is None:
                    sub = minors[rest] = minor(rest)
                terms.append((-1 if j % 2 else 1, entry, sub))
        first = row[cols[0]]
        if isinstance(first, Polynomial):
            return Polynomial.sum_of_products(first.table, terms)
        total = 0 * first
        for sign, entry, sub in terms:
            term = entry * sub
            total = total + (term if sign > 0 else -term)
        return total

    cols = tuple(range(n))
    return minors[cols] if n == 1 else minor(cols)


def adjugate(m) -> tuple[tuple[Polynomial, ...], ...]:
    """Rows of the classical adjugate (transpose of cofactors) of a 3x3 matrix
    given by its rows.

    Satisfies ``m * adj(m) = det(m) * Id`` exactly.
    """
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise DegreeError("adjugate implemented for 3x3 matrices")
    def cof(i, j):      # from the cyclically next rows and columns, so the sign is built in
        i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        return Polynomial.sum_of_products(
            m[0][0].table, ((1, m[i1][j1], m[i2][j2]), (-1, m[i1][j2], m[i2][j1])))
    # adjugate[i][j] = cofactor(j, i)
    return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))


def dot(a, b) -> Polynomial:
    """Matrix dot product ``sum_ij a[i][j] * b[j][i]`` of two square matrices
    given by their rows (exact)."""
    n = len(a)
    if not n or any(len(m) != n or any(len(row) != n for row in m) for m in (a, b)):
        raise DegreeError("dot needs two n x n matrices with n >= 1")
    return Polynomial.sum_of_products(
        a[0][0].table, ((1, a[i][j], b[j][i]) for i in range(n) for j in range(n)))


def j_bracket(f: Polynomial, g: Polynomial) -> tuple[Polynomial, ...]:
    """The four J-brackets ``(J11, J22, J30, J03)`` of two quadratic ternary forms.

    ``J11 = <H(f), H(g)>``, ``J22 = <H*(f), H*(g)>``, ``J30 = det H(f)``,
    ``J03 = det H(g)``, all from one Hessian of each form.  The Hessians of
    quadratics have constant entries.  Degenerate inputs of geometric degree
    below 2 are allowed (their second partials simply vanish); degree above 2
    is an error.
    """
    for p in (f, g):
        if p.geometric_degree() > 2:
            raise DegreeError("J brackets are defined for quadratic forms")
    hf, hg = hessian(f), hessian(g)
    return dot(hf, hg), dot(adjugate(hf), adjugate(hg)), det(hf), det(hg)


def transvectant(F: Polynomial, G: Polynomial, k: int,
                 pair: tuple[str, str] | None = None) -> Polynomial:
    """The k-th transvectant of two binary forms.

    With ``r = deg F`` and ``s = deg G``::

        (F,G)^k = (r-k)!(s-k)!/(r!s!) *
                  sum_m C(k,m) (-1)^m  dx^(k-m) dy^m F  *  dx^m dy^(k-m) G

    which is the binomial expansion of the Cayley operator power.  Requires
    ``0 <= k <= min(r, s)``, where a zero operand counts as having the other
    operand's degree; the transvectant with a zero operand is zero.
    """
    if F.table != G.table:
        raise TableMismatchError("transvectant operands use different variable tables")
    if pair is None:
        pair = F.table.geometric[:2]
        if len(pair) < 2:
            raise DegreeError("table has fewer than two geometric variables")
    x, y = pair
    for p, label in ((F, "F"), (G, "G")):
        extra = {n for n in p.support_names() if p.table.is_geometric(n)} - {x, y}
        if extra:
            raise DegreeError(f"{label} is not a binary form in ({x},{y}): uses {sorted(extra)}")
        if not p.is_geometric_homogeneous():
            raise DegreeError(f"{label} is not homogeneous in ({x},{y})")
    r = (F or G).geometric_degree()
    s = (G or F).geometric_degree()
    if k < 0 or k > min(r, s):
        raise DomainError(f"transvectant order {k} exceeds min(deg F, deg G) = {min(r, s)}")
    if F.is_zero() or G.is_zero():
        return Polynomial.zero(F.table)
    scale = Fraction(1, math.perm(r, k) * math.perm(s, k))     # (r-k)!(s-k)!/(r!s!)
    return Polynomial.sum_of_products(F.table, (
        ((-1) ** m * math.comb(k, m) * scale,
         multi_partial(F, {x: k - m, y: m}), multi_partial(G, {x: m, y: k - m}))
        for m in range(k + 1)))

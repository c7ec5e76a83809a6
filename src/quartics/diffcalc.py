"""Differential pairings, Hessian machinery and binary transvectants.

These are the computational primitives behind the quartic invariants:

* ``diff_pair(f, g)`` applies the differential operator determined by ``f``
  to ``g``: each term ``c * x1^i1 ... xn^in`` of ``f`` contributes
  ``c * d^(i1+...+in) g / dx1^i1 ... dxn^in``.  Only geometric variables
  differentiate; parameter content of ``f`` multiplies through.  The one
  differentiation kernel, owned by :mod:`quartics.polyring`, imported here so
  that the invariant pipeline finds all its operators in one module.
* ``hessian(f)`` builds the matrix of bare second partials, the convention
  pinned by the Fermat anchor ``I6 = 13822`` (see :mod:`quartics.dixmier`).
* ``transvectant(F, G, k)`` is the classical bilinear pairing of two binary
  forms, computed by direct binomial expansion of the Cayley operator.

``diff_pair`` and every sum of products here run the plan of their operands'
key sets, which repeat from call to call: interpreted while cold, then as
generated straight-line code (``polyring._pairing``).  Each distinct Hessian
entry and each transvectant partial is one ``multi_partial``.  ``j_bracket``
forms the six distinct entries and cofactors of each symmetric Hessian once and
contracts them, an off-diagonal product with weight 2, in four sums of products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import DegreeError, DomainError, TableMismatchError
from .polyring import (Polynomial, _generated, diff_pair,  # noqa: F401  (re-exports diff_pair)
                       multi_partial)


def hessian(f: Polynomial) -> tuple[tuple[Polynomial, ...], ...]:
    """Rows of the matrix of bare second partials of ``f`` in its 3 geometric variables."""
    if f.table.n_geometric != 3:
        raise DegreeError(f"hessian needs 3 geometric variables, table has {f.table.n_geometric}")
    x = f.table.geometric
    h = {(i, j): multi_partial(f, {x[i]: 2} if i == j else {x[i]: 1, x[j]: 1})
         for i in range(3) for j in range(i, 3)}
    return tuple(tuple(h[min(i, j), max(i, j)] for j in range(3)) for i in range(3))


@lru_cache(maxsize=64)
def _expansion(n: int, zero: tuple[bool, ...]):
    """The cofactor expansion of an n x n determinant whose entry (i, j) is zero
    when ``zero[i * n + j]``, as steps for one bottom-up pass: for each set of
    columns that the expansion along the first row reaches through nonzero
    entries, smaller sets first, as ``(row, mask, lowest column, terms)``: the
    mask's bits are the columns, and each term ``(column, odd, rest)`` is a
    nonzero entry of the row and the mask of the minor it multiplies."""
    needed = {(1 << n) - 1}
    steps = []
    for size in range(n, 1, -1):
        row = n - size
        for cols in combinations(range(n), size):
            mask = sum(1 << c for c in cols)
            if mask in needed:
                terms = tuple((c, j % 2, mask - (1 << c)) for j, c in enumerate(cols)
                              if not zero[row * n + c])
                needed.update(rest for _, _, rest in terms)
                steps.append((row, mask, cols[0], terms))
    return steps[::-1]


def det(rows):
    """Determinant of a square matrix of polynomials given by its rows, by cofactor
    expansion along the first row; exact.

    One bottom-up pass: the minors of the last row are its entries, and each
    minor of the last k rows on k columns that the expansion reaches is formed
    once, as one ``sum_of_products``, from the minors of the rows below it,
    before any of k + 1 columns.  Which minors are reached, through which
    nonzero entries, depends only on where the zeros are, so the steps are
    worked out once per pattern of zeros and kept (a bounded cache).  An entry
    that is not a :class:`Polynomial` is a :class:`DomainError`: the one float
    determinant is :func:`_pencil_det`.
    """
    n = len(rows)
    if not rows or any(len(row) != n for row in rows):
        raise DomainError("matrix is not square")
    if not all(isinstance(entry, Polynomial) for row in rows for entry in row):
        raise DomainError("det takes polynomial entries")
    minors = {1 << c: entry for c, entry in enumerate(rows[-1])}
    for r, mask, low, terms in _expansion(n, tuple([not entry for row in rows for entry in row])):
        row = rows[r]
        minors[mask] = Polynomial.sum_of_products(row[low].table, [
            (-1 if odd else 1, row[c], minors[rest]) for c, odd, rest in terms])
    return minors[(1 << n) - 1]


@lru_cache(maxsize=64)
def _pencil_det(zero: tuple[bool, ...]):
    """``determinant(k, x, y, z)``: the determinant of the complex pencil whose entry
    ``i * n + j`` is ``x * a + y * b + z * c``, with ``(a, b, c) = k[3 * (i * n + j):]``,
    as straight-line code for the entries that are zero where *zero* says: the
    package's one float determinant.  It forms the entries, then checks their zeros
    and hands a point of another pattern to that pattern's function.  Else it expands
    along the first row through the minors that :func:`det` forms, smaller ones
    first: a minor is ``0 * e``, e the entry of its lowest column, plus
    ``(e * m)`` or ``-(e * m)`` for each nonzero entry e of its row and the minor m
    it multiplies, added left to right in column order (not by ``sum``: newer
    Pythons compensate its float sums).  One function per pattern, generated on
    first use (``polyring._generated``) and kept for the last 64."""
    n = math.isqrt(len(zero))
    size = n * n
    entries = ["e%d" % k for k in range(size)]
    lines = ["[%s] = k" % ", ".join("a%d, b%d, c%d" % (k, k, k) for k in range(size)),
             *("e%d = x * a%d + y * b%d + z * c%d" % (k, k, k, k) for k in range(size)),
             "if %s:" % " or ".join(e if is_zero else "not " + e
                                   for e, is_zero in zip(entries, zero)),
             " return dispatch((%s,))(k, x, y, z)" % ", ".join("not " + e for e in entries)]
    minors = {1 << c: entries[(n - 1) * n + c] for c in range(n)}
    for r, mask, low, terms in _expansion(n, zero):
        minors[mask] = "m%d" % mask
        lines.append("m%d = 0 * %s" % (mask, entries[r * n + low]) + "".join(
            " + %s(%s * %s)" % ("-" if odd else "", entries[r * n + c], minors[rest])
            for c, odd, rest in terms))
    lines.append("return " + minors[(1 << n) - 1])
    return _generated("k, x, y, z", lines, {"dispatch": _pencil_det})


#: The upper triangle of a symmetric 3x3 matrix, and the weight of each entry in a
#: full contraction: an off-diagonal entry stands for two equal products.
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_WEIGHTS = (1, 2, 2, 1, 2, 1)


def _hessian_and_cofactors(p: Polynomial) -> tuple[list[Polynomial], list[Polynomial]]:
    """The six distinct entries of the symmetric Hessian of *p* and its six distinct
    cofactors, both in the order of ``_UPPER``, each formed once."""
    h = hessian(p)
    entries = [h[i][j] for i, j in _UPPER]
    cofactors = []
    for i, j in _UPPER:     # from the cyclically next rows and columns: the sign is built in
        i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        cofactors.append(Polynomial.sum_of_products(
            p.table, ((1, h[i1][j1], h[i2][j2]), (-1, h[i1][j2], h[i2][j1]))))
    return entries, cofactors


def j_bracket(f: Polynomial, g: Polynomial) -> tuple[Polynomial, ...]:
    """The four J-brackets ``(J11, J22, J30, J03)`` of two quadratic ternary forms.

    ``J11 = <H(f), H(g)>``, ``J22 = <H*(f), H*(g)>``, ``J30 = det H(f)``,
    ``J03 = det H(g)``, ``H*`` the adjugate.  Each symmetric Hessian's six
    distinct entries and cofactors are formed once; an off-diagonal product
    weighs 2 in ``<a, b> = sum_ij a_ij b_ji``, and a determinant is its first
    row against that row's cofactors.  The Hessians of quadratics have constant
    entries.  Degenerate inputs of geometric degree below 2 are allowed (their
    second partials simply vanish); degree above 2 is an error.
    """
    for p in (f, g):
        if p.geometric_degree() > 2:
            raise DegreeError("J brackets are defined for quadratic forms")
    (hf, cf), (hg, cg) = _hessian_and_cofactors(f), _hessian_and_cofactors(g)
    return (Polynomial.sum_of_products(f.table, zip(_WEIGHTS, hf, hg)),
            Polynomial.sum_of_products(f.table, zip(_WEIGHTS, cf, cg)),
            Polynomial.sum_of_products(f.table, zip((1, 1, 1), hf, cf)),
            Polynomial.sum_of_products(g.table, zip((1, 1, 1), hg, cg)))


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

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

``diff_pair`` runs the plan of its operands' key sets (``polyring._pairing``), and
each transvectant partial is one ``multi_partial``; a sum of products forms no
plan.  :func:`_hessian`, the one Hessian reader, reads the entries off the unpacked
exponents for ``hessian`` and for the staged plans, kept per key sets, that
``j_bracket`` and ``hessian_det`` run: cofactors, then the sums against them.
Every plan's pairs are formed, and its ints laid out, by ``polyring._Stages``."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import DegreeError, DomainError, TableMismatchError
from .polyring import (_SHAPES, Polynomial, VarTable, _check_table, _generated, _staged, _Stages,
                       diff_pair, multi_partial)  # noqa: F401  (re-exports diff_pair)


def _check_ternary(f: Polynomial):
    if f.table.n_geometric != 3:
        raise DegreeError(f"hessian needs 3 geometric variables, table has {f.table.n_geometric}")


def hessian(f: Polynomial) -> tuple[tuple[Polynomial, ...], ...]:
    """Rows of the matrix of bare second partials of ``f`` in its 3 geometric variables, the
    entries in ``_UPPER`` read off f's terms (:func:`_hessian`), each one's keys descending."""
    _check_ternary(f)
    n = [*f._num.values()]
    h = [Polynomial._from_packed(f.table, dict(sorted([(key, n[i] * w) for i, w, key in terms],
                                                      reverse=True)), f._den)
         for terms in _hessian(f.table, _Stages(f.table, f._num).operands[0])[0]]
    return (h[0], h[1], h[2]), (h[1], h[3], h[4]), (h[2], h[4], h[5])


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


def _hessian(table: VarTable, terms: list) -> tuple[list, list]:
    """The Hessian of a form of the term list *terms* (``polyring._Stages``): the entries in the
    order of ``_UPPER`` as term lists ``(index in n, weight, key)``, a term of x, y, z exponents
    e weighing e_i (e_i - 1) in (i, i), e_i e_j in (i, j), at its key less that of x_i x_j, where
    not 0; and their cofactors as groups of ``_Stages.add``, from the next rows and columns mod 3."""
    unit = [table._unit(v) for v in table.geometric]
    h = {ij: [] for ij in _UPPER}
    for (term, _, key), exps in zip(terms, table._unpack([key for *_, key in terms])):
        for (i, j), entry in h.items():
            if weight := exps[i] * (exps[j] - (i == j)):
                entry.append((term, weight, key - unit[i] - unit[j]))
    m = [[h[min(i % 3, j % 3), max(i % 3, j % 3)] for j in range(5)] for i in range(5)]
    return list(h.values()), [((1, m[i + 1][j + 1], m[i + 2][j + 2]),
                               (-1, m[i + 1][j + 2], m[i + 2][j + 1])) for i, j in _UPPER]


@lru_cache(maxsize=_SHAPES)
def _bracket(table: VarTable, fkeys: tuple[int, ...], gkeys: tuple[int, ...]):
    """``(stages, sums)`` of :func:`j_bracket` for operands of the keys *fkeys* and *gkeys* (the
    last 256), a term of geometric degree above 2 an error first: the cofactors of f's Hessian,
    then g's (:func:`_hessian`); then J11, J22, J30 and J03."""
    if any(sum(exps[:3]) > 2 for exps in table._unpack(fkeys + gkeys)):
        raise DegreeError("J brackets are defined for quadratic forms")
    stages = _Stages(table, fkeys, gkeys)
    (hf, fc), (hg, gc) = (_hessian(table, terms) for terms in stages.operands)
    _, cofactors = stages.add(fc + gc)
    cf, cg = cofactors[:6], cofactors[6:]
    return stages.add([zip(_WEIGHTS, hf, hg), zip(_WEIGHTS, cf, cg),    # J11, J22, J30, J03
                       zip((1, 1, 1), hf, cf), zip((1, 1, 1), hg, cg)])


def j_bracket(f: Polynomial, g: Polynomial) -> tuple[Polynomial, ...]:
    """The four J-brackets ``(J11, J22, J30, J03)`` of two quadratic ternary forms.

    ``J11 = <H(f), H(g)>``, ``J22 = <H*(f), H*(g)>``, ``J30 = det H(f)``,
    ``J03 = det H(g)``, ``H*`` the adjugate: an off-diagonal product of the symmetric
    matrices weighs 2 in ``<a, b> = sum_ij a_ij b_ji``, and a determinant is the first
    row against its cofactors.  Two runs of the plan of the key sets (:func:`_bracket`)
    form the 12 distinct cofactors, then the four sums, over ``Df Dg``, ``(Df Dg)^2``,
    ``Df^3`` and ``Dg^3``.  Geometric degree below 2 is allowed (the second partials
    vanish), above 2 an error; a key past the packing limit is one only where a product
    of nonzero terms forms it (``polyring._Plan.live``).  Operands not ternary or over two tables
    raise the full matrices' first error (degree, f's, g's, the tables'), with no plan."""
    table, df, dg = f.table, f._den, g._den
    if table.n_geometric != 3 or not (g.table is table or g.table == table):
        if max(f.geometric_degree(), g.geometric_degree()) <= 2:
            _check_ternary(f), _check_ternary(g), _check_table(table, g)   # one raises
        raise DegreeError("J brackets are defined for quadratic forms")
    return _staged(table, [*f._num.values(), *g._num.values()], _bracket(
        table, tuple(f._num), tuple(g._num)), (df * dg, (df * dg) ** 2, df ** 3, dg ** 3))


@lru_cache(maxsize=_SHAPES)
def _hessian_det_plan(table: VarTable, keys: tuple[int, ...]):
    """``(stages, (det,))`` of :func:`hessian_det` for a form of the keys *keys* (the last 256): the
    cofactors of its Hessian's first row, each where its entry is not 0 (the minors :func:`det`
    reaches), then the row against them, as J30 in :func:`_bracket`."""
    stages = _Stages(table, keys)
    h, cofactors = _hessian(table, stages.operands[0])
    _, cofactors = stages.add([c if e else () for e, c in zip(h[:3], cofactors)])
    return stages.add([zip((1, 1, 1), h, cofactors)])


def hessian_det(f: Polynomial) -> Polynomial:
    """``det(hessian(f))`` from the two stages of the plan of f's keys, over ``Df^3``."""
    _check_ternary(f)
    return _staged(f.table, [*f._num.values()], _hessian_det_plan(f.table, tuple(f._num)),
                   (f._den ** 3,))[0]


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

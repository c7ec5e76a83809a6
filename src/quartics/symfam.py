"""Constructors for the four symmetric quartic families and the monomial
symmetric basis used to present their invariants.

The families, labeled by the order of their automorphism group:

    X4(r,s,u)   x^4 + y^4 + z^4 + r x^2 y^2 + s y^2 z^2 + u z^2 x^2
    X16(r,s)    x^4 + y^4 + z^4 + r x^2 y^2 + s (y^2 z^2 + z^2 x^2)
    X24(r)      x^4 + y^4 + z^4 + r (x^2 y^2 + y^2 z^2 + z^2 x^2)
    X96         x^4 + y^4 + z^4

X4's invariants are symmetric in (r,s,u), so they decompose over the basis
``S[i1,i2,i3]``: the monomial symmetric polynomial whose leading term is
``r^i1 s^i2 u^i3``.  Reference invariant tables for all four families ship
as data files (see ``data/golden``); :func:`golden_compare` checks a
computed :class:`~quartics.dixmier.InvariantSet` against them, reporting the
per-invariant constant ratio or the first mismatch.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import DegeneracyError, DomainError, rational
from .polyring import _SHAPES, Polynomial, VarTable, _Record

#: Each family as a specialization of X4: the family parameter in each of
#: X4's slots (r, s, u); ``None`` is the constant 0.
X4_SLOTS: dict[str, tuple[str | None, ...]] = {
    "X4": ("r", "s", "u"),
    "X16": ("r", "s", "s"),
    "X24": ("r", "r", "r"),
    "X96": (None, None, None),
}

#: Each family's parameters, in the order they first fill X4's slots.
FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    family: tuple(dict.fromkeys(filter(None, slots))) for family, slots in X4_SLOTS.items()}

#: X4's monomials x^2 y^2, y^2 z^2, z^2 x^2, in the order of its slots (r, s, u).
_X4_MONOMIALS = ({"x": 2, "y": 2}, {"y": 2, "z": 2}, {"z": 2, "x": 2})

GEOMETRIC = ("x", "y", "z")

#: The variables of the monomial symmetric basis: X4's parameters.
BASIS_NAMES = FAMILY_PARAMS["X4"]


class QuarticForm(_Record):
    """A ternary quartic with family metadata.

    ``params`` holds the parameter bindings: variable names for a symbolic
    form, exact rationals for a numeric one.
    """

    __slots__ = _fields = ("poly", "family", "params")

    def __init__(self, poly: Polynomial, family: str, params: tuple):
        if poly.geometric_degree() != 4 or not poly.is_geometric_homogeneous():
            raise DomainError("a QuarticForm must be homogeneous of geometric degree 4")
        super().__init__(poly, family, params)


def _read(values, what: str) -> tuple:
    """*values* read once into a tuple; a string or a non-iterable is a :class:`DomainError`."""
    if isinstance(values, (str, bytes, bytearray)):
        raise DomainError(f"{what} must be an iterable of values, not the string {values!r}")
    try:
        return tuple(values)
    except TypeError:
        raise DomainError(f"{what} must be iterable, got {values!r}") from None


def _family_names(family: str, params: Sequence | None) -> tuple[str, ...]:
    """The family's parameter names; an unknown family, or *params* (unless None) of
    another count, is a :class:`DomainError`."""
    if family not in FAMILY_PARAMS:
        raise DomainError(f"unknown family {family!r}; expected one of {sorted(FAMILY_PARAMS)}")
    names = FAMILY_PARAMS[family]
    if params is not None and len(params) != len(names):
        raise DomainError(f"{family} takes {len(names)} parameter(s), got {len(params)}")
    return names


@functools.cache
def _table(parameters: tuple[str, ...]) -> VarTable:
    """One table per *parameters* for every form built here: the caches find it by identity."""
    return VarTable(GEOMETRIC, parameters)


@functools.lru_cache(maxsize=2 * len(X4_SLOTS))
def _layout(family: str, symbolic: bool) -> tuple[VarTable, tuple[int, ...], tuple]:
    """``(table, keys, slots)`` of the family's symbolic or numeric quartics: the packed keys in
    descending order and, of each, its coefficient's index among the values (``None``: 1)."""
    table, names = _table(FAMILY_PARAMS[family] if symbolic else ()), FAMILY_PARAMS[family]
    terms = [({v: 4}, None) for v in GEOMETRIC] + [
        ({**monomial, slot: 1}, None) if symbolic else (monomial, names.index(slot))
        for slot, monomial in zip(X4_SLOTS[family], _X4_MONOMIALS) if slot is not None]
    keyed = sorted(((table._pack([powers.get(n, 0) for n in table.names]), slot)
                    for powers, slot in terms), reverse=True)
    return table, tuple(key for key, _ in keyed), tuple(slot for _, slot in keyed)


def make_family(family: str, params: Sequence[Fraction | int | str] | None = None) -> QuarticForm:
    """Build one of the four family quartics.

    ``params=None`` gives the symbolic form (parameters stay variables);
    otherwise exactly the family's arity of exact rationals is required, and
    a value that is not one raises :class:`DomainError`.  The keys are the family's
    cached layout (:func:`_layout`); a call forms only the numerators.
    """
    symbolic = params is None
    params = None if symbolic else _read(params, f"{family} parameters")
    names = _family_names(family, params)
    values = names if symbolic else tuple(map(rational, params))
    table, keys, slots = _layout(family, symbolic)
    coefficients = [1 if slot is None else values[slot] for slot in slots]
    return QuarticForm(Polynomial._from_values(table, keys, coefficients), family, values)


def x4_triple(family: str, params: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The member's parameters as the X4 triple (r, s, u) it specializes; an unknown
    family or a wrong parameter count is a :class:`DomainError`."""
    params = _read(params, f"{family} parameters")
    lookup = dict(zip(_family_names(family, params), params))
    return tuple(lookup.get(name, Fraction(0)) for name in X4_SLOTS[family])


def singular_locus_check(family: str, params: Sequence[Fraction]):
    """Raise :class:`DegeneracyError` when the family member is singular (and
    :class:`DomainError` where :func:`x4_triple` does).

    On the X4 triple the smooth locus is cut out exactly by: no parameter
    equal to +-2 (a coordinate-section of the curve becomes a perfect
    square, degenerating the coordinate bitangents; +-2 everywhere gives a
    double conic) and ``r^2+s^2+u^2 - r*s*u - 4 != 0`` (the locus where the
    curve acquires a singular point with all coordinates nonzero).
    """
    params = _read(params, f"{family} parameters")
    triple = x4_triple(family, params)
    for name, value in zip(X4_SLOTS[family], triple):
        if value == 2 or value == -2:
            raise DegeneracyError(
                f"{family} with {name} = {value}: degenerate locus |{name}| = 2 "
                "(a coordinate line becomes a bitangent of a non-generic configuration; "
                "at all parameters +-2 the quartic is a double conic)"
            )
    r, s, u = triple
    if r * r + s * s + u * u - r * s * u - 4 == 0:
        raise DegeneracyError(
            f"{family}{tuple(str(v) for v in params)}: singular curve "
            "(locus r^2+s^2+u^2-rsu-4 = 0 under the family's parameter identification)"
        )


# Graded-lex order of the 15 quartic monomials x^i y^j z^k, used by the CLI
# to accept generic coefficient lists, and their packed keys in the same order.
GENERIC_MONOMIALS = tuple(sorted(((i, j, 4 - i - j) for i in range(5) for j in range(5 - i)),
                                 reverse=True))
_GENERIC_KEYS = tuple(map(_table(())._pack, GENERIC_MONOMIALS))


def make_generic(coeffs: Sequence[Fraction | int]) -> QuarticForm:
    """A generic numeric quartic from its 15 coefficients (any iterable) in graded-lex order."""
    coeffs = _read(coeffs, "a generic quartic's coefficients")
    if len(coeffs) != 15:
        raise DomainError(f"a generic quartic takes 15 coefficients, got {len(coeffs)}")
    values = tuple(map(rational, coeffs))
    return QuarticForm(Polynomial._from_values(_table(()), _GENERIC_KEYS, values), "GENERIC",
                       values)


# -- monomial symmetric basis ------------------------------------------------


class Partition(_Record):
    """A weakly decreasing tuple of at most 3 positive integers."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(parts)
        object.__setattr__(self, "parts", parts)
        if len(parts) > 3 or any(p < 1 for p in parts):
            raise DomainError(f"invalid partition {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise DomainError(f"partition parts must be weakly decreasing: {parts}")

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def _indices(table: VarTable, family: str = "X4") -> list[int]:
    """Positions of the family's parameters in *table* (X4's are the basis
    variables r, s, u); :class:`DomainError` names a missing one."""
    owner = "the symmetric basis" if family == "X4" else f"the {family} table"
    for name in FAMILY_PARAMS[family]:
        if name not in table.names:
            raise DomainError(f"{owner} needs variable {name!r}; table has {table.names}")
    return [table.index(n) for n in FAMILY_PARAMS[family]]


def _expand_orbits(rows, table: VarTable, family: str = "X4", scale=1) -> Polynomial:
    """``scale * sum coeff * m(key)`` over the ``(key, coeff)`` *rows*, as one polynomial
    over *table*; key ``()`` is the constant 1.

    For X4, ``m(key)`` is ``S[key]``: the orbit of ``r^i1 s^i2 u^i3`` under the six
    permutations of (r, s, u), each distinct monomial once.  For the other families
    it is the plain monomial in their parameters.
    """
    idx = _indices(table, family)
    terms = {}
    for key, coeff in rows:
        padded = tuple(key) + (0,) * (len(idx) - len(key))
        for perm in set(itertools.permutations(padded)) if family == "X4" else (padded,):
            exps = [0] * len(table)
            for i, e in zip(idx, perm):
                exps[i] = e
            exps = tuple(exps)
            terms[exps] = terms.get(exps, 0) + coeff * scale
    return Polynomial(table, terms)


def s_basis(partition: Partition | Sequence[int], table: VarTable | None = None) -> Polynomial:
    """The monomial symmetric polynomial with leading term ``r^i1 s^i2 u^i3``.

    The orbit of the leading monomial under all six permutations, each
    distinct monomial once (orbit sizes are 1, 3 or 6).
    """
    if not isinstance(partition, Partition):
        partition = Partition(tuple(partition))
    return _expand_orbits(((partition.parts, 1),), table or VarTable(GEOMETRIC, BASIS_NAMES))


class SymmetricDecomposition(_Record):
    """An expansion ``constant + sum coeff * S[partition]``."""

    __slots__ = _fields = ("constant", "terms")


@functools.lru_cache(maxsize=_SHAPES)
def _symmetry(table: VarTable, keys: tuple[int, ...]):
    """``(extra, swaps, constant, leading)`` of the keys *keys* over *table* (the last 256):
    the other variables that occur; ``None`` if the keys are not closed under (r s) and (s u),
    else an ``itemgetter`` of the terms' images for each that moves a key (swapping a and b
    moves a key by ``(e_b - e_a) * (key(a) - key(b))``); the constant's index;
    and ``(index, Partition)`` of each ``r^i1 s^i2 u^i3``, ``i1 >= i2 >= i3``, ``i1 > 0``,
    by descending degree, then partition.  A table without r, s or u is a DomainError
    unless other variables occur, which :func:`decompose_symmetric` names first."""
    # a field of the keys OR'd is nonzero where its variable occurs
    (occurring,) = table._unpack([functools.reduce(operator.or_, keys, 0)])
    extra = sorted(n for n, e in zip(table.names, occurring) if e and n not in BASIS_NAMES)
    if extra and not set(BASIS_NAMES) <= set(table.names):
        return extra, None, None, ()
    exps = list(map(operator.itemgetter(*_indices(table)), table._unpack(keys)))
    r, s, u = map(table._unit, BASIS_NAMES)
    position = {key: i for i, key in enumerate(keys)}
    images = ([position.get(key + (es - er) * (r - s)) for key, (er, es, _) in zip(keys, exps)],
              [position.get(key + (eu - es) * (s - u)) for key, (_, es, eu) in zip(keys, exps)])
    swaps = None if None in images[0] + images[1] else tuple(
        operator.itemgetter(*image) for image in images if image != list(range(len(keys))))
    leading = sorted((sum(e), *e, i) for i, e in enumerate(exps) if e[0] >= e[1] >= e[2] and e[0])
    return extra, swaps, position.get(0), tuple(
        (i, Partition(tuple(filter(None, e)))) for _, *e, i in reversed(leading))


def is_symmetric(p: Polynomial) -> bool:
    """Whether *p* is invariant under every permutation of (r, s, u).

    The transpositions (r s) and (s u) generate all six permutations, and one
    that sends every term to a term with the same coefficient maps the finite
    support onto itself, so it fixes *p*.  The images are found once per key
    set (:func:`_symmetry`); a call compares the numerators with theirs.
    """
    _indices(p.table)   # a table without r, s or u is a DomainError
    swaps, values = _symmetry(p.table, tuple(p._num))[1], tuple(p._num.values())
    return swaps is not None and all(swap(values) == values for swap in swaps)


def decompose_symmetric(p: Polynomial) -> SymmetricDecomposition:
    """Expand a polynomial symmetric in (r, s, u) over the monomial symmetric basis.

    The basis polynomials have pairwise disjoint supports, so the coefficient
    of ``S[i1,i2,i3]`` is the coefficient of ``r^i1 s^i2 u^i3`` in *p*, whose
    index the plan of :func:`is_symmetric` holds, in the order of the terms.
    Raises :class:`DomainError` if the input involves other variables, lives
    over a table without r, s or u, or is not symmetric.
    """
    extra, swaps, constant, leading = _symmetry(p.table, tuple(p._num))
    if extra:
        raise DomainError(f"polynomial involves non-basis variables {extra}")
    values, den = tuple(p._num.values()), p._den
    if swaps is None or any(swap(values) != values for swap in swaps):
        raise DomainError("polynomial is not symmetric in the parameters")
    return SymmetricDecomposition(
        Fraction(0) if constant is None else Fraction(values[constant], den),
        tuple([(part, Fraction(values[i], den)) for i, part in leading]))


def reconstruct(dec: SymmetricDecomposition, table: VarTable | None = None) -> Polynomial:
    """The polynomial ``constant + sum coeff * S[partition]`` of a decomposition."""
    rows = (((), dec.constant), *((part.parts, coeff) for part, coeff in dec.terms))
    return _expand_orbits(rows, table or VarTable(GEOMETRIC, BASIS_NAMES))


# -- reference ("golden") tables ---------------------------------------------


class GoldenEntry(_Record):
    """One invariant of a family's reference table: ``prefactor * sum coeff * m(key)``
    over the ``(key, coeff)`` rows, as :func:`_expand_orbits` reads them."""

    __slots__ = _fields = ("prefactor", "coefficients")


#: The degrees k of the Dixmier invariants I_k, the labels of a reference table.
_DEGREES = (3, 6, 9, 12, 15, 18)


def _parse_golden(family: str, text: str) -> Mapping[int, GoldenEntry]:
    """The entries of a reference table *text*; a line that does not parse, a
    label other than ``I<k>`` for an invariant degree k, an X4 key that is not a
    :class:`Partition`, or another family's key with more exponents than the
    family has parameters is a :class:`DomainError`."""
    arity = len(FAMILY_PARAMS[family])
    pre: dict[int, Fraction] = {}
    rows: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            label, key, value = line.split()
            k = int(label[1:])
            if label[0] != "I" or k not in _DEGREES:
                raise DomainError(f"expected a label I<k> with k in {_DEGREES}")
            coeff = Fraction(value)
            if key == "prefactor":
                pre[k] = coeff
                continue
            exps = () if key == "const" else tuple(int(t) for t in key.strip("[]").split(",") if t)
            if family == "X4":
                Partition(exps)
            elif len(exps) > arity or any(e < 0 for e in exps):
                raise DomainError(f"expected at most {arity} non-negative exponents")
        except (ValueError, ZeroDivisionError, DomainError) as exc:
            raise DomainError(f"{family} table: malformed line {line!r} ({exc})") from None
        rows.setdefault(k, []).append((exps, coeff))
    return MappingProxyType({k: GoldenEntry(pre.get(k, Fraction(1)), tuple(rows.get(k, [])))
                             for k in _DEGREES})


@functools.cache
def load_golden(family: str) -> Mapping[int, GoldenEntry]:
    """A family's reference invariant table from the data directory, parsed once
    per process; the mapping is read-only because every caller shares it.

    Format, one entry per line: ``I<k> prefactor <rational>`` or
    ``I<k> <key> <rational>`` where ``<key>`` is ``const`` or a bracketed
    exponent list ``[i1,i2,...]`` (a partition for X4's symmetric basis,
    plain monomial exponents otherwise).  An unknown family is a :class:`DomainError`.
    """
    _family_names(family, None)
    # a plain read next to the module: importlib.resources imports inspect from 3.12 on
    with open(os.path.join(os.path.dirname(__file__), "data", "golden", f"{family}.txt"),
              encoding="utf-8") as table:
        return _parse_golden(family, table.read())


@functools.cache
def golden_polynomial(family: str, k: int, table: VarTable) -> Polynomial:
    """The reference table entry for I_k over *table*, expanded once per (family, k,
    table); a *k* that is not an invariant degree is a :class:`DomainError`."""
    entries = load_golden(family)
    if k not in entries:
        raise DomainError(f"no invariant of degree {k!r}: the degrees are {_DEGREES}")
    entry = entries[k]
    return _expand_orbits(entry.coefficients, table, family, entry.prefactor)


class GoldenReport(_Record):
    """Per-invariant comparison against a family's reference table.

    ``gamma[k]`` is the constant ratio computed/table when both sides are
    nonzero, ``None`` when both vanish (ratio undetermined).  Mismatches go
    to ``failures`` with the first differing monomial.
    """

    __slots__ = _fields = ("family", "gamma", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures


def golden_compare(inv, family: str) -> GoldenReport:
    """Test ``computed I_k == gamma_k * table I_k`` for a single rational gamma_k, the
    ratio at the table's leading key: by equal keys and, in numerators, ``o[key] *
    t[lead] == o[lead] * t[key]``; ``table * gamma_k`` and the difference are formed
    only to name the first differing monomial of a failure."""
    gamma: dict[int, Fraction | None] = {}
    failures: dict[int, str] = {}
    for k, ours in inv.as_dict().items():
        table_poly = golden_polynomial(family, k, ours.table)
        gamma[k] = None     # unless the sides are a nonzero multiple of each other
        if table_poly.is_zero() or ours.is_zero():
            if table_poly or ours:
                failures[k] = "one side identically zero, the other not"
            continue
        o, t, lead = ours._num, table_poly._num, max(table_poly._num)
        o_lead, t_lead = o.get(lead, 0), t[lead]
        ratio = Fraction(o_lead * table_poly._den, ours._den * t_lead)
        if (o == t) if o_lead == t_lead else (o.keys() == t.keys() and [
                c * t_lead for c in o.values()] == [t[key] * o_lead for key in o]):
            gamma[k] = ratio
        else:
            exps, coeff = (ours - table_poly * ratio).leading_term()
            failures[k] = f"first differing monomial {exps}: residue {coeff}"
    return GoldenReport(family, gamma, failures)

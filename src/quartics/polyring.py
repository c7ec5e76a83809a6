"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every polynomial lives in a ring described by a :class:`VarTable`, which
splits the variables into two roles:

* *geometric* variables (``x, y, z`` or ``u, v, w`` ...) -- the ones acted
  on by differential operators and substitutions;
* *parameters* (``r, s, u`` ...) -- ordinary commuting variables that ride
  along in the coefficients and are treated as scalars by the calculus.

Coefficients are exact: nonzero ``int`` numerators keyed by monomial over
one positive ``int`` denominator, always reduced (the gcd of the
denominator and all numerators is 1; zero has denominator 1), so the stored
form is canonical and the ring operations run on ints, one gcd pass per
result.  :attr:`Polynomial.terms` shows reduced :class:`fractions.Fraction`
coefficients.  The canonical term order used for display, hashing and
deterministic evaluation is graded lexicographic with geometric variables
before parameters.

Each monomial is stored as one packed ``int`` (Monagan and Pearce, CASC
2007): 16-bit fields, the total degree in the top one, then the exponents in
table order.  So a monomial product is one integer addition, and the int
order of the keys is the canonical term order.  An exponent or total degree
above 65,535 is a :class:`DegreeError`, checked on construction, on each product's
top key and on the keys each plan forms, never wrapped.  The public views are keyed by
exponent tuples; other modules read a key only through ``VarTable._pack``, ``_unpack`` and ``_unit``.

:meth:`Polynomial.sum_of_products` forms ``sum c * a * b`` in one pass over a dict,
over the lcm of the denominators with one gcd pass (as Monagan and Pearce form a
sparse product), skipping zero operands and keeping nothing between calls; ``a * b``
is its one-product case.  :func:`diff_pair` applies the operator of a whole
polynomial, and a monomial operator ``d^a`` is the pairing with ``x^a``
(:func:`multi_partial`; ``partial`` is its one-variable case).  Which terms of the
operands meet, with which weight and at which key, depends only on their key sets,
which repeat (a generic quartic is dense, a family's forms keep their monomials), so
a pairing is planned once per pair of key sets and kept for the last 256
(:func:`_pairing`).  :class:`_Stages` lays out the ints of these plans and of the staged
plans (:func:`_staged`) and forms their pairs from products of term lists; a call only
multiplies and adds numerators (:func:`_run`), by the plan's loop while it is cold
or small, then by straight-line code that the plan keeps (:func:`_kernel`).

Values are immutable once constructed (``terms`` is a read-only view) and
safe to share between threads: what evaluation keeps of one is built lazily.

The one complex evaluator, :func:`eval_scaled_many`, is the per-term loop over
the canonical terms, with each ``complex(value) ** exponent`` of a point
computed once for all the polynomials it evaluates there (:func:`eval_scaled`
and :func:`eval_complex` are its one-polynomial form).  It runs straight-line
Python from :func:`_generated`, the package's one code generator, once per set
of *shapes* (the monomials, without the coefficients, which are passed as
data), so the restriction coefficients of every member of a family share one
function; compiling it costs about 12 us per term, once per process.
"""

from __future__ import annotations

import struct
import weakref
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, groupby
from math import comb, gcd, lcm, perm, prod
from operator import ge, itemgetter, mul, or_
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .errors import DegreeError, DomainError, RoleError, TableMismatchError, rational

Exponents = tuple[int, ...]
_LIMIT = 0xFFFF     # the largest exponent or total degree a field holds, and its mask
#: Cache bounds.  2,400 ``certify`` members (seeds 1, 2, 5 and 7) use 41 shapes, 8
#: sets of them and 6 generated functions, which stay with room to spare.
#: :func:`_exact_plan`, :func:`_operator`, :func:`_pairing` and the caches of staged plans keep as
#: many as :func:`_shape`, and a plan its compiled code: ``symbolic`` uses 16 ``diff_pair`` plans
#: and 12 staged plans, compiling 12 plans and 23 stages; 440 ``numeric`` operations build 13
#: plans, compiling 4, and 9 staged plans, compiling 7 stages (products plan nothing).
_SHAPES, _SETS, _GENERATED = 256, 64, weakref.WeakValueDictionary()


def _check_degree(degree: int) -> int:
    if degree > _LIMIT:
        raise DegreeError(f"degree {degree} exceeds the packing limit {_LIMIT}")
    return degree


def _check_table(table: "VarTable", p: "Polynomial"):
    if p.table is not table and p.table != table:
        raise TableMismatchError(
            f"cannot combine polynomials over {table.names} and {p.table.names}"
        )


class _Record:
    """An immutable record: equality (same class, equal fields), hash and the repr
    ``Name(field=value, ...)`` over the ``_fields`` tuple of a subclass, whose
    ``__slots__`` the constructor binds by position, then by name (a field missing,
    unknown or given twice is a TypeError); assignment and ``del`` raise AttributeError."""

    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named:   # the fields after the positional ones, in order; a name left over is an error
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(fields)}: "
                            f"got {len(values)} of them, and {sorted(named)} besides")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class VarTable(_Record):
    """An ordered list of variable names split into geometric and parameter roles."""

    _fields = ("geometric", "parameters")
    __slots__ = _fields + ("_index", "_layout", "_top", "_hash")

    def __init__(self, geometric: tuple[str, ...], parameters: tuple[str, ...] = ()):
        geometric, parameters = tuple(geometric), tuple(parameters)
        if not geometric:
            raise DomainError("a VarTable needs at least one geometric variable")
        names = geometric + parameters
        if len(set(names)) != len(names):
            raise DomainError(f"variable names not unique: {names}")
        super().__init__(geometric, parameters)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        # a key's bytes: the degree field (skipped by the layout), then the exponents
        object.__setattr__(self, "_layout", struct.Struct(f">2x{len(names)}H"))
        object.__setattr__(self, "_top", 16 * len(names))   # the shift of the degree field
        # the operator caches hash a table on every call: hash it once
        object.__setattr__(self, "_hash", hash((geometric, parameters)))

    def __eq__(self, other):
        if other.__class__ is not VarTable:
            return NotImplemented
        return self.geometric == other.geometric and self.parameters == other.parameters

    def __hash__(self):
        return self._hash

    def _pack(self, exps) -> int:
        """The key of an exponent vector: the total degree, then the exponents."""
        if len(exps) != len(self):
            raise DomainError(f"exponent tuple {exps} does not match table of {len(self)} variables")
        if min(exps) < 0:
            raise DomainError(f"negative exponent in {exps}")
        degree = _check_degree(sum(exps))
        return (degree << self._top) + int.from_bytes(self._layout.pack(*exps), "big")

    def _unpack(self, keys) -> list[Exponents]:
        size, unpack = self._layout.size, self._layout.unpack
        return [unpack(k.to_bytes(size, "big")) for k in keys]

    def _shift(self, name: str) -> int:
        return self._top - 16 * (self.index(name) + 1)

    def _unit(self, name: str) -> int:     # the key of the monomial name^1
        return (1 << self._top) + (1 << self._shift(name))

    @property
    def names(self) -> tuple[str, ...]:
        return self.geometric + self.parameters

    def __len__(self) -> int:
        return len(self.geometric) + len(self.parameters)

    @property
    def n_geometric(self) -> int:
        return len(self.geometric)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DomainError(f"unknown variable {name!r} (table has {self.names})") from None

    def is_geometric(self, name: str) -> bool:
        return self.index(name) < len(self.geometric)


class Polynomial:
    """A sparse exact polynomial attached to a :class:`VarTable`: the int numerators
    ``_num`` by packed monomial over the reduced denominator ``_den`` (module docstring)."""

    __slots__ = ("table", "_num", "_den", "_hash", "_compiled")

    def __init__(self, table: VarTable, terms: Mapping[Exponents, Fraction | int] | None = None):
        clean = {table._pack(exps): c if type(c) in (int, Fraction) else rational(c)
                 for exps, c in (terms or {}).items()}
        # over the lcm of the denominators the numerators come out reduced
        den = lcm(*(c.denominator for c in clean.values()))
        self.table, self._den = table, den
        self._num = {e: c.numerator * (den // c.denominator) for e, c in clean.items() if c}
        self._hash = self._compiled = None

    @classmethod
    def from_numerators(cls, table: VarTable, num: Mapping[Exponents, int],
                        den: int = 1) -> "Polynomial":
        """``sum num[e] * x^e / den`` (*den* > 0), zero numerators dropped, gcd divided
        out; each exponent tuple is packed into one key, and an exponent or degree
        above 65,535 is a :class:`DegreeError`."""
        return cls._from_packed(table, {table._pack(e): c for e, c in num.items()}, den)

    @classmethod
    def _from_packed(cls, table: VarTable, num: dict[int, int], den: int = 1) -> "Polynomial":
        """:meth:`from_numerators` over packed keys; may keep *num*, so do not change it later."""
        if 0 in num.values():
            num = {e: c for e, c in num.items() if c}
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {e: c // g for e, c in num.items()}
        p = cls.__new__(cls)
        p.table, p._num, p._den = table, num, den
        p._hash = p._compiled = None
        return p

    @classmethod
    def _from_values(cls, table: VarTable, keys: Sequence[int],
                     values: Sequence[Fraction | int]) -> "Polynomial":
        """``sum values[i] * x^keys[i]`` over packed *keys*, a zero value left out, stored as
        formed: over the lcm of the denominators the numerators come out reduced."""
        den = lcm(*[v.denominator for v in values])
        p = cls.__new__(cls)
        p.table, p._den, p._hash, p._compiled = table, den, None, None
        p._num = {key: v.numerator * (den // v.denominator) for key, v in zip(keys, values) if v}
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return cls._from_packed(table, {})

    @classmethod
    def constant(cls, table: VarTable, value) -> "Polynomial":
        c = value if type(value) in (int, Fraction) else rational(value)
        return cls._from_packed(table, {0: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "Polynomial":
        return cls.monomial(table, {name: 1})

    @classmethod
    def monomial(cls, table: VarTable, powers: Mapping[str, int], coeff=1) -> "Polynomial":
        exps = [0] * len(table)
        for name, e in powers.items():
            exps[table.index(name)] = e
        c = coeff if type(coeff) in (int, Fraction) else rational(coeff)
        return cls._from_packed(table, {table._pack(exps): c.numerator}, c.denominator)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Read-only map from exponent tuples to reduced Fraction coefficients, built
        on each access by unpacking the stored keys."""
        return MappingProxyType({e: Fraction(c, self._den) for e, c in self._items(self._num)})

    @property
    def numerators(self) -> Mapping[Exponents, int]:
        """Read-only map from exponent tuples to the int numerators over
        :attr:`denominator`, built on each access by unpacking the stored keys."""
        return MappingProxyType(dict(self._items(self._num)))

    @property
    def denominator(self) -> int:
        return self._den

    def _items(self, keys) -> Iterator[tuple[Exponents, int]]:
        """``(exponents, numerator)`` of the stored *keys*, in their order."""
        return zip(self.table._unpack(keys), map(self._num.__getitem__, keys))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (the canonical order)."""
        den = self._den
        return [(e, Fraction(c, den)) for e, c in self._items(sorted(self._num, reverse=True))]

    def leading_term(self) -> tuple[Exponents, Fraction]:
        """The first of :meth:`sorted_terms`, without a ``Fraction`` for the others."""
        ((exps, c),) = self._items((max(self._num),))
        return exps, Fraction(c, self._den)

    def _compile(self):
        """``(shape, coefficients)``, what :func:`eval_scaled_many` runs on, built once
        and kept as ``_compiled``: the :class:`_Shape` of the canonical-order terms and
        their coefficients as complex numbers (``num / den`` is correctly rounded, as
        ``float(Fraction)`` is)."""
        keys = sorted(self._num, reverse=True)
        den, num = self._den, self._num
        self._compiled = (_shape(self.table, tuple(keys)),
                          tuple([complex(num[key] / den) for key in keys]))
        return self._compiled

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def total_degree(self) -> int:
        return max(self._num, default=0) >> self.table._top

    def _geometric_degrees(self) -> set[int]:
        if not self.table.parameters:   # then the degree field is the geometric degree
            return {key >> self.table._top for key in self._num}
        return {sum(exps[:self.table.n_geometric]) for exps in self.table._unpack(self._num)}

    def geometric_degree(self) -> int:
        return max(self._geometric_degrees(), default=0)

    def degree_in(self, name: str) -> int:
        shift = self.table._shift(name)
        return max(((k >> shift) & _LIMIT for k in self._num), default=0)

    def is_geometric_homogeneous(self) -> bool:
        return len(self._geometric_degrees()) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if any variable occurs)."""
        if self._num.keys() - {0}:
            raise DegreeError(f"polynomial is not constant: {self}")
        return Fraction(self._num.get(0, 0), self._den)

    def coefficient(self, powers: Mapping[str, int]) -> Fraction:
        exps = [0] * len(self.table)
        for name, e in powers.items():
            exps[self.table.index(name)] = e
        return Fraction(self._num.get(self.table._pack(exps), 0), self._den)

    def geometric_coefficients(self) -> dict[Exponents, "Polynomial"]:
        """Group terms by geometric exponents; values are parameter-only polynomials."""
        ng = self.table.n_geometric
        out: dict[Exponents, dict[Exponents, int]] = {}
        for exps, coeff in self._items(self._num):
            out.setdefault(exps[:ng], {})[(0,) * ng + exps[ng:]] = coeff
        return {geo: Polynomial.from_numerators(self.table, num, self._den)
                for geo, num in out.items()}

    def support_names(self) -> set[str]:
        occurring = reduce(or_, self._num, 0)    # a field is nonzero where its variable occurs
        return {n for n in self.table.names if (occurring >> self.table._shift(n)) & _LIMIT}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.table, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_table(self.table, other)
        # over the lcm of the two denominators: multipliers 1 when they agree
        g = gcd(self._den, other._den)
        ma, mb = other._den // g, self._den // g
        out = dict(self._num) if ma == 1 else {e: c * ma for e, c in self._num.items()}
        for key, coeff in other._num.items():
            out[key] = out.get(key, 0) + coeff * mb
        return Polynomial._from_packed(self.table, out, self._den * ma)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_packed(self.table, {e: -c for e, c in self._num.items()},
                                       self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.table, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return Polynomial._from_packed(self.table, {e: k * c for e, k in self._num.items()},
                                           self._den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.sum_of_products(self.table, ((1, self, other),))

    @staticmethod
    def sum_of_products(table: VarTable, products) -> "Polynomial":
        """``sum c * a * b`` over the ``(c, a, b)`` of *products* (*c* an int or ``Fraction``,
        *a*, *b* over *table*) in one pass over a dict, over the lcm of the denominators, each
        term of the shorter operand scaled once, the keys descending.  Once every table is checked,
        a product with a zero polynomial factor is skipped, each other one's top key checked."""
        live = []
        for c, a, b in products:
            _check_table(table, a)
            _check_table(table, b)
            if a._num and b._num:
                live.append((c, a, b) if len(a._num) <= len(b._num) else (c, b, a))
        den = lcm(*[c.denominator * a._den * b._den for c, a, b in live])
        _check_degree(max([max(a._num) + max(b._num) for _, a, b in live], default=0) >> table._top)
        out: dict[int, int] = {}
        get = out.get
        for c, a, b in live:
            scale = c.numerator * (den // (c.denominator * a._den * b._den))
            terms = b._num.items()
            for ka, va in a._num.items():
                va *= scale
                for kb, vb in terms:
                    key = ka + kb
                    out[key] = get(key, 0) + va * vb
        return Polynomial._from_packed(table, dict(sorted(out.items(), reverse=True)), den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise DomainError("negative power")
        result, base = None, self
        while n:
            if n & 1:       # the first factor starts the product: no factor 1
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Polynomial.constant(self.table, 1) if result is None else result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.table, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        # the reduced form is canonical, so equal values have equal stored forms
        return (self.table == other.table and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        """A constant (no key but 0) hashes as its value, which it equals; any other
        polynomial by its stored form."""
        if self._hash is None:
            self._hash = hash(Fraction(self._num.get(0, 0), self._den) if self._num.keys() <= {0}
                              else (self.table, self._den, frozenset(self._num.items())))
        return self._hash

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
            return "0"
        names = self.table.names
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e
            ]
            mag = coeff if coeff > 0 else -coeff
            body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        text = " ".join(f"{sign} {body}" for sign, body in parts)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# -- the module-level operation surface -------------------------------------


def partial(p: Polynomial, var: str, order: int = 1) -> Polynomial:
    """The exact *order*-th partial by a geometric variable (one-variable :func:`multi_partial`)."""
    return multi_partial(p, {var: order})


@lru_cache(maxsize=_SHAPES)
def _operator(table: VarTable, orders: tuple[tuple[str, int], ...]) -> Polynomial:
    """The monomial ``x^a`` over *table* whose operator is the ``d^a`` of the *orders*,
    checked once per table and orders; zero when they sum past 65,535, where no term
    of any polynomial has exponents b >= a."""
    for var, k in orders:
        if k < 0:
            raise DomainError("negative differentiation order")
        if not table.is_geometric(var):
            raise RoleError(f"cannot differentiate with respect to parameter {var!r}")
    if sum(k for _, k in orders) > _LIMIT:
        return Polynomial.zero(table)
    return Polynomial.monomial(table, dict(orders))


def multi_partial(p: Polynomial, orders: Mapping[str, int]) -> Polynomial:
    """The partial ``d^a p`` of the orders ``a`` by geometric variable: ``D_{x^a}(p)``,
    the pairing of :func:`diff_pair` with the monomial ``x^a``."""
    return diff_pair(_operator(p.table, tuple(orders.items())), p)


class _Plan:
    """A plan of :func:`_pairing`, or one stage of :func:`_staged`, formed by :class:`_Stages`:
    the output ``keys``, descending in each range of slots; the ``pairs`` ``x, y, weight, slot``,
    flat in one tuple (under half the memory of a tuple each) in slot order, each adding ``n[x] *
    n[y] * weight`` to ``keys[slot]``, ``n`` the ints that :class:`_Stages` lays out; the top
    ``degree`` of its keys; its ``uses``; its ``kernel``, once :func:`_kernel` has compiled it."""

    __slots__ = ("keys", "pairs", "degree", "uses", "kernel")

    def __init__(self, keys, pairs, degree):
        self.keys, self.pairs, self.degree, self.uses, self.kernel = keys, pairs, degree, 0, None

    def live(self, n: list[int], top: int) -> "_Plan":
        """This plan, or once its keys pass the packing limit the one-off plan of its pairs whose
        numerators in *n* are both nonzero: a pair through a term that cancelled forms no key."""
        if self.degree <= _LIMIT:
            return self
        live = [v for p in zip(*[iter(self.pairs)] * 4) if n[p[0]] and n[p[1]] for v in p]
        return _Plan(self.keys, tuple(live), max([self.keys[s] >> top for s in live[3::4]], default=0))


class _Stages:
    """A plan's stages, one after another, and the ints ``n`` they read: the numerators of the
    operands of *keysets*, whose term lists ``(index in n, 1, key)`` are ``operands``, a 1 (its
    term list ``one``), then each stage's slots, after those of *stages* on the same operands."""

    def __init__(self, table: VarTable, *keysets, stages=()):
        *starts, size = accumulate(map(len, keysets), initial=0)
        self.operands = [[(i, 1, key) for i, key in enumerate(keys, start)]
                         for keys, start in zip(keysets, starts)]
        self.top, self.stages, self.one = table._top, tuple(stages), [(size, 1, 0)]
        self.size = size + 1 + sum([len(stage.keys) for stage in stages])

    def add(self, groups) -> tuple:
        """The staged plan ``(stages, outputs)`` once the :class:`_Plan` of *groups*, one range of
        slots after another, is added: the one place pairs are formed.  A group is a list of
        products ``(c, a, b)`` whose factors are term lists; each pair of terms adds ``n[x] * n[y]
        * c * wx * wy`` at the key ``kx + ky``; *outputs* are each group's slots as a term list."""
        keys, pairs, outputs = [], [], []
        for products in groups:
            slots: dict[int, list[tuple[int, int, int]]] = {}   # each output key's terms
            meet = slots.setdefault
            for c, a, b in products:
                for x, wx, kx in a:
                    for y, wy, ky in b:
                        meet(kx + ky, []).append((x, y, c * wx * wy))
            order = sorted(slots, reverse=True)
            pairs += [v for slot, key in enumerate(order, len(keys))
                      for x, y, w in slots[key] for v in (x, y, w, slot)]
            outputs.append([(slot, 1, key) for slot, key in enumerate(order, self.size + len(keys))])
            keys += order
        self.stages += (_Plan(tuple(keys), tuple(pairs), max(keys, default=0) >> self.top),)
        self.size += len(keys)
        return self.stages, outputs


def _staged(table: VarTable, n: list[int], plan, dens) -> tuple:
    """The polynomials of a staged *plan* ``(stages, outputs)`` over *table*: the operands'
    numerators *n* gain a 1, then each stage's ints from its live pairs (:meth:`_Plan.live`); each
    output term list is read over its *dens* entry, zeros dropped, a key past 65,535 an error."""
    stages, outputs = plan
    n.append(1)
    for stage in stages:
        n += _run(stage.live(n, table._top), n)
    polys = tuple([Polynomial._from_packed(table, {key: n[i] for i, _, key in terms}, den)
                   for terms, den in zip(outputs, dens)])
    _check_degree(max([max(p._num, default=0) for p in polys]) >> table._top)
    return polys


@lru_cache(maxsize=_SHAPES)
def _pairing(table: VarTable, fkeys: tuple[int, ...], gkeys: tuple[int, ...]) -> _Plan:
    """The :class:`_Plan` of :func:`diff_pair` over *table* for operands of the packed keys
    *fkeys* and *gkeys* in dict order (the last 256): f's and g's terms ``(index in n, 1, key)``
    filed by their geometric exponents, one product per pair a <= b of those, of weight
    ``prod perm(b_i, a_i)``, f's keys less 2 key(x^a)."""
    stages, by_a, by_b = _Stages(table, fkeys, gkeys), {}, {}
    for filing, keys, terms in zip((by_a, by_b), (fkeys, gkeys), stages.operands):
        for term, exps in zip(terms, table._unpack(keys)):
            filing.setdefault(exps[:table.n_geometric], []).append(term)
    products = []
    for a, fterms in by_a.items():
        twice = 2 * table._pack(a + (0,) * len(table.parameters))     # 2 key(x^a)
        fterms = [(i, 1, key - twice) for i, _, key in fterms]
        products += [(prod(map(perm, b, a)), fterms, gterms)
                     for b, gterms in by_b.items() if all(map(ge, b, a))]
    return stages.add((products,))[0][0]


#: A plan of ``_HOT_PAIRS`` pairs or more runs as :func:`_kernel` from its ``_HOT``-th use, in
#: functions of up to ``_PIECE`` pairs.  Measured on a prototype: compiling on first use added
#: 3-15 ms to each CLI ``invariants`` command, from the second use a ``bitangents`` process
#: compiled 52 kernels, and uses weighted by pairs made ``symbolic`` p50 11 % and tail 40 % worse.
#: From the fourth, no CLI command compiles.  Peak RSS on ``symbolic``: +4.6 % at 256, +3.5 % at 128.
_HOT, _HOT_PAIRS, _PIECE = 4, 8, 128


def _run(plan: _Plan, n: list[int]) -> list[int]:
    """The ints that *plan* forms from the numerators *n*, one a slot, its degree checked
    first: by the loop over its pairs while it is cold or small, then by its :func:`_kernel`."""
    _check_degree(plan.degree)     # the plan keeps every product's key
    plan.uses += 1
    if plan.uses >= _HOT and len(plan.pairs) >= 4 * _HOT_PAIRS:
        out: list[int] = []
        for piece in plan.kernel or _kernel(plan):
            piece(n, out)
    else:
        out = [0] * len(plan.keys)
        for x, y, weight, slot in zip(*[iter(plan.pairs)] * 4):
            out[slot] += n[x] * n[y] * weight
    return out


def _kernel(plan: _Plan) -> tuple:
    """*plan* as functions ``piece(n, out)`` of up to ``_PIECE`` pairs, kept as its ``kernel``,
    which unpack the numerators they use into locals and append their slots' sums to *out*:
    ``out += [n0 * n5, n0 * n6 + n1 * n5 * 0x2, ...]``, a slot begun before from ``out.pop()``.
    A term a line: the column table of one long line takes twice the code's bytes."""
    pieces, pairs = [], list(zip(*[iter(plan.pairs)] * 4))
    for start in range(0, len(pairs), _PIECE):
        chunk, lines, values = pairs[start:start + _PIECE], [], []
        used = {v for x, y, _, _ in chunk for v in (x, y)}
        begun = pairs[start - 1][3] if start else -1    # the slot the previous piece began
        for slot, group in groupby(chunk, itemgetter(3)):
            terms = ["out.pop()"] * (slot == begun) + [     # hex: no digit limit
                f"n{x} * n{y}" if w == 1 else f"n{x} * n{y} * {w:#x}" for x, y, w, _ in group]
            while len(terms) > _SUM_CHUNK:     # a long sum in parts
                lines.append(f"s{slot} = (" + "\n + ".join(terms[:_SUM_CHUNK]) + ")")
                terms[:_SUM_CHUNK] = [f"s{slot}"]
            values.append("\n + ".join(terms))
        names = [f"n{v}" if v in used else "_" for v in range(max(used) + 1)]
        pieces.append(_generated("n, out", ["[" + ",\n ".join(names) + f"] = n[:{len(names)}]",
                                            *lines, "out += [" + ",\n ".join(values) + "]"], {}))
    plan.kernel = tuple(pieces)
    return plan.kernel


def diff_pair(f: Polynomial, g: Polynomial) -> Polynomial:
    """``D_f(g)``, the differential operator of *f* applied to *g*: terms of *f* and *g*
    with geometric exponents a <= b give ``f_num * g_num * prod perm(b_i, a_i)`` at
    ``f_key + g_key - 2 key(x^a)``; the other pairs of terms vanish.  It runs the
    plan of the two key sets (:func:`_pairing`)."""
    _check_table(f.table, g)
    table = g.table     # so a partial keeps the table object of what it differentiates
    plan = _pairing(table, tuple(f._num), tuple(g._num))
    out = _run(plan, [*f._num.values(), *g._num.values()])
    return Polynomial._from_packed(table, dict(zip(plan.keys, out)), f._den * g._den)


def substitute(p: Polynomial, replacements: Mapping[str, Polynomial]) -> Polynomial:
    """Substitute each replacement (same table) for its variable, all at once,
    and re-expand exactly.  Terms are grouped by the exponents of the
    substituted variables, and each power of a replacement is built once."""
    table = p.table
    one = Polynomial.constant(table, 1)
    shifts, subs = [], []
    for var, replacement in replacements.items():
        _check_table(table, replacement)
        shifts.append(table._shift(var))
        subs.append((replacement, [one]))
    groups: dict[Exponents, dict[int, int]] = {}
    for key, coeff in p._num.items():
        exps = tuple((key >> shift) & _LIMIT for shift in shifts)
        rest = key - sum(e << shift for e, shift in zip(exps, shifts)) - (sum(exps) << table._top)
        groups.setdefault(exps, {})[rest] = coeff
    products = []
    for exps, num in groups.items():
        image = one
        for e, (replacement, powers) in zip(exps, subs):
            while len(powers) <= e:
                powers.append(powers[-1] * replacement)
            if e:
                image = image * powers[e]
        products.append((1, Polynomial._from_packed(table, num, p._den), image))
    return Polynomial.sum_of_products(table, products)


def substitute_linear(p: Polynomial, var: str, replacement: Polynomial) -> Polynomial:
    """Substitute *replacement* (same table) for *var* and re-expand exactly."""
    return substitute(p, {var: replacement})


class _Shape:
    """A polynomial's monomials, ``((name, exp), ...)`` per term in canonical order;
    one object per table and monomials (:func:`_shape`), so that a tuple of shapes
    is a key hashed by identity."""

    __slots__ = ("layout",)

    def __init__(self, layout):
        self.layout = layout


_SUM_CHUNK = 64     # terms summed in one expression: the compiler recurses once per +


def _generated(parameters: str, lines: list[str], namespace: dict):
    """The function of *parameters* and body *lines*, compiled with the globals
    *namespace*: the package's one code generator.  One function per source while
    anything holds it: ``_GENERATED`` maps each source weakly to its function, which the
    plans of :func:`_pairing` and the bounded caches of :func:`_evaluator` and
    ``diffcalc._pencil_det`` hold, so a caller of ever new sources keeps as many as they."""
    source = f"def generated({parameters}):\n" + "".join(f" {line}\n" for line in lines)
    if (function := _GENERATED.get(source)) is None:
        exec(compile(source, "<generated>", "exec"), namespace)
        # popped: no cycle through its globals outlives the last holder
        function = _GENERATED[source] = namespace.pop("generated")
    return function


@lru_cache(maxsize=_SHAPES)
def _shape(table: VarTable, keys: tuple[int, ...]) -> _Shape:
    names = table.names
    return _Shape(tuple(tuple((n, e) for n, e in zip(names, exps) if e)
                        for exps in table._unpack(keys)))


@lru_cache(maxsize=_SETS)
def _evaluator(shapes: tuple[_Shape, ...]):
    """``(evaluate, names)`` for polynomials of *shapes*: the variables in the order
    they first appear, and the function generated for the layouts numbered in that
    order, which sets that differ only in the names (a family's charts) share."""
    names = {}
    layouts = tuple(tuple(tuple((names.setdefault(name, len(names)), e) for name, e in monomial)
                          for monomial in shape.layout)
                    for shape in shapes)
    return _generated("forms, point, names", _evaluator_body(layouts),
                      {"missing": _missing}), tuple(names)


def _missing(name: str):
    raise DomainError(f"variable {name!r} not assigned")


def _evaluator_body(layouts) -> list[str]:
    """The body of ``evaluate(forms, point, names)``: the loop of
    :func:`eval_scaled_many` unrolled for polynomials of *layouts*, whose variables
    are numbered and named ``names[i]``.  Per polynomial, one ``max`` over ``0.0`` and
    the moduli of its terms, each term formed in its argument left to right, each
    variable looked up and each power computed where the loop first needs it (so an
    error is raised where the loop raises it); then ``0j + t0 + t1 + ...``."""
    lines, targets, results = [], [], []
    variables, powers = set(), {}
    k = 0
    for i, layout in enumerate(layouts):
        first, moduli = k, []
        for monomial in layout:
            factors = [f"k{k}"]
            for v, e in monomial:
                power = powers.get((v, e))
                if power is None:
                    value = f"v{v}"
                    if v not in variables:
                        variables.add(v)
                        value = (f"(v{v} := complex(v{v} if (v{v} := get(n{v})) is not None"
                                 f" else missing(n{v})))")
                    power = powers[v, e] = f"p{len(powers)}"
                    factors.append(f"({power} := {value} ** {e})")
                else:
                    factors.append(power)
            moduli.append(f"abs(t{k} := {' * '.join(factors)})")
            k += 1
        targets.append(f"(_, ({''.join(f'k{j}, ' for j in range(first, k))}))")
        if not moduli:
            results.append("(0j, 0.0)")
            continue
        lines.append(f"s{i} = max({', '.join(['0.0', *moduli])})")
        total = "0j"
        for start in range(first, k, _SUM_CHUNK):
            lines.append(f"r{i} = " + " + ".join(
                [total, *(f"t{t}" for t in range(start, min(start + _SUM_CHUNK, k)))]))
            total = f"r{i}"
        results.append(f"({total}, s{i})")
    return ["get = point.get", f"[{', '.join(targets)}] = forms",
            f"[{', '.join(f'n{v}' for v in range(len(variables)))}] = names", *lines,
            f"return [{', '.join(results)}]"]


def eval_scaled_many(polys: Sequence[Polynomial],
                     point: Mapping[str, complex]) -> list[tuple[complex, float]]:
    """Evaluate each polynomial at one complex point, with its largest summand modulus.

    The result is that of the per-term loop over each polynomial's terms in
    canonical order, with each power of the point computed once for all the
    polynomials::

        for exponents, coeff in p.sorted_terms():
            term = complex(float(coeff))
            for name, e in zip(p.table.names, exponents):
                if e:                   # the first time: complex(point[name]) ** e
                    term *= power[name, e]
            total += term               # from 0j
            if abs(term) > scale:       # from 0.0, so a NaN modulus is skipped
                scale = abs(term)

    It runs as straight-line code with the coefficients as data, generated on
    first use per set of shapes (:class:`_Shape`) and kept for the last 64 sets
    (the bounds are at ``_SHAPES``): the same operations in the same order, so
    the same floats bit for bit and the same first error.  A variable that
    occurs but is not assigned (missing or ``None``) raises :class:`DomainError`.
    The scale measures cancellation.  Coefficients are correctly rounded, so
    bounded inputs evaluate to full double precision.
    """
    forms = [p._compiled or p._compile() for p in polys]
    evaluate, names = _evaluator(tuple([form[0] for form in forms]))
    return evaluate(forms, point, names)


def eval_scaled(p: Polynomial, point: Mapping[str, complex]) -> tuple[complex, float]:
    """Value and largest summand modulus at a complex point: the one-polynomial
    form of :func:`eval_scaled_many`."""
    return eval_scaled_many((p,), point)[0]


def eval_complex(p: Polynomial, point: Mapping[str, complex]) -> complex:
    """Evaluate at a complex point (the value of :func:`eval_scaled`)."""
    return eval_scaled(p, point)[0]


@lru_cache(maxsize=_SHAPES)
def _exact_plan(p: Polynomial):
    """``(variables, terms)`` of :func:`eval_exact` for *p*, worked out once per
    polynomial (a bounded cache): each occurring variable in table order with the
    exponents of it that occur and the largest, t; each term's numerator with its
    exponent of each of those variables: the columns of the unpacked keys not all 0."""
    rows = p.table._unpack(p._num)
    used = [(v, column) for v, column in enumerate(zip(*rows)) if any(column)]
    return (tuple([(p.table.names[v], tuple(set(column)), max(column)) for v, column in used]),
            tuple([(c, tuple([row[v] for v, _ in used])) for c, row in zip(p._num.values(), rows)]))


def eval_exact(p: Polynomial, point: Mapping[str, Fraction | int]) -> Fraction:
    """Evaluate at an exact rational point, in ints: a variable of value n/d enters
    each term as n^e * d^(t - e), over the one denominator ``p.denominator * prod d^t``,
    where t is its largest exponent in *p*; only the powers of exponents that
    occur are built.  Which variables occur, and with which exponents, is worked out
    once per polynomial."""
    variables, terms = _exact_plan(p)
    factors, den = [], p._den
    for name, exps, t in variables:
        if name not in point:   # name the first unassigned in term order, then table order
            table = p.table
            name = next(n for key in table._unpack(sorted(p._num, reverse=True))
                        for n, e in zip(table.names, key) if e and n not in point)
            raise DomainError(f"variable {name!r} not assigned")
        v = point[name]
        if type(v) not in (int, Fraction):      # a bool too: rational rejects it
            v = rational(v)
        n, d = v.numerator, v.denominator
        factors.append({e: n ** e * d ** (t - e) for e in exps})
        den *= d ** t
    total = 0
    for term, exps in terms:
        for powers, e in zip(factors, exps):
            term *= powers[e]
        total += term
    return Fraction(total, den)


def substitute_values(p: Polynomial, values: Mapping[str, Fraction | int]) -> Polynomial:
    """Replace some variables by exact rational constants."""
    return substitute(p, {n: Polynomial.constant(p.table, v) for n, v in values.items()})


def convert(p: Polynomial, table: VarTable, rename: Mapping[str, str] | None = None) -> Polynomial:
    """Carry *p* into another table, optionally renaming variables.

    Every variable with nonzero support must map (injectively) onto a
    variable of the new table; variables that never occur may be dropped.
    Renaming may change a variable's role.
    """
    rename = dict(rename or {})
    used = p.support_names()
    targets = {n: rename.get(n, n) for n in used}
    if len(set(targets.values())) != len(targets):
        raise DomainError(f"renaming is not injective on the support: {targets}")
    moves = [(p.table._shift(old), table._shift(new)) for old, new in targets.items()]
    # an injective renaming maps distinct keys to distinct ones, of the same degree
    out: dict[int, int] = {}
    for key, coeff in p._num.items():
        new = (key >> p.table._top) << table._top
        for old_shift, new_shift in moves:
            new += ((key >> old_shift) & _LIMIT) << new_shift
        out[new] = coeff
    return Polynomial._from_packed(table, out, p._den)


@lru_cache(maxsize=_SHAPES)
def _restriction(table: VarTable, keys: tuple[int, ...], var: str, pair: tuple[str, str],
                 unknowns: tuple[str, str]):
    """``((plan,), coefficients)``: the stage of :func:`restrict_to_line` on a quartic form of the
    keys *keys* (the last 256), its terms times the 1 (:class:`_Stages`): a term ``x^i y^j var^k``
    is in coefficient ``j + k - m`` with weight ``(-1)^k C(k, m)``, times ``u1^m u2^(k - m)``."""
    iv, i0, i1 = (table.index(n) for n in (var, *pair))
    u0, u1, *units = map(table._unit, (*unknowns, *table.geometric))
    stages, coefficients = _Stages(table, keys), [[] for _ in range(5)]
    for (term, _, key), exps in zip(stages.operands[0], table._unpack(keys)):
        k = exps[iv]
        if exps[i0] + exps[i1] + k != 4 or sum(exps[:len(units)]) != 4:
            raise DegreeError(f"not a quartic form in ({pair[0]},{pair[1]},{var}): {exps}")
        rest = key - sum(map(mul, exps, units))     # the parameter part of the term
        for m in range(k + 1):
            coefficients[exps[i1] + k - m].append(
                (term, (-1) ** k * comb(k, m), rest + m * u0 + (k - m) * u1))
    return stages.add([[(1, terms, stages.one)] for terms in coefficients])


def restrict_to_line(p: Polynomial, table: VarTable, var: str, pair: tuple[str, str],
                     unknowns: tuple[str, str]) -> list[Polynomial]:
    """The coefficients of ``pair[0]^4, pair[0]^3 pair[1], ..., pair[1]^4`` of the
    quartic form *p* on the line ``var = -u1*pair[0] - u2*pair[1]``, over *table*
    (the table of *p* plus the *unknowns* ``(u1, u2)``).  The unknowns may be
    the pair itself, over the table of *p*: the coefficients carry no pair
    content, so ``u1, u2`` are then written as ``pair[0], pair[1]``.  Each power of
    *var* is expanded binomially: one run of the stage that ``dixmier`` runs first."""
    p = convert(p, table)
    return list(_staged(table, [*p._num.values()],
                        _restriction(table, tuple(p._num), var, pair, unknowns), (p._den,) * 5))


def compose_linear(p: Polynomial, matrix: Sequence[Sequence[Fraction | int]]) -> Polynomial:
    """Exact substitution of the geometric variables by ``matrix`` times themselves.

    Returns ``p(M x)`` where ``x`` is the column of geometric variables; the
    parameters are untouched.
    """
    table = p.table
    ng = table.n_geometric
    if len(matrix) != ng or any(len(row) != ng for row in matrix):
        raise DomainError(f"matrix must be {ng}x{ng}")
    images = (sum((Polynomial.monomial(table, {n: 1}, c) for n, c in zip(table.geometric, row)),
                  Polynomial.zero(table)) for row in matrix)
    return substitute(p, dict(zip(table.geometric, images)))

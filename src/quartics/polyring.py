"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every polynomial lives in a ring described by a :class:`VarTable`, which
splits the variables into two roles:

* *geometric* variables (``x, y, z`` or ``u, v, w`` ...) -- the ones acted
  on by differential operators, substitutions and homogenization;
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
above 65,535 is a :class:`DegreeError`, checked on construction and before
each product, never wrapped.  The public views (``terms``, ``numerators``,
``sorted_terms``, ...) are keyed by exponent tuples.

The one product loop, :meth:`Polynomial.sum_of_products`, adds scaled products
``c * a * b`` into one dict and normalizes once (as Monagan and Pearce form a
sum of products); ``a * b`` is its one-product case, and sums of products are
formed in one call, without a running total of normalized terms.

All differentiation lives here, in two one-pass kernels: :func:`multi_partial`
applies a monomial operator ``d^a`` (``partial`` is its one-variable case, and
each entry of :func:`quartics.diffcalc.hessian` is one call), and
:func:`diff_pair` applies the operator of a whole polynomial.

Values are immutable once constructed (``terms`` is a read-only view) and
safe to share between threads: the compiled form for complex evaluation
(:meth:`Polynomial.compiled`) is built lazily and idempotently, then kept.

The one complex evaluator, :func:`eval_scaled_many`, computes each
``complex(value) ** exponent`` of a point once, in one power table shared by
all the polynomials it evaluates there; :func:`eval_scaled` and
:func:`eval_complex` are its one-polynomial form.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm, perm
from operator import or_
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .errors import DegreeError, DomainError, RoleError, TableMismatchError, rational

Exponents = tuple[int, ...]
_LIMIT = 0xFFFF     # the largest exponent or total degree a field holds, and its mask


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
        clean = {table._pack(exps): c if isinstance(c, (int, Fraction)) else Fraction(c)
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return cls._from_packed(table, {})

    @classmethod
    def constant(cls, table: VarTable, value) -> "Polynomial":
        c = Fraction(value)
        return cls._from_packed(table, {0: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "Polynomial":
        return cls.monomial(table, {name: 1})

    @classmethod
    def monomial(cls, table: VarTable, powers: Mapping[str, int], coeff=1) -> "Polynomial":
        exps = [0] * len(table)
        for name, e in powers.items():
            exps[table.index(name)] = e
        c = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
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

    def compiled(self) -> tuple[tuple[complex, tuple[tuple[str, int], ...]], ...]:
        """The canonical-order terms as ``(complex(coeff), ((name, exp), ...))``
        over the occurring variables, which :func:`eval_scaled_many` runs on; built once.
        ``num / den`` is correctly rounded, as ``float(Fraction)`` is."""
        if self._compiled is None:
            den, names = self._den, self.table.names
            self._compiled = tuple(
                (complex(c / den), tuple((n, e) for n, e in zip(names, exps) if e))
                for exps, c in self._items(sorted(self._num, reverse=True)))
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
        table = self.table
        ng = table.n_geometric
        params = (1 << 16 * len(table.parameters)) - 1     # the parameter fields of a key
        out: dict[Exponents, dict[int, int]] = {}
        for exps, (key, coeff) in zip(table._unpack(self._num), self._num.items()):
            out.setdefault(exps[:ng], {})[(sum(exps[ng:]) << table._top) + (key & params)] = coeff
        return {geo: Polynomial._from_packed(table, num, self._den)
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
        *a*, *b* over *table*), in one dict over the lcm of the denominators with one gcd
        pass; an empty list gives zero over *table*."""
        products = list(products)
        den = lcm(*[c.denominator * a._den * b._den for c, a, b in products])
        top = table._top
        out: dict[int, int] = {}
        for c, a, b in products:
            _check_table(table, a)
            _check_table(table, b)
            scale = c.numerator * (den // (c.denominator * a._den * b._den))
            a, b = (b._num, a._num) if len(b._num) > len(a._num) else (a._num, b._num)
            # the degrees add, so a product that fits the top field fits every field
            _check_degree((max(a, default=0) >> top) + (max(b, default=0) >> top))
            b = b.items()
            for ea, ca in a.items():
                ca *= scale
                for eb, cb in b:
                    e = ea + eb
                    out[e] = out.get(e, 0) + ca * cb
        return Polynomial._from_packed(table, out, den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
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
        if self._hash is None:
            self._hash = hash((self.table, tuple(sorted(self.terms.items()))))
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


@lru_cache(maxsize=256)
def _lowering(table: VarTable, orders: tuple[tuple[str, int], ...]):
    """The operator ``d^a`` of :func:`multi_partial` over *table*, checked once: its
    steps ``(shift, a_i)`` (the nonzero orders) and the key ``key(x^a)`` it lowers by."""
    steps, lower = [], 0
    for var, k in orders:
        if k < 0:
            raise DomainError("negative differentiation order")
        if not table.is_geometric(var):
            raise RoleError(f"cannot differentiate with respect to parameter {var!r}")
        if k:
            shift = table._shift(var)
            steps.append((shift, k))
            # an order above 65,535 spills out of its field, but no key is lowered by it
            lower += (k << table._top) + (k << shift)
    return tuple(steps), lower


def multi_partial(p: Polynomial, orders: Mapping[str, int]) -> Polynomial:
    """The partial ``d^a p`` of the orders ``a`` by geometric variable, in one pass: each
    term with exponents b >= a gives ``num * prod perm(b_i, a_i)`` at ``key - key(x^a)``."""
    table = p.table
    steps, lower = _lowering(table, tuple(orders.items()))
    out = {}
    for key, coeff in p._num.items():
        for shift, k in steps:
            if (e := (key >> shift) & _LIMIT) < k:
                break
            coeff *= perm(e, k)
        else:   # lowering the exponents is injective, so no two terms collide
            out[key - lower] = coeff
    return Polynomial._from_packed(table, out, p._den)


def diff_pair(f: Polynomial, g: Polynomial) -> Polynomial:
    """``D_f(g)``, the differential operator of *f* applied to *g*, in one pass: terms of
    *f* and *g* with geometric exponents a <= b give ``f_num * g_num * prod perm(b_i, a_i)``
    at ``f_key + g_key - 2 key(x^a)``; the other pairs of terms vanish."""
    _check_table(f.table, g)
    table, ng = f.table, f.table.n_geometric
    groups: dict[Exponents, list[tuple[int, int]]] = {}     # f's terms by their a
    for exps, term in zip(table._unpack(f._num), f._num.items()):
        groups.setdefault(exps[:ng], []).append(term)
    gterms = list(zip(table._unpack(g._num), g._num.items()))
    out: dict[int, int] = {}
    for a, terms in groups.items():
        need = [(i, e) for i, e in enumerate(a) if e]
        twice = 2 * table._pack(a + (0,) * (len(table) - ng))
        for b, (gkey, c) in gterms:
            for i, e in need:
                if b[i] < e:
                    break
                c *= perm(b[i], e)
            else:
                for key, fc in terms:
                    out[k] = out.get(k := gkey + key - twice, 0) + fc * c
    _check_degree(max(out, default=0) >> table._top)    # out keeps every product's key
    return Polynomial._from_packed(table, out, f._den * g._den)


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


def homogenize(p: Polynomial, var: str, target_degree: int) -> Polynomial:
    """Pad every term with ``var``-powers so the geometric degree is *target_degree*.

    Requires ``var`` to be geometric and absent from *p*; parameter content is
    ignored by the degree count.
    """
    if not p.table.is_geometric(var):
        raise RoleError(f"homogenization variable {var!r} must be geometric")
    if p.degree_in(var):
        raise DomainError(f"variable {var!r} already occurs in the polynomial")
    table = p.table
    top, shift = table._top, table._shift(var)
    ng = table.n_geometric
    out: dict[int, int] = {}
    for exps, (key, coeff) in zip(table._unpack(p._num), p._num.items()):
        d = sum(exps[:ng])
        if d > target_degree:
            raise DegreeError(
                f"term of geometric degree {d} exceeds target degree {target_degree}"
            )
        pad = target_degree - d
        _check_degree((key >> top) + pad)
        out[key + (pad << top) + (pad << shift)] = coeff
    return Polynomial._from_packed(table, out, p._den)


def eval_scaled_many(polys: Sequence[Polynomial],
                     point: Mapping[str, complex]) -> list[tuple[complex, float]]:
    """Evaluate each polynomial at one complex point, with its largest summand modulus.

    Sums in canonical term order over :meth:`Polynomial.compiled`; one power
    table holds each ``variable ** exponent`` of the point, computed once for
    all the polynomials, so each result is what the polynomial alone gives.
    The summand scale measures cancellation.  Every variable that actually
    occurs must be assigned.  Coefficients are converted with correctly
    rounded integer division, so bounded inputs evaluate to full double
    precision.
    """
    powers = {}
    out = []
    for p in polys:
        total = 0j
        scale = 0.0
        for term, monomial in p.compiled():
            for factor in monomial:
                power = powers.get(factor)
                if power is None:
                    v = point.get(factor[0])
                    if v is None:
                        raise DomainError(f"variable {factor[0]!r} not assigned")
                    power = powers[factor] = complex(v) ** factor[1]
                term *= power
            total += term
            size = abs(term)
            if size > scale:    # max(scale, size), which skips a NaN size
                scale = size
        out.append((total, scale))
    return out


def eval_scaled(p: Polynomial, point: Mapping[str, complex]) -> tuple[complex, float]:
    """Value and largest summand modulus at a complex point: the one-polynomial
    form of :func:`eval_scaled_many`."""
    return eval_scaled_many((p,), point)[0]


def eval_complex(p: Polynomial, point: Mapping[str, complex]) -> complex:
    """Evaluate at a complex point (the value of :func:`eval_scaled`)."""
    return eval_scaled(p, point)[0]


def eval_exact(p: Polynomial, point: Mapping[str, Fraction | int]) -> Fraction:
    """Evaluate at an exact rational point, in ints: a variable of value n/d enters
    each term as n^e * d^(t - e), over the one denominator ``p.denominator * prod d^t``,
    where t is its largest exponent in *p*; only the powers of exponents that
    occur are built."""
    table = p.table
    names = table.names
    factors, den = [], p._den
    occurring, shift = reduce(or_, p._num, 0), table._top
    for name in names:
        shift -= 16     # name's field: nonzero in the OR of the keys where name occurs
        if not (occurring >> shift) & _LIMIT:
            continue
        if name not in point:   # name the first unassigned in term order, then table order
            name = next(n for exps in table._unpack(sorted(p._num, reverse=True))
                        for n, e in zip(names, exps) if e and n not in point)
            raise DomainError(f"variable {name!r} not assigned")
        v = point[name]
        v = v if isinstance(v, (int, Fraction)) else rational(v)
        exps = {(key >> shift) & _LIMIT for key in p._num}
        n, d, t = v.numerator, v.denominator, max(exps)
        factors.append((shift, {e: n ** e * d ** (t - e) for e in exps}))
        den *= d ** t
    total = 0
    for key, term in p._num.items():
        for shift, powers in factors:
            term *= powers[(key >> shift) & _LIMIT]
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


def restrict_to_line(p: Polynomial, table: VarTable, var: str, pair: tuple[str, str],
                     unknowns: tuple[str, str]) -> list[Polynomial]:
    """The coefficients of ``pair[0]^4, pair[0]^3 pair[1], ..., pair[1]^4`` of the
    quartic form *p* on the line ``var = -u1*pair[0] - u2*pair[1]``, over *table*
    (the table of *p* plus the *unknowns* ``(u1, u2)``).  The unknowns may be
    the pair itself, over the table of *p*: the coefficients carry no pair
    content, so ``u1, u2`` are then written as ``pair[0], pair[1]``.  Each
    power of *var* is expanded binomially, so no polynomial is multiplied."""
    p = convert(p, table)
    iv, i0, i1 = (table.index(n) for n in (var, *pair))
    s0, s1 = map(table._shift, unknowns)
    ng, top = table.n_geometric, table._top
    params = (1 << 16 * len(table.parameters)) - 1     # the parameter fields of a key
    out = [{} for _ in range(5)]
    for exps, (key, coeff) in zip(table._unpack(p._num), p._num.items()):
        k = exps[iv]
        if exps[i0] + exps[i1] + k != 4 or sum(exps[:ng]) != 4:
            raise DegreeError(f"not a quartic form in ({pair[0]},{pair[1]},{var}): {exps}")
        # the parameter part of the term, of degree deg - 4, times the unknowns' k
        rest = (key & params) + (((key >> top) - 4 + k) << top)
        for m in range(k + 1):
            new = rest + (m << s0) + ((k - m) << s1)
            slot = out[exps[i1] + k - m]
            slot[new] = slot.get(new, 0) + coeff * ((-1) ** k * comb(k, m))
    return [Polynomial._from_packed(table, num, p._den) for num in out]


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

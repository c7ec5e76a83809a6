"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every polynomial lives in a ring described by a :class:`VarTable`, which
splits the variables into two roles:

* *geometric* variables (``x, y, z`` or ``u, v, w`` ...) -- the ones acted
  on by differential operators, substitutions and homogenization;
* *parameters* (``r, s, u`` ...) -- ordinary commuting variables that ride
  along in the coefficients and are treated as scalars by the calculus.

Coefficients are exact: nonzero ``int`` numerators keyed by exponent tuples
over one positive ``int`` denominator, always reduced (the gcd of the
denominator and all numerators is 1; zero has denominator 1), so the stored
form is canonical and the ring operations run on ints, one gcd pass per
result.  :attr:`Polynomial.terms` shows reduced :class:`fractions.Fraction`
coefficients.  The canonical term order used for display, hashing and
deterministic evaluation is graded lexicographic with geometric variables
before parameters.

Values are immutable once constructed (``terms`` is a read-only view) and
safe to share between threads: the compiled form for complex evaluation
(:meth:`Polynomial.compiled`) is built lazily and idempotently, then kept.

The one complex evaluator, :func:`eval_scaled_many`, computes each
``complex(value) ** exponent`` of a point once, in one power table shared by
all the polynomials it evaluates there; :func:`eval_scaled` and
:func:`eval_complex` are its one-polynomial form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm, perm
from operator import add
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import DegreeError, DomainError, RoleError, TableMismatchError

Exponents = tuple[int, ...]


def _grlex(item) -> tuple:
    return sum(item[0]), item[0]


@dataclass(frozen=True)
class VarTable:
    """An ordered list of variable names split into geometric and parameter roles."""

    geometric: tuple[str, ...]
    parameters: tuple[str, ...] = ()
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        geometric = tuple(self.geometric)
        parameters = tuple(self.parameters)
        object.__setattr__(self, "geometric", geometric)
        object.__setattr__(self, "parameters", parameters)
        if not geometric:
            raise ValueError("a VarTable needs at least one geometric variable")
        names = geometric + parameters
        if len(set(names)) != len(names):
            raise ValueError(f"variable names not unique: {names}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

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
            raise KeyError(f"unknown variable {name!r} (table has {self.names})") from None

    def is_geometric(self, name: str) -> bool:
        return self.index(name) < len(self.geometric)


class Polynomial:
    """A sparse exact polynomial attached to a :class:`VarTable`: the int numerators
    ``_num`` over the reduced denominator ``_den`` (see the module docstring)."""

    __slots__ = ("table", "_num", "_den", "_hash", "_compiled")

    def __init__(self, table: VarTable, terms: Mapping[Exponents, Fraction | int] | None = None):
        clean: dict[Exponents, Fraction] = {}
        n = len(table)
        for exps, coeff in (terms or {}).items():
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps} does not match table of {n} variables")
            if min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            c = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
            if c:
                clean[tuple(exps)] = c
        # over the lcm of the denominators the numerators come out reduced
        den = lcm(*(c.denominator for c in clean.values()))
        self.table, self._den = table, den
        self._num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._hash = self._compiled = None

    @classmethod
    def from_numerators(cls, table: VarTable, num: dict[Exponents, int],
                        den: int = 1) -> "Polynomial":
        """``sum num[e] * x^e / den`` (*den* > 0), zero numerators dropped, gcd divided
        out; the result may keep *num* itself, so the caller must not change it later."""
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
        return cls.from_numerators(table, {})

    @classmethod
    def constant(cls, table: VarTable, value) -> "Polynomial":
        c = Fraction(value)
        return cls.from_numerators(table, {(0,) * len(table): c.numerator}, c.denominator)

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "Polynomial":
        exps = [0] * len(table)
        exps[table.index(name)] = 1
        return cls.from_numerators(table, {tuple(exps): 1})

    @classmethod
    def monomial(cls, table: VarTable, powers: Mapping[str, int], coeff=1) -> "Polynomial":
        exps = [0] * len(table)
        for name, e in powers.items():
            exps[table.index(name)] = e
        return cls(table, {tuple(exps): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """Read-only map from exponent tuples to reduced Fraction coefficients, built
        on each access (:attr:`numerators` is the stored form)."""
        den = self._den
        return MappingProxyType({e: Fraction(c, den) for e, c in self._num.items()})

    @property
    def numerators(self) -> Mapping[Exponents, int]:
        """Read-only map from exponent tuples to the int numerators over :attr:`denominator`."""
        return MappingProxyType(self._num)

    @property
    def denominator(self) -> int:
        return self._den

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (the canonical order)."""
        den = self._den
        return [(e, Fraction(c, den))
                for e, c in sorted(self._num.items(), key=_grlex, reverse=True)]

    def leading_term(self) -> tuple[Exponents, Fraction]:
        """The first of :meth:`sorted_terms`, without a ``Fraction`` for the others."""
        exps, c = max(self._num.items(), key=_grlex)
        return exps, Fraction(c, self._den)

    def compiled(self) -> tuple[tuple[complex, tuple[tuple[str, int], ...]], ...]:
        """The canonical-order terms as ``(complex(coeff), ((name, exp), ...))``
        over the occurring variables, which :func:`eval_scaled_many` runs on; built once.
        ``num / den`` is correctly rounded, as ``float(Fraction)`` is."""
        if self._compiled is None:
            den, names = self._den, self.table.names
            self._compiled = tuple(
                (complex(c / den), tuple((n, e) for n, e in zip(names, exps) if e))
                for exps, c in sorted(self._num.items(), key=_grlex, reverse=True))
        return self._compiled

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def total_degree(self) -> int:
        return max((sum(e) for e in self._num), default=0)

    def geometric_degree(self) -> int:
        ng = self.table.n_geometric
        return max((sum(e[:ng]) for e in self._num), default=0)

    def degree_in(self, name: str) -> int:
        i = self.table.index(name)
        return max((e[i] for e in self._num), default=0)

    def is_geometric_homogeneous(self) -> bool:
        ng = self.table.n_geometric
        return len({sum(e[:ng]) for e in self._num}) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if any variable occurs)."""
        zero = (0,) * len(self.table)
        if set(self._num) - {zero}:
            raise DegreeError(f"polynomial is not constant: {self}")
        return Fraction(self._num.get(zero, 0), self._den)

    def coefficient(self, powers: Mapping[str, int]) -> Fraction:
        exps = [0] * len(self.table)
        for name, e in powers.items():
            exps[self.table.index(name)] = e
        return Fraction(self._num.get(tuple(exps), 0), self._den)

    def geometric_coefficients(self) -> dict[Exponents, "Polynomial"]:
        """Group terms by geometric exponents; values are parameter-only polynomials."""
        ng = self.table.n_geometric
        zero_geo = (0,) * ng
        out: dict[Exponents, dict[Exponents, int]] = {}
        for exps, coeff in self._num.items():
            out.setdefault(exps[:ng], {})[zero_geo + exps[ng:]] = coeff
        return {geo: Polynomial.from_numerators(self.table, num, self._den)
                for geo, num in out.items()}

    def support_names(self) -> set[str]:
        return {n for exps in self._num for n, e in zip(self.table.names, exps) if e}

    # -- ring operations ---------------------------------------------------

    def _check_table(self, other: "Polynomial"):
        if self.table != other.table:
            raise TableMismatchError(
                f"cannot combine polynomials over {self.table.names} and {other.table.names}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.table, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_table(other)
        # over the lcm of the two denominators: multipliers 1 when they agree
        g = gcd(self._den, other._den)
        ma, mb = other._den // g, self._den // g
        out = dict(self._num) if ma == 1 else {e: c * ma for e, c in self._num.items()}
        for exps, coeff in other._num.items():
            out[exps] = out.get(exps, 0) + coeff * mb
        return Polynomial.from_numerators(self.table, out, self._den * ma)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial.from_numerators(self.table, {e: -c for e, c in self._num.items()},
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
            return Polynomial.from_numerators(self.table, {e: k * c for e, k in self._num.items()},
                                              self._den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_table(other)
        out: dict[Exponents, int] = {}
        if len(other._num) > len(self._num):
            a, b = other._num, self._num
        else:
            a, b = self._num, other._num
        b = b.items()
        for ea, ca in a.items():
            for eb, cb in b:
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return Polynomial.from_numerators(self.table, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

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
    """Iterated exact partial derivative with respect to a geometric variable."""
    if order < 0:
        raise ValueError("negative differentiation order")
    if not p.table.is_geometric(var):
        raise RoleError(f"cannot differentiate with respect to parameter {var!r}")
    if order == 0:
        return p
    i = p.table.index(var)
    # lowering one exponent is injective, so no two terms collide
    out = {exps[:i] + (e - order,) + exps[i + 1:]: coeff * perm(e, order)
           for exps, coeff in p._num.items() if (e := exps[i]) >= order}
    return Polynomial.from_numerators(p.table, out, p._den)


def multi_partial(p: Polynomial, orders: Mapping[str, int]) -> Polynomial:
    """Apply several iterated partials at once (they commute)."""
    for var, k in orders.items():
        p = partial(p, var, k)
        if p.is_zero():
            break
    return p


def substitute(p: Polynomial, replacements: Mapping[str, Polynomial]) -> Polynomial:
    """Substitute each replacement (same table) for its variable, all at once,
    and re-expand exactly.  Terms are grouped by the exponents of the
    substituted variables, and each power of a replacement is built once."""
    table = p.table
    subs = []
    for var, replacement in replacements.items():
        p._check_table(replacement)
        subs.append((table.index(var), replacement, [Polynomial.constant(table, 1)]))
    groups: dict[Exponents, dict[Exponents, int]] = {}
    for exps, coeff in p._num.items():
        rest = list(exps)
        for i, _, _ in subs:
            rest[i] = 0
        groups.setdefault(tuple(exps[i] for i, _, _ in subs), {})[tuple(rest)] = coeff
    result = Polynomial.zero(table)
    for key, num in groups.items():
        term = Polynomial.from_numerators(table, num, p._den)
        for e, (_, replacement, powers) in zip(key, subs):
            while len(powers) <= e:
                powers.append(powers[-1] * replacement)
            if e:
                term = term * powers[e]
        result = result + term
    return result


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
        raise ValueError(f"variable {var!r} already occurs in the polynomial")
    i = p.table.index(var)
    ng = p.table.n_geometric
    out: dict[Exponents, int] = {}
    for exps, coeff in p._num.items():
        d = sum(exps[:ng])
        if d > target_degree:
            raise DegreeError(
                f"term of geometric degree {d} exceeds target degree {target_degree}"
            )
        out[exps[:i] + (target_degree - d,) + exps[i + 1:]] = coeff
    return Polynomial.from_numerators(p.table, out, p._den)


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
    """Evaluate at an exact rational point, in ints: a variable of largest
    exponent t in *p* and value n/d enters each term as n^e * d^(t - e), over
    the one denominator ``p.denominator * prod d^t``."""
    names = p.table.names
    factors, den = [], p._den
    for i, t in enumerate(map(max, zip(*p._num))):
        if not t:
            continue
        if names[i] not in point:   # name the first unassigned in term order, then table order
            name = next(n for exps in p._num for n, e in zip(names, exps) if e and n not in point)
            raise DomainError(f"variable {name!r} not assigned")
        v = point[names[i]]
        v = v if isinstance(v, (int, Fraction)) else Fraction(v)
        factors.append((i, [v.numerator ** e * v.denominator ** (t - e) for e in range(t + 1)]))
        den *= v.denominator ** t
    total = 0
    for exps, term in p._num.items():
        for i, powers in factors:
            term *= powers[exps[i]]
        total += term
    return Fraction(total, den)


def substitute_values(p: Polynomial, values: Mapping[str, Fraction | int]) -> Polynomial:
    """Replace some variables by exact rational constants."""
    return substitute(p, {n: Polynomial.constant(p.table, v) for n, v in values.items()})


def convert(p: Polynomial, table: VarTable, rename: Mapping[str, str] | None = None) -> Polynomial:
    """Carry *p* into another table, optionally renaming variables.

    Every variable with nonzero support must map (injectively) onto a
    variable of the new table; variables that never occur may be dropped.
    Renaming may change a variable's role, which is how dual parameters are
    promoted to geometric coordinates.
    """
    rename = dict(rename or {})
    used = p.support_names()
    targets = {n: rename.get(n, n) for n in used}
    if len(set(targets.values())) != len(targets):
        raise ValueError(f"renaming is not injective on the support: {targets}")
    slot = {p.table.index(old): table.index(new) for old, new in targets.items()}
    # an injective renaming maps distinct exponent tuples to distinct ones
    out: dict[Exponents, int] = {}
    for exps, coeff in p._num.items():
        new = [0] * len(table)
        for i, e in enumerate(exps):
            if e:
                new[slot[i]] = e
        out[tuple(new)] = coeff
    return Polynomial.from_numerators(table, out, p._den)


def restrict_to_line(p: Polynomial, table: VarTable, var: str, pair: tuple[str, str],
                     unknowns: tuple[str, str]) -> list[Polynomial]:
    """The coefficients of ``pair[0]^4, pair[0]^3 pair[1], ..., pair[1]^4`` of the
    quartic form *p* on the line ``var = -u1*pair[0] - u2*pair[1]``, over *table*
    (the table of *p* plus the *unknowns* ``(u1, u2)``).  The unknowns may be
    the pair itself, over the table of *p*: the coefficients carry no pair
    content, so ``u1, u2`` are then written as ``pair[0], pair[1]``.  Each
    power of *var* is expanded binomially, so no polynomial is multiplied."""
    p = convert(p, table)
    iv, i0, i1, j0, j1 = (table.index(n) for n in (var, *pair, *unknowns))
    ng = table.n_geometric
    out = [{} for _ in range(5)]
    for exps, coeff in p._num.items():
        k = exps[iv]
        if exps[i0] + exps[i1] + k != 4 or sum(exps[:ng]) != 4:
            raise DegreeError(f"not a quartic form in ({pair[0]},{pair[1]},{var}): {exps}")
        for m in range(k + 1):
            key = [0] * ng + list(exps[ng:])
            key[j0] += m
            key[j1] += k - m
            key = tuple(key)
            slot = out[exps[i1] + k - m]
            slot[key] = slot.get(key, 0) + coeff * ((-1) ** k * comb(k, m))
    return [Polynomial.from_numerators(table, num, p._den) for num in out]


def compose_linear(p: Polynomial, matrix: Sequence[Sequence[Fraction | int]]) -> Polynomial:
    """Exact substitution of the geometric variables by ``matrix`` times themselves.

    Returns ``p(M x)`` where ``x`` is the column of geometric variables; the
    parameters are untouched.
    """
    table = p.table
    ng = table.n_geometric
    if len(matrix) != ng or any(len(row) != ng for row in matrix):
        raise ValueError(f"matrix must be {ng}x{ng}")
    images = (sum((Polynomial.monomial(table, {n: 1}, c) for n, c in zip(table.geometric, row)),
                  Polynomial.zero(table)) for row in matrix)
    return substitute(p, dict(zip(table.geometric, images)))

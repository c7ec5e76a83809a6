"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every polynomial lives in a ring described by a :class:`VarTable`, which
splits the variables into two roles:

* *geometric* variables (``x, y, z`` or ``u, v, w`` ...) -- the ones acted
  on by differential operators, substitutions and homogenization;
* *parameters* (``r, s, u`` ...) -- ordinary commuting variables that ride
  along in the coefficients and are treated as scalars by the calculus.

Coefficients are :class:`fractions.Fraction`, so all arithmetic is exact.
Terms are stored sparsely as a map from exponent tuples to coefficients;
zero coefficients are never stored.  The canonical term order used for
display, hashing and deterministic evaluation is graded lexicographic with
geometric variables before parameters.

Values are immutable once constructed (``terms`` is a read-only view) and
safe to share between threads: the compiled form for complex evaluation
(:meth:`Polynomial.compiled`) is built lazily and idempotently, then kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, perm
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import DegreeError, DomainError, RoleError, TableMismatchError

Rational = Fraction
Exponents = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    """A sparse exact polynomial attached to a :class:`VarTable`."""

    __slots__ = ("table", "_terms", "_hash", "_compiled")

    def __init__(self, table: VarTable, terms: Mapping[Exponents, Fraction | int] | None = None):
        self.table = table
        clean: dict[Exponents, Fraction] = {}
        n = len(table)
        for exps, coeff in (terms or {}).items():
            if len(exps) != n:
                raise ValueError(f"exponent tuple {exps} does not match table of {n} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c:
                clean[tuple(exps)] = c
        self._terms = clean
        self._hash = self._compiled = None

    @classmethod
    def _raw(cls, table: VarTable, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Trusted constructor: *terms* already normalized (no zeros, Fractions)."""
        p = cls.__new__(cls)
        p.table = table
        p._terms = terms
        p._hash = p._compiled = None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "Polynomial":
        return cls._raw(table, {})

    @classmethod
    def constant(cls, table: VarTable, value) -> "Polynomial":
        c = Fraction(value)
        if not c:
            return cls.zero(table)
        return cls._raw(table, {(0,) * len(table): c})

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "Polynomial":
        exps = [0] * len(table)
        exps[table.index(name)] = 1
        return cls._raw(table, {tuple(exps): _ONE})

    @classmethod
    def monomial(cls, table: VarTable, powers: Mapping[str, int], coeff=1) -> "Polynomial":
        exps = [0] * len(table)
        for name, e in powers.items():
            exps[table.index(name)] = e
        return cls(table, {tuple(exps): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        return MappingProxyType(self._terms)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order (the canonical order)."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def compiled(self) -> tuple[tuple[complex, tuple[tuple[str, int], ...]], ...]:
        """The canonical-order terms as ``(complex(float(coeff)), ((name, exp), ...))``
        over the occurring variables, which :func:`eval_scaled` runs on; built once."""
        if self._compiled is None:
            self._compiled = tuple(
                (complex(float(c)), tuple((n, e) for n, e in zip(self.table.names, exps) if e))
                for exps, c in self.sorted_terms())
        return self._compiled

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def geometric_degree(self) -> int:
        ng = self.table.n_geometric
        return max((sum(e[:ng]) for e in self._terms), default=0)

    def degree_in(self, name: str) -> int:
        i = self.table.index(name)
        return max((e[i] for e in self._terms), default=0)

    def is_geometric_homogeneous(self) -> bool:
        ng = self.table.n_geometric
        degs = {sum(e[:ng]) for e in self._terms}
        return len(degs) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if any variable occurs)."""
        if not self._terms:
            return _ZERO
        zero = (0,) * len(self.table)
        if set(self._terms) != {zero}:
            raise DegreeError(f"polynomial is not constant: {self}")
        return self._terms[zero]

    def coefficient(self, powers: Mapping[str, int]) -> Fraction:
        exps = [0] * len(self.table)
        for name, e in powers.items():
            exps[self.table.index(name)] = e
        return self._terms.get(tuple(exps), _ZERO)

    def geometric_coefficients(self) -> dict[Exponents, "Polynomial"]:
        """Group terms by geometric exponents; values are parameter-only polynomials."""
        ng = self.table.n_geometric
        zero_geo = (0,) * ng
        out: dict[Exponents, dict[Exponents, Fraction]] = {}
        for exps, coeff in self._terms.items():
            geo, par = exps[:ng], exps[ng:]
            out.setdefault(geo, {})[zero_geo + par] = coeff
        return {geo: Polynomial._raw(self.table, terms) for geo, terms in out.items()}

    def support_names(self) -> set[str]:
        names = self.table.names
        used: set[str] = set()
        for exps in self._terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(names[i])
        return used

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
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            c = out.get(exps, _ZERO) + coeff
            if c:
                out[exps] = c
            elif exps in out:
                del out[exps]
        return Polynomial._raw(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.table, {e: -c for e, c in self._terms.items()})

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
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.table)
            return Polynomial._raw(self.table, {e: k * c for e, k in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_table(other)
        out: dict[Exponents, Fraction] = {}
        if len(other._terms) > len(self._terms):
            a, b = other._terms, self._terms
        else:
            a, b = self._terms, other._terms
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                c = out.get(e, _ZERO) + ca * cb
                if c:
                    out[e] = c
                elif e in out:
                    del out[e]
        return Polynomial._raw(self.table, out)

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
        return self.table == other.table and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.table, tuple(sorted(self._terms.items()))))
        return self._hash

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
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
    out: dict[Exponents, Fraction] = {}
    for exps, coeff in p._terms.items():
        e = exps[i]
        if e < order:
            continue
        new = exps[:i] + (e - order,) + exps[i + 1:]
        c = out.get(new, _ZERO) + coeff * perm(e, order)
        if c:
            out[new] = c
        elif new in out:
            del out[new]
    return Polynomial._raw(p.table, out)


def multi_partial(p: Polynomial, orders: Mapping[str, int]) -> Polynomial:
    """Apply several iterated partials at once (they commute)."""
    for var, k in orders.items():
        p = partial(p, var, k)
        if p.is_zero():
            break
    return p


def substitute_linear(p: Polynomial, var: str, replacement: Polynomial) -> Polynomial:
    """Substitute *replacement* (same table) for *var* and re-expand exactly."""
    p._check_table(replacement)
    i = p.table.index(var)
    if replacement == Polynomial.variable(p.table, var):
        return p
    powers: dict[int, Polynomial] = {0: Polynomial.constant(p.table, 1)}

    def rep_power(k: int) -> Polynomial:
        if k not in powers:
            powers[k] = rep_power(k - 1) * replacement
        return powers[k]

    result = Polynomial.zero(p.table)
    for exps, coeff in p._terms.items():
        e = exps[i]
        rest = Polynomial._raw(p.table, {exps[:i] + (0,) + exps[i + 1:]: coeff})
        result = result + (rest * rep_power(e) if e else rest)
    return result


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
    out: dict[Exponents, Fraction] = {}
    for exps, coeff in p._terms.items():
        d = sum(exps[:ng])
        if d > target_degree:
            raise DegreeError(
                f"term of geometric degree {d} exceeds target degree {target_degree}"
            )
        new = exps[:i] + (target_degree - d,) + exps[i + 1:]
        out[new] = coeff
    return Polynomial._raw(p.table, out)


def eval_scaled(p: Polynomial, point: Mapping[str, complex]) -> tuple[complex, float]:
    """Evaluate at a complex point and report the largest summand modulus.

    Sums in canonical term order over :meth:`Polynomial.compiled`, computing
    each ``variable ** exponent`` once; the summand scale measures cancellation.
    Every variable that actually occurs must be assigned.  Coefficients are
    converted with correctly rounded Fraction-to-float division, so bounded
    inputs evaluate to full double precision.
    """
    total = 0j
    scale = 0.0
    powers = {}
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
        scale = max(scale, abs(term))
    return total, scale


def eval_complex(p: Polynomial, point: Mapping[str, complex]) -> complex:
    """Evaluate at a complex point (the value of :func:`eval_scaled`)."""
    return eval_scaled(p, point)[0]


def eval_exact(p: Polynomial, point: Mapping[str, Fraction | int]) -> Fraction:
    """Evaluate at an exact rational point."""
    names = p.table.names
    total = _ZERO
    for exps, coeff in p._terms.items():
        term = coeff
        for i, e in enumerate(exps):
            if not e:
                continue
            if names[i] not in point:
                raise DomainError(f"variable {names[i]!r} not assigned")
            term *= Fraction(point[names[i]]) ** e
        total += term
    return total


def substitute_values(p: Polynomial, values: Mapping[str, Fraction | int]) -> Polynomial:
    """Replace some variables by exact rational constants."""
    result = p
    for name, value in values.items():
        result = substitute_linear(
            result, name, Polynomial.constant(p.table, Fraction(value))
        )
    return result


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
    slot = {}
    for old, new in targets.items():
        slot[p.table.index(old)] = table.index(new)
    out: dict[Exponents, Fraction] = {}
    for exps, coeff in p._terms.items():
        new = [0] * len(table)
        for i, e in enumerate(exps):
            if e:
                new[slot[i]] = e
        key = tuple(new)
        c = out.get(key, _ZERO) + coeff
        if c:
            out[key] = c
        elif key in out:
            del out[key]
    return Polynomial._raw(table, out)


def restrict_to_line(p: Polynomial, table: VarTable, var: str, pair: tuple[str, str],
                     unknowns: tuple[str, str]) -> list[Polynomial]:
    """The coefficients of ``pair[0]^4, pair[0]^3 pair[1], ..., pair[1]^4`` of the
    quartic form *p* on the line ``var = -u1*pair[0] - u2*pair[1]``, over *table*
    (the table of *p* plus the *unknowns* ``(u1, u2)``).  Each power of *var*
    is expanded binomially, so no polynomial is multiplied."""
    p = convert(p, table)
    iv, i0, i1, j0, j1 = (table.index(n) for n in (var, *pair, *unknowns))
    ng = table.n_geometric
    out = [{} for _ in range(5)]
    for exps, coeff in p._terms.items():
        k = exps[iv]
        if exps[i0] + exps[i1] + k != 4 or sum(exps[:ng]) != 4:
            raise DegreeError(f"not a quartic form in ({pair[0]},{pair[1]},{var}): {exps}")
        for m in range(k + 1):
            key = [0] * ng + list(exps[ng:])
            key[j0] += m
            key[j1] += k - m
            key = tuple(key)
            slot = out[exps[i1] + k - m]
            slot[key] = slot.get(key, _ZERO) + coeff * ((-1) ** k * comb(k, m))
    return [Polynomial(table, terms) for terms in out]


def compose_linear(p: Polynomial, matrix: Sequence[Sequence[Fraction | int]]) -> Polynomial:
    """Exact substitution of the geometric variables by ``matrix`` times themselves.

    Returns ``p(M x)`` where ``x`` is the column of geometric variables; the
    parameters are untouched.
    """
    ng = p.table.n_geometric
    if len(matrix) != ng or any(len(row) != ng for row in matrix):
        raise ValueError(f"matrix must be {ng}x{ng}")
    gvars = [Polynomial.variable(p.table, n) for n in p.table.geometric]
    images = []
    for row in matrix:
        img = Polynomial.zero(p.table)
        for c, v in zip(row, gvars):
            if c:
                img = img + v * Fraction(c)
        images.append(img)
    cache: dict[tuple[int, int], Polynomial] = {}

    def image_power(i: int, k: int) -> Polynomial:
        if k == 0:
            return Polynomial.constant(p.table, 1)
        if (i, k) not in cache:
            cache[(i, k)] = image_power(i, k - 1) * images[i]
        return cache[(i, k)]

    result = Polynomial.zero(p.table)
    for exps, coeff in p._terms.items():
        factor = Polynomial._raw(p.table, {(0,) * ng + exps[ng:]: coeff})
        for i in range(ng):
            if exps[i]:
                factor = factor * image_power(i, exps[i])
        result = result + factor
    return result

"""Exception hierarchy shared by all quartics modules, the one conversion of an
outside rational, the one check of a tolerance argument and the one translation
of a float overflow into it."""

import math
import re
import sys
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction


class QuarticsError(Exception):
    """Base class for every error raised by this package."""


class TableMismatchError(QuarticsError):
    """Two polynomials from different variable tables were combined."""


class RoleError(QuarticsError):
    """A parameter variable was used where a geometric one is required."""


class DegreeError(QuarticsError):
    """An operand has the wrong degree for the requested operation."""


class DomainError(QuarticsError, KeyError, ValueError):
    """An argument is outside the operation's domain (e.g. transvectant order or
    an unknown variable name).

    It is also a :class:`KeyError` and a :class:`ValueError`, which it replaced,
    so ``except KeyError`` and ``except ValueError`` still catch it.  Its message
    is the plain text: ``KeyError.__str__`` would quote it."""

    __str__ = BaseException.__str__


class DegeneracyError(QuarticsError):
    """Parameters lie on a degenerate locus where the construction breaks down.

    The message names the offending locus.
    """


class EnumerationError(QuarticsError):
    """A complete enumeration produced the wrong number of objects."""


class RootFindingError(QuarticsError):
    """A root finder failed to converge.  Every root is closed-form now, so
    nothing raises it; it stays for callers that still catch it."""


class SolverError(QuarticsError):
    """No branch of a finite solver enumeration certified against the input."""


#: digits of any script (Unicode category Nd), single underscores between them
_DIGITS = r"\d+(?:_\d+)*"
#: a rational as text, the union of what ``Fraction`` reads on Python 3.10-3.13: blanks, a sign,
#: then digits "/" digits (blanks around the "/") or a mantissa and an exponent; then blanks
_RATIONAL = re.compile(rf"\s*([-+]?)(?:({_DIGITS})\s*/\s*({_DIGITS})|(?=\.?\d)((?:{_DIGITS})?"
                       rf"(?:\.(?:{_DIGITS})?)?)(?:[eE]([-+]?{_DIGITS}))?)\s*")


def _too_long(limit: int) -> DomainError:
    return DomainError(f"cannot parse rational: a numerator or denominator of more "
                       f"than {limit} digits, the limit of sys.get_int_max_str_digits()")


def _scaled(sign: int, digits: tuple, exponent: int, limit: int) -> Fraction:
    """(-1)**sign * digits * 10**exponent, as ``Decimal.as_tuple()`` gives it, refusing without
    the power a numerator or denominator of over *limit* digits: d significant digits times 10**e
    have a numerator of d + e digits or more and a denominator of more than -d - e digits, and a
    value whose numerator and denominator fit has fewer than log2(10) * limit < 4 * limit."""
    d = len(bytes(digits).rstrip(b"\0"))
    exponent += len(digits) - d
    if limit and d and not (-limit < d + exponent <= limit and d < 4 * limit):
        raise _too_long(limit)
    return Fraction(Decimal((sign, digits[:d], exponent))) if d else Fraction(0)


def rational(value) -> Fraction:
    """*value* (an int, a ``Fraction``, a finite float or ``Decimal`` or a string in the grammar
    of :data:`_RATIONAL`, like "7/2") as a ``Fraction``; anything else, a bool too, raises
    :class:`DomainError` naming it, and so does a numerator or denominator of more digits than
    the interpreter converts to a string (``sys.get_int_max_str_digits()``), naming the limit.
    The digits of a string or a ``Decimal`` are bounded before any power of ten is formed: a
    huge exponent is refused at once, and a zero mantissa gives 0 whatever its exponent."""
    limit = sys.get_int_max_str_digits()    # 0: no limit
    try:
        if isinstance(value, bool):     # Fraction(True) would be 1
            raise TypeError("a bool is not a rational")
        if isinstance(value, str):
            if not (match := _RATIONAL.fullmatch(value)):
                raise ValueError(f"Invalid literal for Fraction: {value!r}")
            sign, num, den, mantissa, exp = match.groups()
            if num:     # each within the limit, so is their quotient
                return Fraction(rational(sign + num), rational(den))
            sign, digits, exponent = Decimal(sign + mantissa).as_tuple()
            if any(digits):     # else 0 whatever the exponent, which int reads within the limit
                exponent += int(exp or 0)
            q = _scaled(sign, digits, exponent, limit)
        elif isinstance(value, Decimal) and value.is_finite():
            q = _scaled(*value.as_tuple(), limit)
        else:
            q = Fraction(value)
    except DomainError:
        raise
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise DomainError(f"cannot parse rational {value!r}: {exc}") from None
    for n in (q.numerator, q.denominator):
        # 3 * limit bits hold fewer than limit digits: a small value costs one test
        if limit and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit:
            raise _too_long(limit)
    return q


def check_tolerance(name: str, value: float) -> float:
    """Return *value* if it is a finite real number > 0 and not a bool, else raise
    :class:`DomainError` naming the parameter *name* (a NaN tolerance would pass
    every comparison)."""
    try:
        if not isinstance(value, bool) and math.isfinite(value) and value > 0:
            return value
    except TypeError:       # math.isfinite takes only real numbers
        pass
    raise DomainError(f"{name} must be a finite number > 0, got {value!r}")


@contextmanager
def overflow_as(error: type, subject: str):
    """Re-raise an :class:`OverflowError` from the block as *error* naming *subject*:
    a parameter, or an exact value computed from it, does not fit a double."""
    try:
        yield
    except OverflowError as exc:
        raise error(f"{subject}: a value overflows double precision ({exc})") from None

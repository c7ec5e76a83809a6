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


#: a string that ends in a decimal exponent: the text before its digits, its sign,
#: its digits (with underscores, as Python writes them) and trailing blanks
_EXPONENT = re.compile(r"(.*[0-9.][eE])([-+]?)([0-9_]+)(\s*)", re.S)


def _too_long(limit: int) -> DomainError:
    return DomainError(f"cannot parse rational: a numerator or denominator of more "
                       f"than {limit} digits, the limit of sys.get_int_max_str_digits()")


def _decimal(text: str) -> tuple[Fraction, int] | None:
    """``(m, e)`` with *text* = m * 10**e for a decimal literal with an exponent, read
    without forming the power, whose cost grows with e; None for any other text."""
    if match := _EXPONENT.fullmatch(text):
        head, sign, digits, tail = match.groups()
        try:    # a zero for each digit of e: a literal exactly when text is one
            return Fraction(head + re.sub("[0-9]", "0", digits) + tail), int(sign + digits)
        except ValueError:
            pass
    return None


def rational(value) -> Fraction:
    """*value* (an int, a ``Fraction``, a finite float or ``Decimal`` or a string like
    "7/2") as a ``Fraction``; anything else, a bool too, raises :class:`DomainError`
    naming it, and so does a numerator or denominator of more digits than the
    interpreter converts to a string (``sys.get_int_max_str_digits()``), naming the
    limit.  The decimal exponent of a ``Decimal`` or a string is read first, so a huge
    one is rejected (or a zero mantissa gives 0) without forming the power."""
    limit = sys.get_int_max_str_digits()    # 0: no limit
    text = str(value) if isinstance(value, Decimal) else value
    if isinstance(value, Decimal) and limit:
        # its text has an exponent whenever the power of ten would have more digits than
        # the mantissa; a mantissa of k > limit significant digits, too long to parse, is
        # an int of k digits times 10**e: too long for e >= 0, and for -e - k >= limit
        # so is the denominator, above 10**(-e - k)
        mantissa, _, exponent = text.lstrip("-").partition("E")
        whole, _, fraction = mantissa.partition(".")
        digits = (whole + fraction).lstrip("0")
        k = len(digits.rstrip("0"))
        e = int(exponent or 0) + len(digits) - k - len(fraction)
        if k > limit and (e >= 0 or -e - k >= limit):
            raise _too_long(limit)
    if limit and isinstance(text, str) and (decimal := _decimal(text)):
        m, e = decimal
        if not m:
            return m
        # |value| >= 10**e / den, and for e < 0 its denominator is >= 10**-e / |num|
        if abs(e) - max(m.numerator.bit_length(), m.denominator.bit_length()) >= limit:
            raise _too_long(limit)
    try:
        if isinstance(value, bool):     # Fraction(True) would be 1
            raise TypeError("a bool is not a rational")
        q = Fraction(value)
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

"""Exception hierarchy shared by all quartics modules, the one conversion of an
outside rational, the one check of a tolerance argument and the one translation
of a float overflow into it."""

import math
from contextlib import contextmanager
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


def rational(value) -> Fraction:
    """*value* (an int, a ``Fraction``, a finite float or a string like "7/2") as a
    ``Fraction``; anything else raises :class:`DomainError` naming it."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise DomainError(f"cannot parse rational {value!r}: {exc}") from None


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

"""Exception types shared across the package, and the integer and number
checks that every config's fields go through."""

import math
import numbers
import operator


class GbsedError(Exception):
    """Base class for all package errors."""


class OntologyMismatch(GbsedError):
    """Transmitter and receiver disagree on the shared ontology."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class ShapeError(GbsedError):
    """Array or list dimensions do not match."""


class CapacityError(GbsedError):
    """Value that the wire format or the .scenes text cannot carry."""


class FormatError(GbsedError):
    """Payload header or framing is invalid."""

    def __init__(self, message, offset=0):
        super().__init__(message)
        self.offset = offset


class TruncationError(GbsedError):
    """Payload ends before the declared content."""

    def __init__(self, message, offset=0):
        super().__init__(message)
        self.offset = offset


class ParseError(GbsedError):
    """Scene file line is malformed."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class SpecError(GbsedError):
    """Scenario specification is infeasible."""


class DegenerateInput(GbsedError):
    """Input admits no meaningful result (empty sequence, single-class AUC, ...)."""


def integer(name, value, at_least=None, error=ValueError):
    """``value`` as an int, so that a numpy integer cannot overflow on 2^64.
    Raises ``error`` naming field ``name`` unless ``value`` is an integer
    (and >= ``at_least`` when given)."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or at_least is not None and number < at_least:
        bound = "" if at_least is None else f" >= {at_least}"
        raise error(f"{name} {value!r} is not an integer{bound}")
    return number


def number(name, value, lo=None, hi=None, error=ValueError):
    """``value`` as a float. Raises ``error`` naming field ``name`` unless
    ``value`` is a real number, not NaN, and within the bounds given."""
    low = -math.inf if lo is None else lo
    high = math.inf if hi is None else hi
    try:
        real = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int beyond float range
        real = math.nan
    if not low <= real <= high:  # NaN fails every comparison
        bound = "" if lo is None and hi is None else f" in [{low}, {high}]"
        raise error(f"{name} {value!r} is not a number{bound}")
    return real

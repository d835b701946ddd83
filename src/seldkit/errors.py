"""Exception types shared across the toolkit, and the seed check that raises one."""

import numbers


class SeldError(Exception):
    """Base class for all toolkit errors."""


class FormatError(SeldError, ValueError):
    """A file's content is malformed or uses an unsupported encoding."""


class TruncatedFileError(FormatError):
    """A file ends in the middle of a declared structure."""


class ShapeError(SeldError, ValueError):
    """Array shapes are inconsistent with an operation's contract."""


class InputError(SeldError, ValueError):
    """An input value violates an operation's precondition."""


class DegenerateInputError(InputError):
    """An input is degenerate for the requested operation (e.g. silent signal)."""


class UnsupportedError(SeldError, ValueError):
    """The request is valid but deliberately out of scope."""


class ConfigError(SeldError, ValueError):
    """A model or run configuration is invalid."""


class DataError(SeldError, ValueError):
    """Dataset contents violate the expected schema or ranges."""


class StateError(SeldError, RuntimeError):
    """An object is used before reaching the required state."""


class NumericError(SeldError, ArithmeticError):
    """A numeric contract was violated (NaN/Inf where finite values are required)."""


def check_seed(seed, name="seed"):
    """Return `seed` if it is a non-negative integer, else raise InputError.

    numpy's generators reject a negative seed with a bare ValueError; this
    turns that, and a non-integer seed, into a SeldError up front.
    """
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise InputError(f"{name} must be a non-negative integer, got {seed!r}")
    return seed

"""Exception types and input checks shared across the package."""

import numbers
from dataclasses import fields


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is an integer
    no smaller than ``minimum``.

    Python and numpy integers pass; bools and floats, even integral ones
    such as 2.0, do not.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is a real number.

    Python and numpy integers and floats pass, except an integer too large
    to convert to a float; bools, strings and other objects do not.  Ranges
    are left to the caller.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(
            f"{name} must be a real number within float range") from None


def check_keys(section: str, doc: dict, cls) -> None:
    """Raise ValueError, naming ``section`` and the keys, unless every key
    of ``doc`` is a field of the dataclass ``cls``."""
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {section} keys: {unknown}")


class NumericalError(RuntimeError):
    """A linear-algebra operation failed or is too ill-conditioned to trust.

    Carries ``condition`` (estimated condition number of the offending
    matrix) when available.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class DivergenceError(RuntimeError):
    """An iteration failed to converge or a simulated quantity blew up.

    ``residual`` holds the Riccati solver's last relative change or residual,
    ``step`` the first simulated time step at which an error entry was
    non-finite or beyond the divergence guard, and ``history`` any partial
    training record, when the raising context has them.
    """

    def __init__(self, message, residual=None, step=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.step = step
        self.history = history

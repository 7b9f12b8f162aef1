"""Exception taxonomy shared across the package.

Everything derives from XdynError so callers (and the CLI) can catch one
base class; the subclasses keep failure modes distinguishable in tests.
"""
import math

import numpy as np


class XdynError(ValueError):
    """Base class for all validation and consistency failures."""


class InvalidInputError(XdynError):
    """Malformed numeric input: wrong shape, a non-real value, non-finite entries."""


class NormalizationError(XdynError):
    """A state failed its unit-trace requirement."""


class PositivityError(XdynError):
    """A state failed positive-semidefiniteness (directly or via closed forms)."""


class RangeError(XdynError):
    """A scalar parameter fell outside its documented range."""


class DomainError(XdynError):
    """An operation was applied outside the family it is defined on."""


class ConsistencyError(XdynError):
    """An internally computed quantity violated an invariant it must satisfy."""


class InsufficientSpanError(XdynError):
    """A trace does not cover enough structure to extract the requested feature."""


class StateFileError(XdynError):
    """A state description file failed schema validation (names the bad field)."""


class OutputFileError(XdynError):
    """The --out path cannot be opened for writing."""


def first_bad(value, bad):
    """Where a stack first fails a check, for error messages.

    Returns ("[k]", value[k]) for the first index k at which bad holds
    (value broadcast against bad), or (None, None) when it holds nowhere.
    A single value that fails gives ("", value), so its message reads as
    it did before stacks existed.
    """
    if not isinstance(bad, np.ndarray) or bad.ndim == 0:
        return ("", value) if bad else (None, None)
    if not bad.any():
        return None, None
    k = np.unravel_index(np.argmax(bad), np.shape(bad))
    return str(list(map(int, k))), np.broadcast_to(value, np.shape(bad))[k].item()


def require_finite_real(value, name: str):
    """value as a float, or a float array (one field of a stack) as is.

    Raises InvalidInputError for anything that is not a real number (a bool
    or a str included) and for a non-finite value, an int too large for a
    float included, naming a stack's first bad element.
    """
    if isinstance(value, np.ndarray) and value.dtype == float:
        at, bad = first_bad(value, ~np.isfinite(value))
        if at is not None:
            raise InvalidInputError(f"{name}{at} must be finite, got {bad!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise InvalidInputError(f"{name} must be finite, got an int too large for a float") from None
    if not math.isfinite(v):
        raise InvalidInputError(f"{name} must be finite, got {v!r}")
    return v

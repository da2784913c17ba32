"""Exception types shared across the package, and the checks run-config
dataclasses use to fail fast on wrongly typed or out-of-range fields."""

import math

import numpy as np


class ShapeError(ValueError):
    """An operation's input shapes violate its preconditions."""


class FormatError(ValueError):
    """A file does not conform to the expected binary layout."""


class DegenerateError(ValueError):
    """Input is degenerate for the requested operation (e.g. constant data)."""


class LabelError(ValueError):
    """A label mask holds negative ids or has a non-integer dtype."""


class PlacementError(RuntimeError):
    """Object placement failed after the maximum number of attempts."""


class ConfigError(ValueError):
    """A run configuration contains unknown or invalid entries."""


def check_int(name: str, value, minimum: int) -> None:
    """``value`` must be an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value) -> None:
    """``value`` must be a finite real number (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


def check_bool(name: str, value) -> None:
    """``value`` must be true or false."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be true or false, got {value!r}")

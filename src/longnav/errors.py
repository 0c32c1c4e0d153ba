"""Exception types shared across the package, and the setting checks that
raise them."""

import math
import numbers


class LongNavError(Exception):
    """Base class for all longnav errors."""


class ConfigError(LongNavError, ValueError):
    """Invalid world, strategy, or run configuration."""


class TeachError(LongNavError):
    """Teaching failed (e.g. a location yielded no features)."""


class DatasetError(LongNavError):
    """Dataset or snapshot file is malformed."""


def check_settings(obj, rules) -> None:
    """Raise ConfigError naming the first (name, ok, rule) in rules whose ok
    is false, with the value obj holds under that name."""
    for name, ok, rule in rules:
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {getattr(obj, name)!r}")


def is_int(v, low: int) -> bool:
    """v is an integer, not a bool, and at least low."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low


def in_range(v, low: float, high: float = math.inf) -> bool:
    """v is a real number, finite, in [low, high]."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v) and low <= v <= high)

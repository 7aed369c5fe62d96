"""Exception types shared across the package, and the config checks every section shares."""

import numbers
from typing import Any, Callable


class TanhomError(Exception):
    """Base class for all package-specific errors."""


class DegeneratePoint(TanhomError):
    """A point left the region where the nearest-point projection is defined."""


class InvalidProfile(TanhomError):
    """A step profile has non-positive values or ill-ordered breakpoints."""


class UnsupportedGrowth(TanhomError):
    """An operation requires a different growth exponent than the integrand declares."""


class HypothesisViolated(TanhomError):
    """A sampled structural check (periodicity, growth, Lipschitz) failed.

    Carries the offending sample in ``sample`` as a ``(y, xi)`` pair when available.
    """

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


class GrowthViolation(HypothesisViolated):
    """A computed homogenized value escaped its declared growth sandwich."""


class NotTangent(TanhomError):
    """A matrix argument is not tangent at the given base point."""


class UnsupportedBoundary(TanhomError):
    """The operation requires a different boundary condition."""


class ShapeMismatch(TanhomError):
    """Array shapes disagree with the problem specification."""


class ConfigError(TanhomError):
    """A run configuration is malformed."""


class MalformedArtifact(TanhomError):
    """A file read back from disk is unreadable or disagrees with its metadata."""


def check_keys(obj: Any, path: str, required: set[str], optional: set[str]) -> dict:
    """Reject a config object that is not a dict, has unknown keys or misses required ones.

    Errors name the offending key by its dotted ``path``.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object")
    unknown = set(obj) - required - optional
    if unknown:
        key = sorted(unknown)[0]
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"unknown key {where!r}")
    missing = required - set(obj)
    if missing:
        key = sorted(missing)[0]
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"missing required key {where!r}")
    return obj


def as_integer(value: Any) -> int:
    """``value`` as an int, refusing what ``int`` would truncate or parse."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def as_number(value: Any) -> float:
    """A JSON number as a float, refusing the strings and booleans ``float`` would take."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def of_json_type(kind, name: str) -> Callable:
    """A check that a JSON value is a ``kind``, giving it back as it is; only ``bool`` takes true or false."""

    def check(value):
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise TypeError(f"expected {name}, got {value!r}")
        return value

    return check


as_bool = of_json_type(bool, "true or false")  # bool() would take any number or string
as_text = of_json_type(str, "a string")  # str() would take anything


def as_list(value: Any, convert: Callable) -> tuple:
    """A JSON list, each entry converted; a string, an object or a number is refused, not iterated."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {value!r}")
    return tuple(map(convert, value))


def config_value(path: str, make: Callable, *args, **kwargs):
    """``make(*args, **kwargs)``: a conversion or a constructor of the config value at ``path``.

    A ``TypeError``, ``ValueError``, ``OverflowError`` or ``InvalidProfile``
    it raises, a bad value, is raised as a ``ConfigError`` naming ``path``.
    """
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, OverflowError, InvalidProfile) as exc:
        raise ConfigError(f"{path}: {exc}") from None

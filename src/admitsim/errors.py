"""Exception types shared across the toolkit, and the range checks that raise them."""

import math
from numbers import Integral, Real


class AdmitSimError(Exception):
    """Base class for all toolkit errors."""


class DegenerateInput(AdmitSimError):
    """Geometric input too close to a singular configuration to process."""


class NonPositiveParameter(AdmitSimError, ValueError):
    """A physical parameter that must be strictly positive is not."""


class NonFiniteState(AdmitSimError):
    """Integration produced NaN or infinity."""


class EmptySchedule(AdmitSimError):
    """Key-pose schedule has no entries."""


class NotAligned(AdmitSimError):
    """Peg orientation deviates from the hole axis beyond tolerance."""


class NothingToWipe(AdmitSimError):
    """Wiping plan requested for a board without inked cells."""


class LengthMismatch(AdmitSimError):
    """Paired sequences have inconsistent lengths."""


class EndOfDemo(AdmitSimError):
    """Requested prediction time lies beyond the demonstration."""


class ConfigParse(AdmitSimError):
    """Scenario/suite configuration file is malformed."""


class IoFailure(AdmitSimError):
    """File could not be read or written."""


def check_real(name: str, value, error=ValueError):
    """Raise error unless value is a real number (a bool is one too)."""
    if not isinstance(value, Real):
        raise error(f"{name} must be a real number, got {value!r}")


def check_finite(name: str, value):
    """Raise ValueError unless value is a real number and finite."""
    check_real(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def check_range(name: str, value, low: float = 0.0, closed: bool = False, error=ValueError):
    """Raise error unless value is a real number, finite and > low (>= low when
    closed).

    Written so that NaN fails: every comparison with NaN is false.
    """
    check_real(name, value, error)
    if not ((low <= value) if closed else (low < value)) or not value < math.inf:
        raise error(f"{name} must be finite and {'>=' if closed else '>'} {low:g}, got {value}")


def check_count(name: str, value, low: int):
    """Raise ValueError unless value is an integer (a float is not) and >= low."""
    if not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")

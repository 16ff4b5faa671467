"""Exception types shared across the toolkit, and the range checks that raise them.

Every numeric bound of an input is checked by `check_range` (a real number),
`check_count` (an integer) or `check_distinct` (one or more values, none
twice), each in one wording: `<name> must be finite and > <low>, got <value>`
(`>=` where closed), `<name> must be >= <low>, got <value>` for a count,
`<name> must be <= <high>, got <value>` for both, and `<name> has no values`
or `<name> repeats <value>`. The upper bound is printed exactly (pi as
3.141592653589793); its default, inf, is none. A value of the wrong kind reads
`<name> must be a real number (an integer), got <value>`. A point, direction
or rotation input has one check too, in `geometry`: `<name> must be 3 real
numbers, got <value>` (4 for a quaternion) or `<name> must be finite, got
<tuple>`, and `DegenerateInput`, `cannot normalize a vector of norm <norm>`,
for a direction or quaternion whose norm is zero, NaN or infinite. A name of
a set (a task, a mode, an override key) has `check_choice`: `<name> must be
one of <c1> | <c2> | ..., got <value!r>`. From a file each of these
ValueErrors is a `ConfigParse` naming the path, and `cli.main` prints one
after the command's name (`verify: ...`) and exits 2.
"""

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
    """Raise error unless value is a real number (a bool is one too); a float makes no call."""
    if type(value) is not float and not isinstance(value, Real):
        raise error(f"{name} must be a real number, got {value!r}")


def check_finite(name: str, value):
    """Raise ValueError unless value is a real number and finite."""
    check_real(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def check_range(name: str, value, low: float = 0.0, closed: bool = False, error=ValueError,
                high: float = math.inf):
    """Raise error unless value is a real number, finite, > low (>= low when
    closed) and <= high.

    Written so that NaN fails: every comparison with NaN is false.
    """
    check_real(name, value, error)
    if not ((low <= value) if closed else (low < value)) or not value < math.inf:
        raise error(f"{name} must be finite and {'>=' if closed else '>'} {low:g}, got {value}")
    if not value <= high:
        raise error(f"{name} must be <= {high}, got {value}")


def check_count(name: str, value, low: int, high: float = math.inf):
    """Raise ValueError unless value is an integer (a float is not), >= low and <= high."""
    if not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


def check_distinct(name: str, values):
    """Raise ValueError if values is empty, or naming its first value that an earlier one equals."""
    if not len(values):
        raise ValueError(f"{name} has no values")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{name} repeats {value}")


def check_choice(name: str, value, choices):
    """Raise ValueError unless value is one of choices, names in a tuple or a dict's keys."""
    if value not in tuple(choices):  # no hashing: a list value is refused, not a TypeError
        raise ValueError(f"{name} must be one of {' | '.join(choices)}, got {value!r}")

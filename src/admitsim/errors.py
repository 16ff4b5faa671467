"""Exception types shared across the toolkit."""


class AdmitSimError(Exception):
    """Base class for all toolkit errors."""


class DegenerateInput(AdmitSimError):
    """Geometric input too close to a singular configuration to process."""


class NonPositiveParameter(AdmitSimError):
    """A physical parameter that must be strictly positive is not."""


class NonFiniteState(AdmitSimError):
    """Integration produced NaN or infinity."""


class WrongVariant(AdmitSimError):
    """Operation called on an environment variant that does not support it."""


class EmptySchedule(AdmitSimError):
    """Key-pose schedule has no entries."""


class NotAligned(AdmitSimError):
    """Peg orientation deviates from the hole axis beyond tolerance."""


class NothingToWipe(AdmitSimError):
    """Wiping plan requested for a board without inked cells."""


class NoContactManifold(AdmitSimError):
    """No contact manifold is defined for the queried environment/pose."""


class LengthMismatch(AdmitSimError):
    """Paired sequences have inconsistent lengths."""


class EndOfDemo(AdmitSimError):
    """Requested prediction time lies beyond the demonstration."""


class ConfigParse(AdmitSimError):
    """Scenario/suite configuration file is malformed."""


class IoFailure(AdmitSimError):
    """File could not be read or written."""

"""Exception taxonomy shared across the package."""


class NoetherError(Exception):
    """Base class for all errors raised by noetherlab."""


class InvalidPointError(NoetherError):
    """Point does not fit the instance (wrong dimension, bad entries)."""


class UnknownPointError(NoetherError):
    """Point is not a member of the sample universe."""


class UnsupportedKindError(NoetherError):
    """Operation is not defined for this instance kind."""


class VerificationError(NoetherError):
    """A result failed the post-condition check that re-verifies it."""


class InvalidSpecError(NoetherError):
    """Malformed pattern specification (e.g. depth < 2)."""


class OracleBoundError(NoetherError):
    """Exhaustive oracle invoked beyond its configured size bound."""


class PreconditionError(NoetherError):
    """Operation precondition violated by the caller."""


class InvalidConditionError(NoetherError):
    """Poset condition fails its validity requirements."""


class IncompatibilityError(NoetherError):
    """Conditions are incompatible; carries a witness when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class AmalgamationError(NoetherError):
    """Pairwise-compatible conditions admit no common lower bound.

    Witnesses the gap in the finite compatibility criterion: a color of one
    condition swallowing a point shared with another condition's domain.
    Cannot happen for separated conditions.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class LocationError(NoetherError):
    """Condition/location mismatch or invalid location."""


class ReductionFailureError(NoetherError):
    """Predensity reduction found no admissible point in some box."""


class InvalidStageError(NoetherError):
    """Stage chain fails validation (improper stage coloring, non-good stage)."""


class PartitionError(NoetherError):
    """Given pieces do not partition the universe."""


class InvalidSequenceError(NoetherError):
    """Epsilon data violates its declared invariants."""


class ParseError(NoetherError):
    """Structured input failed to parse; message names the offending field."""

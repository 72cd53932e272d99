"""Exception taxonomy shared across the package, and the short quoting of
offending values in their messages."""

from typing import Any, Callable

# The most characters of an offending value that a message quotes.
QUOTE_LIMIT = 40


def quoted(value: Any, form: Callable[[Any], str] = repr) -> str:
    """``form(value)``, cut to QUOTE_LIMIT characters with the value's length
    stated when longer, so that a message stays short for any input."""
    text = form(value)
    if len(text) <= QUOTE_LIMIT:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:QUOTE_LIMIT]}... ({size} characters)"


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
    """An exhaustive oracle past its size bound, or an exact search past its work limit."""


# The exact searches' work limits, read once per call.  Past its limit the descent
# chain and minimal subfamily return their best, uncertified; the others raise.
STATE_LIMIT = 50_000  # states of the descent chain and the minimal subfamily
NODE_LIMIT = 2_000_000  # nodes of predensity and pattern completion


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

"""Exception types shared across the package."""

import math


class FlatwitnessError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(FlatwitnessError):
    """Malformed, non-finite, or out-of-domain input."""


class DegenerateTail(FlatwitnessError):
    """A suffix sum needed as a divisor is zero."""


class NotARelation(FlatwitnessError):
    """The coefficient rows and module rows do not satisfy the pointwise relation."""


class InvalidWeight(FlatwitnessError):
    """A boundary weight function violates w >= 1."""


class ScaleOverflow(FlatwitnessError):
    """exp would overflow; rescale the prescribed modulus by at most exp(log_rescale).

    The message gives the factor in that form, since far past the limit it underflows to 0.
    """

    def __init__(self, log_rescale):
        self.suggested_rescale = math.exp(log_rescale)
        super().__init__(
            f"outer synthesis would overflow; multiply the modulus by <= exp({log_rescale:g})"
        )


class NotInner(FlatwitnessError):
    """The supplied function fails the inner-function checks."""

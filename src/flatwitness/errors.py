"""Exception types shared across the package."""


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
    """exp would overflow; rescale the prescribed modulus."""

    def __init__(self, suggested_rescale, message=None):
        self.suggested_rescale = suggested_rescale
        super().__init__(
            message
            or f"outer synthesis would overflow; multiply the modulus by <= {suggested_rescale:g}"
        )


class NotInner(FlatwitnessError):
    """The supplied function fails the inner-function checks."""

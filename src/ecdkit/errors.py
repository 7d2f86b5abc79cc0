"""Exception taxonomy.

Two branches matter to callers: :class:`InputError` (bad data or
configuration, CLI exit code 2) and :class:`NumericError` (a computation
could not be completed reliably, CLI exit code 3).
"""


class EcdkitError(Exception):
    """Base class for all toolkit errors."""


class InputError(EcdkitError):
    """Invalid input data or configuration."""


class NumericError(EcdkitError):
    """A numerical procedure failed or would produce unreliable output."""


# --- input validation -------------------------------------------------------

class DimensionMismatch(InputError):
    pass


class NonFiniteInput(InputError):
    pass


class NonSquareError(InputError):
    pass


class AsymmetryError(InputError):
    pass


class NonzeroDiagonalError(InputError):
    pass


class NegativeDistanceError(InputError):
    pass


class EmptySet(InputError):
    pass


class TooFewSamples(InputError):
    pass


class SizeMismatch(InputError):
    pass


class InvalidK(InputError):
    pass


class InvalidTrials(InputError):
    pass


class InvalidSpec(InputError):
    pass


class GeneratedSetTooSmall(InputError):
    pass


class SchemaError(InputError):
    pass


class DisconnectedError(InputError):
    """Edge exclusions leave no spanning tree.

    `layer` is the 1-based tree layer whose construction failed, when the
    error arises inside a multi-layer build.
    """

    def __init__(self, message, layer=None):
        super().__init__(message)
        self.layer = layer


# --- numerical failures -----------------------------------------------------

class SingularCovariance(NumericError):
    """Covariance matrix is singular or indefinite; carries the determinant."""

    def __init__(self, message, determinant=None):
        super().__init__(message)
        self.determinant = determinant


class NoConvergence(NumericError):
    pass


class NotPSD(NumericError):
    pass

"""Exception hierarchy shared across the package.

Two broad families matter for the CLI exit-code contract: ``DataError``
(bad files, bad shapes, bad configuration; exit code 3) and
``NumericalError`` (degeneracies and divergence at run time; exit code 4).
"""

from __future__ import annotations


class DcpregError(Exception):
    """Base class for all package-specific errors."""


class DataError(DcpregError):
    """Malformed input data, files, or configuration."""


class NumericalError(DcpregError):
    """Numerical degeneracy or divergence detected at run time."""


class InvalidInputError(DataError):
    """Input values violate a precondition (non-finite entries, bad range)."""


class InsufficientDataError(DataError):
    """Too few points/samples for the requested operation."""


class OffParseError(DataError):
    """Malformed OFF mesh file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateMeshError(DataError):
    """Mesh has no usable surface area."""


class DegenerateCloudError(DataError):
    """Point cloud carries no geometric extent."""


class MissingLabelError(DataError):
    """Operation requires category labels that are absent."""


class ShapeError(DcpregError):
    """Tensor shapes are incompatible for the requested operation."""


class InvalidAxisError(DcpregError):
    """Axis argument is out of range or empty."""


class GradientSingularityError(NumericalError):
    """Backward pass hit a point where the derivative is undefined: the SVD
    head's rotation where two signed singular values of its cross-covariance
    sum to 0, as when a collapsed soft match gives H = 0."""


class DegenerateOutputError(NumericalError):
    """A network head produced an unusable value (e.g. zero quaternion)."""


class DegenerateCorrespondenceError(NumericalError):
    """Correspondence collapse during iterative registration.

    Carries the iteration history accumulated before the failure.
    """

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


class CheckpointError(DataError):
    """Checkpoint file is missing, truncated, or incompatible."""


class DegeneracyWarning(UserWarning):
    """Result is valid but the problem was rank-deficient."""

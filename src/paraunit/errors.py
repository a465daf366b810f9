"""Exception types raised by the package.

Everything derives from :class:`ParaunitError` (itself a ``ValueError``) so
callers can catch either the narrow class named in an operation's contract or
the whole family at once.
"""


class ParaunitError(ValueError):
    """Base class for all structured errors raised by this package."""


class DimensionMismatch(ParaunitError):
    """Operands have incompatible shapes."""


class NotIsometric(ParaunitError):
    """Matrix columns are not orthonormal within tolerance."""


class NotHermitian(ParaunitError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotSchurStable(ParaunitError):
    """State matrix has spectral radius at or above one."""


class ConvergenceFailure(ParaunitError):
    """A LAPACK eigenvalue iteration or triangular solve failed."""


class EvalAtPole(ParaunitError):
    """Evaluation point coincides with (or is too close to) a pole."""


class SingularDenominator(ParaunitError):
    """Matrix-fraction denominator is not invertible at the given point."""


class PoleNotInDisk(ParaunitError):
    """Factor pole must lie strictly inside the open unit disk."""


class ImproperFunction(ParaunitError):
    """Function has poles at infinity or outside the disk; flip them first."""


class NotCoIsometricRealization(ParaunitError):
    """Realization matrix fails the (co)isometry condition."""


class InconsistentPair(ParaunitError):
    """Embedded and original realizations do not match up."""


class NotIsometricConstant(ParaunitError):
    """Constant matrix is neither an isometry nor a coisometry."""


class NotFIR(ParaunitError):
    """Form has a finite nonzero pole, so it is not a Laurent polynomial."""


class SideMismatch(ParaunitError):
    """Requested test side does not match the form's dimensions."""


class AngleCountMismatch(ParaunitError):
    """Angle vector length disagrees with the required parameter count."""


class DocumentError(ParaunitError):
    """Document file is malformed or has an unexpected kind."""

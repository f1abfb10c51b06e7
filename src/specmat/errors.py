"""Exception types shared across the package."""


class SpecmatError(Exception):
    """Base class for every error this package raises deliberately."""


class NotHermitianError(SpecmatError):
    """Matrix fails the Hermitian symmetry check."""


class BadBandwidthError(SpecmatError):
    """Coefficient band length is incompatible with the matrix size."""


class OverlapError(SpecmatError):
    """Top-left and bottom-right boundary corrections would collide."""


class TooSmallError(SpecmatError):
    """Mesh has too few elements for the requested family."""


class ShapeMismatchError(SpecmatError):
    """Matrix operands have incompatible shapes."""


class SingularPencilError(SpecmatError):
    """Denominator symbol (or coefficient) of a pencil vanishes."""


class SingularBError(SpecmatError):
    """Right-hand matrix of the pencil is numerically singular."""


class DegenerateQuadraticError(SpecmatError):
    """Quadratic mode coefficients vanished with no linear fallback."""


class ZeroScaleError(SpecmatError):
    """Scaling constants must be nonzero."""


class ZeroVectorError(SpecmatError):
    """Vector argument must be nonzero."""


class SingularDenominatorError(SpecmatError):
    """A denominator factor of an identity is numerically zero."""


class IndexOutOfRangeError(SpecmatError, IndexError):
    """A 1-based index argument lies outside the matrix or mode range."""

"""Structured matrix families with closed-form eigenpairs.

The package builds banded Toeplitz-plus-Hankel pencils, corner-overlapped
block-diagonal matrices, and 1D finite-element stiffness/mass pairs; produces
their eigenvalues and eigenvectors in closed form; cross-checks every formula
against an independent dense numeric oracle; and evaluates the
eigenvector-eigenvalue identity together with the trigonometric identities it
implies.
"""

import types

from .errors import (
    BadBandwidthError,
    DegenerateQuadraticError,
    IndexOutOfRangeError,
    NotHermitianError,
    OverlapError,
    ShapeMismatchError,
    SingularBError,
    SingularDenominatorError,
    SingularPencilError,
    SpecmatError,
    TooSmallError,
    ZeroScaleError,
    ZeroVectorError,
)
from .families import (
    HankelVariant,
    SymmetricBand,
    assemble_tensor_pencil,
    assemble_toeplitz_hankel,
    build_corner_block,
    build_fem_p2,
    build_fem_p3,
    build_hankel,
    build_toeplitz,
    corner_block_band,
    fem_p2_bands,
    fem_p3_bands,
    toeplitz_hankel_band,
)
from .identities import (
    IdentityTable,
    eve_identity_evp,
    eve_identity_evp_all,
    eve_identity_gevp,
    eve_identity_gevp_all,
    trig_identity,
    trig_identity_all,
)
from .linalg import batched_roots
from .mmio import read_matrix_market, write_matrix_market
from .oracle import (
    Verification,
    gevp_eigenvalues_numeric,
    pencil_residuals,
    solve_gevp_numeric,
    solve_pevp_numeric,
    verify,
)
from .solution import EigenSolution, PolynomialEigenSolution
from .spectra import (
    corner_block_eigenpairs,
    corner_block_quadratic_bands,
    fem_p2_eigenpairs,
    fem_p2_eigenvalues,
    fem_p3_eigenpairs,
    fem_p3_eigenvalues,
    gevp_eigenpairs,
    gevp_eigenvalues,
    pevp_eigenpairs,
    scale_pencil,
    symbol,
    tensor_eigenpairs,
)

__version__ = "0.1.0"

# every public name imported above, written once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))

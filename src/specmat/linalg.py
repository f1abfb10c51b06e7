"""Dense linear-algebra helpers and a batched polynomial root finder.

Everything operates on plain numpy arrays over complex128; real input is the
zero-imaginary special case.  The heavy lifting is LAPACK through numpy: the
Hermitian eigensolver is ``eigh``, and polynomials of degree three and up
are solved as stacked companion matrices by ``eigvals`` (Edelman & Murakami,
*Math. Comp.* 1995), one batch for a whole table of per-mode polynomials.
Degrees one and two use closed forms.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError
from .solution import NUMERIC, EigenSolution

HERMITIAN_RTOL = 1e-12
COEFF_TRIM_RTOL = 1e-14
NEWTON_STEPS = 2


def as_square(a, dtype=complex) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def inf_norm(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(abs(a).sum(axis=1).max())


def is_hermitian(a, rtol: float = HERMITIAN_RTOL) -> bool:
    a = np.asarray(a)
    a = as_square(a, dtype=float if a.dtype.kind in "biuf" else complex)  # real stays real
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale == 0.0:
        return True
    return float(np.max(np.abs(a - a.conj().T))) <= rtol * scale


def hermitian_eigen(a) -> EigenSolution:
    """Full eigendecomposition of a Hermitian matrix.

    Eigenvalues come back real and ascending, eigenvectors unit-norm and
    mutually orthogonal.  Raises :class:`NotHermitianError` when the input
    fails the symmetry check at 1e-12 relative.
    """
    a = as_square(a)
    if not is_hermitian(a):
        raise NotHermitianError("matrix is not Hermitian to 1e-12 relative tolerance")
    w, v = np.linalg.eigh(a)
    n = a.shape[0]
    return EigenSolution(
        modes=np.arange(1, n + 1),
        values=w.astype(complex),
        vectors=v.astype(complex),
        provenance=NUMERIC,
    )


def kron(a, b) -> np.ndarray:
    """Kronecker product with ``(kron(a, b))[(i,k),(j,l)] = a[i,j] b[k,l]``."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _horner(coeffs, z):
    """Row-wise values of ascending-coefficient polynomials ``coeffs`` at ``z``."""
    acc = np.broadcast_to(coeffs[:, -1:], z.shape).copy()
    for k in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * z + coeffs[:, k:k + 1]
    return acc


def batched_roots(coeffs) -> np.ndarray:
    """Roots of many polynomials of one degree q, one polynomial per row.

    ``coeffs`` holds ascending coefficients, shape ``(m, q+1)``, with nonzero
    leading entries; the result has shape ``(m, q)``.  q=1 and q=2 use
    closed forms, the quadratic with the branch that avoids cancellation in
    ``-c1 +/- disc``.  q >= 3 takes the eigenvalues of the stacked companion
    matrices and polishes them by Newton steps, each kept only where it does
    not raise the polynomial's modulus.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[1] < 2:
        raise ValueError(f"expected coefficient rows of shape (m, q+1) with q >= 1, got {c.shape}")
    m, q = c.shape[0], c.shape[1] - 1
    if q == 1:
        return -c[:, :1] / c[:, 1:]
    if q == 2:
        c0, c1, c2 = c.T
        disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
        big = -0.5 * np.where(abs(c1 + disc) >= abs(c1 - disc), c1 + disc, c1 - disc)
        # big = 0 only when c0 = c1 = 0, a double root at zero
        return np.stack((big / c2, c0 / np.where(big == 0, 1.0, big)), axis=1)
    last_column = -c[:, :-1] / c[:, -1:]
    if not last_column.imag.any():
        last_column = last_column.real  # real companions: real LAPACK, exact conjugate pairs
    companion = np.zeros((m, q, q), dtype=last_column.dtype)
    companion[:, np.arange(1, q), np.arange(q - 1)] = 1.0
    companion[:, :, -1] = last_column
    roots = np.linalg.eigvals(companion).astype(complex)
    deriv = c[:, 1:] * np.arange(1, q + 1)
    value = _horner(c, roots)
    for _ in range(NEWTON_STEPS):
        slope = _horner(deriv, roots)
        flat = slope == 0
        candidate = roots - np.where(flat, 0.0, value / np.where(flat, 1.0, slope))
        cand_value = _horner(c, candidate)
        better = abs(cand_value) <= abs(value)
        roots = np.where(better, candidate, roots)
        value = np.where(better, cand_value, value)
    return roots


def poly_roots(coeffs) -> np.ndarray:
    """All complex roots of one polynomial given by ascending coefficients.

    Leading coefficients below ``1e-14`` of the largest magnitude are
    trimmed first; the roots come from :func:`batched_roots`.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must form a nonempty 1-D sequence")
    biggest = float(np.max(np.abs(c)))
    if biggest == 0.0:
        raise ValueError("the zero polynomial has no well-defined roots")
    keep = np.flatnonzero(np.abs(c) > COEFF_TRIM_RTOL * biggest)
    c = c[: keep[-1] + 1]
    if c.size < 2:
        raise ValueError("degree must be at least 1 after trimming")
    return batched_roots(c[None, :])[0]

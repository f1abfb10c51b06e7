"""Dense complex linear-algebra kernels and polynomial root finding.

Everything operates on plain numpy arrays over complex128; real input is the
zero-imaginary special case.  The Hermitian eigensolver defers to LAPACK,
while LU factorization and the simultaneous-iteration root finder are local
so their singularity and convergence contracts stay explicit.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergenceError, NotHermitianError, SingularMatrixError
from .solution import NUMERIC, EigenSolution

PIVOT_RTOL = 1e-13
HERMITIAN_RTOL = 1e-12
COEFF_TRIM_RTOL = 1e-14
ROOT_MAX_ITER = 500
ROOT_STEP_TOL = 1e-13
# fixed irrational angular offset for the initial root circle, so the
# starting points never align with a symmetry of the polynomial
_ANGLE_OFFSET = np.sqrt(2.0) / 2.0


def as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def inf_norm(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(abs(a).sum(axis=1).max())


def is_hermitian(a, rtol: float = HERMITIAN_RTOL) -> bool:
    a = as_square(a)
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale == 0.0:
        return True
    return float(np.max(np.abs(a - a.conj().T))) <= rtol * scale


def lu_factor(a):
    """Partial-pivot LU factorization.

    Returns ``(lu, perm)`` where ``perm`` is the row order applied to the
    input.  Raises :class:`SingularMatrixError` as soon as a pivot falls
    below ``1e-13 * ||a||_inf``.
    """
    lu = as_square(a).copy()
    n = lu.shape[0]
    threshold = PIVOT_RTOL * inf_norm(lu)
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if np.abs(lu[p, k]) <= threshold:
            raise SingularMatrixError(
                f"pivot {np.abs(lu[p, k]):.3e} at column {k} below threshold {threshold:.3e}"
            )
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm


def lu_solve_factored(lu, perm, b) -> np.ndarray:
    b = np.asarray(b, dtype=complex)
    n = lu.shape[0]
    x = b[perm].astype(complex)
    for k in range(1, n):            # forward: L y = P b, unit diagonal
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):   # backward: U x = y
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


def lu_solve(a, b) -> np.ndarray:
    """Solve ``a x = b`` by partial-pivot LU; see :func:`lu_factor` for errors."""
    lu, perm = lu_factor(a)
    return lu_solve_factored(lu, perm, b)


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
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _roots_quadratic(c0, c1, c2) -> np.ndarray:
    disc = np.sqrt(complex(c1 * c1 - 4.0 * c2 * c0))
    # pick the branch that avoids cancellation in -c1 +/- disc
    if abs(c1 + disc) >= abs(c1 - disc):
        big = -(c1 + disc) / 2.0
    else:
        big = -(c1 - disc) / 2.0
    if big == 0:
        return np.zeros(2, dtype=complex)
    return np.array([big / c2, c0 / big], dtype=complex)


def _durand_kerner(coeffs, max_iter, step_tol):
    degree = coeffs.size - 1
    lead = coeffs[-1]
    radius = 1.0 + max(abs(coeffs[k] / lead) for k in range(degree))
    # iterate on z/radius so the absolute step tolerance stays meaningful
    # when the roots are large
    scaled = coeffs * radius ** np.arange(degree + 1)
    scaled = scaled / scaled[-1]
    abs_scaled = np.abs(scaled)
    angles = 2.0 * np.pi * np.arange(degree) / degree + _ANGLE_OFFSET
    z = np.exp(1j * angles)
    for _ in range(max_iter):
        pz = _horner(scaled, z)
        step = np.empty_like(z)
        for i in range(degree):
            denom = np.prod(z[i] - np.delete(z, i))
            if denom == 0:
                z[i] *= 1.0 + 1e-8  # nudge coincident iterates apart
                denom = np.prod(z[i] - np.delete(z, i))
            step[i] = pz[i] / denom
        z = z - step
        worst_step = float(np.max(np.abs(step)))
        if worst_step < step_tol:
            return _newton_polish(coeffs, z * radius)
        if worst_step < 1e-6:
            # rounding can trap the steps in a limit cycle above the step
            # tolerance; accept once every iterate already satisfies a value
            # bound far tighter than callers need
            value_scale = _horner(abs_scaled, np.abs(z))
            if np.all(np.abs(_horner(scaled, z)) <= 1e-12 * value_scale):
                return _newton_polish(coeffs, z * radius)
    raise NoConvergenceError(
        f"simultaneous iteration did not converge in {max_iter} steps (degree {degree})"
    )


def _newton_polish(coeffs, roots, steps: int = 2):
    deriv = coeffs[1:] * np.arange(1, coeffs.size)
    for _ in range(steps):
        pv = _horner(coeffs, roots)
        dv = _horner(deriv, roots) if deriv.size > 1 else np.full_like(roots, deriv[0])
        ok = np.abs(dv) > 0
        roots[ok] -= pv[ok] / dv[ok]
    return roots


def poly_roots(coeffs, max_iter: int = ROOT_MAX_ITER, step_tol: float = ROOT_STEP_TOL) -> np.ndarray:
    """All complex roots of a polynomial given by ascending coefficients.

    Leading coefficients below ``1e-14`` of the largest magnitude are
    trimmed first.  Degrees one and two use closed forms; higher degrees run
    Durand-Kerner simultaneous iteration from a circle of radius
    ``1 + max|c_k/c_d|`` followed by a short Newton polish.

    Raises :class:`NoConvergenceError` when the iteration cap is exhausted
    (the caller may rescale an ill-conditioned polynomial and retry).
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must form a nonempty 1-D sequence")
    biggest = float(np.max(np.abs(c)))
    if biggest == 0.0:
        raise ValueError("the zero polynomial has no well-defined roots")
    keep = np.flatnonzero(np.abs(c) > COEFF_TRIM_RTOL * biggest)
    c = c[: keep[-1] + 1]
    degree = c.size - 1
    if degree < 1:
        raise ValueError("degree must be at least 1 after trimming")
    if degree == 1:
        return np.array([-c[0] / c[1]], dtype=complex)
    if degree == 2:
        return _roots_quadratic(c[0], c[1], c[2])
    return _durand_kerner(c, max_iter, step_tol)

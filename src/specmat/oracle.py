"""Independent dense numeric solvers used to validate every closed form.

Hermitian pencils with a positive-definite right side go through a Cholesky
reduction and a Hermitian eigensolver, in real arithmetic when neither side
has an imaginary part.  Every other pencil with an invertible right side
runs LAPACK's general eigensolver on ``B^{-1} A``.  Polynomial pencils are
linearized to a companion pencil and solved the same way.  Eigenvectors of
single eigenvalues are available by shifted inverse iteration.  None of
these routes samples a symbol, so they share nothing with the closed forms
they check.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotHermitianError,
    ShapeMismatchError,
    SingularBError,
    SingularMatrixError,
    SingularPencilError,
    ZeroVectorError,
)
from .linalg import as_square, inf_norm, is_hermitian
from .solution import NUMERIC, EigenSolution

SINGULAR_B_RTOL = 1e-13


def pencil_residuals(a, b, values, vectors) -> np.ndarray:
    """Relative residuals ``||A x - lam B x|| / ((||A|| + |lam| ||B||) ||x||)``, inf-norms.

    Column i of ``vectors`` pairs with ``values[i]``; a 1-D ``vectors`` takes
    one scalar value.  Raises :class:`ZeroVectorError` on any zero column.
    """
    vectors = np.asarray(vectors)
    xnorm = abs(vectors).max(axis=0)
    if not xnorm.all():
        raise ZeroVectorError("candidate eigenvector is zero")
    num = abs(a @ vectors - (b @ vectors) * values).max(axis=0)
    scale = (inf_norm(a) + abs(values) * inf_norm(b)) * xnorm
    return num / np.maximum(scale, 1e-300)


def residual_gevp(a, b, lam, x) -> float:
    """Relative pencil residual of one eigenpair; see :func:`pencil_residuals`."""
    return float(pencil_residuals(as_square(a), as_square(b), complex(lam), x))


def attach_residuals(sol: EigenSolution, a, b) -> EigenSolution:
    """Copy of a solution with per-mode relative residuals filled in."""
    res = pencil_residuals(as_square(a), as_square(b), sol.values, sol.vectors)
    return dataclasses.replace(sol, residuals=res)


def is_singular(m) -> bool:
    """Whether the smallest singular value of ``m`` is at most ``SINGULAR_B_RTOL * ||m||_inf``.

    The singular values of a Hermitian matrix are the moduli of its
    eigenvalues, which ``eigvalsh`` finds at a fraction of the cost of an SVD.
    """
    if np.array_equal(m, m.conj().T):
        smallest = float(np.min(np.abs(np.linalg.eigvalsh(m))))
    else:
        smallest = float(np.linalg.svd(m, compute_uv=False)[-1])
    return smallest <= SINGULAR_B_RTOL * max(inf_norm(m), 1e-300)


def inverse_iteration(a, b, lam, avoid=(), max_iter: int = 50, restarts: int = 3, seed: int = 0):
    """Eigenvector of the pencil nearest ``lam`` by shifted inverse iteration.

    The shift is nudged off the eigenvalue so the shifted matrix stays
    regular; it is inverted once per attempt by LAPACK, and each step is a
    matrix-vector product.  On stagnation the iteration restarts from a
    fresh random vector.  Vectors in ``avoid`` are projected out every step,
    which separates copies of a repeated eigenvalue.  Raises
    :class:`SingularMatrixError` when no attempt could invert the shifted
    matrix.
    """
    a, b = as_square(a), as_square(b)
    n = a.shape[0]
    lam = complex(lam)
    shift = lam * (1.0 + 1e-10) + 1e-12
    best, best_res = None, np.inf
    for attempt in range(restarts):
        try:
            inverse = np.linalg.inv(a - shift * b)
        except np.linalg.LinAlgError:
            inverse = None
        if inverse is None or not np.isfinite(inverse).all():
            shift = lam * (1.0 + 1e-8 * (attempt + 1)) + 1e-10 * (attempt + 1)
            continue
        rng = np.random.default_rng(seed + 7919 * attempt)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for u in avoid:
            v = v - (u.conj() @ v) * u
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        v = v / norm
        prev = np.inf
        for it in range(max_iter):
            w = inverse @ (b @ v)
            for u in avoid:
                w = w - (u.conj() @ w) * u
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            w = w / norm
            res = residual_gevp(a, b, lam, w)
            if res < best_res:
                best, best_res = w, res
            if res <= 1e-11:
                return w
            if it > 4 and res > 0.5 * prev:
                break  # stagnated; restart with a new random vector
            prev = res
            v = w
    if best is None:
        raise SingularMatrixError(f"inverse iteration could not invert the shifted matrix near {lam}")
    return best


def solve_gevp_numeric(a, b, method: str = "auto") -> EigenSolution:
    """Numerically solve ``A x = lam B x`` with per-mode residuals attached.

    ``method`` picks the route: ``"auto"`` uses the Cholesky/Hermitian path
    when A, B are Hermitian with B positive definite and otherwise the
    general path, LAPACK's eigensolver on ``B^{-1} A`` with the values
    sorted by (real, imag).  ``"hermitian"`` and ``"general"`` force one
    route, mainly for cross-checks.  Raises :class:`SingularBError` when B
    is numerically singular.
    """
    a, b = as_square(a), as_square(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"pencil shapes differ: {a.shape} vs {b.shape}")
    if not (a.imag.any() or b.imag.any()):
        # a real pencil runs the real LAPACK routines, about twice as fast
        a, b = a.real.copy(), b.real.copy()
    n = a.shape[0]
    if is_singular(b):
        raise SingularBError("right-hand matrix of the pencil is singular")

    if method not in ("auto", "hermitian", "general"):
        raise ValueError(f"unknown method {method!r}")

    hermitian_pair = is_hermitian(a) and is_hermitian(b)
    if method == "hermitian" and not hermitian_pair:
        raise NotHermitianError("the forced Hermitian path needs Hermitian A and B")
    if method in ("auto", "hermitian") and hermitian_pair:
        try:
            chol = np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            chol = None
        if chol is not None:
            reduced = np.linalg.solve(chol, a)
            reduced = np.linalg.solve(chol, reduced.conj().T).conj().T
            reduced = 0.5 * (reduced + reduced.conj().T)
            w, q = np.linalg.eigh(reduced)
            x = np.linalg.solve(chol.conj().T, q)
            x = x / np.linalg.norm(x, axis=0)
            return EigenSolution(
                modes=np.arange(1, n + 1),
                values=w,
                vectors=x,
                provenance=NUMERIC,
                residuals=pencil_residuals(a, b, w, x),
            )
        if method == "hermitian":
            raise SingularBError("Hermitian path needs a positive-definite right side")

    # B is invertible (checked above); LAPACK's eig returns unit-norm vectors
    values, vectors = np.linalg.eig(np.linalg.solve(b, a))
    order = np.lexsort((values.imag, values.real))
    values, vectors = values[order], vectors[:, order]
    return EigenSolution(
        modes=np.arange(1, n + 1),
        values=values,
        vectors=vectors,
        provenance=NUMERIC,
        residuals=pencil_residuals(a, b, values, vectors),
    )


def _companion_pencil(mats):
    """First companion linearization of ``sum_k lam^k A_k``."""
    q = len(mats) - 1
    n = mats[0].shape[0]
    size = n * q
    c0 = np.zeros((size, size), dtype=complex)
    c1 = np.zeros((size, size), dtype=complex)
    for blk in range(q - 1):
        c0[blk * n:(blk + 1) * n, (blk + 1) * n:(blk + 2) * n] = np.eye(n)
        c1[blk * n:(blk + 1) * n, blk * n:(blk + 1) * n] = np.eye(n)
    for k in range(q):
        c0[(q - 1) * n:, k * n:(k + 1) * n] = -mats[k]
    c1[(q - 1) * n:, (q - 1) * n:] = mats[q]
    return c0, c1


def solve_pevp_numeric(mats):
    """Eigenvalues of a polynomial pencil via companion linearization.

    Returns ``(values, degree_drop)``.  When the leading coefficient is
    singular the pencil is reversed (roots of the reversed pencil are the
    reciprocals), the infinite eigenvalues are dropped, and the flag is set;
    if the constant coefficient is singular too this raises
    :class:`SingularPencilError`.
    """
    mats = [as_square(m) for m in mats]
    if len(mats) < 2:
        raise ValueError("a polynomial pencil needs at least two coefficient matrices")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ShapeMismatchError("all coefficient matrices must share one shape")

    if not is_singular(mats[-1]):
        c0, c1 = _companion_pencil(mats)
        values = np.linalg.eigvals(np.linalg.solve(c1, c0))
        order = np.lexsort((values.imag, values.real))
        return values[order], False

    if is_singular(mats[0]):
        raise SingularPencilError(
            "both the leading and constant coefficient matrices are singular"
        )
    c0, c1 = _companion_pencil(mats[::-1])
    mu = np.linalg.eigvals(np.linalg.solve(c1, c0))
    finite = np.abs(mu) > 1e-10 * max(1.0, float(np.max(np.abs(mu))))
    values = 1.0 / mu[finite]
    order = np.lexsort((values.imag, values.real))
    return values[order], True


def polynomial_residual(mats, lam) -> float:
    """Smallest singular value of ``P(lam)`` relative to the pencil's scale."""
    mats = [as_square(m) for m in mats]
    lam = complex(lam)
    p = np.zeros_like(mats[0])
    for k, m in enumerate(mats):
        p = p + (lam ** k) * m
    scale = sum(inf_norm(m) * abs(lam) ** k for k, m in enumerate(mats))
    return float(np.linalg.svd(p, compute_uv=False)[-1] / max(scale, 1e-300))


def pair_values(reference, candidates):
    """Greedy nearest-neighbor pairing of two eigenvalue lists.

    Walks the reference values in (real, imag) order and assigns each the
    closest unused candidate.  Returns ``(matched, distances)`` aligned with
    the reference input order; unmatched positions (count mismatch) carry
    NaN matches and infinite distances.
    """
    ref = np.asarray(reference, dtype=complex)
    cand = np.asarray(candidates, dtype=complex)
    matched = np.full(ref.shape, np.nan + 0j, dtype=complex)
    distances = np.full(ref.shape, np.inf)
    used = np.zeros(cand.size, dtype=bool)
    order = np.lexsort((ref.imag, ref.real))
    for idx in order:
        free = np.flatnonzero(~used)
        if free.size == 0:
            break
        gaps = np.abs(cand[free] - ref[idx])
        pick = free[int(np.argmin(gaps))]
        used[pick] = True
        matched[idx] = cand[pick]
        distances[idx] = float(np.abs(cand[pick] - ref[idx]))
    return matched, distances


@dataclass
class OracleReport:
    """Comparison of an analytic spectrum against a numeric one."""

    spectrum: np.ndarray
    max_residual: float
    pairs: list
    distances: np.ndarray
    max_distance: float
    count_mismatch: bool


def match_spectra(analytic, numeric) -> OracleReport:
    """Pair two spectra and report the worst pairwise distance.

    Accepts :class:`EigenSolution` objects or plain value arrays.  A count
    mismatch is reported in the flag, never raised.
    """
    a_vals = analytic.values if isinstance(analytic, EigenSolution) else np.asarray(analytic, dtype=complex)
    b_vals = numeric.values if isinstance(numeric, EigenSolution) else np.asarray(numeric, dtype=complex)
    matched, distances = pair_values(a_vals, b_vals)
    finite = distances[np.isfinite(distances)]
    max_distance = float(np.max(finite)) if finite.size else 0.0
    residuals = getattr(numeric, "residuals", None)
    max_residual = float(np.max(residuals)) if residuals is not None else float("nan")
    order = np.lexsort((b_vals.imag, b_vals.real))
    pairs = [(complex(a_vals[i]), complex(matched[i])) for i in range(a_vals.size)]
    return OracleReport(
        spectrum=b_vals[order],
        max_residual=max_residual,
        pairs=pairs,
        distances=distances,
        max_distance=max_distance,
        count_mismatch=a_vals.size != b_vals.size,
    )

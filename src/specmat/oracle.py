"""Independent dense numeric solvers used to validate every closed form.

Hermitian pencils with a positive-definite right side go through a Cholesky
reduction and a Hermitian eigensolver, in real arithmetic when neither side
has an imaginary part.  Every other pencil with an invertible right side
runs LAPACK's general eigensolver on ``B^{-1} A``.  Both routes also run
without eigenvectors, for callers that read only the values.  Polynomial
pencils are linearized to a companion pencil and solved the same way.
Eigenvectors of single eigenvalues are available by shifted inverse
iteration.  None of these routes samples a symbol, so they share nothing
with the closed forms they check.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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


def _regular_by_cholesky(b, inv_chol) -> bool:
    """Whether ``L^{-1}``, for ``B = L L^H``, already shows B is not singular.

    ``lambda_min(B) = 1 / ||L^{-1}||_2^2 >= 1 / ||L^{-1}||_F^2``; a bound above
    twice the threshold of :func:`is_singular` (the factor covers rounding)
    settles the question without computing the eigenvalues of B.  The
    Cholesky factor is that of B's lower triangle, so the bound holds for B
    only when B is exactly Hermitian.
    """
    if inv_chol is None or not np.array_equal(b, b.conj().T):
        return False
    bound = 1.0 / np.linalg.norm(inv_chol) ** 2
    return bound > 2.0 * SINGULAR_B_RTOL * max(inf_norm(b), 1e-300)


def _reduce_pencil(a, b, method):
    """Check the pencil ``A x = lam B x``, choose the route, reduce it to a standard problem.

    Returns ``(a, b, chol, reduced)``.  On the Hermitian-definite route
    ``chol`` is the Cholesky factor L of B and ``reduced`` the Hermitian
    ``L^{-1} A L^{-H}``; on the general route ``chol`` is None and
    ``reduced`` is ``B^{-1} A``.  A real pencil comes back as real arrays.
    """
    a, b = as_square(a), as_square(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"pencil shapes differ: {a.shape} vs {b.shape}")
    if not (a.imag.any() or b.imag.any()):
        # a real pencil runs the real LAPACK routines, about twice as fast
        a, b = a.real.copy(), b.real.copy()
    hermitian_pair = is_hermitian(a) and is_hermitian(b)
    chol = inv_chol = None
    if method in ("auto", "hermitian") and hermitian_pair:
        try:
            chol = np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            pass
        else:
            inv_chol = np.linalg.inv(chol)
    if not _regular_by_cholesky(b, inv_chol) and is_singular(b):
        raise SingularBError("right-hand matrix of the pencil is singular")

    if method not in ("auto", "hermitian", "general"):
        raise ValueError(f"unknown method {method!r}")
    if method == "hermitian" and not hermitian_pair:
        raise NotHermitianError("the forced Hermitian path needs Hermitian A and B")
    if chol is not None:
        # L^{-1} and two products cost less than two n-column solves
        reduced = inv_chol @ (a @ inv_chol.conj().T)
        return a, b, chol, 0.5 * (reduced + reduced.conj().T)
    if method == "hermitian":
        raise SingularBError("Hermitian path needs a positive-definite right side")
    # B is invertible (checked above)
    return a, b, None, np.linalg.solve(b, a)


def solve_gevp_numeric(a, b, method: str = "auto") -> EigenSolution:
    """Numerically solve ``A x = lam B x`` with per-mode residuals attached.

    ``method`` picks the route: ``"auto"`` uses the Cholesky/Hermitian path
    when A, B are Hermitian with B positive definite and otherwise the
    general path, LAPACK's eigensolver on ``B^{-1} A`` with the values
    sorted by (real, imag).  ``"hermitian"`` and ``"general"`` force one
    route, mainly for cross-checks.  Raises :class:`SingularBError` when B
    is numerically singular.  Callers that read only the eigenvalues use
    :func:`gevp_eigenvalues_numeric`, which takes the same routes.
    """
    a, b, chol, reduced = _reduce_pencil(a, b, method)
    if chol is not None:
        values, q = np.linalg.eigh(reduced)
        vectors = np.linalg.solve(chol.conj().T, q)
        vectors = vectors / np.linalg.norm(vectors, axis=0)
    else:
        # LAPACK's eig returns unit-norm vectors
        values, vectors = np.linalg.eig(reduced)
        order = np.lexsort((values.imag, values.real))
        values, vectors = values[order], vectors[:, order]
    return EigenSolution(
        modes=np.arange(1, a.shape[0] + 1),
        values=values,
        vectors=vectors,
        provenance=NUMERIC,
        residuals=pencil_residuals(a, b, values, vectors),
    )


def gevp_eigenvalues_numeric(a, b, method: str = "auto") -> np.ndarray:
    """The eigenvalues of :func:`solve_gevp_numeric`, without vectors or residuals.

    Same routes, order and errors: ascending and real from ``eigvalsh`` on
    the Hermitian-definite route, complex and sorted by (real, imag) from
    ``eigvals`` on the general route.
    """
    _, _, chol, reduced = _reduce_pencil(a, b, method)
    if chol is not None:
        return np.linalg.eigvalsh(reduced)
    values = np.linalg.eigvals(reduced)
    return values[np.lexsort((values.imag, values.real))]


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
    closest unused candidate, the lowest index among equally close ones.
    Returns ``(matched, distances)`` aligned with the reference input order;
    unmatched positions (count mismatch) carry NaN matches and infinite
    distances.  Finite real spectra, as on every Hermitian route, take a
    bisection walk over the sorted candidates with the same result.
    """
    ref = np.asarray(reference, dtype=complex)
    cand = np.asarray(candidates, dtype=complex)
    matched = np.full(ref.shape, np.nan + 0j, dtype=complex)
    distances = np.full(ref.shape, np.inf)
    order = np.lexsort((ref.imag, ref.real))
    real = not (ref.imag.any() or cand.imag.any())
    if real and np.isfinite(ref).all() and np.isfinite(cand).all():
        picks = _pair_real(ref.real[order].tolist(), cand.real)
        rows = order[:len(picks)]
        matched[rows] = cand[picks]
        distances[rows] = np.abs(cand[picks] - ref[rows])
        return matched, distances
    used = np.zeros(cand.size, dtype=bool)
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


def _pair_real(ref, cand) -> list:
    """The greedy walk of :func:`pair_values` for finite real values, by bisection.

    The free candidates stay sorted by (value, index).  The nearest ones
    sit on either side of the bisection point; rounding can make farther
    values equally near, so the equally near run is widened on both sides
    before the lowest index in it is taken.
    """
    sort = np.argsort(cand, kind="stable")
    values, index = cand[sort].tolist(), sort.tolist()
    picks = []
    for r in ref[:len(values)]:
        p = bisect_left(values, r)
        left = abs(values[p - 1] - r) if p else math.inf
        right = abs(values[p] - r) if p < len(values) else math.inf
        best = min(left, right)
        lo = hi = p
        if p and left == best:
            lo -= 1
            while lo and abs(values[lo - 1] - r) == best:
                lo -= 1
        if p < len(values) and right == best:
            hi += 1
            while hi < len(values) and abs(values[hi] - r) == best:
                hi += 1
        at = lo if hi - lo == 1 else min(range(lo, hi), key=index.__getitem__)
        picks.append(index.pop(at))
        del values[at]
    return picks


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

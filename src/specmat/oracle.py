"""Independent dense numeric solvers used to validate every closed form.

Hermitian pencils with a positive-definite right side go through a Cholesky
reduction and a Hermitian eigensolver, in real arithmetic when neither side
has an imaginary part.  Everything else runs a deliberately different route:
the characteristic polynomial is recovered by evaluating
``det(lam*B - A)`` at Chebyshev points and interpolating, its roots come from
the simultaneous-iteration root finder, and eigenvectors from shifted
inverse iteration.  Polynomial pencils are linearized to a companion pencil.
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
    TooLargeForGeneralPathError,
    ZeroVectorError,
)
from .linalg import (
    as_square,
    inf_norm,
    is_hermitian,
    lu_factor,
    lu_solve_factored,
    poly_roots,
)
from .solution import NUMERIC, EigenSolution

GENERAL_PATH_LIMIT = 16
SINGULAR_B_RTOL = 1e-13
REPEATED_ROOT_TOL = 1e-8


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

    The shift is nudged off the eigenvalue so the factorization stays
    regular; on stagnation the iteration restarts from a fresh random
    vector.  Vectors in ``avoid`` are projected out every step, which
    separates copies of a repeated eigenvalue.
    """
    a, b = as_square(a), as_square(b)
    n = a.shape[0]
    lam = complex(lam)
    shift = lam * (1.0 + 1e-10) + 1e-12
    best, best_res = None, np.inf
    for attempt in range(restarts):
        try:
            lu, perm = lu_factor(a - shift * b)
        except SingularMatrixError:
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
            w = lu_solve_factored(lu, perm, b @ v)
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
        raise SingularMatrixError(f"inverse iteration could not factor near {lam}")
    return best


def _pencil_charpoly(a, b) -> np.ndarray:
    """Ascending coefficients of ``det(lam*B - A)`` by Chebyshev interpolation."""
    n = a.shape[0]
    spectral_bound = max(1.0, inf_norm(np.linalg.solve(b, a)))
    nodes = np.cos(np.pi * np.arange(n + 1) / n)  # Chebyshev extrema in [-1, 1]
    vals = np.array([np.linalg.det(t * spectral_bound * b - a) for t in nodes])
    vander = np.vander(nodes, n + 1, increasing=True)
    coeffs = np.linalg.solve(vander, vals)
    return coeffs / spectral_bound ** np.arange(n + 1)


def _det_newton_polish(a, b, lam, radius, deflate=(), max_steps: int = 40):
    """Deflated Newton on ``det(lam*B - A)`` using the trace identity.

    ``d/dlam log det(lam*B - A) = tr((lam*B - A)^{-1} B)``, so one Newton
    step costs a factorization plus n solves.  Interpolated characteristic
    coefficients lose digits with growing degree; this polish restores each
    seed to machine accuracy without touching the coefficients again.  The
    ``deflate`` roots are suppressed Maehly-style, which stops two blurry
    seeds from collapsing onto the same eigenvalue.
    """
    n = a.shape[0]
    current = complex(lam)
    for _ in range(max_steps):
        try:
            lu, perm = lu_factor(current * b - a)
        except SingularMatrixError:
            return current  # numerically exact already
        trace = 0j
        for j in range(n):
            trace += lu_solve_factored(lu, perm, b[:, j])[j]
        for root in deflate:
            gap = current - root
            if gap == 0:
                gap = 1e-14 * max(1.0, abs(current))
            trace -= 1.0 / gap
        if trace == 0:
            break
        step = 1.0 / trace
        candidate = current - step
        tries = 0
        while abs(candidate) > 10.0 * radius and tries < 5:
            step *= 0.5  # damp a wild step instead of abandoning the seed
            candidate = current - step
            tries += 1
        if abs(candidate) > 10.0 * radius:
            break
        converged = abs(step) <= 1e-15 * max(1.0, abs(candidate))
        current = candidate
        if converged:
            break
    return current


def _polish_seeds(a, b, seeds, radius):
    accepted = []
    order = np.lexsort((np.asarray(seeds).imag, np.asarray(seeds).real))
    for idx in order:
        accepted.append(_det_newton_polish(a, b, seeds[idx], radius, deflate=accepted))
    return np.asarray(accepted)


def _refine_eigenpair(a, b, lam, avoid, seed):
    """Polish one seed eigenvalue by two-sided Rayleigh-quotient steps.

    Characteristic-polynomial roots lose accuracy with growing degree; a few
    quotient updates restore them to residual level.  Every update must
    lower the pencil residual or it is discarded.
    """
    vec = inverse_iteration(a, b, lam, avoid=avoid, seed=seed)
    best_res = residual_gevp(a, b, lam, vec)
    for step in range(3):
        if best_res <= 1e-13:
            break
        left = inverse_iteration(
            a.conj().T, b.conj().T, np.conj(lam), seed=seed + 31 * (step + 1)
        )
        denom = left.conj() @ (b @ vec)
        if abs(denom) < 1e-300:
            break
        candidate = (left.conj() @ (a @ vec)) / denom
        cand_vec = inverse_iteration(a, b, candidate, avoid=avoid, seed=seed + step)
        cand_res = residual_gevp(a, b, candidate, cand_vec)
        if cand_res < best_res:
            lam, vec, best_res = candidate, cand_vec, cand_res
        else:
            break
    return lam, vec


def solve_gevp_numeric(a, b, method: str = "auto") -> EigenSolution:
    """Numerically solve ``A x = lam B x`` with per-mode residuals attached.

    ``method`` picks the route: ``"auto"`` uses the Cholesky/Hermitian path
    when A, B are Hermitian with B positive definite and otherwise falls
    back to the characteristic-polynomial path (capped at dimension 16,
    raising :class:`TooLargeForGeneralPathError` beyond).  ``"hermitian"``
    and ``"charpoly"`` force one route, mainly for cross-checks.
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

    if method not in ("auto", "hermitian", "charpoly"):
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

    if n > GENERAL_PATH_LIMIT:
        raise TooLargeForGeneralPathError(
            f"characteristic-polynomial path is limited to dimension {GENERAL_PATH_LIMIT}, got {n}"
        )
    seeds = poly_roots(_pencil_charpoly(a, b))
    radius = max(1.0, float(np.max(np.abs(seeds))))
    seeds = _polish_seeds(a, b, seeds, radius)
    order = np.lexsort((seeds.imag, seeds.real))
    seeds = seeds[order]
    scale = max(1.0, float(np.max(np.abs(seeds))))
    values = np.empty(n, dtype=complex)
    vectors = np.empty((n, n), dtype=complex)
    for i, seed_value in enumerate(seeds):
        avoid = [
            vectors[:, j]
            for j in range(i)
            if abs(seeds[j] - seed_value) < REPEATED_ROOT_TOL * scale
        ]
        values[i], vectors[:, i] = _refine_eigenpair(
            a, b, seed_value, avoid, seed=17 * (i + 1)
        )
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

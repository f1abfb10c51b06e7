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

Every matrix the library builds is centrosymmetric, ``J M J = M`` for the
exchange matrix J, and the real orthogonal transform of Cantoni & Butler
("Eigenvalues and eigenvectors of symmetric centrosymmetric matrices",
*Linear Algebra Appl.* 13, 1976) splits such a matrix into an even and an
odd block of half size.  When every matrix of a pencil is exactly
centrosymmetric, each route runs on the two half-size pencils and merges
the results: the same values to rounding, the vectors mapped back to full
size, at about a quarter of the LAPACK work.  The test reads nothing but
the matrices' entries, never a band, a variant or a mode angle, so the
oracle stays as independent of the closed forms as before.  The route, the
singularity thresholds and the degree-drop decision are all taken on the
full pencil; input that is not centrosymmetric runs on the full matrices.
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
_SQRT2 = math.sqrt(2.0)


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
    return _singular(m, [m])


def _singular(m, blocks) -> bool:
    """:func:`is_singular` for ``m``, whose singular values are those of ``blocks`` together.

    ``blocks`` is ``[m]`` itself or the two halves of a centrosymmetric
    ``m``; the threshold always scales with the norm of the whole ``m``.
    """
    smallest = math.inf
    for block in blocks:
        if np.array_equal(block, block.conj().T):
            low = np.min(np.abs(np.linalg.eigvalsh(block)))
        else:
            low = np.linalg.svd(block, compute_uv=False)[-1]
        smallest = min(smallest, float(low))
    return smallest <= SINGULAR_B_RTOL * max(inf_norm(m), 1e-300)


def _centrosymmetric_halves(mats):
    """The even and odd blocks of matrices that are all exactly centrosymmetric, else None.

    With the exchange matrix J and ``h = n // 2``, the real orthogonal
    ``Q = [[I, 0, I], [0, sqrt(2), 0], [J, 0, -J]] / sqrt(2)`` (the middle
    row and column only for odd n) turns every centrosymmetric M into
    ``Q^T M Q = diag(E, O)``: ``E = M11 + M12 J``, bordered for odd n by
    ``sqrt(2)`` times the middle row and column of M and its centre entry,
    and ``O = M11 - M12 J``.  Returns ``[evens, odds]``, each a list of
    blocks in the order of ``mats``.  The first entry of each matrix is
    compared with its last before the whole matrix with its reversal, so
    other input is turned away at almost no cost.
    """
    n = mats[0].shape[0]
    if n < 2:
        return None
    for m in mats:
        if m[0, 0] != m[-1, -1] or not np.array_equal(m, m[::-1, ::-1]):
            return None
    h = n // 2
    evens, odds = [], []
    for m in mats:
        top, flipped = m[:h, :h], m[:h, :n - h - 1:-1]
        even = np.empty((n - h, n - h), dtype=m.dtype)
        np.add(top, flipped, out=even[:h, :h])
        if n % 2:
            even[:h, h] = _SQRT2 * m[:h, h]
            even[h, :h] = _SQRT2 * m[h, :h]
            even[h, h] = m[h, h]
        evens.append(even)
        odds.append(top - flipped)
    return [evens, odds]


def _join_halves(even, odd):
    """``Q diag(even, odd)``: vectors of the two halves as vectors of the full matrix.

    Q is the transform of :func:`_centrosymmetric_halves`, so the columns
    keep their norms.
    """
    h, k = odd.shape[0], even.shape[1]
    n = even.shape[0] + h
    joined = np.zeros((n, k + odd.shape[1]), dtype=np.result_type(even, odd))
    joined[:h, :k] = even[:h] / _SQRT2
    joined[n - h:, :k] = joined[h - 1::-1, :k]
    joined[:h, k:] = odd / _SQRT2
    joined[n - h:, k:] = -joined[h - 1::-1, k:]
    if n % 2:
        joined[h, :k] = even[h]
    return joined


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
    # the scale of residual_gevp without the vector's norm, computed once
    scale = inf_norm(a) + abs(lam) * inf_norm(b)
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
            res = float(abs(a @ w - (b @ w) * lam).max() / max(scale * abs(w).max(), 1e-300))
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


def _regular_by_cholesky(b, inv_chols) -> bool:
    """Whether ``L^{-1}``, for ``B = L L^H``, already shows B is not singular.

    ``lambda_min(B) = 1 / ||L^{-1}||_2^2 >= 1 / ||L^{-1}||_F^2``; a bound above
    twice the threshold of :func:`is_singular` (the factor covers rounding)
    settles the question without computing the eigenvalues of B.
    ``inv_chols`` holds one inverse factor per block of B (B itself, or its
    two centrosymmetric halves), and the threshold scales with the whole B.
    The Cholesky factor is that of a block's lower triangle, so the bound
    holds only when B, and with it each half, is exactly Hermitian.
    """
    if inv_chols is None or not np.array_equal(b, b.conj().T):
        return False
    bound = min(1.0 / np.linalg.norm(inv) ** 2 for inv in inv_chols)
    return bound > 2.0 * SINGULAR_B_RTOL * max(inf_norm(b), 1e-300)


def _reduce_pencil(a, b, method):
    """Check the pencil ``A x = lam B x``, choose the route, reduce it to standard problems.

    Returns ``(a, b, chols, reduced)``, with one entry of ``chols`` and
    ``reduced`` per block: the full pencil, or its even and odd halves when
    A and B are exactly centrosymmetric.  On the Hermitian-definite route
    ``chols`` holds the Cholesky factors L of the blocks of B and ``reduced``
    the Hermitian ``L^{-1} A L^{-H}``; on the general route ``chols`` is
    None and ``reduced`` holds ``B^{-1} A``.  The route and the singularity
    test are decided on the full pencil.  A real pencil comes back as real
    arrays.
    """
    a, b = as_square(a), as_square(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"pencil shapes differ: {a.shape} vs {b.shape}")
    if not (a.imag.any() or b.imag.any()):
        # a real pencil runs the real LAPACK routines, about twice as fast
        a, b = a.real.copy(), b.real.copy()
    blocks = _centrosymmetric_halves([a, b]) or [[a, b]]
    hermitian_pair = is_hermitian(a) and is_hermitian(b)
    chols = inv_chols = None
    if method in ("auto", "hermitian") and hermitian_pair:
        try:
            # one block that is not definite sends both to the general route
            chols = [np.linalg.cholesky(block_b) for _, block_b in blocks]
        except np.linalg.LinAlgError:
            chols = None
        else:
            inv_chols = [np.linalg.inv(chol) for chol in chols]
    if not _regular_by_cholesky(b, inv_chols) and _singular(b, [block_b for _, block_b in blocks]):
        raise SingularBError("right-hand matrix of the pencil is singular")

    if method not in ("auto", "hermitian", "general"):
        raise ValueError(f"unknown method {method!r}")
    if method == "hermitian" and not hermitian_pair:
        raise NotHermitianError("the forced Hermitian path needs Hermitian A and B")
    if chols is not None:
        reduced = []
        for (block_a, _), inv in zip(blocks, inv_chols):
            # L^{-1} and two products cost less than two n-column solves
            block = inv @ (block_a @ inv.conj().T)
            reduced.append(0.5 * (block + block.conj().T))
        return a, b, chols, reduced
    if method == "hermitian":
        raise SingularBError("Hermitian path needs a positive-definite right side")
    # B is invertible (checked above)
    return a, b, None, [np.linalg.solve(block_b, block_a) for block_a, block_b in blocks]


def solve_gevp_numeric(a, b, method: str = "auto") -> EigenSolution:
    """Numerically solve ``A x = lam B x`` with per-mode residuals attached.

    ``method`` picks the route: ``"auto"`` uses the Cholesky/Hermitian path
    when A, B are Hermitian with B positive definite and otherwise the
    general path, LAPACK's eigensolver on ``B^{-1} A`` with the values
    sorted by (real, imag).  ``"hermitian"`` and ``"general"`` force one
    route, mainly for cross-checks.  Raises :class:`SingularBError` when B
    is numerically singular.  Vectors are unit-norm and the residuals are
    those of the full pencil, also when it was solved in centrosymmetric
    halves.  Callers that read only the eigenvalues use
    :func:`gevp_eigenvalues_numeric`, which takes the same routes.
    """
    a, b, chols, reduced = _reduce_pencil(a, b, method)
    values, vectors = [], []
    for i, block in enumerate(reduced):
        if chols is not None:
            w, q = np.linalg.eigh(block)
            v = np.linalg.solve(chols[i].conj().T, q)
            v = v / np.linalg.norm(v, axis=0)
        else:
            # LAPACK's eig returns unit-norm vectors
            w, v = np.linalg.eig(block)
        values.append(w)
        vectors.append(v)
    values = np.concatenate(values)
    vectors = vectors[0] if len(vectors) == 1 else _join_halves(*vectors)
    if chols is not None:
        order = np.argsort(values, kind="stable")
    else:
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
    _, _, chols, reduced = _reduce_pencil(a, b, method)
    if chols is not None:
        values = [np.linalg.eigvalsh(block) for block in reduced]
        return values[0] if len(values) == 1 else np.sort(np.concatenate(values))
    values = np.concatenate([np.linalg.eigvals(block) for block in reduced])
    return values[np.lexsort((values.imag, values.real))]


def _companion_matrix(mats):
    """``C1^{-1} C0`` for the first companion linearization of ``sum_k lam^k A_k``.

    ``C1 = diag(I, ..., I, A_q)``, so only the last block row needs a solve:
    one n x n LU with ``q n`` right-hand sides, ``-A_q^{-1} [A_0 ... A_{q-1}]``.
    Above it sit the identity blocks of C0.
    """
    n = mats[0].shape[0]
    size = n * (len(mats) - 1)
    companion = np.zeros((size, size), dtype=complex)
    np.fill_diagonal(companion[:, n:], 1.0)
    companion[size - n:] = -np.linalg.solve(mats[-1], np.hstack(mats[:-1]))
    return companion


def solve_pevp_numeric(mats):
    """Eigenvalues of a polynomial pencil via companion linearization.

    Returns ``(values, degree_drop)``.  When the leading coefficient is
    singular the pencil is reversed (roots of the reversed pencil are the
    reciprocals), the infinite eigenvalues are dropped, and the flag is set;
    if the constant coefficient is singular too this raises
    :class:`SingularPencilError`.  Exactly centrosymmetric coefficients are
    solved in halves; the singularity tests and the cut for infinite
    eigenvalues still look at the whole pencil.
    """
    mats = [as_square(m) for m in mats]
    if len(mats) < 2:
        raise ValueError("a polynomial pencil needs at least two coefficient matrices")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ShapeMismatchError("all coefficient matrices must share one shape")
    halves = _centrosymmetric_halves(mats) or [mats]

    if not _singular(mats[-1], [half[-1] for half in halves]):
        values = np.concatenate([np.linalg.eigvals(_companion_matrix(half)) for half in halves])
        order = np.lexsort((values.imag, values.real))
        return values[order], False

    if _singular(mats[0], [half[0] for half in halves]):
        raise SingularPencilError(
            "both the leading and constant coefficient matrices are singular"
        )
    mu = np.concatenate([np.linalg.eigvals(_companion_matrix(half[::-1])) for half in halves])
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
    # one row of gaps per reference value in walk order; a used candidate's
    # column turns to inf, so argmin finds the nearest free candidate, or the
    # first free NaN gap as a scan over the free candidates would
    gaps = np.abs(cand - ref[order, None])
    used = np.zeros(cand.size, dtype=bool)
    picks, picked_gaps = [], []
    for row in gaps[:cand.size]:
        pick = int(row.argmin())
        if used[pick]:
            pick = int(used.argmin())  # every free gap is inf: the first free candidate
        used[pick] = True
        picks.append(pick)
        picked_gaps.append(row[pick])
        gaps[:, pick] = np.inf
    rows = order[:len(picks)]
    matched[rows] = cand[picks]
    distances[rows] = picked_gaps
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

"""Independent dense numeric solvers used to validate every closed form.

Hermitian pencils with a positive-definite right side go through a Cholesky
reduction and a Hermitian eigensolver, in real arithmetic when neither side
has an imaginary part.  Every other pencil with an invertible right side
runs LAPACK's general eigensolver on ``B^{-1} A``.  Both routes also run
without eigenvectors, for callers that read only the values, and on a
stack of small pencils, one LAPACK call per step for the whole stack, on a
route the caller takes once for all of them.  Polynomial
pencils are linearized to a companion pencil and solved the same way.
None of these routes samples a symbol, so they share nothing with the
closed forms they check.

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
    SingularPencilError,
    ZeroVectorError,
)
from .families import SymmetricBand
from .linalg import as_square, inf_norm, is_hermitian
from .solution import NUMERIC, EigenSolution

SINGULAR_B_RTOL = 1e-13
_SQRT2 = math.sqrt(2.0)


def pencil_residuals(a, b, values, vectors) -> np.ndarray:
    """Relative residuals ``||A x - lam B x|| / ((||A|| + |lam| ||B||) ||x||)``, inf-norms.

    Column i of ``vectors`` pairs with ``values[i]``; a 1-D ``vectors`` takes
    one scalar value.  A and B may be :class:`SymmetricBand` bands, at O(n m)
    per vector.  Raises :class:`ZeroVectorError` on any zero column.
    """
    vectors = np.asarray(vectors)
    xnorm = abs(vectors).max(axis=0)
    if not xnorm.all():
        raise ZeroVectorError("candidate eigenvector is zero")
    num = abs(a @ vectors - (b @ vectors) * values).max(axis=0)
    # inf_norm would read a band's storage as a matrix
    a_norm, b_norm = (m.inf_norm() if isinstance(m, SymmetricBand) else inf_norm(m) for m in (a, b))
    return num / np.maximum((a_norm + abs(values) * b_norm) * xnorm, 1e-300)


def residual_gevp(a, b, lam, x) -> float:
    """Relative pencil residual of one eigenpair; see :func:`pencil_residuals`."""
    return float(pencil_residuals(as_square(a), as_square(b), complex(lam), x))


def _singular(m, blocks) -> bool:
    """Whether the smallest singular value of ``m`` is at most ``SINGULAR_B_RTOL * ||m||_inf``.

    The singular values of ``m`` are those of ``blocks`` together: ``[m]``
    itself or the two halves of a centrosymmetric ``m``; the threshold
    always scales with the norm of the whole ``m``.  The singular values of
    a Hermitian block are the moduli of its eigenvalues, which ``eigvalsh``
    finds at a fraction of the cost of an SVD.
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


def _regular_by_cholesky(b, inv_chols):
    """Whether ``L^{-1}``, for ``B = L L^H``, already shows B is not singular.

    ``lambda_min(H) = 1 / ||L^{-1}||_2^2 >= 1 / ||L^{-1}||_F^2`` for the
    Hermitian H that B's lower triangle defines, the matrix Cholesky
    factors; by Weyl's inequality the smallest singular value of B is at
    most ``||B - B^H||_F`` below it, so B need not be exactly Hermitian.  A
    bound above twice the threshold of :func:`_singular` (the factor
    covers rounding) settles the question without computing the eigenvalues
    of B.  ``inv_chols`` holds one inverse factor per block of B (B itself,
    or its two centrosymmetric halves), and the threshold scales with the
    whole B.  For a stack of matrices B, with ``inv_chols`` one stack of
    their factors, the answer is an array with one entry per matrix.
    """
    if inv_chols is None:
        return False
    inverse_norm = np.max([np.linalg.norm(inv, axis=(-2, -1)) for inv in inv_chols], axis=0)
    b_h = b.conj().swapaxes(-1, -2)
    asymmetry = 0.0 if np.array_equal(b, b_h) else np.linalg.norm(b - b_h, axis=(-2, -1))
    scale = np.maximum(abs(b).sum(axis=-1).max(axis=-1), 1e-300)
    return 1.0 / inverse_norm ** 2 - asymmetry > 2.0 * SINGULAR_B_RTOL * scale


def _reduce_pencil(a, b, method):
    """Check the pencil ``A x = lam B x``, choose the route, reduce it to standard problems.

    Returns ``(a, b, inv_chols, reduced)``, with one entry of ``inv_chols``
    and ``reduced`` per block: the full pencil, or its even and odd halves
    when A and B are exactly centrosymmetric.  On the Hermitian-definite
    route ``inv_chols`` holds ``L^{-1}`` for the Cholesky factors L of the
    blocks of B and ``reduced`` the Hermitian ``L^{-1} A L^{-H}``; on the
    general route ``inv_chols`` is None and ``reduced`` holds ``B^{-1} A``.
    The route and the singularity test are decided on the full pencil.  A
    real pencil comes back as real arrays.  Two ``(m, p, p)`` stacks are one
    block, never split, and keep their dtype; they take the route ``method``
    names, ``"hermitian"`` or ``"general"``, unchecked for symmetry, and
    each B is tested alone.
    """
    a, b = np.asarray(a), np.asarray(b)
    stacked = a.ndim == 3
    if stacked:
        if a.shape != b.shape or a.shape[1] != a.shape[2]:
            raise ShapeMismatchError(f"expected two stacks of square matrices, got {a.shape} and {b.shape}")
        if method not in ("hermitian", "general"):
            # "auto" would need a Hermitian check per pencil: Cholesky reads only the lower triangle
            raise ValueError(f"a stack of pencils takes method 'hermitian' or 'general', not {method!r}")
    else:
        # a real pencil runs the real LAPACK routines, about twice as fast
        dtype = float if a.dtype.kind in "biuf" and b.dtype.kind in "biuf" else complex
        a, b = as_square(a, dtype), as_square(b, dtype)
        if a.shape != b.shape:
            raise ShapeMismatchError(f"pencil shapes differ: {a.shape} vs {b.shape}")
        if dtype is complex and not (a.imag.any() or b.imag.any()):
            a, b = a.real.copy(), b.real.copy()
    blocks = [[a, b]] if stacked else _centrosymmetric_halves([a, b]) or [[a, b]]
    # a stack's route is the caller's choice; its matrices are not checked
    hermitian_pair = method == "hermitian" if stacked else is_hermitian(a) and is_hermitian(b)
    inv_chols = None
    if method in ("auto", "hermitian") and hermitian_pair:
        try:
            # one block that is not definite sends both to the general route
            chols = [np.linalg.cholesky(block_b) for _, block_b in blocks]
        except np.linalg.LinAlgError:
            pass
        else:
            inv_chols = [np.linalg.inv(chol) for chol in chols]
    if stacked:
        cleared = np.broadcast_to(_regular_by_cholesky(b, inv_chols), len(b))
        singular = any(_singular(m, [m]) for m in b[~cleared])
    else:
        singular = not _regular_by_cholesky(b, inv_chols) and _singular(b, [block_b for _, block_b in blocks])
    if singular:
        raise SingularBError("right-hand matrix of the pencil is singular")

    if method not in ("auto", "hermitian", "general"):
        raise ValueError(f"unknown method {method!r}")
    if method == "hermitian" and not hermitian_pair:
        raise NotHermitianError("the forced Hermitian path needs Hermitian A and B")
    if inv_chols is not None:
        reduced = []
        for (block_a, _), inv in zip(blocks, inv_chols):
            # the Hermitian L^{-1} A L^{-H}; L^{-1} and two products cost less than two solves
            block = inv @ (block_a @ inv.conj().swapaxes(-1, -2))
            reduced.append(0.5 * (block + block.conj().swapaxes(-1, -2)))
        return a, b, inv_chols, reduced
    if method == "hermitian":
        raise SingularBError("Hermitian path needs a positive-definite right side")
    # B is invertible (checked above)
    return a, b, None, [np.linalg.solve(block_b, block_a) for block_a, block_b in blocks]


def _solve(a, b, method, vectors):
    """The values of :func:`_reduce_pencil`'s pencil, and its unit vectors if ``vectors``.

    Returns ``(a, b, values, vectors, hermitian)``: the checked pencil, the
    values (one row per pencil of a stack, whose vectors are not solved),
    the vectors or None, and whether the Hermitian-definite route ran.
    """
    if vectors and np.ndim(a) != 2:
        raise ValueError("eigenvectors are solved for one pencil at a time")
    a, b, inv_chols, reduced = _reduce_pencil(a, b, method)
    hermitian = inv_chols is not None
    parts, vecs = [], []
    for i, block in enumerate(reduced):
        if not vectors:
            parts.append((np.linalg.eigvalsh if hermitian else np.linalg.eigvals)(block))
            continue
        if hermitian:
            w, q = np.linalg.eigh(block)
            v = inv_chols[i].conj().T @ q  # x = L^{-H} q
            v = v / np.linalg.norm(v, axis=0)
        else:
            # LAPACK's eig returns unit-norm vectors
            w, v = np.linalg.eig(block)
        parts.append(w)
        vecs.append(v)
    values = np.concatenate(parts, axis=-1)  # a stack is one block
    vecs = None if not vectors else vecs[0] if len(vecs) == 1 else _join_halves(*vecs)
    # ascending, by (real, imag) off the Hermitian route; each row of a stack alone
    order = np.argsort(values, kind="stable") if hermitian else np.lexsort((values.imag, values.real))
    values = np.take_along_axis(values, order, axis=-1)
    return a, b, values, None if vecs is None else vecs[:, order], hermitian


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
    a, b, values, vectors, _ = _solve(a, b, method, True)
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
    ``eigvals`` on the general route.  Two ``(m, p, p)`` stacks give one row
    per pencil, from one LAPACK call per step for the whole stack.  A stack
    takes the route ``method`` names for all its pencils, ``"hermitian"``
    (not checked for symmetry) or ``"general"``; ``"auto"`` raises
    ``ValueError``.  It is never split in centrosymmetric halves and keeps
    its dtype, so each row is bit for bit what its pencil alone gives as a
    stack of the same dtype, whatever else shares the stack.
    """
    return _solve(a, b, method, False)[2]


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

    dropped = _singular(mats[-1], [half[-1] for half in halves])
    if not dropped:
        values = np.concatenate([np.linalg.eigvals(_companion_matrix(half)) for half in halves])
    elif _singular(mats[0], [half[0] for half in halves]):
        raise SingularPencilError(
            "both the leading and constant coefficient matrices are singular"
        )
    else:
        mu = np.concatenate([np.linalg.eigvals(_companion_matrix(half[::-1])) for half in halves])
        finite = np.abs(mu) > 1e-10 * max(1.0, float(np.max(np.abs(mu))))
        values = 1.0 / mu[finite]
    return values[np.lexsort((values.imag, values.real))], dropped


def polynomial_residual(mats, lam) -> float:
    """Smallest singular value of ``P(lam)`` relative to the pencil's scale."""
    mats = [as_square(m) for m in mats]
    lam = complex(lam)
    p = sum((lam ** k) * m for k, m in enumerate(mats))
    scale = sum(inf_norm(m) * abs(lam) ** k for k, m in enumerate(mats))
    return float(np.linalg.svd(p, compute_uv=False)[-1] / max(scale, 1e-300))


def pair_values(reference, candidates):
    """Greedy nearest-neighbor pairing of two eigenvalue lists.

    Walks the reference values in (real, imag) order and assigns each the
    closest unused candidate, the lowest index among equally close ones.
    Returns ``(matched, distances)`` aligned with the reference input order;
    unmatched positions (count mismatch) carry NaN matches and infinite
    distances.  Finite real spectra, as on every Hermitian route, sort both
    lists once and pair them by rank where :func:`_pairs_by_rank` shows the
    walk would, else by a bisection walk; the result is the walk's.
    """
    ref = np.asarray(reference, dtype=complex)
    cand = np.asarray(candidates, dtype=complex)
    matched = np.full(ref.shape, np.nan + 0j, dtype=complex)
    distances = np.full(ref.shape, np.inf)
    order = np.lexsort((ref.imag, ref.real))
    real = not (ref.imag.any() or cand.imag.any())
    if real and np.isfinite(ref).all() and np.isfinite(cand).all():
        walk, sort = ref.real[order], np.argsort(cand.real, kind="stable")
        values = cand.real[sort]
        picks = sort if _pairs_by_rank(walk, values) else _pair_real(walk.tolist(), values.tolist(), sort.tolist())
    else:
        # one row of gaps per reference value in walk order; a used candidate's
        # column turns to inf, so argmin finds the nearest free candidate, or the
        # first free NaN gap as a scan over the free candidates would
        gaps = np.abs(cand - ref[order, None])
        used = np.zeros(cand.size, dtype=bool)
        picks = []
        for row in gaps[:cand.size]:
            pick = int(row.argmin())
            if used[pick]:
                pick = int(used.argmin())  # every free gap is inf: the first free candidate
            used[pick] = True
            picks.append(pick)
            gaps[:, pick] = np.inf
    rows = order[:len(picks)]
    matched[rows] = cand[picks]
    distances[rows] = np.abs(cand[picks] - ref[rows])  # the gap of each pick, as the walk saw it
    return matched, distances


def _pairs_by_rank(ref, values) -> bool:
    """Whether the greedy walk pairs the sorted ``ref`` and ``values`` by rank: when both have
    one length and each value but the last is strictly nearer ``ref[i]`` than the next value.

    By induction values 0..i-1 are taken at step i.  The rounded distance to
    ``ref[i]`` falls, then rises, along the sorted values, so ``values[i]``
    is the one nearest free value, with no tie for the lowest index to break.
    """
    return ref.size == values.size and bool((abs(values[:-1] - ref[:-1]) < abs(values[1:] - ref[:-1])).all())


def _pair_real(ref, values, index) -> list:
    """The greedy walk of :func:`pair_values` for finite real values, by bisection.

    ``values`` are the candidates sorted by (value, index), and ``index``
    their indices; the free ones stay so sorted.  The nearest ones sit on
    either side of the bisection point; rounding can make farther values
    equally near, so the equally near run is widened on both sides before
    the lowest index in it is taken.
    """
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

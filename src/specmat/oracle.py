"""Independent dense numeric solvers used to validate every closed form.

Hermitian pencils with a positive-definite right side go through a Cholesky
reduction ``L^{-1} A L^{-H}``, the triangular inverse taken by 2x2 blocks,
and a Hermitian eigensolver, in real arithmetic when neither side has an
imaginary part.  Every other pencil with an invertible right side runs
LAPACK's general eigensolver on ``B^{-1} A``.  Both routes also run without
eigenvectors, for callers that read only the values, and on a stack of
small pencils, one LAPACK call per step for the whole stack, on a route the
caller takes once for all of them.  A polynomial pencil is diagonalized by
one real congruence where a backward error of order ``n eps kappa(R)``
certifies it (:func:`_congruence_roots`), and else linearized to a companion
pencil.  None of these routes samples a symbol, so they share nothing with the
closed forms they check; :func:`verify` checks a closed form against them.

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
from dataclasses import dataclass
from itertools import takewhile

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
from .solution import EigenSolution, PolynomialEigenSolution

SINGULAR_B_RTOL = 1e-13
_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)
_BLOCKED_INVERSE_MIN = 64  # below this order np.linalg.inv is as fast


def pencil_residuals(a, b, values, vectors) -> np.ndarray:
    """Relative residuals ``||A x - lam B x|| / ((||A|| + |lam| ||B||) ||x||)``, inf-norms.

    Column i of ``vectors`` pairs with ``values[i]``; a 1-D ``vectors`` takes
    one scalar value.  A and B may be :class:`SymmetricBand` bands, at O(n m)
    per vector.  Raises :class:`ZeroVectorError` on any zero column.  A
    value that is not finite gives a NaN residual, without a warning.
    """
    vectors = np.asarray(vectors)
    xnorm = abs(vectors).max(axis=0)
    if not xnorm.all():
        raise ZeroVectorError("candidate eigenvector is zero")
    # inf_norm would read a band's storage as a matrix
    a_norm, b_norm = (m.inf_norm() if isinstance(m, SymmetricBand) else inf_norm(m) for m in (a, b))
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf
        num = abs(a @ vectors - (b @ vectors) * values).max(axis=0)
        return num / np.maximum((a_norm + abs(values) * b_norm) * xnorm, 1e-300)


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


def _inverse_lower(chol):
    """The inverse of a lower triangular matrix, or of a stack of them, by 2x2 blocks:
    ``[[L11, 0], [L21, L22]]^{-1} = [[X11, 0], [-X22 L21 X11, X22]]``, ``Xii = Lii^{-1}``,
    about a quarter of the flops of ``np.linalg.inv``, an LU solve of ``L X = I``.
    """
    n = chol.shape[-1]
    if n < _BLOCKED_INVERSE_MIN:
        return np.linalg.inv(chol)
    h = n // 2
    inv = np.zeros_like(chol)
    inv[..., :h, :h] = top = _inverse_lower(chol[..., :h, :h])
    inv[..., h:, h:] = bottom = _inverse_lower(chol[..., h:, h:])
    inv[..., h:, :h] = -bottom @ (chol[..., h:, :h] @ top)
    return inv


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

    Returns ``(inv_chols, reduced)``, one entry of each per block: the full
    pencil, or its even and odd halves when A and B are exactly
    centrosymmetric.  On the Hermitian-definite route ``inv_chols`` holds
    ``L^{-1}``, from :func:`_inverse_lower`, for the Cholesky factors L of
    the blocks of B and ``reduced`` the Hermitian ``L^{-1} A L^{-H}``; on the
    general route ``inv_chols`` is None and ``reduced`` holds ``B^{-1} A``.
    The route and the singularity test are decided on the full pencil, whose
    matrices take their dtype from :func:`as_square`, so a real pencil runs
    the real LAPACK routines, about twice as fast.  Two ``(m, p, p)`` stacks
    are one block, never split, and keep their dtype; they take the route
    ``method`` names, ``"hermitian"`` or ``"general"``, unchecked for
    symmetry, and each B is tested alone.
    """
    if method not in ("auto", "hermitian", "general"):
        raise ValueError(f"unknown method {method!r}")
    stacked = np.ndim(a) == 3
    if stacked:
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.shape[1] != a.shape[2]:
            raise ShapeMismatchError(f"expected two stacks of square matrices, got {a.shape} and {b.shape}")
        if method == "auto":
            # "auto" would need a Hermitian check per pencil: Cholesky reads only the lower triangle
            raise ValueError("a stack of pencils takes method 'hermitian' or 'general', not 'auto'")
    else:
        a, b = as_square(a), as_square(b)
        if a.shape != b.shape:
            raise ShapeMismatchError(f"pencil shapes differ: {a.shape} vs {b.shape}")
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
            inv_chols = [_inverse_lower(chol) for chol in chols]
    if stacked:
        cleared = np.broadcast_to(_regular_by_cholesky(b, inv_chols), len(b))
        singular = any(_singular(m, [m]) for m in b[~cleared])
    else:
        singular = not _regular_by_cholesky(b, inv_chols) and _singular(b, [block_b for _, block_b in blocks])
    if singular:
        raise SingularBError("right-hand matrix of the pencil is singular")

    if method == "hermitian" and not hermitian_pair:
        raise NotHermitianError("the forced Hermitian path needs Hermitian A and B")
    if inv_chols is not None:
        reduced = []
        for (block_a, _), inv in zip(blocks, inv_chols):
            # the Hermitian L^{-1} A L^{-H}; L^{-1} and two products cost less than two solves
            block = inv @ (block_a @ inv.conj().swapaxes(-1, -2))
            reduced.append(0.5 * (block + block.conj().swapaxes(-1, -2)))
        return inv_chols, reduced
    if method == "hermitian":
        raise SingularBError("Hermitian path needs a positive-definite right side")
    # B is invertible (checked above)
    return None, [np.linalg.solve(block_b, block_a) for block_a, block_b in blocks]


def _solve(a, b, method, vectors):
    """The values of :func:`_reduce_pencil`'s pencil, and its unit vectors if ``vectors``.

    Returns ``(values, vectors, hermitian)``: the values (one row per pencil
    of a stack, whose vectors are not solved), the vectors or None, and
    whether the Hermitian-definite route ran.
    """
    if vectors and np.ndim(a) != 2:
        raise ValueError("eigenvectors are solved for one pencil at a time")
    inv_chols, reduced = _reduce_pencil(a, b, method)
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
    return values, None if vecs is None else vecs[:, order], hermitian


def solve_gevp_numeric(a, b, method: str = "auto") -> EigenSolution:
    """Numerically solve ``A x = lam B x``: every eigenvalue, each with a unit eigenvector.

    ``method`` picks the route: ``"auto"`` uses the Cholesky/Hermitian path
    when A, B are Hermitian with B positive definite and otherwise the
    general path, LAPACK's eigensolver on ``B^{-1} A`` with the values
    sorted by (real, imag).  ``"hermitian"`` and ``"general"`` force one
    route, mainly for cross-checks.  Raises :class:`SingularBError` when B
    is numerically singular.  Vectors are unit-norm, also when the pencil
    was solved in centrosymmetric halves; :func:`pencil_residuals` gives
    their residuals.  Callers that read only the eigenvalues use
    :func:`gevp_eigenvalues_numeric`, which takes the same routes.
    """
    values, vectors, _ = _solve(a, b, method, True)
    return EigenSolution(
        modes=np.arange(1, values.size + 1),
        values=values,
        vectors=vectors,
    )


def gevp_eigenvalues_numeric(a, b, method: str = "auto") -> np.ndarray:
    """The eigenvalues of :func:`solve_gevp_numeric`, without vectors.

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
    return _solve(a, b, method, False)[0]


def _companion_matrix(mats):
    """``C1^{-1} C0`` for the first companion linearization of ``sum_k lam^k A_k``.

    ``C1 = diag(I, ..., I, A_q)``, so only the last block row needs a solve:
    one n x n LU with ``q n`` right-hand sides, ``-A_q^{-1} [A_0 ... A_{q-1}]``.
    Above it sit the identity blocks of C0.  It is real when every ``A_k`` is.
    """
    n = mats[0].shape[0]
    size = n * (len(mats) - 1)
    companion = np.zeros((size, size), dtype=np.result_type(*mats))
    np.fill_diagonal(companion[:, n:], 1.0)
    companion[size - n:] = -np.linalg.solve(mats[-1], np.hstack(mats[:-1]))
    return companion


def _congruence_roots(mats):
    """The roots of ``sum_k lam^k A_k`` through one real congruence, or None where none diagonalizes the A_k.

    S sums the A_k's real and imaginary parts over their norms with fixed weights; R is the real part of the
    first A_k the Hermitian route takes as positive definite, else I: the A_k need not commute (variant 3's
    do not), so X need not be orthogonal.  The eigenvectors X of ``(S - c R, R)``, ``c = tr S / tr R``
    centring the values, scaled to ``X^T R X = I``, give ``D_k = X^T A_k X`` in A_k's dtype.  Dropping D_k's
    off-diagonal part E_k solves the pencil of ``A_k - X^{-T} E_k X^{-1}``, and ``||X^{-1}||_2^2 = ||R||_2``.
    Every computed entry of D_k, the kept diagonal too, has a rounding error up to ``gamma_n |x_i|^T |A_k|
    |x_j| <= n eps ||A_k||_inf max_i ||x_i||_2^2`` (``|||A|||_2 <= ||A||_inf`` for a symmetric A), and
    ``max_i ||x_i||_2^2 <= ||R^{-1}||_2``.  An entry is dropped only below that bound, so that its backward
    error is at most ``n eps kappa_2(R) ||A_k||_inf``, the order of the rounding the kept entries carry, and
    all of them together at most n times that.  A larger entry couples its indices, and each contiguous run
    of coupled indices (X is sorted by value) is solved by a companion of its sub-blocks.  None when S or R
    is not symmetric or a run spans every index.  Golub & Van Loan, *Matrix Computations*, 4th ed., 8.7;
    Tisseur & Meerbergen, *SIAM Rev.* 43 (2001).
    """
    n, q = mats[0].shape[0], len(mats) - 1
    parts = [part for m in mats for part in (m.real, m.imag) if part.any()]
    s = sum(w * part / inf_norm(part) for w, part in zip(np.sqrt(np.arange(2.0, 2.0 + len(parts))), parts))
    for r in [*(m.real for m in mats if np.trace(m.real) > 0), np.eye(n)]:  # trace <= 0: not definite
        try:
            x = _solve(s - np.trace(s) / np.trace(r) * r, r, "hermitian", True)[1]
        except SingularBError:
            continue
        except NotHermitianError:
            return None
        break
    x = x / np.sqrt(np.einsum("ij,ij->j", x, r @ x))  # now x^T R x = I
    blocks, bound = [x.T @ m @ x for m in mats], n * _EPS * np.max(np.einsum("ij,ij->j", x, x))
    coupled = np.eye(n, dtype=bool) | np.any([abs(b) > bound * inf_norm(m) for m, b in zip(mats, blocks)], axis=0)
    coupled |= coupled.T
    # a run ends at i when no index up to i couples past i
    stops = np.flatnonzero(np.maximum.accumulate(n - 1 - coupled[:, ::-1].argmax(axis=1)) == np.arange(n)) + 1
    if n > 1 and stops.size == 1:
        return None
    starts = np.concatenate(([0], stops[:-1]))
    alone = starts[stops - starts == 1]
    diagonal = np.array([block.diagonal()[alone] for block in blocks]).T
    companions = np.tile(np.eye(q, k=1, dtype=diagonal.dtype), (alone.size, 1, 1))
    companions[:, -1] = -diagonal[:, :-1] / diagonal[:, -1:]
    runs = [np.linalg.eigvals(_companion_matrix([block[i:j, i:j] for block in blocks]))
            for i, j in zip(starts, stops) if j - i > 1]
    return np.concatenate([np.linalg.eigvals(companions).ravel(), *runs], dtype=complex)


def _solve_pevp(mats):
    """:func:`solve_pevp_numeric`'s values and flag, and whether :func:`_congruence_roots` gave the values."""
    mats = [as_square(m) for m in mats]
    if len(mats) < 2:
        raise ValueError("a polynomial pencil needs at least two coefficient matrices")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ShapeMismatchError("all coefficient matrices must share one shape")
    halves = _centrosymmetric_halves(mats) or [mats]

    dropped = _singular(mats[-1], [half[-1] for half in halves])
    if dropped and _singular(mats[0], [half[0] for half in halves]):
        raise SingularPencilError("both the leading and constant coefficient matrices are singular")
    halves = [half[::-1] if dropped else half for half in halves]
    # map is lazy: the first half no congruence diagonalizes ends the route, with no work on the next
    parts = list(takewhile(lambda part: part is not None, map(_congruence_roots, halves)))
    congruence = len(parts) == len(halves)
    if not congruence:  # complex values; a real companion gives exact conjugate pairs
        parts = [np.linalg.eigvals(_companion_matrix(half)) for half in halves]
    values = np.concatenate(parts, dtype=complex)
    if dropped:
        finite = np.abs(values) > 1e-10 * max(1.0, float(np.max(np.abs(values))))
        values = 1.0 / values[finite]
    return values[np.lexsort((values.imag, values.real))], dropped, congruence


def solve_pevp_numeric(mats):
    """Eigenvalues of a polynomial pencil, by one real congruence or a companion linearization.

    Returns ``(values, degree_drop)``.  When the leading coefficient is
    singular the pencil is reversed (roots of the reversed pencil are the
    reciprocals), the infinite eigenvalues are dropped, and the flag is set;
    if the constant coefficient is singular too this raises
    :class:`SingularPencilError`.  Exactly centrosymmetric coefficients are
    solved in halves; the singularity tests and the cut for infinite
    eigenvalues still look at the whole pencil.  Each half is diagonalized by
    :func:`_congruence_roots` where it certifies itself, else linearized.
    """
    return _solve_pevp(mats)[:2]


def pair_values(reference, candidates):
    """Greedy nearest-neighbor pairing of two eigenvalue lists.

    Walks the reference values in (real, imag) order and assigns each the
    closest unused candidate, the lowest index among equally close ones; a
    NaN distance counts as the closest.  Returns ``(matched, distances)``
    aligned with the reference input order; unmatched positions (count
    mismatch) carry NaN matches and infinite distances.  Finite real
    spectra, as on every Hermitian route, pair by rank where
    :func:`_pairs_by_rank` shows the walk would.  Otherwise each walked
    value's nearest candidate is found at once; when no two of these
    coincide, no value's pick was taken before its turn, so they are the
    walk's picks, and only else does the walk run value by value.
    """
    ref = np.asarray(reference, dtype=complex)
    cand = np.asarray(candidates, dtype=complex)
    matched = np.full(ref.shape, np.nan + 0j, dtype=complex)
    distances = np.full(ref.shape, np.inf)
    order = np.lexsort((ref.imag, ref.real))
    rows = order[:cand.size]
    real = not (ref.imag.any() or cand.imag.any())
    # real input is paired in float64: the same gaps, without complex temporaries
    ref_part, cand_part = (ref.real, cand.real) if real else (ref, cand)
    picks = None
    if real and np.isfinite(ref_part).all() and np.isfinite(cand_part).all():
        sort = np.argsort(cand_part, kind="stable")
        picks = sort if _pairs_by_rank(ref_part[order], cand_part[sort]) else None
    with np.errstate(invalid="ignore"):  # the gap between two infinities is NaN
        if picks is None:
            gaps = abs(cand_part - ref_part[rows, None])
            picks = gaps.argmin(axis=1) if cand.size else np.zeros(0, dtype=int)
            if np.unique(picks).size < picks.size:  # some pick was taken before its turn
                # a used candidate's gaps turn to inf, so argmin finds the nearest free
                # candidate, or the first free NaN gap as a scan over the free ones would
                used = np.zeros(cand.size, dtype=bool)
                for i, row in enumerate(gaps):
                    pick = int(row.argmin())
                    if used[pick]:
                        pick = int(used.argmin())  # every free gap is inf: the first free candidate
                    used[pick] = True
                    picks[i] = pick
                    gaps[:, pick] = np.inf
        distances[rows] = abs(cand_part[picks] - ref_part[rows])  # the gap of each pick, as the walk saw it
    matched[rows] = cand[picks]
    return matched, distances


def _pairs_by_rank(ref, values) -> bool:
    """Whether the greedy walk pairs the sorted ``ref`` and ``values`` by rank: when both have
    one length and each value but the last is strictly nearer ``ref[i]`` than the next value.

    By induction values 0..i-1 are taken at step i.  The rounded distance to
    ``ref[i]`` falls, then rises, along the sorted values, so ``values[i]``
    is the one nearest free value, with no tie for the lowest index to break.
    """
    return ref.size == values.size and bool((abs(values[:-1] - ref[:-1]) < abs(values[1:] - ref[:-1])).all())


@dataclass
class Verification:
    """What :func:`verify` found: the closed form's ``values`` and their relative ``residuals``
    (None for a polynomial pencil); if the oracle ran, its values paired with them as by
    :func:`pair_values` (``matched``, ``distances``), ``count_mismatch`` and its ``route``: ``"hermitian"``,
    ``"general"``, ``"congruence"`` or ``"companion"``, ``"reversed-"`` first where infinite values were dropped.
    """

    values: np.ndarray
    residuals: np.ndarray | None
    matched: np.ndarray | None = None
    distances: np.ndarray | None = None
    count_mismatch: bool | None = None
    route: str | None = None


def verify(solution, *coefficients, oracle=True) -> Verification:
    """Check a closed form on the matrices it solves, and against the oracle if ``oracle``.

    An :class:`EigenSolution` takes ``(A, B)``, a :class:`PolynomialEigenSolution` ``A_0 ... A_q``,
    each a :class:`SymmetricBand` or a dense array; only the oracle densifies.
    """
    if isinstance(solution, PolynomialEigenSolution):
        values, residuals = solution.all_values(), None
    else:
        values = solution.values
        residuals = pencil_residuals(*coefficients, values, solution.vectors)
    if not oracle:
        return Verification(values, residuals)
    dense = [m.dense() if isinstance(m, SymmetricBand) else m for m in coefficients]
    if residuals is None:
        numeric, dropped, congruence = _solve_pevp(dense)
        route = ("reversed-" if dropped else "") + ("congruence" if congruence else "companion")
    else:
        numeric, _, hermitian = _solve(*dense, "auto", False)
        route = "hermitian" if hermitian else "general"
    matched, distances = pair_values(values, numeric)
    return Verification(values, residuals, matched, distances, values.size != numeric.size, route)

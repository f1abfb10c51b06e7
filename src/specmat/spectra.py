"""Closed-form eigenpairs for the structured matrix families.

Every symbol comes from one kernel, ``_symbols``: Horner's rule on exactly
summed coefficients in ``sin^2(theta/2)``, or ``sin^2((pi-theta)/2)`` past
pi/2, and for wide bands a sum of ``sin^2(l theta/2)``.  A mode's eigenvalue
pairs with a sampled sine or cosine eigenvector.
The corner-overlapped families reduce, mode by mode, to scalar quadratics or
cubics in symbols, whose roots are taken directly; their eigenvectors sample
a sine at the shared vertices and fill the other entries in closed form.  The
quadratic elements are the corner block at integer parameters.  Nothing here
calls the numeric oracle that checks these formulas.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import (
    BadBandwidthError,
    DegenerateQuadraticError,
    SingularPencilError,
    TooSmallError,
    ZeroScaleError,
)
from .families import (_FEM_P2_MASS_30_PER_H, _FEM_P2_STIFFNESS_3H, _FEM_P3_K_LOCAL, _FEM_P3_M_LOCAL,
                       HankelVariant, _as_size, _element_count, as_band)
from .linalg import batched_roots
from .solution import EigenSolution, PolynomialEigenSolution

SYMBOL_ZERO_RTOL = 1e-12
# pi - fl(pi) to double precision, so that pi - theta is exact to rounding
_PI_TAIL = math.sin(math.pi)


def symbol(band, theta):
    """Trigonometric symbol ``band[0] + 2 * sum_l band[l] * cos(l*theta)``.

    Accepts a scalar angle, giving a float, or an array of angles, giving
    float64, for a real band; complex for a complex one.  As ``cos(l*theta) =
    T_l(1 - 2t)``, it is a polynomial in ``t = sin^2(theta/2)`` up to ``pi/2``
    and in ``u = sin^2((pi-theta)/2)`` above, whose exactly summed coefficients
    keep a zero of any order at 0 or pi exact under Horner's rule.  Past
    bandwidth 2 the form ``s(0) - 4 sum_l band[l] sin^2(l*theta/2)`` (about pi,
    ``s(pi)`` and the signs ``(-1)^l``), which keeps a simple zero exact, is
    taken where Horner's rule rounds more, and past bandwidth 4 alone.
    """
    theta_arr = np.asarray(theta, dtype=float)
    values = _symbols(as_band(band)[None], theta_arr.ravel())[:, 0].reshape(theta_arr.shape)
    return values.item() if theta_arr.ndim == 0 else values


@functools.cache
def _chebyshev_terms(m: int, powers: int):
    """Band entry ``cols[r, k, i]`` times ``mults[r, k, i]``, summed over i, is a bandwidth-m symbol's
    coefficient of ``x^k``, ``x = t`` (r = 0) or ``u`` (r = 1), k < powers.  Entry l > 0 enters as ``2
    (-1)^(l r) T_l(1 - 2x)``, whose integers ``2 (-4)^k l C(l+k, l-k) / (l+k)`` split into powers of two."""
    def weight(k, l, sign):
        return 1 if l == 0 else 2 * (-1) ** k * sign ** l * (l * 4 ** k * math.comb(l + k, l - k) // (l + k))
    rows = [[(l, math.copysign(2.0 ** i, a)) for l in range(k, m + 1) for a in [weight(k, l, sign)]
             for i in range(abs(a).bit_length()) if abs(a) >> i & 1] for sign in (1, -1) for k in range(powers)]
    terms = np.array([row + [(0, 0.0)] * (max(map(len, rows)) - len(row)) for row in rows]).reshape(2, powers, -1, 2)
    return terms[..., 0].astype(np.intp), terms[..., 1]


def _symbols(bands, thetas) -> np.ndarray:
    """:func:`symbol` of each row of the float64 or complex128 stack ``bands`` at each of the 1-D
    ``thetas``: a row per angle and a column per band, in the stack's dtype."""
    if bands.dtype == complex:  # the real and the imaginary part's symbols, each real arithmetic
        parts = _symbols(np.concatenate((bands.real, bands.imag)), thetas)
        return parts[:, :len(bands)] + 1j * parts[:, len(bands):]  # exact: the real parts are never -0.0
    m = bands.shape[1] - 1
    cols, mults = _chebyshev_terms(m, m + 1 if m <= 4 else 1)  # past m = 4, only s(0) and s(pi)
    terms = bands.take(cols, axis=1) * mults  # band, t or u, power, term
    rows = terms.reshape(-1, cols.shape[-1])  # summed exactly, from +0.0: two terms round once, more take fsum
    sums = rows.sum(axis=1) if rows.shape[1] <= 2 else [math.fsum(row) for row in rows.tolist()]
    coeffs = np.array(sums).reshape(terms.shape[:-1])
    near_pi = thetas > 0.5 * np.pi
    reduced = np.where(near_pi, (np.pi - thetas) + _PI_TAIL, thetas)
    x = np.sin(0.5 * reduced)[:, None] ** 2
    per_angle = coeffs.transpose(2, 1, 0).take(near_pi.astype(np.intp), axis=1)  # power, angle, band
    acc = per_angle[-1]
    for coeff in per_angle[-2::-1]:
        acc = acc * x + coeff
    if m <= 2:  # Horner's rule rounds by sum |c_k| x^k, here at most 7 times the band's moduli
        return acc
    # the sin^2 form rounds by about the band's moduli, Horner's rule by up to T_m(1 + 2x) times them: the
    # smaller is taken up to m = 4, where its exact coefficients cost as much as the sin^2 form (25 times at 32)
    squares = np.sin(0.5 * np.multiply.outer(reduced, np.arange(1, m + 1))) ** 2
    squares[near_pi, ::2] *= -1.0  # the signs (-1)^l about pi
    sines = per_angle[0] - 4.0 * (squares @ bands[:, 1:].T)
    if m > 4:
        return sines
    scale = functools.reduce(lambda total, coeff: total * x + abs(coeff), per_angle[-2::-1], abs(per_angle[-1]))
    return np.where(scale > 2 * abs(bands).sum(axis=1) - abs(bands[:, 0]), sines, acc)


def divide_symbols(numerator, denominator) -> np.ndarray:
    """The quotients of two 1-D arrays of symbol values, correctly rounded where both are real.

    Two float64 arrays take numpy's real division and stay float64.  numpy's
    complex division multiplies by a rounded reciprocal, so a complex array
    divides by Python's complex division instead: the Python loop costs
    more than numpy's division, and real symbols never take it.
    """
    if numerator.dtype == denominator.dtype == float:
        return numerator / denominator
    return np.array([x / y for x, y in zip(numerator.tolist(), denominator.tolist())], dtype=complex)


# per variant: h = 1 / (n + shift), the first angle multiplier, whether the
# sampled wave is the cosine, and twice the offset of entry k (1-based) in k - offset
_MODE_ANGLES = {HankelVariant.SET1: (1, 1, False, 0), HankelVariant.SET2: (0, 1, False, 1),
                HankelVariant.SET3: (-1, 0, True, 2), HankelVariant.SET4: (0, 0, True, 1)}


def mode_angles(variant, n: int):
    """Mesh parameter ``h`` and angle multipliers for a variant's n modes."""
    shift, first, _, _ = _MODE_ANGLES[HankelVariant.coerce(variant)]
    return 1.0 / (n + shift), np.arange(first, first + n)


def _sines(phases, d: int) -> np.ndarray:
    """``sin(pi t / d)`` at integer phases t, looked up at ``t mod 2d`` in a one-period table whose
    angles are at most pi/2: within a few eps of the exact sine at any n, and zeros are +0.0.
    """
    t = np.arange(d + 1)
    half = np.sin(np.pi * np.minimum(t, d - t) / d)
    return np.concatenate((half, -half[1:-1]))[phases % (2 * d)]


def eigenvector_basis(variant, n: int) -> np.ndarray:
    """The variant's sampled sine/cosine eigenvectors, one column per mode (float64)."""
    shift, first, cosine, twice_offset = _MODE_ANGLES[HankelVariant.coerce(variant)]
    d = 2 * (n + shift)  # mode j samples entry k at the angle pi t / d, t = (2k - 2 offset) j
    phases = np.outer(2 * np.arange(1, n + 1) - twice_offset, np.arange(first, first + n))
    if cosine:
        phases, d = 2 * phases + d, 2 * d  # cos(pi t / d) = sin(pi (2t + d) / 2d)
    return _sines(phases, d)


def _symbol_table(bands, n, variant):
    """The mode angle multipliers, each band's symbol at each mode's angle (a row per mode, a column
    per band), and each band's zero floor: ``SYMBOL_ZERO_RTOL`` times the sum of its moduli.

    The bands share one bandwidth m, and n is a whole number that a float holds, ``1 <= m <= n-1``.
    """
    bands = [as_band(b) for b in bands]
    variant = HankelVariant.coerce(variant)
    if len({b.size for b in bands}) != 1:
        raise BadBandwidthError("all coefficient bands must share one bandwidth")
    size = _as_size(n)
    if not 1 <= bands[0].size - 1 <= size - 1:
        raise BadBandwidthError(f"need 1 <= m <= n-1, got m={bands[0].size - 1}, n={n}")
    h, angles = mode_angles(variant, size)
    bands = np.array(bands)
    return angles, _symbols(bands, np.pi * h * angles), SYMBOL_ZERO_RTOL * np.abs(bands).sum(axis=1)


def _mode_roots(table, floors):
    """Each row's degree and roots, rows ascending: the degree is the highest power above that power's
    floor (0 if none is); ``roots[i]`` holds row i's in :func:`batched_roots`'s order, then zeros."""
    above = (np.abs(table) > floors).T  # by power: a reduction along such short rows costs twice as much
    if above[-1].all():  # no power drops, as is usual: one batch of every row
        return np.full(len(table), len(above) - 1), batched_roots(table)
    degrees = functools.reduce(lambda degree, k: np.where(above[k], k, degree), range(1, len(above)), 0)
    batches = {d: batched_roots(table[degrees == d, : d + 1]) for d in set(degrees.tolist()) - {0}}
    roots = np.zeros((table.shape[0], table.shape[1] - 1), dtype=np.result_type(float, *batches.values()))
    for d, batch in batches.items():
        roots[degrees == d, :d] = batch
    return degrees, roots


def gevp_eigenvalues(alpha, beta, n: int, variant) -> np.ndarray:
    """The n eigenvalues of the pencil built from two shared-bandwidth bands, in mode order.

    The eigenvalue of mode j is the ratio of the two symbols at that mode's
    angle.  Raises :class:`SingularPencilError` when the denominator symbol
    vanishes at a sampled angle.
    """
    angles, table, floors = _symbol_table((alpha, beta), n, variant)
    # at or below the floor: an all-zero band's floor is 0, and its symbol with it
    bad = np.flatnonzero(np.abs(table[:, 1]) <= floors[1])
    if bad.size:
        raise SingularPencilError(
            f"denominator symbol vanishes at mode angle index {angles[bad[0]]}"
        )
    return divide_symbols(table[:, 0], table[:, 1])


def gevp_eigenpairs(alpha, beta, n: int, variant) -> EigenSolution:
    """All n eigenpairs: :func:`gevp_eigenvalues` with the variant's sampled sine or cosine."""
    values = gevp_eigenvalues(alpha, beta, n, variant)
    return EigenSolution(
        modes=np.arange(1, values.size + 1),
        values=values,
        vectors=eigenvector_basis(variant, values.size),
    )


def corner_block_quadratic_bands(alpha, beta):
    """The three order-1 bands whose quadratic pencil condenses the corner-block pencil.

    Returns ascending-power bands ``(d, c, b)`` for ``lam^2 B + lam C + D = 0``:
    position k in the result multiplies ``lam^k``.
    """
    if np.shape(alpha) != (4,) or np.shape(beta) != (4,):
        raise ValueError("corner-block pencils take exactly four parameters per side")
    alpha, beta = as_band(alpha), as_band(beta)
    band_b = np.array([beta[0] * beta[3] - 2.0 * beta[1] ** 2, beta[2] * beta[3] - beta[1] ** 2])
    band_c = np.array(
        [
            4.0 * alpha[1] * beta[1] - beta[0] * alpha[3] - alpha[0] * beta[3],
            2.0 * alpha[1] * beta[1] - beta[2] * alpha[3] - alpha[2] * beta[3],
        ]
    )
    band_d = np.array([alpha[0] * alpha[3] - 2.0 * alpha[1] ** 2, alpha[2] * alpha[3] - alpha[1] ** 2])
    return band_d, band_c, band_b


def _vertex_samples(angles, count):
    """Samples ``sin(j pi k / (count+1))``: rows are vertices k = 0..count+1, columns angle indices j.

    Rows 0 and count+1, the Dirichlet ends, are exact zeros.
    """
    return _sines(np.multiply.outer(np.arange(count + 2), angles), count + 1)


def _corner_block_roots(alpha, beta, half_n):
    """The values step of :func:`corner_block_eigenpairs`, which builds no vector: the parameter
    bands, the angles, the symbols of the quadratic's bands, each side's even band ``(x0, x2)`` and the
    fold ``(2, 1)`` (a column each), each angle's two roots ("-" first), which of them are modes (both
    unless the quadratic is linear), and every eigenvalue in mode order, float64 where none is complex."""
    bands = corner_block_quadratic_bands(alpha, beta)  # checks the shapes first
    alpha, beta = as_band(alpha), as_band(beta)
    n = _as_size(half_n, "half_n")
    if n < 1:
        raise TooSmallError(f"half_n={half_n} must be at least 1")
    if beta[3] == 0:
        raise SingularPencilError("odd-diagonal parameter beta[3] must be nonzero")

    # per-angle coefficients of a_hat lam^2 + b_hat lam + c_hat = 0, ascending
    thetas = np.pi * (1.0 / (n + 1)) * np.arange(1, n + 1)
    table = _symbols(np.array((*bands, alpha[::2], beta[::2], (2.0, 1.0))), thetas)
    scale_a, scale_b = float(np.sum(np.abs(alpha))), float(np.sum(np.abs(beta)))
    floors = SYMBOL_ZERO_RTOL * np.array([scale_a * scale_a, scale_a * scale_b, scale_b * scale_b])
    degrees, roots = _mode_roots(table[:, :3], floors)
    if not degrees.all():
        raise DegenerateQuadraticError(
            f"quadratic and linear coefficients both vanish at angle index {np.argmin(degrees) + 1}"
        )
    roots[degrees == 2] = roots[degrees == 2, ::-1]  # the "-" root first
    kept = np.arange(2) < degrees[:, None]
    return alpha, beta, thetas, table, roots, kept, np.append(roots[kept], alpha[3] / beta[3])


def corner_block_eigenpairs(alpha, beta, half_n: int) -> EigenSolution:
    """Every eigenpair of a corner-overlapped block-diagonal pencil.

    Modes ``2j-1`` and ``2j`` carry the two roots of a scalar quadratic per
    interior angle ("-" root first, "+" root second); the final mode
    ``2*half_n+1`` is the flat ratio ``lam0 = alpha[3] / beta[3]`` of the odd
    diagonal entries with an alternating odd-entry eigenvector.  A mode's
    even entries sample a sine at its angle index, the odd ones add their
    two neighbours, and the two parts are weighted by a null vector of the
    mode's 2x2 symbol.  When ``alpha[1] beta[3] = alpha[3] beta[1]``, lam0 is
    a root of every quadratic and its vectors live on the odd entries; where
    both roots of a mode are lam0, the second one lives on the even entries.
    Angle j's quadratic keeps each power whose coefficient is above ``SYMBOL_ZERO_RTOL`` times
    (sum|alpha|)^2, sum|alpha| sum|beta| or (sum|beta|)^2, the scales of the products it sums;
    where it is linear, its one root is mode ``2j-1`` and ``2j`` is missing from ``modes``.
    """
    alpha, beta, thetas, table, roots, kept, values = _corner_block_roots(alpha, beta, half_n)
    n = thetas.size

    # each root's weights on the even and odd entries span the null space of
    # its mode's 2x2 symbol [[vertex, fold * coupling], [coupling, -odd]],
    # taken from the larger row; near lam0 the second row, which gives the
    # odd-entry ratio coupling / odd, vanishes
    vertex_a, vertex_b, fold = table[:, 3:4], table[:, 4:5], table[:, 5:6].real  # fold: 2 + 2 cos(theta)
    vertex = vertex_a - roots * vertex_b
    coupling = alpha[1] - roots * beta[1]
    odd = roots * beta[3] - alpha[3]
    first, second = abs(vertex) + fold * abs(coupling), abs(coupling) + abs(odd)
    weights = np.where(second >= first, [odd, coupling], [fold * coupling, -vertex])
    # where the whole symbol vanishes, both roots are lam0 and any weights
    # will do: the first root takes the odd entries, the second the even ones
    scale = abs(vertex_a) + abs(alpha[1]) + abs(alpha[3])
    scale = scale + abs(roots) * (abs(vertex_b) + abs(beta[1]) + abs(beta[3]))
    double = (np.maximum(first, second) <= SYMBOL_ZERO_RTOL * scale).any(axis=1)
    weights[0, double] = [0.0, 1.0]
    weights[1, double] = [1.0, 0.0]
    weights *= 1.0 / abs(weights).max(axis=0)  # as numpy's complex division rounds, real or complex
    w_even, w_odd = weights[:, kept]
    angles = np.repeat(np.arange(1, n + 1), 2)[kept.ravel()]
    even = _vertex_samples(np.arange(1, n + 1), n)[:, angles - 1]  # even[k] = entry 2k
    count = angles.size
    vectors = np.zeros((2 * n + 1, count + 1), dtype=values.dtype)
    vectors[1::2, :count] = w_even * even[1:-1]             # entries 2k
    vectors[0::2, :count] = w_odd * (even[:-1] + even[1:])  # entries 2k+1
    vectors[0::2, count] = (-1.0) ** np.arange(n + 1)  # entries 1, 3, ..., 2n+1

    return EigenSolution(
        modes=np.append(np.arange(1, 2 * n + 1).reshape(n, 2)[kept], 2 * n + 1),
        values=values,
        vectors=vectors,
    )


def _fem_p2_order(n: int) -> np.ndarray:
    """The corner block's modes in fem-p2's order: its even indices, the "-" roots and last the flat
    mode, then its odd ones, the "+" roots."""
    return np.concatenate((np.arange(0, 2 * n - 1, 2), np.arange(1, 2 * n - 1, 2)))


def fem_p2_eigenvalues(n_elems: int) -> np.ndarray:
    """Eigenvalues of the quadratic-element stiffness/mass pencil, in mode order (real).

    The pencil is the corner block of ``K 3h = (14, -8, 1, 16)`` and
    ``M 30/h = (8, 2, -1, 16)`` with ``n_elems - 1`` blocks, its eigenvalues
    scaled by ``10 n^2``.  Modes 1..n-1 are the "-" roots, the lower branch;
    mode n is the flat ``10 n^2``; modes n+1..2n-1 are the "+" roots at
    angle index ``j - n``, the upper branch.  The parameters are integers,
    so the constant coefficient's symbol is exactly 0 at angle 0, and the
    lower branch keeps full relative accuracy near the continuum.
    """
    n = _element_count(n_elems)
    values = _corner_block_roots(_FEM_P2_STIFFNESS_3H, _FEM_P2_MASS_30_PER_H, n - 1)[-1]
    return values[_fem_p2_order(n)] * (10.0 * n * n)


def fem_p2_eigenpairs(n_elems: int) -> EigenSolution:
    """Closed-form eigenpairs: :func:`fem_p2_eigenvalues` with the corner block's eigenvectors.

    Mode n alternates on the odd entries; every other mode samples a sine at
    its angle index on the even entries and fills the odd ones from their
    two neighbours, weighted by a null vector of the mode's 2x2 symbol.
    """
    n = _element_count(n_elems)
    block = corner_block_eigenpairs(_FEM_P2_STIFFNESS_3H, _FEM_P2_MASS_30_PER_H, n - 1)
    order = _fem_p2_order(n)  # every mode is kept, so the labels stay 1..2n-1
    # take, unlike [:, order], keeps the vectors C-ordered, which the banded residuals read faster
    block.values, block.vectors = block.values[order] * (10.0 * n * n), block.vectors.take(order, axis=1)
    return block


def _fem_p3_modes(n_elems: int):
    """The mode cubic's roots ``s = lam h^2``, one row per interior angle, and every eigenvalue.

    The roots are float64 unless one is complex.  The eigenvalues are the
    roots times the rounded ``1/h^2`` row by row, as numpy divides a complex
    root by ``h^2``, then ``10 n^2`` and ``42 n^2``, unsorted.
    """
    n = _element_count(n_elems)
    h = 1.0 / n
    # the mode cubic, ascending: -25200 (1 - cos), 360 (32 + 3 cos), -30 (18 - cos), 4 + cos >= 3 (no power drops)
    bands = np.array([(-25200.0, 12600.0), (11520.0, 540.0), (-540.0, 15.0), (4.0, 0.5)])
    roots = _mode_roots(_symbols(bands, np.pi * h * np.arange(1, n)), 0.0)[1]
    return roots, np.concatenate((roots.ravel() * (1.0 / (h * h)), [10.0 * n * n, 42.0 * n * n]))


def fem_p3_eigenvalues(n_elems: int) -> np.ndarray:
    """Eigenvalues of the cubic-element stiffness/mass pencil, ascending.

    Each interior angle contributes the three roots of a scalar cubic in the
    mesh-scaled eigenvalue; the element-local modes contribute ``10 n^2``
    and ``42 n^2`` exactly.
    """
    values = _fem_p3_modes(n_elems)[1]
    return values[np.lexsort((values.imag, values.real))]


def fem_p3_eigenpairs(n_elems: int) -> EigenSolution:
    """Closed-form eigenpairs: :func:`fem_p3_eigenvalues`, in its order, with their eigenvectors.

    A mode of the cubic at angle index j samples ``sin(j pi k h)`` at the
    vertices; the two interior nodes of element e solve the element's
    interior block, ``(K_ii - s M_ii) u = -(K_ib - s M_ib) [v_e, v_e+1]``
    with ``s = lam h^2``.  The element-local modes vanish at the vertices:
    ``(1, 1)`` on every element, alternating in sign, for ``10 n^2``, and
    ``(1, -1)`` on every element for ``42 n^2``.
    """
    roots, values = _fem_p3_modes(n_elems)
    n = (values.size + 1) // 3  # the dimension is 3n - 1
    s = roots.ravel()
    count = s.size
    # the interior rows of each mode's local K - s M, in local node order
    rows = _FEM_P3_K_LOCAL[1:3] - s[:, None, None] * _FEM_P3_M_LOCAL[1:3]
    vertex = _vertex_samples(np.repeat(np.arange(1, n), 3), n - 1)  # vertex[k] = node 3k
    ends = np.stack((vertex[:-1].T, vertex[1:].T), axis=1)  # [v_e, v_e+1] by mode, end, element
    nodes = np.linalg.solve(rows[:, :, 1:3], -rows[:, :, [0, 3]] @ ends)
    vectors = np.zeros((3 * n - 1, count + 2))
    vectors[2::3, :count] = vertex[1:-1]      # node 3k is entry 3k-1
    vectors[0::3, :count] = nodes[:, 0].T     # nodes 3e+1 and 3e+2
    vectors[1::3, :count] = nodes[:, 1].T
    vectors[0::3, count] = vectors[1::3, count] = (-1.0) ** np.arange(n)  # 10 n^2
    vectors[0::3, count + 1] = 1.0                                         # 42 n^2
    vectors[1::3, count + 1] = -1.0
    order = np.lexsort((values.imag, values.real))
    return EigenSolution(
        modes=np.arange(1, 3 * n),
        values=values[order],
        vectors=vectors[:, order],
    )


def pevp_eigenpairs(bands, n: int, variant) -> PolynomialEigenSolution:
    """Per-mode roots of ``P(lam) = sum_k lam^k A_k``, A_k the variant's matrix of ``bands[k]``.

    At least two bands share one bandwidth m, ``1 <= m <= n-1``.  Mode j's
    eigenvalues are the roots of the scalar polynomial whose k-th
    coefficient is the k-th band's symbol at mode j's angle; the variant's
    sampled eigenvector is shared by all of that mode's roots.  A mode drops
    each leading power whose symbol is at most ``SYMBOL_ZERO_RTOL`` times its
    band's sum of moduli; such modes are flagged and return fewer roots.
    """
    if len(bands) < 2:
        raise ValueError("a polynomial pencil needs degree q >= 1 (at least two bands)")
    angles, table, floors = _symbol_table(bands, n, variant)
    degrees, roots = _mode_roots(table, floors)
    return PolynomialEigenSolution(
        modes=np.arange(1, angles.size + 1),
        mode_roots=[row[:d] for row, d in zip(roots, degrees.tolist())],
        vectors=eigenvector_basis(variant, angles.size),
        degree_drops=tuple((np.flatnonzero(degrees < len(bands) - 1) + 1).tolist()),
    )


def tensor_eigenpairs(left: EigenSolution, right: EigenSolution) -> EigenSolution:
    """Eigenpairs of a two-factor tensor pencil by sum-and-product composition.

    Pair (j, k) has eigenvalue ``left_j + right_k`` and eigenvector
    ``kron(x_j, y_k)``; the result enumerates pairs with the right factor
    fastest.
    """
    count = left.n_modes * right.n_modes
    values = np.add.outer(left.values, right.values).reshape(count)
    return EigenSolution(
        modes=np.arange(1, count + 1),
        values=values,
        vectors=np.kron(left.vectors, right.vectors),  # column j n_R + k is kron(x_j, y_k)
    )


def scale_pencil(sol: EigenSolution, c1, c2) -> EigenSolution:
    """Spectrum of the pencil after scaling its two sides by constants.

    If ``A x = lam B x`` then ``c1 A x = (lam c1 / c2) c2 B x``, so the
    eigenvalues pick up the factor ``c1 / c2`` and the eigenvectors are
    untouched; a real factor keeps real values real.
    """
    c1, c2 = complex(c1), complex(c2)
    if c1 == 0 or c2 == 0:
        raise ZeroScaleError("scaling constants must be nonzero")
    factor = c1 / c2
    return dataclasses.replace(sol, values=sol.values * (factor.real if factor.imag == 0 else factor))

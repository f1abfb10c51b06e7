"""Closed-form eigenpairs for the structured matrix families.

Each generator evaluates a trigonometric symbol at mode angles and pairs the
resulting eigenvalue with a sampled sine or cosine eigenvector.  The
corner-overlapped families reduce, mode by mode, to scalar quadratics or
cubics whose roots are taken directly; their eigenvectors sample a sine at
the shared vertices and fill the remaining entries in closed form.  Nothing
here calls the numeric oracle that checks these formulas.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadBandwidthError,
    DegenerateQuadraticError,
    SingularPencilError,
    TooSmallError,
    ZeroScaleError,
)
from .families import _FEM_P3_K_LOCAL, _FEM_P3_M_LOCAL, HankelVariant, as_band
from .linalg import batched_roots
from .solution import ANALYTIC, NUMERIC, EigenSolution, PolynomialEigenSolution

SYMBOL_ZERO_RTOL = 1e-12
QUADRATIC_DEGENERACY_TOL = 1e-14
# pi - fl(pi) to double precision, so that pi - theta is exact to rounding
_PI_TAIL = math.sin(math.pi)


def symbol(band, theta):
    """Trigonometric symbol ``band[0] + 2 * sum_l band[l] * cos(l*theta)``.

    Accepts a scalar angle or an array of angles.  Below ``pi/2`` it is
    evaluated as ``s(0) - 4 sum_l band[l] sin^2(l*theta/2)``, above as
    ``s(pi) - 4 sum_l (-1)^l band[l] sin^2(l*(pi-theta)/2)`` (the
    ``cos^2(theta/2)`` form for l=1), with the constants ``s(0)`` and
    ``s(pi)`` summed exactly and ``pi - theta`` taken against the exact pi.
    Each form keeps full relative accuracy near its end of the range, where
    the cosine form cancels.
    """
    band = as_band(band)
    theta_arr = np.asarray(theta, dtype=float)
    flat_theta = theta_arr.ravel()
    orders = np.arange(1, band.size)
    signs = np.where(orders % 2, -1.0, 1.0)
    terms = np.concatenate((band[:1], 2.0 * band[1:]))
    at_pi = terms * np.concatenate(([1.0], signs))
    s_zero, s_pi = (complex(math.fsum(t.real.tolist()), math.fsum(t.imag.tolist())) for t in (terms, at_pi))
    near_pi = flat_theta > 0.5 * np.pi
    reduced = np.where(near_pi, (np.pi - flat_theta) + _PI_TAIL, flat_theta)
    half_sines = np.sin(0.5 * np.multiply.outer(orders, reduced))
    squares = half_sines * half_sines
    acc = np.where(
        near_pi,
        s_pi - 4.0 * ((signs * band[1:]) @ squares),
        s_zero - 4.0 * (band[1:] @ squares),
    ).reshape(theta_arr.shape)
    return complex(acc) if theta_arr.ndim == 0 else acc


def divide_symbols(numerator, denominator) -> np.ndarray:
    """The quotients of two 1-D arrays of symbol values, correctly rounded where both are real.

    numpy's complex division multiplies by a rounded reciprocal, even on
    real values.  So complex values divide by Python's complex division,
    which on real values is real division.  Real values take numpy's real
    division, the same quotients, and stay float64: the Python loop alone
    would double the cost of :func:`gevp_eigenvalues` at n = 2000.
    """
    if not (numerator.imag.any() or denominator.imag.any()):
        return numerator.real / denominator.real
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


def gevp_eigenvalues(alpha, beta, n: int, variant) -> np.ndarray:
    """The n eigenvalues of the pencil built from two shared-bandwidth bands, in mode order.

    The eigenvalue of mode j is the ratio of the two symbols at that mode's
    angle.  Raises :class:`SingularPencilError` when the denominator symbol
    vanishes at a sampled angle.
    """
    alpha, beta = as_band(alpha), as_band(beta)
    variant = HankelVariant.coerce(variant)
    if alpha.size != beta.size:
        raise BadBandwidthError(
            f"bands must share a bandwidth, got m={alpha.size - 1} and m={beta.size - 1}"
        )
    m = alpha.size - 1
    if not 1 <= m <= n - 1:
        raise BadBandwidthError(f"need 1 <= m <= n-1, got m={m}, n={n}")
    h, angles = mode_angles(variant, n)
    thetas = np.pi * h * angles
    denom = symbol(beta, thetas)
    # at or below the floor: an all-zero band's floor is 0, and its symbol with it
    bad = np.flatnonzero(np.abs(denom) <= SYMBOL_ZERO_RTOL * float(np.sum(np.abs(beta))))
    if bad.size:
        raise SingularPencilError(
            f"denominator symbol vanishes at mode angle index {angles[bad[0]]}"
        )
    return divide_symbols(symbol(alpha, thetas), denom)


def gevp_eigenpairs(alpha, beta, n: int, variant) -> EigenSolution:
    """All n eigenpairs: :func:`gevp_eigenvalues` with the variant's sampled sine or cosine."""
    values = gevp_eigenvalues(alpha, beta, n, variant)
    return EigenSolution(
        modes=np.arange(1, n + 1),
        values=values,
        vectors=eigenvector_basis(variant, n),
        provenance=ANALYTIC,
        h=mode_angles(variant, n)[0],
    )


def corner_block_quadratic_bands(alpha, beta):
    """The three order-1 bands whose quadratic pencil condenses the corner-block pencil.

    Returns ascending-power bands ``(d, c, b)`` for ``lam^2 B + lam C + D = 0``:
    position k in the result multiplies ``lam^k``.
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
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
    Where angle j's quadratic degenerates to linear, its one root is mode
    ``2j-1`` and the label ``2j`` is missing from ``modes``.
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    if alpha.shape != (4,) or beta.shape != (4,):
        raise ValueError("corner-block pencils take exactly four parameters per side")
    if half_n < 1:
        raise TooSmallError(f"half_n={half_n} must be at least 1")
    if beta[3] == 0:
        raise SingularPencilError("odd-diagonal parameter beta[3] must be nonzero")
    n = half_n
    h = 1.0 / (n + 1)
    dim = 2 * n + 1

    # per-angle coefficients of a_hat lam^2 + b_hat lam + c_hat = 0, ascending
    thetas = np.pi * h * np.arange(1, n + 1)
    bands = corner_block_quadratic_bands(alpha, beta)
    table = np.stack([symbol(band, thetas) for band in bands], axis=1)
    linear = np.abs(table[:, 2]) < QUADRATIC_DEGENERACY_TOL
    dead = np.flatnonzero(linear & (np.abs(table[:, 1]) < QUADRATIC_DEGENERACY_TOL))
    if dead.size:
        raise DegenerateQuadraticError(
            f"quadratic and linear coefficients both vanish at angle index {dead[0] + 1}"
        )
    roots = np.zeros((n, 2), dtype=complex)
    roots[~linear] = batched_roots(table[~linear])[:, ::-1]  # the "-" root first
    roots[linear, :1] = batched_roots(table[linear, :2])
    kept = np.ones((n, 2), dtype=bool)
    kept[:, 1] = ~linear

    # each root's weights on the even and odd entries span the null space of
    # its mode's 2x2 symbol [[vertex, fold * coupling], [coupling, -odd]],
    # taken from the larger row; near lam0 the second row, which gives the
    # odd-entry ratio coupling / odd, vanishes
    fold = 4.0 * np.cos(0.5 * thetas)[:, None] ** 2  # 2 + 2 cos(theta)
    vertex_a, vertex_b = (symbol(side[::2], thetas)[:, None] for side in (alpha, beta))
    vertex = vertex_a - roots * vertex_b
    coupling = alpha[1] - roots * beta[1]
    odd = roots * beta[3] - alpha[3]
    first, second = abs(vertex) + fold * abs(coupling), abs(coupling) + abs(odd)
    weights = np.where(second >= first, [odd, coupling], [fold * coupling, -vertex])
    # where the whole symbol vanishes, both roots are lam0 and any weights
    # will do: the first root takes the odd entries, the second the even ones
    scale = abs(vertex_a) + abs(alpha[1]) + abs(alpha[3])
    scale = scale + abs(roots) * (abs(vertex_b) + abs(beta[1]) + abs(beta[3]))
    double = (np.maximum(first, second) <= 1e-12 * scale).any(axis=1)
    weights[0, double] = [0.0, 1.0]
    weights[1, double] = [1.0, 0.0]
    weights /= abs(weights).max(axis=0)
    values, (w_even, w_odd) = roots[kept], weights[:, kept]
    if not (alpha.imag.any() or beta.imag.any() or values.imag.any()):  # real vectors, lam0 by real division
        alpha, beta, values, w_even, w_odd = alpha.real, beta.real, values.real, w_even.real, w_odd.real
    angles = np.repeat(np.arange(1, n + 1), 2)[kept.ravel()]
    even = _vertex_samples(angles, n)  # even[k] = entry 2k
    count = values.size
    vectors = np.zeros((dim, count + 1), dtype=values.dtype)
    vectors[1::2, :count] = w_even * even[1:-1]             # entries 2k
    vectors[0::2, :count] = w_odd * (even[:-1] + even[1:])  # entries 2k+1
    vectors[0::2, count] = (-1.0) ** np.arange(n + 1)  # entries 1, 3, ..., 2n+1

    return EigenSolution(
        modes=np.append(np.arange(1, 2 * n + 1).reshape(n, 2)[kept], 2 * n + 1),
        values=np.append(values, alpha[3] / beta[3]),
        vectors=vectors,
        provenance=ANALYTIC,
        h=h,
    )


def fem_p2_eigenvalues(n_elems: int) -> np.ndarray:
    """Eigenvalues of the quadratic-element stiffness/mass pencil, in mode order (real).

    Three branches: a lower branch for modes 1..n-1, the flat eigenvalue
    ``10 n^2`` at mode n, and an upper branch for modes n+1..2n-1 sampled at
    the reflected angle index ``j - n``.
    """
    if n_elems < 2:
        raise TooSmallError(f"need at least 2 elements, got {n_elems}")
    n = n_elems
    h = 1.0 / n
    angles = np.arange(1, n)
    c = np.cos(angles * np.pi * h)
    upper = 13.0 + 2.0 * c + np.sqrt(124.0 + 112.0 * c - 11.0 * c * c)
    # 13 + 2c - sqrt(...) cancels as c -> 1; by Vieta it is 15 (1 - c)(3 - c) / upper
    lower = 120.0 * np.sin(0.5 * angles * np.pi * h) ** 2 / upper * n * n
    return np.concatenate((lower, [10.0 * n * n], 4.0 * upper / (3.0 - c) * n * n))


def fem_p2_eigenpairs(n_elems: int) -> EigenSolution:
    """Closed-form eigenpairs: :func:`fem_p2_eigenvalues` with their sampled eigenvectors.

    Mode n alternates on the odd entries; every other mode samples a sine at
    its angle index on the even entries and fills the odd ones from their
    two neighbours.
    """
    values = fem_p2_eigenvalues(n_elems)
    n = n_elems
    h = 1.0 / n
    dim = 2 * n - 1
    sampled = np.flatnonzero(np.arange(1, dim + 1) != n)  # columns of every mode but n
    scaled = values[sampled] * h * h
    factor = (40.0 + scaled) / (80.0 - 8.0 * scaled)
    even = _vertex_samples(np.tile(np.arange(1, n), 2), n - 1)  # even[k] = entry 2k, k = 0..n
    vectors = np.zeros((dim, dim))
    vectors[1::2, sampled] = even[1:n]                       # entries 2k, k=1..n-1
    vectors[0::2, sampled] = factor * (even[:n] + even[1:])  # entries 2k+1
    vectors[0::2, n - 1] = (-1.0) ** np.arange(n)
    return EigenSolution(
        modes=np.arange(1, dim + 1),
        values=values,
        vectors=vectors,
        provenance=ANALYTIC,
        h=h,
    )


def _fem_p3_modes(n_elems: int):
    """The mode cubic's roots ``s = lam h^2``, one row per interior angle, and every eigenvalue.

    The roots are float64 unless one is complex.  The eigenvalues are the
    roots times the rounded ``1/h^2`` row by row, as numpy divides a complex
    root by ``h^2``, then ``10 n^2`` and ``42 n^2``, unsorted.
    """
    if n_elems < 2:
        raise TooSmallError(f"need at least 2 elements, got {n_elems}")
    n = n_elems
    h = 1.0 / n
    thetas = np.pi * h * np.arange(1, n)
    zeta = np.cos(thetas)
    coeffs = np.stack(
        (
            # -25200 (1 - zeta), without the cancellation at small angles
            -50400.0 * np.sin(0.5 * thetas) ** 2,
            360.0 * (32.0 + 3.0 * zeta),
            -30.0 * (18.0 - zeta),
            4.0 + zeta,
        ),
        axis=1,
    )
    roots = batched_roots(coeffs)
    if not roots.imag.any():
        roots = roots.real
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
    n = n_elems
    h = 1.0 / n
    s = roots.real.ravel()
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
        provenance=ANALYTIC,
        h=h,
    )


@dataclass
class PolynomialPencil:
    """Coefficient bands of ``P(lam) = sum_k lam^k A_k`` over one variant.

    ``bands[k]`` holds the band of the k-th power's matrix; all bands share
    one bandwidth, and every coefficient matrix is assembled with the same
    corner-correction variant.
    """

    bands: tuple
    variant: HankelVariant
    n: int

    def __post_init__(self):
        self.bands = tuple(as_band(b) for b in self.bands)
        self.variant = HankelVariant.coerce(self.variant)
        if len(self.bands) < 2:
            raise ValueError("a polynomial pencil needs degree q >= 1 (at least two bands)")
        widths = {b.size for b in self.bands}
        if len(widths) != 1:
            raise BadBandwidthError("all coefficient bands must share one bandwidth")
        m = self.bands[0].size - 1
        if not 1 <= m <= self.n - 1:
            raise BadBandwidthError(f"need 1 <= m <= n-1, got m={m}, n={self.n}")

    @property
    def degree(self) -> int:
        return len(self.bands) - 1


def pevp_eigenpairs(pencil: PolynomialPencil) -> PolynomialEigenSolution:
    """Per-mode roots of a polynomial pencil built from shared-bandwidth bands.

    Mode j's eigenvalues are the roots of the scalar polynomial whose k-th
    coefficient is the k-th band's symbol at mode j's angle; the variant's
    sampled eigenvector is shared by all of that mode's roots.  Modes whose
    leading symbol vanishes are flagged and return fewer roots.
    """
    h, angles = mode_angles(pencil.variant, pencil.n)
    thetas = np.pi * h * angles
    basis = eigenvector_basis(pencil.variant, pencil.n)
    floors = np.array([SYMBOL_ZERO_RTOL * float(np.sum(np.abs(b))) for b in pencil.bands])
    table = np.stack([symbol(b, thetas) for b in pencil.bands], axis=1)
    # each mode's degree is its highest power whose symbol is above the floor (0 for a zero band)
    above = np.abs(table) > floors
    above[:, 0] = True
    degrees = pencil.degree - np.argmax(above[:, ::-1], axis=1)
    mode_roots = [np.empty(0, dtype=complex)] * pencil.n
    for degree in np.unique(degrees[degrees > 0]):
        rows = np.flatnonzero(degrees == degree)
        for i, roots in zip(rows, batched_roots(table[rows, : degree + 1])):
            mode_roots[i] = roots
    drops = np.flatnonzero(degrees < pencil.degree) + 1
    return PolynomialEigenSolution(
        modes=np.arange(1, pencil.n + 1),
        mode_roots=mode_roots,
        vectors=basis,
        h=h,
        degree_drops=tuple(drops.tolist()),
    )


def tensor_eigenpairs(left: EigenSolution, right: EigenSolution) -> EigenSolution:
    """Eigenpairs of a two-factor tensor pencil by sum-and-product composition.

    Pair (j, k) has eigenvalue ``left_j + right_k`` and eigenvector
    ``kron(x_j, y_k)``; the result enumerates pairs with the right factor
    fastest.
    """
    count = left.n_modes * right.n_modes
    values = np.add.outer(left.values, right.values).reshape(count)
    provenance = ANALYTIC if left.provenance == right.provenance == ANALYTIC else NUMERIC
    return EigenSolution(
        modes=np.arange(1, count + 1),
        values=values,
        vectors=np.kron(left.vectors, right.vectors),  # column j n_R + k is kron(x_j, y_k)
        provenance=provenance,
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

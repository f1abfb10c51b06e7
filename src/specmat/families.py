"""Builders for every structured matrix family the library knows about.

All builders return dense complex arrays, assembled in place from their
structure: one strided write per diagonal of a zero-filled array, the Hankel
corners (O(m^2) entries) added into that array, the cubic elements scattered
in one vectorized add.  Beyond the zero fill, the work follows the nonzeros.
The four Hankel boundary-correction variants differ only in which corner
entries they touch and in the sign with which the correction combines with
the banded Toeplitz part.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import (
    BadBandwidthError,
    OverlapError,
    ShapeMismatchError,
    TooSmallError,
)
from .linalg import as_square, kron


class HankelVariant(enum.IntEnum):
    """Which corner-correction rule (and combination sign) to use.

    SET1/SET2 subtract their correction from the Toeplitz part, SET3/SET4
    add it.  SET2 and SET4 shift the band index by a half step, which pairs
    them with half-integer sampled eigenvectors.
    """

    SET1 = 1
    SET2 = 2
    SET3 = 3
    SET4 = 4

    @property
    def sign(self) -> int:
        return -1 if self in (HankelVariant.SET1, HankelVariant.SET2) else +1

    @classmethod
    def coerce(cls, value) -> "HankelVariant":
        if isinstance(value, cls):
            return value
        try:
            return cls(int(value))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"unknown Hankel variant {value!r}") from exc


def as_band(values) -> np.ndarray:
    band = np.atleast_1d(np.asarray(values, dtype=complex))
    if band.ndim != 1 or band.size == 0:
        raise BadBandwidthError("a coefficient band must be a nonempty 1-D sequence")
    return band


def _check_bandwidth(m: int, n: int):
    if m < 1:
        raise BadBandwidthError(f"bandwidth m={m} must be at least 1")
    if m > n - 1:
        raise BadBandwidthError(f"bandwidth m={m} too large for dimension n={n}")


def _diagonal(a: np.ndarray, k: int) -> np.ndarray:
    """Writable view of diagonal ``k`` of the square C-contiguous array ``a``; ``k < 0`` lies below."""
    n = a.shape[0]
    flat = a.reshape(-1)
    return flat[k:n * (n - k):n + 1] if k >= 0 else flat[-k * n::n + 1]


def _banded(band: np.ndarray, n: int) -> np.ndarray:
    """The n x n symmetric Toeplitz matrix of ``band``: one strided write per diagonal."""
    out = np.zeros((n, n), dtype=complex)
    flat = out.reshape(-1)
    for k, value in enumerate(band[:n].tolist()):
        flat[k:n * (n - k):n + 1] = value  # diagonal k above
        flat[k * n::n + 1] = value  # and below
    return out


def build_toeplitz(band, n: int) -> np.ndarray:
    """Symmetric banded Toeplitz matrix with ``T[j, j+k] = band[|k|]``."""
    band = as_band(band)
    m = band.size - 1
    _check_bandwidth(m, n)
    return _banded(band, n)


# each variant's top-left corner, top[at + r, at + c] = band[r + c + lead] (zero
# past the band's end), as (lead, at); SET3 is a halved corner entry plus the
# SET1 pattern shifted by one
_CORNER_RULES = {HankelVariant.SET1: (2, 0), HankelVariant.SET2: (1, 0),
                 HankelVariant.SET3: (2, 1), HankelVariant.SET4: (1, 0)}


def _hankel_corner(band: np.ndarray, n: int, variant: HankelVariant) -> np.ndarray:
    """The m x m top-left block of :func:`build_hankel`'s matrix, checks included.

    That matrix is ``top + top[::-1, ::-1]`` with ``top`` zero outside its
    m x m corner, so the block is the corner plus zeros, except that the two
    corners meet in its last diagonal entry when ``n = 2m - 1``.  The
    bottom-right block is its persymmetric reflection.
    """
    m = band.size - 1
    if m < 1:
        raise BadBandwidthError(f"bandwidth m={m} must be at least 1")
    if m > n:
        raise BadBandwidthError(f"bandwidth m={m} too large for dimension n={n}")
    if 2 * m - 1 > n:
        raise OverlapError(
            f"corner corrections collide for m={m}, n={n} (need 2m-1 <= n)"
        )
    lead, at = _CORNER_RULES[variant]
    padded = np.zeros(2 * m + 1, dtype=complex)
    padded[:m + 1] = band
    r = np.arange(m - at)
    top = np.zeros((m, m), dtype=complex)
    top[at:, at:] = padded[r[:, None] + (r + lead)]
    if variant == HankelVariant.SET3:
        top[0, 0] = -band[0] / 2.0
    corner = top + 0j  # the zeros of the reflection, which turn -0.0 parts into +0.0
    if n == 2 * m - 1:
        corner[-1, -1] = top[-1, -1] + top[-1, -1]
    return corner


def build_hankel(band, n: int, variant) -> np.ndarray:
    """Corner Hankel correction for one of the four boundary rules.

    The top-left block follows the variant's index rule; the bottom-right
    block is its persymmetric reflection ``H[n-j+1, n-k+1] = H[j, k]``.
    Raises :class:`OverlapError` when ``2m - 1 > n`` would make the two
    corrections collide.
    """
    band = as_band(band)
    variant = HankelVariant.coerce(variant)
    corner = _hankel_corner(band, n, variant)
    m = corner.shape[0]
    out = np.zeros((n, n), dtype=complex)
    out[:m, :m] = corner
    out[n - m:, n - m:] = corner[::-1, ::-1]
    return out


def assemble_toeplitz_hankel(band, n: int, variant) -> np.ndarray:
    """Toeplitz part combined with the variant's Hankel correction.

    SET1/SET2 produce ``T - H``, SET3/SET4 produce ``T + H``.  The result is
    always symmetric and persymmetric.  It is assembled in place, the band's
    diagonals and then the two m x m corner blocks, and every entry, signed
    zeros included, is that of the whole-matrix ``T + sign * H``.
    """
    band = as_band(band)
    variant = HankelVariant.coerce(variant)
    m = band.size - 1
    _check_bandwidth(m, n)
    sign = variant.sign
    block = _banded(band, m) + sign * _hankel_corner(band, n, variant)  # top-left m x m
    # off the corners H is zero, and adding sign * 0 turns some -0.0 parts into +0.0
    out = _banded(band + sign * 0j, n)
    out[:m, :m] = block
    out[n - m:, n - m:] = block[::-1, ::-1]  # T's corner blocks are persymmetric
    return out


def build_corner_block(xi, half_n: int) -> np.ndarray:
    """Corner-overlapped block-diagonal matrix of dimension ``2*half_n + 1``.

    Odd diagonal entries are ``xi[3]``, even diagonal entries ``xi[0]``, the
    first off-diagonal is ``xi[1]``, and even rows couple two steps over via
    ``xi[2]``.  Adjacent 3x3 blocks share one corner entry.
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (4,):
        raise ValueError("expected exactly four block parameters")
    if half_n < 1:
        raise TooSmallError(f"half_n={half_n} must be at least 1")
    dim = 2 * half_n + 1
    g = np.zeros((dim, dim), dtype=complex)
    # the diagonal alternates xi[3], xi[0]; every second row from the second
    # couples two steps over
    _diagonal(g, 0)[0::2] = xi[3]
    _diagonal(g, 0)[1::2] = xi[0]
    for k in (1, -1):
        _diagonal(g, k)[:] = xi[1]
    for k in (2, -2):
        _diagonal(g, k)[1::2] = xi[2]
    return g


# quadratic-element parameters: (even diagonal, off-diagonal, even skip, odd diagonal)
FEM_P2_STIFFNESS_BAND = (14.0 / 3.0, -8.0 / 3.0, 1.0 / 3.0, 16.0 / 3.0)
FEM_P2_MASS_BAND = (4.0 / 15.0, 1.0 / 15.0, -1.0 / 30.0, 8.0 / 15.0)

# cubic-element local matrices in node order (left, interior1, interior2, right),
# in units of 1/h and h respectively
_FEM_P3_K_LOCAL = np.array(
    [
        [37.0 / 10.0, -189.0 / 40.0, 27.0 / 20.0, -13.0 / 40.0],
        [-189.0 / 40.0, 54.0 / 5.0, -297.0 / 40.0, 27.0 / 20.0],
        [27.0 / 20.0, -297.0 / 40.0, 54.0 / 5.0, -189.0 / 40.0],
        [-13.0 / 40.0, 27.0 / 20.0, -189.0 / 40.0, 37.0 / 10.0],
    ]
)
_FEM_P3_M_LOCAL = np.array(
    [
        [8.0 / 105.0, 33.0 / 560.0, -3.0 / 140.0, 19.0 / 1680.0],
        [33.0 / 560.0, 27.0 / 70.0, -27.0 / 560.0, -3.0 / 140.0],
        [-3.0 / 140.0, -27.0 / 560.0, 27.0 / 70.0, 33.0 / 560.0],
        [19.0 / 1680.0, -3.0 / 140.0, 33.0 / 560.0, 8.0 / 105.0],
    ]
)


def build_fem_p2(n_elems: int):
    """Stiffness and mass matrices of quadratic elements on a uniform unit-interval mesh.

    Homogeneous Dirichlet ends, ``n_elems`` elements, matrices of dimension
    ``2*n_elems - 1``.  Returns ``(K, M)`` scaled by ``1/h`` and ``h``.
    """
    if n_elems < 2:
        raise TooSmallError(f"need at least 2 elements, got {n_elems}")
    h = 1.0 / n_elems
    stiffness = build_corner_block(np.asarray(FEM_P2_STIFFNESS_BAND, dtype=complex) / h, n_elems - 1)
    mass = build_corner_block(np.asarray(FEM_P2_MASS_BAND, dtype=complex) * h, n_elems - 1)
    return stiffness, mass


def build_fem_p3(n_elems: int):
    """Stiffness and mass matrices of cubic elements on a uniform unit-interval mesh.

    Homogeneous Dirichlet ends, ``n_elems`` elements, matrices of dimension
    ``3*n_elems - 1``; element blocks overlap in the shared-node corner.
    """
    if n_elems < 2:
        raise TooSmallError(f"need at least 2 elements, got {n_elems}")
    h = 1.0 / n_elems
    dim = 3 * n_elems - 1
    # element e holds global nodes 3e..3e+3; nodes 0 and 3*n_elems are the
    # clamped boundary, and node g is matrix index g - 1
    nodes = 3 * np.arange(n_elems)[:, None] + np.arange(4)
    rows = np.broadcast_to(nodes[:, :, None], (n_elems, 4, 4))
    cols = np.broadcast_to(nodes[:, None, :], (n_elems, 4, 4))
    kept = (rows >= 1) & (rows <= dim) & (cols >= 1) & (cols <= dim)
    index = (rows[kept] - 1, cols[kept] - 1)  # element by element, each in local order
    stiffness = np.zeros((dim, dim), dtype=complex)
    mass = np.zeros((dim, dim), dtype=complex)
    np.add.at(stiffness, index, np.broadcast_to(_FEM_P3_K_LOCAL / h, rows.shape)[kept])
    np.add.at(mass, index, np.broadcast_to(_FEM_P3_M_LOCAL * h, rows.shape)[kept])
    return stiffness, mass


def assemble_tensor_pencil(a, b, c, d):
    """Two-factor tensor pencil ``(kron(a, d) + kron(b, c), kron(b, d))``.

    ``a, b`` must share one square shape and ``c, d`` another; the assembled
    pair has the sum-of-spectra property checked in the analytic module.
    """
    a, b, c, d = as_square(a), as_square(b), as_square(c), as_square(d)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"left factors differ: {a.shape} vs {b.shape}")
    if c.shape != d.shape:
        raise ShapeMismatchError(f"right factors differ: {c.shape} vs {d.shape}")
    lhs = kron(a, d) + kron(b, c)
    rhs = kron(b, d)
    return lhs, rhs

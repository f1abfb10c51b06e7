"""Builders for every structured matrix family the library knows about.

Every family is banded with a small bandwidth m, and symmetric (complex
symmetric, not Hermitian).  Each has one representation, a
:class:`SymmetricBand`: LAPACK's upper band storage, an ``(m+1, n)`` array
with ``ab[m+i-j, j] = A[i, j]`` for ``i <= j`` (*LAPACK Users' Guide*,
section 5.3.3).  The ``*_band`` and ``*_bands`` functions return it;
assembling a band costs O(n m).  The Hankel corners (O(m^2) entries) are
folded into the band, and the cubic elements are written one diagonal
pattern at a time.  The dense builders return the same matrices as dense
arrays: a zero fill plus one strided write per band diagonal, above and
below.  The four Hankel boundary-correction variants differ only in which
corner entries they touch and in the sign with which the correction
combines with the banded Toeplitz part.  Band and dense matrix are float64
unless some parameter has a nonzero imaginary part, complex128 then.
"""

from __future__ import annotations

import enum
import numbers
from typing import NamedTuple

import numpy as np

from .errors import (
    BadBandwidthError,
    OverlapError,
    ShapeMismatchError,
    TooSmallError,
)
from .linalg import _real_or_complex, as_square


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
        try:
            variant = cls(int(value))
        except (ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"unknown Hankel variant {value!r}") from exc
        if variant != value:
            raise ValueError(f"unknown Hankel variant {value!r}")
        return variant


class SymmetricBand(NamedTuple):
    """A symmetric matrix in upper band storage.

    ``ab`` has shape ``(m+1, n)`` and holds ``A[i, j]`` at ``ab[m+i-j, j]``
    for ``max(0, j-m) <= i <= j``: row ``m - k`` is diagonal k, from column
    k on.  The unused entries ``ab[m-k, :k]`` are zero.
    """

    ab: np.ndarray

    def entries(self):
        """n, and row-major ``i, j, values`` of the entries with a part other than +0.0.

        O(n m): row i of a table holds ``A[i, i - m .. i + m]``, which is
        the band's column i and then, mirrored, diagonal d of the band at
        column ``i + d``.  Its slots outside the matrix hold +0.0, from the
        band's unused entries or from nothing, so they list nothing.  The
        values have the band's dtype.
        """
        ab = self.ab
        m, n = ab.shape[0] - 1, ab.shape[1]
        row = np.zeros((n, 2 * m + 1), dtype=ab.dtype)
        row[:, :m + 1] = ab.T
        for d in range(1, min(m, n - 1) + 1):
            row[:n - d, m + d] = ab[m - d, d:]
        flat = np.flatnonzero(not_plus_zero(row))
        i, t = np.divmod(flat, 2 * m + 1)
        return n, i, i - m + t, row.reshape(-1)[flat]

    def dense(self) -> np.ndarray:
        """The n x n matrix, entry for entry (signed zeros included) that of the band.

        Zeros plus one strided write per band diagonal, above and below.
        """
        ab = self.ab
        m, n = ab.shape[0] - 1, ab.shape[1]
        out = np.zeros((n, n), dtype=ab.dtype)
        flat = out.reshape(-1)
        for k in range(min(m, n - 1) + 1):
            diagonal = ab[m - k, k:]
            flat[k:n * (n - k):n + 1] = diagonal  # diagonal k above
            if k:
                flat[k * n::n + 1] = diagonal  # and below
        return out

    def __matmul__(self, x) -> np.ndarray:
        """``A @ x`` for a vector or an ``(n, p)`` block: one row-scaled add per diagonal, above and below."""
        m, n = self.ab.shape[0] - 1, self.ab.shape[1]
        xt = np.asarray(x).T  # the rows of x along the last axis, which numpy scales faster
        if xt.shape[-1:] != (n,):
            raise ShapeMismatchError(f"a band of dimension {n} cannot multiply shape {xt.T.shape}")
        out = self.ab[m] * xt
        for k in range(1, min(m, n - 1) + 1):
            diagonal = self.ab[m - k, k:]  # A[i, i + k] = A[i + k, i]
            out[..., :n - k] += diagonal * xt[..., k:]
            out[..., k:] += diagonal * xt[..., :n - k]
        return out.T

    def inf_norm(self) -> float:
        """``max_i sum_j |A[i, j]|``, from the band."""
        return float((SymmetricBand(abs(self.ab)) @ np.ones(self.ab.shape[1])).max())


def not_plus_zero(values: np.ndarray) -> np.ndarray:
    """Where an entry of the C-contiguous ``values`` has a part other than +0.0."""
    bits = values.view(np.uint64)
    if np.iscomplexobj(values):
        bits = bits[..., 0::2] | bits[..., 1::2]
    return bits != 0


def as_band(values) -> np.ndarray:
    """``values`` as a 1-D band: float64 unless some entry has a nonzero imaginary part."""
    band = np.atleast_1d(_real_or_complex(values))
    if band.ndim != 1 or band.size == 0:
        raise BadBandwidthError("a coefficient band must be a nonempty 1-D sequence")
    return band


def _as_size(n, name: str = "n") -> int:
    """``n`` as an int, refused unless it is a whole number that a float holds, as a size must be."""
    try:
        if not (isinstance(n, numbers.Real) and float(n).is_integer()):
            raise ValueError(f"{name} must be a whole number, got {n!r}")
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    return int(n)


def _check_bandwidth(m: int, n: int):
    if m < 1:
        raise BadBandwidthError(f"bandwidth m={m} must be at least 1")
    if m > n - 1:
        raise BadBandwidthError(f"bandwidth m={m} too large for dimension n={n}")


def _toeplitz_ab(band: np.ndarray, n: int) -> np.ndarray:
    """Band storage of the n x n symmetric Toeplitz matrix of ``band``, whose size is m + 1."""
    m = band.size - 1
    ab = np.zeros((m + 1, n), dtype=band.dtype)
    for k, value in enumerate(band.tolist()):
        ab[m - k, k:] = value
    return ab


def build_toeplitz(band, n: int) -> np.ndarray:
    """Symmetric banded Toeplitz matrix with ``T[j, j+k] = band[|k|]``."""
    band = as_band(band)
    _check_bandwidth(band.size - 1, n)
    return SymmetricBand(_toeplitz_ab(band, n)).dense()


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
    padded = np.zeros(2 * m + 1, dtype=band.dtype)
    padded[:m + 1] = band
    r = np.arange(m - at)
    top = np.zeros((m, m), dtype=band.dtype)
    top[at:, at:] = padded[r[:, None] + (r + lead)]
    if variant == HankelVariant.SET3:
        top[0, 0] = -band[0] / 2.0
    corner = top + 0.0  # the zeros of the reflection, which turn -0.0 parts into +0.0
    if n == 2 * m - 1:
        corner[-1, -1] = top[-1, -1] + top[-1, -1]
    return corner


def _fold_corners(ab: np.ndarray, diagonals) -> np.ndarray:
    """Write a symmetric m x m top-left block over the band ``ab``, and its
    persymmetric reflection over the bottom-right block.

    ``diagonals[k]`` is the block's diagonal k, for k < m.  When the blocks
    overlap (``n = 2m - 1``) they share one entry, the block's last diagonal
    entry, which both writes agree on.
    """
    rows, n = ab.shape
    m = len(diagonals)
    for k, diagonal in enumerate(diagonals):
        ab[rows - 1 - k, k:m] = diagonal
        ab[rows - 1 - k, n - m + k:] = diagonal[::-1]
    return ab


def build_hankel(band, n: int, variant) -> np.ndarray:
    """Corner Hankel correction for one of the four boundary rules.

    The top-left block follows the variant's index rule; the bottom-right
    block is its persymmetric reflection ``H[n-j+1, n-k+1] = H[j, k]``.
    Raises :class:`OverlapError` when ``2m - 1 > n`` would make the two
    corrections collide.
    """
    band = as_band(band)
    corner = _hankel_corner(band, n, HankelVariant.coerce(variant))
    diagonals = [np.diagonal(corner, k) for k in range(corner.shape[0])]
    return SymmetricBand(_fold_corners(np.zeros((band.size, n), dtype=band.dtype), diagonals)).dense()


def toeplitz_hankel_band(band, n: int, variant) -> SymmetricBand:
    """The band of :func:`assemble_toeplitz_hankel`'s matrix, bandwidth ``len(band) - 1``."""
    band = as_band(band)
    variant = HankelVariant.coerce(variant)
    m = band.size - 1
    _check_bandwidth(m, n)
    sign = variant.sign
    signed = sign * _hankel_corner(band, n, variant)
    # the diagonals of the top-left m x m block of T + sign * H
    block = [band[k] + np.diagonal(signed, k) for k in range(m)]
    # off the corners H is zero, and adding sign * 0 turns some -0.0 parts into +0.0
    return SymmetricBand(_fold_corners(_toeplitz_ab(band + sign * 0.0, n), block))


def assemble_toeplitz_hankel(band, n: int, variant) -> np.ndarray:
    """Toeplitz part combined with the variant's Hankel correction.

    SET1/SET2 produce ``T - H``, SET3/SET4 produce ``T + H``.  The result is
    always symmetric and persymmetric.  Every entry, signed zeros included,
    is that of the whole-matrix ``T + sign * H``; the corner blocks are
    folded into the band, so the Hankel part costs O(m^2).
    """
    return toeplitz_hankel_band(band, n, variant).dense()


def corner_block_band(xi, half_n: int) -> SymmetricBand:
    """The band of :func:`build_corner_block`'s matrix, bandwidth 2."""
    if np.shape(xi) != (4,):
        raise ValueError("expected exactly four block parameters")
    if half_n < 1:
        raise TooSmallError(f"half_n={half_n} must be at least 1")
    xi = as_band(xi)
    ab = np.zeros((3, 2 * half_n + 1), dtype=xi.dtype)
    # the diagonal alternates xi[3], xi[0]; every second row from the second
    # couples two steps over, to the column two to its right
    ab[2, 0::2] = xi[3]
    ab[2, 1::2] = xi[0]
    ab[1, 1:] = xi[1]
    ab[0, 3::2] = xi[2]
    return SymmetricBand(ab)


def build_corner_block(xi, half_n: int) -> np.ndarray:
    """Corner-overlapped block-diagonal matrix of dimension ``2*half_n + 1``.

    Odd diagonal entries are ``xi[3]``, even diagonal entries ``xi[0]``, the
    first off-diagonal is ``xi[1]``, and even rows couple two steps over via
    ``xi[2]``.  Adjacent 3x3 blocks share one corner entry.
    """
    return corner_block_band(xi, half_n).dense()


# quadratic-element parameters (even diagonal, off-diagonal, even skip, odd diagonal),
# as the integers K 3h and M 30/h, and as K h and M / h: each quotient is correctly rounded
_FEM_P2_STIFFNESS_3H = (14, -8, 1, 16)
_FEM_P2_MASS_30_PER_H = (8, 2, -1, 16)
FEM_P2_STIFFNESS_BAND = tuple(k / 3 for k in _FEM_P2_STIFFNESS_3H)
FEM_P2_MASS_BAND = tuple(m / 30 for m in _FEM_P2_MASS_30_PER_H)

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


def _element_count(n_elems) -> int:
    """``n_elems`` as an int: a whole number that a float holds, at least 2."""
    n = _as_size(n_elems, "n_elems")
    if n < 2:
        raise TooSmallError(f"need at least 2 elements, got {n_elems}")
    return n


def fem_p2_bands(n_elems: int):
    """The bands of :func:`build_fem_p2`'s ``(K, M)``, bandwidth 2."""
    n_elems = _element_count(n_elems)
    h = 1.0 / n_elems
    # times the rounded 1/h: K holds 28 at 6 elements, where / h gives 28.000000000000004
    return (corner_block_band(np.asarray(FEM_P2_STIFFNESS_BAND) * (1.0 / h), n_elems - 1),
            corner_block_band(np.asarray(FEM_P2_MASS_BAND) * h, n_elems - 1))


def build_fem_p2(n_elems: int):
    """Stiffness and mass matrices of quadratic elements on a uniform unit-interval mesh.

    Homogeneous Dirichlet ends, ``n_elems`` elements, matrices of dimension
    ``2*n_elems - 1``.  Returns ``(K, M)`` scaled by ``1/h`` and ``h``.
    """
    return tuple(band.dense() for band in fem_p2_bands(n_elems))


# _FEM_P3_SLOTS[k, a] indexes local[a, a + k] in the flattened local matrix, or
# the zero appended after it when a + k > 3
_FEM_P3_SLOTS = np.array([[5 * a + k if a + k <= 3 else 16 for a in range(3)] for k in range(4)])


def _fem_p3_element_ab(local: np.ndarray, dim: int) -> np.ndarray:
    """Band storage of the cubic elements' assembly of ``local``.

    Node g (matrix index g - 1) sits in slot ``g % 3`` of its element: 0 for
    a vertex, which closes one element and opens the next, and 1, 2 for the
    interior nodes.  Entry ``(i, i + k)`` is ``local[a, a + k]`` for the slot
    a of row i, zero past the element, and a vertex's diagonal is the sum of
    both elements' entries.  Every diagonal is thus a pattern of period 3.
    """
    pattern = np.append(local.ravel(), 0.0)[_FEM_P3_SLOTS]
    pattern[0, 0] = local[3, 3] + local[0, 0]
    k = np.arange(3, -1, -1)[:, None]  # row 3 - k holds diagonal k
    j = np.arange(dim)
    # column j of diagonal k holds row i = j - k, node i + 1
    return np.where(j >= k, pattern[k, (j - k + 1) % 3], 0.0)


def fem_p3_bands(n_elems: int):
    """The bands of :func:`build_fem_p3`'s ``(K, M)``, bandwidth 3."""
    n_elems = _element_count(n_elems)
    h = 1.0 / n_elems
    dim = 3 * n_elems - 1
    return (SymmetricBand(_fem_p3_element_ab(_FEM_P3_K_LOCAL / h, dim)),
            SymmetricBand(_fem_p3_element_ab(_FEM_P3_M_LOCAL * h, dim)))


def build_fem_p3(n_elems: int):
    """Stiffness and mass matrices of cubic elements on a uniform unit-interval mesh.

    Homogeneous Dirichlet ends, ``n_elems`` elements, matrices of dimension
    ``3*n_elems - 1``; element blocks overlap in the shared-node corner.
    """
    return tuple(band.dense() for band in fem_p3_bands(n_elems))


def assemble_tensor_pencil(a, b, c, d):
    """Two-factor tensor pencil ``(kron(a, d) + kron(b, c), kron(b, d))``.

    ``a, b`` must share one square shape and ``c, d`` another; the assembled
    pair has the sum-of-spectra property checked in the analytic module.  It
    is float64 unless some factor has an entry with a nonzero imaginary part.
    """
    a, b, c, d = (as_square(x) for x in (a, b, c, d))
    if a.shape != b.shape:
        raise ShapeMismatchError(f"left factors differ: {a.shape} vs {b.shape}")
    if c.shape != d.shape:
        raise ShapeMismatchError(f"right factors differ: {c.shape} vs {d.shape}")
    return np.kron(a, d) + np.kron(b, c), np.kron(b, d)

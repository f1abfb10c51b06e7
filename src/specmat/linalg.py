"""Dense linear-algebra helpers and a batched polynomial root finder.

Everything operates on plain numpy arrays.  Dense and band input, and
roots, are float64 unless some entry has a nonzero imaginary part,
complex128 then.  Polynomials of degree three and up are solved as
stacked companion matrices by LAPACK's ``eigvals`` through numpy (Edelman
& Murakami, *Math. Comp.* 1995), one batch for a whole table of per-mode
polynomials.  Degrees one and two use closed forms.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_RTOL = 1e-12
NEWTON_STEPS = 2


def _real_or_complex(values) -> np.ndarray:
    """``values`` as float64 unless some entry has a nonzero imaginary part, complex128 then;
    float64 input comes back as it is, not copied."""
    values = np.asarray(values)
    if values.dtype.kind in "biuf":
        return values.astype(float, copy=False)
    values = np.asarray(values, dtype=complex)
    return values if values.imag.any() else values.real.copy()  # .real: astype would warn


def as_square(a) -> np.ndarray:
    a = _real_or_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def inf_norm(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(abs(a).sum(axis=1).max())


def is_hermitian(a) -> bool:
    a = as_square(a)
    if np.array_equal(a, a.conj().T):  # one pass for the exactly Hermitian, and every empty or zero matrix
        return True
    return float(np.max(np.abs(a - a.conj().T))) <= HERMITIAN_RTOL * np.max(np.abs(a))


def _horner(coeffs, z):
    """Row-wise values of ascending-coefficient polynomials ``coeffs`` at ``z``."""
    acc = np.broadcast_to(coeffs[:, -1:], z.shape).copy()
    for k in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * z + coeffs[:, k:k + 1]
    return acc


def batched_roots(coeffs) -> np.ndarray:
    """Roots of many polynomials of one degree q, one polynomial per row.

    ``coeffs`` holds ascending coefficients, shape ``(m, q+1)``, with nonzero
    leading entries; the result has shape ``(m, q)``, float64 for a real
    table whose roots are all real, else complex128 for the whole batch, as
    ``eigvals`` returns a stack.  q=1 and q=2 use closed forms, in real
    arithmetic for a real table.  A quadratic's roots come as ``(-c1 + disc)
    / (2 c2)``, then ``(-c1 - disc) / (2 c2)``, for the principal square root
    ``disc``; the one that would cancel in ``-c1 +/- disc`` is taken from
    the other by Vieta.  q >= 3 takes the eigenvalues of the stacked
    companion matrices and polishes them, in their dtype, by Newton steps,
    each kept only where it does not raise the polynomial's modulus.
    """
    c = _real_or_complex(coeffs)
    if c.ndim != 2 or c.shape[1] < 2:
        raise ValueError(f"expected coefficient rows of shape (m, q+1) with q >= 1, got {c.shape}")
    m, q = c.shape[0], c.shape[1] - 1
    if q == 1:
        return -c[:, :1] / c[:, 1:]
    if q == 2:
        c0, c1, c2 = c.T
        square = c1 * c1 - 4.0 * c2 * c0
        if c.dtype == float and (square < 0).any():  # a complex pair: the whole batch complex
            c0, c1, c2, square = (part.astype(complex) for part in (c0, c1, c2, square))
        disc = np.sqrt(square)
        minus_far = abs(c1 + disc) >= abs(c1 - disc)
        big = -0.5 * np.where(minus_far, c1 + disc, c1 - disc)
        # big = 0 only when c0 = c1 = 0, a double root at zero
        far, near = big / c2, c0 / np.where(big == 0, 1.0, big)
        return np.stack((np.where(minus_far, near, far), np.where(minus_far, far, near)), axis=1)
    last_column = -c[:, :-1] / c[:, -1:]
    if not last_column.imag.any():
        last_column = last_column.real  # real companions: real LAPACK, exact conjugate pairs
    companion = np.zeros((m, q, q), dtype=last_column.dtype)
    companion[:, np.arange(1, q), np.arange(q - 1)] = 1.0
    companion[:, :, -1] = last_column
    roots = np.linalg.eigvals(companion)
    deriv = c[:, 1:] * np.arange(1, q + 1)
    value = _horner(c, roots)
    for _ in range(NEWTON_STEPS):
        slope = _horner(deriv, roots)
        flat = slope == 0
        candidate = roots - np.where(flat, 0.0, value / np.where(flat, 1.0, slope))
        cand_value = _horner(c, candidate)
        better = abs(cand_value) <= abs(value)
        roots = np.where(better, candidate, roots)
        value = np.where(better, cand_value, value)
    return roots

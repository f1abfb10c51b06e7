"""Polynomial pencils: per-mode scalar roots versus companion linearization.

When every coefficient matrix of P(lam) = sum_k lam^k A_k comes from one
corner-correction family with a shared bandwidth, the eigenvectors are the
family's sampled waves and the eigenvalues split into n independent scalar
polynomials, one per mode.  The companion linearization of the full matrix
pencil provides the independent cross-check.
"""

import numpy as np

from specmat import (
    HankelVariant,
    assemble_toeplitz_hankel,
    corner_block_eigenpairs,
    corner_block_quadratic_bands,
    pevp_eigenpairs,
    verify,
)

print("=" * 64)
print("1. A random quadratic pencil, bandwidth 2, dimension 7")
print("=" * 64)
rng = np.random.default_rng(4)
bands = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
bands[-1][0] += 6.0
analytic = pevp_eigenpairs(bands, 7, HankelVariant.SET1)
check = verify(analytic, *(assemble_toeplitz_hankel(band, 7, 1) for band in bands))
print(f"{check.values.size} eigenvalues from 7 scalar quadratics")
print(f"max gap to the {check.route} linearization: {np.max(check.distances):.2e}")

print()
print("=" * 64)
print("2. The corner-block pencil condenses to exactly such a quadratic")
print("=" * 64)
alpha = np.array([2.0, -1.0, 0.5, 3.0])
beta = np.array([1.5, 0.25, -0.5, 2.0])
half_n = 4
band_d, band_c, band_b = corner_block_quadratic_bands(alpha, beta)
condensed = pevp_eigenpairs((band_d, band_c, band_b), half_n, HankelVariant.SET1)
block = corner_block_eigenpairs(alpha, beta, half_n)
print(f"{'mode':>5} {'condensed quadratic roots':>34} {'block closed form':>28}")
for j in range(1, half_n + 1):
    roots = np.sort_complex(condensed.mode_roots[j - 1])
    direct = np.sort_complex(
        np.array([block.value_for_mode(2 * j - 1), block.value_for_mode(2 * j)])
    )
    print(f"{j:>5} {np.round(roots, 6)!s:>34} {np.round(direct, 6)!s:>28}")

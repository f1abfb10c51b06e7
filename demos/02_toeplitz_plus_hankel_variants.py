"""The four corner-correction variants and their sampled eigenvectors.

A banded symmetric Toeplitz matrix combined with a small Hankel correction
in the corners has eigenvalues equal to its symbol sampled at mode angles.
The four corrections pair with four eigenvector families: full- and
half-shifted sines, full- and half-shifted cosines.  Matrices may be
complex; the worked 5x5 example below has complex eigenvalues yet purely
real eigenvectors.
"""

import numpy as np

from specmat import (
    assemble_toeplitz_hankel,
    gevp_eigenpairs,
    verify,
    write_matrix_market,
)

rng = np.random.default_rng(0)
print("=" * 64)
print("1. Random bands, all four variants, residual check")
print("=" * 64)
n, m = 9, 3
for variant, family in ((1, "sin(j pi k h)"), (2, "sin(j pi (k-1/2) h)"),
                        (3, "cos(j pi k h)"), (4, "cos(j pi (k-1/2) h)")):
    alpha = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
    beta = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
    beta[0] += 8.0
    sol = gevp_eigenpairs(alpha, beta, n, variant)
    a = assemble_toeplitz_hankel(alpha, n, variant)
    b = assemble_toeplitz_hankel(beta, n, variant)
    worst = np.max(verify(sol, a, b, oracle=False).residuals)
    print(f"set {variant}: eigenvectors {family:<22} max residual {worst:.2e}")

print()
print("=" * 64)
print("2. The complex 5x5 pair: complex eigenvalues, real eigenvectors")
print("=" * 64)
alpha = [8 + 2j, 5 - 1j, 2j]
beta = [6.0, 3j, 1 - 1j]
sol = gevp_eigenpairs(alpha, beta, 5, 3)
a = assemble_toeplitz_hankel(alpha, 5, 3)
b = assemble_toeplitz_hankel(beta, 5, 3)
print("A =")
print(np.array2string(a, precision=0))
for i in range(5):
    lam = sol.values[i]
    vec = np.real_if_close(sol.vectors[:, i], tol=100)
    print(f"lambda_{i + 1} = {lam:.6f}   x = {np.round(vec.real, 4)}")
check = verify(sol, a, b)
print(f"max gap to the dense {check.route} (LAPACK eig) solver: {np.max(check.distances):.2e}")

path = "complex-5x5.mtx"
header = write_matrix_market(a, path)
print(f"wrote {path} with header: {header}")

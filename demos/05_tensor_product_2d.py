"""Two-dimensional spectra by tensor composition.

A tensor-product discretization of the Laplace problem on the unit square
assembles as (A (x) D + B (x) C) z = eta (B (x) D) z; its eigenpairs are the
sums lambda_j + mu_k with Kronecker-product eigenvectors.  The closed forms
for the 1D factors therefore give the whole 2D spectrum for free.
"""

import numpy as np

from specmat import (
    assemble_tensor_pencil,
    assemble_toeplitz_hankel,
    gevp_eigenpairs,
    scale_pencil,
    tensor_eigenpairs,
    verify,
)

nx, ny = 4, 3
alpha, beta = [2.0, -1.0], [2.0 / 3.0, 1.0 / 6.0]

left = gevp_eigenpairs(alpha, beta, nx, 1)
right = gevp_eigenpairs(alpha, beta, ny, 1)
combined = tensor_eigenpairs(left, right)

a = assemble_toeplitz_hankel(alpha, nx, 1)
b = assemble_toeplitz_hankel(beta, nx, 1)
c = assemble_toeplitz_hankel(alpha, ny, 1)
d = assemble_toeplitz_hankel(beta, ny, 1)
lhs, rhs = assemble_tensor_pencil(a, b, c, d)
check = verify(combined, lhs, rhs)

print(f"left factor : {nx} modes   right factor: {ny} modes")
print(f"combined    : {combined.n_modes} modes on a {lhs.shape[0]}x{lhs.shape[1]} pencil")
print(f"max gap sum-composition vs dense solve: {np.max(check.distances):.2e}")

print()
print("scaled to the unit square (factor 1/h^2 per direction):")
hx, hy = 1.0 / (nx + 1), 1.0 / (ny + 1)
lam2d = np.sort(
    np.add.outer(
        scale_pencil(left, 1.0 / hx, hx).values.real,
        scale_pencil(right, 1.0 / hy, hy).values.real,
    ).ravel()
)
print(f"{'rank':>4} {'discrete':>12} {'(j^2+k^2) pi^2':>15}")
exact = np.sort([(j * j + k * k) * np.pi ** 2 for j in range(1, nx + 1) for k in range(1, ny + 1)])
for i in range(4):
    print(f"{i + 1:>4} {lam2d[i]:>12.4f} {exact[i]:>15.4f}")

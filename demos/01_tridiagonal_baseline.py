"""Closed-form eigenpairs of the classic tridiagonal pencils.

The difference-scheme matrix diag(-1, 2, -1) and the linear-element pencil
(K, M) both have eigenvalues given by sampling a cosine symbol; this script
evaluates those formulas and checks them against a dense numeric solve.
"""

import numpy as np

from specmat import (
    assemble_toeplitz_hankel,
    gevp_eigenpairs,
    scale_pencil,
    verify,
)

n = 12
h = 1.0 / (n + 1)

print("=" * 64)
print("1. Difference scheme: A x = lambda x with A = tridiag(-1, 2, -1)")
print("=" * 64)
sol = gevp_eigenpairs([2.0, -1.0], [1.0, 0.0], n, 1)
print(f"{'j':>3} {'2 - 2cos(j pi h)':>18} {'closed form':>14}")
for j in range(1, 6):
    formula = 2 - 2 * np.cos(j * np.pi * h)
    print(f"{j:>3} {formula:>18.10f} {sol.value_for_mode(j).real:>14.10f}")

a = assemble_toeplitz_hankel([2.0, -1.0], n, 1)
check = verify(sol, a, np.eye(n))
print(f"max |closed form - dense solver| = {np.max(check.distances):.2e} ({check.route} route)")

print()
print("=" * 64)
print("2. Linear elements: K x = lambda M x, K = (1/h) A, M = h tridiag(1/6, 2/3, 1/6)")
print("=" * 64)
fem = gevp_eigenpairs([2.0, -1.0], [2.0 / 3.0, 1.0 / 6.0], n, 1)
scaled = scale_pencil(fem, 1.0 / h, h)
print(f"{'j':>3} {'lambda_j':>14} {'(j pi)^2':>12} {'rel err':>10}")
for j in range(1, 6):
    lam = scaled.value_for_mode(j).real
    exact = (j * np.pi) ** 2
    print(f"{j:>3} {lam:>14.6f} {exact:>12.6f} {abs(lam - exact) / exact:>10.2e}")

k = assemble_toeplitz_hankel([2.0, -1.0], n, 1) / h
m = assemble_toeplitz_hankel([2.0 / 3.0, 1.0 / 6.0], n, 1) * h
worst = np.max(verify(scaled, k, m, oracle=False).residuals)
print(f"worst relative residual of the scaled pencil: {worst:.2e}")

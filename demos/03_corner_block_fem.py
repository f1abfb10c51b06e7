"""Corner-overlapped block matrices and the quadratic/cubic element pencils.

Matrices made of 3x3 blocks that overlap in single corner entries condense,
mode by mode, to scalar quadratics; the quadratic-element stiffness/mass
pair is the flagship case, with a three-branch spectrum whose middle branch
is the constant 10 n^2.  The cubic-element pair condenses to scalar cubics
plus two constants, 10 n^2 and 42 n^2, and its eigenvectors are closed
forms too: vertex sines, with each element's interior nodes from a 2x2 solve.
"""

import numpy as np

from specmat import (
    build_fem_p2,
    build_fem_p3,
    corner_block_eigenpairs,
    fem_p2_eigenpairs,
    fem_p3_eigenpairs,
    solve_gevp_numeric,
    verify,
)

print("=" * 64)
print("1. A 5x5 corner-overlapped matrix with closed-form spectrum")
print("=" * 64)
alpha = [2.0, -1.0, 0.0, 2.0]
sol = corner_block_eigenpairs(alpha, [1.0, 0.0, 0.0, 1.0], 2)
print("eigenvalues:", np.round(np.sort(sol.values.real), 6))
print("expected  : ", np.round(np.sort([2.0, 2 - np.sqrt(3), 2 + np.sqrt(3), 3.0, 1.0]), 6))

print()
print("=" * 64)
print("2. Quadratic elements: three branches")
print("=" * 64)
n = 8
sol = fem_p2_eigenpairs(n)
k, m = build_fem_p2(n)
residual = dict(zip(sol.modes.tolist(), verify(sol, k, m, oracle=False).residuals.tolist()))
print(f"{'j':>3} {'lambda_j':>14} {'branch':>8} {'residual':>10}")
for j in (1, 2, n - 1, n, n + 1, 2 * n - 1):
    lam = sol.value_for_mode(j).real
    branch = "lower" if j < n else ("flat" if j == n else "upper")
    print(f"{j:>3} {lam:>14.6f} {branch:>8} {residual[j]:>10.2e}")
print(f"flat mode is exactly 10 n^2 = {sol.value_for_mode(n).real:.1f}")

print()
print("=" * 64)
print("3. Cubic elements: scalar cubics plus two flat modes")
print("=" * 64)
n = 6
sol = fem_p3_eigenpairs(n)
values = sol.values
k, m = build_fem_p3(n)
check = verify(sol, k, m)
print(f"dimension {k.shape[0]}, eigenvalue count {values.size}")
print("first five:", np.round(values.real[:5], 6))
print("contains 10 n^2 =", 10.0 * n * n in values.real,
      " and 42 n^2 =", 42.0 * n * n in values.real)
print(f"max relative gap to the dense solve: {np.max(check.distances / np.abs(values)):.2e}")
print(f"max residual: closed form {np.max(check.residuals):.2e}, "
      f"dense solve {np.max(solve_gevp_numeric(k, m).residuals):.2e}")
print(f"smallest eigenvalue vs pi^2: {values[0].real:.6f} vs {np.pi ** 2:.6f}")

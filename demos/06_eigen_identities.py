"""The eigenvector-eigenvalue identity, its pencil generalization, and trig identities.

A squared eigenvector entry of a Hermitian matrix is a ratio of eigenvalue
gaps between the matrix and a principal minor.  For pencils the identity
survives in a characteristic-polynomial form weighted by x* B x; the naive
eigenvalue-ratio form fails already on a 2x2 example, which this script
reproduces.  Applied to tridiagonal families the identity collapses into
pure trigonometric product identities.
"""

import numpy as np

from specmat import eve_identity_evp_all, eve_identity_gevp, trig_identity, trig_identity_all

rng = np.random.default_rng(11)

print("=" * 64)
print("1. Squared eigenvector entries from eigenvalue gaps")
print("=" * 64)
n = 6
a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
a = a + a.conj().T
worst = eve_identity_evp_all(a).rel_diff.max()  # one table: j by row, k by column
print(f"random Hermitian {n}x{n}: worst rel_diff over all (j, k) = {worst:.2e}")

print()
print("=" * 64)
print("2. Pencil form: proof form holds, literal form does not")
print("=" * 64)
a2 = np.array([[0.0, 1.0], [1.0, 0.0]])
b2 = np.diag([1.0, 2.0])
proof = eve_identity_gevp(a2, b2, 2, 1, form="proof")
literal = eve_identity_gevp(a2, b2, 2, 1, form="literal")
print(f"proof form  : lhs={proof.lhs.real:+.6f} rhs={proof.rhs.real:+.6f} "
      f"rel_diff={proof.rel_diff:.2e}")
print(f"literal form: lhs={literal.lhs.real:+.6f} rhs={literal.rhs.real:+.6f} "
      f"rel_diff={literal.rel_diff:.2f}   <- documented counterexample")

print()
print("=" * 64)
print("3. Trigonometric product identities")
print("=" * 64)
rep = trig_identity("ti31", 2, 1)
print(f"n=2, k=1: both sides {rep.lhs.real:.6f} (exactly 1/2)")
worst = max(trig_identity_all("ti3", n, ls=range(2, n)).rel_diff.max() for n in range(3, 16))
print(f"removed-index generalization, n <= 15: worst rel_diff = {worst:.2e}")
general = trig_identity("ti3g", 9, 2, 1, alpha=(2.0, -1.0), beta=(0.9, 0.3))
print(f"band-weighted form at an edge minor: rel_diff = {general.rel_diff:.2e}")

"""Eigenvector-eigenvalue identities and the trigonometric identities they imply.

Both sides of each identity are evaluated independently and returned as
one :class:`IdentityTable`; nothing here asserts.  The generalized
identity exists in two shapes: the proof form (characteristic polynomials
weighted by ``x* B x``), which holds, and the literal eigenvalue-ratio
form, which is evaluated as printed and reported even where it fails.

Each identity is computed as one table: modes j by removed indices k for
the eigenvector-eigenvalue identities, k by l for the trigonometric ones.
The principal minors form one ``(n, n-1, n-1)`` stack, gathered by a single
index, and one stacked LAPACK call gives all their eigenvalues: ``eigvalsh``
for a matrix, and for a pencil the oracle's solve of the stack on the whole
pencil's route.  Both sides are then products over broadcast difference
tables.  A single evaluation runs the same kernel on its own row and
column, so it equals the entry of the whole table bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRangeError, NotHermitianError, SingularDenominatorError
from .linalg import as_square, is_hermitian
from .oracle import _solve
from .spectra import divide_symbols, symbol

GAP_WARNING_TOL = 1e-6
DENOMINATOR_TOL = 1e-13

PROOF_FORM = "proof"
LITERAL_FORM = "literal"


@dataclass
class IdentityTable:
    """Both sides of an identity over a table of evaluations, plus their disagreement.

    ``lhs``, ``rhs`` (complex), ``abs_diff`` and ``rel_diff`` share one shape: modes j by
    minors k for the eigenvector-eigenvalue identities, k by l for the trigonometric ones.
    ``inputs`` maps each input's name to an integer array that broadcasts to that shape, or
    to one value for the whole table.  A single evaluation is the same record with scalar
    fields, as ``table[row, column]`` gives it.
    """

    kind: str
    lhs: np.ndarray
    rhs: np.ndarray
    abs_diff: np.ndarray
    rel_diff: np.ndarray
    inputs: dict = field(default_factory=dict)
    conditioning_warning: bool = False

    def __getitem__(self, index) -> IdentityTable:
        shape = self.lhs.shape
        inputs = {key: np.broadcast_to(value, shape)[index].item() if isinstance(value, np.ndarray) else value
                  for key, value in self.inputs.items()}
        return IdentityTable(self.kind, complex(self.lhs[index]), complex(self.rhs[index]),
                             float(self.abs_diff[index]), float(self.rel_diff[index]), inputs,
                             self.conditioning_warning)


def _identity_table(kind, lhs, rhs, warning, **inputs) -> IdentityTable:
    """The record of the tables ``lhs`` and ``rhs``, with ``inputs`` in the order they are printed."""
    lhs, rhs = lhs.astype(complex), rhs.astype(complex)
    abs_diff = np.abs(lhs - rhs)
    rel_diff = abs_diff / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
    return IdentityTable(kind, lhs, rhs, abs_diff, rel_diff, inputs, warning)


def _minor_stack(m, ks) -> np.ndarray:
    """The principal minors of ``m`` without row and column k, for each 0-based k in ``ks``."""
    size = m.shape[0] - 1
    keep = np.arange(size) + (np.arange(size) >= ks[:, None])  # rows from k on shift by one
    return m[keep[:, :, None], keep[:, None, :]]


def _minor_indices(n, pair) -> np.ndarray:
    """The 0-based minors of a table: all n of them, or the k of a 1-based ``pair = (j, k)``."""
    if pair is not None and not (1 <= pair[0] <= n and 1 <= pair[1] <= n):
        raise IndexOutOfRangeError(f"(j, k)={pair} outside 1..{n}")
    if n < 2:
        raise IndexOutOfRangeError("cannot remove a row/column from a 1x1 matrix")
    return np.arange(n) if pair is None else np.array([pair[1] - 1])


def _near_repeated(values) -> bool:
    """Whether two eigenvalues lie within ``GAP_WARNING_TOL`` times the largest modulus.

    The test is relative, so a scaled matrix or pencil is flagged as it is.
    """
    vals = np.sort(np.asarray(values, dtype=complex))
    return vals.size > 1 and bool(np.min(np.abs(np.diff(vals))) <= GAP_WARNING_TOL * np.max(np.abs(vals)))


def _products_but_own(table, own=None) -> np.ndarray:
    """``prod_{l != own[j]} table[j, l]`` for every row j, by default ``own[j] = j``.

    The own entries of ``table`` are overwritten by 1.
    """
    rows = np.arange(table.shape[0])
    table[rows, rows if own is None else own] = 1.0
    return np.prod(table, axis=1)


def _minor_products(lams, mus) -> np.ndarray:
    """``prod_l (lam_j - mu_{k,l})``, j by row and minor k by column."""
    return np.prod(lams[:, None, None] - mus[None], axis=2)


def _evp_table(a, pair=None) -> IdentityTable:
    """The identity for every j and every minor, or the k-minor of 1-based ``pair = (j, k)`` alone."""
    a = as_square(a)
    if not is_hermitian(a):
        raise NotHermitianError("matrix is not Hermitian to 1e-12 relative tolerance")
    ks = _minor_indices(a.shape[0], pair)
    lams, vectors = np.linalg.eigh(a)
    mus = np.linalg.eigvalsh(_minor_stack(a, ks))  # Hermitian, as minors of A
    gaps = _products_but_own(lams[:, None] - lams[None, :])
    lhs = np.abs(vectors[ks].T) ** 2 * gaps[:, None]
    return _identity_table("eve-evp", lhs, _minor_products(lams, mus), _near_repeated(lams),
                           j=np.arange(1, lams.size + 1)[:, None], k=ks[None] + 1, n=lams.size)


def eve_identity_evp(a, j: int, k: int) -> IdentityTable:
    """Squared eigenvector entry versus eigenvalue gaps of the matrix and its minor.

    Left side: ``|x_{j,k}|^2  prod_{l != j} (lam_j - lam_l)``.
    Right side: ``prod_l (lam_j - mu_l)`` over the spectrum of the k-minor.
    """
    return _evp_table(a, (j, k))[j - 1, 0]


def eve_identity_evp_all(a) -> IdentityTable:
    """Every (j, k) entry of :func:`eve_identity_evp` in one table, j by row and k by column.

    The matrix is diagonalized once, and the eigenvalues of all n minors
    come from one stacked solve.
    """
    return _evp_table(a)


def _gevp_table(a, b, form, pair=None) -> IdentityTable:
    """:func:`_evp_table` for the pencil ``A x = lam B x`` in either form."""
    a, b = as_square(a), as_square(b)
    if not is_hermitian(a) or not is_hermitian(b):
        raise NotHermitianError("the generalized identity takes Hermitian A and B")
    if form not in (PROOF_FORM, LITERAL_FORM):
        raise ValueError(f"unknown form {form!r}")
    ks = _minor_indices(a.shape[0], pair)
    # unit vectors, values by (real, imag); a real pencil comes back real, so
    # that its minors run the real LAPACK routines
    a, b, lams, vectors, hermitian = _solve(a, b, "auto", True)
    # a positive-definite B makes every principal minor positive definite, so
    # the pencil's route serves the whole table, and no minor's values depend
    # on which other minors are evaluated with it
    method = "hermitian" if hermitian else "general"
    minors_b = _minor_stack(b, ks)
    products = _minor_products(lams, _solve(_minor_stack(a, ks), minors_b, method, False)[2])
    gaps = _products_but_own(lams[:, None] - lams[None, :])
    weights = np.abs(vectors[ks].T) ** 2
    if form == PROOF_FORM:
        eta = np.sum(vectors.conj() * (b @ vectors), axis=0)  # x_j^* B x_j
        lhs = weights * (np.linalg.det(b) * gaps)[:, None]
        rhs = eta[:, None] * (np.linalg.det(minors_b) * products)
    else:
        # ascending eigenvalues of B and of each minor, paired to the modes by rank
        b_values = np.linalg.eigvalsh(b)
        ratio = np.prod(np.linalg.eigvalsh(minors_b), axis=1) / _products_but_own(
            np.tile(b_values, (b_values.size, 1)))[:, None]
        lhs = weights * gaps[:, None]
        rhs = ratio * products
    return _identity_table(f"eve-gevp-{form}", lhs, rhs, _near_repeated(lams),
                           j=np.arange(1, lams.size + 1)[:, None], k=ks[None] + 1, n=lams.size, form=form)


def eve_identity_gevp(a, b, j: int, k: int, form: str = PROOF_FORM) -> IdentityTable:
    """Generalized identity for the pencil ``A x = lam B x`` (two forms).

    The proof form weighs the characteristic polynomials by determinants and
    by ``eta_j = x_j^* B x_j`` with ``x_j^* x_j = 1``.  The literal form
    replaces the weights by a ratio of ascending eigenvalues of B and its
    minor, paired to the mode index by rank; it is evaluated exactly as
    stated and the record carries whatever disagreement results.
    """
    return _gevp_table(a, b, form, (j, k))[j - 1, 0]


def eve_identity_gevp_all(a, b, form: str = PROOF_FORM) -> IdentityTable:
    """Every (j, k) entry of :func:`eve_identity_gevp` in one table, j by row and k by column.

    The pencil is solved once, and the eigenvalues of all n minor pencils
    come from one stacked solve.
    """
    return _gevp_table(a, b, form)


def _guarded_products(table, ks, context):
    """:func:`_products_but_own` without column k - 1 in the row of each k; a vanishing factor raises."""
    products = _products_but_own(table, ks - 1)
    if np.min(np.abs(table), initial=np.inf) < DENOMINATOR_TOL:
        raise SingularDenominatorError(f"denominator factor vanishes in {context}")
    return products


def _trig_tables(kind, n, ks, ls, alpha, beta):
    """Both sides of a trigonometric identity, k by row and l by column.

    With ``theta_j = j pi/(n+1)`` and f the cosine, or the symbol ratio for
    ti3g, the right side is ``w_k G(k, l) G(k, n-l+1) / prod_{j != k}
    (f(theta_k) - f(theta_j))``.  ``G(k, d) = prod_{i<d} (f(theta_k) -
    f(i pi/d))`` is the gap product over one block's angles, and w is 1, or
    for ti3g the ratio of the beta band's Toeplitz determinants.
    """
    grid = np.arange(1, n + 1) * np.pi / (n + 1)
    f, weights = np.cos, 1.0
    if kind == "ti3g":
        def f(theta):
            s_beta = symbol(beta, theta)
            if np.any(np.abs(s_beta) < DENOMINATOR_TOL * np.sum(np.abs(beta))):
                raise SingularDenominatorError(f"beta symbol vanishes in ti3g(n={n})")
            return divide_symbols(symbol(alpha, theta), s_beta)

        bottom = _guarded_products(np.tile(symbol(beta, grid), (ks.size, 1)), ks, f"ti3g(n={n})")
        weights = (np.prod(symbol(beta, np.arange(1, n) * np.pi / n)) / bottom)[:, None]
    f_grid = f(grid)
    f_k = f_grid[ks - 1]
    denom = _guarded_products(f_k[:, None] - f_grid, ks, f"{kind}(n={n})")
    # the angles are rational multiples of pi, so the true zeros of the cosine
    # gaps and of the sine are known in integers; snapping them to zero keeps
    # the floored rel_diff honest where both sides vanish
    snap = kind != "ti3g"
    gaps = np.ones((ks.size, n + 1), dtype=f_k.dtype)  # G(k, d) in column d
    for d in {*ls.tolist(), *(n + 1 - ls).tolist()}:
        i = np.arange(1, d)
        table = f_k[:, None] - f(i * np.pi / d)
        if snap:
            table[ks[:, None] * d == i * (n + 1)] = 0.0  # theta_k = i pi/d
        gaps[:, d] = np.prod(table, axis=1)
    kl = np.multiply.outer(ks, ls)
    sines = np.sin(kl * np.pi / (n + 1))
    lhs = 2.0 / (n + 1) * (sines * sines)
    if snap:
        lhs[kl % (n + 1) == 0] = 0.0
    return lhs, weights * gaps[:, ls] * gaps[:, n + 1 - ls] / denom[:, None]


def trig_identity_all(kind: str, n: int, ks=None, ls=None, alpha=None, beta=None) -> IdentityTable:
    """Every (k, l) entry of :func:`trig_identity` in one table, k by row and l by column;
    ``ks`` and ``ls`` default to 1..n.

    ti31 has no l: it ignores ``ls`` and has one column, ``l = 1``.
    """
    if kind not in ("ti31", "ti3", "ti3g"):
        raise ValueError(f"unknown identity kind {kind!r}")
    ks = list(range(1, n + 1)) if ks is None else list(ks)
    ls = [1] if kind == "ti31" else list(range(1, n + 1)) if ls is None else list(ls)
    if n < 2:
        raise IndexOutOfRangeError(f"need n >= 2, got n={n}")
    for name, values in (("k", ks), ("l", ls)):
        bad = [v for v in values if v is None or not 1 <= v <= n]
        if bad:
            raise IndexOutOfRangeError(f"need 1 <= {name} <= n, got n={n}, {name}={bad[0]}")
    bands = {}
    if kind == "ti3g":
        if alpha is None or beta is None:
            raise ValueError("ti3g needs alpha and beta bands of bandwidth 1")
        alpha, beta = np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
        if alpha.shape != (2,) or beta.shape != (2,):
            raise ValueError("ti3g bands must have exactly two entries")
        bands = {"alpha": tuple(alpha.tolist()), "beta": tuple(beta.tolist())}
    ks, ls = np.array(ks, dtype=int), np.array(ls, dtype=int)
    lhs, rhs = _trig_tables(kind, n, ks, ls, alpha, beta)
    return _identity_table(kind, lhs, rhs, False, n=n, k=ks[:, None], l=ls[None], **bands)


def trig_identity(kind: str, n: int, k: int, l: int | None = None,
                  alpha=None, beta=None) -> IdentityTable:
    """Evaluate one of the product trigonometric identities.

    ``"ti31"`` needs (n, k) and ignores any bands: it compares
    ``2/(n+1) sin^2(k pi/(n+1))`` with a ratio of cosine-gap products.
    ``"ti3"`` adds the removed index l (edge values l=1 and l=n reduce to
    ti31 through empty products).  ``"ti3g"`` additionally takes two
    order-1 bands and evaluates the generalized form exactly as stated;
    it is reported, not asserted, since the stated determinant ratio only
    matches the minor structure at the edge indices.
    """
    return trig_identity_all(kind, n, [k], [l], alpha, beta)[0, 0]

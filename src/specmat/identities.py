"""Eigenvector-eigenvalue identities and the trigonometric identities they imply.

Both sides of each identity are evaluated independently and returned in a
report; nothing here asserts.  The generalized identity exists in two
shapes: the proof form (characteristic polynomials weighted by ``x* B x``),
which holds, and the literal eigenvalue-ratio form, which is evaluated
as printed and reported even where it fails.

Each eigenvector-eigenvalue identity is computed as one table over every
mode j (rows) and removed index k (columns).  The principal minors form one
``(n, n-1, n-1)`` stack, gathered by a single index, and one stacked LAPACK
call gives all their eigenvalues: ``eigvalsh`` for a matrix, and for a
pencil the oracle's solve of the stack on the whole pencil's route.  Both
sides are then products over broadcast difference tables.  A single (j, k)
evaluation runs the same kernel on the k-minor alone, so it equals the
entry of the whole table bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRangeError, NotHermitianError, SingularDenominatorError
from .linalg import as_square, is_hermitian
from .oracle import _solve
from .spectra import symbol

GAP_WARNING_TOL = 1e-6
DENOMINATOR_TOL = 1e-13

PROOF_FORM = "proof"
LITERAL_FORM = "literal"


@dataclass
class IdentityReport:
    """Both sides of one identity evaluation plus their disagreement."""

    kind: str
    lhs: complex
    rhs: complex
    abs_diff: float
    rel_diff: float
    inputs: dict = field(default_factory=dict)
    conditioning_warning: bool = False


def _report(kind, lhs, rhs, inputs, warning=False) -> IdentityReport:
    lhs, rhs = complex(lhs), complex(rhs)
    abs_diff = abs(lhs - rhs)
    rel_diff = abs_diff / max(abs(lhs), abs(rhs), 1e-30)
    return IdentityReport(kind, lhs, rhs, abs_diff, rel_diff, inputs, warning)


def _table_reports(kind, lhs, rhs, ks, warning, **inputs) -> list:
    """One report per entry of the ``(n, len(ks))`` tables, j slowest.

    The differences are those of :func:`_report`, for the whole table at once.
    """
    lhs, rhs = lhs.astype(complex), rhs.astype(complex)
    abs_diff = np.abs(lhs - rhs)
    rel_diff = abs_diff / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
    n, ks = lhs.shape[0], (ks + 1).tolist()
    rows = zip(lhs.tolist(), rhs.tolist(), abs_diff.tolist(), rel_diff.tolist())
    return [
        IdentityReport(kind, *entry, {"j": j, "k": k, "n": n, **inputs}, warning)
        for j, row in enumerate(rows, start=1)
        for k, *entry in zip(ks, *row)
    ]


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
    if vals.size < 2:
        return False
    return bool(np.min(np.abs(np.diff(vals))) <= GAP_WARNING_TOL * np.max(np.abs(vals)))


def _products_but_own(table) -> np.ndarray:
    """``prod_{l != j} table[j, l]`` for every row j; the diagonal of ``table`` is overwritten."""
    np.fill_diagonal(table, 1.0)
    return np.prod(table, axis=1)


def _minor_products(lams, mus) -> np.ndarray:
    """``prod_l (lam_j - mu_{k,l})``, j by row and minor k by column."""
    return np.prod(lams[:, None, None] - mus[None], axis=2)


def _evp_table(a, pair=None):
    """Both sides of the identity for every j and every minor, or the k-minor of ``pair`` alone.

    Returns ``(lhs, rhs, ks, warning)`` with ``(n, len(ks))`` tables.
    """
    a = as_square(a)
    if not is_hermitian(a):
        raise NotHermitianError("matrix is not Hermitian to 1e-12 relative tolerance")
    ks = _minor_indices(a.shape[0], pair)
    lams, vectors = np.linalg.eigh(a)
    mus = np.linalg.eigvalsh(_minor_stack(a, ks))  # Hermitian, as minors of A
    gaps = _products_but_own(lams[:, None] - lams[None, :])
    lhs = np.abs(vectors[ks].T) ** 2 * gaps[:, None]
    return lhs, _minor_products(lams, mus), ks, _near_repeated(lams)


def eve_identity_evp(a, j: int, k: int) -> IdentityReport:
    """Squared eigenvector entry versus eigenvalue gaps of the matrix and its minor.

    Left side: ``|x_{j,k}|^2  prod_{l != j} (lam_j - lam_l)``.
    Right side: ``prod_l (lam_j - mu_l)`` over the spectrum of the k-minor.
    """
    return _table_reports("eve-evp", *_evp_table(a, (j, k)))[j - 1]


def eve_identity_evp_all(a) -> list:
    """Every (j, k) report of :func:`eve_identity_evp`, j slowest.

    The matrix is diagonalized once, and the eigenvalues of all n minors
    come from one stacked solve.
    """
    return _table_reports("eve-evp", *_evp_table(a))


def _gevp_table(a, b, form, pair=None):
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
    return lhs, rhs, ks, _near_repeated(lams)


def eve_identity_gevp(a, b, j: int, k: int, form: str = PROOF_FORM) -> IdentityReport:
    """Generalized identity for the pencil ``A x = lam B x`` (two forms).

    The proof form weighs the characteristic polynomials by determinants and
    by ``eta_j = x_j^* B x_j`` with ``x_j^* x_j = 1``.  The literal form
    replaces the weights by a ratio of ascending eigenvalues of B and its
    minor, paired to the mode index by rank; it is evaluated exactly as
    stated and the report carries whatever disagreement results.
    """
    return _table_reports(f"eve-gevp-{form}", *_gevp_table(a, b, form, (j, k)), form=form)[j - 1]


def eve_identity_gevp_all(a, b, form: str = PROOF_FORM) -> list:
    """Every (j, k) report of :func:`eve_identity_gevp`, j slowest.

    The pencil is solved once, and the eigenvalues of all n minor pencils
    come from one stacked solve.
    """
    return _table_reports(f"eve-gevp-{form}", *_gevp_table(a, b, form), form=form)


def _guard_denominator(factors, context):
    factors = np.asarray(factors)
    if factors.size and np.min(np.abs(factors)) < DENOMINATOR_TOL:
        raise SingularDenominatorError(f"denominator factor vanishes in {context}")
    return factors


def trig_identity(kind: str, n: int, k: int, l: int | None = None,
                  alpha=None, beta=None) -> IdentityReport:
    """Evaluate one of the product trigonometric identities.

    ``"ti31"`` needs (n, k) and ignores any bands: it compares
    ``2/(n+1) sin^2(k pi/(n+1))`` with a ratio of cosine-gap products.
    ``"ti3"`` adds the removed index l (edge values l=1 and l=n reduce to
    ti31 through empty products).  ``"ti3g"`` additionally takes two
    order-1 bands and evaluates the generalized form exactly as stated;
    it is reported, not asserted, since the stated determinant ratio only
    matches the minor structure at the edge indices.
    """
    if kind not in ("ti31", "ti3", "ti3g"):
        raise ValueError(f"unknown identity kind {kind!r}")
    if n < 2 or not 1 <= k <= n:
        raise IndexOutOfRangeError(f"need n >= 2 and 1 <= k <= n, got n={n}, k={k}")
    if kind == "ti31":
        l = 1
    if l is None or not 1 <= l <= n:
        raise IndexOutOfRangeError(f"need 1 <= l <= n, got l={l}")

    cos_k = np.cos(k * np.pi / (n + 1))
    denom = _guard_denominator(
        [cos_k - np.cos(jj * np.pi / (n + 1)) for jj in range(1, n + 1) if jj != k],
        f"{kind}(n={n}, k={k})",
    )

    if kind in ("ti31", "ti3"):
        # all angles are rational multiples of pi, so true zeros of each side
        # are detectable exactly in integer arithmetic; snapping them keeps
        # the floored rel_diff honest where both sides vanish
        if (k * l) % (n + 1) == 0:
            lhs = 0.0
        else:
            lhs = 2.0 / (n + 1) * np.sin(k * l * np.pi / (n + 1)) ** 2
        left_block = [
            0.0 if k * l == jj * (n + 1) else cos_k - np.cos(jj * np.pi / l)
            for jj in range(1, l)
        ]
        right_block = [
            0.0
            if k * (n - l + 1) == (jj - l + 1) * (n + 1)
            else cos_k - np.cos((jj - l + 1) * np.pi / (n - l + 1))
            for jj in range(l, n)
        ]
        rhs = np.prod(left_block) * np.prod(right_block) / np.prod(denom)
        return _report(kind, lhs, rhs, {"n": n, "k": k, "l": l})

    if alpha is None or beta is None:
        raise ValueError("ti3g needs alpha and beta bands of bandwidth 1")
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    if alpha.shape != (2,) or beta.shape != (2,):
        raise ValueError("ti3g bands must have exactly two entries")

    def ratio(theta):
        s_beta = symbol(beta, theta)
        if abs(s_beta) < DENOMINATOR_TOL * float(np.sum(np.abs(beta))):
            raise SingularDenominatorError(f"beta symbol vanishes at angle {theta}")
        return symbol(alpha, theta) / s_beta

    lhs = 2.0 / (n + 1) * np.sin(k * l * np.pi / (n + 1)) ** 2
    eta_top = np.prod([symbol(beta, jj * np.pi / n) for jj in range(1, n)])
    eta_bottom = _guard_denominator(
        [symbol(beta, jj * np.pi / (n + 1)) for jj in range(1, n + 1) if jj != k],
        f"ti3g(n={n}, k={k})",
    )
    r_k = ratio(k * np.pi / (n + 1))
    block1 = np.prod([r_k - ratio(jj * np.pi / l) for jj in range(1, l)]) if l > 1 else 1.0
    block2 = (
        np.prod([r_k - ratio((jj - l + 1) * np.pi / (n - l + 1)) for jj in range(l, n)])
        if l < n
        else 1.0
    )
    block3 = _guard_denominator(
        [r_k - ratio(jj * np.pi / (n + 1)) for jj in range(1, n + 1) if jj != k],
        f"ti3g(n={n}, k={k})",
    )
    rhs = (eta_top / np.prod(eta_bottom)) * block1 * block2 / np.prod(block3)
    inputs = {"n": n, "k": k, "l": l, "alpha": tuple(alpha), "beta": tuple(beta)}
    return _report("ti3g", lhs, rhs, inputs)

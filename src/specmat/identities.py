"""Eigenvector-eigenvalue identities and the trigonometric identities they imply.

Both sides of each identity are evaluated independently and returned in a
report; nothing here asserts.  The generalized identity exists in two
shapes: the proof form (characteristic polynomials weighted by ``x* B x``),
which holds, and the literal eigenvalue-ratio form, which is evaluated
as printed and reported even where it fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRangeError, NotHermitianError, SingularBError, SingularDenominatorError
from .linalg import as_square, hermitian_eigen, is_hermitian
from .oracle import is_singular, solve_gevp_numeric
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


def minor_remove(a, k: int) -> np.ndarray:
    """Principal minor: drop the k-th row and column (1-based)."""
    a = as_square(a)
    n = a.shape[0]
    if n < 2:
        raise IndexOutOfRangeError("cannot remove a row/column from a 1x1 matrix")
    if not 1 <= k <= n:
        raise IndexOutOfRangeError(f"index k={k} outside 1..{n}")
    keep = np.delete(np.arange(n), k - 1)
    return a[np.ix_(keep, keep)]


def _min_gap(values) -> float:
    vals = np.sort(np.asarray(values, dtype=complex))
    if vals.size < 2:
        return np.inf
    return float(np.min(np.abs(np.diff(vals))))


def _evp_report(lams, vectors, minors, j, k, warning) -> IdentityReport:
    """The (j, k) evaluation from the spectrum of A and of its k-minor."""
    lhs = abs(vectors[k - 1, j - 1]) ** 2 * np.prod(lams[j - 1] - np.delete(lams, j - 1))
    rhs = np.prod(lams[j - 1] - minors)
    return _report("eve-evp", lhs, rhs, {"j": j, "k": k, "n": lams.size}, warning)


def _check_indices(n, j, k):
    if not (1 <= j <= n and 1 <= k <= n):
        raise IndexOutOfRangeError(f"(j, k)=({j}, {k}) outside 1..{n}")


def eve_identity_evp(a, j: int, k: int) -> IdentityReport:
    """Squared eigenvector entry versus eigenvalue gaps of the matrix and its minor.

    Left side: ``|x_{j,k}|^2  prod_{l != j} (lam_j - lam_l)``.
    Right side: ``prod_l (lam_j - mu_l)`` over the spectrum of the k-minor.
    """
    a = as_square(a)
    full = hermitian_eigen(a)
    _check_indices(a.shape[0], j, k)
    lams = full.values.real
    minors = hermitian_eigen(minor_remove(a, k)).values.real
    return _evp_report(lams, full.vectors, minors, j, k, _min_gap(lams) < GAP_WARNING_TOL)


def eve_identity_evp_all(a) -> list:
    """Every (j, k) report of :func:`eve_identity_evp`, j slowest.

    The matrix and each of its n minors are diagonalized once.
    """
    a = as_square(a)
    full = hermitian_eigen(a)
    n = a.shape[0]
    lams = full.values.real
    minors = [hermitian_eigen(minor_remove(a, k)).values.real for k in range(1, n + 1)]
    warning = _min_gap(lams) < GAP_WARNING_TOL
    return [
        _evp_report(lams, full.vectors, minors[k - 1], j, k, warning)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
    ]


@dataclass
class _PencilView:
    """What the generalized identity needs of one pencil, computed once."""

    values: np.ndarray   # ascending by (real, imag)
    vectors: list        # unit eigenvectors in the same order; empty for a minor
    b: np.ndarray
    weight: object       # det B (proof form) or the ascending eigenvalues of B (literal)


def _pencil_view(a, b, form, with_vectors) -> _PencilView:
    sol = solve_gevp_numeric(a, b)
    order = np.lexsort((sol.values.imag, sol.values.real))
    vectors = []
    if with_vectors:
        for i in order:
            x = sol.vectors[:, i]
            vectors.append(x / np.linalg.norm(x))
    weight = np.linalg.det(b) if form == PROOF_FORM else np.sort(np.linalg.eigvalsh(b))
    return _PencilView(sol.values[order], vectors, b, weight)


def _checked_pencil(a, b, form):
    a, b = as_square(a), as_square(b)
    if not is_hermitian(a) or not is_hermitian(b):
        raise NotHermitianError("the generalized identity takes Hermitian A and B")
    if is_singular(b):
        raise SingularBError("B must be invertible")
    if form not in (PROOF_FORM, LITERAL_FORM):
        raise ValueError(f"unknown form {form!r}")
    return a, b


def _gevp_report(full, minor, j, k, form, warning) -> IdentityReport:
    """The (j, k) evaluation from views of the pencil and of its k-minor."""
    lams = full.values
    x = full.vectors[j - 1]
    lam_j = lams[j - 1]
    gaps = np.delete(lams, j - 1)
    mus = minor.values
    inputs = {"j": j, "k": k, "n": lams.size, "form": form}
    if form == PROOF_FORM:
        q_prime = full.weight * np.prod(lam_j - gaps)
        eta_j = x.conj() @ full.b @ x
        p_minor = minor.weight * np.prod(lam_j - mus)
        lhs = abs(x[k - 1]) ** 2 * q_prime
        rhs = eta_j * p_minor
        return _report("eve-gevp-proof", lhs, rhs, inputs, warning)
    lhs = abs(x[k - 1]) ** 2 * np.prod(lam_j - gaps)
    rhs = np.prod(minor.weight) / np.prod(np.delete(full.weight, j - 1)) * np.prod(lam_j - mus)
    return _report("eve-gevp-literal", lhs, rhs, inputs, warning)


def eve_identity_gevp(a, b, j: int, k: int, form: str = PROOF_FORM) -> IdentityReport:
    """Generalized identity for the pencil ``A x = lam B x`` (two forms).

    The proof form weighs the characteristic polynomials by determinants and
    by ``eta_j = x_j^* B x_j`` with ``x_j^* x_j = 1``.  The literal form
    replaces the weights by a ratio of ascending eigenvalues of B and its
    minor, paired to the mode index by rank; it is evaluated exactly as
    stated and the report carries whatever disagreement results.
    """
    a, b = _checked_pencil(a, b, form)
    _check_indices(a.shape[0], j, k)
    full = _pencil_view(a, b, form, with_vectors=True)
    minor = _pencil_view(minor_remove(a, k), minor_remove(b, k), form, with_vectors=False)
    return _gevp_report(full, minor, j, k, form, _min_gap(full.values) < GAP_WARNING_TOL)


def eve_identity_gevp_all(a, b, form: str = PROOF_FORM) -> list:
    """Every (j, k) report of :func:`eve_identity_gevp`, j slowest.

    The pencil and each of its n minors are solved once.
    """
    a, b = _checked_pencil(a, b, form)
    n = a.shape[0]
    full = _pencil_view(a, b, form, with_vectors=True)
    minors = [
        _pencil_view(minor_remove(a, k), minor_remove(b, k), form, with_vectors=False)
        for k in range(1, n + 1)
    ]
    warning = _min_gap(full.values) < GAP_WARNING_TOL
    return [
        _gevp_report(full, minors[k - 1], j, k, form, warning)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
    ]


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

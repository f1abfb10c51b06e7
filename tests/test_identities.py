"""Eigenvector-eigenvalue identity (both pencil forms) and trigonometric identities."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmat import (
    NotHermitianError,
    SingularBError,
    SingularDenominatorError,
    eve_identity_evp,
    eve_identity_evp_all,
    eve_identity_gevp,
    eve_identity_gevp_all,
    gevp_eigenvalues_numeric,
    solve_gevp_numeric,
    trig_identity,
    trig_identity_all,
)
from specmat import identities
from specmat.identities import _minor_stack
from specmat.linalg import as_square

RNG = np.random.default_rng(314)
EPS = np.finfo(float).eps


def _entries(table):
    """The single-entry records of a table, in C order."""
    return [table[index] for index in np.ndindex(table.lhs.shape)]


def _assert_entry(single, table, index):
    """``single`` is the record of ``table``'s entry at ``index``, its sides and differences bit for bit."""
    entry = table[index]
    assert (single.kind, single.inputs, single.conditioning_warning) == (
        entry.kind, entry.inputs, entry.conditioning_warning)
    for name in ("lhs", "rhs", "abs_diff", "rel_diff"):
        assert np.array(getattr(single, name)).tobytes() == np.array(getattr(table, name)[index]).tobytes(), name


def random_hermitian(n, rng=RNG, gap=1e-4):
    while True:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a + a.conj().T
        w = np.linalg.eigvalsh(a)
        if np.min(np.diff(w)) >= gap:
            return a


def random_spd(n, rng=RNG):
    basis = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return basis @ basis.conj().T + n * np.eye(n)


class TestMinors:
    def test_2x2(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(_minor_stack(a, np.array([0]))[0], [[4.0]])

    def test_stack_matches_deleted_rows_and_columns(self):
        a = np.arange(25.0).reshape(5, 5) + 1j
        stack = _minor_stack(a, np.arange(5))
        for k in range(1, 6):
            assert np.array_equal(stack[k - 1], _minor(a, k))

    def test_1x1_rejected(self):
        with pytest.raises(IndexError):
            eve_identity_evp(np.array([[1.0]]), 1, 1)
        with pytest.raises(IndexError):
            eve_identity_gevp(np.array([[1.0]]), np.array([[2.0]]), 1, 1)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            eve_identity_evp(np.eye(3), 1, 4)
        with pytest.raises(IndexError):
            eve_identity_gevp(np.eye(3), np.eye(3), 0, 1)


class TestEvpIdentity:
    def test_hand_2x2(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        rep = eve_identity_evp(a, 1, 1)
        # |x_11|^2 (lam_1 - lam_2) = (1/2)(1-3) = -1 and lam_1 - mu_1 = 1 - 2 = -1
        assert rep.lhs == pytest.approx(-1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(-1.0, abs=1e-12)
        assert rep.rel_diff < 1e-12

    def test_diagonal_matrix(self):
        a = np.diag([1.0, 4.0, 9.0])
        for j in range(1, 4):
            for k in range(1, 4):
                rep = eve_identity_evp(a, j, k)
                assert rep.rel_diff < 1e-12
                # eigenvector entries of a diagonal matrix are 0/1 indicators
                weight = 1.0 if j == k else 0.0
                gaps = np.prod([
                    np.diag(a)[j - 1] - np.diag(a)[l] for l in range(3) if l != j - 1
                ])
                assert rep.lhs == pytest.approx(weight * gaps, abs=1e-12)

    def test_random_hermitian(self):
        a = random_hermitian(6)
        for j in (1, 4, 6):
            for k in (2, 5):
                rep = eve_identity_evp(a, j, k)
                assert rep.rel_diff < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eve_identity_evp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, 1)

    def test_conditioning_warning_on_near_degenerate(self):
        a = np.diag([1.0, 1.0 + 1e-8, 2.0])
        rep = eve_identity_evp(a, 3, 1)
        assert rep.conditioning_warning

    def test_modes_ascend_and_vectors_are_orthonormal(self):
        # lhs[j, k] = |x_kj|^2 prod_{l != j} (lam_j - lam_l): with unit, orthogonal
        # vectors each row sums to the gap product of the j-th smallest eigenvalue,
        # and each column, over the gap products, to 1
        rng = np.random.default_rng(7)
        for n in (2, 5, 16, 33):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = a + a.conj().T
            lams = np.linalg.eigvalsh(a)
            gaps = np.array([np.prod(np.delete(lam - lams, j)) for j, lam in enumerate(lams)])
            lhs = eve_identity_evp_all(a).lhs
            assert np.max(np.abs(lhs.sum(axis=1) / gaps - 1.0)) < 1e-9
            assert np.max(np.abs((lhs / gaps[:, None]).sum(axis=0) - 1.0)) < 1e-9


class TestGevpIdentity:
    def test_identity_b_reduces_to_evp_form(self):
        a = random_hermitian(5).real  # real symmetric keeps both routes simple
        b = np.eye(5)
        for j in (1, 3, 5):
            for k in (2, 4):
                evp = eve_identity_evp(a, j, k)
                for form in ("proof", "literal"):
                    gevp = eve_identity_gevp(a, b, j, k, form=form)
                    assert gevp.rel_diff < 1e-9
                    assert gevp.lhs == pytest.approx(evp.lhs, rel=1e-8, abs=1e-12)

    def test_proof_form_hand_2x2(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.diag([1.0, 2.0])
        # mode 2 is lam = +1/sqrt(2): |x_1|^2 = 2/3, Q' = 2*sqrt(2),
        # eta = 4/3, P^(1) = sqrt(2); both sides 4*sqrt(2)/3
        rep = eve_identity_gevp(a, b, 2, 1, form="proof")
        expected = 4.0 * np.sqrt(2.0) / 3.0
        assert rep.lhs == pytest.approx(expected, abs=1e-10)
        assert rep.rhs == pytest.approx(expected, abs=1e-10)
        assert rep.rel_diff < 1e-10

    def test_literal_form_2x2_counterexample_reported(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.diag([1.0, 2.0])
        rep = eve_identity_gevp(a, b, 2, 1, form="literal")
        # literal sides disagree (0.9428 versus 1.4142); the report documents it
        assert rep.lhs == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-10)
        assert rep.rhs == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert rep.rel_diff > 0.3

    def test_real_minor_of_a_complex_pencil_matches_the_table(self):
        # only row and column 1 of A are complex, so minor 1 has no imaginary
        # part; alone it must still be solved in the complex arithmetic of the table
        rng = np.random.default_rng(21)
        n = 5
        a = random_hermitian(n, rng).real.astype(complex)
        a[0, 1:] += 1j * rng.standard_normal(n - 1)
        a[1:, 0] = a[0, 1:].conj()
        b = np.diag(rng.uniform(1.0, 2.0, n)) + 0.1 * np.ones((n, n))
        for form in ("proof", "literal"):
            table = eve_identity_gevp_all(a, b, form=form)
            for j in range(1, n + 1):
                _assert_entry(eve_identity_gevp(a, b, j, 1, form=form), table, (j - 1, 0))

    def test_proof_form_random_definite_pairs(self):
        for n in (3, 5):
            a = random_hermitian(n)
            b = random_spd(n)
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    rep = eve_identity_gevp(a, b, j, k, form="proof")
                    if not rep.conditioning_warning:
                        assert rep.rel_diff < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eve_identity_gevp(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), 1, 1)

    def test_rejects_singular_b(self):
        with pytest.raises(SingularBError):
            eve_identity_gevp(np.eye(2), np.zeros((2, 2)), 1, 1)

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            eve_identity_gevp(np.eye(2), np.eye(2), 1, 1, form="folk")


class TestAllPairEvaluators:
    """The batch evaluators against the per-(j, k) functions, bit for bit."""

    def test_evp_matches_per_pair_calls(self):
        n = 5
        a = random_hermitian(n)
        batch = eve_identity_evp_all(a)
        assert batch.lhs.shape == (n, n)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                _assert_entry(eve_identity_evp(a, j, k), batch, (j - 1, k - 1))

    @pytest.mark.parametrize("form", ["proof", "literal"])
    def test_gevp_matches_per_pair_calls(self, form):
        n = 4
        a, b = random_hermitian(n), random_spd(n)
        batch = eve_identity_gevp_all(a, b, form=form)
        assert batch.lhs.shape == (n, n)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                _assert_entry(eve_identity_gevp(a, b, j, k, form=form), batch, (j - 1, k - 1))

    def test_singular_minor_of_an_indefinite_b(self):
        # B is invertible with eigenvalues -1, 1, 1, but its minors without
        # row and column 1 or 2 are singular; the one without 3 is not
        a = random_hermitian(3)
        b = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        for form in ("proof", "literal"):
            with pytest.raises(SingularBError):
                eve_identity_gevp_all(a, b, form=form)
            for k in (1, 2):
                with pytest.raises(SingularBError):
                    eve_identity_gevp(a, b, 2, k, form=form)
            assert eve_identity_gevp(a, b, 2, 3, form=form).inputs["k"] == 3

    def test_gevp_rejects_what_the_per_pair_function_rejects(self):
        with pytest.raises(NotHermitianError):
            eve_identity_gevp_all(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
        with pytest.raises(SingularBError):
            eve_identity_gevp_all(np.eye(2), np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            eve_identity_gevp_all(np.eye(2), np.eye(2), form="other")


def _library_pencils():
    """Pencils of the library's own families; their eigenvectors have structural zeros."""
    from specmat import assemble_toeplitz_hankel, build_corner_block, build_fem_p2, build_fem_p3

    iga = ([1.0, -1.0 / 3.0, -1.0 / 6.0], [11.0 / 20.0, 13.0 / 60.0, 1.0 / 120.0])
    pencils = {f"iga-variant-{v}": tuple(assemble_toeplitz_hankel(band, 20, v) for band in iga) for v in (1, 3, 4)}
    corner_block = tuple(build_corner_block(params, 6) for params in ([5.0, 1.0, -0.5, 3.0], [4.0, 0.5, 0.25, 2.0]))
    return {**pencils, "fem-p2": build_fem_p2(8), "fem-p3": build_fem_p3(6), "corner-block": corner_block}


@pytest.mark.parametrize("name", list(_library_pencils()))
def test_structural_zeros_read_rounding_relative_to_their_row(name):
    """Where both sides vanish in exact arithmetic, the computed sides are rounding of the row's size;
    taken over the row's scale they read as rounding, not as a relative difference of about 1."""
    a, b = _library_pencils()[name]
    for table in (eve_identity_evp_all(a), eve_identity_gevp_all(a, b)):
        assert not table.conditioning_warning
        assert np.max(table.rel_diff) <= 1e-8, table.kind
    if name == "iga-variant-1":  # 20 of its 400 entries are structural zeros, each read about 1 unfloored
        table = eve_identity_evp_all(a)
        zeros = np.maximum(abs(table.lhs), abs(table.rhs)) < 1e-12 * abs(table.lhs).sum(axis=1, keepdims=True)
        assert np.count_nonzero(zeros) >= 20


class TestConditioningWarning:
    """The near-repeated-eigenvalue flag is relative to the spectrum's scale."""

    @staticmethod
    def _flags(values):
        rng = np.random.default_rng(11)
        n = len(values)
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        chol = np.linalg.cholesky(random_spd(n, rng))
        # A = L diag(values) L^H has the pencil eigenvalues ``values`` with B = L L^H
        a, a_pencil = (m @ np.diag(values) @ m.conj().T for m in (q, chol))
        a, a_pencil = 0.5 * (a + a.conj().T), 0.5 * (a_pencil + a_pencil.conj().T)
        b = chol @ chol.conj().T
        return {
            scale: (
                eve_identity_evp_all(scale * a).conditioning_warning,
                eve_identity_gevp_all(scale * a_pencil, b).conditioning_warning,
            )
            for scale in (1.0, 1e-8, 1e8)
        }

    @pytest.mark.parametrize("values, flagged", [
        ([1.0, 2.0, 3.0, 4.0, 5.0], False),
        ([1.0, 1.0 + 1e-8, 2.0, 3.0, 5.0], True),
        ([-4.0, -1.0, 1e-9, 2e-9, 3.0], True),
    ])
    def test_scaling_flags_the_same_pairs(self, values, flagged):
        flags = self._flags(values)
        assert flags[1e-8] == flags[1.0] == flags[1e8]
        assert flags[1.0] == (flagged, flagged)


@st.composite
def _hermitian_pencils(draw):
    """Hermitian A and an invertible Hermitian B, definite or indefinite.

    A is real, complex, or diagonal with repeated entries; a diagonal A
    comes with a diagonal B, so the pencil repeats eigenvalues too.
    """
    n = draw(st.integers(2, 10))
    shape = draw(st.sampled_from(["real", "complex", "diagonal"]))
    definite = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = np.ones(n) if definite else rng.permutation(np.r_[-1.0, rng.choice([-1.0, 1.0], n - 1)])
    if shape == "diagonal":
        return np.diag(rng.integers(-2, 3, n).astype(float)), np.diag(signs * rng.integers(1, 3, n))
    m, q = rng.standard_normal((2, n, n))
    if shape == "complex":
        m, q = m + 1j * rng.standard_normal((n, n)), q + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(q)[0]
    b = (q * (signs * rng.uniform(0.5, 2.0, n))) @ q.conj().T
    return m + m.conj().T, 0.5 * (b + b.conj().T)


def _minor(m, k):
    return np.delete(np.delete(m, k - 1, axis=0), k - 1, axis=1)


def _mp_prod(factors):
    out = mpmath.mpc(1)
    for factor in factors:
        out *= factor
    return out


def _mp_weight(z):
    """``|z|^2`` of a double, exactly."""
    return mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2


def _reference_tables(a, b=None, form=None):
    """Each side of every (j, k) in 30-digit mpmath, from the inputs the evaluators use.

    The eigenvalues, vectors, determinants and minor eigenvalues are computed
    in double precision as the evaluators compute them; only the formula is
    evaluated exactly.  Returns ``(lhs, rhs, lhs_scale, rhs_scale)``, n x n
    nested lists: each side, and the magnitude that its rounding error scales
    with.  Only x_j^* B x_j is a sum; every other step is a product, whose
    relative error is bounded by its count of roundings.
    """
    n = a.shape[0]
    mp = lambda values: [mpmath.mpc(complex(z)) for z in values]  # noqa: E731
    with mpmath.workdps(30):
        if b is None:
            a = as_square(a)  # the evaluator's dtype: float64 unless A has an imaginary part
            lams, vectors = np.linalg.eigh(a)
            mus = [np.linalg.eigvalsh(_minor(a, k)) for k in range(1, n + 1)]
        else:
            a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
            try:
                np.linalg.cholesky(b)
                method = "hermitian"
            except np.linalg.LinAlgError:
                method = "general"
            sol = solve_gevp_numeric(a, b, method)
            lams, vectors = sol.values, sol.vectors
            real_a, real_b = (a, b) if (a.imag.any() or b.imag.any()) else (a.real, b.real)
            minors = [(_minor(real_a, k), _minor(real_b, k)) for k in range(1, n + 1)]
            mus = [gevp_eigenvalues_numeric(m_a[None], m_b[None], method)[0] for m_a, m_b in minors]
            if form == "proof":
                det_b = mp([np.linalg.det(real_b)])[0]
                minor_weights = mp(np.linalg.det(m_b) for _, m_b in minors)
                b_entries = [mp(row) for row in b]
            else:
                b_values = mp(np.linalg.eigvalsh(real_b))
                minor_weights = [_mp_prod(mp(np.linalg.eigvalsh(m_b))) for _, m_b in minors]
        lam, mu = mp(lams), [mp(values) for values in mus]
        lhs, rhs, lhs_scale, rhs_scale = ([[None] * n for _ in range(n)] for _ in range(4))
        for j in range(n):
            q_prime = _mp_prod(lam[j] - lam[l] for l in range(n) if l != j)
            if form == "proof":
                x = mp(vectors[:, j])
                terms = [x[i].conjugate() * b_entries[i][l] * x[l] for i in range(n) for l in range(n)]
                eta, eta_scale = mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)
                q_prime *= det_b
            elif form == "literal":
                own = _mp_prod(b_values[l] for l in range(n) if l != j)
            for k in range(n):
                lhs[j][k] = lhs_scale[j][k] = _mp_weight(vectors[k, j]) * q_prime
                rhs[j][k] = rhs_scale[j][k] = _mp_prod(lam[j] - m for m in mu[k])
                if form == "proof":
                    rhs_scale[j][k] = eta_scale * abs(minor_weights[k] * rhs[j][k])
                    rhs[j][k] *= eta * minor_weights[k]
                elif form == "literal":
                    rhs[j][k] = rhs_scale[j][k] = minor_weights[k] / own * rhs[j][k]
    return lhs, rhs, lhs_scale, rhs_scale


def _assert_near_reference(table, reference, n):
    """Each side within a small multiple of eps of the 30-digit value, scaled as the rounding scales."""
    lhs, rhs, lhs_scale, rhs_scale = reference
    bound = 4 * EPS * (n + 2)  # a few roundings per factor; x^* B x sums n^2 terms
    for rep in _entries(table):
        j, k = rep.inputs["j"] - 1, rep.inputs["k"] - 1
        assert abs(rep.lhs - lhs[j][k]) <= bound * abs(lhs_scale[j][k]), rep
        assert abs(rep.rhs - rhs[j][k]) <= bound * abs(rhs_scale[j][k]), rep


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_hermitian_pencils())
def test_identity_tables_property(pencil):
    """The batch tables equal the per-pair evaluations bit for bit and the exact formula to rounding."""
    a, b = pencil
    n = a.shape[0]
    # every mode j and every minor k, each against two others
    pairs = sorted({(j, k) for j in range(1, n + 1) for k in (1, j, n + 1 - j)})
    batch = eve_identity_evp_all(a)
    for j, k in pairs:
        _assert_entry(eve_identity_evp(a, j, k), batch, (j - 1, k - 1))
    _assert_near_reference(batch, _reference_tables(a), n)
    for form in ("proof", "literal"):
        batch = eve_identity_gevp_all(a, b, form=form)
        for j, k in pairs:
            _assert_entry(eve_identity_gevp(a, b, j, k, form=form), batch, (j - 1, k - 1))
        _assert_near_reference(batch, _reference_tables(a, b, form), n)


class TestTrigIdentities:
    def test_ti31_smallest_case_is_exactly_half(self):
        rep = trig_identity("ti31", 2, 1)
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.rhs == pytest.approx(0.5, abs=1e-12)
        assert rep.abs_diff < 1e-12

    def test_ti31_all_small_sizes(self):
        for n in range(2, 21):
            for k in range(1, n + 1):
                rep = trig_identity("ti31", n, k)
                assert rep.rel_diff < 1e-8

    def test_ti31_ignores_bands(self):
        bare = trig_identity("ti31", 7, 3)
        banded = trig_identity("ti31", 7, 3, alpha=(5.0, 2.0), beta=(3.0, 1.0))
        assert banded.lhs == bare.lhs
        assert banded.rhs == bare.rhs

    def test_ti3_all_small_sizes(self):
        for n in range(3, 21):
            for k in range(1, n + 1):
                for l in range(2, n):
                    rep = trig_identity("ti3", n, k, l)
                    assert rep.rel_diff < 1e-8

    @pytest.mark.parametrize("kind", ["ti31", "ti3"])
    def test_an_error_in_a_small_entry_reads_relative_to_that_entry(self, monkeypatch, kind):
        """The trigonometric tables' rel_diff is entrywise: an entry of size 2/(n+1) sin^2(pi/(n+1)),
        about 2e-5 at n = 100, perturbed by 1e-6 of itself, reads 1e-6, not 1e-6 times its size."""
        trig_tables = identities._trig_tables

        def perturbed(*args):
            lhs, rhs = trig_tables(*args)
            rhs[0, 0] *= 1.0 + 1e-6
            return lhs, rhs

        monkeypatch.setattr(identities, "_trig_tables", perturbed)
        table = trig_identity_all(kind, 100)
        assert abs(table.lhs[0, 0]) < 3e-5
        assert table.rel_diff[0, 0] == pytest.approx(1e-6, rel=1e-3)
        assert table[0, 0].rel_diff == trig_identity(kind, 100, 1, 1).rel_diff == table.rel_diff[0, 0]

    def test_ti3_edge_l_routes_to_ti31(self):
        for n in (4, 9):
            for k in range(1, n + 1):
                base = trig_identity("ti31", n, k)
                for l in (1, n):
                    edge = trig_identity("ti3", n, k, l)
                    if l == 1:
                        assert edge.rhs == pytest.approx(base.rhs, rel=1e-12)
                    assert edge.rel_diff < 1e-8

    def test_ti3g_with_identity_band_reduces_to_ti3(self):
        for n in (5, 8):
            for k in (1, 3):
                for l in range(1, n + 1):
                    plain = trig_identity("ti3", n, k, l)
                    general = trig_identity(
                        "ti3g", n, k, l, alpha=(2.0, -1.0), beta=(1.0, 0.0)
                    )
                    assert general.rhs == pytest.approx(plain.rhs, rel=1e-10, abs=1e-12)

    def test_ti3g_holds_at_edge_minors(self):
        # the printed determinant ratio matches the minor split only at l = 1, n
        for n in (5, 9):
            for k in (1, 2, n):
                for l in (1, n):
                    rep = trig_identity("ti3g", n, k, l, alpha=(2.0, -1.0), beta=(0.9, 0.3))
                    assert rep.rel_diff < 1e-8

    def test_ti3g_interior_minor_documented_as_printed(self):
        # with a genuine band, the stated form disagrees for interior l;
        # the evaluator reports the gap instead of failing
        rep = trig_identity("ti3g", 7, 3, 4, alpha=(2.0, -1.0), beta=(0.9, 0.3))
        assert rep.rel_diff > 1e-6

    def test_singular_beta_symbol_raises(self):
        n = 5
        beta1 = 1.0
        beta0 = -2.0 * beta1 * np.cos(np.pi / (n + 1))  # symbol vanishes at angle 1
        with pytest.raises(SingularDenominatorError):
            trig_identity("ti3g", n, 2, 2, alpha=(2.0, -1.0), beta=(beta0, beta1))

    def test_empty_index_lists_give_empty_tables(self):
        assert trig_identity_all("ti3", 5, ks=[]).lhs.shape == (0, 5)
        assert trig_identity_all("ti3", 5, ls=[]).rel_diff.shape == (5, 0)
        assert trig_identity_all("ti3g", 5, ks=[], alpha=(2, -1), beta=(2 / 3, 1 / 6)).lhs.shape == (0, 5)

    def test_bad_kind_and_ranges(self):
        with pytest.raises(ValueError):
            trig_identity("ti99", 4, 1)
        with pytest.raises(IndexError):
            trig_identity("ti31", 1, 1)
        with pytest.raises(IndexError):
            trig_identity("ti3", 4, 1, 9)


# ------------------------------------------------------- trigonometric tables

@st.composite
def _trig_cases(draw):
    """A kind, a size, bands for ti3g (real or complex), and index subsets of the table."""
    kind = draw(st.sampled_from(["ti31", "ti3", "ti3g"]))
    n = draw(st.integers(2, 80))
    bands = {}
    if kind == "ti3g":
        part = st.integers(-16, 16).map(lambda v: v / 8)
        imag = part if draw(st.booleans()) else st.just(0.0)
        entry = lambda: complex(draw(part), draw(imag))  # noqa: E731
        # |beta_0| >= 3 > 2 |beta_1|: beta's symbol stays away from zero
        bands = {"alpha": (entry(), entry()),
                 "beta": (3 + abs(draw(part)) + 1j * draw(imag), entry() / 2)}
    indices = st.lists(st.integers(1, n), min_size=1, max_size=4)
    return kind, n, bands, draw(indices), draw(indices)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_trig_cases())
@example(("ti3g", 80, {"alpha": (4 + 1j, 0.5), "beta": (1, 0.2j)}, [1, 52, 80], [1, 77, 80]))
@example(("ti3g", 2, {"alpha": (2, -1), "beta": (2 / 3, 1 / 6)}, [1, 2], [2]))
@example(("ti3", 80, {}, [52, 77], [52, 77]))
def test_trig_entry_is_the_table_entry_bit_for_bit(case):
    # each entry depends only on its own k and l, not on the table it sits in
    kind, n, bands, ks, ls = case
    try:
        table = trig_identity_all(kind, n, **bands)
    except SingularDenominatorError:
        # alpha a multiple of beta makes the symbol ratio constant, and every gap zero
        for k in ks:
            with pytest.raises(SingularDenominatorError):
                trig_identity(kind, n, k, ls[0], **bands)
        return
    assert table.lhs.shape == (n, 1 if kind == "ti31" else n)
    column = lambda l: 0 if kind == "ti31" else l - 1  # noqa: E731
    for k in ks:
        for l in ls:
            _assert_entry(trig_identity(kind, n, k, l, **bands), table, (k - 1, column(l)))
    part = trig_identity_all(kind, n, ks, ls, **bands)
    for index in np.ndindex(part.lhs.shape):
        k, l = part.inputs["k"][index[0], 0], part.inputs["l"][0, index[1]]
        assert k == ks[index[0]]
        _assert_entry(part[index], table, (k - 1, column(l)))


def _scalar_ti3(n, k, l):
    """ti3 one (k, l) at a time, as lists of gaps and their products, with the exact zeros snapped."""
    cos_k = np.cos(k * np.pi / (n + 1))
    denom = [cos_k - np.cos(j * np.pi / (n + 1)) for j in range(1, n + 1) if j != k]
    left = [0.0 if k * l == i * (n + 1) else cos_k - np.cos(i * np.pi / l) for i in range(1, l)]
    right = [0.0 if k * (n - l + 1) == i * (n + 1) else cos_k - np.cos(i * np.pi / (n - l + 1))
             for i in range(1, n - l + 1)]
    sine = np.sin(k * l * np.pi / (n + 1))
    lhs = 0.0 if (k * l) % (n + 1) == 0 else 2.0 / (n + 1) * (sine * sine)
    return lhs, np.prod(left) * np.prod(right) / np.prod(denom)


@pytest.mark.parametrize("n", [*range(2, 14), 30])
def test_ti3_table_is_the_scalar_formula_bit_for_bit(n):
    # the table kernel keeps each product's order, so the printed ti31 and ti3 lines stay as they were
    for rep in _entries(trig_identity_all("ti3", n)) + _entries(trig_identity_all("ti31", n)):
        lhs, rhs = _scalar_ti3(n, rep.inputs["k"], rep.inputs["l"])
        assert (rep.lhs, rep.rhs) == (lhs, rhs)


def _ti3_reference(n, k, l):
    """``2/(n+1) sin^2(k l pi/(n+1))`` in 50 digits, which both sides of ti3 equal."""
    return 2 * mpmath.sin(k * l * mpmath.pi / (n + 1)) ** 2 / (n + 1)


def _ti3_bounds(n, k, l):
    """First-order error bounds of the float sides of ti3, relative to the reference.

    Each gap ``cos(theta_k) - cos(phi)`` carries the rounding of both cosines
    and of both angles, at most ``(2 + 2 pi) eps`` absolute, so the right
    side's relative error is at most ``eps`` times the sum of
    ``(2 + 2 pi) / |gap|`` over every gap, plus two roundings per factor;
    the left side's sine carries the rounding of its angle.
    """
    def angles(d):
        return np.arange(1, d) * np.pi / d
    theta = k * np.pi / (n + 1)
    numerators = np.concatenate((angles(l), angles(n - l + 1)))
    denominators = np.delete(angles(n + 1), k - 1)
    gaps = np.abs(np.cos(theta) - np.cos(np.concatenate((numerators, denominators))))
    rhs = EPS * (2 * gaps.size + np.sum((2 + 2 * np.pi) / gaps[gaps > 0]))
    angle = k * l * np.pi / (n + 1)
    lhs = EPS * (4 + 2 * angle * abs(np.cos(angle) / np.sin(angle)))
    return lhs, rhs


def test_ti31_and_ti3_match_50_digit_references_up_to_n_200():
    with mpmath.workdps(50):
        for n in (2, 3, 7, 64, 200):
            ls = sorted({1, 2, 3, n // 3, n // 2, (n + 1) // 2 + 1, n - 1, n} & set(range(1, n + 1)))
            reports = _entries(trig_identity_all("ti3", n, ls=ls)) + _entries(trig_identity_all("ti31", n))
            for rep in reports:
                k, l = rep.inputs["k"], rep.inputs["l"]
                reference = _ti3_reference(n, k, l)
                if (k * l) % (n + 1) == 0:  # the true zeros are exact zeros on both sides
                    assert rep.lhs == rep.rhs == 0
                    continue
                lhs_bound, rhs_bound = _ti3_bounds(n, k, l)
                assert abs(rep.lhs - reference) <= 4 * lhs_bound * reference
                assert abs(rep.rhs - reference) <= 4 * rhs_bound * reference
        # the reference is the identity's common value: its right side in 50 digits agrees
        n = 200
        for k, l in [(1, 1), (7, 100), (52, 77), (150, 199), (200, 200)]:
            theta = mpmath.cos(k * mpmath.pi / (n + 1))
            gap = lambda i, d: theta - mpmath.cos(i * mpmath.pi / d)  # noqa: E731
            rhs = (mpmath.fprod(gap(i, l) for i in range(1, l))
                   * mpmath.fprod(gap(i, n - l + 1) for i in range(1, n - l + 1))
                   / mpmath.fprod(gap(j, n + 1) for j in range(1, n + 1) if j != k))
            assert abs(rhs - _ti3_reference(n, k, l)) <= mpmath.mpf(10) ** -40

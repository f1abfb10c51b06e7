"""Numeric oracle: GEVP solver paths, companion linearization, residuals, matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmat import (
    EigenSolution,
    NotHermitianError,
    PolynomialEigenSolution,
    ShapeMismatchError,
    SingularBError,
    SingularPencilError,
    SymmetricBand,
    ZeroVectorError,
    assemble_tensor_pencil,
    assemble_toeplitz_hankel,
    build_fem_p2,
    corner_block_band,
    corner_block_eigenpairs,
    eve_identity_evp_all,
    eve_identity_gevp_all,
    fem_p2_bands,
    fem_p2_eigenpairs,
    fem_p3_eigenvalues,
    gevp_eigenpairs,
    gevp_eigenvalues_numeric,
    pencil_residuals,
    pevp_eigenpairs,
    solve_gevp_numeric,
    solve_pevp_numeric,
    toeplitz_hankel_band,
    verify,
)
from specmat import oracle
from specmat.linalg import as_square, inf_norm
from specmat.oracle import pair_values

RNG = np.random.default_rng(99)


def _random_hermitian(n, rng=RNG):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def _random_spd(n, rng=RNG):
    basis = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return basis @ basis.conj().T + n * np.eye(n)


def _iga_pencil(n):
    """The paper's real symmetric-definite IGA stiffness/mass pair."""
    a = assemble_toeplitz_hankel([1.0, -1.0 / 3.0, -1.0 / 6.0], n, 1)
    b = assemble_toeplitz_hankel([11.0 / 20.0, 13.0 / 60.0, 1.0 / 120.0], n, 1)
    return a, b


class TestSolveGevp:
    def test_identity_b_2x2(self):
        sol = solve_gevp_numeric(np.array([[2.0, -1.0], [-1.0, 2.0]]), np.eye(2))
        assert np.allclose(np.sort(sol.values.real), [1.0, 3.0], atol=1e-12)

    def test_complex_5x5_pair_matches_listed_values(self):
        a = assemble_toeplitz_hankel([8 + 2j, 5 - 1j, 2j], 5, 3)
        b = assemble_toeplitz_hankel([6.0, 3j, 1 - 1j], 5, 3)
        sol = solve_gevp_numeric(a, b)
        s2 = np.sqrt(2.0)
        listed = np.array(
            [
                2 - 0.5j,
                (7 - 3j + (6 - 5j) * s2) / 9,
                1.4 - 1.2j,
                -0.625 + 0.375j,
                (7 - 3j - (6 - 5j) * s2) / 9,
            ]
        )
        got = np.sort_complex(sol.values)
        assert np.max(np.abs(got - np.sort_complex(listed))) < 1e-9

    def test_singular_b(self):
        b = np.eye(3)
        b[1, 1] = 0.0
        with pytest.raises(SingularBError):
            solve_gevp_numeric(np.eye(3), b)

    def test_positive_definite_b_below_singular_threshold(self):
        # Cholesky accepts this B; its smallest singular value is still too small
        with pytest.raises(SingularBError):
            solve_gevp_numeric(np.eye(3), np.diag([1.0, 1e-15, 1.0]))

    def test_real_route_matches_complex_route(self):
        n = 40
        a, b = _iga_pencil(n)
        # a unitary diagonal similarity keeps the spectrum and makes the
        # pencil complex (and still exactly Hermitian)
        phases = np.exp(2j * np.pi * RNG.uniform(size=n))
        rotate = np.outer(phases.conj(), phases)
        real = solve_gevp_numeric(a, b)
        cplx = solve_gevp_numeric(a * rotate, b * rotate)
        assert not real.values.imag.any() and not real.vectors.imag.any()
        assert cplx.vectors.imag.any()
        scale = np.max(np.abs(real.values))
        assert np.max(np.abs(real.values - cplx.values)) <= 1e-13 * scale
        assert np.max(pencil_residuals(a, b, real.values, real.vectors)) < 1e-13

    def test_a_float64_pencil_is_reduced_as_it_is(self):
        a, b = (m.real.copy() for m in _iga_pencil(9))
        assert as_square(a) is a and as_square(b) is b  # neither cast to complex nor copied back
        _, reduced = oracle._reduce_pencil(a, b, "auto")
        assert all(block.dtype == np.float64 for block in reduced)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            solve_gevp_numeric(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("n", [17, 60, 200])
    def test_general_path_has_no_size_cap(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 2 * np.sqrt(n) * np.eye(n)
        sol = solve_gevp_numeric(a, b)
        assert sol.n_modes == n
        assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) < 1e-9
        values = sol.values
        assert np.all(np.lexsort((values.imag, values.real)) == np.arange(n))
        assert np.allclose(np.linalg.norm(sol.vectors, axis=0), 1.0, rtol=0, atol=1e-14)

    def test_general_path_on_real_nonsymmetric_pencil(self):
        n = 9
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n))
        b = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        sol = solve_gevp_numeric(a, b)
        assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) < 1e-12
        assert np.abs(sol.values.imag).max() > 0  # complex pairs of a real pencil

    def test_hermitian_path_handles_moderate_sizes(self):
        n = 40
        a = _random_hermitian(n)
        b = _random_spd(n)
        sol = solve_gevp_numeric(a, b)
        assert sol.n_modes == n
        assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) < 1e-9
        assert np.max(np.abs(sol.values.imag)) < 1e-10

    def test_paths_agree_where_both_apply(self):
        for n in (3, 6, 12):
            a = _random_hermitian(n)
            b = _random_spd(n)
            fast = solve_gevp_numeric(a, b, method="hermitian")
            slow = solve_gevp_numeric(a, b, method="general")
            scale = max(1.0, np.max(np.abs(fast.values)))
            assert np.max(
                np.abs(np.sort_complex(fast.values) - np.sort_complex(slow.values))
            ) < 1e-8 * scale

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            solve_gevp_numeric(np.eye(2), np.eye(2), method="charpoly")

    @pytest.mark.parametrize("b", [np.eye(3), np.zeros((3, 3)), np.eye(2), np.zeros((2, 3, 3))],
                             ids=["regular-b", "singular-b", "other-shape", "stack"])
    def test_unknown_method_is_refused_before_any_work(self, b):
        a = np.eye(3) if b.ndim == 2 else np.zeros((2, 3, 3))
        for solver in (solve_gevp_numeric, gevp_eigenvalues_numeric):
            if b.ndim == 3 and solver is solve_gevp_numeric:
                continue  # a stack has no vectors
            with pytest.raises(ValueError) as caught:
                solver(a, b, "bogus")
            assert type(caught.value) is ValueError and str(caught.value) == "unknown method 'bogus'"

    def test_forced_hermitian_path_rejects_unsuitable_input(self):
        from specmat import NotHermitianError

        with pytest.raises(NotHermitianError):
            solve_gevp_numeric(
                np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), method="hermitian"
            )
        with pytest.raises(SingularBError):
            # Hermitian but indefinite right side cannot take the Cholesky route
            solve_gevp_numeric(np.eye(2), np.diag([1.0, -1.0]), method="hermitian")

    def test_oracle_self_consistency(self):
        cases = []
        for n in (3, 5, 8):
            cases.append((_random_hermitian(n), _random_spd(n)))
            sym = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
            sym = sym + sym.T  # complex symmetric, not Hermitian
            cases.append((sym, np.eye(n) * (2.0 + 0.5j) + 0.1 * (sym + sym.T)))
        for a, b in cases:
            sol = solve_gevp_numeric(a, b)
            assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) < 1e-9

    def test_hermitian_route_maps_vectors_back_without_a_solve(self, monkeypatch):
        # x = L^{-H} q from the inverse factor the reduction already formed
        a, b = _random_hermitian(7), _random_spd(7)
        chol = np.linalg.cholesky(b)
        w, q = np.linalg.eigh(np.linalg.solve(chol, np.linalg.solve(chol, a).conj().T))
        expected = np.linalg.solve(chol.conj().T, q)
        expected /= np.linalg.norm(expected, axis=0)

        def refuse(*args):
            raise AssertionError("the Hermitian route ran a general solve")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        sol = solve_gevp_numeric(a, b)
        assert np.allclose(sol.values, w, rtol=1e-12, atol=0)
        phases = np.sum(sol.vectors.conj() * expected, axis=0)
        assert np.allclose(np.abs(phases), 1.0, atol=1e-12)
        assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) < 1e-13


def _rotated(a, b, rng):
    """The pencil under a unitary diagonal similarity: the same spectrum, complex entries."""
    phases = np.exp(2j * np.pi * rng.uniform(size=a.shape[0]))
    rotate = np.outer(phases.conj(), phases)
    return a * rotate, b * rotate


class TestBlockedInverse:
    """The Cholesky factors' inverses by 2x2 blocks, against ``np.linalg.inv``, across the block size."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _factors(n, complex_entries, graded, rng, count=None):
        shape = (n, n) if count is None else (count, n, n)
        basis = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_entries else 0.0)
        chol = np.linalg.cholesky(basis @ basis.conj().swapaxes(-1, -2) + n * np.eye(n))
        # graded columns: condition numbers up to about 1e8
        return chol * np.logspace(0, -8, n) if graded else chol

    def _check(self, chol, inv):
        n = chol.shape[-1]
        reference = np.linalg.inv(chol)
        kappa = np.linalg.cond(chol)
        assert inv.dtype == chol.dtype
        assert not np.triu(inv, 1).any()
        residual = np.linalg.norm(inv @ chol - np.eye(n), 2, axis=(-2, -1))
        assert np.all(residual <= 4 * n * self.EPS * kappa)
        gap = np.linalg.norm(inv - reference, 2, axis=(-2, -1))
        assert np.all(gap <= 4 * n * self.EPS * kappa * np.linalg.norm(reference, 2, axis=(-2, -1)))

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("graded", [False, True], ids=["well-conditioned", "graded"])
    def test_matches_inv(self, complex_entries, graded):
        rng = np.random.default_rng(11)
        block = oracle._BLOCKED_INVERSE_MIN
        sizes = {1, 2, 3, block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1, 200}
        for n in sorted(sizes | set(rng.integers(1, 201, 6).tolist())):
            chol = self._factors(n, complex_entries, graded, rng)
            self._check(chol, oracle._inverse_lower(chol))

    @pytest.mark.parametrize("n", [5, 64, 150])
    def test_stack(self, n):
        rng = np.random.default_rng(n)
        for complex_entries in (False, True):
            chols = self._factors(n, complex_entries, False, rng, count=4)
            self._check(chols, oracle._inverse_lower(chols))

    def test_cholesky_route_inverts_no_large_block_by_lu(self, monkeypatch):
        a, b = (m.real for m in _iga_pencil(301))  # halves of order 151 and 150
        orders, inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: orders.append(m.shape[-1]) or inv(m))
        values = gevp_eigenvalues_numeric(a, b)
        assert orders and max(orders) < oracle._BLOCKED_INVERSE_MIN
        reference = np.sort(np.linalg.eigvals(np.linalg.solve(b, a)).real)
        assert np.max(np.abs(values - reference)) <= 1e-12 * np.max(np.abs(reference))


class TestGevpEigenvaluesNumeric:
    """The values-only oracle against the full solve, on both routes."""

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_hermitian_route_matches_the_full_solve(self, complex_entries):
        rng = np.random.default_rng(3)
        pencils = [_iga_pencil(40), (_random_hermitian(12, rng).real, _random_spd(12, rng).real)]
        for a, b in pencils:
            if complex_entries:
                a, b = _rotated(a, b, rng)
            values = gevp_eigenvalues_numeric(a, b)
            full = solve_gevp_numeric(a, b).values
            assert values.dtype == float and np.all(np.diff(values) >= 0)
            assert np.max(np.abs(values - full)) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_general_route_matches_the_full_solve(self, complex_entries):
        rng = np.random.default_rng(4)
        n = 15
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 2 * np.sqrt(n) * np.eye(n)
        if complex_entries:
            a = a + 1j * rng.standard_normal((n, n))
        for method in ("auto", "general"):
            values = gevp_eigenvalues_numeric(a, b, method=method)
            full = solve_gevp_numeric(a, b, method=method).values
            assert np.all(np.lexsort((values.imag, values.real)) == np.arange(n))
            assert np.max(np.abs(values - full)) <= 1e-13 * np.max(np.abs(full))

    def test_forced_general_route_on_a_hermitian_pencil(self):
        a, b = _random_hermitian(8), _random_spd(8)
        values = gevp_eigenvalues_numeric(a, b, method="general")
        full = solve_gevp_numeric(a, b, method="general").values
        assert values.dtype == complex
        assert np.max(np.abs(values - full)) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize(
        "a, b, method, error",
        [
            (np.eye(2), np.eye(3), "auto", ShapeMismatchError),
            (np.eye(3), np.diag([1.0, 0.0, 1.0]), "auto", SingularBError),
            (np.eye(3), np.diag([1.0, 1e-15, 1.0]), "auto", SingularBError),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), "hermitian", NotHermitianError),
            (np.eye(2), np.diag([1.0, -1.0]), "hermitian", SingularBError),
            (np.eye(2), np.eye(2), "charpoly", ValueError),
        ],
        ids=["shape", "singular-b", "below-threshold", "forced-not-hermitian",
             "forced-indefinite", "unknown-method"],
    )
    def test_raises_what_the_full_solve_raises(self, a, b, method, error):
        for solver in (solve_gevp_numeric, gevp_eigenvalues_numeric):
            with pytest.raises(error) as caught:
                solver(a, b, method=method)
            assert type(caught.value) is error

    @pytest.mark.parametrize("smallest, singular", [(1e-14, True), (1.5e-13, False)])
    def test_nearly_singular_spd_b_takes_the_exact_check(self, smallest, singular):
        # the Cholesky bound cannot clear such a B, so the eigenvalue check decides
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        b = (q * [smallest, 0.5, 0.75, 1.0, 1.0, 1.0]) @ q.T
        b = 0.5 * (b + b.T)
        assert np.linalg.cholesky(b) is not None
        assert oracle._singular(b, [b]) is singular
        for solver in (solve_gevp_numeric, gevp_eigenvalues_numeric):
            if singular:
                with pytest.raises(SingularBError):
                    solver(np.eye(6), b)
            else:
                solver(np.eye(6), b)

    def test_cholesky_bound_spares_the_eigenvalue_check(self, monkeypatch):
        a, b = _iga_pencil(30)
        values, full = gevp_eigenvalues_numeric(a, b), solve_gevp_numeric(a, b).values

        def refuse(*args):
            raise AssertionError("the singularity check ran on a B that Cholesky already cleared")

        monkeypatch.setattr(oracle, "_singular", refuse)
        assert np.array_equal(gevp_eigenvalues_numeric(a, b), values)
        assert np.array_equal(solve_gevp_numeric(a, b).values, full)

    def test_cholesky_bound_clears_a_b_hermitian_only_to_rounding(self, monkeypatch):
        rng = np.random.default_rng(0)
        basis = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        a = basis + basis.conj().T
        b = basis @ basis.conj().T + 7.0 * np.eye(7)
        assert not np.array_equal(b, b.conj().T)  # rounding in the product
        values, full = gevp_eigenvalues_numeric(a, b), solve_gevp_numeric(a, b).values

        def refuse(*args):
            raise AssertionError("the singularity check ran on a B that Cholesky already cleared")

        monkeypatch.setattr(oracle, "_singular", refuse)
        assert np.array_equal(gevp_eigenvalues_numeric(a, b), values)
        assert np.array_equal(solve_gevp_numeric(a, b).values, full)
        minor_a, minor_b = (np.delete(np.delete(m, 0, 0), 0, 1) for m in (a, b))
        stacked = gevp_eigenvalues_numeric(minor_a[None], minor_b[None], "hermitian")
        assert np.array_equal(stacked[0], gevp_eigenvalues_numeric(minor_a, minor_b))


def _stack(rng, count, n, hermitian, complex_entries):
    """Two ``(count, n, n)`` stacks of random pencils, none of them centrosymmetric."""
    def draw():
        m = rng.standard_normal((count, n, n))
        return m + 1j * rng.standard_normal((count, n, n)) if complex_entries else m

    a, basis = draw(), draw()
    if not hermitian:
        return a, basis + 2 * n * np.eye(n)
    return a + a.conj().swapaxes(1, 2), basis @ basis.conj().swapaxes(1, 2) + n * np.eye(n)


class TestStackedPencils:
    """``gevp_eigenvalues_numeric`` on two ``(m, p, p)`` stacks, one row of values per pencil."""

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian-pencils", "general-pencils"])
    def test_each_row_is_its_pencil_alone_bit_for_bit(self, hermitian, complex_entries):
        rng = np.random.default_rng(31)
        a, b = _stack(rng, 6, 7, hermitian, complex_entries)
        for method in ("hermitian", "general") if hermitian else ("general",):
            rows = gevp_eigenvalues_numeric(a, b, method)
            assert rows.shape == (6, 7)
            for row, pencil_a, pencil_b in zip(rows, a, b):
                # eigvals returns real values when all are real: of the pencil, or of the whole stack
                alone = np.asarray(gevp_eigenvalues_numeric(pencil_a, pencil_b, method), dtype=complex)
                assert np.array_equal(row.astype(complex).view(np.uint64), alone.view(np.uint64))

    def test_auto_is_refused(self):
        # cholesky reads only the lower triangle, so "auto" could send a
        # non-Hermitian stack down the Hermitian route
        a, b = _stack(np.random.default_rng(32), 3, 4, True, True)
        with pytest.raises(ValueError):
            gevp_eigenvalues_numeric(a, b)
        with pytest.raises(ValueError):
            gevp_eigenvalues_numeric(a, b, "auto")

    def test_never_split_in_centrosymmetric_halves(self, monkeypatch):
        pencils = [tuple(m.real for m in pencil) for pencil in (_iga_pencil(9), build_fem_p2(5))]
        for pencil_a, pencil_b in pencils:
            assert oracle._centrosymmetric_halves([pencil_a, pencil_b]) is not None
        a, b = (np.stack(side) for side in zip(*pencils))

        def refuse(mats):
            raise AssertionError("a stack was tested for the centrosymmetric split")

        for method in ("hermitian", "general"):
            want = [_dense(gevp_eigenvalues_numeric, pencil_a, pencil_b, method)
                    for pencil_a, pencil_b in pencils]
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_centrosymmetric_halves", refuse)
                rows = gevp_eigenvalues_numeric(a, b, method)
            assert np.array_equal(rows, want)

    @pytest.mark.parametrize("method", ["hermitian", "general"])
    def test_one_singular_b_raises(self, method):
        a, b = _stack(np.random.default_rng(33), 4, 5, True, False)
        b[2] = np.diag([1.0, 2.0, 0.0, 3.0, 1.0])
        with pytest.raises(SingularBError) as caught:
            gevp_eigenvalues_numeric(a, b, method)
        assert type(caught.value) is SingularBError
        b[2] = np.diag([1.0, 2.0, 1e-15, 3.0, 1.0])  # below the threshold, still definite
        with pytest.raises(SingularBError):
            gevp_eigenvalues_numeric(a, b, method)

    def test_bad_shapes_and_stacked_vectors_are_refused(self):
        stack = np.stack([np.eye(3)] * 2)
        with pytest.raises(ShapeMismatchError):
            gevp_eigenvalues_numeric(stack, stack[:, :2], "general")
        with pytest.raises(ShapeMismatchError):
            gevp_eigenvalues_numeric(stack, np.eye(3), "general")
        with pytest.raises(ValueError):
            solve_gevp_numeric(stack, stack, "general")


@st.composite
def _dominant_complex_pencils(draw):
    """Diagonally dominant complex pencils, so that B is well conditioned."""
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def dominant():
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m[np.diag_indices(n)] = (1.5 + rng.uniform()) * np.abs(m).sum(axis=1) * np.exp(
            1j * rng.uniform(-1.0, 1.0, n))
        return m

    return dominant(), dominant()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_dominant_complex_pencils())
def test_general_route_property(pencil):
    a, b = pencil
    sol = solve_gevp_numeric(a, b)
    assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) < 1e-9
    reference = np.linalg.eigvals(np.linalg.solve(b, a))
    _, distances = pair_values(reference, sol.values)
    assert np.max(distances) <= 1e-9 * max(1.0, np.max(np.abs(reference)))


class TestSolvePevp:
    def test_scalar_quadratic(self):
        values, dropped = solve_pevp_numeric(
            [np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]])]
        )
        assert not dropped
        assert np.allclose(np.sort(values.real), [1.0, 2.0], atol=1e-12)

    def test_linear_case_agrees_with_gevp(self):
        n = 5
        a = _random_hermitian(n)
        b = _random_spd(n)
        # P(lam) = (-a) + lam*b has the spectrum of a x = lam b x
        values, dropped = solve_pevp_numeric([-a, b])
        assert not dropped
        direct = solve_gevp_numeric(a, b)
        assert np.max(
            np.abs(np.sort_complex(values) - np.sort_complex(direct.values))
        ) < 1e-9

    def test_cubic_pencil_matches_interior_fem_p3_modes(self):
        n_elems = 4
        dim = n_elems - 1
        mats = [
            -25200.0 * assemble_toeplitz_hankel([2.0, -1.0], dim, 1),
            360.0 * assemble_toeplitz_hankel([64.0, 3.0], dim, 1),
            30.0 * assemble_toeplitz_hankel([-36.0, 1.0], dim, 1),
            assemble_toeplitz_hankel([8.0, 1.0], dim, 1),
        ]
        scaled, dropped = solve_pevp_numeric(mats)
        assert not dropped
        values = np.sort(scaled.real * n_elems ** 2)
        analytic = fem_p3_eigenvalues(n_elems).real
        interior = np.sort(
            np.array([v for v in analytic if not np.isclose(v, 10.0 * n_elems ** 2)
                      and not np.isclose(v, 42.0 * n_elems ** 2)])
        )
        assert values.size == interior.size
        assert np.max(np.abs(values - interior) / np.abs(interior)) < 1e-10

    def test_each_value_nearly_singularizes_the_pencil(self):
        n, q = 3, 2
        mats = [RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)) for _ in range(q + 1)]
        mats[-1] += 3 * np.eye(n)
        values, _ = solve_pevp_numeric(mats)
        assert values.size == n * q
        for lam in values:
            # the smallest singular value of P(lam), relative to the pencil's scale
            p = sum(lam ** k * m for k, m in enumerate(mats))
            scale = sum(inf_norm(m) * abs(lam) ** k for k, m in enumerate(mats))
            assert np.linalg.svd(p, compute_uv=False)[-1] / scale < 1e-8

    def test_singular_leading_coefficient_flagged(self):
        mats = [np.diag([2.0, 3.0]), np.eye(2), np.zeros((2, 2))]
        values, dropped = solve_pevp_numeric(mats)
        assert dropped
        assert values.size == 2  # the quadratic term is gone; one root per row
        assert np.allclose(np.sort(values.real), [-3.0, -2.0], atol=1e-10)

    def test_doubly_singular_rejected(self):
        mats = [np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))]
        with pytest.raises(SingularPencilError):
            solve_pevp_numeric(mats)


class TestResidual:
    """``pencil_residuals`` on one pair: a 1-D vector and a scalar value."""

    def test_exact_pair_is_tiny(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert pencil_residuals(a, np.eye(2), 1.0, [1.0, 1.0]) <= 1e-12

    def test_perturbed_value_is_large(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert pencil_residuals(a, np.eye(2), 1.1, [1.0, 1.0]) > 1e-3

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            pencil_residuals(np.eye(2), np.eye(2), 1.0, [0.0, 0.0])

    def test_batched_kernel_matches_one_column_loop(self):
        n = 12
        a, b = _iga_pencil(n)
        eig = solve_gevp_numeric(a, b)
        cases = [
            # real pencil: its eigenpairs, then arbitrary real pairs
            (a.real, b.real, eig.values.real, eig.vectors.real),
            (a.real, b.real, RNG.standard_normal(n), RNG.standard_normal((n, n))),
            # complex pencil with complex pairs
            (_random_hermitian(n), _random_spd(n),
             RNG.standard_normal(n) + 1j * RNG.standard_normal(n),
             RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))),
        ]
        for a_, b_, values, vectors in cases:
            batched = pencil_residuals(a_, b_, values, vectors)
            looped = [pencil_residuals(a_, b_, values[i], vectors[:, i]) for i in range(n)]
            assert np.max(np.abs(batched - looped)) <= 1e-15

    def test_batched_kernel_rejects_a_zero_column(self):
        vectors = np.eye(3)
        vectors[:, 1] = 0.0
        with pytest.raises(ZeroVectorError):
            pencil_residuals(np.eye(3), np.eye(3), np.ones(3), vectors)


def _sequential_walk(reference, candidates):
    """The walk of ``pair_values``' docstring, one reference value at a time.

    The references go in (real, imag) order, a NaN part last and equal keys
    by index; each takes the nearest unused candidate, a NaN distance first
    and the lowest index among equally near ones, until none is left.
    """
    ref, cand = np.asarray(reference, dtype=complex), np.asarray(candidates, dtype=complex)
    matched, distances = np.full(ref.size, complex(np.nan, 0.0)), np.full(ref.size, np.inf)
    last_nan = lambda x: (x != x, 0.0 if x != x else x)  # noqa: E731
    free = list(range(cand.size))
    for i in sorted(range(ref.size), key=lambda i: (last_nan(ref[i].real), last_nan(ref[i].imag))):
        if not free:
            break
        with np.errstate(invalid="ignore"):  # the gap between two infinities
            gaps = np.abs(cand - ref[i]).tolist()
        pick = min(free, key=lambda c: (gaps[c] == gaps[c], gaps[c] if gaps[c] == gaps[c] else 0.0, c))
        free.remove(pick)
        matched[i], distances[i] = cand[pick], gaps[pick]
    return matched, distances


# few distinct values on a grid of halves, so that duplicates and candidates
# equally far on both sides are common; next to 1e16 the spacing of doubles
# is 2, so values at different distances round to the same distance
_PAIR_VALUES = st.one_of(
    st.integers(-6, 6).map(lambda k: k / 2.0),
    st.sampled_from([-0.0, 1e16, 1e16 + 2, 1e16 + 4, -1e16]),
    st.floats(-10, 10),
)


@st.composite
def _value_lists(draw):
    values = draw(st.lists(_PAIR_VALUES, max_size=12))
    shape = draw(st.sampled_from(["real"] * 6 + ["nan", "complex", "inf"]))
    if shape == "nan":
        values.insert(draw(st.integers(0, len(values))), float("nan"))
    elif shape == "inf":
        # infinite gaps, and NaN ones between infinities, for the non-finite walk
        for _ in range(draw(st.integers(1, 3))):
            values.insert(draw(st.integers(0, len(values))),
                          draw(st.sampled_from([np.inf, -np.inf, complex(np.inf, 1.0)])))
    elif shape == "complex":
        values = [complex(v, draw(st.sampled_from([0.0, 0.5, -1.0]))) for v in values]
    return values


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_value_lists(), _value_lists())
def test_pair_values_matches_the_greedy_loop(reference, candidates):
    matched, distances = pair_values(reference, candidates)
    want_matched, want_distances = _sequential_walk(reference, candidates)
    assert np.array_equal(matched.view(np.uint64), want_matched.view(np.uint64))  # bit for bit
    assert np.array_equal(distances, want_distances, equal_nan=True)


def test_pair_values_on_real_spectra_is_bit_for_bit():
    rng = np.random.default_rng(11)
    for n, m in ((151, 151), (40, 37), (37, 40)):
        base = np.round(rng.standard_normal(max(n, m)), 2)  # repeated values
        reference = base[:n] + 1e-13 * rng.standard_normal(n)
        candidates = rng.permutation(base[:m])
        matched, distances = pair_values(reference, candidates)
        want_matched, want_distances = _sequential_walk(reference, candidates)
        assert np.array_equal(matched.view(np.uint64), want_matched.view(np.uint64))
        assert np.array_equal(distances, want_distances)


@st.composite
def _near_rank_pairs(draw):
    """Real reference values and candidates near them, both shuffled.

    The references lie on a grid of quarters, so duplicates are common.  Each
    candidate moves off its reference by nothing, a quarter or half of the
    gap to the next reference, or a whole gap, and then maybe one ulp either
    way, so that many draws sit on either side of the strict inequality
    that lets the lists pair by rank.
    """
    ref = sorted(draw(st.lists(st.integers(-8, 8).map(lambda k: k / 4.0), min_size=1, max_size=12)))
    cand = []
    for i, r in enumerate(ref):
        gap = ref[i + 1] - r if i + 1 < len(ref) else 0.25
        value = r + draw(st.sampled_from([0.0, 0.25, 0.5, -0.5, 1.0])) * gap
        cand.append(np.nextafter(value, draw(st.sampled_from([value, np.inf, -np.inf]))))
    return draw(st.permutations(ref)), draw(st.permutations(cand))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_near_rank_pairs())
def test_rank_pairing_returns_the_walk(case):
    reference, candidates = (np.array(values) for values in case)
    walk = np.sort(reference)
    sort = np.argsort(candidates, kind="stable")
    values = candidates[sort]
    matched, distances = pair_values(reference, candidates)
    want_matched, want_distances = _sequential_walk(reference, candidates)
    if oracle._pairs_by_rank(walk, values):  # the walk gives the k-th smallest reference the k-th candidate
        assert np.array_equal(want_matched[np.argsort(reference, kind="stable")], values)
    assert np.array_equal(matched.view(np.uint64), want_matched.view(np.uint64))
    assert np.array_equal(distances, want_distances)


_GRID = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5]
_TIED_VALUES = [_GRID + [np.nan, np.inf],
                [complex(x, y) for x in _GRID for y in (0.0, 0.5, -1.0)]
                + [complex(np.nan, 0.0), complex(0.5, np.nan), complex(np.inf, 0.5)]]


@st.composite
def _tied_lists(draw):
    """References and candidates on a grid of halves, real or complex, with exact ties forced.

    Some references are midpoints of two candidates, which are then equally
    near; values repeat, some carry a NaN or infinite part, and either list
    may be empty or longer than the other.
    """
    values = draw(st.sampled_from(_TIED_VALUES))
    pick = st.integers(0, len(values) - 1)
    reference, candidates = ([values[i] for i in draw(st.lists(pick, max_size=7))] for _ in range(2))
    between = st.integers(0, max(len(candidates) - 1, 0))
    for i, j in draw(st.lists(st.tuples(between, between), max_size=3)):
        if i != j:
            reference.append((candidates[i] + candidates[j]) / 2)
    return reference, candidates


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_tied_lists())
def test_pair_values_is_the_sequential_walk(case):
    reference, candidates = case
    matched, distances = pair_values(reference, candidates)
    want_matched, want_distances = _sequential_walk(reference, candidates)
    assert np.array_equal(matched.view(np.uint64), want_matched.view(np.uint64))  # bit for bit
    assert np.array_equal(distances, want_distances, equal_nan=True)


def test_rank_pairing_needs_strictly_nearer_rank_mates():
    # 1.5 is as near 1 as 0.5 is: the walk gives 1 the candidate of lower index
    assert not oracle._pairs_by_rank(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
    assert oracle._pairs_by_rank(np.array([1.0, 2.0]), np.array([np.nextafter(0.5, 1), 1.5]))
    assert not oracle._pairs_by_rank(np.array([1.0, 2.0]), np.array([1.0, 1.0]))  # duplicates
    assert not oracle._pairs_by_rank(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    matched, _ = pair_values([2.0, 1.0], [1.5, 0.5])
    assert matched.tolist() == [0.5, 1.5]


IGA_ALPHA, IGA_BETA = [1.0, -1.0 / 3.0, -1.0 / 6.0], [11.0 / 20.0, 13.0 / 60.0, 1.0 / 120.0]
COMPLEX_ALPHA, COMPLEX_BETA = [8 + 2j, 5 - 1j, 2j], [6.0, 3j, 1 - 1j]


def _th_problem(alpha, beta, n, variant):
    """A closed-form solution and the bands of its pencil."""
    return (gevp_eigenpairs(alpha, beta, n, variant),
            toeplitz_hankel_band(alpha, n, variant), toeplitz_hankel_band(beta, n, variant))


def _gevp_problems():
    return [_th_problem(IGA_ALPHA, IGA_BETA, 12, 1), _th_problem(COMPLEX_ALPHA, COMPLEX_BETA, 5, 3),
            _th_problem([4 + 1j, 0.5], [5.0, 0.25j], 6, 2), (fem_p2_eigenpairs(4), *fem_p2_bands(4)),
            (corner_block_eigenpairs([2.0, -1.0, 0.5, 3.0], [9.0, 0.25, 0.5, 5.0], 3),
             corner_block_band([2.0, -1.0, 0.5, 3.0], 3), corner_block_band([9.0, 0.25, 0.5, 5.0], 3))]


def _pevp_problem(bands, variant, n):
    """A polynomial pencil's closed-form roots and the bands of its coefficients."""
    bands = [np.asarray(band, dtype=complex) for band in bands]
    analytic = pevp_eigenpairs(bands, n, variant)
    return analytic, *(toeplitz_hankel_band(band, n, variant) for band in bands)


CUBIC = ([1.0, 0.5], [2.0, 0.25j], [4.0, -1.0], [6 + 1j, 1.0]), 2, 9
DEGREE_DROP = ([1.0, 0.5], [0.0, 0.0]), 4, 6


def _dense_pevp_problem(n=7, q=2, seed=12):
    """Dense random complex-symmetric coefficients, which no real congruence diagonalizes, and their
    companion values as the solution."""
    rng = np.random.default_rng(seed)
    mats = [m + m.T for m in rng.standard_normal((q + 1, n, n)) + 1j * rng.standard_normal((q + 1, n, n))]
    return PolynomialEigenSolution([1], [np.linalg.eigvals(oracle._companion_matrix(mats))], np.ones((n, 1))), *mats


def _bits(x):
    """The bytes of an array, to compare two arrays bit for bit, signed zeros and NaNs included."""
    return None if x is None else np.ascontiguousarray(x).tobytes()


class TestVerify:
    """``verify``: a closed form's residuals and its pairing with the oracle, in one record."""

    @pytest.mark.parametrize("problem, route", [
        (_th_problem(IGA_ALPHA, IGA_BETA, 12, 1), "hermitian"),
        (_th_problem(COMPLEX_ALPHA, COMPLEX_BETA, 5, 3), "general"),
        (_pevp_problem(*CUBIC), "congruence"),
        (_pevp_problem(*DEGREE_DROP), "reversed-congruence"),
        (_dense_pevp_problem(), "companion"),
    ], ids=["real-spd", "complex", "cubic", "degree-drop", "dense"])
    def test_route(self, problem, route):
        check = verify(*problem)
        assert check.route == route
        assert not check.count_mismatch and np.all(check.distances <= 1e-8)
        assert (check.residuals is None) == route.endswith(("congruence", "companion"))

    def test_a_family_no_congruence_diagonalizes_is_solved_as_before_bit_for_bit(self):
        """The companion route of the whole pencil, as it ran before the congruence route existed."""
        _, *mats = _dense_pevp_problem()
        values, dropped, congruence = oracle._solve_pevp(mats)
        want = np.linalg.eigvals(oracle._companion_matrix(mats)).astype(complex)
        assert not dropped and not congruence
        assert _bits(values) == _bits(want[np.lexsort((want.imag, want.real))])

    @pytest.mark.parametrize("index", range(len(_gevp_problems())))
    def test_is_the_composition_it_replaces_bit_for_bit(self, index):
        """Residuals on the bands, then the pairing with the eigenvalues of the dense matrices of
        those bands."""
        sol, a, b = _gevp_problems()[index]
        residuals = pencil_residuals(a, b, sol.values, sol.vectors)
        matched, distances = pair_values(sol.values, gevp_eigenvalues_numeric(a.dense(), b.dense()))
        check = verify(*_gevp_problems()[index])
        assert _bits(check.values) == _bits(sol.values)
        assert _bits(check.residuals) == _bits(residuals)
        assert _bits(check.matched) == _bits(matched) and _bits(check.distances) == _bits(distances)

    @pytest.mark.parametrize("index", range(len(_gevp_problems())))
    def test_bands_and_dense_matrices_agree(self, index):
        sol, a, b = _gevp_problems()[index]
        banded, dense = verify(sol, a, b), verify(sol, a.dense(), b.dense())
        assert banded.route == dense.route and banded.count_mismatch == dense.count_mismatch
        assert _bits(banded.matched) == _bits(dense.matched)
        assert _bits(banded.distances) == _bits(dense.distances)
        # the products run over band diagonals or dense rows: another summation order
        assert np.max(np.abs(banded.residuals - dense.residuals)) <= 1e-15

    def test_polynomial_bands_and_dense_matrices_agree(self):
        analytic, *bands = _pevp_problem(*CUBIC)
        banded, dense = verify(analytic, *bands), verify(analytic, *(band.dense() for band in bands))
        assert banded.route == dense.route == "congruence"
        assert _bits(banded.matched) == _bits(dense.matched)
        assert _bits(banded.distances) == _bits(dense.distances)

    @pytest.mark.parametrize("problem", [_gevp_problems()[0], _gevp_problems()[1], _pevp_problem(*CUBIC)],
                             ids=["real", "complex", "cubic"])
    def test_without_the_oracle(self, monkeypatch, problem):
        full = verify(*problem)

        def refuse(self):
            raise AssertionError("verify formed a dense matrix without the oracle")

        monkeypatch.setattr(SymmetricBand, "dense", refuse)
        check = verify(*problem, oracle=False)
        assert check.matched is check.distances is check.count_mismatch is check.route is None
        assert _bits(check.values) == _bits(full.values) and _bits(check.residuals) == _bits(full.residuals)

    def test_count_mismatch_sets_the_flag(self):
        sol, a, b = _th_problem(IGA_ALPHA, IGA_BETA, 6, 1)
        # one value short: every closed-form value still finds a near oracle value
        short = EigenSolution(sol.modes[:-1], sol.values[:-1], sol.vectors[:, :-1])
        check = verify(short, a, b)
        assert check.count_mismatch and np.all(check.distances < 1e-12)
        # one value too many: a duplicate, left without a partner
        extra = EigenSolution(np.append(sol.modes, 7), np.append(sol.values, sol.values[0]),
                              np.column_stack([sol.vectors, sol.vectors[:, 0]]))
        check = verify(extra, a, b)
        assert check.count_mismatch and np.isinf(check.distances).sum() == 1

    def test_a_shifted_value_shows_in_the_residual_and_the_distance(self):
        sol, a, b = _th_problem(IGA_ALPHA, IGA_BETA, 8, 1)
        sol.values = sol.values + np.where(sol.modes == 3, 1e-3, 0.0)
        check = verify(sol, a, b)
        assert np.flatnonzero(check.residuals > 1e-8).tolist() == np.flatnonzero(sol.modes == 3).tolist()
        assert np.max(check.distances) == pytest.approx(1e-3, rel=1e-6)


# ------------------------------------------------ centrosymmetric split

def _dense(solver, *args, **kwargs):
    """``solver`` with the centrosymmetric split turned off: the full-matrix route."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_centrosymmetric_halves", lambda mats: None)
        return solver(*args, **kwargs)


def _persymmetric_rotation(a, b, rng):
    """A unitary diagonal similarity with mirrored phases: still centrosymmetric, now complex."""
    n = a.shape[0]
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    phases = np.where(np.arange(n) < n - 1 - np.arange(n), phases, phases[::-1])
    rotate = np.outer(phases.conj(), phases)
    return a * rotate, b * rotate


def _dominant_band(rng, width, complex_entries):
    off = rng.uniform(-1.0, 1.0, width) + (1j * rng.uniform(-1.0, 1.0, width) if complex_entries else 0)
    lead = 2.0 * np.abs(off).sum() + rng.uniform(0.5, 2.0)
    return np.concatenate(([lead * (np.exp(0.5j * rng.uniform(-1.0, 1.0)) if complex_entries else 1.0)], off))


@st.composite
def _centrosymmetric_pencils(draw):
    """The library's pencils at n = 2..60: Toeplitz-plus-Hankel, corner-block, fem-p2, fem-p3."""
    from specmat import build_corner_block, build_fem_p2, build_fem_p3

    family = draw(st.sampled_from(["th1", "th2", "th3", "th4", "corner-block", "fem-p2", "fem-p3"]))
    entries = draw(st.sampled_from(["real", "complex", "hermitian-complex"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cplx = entries == "complex"
    if family.startswith("th"):
        n = draw(st.integers(2, 60))
        width = draw(st.integers(1, min(2, n - 1)))
        a = assemble_toeplitz_hankel(_dominant_band(rng, width, cplx), n, int(family[2]))
        b = assemble_toeplitz_hankel(_dominant_band(rng, width, cplx), n, int(family[2]))
    elif family == "corner-block":
        half_n = draw(st.integers(1, 29))
        a, b = (build_corner_block(_dominant_band(rng, 3, cplx)[[0, 1, 2, 0]], half_n) for _ in range(2))
    else:
        build = build_fem_p2 if family == "fem-p2" else build_fem_p3
        a, b = build(draw(st.integers(2, 20)))
    if entries == "hermitian-complex":
        a, b = _persymmetric_rotation(a, b, rng)
    return a, b


# the general route's own rounding reaches about 25 eps at n = 60 against a
# 40-digit reference; 29 eps was the worst split-to-dense gap of 600 drawn pencils
_SPLIT_VALUE_RTOL = 64 * np.finfo(float).eps


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_centrosymmetric_pencils())
def test_split_matches_the_dense_route(pencil):
    a, b = pencil
    assert oracle._centrosymmetric_halves([a, b]) is not None
    split, dense = gevp_eigenvalues_numeric(a, b), _dense(gevp_eigenvalues_numeric, a, b)
    assert split.dtype == dense.dtype and split.shape == dense.shape
    _, distances = pair_values(dense, split)
    assert np.max(distances) <= _SPLIT_VALUE_RTOL * np.max(np.abs(dense))
    sol = solve_gevp_numeric(a, b)
    assert np.max(np.abs(sol.values - split)) <= _SPLIT_VALUE_RTOL * np.max(np.abs(dense))
    assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) <= 1e-12
    assert np.allclose(np.linalg.norm(sol.vectors, axis=0), 1.0, rtol=0, atol=1e-14)


class TestCentrosymmetricSplit:
    """The split changes the work, never the decisions: routes, errors, thresholds, drops."""

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (3, 2), (6, 6)], ids=str)
    def test_one_perturbed_entry_takes_exactly_the_dense_route(self, entry):
        a, b = _iga_pencil(7)
        a = a.copy()
        a[entry] += 1e-3
        assert oracle._centrosymmetric_halves([a, b]) is None
        assert np.array_equal(gevp_eigenvalues_numeric(a, b), _dense(gevp_eigenvalues_numeric, a, b))
        split, dense = solve_gevp_numeric(a, b), _dense(solve_gevp_numeric, a, b)
        for field in ("values", "vectors"):
            assert np.array_equal(getattr(split, field), getattr(dense, field))
        assert np.array_equal(pencil_residuals(a, b, split.values, split.vectors),
                              pencil_residuals(a, b, dense.values, dense.vectors))

    @pytest.mark.parametrize("n", [4, 5])
    def test_singular_centrosymmetric_b(self, n):
        # I + J has an even half 2I (with a border of 2 at odd n) and an odd half 0
        b = np.eye(n) + np.eye(n)[::-1]
        if n % 2:
            b[n // 2, n // 2] = 1.0
        a, _ = _iga_pencil(n)
        assert oracle._centrosymmetric_halves([a, b]) is not None
        for solver in (solve_gevp_numeric, gevp_eigenvalues_numeric):
            for method in ("auto", "general"):
                for run in (solver, lambda *args, **kw: _dense(solver, *args, **kw)):
                    with pytest.raises(SingularBError) as caught:
                        run(a, b, method=method)
                    assert type(caught.value) is SingularBError

    def test_forced_hermitian_route_on_a_non_hermitian_centrosymmetric_pencil(self):
        a = assemble_toeplitz_hankel([4 + 1j, 1 - 0.5j], 8, 2)
        b = assemble_toeplitz_hankel([5.0, 0.25], 8, 2)
        assert oracle._centrosymmetric_halves([a, b]) is not None
        for solver in (solve_gevp_numeric, gevp_eigenvalues_numeric):
            with pytest.raises(NotHermitianError) as caught:
                solver(a, b, method="hermitian")
            assert type(caught.value) is NotHermitianError

    @staticmethod
    def _from_halves(even, odd):
        """The centrosymmetric matrix whose even and odd halves are ``even`` and ``odd`` (even n)."""
        top, corner = 0.5 * (even + odd), 0.5 * (even - odd)[:, ::-1]
        return np.block([[top, corner], [corner[::-1, ::-1], top[::-1, ::-1]]])

    def test_thresholds_scale_with_the_full_b(self):
        # the even half alone is well clear of its own threshold (1e-12 > 1e-13 * 1),
        # the whole B is not (1e-12 < 1e-13 * ||B||_inf, about 1e-11)
        b = self._from_halves(np.diag([1e-12, 1.0, 1.0]), 100.0 * np.eye(3))
        halves = oracle._centrosymmetric_halves([b])
        assert halves is not None and not oracle._singular(halves[0][0], [halves[0][0]])
        assert np.linalg.cholesky(b) is not None
        for solver in (solve_gevp_numeric, gevp_eigenvalues_numeric):
            for run in (solver, lambda *args, **kw: _dense(solver, *args, **kw)):
                with pytest.raises(SingularBError):
                    run(np.eye(6), b)

    def test_pevp_with_a_singular_leading_coefficient_drops_as_the_dense_route(self):
        rng = np.random.default_rng(8)
        n = 6
        leading = self._from_halves(np.diag([1.0, 2.0, 3.0]), np.diag([0.0, 1.0, 0.0]))
        mats = [assemble_toeplitz_hankel(_dominant_band(rng, 2, True), n, 3) for _ in range(2)]
        mats.append(leading)
        assert oracle._centrosymmetric_halves(mats) is not None
        values, dropped = solve_pevp_numeric(mats)
        want, want_dropped = _dense(solve_pevp_numeric, mats)
        assert dropped and want_dropped
        assert values.size == want.size == 2 * n - 2
        _, distances = pair_values(want, values)
        assert np.max(distances) <= 1e-12 * np.max(np.abs(want))

    def test_pevp_split_matches_the_dense_route(self):
        rng = np.random.default_rng(9)
        for n, variant in ((2, 1), (7, 2), (20, 3), (41, 4)):
            mats = [assemble_toeplitz_hankel(_dominant_band(rng, min(2, n - 1), True), n, variant)
                    for _ in range(4)]
            values, dropped = solve_pevp_numeric(mats)
            want, want_dropped = _dense(solve_pevp_numeric, mats)
            assert not dropped and not want_dropped and values.size == want.size == 3 * n
            _, distances = pair_values(want, values)
            # companion matrices are far from normal: 79 eps was the worst of 200 random pencils
            assert np.max(distances) <= 4 * _SPLIT_VALUE_RTOL * np.max(np.abs(want))


# ------------------------------------------------ congruence route

def _companion_route(mats):
    """:func:`oracle._solve_pevp` with the congruence route turned off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_congruence_roots", lambda half: None)
        return oracle._solve_pevp(mats)


@st.composite
def _polynomial_pencils(draw):
    """Toeplitz-plus-Hankel polynomial pencils: variants 1-4, real or complex bands of bandwidth 1-3,
    degree 1-3, n up to 60; in about one draw of three the leading band's symbol vanishes at a mode
    angle, so that the leading coefficient is singular."""
    from specmat.spectra import mode_angles

    variant, q, width = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(2 * width, 60))  # the corner corrections need 2 m - 1 <= n
    cplx = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bands = [_dominant_band(rng, width, cplx) for _ in range(q + 1)]
    if draw(st.integers(0, 2)) == 0:
        h, angles = mode_angles(variant, n)
        theta = np.pi * h * angles[draw(st.integers(0, n - 1))]
        bands[-1] = np.zeros(width + 1, dtype=bands[-1].dtype)
        bands[-1][:2] = -2.0 * np.cos(theta), 1.0  # the symbol s + 2 cos(t) vanishes at t = theta
    return [assemble_toeplitz_hankel(band, n, variant) for band in bands]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_polynomial_pencils())
def test_congruence_route_matches_the_companion_route(mats):
    values, dropped, congruence = oracle._solve_pevp(mats)
    want, want_dropped, _ = _companion_route(mats)
    assert congruence and dropped == want_dropped and values.size == want.size
    _, distances = pair_values(want, values)
    # the companion route's own rounding, as in test_pevp_split_matches_the_dense_route
    assert np.max(distances) <= 4 * _SPLIT_VALUE_RTOL * np.max(np.abs(want))


def test_coupled_indices_are_solved_together():
    """A family that is diagonal but for one block no congruence splits: the block's indices form one
    run, solved by a companion of its sub-blocks, and every other index alone."""
    rng = np.random.default_rng(13)
    n, q = 12, 2
    mats = [np.diag(rng.uniform(1.0, 2.0, n)).astype(complex) for _ in range(q + 1)]
    for m in mats:  # indices 4 and 5 couple in every coefficient, each differently
        block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m[4:6, 4:6] += 0.3 * (block + block.T)
    orthogonal, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mats = [orthogonal @ m @ orthogonal.T for m in mats]
    runs, companion_matrix = [], oracle._companion_matrix
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_companion_matrix", lambda blocks: runs.append(blocks[0].shape) or
                      companion_matrix(blocks))
        values, _, congruence = oracle._solve_pevp(mats)
    assert congruence and 1 <= len(runs) and all(2 <= shape[0] < n for shape in runs)
    want, _, _ = _companion_route(mats)
    _, distances = pair_values(want, values)
    assert values.size == want.size and np.max(distances) <= 1e-12 * np.max(np.abs(want))


def _full_companion_values(mats):
    """Eigenvalues of ``C1^{-1} C0`` with C1 and C0 assembled and solved whole: the reference."""
    q, n = len(mats) - 1, mats[0].shape[0]
    c0 = np.zeros((n * q, n * q), dtype=complex)
    c1 = np.zeros((n * q, n * q), dtype=complex)
    for blk in range(q - 1):
        c0[blk * n:(blk + 1) * n, (blk + 1) * n:(blk + 2) * n] = np.eye(n)
        c1[blk * n:(blk + 1) * n, blk * n:(blk + 1) * n] = np.eye(n)
    for k in range(q):
        c0[(q - 1) * n:, k * n:(k + 1) * n] = -mats[k]
    c1[(q - 1) * n:, (q - 1) * n:] = mats[q]
    return np.linalg.eigvals(np.linalg.solve(c1, c0))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_companion_solve_by_blocks_matches_the_whole_solve(q):
    rng = np.random.default_rng(10 + q)
    n = 9
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(q + 1)]
    mats[-1] += 4 * np.eye(n)
    for coefficients in (mats, mats[::-1]):
        values = np.linalg.eigvals(oracle._companion_matrix(coefficients))
        want = _full_companion_values(coefficients)
        _, distances = pair_values(want, values)
        assert np.max(distances) <= 1e-12 * np.max(np.abs(want))


# one integer pencil as each kind of input; the imaginary parts of the complex kind, E and
# E / 4 with E antisymmetric, keep A Hermitian and B positive definite
_INPUT_KINDS = {
    "int": lambda m, imag: m,
    "float64": lambda m, imag: m.astype(float),
    "complex-zero-imag": lambda m, imag: m.astype(complex),
    "complex": lambda m, imag: m + 1j * imag,
}


@pytest.mark.parametrize("kind", _INPUT_KINDS)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_dense_input_is_float64_exactly_when_no_entry_is_complex(kind, n, seed):
    """Every dense entry point computes in float64 exactly when no entry has a nonzero imaginary part."""
    rng = np.random.default_rng(seed)
    m, q = rng.integers(-3, 4, (2, n, n))
    ones = np.ones((n, n), dtype=int)
    e = np.triu(ones, 1) - np.tril(ones, -1)  # ||E||_2 < 2n / pi
    # ||A||_2 < 7n < 2 lambda_min(B): every eigenvalue of lam^2 B + lam A + B is nonreal
    a = _INPUT_KINDS[kind](m + m.T, e)
    b = _INPUT_KINDS[kind](q @ q.T + 4 * n * np.eye(n, dtype=int), e / 4)
    unit = np.eye(n, dtype=int)
    u = _INPUT_KINDS[kind](unit[0] + unit[1], unit[1])
    singular = np.outer(u, u.conj())  # rank one
    # complex symmetric for the complex kind, with parts m + m^T and a positive definite matrix:
    # one real congruence diagonalizes them
    spd = q @ q.T + 4 * n * np.eye(n, dtype=int)
    symmetric = [_INPUT_KINDS[kind](spd, m + m.T), _INPUT_KINDS[kind](m + m.T, spd)]
    want = np.complex128 if kind == "complex" else np.float64
    seen, inside = [], []
    reduce_pencil, companion_matrix, eigvals = oracle._reduce_pencil, oracle._companion_matrix, np.linalg.eigvals
    congruence_roots = oracle._congruence_roots

    def congruence(mats):
        inside.append(True)
        try:
            return congruence_roots(mats)
        finally:
            inside.pop()

    def tagged(name):
        """The congruence route's (S, R) pencil is real by construction: its reduction, its
        eigensolve and the singularity tests of its R candidates have a tag of their own."""
        return "congruence-pencil" if inside and name in ("reduced", "eigh", "eigvalsh") else name

    def reduced(*args):
        inv_chols, blocks = reduce_pencil(*args)
        seen.extend((tagged("reduced"), block.dtype) for block in blocks)
        return inv_chols, blocks

    def stacked(m, *args, **kwargs):
        if np.ndim(m) == 3:  # here only the congruence route's companions of the diagonals of X^T A_k X
            seen.append(("congruent", m.dtype))
        return eigvals(m, *args, **kwargs)

    def companion(mats):
        matrix = companion_matrix(mats)
        seen.append(("companion", matrix.dtype))
        return matrix

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_reduce_pencil", reduced)
        patch.setattr(oracle, "_companion_matrix", companion)
        patch.setattr(np.linalg, "eigvals", stacked)
        patch.setattr(oracle, "_congruence_roots", congruence)
        for name in ("eigh", "eigvalsh"):
            patch.setattr(np.linalg, name, lambda x, *args, _call=getattr(np.linalg, name), _name=name, **kwargs:
                          seen.append((tagged(_name), x.dtype)) or _call(x, *args, **kwargs))
        sol = solve_gevp_numeric(a, b)
        values = gevp_eigenvalues_numeric(a, b)
        eve_identity_evp_all(a)
        for form in ("proof", "literal"):
            eve_identity_gevp_all(a, b, form)
        roots, dropped = solve_pevp_numeric([b, a, b])
        _, reversed_dropped = solve_pevp_numeric([b, a, singular])
        solve_pevp_numeric([symmetric[0], symmetric[1], symmetric[0]])
    kinds = {name for name, _ in seen}
    assert {"reduced", "companion", "eigh", "eigvalsh", "congruence-pencil", "congruent"} <= kinds
    assert all(dtype == want for name, dtype in seen if name != "congruence-pencil"), seen
    assert all(dtype == np.float64 for name, dtype in seen if name == "congruence-pencil"), seen
    assert sol.values.dtype == sol.vectors.dtype == want and values.dtype == np.float64  # Hermitian-definite
    assert assemble_tensor_pencil(a, b, a, b)[0].dtype == assemble_tensor_pencil(b, a, b, a)[1].dtype == want
    assert not dropped and reversed_dropped
    assert roots.dtype == np.complex128 and roots.imag.all()
    if kind != "complex":  # a real companion's values come in exact conjugate pairs
        assert np.array_equal(np.sort_complex(roots), np.sort_complex(roots.conj()))

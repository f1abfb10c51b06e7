"""Numeric oracle: GEVP solver paths, companion linearization, residuals, matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmat import (
    ShapeMismatchError,
    SingularBError,
    SingularMatrixError,
    SingularPencilError,
    ZeroVectorError,
    assemble_toeplitz_hankel,
    fem_p3_eigenvalues,
    match_spectra,
    pencil_residuals,
    residual_gevp,
    solve_gevp_numeric,
    solve_pevp_numeric,
)
from specmat.oracle import pair_values, polynomial_residual

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
        assert np.max(real.residuals) < 1e-13

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
        assert np.max(sol.residuals) < 1e-9
        values = sol.values
        assert np.all(np.lexsort((values.imag, values.real)) == np.arange(n))
        assert np.allclose(np.linalg.norm(sol.vectors, axis=0), 1.0, rtol=0, atol=1e-14)

    def test_general_path_on_real_nonsymmetric_pencil(self):
        n = 9
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n))
        sol = solve_gevp_numeric(a, np.eye(n) + 0.1 * rng.standard_normal((n, n)))
        assert np.max(sol.residuals) < 1e-12
        assert np.abs(sol.values.imag).max() > 0  # complex pairs of a real pencil

    def test_hermitian_path_handles_moderate_sizes(self):
        n = 40
        a = _random_hermitian(n)
        b = _random_spd(n)
        sol = solve_gevp_numeric(a, b)
        assert sol.n_modes == n
        assert np.max(sol.residuals) < 1e-9
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
            assert np.max(sol.residuals) < 1e-9

    def test_repeated_eigenvalue_gets_independent_vectors(self):
        from specmat import inverse_iteration

        a = np.diag([1.0, 1.0, 3.0])
        b = np.eye(3)
        v1 = inverse_iteration(a, b, 1.0, seed=1)
        v2 = inverse_iteration(a, b, 1.0, avoid=[v1], seed=2)
        assert abs(np.vdot(v1, v2)) < 1e-8
        assert residual_gevp(a, b, 1.0, v1) < 1e-10
        assert residual_gevp(a, b, 1.0, v2) < 1e-10

    def test_inverse_iteration_on_a_singular_pencil_raises(self):
        from specmat import inverse_iteration

        # A - shift B is the zero matrix for every shift
        with pytest.raises(SingularMatrixError):
            inverse_iteration(np.zeros((3, 3)), np.zeros((3, 3)), 1.0)


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
    assert np.max(sol.residuals) < 1e-9
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
            assert polynomial_residual(mats, lam) < 1e-8

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
    def test_exact_pair_is_tiny(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert residual_gevp(a, np.eye(2), 1.0, [1.0, 1.0]) <= 1e-12

    def test_perturbed_value_is_large(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert residual_gevp(a, np.eye(2), 1.1, [1.0, 1.0]) > 1e-3

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            residual_gevp(np.eye(2), np.eye(2), 1.0, [0.0, 0.0])

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
            looped = [residual_gevp(a_, b_, values[i], vectors[:, i]) for i in range(n)]
            assert np.max(np.abs(batched - looped)) <= 1e-15

    def test_batched_kernel_rejects_a_zero_column(self):
        vectors = np.eye(3)
        vectors[:, 1] = 0.0
        with pytest.raises(ZeroVectorError):
            pencil_residuals(np.eye(3), np.eye(3), np.ones(3), vectors)


class TestMatchSpectra:
    def test_identical_lists(self):
        report = match_spectra(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert report.max_distance == 0.0
        assert not report.count_mismatch

    def test_permutation_tolerance(self):
        report = match_spectra(
            np.array([1.0, 3.0]), np.array([3.0000001, 0.9999999])
        )
        assert report.max_distance == pytest.approx(1e-7, rel=1e-3)

    def test_count_mismatch_flagged_not_raised(self):
        report = match_spectra(np.arange(5.0), np.arange(4.0))
        assert report.count_mismatch
        assert np.isinf(report.distances).sum() == 1

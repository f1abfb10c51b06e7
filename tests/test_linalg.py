"""Core dense kernels: Hermitian eigendecomposition, polynomial roots, kron."""

import numpy as np
import pytest

from specmat import (
    NotHermitianError,
    batched_roots,
    hermitian_eigen,
    kron,
    poly_roots,
)


class TestBatchedRoots:
    @pytest.mark.parametrize("q", range(1, 7))
    def test_matches_np_roots_row_by_row(self, q):
        rng = np.random.default_rng(100 + q)
        coeffs = rng.standard_normal((40, q + 1)) + 1j * rng.standard_normal((40, q + 1))
        roots = batched_roots(coeffs)
        assert roots.shape == (40, q)
        for row, found in zip(coeffs, roots):
            expected = np.roots(row[::-1])  # np.roots takes descending coefficients
            scale = max(1.0, np.max(np.abs(expected)))
            err = np.max(np.abs(np.sort_complex(found) - np.sort_complex(expected)))
            assert err < 1e-12 * scale

    def test_quadratic_keeps_the_small_root(self):
        # roots 1e8 and 1e-8: the textbook formula loses the small one entirely
        roots = batched_roots([[1.0, -(1e8 + 1e-8), 1.0]])[0]
        assert abs(roots[1] - 1e-8) < 1e-22
        assert abs(roots[0] - 1e8) < 1e-7

    def test_quadratic_with_vanishing_lower_coefficients(self):
        assert np.array_equal(batched_roots([[0.0, 0.0, 2.0]]), np.zeros((1, 2)))

    def test_companion_roots_are_polished(self):
        # a cubic with roots spread over six orders of magnitude
        expected = np.array([1e-3, 1.0, 1e3])
        coeffs = np.poly(expected)[::-1]
        found = np.sort(batched_roots(coeffs[None, :])[0].real)
        assert np.max(np.abs(found - expected) / expected) < 4 * np.finfo(float).eps

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            batched_roots([1.0, 2.0])
        with pytest.raises(ValueError):
            batched_roots([[1.0], [2.0]])


class TestHermitianEigen:
    def test_closed_form_2x2(self):
        sol = hermitian_eigen(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert np.allclose(sol.values.real, [1.0, 3.0], atol=1e-14)

    def test_one_by_one(self):
        sol = hermitian_eigen(np.array([[5.0]]))
        assert sol.values[0] == 5.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_ascending_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 16, 33, 64):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = a + a.conj().T
            sol = hermitian_eigen(a)
            w = sol.values.real
            v = sol.vectors
            assert np.all(np.diff(w) >= -1e-12)
            gram = v.conj().T @ v
            assert np.max(np.abs(gram - np.eye(n))) < 1e-10
            rebuilt = (v * w) @ v.conj().T
            rel = np.linalg.norm(rebuilt - a) / np.linalg.norm(a)
            assert rel < 1e-9


class TestPolyRoots:
    def test_factored_quadratic(self):
        roots = np.sort_complex(poly_roots([2.0, -3.0, 1.0]))
        assert np.allclose(roots, [1.0, 2.0], atol=1e-14)

    def test_pure_imaginary_pair(self):
        roots = np.sort_complex(poly_roots([1.0, 0.0, 1.0]))
        assert np.allclose(roots, [-1j, 1j], atol=1e-14)

    def test_cube_roots_of_unity(self):
        roots = np.sort_complex(poly_roots([-1.0, 0.0, 0.0, 1.0]))
        expected = np.sort_complex(np.exp(2j * np.pi * np.arange(3) / 3))
        assert np.max(np.abs(roots - expected)) < 1e-12

    def test_linear(self):
        assert np.allclose(poly_roots([3.0, -2.0]), [1.5])

    def test_trims_tiny_leading_coefficient(self):
        roots = poly_roots([2.0, -3.0, 1e-30])
        assert np.allclose(roots, [2.0 / 3.0])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([1.0])
        with pytest.raises(ValueError):
            poly_roots([0.0, 0.0])

    def test_recovers_separated_roots_in_unit_disk(self):
        rng = np.random.default_rng(11)
        trials = 0
        while trials < 6:
            degree = int(rng.integers(3, 13))
            roots = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
            gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(degree)
            if gaps.min() < 0.05:
                continue  # notisolated; draw again
            trials += 1
            coeffs = np.array([1.0 + 0j])
            for r in roots:
                coeffs = np.convolve(coeffs, [-r, 1.0])  # ascending coefficients
            found = poly_roots(coeffs)
            err = np.max(np.abs(np.sort_complex(found) - np.sort_complex(roots)))
            assert err < 1e-8

    def test_each_root_has_small_value(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            degree = int(rng.integers(2, 9))
            coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            roots = poly_roots(coeffs)
            for r in roots:
                value = abs(sum(c * r ** k for k, c in enumerate(coeffs)))
                scale = sum(abs(c) * abs(r) ** k for k, c in enumerate(coeffs))
                assert value <= 1e-10 * scale


class TestKron:
    def test_identity_factor_gives_block_diagonal(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = kron(np.eye(2), m)
        expected = np.block([[m, np.zeros((2, 2))], [np.zeros((2, 2)), m]])
        assert np.array_equal(got, expected)

    def test_scalar_factor(self):
        assert np.array_equal(
            kron([[0.0, 1.0], [0.0, 0.0]], [[1.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])
        )

    def test_entrywise_definition(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0], [4.0]])
        full = kron(a, b)
        assert full.shape == (2, 2)
        for j in range(2):
            for k in range(2):
                assert full[k, j] == a[0, j] * b[k, 0]

    def test_mixed_product_with_vectors(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = kron(a, b) @ np.kron(x, y)
        rhs = np.kron(a @ x, b @ y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

"""The batched polynomial root finder."""

import numpy as np
import pytest

from specmat import batched_roots


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

    def test_factored_quadratic(self):
        roots = np.sort_complex(batched_roots([[2.0, -3.0, 1.0]])[0])
        assert np.allclose(roots, [1.0, 2.0], atol=1e-14)

    def test_pure_imaginary_pair(self):
        roots = np.sort_complex(batched_roots([[1.0, 0.0, 1.0]])[0])
        assert np.allclose(roots, [-1j, 1j], atol=1e-14)

    def test_cube_roots_of_unity(self):
        roots = np.sort_complex(batched_roots([[-1.0, 0.0, 0.0, 1.0]])[0])
        expected = np.sort_complex(np.exp(2j * np.pi * np.arange(3) / 3))
        assert np.max(np.abs(roots - expected)) < 1e-12

    def test_linear(self):
        assert np.allclose(batched_roots([[3.0, -2.0]]), [[1.5]])

    def test_recovers_separated_roots_in_unit_disk(self):
        rng = np.random.default_rng(11)
        trials = 0
        while trials < 6:
            degree = int(rng.integers(3, 13))
            roots = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
            gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(degree)
            if gaps.min() < 0.05:
                continue  # not isolated; draw again
            trials += 1
            coeffs = np.array([1.0 + 0j])
            for r in roots:
                coeffs = np.convolve(coeffs, [-r, 1.0])  # ascending coefficients
            found = batched_roots(coeffs[None, :])[0]
            err = np.max(np.abs(np.sort_complex(found) - np.sort_complex(roots)))
            assert err < 1e-8

    def test_each_root_has_small_value(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            degree = int(rng.integers(2, 9))
            coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            roots = batched_roots(coeffs[None, :])[0]
            for r in roots:
                value = abs(sum(c * r ** k for k, c in enumerate(coeffs)))
                scale = sum(abs(c) * abs(r) ** k for k, c in enumerate(coeffs))
                assert value <= 1e-10 * scale

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            batched_roots([1.0, 2.0])
        with pytest.raises(ValueError):
            batched_roots([[1.0], [2.0]])

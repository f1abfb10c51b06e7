"""The batched polynomial root finder."""

import math

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

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_real_table_with_real_roots_is_float64(self, q):
        expected = np.sort(np.random.default_rng(q).uniform(1.0, 2.0, (50, q)) * [1, 3, 9][:q], axis=1)
        coeffs = np.array([np.poly(row)[::-1] for row in expected])
        roots = batched_roots(coeffs)
        assert roots.dtype == np.float64
        assert np.max(np.abs(np.sort(roots, axis=1) - expected) / expected) < 1e-12

    @pytest.mark.parametrize("q", [2, 3])
    def test_one_complex_root_makes_the_batch_complex(self, q):
        coeffs = np.array([np.poly(np.arange(1.0, q + 1.0))[::-1]] * 3)
        coeffs[1, :3] = [1.0, 0.0, 1.0]  # x^2 + 1 (times x - 3 for q = 3): roots +-i
        roots = batched_roots(coeffs)
        assert roots.dtype == np.complex128
        assert not roots[0].imag.any() and abs(roots[1].imag).max() > 0.5

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_complex_table_is_complex(self, q):
        # 1j times a real table whose roots are all real
        coeffs = 1j * np.poly(np.arange(1.0, q + 1.0))[::-1]
        roots = batched_roots(coeffs[None, :])
        assert roots.dtype == np.complex128
        assert np.max(np.abs(np.sort(roots.real) - np.arange(1.0, q + 1.0))) < 1e-12

    def test_real_quadratic_divides_in_float64(self):
        # the same formula in Python floats: each root is a correctly rounded real quotient,
        # where complex division multiplies by a rounded reciprocal
        rng = np.random.default_rng(31)
        coeffs = rng.standard_normal((1000, 3)) * rng.choice([1e-8, 1.0, 1e8], (1000, 3))
        coeffs[:, 0] = -abs(coeffs[:, 0]) * np.sign(coeffs[:, 2])  # c0 c2 < 0: two real roots
        expected = []
        for c0, c1, c2 in coeffs.tolist():
            disc = math.sqrt(c1 * c1 - 4.0 * c2 * c0)
            minus_far = abs(c1 + disc) >= abs(c1 - disc)
            big = -0.5 * (c1 + disc if minus_far else c1 - disc)
            far, near = big / c2, c0 / big
            expected.append((near, far) if minus_far else (far, near))
        roots = batched_roots(coeffs)
        assert roots.dtype == np.float64
        assert np.array_equal(roots, expected)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            batched_roots([1.0, 2.0])
        with pytest.raises(ValueError):
            batched_roots([[1.0], [2.0]])

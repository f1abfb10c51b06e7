"""Closed-form eigenpair generators versus constructed matrices and worked examples."""

import functools
import itertools
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmat import (
    BadBandwidthError,
    DegenerateQuadraticError,
    EigenSolution,
    HankelVariant,
    SingularPencilError,
    TooSmallError,
    ZeroScaleError,
    assemble_tensor_pencil,
    assemble_toeplitz_hankel,
    build_corner_block,
    build_fem_p2,
    build_fem_p3,
    corner_block_eigenpairs,
    corner_block_quadratic_bands,
    fem_p2_eigenpairs,
    fem_p2_eigenvalues,
    fem_p3_eigenpairs,
    fem_p3_eigenvalues,
    gevp_eigenpairs,
    gevp_eigenvalues,
    gevp_eigenvalues_numeric,
    pencil_residuals,
    pevp_eigenpairs,
    scale_pencil,
    solve_gevp_numeric,
    symbol,
    tensor_eigenpairs,
)
from specmat.families import corner_block_band, fem_p2_bands, fem_p3_bands, toeplitz_hankel_band
from specmat.spectra import (_corner_block_roots, _fem_p3_modes, _symbols, _vertex_samples, eigenvector_basis,
                             mode_angles)

RNG = np.random.default_rng(2024)
EPS = np.finfo(float).eps


def same_bits(x, y):
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def max_residual(sol, a, b):
    return float(np.max(pencil_residuals(a, b, sol.values, sol.vectors)))


class TestSymbol:
    def test_cosine_vanishes(self):
        assert symbol([2.0, -1.0], np.pi / 2) == pytest.approx(2.0)

    def test_tridiagonal_formula(self):
        n = 9
        h = 1.0 / (n + 1)
        for j in range(1, n + 1):
            assert symbol([2.0, -1.0], j * np.pi * h) == pytest.approx(
                2 - 2 * np.cos(j * np.pi * h)
            )

    def test_direct_expansion_m2(self):
        theta = 0.7
        got = symbol([1.0, -1.0 / 3.0, -1.0 / 6.0], theta)
        expected = 1 - (2 / 3) * np.cos(theta) - (1 / 3) * np.cos(2 * theta)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_vectorized(self):
        thetas = np.linspace(0, np.pi, 5)
        got = symbol([1.0, 2.0], thetas)
        assert got.shape == (5,)
        assert got[0] == pytest.approx(5.0)

    @staticmethod
    def exact_symbols(band, thetas, digits=50):
        """The symbol at each float angle in mpmath, 50 digits unless told otherwise."""
        with mpmath.workdps(digits):
            return [band[0] + sum(2 * b * mpmath.cos(l * mpmath.mpf(theta)) for l, b in enumerate(band) if l)
                    for theta in thetas]

    def test_low_modes_keep_full_relative_accuracy(self):
        # 2 - 2 cos(theta) cancels at small theta, and the biharmonic band's
        # symbol 16 sin^4(theta/2) more so; the symbol must not.  The third
        # band's symbol at 0 is 2^-54, which a rounded sum of its terms loses.
        # The last is (40 - l)^2 times (2, -1): a simple zero at 0, at m = 40
        for band in ([2.0, -1.0], [6.0, -4.0, 1.0], [-1.0, 0.1, 0.4], [158.0] + [-2.0] * 39 + [-1.0]):
            for n in (1000, 10 ** 5):
                thetas = np.arange(1, 6) * np.pi / (n + 1)
                got = symbol(band, thetas)
                for value, exact in zip(got, self.exact_symbols(band, thetas)):
                    assert value.imag == 0.0
                    assert abs(mpmath.mpf(value.real) - exact) <= 4 * EPS * abs(exact)

    def test_modes_near_pi_keep_full_relative_accuracy(self):
        # each band has a zero at theta = pi, simple or double, where the sine
        # form of the symbol cancels as badly as the cosine form does at zero
        for band in ([2.0, 1.0], [1.0, 0.25, -0.25], [6.0, 4.0, 1.0]):
            for n in (1000, 10 ** 5):
                thetas = np.arange(n - 4, n + 1) * np.pi / (n + 1)
                got = symbol(band, thetas)
                for value, exact in zip(got, self.exact_symbols(band, thetas)):
                    assert value.imag == 0.0
                    assert abs(mpmath.mpf(value.real) - exact) <= 4 * EPS * abs(exact)

    def test_zeros_up_to_order_three_keep_full_relative_accuracy_at_any_width(self):
        # an eighths band, its symbol at least 1, times (2 -+ 1)^order: a zero of that order in
        # sin^2(theta/2) at 0 or in sin^2((pi - theta)/2) at pi, at the five modes nearest it
        rng = np.random.default_rng(30)
        n = 10 ** 5
        for m in (8, 16, 40):
            for order, at_pi in itertools.product((1, 2, 3), (False, True)):
                base = rng.integers(-8, 9, m - order + 1) / 8
                base[0] = 2 * np.abs(base[1:]).sum() + 1
                band = functools.reduce(_band_product, [[2.0, 1.0 if at_pi else -1.0]] * order, base)
                thetas = (np.arange(n - 4, n + 1) if at_pi else np.arange(1, 6)) * np.pi / (n + 1)
                with mpmath.workdps(120):
                    for value, exact in zip(symbol(band, thetas).tolist(), self.exact_symbols(band, thetas, 120)):
                        assert abs(value - exact) <= 4 * EPS * abs(exact), (m, order, at_pi)

    def test_wide_bands_round_by_their_moduli(self):
        # Horner's rule in t rounds by up to T_m(1 + 2t) times the band's moduli, about 3.7^m at
        # pi/2, where the sin^2 form rounds by about them; each angle past the band's entry 2 takes
        # the sin^2 form where Horner's bound passes 8 times the moduli.
        # Horner's rule alone reads 5.6 eps times the moduli on the m = 4 band
        rng = np.random.default_rng(7)
        thetas = np.pi * np.arange(1, 60) / 60
        for m in (3, 4, 8, 16, 40):
            band = rng.integers(-8, 9, m + 1) / 8
            scale = 2 * np.abs(band).sum() - abs(band[0])  # sum |a_l| of the cosine sum
            for value, exact in zip(symbol(band, thetas), self.exact_symbols(band, thetas)):
                assert abs(value - exact) <= (4 + m / 8) * EPS * scale

    @staticmethod
    def frozen_order_one(band, thetas):
        """The order-1 arithmetic that the corner block's and fem-p2's values were computed by,
        frozen here so that the kernel keeps their bytes."""
        b0, b1 = band
        near_pi = thetas > 0.5 * np.pi
        half_sines = np.sin(0.5 * np.where(near_pi, (np.pi - thetas) + math.sin(math.pi), thetas))
        squares = half_sines * half_sines
        return np.where(near_pi, (b0 - 2.0 * b1 + 0.0) - 4.0 * (-1.0 * b1 * squares),
                        (b0 + 2.0 * b1 + 0.0) - 4.0 * (b1 * squares))

    @staticmethod
    def frozen_order_two(band, thetas):
        """The bandwidth-2 arithmetic that the IGA pair's and the complex bands' values were computed
        by, Horner's rule on exactly summed coefficients, frozen here so that the kernel keeps their bytes."""
        if np.iscomplexobj(band):
            real, imag = (TestSymbol.frozen_order_two(part, thetas) for part in (band.real, band.imag))
            return real + 1j * imag
        b0, b1, b2 = band.tolist()
        near_pi = thetas > 0.5 * np.pi
        half_sines = np.sin(0.5 * np.where(near_pi, (np.pi - thetas) + math.sin(math.pi), thetas))
        squares = half_sines * half_sines
        sides = []
        for sign in (1.0, -1.0):
            c0, c1, c2 = (math.fsum(terms) for terms in ((b0, 2.0 * sign * b1, 2.0 * b2),
                                                         (-4.0 * sign * b1, -16.0 * b2), (16.0 * b2,)))
            sides.append((c2 * squares + c1) * squares + c0)
        return np.where(near_pi, sides[1], sides[0])

    def test_order_two_bands_keep_their_bytes(self):
        # every sign of zero, real and complex bands and real ones in a complex stack, every variant's angles
        parts = (0.0, -0.0, 1.5, -0.5, 1 / 3, -7e-3)
        real = [np.array(band) for band in itertools.product(parts[:4], repeat=3)]
        rng = np.random.default_rng(2)
        complex_ = [rng.choice(parts, 3) + 1j * rng.choice(parts, 3) for _ in range(96)]
        for variant, n in itertools.product(range(1, 5), (1, 2, 3, 7, 60, 2100)):
            if (variant, n) == (3, 1):
                continue  # no angle: h = 1 / (n - 1)
            h, angles = mode_angles(variant, n)
            thetas = np.pi * h * angles
            for bands in (real, complex_, real[:9] + complex_[:30]):
                table = _symbols(np.array(bands), thetas)
                for column, band in zip(table.T, bands):
                    expected = self.frozen_order_two(np.asarray(band, dtype=table.dtype), thetas)
                    assert np.ascontiguousarray(column).tobytes() == expected.tobytes()

    def test_order_one_bands_keep_their_bytes(self):
        # the kernel's columns over every sign of zero, a real band in a complex stack included
        parts = (0.0, -0.0, 1.5, -0.5)
        real = [np.array(band) for band in itertools.product(parts, repeat=2)]
        complex_ = [np.array([complex(a, b), complex(c, d)]) for a, b, c, d in itertools.product(parts, repeat=4)]
        for n in (1, 2, 7, 60):
            thetas = np.pi / (n + 1) * np.arange(1, n + 1)
            for bands in (real, complex_, real[:5] + complex_[:40]):
                table = _symbols(np.array(bands), thetas)
                for column, band in zip(table.T, bands):
                    expected = self.frozen_order_one(band, thetas).astype(table.dtype)
                    assert np.ascontiguousarray(column).tobytes() == expected.tobytes()


_DYADIC = st.builds(lambda k, e: k / 2.0 ** e, st.integers(-64, 64), st.integers(0, 6))


def _band_product(a, b):
    """The band whose symbol is the product of the two bands' symbols."""
    a, b = (np.concatenate((band[:0:-1], band)) for band in (np.asarray(a), np.asarray(b)))
    return np.convolve(a, b)[(a.size + b.size) // 2 - 1:]


@st.composite
def _sampled_symbols(draw):
    """A dyadic band of bandwidth 1-16, or one with an exact zero of order 1, 2 or 3 in sin^2(theta/2)
    at 0 or pi, and some of a variant's mode angles at an n up to 10^5."""
    order, sign = draw(st.integers(0, 3)), draw(st.sampled_from([-1.0, 1.0]))
    base = draw(st.lists(_DYADIC, min_size=1, max_size=17 - order).filter(lambda b: len(b) + order > 1))
    band = functools.reduce(_band_product, [[2.0, sign]] * order, np.array(base))
    variant = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(band.size, 40), st.integers(band.size, 10 ** 5)))
    h, angles = mode_angles(variant, n)
    picked = [0, 1, n // 2, n - 2, n - 1] + draw(st.lists(st.integers(0, n - 1), max_size=3))
    return band, np.pi * h * angles[picked]


def _condition_sums(band, thetas):
    """``sum_k |c_k| x^k`` at each angle, for the symbol as a polynomial in ``x = sin^2(theta/2)``
    up to pi/2 and in ``x = sin^2((pi - theta)/2)`` above, in mpmath."""
    chebyshev = [[1], [1, -2]]  # T_l(1 - 2x), ascending: T_{l+1} = 2 (1 - 2x) T_l - T_{l-1}
    while len(chebyshev) < band.size:
        last, before = chebyshev[-1] + [0], chebyshev[-2] + [0, 0]
        chebyshev.append([2 * c - 4 * p - q for c, p, q in zip(last, [0] + chebyshev[-1], before)])
    sums = []
    for theta in thetas:
        sign = -1 if theta > np.pi / 2 else 1
        x = mpmath.sin((mpmath.pi - theta if sign < 0 else mpmath.mpf(theta)) / 2) ** 2
        coeffs = [sum((1 if l == 0 else 2 * sign ** l) * mpmath.mpf(b) * chebyshev[l][k]
                      for l, b in enumerate(band) if l >= k) for k in range(band.size)]
        sums.append(sum(abs(c) * x ** k for k, c in enumerate(coeffs)))
    return sums


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sampled_symbols())
def test_symbol_error_is_within_its_condition_number(case):
    # Horner's rule in x with exactly summed coefficients: the error is a few
    # eps times sum |c_k| x^k per power, so an exact zero of s stays relatively exact.
    # At theta = fl(pi) a double zero leaves s ~ 1e-64 of its terms: 120 digits
    band, thetas = case
    got = symbol(band, thetas)
    m = band.size - 1
    with mpmath.workdps(120):
        exact = TestSymbol.exact_symbols(band, thetas, 120)
        for value, reference, scale in zip(got.tolist(), exact, _condition_sums(band, thetas)):
            assert abs(value - reference) <= (4 * m + 2) * EPS * scale


class TestGevpEigenpairs:
    def test_m2_example_matches_printed_formula(self):
        alpha = [1.0, -1.0 / 3.0, -1.0 / 6.0]
        beta = [11.0 / 20.0, 13.0 / 60.0, 1.0 / 120.0]
        for n in (6, 20):
            sol = gevp_eigenpairs(alpha, beta, n, 1)
            h = 1.0 / (n + 1)
            for j in range(1, n + 1):
                c = np.cos(j * np.pi * h)
                c2 = np.cos(2 * j * np.pi * h)
                expected = -20 + 240 * (3 + 2 * c) / (33 + 26 * c + c2)
                assert sol.value_for_mode(j) == pytest.approx(expected, abs=1e-11)

    def test_set3_complex_example_values_and_vector(self):
        alpha = [8 + 2j, 5 - 1j, 2j]
        beta = [6.0, 3j, 1 - 1j]
        sol = gevp_eigenpairs(alpha, beta, 5, 3)
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
        assert np.max(np.abs(np.sort_complex(sol.values) - np.sort_complex(listed))) < 1e-12
        # third mode: eigenvalue 7/5 - 6/5 i with eigenvector (1, 0, -1, 0, 1)
        assert sol.value_for_mode(3) == pytest.approx(1.4 - 1.2j, abs=1e-12)
        assert np.allclose(sol.vector_for_mode(3).real, [1, 0, -1, 0, 1], atol=1e-12)

    def test_set4_worked_example(self):
        sol = gevp_eigenpairs([7.0, 5.0, 2.0], [5.0, 3.0, 1.0], 4, 4)
        s2 = np.sqrt(2.0)
        expected = np.array([21 / 13, (5 + 4 * s2) / 7, 1.0, (5 - 4 * s2) / 7])
        assert np.max(np.abs(sol.values - expected)) < 1e-14
        listed_vectors = [
            np.array([1.0, 1.0, 1.0, 1.0]),
            np.array([1.0, s2 - 1, 1 - s2, -1.0]),
            np.array([1.0, -1.0, -1.0, 1.0]),
            np.array([-1.0, 1 + s2, -1 - s2, 1.0]),
        ]
        for mode, listed in zip(range(1, 5), listed_vectors):
            got = sol.vector_for_mode(mode)
            cosine = abs(np.vdot(got, listed)) / (
                np.linalg.norm(got) * np.linalg.norm(listed)
            )
            assert 1 - cosine < 1e-12

    def test_baseline_tridiagonal_formula(self):
        for n in (4, 9):
            sol = gevp_eigenpairs([2.0, -1.0], [1.0, 0.0], n, 1)
            h = 1.0 / (n + 1)
            expected = 2 - 2 * np.cos(np.arange(1, n + 1) * np.pi * h)
            assert np.allclose(sol.values.real, expected, atol=1e-14)

    def test_singular_pencil_detected(self):
        # beta symbol 2*cos(theta) vanishes at theta = pi/2 (mode 2 of n=3, set 1)
        with pytest.raises(SingularPencilError):
            gevp_eigenpairs([2.0, -1.0], [0.0, 1.0], 3, 1)

    def test_all_zero_denominator_band_is_singular(self):
        # the floor scales with sum |beta|, so an all-zero band's floor is 0 too
        with pytest.raises(SingularPencilError):
            gevp_eigenvalues([2.0, -1.0], [0.0, 0.0], 5, 1)

    def test_band_length_mismatch(self):
        with pytest.raises(BadBandwidthError):
            gevp_eigenpairs([2.0, -1.0], [1.0], 5, 1)

    def test_bandwidth_range(self):
        with pytest.raises(BadBandwidthError):
            gevp_eigenpairs([1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 0.0, 0.0], 3, 1)

    def test_mode_count_and_h(self):
        sol = gevp_eigenpairs([3.0, 1.0], [4.0, 1.0], 7, 2)
        assert sol.n_modes == 7
        assert mode_angles(2, 7)[0] == pytest.approx(1.0 / 7.0)

    def test_residuals_all_variants_random_bands(self):
        for variant in (1, 2, 3, 4):
            for (n, m) in ((6, 2), (9, 3)):
                alpha = RNG.standard_normal(m + 1) + 1j * RNG.standard_normal(m + 1)
                beta = RNG.standard_normal(m + 1) + 1j * RNG.standard_normal(m + 1)
                beta[0] += 8.0  # keep the denominator symbol well away from zero
                sol = gevp_eigenpairs(alpha, beta, n, variant)
                a = assemble_toeplitz_hankel(alpha, n, variant)
                b = assemble_toeplitz_hankel(beta, n, variant)
                assert max_residual(sol, a, b) < 1e-10

    def test_set1_sine_vectors_orthogonal(self):
        sol = gevp_eigenpairs([2.0, -1.0], [1.0, 0.0], 20, 1)
        gram = sol.vectors.T @ sol.vectors
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-10

    def test_matches_oracle_all_variants(self):
        def rational_band(size):
            return np.array(
                [RNG.integers(-9, 10) / RNG.integers(1, 9) for _ in range(size)]
            )

        for variant in (1, 2, 3, 4):
            n, m = 7, 2
            alpha = rational_band(m + 1)
            beta = rational_band(m + 1)
            beta[0] += 8.0
            sol = gevp_eigenpairs(alpha, beta, n, variant)
            a = assemble_toeplitz_hankel(alpha, n, variant)
            b = assemble_toeplitz_hankel(beta, n, variant)
            numeric = solve_gevp_numeric(a, b)
            got = np.sort_complex(sol.values)
            ref = np.sort_complex(numeric.values)
            assert np.max(np.abs(got - ref)) < 1e-8


class TestGevpEigenvalues:
    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_equals_eigenpair_values_bit_for_bit(self, variant):
        for n in (3, 8, 33, 250):
            for width in (2, 3):
                alpha = RNG.standard_normal(width) + 1j * RNG.standard_normal(width)
                beta = RNG.standard_normal(width)
                beta[0] = 4.0 + abs(beta[0])
                values = gevp_eigenvalues(alpha, beta, n, variant)
                assert same_bits(values, gevp_eigenpairs(alpha, beta, n, variant).values)

    @staticmethod
    def _symbols(alpha, beta, n, variant):
        h, angles = mode_angles(variant, n)
        thetas = np.pi * h * angles
        return symbol(alpha, thetas), symbol(beta, thetas)

    @pytest.mark.parametrize("variant, n", [(1, 1000), (2, 151), (3, 40), (4, 33)])
    def test_real_bands_give_the_real_quotient(self, variant, n):
        # numpy's complex division multiplies by a rounded reciprocal: at n = 1000
        # it misses the real quotient in 247 of the IGA pair's 1000 values
        alpha, beta = [1.0, -1.0 / 3.0, -1.0 / 6.0], [11.0 / 20.0, 13.0 / 60.0, 1.0 / 120.0]
        s_alpha, s_beta = self._symbols(alpha, beta, n, variant)
        assert same_bits(gevp_eigenvalues(alpha, beta, n, variant), s_alpha.real / s_beta.real)

    @pytest.mark.parametrize("alpha, beta", [
        ([4 + 1j, -1.0, 0.5j], [3.0, 0.2 + 0.1j, 0.1]),
        ([2.0, -1.0], [1.0, 0.2j]),
        ([2.0 + 0.5j, -1.0], [2.0 / 3.0, 1.0 / 6.0]),
    ], ids=["complex", "complex-beta", "complex-alpha"])
    def test_complex_bands_give_pythons_quotient(self, alpha, beta):
        for variant, n in [(1, 300), (3, 40), (4, 7)]:
            s_alpha, s_beta = self._symbols(alpha, beta, n, variant)
            quotients = [x / y for x, y in zip(s_alpha.tolist(), s_beta.tolist())]
            assert same_bits(gevp_eigenvalues(alpha, beta, n, variant), quotients)

    def test_checks_bands_and_singular_pencil(self):
        with pytest.raises(BadBandwidthError):
            gevp_eigenvalues([2.0, -1.0], [1.0, 0.0, 0.0], 5, 1)
        with pytest.raises(BadBandwidthError):
            gevp_eigenvalues([2.0, -1.0, 0.5], [1.0, 0.0, 0.0], 2, 1)
        with pytest.raises(SingularPencilError):
            gevp_eigenvalues([2.0, -1.0], [0.0, 1.0], 3, 1)


_PEVP_BANDS = [[2.0, -1.0], [1.0, 0.25]]
_N_SOLVERS = {
    "gevp_eigenvalues": lambda n: gevp_eigenvalues([2.0, -1.0], [1.0, 0.0], n, 1),
    "gevp_eigenpairs": lambda n: gevp_eigenpairs([2.0, -1.0], [1.0, 0.0], n, 1),
    "pevp_eigenpairs": lambda n: pevp_eigenpairs(_PEVP_BANDS, n, 1),
}


@pytest.mark.parametrize("solve", _N_SOLVERS.values(), ids=_N_SOLVERS.keys())
@pytest.mark.parametrize("n", [6.5, 6.000001, float("inf"), float("nan"), "6", None])
def test_an_n_that_is_not_a_whole_number_is_refused(solve, n):
    with pytest.raises(ValueError, match=r"^n must be a whole number, got "):
        solve(n)


@pytest.mark.parametrize("solve", _N_SOLVERS.values(), ids=_N_SOLVERS.keys())
def test_a_whole_float_n_runs_as_its_int(solve):
    whole = solve(6.0)
    assert pickle.dumps(whole) == pickle.dumps(solve(6))  # every field, dtype and bit
    assert len(getattr(whole, "modes", whole)) == 6


_SIZED = {
    "corner_block_eigenpairs": (lambda n: corner_block_eigenpairs([5, 1, -0.5, 3], [1, 0, 0, 1], n), "half_n"),
    "fem_p2_eigenvalues": (fem_p2_eigenvalues, "n_elems"),
    "fem_p2_eigenpairs": (fem_p2_eigenpairs, "n_elems"),
    "fem_p2_bands": (fem_p2_bands, "n_elems"),
    "fem_p3_eigenpairs": (fem_p3_eigenpairs, "n_elems"),
}


@pytest.mark.parametrize("solve, name", _SIZED.values(), ids=_SIZED.keys())
def test_a_size_is_a_whole_number_that_a_float_holds(solve, name):
    with pytest.raises(ValueError, match=rf"^{name} must be a whole number, got 6\.5$"):
        solve(6.5)
    with pytest.raises(ValueError, match=rf"^{name} is too large for a float$"):
        solve(10**400)


class TestCornerBlockEigenpairs:
    @staticmethod
    def per_mode_reference(alpha, beta, half_n):
        """Labels and values of the per-mode loop that the vectorized form replaced."""
        thetas = np.pi * (1.0 / (half_n + 1)) * np.arange(1, half_n + 1)
        c_hats, b_hats, a_hats = (symbol(band, thetas) for band in corner_block_quadratic_bands(alpha, beta))
        modes, values = [], []
        for j, a_hat, b_hat, c_hat in zip(range(1, half_n + 1), a_hats, b_hats, c_hats):
            if abs(a_hat) < 1e-14:
                modes.append(2 * j - 1)
                values.append(-c_hat / b_hat)
                continue
            disc = np.sqrt(complex(b_hat * b_hat - 4.0 * a_hat * c_hat))
            minus, plus = -(b_hat + disc) / (2.0 * a_hat), (disc - b_hat) / (2.0 * a_hat)
            if abs(minus) >= abs(plus):
                plus = c_hat / (a_hat * minus) if minus else plus
            else:
                minus = c_hat / (a_hat * plus)
            modes += [2 * j - 1, 2 * j]
            values += [minus, plus]
        return np.array(modes + [2 * half_n + 1]), np.array(values + [alpha[3] / beta[3]])

    def test_matches_per_mode_loop(self):
        # the roots now come from batched_roots, whose Vieta step rounds
        # differently: the same labels, the values within a few eps
        rng = np.random.default_rng(17)
        cases = [([4.0, 1.0, 0.5, 3.0], [2.0, 1.0, 1.0, 1.0], 2),  # degree drops
                 ([5.0, -1.0, 7 / 8, 33 / 8], [39 / 8, -1.0, -5 / 8, 33 / 8], 9)]
        for i in range(60):
            alpha = rng.standard_normal(4) + (1j * rng.standard_normal(4) if i % 2 else 0.0)
            beta = rng.standard_normal(4) + (1j * rng.standard_normal(4) if i % 2 else 0.0)
            cases.append((alpha, beta + [3.0, 0.0, 0.0, 3.0], int(rng.integers(1, 30))))
        for alpha, beta, half_n in cases:
            modes, values = self.per_mode_reference(np.asarray(alpha, complex), np.asarray(beta, complex), half_n)
            sol = corner_block_eigenpairs(alpha, beta, half_n)
            assert np.array_equal(sol.modes, modes)
            assert np.all(np.abs(sol.values - values) <= 8 * EPS * np.abs(values))

    def test_5x5_closed_forms_with_identity_b(self):
        # alpha = (2, -1, 0, 2) gives {2, 2 +/- sqrt(3), 3, 1}
        sol = corner_block_eigenpairs([2.0, -1.0, 0.0, 2.0], [1.0, 0.0, 0.0, 1.0], 2)
        expected = np.array([2.0, 2 - np.sqrt(3), 2 + np.sqrt(3), 3.0, 1.0])
        assert np.max(
            np.abs(np.sort_complex(sol.values) - np.sort_complex(expected.astype(complex)))
        ) < 1e-12

    def test_last_mode_alternates(self):
        sol = corner_block_eigenpairs([2.0, -1.0, 0.0, 2.0], [1.0, 0.0, 0.0, 1.0], 3)
        vec = sol.vector_for_mode(7)
        assert np.allclose(vec[0::2].real, [1, -1, 1, -1], atol=0)
        assert np.allclose(vec[1::2], 0, atol=0)
        assert sol.value_for_mode(7) == pytest.approx(2.0)

    def test_residuals_random_complex_bands(self):
        for _ in range(4):
            alpha = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
            beta = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
            beta[3] += 4.0
            sol = corner_block_eigenpairs(alpha, beta, 4)
            a = build_corner_block(alpha, 4)
            b = build_corner_block(beta, 4)
            assert sol.n_modes == 9
            assert max_residual(sol, a, b) < 1e-10

    def test_quadratic_roots_do_not_cancel(self):
        # the "-" root is about 1e-8 of the "+" root; taking both from the
        # quadratic formula loses half the digits of the small one
        with mpmath.workdps(50):
            alpha, beta, half_n = [1.0, 1e-5, 0.0, 1e-8], [1.0, 0.0, 0.0, 1.0], 4
            sol = corner_block_eigenpairs(alpha, beta, half_n)
            al, be = [mpmath.mpf(v) for v in alpha], [mpmath.mpf(v) for v in beta]
            for j in range(1, half_n + 1):
                c = mpmath.cos(j * mpmath.pi / (half_n + 1))
                qa = be[0] * be[3] - 2 * be[1] ** 2 + 2 * (be[2] * be[3] - be[1] ** 2) * c
                qb = (4 * al[1] * be[1] - be[0] * al[3] - al[0] * be[3]
                      - 2 * (be[2] * al[3] - 2 * al[1] * be[1] + al[2] * be[3]) * c)
                qc = al[0] * al[3] - 2 * al[1] ** 2 + 2 * (al[2] * al[3] - al[1] ** 2) * c
                disc = mpmath.sqrt(qb * qb - 4 * qa * qc)
                roots = {2 * j - 1: (-qb - disc) / (2 * qa), 2 * j: (-qb + disc) / (2 * qa)}
                for mode, exact in roots.items():
                    got = sol.value_for_mode(mode)
                    assert abs(mpmath.mpc(got) - exact) <= 8 * EPS * abs(exact)

    def test_mode_near_pi_with_small_leading_coefficient(self):
        # at theta = 7 pi / 8 the leading coefficient's symbol is 5e-4 of its
        # terms, so mode 14 is about -4.2e4; compared at the mode angles as
        # rounded to double, which is what the closed form evaluates
        alpha, beta, half_n = [6.625, 0.125, -0.125, 4.0], [1.875, -0.75, 1.0, 3.125], 7
        sol = corner_block_eigenpairs(alpha, beta, half_n)
        bands = corner_block_quadratic_bands(alpha, beta)
        with mpmath.workdps(50):
            for j in range(1, half_n + 1):
                theta = mpmath.mpf(float(np.pi * (1.0 / (half_n + 1)) * j))
                qc, qb, qa = (mpmath.mpf(band[0].real) + 2 * mpmath.mpf(band[1].real) * mpmath.cos(theta)
                              for band in bands)
                disc = mpmath.sqrt(qb * qb - 4 * qa * qc)
                roots = {2 * j - 1: (-qb - disc) / (2 * qa), 2 * j: (-qb + disc) / (2 * qa)}
                for mode, exact in roots.items():
                    got = sol.value_for_mode(mode)
                    assert abs(mpmath.mpc(got) - exact) <= 2e-13 * abs(exact)
        assert abs(sol.value_for_mode(14)) > 4e4

    def test_requires_nonzero_odd_diagonal(self):
        with pytest.raises(SingularPencilError):
            corner_block_eigenpairs([1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], 2)

    @pytest.mark.parametrize(
        "alpha, beta, half_n",
        [
            # alpha[1] = 0 with B = I: the values are 2, 2, 2, 4, 6
            ([5.0, 0.0, 1.0, 2.0], [1.0, 0.0, 0.0, 1.0], 2),
            ([5.0, -1.0, 7 / 8, 33 / 8], [39 / 8, -1.0, -5 / 8, 33 / 8], 58),
            # both roots of one mode are lam0: at c = 0 here, at c = +-1/2 below
            ([23 / 4, -15 / 8, -1.0, 1.0], [23 / 4, -15 / 8, 3 / 8, 1.0], 5),
            ([47 / 8, 5 / 4, 13 / 8, 5.0], [35 / 8, 1.0, 13 / 8, 4.0], 14),
        ],
        ids=["eye", "n58", "double-c0", "double-half"],
    )
    def test_lam0_roots_get_closed_form_vectors(self, alpha, beta, half_n):
        # alpha[1] beta[3] = alpha[3] beta[1] makes lam0 = alpha[3] / beta[3] a
        # root of every mode quadratic, where the odd-entry ratio divides by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = corner_block_eigenpairs(alpha, beta, half_n)
        a = build_corner_block(alpha, half_n)
        b = build_corner_block(beta, half_n)
        numeric = gevp_eigenvalues_numeric(a, b)
        assert np.max(np.abs(np.sort(sol.values.real) - numeric)) <= 1e-12 * np.max(np.abs(numeric))
        if half_n == 2:
            assert np.allclose(np.sort(sol.values.real), [2.0, 2.0, 2.0, 4.0, 6.0], atol=1e-12)
        assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) <= 1e-10
        assert np.linalg.matrix_rank(sol.vectors) == 2 * half_n + 1

    @pytest.mark.parametrize("offset", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_nearly_degenerate_pencils_keep_small_residuals(self, offset):
        # alpha[1] a relative offset away from alpha[3] beta[1] / beta[3]: one
        # root of every mode lies about offset^2 from lam0, where the ratio
        # coupling / odd cancels in both terms
        alpha = [5.0, -1.0 - offset, 7 / 8, 33 / 8]
        beta = [39 / 8, -1.0, -5 / 8, 33 / 8]
        sol = corner_block_eigenpairs(alpha, beta, 20)
        a = build_corner_block(alpha, 20)
        b = build_corner_block(beta, 20)
        assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) <= 1e-12
        assert np.linalg.matrix_rank(sol.vectors) == 41

    def test_degenerate_quadratic_falls_back_to_linear_root(self):
        # beta = (2, 1, 1, 1) zeroes the quadratic coefficient at every angle
        # (the right-hand matrix is singular, so half the modes escape to
        # infinity and only the linear roots remain)
        alpha = [4.0, 1.0, 0.5, 3.0]
        beta = [2.0, 1.0, 1.0, 1.0]
        sol = corner_block_eigenpairs(alpha, beta, 2)
        assert sol.n_modes == 3  # two linear roots plus the flat mode
        assert sol.modes.tolist() == [1, 3, 5]  # angles 1 and 2 drop their modes 2 and 4
        a = build_corner_block(alpha, 2)
        b = build_corner_block(beta, 2)
        assert max_residual(sol, a, b) < 1e-10

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("d", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("alpha, beta", [
        ([5.0, 1.0, -0.5, 3.0], [4.0, 0.5, 0.25, 2.0]),
        ([4 - 7j / 8, 5 / 8 + 1j / 4, -3 / 8 + 1j / 8, 15 / 4 + 1j / 2],
         [45 / 8, 3 / 4 + 3j / 8, 1 / 4 + 1j / 2, 27 / 8 + 3j / 4]),
    ], ids=["real", "complex"])
    def test_scaled_pencils_keep_every_mode(self, alpha, beta, c, d):
        # (c A, d B) has the eigenvalues of (A, B) times c / d, and the floors of
        # the quadratic's coefficients scale with both sides, so no mode drops
        base = corner_block_eigenpairs(alpha, beta, 5)
        alpha, beta = c * np.asarray(alpha), d * np.asarray(beta)
        sol = corner_block_eigenpairs(alpha, beta, 5)
        assert sol.modes.tolist() == base.modes.tolist() == list(range(1, 12))
        expected = c / d * base.values
        # c alpha and d beta are rounded, so the values move by a few eps
        assert np.max(np.abs(sol.values - expected)) <= 64 * EPS * np.max(np.abs(expected))
        assert max_residual(sol, build_corner_block(alpha, 5), build_corner_block(beta, 5)) <= 16 * EPS

    def test_parameter_products_that_underflow_raise(self):
        with pytest.raises(DegenerateQuadraticError, match="underflow"):
            corner_block_eigenpairs([1e-200, 1e-201, 1e-202, 1e-200], [1.0, 0.0, 0.0, 1.0], 3)
        values = corner_block_eigenpairs([1e-100, 1e-101, 1e-102, 1e-100], [1.0, 0.0, 0.0, 1.0], 3).values
        assert np.all(values > 0)

    def test_doubly_degenerate_mode_raises(self):

        with pytest.raises(DegenerateQuadraticError):
            corner_block_eigenpairs([2.0, 1.0, 0.0, 1.0], [2.0, 1.0, 1.0, 1.0], 1)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            corner_block_eigenpairs([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0], 0)

    @pytest.mark.parametrize("solve", [corner_block_quadratic_bands,
                                       lambda alpha, beta: corner_block_eigenpairs(alpha, beta, 0)],
                             ids=["corner_block_quadratic_bands", "corner_block_eigenpairs"])
    @pytest.mark.parametrize("alpha, beta", [([1.0, 2.0], [1.0, 2.0]), ([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
                                             ([[1.0, 0.0, 0.0, 1.0]], [1.0, 0.0, 0.0, 1.0])])
    def test_four_parameters_per_side_are_checked_first(self, solve, alpha, beta):
        # half_n = 0 would raise TooSmallError, and beta[3] = 0 SingularPencilError, after the shapes
        with pytest.raises(ValueError, match="^corner-block pencils take exactly four parameters per side$"):
            solve(alpha, beta)


_EIGHTHS = st.integers(-16, 16).map(lambda k: k / 8)  # dyadic, so products stay exact


@st.composite
def _dyadic_corner_block_pencils(draw):
    """Corner-block pencils with diagonally dominant B, half with alpha[1] beta[3] = alpha[3] beta[1]."""
    complex_entries = draw(st.booleans())

    def entry():
        return complex(draw(_EIGHTHS), draw(_EIGHTHS) if complex_entries else 0.0)

    alpha = [entry() + draw(st.sampled_from([0.0, 4.0])) for _ in range(4)]
    beta = [16.0 + entry(), entry(), entry(), 8.0 + abs(draw(_EIGHTHS))]
    if draw(st.booleans()):
        beta[3] = 2.0 ** draw(st.integers(3, 5))  # a power of two: alpha[1] below is exact
        alpha[1] = alpha[3] * beta[1] / beta[3]
    return alpha, beta, draw(st.integers(1, 30))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_dyadic_corner_block_pencils())
def test_corner_block_vectors_form_a_basis(case):
    alpha, beta, half_n = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = corner_block_eigenpairs(alpha, beta, half_n)
    a = build_corner_block(alpha, half_n)
    b = build_corner_block(beta, half_n)
    assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) <= 1e-12
    assert np.linalg.matrix_rank(sol.vectors) == 2 * half_n + 1


class TestFemP2Eigenpairs:
    def test_flat_mode_is_exactly_10_n_squared(self):
        for n in (2, 4, 16):
            sol = fem_p2_eigenpairs(n)
            assert sol.value_for_mode(n) == 10.0 * n * n

    def test_lowest_mode_converges_to_pi_squared(self):
        n = 64
        sol = fem_p2_eigenpairs(n)
        assert abs(sol.value_for_mode(1).real - np.pi ** 2) < 10.0 / n ** 2

    def test_residuals(self):
        for n in (2, 5, 12, 32):
            sol = fem_p2_eigenpairs(n)
            k, m = build_fem_p2(n)
            assert max_residual(sol, k, m) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 100, 1000])
    def test_right_dirichlet_end_is_an_exact_zero(self, n):
        # the last odd entry neighbours vertex n - 1 and the right end; with
        # the end sampled as sin(j pi) it would carry that sine's rounding
        # error, and the vector would not be exactly even or odd about its middle
        vectors = fem_p2_eigenpairs(n).vectors
        flipped = vectors[::-1]
        assert np.all(np.all(flipped == vectors, axis=0) | np.all(flipped == -vectors, axis=0))

    def test_lower_branch_exact_to_rounding_at_large_n(self):
        # 13 + 2c - sqrt(124 + 112c - 11c^2) cancels as c -> 1; evaluated as
        # written it puts modes 1 and 3 of n=1000 below the Rayleigh-Ritz bound
        with mpmath.workdps(50):
            n = 1000
            values = fem_p2_eigenpairs(n).values
            for j in range(1, 21):
                c = mpmath.cos(j * mpmath.pi / n)
                exact = 4 * (13 + 2 * c - mpmath.sqrt(124 + 112 * c - 11 * c * c)) / (3 - c) * n * n
                assert values[j - 1].imag == 0.0
                assert abs(mpmath.mpf(values[j - 1].real) - exact) <= 4 * EPS * exact
                assert values[j - 1].real >= (j * np.pi) ** 2

    @pytest.mark.parametrize("n", [7, 301, 1000])
    def test_every_mode_exact_to_rounding(self, n):
        with mpmath.workdps(50):
            lower, upper = [], []
            for j in range(1, n):
                c = mpmath.cos(j * mpmath.pi / n)
                root = mpmath.sqrt(124 + 112 * c - 11 * c * c)
                lower.append(4 * (13 + 2 * c - root) / (3 - c) * n * n)
                upper.append(4 * (13 + 2 * c + root) / (3 - c) * n * n)
            exact = [*lower, mpmath.mpf(10 * n * n), *upper]
            values = fem_p2_eigenvalues(n)
            errors = [abs(mpmath.mpf(x) - y) / y for x, y in zip(values.tolist(), exact)]
        assert max(errors) <= 8 * EPS

    @pytest.mark.parametrize("n", [2, 3, 6, 301])
    def test_matches_corner_block_route(self, n):
        # K 3h and M 30/h are the integer corner-block parameters, so the pencils
        # share their vectors, and the eigenvalues differ by the exact 10 n^2
        sol = fem_p2_eigenpairs(n)
        block = corner_block_eigenpairs([14, -8, 1, 16], [8, 2, -1, 16], n - 1)
        order = np.r_[0:2 * n - 2:2, 2 * n - 2, 1:2 * n - 2:2]  # the "-" roots, the flat mode, the "+" roots
        assert same_bits(sol.values, block.values[order] * (10 * n * n))
        assert same_bits(sol.vectors, np.ascontiguousarray(block.vectors[:, order]))
        assert sol.values.dtype == sol.vectors.dtype == float
        assert np.array_equal(sol.modes, np.arange(1, 2 * n))

    @pytest.mark.parametrize("n", [2, 6, 7, 301])
    def test_bands_are_the_float_parameters_scaled_by_h(self, n):
        h = 1.0 / n
        stiffness = corner_block_band(np.array([14.0 / 3.0, -8.0 / 3.0, 1.0 / 3.0, 16.0 / 3.0]) * (1.0 / h), n - 1)
        mass = corner_block_band(np.array([4.0 / 15.0, 1.0 / 15.0, -1.0 / 30.0, 8.0 / 15.0]) * h, n - 1)
        for band, expected in zip(fem_p2_bands(n), (stiffness, mass)):
            assert same_bits(band.ab, expected.ab)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            fem_p2_eigenpairs(1)


class TestFemP2Eigenvalues:
    @staticmethod
    def per_mode_reference(n):
        """fem-p2's own closed form, one mode at a time: the branch quadratic
        ``13 + 2c +- sqrt(124 + 112c - 11c^2)``, its lower root by Vieta, and
        the odd entries filled with the weight ``(40 + s) / (80 - 8 s)``.

        Each sample ``sin(k pi i / n)`` reduces its integer phase ``k i`` to
        one period and its angle to at most pi/2.
        """
        h, dim = 1.0 / n, 2 * n - 1
        values = np.empty(dim)
        vectors = np.zeros((dim, dim))
        for j in range(1, dim + 1):
            if j == n:
                values[j - 1] = 10.0 * n * n
                vectors[0::2, j - 1] = (-1.0) ** np.arange(n)
                continue
            k = j if j < n else j - n
            c = np.cos(k * np.pi * h)
            upper = 13.0 + 2.0 * c + np.sqrt(124.0 + 112.0 * c - 11.0 * c * c)
            s = np.sin(0.5 * k * np.pi * h)
            lam = (120.0 * (s * s) / upper if j < n else 4.0 * upper / (3.0 - c)) * n * n
            values[j - 1] = lam
            scaled = lam * h * h
            factor = (40.0 + scaled) / (80.0 - 8.0 * scaled)
            even = np.empty(n + 1)
            for i in range(n + 1):
                t = k * i % (2 * n)
                u = t if t <= n else t - n
                even[i] = (1.0 if t <= n else -1.0) * np.sin(np.pi * min(u, n - u) / n)
            vectors[1::2, j - 1] = even[1:n]
            vectors[0::2, j - 1] = factor * (even[:n] + even[1:])
        return values, vectors

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 301, 1000])
    def test_equals_eigenpair_values_bit_for_bit(self, n):
        assert same_bits(fem_p2_eigenvalues(n), fem_p2_eigenpairs(n).values)

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 301])
    def test_matches_per_mode_loop(self, n):
        values, vectors = self.per_mode_reference(n)
        sol = fem_p2_eigenpairs(n)
        assert np.all(np.abs(sol.values - values) <= 8 * EPS * values)
        # parallel: over the reference's largest entry, each column matches the reference's
        # within the condition number of its odd-entry weight (40 + s) / (80 - 8 s), s = lam h^2,
        # which near the flat mode s = 10 magnifies the eigenvalue's rounding
        columns, top = np.arange(values.size), np.argmax(np.abs(vectors), axis=0)
        sampled = np.flatnonzero(columns != n - 1)
        scaled = values[sampled] / (n * n)
        kappa = np.ones(values.size)
        kappa[sampled] += 8.0 * scaled / np.abs(80.0 - 8.0 * scaled)
        gaps = np.abs(sol.vectors / sol.vectors[top, columns] - vectors / vectors[top, columns])
        assert np.all(gaps <= 8 * EPS * kappa)

    def test_real_and_too_small(self):
        assert fem_p2_eigenvalues(5).dtype == np.float64
        with pytest.raises(TooSmallError):
            fem_p2_eigenvalues(1)


class TestFemP3Eigenvalues:
    def test_contains_flat_modes_exactly(self):
        for n in (2, 5):
            values = fem_p3_eigenvalues(n)
            assert 10.0 * n * n in values.real
            assert 42.0 * n * n in values.real

    def test_matches_oracle(self):
        n = 4
        values = fem_p3_eigenvalues(n)
        k, m = build_fem_p3(n)
        numeric = solve_gevp_numeric(k, m)
        ref = np.sort(numeric.values.real)
        assert np.max(np.abs(values.real - ref) / np.abs(ref)) < 1e-7

    def test_lowest_mode_converges(self):
        values = fem_p3_eigenvalues(32)
        assert abs(values[0].real - np.pi ** 2) / np.pi ** 2 < 1e-3

    def test_count(self):
        assert fem_p3_eigenvalues(6).size == 17

    @pytest.mark.parametrize("n", [14, 200, 1000])
    def test_exact_to_rounding_against_mpmath(self, n):
        # every eigenvalue within a few eps times its root's condition
        # number (at most about 340 here, where two branches nearly meet)
        exact, kappa = [10.0 * n * n, 42.0 * n * n], [1.0, 1.0]
        with mpmath.workdps(50):
            for j in range(1, n):
                z = mpmath.cos(j * mpmath.pi / n)
                coeffs = [-25200 * (1 - z), 360 * (32 + 3 * z), -30 * (18 - z), 4 + z]
                value = lambda x: sum(c * x ** k for k, c in enumerate(coeffs))
                slope = lambda x: sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k)
                # Newton in 50 digits from numpy's roots; the roots are real and simple
                for seed in np.roots([float(c) for c in coeffs[::-1]]).real:
                    root = mpmath.mpf(seed)
                    for _ in range(5):
                        root -= value(root) / slope(root)
                    size = sum(abs(c) * abs(root) ** k for k, c in enumerate(coeffs))
                    exact.append(float(root * n * n))
                    kappa.append(float(size / abs(root * slope(root))))
        order = np.argsort(exact)
        exact, kappa = np.array(exact)[order], np.array(kappa)[order]
        values = fem_p3_eigenvalues(n)
        assert not values.imag.any()
        assert np.all(np.abs(values.real - exact) <= 4 * EPS * kappa * exact)


class TestFemP3Eigenpairs:
    @pytest.mark.parametrize("n", [2, 3, 8, 40, 200])
    def test_values_and_residuals(self, n):
        sol = fem_p3_eigenpairs(n)
        assert same_bits(sol.values, fem_p3_eigenvalues(n))
        assert np.array_equal(sol.modes, np.arange(1, 3 * n))
        k, m = build_fem_p3(n)
        assert np.max(pencil_residuals(k, m, sol.values, sol.vectors)) <= 1e-11

    @pytest.mark.parametrize("n", [2, 3, 8, 40, 100])
    def test_vectors_have_full_rank(self, n):
        assert np.linalg.matrix_rank(fem_p3_eigenpairs(n).vectors) == 3 * n - 1

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_element_local_modes(self, n):
        # (1, 1) alternating from element to element at 10 n^2, (1, -1) on
        # every element at 42 n^2; both vanish at the vertices
        sol = fem_p3_eigenpairs(n)
        k, m = build_fem_p3(n)
        signs = (-1.0) ** np.arange(n)
        for value, first, second in ((10.0, signs, signs), (42.0, 1.0, -1.0)):
            x = sol.vector_for_mode(int(np.flatnonzero(sol.values == value * n * n)[0]) + 1)
            assert np.array_equal(x[0::3], np.broadcast_to(first, n))
            assert np.array_equal(x[1::3], np.broadcast_to(second, n))
            assert not x[2::3].any()
            assert pencil_residuals(k, m, value * n * n, x) <= 1e-15

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            fem_p3_eigenpairs(1)


class TestPevpEigenpairs:
    def test_linear_case_reduces_to_gevp(self):
        n, m = 8, 2
        alpha = RNG.standard_normal(m + 1) + 1j * RNG.standard_normal(m + 1)
        beta = RNG.standard_normal(m + 1) + 1j * RNG.standard_normal(m + 1)
        beta[0] += 8.0
        poly = pevp_eigenpairs((-alpha, beta), n, HankelVariant.SET1)
        gevp = gevp_eigenpairs(alpha, beta, n, 1)
        for roots, expected in zip(poly.mode_roots, gevp.values):
            assert roots.size == 1
            assert abs(roots[0] - expected) < 1e-12

    def test_quadratic_bands_reproduce_corner_block_branches(self):
        alpha = np.array([2.0, -1.0, 0.5, 3.0])
        beta = np.array([1.5, 0.25, -0.5, 2.0])
        half_n = 5
        band_d, band_c, band_b = corner_block_quadratic_bands(alpha, beta)
        poly = pevp_eigenpairs((band_d, band_c, band_b), half_n, HankelVariant.SET1)
        block = corner_block_eigenpairs(alpha, beta, half_n)
        for j in range(1, half_n + 1):
            # one root step for both, the corner block's "-" root first
            pair = [block.value_for_mode(2 * j - 1), block.value_for_mode(2 * j)]
            assert pair == poly.mode_roots[j - 1][::-1].tolist()

    def test_degree_drop_flagged(self):
        # leading band (0, 1): its symbol 2*cos(theta) vanishes at mode 2 of n=3
        poly = pevp_eigenpairs(([1.0, 0.5], [2.0, 0.3], [0.0, 1.0]), 3, HankelVariant.SET1)
        assert poly.degree_drops == (2,)
        assert poly.mode_roots[1].size == 1
        assert poly.mode_roots[0].size == 2

    def test_all_zero_leading_band_drops_every_mode(self):
        poly = pevp_eigenpairs(([1.0, 0.5], [0.0, 0.0]), 6, HankelVariant.SET4)
        assert poly.degree_drops == (1, 2, 3, 4, 5, 6)
        assert all(roots.size == 0 for roots in poly.mode_roots)

    def test_degree_drops_masked_per_mode(self):
        # at the angles j pi / 6 the cubic band vanishes at modes 3 and 4 and
        # the quadratic band at mode 3, so the degrees are 3, 3, 1, 2, 3
        bands = ([1.0, 0.5, 0.2], [2.0, 0.3, 0.1], [1.0, 0.0, 0.5], [1.0, 0.5, 0.5])
        poly = pevp_eigenpairs(bands, 5, HankelVariant.SET1)
        assert poly.degree_drops == (3, 4)
        assert [r.size for r in poly.mode_roots] == [3, 3, 1, 2, 3]
        thetas = np.arange(1, 6) * np.pi / 6
        for roots, theta in zip(poly.mode_roots, thetas):
            coeffs = [symbol(b, theta) for b in bands][: roots.size + 1]
            expected = np.roots(coeffs[::-1])
            gaps = np.abs(roots[:, None] - expected[None, :])
            assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) < 1e-12

    def test_eigenpair_residuals_against_matrices(self):
        n, m, q = 6, 2, 3
        bands = []
        for _ in range(q + 1):
            band = RNG.standard_normal(m + 1) + 1j * RNG.standard_normal(m + 1)
            bands.append(band)
        bands[-1][0] += 6.0  # keep the leading symbol alive
        poly = pevp_eigenpairs(bands, n, HankelVariant.SET2)
        mats = [assemble_toeplitz_hankel(b, n, 2) for b in bands]
        for i in range(n):
            x = poly.vectors[:, i]
            for lam in poly.mode_roots[i]:
                p = sum((lam ** k) * mats[k] for k in range(q + 1))
                scale = sum(
                    np.max(np.abs(mats[k]).sum(axis=1)) * abs(lam) ** k for k in range(q + 1)
                )
                assert np.max(np.abs(p @ x)) < 1e-10 * scale * np.max(np.abs(x))

    def test_n1_has_no_valid_bandwidth(self):
        with pytest.raises(BadBandwidthError):
            pevp_eigenpairs(([1.0, 2.0], [1.0, 1.0], [1.0, 0.0]), 1, HankelVariant.SET1)


class TestTensorEigenpairs:
    def test_fdm_2x2_both_ways(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        left = gevp_eigenpairs([2.0, -1.0], [1.0, 0.0], 2, 1)
        combined = tensor_eigenpairs(left, left)
        assert np.allclose(
            np.sort(combined.values.real), [2.0, 4.0, 4.0, 6.0], atol=1e-12
        )
        lhs, rhs = assemble_tensor_pencil(a, np.eye(2), a, np.eye(2))
        numeric = solve_gevp_numeric(lhs, rhs)
        assert np.max(
            np.abs(np.sort(combined.values.real) - np.sort(numeric.values.real))
        ) < 1e-10

    def test_single_modes_add(self):
        left = gevp_eigenpairs([2.0, -1.0], [1.0, 0.0], 2, 1)
        sub_left = type(left)(modes=[1], values=[left.values[0]], vectors=left.vectors[:, :1])
        sub_right = type(left)(modes=[1], values=[left.values[1]], vectors=left.vectors[:, 1:])
        combined = tensor_eigenpairs(sub_left, sub_right)
        assert combined.values[0] == pytest.approx(left.values[0] + left.values[1])

    def test_residuals_of_assembled_pencil(self):
        n, m = 3, 4
        alpha = [2.0, -1.0]
        beta = [2.0 / 3.0, 1.0 / 6.0]
        left = gevp_eigenpairs(alpha, beta, n, 1)
        right = gevp_eigenpairs(alpha, beta, m, 1)
        a = assemble_toeplitz_hankel(alpha, n, 1)
        b = assemble_toeplitz_hankel(beta, n, 1)
        c = assemble_toeplitz_hankel(alpha, m, 1)
        d = assemble_toeplitz_hankel(beta, m, 1)
        lhs, rhs = assemble_tensor_pencil(a, b, c, d)
        combined = tensor_eigenpairs(left, right)
        assert max_residual(combined, lhs, rhs) < 1e-10

    def test_vectors_match_per_pair_kron_bit_for_bit(self):
        left = gevp_eigenpairs([3.0, -1.0 + 0.5j], [1.0, 0.25], 5, 3)
        right = fem_p2_eigenpairs(3)
        combined = tensor_eigenpairs(left, right)
        columns = [
            np.kron(left.vectors[:, j], right.vectors[:, k])
            for j in range(left.n_modes)
            for k in range(right.n_modes)
        ]
        assert same_bits(combined.vectors, np.column_stack(columns))
        assert same_bits(combined.values, [x + y for x in left.values for y in right.values])

    def test_vectors_follow_the_entrywise_kron_definition(self):
        # one-row and one-column bases: entry (k, j) of kron(x, y) is x[0, j] y[k, 0]
        x, y = np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])
        left = EigenSolution(modes=[1, 2], values=[0.0, 1.0], vectors=x)
        right = EigenSolution(modes=[1], values=[0.0], vectors=y)
        full = tensor_eigenpairs(left, right).vectors
        assert full.shape == (2, 2)
        for j in range(2):
            for k in range(2):
                assert full[k, j] == x[0, j] * y[k, 0]


class TestScalePencil:
    def test_equal_scales_do_nothing(self):
        sol = gevp_eigenpairs([2.0, -1.0], [1.0, 0.0], 4, 1)
        scaled = scale_pencil(sol, 5.0, 5.0)
        assert np.array_equal(scaled.values, sol.values)

    def test_plain_ratio(self):
        sol = gevp_eigenpairs([2.0, -1.0], [1.0, 0.0], 2, 1)
        scaled = scale_pencil(sol, 2.0, 1.0)
        assert np.allclose(scaled.values, 2.0 * sol.values)

    def test_scaled_pencil_preserves_residual_identity(self):
        n = 6
        alpha, beta = [2.0, -1.0], [2.0 / 3.0, 1.0 / 6.0]
        sol = gevp_eigenpairs(alpha, beta, n, 1)
        h = 1.0 / (n + 1)
        scaled = scale_pencil(sol, 1.0 / h, h)
        a = assemble_toeplitz_hankel(alpha, n, 1) / h
        b = assemble_toeplitz_hankel(beta, n, 1) * h
        assert max_residual(scaled, a, b) < 1e-12
        # the mesh-scaled tridiagonal pencil lands on the -6 + 18/(2+cos) curve over h^2
        expected = np.array(
            [
                (-6 + 18 / (2 + np.cos(j * np.pi * h))) / h ** 2
                for j in range(1, n + 1)
            ]
        )
        assert np.allclose(scaled.values.real, expected, rtol=1e-13)

    def test_zero_scale_rejected(self):
        sol = gevp_eigenpairs([2.0, -1.0], [1.0, 0.0], 2, 1)
        with pytest.raises(ZeroScaleError):
            scale_pencil(sol, 0.0, 1.0)


IGA_ALPHA, IGA_BETA = [1.0, -1.0 / 3.0, -1.0 / 6.0], [11.0 / 20.0, 13.0 / 60.0, 1.0 / 120.0]
CORNER_ALPHA, CORNER_BETA = [5.0, 1.0, -0.5, 3.0], [4.0, 0.5, 0.25, 2.0]


class TestSampleTables:
    """Every sampled sine or cosine is within 8 eps of the exact one, at any n."""

    # per variant: the wave, and entry k of mode j at the angle pi * phase(k, j) / d(n)
    WAVES = {
        1: (mpmath.sin, lambda k, j: 2 * k * j, lambda n: 2 * (n + 1), 1),
        2: (mpmath.sin, lambda k, j: (2 * k - 1) * j, lambda n: 2 * n, 1),
        3: (mpmath.cos, lambda k, j: 2 * (k - 1) * j, lambda n: 2 * (n - 1), 0),
        4: (mpmath.cos, lambda k, j: (2 * k - 1) * j, lambda n: 2 * n, 0),
    }

    @staticmethod
    def exact(wave, phases, d):
        """``wave(pi t / d)`` to 30 digits at each integer phase t, through its value at ``t mod 2d``."""
        with mpmath.workdps(30):
            period = np.array([float(wave(mpmath.pi * t / d)) for t in range(2 * d)])
        return period[phases % (2 * d)]

    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [7, 151, 2000])
    def test_eigenvector_basis(self, variant, n):
        wave, phase, d, first = self.WAVES[variant]
        k, j = np.arange(1, n + 1)[:, None], np.arange(first, first + n)[None, :]
        basis = eigenvector_basis(variant, n)
        assert basis.dtype == np.float64
        assert np.max(np.abs(basis - self.exact(wave, phase(k, j), d(n)))) <= 8 * EPS

    @pytest.mark.parametrize("n", [7, 151, 2000])
    def test_vertex_samples(self, n):
        # the FEM families' vertices: sin(j pi k / n), k = 0..n, at the angle indices 1..n-1
        samples = _vertex_samples(np.arange(1, n), n - 1)
        exact = self.exact(mpmath.sin, np.multiply.outer(np.arange(n + 1), np.arange(1, n)), n)
        assert np.max(np.abs(samples - exact)) <= 8 * EPS
        assert not samples[[0, n]].any() and not np.signbit(samples[[0, n]]).any()  # +0.0 ends


class TestResidualGate:
    """The closed forms' residuals sit at rounding at n = 1000, on the bands and without the oracle.

    ``sin`` at the unreduced angle ``pi h k j`` loses about ``k j h`` ulps,
    which puts these residuals at 0.95-1.9e-13 for the IGA pair and at
    5.6e-11 for fem-p2 at 1000 elements.
    """

    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_iga_pair(self, variant):
        sol = gevp_eigenpairs(IGA_ALPHA, IGA_BETA, 1000, variant)
        a, b = (toeplitz_hankel_band(band, 1000, variant) for band in (IGA_ALPHA, IGA_BETA))
        assert a.ab.dtype == b.ab.dtype == np.float64
        assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) <= 2e-15

    @pytest.mark.parametrize("family", ["fem-p2", "fem-p3", "corner-block"])
    def test_corner_overlapped_families(self, family):
        sol, bands = {
            "fem-p2": lambda: (fem_p2_eigenpairs(1000), fem_p2_bands(1000)),
            "fem-p3": lambda: (fem_p3_eigenpairs(300), fem_p3_bands(300)),
            "corner-block": lambda: (corner_block_eigenpairs(CORNER_ALPHA, CORNER_BETA, 1000),
                                     [corner_block_band(side, 1000) for side in (CORNER_ALPHA, CORNER_BETA)]),
        }[family]()
        a, b = bands
        assert a.ab.dtype == b.ab.dtype == np.float64
        assert np.max(pencil_residuals(a, b, sol.values, sol.vectors)) <= 1e-13


class TestClosedFormDtypes:
    """Values and vectors are float64 where nothing is complex, else both complex128."""

    @pytest.mark.parametrize("solve, dtype", [
        (lambda: gevp_eigenpairs(IGA_ALPHA, IGA_BETA, 9, 3), np.float64),
        (lambda: corner_block_eigenpairs(CORNER_ALPHA, CORNER_BETA, 4), np.float64),
        (lambda: fem_p2_eigenpairs(5), np.float64),
        (lambda: fem_p3_eigenpairs(5), np.float64),
        (lambda: scale_pencil(fem_p2_eigenpairs(5), 1.0 / 3.0, 3.0), np.float64),
        (lambda: solve_gevp_numeric(*(assemble_toeplitz_hankel(band, 9, 1).real
                                      for band in (IGA_ALPHA, IGA_BETA))), np.float64),
        (lambda: gevp_eigenpairs([2.0 + 0.5j, -1.0], [2.0 / 3.0, 1.0 / 6.0], 9, 2), np.complex128),
        (lambda: corner_block_eigenpairs([5.0, 1j, -0.5, 3.0], CORNER_BETA, 4), np.complex128),
        (lambda: corner_block_eigenpairs([4.0, -3.0, -1.0, -1.0], [4.0, -3.0, 0.0, -2.0], 3), np.complex128),
        (lambda: solve_gevp_numeric(assemble_toeplitz_hankel([2.0, 1j], 6, 1), np.eye(6)), np.complex128),
        (lambda: scale_pencil(fem_p2_eigenpairs(5), 1j, 3.0), np.complex128),
    ], ids=["toeplitz-hankel", "corner-block", "fem-p2", "fem-p3", "scaled", "hermitian-oracle",
            "complex-alpha", "complex-corner-block", "real-corner-block-complex-roots",
            "complex-hermitian-oracle", "complex-scale"])
    def test_dtype(self, solve, dtype):
        sol = solve()
        assert sol.values.dtype == dtype and sol.vectors.dtype == dtype

    def test_values_only_forms_are_real(self):
        assert gevp_eigenvalues(IGA_ALPHA, IGA_BETA, 9, 4).dtype == np.float64
        assert fem_p3_eigenvalues(6).dtype == np.float64

    def test_real_roots_are_float64_from_the_root_step(self):
        # batched_roots decides the dtype, and nothing after it converts
        assert _corner_block_roots(CORNER_ALPHA, CORNER_BETA, 40)[4].dtype == np.float64
        assert corner_block_eigenpairs(CORNER_ALPHA, CORNER_BETA, 40).values.dtype == np.float64
        assert fem_p2_eigenvalues(300).dtype == fem_p2_eigenpairs(30).values.dtype == np.float64
        assert _fem_p3_modes(40)[0].dtype == fem_p3_eigenpairs(20).values.dtype == np.float64
        poly = pevp_eigenpairs(([-2.0, 1.0], [0.0, 0.0], [1.0, 0.25]), 12, HankelVariant.SET1)
        assert all(roots.dtype == np.float64 for roots in poly.mode_roots)
        assert poly.all_values().dtype == np.float64

    def test_one_complex_root_makes_every_mode_complex(self):
        # lam^2 + 2 cos(theta): an imaginary pair below pi/2, real roots above
        poly = pevp_eigenpairs(([0.0, 1.0], [0.0, 0.0], [1.0, 0.0]), 7, HankelVariant.SET1)
        assert all(roots.dtype == np.complex128 for roots in poly.mode_roots)
        assert poly.mode_roots[0].imag.all() and not poly.mode_roots[-1].imag.any()

    def test_one_complex_side_makes_both_complex(self):
        sol = EigenSolution(modes=[1], values=[2.0], vectors=[[1j]])
        assert sol.values.dtype == sol.vectors.dtype == np.complex128

    def test_corner_block_flat_value_is_the_real_quotient(self):
        # numpy's complex division gives 3 * (1/5) = 0.6000000000000001
        sol = corner_block_eigenpairs([4.0, 1.0, 0.5, 3.0], [6.0, 1.0, 0.5, 5.0], 3)
        assert sol.value_for_mode(7) == 3.0 / 5.0

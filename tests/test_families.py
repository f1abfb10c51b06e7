"""Matrix builders: banded Toeplitz, corner Hankel corrections, block families, FEM pairs."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmat import (
    BadBandwidthError,
    HankelVariant,
    OverlapError,
    ShapeMismatchError,
    TooSmallError,
    assemble_tensor_pencil,
    assemble_toeplitz_hankel,
    build_corner_block,
    build_fem_p2,
    build_fem_p3,
    build_hankel,
    build_toeplitz,
    hermitian_eigen,
    solve_gevp_numeric,
)
from specmat.families import _FEM_P3_K_LOCAL, _FEM_P3_M_LOCAL


def _persymmetry_defect(a):
    return np.max(np.abs(a - a[::-1, ::-1].T))


class TestToeplitz:
    def test_tridiagonal(self):
        t = build_toeplitz([2.0, -1.0], 3)
        assert np.array_equal(t.real, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])

    def test_zero_offdiagonals_give_identity(self):
        t = build_toeplitz([1.0, 0.0, 0.0], 4)
        assert np.array_equal(t, np.eye(4))

    def test_bandwidth_floor(self):
        with pytest.raises(BadBandwidthError):
            build_toeplitz([1.0], 3)

    def test_bandwidth_ceiling(self):
        with pytest.raises(BadBandwidthError):
            build_toeplitz([1.0, 2.0, 3.0, 4.0], 3)

    def test_entries_depend_only_on_band_offset(self):
        rng = np.random.default_rng(5)
        band = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        t = build_toeplitz(band, 9)
        for j in range(9):
            for k in range(9):
                expected = band[abs(j - k)] if abs(j - k) <= 3 else 0.0
                assert t[j, k] == expected


class TestHankel:
    def test_set1_top_rows_for_m3(self):
        band = np.array([10.0, 11.0, 12.0, 13.0])  # alpha_0..alpha_3
        h = build_hankel(band, 7, 1)
        assert np.array_equal(h[0, :3], [12.0, 13.0, 0.0])
        assert np.array_equal(h[1, :2], [13.0, 0.0])
        assert h[2, 0] == 0.0

    def test_set2_m1_single_corner(self):
        h = build_hankel([5.0, 7.0], 4, 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 7.0
        expected[3, 3] = 7.0
        assert np.array_equal(h.real, expected)

    def test_set3_halved_corner(self):
        h = build_hankel([8 + 2j, 5 - 1j, 2j], 5, 3)
        assert h[0, 0] == -(4 + 1j)
        assert h[1, 1] == 2j
        assert h[4, 4] == -(4 + 1j)

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            build_hankel([1.0, 2.0, 3.0, 4.0], 4, 2)  # 2m-1 = 5 > 4

    def test_persymmetric(self):
        rng = np.random.default_rng(8)
        for variant in (1, 2, 3, 4):
            band = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            h = build_hankel(band, 6, variant)
            assert _persymmetry_defect(h) == 0.0


class TestAssembleToeplitzHankel:
    def test_set1_m2_corner(self):
        a = assemble_toeplitz_hankel([1.0, -1.0 / 3.0, -1.0 / 6.0], 6, 1)
        assert a[0, 0] == pytest.approx(7.0 / 6.0, abs=1e-15)
        assert np.allclose(a[0].real, [7 / 6, -1 / 3, -1 / 6, 0, 0, 0], atol=1e-15)
        assert np.allclose(a[1].real, [-1 / 3, 1, -1 / 3, -1 / 6, 0, 0], atol=1e-15)

    def test_set4_worked_4x4(self):
        a = assemble_toeplitz_hankel([7.0, 5.0, 2.0], 4, 4)
        expected = np.array(
            [[12, 7, 2, 0], [7, 7, 5, 2], [2, 5, 7, 7], [0, 2, 7, 12]], dtype=float
        )
        assert np.array_equal(a.real, expected)
        assert np.all(a.imag == 0)

    def test_set1_m1_is_plain_tridiagonal(self):
        a = assemble_toeplitz_hankel([2.0, -1.0], 5, 1)
        assert np.array_equal(a, build_toeplitz([2.0, -1.0], 5))

    def test_set3_complex_5x5_pair(self):
        a = assemble_toeplitz_hankel([8 + 2j, 5 - 1j, 2j], 5, 3)
        b = assemble_toeplitz_hankel([6.0, 3j, 1 - 1j], 5, 3)
        expected_a = np.array(
            [
                [4 + 1j, 5 - 1j, 2j, 0, 0],
                [5 - 1j, 8 + 4j, 5 - 1j, 2j, 0],
                [2j, 5 - 1j, 8 + 2j, 5 - 1j, 2j],
                [0, 2j, 5 - 1j, 8 + 4j, 5 - 1j],
                [0, 0, 2j, 5 - 1j, 4 + 1j],
            ]
        )
        expected_b = np.array(
            [
                [3, 3j, 1 - 1j, 0, 0],
                [3j, 7 - 1j, 3j, 1 - 1j, 0],
                [1 - 1j, 3j, 6, 3j, 1 - 1j],
                [0, 1 - 1j, 3j, 7 - 1j, 3j],
                [0, 0, 1 - 1j, 3j, 3],
            ]
        )
        assert np.array_equal(a, expected_a)
        assert np.array_equal(b, expected_b)

    def test_set2_m2_boundary_pattern(self):
        band = np.array([10.0, 3.0, 1.0])
        a = assemble_toeplitz_hankel(band, 6, 2)
        assert a[0, 0] == 7.0  # alpha_0 - alpha_1
        assert a[0, 1] == 2.0  # alpha_1 - alpha_2
        assert a[0, 2] == 1.0
        assert a[5, 5] == 7.0
        assert a[4, 5] == 2.0

    def test_symmetric_and_persymmetric_all_variants(self):
        rng = np.random.default_rng(21)
        for variant in (1, 2, 3, 4):
            for (n, m) in ((5, 2), (8, 3), (9, 4)):
                band = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
                a = assemble_toeplitz_hankel(band, n, variant)
                assert np.max(np.abs(a - a.T)) <= 1e-14
                assert _persymmetry_defect(a) <= 1e-14


class TestCornerBlock:
    def test_5x5_block_pattern(self):
        xi = np.array([10.0, 11.0, 12.0, 13.0])
        g = build_corner_block(xi, 2).real
        expected = np.array(
            [
                [13, 11, 0, 0, 0],
                [11, 10, 11, 12, 0],
                [0, 11, 13, 11, 0],
                [0, 12, 11, 10, 11],
                [0, 0, 0, 11, 13],
            ]
        )
        assert np.array_equal(g, expected)

    def test_diagonal_special_case(self):
        g = build_corner_block([0.0, 0.0, 0.0, 1.0], 1)
        assert np.array_equal(g.real, np.diag([1.0, 0.0, 1.0]))

    def test_fem_p2_interior_matches_block_pattern(self):
        k, _ = build_fem_p2(4)
        g = build_corner_block([14 / 3, -8 / 3, 1 / 3, 16 / 3], 3)
        assert np.allclose(k, g / (1 / 4), atol=1e-12)


class TestFemP2:
    def test_smallest_mesh_diagonal(self):
        k, _ = build_fem_p2(2)
        assert k.shape == (3, 3)
        assert np.allclose(np.diag(k).real, np.array([16 / 3, 14 / 3, 16 / 3]) * 2)

    def test_even_interior_rows_annihilate_constants(self):
        k, _ = build_fem_p2(6)
        # even (1-based) rows with a full stencil kill constants:
        # xi2 + xi1 + xi0 + xi1 + xi2 = 1/3 - 8/3 + 14/3 - 8/3 + 1/3 = 0
        for row in range(3, k.shape[0] - 3, 2):
            assert abs(k[row].sum()) < 1e-12

    def test_mass_symmetric_positive_diagonal(self):
        _, m = build_fem_p2(5)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m).real > 0)

    def test_mass_positive_definite(self):
        for n_elems in (2, 5, 12, 32):
            _, m = build_fem_p2(n_elems)
            w = hermitian_eigen(m).values.real
            assert np.all(w > 0)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            build_fem_p2(1)


class TestFemP3:
    def test_leading_block_entries(self):
        h = 1.0 / 2.0
        k, m = build_fem_p3(2)
        assert k.shape == (5, 5)
        assert k[0, 0] == pytest.approx(54 / 5 / h)
        assert k[0, 1] == pytest.approx(-297 / 40 / h)
        assert k[0, 2] == pytest.approx(27 / 20 / h)
        assert k[1, 2] == pytest.approx(-189 / 40 / h)
        assert k[2, 2] == pytest.approx(37 / 5 / h)
        assert m[0, 0] == pytest.approx(27 / 70 * h)
        assert m[1, 1] == pytest.approx(27 / 70 * h)
        assert m[2, 2] == pytest.approx(16 / 105 * h)

    def test_shared_node_couplings(self):
        k, m = build_fem_p3(3)
        h = 1.0 / 3.0
        assert k[2, 2] == pytest.approx(37 / 5 / h)
        assert k[2, 5] == pytest.approx(-13 / 40 / h)
        assert m[2, 5] == pytest.approx(19 / 1680 * h)

    def test_symmetric_and_mass_definite(self):
        for n_elems in (2, 4, 8):
            k, m = build_fem_p3(n_elems)
            assert np.allclose(k, k.T, atol=0)
            assert np.allclose(m, m.T, atol=0)
            assert np.all(hermitian_eigen(m).values.real > 0)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            build_fem_p3(1)


class TestTensorPencil:
    def test_scalar_case(self):
        lhs, rhs = assemble_tensor_pencil([[2.0]], [[1.0]], [[2.0]], [[1.0]])
        assert lhs[0, 0] == 4.0
        assert rhs[0, 0] == 1.0

    def test_identity_sides_make_kronecker_sum(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        lhs, rhs = assemble_tensor_pencil(a, np.eye(2), a, np.eye(2))
        expected = np.kron(a, np.eye(2)) + np.kron(np.eye(2), a)
        assert np.array_equal(lhs, expected)
        assert np.array_equal(rhs, np.eye(4))

    def test_minkowski_sum_spectrum(self):
        rng = np.random.default_rng(17)
        for (n, m) in ((2, 3), (3, 3), (4, 2)):
            a = rng.standard_normal((n, n))
            a = a + a.T
            c = rng.standard_normal((m, m))
            c = c + c.T
            lhs, rhs = assemble_tensor_pencil(a, np.eye(n), c, np.eye(m))
            got = np.sort(solve_gevp_numeric(lhs, rhs).values.real)
            lam = np.linalg.eigvalsh(a)
            mu = np.linalg.eigvalsh(c)
            expected = np.sort(np.add.outer(lam, mu).ravel())
            assert np.max(np.abs(got - expected)) < 1e-9

    def test_shape_bookkeeping(self):
        lhs, rhs = assemble_tensor_pencil(
            np.eye(2), np.eye(2), np.eye(3), np.eye(3)
        )
        assert lhs.shape == (6, 6)
        assert rhs.shape == (6, 6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            assemble_tensor_pencil(np.eye(2), np.eye(3), np.eye(2), np.eye(2))


class TestVariantEnum:
    def test_signs(self):
        assert HankelVariant.SET1.sign == -1
        assert HankelVariant.SET2.sign == -1
        assert HankelVariant.SET3.sign == 1
        assert HankelVariant.SET4.sign == 1

    def test_coerce(self):
        assert HankelVariant.coerce(3) is HankelVariant.SET3
        with pytest.raises(ValueError):
            HankelVariant.coerce("fifth")


# The per-entry loop builders that the diagonal assembly replaced, kept as
# references: the assembled matrices must match them bit for bit.

def _reference_toeplitz(band, n):
    band = np.asarray(band, dtype=complex)
    lookup = np.zeros(n, dtype=complex)
    lookup[: band.size] = band
    offsets = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return lookup[offsets]


def _reference_hankel(band, n, variant):
    band = np.asarray(band, dtype=complex)
    m = band.size - 1
    top = np.zeros((n, n), dtype=complex)
    if variant == 1:
        for j in range(1, m):
            for k in range(1, m - j + 1):
                top[j - 1, k - 1] = band[j + k]
    elif variant in (2, 4):
        for j in range(1, m + 1):
            for k in range(1, m - j + 2):
                top[j - 1, k - 1] = band[j + k - 1]
    else:
        top[0, 0] = -band[0] / 2.0
        for j in range(1, m):
            for k in range(1, m - j + 1):
                top[j, k] = band[j + k]
    return top + top[::-1, ::-1]


def _reference_assemble(band, n, variant):
    sign = -1 if variant in (1, 2) else 1
    return _reference_toeplitz(band, n) + sign * _reference_hankel(band, n, variant)


def _reference_corner_block(xi, half_n):
    xi = np.asarray(xi, dtype=complex)
    dim = 2 * half_n + 1
    g = np.zeros((dim, dim), dtype=complex)
    for i in range(1, dim + 1):
        g[i - 1, i - 1] = xi[3] if i % 2 == 1 else xi[0]
        if i < dim:
            g[i - 1, i] = xi[1]
            g[i, i - 1] = xi[1]
        if i % 2 == 0 and i + 2 <= dim:
            g[i - 1, i + 1] = xi[2]
            g[i + 1, i - 1] = xi[2]
    return g


def _reference_fem_p3(n_elems):
    h = 1.0 / n_elems
    dim = 3 * n_elems - 1
    stiffness = np.zeros((dim, dim), dtype=complex)
    mass = np.zeros((dim, dim), dtype=complex)
    for e in range(1, n_elems + 1):
        gdofs = (3 * e - 3, 3 * e - 2, 3 * e - 1, 3 * e)
        for a in range(4):
            if not 1 <= gdofs[a] <= dim:
                continue
            for b in range(4):
                if not 1 <= gdofs[b] <= dim:
                    continue
                stiffness[gdofs[a] - 1, gdofs[b] - 1] += _FEM_P3_K_LOCAL[a, b] / h
                mass[gdofs[a] - 1, gdofs[b] - 1] += _FEM_P3_M_LOCAL[a, b] * h
    return stiffness, mass


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0 / 3.0]),
                   st.floats(allow_nan=False, allow_infinity=False, width=64))


@st.composite
def _banded_case(draw):
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, (n + 1) // 2))
    real = draw(st.lists(_PARTS, min_size=m + 1, max_size=m + 1))
    band = np.array(real, dtype=complex)
    if draw(st.booleans()):  # a complex band; otherwise every imaginary part is +0.0
        band.imag = draw(st.lists(_PARTS, min_size=m + 1, max_size=m + 1))
    return band, n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_banded_case(), st.sampled_from([1, 2, 3, 4]))
@example((np.array([-0.0, 1.0, -0.0]), 5), 3)  # T + H turns the -0.0 entries into +0.0
@example((np.array([complex(-0.0, -0.0), -1.0]), 2), 1)
@example((np.array([2.0, -1.0 + 0.5j, complex(0.25, -0.0)]), 3), 2)
@example((np.array([2.0, -1.0 + 0.5j, complex(0.25, -0.5)]), 3), 3)  # the corners meet in a nonzero entry
def test_builders_match_the_loop_references(case, variant):
    band, n = case
    assert _same_bits(build_toeplitz(band, n), _reference_toeplitz(band, n))
    assert _same_bits(build_hankel(band, n, variant), _reference_hankel(band, n, variant))
    assert _same_bits(assemble_toeplitz_hankel(band, n, variant), _reference_assemble(band, n, variant))


@pytest.mark.parametrize("variant", [1, 2, 3, 4])
def test_one_by_one_hankel_matches_the_loop_reference(variant):
    band = np.array([complex(3.0, -0.0), -1.0 + 0.5j])  # m = n = 1: both corners are the one entry
    assert _same_bits(build_hankel(band, 1, variant), _reference_hankel(band, 1, variant))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 20), st.lists(_PARTS, min_size=4, max_size=4),
       st.lists(_PARTS, min_size=4, max_size=4))
def test_corner_block_matches_the_loop_reference(half_n, real, imag):
    xi = np.array(real, dtype=complex)
    xi.imag = imag
    assert _same_bits(build_corner_block(xi, half_n), _reference_corner_block(xi, half_n))


@pytest.mark.parametrize("n_elems", [2, 3, 4, 7, 40])
def test_fem_builders_match_the_loop_references(n_elems):
    for got, want in zip(build_fem_p3(n_elems), _reference_fem_p3(n_elems)):
        assert _same_bits(got, want)
    h = 1.0 / n_elems
    stiffness, mass = build_fem_p2(n_elems)
    assert _same_bits(stiffness, _reference_corner_block([14 / 3, -8 / 3, 1 / 3, 16 / 3], n_elems - 1) / h)
    assert _same_bits(mass, _reference_corner_block([4 / 15, 1 / 15, -1 / 30, 8 / 15], n_elems - 1) * h)

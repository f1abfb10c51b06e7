"""Matrix Market round trips and exact header strings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmat import (
    assemble_toeplitz_hankel,
    build_fem_p2,
    read_matrix_market,
    write_matrix_market,
)


class TestWriteRead:
    def test_real_matrix_uses_array_format(self, tmp_path):
        k, _ = build_fem_p2(3)
        path = tmp_path / "k.mtx"
        header = write_matrix_market(k, path)
        assert header == "%%MatrixMarket matrix array real general"
        back = read_matrix_market(path)
        assert np.array_equal(back, k)  # 17 significant digits round-trip bitwise

    def test_complex_symmetric_header_and_roundtrip(self, tmp_path):
        a = assemble_toeplitz_hankel([8 + 2j, 5 - 1j, 2j], 5, 3)
        path = tmp_path / "a.mtx"
        header = write_matrix_market(a, path)
        assert header == "%%MatrixMarket matrix coordinate complex symmetric"
        back = read_matrix_market(path)
        assert np.array_equal(back, a)

    def test_complex_general(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        path = tmp_path / "g.mtx"
        header = write_matrix_market(a, path)
        assert header == "%%MatrixMarket matrix coordinate complex general"
        assert np.array_equal(read_matrix_market(path), a)

    def test_coordinate_stores_only_nonzeros(self, tmp_path):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 0] = 1 + 2j
        a[2, 1] = -1j
        a[1, 2] = -1j
        path = tmp_path / "s.mtx"
        write_matrix_market(a, path, fmt="coordinate")
        lines = path.read_text().strip().splitlines()
        # header, size line, and two stored entries (symmetric lower triangle)
        assert lines[1].split()[2] == "2"
        assert np.array_equal(read_matrix_market(path), a)

    def test_forced_array_complex(self, tmp_path):
        a = np.array([[1 + 1j, 0.0], [0.5, 2 - 3j]])
        path = tmp_path / "c.mtx"
        header = write_matrix_market(a, path, fmt="array")
        assert header == "%%MatrixMarket matrix array complex general"
        assert np.array_equal(read_matrix_market(path), a)

    def test_rectangular_real(self, tmp_path):
        a = np.arange(6.0).reshape(2, 3) / 7.0
        path = tmp_path / "r.mtx"
        write_matrix_market(a, path)
        assert np.array_equal(read_matrix_market(path), a.astype(complex))

    @pytest.mark.parametrize(
        "text",
        [
            "%%MatrixMarket matrix coordinate complex general\n% a comment\n\n2 2 1\n"
            "  % an indented comment\n2 1 1.5 -0\n\n",
            "% a leading comment\n%%MatrixMarket matrix coordinate complex general\n2 2 1\n2 1 1.5 -0\n",
        ],
        ids=["comments-after-header", "comment-before-header"],
    )
    def test_comments_and_blank_lines_are_skipped(self, tmp_path, text):
        path = tmp_path / "c.mtx"
        path.write_text(text, encoding="ascii")
        back = read_matrix_market(path)
        assert back.shape == (2, 2) and back[1, 0] == 1.5
        assert np.signbit(back[1, 0].imag) and not back[[0, 0, 1], [0, 1, 1]].any()

    @pytest.mark.parametrize(
        "text",
        [
            "%%MatrixMarket matrix array real general\n2 1\n1.5\n",
            "%%MatrixMarket matrix array real general\n2 1\n1.5 2\n3\n",
            "%%MatrixMarket matrix array complex general\n1 1\n1.5\n",
            "%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 1.0 0.0\n",
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0\n",
            "%%MatrixMarket matrix pattern real general\n1 1\n1\n",
            "% a comment\n1 1\n1\n",
        ],
        ids=["short-array", "extra-token", "missing-imag", "short-coordinate",
             "missing-token", "bad-layout", "no-header"],
    )
    def test_malformed_files_are_rejected(self, tmp_path, text):
        path = tmp_path / "bad.mtx"
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError):
            read_matrix_market(path)


def _reference_write(a, fmt=None):
    """The per-entry writer that the whole-array one replaced; pins the file format.

    Returns the header and the full text of the file.
    """
    a = np.asarray(a, dtype=complex)
    rows, cols = a.shape
    real = bool(np.all(a.imag == 0.0))
    fmt = fmt or ("array" if real else "coordinate")
    f = "{:.17g}".format
    if fmt == "array":
        header = f"%%MatrixMarket matrix array {'real' if real else 'complex'} general"
        lines = [header, f"{rows} {cols}"]
        for j in range(cols):
            for i in range(rows):
                z = a[i, j]
                lines.append(f(z.real) if real else f"{f(z.real)} {f(z.imag)}")
    else:
        symmetric = rows == cols and bool(np.array_equal(a, a.T))
        header = f"%%MatrixMarket matrix coordinate complex {'symmetric' if symmetric else 'general'}"
        entries = [
            f"{i + 1} {j + 1} {f(a[i, j].real)} {f(a[i, j].imag)}"
            for i in range(rows)
            for j in range(cols)
            if not (symmetric and j > i) and a[i, j] != 0
        ]
        lines = [header, f"{rows} {cols} {len(entries)}", *entries]
    return header, "\n".join(lines) + "\n"


def _expected_readback(a, header):
    """What the format keeps of ``a``: the real field drops the imaginary parts,
    coordinate storage drops zeros (of either sign) and symmetric storage
    mirrors the lower triangle."""
    layout, field, shape_word = header.split()[2:5]
    expected = np.zeros(a.shape, dtype=complex)
    if layout == "array":
        expected.real = a.real
        if field == "complex":
            expected.imag = a.imag
        return expected
    stored = a != 0
    if shape_word == "symmetric":
        stored = np.tril(stored)
        expected.T[stored] = a[stored]
    expected[stored] = a[stored]
    return expected


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
            1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0]
_ENTRIES = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-300, 300)),
)


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["real", "complex", "real-symmetric", "complex-symmetric"]))
    if kind.endswith("symmetric"):
        cols = rows
    size = rows * cols
    parts = [draw(st.lists(_ENTRIES, min_size=size, max_size=size)) for _ in range(2)]
    a = np.array(parts[0], dtype=float).reshape(rows, cols).astype(complex)
    if kind.startswith("complex"):
        a.imag = np.array(parts[1], dtype=float).reshape(rows, cols)
    if kind.endswith("symmetric"):
        a = np.tril(a) + np.tril(a, -1).T
    return a


@pytest.fixture(scope="module")
def mm_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mm")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_matrices(), st.sampled_from([None, "array", "coordinate"]))
def test_roundtrip_property(mm_dir, a, fmt):
    path = mm_dir / "p.mtx"
    header = write_matrix_market(a, path, fmt)
    assert (header, path.read_text(encoding="ascii")) == _reference_write(a, fmt)
    back = read_matrix_market(path)
    expected = _expected_readback(a, header)
    assert back.shape == a.shape
    assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))  # bit for bit
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(back, part)), np.signbit(getattr(expected, part)))

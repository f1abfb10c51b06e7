"""Matrix Market round trips and exact header strings."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmat import (
    SymmetricBand,
    assemble_toeplitz_hankel,
    build_corner_block,
    build_fem_p2,
    corner_block_band,
    fem_p2_bands,
    read_matrix_market,
    toeplitz_hankel_band,
    write_matrix_market,
)


class TestWriteRead:
    def test_real_matrix_uses_array_format(self, tmp_path):
        k, _ = build_fem_p2(3)
        path = tmp_path / "k.mtx"
        header = write_matrix_market(k, path)
        assert header == "%%MatrixMarket matrix array real general"
        back = read_matrix_market(path)
        assert back.dtype == np.float64 and np.array_equal(back, k)  # 17 significant digits round-trip bitwise

    def test_complex_symmetric_header_and_roundtrip(self, tmp_path):
        a = assemble_toeplitz_hankel([8 + 2j, 5 - 1j, 2j], 5, 3)
        path = tmp_path / "a.mtx"
        header = write_matrix_market(a, path)
        assert header == "%%MatrixMarket matrix coordinate complex symmetric"
        back = read_matrix_market(path)
        assert back.dtype == np.complex128 and np.array_equal(back, a)

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
        write_matrix_market(a, path)
        lines = path.read_text().strip().splitlines()
        # header, size line, and two stored entries (symmetric lower triangle)
        assert lines[1].split()[2] == "2"
        assert np.array_equal(read_matrix_market(path), a)

    @pytest.mark.parametrize("dtype, header", [
        (np.float64, "%%MatrixMarket matrix array real general"),
        (np.complex128, "%%MatrixMarket matrix coordinate complex symmetric"),
    ])
    def test_layout_follows_the_dtype(self, tmp_path, dtype, header):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]], dtype=dtype)  # no imaginary part either way
        path = tmp_path / "d.mtx"
        assert write_matrix_market(a, path) == header
        back = read_matrix_market(path)
        assert back.dtype == dtype and np.array_equal(back, a)

    def test_array_complex_file_reads_column_major(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix array complex general\n2 2\n1 1\n0.5 0\n0 0\n2 -3\n",
                        encoding="ascii")
        back = read_matrix_market(path)
        assert back.dtype == np.complex128 and back.flags.c_contiguous
        assert np.array_equal(back, [[1 + 1j, 0.0], [0.5, 2 - 3j]])

    def test_rectangular_real(self, tmp_path):
        a = np.arange(6.0).reshape(2, 3) / 7.0
        path = tmp_path / "r.mtx"
        write_matrix_market(a, path)
        back = read_matrix_market(path)
        assert back.dtype == np.float64 and back.flags.c_contiguous and np.array_equal(back, a)

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix array integer general\n2 2\n2\n-1\n-1\n3\n",
        "%%MatrixMarket matrix coordinate integer symmetric\n2 2 3\n1 1 2\n2 1 -1\n2 2 3\n",
    ], ids=["array", "coordinate-symmetric"])
    def test_integer_files_read_as_real(self, tmp_path, text):
        path = tmp_path / "i.mtx"
        path.write_text(text, encoding="ascii")
        back = read_matrix_market(path)
        assert back.dtype == np.float64 and np.array_equal(back, [[2, -1], [-1, 3]])

    @pytest.mark.parametrize("text, want", [
        ("%%MatrixMarket matrix array real symmetric\n3 3\n4\n-1\n0.5\n5\n-2\n6\n",
         [[4, -1, 0.5], [-1, 5, -2], [0.5, -2, 6]]),
        ("%%MatrixMarket matrix array complex symmetric\n% lower triangle, column by column\n3 3\n"
         "1 2\n0 -1\n3 0\n4 0\n-5 0.5\n6 -6\n",
         [[1 + 2j, -1j, 3], [-1j, 4, -5 + 0.5j], [3, -5 + 0.5j, 6 - 6j]]),
    ], ids=["real", "complex"])
    def test_symmetric_array_holds_the_lower_triangle(self, tmp_path, text, want):
        path = tmp_path / "s.mtx"
        path.write_text(text, encoding="ascii")
        back = read_matrix_market(path)
        assert back.dtype == np.asarray(want).dtype and np.array_equal(back, want)

    @pytest.mark.parametrize(
        "text",
        [
            "%%MatrixMarket matrix coordinate complex general\n% a comment\n\n2 2 1\n"
            "  % an indented comment\n2 1 1.5 -0\n\n",
            "% a leading comment\n%%MatrixMarket matrix coordinate complex general\n2 2 1\n2 1 1.5 -0\n",
            "%%MatrixMarket matrix coordinate complex general\r\n% a comment\r\n\r\n2 2 1\r\n2 1 1.5 -0\r\n",
            "%%MatrixMarket matrix coordinate complex general\r% a comment\r\r2 2 1\r2 1 1.5 -0\r",
            "%%MatrixMarket matrix coordinate complex general\n\x0c\n2 2 1\x0b \t\n\x1f\n2 1 1.5 -0\x1c\x1d\x1e",
            "\x1f\t\n%%MatrixMarket matrix coordinate complex general\n \x1f \n2 2 1\n\t\t\n2 1\t1.5\x1f-0 \n \n",
        ],
        ids=["comments-after-header", "comment-before-header", "crlf", "lone-cr",
             "other-line-breaks", "whitespace-only-lines"],
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
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n0 1 5.0 0\n",
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 0 5.0 0\n",
            "%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n-1 1 5.0 0\n",
            "%%MatrixMarket matrix coordinate complex general\n2 3 1\n3 1 5.0 0\n",
            "%%MatrixMarket matrix coordinate complex general\n3 2 1\n1 3 5.0 0\n",
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1.5 1 5.0 0\n",
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 nan 5.0 0\n",
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 inf 5.0 0\n",
            "%%MatrixMarket matrix array real general\r\n2 1\r\n1.5 2\r\n",
            "%%MatrixMarket matrix array real general\r\n2 1\r\n1.5\r\n\r\n",
            "%%MatrixMarket matrix coordinate complex general\r\n2 2 1\r\n2 1 1.5 -0\r\n1 1 1 0\r\n",
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n2 1 1.5\x0c-0\n",
            "%%MatrixMarket matrix array real general\n2 1\n1.5\x1f2\n",
            "",
            " \n\t\n",
            "%%MatrixMarket matrix array real general\n% only a comment\n",
            "%%MatrixMarket matrix coordinate complex hermitian\n2 2 2\n1 1 2 0\n2 1 1 1\n",
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1\n",
            "%%MatrixMarket matrix coordinate bogus general\n2 2 1\n2 1 1\n",
            "%%MatrixMarket matrix coordinate real bogus\n2 2 1\n2 1 1\n",
            "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n2\n3\n",
            "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n",
            "%%MatrixMarket matrix array complex symmetric\n2 2\n1 0\n2 0\n3\n",
            "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n4\n5\n",
        ],
        ids=["short-array", "extra-token", "missing-imag", "short-coordinate",
             "missing-token", "bad-layout", "no-header", "row-index-zero", "col-index-zero",
             "negative-index", "row-index-above-size", "col-index-above-size",
             "non-integral-index", "nan-index", "infinite-index", "crlf-two-entries-on-a-line",
             "crlf-short-array", "crlf-extra-line", "form-feed-splits-an-entry",
             "unit-separator-joins-entries", "empty", "blank", "no-size-line",
             "hermitian", "skew-symmetric", "unknown-field", "unknown-symmetry",
             "symmetric-array-of-full-size", "short-symmetric-array", "symmetric-array-missing-imag",
             "non-square-symmetric-array"],
    )
    def test_malformed_files_are_rejected(self, tmp_path, text):
        path = tmp_path / "bad.mtx"
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError):
            read_matrix_market(path)


def _reference_write(a, fmt=None):
    """The per-entry writer that the whole-array one replaced; pins the file format.

    By default the layout follows the dtype, as the writer's does; ``fmt``
    may ask for the other one, which makes files of the layouts the writer
    leaves to other programs (an ``array complex`` file, a ``coordinate``
    file with no imaginary part) for the reader tests.  Returns the header
    and the full text of the file.
    """
    fmt = fmt or ("coordinate" if np.iscomplexobj(a) else "array")
    a = np.asarray(a, dtype=complex)
    rows, cols = a.shape
    real = bool(np.all(a.imag == 0.0))
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
    """What the format keeps of ``a``: the real field keeps the real parts in float64,
    coordinate storage drops zeros (of either sign) and symmetric storage
    mirrors the lower triangle."""
    layout, _, shape_word = header.split()[2:5]
    if layout == "array":  # the writer's arrays are real
        return np.ascontiguousarray(a.real)
    expected = np.zeros(a.shape, dtype=complex)
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


# sparse entries: -0.0 and NaN are written out, not as the literal 0 of +0.0
_NONZERO = st.one_of(st.sampled_from([-0.0, math.nan]), _ENTRIES)


@st.composite
def _matrices(draw):
    """Dense small matrices of special values, or up to 12 x 12 ones that are
    mostly +0.0, so that the writer's zero runs hold -0.0 and NaN entries.

    Dense symmetric matrices mirror their lower triangle by a sum, as
    ``np.tril(a) + np.tril(a, -1).T``, which makes every zero +0.0.  Sparse
    ones copy it bit for bit and then turn some +0.0 parts into -0.0, so they
    equal their transpose by value but not always bit for bit.  The real
    kinds are float64 arrays.
    """
    dense = draw(st.booleans())
    limit = 5 if dense else 12
    rows, cols = draw(st.integers(0, limit)), draw(st.integers(0, limit))
    kind = draw(st.sampled_from(["real", "complex", "real-symmetric", "complex-symmetric"]))
    if kind.endswith("symmetric"):
        cols = rows
    a = np.zeros((rows, cols), dtype=complex)
    parts = ("real", "imag") if kind.startswith("complex") else ("real",)
    for part in parts:
        plane = getattr(a, part)
        if dense:
            plane[...] = np.reshape(draw(st.lists(_ENTRIES, min_size=a.size, max_size=a.size)), a.shape)
        elif a.size:
            for _ in range(draw(st.integers(0, 6))):
                plane[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = draw(_NONZERO)
    if kind.endswith("symmetric") and dense:
        a = np.tril(a) + np.tril(a, -1).T
    elif kind.endswith("symmetric") and a.size:
        a = np.where(np.tri(rows, dtype=bool), a, a.T)
        for _ in range(draw(st.integers(0, 4))):
            plane = getattr(a, draw(st.sampled_from(parts)))
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            if plane[i, j] == 0:
                plane[i, j] = -0.0
    return a if kind.startswith("complex") else a.real.copy()


@pytest.fixture(scope="module")
def mm_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mm")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_matrices())
def test_roundtrip_property(mm_dir, a):
    path = mm_dir / "p.mtx"
    header = write_matrix_market(a, path)
    assert (header, path.read_text(encoding="ascii")) == _reference_write(a)
    back = read_matrix_market(path)
    expected = _expected_readback(a, header)
    assert back.shape == a.shape and back.dtype == expected.dtype
    assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))  # bit for bit
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(back, part)), np.signbit(getattr(expected, part)))


# ------------------------------------------------------------ band writer

@st.composite
def _bands(draw):
    """Upper band storage of symmetric matrices up to 12 x 12 with bandwidth 1-3.

    The slots hold zeros of both signs, NaN and the special values above, so
    that files hold runs of the literal 0 around -0.0 and NaN entries, and a
    NaN makes the matrix unequal to its transpose.
    """
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    slots = st.one_of(st.sampled_from([0.0, 0.0, 0.0, -0.0, math.nan]), _ENTRIES)
    ab = np.zeros((m + 1, n), dtype=complex if draw(st.booleans()) else float)
    ab.real = np.reshape(draw(st.lists(slots, min_size=ab.size, max_size=ab.size)), ab.shape)
    if np.iscomplexobj(ab):
        ab.imag = np.reshape(draw(st.lists(slots, min_size=ab.size, max_size=ab.size)), ab.shape)
    for k in range(1, m + 1):
        ab[m - k, :k] = 0  # the unused slots
    return SymmetricBand(ab)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_bands())
@example(SymmetricBand(np.array([[0, 0, 2, -0.0], [1, complex(0, -0.0), 0, 3]])))
@example(SymmetricBand(np.array([[0, 0, 2, -0.0], [1, 0, 0, 3]])))
def test_band_writes_the_bytes_of_its_dense_matrix(mm_dir, band):
    band_path, dense_path = mm_dir / "band.mtx", mm_dir / "dense.mtx"
    dense = band.dense()
    assert write_matrix_market(band, band_path) == write_matrix_market(dense, dense_path)
    text = band_path.read_text(encoding="ascii")
    assert text == dense_path.read_text(encoding="ascii")
    assert text == _reference_write(dense)[1]


_SIGNED_ZEROS = [np.array([2.0, -0.0, 0.5]), np.array([complex(2, -0.0), -1.0, complex(-0.0, 0.25)]),
                 np.array([complex(-0.0, 1.0), 0.0, -0.0])]


def _other_bytes(form, dense, written, path):
    """The bytes of ``dense`` as the writer writes it (``"dense"``) or as the per-entry reference
    writes it (``"reference"``), or of the file ``written`` read back and written again
    (``"reread"``: the dtype read back picks the same layout)."""
    if form == "reference":
        return _reference_write(dense)[1].encode("ascii")
    write_matrix_market(read_matrix_market(written) if form == "reread" else dense, path)
    return path.read_bytes()


_OTHER_FORMS = ["dense", "reread", "reference"]


@pytest.mark.parametrize("form", _OTHER_FORMS)
@pytest.mark.parametrize("n", [3, 7], ids=["overlap", "apart"])  # corners meet at n = 2m - 1
@pytest.mark.parametrize("variant", [1, 2, 3, 4])
@pytest.mark.parametrize("band", _SIGNED_ZEROS, ids=["real", "complex", "zero-diagonals"])
def test_family_bands_with_signed_zeros_write_the_dense_bytes(mm_dir, band, variant, n, form):
    pairs = [(toeplitz_hankel_band(band, n, variant), assemble_toeplitz_hankel(band, n, variant)),
             (corner_block_band([*band, -0.0], n // 2), build_corner_block([*band, -0.0], n // 2))]
    for band_form, dense in pairs:
        write_matrix_market(band_form, mm_dir / "band.mtx")
        assert (mm_dir / "band.mtx").read_bytes() == _other_bytes(form, dense, mm_dir / "band.mtx",
                                                                  mm_dir / "dense.mtx")


@pytest.mark.parametrize("form", _OTHER_FORMS)
@pytest.mark.parametrize("band", [
    toeplitz_hankel_band([2.5, -0.75, 0.125], 300, 2),
    toeplitz_hankel_band([3 + 1j, -0.5 + 0.25j, 0.125j], 950, 3),
    *fem_p2_bands(105),
], ids=["real-toeplitz-hankel-300", "complex-toeplitz-hankel-950", "fem-p2-K-105", "fem-p2-M-105"])
def test_benchmark_sized_bands_write_the_dense_bytes(mm_dir, band, form):
    """The sizes that ``build`` writes in the benchmark, far past the property tests' 12 x 12."""
    write_matrix_market(band, mm_dir / "band.mtx")
    assert (mm_dir / "band.mtx").read_bytes() == _other_bytes(form, band.dense(), mm_dir / "band.mtx",
                                                              mm_dir / "dense.mtx")


# ------------------------------------------------------------ reader layouts

def _reference_read(path):
    """The reader that the numpy tokenizer replaced: ``str.split`` and an
    object-array mask; pins which files are accepted and what they hold,
    float64 for a real or integer field and complex128 for a complex one."""
    with open(path, encoding="ascii") as handle:
        text = handle.read()
    rest = text.translate(str.maketrans("\x0b\x0c\x1c\x1d\x1e", "\n" * 5))
    if re.search("[\n\x0b\x0c\r\x1c\x1d\x1e].*%", text, re.DOTALL):  # after any line break
        rest = "\n".join(
            line for line in rest.split("\n")
            if not (line.strip().startswith("%") and not line.strip().startswith("%%"))
        )
    lines = []
    while len(lines) < 2 and rest:
        line, _, rest = rest.partition("\n")
        if line.strip():
            lines.append(line.strip())
    if len(lines) < 2:
        raise ValueError("a Matrix Market file needs a header line and a size line")
    header = lines[0]
    if not header.startswith("%%MatrixMarket matrix"):
        raise ValueError(f"not a Matrix Market file: {header!r}")
    _, _, layout, field, shape_word = header.split()[:5]
    if field not in ("real", "integer", "complex") or shape_word not in ("general", "symmetric"):
        raise ValueError(f"unsupported Matrix Market header {header!r}")
    size = [int(t) for t in lines[1].split()]
    body_lines = [line for line in rest.translate(str.maketrans("", "", " \t\x1f")).split("\n") if line]
    tokens = rest.split()

    def parse(count):
        if len(tokens) != count:
            raise ValueError(f"expected {count} numbers in the body, found {len(tokens)}")
        if 2 * tokens.count("0") <= count:
            return np.array(tokens, dtype=float)
        masked = np.array(tokens, dtype=object)
        values = np.zeros(count)
        parsed = masked != "0"
        values[parsed] = masked[parsed].astype(float)
        return values

    if layout == "array":
        rows, cols = size
        if len(body_lines) != rows * cols:
            raise ValueError("array body length does not match the size line")
        width = 2 if field == "complex" else 1
        values = parse(rows * cols * width).reshape(cols, rows, width)
        out = np.zeros((rows, cols), dtype=complex if width == 2 else float)
        out.real = values[:, :, 0].T
        if width == 2:
            out.imag = values[:, :, 1].T
        return out
    if layout == "coordinate":
        rows, cols, nnz = size
        if len(body_lines) != nnz:
            raise ValueError("coordinate body length does not match the size line")
        width = 4 if field == "complex" else 3
        entries = parse(nnz * width).reshape(nnz, width)
        i, j = entries[:, 0], entries[:, 1]
        if not (np.all((i >= 1) & (i <= rows) & (i == np.floor(i)))
                and np.all((j >= 1) & (j <= cols) & (j == np.floor(j)))):
            raise ValueError("coordinate index out of range")
        i, j = i.astype(int) - 1, j.astype(int) - 1
        if shape_word == "symmetric":
            i, j = np.concatenate((i, j)), np.concatenate((j, i))
            entries = np.concatenate((entries, entries))
        out = np.zeros((rows, cols), dtype=complex if width == 4 else float)
        out.real[i, j] = entries[:, 2]
        if width == 4:
            out.imag[i, j] = entries[:, 3]
        return out
    raise ValueError(f"unsupported layout {layout!r}")


# the ten ASCII characters str.split splits on: the line breaks of
# str.splitlines (with "\r\n" as one) and the blanks within a line
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
_BLANKS = [" ", "\t", "\x1f"]


@st.composite
def _laid_out(draw):
    """A written file, its lines joined again by drawn separators.

    Tokens within a line after the header are joined by runs of blanks,
    lines by any line break; blank, whitespace-only and comment lines go in between, and lines
    may start or end with blanks.  In about one file in four, a body line is
    merged with the next or split in two, which the size line no longer
    matches, or a body line starts with ``%%``, which is no comment.
    """
    a = draw(_matrices())
    _, text = _reference_write(a, draw(st.sampled_from([None, "array", "coordinate"])))
    lines = [line.split(" ") for line in text.split("\n")[:-1]]
    rnd = random.Random(draw(st.integers(0, 2**32)))  # a seed: drawing each choice costs more
    blanks = lambda low: "".join(rnd.choices(_BLANKS, k=rnd.randint(low, 2)))  # noqa: E731
    if len(lines) > 2 and rnd.random() < 0.25:
        i = rnd.randrange(2, len(lines))
        fault = rnd.choice(["merge", "split", "%%"])
        if fault == "merge" and i + 1 < len(lines):
            lines[i:i + 2] = [lines[i] + lines[i + 1]]
        elif fault == "split" and len(lines[i]) > 1:
            lines[i:i + 1] = [lines[i][:1], lines[i][1:]]
        else:
            lines.insert(i, ["%%", "not", "a", "comment"])
    out = []
    for i, tokens in enumerate(lines):
        if rnd.random() < 0.3:
            extra = rnd.choice(["", blanks(1), "% a comment", blanks(1) + "% an indented one"])
            out += [extra if i else blanks(0), rnd.choice(_BREAKS)]  # no comment before the header
        joined = [t + blanks(1) for t in tokens[:-1]] if i else [t + " " for t in tokens[:-1]]
        out += [blanks(0), *joined, tokens[-1], blanks(0), rnd.choice(_BREAKS)]  # the header as it was
    return "".join(out)


def _read_or_error(reader, path):
    try:
        return reader(path)
    except ValueError:
        return ValueError


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_laid_out())
@example("%%MatrixMarket matrix array real general\n0 0\n   ")  # a body of blanks only
@example("%%MatrixMarket matrix array complex general\n1 2\n 0 0\n 1 -0")  # indented lines
@example("%%MatrixMarket matrix array real general\n1 1\n\x0c0\x1f")  # the rare separators
@example("%%MatrixMarket matrix coordinate complex general\x0c% a comment\x0c2 2 1\x0c2 1 1.5 0\n")
def test_reader_matches_the_split_reference_on_any_layout(mm_dir, text):
    path = mm_dir / "layout.mtx"
    path.write_bytes(text.encode("ascii"))
    got, want = _read_or_error(read_matrix_market, path), _read_or_error(_reference_read, path)
    if want is ValueError:
        assert got is ValueError
    else:
        assert got is not ValueError and got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("first_break", ["\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e"])
def test_comment_line_after_any_first_line_break(mm_dir, first_break):
    path = mm_dir / "comment.mtx"
    text = f"%%MatrixMarket matrix coordinate complex general{first_break}% a comment\x0c2 2 1\x0c2 1 1.5 0\n"
    path.write_bytes(text.encode("ascii"))
    assert np.array_equal(read_matrix_market(path), [[0, 0], [1.5, 0]])

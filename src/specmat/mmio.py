"""Matrix Market writer/reader for the built matrices.

Real matrices are written in the dense ``array real general`` format;
complex matrices use ``coordinate complex`` with symmetric storage whenever
the matrix equals its transpose.  Entries are rendered with 17 significant
digits so a read-back reproduces the floats bit for bit.
"""

from __future__ import annotations

import numpy as np

HEADER_PREFIX = "%%MatrixMarket matrix"
_FLOAT = "%.17g"


def _is_real(a) -> bool:
    return bool(np.all(a.imag == 0.0))


def _parse_floats(lines, count) -> np.ndarray:
    values = np.array(" ".join(lines).split(), dtype=float)
    if values.size != count:
        raise ValueError(f"expected {count} numbers in the body, found {values.size}")
    return values


def write_matrix_market(a, path, fmt: str | None = None) -> str:
    """Write a dense matrix to ``path`` in Matrix Market form.

    ``fmt`` may force ``"array"`` or ``"coordinate"``; by default real
    matrices go to the array format and complex ones to coordinate.
    Returns the header line that was written.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("only 2-D matrices can be written")
    rows, cols = a.shape
    if fmt is None:
        fmt = "array" if _is_real(a) else "coordinate"
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"unknown format {fmt!r}")

    if fmt == "array":
        field = "real" if _is_real(a) else "complex"
        header = f"{HEADER_PREFIX} array {field} general"
        size_line = f"{rows} {cols}"
        flat = a.T.ravel()  # array format is column-major
        if field == "real":
            body = f"{_FLOAT}\n" * flat.size % tuple(flat.real.tolist())
        else:  # the float view interleaves real and imaginary parts
            body = f"{_FLOAT} {_FLOAT}\n" * flat.size % tuple(flat.view(float).tolist())
    else:
        symmetric = rows == cols and bool(np.array_equal(a, a.T))
        shape_word = "symmetric" if symmetric else "general"
        header = f"{HEADER_PREFIX} coordinate complex {shape_word}"
        stored = a != 0
        i, j = np.nonzero(np.tril(stored) if symmetric else stored)  # the lower triangle only
        parts = np.stack((i + 1, j + 1, a.real[i, j], a.imag[i, j]), axis=1)
        size_line = f"{rows} {cols} {i.size}"
        body = f"%d %d {_FLOAT} {_FLOAT}\n" * i.size % tuple(parts.ravel().tolist())

    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{header}\n{size_line}\n{body}")
    return header


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file written by :func:`write_matrix_market`.

    Handles array real/complex and coordinate complex (general or
    symmetric).  Always returns a complex array.
    """
    with open(path, encoding="ascii") as handle:
        text = handle.read()
    lines = list(filter(None, map(str.strip, text.splitlines())))  # no blank lines
    if "%" in text.partition("\n")[2]:  # comment lines besides the header
        lines = [line for line in lines if not (line.startswith("%") and not line.startswith("%%"))]
    header = lines[0]
    if not header.startswith(HEADER_PREFIX):
        raise ValueError(f"not a Matrix Market file: {header!r}")
    tokens = header.split()
    _, _, layout, field, shape_word = tokens[:5]
    size = [int(t) for t in lines[1].split()]
    body = lines[2:]

    if layout == "array":
        rows, cols = size
        if len(body) != rows * cols:
            raise ValueError("array body length does not match the size line")
        width = 1 if field == "real" else 2
        values = _parse_floats(body, rows * cols * width).reshape(cols, rows, width)
        out = np.zeros((rows, cols), dtype=complex)
        out.real = values[:, :, 0].T  # column-major
        if width == 2:
            out.imag = values[:, :, 1].T
        return out

    if layout == "coordinate":
        rows, cols, nnz = size
        if len(body) != nnz:
            raise ValueError("coordinate body length does not match the size line")
        width = 4 if field == "complex" else 3
        entries = _parse_floats(body, nnz * width).reshape(nnz, width)
        i, j = entries[:, 0], entries[:, 1]
        if not (np.all((i >= 1) & (i <= rows) & (i == np.floor(i)))
                and np.all((j >= 1) & (j <= cols) & (j == np.floor(j)))):
            raise ValueError(f"coordinate indices must be integers in 1..{rows} and 1..{cols}")
        i, j = i.astype(int) - 1, j.astype(int) - 1
        if shape_word == "symmetric":
            i, j = np.concatenate((i, j)), np.concatenate((j, i))
            entries = np.concatenate((entries, entries))
        out = np.zeros((rows, cols), dtype=complex)
        # the parts are set apart: re + 1j * im would turn an imaginary -0.0 into +0.0
        out.real[i, j] = entries[:, 2]
        if width == 4:
            out.imag[i, j] = entries[:, 3]
        return out

    raise ValueError(f"unsupported layout {layout!r}")

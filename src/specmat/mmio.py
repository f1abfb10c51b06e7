"""Matrix Market writer/reader for the built matrices.

Real matrices are written in the dense ``array real general`` format;
complex matrices use ``coordinate complex`` with symmetric storage whenever
the matrix equals its transpose.  Entries are rendered with 17 significant
digits so a read-back reproduces the floats bit for bit.

The built matrices are banded, so most entries are zero, and both
directions pay per nonzero rather than per entry: the writer formats only
the entries that are not +0.0 (the rest are the literal line ``0``, or
``0 0`` for a complex array) and the reader converts only the tokens that
are not the literal ``0``.  When at most half the tokens are ``0``, picking
them out costs more than it saves, and the reader converts every token.
The bytes written and the floats read back are those of formatting and
parsing every entry.
"""

from __future__ import annotations

import numpy as np

HEADER_PREFIX = "%%MatrixMarket matrix"
_FLOAT = "%.17g"

# str.splitlines' line breaks in ASCII text become "\n" (reading in text mode
# has already turned "\r" and "\r\n" into "\n"); the other whitespace
# characters, which str.split also splits on, are deleted by _INLINE_SPACE
_NEWLINES = str.maketrans("\x0b\x0c\x1c\x1d\x1e", "\n" * 5)
_INLINE_SPACE = str.maketrans("", "", " \t\x1f")


def _array_body(parts: np.ndarray) -> str:
    """Array-layout lines, one row of ``parts`` (one entry) per line.

    An entry whose parts are all +0.0 is the literal ``0`` per part, which is
    what ``%.17g`` makes of it; -0.0 and NaN parts have other bits and are
    formatted.
    """
    width = parts.shape[1]
    lines = (" ".join(["0"] * width) + "\n", " ".join([_FLOAT] * width) + "\n")
    formatted = parts.view(np.uint64).any(axis=1)  # +0.0 alone has no bit set
    # the entries come in runs of formatted ones and of zeros: one string product per run
    starts = np.flatnonzero(np.concatenate(([True], formatted[1:] != formatted[:-1]))[:formatted.size])
    counts = np.diff(starts, append=formatted.size)
    template = "".join(lines[kind] * count
                       for kind, count in zip(formatted[starts].tolist(), counts.tolist()))
    return template % tuple(parts[formatted].ravel().tolist())


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
    # which parts are nonzero, real and imaginary side by side: one vectorized
    # comparison, several times faster than comparing the complex entries
    nonzero = np.ascontiguousarray(a).view(float) != 0
    real = not nonzero[:, 1::2].any()
    if fmt is None:
        fmt = "array" if real else "coordinate"
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"unknown format {fmt!r}")

    if fmt == "array":
        field = "real" if real else "complex"
        header = f"{HEADER_PREFIX} array {field} general"
        size_line = f"{rows} {cols}"
        flat = a.T.ravel()  # array format is column-major
        # the float view interleaves real and imaginary parts
        body = _array_body(flat.real[:, None] if real else flat.view(float).reshape(-1, 2))
    else:
        i, j = np.divmod(np.flatnonzero(nonzero[:, 0::2] | nonzero[:, 1::2]), cols)  # row-major
        # equal to its transpose when every nonzero entry equals its mirror
        symmetric = rows == cols and bool(np.all(a[j, i] == a[i, j]))
        shape_word = "symmetric" if symmetric else "general"
        header = f"{HEADER_PREFIX} coordinate complex {shape_word}"
        if symmetric:  # the lower triangle only
            lower = i >= j
            i, j = i[lower], j[lower]
        parts = np.stack((i + 1, j + 1, a.real[i, j], a.imag[i, j]), axis=1)
        size_line = f"{rows} {cols} {i.size}"
        body = f"%d %d {_FLOAT} {_FLOAT}\n" * i.size % tuple(parts.ravel().tolist())

    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{header}\n{size_line}\n{body}")
    return header


def _count_lines(text: str) -> int:
    """How many lines of ``text``, whose line breaks are all ``\\n``, are not blank."""
    text = text.translate(_INLINE_SPACE)
    while "\n\n" in text:
        text = text.replace("\n\n", "\n")
    text = text.strip("\n")
    return text.count("\n") + 1 if text else 0


def _parse_floats(tokens, count) -> np.ndarray:
    if len(tokens) != count:
        raise ValueError(f"expected {count} numbers in the body, found {len(tokens)}")
    if 2 * tokens.count("0") <= count:  # mostly nonzero: masking would cost more than it saves
        return np.array(tokens, dtype=float)
    tokens = np.array(tokens, dtype=object)
    values = np.zeros(count)
    parsed = tokens != "0"  # the literal 0 is +0.0 and needs no parsing
    values[parsed] = tokens[parsed].astype(float)
    return values


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file written by :func:`write_matrix_market`.

    Handles array real/complex and coordinate complex (general or
    symmetric).  Always returns a complex array.  Blank lines and comment
    lines are skipped; the body must hold exactly the lines and numbers the
    size line announces.
    """
    with open(path, encoding="ascii") as handle:
        text = handle.read()
    rest = text.translate(_NEWLINES)
    if "%" in text.partition("\n")[2]:  # comment lines besides the header
        rest = "\n".join(
            line for line in rest.split("\n")
            if not (line.strip().startswith("%") and not line.strip().startswith("%%"))
        )
    lines = []
    while len(lines) < 2 and rest:  # the header and size lines
        line, _, rest = rest.partition("\n")
        if line.strip():
            lines.append(line.strip())
    if len(lines) < 2:
        raise ValueError("a Matrix Market file needs a header line and a size line")
    header = lines[0]
    if not header.startswith(HEADER_PREFIX):
        raise ValueError(f"not a Matrix Market file: {header!r}")
    tokens = header.split()
    _, _, layout, field, shape_word = tokens[:5]
    size = [int(t) for t in lines[1].split()]
    body_lines = _count_lines(rest)
    body = rest.split()

    if layout == "array":
        rows, cols = size
        if body_lines != rows * cols:
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
        if body_lines != nnz:
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

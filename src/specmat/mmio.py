"""Matrix Market writer/reader for the built matrices.

Float64 matrices are written in the dense ``array real general`` format;
complex128 ones use ``coordinate complex`` with symmetric storage whenever
the matrix equals its transpose.  The reader returns float64 for a ``real``
or ``integer`` field and complex128 for ``complex``.  Entries are rendered
with 17 significant digits so a read-back reproduces the floats bit for bit
(Boisvert, Pozo & Remington, "The Matrix Market exchange formats", NIST,
1996).

The built matrices are banded, so most entries are zero.  What follows the
nonzeros and what follows the bytes:

- The writer takes a dense matrix or a :class:`~specmat.families.SymmetricBand`
  and works on one list of its entries, those that are not +0.0: a band
  lists its O(n m) entries itself, without forming the n x n matrix, and a
  dense matrix finds its own in one vectorized pass over the n^2 entries.
  The list is column-major, and each layout has one body builder.  The
  array layout writes the entries in that order, and between them the
  literal ``0``, one string product per run of zeros; the coordinate
  layout drops the entries equal to zero, sorts the rest row-major and
  keeps the lower triangle when every entry equals its mirror.  A band's
  values are formatted once per distinct value.  The bytes are those of
  formatting every entry.
- The reader makes one numpy pass over the body's bytes, which finds the
  token boundaries, the non-blank lines and the literal ``0`` tokens; its
  cost follows the bytes, at a few numpy operations per byte.  ``float``
  then runs only on the other tokens.  A body in which at most half the
  tokens are ``0`` (a coordinate file, a dense array) is split and
  converted whole, which costs less than picking the zeros out.  The floats
  read back are those of parsing every token.
"""

from __future__ import annotations

import re

import numpy as np

from .families import SymmetricBand, not_plus_zero

HEADER_PREFIX = "%%MatrixMarket matrix"
_FLOAT = "%.17g"

# the characters str.split splits on besides "\n" and " ": the other line breaks
# of str.splitlines (reading in text mode has already turned "\r\n" and "\r" into
# "\n") become "\n", the other blanks " "
_LINE_BREAKS = "\x0b\x0c\r\x1c\x1d\x1e"
_BLANKS = "\t\x1f"
_PLAIN = str.maketrans(_LINE_BREAKS + _BLANKS, "\n" * len(_LINE_BREAKS) + " " * len(_BLANKS))
_LINE_BREAK = re.compile(f"[\n{_LINE_BREAKS}]")


def _array_body(at: np.ndarray, fields: list, size: int, spec: str) -> str:
    """Array-layout lines for ``size`` real entries.

    The entries at the sorted positions ``at`` take their values from
    ``fields``, in order, by the format ``spec`` each; every other entry is
    the literal ``0``, which is what ``%.17g`` makes of +0.0.
    """
    zero, line = "0\n", spec + "\n"
    if not at.size:
        return zero * size
    # the entries come in runs of formatted ones and of zeros: one string product per run
    first = np.flatnonzero(np.diff(at, prepend=-2) != 1)  # where each formatted run starts
    last = np.append(first[1:], at.size) - 1
    gaps = at[first] - np.append(0, at[last[:-1]] + 1)
    template = "".join(zero * gap + line * count
                       for gap, count in zip(gaps.tolist(), (last - first + 1).tolist()))
    template += zero * (size - 1 - int(at[-1]))
    return template % tuple(fields)


def _texts(values: np.ndarray) -> np.ndarray:
    """``%.17g`` of every float of ``values``, as an object array of the same shape.

    Each distinct bit pattern is formatted once.  A band holds few distinct
    values, since each Toeplitz diagonal repeats one, and placing a string
    costs a tenth of formatting a float to 17 digits.
    """
    distinct, index = np.unique(np.ascontiguousarray(values).view(np.uint64), return_inverse=True)
    texts = f"{_FLOAT}\n" * distinct.size % tuple(distinct.view(float).tolist())
    return np.array(texts.split("\n")[:-1], dtype=object)[index.reshape(values.shape)]


def _entries(a):
    """Shape, column-major positions ``j * rows + i`` and values of the entries not +0.0 in ``a``.

    An entry is listed when some part of it is not +0.0.  A band lists its
    own row-major, which is column-major: its entries mirror bit for bit.
    A dense matrix takes one vectorized pass over the n^2 entries of its
    transpose.
    """
    if isinstance(a, SymmetricBand):
        n, i, j, values = a.entries()
        return (n, n), i * n + j, values
    a = np.asarray(a)
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2:
        raise ValueError("only 2-D matrices can be written")
    at = np.ascontiguousarray(a.T)
    flat = np.flatnonzero(not_plus_zero(at))
    return a.shape, flat, at.reshape(-1)[flat]


def write_matrix_market(a, path) -> str:
    """Write a matrix to ``path`` in Matrix Market form.

    ``a`` is a dense matrix or a :class:`~specmat.families.SymmetricBand`;
    both write the same bytes for the same matrix.  The layout follows the
    dtype: a real matrix goes to ``array real``, a complex one to
    ``coordinate complex``, also when no entry has an imaginary part.
    Returns the header line that was written.
    """
    (rows, cols), at, values = _entries(a)
    # a band's few distinct values are formatted once each, a dense matrix's by the final %
    spec, texts = ("%s", _texts) if isinstance(a, SymmetricBand) else (_FLOAT, np.asarray)
    if not np.iscomplexobj(values):
        body = _array_body(at, texts(values).tolist(), rows * cols, spec)
        header = f"{HEADER_PREFIX} array real general"
        size_line = f"{rows} {cols}"
    else:
        nonzero = values != 0
        at, values = at[nonzero], values[nonzero]
        j, i = np.divmod(at, rows)
        flat = i * cols + j
        order = np.argsort(flat, kind="stable")  # row-major
        i, j, flat, by_rows = i[order], j[order], flat[order], values[order]
        # equal to its transpose when the k-th entry by rows sits where the k-th by
        # columns does, and so is its mirror, and equals it; a NaN equals none
        symmetric = rows == cols and np.array_equal(flat, at) and bool(np.all(by_rows == values))
        if symmetric:  # the lower triangle only
            lower = i >= j
            i, j, by_rows = i[lower], j[lower], by_rows[lower]
        fields = np.empty((i.size, 4), dtype=object)
        fields[:, 0], fields[:, 1] = (i + 1).tolist(), (j + 1).tolist()
        fields[:, 2:] = texts(by_rows.view(float).reshape(-1, 2))
        body = f"%d %d {spec} {spec}\n" * i.size % tuple(fields.ravel().tolist())
        header = f"{HEADER_PREFIX} coordinate complex {'symmetric' if symmetric else 'general'}"
        size_line = f"{rows} {cols} {i.size}"
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{header}\n{size_line}\n{body}")
    return header


def _body_values(body: str, layout: str, lines: int, count: int) -> np.ndarray:
    """The ``count`` numbers of ``body``, which must hold ``lines`` non-blank lines.

    One numpy pass over the bytes finds what ``body.split()`` and
    ``str.splitlines`` would: the tokens, the non-blank lines and the
    tokens that are the literal ``0``.
    """
    if any(c in body for c in _LINE_BREAKS + _BLANKS):
        body = body.translate(_PLAIN)  # now "\n" and " " are the only separators
    # few fresh arrays of the body's size: filling new memory costs more than the comparisons
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    breaks = raw == ord("\n")
    separator = np.ones(raw.size + 2, dtype=bool)  # padded: both ends act as separators
    inner = separator[1:-1]
    np.equal(raw, ord(" "), out=inner)
    work = np.empty(raw.size, dtype=bool)
    indented = body.startswith(" ") or np.logical_and(breaks[:-1], inner[1:], out=work[:-1]).any()
    if indented:
        # some line starts with blanks: leave them out, so that each non-blank
        # line starts with a token byte right after a break
        breaks_and_tokens = breaks.compress(~inner)
    inner |= breaks
    line_breaks, line_separators = (breaks_and_tokens,) * 2 if indented else (breaks, inner)
    # a non-blank line starts at the first byte, and after each break, where a token byte follows
    before, after = line_breaks[:-1], line_separators[1:]
    found = (np.count_nonzero(np.greater(before, after, out=work[:before.size]))
             + bool(line_separators.size and not line_separators[0]))
    if found != lines:
        raise ValueError(f"{layout} body length does not match the size line")
    starts = separator[:-2] > inner  # a separator, then a token byte
    tokens = np.count_nonzero(starts)
    if tokens != count:
        raise ValueError(f"expected {count} numbers in the body, found {tokens}")
    zeros = np.equal(raw, ord("0"), out=work)
    zeros &= separator[:-2]
    zeros &= separator[2:]  # the one-byte tokens "0"
    if 2 * np.count_nonzero(zeros) <= count:  # mostly nonzero: masking would cost more than it saves
        return np.array(body.split(), dtype=float)
    # the literal 0 is +0.0 and needs no parsing: blank it out, then parse the rest
    others = raw - (ord("0") - ord(" ")) * zeros.view(np.uint8)
    values = np.zeros(count)
    values[~zeros.take(np.flatnonzero(starts))] = np.array(
        others.tobytes().decode("ascii").split(), dtype=float)
    return values


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file written by :func:`write_matrix_market`.

    Handles the array and coordinate layouts with a ``real``, ``integer``
    or ``complex`` field and ``general`` or ``symmetric`` storage; any other
    header raises ``ValueError`` rather than being read as ``general``.  A
    symmetric array holds the lower triangle column by column, n(n+1)/2
    entries, and is mirrored.  Returns float64 for a ``real`` or ``integer``
    field and complex128 for ``complex``.  Blank lines and comment lines are
    skipped; the body must hold exactly the lines and numbers the size line
    announces.
    """
    with open(path, encoding="ascii") as handle:
        text = handle.read()
    first_break = _LINE_BREAK.search(text)
    if first_break and text.find("%", first_break.end()) >= 0:  # comment lines besides the header
        text = "\n".join(
            line for line in _LINE_BREAK.split(text)
            if not (line.strip().startswith("%") and not line.strip().startswith("%%"))
        )
    lines, end = [], -1
    while len(lines) < 2 and end < len(text):  # the header and size lines
        start = end + 1
        found = _LINE_BREAK.search(text, start)
        end = found.start() if found else len(text)
        if text[start:end].strip():
            lines.append(text[start:end].strip())
    if len(lines) < 2:
        raise ValueError("a Matrix Market file needs a header line and a size line")
    header = lines[0]
    if not header.startswith(HEADER_PREFIX):
        raise ValueError(f"not a Matrix Market file: {header!r}")
    tokens = header.split()
    _, _, layout, field, shape_word = tokens[:5]
    if (layout not in ("array", "coordinate") or field not in ("real", "integer", "complex")
            or shape_word not in ("general", "symmetric")):
        raise ValueError(f"unsupported Matrix Market header {header!r}")
    size = [int(t) for t in lines[1].split()]
    body = text[end + 1:]

    # complex entries view their two parts as one: re + 1j * im would make an imaginary -0.0 +0.0
    dtype, width = (complex, 2) if field == "complex" else (float, 1)
    if layout == "array":
        rows, cols = size
        if shape_word == "general":
            values = _body_values(body, layout, rows * cols, rows * cols * width).view(dtype)
            return values.reshape(cols, rows).T.copy()  # column-major
        if rows != cols:
            raise ValueError(f"a symmetric array must be square, got {rows} x {cols}")
        j, i = np.triu_indices(rows)  # the lower triangle, column by column
        values = _body_values(body, layout, i.size, i.size * width).view(dtype)
    else:
        rows, cols, nnz = size
        entries = _body_values(body, layout, nnz, nnz * (width + 2)).reshape(nnz, width + 2)
        i, j, values = entries[:, 0], entries[:, 1], entries[:, 2:].view(dtype)[:, 0]
        if not (np.all((i >= 1) & (i <= rows) & (i == np.floor(i)))
                and np.all((j >= 1) & (j <= cols) & (j == np.floor(j)))):
            raise ValueError(f"coordinate indices must be integers in 1..{rows} and 1..{cols}")
        i, j = i.astype(int) - 1, j.astype(int) - 1
    if shape_word == "symmetric":
        i, j = np.concatenate((i, j)), np.concatenate((j, i))
        values = np.concatenate((values, values))
    out = np.zeros((rows, cols), dtype=dtype)
    out[i, j] = values
    return out

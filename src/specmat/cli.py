"""Command-line surface: build matrices, emit verified spectra, check identities.

Exit codes are a stable contract: 0 success, 2 usage or validation failure,
3 tolerance failure.  CSV output uses a dot decimal separator, comma
delimiter, and always carries a header row.  Its floats are the bytes of
``'%.17g' % v`` and its integers those of ``'%d' % v``; a table of more than
a few hundred fields is written column by column by a numpy kernel, a smaller
one by a single ``%``, and ``tests/test_cli.py::TestFloatKernel`` and
``TestCsvTables`` pin that both write the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import SpecmatError
from .families import (
    HankelVariant,
    _as_size,
    corner_block_band,
    fem_p2_bands,
    fem_p3_bands,
    toeplitz_hankel_band,
)
from .identities import eve_identity_evp_all, eve_identity_gevp_all, trig_identity_all
from .mmio import write_matrix_market
from .oracle import verify
from .spectra import (
    corner_block_eigenpairs,
    fem_p2_eigenpairs,
    fem_p2_eigenvalues,
    fem_p3_eigenpairs,
    gevp_eigenpairs,
    gevp_eigenvalues,
    pevp_eigenpairs,
)

IMAG_SUPPRESS = 1e-12

# a sign right after an exponent's e belongs to its term
_TERM_RE = re.compile(r"[+-]?(?:[eE][+-]?|[^+-])+")


def parse_complex_literal(text: str) -> complex:
    """Parse ``a``, ``ai`` or ``a+bi`` with exact parts like ``-1/3`` or ``2.5e-1``, each read by ``Fraction``."""
    s = text.strip().replace(" ", "")
    terms = _TERM_RE.findall(s)
    if not 1 <= len(terms) <= 2 or "".join(terms) != s:
        raise ValueError(f"bad complex literal {text!r}")
    parts = {}  # the real part under False, the imaginary under True
    for term in terms:
        imag = term[-1] in "iIjJ"
        body = term[:-1] if imag else term
        if imag in parts:
            raise ValueError(f"duplicate {'imaginary' if imag else 'real'} part in {text!r}")
        try:
            parts[imag] = float(Fraction(body + "1" if imag and body in ("", "+", "-") else body))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:  # a part too large for a float overflows
            raise ValueError(f"bad complex literal {text!r}") from exc
    return complex(parts.get(False, 0.0), parts.get(True, 0.0))


def parse_band(text: str) -> np.ndarray:
    return np.array([parse_complex_literal(tok) for tok in text.split(",")], dtype=complex)


def _scalar_column(values) -> list:
    """Every value rendered by ``%.12g``, its imaginary part shown unless below 1e-12."""
    z = np.asarray(values, dtype=complex)
    texts = ("%.12g\n" * z.size % tuple(z.real.tolist())).split("\n")
    shown = np.flatnonzero(~(np.abs(z.imag) < IMAG_SUPPRESS))  # a NaN part is shown too
    imag = z.imag[shown]
    for i, sign, part in zip(shown.tolist(), np.where(imag >= 0, "+", "-").tolist(),
                             ("%.12gi\n" * shown.size % tuple(np.abs(imag).tolist())).split("\n")):
        texts[i] += sign + part
    return texts[:-1]


def format_scalar(z) -> str:
    """Render a scalar, suppressing imaginary dust below 1e-12."""
    return _scalar_column([z])[0]


def _table_lines(template, rows) -> list:
    """``template`` once per row, all filled by a single ``%`` from the rows' fields: one text of
    every line, or no lines for no rows."""
    rows = list(rows)
    return ["\n".join([template] * len(rows)) % tuple(chain.from_iterable(rows))] if rows else []


# A CSV table is written column by column: each field is the exact bytes of %d, %.17g or %s, NUL-padded
# to its column's width, and one compaction drops the padding of every field at once.  The columns are
# built as rows of a transposed table, so numpy's loops run along the n rows of the table.  A float's 17
# digits come from y = |x| * 10**(16 - E) formed as a double-double by Dekker's exact product (numpy has
# no fma), with 10**k stored as hi + lo; y rounds to the digits, except where its fraction lies within
# _TIE of 1/2, where only exact arithmetic tells the rounding: there Python's own %.17g writes the field.

# below this many fields one % is faster: the two cost the same at 420 to 550 fields over the four tables
_CSV_VECTOR_MIN_FIELDS = 500
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two halves of 26 bits
_SCALED = (1e-280, 1e291)  # |x| here scales by 10**(16 - E) and splits with no overflow or underflow
_E_LO, _E_HI = -282, 292  # every E that log10 and one correction give inside _SCALED
_TIE = 2.0 ** -40  # the double-double's error is below 1e-14
# a float's source row of 32 bytes: '.', '-', '0', the 17 digits, four NULs, the exponent's text
_DOT, _MINUS, _ZERO, _NUL, _EXPONENT = 0, 1, 2, 20, 24
_FIRST, _BLANK, _EXPONENTS = 10000, 10010, 10011  # in the table of words, after the 4-digit ones


@functools.cache
def _csv_tables():
    """The tables the CSV kernel reads, built once.

    - ``powers``: per E from _E_LO to _E_HI, 10**(16 - E) as hi + lo and hi's Dekker halves;
    - ``words``: the 4-byte words a source row is made of: ``%04d`` of 0..9999, ``.-0`` and one digit,
      four NULs, and per E the text after a %.17g's digits in exponent notation (``e-05``) in two words;
    - ``ends``: at ``10000 i + w``, the significant digits of a %.17g whose last word that is not 0000 is
      its word i = 0..3 of four digits after the first, w; at 40000, 1, for none;
    - ``classes``: per E, the first column of its layouts;
    - ``layouts``: the source columns of a field, NUL-padded, in column ``34 * class + 17 * negative + s - 1``
      for s significant digits.  A class is the fixed notation with E = 0..16 (class E) or E = -1..-4
      (class 16 - E), or the exponent notation (class 21);
    - ``lengths``: the length of each layout.
    """
    powers, exponents, classes = [], [], []
    for e in range(_E_LO, _E_HI + 1):
        k = 16 - e
        if k >= 0:  # 10**k is an integer: hi is it rounded, lo the rest rounded
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:  # hi is 1 / 10**-k rounded; the rest is one quotient of integers, rounded
            hi = 1 / 10 ** -k
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -k) / (den * 10 ** -k)
        powers.append((hi, lo))
        exponents.append(b"e%+03d" % e)
        classes.append(34 * (e if 0 <= e <= 16 else 16 - e if -4 <= e < 0 else 21))
    hi, lo = np.array(powers).T
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T.copy()  # of 0000 to 9999
    words = np.concatenate([(digits + ord("0")).view(np.uint32).ravel(),
                            np.array([b".-0%d" % i for i in range(10)] + [b""], dtype="S4").view(np.uint32),
                            np.array(exponents, dtype="S8").view(np.uint32)])
    quads = np.arange(10000)
    last = np.select([quads % 10 > 0, quads % 100 > 0, quads % 1000 > 0, quads > 0], [4, 3, 2, 1])
    ends = np.concatenate([4 * i + 1 + last for i in range(4)] + [[1]])
    layouts, columns = [], list(range(3, 20))
    for cls in range(22):
        for negative in (0, 1):
            for s in range(1, 18):
                if cls <= 16:  # cls + 1 digits before the point, zeros too
                    body = columns[:cls + 1] + ([_DOT] + columns[cls + 1:s] if s > cls + 1 else [])
                elif cls <= 20:
                    body = [_ZERO, _DOT] + [_ZERO] * (cls - 17) + columns[:s]
                else:
                    body = columns[:1] + ([_DOT] + columns[1:s] if s > 1 else []) + list(range(_EXPONENT, 29))
                layouts.append([_MINUS] * negative + body + [_NUL] * (24 - negative - len(body)))
    layouts = np.array(layouts, dtype=np.uint8)
    return ((hi, hi_hi, hi - hi_hi, lo), words, ends, np.array(classes), np.ascontiguousarray(layouts.T),
            (layouts != _NUL).sum(axis=1))


def _scaled(a, e, powers):
    """``a * 10**(16 - e)`` as an unevaluated sum p + l of two doubles, to about 2**-106 of it."""
    at = e - _E_LO
    hi, hi_hi, hi_lo, lo = (table.take(at) for table in powers)
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    return p, ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo


def _float_field(x) -> np.ndarray:
    """The bytes of ``'%.17g' % v`` for each float64 v of x, as the columns of a NUL-padded array."""
    powers, words, ends, classes, layouts, lengths = _csv_tables()
    a = np.abs(x)
    zero = a == 0
    scaled = (a >= _SCALED[0]) & (a < _SCALED[1])  # not NaN, infinite, zero or beyond the tables
    a = np.where(scaled, a, 1.0)  # the digits of 1, read for zeros and overwritten for the rest
    e = np.floor(np.log10(a)).astype(np.intp)
    p, rest = _scaled(a, e, powers)
    # log10 may be one off near a power of ten: y must be in [1e16, 1e17)
    shift = ((p - 1e17) + rest >= 0).view(np.int8) - ((p - 1e16) + rest < 0).view(np.int8)
    fix = np.flatnonzero(shift)
    if fix.size:
        e[fix] += shift[fix]
        p[fix], rest[fix] = _scaled(a[fix], e[fix], powers)
    whole = np.rint(rest)
    d = p.astype(np.int64) + whole.astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    fallback = np.flatnonzero(~(scaled | zero) | (np.abs(rest - whole) > 0.5 - _TIE))
    # the words of each source row: '.-0' and the first digit, four words of four digits, NULs, exponent
    at = np.empty((8, x.size), np.intp)
    high = d // 10 ** 8
    low = d - high * 10 ** 8
    at[0] = high // 10 ** 8
    high -= at[0] * 10 ** 8
    at[1] = high // 10 ** 4
    at[2] = high - at[1] * 10 ** 4
    at[3] = low // 10 ** 4
    at[4] = low - at[3] * 10 ** 4
    # s, the significant digits, ends at the last digit that is not 0, in the last word that is not 0000
    s = ends.take(np.select(list(at[4:0:-1] > 0), list(at[4:0:-1] + [[30000], [20000], [10000], [0]]), 40000))
    at[0] += _FIRST
    at[5] = _BLANK
    at[6] = _EXPONENTS + 2 * (e - _E_LO)
    at[7] = at[6] + 1
    source = words.take(at).T.copy().view(np.uint8)
    source[zero, 3] = ord("0")
    rows = classes.take(e - _E_LO) + 17 * np.signbit(x) + s - 1
    texts = [b"%.17g" % v for v in x[fallback].tolist()]
    width = max([int(lengths.take(rows).max()), *map(len, texts)])
    field = source.ravel().take(layouts[:width].take(rows, axis=1) + np.arange(0, source.size, 32))
    if texts:
        field[:, fallback] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width).T
    return field


def _int_field(v) -> np.ndarray:
    """The bytes of ``'%d' % v`` for each integer |v| < 2**53 of v, as the columns of a NUL-padded array:
    a sign, then the digits right-aligned."""
    d = np.abs(v).astype(np.float64)
    tens = 10.0 ** np.arange(len(str(int(d.max()))) - 1, -1, -1)[:, None]
    left = np.floor(d / tens)  # each row: the numbers without their last digits, one digit fewer each
    digits = np.where((left > 0) | (tens == 1), left - 10 * np.floor(left / 10) + ord("0"), 0)
    return np.concatenate([np.where(v < 0, ord("-"), 0)[None], digits]).astype(np.uint8)


def _csv_lines(columns) -> list:
    """The CSV lines of ``columns`` as one text (none for no rows): an integer column by %d, a float
    column by %.17g and a column of ASCII str by %s."""
    columns = [np.asarray(column) for column in columns]
    kinds = ["f" if column.dtype.kind == "f" else "d" if column.dtype.kind in "iu" else "s" for column in columns]
    n = columns[0].size
    if n * len(columns) < _CSV_VECTOR_MIN_FIELDS or not all(
            -2 ** 53 < column.min() <= column.max() < 2 ** 53 for column, kind in zip(columns, kinds) if kind == "d"):
        template = ",".join("%.17g" if kind == "f" else "%" + kind for kind in kinds)
        return _table_lines(template, zip(*(column.tolist() for column in columns)))
    # the fields of every float column in one call, and of every integer column in another
    fields = {"s": (column.view(np.uint32).reshape(n, -1).T.astype(np.uint8)
                    for column, kind in zip(columns, kinds) if kind == "s")}
    for kind, field in (("f", _float_field), ("d", _int_field)):
        same = [column for column, k in zip(columns, kinds) if k == kind]
        if same:
            fields[kind] = iter(np.split(field(np.concatenate(same)), len(same), axis=1))
    fields = [next(fields[kind]) for kind in kinds]
    # the table transposed: each field's bytes, then a comma, the last one a newline
    table = np.empty((sum(len(field) + 1 for field in fields), n), np.uint8)
    at = 0
    for field in fields:
        table[at:at + len(field)] = field
        at += len(field) + 1
        table[at - 1] = ord(",")
    table[-1] = ord("\n")
    table = table.T.copy()
    return [table[table != 0].tobytes().decode("ascii")[:-1]]


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _within(values, tol) -> bool:
    """Whether every value is at most ``tol``; a NaN is not, so it fails a gate."""
    return bool(np.all(np.asarray(values) <= tol))


def _gate(name, values, tol) -> int:
    """The exit code of a tolerance gate: 0 when every value is within ``tol``, else 3."""
    if _within(values, tol):
        return 0
    print(f"error: max {name} {np.max(values):.3e} exceeds tolerance {tol:.3e}", file=sys.stderr)
    return 3


# ----------------------------------------------------------------- build

def _cmd_build(args) -> int:
    # every family is written from its band, so no n x n matrix is formed
    if args.family == "toeplitz-hankel":
        if args.alpha is None or args.n is None:
            raise SpecmatError("toeplitz-hankel needs --alpha and --n")
        band = parse_band(args.alpha)
        if args.m is not None and args.m != band.size - 1:
            raise SpecmatError(
                f"--m {args.m} contradicts the band, which has bandwidth {band.size - 1}"
            )
        files = [(args.out or f"toeplitz-hankel-set{args.variant}-n{args.n}.mtx",
                  toeplitz_hankel_band(band, args.n, args.variant))]
    elif args.family == "corner-block":
        if args.alpha is None or args.half_n is None:
            raise SpecmatError("corner-block needs --alpha (four entries) and --half-n")
        files = [(args.out or f"corner-block-n{2 * args.half_n + 1}.mtx",
                  corner_block_band(parse_band(args.alpha), args.half_n))]
    else:
        if args.n_elems is None:
            raise SpecmatError(f"{args.family} needs --n-elems")
        bands = fem_p2_bands if args.family == "fem-p2" else fem_p3_bands
        prefix = args.out or f"{args.family}-nel{args.n_elems}"
        files = [(f"{prefix}_{name}.mtx", band) for name, band in zip("KM", bands(args.n_elems))]
    for path, band in files:
        write_matrix_market(band, path)
    for path, _ in files:
        print(f"wrote {path}")
    return 0


# -------------------------------------------------------------- spectrum

def _spectrum_problem(args):
    """The closed-form solution and the bands of (A, B) for the chosen family."""
    if args.family == "toeplitz-hankel":
        if args.alpha is None or args.beta is None or args.n is None:
            raise SpecmatError("toeplitz-hankel spectra need --alpha, --beta and --n")
        alpha, beta = parse_band(args.alpha), parse_band(args.beta)
        width = max(alpha.size, beta.size)  # the shorter band's missing diagonals are zero
        alpha, beta = (np.pad(band, (0, width - band.size)) for band in (alpha, beta))
        variant = HankelVariant.coerce(args.variant)
        return (gevp_eigenpairs(alpha, beta, args.n, variant), toeplitz_hankel_band(alpha, args.n, variant),
                toeplitz_hankel_band(beta, args.n, variant))
    if args.family == "corner-block":
        if args.alpha is None or args.half_n is None:
            raise SpecmatError("corner-block spectra need --alpha and --half-n")
        alpha = parse_band(args.alpha)
        beta = parse_band(args.beta) if args.beta else [1.0, 0.0, 0.0, 1.0]
        return (corner_block_eigenpairs(alpha, beta, args.half_n), corner_block_band(alpha, args.half_n),
                corner_block_band(beta, args.half_n))
    if args.n_elems is None:
        raise SpecmatError(f"{args.family} spectra need --n-elems")
    eigenpairs, bands = {"fem-p2": (fem_p2_eigenpairs, fem_p2_bands),
                         "fem-p3": (fem_p3_eigenpairs, fem_p3_bands)}[args.family]
    return (eigenpairs(args.n_elems), *bands(args.n_elems))


def _cmd_spectrum(args) -> int:
    sol, a, b = _spectrum_problem(args)
    sol.values = sol.values + args.perturb  # also with 0.0, which turns a -0.0 into +0.0
    check = verify(sol, a, b, oracle=not args.no_oracle)
    header = "mode_index,lambda_re,lambda_im,residual"
    columns = [np.arange(1, sol.n_modes + 1), sol.values.real, sol.values.imag, check.residuals]
    if check.route:
        header += ",oracle_lambda_re,oracle_lambda_im,oracle_distance"
        columns += [check.matched.real, check.matched.imag, check.distances]

    if args.format == "json":
        # JSON has no NaN or infinity: a number that is not finite is written as null
        payload = [{key: value if math.isfinite(value) else None for key, value in zip(header.split(","), row)}
                   for row in zip(*(column.tolist() for column in columns))]
        _emit([json.dumps(payload, indent=2, allow_nan=False)], args.out)
    else:
        _emit([header, *_csv_lines(columns)], args.out)

    return _gate("residual", check.residuals, args.tol)


# -------------------------------------------------------------- identity

def _identity_tables(args) -> list:
    if args.n is None:
        raise SpecmatError(f"{args.kind} needs --n")
    if args.kind in ("ti31", "ti3", "ti3g"):
        bands = {}
        if args.kind == "ti3g":
            if args.alpha is None or args.beta is None:
                raise SpecmatError("ti3g needs --alpha and --beta (two entries each)")
            bands = {"alpha": parse_band(args.alpha), "beta": parse_band(args.beta)}
        if args.n < 2:  # else an empty sweep would pass the gate on no evaluations
            raise SpecmatError(f"{args.kind} needs --n of at least 2, got {args.n}")
        # each index sweeps 1..n unless given
        ks, ls = (None if i is None else [i] for i in (args.k, args.l))
        return [trig_identity_all(args.kind, args.n, ks, ls, **bands)]

    if args.random < 1:  # else the gate would pass on no evaluations
        raise SpecmatError(f"{args.kind} needs --random of at least 1, got {args.random}")
    tables = []
    rng = np.random.default_rng(args.seed)
    for _ in range(args.random):
        a = rng.standard_normal((args.n, args.n)) + 1j * rng.standard_normal((args.n, args.n))
        a = a + a.conj().T
        if args.kind == "eve":
            tables.append(eve_identity_evp_all(a))
        else:
            basis = rng.standard_normal((args.n, args.n)) + 1j * rng.standard_normal((args.n, args.n))
            b = basis @ basis.conj().T + args.n * np.eye(args.n)
            tables.append(eve_identity_gevp_all(a, b, form=args.form))
    return tables


def _identity_lines(table) -> list:
    """One line per entry of an identity table, row by row."""
    size = table.lhs.size
    template = ("kind=%s " + "".join(f"{key}=%s " for key in table.inputs) + "lhs=%s rhs=%s rel_diff=%.3e"
                + (" conditioning-warning" if table.conditioning_warning else ""))
    columns = [[table.kind] * size,
               *(np.broadcast_to(value, table.lhs.shape).ravel().tolist() if isinstance(value, np.ndarray)
                 else [value] * size for value in table.inputs.values()),
               _scalar_column(table.lhs.ravel()), _scalar_column(table.rhs.ravel()),
               table.rel_diff.ravel().tolist()]
    return _table_lines(template, zip(*columns))


def _cmd_identity(args) -> int:
    tables = _identity_tables(args)
    lines = [line for table in tables for line in _identity_lines(table)]
    checked = np.concatenate([t.rel_diff.ravel() for t in tables if not t.conditioning_warning] or [[]])
    worst = float(np.max(checked)) if checked.size else 0.0  # NaN if any is NaN
    lines.append(f"max rel_diff = {worst:.3e} over {sum(t.lhs.size for t in tables)} evaluations")
    _emit(lines, None)
    proven = args.kind in ("eve", "ti31", "ti3") or args.kind == "gevp-eve" and args.form == "proof"
    return _gate("rel_diff", checked, args.tol) if proven else 0


# ------------------------------------------------------------ dispersion

LAPLACE_FDM_BAND = (2.0, -1.0)
LAPLACE_FEM1_STIFF_BAND = (2.0, -1.0)
LAPLACE_FEM1_MASS_BAND = (2.0 / 3.0, 1.0 / 6.0)
IGA2_EXAMPLE_STIFF_BAND = (1.0, -1.0 / 3.0, -1.0 / 6.0)
IGA2_EXAMPLE_MASS_BAND = (11.0 / 20.0, 13.0 / 60.0, 1.0 / 120.0)


def _dispersion_columns(method: str, n: int) -> list:
    """The columns j, lambda_h, lambda_exact, rel_error and branch for a mesh of n cells."""
    n = _as_size(n)
    if n < 2:
        raise SpecmatError(f"need at least 2 mesh cells, got {n}")
    h = 1.0 / n
    if method in ("fdm", "fem1", "iga2-example"):
        stiffness, mass, c1, c2 = {
            "fdm": (LAPLACE_FDM_BAND, (1.0, 0.0), 1.0 / (h * h), 1.0),
            "fem1": (LAPLACE_FEM1_STIFF_BAND, LAPLACE_FEM1_MASS_BAND, 1.0 / h, h),
            "iga2-example": (IGA2_EXAMPLE_STIFF_BAND, IGA2_EXAMPLE_MASS_BAND, 1.0 / h, h),
        }[method]
        values = gevp_eigenvalues(stiffness, mass, n - 1, HankelVariant.SET1)
        # scale_pencil's factor c1 / c2, applied to the values alone
        discrete = np.sort(values * (c1 / c2))
        branches = np.full(discrete.size, "")
    elif method == "fem2":
        discrete = np.sort(fem_p2_eigenvalues(n))
        flat = 10.0 * n * n
        branches = np.array(["minus", "10n^2", "plus"]).take((discrete >= flat).astype(int) + (discrete > flat))
    else:
        raise SpecmatError(f"unknown dispersion method {method!r}")
    j = np.arange(1, discrete.size + 1)
    angle = j * np.pi
    exact = angle * angle  # the correctly rounded square of angle
    return [j, discrete, exact, np.abs(discrete - exact) / exact, branches]


def dispersion_rows(method: str, n: int):
    """Rows (j, lambda_h, lambda_exact, rel_error, branch) for a mesh of n cells."""
    return list(zip(*(column.tolist() for column in _dispersion_columns(method, n))))


def _cmd_dispersion(args) -> int:
    _emit(["j,lambda_h,lambda_exact,rel_error,branch", *_csv_lines(_dispersion_columns(args.method, args.n))],
          args.out)
    return 0


# ------------------------------------------------------------------ pevp

def _cmd_pevp(args) -> int:
    with open(args.input, encoding="ascii") as handle:
        payload = json.load(handle)
    try:
        variant, n = HankelVariant.coerce(payload["variant"]), payload["n"]
        bands = [np.array([parse_complex_literal(entry) if isinstance(entry, str) else complex(entry)
                           for entry in band], dtype=complex) for band in payload["bands"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecmatError(f"bad pencil description: {exc}") from exc
    analytic = pevp_eigenpairs(bands, n, variant)
    check = verify(analytic, *(toeplitz_hankel_band(band, analytic.modes.size, variant) for band in bands))
    flat, distances = check.values, check.distances
    counts = [roots.size for roots in analytic.mode_roots]
    # each root's 1-based index within its mode: its flat position less its mode's start
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    columns = [np.repeat(analytic.modes, counts), np.arange(1, flat.size + 1) - starts,
               flat.real, flat.imag, distances]
    _emit(["mode_index,root_index,lambda_re,lambda_im,oracle_distance", *_csv_lines(columns)], args.out)
    dropped = check.route.startswith("reversed-")
    if dropped or analytic.degree_drops:
        print(f"degree drop: analytic modes {list(analytic.degree_drops)}, oracle flagged {dropped}",
              file=sys.stderr)
    # a distance is judged against the largest root's modulus, so the gate does not depend on the pencil's scale
    bound = args.tol * float(np.max(np.abs(flat), initial=0.0))
    return _gate("oracle distance", distances, args.tol if math.isinf(args.tol) else bound)


# ----------------------------------------------------------------- parser

@functools.cache  # built on first use: about 1 ms, paid by every in-process call otherwise
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmat",
        description="Build structured matrices, emit verified spectra, and check identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the options that pick a family and where its output goes, shared by build and spectrum
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True,
                        choices=["toeplitz-hankel", "corner-block", "fem-p2", "fem-p3"])
    family.add_argument("--variant", type=int, default=1, choices=[1, 2, 3, 4])
    family.add_argument("--n", type=int)
    family.add_argument("--alpha", help="comma-separated complex band, e.g. 1,-1/3,-1/6")
    family.add_argument("--half-n", type=int, dest="half_n")
    family.add_argument("--n-elems", type=int, dest="n_elems")
    family.add_argument("--out")

    build = sub.add_parser("build", parents=[family],
                           help="materialize a matrix family to Matrix Market files")
    build.add_argument("--m", type=int)
    build.set_defaults(func=_cmd_build)

    spectrum = sub.add_parser("spectrum", parents=[family],
                              help="closed-form spectrum with residuals and oracle comparison")
    spectrum.add_argument("--beta")
    spectrum.add_argument("--no-oracle", action="store_true")
    spectrum.add_argument("--tol", type=float, default=1e-8)
    spectrum.add_argument("--perturb", type=float, default=0.0,
                          help="debug: shift every eigenvalue before the residual check")
    spectrum.add_argument("--format", choices=["csv", "json"], default="csv")
    spectrum.set_defaults(func=_cmd_spectrum)

    identity = sub.add_parser("identity", help="evaluate eigenvector-eigenvalue and trigonometric identities")
    identity.add_argument("--kind", required=True,
                          choices=["eve", "gevp-eve", "ti31", "ti3", "ti3g"])
    identity.add_argument("--n", type=int)
    identity.add_argument("--k", type=int)
    identity.add_argument("--l", type=int)
    identity.add_argument("--alpha")
    identity.add_argument("--beta")
    identity.add_argument("--random", type=int, default=1, help="number of random trials")
    identity.add_argument("--seed", type=int, default=0)
    identity.add_argument("--form", choices=["proof", "literal"], default="proof")
    identity.add_argument("--tol", type=float, default=1e-8)
    identity.set_defaults(func=_cmd_identity)

    dispersion = sub.add_parser("dispersion", help="discrete-versus-exact eigenvalue tables")
    dispersion.add_argument("--method", required=True,
                            choices=["fdm", "fem1", "fem2", "iga2-example"])
    dispersion.add_argument("--n", type=int, required=True, help="number of mesh cells")
    dispersion.add_argument("--out")
    dispersion.set_defaults(func=_cmd_dispersion)

    pevp = sub.add_parser("pevp", help="per-mode polynomial pencil roots versus the numeric oracle")
    pevp.add_argument("--input", required=True, help="JSON pencil description")
    pevp.add_argument("--tol", type=float, default=1e-8)
    pevp.add_argument("--out")
    pevp.set_defaults(func=_cmd_pevp)

    return parser


def _attach_negative_values(argv) -> list:
    """``argv`` with ``--alpha x``, ``--beta x``, ``--perturb x`` and ``--tol x`` joined to ``--alpha=x``
    and so on where x starts with a minus sign.

    argparse takes ``-1`` for a value, but ``-1,1/5``, ``-1/2i``, ``-1e-3`` or ``-inf`` for an option name.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--alpha", "--beta", "--perturb", "--tol") and re.match(r"-[\d.iIjJ]", argv[i + 1]):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not getattr(args, "tol", 0.0) >= 0:  # no value is within NaN or below 0, so every gate would fail
            raise SpecmatError(f"{args.command} needs a --tol that is "
                               + ("not NaN" if np.isnan(args.tol) else "at least 0"))
        # input whose arithmetic overflows, turns NaN or divides by zero is refused, not warned of
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (SpecmatError, ValueError, OSError, MemoryError,  # MemoryError: an array too large to allocate
            FloatingPointError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a list's MemoryError is blank
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

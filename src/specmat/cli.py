"""Command-line surface: build matrices, emit verified spectra, check identities.

Exit codes are a stable contract: 0 success, 2 usage or validation failure,
3 tolerance failure.  CSV output uses a dot decimal separator, comma
delimiter, and always carries a header row.
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
    rows = list(zip(*(column.tolist() for column in columns)))  # Python scalars format faster

    if args.format == "json":
        # JSON has no NaN or infinity: a number that is not finite is written as null
        payload = [{key: value if math.isfinite(value) else None for key, value in zip(header.split(","), row)}
                   for row in rows]
        _emit([json.dumps(payload, indent=2, allow_nan=False)], args.out)
    else:
        # an integer first field, the rest to 17 significant digits
        _emit([header, *_table_lines("%d" + ",%.17g" * header.count(","), rows)], args.out)

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


def dispersion_rows(method: str, n: int):
    """Rows (j, lambda_h, lambda_exact, rel_error, branch) for a mesh of n cells."""
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
        branches = [""] * discrete.size
    elif method == "fem2":
        discrete = np.sort(fem_p2_eigenvalues(n))
        flat = 10.0 * n * n
        branches = np.where(discrete < flat, "minus", np.where(discrete == flat, "10n^2", "plus")).tolist()
    else:
        raise SpecmatError(f"unknown dispersion method {method!r}")
    j = np.arange(1, discrete.size + 1)
    angle = j * np.pi
    exact = angle * angle  # the correctly rounded square of angle
    rel_error = np.abs(discrete - exact) / exact
    return list(zip(j.tolist(), discrete.tolist(), exact.tolist(), rel_error.tolist(), branches))


def _cmd_dispersion(args) -> int:
    rows = dispersion_rows(args.method, args.n)
    _emit(["j,lambda_h,lambda_exact,rel_error,branch", *_table_lines("%d,%.17g,%.17g,%.17g,%s", rows)], args.out)
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
    rows = zip(*(column.tolist() for column in columns))
    # a whole number formats the same by %.17g as by %d
    _emit(["mode_index,root_index,lambda_re,lambda_im,oracle_distance",
           *_table_lines("%d,%.17g,%.17g,%.17g,%.17g", rows)], args.out)
    dropped = check.route.startswith("reversed-")
    if dropped or analytic.degree_drops:
        print(f"degree drop: analytic modes {list(analytic.degree_drops)}, oracle flagged {dropped}",
              file=sys.stderr)
    return _gate("oracle distance", distances, args.tol)


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
        return args.func(args)
    except (SpecmatError, ValueError, OSError, MemoryError) as exc:  # an array too large to allocate
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a list's MemoryError is blank
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

"""Command-line surface: build matrices, emit verified spectra, check identities.

Exit codes are a stable contract: 0 success, 2 usage or validation failure,
3 tolerance failure.  CSV output uses a dot decimal separator, comma
delimiter, and always carries a header row.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

import numpy as np

from .errors import SpecmatError
from .families import (
    HankelVariant,
    assemble_toeplitz_hankel,
    build_corner_block,
    build_fem_p2,
    build_fem_p3,
)
from .identities import eve_identity_evp_all, eve_identity_gevp_all, trig_identity
from .mmio import write_matrix_market
from .oracle import (
    gevp_eigenvalues_numeric,
    inverse_iteration,
    pair_values,
    pencil_residuals,
    solve_pevp_numeric,
)
from .spectra import (
    PolynomialPencil,
    corner_block_eigenpairs,
    fem_p2_eigenpairs,
    fem_p2_eigenvalues,
    fem_p3_eigenvalues,
    gevp_eigenpairs,
    gevp_eigenvalues,
    pevp_eigenpairs,
)

IMAG_SUPPRESS = 1e-12

_TERM_RE = re.compile(r"[+-]?[^+-]+")


def parse_complex_literal(text: str) -> complex:
    """Parse ``a``, ``ai`` or ``a+bi`` with exact rational parts like ``-1/3``."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    terms = _TERM_RE.findall(s)
    if not 1 <= len(terms) <= 2 or "".join(terms) != s:
        raise ValueError(f"bad complex literal {text!r}")
    re_part: Fraction | None = None
    im_part: Fraction | None = None
    for term in terms:
        is_imag = term[-1] in "iIjJ"
        body = term[:-1] if is_imag else term
        if is_imag and body in ("", "+"):
            value = Fraction(1)
        elif is_imag and body == "-":
            value = Fraction(-1)
        else:
            try:
                value = Fraction(body)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad complex literal {text!r}") from exc
        if is_imag:
            if im_part is not None:
                raise ValueError(f"duplicate imaginary part in {text!r}")
            im_part = value
        else:
            if re_part is not None:
                raise ValueError(f"duplicate real part in {text!r}")
            re_part = value
    return complex(float(re_part or 0), float(im_part or 0))


def parse_band(text: str) -> np.ndarray:
    return np.array([parse_complex_literal(tok) for tok in text.split(",")], dtype=complex)


def format_scalar(z) -> str:
    """Render a scalar, suppressing imaginary dust below 1e-12."""
    z = complex(z)
    if abs(z.imag) < IMAG_SUPPRESS:
        return f"{z.real:.12g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}i"


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


def _pad_bands(alpha, beta):
    width = max(alpha.size, beta.size)
    pad = lambda b: np.pad(b, (0, width - b.size))
    return pad(alpha), pad(beta)


# ----------------------------------------------------------------- build

def _cmd_build(args) -> int:
    outputs = []
    if args.family == "toeplitz-hankel":
        if args.alpha is None or args.n is None:
            raise SpecmatError("toeplitz-hankel needs --alpha and --n")
        band = parse_band(args.alpha)
        if args.m is not None and args.m != band.size - 1:
            raise SpecmatError(
                f"--m {args.m} contradicts the band, which has bandwidth {band.size - 1}"
            )
        matrix = assemble_toeplitz_hankel(band, args.n, args.variant)
        path = args.out or f"toeplitz-hankel-set{args.variant}-n{args.n}.mtx"
        write_matrix_market(matrix, path)
        outputs.append(path)
    elif args.family == "corner-block":
        if args.alpha is None or args.half_n is None:
            raise SpecmatError("corner-block needs --alpha (four entries) and --half-n")
        xi = parse_band(args.alpha)
        matrix = build_corner_block(xi, args.half_n)
        path = args.out or f"corner-block-n{2 * args.half_n + 1}.mtx"
        write_matrix_market(matrix, path)
        outputs.append(path)
    elif args.family in ("fem-p2", "fem-p3"):
        if args.n_elems is None:
            raise SpecmatError(f"{args.family} needs --n-elems")
        builder = build_fem_p2 if args.family == "fem-p2" else build_fem_p3
        stiffness, mass = builder(args.n_elems)
        prefix = args.out or f"{args.family}-nel{args.n_elems}"
        for name, matrix in (("K", stiffness), ("M", mass)):
            path = f"{prefix}_{name}.mtx"
            write_matrix_market(matrix, path)
            outputs.append(path)
    for path in outputs:
        print(f"wrote {path}")
    return 0


# -------------------------------------------------------------- spectrum

def _spectrum_problem(args):
    """Analytic solution plus materialized (A, B) for the chosen family."""
    if args.family == "toeplitz-hankel":
        if args.alpha is None or args.beta is None or args.n is None:
            raise SpecmatError("toeplitz-hankel spectra need --alpha, --beta and --n")
        alpha, beta = _pad_bands(parse_band(args.alpha), parse_band(args.beta))
        variant = HankelVariant.coerce(args.variant)
        sol = gevp_eigenpairs(alpha, beta, args.n, variant)
        a = assemble_toeplitz_hankel(alpha, args.n, variant)
        b = assemble_toeplitz_hankel(beta, args.n, variant)
        return sol.values, sol.vectors, a, b
    if args.family == "corner-block":
        if args.alpha is None or args.half_n is None:
            raise SpecmatError("corner-block spectra need --alpha and --half-n")
        alpha = parse_band(args.alpha)
        beta = parse_band(args.beta) if args.beta else np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
        sol = corner_block_eigenpairs(alpha, beta, args.half_n)
        return sol.values, sol.vectors, build_corner_block(alpha, args.half_n), build_corner_block(beta, args.half_n)
    if args.family == "fem-p2":
        if args.n_elems is None:
            raise SpecmatError("fem-p2 spectra need --n-elems")
        sol = fem_p2_eigenpairs(args.n_elems)
        a, b = build_fem_p2(args.n_elems)
        return sol.values, sol.vectors, a, b
    if args.n_elems is None:
        raise SpecmatError("fem-p3 spectra need --n-elems")
    values = fem_p3_eigenvalues(args.n_elems)
    a, b = build_fem_p3(args.n_elems)
    vectors = np.column_stack(
        [inverse_iteration(a, b, lam, seed=29 * (i + 1)) for i, lam in enumerate(values)]
    )
    return values, vectors, a, b


def _csv_lines(header, rows):
    """The header, then each row's integer first field and the rest to 17 significant digits."""
    line = "%d" + ",%.17g" * header.count(",")
    return [header, *(line % row for row in rows)]


def _cmd_spectrum(args) -> int:
    values, vectors, a, b = _spectrum_problem(args)
    values = values + args.perturb
    operands = (a, b, values, vectors)
    if not any(m.imag.any() for m in operands):
        # a real pencil with real pairs: real products, about 3.5x cheaper
        operands = tuple(m.real for m in operands)
    residuals = pencil_residuals(*operands)
    header = "mode_index,lambda_re,lambda_im,residual"
    columns = [np.arange(1, values.size + 1), values.real, values.imag, residuals]
    if not args.no_oracle:
        matched, distances = pair_values(values, gevp_eigenvalues_numeric(a, b))
        header += ",oracle_lambda_re,oracle_lambda_im,oracle_distance"
        columns += [matched.real, matched.imag, distances]
    rows = list(zip(*(column.tolist() for column in columns)))  # Python scalars format faster

    if args.format == "json":
        payload = [dict(zip(header.split(","), row)) for row in rows]
        _emit([json.dumps(payload, indent=2)], args.out)
    else:
        _emit(_csv_lines(header, rows), args.out)

    if not _within(residuals, args.tol):
        print(
            f"error: max residual {np.max(residuals):.3e} exceeds tolerance {args.tol:.3e}",
            file=sys.stderr,
        )
        return 3
    return 0


# -------------------------------------------------------------- identity

def _identity_reports(args):
    reports = []
    if args.kind in ("ti31", "ti3", "ti3g"):
        if args.n is None:
            raise SpecmatError(f"{args.kind} needs --n")
        ks = [args.k] if args.k is not None else list(range(1, args.n + 1))
        if args.kind == "ti31":
            for k in ks:
                reports.append(trig_identity("ti31", args.n, k))
        else:
            ls = [args.l] if args.l is not None else list(range(1, args.n + 1))
            for k in ks:
                for l in ls:
                    if args.kind == "ti3":
                        reports.append(trig_identity("ti3", args.n, k, l))
                    else:
                        if args.alpha is None or args.beta is None:
                            raise SpecmatError("ti3g needs --alpha and --beta (two entries each)")
                        reports.append(
                            trig_identity(
                                "ti3g", args.n, k, l,
                                alpha=parse_band(args.alpha), beta=parse_band(args.beta),
                            )
                        )
        return reports

    if args.n is None:
        raise SpecmatError(f"{args.kind} needs --n")
    rng = np.random.default_rng(args.seed)
    for _ in range(args.random):
        a = rng.standard_normal((args.n, args.n)) + 1j * rng.standard_normal((args.n, args.n))
        a = a + a.conj().T
        if args.kind == "eve":
            reports.extend(eve_identity_evp_all(a))
        else:
            basis = rng.standard_normal((args.n, args.n)) + 1j * rng.standard_normal((args.n, args.n))
            b = basis @ basis.conj().T + args.n * np.eye(args.n)
            reports.extend(eve_identity_gevp_all(a, b, form=args.form))
    return reports


def _cmd_identity(args) -> int:
    reports = _identity_reports(args)
    checked = []
    for rep in reports:
        params = " ".join(f"{key}={val}" for key, val in rep.inputs.items())
        print(
            f"kind={rep.kind} {params} lhs={format_scalar(rep.lhs)} "
            f"rhs={format_scalar(rep.rhs)} rel_diff={rep.rel_diff:.3e}"
            + (" conditioning-warning" if rep.conditioning_warning else "")
        )
        if not rep.conditioning_warning:
            checked.append(rep.rel_diff)
    worst = float(np.max(checked)) if checked else 0.0  # NaN if any is NaN
    print(f"max rel_diff = {worst:.3e} over {len(reports)} evaluations")
    proven = args.kind in ("eve", "ti31", "ti3") or (
        args.kind == "gevp-eve" and args.form == "proof"
    )
    if proven and not _within(checked, args.tol):
        print(
            f"error: max rel_diff {worst:.3e} exceeds tolerance {args.tol:.3e}",
            file=sys.stderr,
        )
        return 3
    return 0


# ------------------------------------------------------------ dispersion

LAPLACE_FDM_BAND = (2.0, -1.0)
LAPLACE_FEM1_STIFF_BAND = (2.0, -1.0)
LAPLACE_FEM1_MASS_BAND = (2.0 / 3.0, 1.0 / 6.0)
IGA2_EXAMPLE_STIFF_BAND = (1.0, -1.0 / 3.0, -1.0 / 6.0)
IGA2_EXAMPLE_MASS_BAND = (11.0 / 20.0, 13.0 / 60.0, 1.0 / 120.0)


def dispersion_rows(method: str, n: int):
    """Rows (j, lambda_h, lambda_exact, rel_error, branch) for a mesh of n cells."""
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
        discrete = np.sort((values * (complex(c1) / complex(c2))).real)
        branches = [""] * (n - 1)
    elif method == "fem2":
        discrete = np.sort(fem_p2_eigenvalues(n))
        flat = 10.0 * n * n
        branches = ["minus" if v < flat else ("10n^2" if v == flat else "plus") for v in discrete]
    else:
        raise SpecmatError(f"unknown dispersion method {method!r}")
    rows = []
    for j, lam in enumerate(discrete.tolist(), start=1):  # Python floats format faster
        exact = (j * np.pi) ** 2
        rows.append((j, lam, exact, abs(lam - exact) / exact, branches[j - 1]))
    return rows


def _cmd_dispersion(args) -> int:
    rows = dispersion_rows(args.method, args.n)
    lines = ["j,lambda_h,lambda_exact,rel_error,branch"]
    lines.extend("%d,%.17g,%.17g,%.17g,%s" % row for row in rows)
    _emit(lines, args.out)
    return 0


# ------------------------------------------------------------------ pevp

def _cmd_pevp(args) -> int:
    with open(args.input, encoding="ascii") as handle:
        payload = json.load(handle)
    try:
        variant = HankelVariant.coerce(payload["variant"])
        n = int(payload["n"])
        bands = [
            np.array(
                [
                    parse_complex_literal(entry) if isinstance(entry, str) else complex(entry)
                    for entry in band
                ],
                dtype=complex,
            )
            for band in payload["bands"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecmatError(f"bad pencil description: {exc}") from exc
    pencil = PolynomialPencil(bands=tuple(bands), variant=variant, n=n)
    analytic = pevp_eigenpairs(pencil)
    mats = [assemble_toeplitz_hankel(band, n, variant) for band in bands]
    numeric, dropped = solve_pevp_numeric(mats)
    flat = analytic.all_values()
    matched, distances = pair_values(flat, numeric)
    lines = ["mode_index,root_index,lambda_re,lambda_im,oracle_distance"]
    pos = 0
    for mode, roots in zip(analytic.modes, analytic.mode_roots):
        for ridx, root in enumerate(roots, start=1):
            lines.append(
                f"{mode},{ridx},{root.real:.17g},{root.imag:.17g},{distances[pos]:.17g}"
            )
            pos += 1
    _emit(lines, args.out)
    if dropped or analytic.degree_drops:
        print(
            f"degree drop: analytic modes {list(analytic.degree_drops)}, "
            f"oracle flagged {dropped}",
            file=sys.stderr,
        )
    worst = float(np.max(distances)) if distances.size else 0.0
    if not _within(distances, args.tol):
        print(
            f"error: max oracle distance {worst:.3e} exceeds tolerance {args.tol:.3e}",
            file=sys.stderr,
        )
        return 3
    return 0


# ----------------------------------------------------------------- parser

@functools.cache  # built on first use: about 1 ms, paid by every in-process call otherwise
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmat",
        description="Build structured matrices, emit verified spectra, and check identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="materialize a matrix family to Matrix Market files")
    build.add_argument("--family", required=True,
                       choices=["toeplitz-hankel", "corner-block", "fem-p2", "fem-p3"])
    build.add_argument("--variant", type=int, default=1, choices=[1, 2, 3, 4])
    build.add_argument("--n", type=int)
    build.add_argument("--m", type=int)
    build.add_argument("--alpha", help="comma-separated complex band, e.g. 1,-1/3,-1/6")
    build.add_argument("--half-n", type=int, dest="half_n")
    build.add_argument("--n-elems", type=int, dest="n_elems")
    build.add_argument("--out")
    build.set_defaults(func=_cmd_build)

    spectrum = sub.add_parser("spectrum", help="closed-form spectrum with residuals and oracle comparison")
    spectrum.add_argument("--family", required=True,
                          choices=["toeplitz-hankel", "corner-block", "fem-p2", "fem-p3"])
    spectrum.add_argument("--variant", type=int, default=1, choices=[1, 2, 3, 4])
    spectrum.add_argument("--n", type=int)
    spectrum.add_argument("--alpha")
    spectrum.add_argument("--beta")
    spectrum.add_argument("--half-n", type=int, dest="half_n")
    spectrum.add_argument("--n-elems", type=int, dest="n_elems")
    spectrum.add_argument("--no-oracle", action="store_true")
    spectrum.add_argument("--tol", type=float, default=1e-8)
    spectrum.add_argument("--perturb", type=float, default=0.0,
                          help="debug: shift every eigenvalue before the residual check")
    spectrum.add_argument("--format", choices=["csv", "json"], default="csv")
    spectrum.add_argument("--out")
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

    pevp = sub.add_parser("pevp", help="per-mode polynomial pencil roots versus the companion oracle")
    pevp.add_argument("--input", required=True, help="JSON pencil description")
    pevp.add_argument("--tol", type=float, default=1e-8)
    pevp.add_argument("--out")
    pevp.set_defaults(func=_cmd_pevp)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SpecmatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

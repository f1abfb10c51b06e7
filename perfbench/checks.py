"""Correctness checks for every op, run outside the timed span.

Each check compares an op's output with a computation the benchmark does
itself: LAPACK through scipy for spectra, numpy roots of each mode
polynomial for ``pevp``, the paper's eigenvalue formulas in 50-digit mpmath
for the dispersion tables, and ``scipy.io.mmread`` for written files.
Nothing is compared against a stored copy of an earlier output.  The
matrices a reference needs are built once per distinct op and cached.
"""

from __future__ import annotations

import json
import re

import mpmath
import numpy as np
import scipy.io
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from specmat import cli, families

EPS = float(np.finfo(float).eps)
# eigenvalues against LAPACK, relative to the largest eigenvalue magnitude
HERMITIAN_VALUE_TOL = 1e-11
GENERAL_VALUE_TOL = 1e-10
# per-mode residual column of ``spectrum``
RESIDUAL_TOL = 1e-10
# tolerance the CLI applies to proven identities by default
IDENTITY_TOL = 1e-8
# dispersion tables against 50-digit formulas, in units of eps * max|lambda|
TABLE_ULPS = 16
# slack of the Rayleigh-Ritz and FDM bounds, in units of eps * (j pi)^2
BOUND_ULPS = 4

SPECTRUM_HEADER = ("mode_index,lambda_re,lambda_im,residual,"
                   "oracle_lambda_re,oracle_lambda_im,oracle_distance")
PEVP_HEADER = "mode_index,root_index,lambda_re,lambda_im,oracle_distance"
DISPERSION_HEADER = "j,lambda_h,lambda_exact,rel_error,branch"

mpmath.mp.dps = 50


class CheckError(Exception):
    """An op's output disagrees with the benchmark's own computation."""


class KnownFault(CheckError):
    """The one fault the benchmark keeps on purpose: fem2 below the
    Rayleigh-Ritz bound.  Counted in ``failed``; ``correct`` stays true."""


def _options(argv) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


def _csv(text: str, header: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"unexpected header {lines[:1]!r}")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        raise CheckError("ragged CSV rows")
    return rows


def _require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


def _match(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """``reference`` reordered to pair with ``values`` by optimal assignment."""
    cost = np.abs(values[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    paired = np.empty_like(reference)
    paired[rows] = reference[cols]
    return paired


def _mode_angles(variant: int, n: int) -> np.ndarray:
    """The paper's mode angles for the four boundary-correction sets."""
    if variant == 1:
        return np.arange(1, n + 1) * np.pi / (n + 1)
    if variant == 2:
        return np.arange(1, n + 1) * np.pi / n
    if variant == 3:
        return np.arange(n) * np.pi / (n - 1)
    return np.arange(n) * np.pi / n


def _symbol(band, theta: np.ndarray) -> np.ndarray:
    band = np.asarray(band, dtype=complex)
    orders = np.arange(1, band.size)
    return band[0] + 2.0 * np.cos(np.outer(theta, orders)) @ band[1:]


def _parse_scalar(text: str) -> complex:
    """Inverse of ``cli.format_scalar``: ``a``, or ``a+bi`` / ``a-bi``."""
    if not text.endswith("i"):
        return complex(float(text))
    split = max(i for i, ch in enumerate(text[:-1]) if ch in "+-" and i > 0
                and text[i - 1] not in "eE")
    return complex(float(text[:split]), float(text[split:-1]))


_IDENTITY_LINE = re.compile(r"lhs=(\S+) rhs=(\S+) rel_diff=\S+( conditioning-warning)?$")
_SUMMARY_LINE = re.compile(r"max rel_diff = \S+ over (\d+) evaluations$")


class Checker:
    """Checks op outputs; caches the references of each distinct op."""

    def __init__(self):
        self._cache = {}

    def check(self, op, rc, out, err, arrays):
        if rc != 0:
            raise CheckError(f"exit code {rc}: {err.strip()[:200]}")
        command = op.argv[0]
        if command == "spectrum":
            self._spectrum(op, out)
        elif command == "pevp":
            self._pevp(op, out)
        elif command == "identity":
            self._identity(op, out)
        elif command == "dispersion":
            self._dispersion(op, out)
        elif command == "build":
            self._build(op, out, arrays)
        else:
            raise CheckError(f"no check for {command!r}")

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # ---------------------------------------------------------- spectrum

    @staticmethod
    def _pencil(argv):
        opts = _options(argv)
        family = opts["--family"]
        if family == "toeplitz-hankel":
            alpha, beta = cli.parse_band(opts["--alpha"]), cli.parse_band(opts["--beta"])
            width = max(alpha.size, beta.size)
            alpha, beta = (np.pad(b, (0, width - b.size)) for b in (alpha, beta))
            n, variant = int(opts["--n"]), int(opts["--variant"])
            return (families.assemble_toeplitz_hankel(alpha, n, variant),
                    families.assemble_toeplitz_hankel(beta, n, variant))
        if family == "corner-block":
            half_n = int(opts["--half-n"])
            return (families.build_corner_block(cli.parse_band(opts["--alpha"]), half_n),
                    families.build_corner_block(cli.parse_band(opts["--beta"]), half_n))
        if family == "fem-p2":
            return families.build_fem_p2(int(opts["--n-elems"]))
        return families.build_fem_p3(int(opts["--n-elems"]))

    def _spectrum_reference(self, argv):
        a, b = self._pencil(argv)
        hermitian = np.array_equal(a, a.conj().T) and np.array_equal(b, b.conj().T)
        if hermitian:
            values = scipy.linalg.eigh(a, b, eigvals_only=True).astype(complex)
        else:
            values = scipy.linalg.eig(a, b, right=False)
        return hermitian, values

    def _spectrum(self, op, out):
        hermitian, reference = self._cached(op.argv, lambda: self._spectrum_reference(op.argv))
        rows = _csv(out, SPECTRUM_HEADER)
        dim = reference.size
        _require(len(rows) == dim, f"{len(rows)} modes for dimension {dim}")
        table = np.array([[float(v) for v in row] for row in rows])
        _require(np.array_equal(table[:, 0], np.arange(1, dim + 1)), "mode indices are not 1..dim")
        values = table[:, 1] + 1j * table[:, 2]
        scale = float(np.max(np.abs(reference)))
        if hermitian:
            tol = HERMITIAN_VALUE_TOL * scale
            _require(np.max(np.abs(values.imag)) <= tol, "Hermitian pencil with complex eigenvalues")
            _require(np.min(values.real) >= -tol, "SPD pencil with a negative eigenvalue")
            gap = np.max(np.abs(np.sort(values.real) - np.sort(reference.real)))
        else:
            tol = GENERAL_VALUE_TOL * scale
            gap = np.max(np.abs(values - _match(values, reference)))
        _require(gap <= tol, f"eigenvalues differ from LAPACK by {gap:.3e} (tolerance {tol:.3e})")
        worst = float(np.max(table[:, 3]))
        _require(worst <= RESIDUAL_TOL, f"residual {worst:.3e} above {RESIDUAL_TOL:.0e}")
        distance = float(np.max(table[:, 6]))
        _require(distance <= tol, f"oracle distance {distance:.3e} above {tol:.3e}")

    # -------------------------------------------------------------- pevp

    @staticmethod
    def _pevp_reference(payload):
        bands = [[complex(cli.parse_complex_literal(v)) for v in band] for band in payload["bands"]]
        theta = _mode_angles(int(payload["variant"]), int(payload["n"]))
        coeffs = np.stack([_symbol(band, theta) for band in bands], axis=1)
        return [np.roots(c[::-1]) for c in coeffs]

    def _pevp(self, op, out):
        key = json.dumps(op.meta, sort_keys=True)
        reference = self._cached(key, lambda: self._pevp_reference(op.meta))
        rows = _csv(out, PEVP_HEADER)
        degree = reference[0].size
        _require(len(rows) == degree * len(reference),
                 f"{len(rows)} roots, expected {degree * len(reference)}")
        table = np.array([[float(v) for v in row] for row in rows])
        scale = max(1.0, max(float(np.max(np.abs(r))) for r in reference))
        tol = GENERAL_VALUE_TOL * scale
        for mode, expected in enumerate(reference, start=1):
            mine = table[table[:, 0] == mode]
            _require(mine.shape[0] == degree, f"mode {mode} has {mine.shape[0]} roots")
            roots = mine[:, 2] + 1j * mine[:, 3]
            gap = float(np.max(np.abs(roots - _match(roots, expected))))
            _require(gap <= tol, f"mode {mode} roots differ by {gap:.3e} (tolerance {tol:.3e})")
        distance = float(np.max(table[:, 4]))
        _require(distance <= tol, f"oracle distance {distance:.3e} above {tol:.3e}")

    # ---------------------------------------------------------- identity

    @staticmethod
    def _identity(op, out):
        lines = out.splitlines()
        summary = _SUMMARY_LINE.match(lines[-1]) if lines else None
        _require(summary is not None, "missing summary line")
        expected = op.meta["evaluations"]
        _require(int(summary.group(1)) == expected == len(lines) - 1,
                 f"{len(lines) - 1} evaluations, expected {expected}")
        for line in lines[:-1]:
            parsed = _IDENTITY_LINE.search(line)
            _require(parsed is not None, f"unparsed line {line[:80]!r}")
            if parsed.group(3):
                continue  # near-repeated eigenvalues: reported, not proven
            lhs, rhs = _parse_scalar(parsed.group(1)), _parse_scalar(parsed.group(2))
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
            _require(rel <= IDENTITY_TOL, f"identity off by {rel:.3e}: {line[:80]!r}")

    # -------------------------------------------------------- dispersion

    @staticmethod
    def _dispersion_reference(method: str, n: int):
        """Exact discrete eigenvalues and (j pi)^2, both in 50 digits."""
        mp = mpmath.mp
        cos_j = [mp.cos(mp.pi * j / n) for j in range(1, n)]
        n2 = mp.mpf(n) ** 2
        if method == "fdm":
            exact = [4 * n2 * mp.sin(mp.pi * j / (2 * n)) ** 2 for j in range(1, n)]
        elif method == "fem1":
            exact = [6 * n2 * (1 - c) / (2 + c) for c in cos_j]
        elif method == "iga2-example":
            exact = [n2 * (1 - 2 * c / 3 - (2 * c * c - 1) / 3)
                     / (mp.mpf(11) / 20 + 13 * c / 30 + (2 * c * c - 1) / 60) for c in cos_j]
        else:
            roots = [mp.sqrt(124 + 112 * c - 11 * c * c) for c in cos_j]
            exact = [4 * n2 * (13 + 2 * c - r) / (3 - c) for c, r in zip(cos_j, roots)]
            exact += [4 * n2 * (13 + 2 * c + r) / (3 - c) for c, r in zip(cos_j, roots)]
            exact.append(10 * n2)
        exact.sort()
        continuum = [(mp.pi * j) ** 2 for j in range(1, len(exact) + 1)]
        slack = BOUND_ULPS * EPS
        return {
            "lambda": np.array([float(v) for v in exact]),
            "continuum": np.array([float(v) for v in continuum]),
            "floor": np.array([float(v * (1 - slack)) for v in continuum]),
            "ceiling": np.array([float(v * (1 + slack)) for v in continuum]),
        }

    def _dispersion(self, op, out):
        opts = _options(op.argv)
        method, n = opts["--method"], int(opts["--n"])
        ref = self._cached((method, n), lambda: self._dispersion_reference(method, n))
        rows = _csv(out, DISPERSION_HEADER)
        dim = ref["lambda"].size
        _require(len(rows) == dim, f"{len(rows)} rows, expected {dim}")
        table = np.array([[float(v) for v in row[:4]] for row in rows])
        _require(np.array_equal(table[:, 0], np.arange(1, dim + 1)), "row indices are not 1..dim")
        lam = table[:, 1]
        tol = TABLE_ULPS * EPS * float(np.max(np.abs(ref["lambda"])))
        gap = float(np.max(np.abs(lam - ref["lambda"])))
        _require(gap <= tol, f"lambda_h off the 50-digit formula by {gap:.3e} (tolerance {tol:.3e})")
        exact_gap = np.max(np.abs(table[:, 2] - ref["continuum"]) / ref["continuum"])
        _require(exact_gap <= BOUND_ULPS * EPS, f"lambda_exact off (j pi)^2 by {exact_gap:.3e} relative")
        if method == "fdm":
            above = np.flatnonzero(lam > ref["ceiling"]) + 1
            _require(above.size == 0, f"FDM modes {above[:8].tolist()} above (j pi)^2")
        if method in ("fem1", "fem2"):
            below = np.flatnonzero(lam < ref["floor"]) + 1
            if below.size:
                message = f"{method} modes {below[:8].tolist()} below the Rayleigh-Ritz bound (j pi)^2"
                raise (KnownFault if method == "fem2" else CheckError)(message)

    # ------------------------------------------------------------- build

    @staticmethod
    def _build_reference(argv):
        opts = _options(argv)
        if opts["--family"] == "toeplitz-hankel":
            band = cli.parse_band(opts["--alpha"])
            return [families.assemble_toeplitz_hankel(band, int(opts["--n"]), int(opts["--variant"]))]
        return list(families.build_fem_p2(int(opts["--n-elems"])))

    def _build(self, op, out, arrays):
        expected = self._cached(op.argv, lambda: self._build_reference(op.argv))
        _require(out.splitlines() == [f"wrote {path}" for path in op.reads],
                 f"unexpected build report {out[:120]!r}")
        for path, matrix, read_back in zip(op.reads, expected, arrays):
            _require(read_back.shape == matrix.shape, f"{path}: shape {read_back.shape}")
            same_bits = np.array_equal(read_back.view(np.uint64), matrix.view(np.uint64))
            _require(same_bits, f"{path}: read_matrix_market is not bit for bit")
            parsed = scipy.io.mmread(path)
            parsed = parsed.toarray() if hasattr(parsed, "toarray") else np.asarray(parsed)
            _require(np.array_equal(parsed, matrix), f"{path}: scipy.io.mmread disagrees")

"""Operation lists for the three benchmark workloads.

An op is one user-level task: one ``specmat.cli.main`` call, or in
``tables-and-files`` a ``build`` followed by ``read_matrix_market`` on every
file it wrote.  A workload is a round of ops, the same in every run with the
same seed; a run repeats whole rounds.  The seed picks band values,
corner-block parameters and Hankel variants.  Sizes never depend on the
seed, so every seed costs about the same and the one known fault (``fem2``
below the Rayleigh-Ritz bound) fails the same share of ops in every run.
A round may hold several blocks of its op list, each with its own seeded
values, so that it averages over more seeded inputs.

Each op kind runs over a ladder of sizes that spans the same cost range as
the other kinds of its workload.  The latency distribution is then broad and
unimodal, so no boundary between kinds sits at p50 or p90, and a shift of the
host between its fast and slow phases moves p50 smoothly instead of making
it jump from one mode to the other.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from specmat import families

WORKLOADS = ("verify-large", "verify-small", "tables-and-files")

# Size ladders per op kind, full and smoke (see README.md for the calibration).
SIZES = {
    "verify-large": {
        "full": {"dims": tuple(range(121, 182, 4)), "blocks": 1},
        "smoke": {"dims": (9, 11, 13, 15), "blocks": 1},
    },
    "verify-small": {
        "full": {"th_n": (10, 11, 11, 12, 12, 13), "cb_half_n": (4, 4, 5, 5, 6, 6),
                 "p3_elems": (8, 10, 12, 14), "pevp_n": (35, 40, 45, 50, 55, 60),
                 "gevp_eve_n": (6, 6, 7, 7, 8), "eve_n": 8, "eve_random": (2, 3, 3, 4, 5),
                 "blocks": 2},
        "smoke": {"th_n": (5, 6), "cb_half_n": (2, 3), "p3_elems": (3,), "pevp_n": (6, 8),
                  "gevp_eve_n": (3,), "eve_n": 3, "eve_random": (1,), "blocks": 1},
    },
    "tables-and-files": {
        "full": {"disp_n": (1300, 1700, 2100), "fem2_n": (1000, 1000),
                 "th_real_n": (200, 250, 300), "th_complex_n": (650, 800, 950),
                 "p2_elems": (75, 90, 105), "blocks": 1},
        "smoke": {"disp_n": (30, 40), "fem2_n": (20,), "th_real_n": (10, 12),
                  "th_complex_n": (10, 12), "p2_elems": (4, 5), "blocks": 1},
    },
}

# The general (characteristic-polynomial) route fails to converge on some
# pencils with clustered eigenvalues, so the non-Hermitian pencils are drawn
# again until every two eigenvalues differ by this share of the largest.
MIN_RELATIVE_GAP = 0.02

IGA_ALPHA = "1,-1/3,-1/6"
IGA_BETA = "11/20,13/60,1/120"


@dataclass(frozen=True)
class Op:
    """One timed task: CLI arguments plus the Matrix Market files read back."""

    kind: str
    argv: tuple
    reads: tuple = ()
    meta: dict = field(default_factory=dict, hash=False, compare=False)


def literal(z: complex) -> str:
    """Exact CLI literal for a complex number with dyadic rational parts."""
    re_part, im_part = Fraction(z.real), Fraction(z.imag)
    if im_part == 0:
        return str(re_part)
    sign = "+" if im_part > 0 else "-"
    return f"{re_part}{sign}{abs(im_part)}i"


def band_text(values) -> str:
    return ",".join(literal(complex(v)) for v in values)


def _eighths(rng: random.Random, lo: int, hi: int) -> float:
    return rng.randint(lo, hi) / 8.0


def _above(bound: float) -> float:
    """The smallest multiple of 1/8 at or above ``bound``."""
    return math.ceil(8.0 * bound) / 8.0


def _dominant_band(rng: random.Random, width: int, complex_entries: bool, margin: float = 1.0):
    """A band whose symbol stays at least ``margin`` away from zero."""
    off = [complex(_eighths(rng, -8, 8), _eighths(rng, -8, 8) if complex_entries else 0.0)
           for _ in range(width)]
    lead = _above(2.0 * sum(abs(v) for v in off) + margin) + _eighths(rng, 0, 8)
    angle = complex(1.0, _eighths(rng, -4, 4)) if complex_entries else 1.0
    return [lead * angle] + off


def _spd_corner_block(rng: random.Random, complex_entries: bool = False):
    """Four corner-block parameters with a diagonally dominant matrix."""
    x1 = complex(_eighths(rng, -8, 8), _eighths(rng, -4, 4) if complex_entries else 0.0)
    x2 = complex(_eighths(rng, -8, 8), _eighths(rng, -4, 4) if complex_entries else 0.0)
    x0 = _above(2.0 * abs(x1) + 2.0 * abs(x2) + 1.0) + _eighths(rng, 0, 16)
    x3 = _above(2.0 * abs(x1) + 1.0) + _eighths(rng, 0, 16)
    if complex_entries:
        x0 = complex(x0, _eighths(rng, -8, 8))
        x3 = complex(x3, _eighths(rng, -8, 8))
    return [x0, x1, x2, x3]


def _recursion_degenerate(alpha, beta) -> bool:
    """True when alpha_1 beta_3 = alpha_3 beta_1: then lambda = alpha_3 / beta_3
    is a root of every mode's quadratic, the odd-entry recursion of
    ``corner_block_eigenpairs`` divides by zero, and each such mode's
    eigenvector is recovered numerically: about five times the cost of
    another pencil of its size."""
    return Fraction(alpha[1].real) * Fraction(beta[3].real) == Fraction(alpha[3].real) * Fraction(beta[1].real)


def _separated(a, b) -> bool:
    values = np.linalg.eigvals(np.linalg.solve(b, a))
    gaps = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(gaps, np.inf)
    return gaps.min() >= MIN_RELATIVE_GAP * np.abs(values).max()


def _verify_large(rng, sizes, out_dir, block):
    # the dimension ladder alternates toeplitz-hankel (variants 1-4 in turn)
    # with fem-p2 and corner-block, so every kind spans the whole ladder
    ops = []
    for i, dim in enumerate(sizes["dims"]):
        if i % 2 == 0:
            ops.append(Op("spectrum/toeplitz-hankel", (
                "spectrum", "--family", "toeplitz-hankel", "--n", str(dim),
                "--variant", str(i // 2 % 4 + 1), "--alpha", IGA_ALPHA, "--beta", IGA_BETA,
            )))
        elif i % 4 == 1:
            ops.append(Op("spectrum/fem-p2", (
                "spectrum", "--family", "fem-p2", "--n-elems", str((dim + 1) // 2),
            )))
        else:
            # a pencil with a degenerate recursion costs about five times
            # another; drawn by chance in about one seed of ten, it made the
            # cost of a round depend on the seed (see CHANGES.md, FOUND)
            while True:
                alpha, beta = _spd_corner_block(rng), _spd_corner_block(rng)
                if not _recursion_degenerate(alpha, beta):
                    break
            ops.append(Op("spectrum/corner-block", (
                "spectrum", "--family", "corner-block", "--half-n", str((dim - 1) // 2),
                "--alpha", band_text(alpha), "--beta", band_text(beta),
            )))
    return ops


def _verify_small(rng, sizes, out_dir, block):
    ops = []
    for n in sizes["th_n"]:
        while True:
            width, variant = rng.randint(1, 2), rng.randint(1, 4)
            alpha = _dominant_band(rng, width, complex_entries=True)
            beta = _dominant_band(rng, width, complex_entries=True)
            if _separated(families.assemble_toeplitz_hankel(alpha, n, variant),
                          families.assemble_toeplitz_hankel(beta, n, variant)):
                break
        ops.append(Op("spectrum/toeplitz-hankel-complex", (
            "spectrum", "--family", "toeplitz-hankel", "--n", str(n), "--variant", str(variant),
            "--alpha", band_text(alpha), "--beta", band_text(beta),
        )))
    for half_n in sizes["cb_half_n"]:
        while True:
            alpha = _spd_corner_block(rng, complex_entries=True)
            beta = _spd_corner_block(rng, complex_entries=True)
            if _separated(families.build_corner_block(alpha, half_n),
                          families.build_corner_block(beta, half_n)):
                break
        ops.append(Op("spectrum/corner-block-complex", (
            "spectrum", "--family", "corner-block", "--half-n", str(half_n),
            "--alpha", band_text(alpha), "--beta", band_text(beta),
        )))
    for n_elems in sizes["p3_elems"]:
        ops.append(Op("spectrum/fem-p3", (
            "spectrum", "--family", "fem-p3", "--n-elems", str(n_elems),
        )))
    for i, n in enumerate(sizes["pevp_n"]):
        width = rng.randint(1, 2)
        bands = [_dominant_band(rng, width, complex_entries=True) for _ in range(4)]
        path = out_dir / f"pevp-{block}-{i}.json"
        payload = {"variant": rng.randint(1, 4), "n": n,
                   "bands": [[literal(complex(v)) for v in band] for band in bands]}
        path.write_text(json.dumps(payload), encoding="ascii")
        ops.append(Op("pevp/cubic", ("pevp", "--input", str(path)), meta=payload))
    for n in sizes["gevp_eve_n"]:
        ops.append(Op("identity/gevp-eve", (
            "identity", "--kind", "gevp-eve", "--n", str(n),
            "--random", "1", "--seed", str(rng.randint(0, 10**6)),
        ), meta={"evaluations": n * n}))
    n = sizes["eve_n"]
    for trials in sizes["eve_random"]:
        ops.append(Op("identity/eve", (
            "identity", "--kind", "eve", "--n", str(n),
            "--random", str(trials), "--seed", str(rng.randint(0, 10**6)),
        ), meta={"evaluations": trials * n * n}))
    return ops


def _tables_and_files(rng, sizes, out_dir, block):
    ops = []
    for n in sizes["disp_n"]:
        for method in ("fdm", "fem1", "iga2-example"):
            ops.append(Op(f"dispersion/{method}", (
                "dispersion", "--method", method, "--n", str(n),
            )))
    # fem2 at n=1000 sits below the Rayleigh-Ritz bound at modes 1 and 3
    # (cancellation in the lower branch); a fixed size, so the failed share
    # is the same for every seed
    for n in sizes["fem2_n"]:
        ops.append(Op("dispersion/fem2", ("dispersion", "--method", "fem2", "--n", str(n))))
    for i, n in enumerate(sizes["th_real_n"]):
        band = _dominant_band(rng, rng.randint(1, 2), complex_entries=False)
        path = out_dir / f"th-real-{block}-{i}.mtx"
        ops.append(Op("build/toeplitz-hankel-real", (
            "build", "--family", "toeplitz-hankel", "--n", str(n),
            "--variant", str(rng.randint(1, 4)), "--alpha", band_text(band), "--out", str(path),
        ), reads=(str(path),)))
    for i, n in enumerate(sizes["th_complex_n"]):
        band = _dominant_band(rng, rng.randint(1, 2), complex_entries=True)
        path = out_dir / f"th-complex-{block}-{i}.mtx"
        ops.append(Op("build/toeplitz-hankel-complex", (
            "build", "--family", "toeplitz-hankel", "--n", str(n),
            "--variant", str(rng.randint(1, 4)), "--alpha", band_text(band), "--out", str(path),
        ), reads=(str(path),)))
    for i, n_elems in enumerate(sizes["p2_elems"]):
        prefix = out_dir / f"fem-p2-{block}-{i}"
        ops.append(Op("build/fem-p2", (
            "build", "--family", "fem-p2", "--n-elems", str(n_elems), "--out", str(prefix),
        ), reads=(f"{prefix}_K.mtx", f"{prefix}_M.mtx")))
    return ops


_BUILDERS = {
    "verify-large": _verify_large,
    "verify-small": _verify_small,
    "tables-and-files": _tables_and_files,
}


def build_round(workload: str, seed: int, out_dir: Path, smoke: bool = False) -> list:
    """The seeded round of ops for ``workload``; writes input files to ``out_dir``."""
    sizes = SIZES[workload]["smoke" if smoke else "full"]
    rng = random.Random(seed)
    return [op for block in range(sizes["blocks"])
            for op in _BUILDERS[workload](rng, sizes, out_dir, block)]

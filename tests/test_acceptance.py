"""Acceptance gate: every headline capability at its stated tolerance.

Each test prints one `[acceptance NN] name: PASS/FAIL` line (visible with
``pytest -s``) and fails loudly with the worst observed error otherwise.
"""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from specmat import (
    HankelVariant,
    PolynomialPencil,
    assemble_tensor_pencil,
    assemble_toeplitz_hankel,
    build_corner_block,
    build_fem_p2,
    corner_block_eigenpairs,
    eve_identity_evp,
    eve_identity_gevp,
    fem_p2_eigenpairs,
    fem_p3_bands,
    fem_p3_eigenpairs,
    fem_p3_eigenvalues,
    gevp_eigenpairs,
    pevp_eigenpairs,
    solve_gevp_numeric,
    tensor_eigenpairs,
    trig_identity,
    verify,
)
from specmat.cli import dispersion_rows

RNG = np.random.default_rng(20240614)


def _verdict(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {number:02d}] {name}: {status}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def _oracle_failures(check, bound, label):
    """A failure unless the oracle found as many values as the closed form and every distance is
    within ``bound``, which a NaN or infinite distance is not."""
    if not check.count_mismatch and np.all(check.distances <= bound):
        return []
    mismatch = ", another number of values" if check.count_mismatch else ""
    return [f"{label}worst oracle distance {np.max(check.distances):.2e}, bound {bound:.0e}{mismatch}"]


def _cosine_distance(u, v):
    return 1.0 - abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))


def test_01_set1_baseline():
    failures = []
    started = time.perf_counter()
    for n in (5, 50, 200):
        sol = gevp_eigenpairs([2.0, -1.0], [1.0, 0.0], n, HankelVariant.SET1)
        h = 1.0 / (n + 1)
        formula = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi * h)
        if np.max(np.abs(sol.values.real - formula)) > 1e-12:
            failures.append(f"n={n}: closed form drifted from the cosine formula")
        a = assemble_toeplitz_hankel([2.0, -1.0], n, 1)
        b = np.eye(n, dtype=complex)
        check = verify(sol, a, b)
        failures += _oracle_failures(check, 1e-10, f"n={n}: ")
        if not np.all(check.residuals <= 1e-10):
            failures.append(f"n={n}: residual {np.max(check.residuals):.2e} > 1e-10")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _verdict(1, "set-1 tridiagonal baseline", failures)


def test_02_linear_fem_pencil():
    failures = []
    n = 50
    sol = gevp_eigenpairs([2.0, -1.0], [2.0 / 3.0, 1.0 / 6.0], n, 1)
    h = 1.0 / (n + 1)
    formula = -6.0 + 18.0 / (2.0 + np.cos(np.arange(1, n + 1) * np.pi * h))
    if np.max(np.abs(sol.values.real - formula)) > 1e-12:
        failures.append("closed form drifted from -6 + 18/(2+cos)")
    a = assemble_toeplitz_hankel([2.0, -1.0], n, 1)
    b = assemble_toeplitz_hankel([2.0 / 3.0, 1.0 / 6.0], n, 1)
    failures += _oracle_failures(verify(sol, a, b), 1e-9, "")
    _verdict(2, "linear-element pencil", failures)


def test_03_bandwidth2_example():
    failures = []
    alpha = [1.0, -1.0 / 3.0, -1.0 / 6.0]
    beta = [11.0 / 20.0, 13.0 / 60.0, 1.0 / 120.0]
    for n in (6, 20):
        h = 1.0 / (n + 1)
        js = np.arange(1, n + 1)
        formula = -20.0 + 240.0 * (3.0 + 2.0 * np.cos(js * np.pi * h)) / (
            33.0 + 26.0 * np.cos(js * np.pi * h) + np.cos(2.0 * js * np.pi * h)
        )
        a = assemble_toeplitz_hankel(alpha, n, 1)
        b = assemble_toeplitz_hankel(beta, n, 1)
        sol = gevp_eigenpairs(alpha, beta, n, 1)
        if np.max(np.abs(sol.values.real - formula)) > 1e-11:
            failures.append(f"n={n}: symbol ratio disagrees with printed formula")
        # the printed formula, mode j for mode j, in place of the closed form's values
        failures += _oracle_failures(verify(replace(sol, values=formula), a, b), 1e-9, f"n={n}: formula vs ")
    _verdict(3, "bandwidth-2 corrected pencil", failures)


def test_04_complex_set3_example():
    failures = []
    alpha = [8 + 2j, 5 - 1j, 2j]
    beta = [6.0, 3j, 1 - 1j]
    s2 = np.sqrt(2.0)
    listed_values = np.array(
        [
            2 - 0.5j,
            (7 - 3j + (6 - 5j) * s2) / 9,
            1.4 - 1.2j,
            -0.625 + 0.375j,
            (7 - 3j - (6 - 5j) * s2) / 9,
        ]
    )
    listed_vectors = [
        np.array([1, 1, 1, 1, 1], dtype=complex),
        np.array([1, 1 / s2, 0, -1 / s2, -1], dtype=complex),
        np.array([1, 0, -1, 0, 1], dtype=complex),
        np.array([1, -1, 1, -1, 1], dtype=complex),
        np.array([-1, 1 / s2, 0, -1 / s2, 1], dtype=complex),
    ]
    a = assemble_toeplitz_hankel(alpha, 5, 3)
    b = assemble_toeplitz_hankel(beta, 5, 3)
    for label, solution in (
        ("analytic", gevp_eigenpairs(alpha, beta, 5, 3)),
        ("oracle", solve_gevp_numeric(a, b)),
    ):
        for value, vector in zip(listed_values, listed_vectors):
            idx = int(np.argmin(np.abs(solution.values - value)))
            if abs(solution.values[idx] - value) > 1e-9:
                failures.append(f"{label}: eigenvalue {value:.4f} off by "
                                f"{abs(solution.values[idx] - value):.2e}")
            distance = _cosine_distance(solution.vectors[:, idx], vector)
            if distance > 1e-8:
                failures.append(f"{label}: eigenvector for {value:.4f} cosine "
                                f"distance {distance:.2e}")
    _verdict(4, "complex 5x5 example", failures)


def test_05_set4_example():
    failures = []
    s2 = np.sqrt(2.0)
    listed_values = np.array([21 / 13, (5 + 4 * s2) / 7, 1.0, (5 - 4 * s2) / 7])
    listed_vectors = [
        np.array([1.0, 1.0, 1.0, 1.0]),
        np.array([1.0, s2 - 1, 1 - s2, -1.0]),
        np.array([1.0, -1.0, -1.0, 1.0]),
        np.array([-1.0, 1 + s2, -1 - s2, 1.0]),
    ]
    sol = gevp_eigenpairs([7.0, 5.0, 2.0], [5.0, 3.0, 1.0], 4, 4)
    for value, vector in zip(listed_values, listed_vectors):
        idx = int(np.argmin(np.abs(sol.values - value)))
        if abs(sol.values[idx] - value) > 1e-10:
            failures.append(f"eigenvalue {value:.6f} off by {abs(sol.values[idx] - value):.2e}")
        distance = _cosine_distance(sol.vectors[:, idx], vector)
        if distance > 1e-8:
            failures.append(f"eigenvector for {value:.6f} cosine distance {distance:.2e}")
    a = assemble_toeplitz_hankel([7.0, 5.0, 2.0], 4, 4)
    b = assemble_toeplitz_hankel([5.0, 3.0, 1.0], 4, 4)
    failures += _oracle_failures(verify(sol, a, b), 1e-10, "")
    _verdict(5, "4x4 half-shifted cosine example", failures)


def _closed_form_5x5(alpha):
    a0, a1, a2, a3 = alpha
    first = 0.5 * (a0 + a2 + a3 + np.sqrt(12 * a1 ** 2 + (a0 + a2 - a3) ** 2 + 0j))
    second = 0.5 * (a0 + a2 + a3 - np.sqrt(12 * a1 ** 2 + (a0 + a2 - a3) ** 2 + 0j))
    third = 0.5 * (a0 - a2 + a3 + np.sqrt(4 * a1 ** 2 + (a0 - a2 - a3) ** 2 + 0j))
    fourth = 0.5 * (a0 - a2 + a3 - np.sqrt(4 * a1 ** 2 + (a0 - a2 - a3) ** 2 + 0j))
    return np.array([a3, first, second, third, fourth], dtype=complex)


def test_06_corner_block_and_quadratic_fem():
    failures = []
    for trial in range(3):
        alpha = np.array(
            [
                float(Fraction(int(RNG.integers(-9, 10)), int(RNG.integers(1, 7))))
                for _ in range(4)
            ]
        )
        if alpha[3] == 0:
            alpha[3] = 2.0
        closed = _closed_form_5x5(alpha)
        sol = corner_block_eigenpairs(alpha, [1.0, 0.0, 0.0, 1.0], 2)
        gap = np.max(
            np.abs(np.sort_complex(sol.values) - np.sort_complex(closed))
        )
        if gap > 1e-12:
            failures.append(f"trial {trial}: closed forms differ by {gap:.2e}")
        # the printed closed form in place of the library's, paired with it in sorted order
        printed = np.empty(5, dtype=complex)
        printed[np.lexsort((sol.values.imag, sol.values.real))] = np.sort_complex(closed)
        check = verify(replace(sol, values=printed), build_corner_block(alpha, 2), np.eye(5, dtype=complex))
        failures += _oracle_failures(check, 1e-9, f"trial {trial}: ")
    for n_elems in (4, 16):
        sol = fem_p2_eigenpairs(n_elems)
        if sol.value_for_mode(n_elems) != 10.0 * n_elems ** 2:
            failures.append(f"n_elems={n_elems}: flat mode is not exactly 10 n^2")
        stiffness, mass = build_fem_p2(n_elems)
        failures += _oracle_failures(verify(sol, stiffness, mass), 1e-8, f"n_elems={n_elems}: ")
    _verdict(6, "corner-overlapped block pencils", failures)


def test_07_cubic_fem():
    failures = []
    for n_elems in (3, 8):
        values = fem_p3_eigenvalues(n_elems)
        sol = fem_p3_eigenpairs(n_elems)
        if not np.array_equal(sol.values, values):
            failures.append(f"n_elems={n_elems}: the eigenpairs' values are not the eigenvalues")
        check = verify(sol, *fem_p3_bands(n_elems))
        rel = check.distances / np.abs(values)
        if check.count_mismatch or not np.all(rel <= 1e-7):
            failures.append(f"n_elems={n_elems}: relative gap {np.max(rel):.2e} > 1e-7")
        for special in (10.0 * n_elems ** 2, 42.0 * n_elems ** 2):
            if special not in values.real:
                failures.append(f"n_elems={n_elems}: {special} missing from the spectrum")
    _verdict(7, "cubic-element pencil", failures)


def test_08_polynomial_pencils():
    failures = []
    for trial in range(20):
        q = int(RNG.integers(2, 4))
        m = int(RNG.integers(1, 3))
        n = int(RNG.integers(m + 1, 9))
        variant = HankelVariant(int(RNG.integers(1, 5)))
        bands = []
        for _ in range(q + 1):
            bands.append(RNG.standard_normal(m + 1) + 1j * RNG.standard_normal(m + 1))
        bands[-1][0] += 6.0  # keep the leading symbol bounded away from zero
        pencil = PolynomialPencil(bands=tuple(bands), variant=variant, n=n)
        analytic = pevp_eigenpairs(pencil)
        check = verify(analytic, *(assemble_toeplitz_hankel(band, n, variant) for band in bands))
        if check.route != "companion" or analytic.degree_drops:
            failures.append(f"trial {trial}: unexpected degree drop")
            continue
        failures += _oracle_failures(check, 1e-8, f"trial {trial} (q={q}, m={m}, n={n}, set {int(variant)}): ")
    _verdict(8, "polynomial pencil roots vs companion oracle", failures)


def test_09_tensor_product():
    failures = []
    cases = [
        ((3, [2.0, -1.0], [1.0, 0.0]), (3, [2.0, -1.0], [1.0, 0.0])),
        ((4, [2.0, -1.0], [2.0 / 3.0, 1.0 / 6.0]), (3, [2.0, -1.0], [1.0, 0.0])),
        ((2, [3.0, 1.0], [2.0, 0.5]), (4, [2.0, -1.0], [2.0 / 3.0, 1.0 / 6.0])),
    ]
    for (n, alpha_left, beta_left), (m, alpha_right, beta_right) in cases:
        left = gevp_eigenpairs(alpha_left, beta_left, n, 1)
        right = gevp_eigenpairs(alpha_right, beta_right, m, 1)
        combined = tensor_eigenpairs(left, right)
        a = assemble_toeplitz_hankel(alpha_left, n, 1)
        b = assemble_toeplitz_hankel(beta_left, n, 1)
        c = assemble_toeplitz_hankel(alpha_right, m, 1)
        d = assemble_toeplitz_hankel(beta_right, m, 1)
        lhs, rhs = assemble_tensor_pencil(a, b, c, d)
        failures += _oracle_failures(verify(combined, lhs, rhs), 1e-9, f"sizes ({n},{m}): ")
    _verdict(9, "tensor-product composition", failures)


def _random_hermitian_with_gaps(n, rng, gap=1e-4):
    while True:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a + a.conj().T
        if np.min(np.diff(np.linalg.eigvalsh(a))) >= gap:
            return a


def test_10_identities():
    failures = []
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        a = _random_hermitian_with_gaps(n, rng)
        j = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, n + 1))
        worst = max(worst, eve_identity_evp(a, j, k).rel_diff)
    if worst > 1e-8:
        failures.append(f"squared-entry identity rel_diff {worst:.2e} > 1e-8")

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        a = _random_hermitian_with_gaps(n, rng)
        basis = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = basis @ basis.conj().T + n * np.eye(n)
        j = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, n + 1))
        rep = eve_identity_gevp(a, b, j, k, form="proof")
        if not rep.conditioning_warning:
            worst = max(worst, rep.rel_diff)
    if worst > 1e-8:
        failures.append(f"pencil proof-form rel_diff {worst:.2e} > 1e-8")

    half = trig_identity("ti31", 2, 1)
    if abs(half.lhs - 0.5) > 1e-12 or abs(half.rhs - 0.5) > 1e-12:
        failures.append("smallest cosine identity is not 1/2 to 1e-12")
    worst = 0.0
    for n in range(2, 21):
        for k in range(1, n + 1):
            worst = max(worst, trig_identity("ti31", n, k).rel_diff)
            for l in range(2, n):
                worst = max(worst, trig_identity("ti3", n, k, l).rel_diff)
    if worst > 1e-8:
        failures.append(f"trig identities rel_diff {worst:.2e} > 1e-8")

    literal = eve_identity_gevp(
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 2.0]), 2, 1, form="literal"
    )
    if literal.rel_diff < 1e-3:
        failures.append("literal pencil form unexpectedly holds on the 2x2 counterexample")
    print(
        f"    literal-form counterexample documented: lhs={literal.lhs.real:.6f} "
        f"rhs={literal.rhs.real:.6f} rel_diff={literal.rel_diff:.3f}"
    )
    _verdict(10, "eigenvector-eigenvalue and trig identities", failures)


def test_11_dispersion_sanity():
    failures = []
    fdm_error = {n: dispersion_rows("fdm", n)[0][3] for n in (16, 32, 64)}
    for coarse, fine in ((16, 32), (32, 64)):
        ratio = fdm_error[coarse] / fdm_error[fine]
        if abs(ratio - 4.0) > 0.4:
            failures.append(f"difference-scheme ratio {ratio:.2f} not within 10% of 4")
    fem2_error = {n: dispersion_rows("fem2", n)[0][3] for n in (16, 32)}
    ratio = fem2_error[16] / fem2_error[32]
    if ratio <= 8.0:
        failures.append(f"quadratic-element ratio {ratio:.2f} <= 8")
    _verdict(11, "dispersion convergence orders", failures)

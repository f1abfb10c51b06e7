"""Command-line surface: parsing, exit codes, file and CSV outputs."""

import json
import re
import warnings

import numpy as np
import pytest

from specmat import (
    BadBandwidthError,
    HankelVariant,
    IdentityTable,
    assemble_toeplitz_hankel,
    build_corner_block,
    build_fem_p2,
    build_fem_p3,
    cli,
    fem_p2_eigenpairs,
    gevp_eigenpairs,
    pevp_eigenpairs,
    read_matrix_market,
    scale_pencil,
    solve_pevp_numeric,
    trig_identity_all,
    write_matrix_market,
)
from specmat import oracle
from specmat.families import SymmetricBand
from specmat.oracle import pair_values
from specmat.cli import (
    IGA2_EXAMPLE_MASS_BAND,
    IGA2_EXAMPLE_STIFF_BAND,
    LAPLACE_FDM_BAND,
    LAPLACE_FEM1_MASS_BAND,
    LAPLACE_FEM1_STIFF_BAND,
    _build_parser,
    _identity_tables,
    _scalar_column,
    _table_lines,
    _within,
    dispersion_rows,
    format_scalar,
    main,
    parse_complex_literal,
)


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", 2 + 0j),
            ("-1/3", complex(-1.0 / 3.0)),
            ("2i", 2j),
            ("-i", -1j),
            ("1-i", 1 - 1j),
            ("8+2i", 8 + 2j),
            ("5-1i", 5 - 1j),
            ("3/4+1/2i", 0.75 + 0.5j),
            ("0.25", 0.25 + 0j),
            ("13/60", complex(13.0 / 60.0)),
            # an exponent's sign stays in its term, and each part is read exactly
            ("1e3", 1000 + 0j),
            ("1e-3", 1e-3 + 0j),
            ("1E+3", 1000 + 0j),
            ("2.5e-1+1i", 0.25 + 1j),
            ("-1e-3i", -1e-3j),
            ("1e-3-2E-1i", 1e-3 - 0.2j),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_complex_literal(text) == expected

    @pytest.mark.parametrize("text", ["", "1+2", "i+i", "2x", "1/0", "1e", "1e+", "e3", "1e-3+", "1/2e3",
                                      "1e400", "1e+400", "-1E400i", "2+1e400i"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_complex_literal(text)


class TestBuild:
    def test_toeplitz_hankel_example(self, tmp_path):
        out = tmp_path / "a.mtx"
        code = main(
            [
                "build", "--family", "toeplitz-hankel", "--variant", "1",
                "--n", "6", "--m", "2", "--alpha", "1,-1/3,-1/6",
                "--out", str(out),
            ]
        )
        assert code == 0
        a = read_matrix_market(out)
        assert a.shape == (6, 6)
        assert a[0, 0].real == pytest.approx(7.0 / 6.0, abs=1e-15)
        from specmat import assemble_toeplitz_hankel

        rebuilt = assemble_toeplitz_hankel(
            np.array([1.0, -1.0 / 3.0, -1.0 / 6.0]), 6, 1
        )
        assert np.array_equal(a, rebuilt)  # file round-trips bit for bit

    def test_fem_p2_writes_stiffness_and_mass(self, tmp_path):
        prefix = tmp_path / "p2"
        code = main(["build", "--family", "fem-p2", "--n-elems", "4", "--out", str(prefix)])
        assert code == 0
        k = read_matrix_market(f"{prefix}_K.mtx")
        m = read_matrix_market(f"{prefix}_M.mtx")
        assert k.shape == (7, 7)
        assert m.shape == (7, 7)

    def test_missing_alpha_is_usage_error(self):
        assert main(["build", "--family", "toeplitz-hankel", "--n", "6"]) == 2

    def test_unknown_family_is_usage_error(self, capsys):
        assert main(["build", "--family", "circulant", "--n", "6"]) == 2
        capsys.readouterr()

    def test_overlap_violation_is_validation_error(self, tmp_path):
        code = main(
            [
                "build", "--family", "toeplitz-hankel", "--variant", "2",
                "--n", "4", "--alpha", "1,2,3,4", "--out", str(tmp_path / "x.mtx"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha, n", [
        ("4,-1,1/4", 9), ("4+1i,-1+1/2i,1/4i", 9), ("2,0,-1/2", 7), ("3,1/2i,0", 8),
        ("5/2,-1,1/4", 3), ("4-1i,1/2+1/8i,1/4", 3), ("2,-1", 2), ("2+1i,-1i", 2),
    ], ids=["real", "complex", "zero-diagonal", "zero-corner", "real-overlap", "complex-overlap",
            "m1-real", "m1-complex"])
    def test_toeplitz_hankel_writes_the_bytes_of_the_dense_builder(self, tmp_path, variant, alpha, n):
        # the overlap edge n = 2m - 1 is n = 3 for m = 2; for m = 1 the smallest n is 2
        self._assert_same_bytes(
            tmp_path, ["--family", "toeplitz-hankel", "--variant", str(variant), "--n", str(n), "--alpha", alpha],
            [assemble_toeplitz_hankel(cli.parse_band(alpha), n, variant)])

    @pytest.mark.parametrize("alpha", ["5,-1,1/2,4", "5+1i,-1,0,4-1/2i", "0,0,0,0"])
    @pytest.mark.parametrize("half_n", [1, 4])
    def test_corner_block_writes_the_bytes_of_the_dense_builder(self, tmp_path, alpha, half_n):
        self._assert_same_bytes(tmp_path, ["--family", "corner-block", "--half-n", str(half_n), "--alpha", alpha],
                                [build_corner_block(cli.parse_band(alpha), half_n)])

    @pytest.mark.parametrize("family, builder", [("fem-p2", build_fem_p2), ("fem-p3", build_fem_p3)])
    @pytest.mark.parametrize("n_elems", [2, 7])
    def test_fem_writes_the_bytes_of_the_dense_builder(self, tmp_path, family, builder, n_elems):
        self._assert_same_bytes(tmp_path, ["--family", family, "--n-elems", str(n_elems)], builder(n_elems))

    @pytest.mark.parametrize("argv, build, dtype", [
        (["--family", "toeplitz-hankel", "--variant", "2", "--n", "9", "--alpha", "5/2,-3/4,1/8"],
         lambda: [assemble_toeplitz_hankel([5 / 2, -3 / 4, 1 / 8], 9, 2)], np.float64),
        (["--family", "toeplitz-hankel", "--variant", "3", "--n", "9", "--alpha", "3+1i,-1/2+1/4i,1/8i"],
         lambda: [assemble_toeplitz_hankel([3 + 1j, -1 / 2 + 1j / 4, 1j / 8], 9, 3)], np.complex128),
        (["--family", "corner-block", "--half-n", "4", "--alpha", "5,-1,1/2,4"],
         lambda: [build_corner_block([5, -1, 1 / 2, 4], 4)], np.float64),
        (["--family", "corner-block", "--half-n", "4", "--alpha", "5+1i,-1,0,4-1/2i"],
         lambda: [build_corner_block([5 + 1j, -1, 0, 4 - 1j / 2], 4)], np.complex128),
        # xi[2] couples nothing at half_n = 1: no entry has an imaginary part, the band is complex all the same
        (["--family", "corner-block", "--half-n", "1", "--alpha", "5,-1,1/2i,4"],
         lambda: [build_corner_block([5, -1, 1j / 2, 4], 1)], np.complex128),
        (["--family", "fem-p2", "--n-elems", "6"], lambda: build_fem_p2(6), np.float64),
        (["--family", "fem-p3", "--n-elems", "5"], lambda: build_fem_p3(5), np.float64),
    ], ids=["th-real", "th-complex", "corner-block-real", "corner-block-complex", "corner-block-hidden-imaginary",
            "fem-p2", "fem-p3"])
    def test_files_read_back_as_the_dense_builders(self, tmp_path, argv, build, dtype):
        """The benchmark's check of ``build``: each file read back has the shape, dtype and bits
        of the public dense builder's matrix."""
        out = tmp_path / "built"
        assert main(["build", *argv, "--out", str(out)]) == 0
        matrices = build()
        paths = [out] if len(matrices) == 1 else [f"{out}_{name}.mtx" for name in "KM"]
        for path, matrix in zip(paths, matrices):
            back = read_matrix_market(path)
            assert back.shape == matrix.shape and back.dtype == matrix.dtype == dtype
            assert np.array_equal(back.view(np.uint64), matrix.view(np.uint64))

    @staticmethod
    def _assert_same_bytes(tmp_path, argv, matrices):
        """``build`` writes from the band the bytes that ``write_matrix_market`` writes from each dense matrix."""
        out = tmp_path / "built"
        assert main(["build", *argv, "--out", str(out)]) == 0
        paths = [out] if len(matrices) == 1 else [f"{out}_{name}.mtx" for name in "KM"]
        for path, matrix in zip(paths, matrices):
            write_matrix_market(matrix, tmp_path / "dense.mtx")
            with open(path, "rb") as built, open(tmp_path / "dense.mtx", "rb") as dense:
                assert built.read() == dense.read()

    def test_inconsistent_m_is_validation_error(self, tmp_path):
        code = main(
            [
                "build", "--family", "toeplitz-hankel", "--n", "6", "--m", "3",
                "--alpha", "1,-1/3", "--out", str(tmp_path / "x.mtx"),
            ]
        )
        assert code == 2


class TestSpectrum:
    def test_set1_baseline(self, capsys):
        code = main(
            [
                "spectrum", "--family", "toeplitz-hankel", "--variant", "1",
                "--n", "5", "--alpha", "2,-1", "--beta", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "mode_index,lambda_re,lambda_im,residual,"
            "oracle_lambda_re,oracle_lambda_im,oracle_distance"
        )
        row3 = lines[3].split(",")
        assert float(row3[1]) == pytest.approx(2.0, abs=1e-14)  # 2 - 2cos(pi/2)

    @pytest.mark.parametrize(
        "argv",
        [
            # six eigenvalues within 0.02 of 1.1
            ["--family", "corner-block", "--half-n", "5",
             "--alpha", "4-7/8i,5/8+1/4i,-3/8+1/8i,15/4+1/2i",
             "--beta", "45/8,3/4+3/8i,1/4+1/2i,27/8+3/4i"],
            # non-Hermitian at dimension 17
            ["--family", "toeplitz-hankel", "--n", "17", "--alpha", "2+1i,-1", "--beta", "1,0.1"],
        ],
        ids=["clustered-corner-block", "non-hermitian-dim-17"],
    )
    def test_general_oracle_route(self, capsys, argv):
        code = main(["spectrum", *argv])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.max(table[:, 3]) < 1e-13     # closed-form residuals
        assert np.max(table[:, 6]) < 1e-13     # distance to the oracle's values

    @pytest.mark.parametrize("alpha", ["5,1,-1/2,3", "1/20000000,1/100000000,-1/200000000,3/100000000"],
                             ids=["beta-scaled", "both-scaled"])
    def test_corner_block_scaled_by_1e_8_keeps_its_modes(self, capsys, alpha):
        # beta is (4, 1/2, 1/4, 2) times 1e-8, so the quadratic's coefficients are
        # near 1e-16 and only a zero test that scales with the pencil keeps every mode
        assert main(["spectrum", "--family", "corner-block", "--half-n", "5", "--alpha", alpha,
                     "--beta", "1/25000000,1/200000000,1/400000000,1/50000000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 12))
        assert max(float(line.split(",")[3]) for line in lines[1:]) <= 1e-15

    def test_no_oracle_drops_columns(self, capsys):
        code = main(
            [
                "spectrum", "--family", "toeplitz-hankel", "--n", "4",
                "--alpha", "2,-1", "--beta", "1", "--no-oracle",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "mode_index,lambda_re,lambda_im,residual"

    def test_fem_p2_row_with_flat_mode(self, capsys):
        code = main(["spectrum", "--family", "fem-p2", "--n-elems", "4"])
        out = capsys.readouterr().out
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert any(v == pytest.approx(160.0, abs=1e-9) for v in values)

    def test_perturbation_trips_tolerance_gate(self, capsys):
        code = main(
            [
                "spectrum", "--family", "toeplitz-hankel", "--n", "5",
                "--alpha", "2,-1", "--beta", "1", "--perturb", "0.01",
            ]
        )
        capsys.readouterr()
        assert code == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # residuals of infinite values warn nothing
    @pytest.mark.parametrize("perturb", ["nan", "inf"])
    def test_non_finite_values_trip_tolerance_gate(self, capsys, perturb):
        code = main(["spectrum", "--family", "fem-p2", "--n-elems", "5", "--perturb", perturb])
        assert code == 3
        assert capsys.readouterr().err == "error: max residual nan exceeds tolerance 1.000e-08\n"

    def test_json_format(self, capsys):
        code = main(
            [
                "spectrum", "--family", "toeplitz-hankel", "--n", "3",
                "--alpha", "2,-1", "--beta", "1", "--format", "json", "--no-oracle",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert rows[0]["mode_index"] == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("perturb", ["nan", "inf", "-inf"])
    def test_json_writes_non_finite_numbers_as_null(self, capsys, perturb):
        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        code = main(["spectrum", "--family", "fem-p2", "--n-elems", "2", "--perturb", perturb, "--format", "json"])
        captured = capsys.readouterr()
        rows = json.loads(captured.out, parse_constant=refuse)
        assert code == 3 and captured.err == "error: max residual nan exceeds tolerance 1.000e-08\n"
        assert len(rows) == 3
        for row in rows:
            # the shifted value, its residual and its distance to the oracle are not finite
            assert row["lambda_re"] is row["residual"] is row["oracle_distance"] is None
            assert row["lambda_im"] == 0.0 and np.isfinite(row["oracle_lambda_re"])

    def test_complex_bands(self, capsys):
        code = main(
            [
                "spectrum", "--family", "toeplitz-hankel", "--variant", "3",
                "--n", "5", "--alpha", "8+2i,5-i,2i", "--beta", "6,3i,1-i",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_corner_block_defaults_to_identity_b(self, capsys):
        code = main(
            ["spectrum", "--family", "corner-block", "--alpha", "2,-1,0,2",
             "--half-n", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        values = sorted(float(line.split(",")[1]) for line in out.strip().splitlines()[1:])
        expected = sorted([2.0, 2 - np.sqrt(3), 2 + np.sqrt(3), 3.0, 1.0])
        assert np.allclose(values, expected, atol=1e-10)

    def test_fem_p3_uses_closed_form_vectors(self, capsys):
        code = main(["spectrum", "--family", "fem-p3", "--n-elems", "3", "--tol", "1e-8"])
        out = capsys.readouterr().out
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 8
        assert max(float(r.split(",")[3]) for r in rows) < 1e-12

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "spectrum.csv"
        code = main(
            ["spectrum", "--family", "toeplitz-hankel", "--n", "4",
             "--alpha", "2,-1", "--beta", "1", "--no-oracle", "--out", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        assert target.read_text().startswith("mode_index,lambda_re")


def _per_field_rows(rows):
    """The per-field formatter that the one-``%`` table formatter replaced; pins the CSV text."""
    return [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) for row in rows]


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("z, text", [
    (_NAN, "nan"), (_INF, "inf"), (-_INF, "-inf"), (-0.0, "-0"), (complex(-0.0, -0.0), "-0"),
    (complex(1.5, 9e-13), "1.5"), (complex(1.5, -9e-13), "1.5"), (complex(0.0, 1e-12), "0+1e-12i"),
    (complex(2.0, -1.0 / 3.0), "2-0.333333333333i"), (complex(_NAN, _NAN), "nan-nani"),
    (complex(_INF, -_INF), "inf-infi"), (complex(-_INF, 0.0), "-inf"), (complex(1.0, _NAN), "1-nani"),
    (complex(-0.0, -1e-300), "-0"), (complex(123456789.0123, 2.5), "123456789.012+2.5i"),
])
def test_format_scalar_is_an_entry_of_the_column(z, text):
    """One formatter: a scalar reads as its entry in a column, and as ``%.12g`` of each part."""
    assert format_scalar(z) == text
    column = [1.0, z, complex(_NAN, 1e-13)]
    assert _scalar_column(column) == [format_scalar(v) for v in column] == ["1", text, "nan"]


def test_within_fails_on_nan_and_values_above_the_tolerance():
    assert _within(np.array([0.0, 1e-9, 1e-8]), 1e-8)
    assert _within([], 1e-8)
    assert not _within(np.array([0.0, np.nan, 0.0]), 1e-8)
    assert not _within([np.nan], np.inf)
    assert not _within(np.array([np.inf]), 1e-8)
    assert not _within([1e-8, 2e-8], 1e-8)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "fem-p2", "--n-elems", "5"],
    ["identity", "--kind", "eve", "--n", "4"],
    ["pevp", "--input", "pencil.json"],
], ids=["spectrum", "identity", "pevp"])
@pytest.mark.parametrize("nan", ["nan", "NaN"])
def test_nan_tolerance_is_usage_error(capsys, argv, nan):
    # no value is within a NaN tolerance, so every gate would fail
    assert main([*argv, "--tol", nan]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[0]} needs a --tol that is not NaN\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "fem-p2", "--n-elems", "5"],
    ["identity", "--kind", "eve", "--n", "4"],
    ["pevp", "--input", "pencil.json"],
], ids=["spectrum", "identity", "pevp"])
@pytest.mark.parametrize("tol", ["-1", "-1e-9", "-inf"])
def test_negative_tolerance_is_usage_error(capsys, argv, tol):
    # no residual, distance or rel_diff is below 0, so every gate would fail on correct output
    assert main([*argv, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[0]} needs a --tol that is at least 0\n"


def test_an_infinite_tolerance_passes_every_gate(capsys):
    argv = ["spectrum", "--family", "fem-p2", "--n-elems", "5", "--perturb", "0.5", "--tol", "inf"]
    assert main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "toeplitz-hankel", "--alpha", "2,-1", "--beta", "1,0"],
    ["dispersion", "--method", "fem2"],
], ids=["spectrum", "dispersion"])
def test_an_n_too_large_for_a_float_is_a_usage_error(capsys, argv):
    # pevp's n is in TestPevpCommand.test_error_contract
    assert main([*argv, "--n", str(10**400)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: n is too large for a float\n"


@pytest.mark.parametrize("argv, name", [
    (["spectrum", "--family", "corner-block", "--alpha", "5,1,-1/2,3", "--half-n"], "half_n"),
    (["spectrum", "--family", "fem-p2", "--n-elems"], "n_elems"),
    (["spectrum", "--family", "fem-p3", "--n-elems"], "n_elems"),
    (["build", "--family", "fem-p2", "--n-elems"], "n_elems"),
    (["identity", "--kind", "ti31", "--n"], "n"),
], ids=["corner-block", "fem-p2", "fem-p3", "build-fem-p2", "ti31"])
def test_every_size_too_large_for_a_float_is_a_usage_error(capsys, tmp_path, monkeypatch, argv, name):
    monkeypatch.chdir(tmp_path)  # build writes nothing, but where it would is the test's own
    assert main([*argv, str(10**400)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {name} is too large for a float\n"


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--family", "toeplitz-hankel", "--alpha", "2,-1", "--beta", "1,0", "--n", "1000000000000000"],
     r"Unable to allocate 7\.11 PiB [^\n]*"),
    (["spectrum", "--family", "fem-p2", "--n-elems", "1000000000000000"], r"Unable to allocate [^\n]*"),
    (["dispersion", "--method", "fem2", "--n", "1000000000000000"], r"Unable to allocate [^\n]*"),
    (["identity", "--kind", "ti31", "--n", "1000000000000000"], "MemoryError"),  # Python's list, no message
], ids=["toeplitz-hankel", "fem-p2", "dispersion-fem2", "ti31"])
def test_an_array_too_large_to_allocate_is_a_usage_error(capsys, argv, message):
    # petabytes: the first array is refused at once, and nothing large is allocated
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and re.fullmatch(f"error: {message}\n", captured.err)


class TestCsvTables:
    # the fields of each command's rows: an integer (d), a float (f) or a string (s); the first is
    # written by %d, a string by %s, the rest by %.17g, where pevp's whole-number root index
    # formats as by %d
    @pytest.mark.parametrize("kinds", ["dfff", "dffffff", "ddfff", "dfffs"],
                             ids=["spectrum", "spectrum-oracle", "pevp", "dispersion"])
    def test_rows_match_the_per_field_formatter(self, kinds):
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308,
                   1.0 / 3.0, -2.5e-17, 160.0, 9.8716978898774279]
        rng = np.random.default_rng(8)
        columns = [list(range(1, 41)) if kind == "d" else ["", "minus", "10n^2", "plus"] * 10 if kind == "s"
                   else [np.float64(v) for v in np.concatenate(
                       (special, rng.standard_normal(29) * 10.0 ** rng.integers(-20, 20, 29)))]
                   for kind in kinds]
        template = "%d" + "".join(",%s" if kind == "s" else ",%.17g" for kind in kinds[1:])
        rows = list(zip(*columns))
        assert _table_lines(template, [[v.item() if isinstance(v, np.float64) else v for v in row]
                                       for row in rows]) == ["\n".join(_per_field_rows(rows))]
        assert _table_lines(template, []) == []

    @pytest.mark.parametrize("method", ["fdm", "fem1", "fem2", "iga2-example"])
    def test_dispersion_output_is_the_per_field_format(self, capsys, method):
        assert main(["dispersion", "--method", method, "--n", "12"]) == 0
        rows = _per_field_rows(dispersion_rows(method, 12))
        assert capsys.readouterr().out == "\n".join(["j,lambda_h,lambda_exact,rel_error,branch", *rows]) + "\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # residuals of infinite values warn nothing
    def test_nan_and_inf_rows_end_to_end(self, capsys):
        for perturb in ("nan", "inf"):
            main(["spectrum", "--family", "fem-p2", "--n-elems", "3", "--perturb", perturb])
            captured = capsys.readouterr()
            lines = captured.out.splitlines()
            assert lines[1].split(",")[1] == perturb
            assert len(lines) == 6 and all(line.count(",") == 6 for line in lines)
            assert captured.err == "error: max residual nan exceeds tolerance 1.000e-08\n"


class TestNegativeBands:
    """A band whose first entry is negative is the value of ``--alpha`` or ``--beta``,
    and a negative number in any form the value of ``--perturb`` or ``--tol``,
    written after a space as after ``=``."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--family", "toeplitz-hankel", "--n", "3", "--alpha", "2,-1", "--beta", "-1,1/5"],
        ["spectrum", "--family", "toeplitz-hankel", "--n", "5", "--alpha", "-2,1", "--beta", "-1/2i,1/8"],
        ["spectrum", "--family", "corner-block", "--half-n", "2", "--alpha", "-4,1,1/2,-3", "--no-oracle"],
        ["identity", "--kind", "ti3g", "--n", "4", "--alpha", "-2,1", "--beta", "-2/3,1/6"],
    ], ids=["spectrum-beta", "spectrum-alpha-and-imaginary-beta", "corner-block-alpha", "identity"])
    def test_spectrum_and_identity(self, capsys, argv):
        joined = []
        for token in argv:  # each band option and its value as one --option=value token
            if joined and joined[-1] in ("--alpha", "--beta"):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        assert main(joined) == 0
        want = capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == want

    def test_build(self, tmp_path, capsys):
        written = []
        for alpha in (["--alpha", "-1,1/2"], ["--alpha=-1,1/2"]):
            path = tmp_path / f"t{len(written)}.mtx"
            assert main(["build", "--family", "toeplitz-hankel", "--n", "5", *alpha, "--out", str(path)]) == 0
            written.append(read_matrix_market(path))
        capsys.readouterr()
        assert np.array_equal(written[0], written[1])
        assert written[0][0, 0] == -1.0 and written[0][0, 1] == 0.5

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # residuals of infinite values warn nothing
    @pytest.mark.parametrize("option, value, code, error", [
        ("--perturb", "-1e-3", 3, r"error: max residual \S+ exceeds tolerance \S+\n"),  # every residual fails
        ("--tol", "-1e-9", 2, r"error: spectrum needs a --tol that is at least 0\n"),  # read as a number
        ("--perturb", "-inf", 3, r"error: max residual \S+ exceeds tolerance \S+\n"),
    ], ids=["--perturb--1e-3", "--tol--1e-9", "--perturb--inf"])
    def test_numbers_in_exponent_form(self, capsys, option, value, code, error):
        argv = ["spectrum", "--family", "fem-p2", "--n-elems", "3"]
        assert main([*argv, f"{option}={value}"]) == code
        want = capsys.readouterr()
        assert re.fullmatch(error, want.err)
        assert main([*argv, option, value]) == code
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--family", "toeplitz-hankel", "--n", "5", "--alpha", "1e+400,1", "--beta", "1,0"],
        ["identity", "--kind", "ti3g", "--n", "5", "--alpha", "2,1E400", "--beta", "1,0"],
    ], ids=["spectrum", "identity"])
    def test_a_band_entry_too_large_for_a_float_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad complex literal" in err and err.count("\n") == 1

    def test_a_missing_value_is_still_a_usage_error(self, capsys):
        assert main(["spectrum", "--family", "toeplitz-hankel", "--n", "3", "--beta", "1", "--alpha"]) == 2
        assert "argument --alpha: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("tail", [["--tol"], ["--perturb", "--no-oracle"]], ids=["tol", "perturb"])
    def test_a_missing_number_is_still_a_usage_error(self, capsys, tail):
        assert main(["spectrum", "--family", "fem-p2", "--n-elems", "3", *tail]) == 2
        assert f"argument {tail[0]}: expected one argument" in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds its parser once; no call may see another call's options."""

    DEFAULT_CALLS = [
        ["spectrum", "--family", "toeplitz-hankel", "--n", "5", "--alpha", "2,-1", "--beta", "1"],
        ["identity", "--kind", "gevp-eve", "--n", "3"],
        ["dispersion", "--method", "fdm", "--n", "6"],
    ]

    def _run(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_options_do_not_leak_between_calls(self, tmp_path, capsys):
        before = [self._run(capsys, argv) for argv in self.DEFAULT_CALLS]
        non_default = [
            ["spectrum", "--family", "toeplitz-hankel", "--n", "5", "--alpha", "2,-1",
             "--beta", "1", "--variant", "2", "--no-oracle", "--format", "json",
             "--perturb", "0.5", "--tol", "10", "--out", str(tmp_path / "s.json")],
            ["identity", "--kind", "gevp-eve", "--n", "3", "--random", "2", "--seed", "5",
             "--form", "literal", "--tol", "1"],
            ["dispersion", "--method", "fem2", "--n", "4", "--out", str(tmp_path / "d.csv")],
            ["build", "--family", "fem-p2", "--n-elems", "2", "--out", str(tmp_path / "p2")],
        ]
        for argv in non_default:
            assert self._run(capsys, argv)[0] == 0
        # each default call after every non-default one, in both orders
        for argv in self.DEFAULT_CALLS + self.DEFAULT_CALLS[::-1]:
            assert self._run(capsys, argv) == before[self.DEFAULT_CALLS.index(argv)]
            for other in non_default:
                self._run(capsys, other)
        assert (tmp_path / "s.json").is_file() and (tmp_path / "d.csv").is_file()


def _family_argv():
    return [
        ["--family", "toeplitz-hankel", "--n", "9", "--alpha", "1,-1/3,-1/6",
         "--beta", "11/20,13/60,1/120"],
        ["--family", "corner-block", "--half-n", "4", "--alpha", "7,1/2,-3/4,4",
         "--beta", "9,1/4,1/2,5"],
        ["--family", "fem-p2", "--n-elems", "4"],
        ["--family", "fem-p3", "--n-elems", "4"],
        ["--family", "toeplitz-hankel", "--n", "6", "--alpha", "4+1i,1/2", "--beta", "5,1/4i"],
    ]


class TestOracleWork:
    """The CLI asks the oracle for vectors only where it reads them."""

    @pytest.mark.parametrize("argv", _family_argv(),
                             ids=["toeplitz-hankel", "corner-block", "fem-p2", "fem-p3",
                                  "non-hermitian"])
    def test_spectrum_never_computes_numeric_eigenvectors(self, monkeypatch, capsys, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the spectrum oracle reads only eigenvalues")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        code = main(["spectrum", *argv])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert max(float(line.split(",")[6]) for line in lines[1:]) < 1e-11

    @pytest.mark.parametrize("argv", _family_argv(),
                             ids=["toeplitz-hankel", "corner-block", "fem-p2", "fem-p3",
                                  "non-hermitian"])
    def test_no_oracle_forms_no_dense_matrix(self, monkeypatch, capsys, argv):
        def refuse(self):
            raise AssertionError("spectrum --no-oracle formed an n x n matrix")

        monkeypatch.setattr(SymmetricBand, "dense", refuse)
        assert main(["spectrum", *argv, "--no-oracle"]) == 0
        assert max(float(line.split(",")[3]) for line in capsys.readouterr().out.splitlines()[1:]) < 1e-13

    @pytest.mark.parametrize("argv, dtype", [
        (_family_argv()[0], np.float64), (_family_argv()[1], np.float64), (_family_argv()[2], np.float64),
        (_family_argv()[3], np.float64), (_family_argv()[4], np.complex128),
    ], ids=["toeplitz-hankel", "corner-block", "fem-p2", "fem-p3", "non-hermitian"])
    def test_real_pencil_reaches_the_oracle_as_float64(self, monkeypatch, capsys, argv, dtype):
        reduce_pencil, seen = oracle._reduce_pencil, []

        def recorded(a, b, method):
            seen.append((np.asarray(a).dtype, np.asarray(b).dtype))
            return reduce_pencil(a, b, method)

        monkeypatch.setattr(oracle, "_reduce_pencil", recorded)
        assert main(["spectrum", *argv]) == 0
        capsys.readouterr()
        assert seen == [(dtype, dtype)]

    @staticmethod
    def _record_lapack_shapes(monkeypatch, stacks=False):
        """Record the shape of each single matrix handed to a dense LAPACK driver.

        Stacks of small matrices, such as the closed forms' per-mode
        companion matrices, are recorded only when ``stacks`` is set.
        """
        seen = []
        for name in ("eigvals", "eigvalsh", "eig", "eigh", "cholesky", "inv", "solve", "svd", "det"):
            def recorded(m, *args, _call=getattr(np.linalg, name), _name=name, **kwargs):
                if stacks or np.ndim(m) == 2:
                    seen.append((_name, np.shape(m)))
                return _call(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        return seen

    @pytest.mark.parametrize("argv, dim", [
        (_family_argv()[0], 9), (_family_argv()[1], 9), (_family_argv()[2], 7), (_family_argv()[4], 6),
    ], ids=["toeplitz-hankel", "corner-block", "fem-p2", "non-hermitian"])
    def test_spectrum_oracle_hands_lapack_only_half_size_matrices(self, monkeypatch, capsys, argv, dim):
        seen = self._record_lapack_shapes(monkeypatch)
        assert main(["spectrum", *argv]) == 0
        capsys.readouterr()
        assert {name for name, _ in seen} & {"eigvals", "eigvalsh"}
        assert all(shape[0] <= (dim + 1) // 2 for _, shape in seen), seen

    def test_pevp_oracle_hands_lapack_only_half_size_matrices(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"variant": 2, "n": 9, "bands": [["1", "1/2"], ["2", "1/4i"],
                                                                   ["4", "-1"], ["6+i", "1"]]}))
        seen = self._record_lapack_shapes(monkeypatch)
        assert main(["pevp", "--input", str(path)]) == 0
        capsys.readouterr()
        # the congruence's (S, R) pencil, one per half; its q x q companions go to LAPACK as one stack
        assert [shape for name, shape in seen if name == "eigh"] == [(5, 5), (4, 4)], seen
        assert all(shape[0] <= 5 for _, shape in seen), seen

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["--kind", "eve", "--n", "6", "--random", "2"], 2),
            (["--kind", "gevp-eve", "--n", "6"], 1),
        ],
        ids=["eve", "gevp-eve"],
    )
    def test_identities_diagonalize_only_the_full_matrix(self, monkeypatch, capsys, argv, calls):
        eigh, seen = np.linalg.eigh, []

        def counted(*args, **kwargs):
            seen.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert main(["identity", *argv]) == 0
        capsys.readouterr()
        assert seen == [(6, 6)] * calls

    def test_eve_minors_take_one_stacked_eigvalsh_per_trial(self, monkeypatch, capsys):
        seen = self._record_lapack_shapes(monkeypatch, stacks=True)
        assert main(["identity", "--kind", "eve", "--n", "6", "--random", "2"]) == 0
        capsys.readouterr()
        assert [shape for name, shape in seen if name == "eigvalsh"] == [(6, 5, 5)] * 2
        assert all(shape[-1] == 6 for _, shape in seen if len(shape) == 2), seen

    @pytest.mark.parametrize("form", ["proof", "literal"])
    def test_gevp_eve_runs_no_per_minor_solve(self, monkeypatch, capsys, form):
        seen = self._record_lapack_shapes(monkeypatch, stacks=True)
        assert main(["identity", "--kind", "gevp-eve", "--n", "6", "--form", form]) == 0
        capsys.readouterr()
        assert all(shape[-1] == 6 for _, shape in seen if len(shape) == 2), seen
        stacked = [name for name, shape in seen if shape == (6, 5, 5)]
        weight = "det" if form == "proof" else "eigvalsh"
        assert sorted(stacked) == sorted(["cholesky", "inv", "eigvalsh", weight]), seen


class TestIdentityCommand:
    def test_ti31_example(self, capsys):
        code = main(["identity", "--kind", "ti31", "--n", "2", "--k", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lhs=0.5" in out
        assert "rhs=0.5" in out

    def test_ti3_sweep(self, capsys):
        code = main(["identity", "--kind", "ti3", "--n", "6"])
        capsys.readouterr()
        assert code == 0

    def test_eve_random(self, capsys):
        code = main(["identity", "--kind", "eve", "--n", "5", "--random", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max rel_diff" in out

    @pytest.mark.parametrize("kind", ["eve", "gevp-eve"])
    @pytest.mark.parametrize("n", [6, 12])
    @pytest.mark.parametrize("seed", range(5))
    def test_the_row_scale_keeps_the_random_tables_verdicts(self, capsys, kind, n, seed):
        argv = ["identity", "--kind", kind, "--n", str(n), "--random", "3", "--seed", str(seed)]
        tables = [t for t in _identity_tables(_build_parser().parse_args(argv)) if not t.conditioning_warning]
        rowwise = np.concatenate([t.rel_diff.ravel() for t in tables])
        # the entrywise ratio, without the row's scale
        entrywise = np.concatenate([(t.abs_diff / np.maximum(np.maximum(abs(t.lhs), abs(t.rhs)), 1e-30)).ravel()
                                    for t in tables])
        assert np.all(rowwise <= entrywise)
        for tol in (1e-8, 0.0):
            assert main([*argv, "--tol", str(tol)]) == (0 if np.max(entrywise) <= tol else 3)
            capsys.readouterr()

    def test_gevp_eve_literal_never_gates(self, capsys):
        code = main(
            ["identity", "--kind", "gevp-eve", "--n", "4", "--random", "2",
             "--form", "literal", "--tol", "1e-8"]
        )
        capsys.readouterr()
        assert code == 0

    def test_gevp_eve_proof_gates_on_success(self, capsys):
        code = main(
            ["identity", "--kind", "gevp-eve", "--n", "4", "--random", "2",
             "--form", "proof"]
        )
        capsys.readouterr()
        assert code == 0

    def test_ti3g_reports_but_never_gates(self, capsys):
        # interior minors disagree with the stated form; unproven kinds only report
        code = main(
            ["identity", "--kind", "ti3g", "--n", "6", "--alpha", "2,-1",
             "--beta", "9/10,3/10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "max rel_diff" in out

    @pytest.mark.parametrize("alpha, beta, shown", [
        ("2,-1", "1/2,1/8", "alpha=(2.0, -1.0) beta=(0.5, 0.125)"),
        ("2,-1+1/2i", "1/2,1/8", "alpha=((2+0j), (-1+0.5j)) beta=(0.5, 0.125)"),
    ], ids=["real", "complex-alpha"])
    def test_ti3g_lines_show_the_bands_as_python_numbers(self, capsys, alpha, beta, shown):
        # each band keeps the dtype as_band gives it: float unless an entry is complex
        assert main(["identity", "--kind", "ti3g", "--n", "3", "--k", "1", "--l", "1",
                     "--alpha", alpha, "--beta", beta]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith(f"kind=ti3g n=3 k=1 l=1 {shown} lhs=")

    @pytest.mark.parametrize("argv, pairs", [
        (["--kind", "ti31", "--n", "5", "--l", "3"], 5),
        (["--kind", "ti3", "--n", "5"], 25),
        (["--kind", "ti3", "--n", "5", "--l", "2"], 5),
        (["--kind", "ti3g", "--n", "4", "--k", "2", "--alpha", "2,-1", "--beta", "2/3,1/6"], 4),
    ])
    def test_trig_kinds_take_one_table_call(self, capsys, monkeypatch, argv, pairs):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return trig_identity_all(*args, **kwargs)

        monkeypatch.setattr(cli, "trig_identity_all", counted)
        assert main(["identity", *argv]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.endswith(f" over {pairs} evaluations\n")

    def test_nan_rel_diff_trips_the_gate(self, capsys, monkeypatch):
        nan = float("nan")
        table = IdentityTable("eve", np.array([1.0 + 0j, 1.0]), np.array([complex(nan), 1.0]),
                              np.array([nan, 0.0]), np.array([nan, 0.0]))
        monkeypatch.setattr(cli, "_identity_tables", lambda args: [table])
        assert main(["identity", "--kind", "eve", "--n", "2"]) == 3
        captured = capsys.readouterr()
        assert "max rel_diff = nan over 2 evaluations" in captured.out
        assert captured.err.startswith("error: max rel_diff nan exceeds tolerance")

    def test_lines_are_those_of_the_per_report_format(self):
        # the per-entry f-string that formatting each table by columns replaced
        def reference(rep):
            return (f"kind={rep.kind} {' '.join(f'{key}={val}' for key, val in rep.inputs.items())} "
                    f"lhs={format_scalar(rep.lhs)} rhs={format_scalar(rep.rhs)} rel_diff={rep.rel_diff:.3e}"
                    + (" conditioning-warning" if rep.conditioning_warning else ""))

        sides = np.array([0.0, -0.0, 1.5, -2e-13j + 3, 2e-12j - 3, 1 - 1j, complex(0.0, -0.0), complex("nan"),
                          complex(1, float("nan")), complex(float("inf"), -1), 1e300 - 1e-300j, 2.0])
        rel = np.array([0.0, 1e-17, float("nan")] * 4)
        j = np.arange(sides.size).reshape(6, 2)
        tables = [IdentityTable("eve-evp", sides.reshape(6, 2), sides[::-1].reshape(6, 2), 0.0 * rel.reshape(6, 2),
                                rel.reshape(6, 2), {"j": j[:, :1], "k": j[:1], "n": 9}, warning)
                  for warning in (False, True)]
        tables += [IdentityTable("ti3g", np.array([[1.0 + 0j, 2.0]]), np.array([[2.0 + 0j, 1e-300]]),
                                 np.ones((1, 2)), np.array([[0.5, 1.0]]),
                                 {"n": 4, "k": np.array([[1]]), "l": np.array([[2, 3]]),
                                  "alpha": (2 + 0j, -1 + 0j), "beta": (1j, 0.5)}),
                   IdentityTable("eve-gevp-literal", np.ones((1, 1), complex), np.ones((1, 1), complex),
                                 np.zeros((1, 1)), np.zeros((1, 1)),
                                 {"j": np.array([[1]]), "k": np.array([[1]]), "n": 2, "form": "literal"}),
                   IdentityTable("ti3", np.ones((0, 3), complex), np.ones((0, 3), complex), np.zeros((0, 3)),
                                 np.zeros((0, 3)), {"n": 3, "k": np.ones((0, 1), int), "l": np.array([[1, 2, 3]])})]
        for table in tables:
            want = [reference(table[index]) for index in np.ndindex(table.lhs.shape)]
            assert cli._identity_lines(table) == (["\n".join(want)] if want else [])

    def test_unknown_kind_is_usage_error(self, capsys):
        assert main(["identity", "--kind", "ti32", "--n", "4"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "eve", "--n", "1"],
            ["--kind", "gevp-eve", "--n", "1"],
            ["--kind", "ti3", "--n", "3", "--k", "5"],
        ],
    )
    def test_out_of_range_index_is_validation_error(self, capsys, argv):
        assert main(["identity", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("kind, n", [("ti31", -2), ("ti3", 0), ("ti3", 1), ("ti3g", 0)])
    def test_trig_sweep_below_two_is_validation_error(self, capsys, kind, n):
        # an empty sweep would otherwise pass the gate on zero evaluations
        argv = ["identity", "--kind", kind, "--n", str(n), "--alpha", "2,-1", "--beta", "2/3,1/6"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {kind} needs --n of at least 2, got {n}\n"

    @pytest.mark.parametrize("kind, trials", [("eve", 0), ("gevp-eve", -2)])
    def test_no_random_trial_is_validation_error(self, capsys, kind, trials):
        # the gate would otherwise pass on zero evaluations
        assert main(["identity", "--kind", kind, "--n", "5", "--random", str(trials)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {kind} needs --random of at least 1, got {trials}\n"


class TestDispersion:
    def test_fdm_first_mode_numbers(self):
        rows = dispersion_rows("fdm", 10)
        j, lam, exact, rel, branch = rows[0]
        assert j == 1
        assert lam == pytest.approx((2 - 2 * np.cos(np.pi / 10)) * 100, rel=1e-13)
        assert lam == pytest.approx(9.78869674, abs=1e-6)
        assert rel == pytest.approx(0.0082, abs=2e-4)
        assert branch == ""

    def test_fem2_flags_flat_branch(self, capsys):
        code = main(["dispersion", "--method", "fem2", "--n", "8"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,lambda_h,lambda_exact,rel_error,branch"
        flat = [line for line in lines[1:] if line.endswith(",10n^2")]
        assert len(flat) == 1
        assert float(flat[0].split(",")[1]) == 640.0

    def test_first_mode_convergence_orders(self):
        # ratio test across doubling meshes: linear elements are O(h^2)
        # like the difference scheme, while the quadratic-element and
        # corrected-bandwidth-2 pencils reach O(h^4)
        def ratio(method):
            err = {n: dispersion_rows(method, n)[0][3] for n in (16, 32)}
            return err[16] / err[32]

        assert ratio("fdm") == pytest.approx(4.0, rel=0.1)
        assert ratio("fem1") == pytest.approx(4.0, rel=0.1)
        assert ratio("fem2") == pytest.approx(16.0, rel=0.1)
        assert ratio("iga2-example") == pytest.approx(16.0, rel=0.1)

    def test_unknown_method_is_usage_error(self, capsys):
        assert main(["dispersion", "--method", "sem", "--n", "8"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("method", ["fdm", "fem1", "fem2", "iga2-example"])
    @pytest.mark.parametrize("n", [4, 9, 200])
    def test_rows_match_the_eigenpair_route(self, method, n):
        # the route the values-only rows replaced: eigenpairs, then scale_pencil
        h = 1.0 / n
        if method == "fem2":
            sol = fem_p2_eigenpairs(n)
        else:
            stiffness, mass, c1, c2 = {
                "fdm": (LAPLACE_FDM_BAND, (1.0, 0.0), 1.0 / (h * h), 1.0),
                "fem1": (LAPLACE_FEM1_STIFF_BAND, LAPLACE_FEM1_MASS_BAND, 1.0 / h, h),
                "iga2-example": (IGA2_EXAMPLE_STIFF_BAND, IGA2_EXAMPLE_MASS_BAND, 1.0 / h, h),
            }[method]
            sol = scale_pencil(gevp_eigenpairs(stiffness, mass, n - 1, 1), c1, c2)
        discrete = np.sort(sol.values.real)
        rows = dispersion_rows(method, n)
        assert [row[1] for row in rows] == discrete.tolist()
        for j, (index, lam, exact, rel, _) in enumerate(rows, start=1):
            assert index == j and exact == (j * np.pi) ** 2
            assert rel == abs(lam - exact) / exact


class TestPevpCommand:
    @pytest.mark.parametrize("route", ["reversed-congruence", "reversed-companion"])
    def test_a_degree_drop_is_flagged_on_either_oracle_route(self, monkeypatch, tmp_path, capsys, route):
        # the leading band's symbol 2 cos(theta) vanishes at mode 3's angle pi/2
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"variant": 1, "n": 5, "bands": [["2", "-1"], ["1", "1/4"], ["0", "1"]]}))
        if route == "reversed-companion":
            monkeypatch.setattr(oracle, "_congruence_roots", lambda mats: None)
        routes, verify = [], oracle.verify

        def recorded(*args, **kwargs):
            check = verify(*args, **kwargs)
            routes.append(check.route)
            return check

        monkeypatch.setattr("specmat.cli.verify", recorded)
        assert main(["pevp", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert routes == [route]
        assert captured.out.count("\n") == 10  # the header and the 9 finite roots
        assert captured.err == "degree drop: analytic modes [3], oracle flagged True\n"

    def test_json_pencil_roundtrip(self, tmp_path, capsys):
        payload = {
            "variant": 1,
            "n": 6,
            "bands": [["1", "1/2"], ["2", "0.3"], ["4", "-1"]],
        }
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(payload))
        code = main(["pevp", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mode_index,root_index,lambda_re,lambda_im,oracle_distance"
        assert len(lines) == 13  # q*n roots
        assert max(float(line.split(",")[4]) for line in lines[1:]) < 1e-8

    @staticmethod
    def _per_root_lines(payload):
        """The CSV as the per-root f-string loop wrote it before the one-pass formatting."""
        variant, n = HankelVariant.coerce(payload["variant"]), payload["n"]
        bands = [np.array([parse_complex_literal(entry) for entry in band]) for band in payload["bands"]]
        analytic = pevp_eigenpairs(bands, n, variant)
        numeric, _ = solve_pevp_numeric([assemble_toeplitz_hankel(band, n, variant) for band in bands])
        _, distances = pair_values(analytic.all_values(), numeric)
        lines = ["mode_index,root_index,lambda_re,lambda_im,oracle_distance"]
        pos = 0
        for mode, roots in zip(analytic.modes, analytic.mode_roots):
            for ridx, root in enumerate(roots, start=1):
                lines.append(f"{mode},{ridx},{root.real:.17g},{root.imag:.17g},{distances[pos]:.17g}")
                pos += 1
        return lines

    @pytest.mark.parametrize("payload", [
        {"variant": 2, "n": 9, "bands": [["1", "1/2"], ["2", "1/4i"], ["4", "-1"], ["6+i", "1"]]},
        {"variant": 3, "n": 8, "bands": [["-3/2", "1/8"], ["2", "-1/4"], ["5+1/2i", "1"]]},
        # degree drops: the roots per mode are 3, 3, 1, 2, 3
        {"variant": 1, "n": 5, "bands": [["1", "1/2", "1/5"], ["2", "3/10", "1/10"],
                                         ["1", "0", "1/2"], ["1", "1/2", "1/2"]]},
    ], ids=["cubic", "quadratic", "degree-drops"])
    def test_output_matches_per_root_formatting(self, tmp_path, capsys, payload):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(payload))
        out_path = tmp_path / "roots.csv"
        main(["pevp", "--input", str(path), "--out", str(out_path)])
        capsys.readouterr()
        assert out_path.read_text(encoding="ascii") == "\n".join(self._per_root_lines(payload)) + "\n"

    def test_distance_above_tolerance_exits_3(self, tmp_path, capsys):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"variant": 1, "n": 6, "bands": [["1", "1/2"], ["2", "0.3"]]}))
        assert main(["pevp", "--input", str(path), "--tol", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("mode_index,root_index,")
        assert re.fullmatch(r"error: max oracle distance \S+ exceeds tolerance 0\.000e\+00\n",
                            captured.err)

    def test_all_zero_leading_band_lists_every_mode_as_a_degree_drop(self, tmp_path, capsys):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"variant": 4, "n": 6, "bands": [["1", "1/2"], ["0", "0"]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pevp", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "mode_index,root_index,lambda_re,lambda_im,oracle_distance\n"
        assert captured.err == "degree drop: analytic modes [1, 2, 3, 4, 5, 6], oracle flagged True\n"

    @pytest.mark.parametrize("bands, n, variant, error, message", [
        ([["2", "-1"]], 6, 1, ValueError, "a polynomial pencil needs degree q >= 1 (at least two bands)"),
        ([["2", "-1"], ["1", "1/4", "1"]], 6, 1, BadBandwidthError, "all coefficient bands must share one bandwidth"),
        ([["2", "-1", "1"], ["1", "1/4", "1"]], 2, 1, BadBandwidthError, "need 1 <= m <= n-1, got m=2, n=2"),
        ([["2"], ["1"]], 6, 1, BadBandwidthError, "need 1 <= m <= n-1, got m=0, n=6"),
        ([[], []], 6, 1, BadBandwidthError, "a coefficient band must be a nonempty 1-D sequence"),
        ([["2", "-1"], ["1", "1/4"]], 6, 5, ValueError, "unknown Hankel variant 5"),
        ([["2", "-1"], ["1", "1/4"]], 6.7, 2.9, ValueError, "unknown Hankel variant 2.9"),
        # int() alone would run 6.7 as n = 6
        ([["2", "-1"], ["1", "1/4"]], 6.7, 2, ValueError, "n must be a whole number, got 6.7"),
        ([["2", "-1"], ["1", "1/4"]], "6", 2, ValueError, "n must be a whole number, got '6'"),
        ([["2", "-1"], ["1", "1/4"]], float("inf"), 2, ValueError, "n must be a whole number, got inf"),
        ([["2", "-1"], ["1", "1/4"]], 10**400, 2, ValueError, "n is too large for a float"),
    ], ids=["one-band", "two-widths", "too-wide", "no-width", "empty", "variant-5", "variant-2.9",
            "n-6.7", "n-string", "n-inf", "n-10**400"])
    def test_error_contract(self, tmp_path, capsys, bands, n, variant, error, message):
        """``pevp_eigenpairs`` raises the error, and ``pevp`` prints its message and exits 2."""
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            pevp_eigenpairs([[parse_complex_literal(entry) for entry in band] for band in bands], n, variant)
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"variant": variant, "n": n, "bands": bands}))
        assert main(["pevp", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        # the command reads the variant while it parses the description
        prefix = "bad pencil description: " if "variant" in message else ""
        assert captured.out == "" and captured.err == f"error: {prefix}{message}\n"

    def test_a_whole_float_n_and_variant_still_run(self, tmp_path, capsys):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"variant": 3.0, "n": 6.0, "bands": [["2", "-1"], ["1", "1/4"]]}))
        assert main(["pevp", "--input", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7

    def test_bad_json_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"variant": 1, "n": 6}))
        assert main(["pevp", "--input", str(path)]) == 2
        capsys.readouterr()

    def test_missing_file_is_validation_error(self, capsys):
        assert main(["pevp", "--input", "/nonexistent/pencil.json"]) == 2
        capsys.readouterr()

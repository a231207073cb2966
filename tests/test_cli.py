import io
import struct
from contextlib import redirect_stdout

import numpy as np
import pytest

from orthokit import cli, qr_givens, qr_householder, qr_pivoted, svd
from orthokit.cli import run
from orthokit.matrix import write_matrix_csv
from orthokit.apps import GrayImage, write_pgm
from helpers import BIG_SYSTEM, KAHAN_SYSTEM, SURVEY_A, SURVEY_B, SVD_5X3, TALL_SYSTEM, TINY_SYSTEM


@pytest.fixture
def survey_files(tmp_path):
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    write_matrix_csv(SURVEY_A, a_path)
    write_matrix_csv(SURVEY_B.reshape(-1, 1), b_path)
    return str(a_path), str(b_path)


def run_lines(capsys, argv, expect=0):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expect, captured.err or captured.out
    return captured.out.splitlines(), captured.err


def assert_exits_2(capsys, argv, error="NumericalError"):
    """Exit 2, nothing on stdout and one ``error: <error>`` line on stderr."""
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {error}")


class TestSolve:
    def test_survey_golden_line(self, capsys, survey_files):
        a, b = survey_files
        out, _ = run_lines(capsys, ["solve", a, b])
        assert "x = 1236.000000, 1943.000000, 2416.000000" in out
        assert "rank = 3" in out
        assert any(line.startswith("cond = 2.000000") for line in out)
        assert "matrix_sensitivity_bound = 2.006500" in out

    def test_full_rank_prints_no_free_params(self, capsys, survey_files):
        out, _ = run_lines(capsys, ["solve", *survey_files])
        assert "rank = 3" in out
        assert not [line for line in out if line.startswith("free_params")]

    def test_method_selection(self, capsys, survey_files):
        a, b = survey_files
        for method, tag in [("normal", "normal"), ("qr", "qr"), ("qr-pivoted", "qr_pivoted"), ("svd", "svd")]:
            out, _ = run_lines(capsys, ["solve", a, b, "--method", method])
            assert f"method = {tag}" in out
            assert "x = 1236.000000, 1943.000000, 2416.000000" in out

    def test_numerical_failure_exit_2(self, capsys, tmp_path):
        eps = 1e-9
        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        write_matrix_csv(np.array([[1.0, 1.0], [eps, 0.0], [0.0, eps]]), a_path)
        write_matrix_csv(np.array([[1.0], [0.0], [eps]]), b_path)
        code = run(["solve", str(a_path), str(b_path), "--method", "normal"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1  # one reason line
        assert "RankDeficiencyError" in captured.err

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="solve routes by qr_pivoted's pivot-norm rank, 90 here, not by the singular "
                              "values' rank, 89, which the printed cond = sigma_1 / sigma_89 reads")
    def test_kahan_rank_is_the_singular_value_rank(self, capsys, tmp_path):
        a, b = KAHAN_SYSTEM
        write_matrix_csv(a, tmp_path / "a.csv")
        write_matrix_csv(b.reshape(-1, 1), tmp_path / "b.csv")
        out, _ = run_lines(capsys, ["solve", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
        assert "rank = 89" in out


class TestSvdCommand:
    def test_values_only_golden(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(SVD_5X3, path)
        out, _ = run_lines(capsys, ["svd", "--values-only", str(path)])
        values = [float(v) for v in out[0].split(",")]
        assert np.abs(np.array(values) - [5.149, 4.3804, 1.5969]).max() <= 5e-5

    def test_factor_output(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(SVD_5X3, path)
        for flags, shape in [(["--reduced"], "reduced"), ([], "full")]:
            out, _ = run_lines(capsys, ["svd", *flags, str(path)])
            assert out[0].startswith("sigma = ")
            assert "U =" in out and "Vt =" in out
            assert out[1 : out.index("Vt =")] == list(cli._matrix_lines("U", svd(SVD_5X3, shape).u, 6))


class TestQrCommand:
    def test_householder_r(self, capsys, tmp_path):
        path = tmp_path / "a.csv"
        write_matrix_csv(SURVEY_A, path)
        out, _ = run_lines(capsys, ["qr", str(path), "--mode", "r"])
        assert out[0] == "R ="
        assert out[1].startswith("-1.732051")

    @pytest.mark.parametrize("mode", ["qr", "r"])
    def test_q_block_only_in_qr_mode(self, capsys, tmp_path, mode):
        path = tmp_path / "a.csv"
        write_matrix_csv(SURVEY_A, path)
        out, _ = run_lines(capsys, ["qr", str(path), "--method", "pivoted", "--mode", mode])
        m = SURVEY_A.shape[0]
        assert out[: 1 + m] == list(cli._matrix_lines("R", qr_pivoted(SURVEY_A).r, 6))
        if mode == "qr":
            assert out[1 + m] == "Q =" and len(out) == 2 * (1 + m) + 2
        else:
            assert "Q =" not in out and len(out) == 1 + m + 2

    @pytest.mark.parametrize("method, qr", [("householder", qr_householder), ("givens", qr_givens)])
    def test_unpivoted_methods_print_only_r_and_q(self, capsys, tmp_path, method, qr):
        # No perm and no rank: these factorizations carry neither.
        path = tmp_path / "a.csv"
        write_matrix_csv(SURVEY_A, path)
        out, _ = run_lines(capsys, ["qr", str(path), "--method", method])
        f = qr(SURVEY_A)
        assert out == list(cli._matrix_lines("R", f.r, 6)) + list(cli._matrix_lines("Q", f.q, 6))

    def test_pivoted_reports_perm_and_rank(self, capsys, tmp_path):
        path = tmp_path / "a.csv"
        a = np.column_stack([SURVEY_A[:, 0], SURVEY_A[:, 1], SURVEY_A[:, 0] + SURVEY_A[:, 1]])
        write_matrix_csv(a, path)
        out, _ = run_lines(capsys, ["qr", str(path), "--method", "pivoted", "--mode", "r"])
        assert any(line.startswith("perm = ") for line in out)
        assert "rank = 2" in out

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code = run(["qr", str(tmp_path / "absent.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "input error" in captured.err

    def test_unparseable_csv_exit_1(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = run(["qr", str(path)])
        captured = capsys.readouterr()
        assert code == 1


# sigma and |R| entries are sqrt(2) * 1e308: representable.
NEAR_OVERFLOW = np.array([[1e308, 1e308], [1e308, -1e308]])
# sigma_1 = 1.5e308 * n and |R[0, 0]| = 1.5e308 * sqrt(n): past the float64 range.
OVERFLOW_2 = np.full((2, 2), 1.5e308)
OVERFLOW_3 = np.full((3, 3), 1.5e308)


def _printed_row(line, prefix=""):
    return np.array([float(x) for x in line.removeprefix(prefix).split(",")])


class TestNearOverflowInput:
    @pytest.mark.parametrize(
        "argv, a",
        [
            (["svd"], OVERFLOW_3),
            (["svd", "--values-only"], OVERFLOW_3),
            (["qr"], OVERFLOW_3),
            (["qr", "--method", "givens"], OVERFLOW_2),
            (["svd"], OVERFLOW_2),
            (["svd", "--values-only"], OVERFLOW_2),
            (["qr"], OVERFLOW_2),
        ],
    )
    def test_overflowing_factorization_exits_2(self, capsys, tmp_path, argv, a):
        path = tmp_path / "big.csv"
        write_matrix_csv(a, path)
        assert_exits_2(capsys, argv + [str(path)])

    def test_representable_factors_are_printed(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        write_matrix_csv(NEAR_OVERFLOW, path)
        unit = np.ldexp(NEAR_OVERFLOW, -1000)
        sigma = np.linalg.svd(unit, compute_uv=False)
        abs_r = np.abs(np.linalg.qr(unit)[1])
        tol = 4 * np.finfo(float).eps * sigma[0]
        out, err = run_lines(capsys, ["svd", str(path)])
        assert err == ""
        assert np.abs(np.ldexp(_printed_row(out[0], "sigma = "), -1000) - sigma).max() <= tol
        out, err = run_lines(capsys, ["svd", "--values-only", str(path)])
        assert err == ""
        assert np.abs(np.ldexp(_printed_row(out[0]), -1000) - sigma).max() <= tol
        out, err = run_lines(capsys, ["qr", str(path)])
        assert err == "" and out[0] == "R ="
        r = np.vstack([_printed_row(line) for line in out[1:3]])
        assert np.abs(np.ldexp(np.abs(r), -1000) - abs_r).max() <= tol

    def test_pivoted_qr_stays_finite_with_full_rank(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        write_matrix_csv(NEAR_OVERFLOW, path)
        out, err = run_lines(capsys, ["qr", str(path), "--method", "pivoted"])
        assert err == ""
        assert not any("nan" in line.lower() or "inf" in line.lower() for line in out)
        assert "rank = 2" in out

    def test_qr_solve_tolerances_stay_finite(self, capsys, tmp_path):
        a_path, b_path = tmp_path / "u.csv", tmp_path / "b.csv"
        write_matrix_csv(np.array([[1e308, 1e308], [0.0, 1e308]]), a_path)
        write_matrix_csv(np.ones((2, 1)), b_path)
        out, err = run_lines(capsys, ["solve", str(a_path), str(b_path), "--method", "qr"])
        assert err == ""
        assert "method = qr" in out and "rank = 2" in out


class TestSolveAtExtremeScale:
    REPORT = ("cond", "cos_theta", "theta", "rhs_sensitivity_bound", "matrix_sensitivity_bound")

    def report_lines(self, capsys, tmp_path, s):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((20, 3))
        b = a @ np.array([1.0, 2.0, 3.0]) + 0.1 * rng.standard_normal(20)
        write_matrix_csv(a * s, tmp_path / "a.csv")
        write_matrix_csv((b * s).reshape(-1, 1), tmp_path / "b.csv")
        out, _ = run_lines(capsys, ["--precision", "17", "solve", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
        return [line for line in out if line.split(" = ")[0] in self.REPORT]

    @pytest.mark.parametrize("e", [
        # residual_norm is still an unscaled 2-norm and overflows at this scale
        pytest.param(660, marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")),
        -660,
    ])
    def test_report_matches_the_unscaled_system(self, capsys, tmp_path, e):
        expected = self.report_lines(capsys, tmp_path, 1.0)
        assert len(expected) == len(self.REPORT)
        assert self.report_lines(capsys, tmp_path, 2.0**e) == expected


class TestSolutionPastTheFloat64Range:
    @pytest.mark.parametrize("method, system", [
        *((m, s) for m in ("auto", "qr", "qr-pivoted", "svd") for s in ("TINY", "TALL")),
        ("normal", "BIG"),  # A^T A overflows
    ])
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, method, system):
        a, b = {"TINY": TINY_SYSTEM, "TALL": TALL_SYSTEM, "BIG": BIG_SYSTEM}[system]
        write_matrix_csv(a, tmp_path / "a.csv")
        write_matrix_csv(b.reshape(-1, 1), tmp_path / "b.csv")
        assert_exits_2(capsys, ["solve", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--method", method])


class TestSolveOnZeroMatrix:
    """At rank 0, x = 0 is the minimum-norm answer and cond is undefined: the
    rank-revealing routes print the answer without the report and exit 0,
    the full-rank routes exit 2 with nothing on stdout."""

    @pytest.mark.parametrize("method, tag", [("auto", "svd"), ("qr-pivoted", "qr_pivoted"), ("svd", "svd")])
    def test_rank_revealing_routes_answer_without_report(self, capsys, tmp_path, method, tag):
        write_matrix_csv(np.zeros((3, 2)), tmp_path / "a.csv")
        write_matrix_csv(np.array([[1.0], [2.0], [3.0]]), tmp_path / "b.csv")
        out, err = run_lines(capsys, ["solve", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--method", method])
        assert err == ""
        assert out == [f"method = {tag}", "x = 0.000000, 0.000000", "residual_norm = 3.741657",
                       "rank = 0", "free_params = 2"]

    @pytest.mark.parametrize("method", ["qr", "normal"])
    def test_full_rank_routes_exit_2_with_empty_stdout(self, capsys, tmp_path, method):
        write_matrix_csv(np.zeros((3, 2)), tmp_path / "a.csv")
        write_matrix_csv(np.array([[1.0], [2.0], [3.0]]), tmp_path / "b.csv")
        argv = ["solve", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--method", method]
        assert_exits_2(capsys, argv, "RankDeficiencyError")


class TestDeterminismAndPrecision:
    def test_identical_argv_identical_output(self, capsys, survey_files):
        a, b = survey_files
        out1, _ = run_lines(capsys, ["solve", a, b])
        out2, _ = run_lines(capsys, ["solve", a, b])
        assert out1 == out2

    def test_precision_flag(self, capsys, survey_files):
        a, b = survey_files
        out, _ = run_lines(capsys, ["--precision", "2", "solve", a, b])
        assert "x = 1236.00, 1943.00, 2416.00" in out

    def test_env_override(self, capsys, survey_files, monkeypatch):
        monkeypatch.setenv("OK_PRECISION", "3")
        a, b = survey_files
        out, _ = run_lines(capsys, ["solve", a, b])
        assert "x = 1236.000, 1943.000, 2416.000" in out

    @pytest.mark.parametrize("env", ["abc", " "])
    def test_malformed_env_precision_usage_error(self, capsys, survey_files, monkeypatch, env):
        monkeypatch.setenv("OK_PRECISION", env)
        out, err = run_lines(capsys, ["solve", *survey_files], expect=1)
        assert out == []
        assert err == f"usage error: OK_PRECISION must be an integer, got {env!r}\n"

    def test_bad_precision_usage_error(self, capsys, survey_files):
        a, b = survey_files
        code = run(["--precision", "40", "solve", a, b])
        captured = capsys.readouterr()
        assert code == 1
        assert "precision" in captured.err

    def test_unknown_subcommand_usage_error(self, capsys):
        code = run(["frobnicate"])
        captured = capsys.readouterr()
        assert code == 1


class TestFitAndPca:
    def test_fit_recovers_line(self, capsys, tmp_path):
        t = np.linspace(0, 5, 9)
        y = 2.0 + 0.5 * t
        path = tmp_path / "data.csv"
        write_matrix_csv(np.column_stack([t, y]), path)
        out, _ = run_lines(capsys, ["fit", str(path), "--degree", "1"])
        assert "coefficients = 2.000000, 0.500000" in out

    def test_pca_output_sections(self, capsys, tmp_path):
        rng = np.random.default_rng(140)
        path = tmp_path / "x.csv"
        write_matrix_csv(rng.standard_normal((4, 12)), path)
        out, _ = run_lines(capsys, ["pca", str(path), "--k", "2"])
        assert "components =" in out
        assert any(line.startswith("variances = ") for line in out)
        assert "reduced =" in out


class TestAppsAtExtremeScale:
    """Results that fit in float64 come out finite; one past its range exits 2
    with one error line and nothing on stdout."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        from orthokit.apps import digits_train, save_digit_model, synth_digit_data

        x, labels = synth_digit_data(per_class=3, seed=4)
        path = tmp_path_factory.mktemp("model") / "m.okdm"
        save_digit_model(digits_train([x[:, labels == c] for c in range(10)], 2), path)
        return str(path)

    def classify(self, capsys, tmp_path, model, test):
        write_matrix_csv(test, tmp_path / "t.csv")
        out, err = run_lines(capsys, ["digits", "classify", str(tmp_path / "t.csv"), "--model", model])
        assert err == ""
        return out

    def test_digits_classify_near_the_float64_maximum(self, capsys, tmp_path, model):
        test = np.random.default_rng(143).uniform(-1.0, 1.0, (3, 784))  # one sample a row
        out = self.classify(capsys, tmp_path, model, 2.5e302 * test)
        assert out[-1] == self.classify(capsys, tmp_path, model, test)[-1]  # the labels
        assert not any("inf" in line or "nan" in line for line in out)

    def test_digits_residual_past_the_float64_range(self, capsys, tmp_path, model):
        write_matrix_csv(np.full((2, 784), 1e308), tmp_path / "t.csv")
        assert_exits_2(capsys, ["digits", "classify", str(tmp_path / "t.csv"), "--model", model])

    def test_pca_variance_past_the_float64_range(self, capsys, tmp_path):
        write_matrix_csv(1e200 * np.random.default_rng(142).standard_normal((3, 6)), tmp_path / "x.csv")
        assert_exits_2(capsys, ["pca", str(tmp_path / "x.csv"), "--k", "2"])

    def test_fit_design_matrix_past_the_float64_range(self, capsys, tmp_path):
        t = 1e200 * np.arange(1.0, 6.0)  # t^3 is past the float64 maximum
        write_matrix_csv(np.column_stack([t, np.arange(5.0)]), tmp_path / "d.csv")
        assert_exits_2(capsys, ["fit", str(tmp_path / "d.csv"), "--degree", "3"])

    def test_pca_mean_near_the_float64_maximum(self, capsys, tmp_path):
        x = np.array([[1e308] * 3, [1.5e308] * 3])
        write_matrix_csv(x, tmp_path / "x.csv")
        out, err = run_lines(capsys, ["pca", str(tmp_path / "x.csv"), "--k", "1"])
        assert err == ""
        assert "variances = 0.000000" in out
        assert [[float(v) for v in line.split(",")] for line in out[-2:]] == x.tolist()  # reduced = x


class TestImageCommands:
    def test_compress_and_denoise(self, capsys, tmp_path):
        rng = np.random.default_rng(141)
        img = GrayImage(np.rint(rng.uniform(0, 255, size=(12, 10))))
        src = tmp_path / "in.pgm"
        write_pgm(img, src)
        dst = tmp_path / "out.pgm"
        out, _ = run_lines(capsys, ["compress", str(src), str(dst), "--k", "3"])
        assert any(line.startswith("storage_ratio = ") for line in out)
        assert any(line.startswith("sigma_tail = ") for line in out)
        assert dst.exists()
        out2, _ = run_lines(capsys, ["denoise", str(src), str(tmp_path / "d.pgm"), "--threshold", "10"])
        assert (tmp_path / "d.pgm").exists()
        assert out2 == []  # not even an empty line

    def test_denoise_nan_threshold_is_an_input_error(self, capsys, tmp_path):
        write_pgm(GrayImage(np.full((4, 3), 100.0)), tmp_path / "in.pgm")
        argv = ["denoise", str(tmp_path / "in.pgm"), str(tmp_path / "out.pgm"), "--threshold", "nan"]
        out, err = run_lines(capsys, argv, expect=1)
        assert out == [] and err == "input error: threshold must be nonnegative, got nan\n"
        assert not (tmp_path / "out.pgm").exists()

    def test_malformed_p2_raster_names_the_file(self, capsys, tmp_path):
        src = tmp_path / "bad.pgm"
        src.write_bytes(b"P2\n2 2\n255\n1 2 x 4\n")
        out, err = run_lines(capsys, ["compress", str(src), str(tmp_path / "out.pgm"), "--k", "1"], expect=1)
        assert out == []
        assert err == f"input error: {src}: malformed P2 raster\n"


class TestSummarize:
    def test_top_terms_and_sentences(self, capsys, tmp_path):
        text = tmp_path / "doc.txt"
        text.write_text(
            "the cat sat on the mat\n"
            "the cat chased the dog\n"
            "a dog barked\n"
        )
        stop = tmp_path / "stop.txt"
        stop.write_text("the\na\non\n")
        out, _ = run_lines(capsys, ["summarize", str(text), "--stopwords", str(stop), "--top", "2"])
        assert out[0].startswith("top_terms = ")
        assert "cat" in out[0]
        assert out[1] == "top_sentences:"
        assert len(out) == 4


class TestDigitsWorkflow:
    def test_synth_train_classify(self, capsys, tmp_path):
        data = tmp_path / "digits.csv"
        out, _ = run_lines(
            capsys, ["digits", "synth", "--per-class", "12", "--seed", "3", "--out", str(data)]
        )
        assert f"samples = 120" in out
        model = tmp_path / "model.okdm"
        out, _ = run_lines(
            capsys, ["digits", "train", str(data), "--k", "6", "--model", str(model)]
        )
        assert "k = 6" in out
        assert model.exists()
        out, _ = run_lines(capsys, ["digits", "classify", "--model", str(model), str(data)])
        assert any(line.startswith("labels = ") for line in out)
        acc_lines = [line for line in out if line.startswith("accuracy = ")]
        assert acc_lines and float(acc_lines[0].split("=")[1]) == 1.0

    def test_unlabeled_classify_prints_no_accuracy(self, capsys, tmp_path):
        from orthokit.apps import synth_digit_data, write_digits_csv

        data, model = tmp_path / "digits.csv", tmp_path / "model.okdm"
        write_digits_csv(data, *synth_digit_data(2, classes=10, seed=9))
        run_lines(capsys, ["digits", "train", str(data), "--k", "1", "--model", str(model)])
        # the same pixels without the label field
        unlabeled = tmp_path / "unlabeled.csv"
        unlabeled.write_text("".join(line.split(",", 1)[1] for line in data.read_text().splitlines(True)[:3]))
        out, _ = run_lines(capsys, ["digits", "classify", "--model", str(model), str(unlabeled)])
        assert [line.split(" = ")[0] for line in out] == ["residuals[0]", "residuals[1]", "residuals[2]", "labels"]

    def test_train_from_directory(self, capsys, tmp_path):
        from orthokit.apps import synth_digit_data

        x, labels = synth_digit_data(6, classes=10, seed=8)
        for c in range(10):
            write_matrix_csv(x[:, labels == c].T, tmp_path / f"{c}.csv")
        model = tmp_path / "m.okdm"
        out, _ = run_lines(
            capsys, ["digits", "train", str(tmp_path), "--k", "2", "--model", str(model)]
        )
        assert "classes = 10" in out
        assert model.exists()

    def test_model_shorter_than_its_header_is_an_input_error(self, capsys, tmp_path):
        model = tmp_path / "bad.okdm"
        model.write_bytes(b"OKDM\x01")
        test = tmp_path / "t.csv"
        test.write_text("1," + ",".join(["0"] * 784) + "\n")
        out, err = run_lines(capsys, ["digits", "classify", str(test), "--model", str(model)], expect=1)
        assert out == []
        assert err.count("\n") == 1 and err.startswith("input error: ") and "truncated model file" in err

    @pytest.mark.parametrize("k, entry, reason", [
        (0, 0.0, "model k must be >= 1, got 0"),
        (1, np.nan, "model entries must be finite (no NaN/Inf)"),
        (1, np.inf, "model entries must be finite (no NaN/Inf)"),
    ], ids=["k-0", "nan", "inf"])
    def test_model_classify_cannot_use_is_an_input_error(self, capsys, tmp_path, k, entry, reason):
        # At k = 0 every residual would be ||d|| and every label 0; a NaN or
        # Inf entry would reach the residuals and read as an overflow.
        blocks = np.zeros(10 * 784 * k)
        blocks[:1] = entry
        model = tmp_path / "bad.okdm"
        model.write_bytes(b"OKDM" + struct.pack("<II", 1, k) + blocks.astype("<f8").tobytes())
        test = tmp_path / "t.csv"
        test.write_text("1," + ",".join(["7"] * 784) + "\n")
        out, err = run_lines(capsys, ["digits", "classify", str(test), "--model", str(model)], expect=1)
        assert out == [] and err == f"input error: {model}: {reason}\n"

    @pytest.mark.parametrize("argv, seed", [(["--seed", "3"], 3), ([], 0)], ids=["seed-3", "default-0"])
    def test_synth_seed(self, capsys, tmp_path, argv, seed):
        from orthokit.apps import synth_digit_data, write_digits_csv

        out = tmp_path / "out.csv"
        run_lines(capsys, ["digits", "synth", "--per-class", "2", "--out", str(out)] + argv)
        write_digits_csv(tmp_path / "ref.csv", *synth_digit_data(per_class=2, seed=seed))
        assert out.read_text() == (tmp_path / "ref.csv").read_text()

    def test_no_global_seed(self, capsys, tmp_path):
        argv = ["--seed", "5", "digits", "synth", "--per-class", "2", "--out", str(tmp_path / "x.csv")]
        out, err = run_lines(capsys, argv, expect=1)
        assert out == [] and err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text, reason", [("", "no data rows"), ("\n\n", "no data rows"),
                                              ("# a comment\n", "line 1, column 1: not a number")],
                             ids=["empty", "blank", "comment"])
    def test_csv_without_data_is_one_input_error_line(self, capsys, tmp_path, text, reason):
        data = tmp_path / "f.csv"
        data.write_text(text)
        out, err = run_lines(capsys, ["digits", "train", str(data), "--k", "1", "--model", str(tmp_path / "m")],
                             expect=1)
        assert out == [] and err.count("\n") == 1
        assert err.startswith(f"input error: {data}: ") and reason in err


@pytest.mark.parametrize("argv", [["-h"], ["svd", "-h"]], ids=["top", "svd"])
def test_help_is_output_with_exit_code_0(monkeypatch, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(argv) == 0
    assert out.getvalue().startswith(f"usage: orthokit {' '.join(argv[:-1])}".rstrip())
    # the bytes argparse prints itself before it exits
    monkeypatch.delattr(cli._Parser, "print_help")
    stock = io.StringIO()
    with redirect_stdout(stock), pytest.raises(SystemExit, match="^0$"):
        cli._build_parser().parse_args(argv)
    assert out.getvalue() == stock.getvalue()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["fit", "{tmp}/three.csv", "--degree", "1"], "input error: {tmp}/three.csv: expected two columns",
                 id="fit-three-columns"),
    pytest.param(["svd", "{tmp}/non-finite.csv"], "input error: {tmp}/non-finite.csv: matrix entries must be finite",
                 id="svd-non-finite"),
    pytest.param(["digits", "train", "{tmp}", "--k", "1", "--model", "{tmp}/m"], "usage error: missing class file",
                 id="train-missing-class"),
    pytest.param(["digits", "train", "{tmp}/unlabeled.csv", "--k", "1", "--model", "{tmp}/m"],
                 "usage error: {tmp}/unlabeled.csv: training CSV must carry labels", id="train-unlabeled"),
    pytest.param(["digits", "train", "{tmp}/one-class.csv", "--k", "1", "--model", "{tmp}/m"],
                 "input error: {tmp}/one-class.csv: no samples of class 0", id="train-class-without-samples"),
    pytest.param(["summarize", "{tmp}/latin1.txt"], "input error: {tmp}/latin1.txt: 'utf-8' codec can't decode",
                 id="summarize-not-utf8"),
    pytest.param(["summarize", "{tmp}/doc.txt", "--stopwords", "{tmp}/latin1.txt"],
                 "input error: {tmp}/latin1.txt: 'utf-8' codec can't decode", id="stopwords-not-utf8"),
    pytest.param(["summarize", "{tmp}/doc.txt", "--stopwords", "{tmp}/doc.txt"],
                 "input error: {tmp}/doc.txt: no terms left after stopword removal", id="summarize-no-terms"),
])
def test_error_paths(capsys, tmp_path, argv, message):
    write_matrix_csv(np.ones((3, 3)), tmp_path / "three.csv")
    (tmp_path / "non-finite.csv").write_text("1,nan\ninf,1e400\n")
    (tmp_path / "unlabeled.csv").write_text(",".join(["0"] * 784) + "\n")
    (tmp_path / "one-class.csv").write_text("1," + ",".join(["0"] * 784) + "\n")
    (tmp_path / "latin1.txt").write_bytes("caf\xe9 au lait\n".encode("latin-1"))
    (tmp_path / "doc.txt").write_text("orthogonal factors\n")
    out, err = run_lines(capsys, [a.format(tmp=tmp_path) for a in argv], expect=1)
    assert out == [] and err.count("\n") == 1 and err.startswith(message.format(tmp=tmp_path))

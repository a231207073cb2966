import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import (
    CsvFormatError,
    NotPositiveDefiniteError,
    NumericalError,
    ShapeError,
    SingularTriangularError,
    as_matrix,
    as_vector,
    back_sub,
    cholesky,
    forward_sub,
    mat_mul,
    norm,
    read_matrix_csv,
    read_vector_csv,
    transpose,
    write_matrix_csv,
)
from orthokit.matrix import parse_matrix_csv, prescale, unscale
from helpers import SURVEY_A, SURVEY_GRAM, fro, triple_loop_matmul, written


class TestMatMul:
    def test_identity(self):
        a = np.arange(12.0).reshape(3, 4) + 1
        assert np.array_equal(mat_mul(np.eye(3), a), a)

    def test_annihilator(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(mat_mul(a, np.zeros((3, 2))), np.zeros((2, 2)))

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 2))
        assert np.abs(mat_mul(a, b) - triple_loop_matmul(a, b)).max() <= 1e-13

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            mat_mul(np.ones((2, 3)), np.ones((2, 2)))

    def test_associativity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.standard_normal((4, 3))
            b = rng.standard_normal((3, 5))
            c = rng.standard_normal((5, 2))
            lhs = mat_mul(mat_mul(a, b), c)
            rhs = mat_mul(a, mat_mul(b, c))
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_product_past_the_float64_range(self):
        with pytest.raises(NumericalError, match="^mat_mul: "):
            mat_mul([[1e200]], [[1e200]])


class TestTranspose:
    def test_involution(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 3))
        assert np.array_equal(transpose(transpose(a)), a)

    def test_identity(self):
        assert np.array_equal(transpose(np.eye(4)), np.eye(4))

    def test_survey_gram_matrix(self):
        gram = mat_mul(transpose(SURVEY_A), SURVEY_A)
        assert np.array_equal(gram, SURVEY_GRAM)


class TestNorm:
    def test_zero_matrix(self):
        assert norm(np.zeros((3, 4)), "frobenius") == 0.0

    def test_identity_frobenius(self):
        assert norm(np.eye(3), "frobenius") == pytest.approx(np.sqrt(3.0), abs=1e-15)

    def test_inf_norm_row_sum_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 4))
        expected = max(sum(abs(v) for v in row) for row in a)
        assert norm(a, "inf") == pytest.approx(expected, abs=1e-15)

    def test_one_norm_column_sum(self):
        a = np.array([[1.0, -4.0], [2.0, 1.0]])
        assert norm(a, "one") == 5.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="norm kind"):
            norm(np.eye(2), "two")

    def test_frobenius_matches_unscaled_sum_in_range(self):
        rng = np.random.default_rng(5)
        for shape in [(1, 1), (3, 7), (40, 25)]:
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100)
            assert norm(a) == float(np.sqrt((a * a).sum()))

    @pytest.mark.parametrize("e", [-600, 600])
    def test_frobenius_at_extreme_scales(self, e):
        # The squares of 2^±600 overflow or underflow; the scaled sum does not.
        assert norm(np.ldexp(np.ones((2, 2)), e)) == np.ldexp(2.0, e)
        a = np.random.default_rng(6).standard_normal((5, 3))
        assert norm(np.ldexp(a, e)) == np.ldexp(norm(a), e)

    def test_frobenius_of_tiny_entries_is_not_zero(self):
        assert norm(np.full((2, 2), 1e-200)) == 2e-200

    @pytest.mark.parametrize("kind, a", [("inf", [[1e308, 1e308]]), ("one", [[1e308], [1e308]]),
                                         ("frobenius", [[1.7e308, 1.7e308]])])
    def test_norm_past_the_float64_range(self, kind, a):
        with pytest.raises(NumericalError, match="^norm: "):
            norm(a, kind)

    def test_sums_near_the_float64_maximum(self):
        # Each norm is taken on the prescaled |a|: its sums cannot overflow.
        a = np.ldexp([[1.0, -0.5], [0.25, 0.0]], 1023)
        assert norm(a, "inf") == np.ldexp(1.5, 1023)
        assert norm(a, "one") == np.ldexp(1.25, 1023)


class TestTriangularSolves:
    def test_back_sub_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(back_sub(np.eye(3), b), b)

    def test_back_sub_2x2(self):
        x = back_sub(np.array([[2.0, 1.0], [0.0, 4.0]]), np.array([4.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-15)

    def test_back_sub_against_inverse_oracle(self):
        rng = np.random.default_rng(3)
        u = np.triu(rng.standard_normal((6, 6)))
        u[np.diag_indices(6)] = 1.0 + rng.random(6)
        b = rng.standard_normal(6)
        x = back_sub(u, b)
        x_oracle = np.linalg.inv(u) @ b
        assert np.linalg.norm(x - x_oracle) <= 1e-12 * np.linalg.norm(x_oracle)

    def test_back_sub_singular_pivot_reports_index(self):
        u = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0], [0.0, 0.0, 4.0]])
        with pytest.raises(SingularTriangularError) as err:
            back_sub(u, np.ones(3))
        assert err.value.index == 1

    def test_forward_sub_identity(self):
        b = np.array([1.0, 2.0])
        assert np.array_equal(forward_sub(np.eye(2), b), b)

    def test_forward_sub_2x2(self):
        x = forward_sub(np.array([[2.0, 0.0], [1.0, 4.0]]), np.array([2.0, 9.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-15)

    def test_forward_sub_against_inverse_oracle(self):
        rng = np.random.default_rng(4)
        l = np.tril(rng.standard_normal((6, 6)))
        l[np.diag_indices(6)] = 1.0 + rng.random(6)
        b = rng.standard_normal(6)
        x = forward_sub(l, b)
        x_oracle = np.linalg.inv(l) @ b
        assert np.linalg.norm(x - x_oracle) <= 1e-12 * np.linalg.norm(x_oracle)

    def test_residual_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            u = np.triu(rng.standard_normal((n, n)))
            u[np.diag_indices(n)] = 1.0 + rng.random(n)
            b = rng.standard_normal(n)
            x = back_sub(u, b)
            assert np.linalg.norm(u @ x - b) <= 1e-12 * fro(u) * np.linalg.norm(x)
            l = u.T.copy()
            xl = forward_sub(l, b)
            assert np.linalg.norm(l @ xl - b) <= 1e-12 * fro(l) * np.linalg.norm(xl)

    def test_pivot_tolerance_does_not_overflow(self):
        # ||U||_inf = 2e308 is past the float64 range; the pivot tolerance
        # 1e-14 * ||U||_inf is not.
        u = np.array([[1e308, 1e308], [0.0, 1e308]])
        x = back_sub(u, np.ones(2))
        assert np.abs(x * 1e308 - [0.0, 1.0]).max() <= 1e-15
        xl = forward_sub(u.T.copy(), np.ones(2))
        assert np.abs(xl * 1e308 - [1.0, 0.0]).max() <= 1e-15

    def test_only_the_triangle_is_read(self):
        # An entry of 1e20 outside the triangle would put the pivot
        # tolerance at 1e6, above every pivot of the triangle itself.
        u = np.array([[1.0, 2.0, 3.0], [0.0, 4.0, 5.0], [0.0, 0.0, 6.0]])
        b = np.array([1.0, 2.0, 3.0])
        junk = u.copy()
        junk[2, 0] = 1e20
        assert np.array_equal(back_sub(junk, b), back_sub(u, b))
        assert np.array_equal(forward_sub(junk.T.copy(), b), forward_sub(u.T.copy(), b))

    @pytest.mark.parametrize("diag, b", [
        (1e-310, np.ones(2)),  # x_1 = 1e310 overflows; x_0 then reads 0 * inf = NaN
        (1e-200, np.full(2, 1e200)),
    ])
    def test_solution_past_the_float64_range_raises(self, diag, b):
        u = np.diag([diag, diag])
        with pytest.raises(NumericalError, match="^back_sub: "):
            back_sub(u, b)
        with pytest.raises(NumericalError, match="^forward_sub: "):
            forward_sub(u, b)

    def test_norm_tol_matches_unscaled_product_in_range(self):
        from orthokit.matrix import norm_tol

        rng = np.random.default_rng(7)
        for e in (-900, -300, 0, 300, 900):
            a = rng.standard_normal((5, 4)) * 2.0 ** e
            assert norm_tol(a, 1e-12) == 1e-12 * np.abs(a).sum(axis=1).max()


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_computed_2x2(self):
        l = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(l, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)

    def test_survey_gram_roundtrip(self):
        l = cholesky(SURVEY_GRAM)
        assert np.abs(l @ l.T - SURVEY_GRAM).max() <= 1e-12 * fro(SURVEY_GRAM)
        assert (np.diagonal(l) > 0).all()

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(6)
        eps = np.finfo(float).eps
        for _ in range(50):
            n = int(rng.integers(2, 10))
            m = rng.standard_normal((n, n))
            s = m.T @ m + n * eps * np.eye(n)
            l = cholesky(s)
            assert fro(l @ l.T - s) <= 1e-11 * fro(s)

    def test_not_positive_definite_reports_index(self):
        s = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(s)
        assert err.value.index == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError, match="symmetric"):
            cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_symmetry_check_survives_overflowing_norm(self):
        # ||S||_inf = 1.9e308 is past the float64 range.
        s = np.array([[1e308, 0.9e308], [0.9e308, 1e308]])
        l = cholesky(s)
        assert np.abs(l @ l.T / 1e308 - s / 1e308).max() <= 1e-15
        with pytest.raises(ShapeError, match="symmetric"):
            cholesky(np.array([[1e308, 0.9e308], [0.5e308, 1e308]]))
        # S - S^T is +-3.4e308, past the float64 range: no RuntimeWarning.
        with pytest.raises(ShapeError, match="symmetric"):
            cholesky(np.array([[1e308, 1.7e308], [-1.7e308, 1e308]]))


class TestPow2Scale:
    def test_least_power_of_two_at_or_above(self):
        from orthokit.matrix import pow2_scale

        tiny = np.nextafter(0.0, 1.0)
        for top in (tiny, 1e-310, 1e-300, 0.3, 1.0, 1.5, 2.0, 1000.0, 1e300, 2.0 ** 1023):
            scale = pow2_scale(top)
            assert np.frexp(scale)[0] == 0.5  # a power of two
            assert 0.5 < top / scale <= 1.0

    def test_never_overflows(self):
        from orthokit.matrix import pow2_scale

        top = np.finfo(float).max
        scale = pow2_scale(top)
        assert scale == 2.0 ** 1023 and 1.0 < top / scale < 2.0
        assert pow2_scale(0.0) == 1.0


class TestPrescale:
    @pytest.mark.parametrize("e", [-1000, 0, 1000])
    def test_exact_round_trip(self, e):
        base = np.array([[1.5, -0.25], [3.0, 0.0]])
        a = np.ldexp(base, e)
        s = prescale(a)
        assert s == 2.0 ** (e + 2)
        assert np.array_equal(a, base / 4.0)
        unscale("round trip", s, a)
        assert np.array_equal(a, np.ldexp(base, e))

    def test_all_zero(self):
        a = np.zeros((2, 3))
        assert prescale(a) == 1.0
        unscale("zeros", 1.0, a)
        assert not a.any()

    def test_overflow_names_the_caller(self):
        x, y = np.array([2.5, -0.5]), np.array([0.25])
        before = np.geterr()
        with pytest.raises(NumericalError, match="^my factorization: "):
            unscale("my factorization", 2.0 ** 1023, x, y)
        assert np.isinf(x[0]) and x[1] == -(2.0 ** 1022) and y[0] == 2.0 ** 1021
        assert np.geterr() == before


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[1.0, float("nan")]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((0, 3)))

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])


class TestCsv:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-12, 12, size=(4, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(a, path, precision=17)
        back = read_matrix_csv(path)
        assert np.array_equal(a, back)

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(CsvFormatError, match="line 2, column 2"):
            read_matrix_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            read_matrix_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="no data"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text, match", [
        ("1,2\n3\n4,x\n", r"^<string>: line 2: expected 2 fields, found 1$"),
        ("1,2\n\n4,x\n5\n", r"^<string>: line 3, column 2: not a number: 'x'$"),
        ("1, ,3\n", r"^<string>: line 1, column 2: not a number: ''$"),
    ], ids=["width-first", "number-first", "blank-field"])
    def test_first_error_in_file_order(self, text, match):
        with pytest.raises(CsvFormatError, match=match):
            parse_matrix_csv(text)

    @pytest.mark.parametrize("field", ["1_000", "\u0661"], ids=["underscore", "arabic-indic-digit"])
    def test_fields_float_alone_accepts_are_rejected(self, field):
        # float() reads both; loadtxt's message is then the diagnosis.
        with pytest.raises(CsvFormatError, match=r"^<string>: could not convert string"):
            parse_matrix_csv(f"1,{field}\n")

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            parse_matrix_csv("1,nan\n2,3\n")

    def test_invalid_utf8_names_the_file(self, tmp_path):
        path = written(tmp_path / "latin1.csv", b"1,2\n\xff,3\n")
        with pytest.raises(ValueError, match=r"latin1\.csv: 'utf-8' codec can't decode byte 0xff"):
            read_matrix_csv(path)

    def test_extreme_values_roundtrip_bit_identical(self, tmp_path):
        tiny, big = np.nextafter(0.0, 1.0), np.finfo(float).max
        a = np.array([[0.0, -0.0, tiny, -tiny], [big, -big, np.finfo(float).tiny, 1e-310]])
        path = tmp_path / "m.csv"
        write_matrix_csv(a, path)
        assert read_matrix_csv(path).tobytes() == a.tobytes()

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n), min_size=1, max_size=4)))
    def test_any_finite_float64_roundtrips_bit_identical(self, tmp_path_factory, rows):
        a = np.array(rows)
        path = tmp_path_factory.mktemp("codec") / "m.csv"
        write_matrix_csv(a, path)
        assert read_matrix_csv(path).tobytes() == a.tobytes()

    def test_vector_column_and_row(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1\n2\n3\n")
        assert np.array_equal(read_vector_csv(path), [1.0, 2.0, 3.0])
        path.write_text("1,2,3\n")
        assert np.array_equal(read_vector_csv(path), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda tmp: back_sub(np.ones((2, 3)), [1.0, 2.0]), ShapeError, "square", id="back_sub-shape"),
    pytest.param(lambda tmp: back_sub(np.eye(2), [1.0, 2.0, 3.0]), ShapeError, "length 3", id="back_sub-rhs"),
    pytest.param(lambda tmp: forward_sub(np.ones((2, 3)), [1.0, 2.0]), ShapeError, "square", id="forward_sub-shape"),
    pytest.param(lambda tmp: forward_sub(np.eye(2), [1.0, 2.0, 3.0]), ShapeError, "length 3", id="forward_sub-rhs"),
    pytest.param(lambda tmp: cholesky(np.ones((2, 3))), ShapeError, "square", id="cholesky-shape"),
    pytest.param(lambda tmp: as_vector([]), ShapeError, "positive", id="as_vector-empty"),
    pytest.param(lambda tmp: read_vector_csv(written(tmp / "m.csv", "1,0\n0,1\n")), ShapeError,
                 "m.csv: expected a single row or column", id="read_vector_csv-2x2"),
])
def test_error_paths(call, error, match, tmp_path):
    with pytest.raises(error, match=match):
        call(tmp_path)

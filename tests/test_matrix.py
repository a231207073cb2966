import numpy as np
import pytest

from orthokit import (
    CsvFormatError,
    NotPositiveDefiniteError,
    ShapeError,
    SingularTriangularError,
    as_matrix,
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
from helpers import SURVEY_A, SURVEY_GRAM, fro, triple_loop_matmul


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

    def test_vector_column_and_row(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1\n2\n3\n")
        assert np.array_equal(read_vector_csv(path), [1.0, 2.0, 3.0])
        path.write_text("1,2,3\n")
        assert np.array_equal(read_vector_csv(path), [1.0, 2.0, 3.0])

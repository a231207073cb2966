import numpy as np
import pytest

from orthokit import (
    GivensRotation,
    ShapeError,
    givens_apply,
    givens_params,
    householder_apply_left,
    householder_apply_right,
    householder_vector,
)
from helpers import ZEROING_A, ZEROING_GIVENS, ZEROING_HOUSEHOLDER, dense_reflector, fro


class TestHouseholderVector:
    def test_zeroing_demo_column(self):
        x = np.array([2.0, 1.0, 2.0, 1.0])
        h = householder_vector(x)
        hx = dense_reflector(h) @ x
        assert hx[0] == pytest.approx(-np.sqrt(10.0), abs=1e-12)
        assert np.abs(hx[1:]).max() <= 1e-13 * np.linalg.norm(x)

    def test_unit_first_axis_flips(self):
        e1 = np.array([1.0, 0.0, 0.0])
        h = householder_vector(e1)
        assert np.allclose(dense_reflector(h) @ e1, -e1, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = rng.standard_normal(int(rng.integers(1, 12)))
            if not np.any(x):
                continue
            h = householder_vector(x)
            hx = dense_reflector(h) @ x
            assert abs(np.linalg.norm(hx) - np.linalg.norm(x)) <= 1e-13 * np.linalg.norm(x)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            householder_vector(np.zeros(4))

    def test_extreme_scales_stay_finite(self):
        from orthokit.reflectors import stable_norm

        rng = np.random.default_rng(20)
        base = rng.standard_normal(5)
        for scale in (1e-280, 1e280):
            x = base * scale
            assert stable_norm(x) == pytest.approx(np.linalg.norm(base) * scale, rel=1e-14)
            h = householder_vector(x)
            assert np.isfinite(h.u).all() and np.isfinite(h.beta)
            hx = dense_reflector(h) @ x
            assert abs(abs(hx[0]) - stable_norm(x)) <= 1e-13 * stable_norm(x)

    def test_entries_above_two_to_the_1023(self):
        from orthokit.reflectors import stable_norm

        x = np.array([1e308, -1e307, 5e306])
        expected = np.linalg.norm(x / 2.0 ** 1000) * 2.0 ** 1000
        assert stable_norm(x) == pytest.approx(expected, rel=1e-15)
        h = householder_vector(x)
        hx = dense_reflector(h) @ (x / 2.0 ** 1000)
        assert abs(hx[0]) * 2.0 ** 1000 == pytest.approx(expected, rel=1e-14)
        assert np.abs(hx[1:]).max() <= 1e-15 * abs(hx[0])

    def test_applying_twice_restores(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(6)
        h = householder_vector(x)
        v = rng.standard_normal(6)
        hv = dense_reflector(h) @ v
        hhv = dense_reflector(h) @ hv
        assert np.linalg.norm(hhv - v) <= 1e-12 * np.linalg.norm(v)

    def test_orthogonality_many(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            x = rng.standard_normal(n)
            if not np.any(x):
                continue
            h = householder_vector(x)
            hm = dense_reflector(h)
            assert fro(hm.T @ hm - np.eye(n)) <= 1e-12 * n

    def test_fixes_orthogonal_complement(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            x = rng.standard_normal(7)
            h = householder_vector(x)
            v = rng.standard_normal(7)
            v -= (v @ h.u) / (h.u @ h.u) * h.u  # now v _|_ u
            hv = dense_reflector(h) @ v
            assert np.linalg.norm(hv - v) <= 1e-12 * max(np.linalg.norm(v), 1e-300)

    def test_maps_equal_norm_vectors(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            y *= np.linalg.norm(x) / np.linalg.norm(y)
            if np.allclose(x, y):
                continue
            u = x - y
            from orthokit import HouseholderReflector

            h = HouseholderReflector(u, 2.0 / (u @ u))
            hx = dense_reflector(h) @ x
            assert np.linalg.norm(hx - y) <= 1e-11 * np.linalg.norm(x)


class TestHouseholderProducts:
    def test_left_golden(self):
        h = householder_vector(ZEROING_A[:, 0])
        out = householder_apply_left(h, ZEROING_A)
        assert np.abs(out - ZEROING_HOUSEHOLDER).max() <= 6e-5

    def test_left_on_own_vector(self):
        rng = np.random.default_rng(26)
        h = householder_vector(rng.standard_normal(5))
        out = householder_apply_left(h, h.u.reshape(-1, 1))
        assert np.allclose(out[:, 0], -h.u, atol=1e-12 * np.linalg.norm(h.u))

    def test_left_against_dense_oracle(self):
        rng = np.random.default_rng(27)
        a = rng.standard_normal((5, 3))
        h = householder_vector(rng.standard_normal(5))
        assert np.abs(householder_apply_left(h, a) - dense_reflector(h) @ a).max() <= 1e-13

    def test_left_dimension_mismatch(self):
        h = householder_vector(np.ones(4))
        with pytest.raises(ShapeError):
            householder_apply_left(h, np.ones((3, 2)))

    def test_right_materializes_dense(self):
        rng = np.random.default_rng(28)
        h = householder_vector(rng.standard_normal(4))
        out = householder_apply_right(np.eye(4), h)
        assert np.abs(out - dense_reflector(h)).max() <= 1e-14

    def test_right_transpose_symmetry(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((3, 5))
        h = householder_vector(rng.standard_normal(3))
        lhs = householder_apply_left(h, a).T
        rhs = householder_apply_right(a.T.copy(), h)
        assert np.abs(lhs - rhs).max() <= 1e-13

    def test_right_twice_restores(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((4, 6))
        h = householder_vector(rng.standard_normal(6))
        again = householder_apply_right(householder_apply_right(a, h), h)
        assert np.abs(again - a).max() <= 1e-12 * np.abs(a).max()


class TestGivens:
    def test_no_rotation_needed(self):
        assert givens_params(1.0, 0.0) == (1.0, 0.0)

    def test_three_four_five(self):
        c, s = givens_params(3.0, 4.0)
        assert c * 4.0 - s * 3.0 == pytest.approx(0.0, abs=1e-15)
        assert abs(c * 3.0 + s * 4.0) == pytest.approx(5.0, abs=1e-14)

    def test_tiny_values_do_not_underflow(self):
        c, s = givens_params(1e-200, 1e-200)
        # Scaled-formula oracle: t = 1, so |c| = |s| = 1/sqrt(2) exactly.
        assert abs(abs(c) - 1 / np.sqrt(2)) <= 1e-15
        assert abs(abs(s) - 1 / np.sqrt(2)) <= 1e-15
        assert np.isfinite(c) and np.isfinite(s) and (c, s) != (0.0, 0.0)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            givens_params(0.0, 0.0)

    def test_zeroing_pipeline_golden(self):
        a = ZEROING_A.copy()
        for k in range(3, 0, -1):
            c, s = givens_params(a[0, 0], a[k, 0])
            a = givens_apply(GivensRotation(c, s, 0, k), a)
        assert np.abs(a - ZEROING_GIVENS).max() <= 6e-5
        assert np.abs(a[1:, 0]).max() <= 6e-5

    def test_identity_rotation(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((4, 3))
        out = givens_apply(GivensRotation(1.0, 0.0, 1, 3), a)
        assert np.array_equal(out, a)

    def test_only_two_rows_change(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal((5, 4))
        c, s = givens_params(0.6, 0.8)
        out = givens_apply(GivensRotation(c, s, 1, 3), a)
        untouched = [0, 2, 4]
        assert np.array_equal(out[untouched], a[untouched])
        assert np.allclose(out[1], c * a[1] + s * a[3], atol=1e-15)
        assert np.allclose(out[3], -s * a[1] + c * a[3], atol=1e-15)

    def test_column_norms_preserved(self):
        rng = np.random.default_rng(33)
        a = rng.standard_normal((6, 4))
        c, s = givens_params(*rng.standard_normal(2))
        out = givens_apply(GivensRotation(c, s, 2, 5), a)
        for j in range(4):
            assert abs(np.linalg.norm(out[:, j]) - np.linalg.norm(a[:, j])) <= 1e-13

    def test_frobenius_preserved(self):
        rng = np.random.default_rng(34)
        a = rng.standard_normal((6, 5))
        c, s = givens_params(*rng.standard_normal(2))
        out = givens_apply(GivensRotation(c, s, 0, 4), a)
        assert abs(fro(out) - fro(a)) <= 1e-12 * fro(a)

    def test_index_out_of_range(self):
        with pytest.raises(ShapeError, match="out of range"):
            givens_apply(GivensRotation(1.0, 0.0, 0, 5), np.ones((3, 2)))

    def test_rotation_validation(self):
        with pytest.raises(ValueError, match="j < k"):
            GivensRotation(1.0, 0.0, 2, 1)
        with pytest.raises(ValueError, match="c\\^2"):
            GivensRotation(0.9, 0.9, 0, 1)

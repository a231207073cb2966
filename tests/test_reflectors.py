import numpy as np
import pytest

from orthokit import (
    GivensRotation,
    QrMode,
    ShapeError,
    form_q,
    givens_apply,
    givens_params,
    householder_apply_left,
    householder_apply_right,
    householder_vector,
    qr_householder,
)
from orthokit.reflectors import BLOCK, CROSSOVER, annihilate, reflect, reflect_all, stable_norm
from orthokit.svd import bidiagonalize
from helpers import ZEROING_A, ZEROING_GIVENS, ZEROING_HOUSEHOLDER, dense_reflector, fro

EPS = np.finfo(float).eps


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


def with_zero_columns(rng, m, n, cols):
    a = rng.standard_normal((m, n))
    a[:, cols] = 0.0
    return a


def reflector_lists():
    """``(name, reflectors, m)``: lists that span several blocks and end in
    a partial one; zero columns inside a panel (10) and on both sides of a
    panel edge (31, 32) leave gaps in the offsets, and bidiagonalization's
    right reflectors start at offset 1."""
    rng = np.random.default_rng(60)
    gaps = with_zero_columns(rng, 130, 65, [10, 31, 32])
    left, _, right = bidiagonalize(rng.standard_normal((120, 90)))
    return [
        ("qr 300x100", qr_householder(rng.standard_normal((300, 100)), "r+u").reflectors, 300),
        ("qr 97x97", qr_householder(rng.standard_normal((97, 97)), "r+u").reflectors, 97),
        ("qr 130x65 with gaps", qr_householder(gaps, "r+u").reflectors, 130),
        ("bidiag left 120x90", left, 120),
        ("bidiag right 120x90", right, 90),
    ]


def dense_apply(reflectors, a, transpose=False):
    """``H_1 H_2 ... H_s a`` (``H_s ... H_1 a`` with ``transpose``) from the
    materialized reflectors."""
    for h in reflectors if transpose else reversed(reflectors):
        a = dense_reflector(h) @ a
    return a


class TestBlockedApply:
    @pytest.fixture(scope="class")
    def lists(self):
        return reflector_lists()

    def test_lists_cross_blocks_with_gaps(self, lists):
        assert [len(hs) for _, hs, _ in lists] == [100, 96, 62, 90, 88]
        assert min(len(hs) for _, hs, _ in lists) > BLOCK
        offsets = [h.offset for h in lists[2][1]]
        assert {10, 31, 32}.isdisjoint(offsets) and {9, 11, 30, 33} <= set(offsets)
        assert lists[4][1][0].offset == 1

    def test_product_and_transpose_match_dense_oracle(self, lists):
        rng = np.random.default_rng(61)
        for name, hs, m in lists:
            a = rng.standard_normal((m, 7))
            tol = 20 * m * EPS * np.abs(a).max()
            for transpose in (False, True):
                out = a.copy()
                reflect_all(hs, out, transpose)
                assert np.abs(out - dense_apply(hs, a, transpose)).max() <= tol, (name, transpose)

    def test_form_q_full_and_thin_match_dense_oracle(self, lists):
        # Q is compared through its action on random vectors, which mixes
        # every column, so the oracle stays a product of m x m reflectors
        # with m x 7 blocks.
        rng = np.random.default_rng(64)
        for name, hs, m in lists:
            cols = len(hs)
            a = rng.standard_normal((m, 7))
            tol = 20 * m * EPS * np.abs(a).max()
            assert np.abs(form_q(hs, m) @ a - dense_apply(hs, a)).max() <= tol, name
            thin = np.vstack([a[:cols], np.zeros((m - cols, 7))])
            assert np.abs(form_q(hs, m, cols) @ a[:cols] - dense_apply(hs, thin)).max() <= tol, name

    def test_short_list_is_the_rank1_loop_bit_for_bit(self):
        rng = np.random.default_rng(62)
        hs = qr_householder(rng.standard_normal((50, CROSSOVER - 1)), "r+u").reflectors
        assert len(hs) == CROSSOVER - 1
        q = np.eye(50)
        for h in reversed(hs):
            reflect(h, q)
        assert np.array_equal(form_q(hs, 50), q)
        b = rng.standard_normal((50, 1))
        qtb = b.copy()
        for h in hs:
            reflect(h, qtb)
        reflect_all(hs, b, transpose=True)
        assert np.array_equal(b, qtb)

    def test_one_column_is_the_rank1_loop_bit_for_bit(self, lists):
        # Q^T b for one right-hand side skips the compact WY groups.
        rng = np.random.default_rng(66)
        for name, hs, m in lists:
            b = rng.standard_normal((m, 1))
            for transpose in (False, True):
                loop = b.copy()
                for h in hs if transpose else reversed(hs):
                    reflect(h, loop)
                out = b.copy()
                reflect_all(hs, out, transpose)
                assert np.array_equal(out, loop), (name, transpose)

    def test_annihilate_alpha_is_the_stable_norm(self):
        rng = np.random.default_rng(63)
        for scale in (1.0, 2.0 ** -900, 2.0 ** 900):
            block = rng.standard_normal((9, 4)) * scale
            x = block[:, 0].copy()
            annihilate(block, 0)
            assert block[0, 0] == -np.sign(x[0]) * stable_norm(x)
            assert np.all(block[1:, 0] == 0.0)


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

    def test_both_zero_is_identity(self):
        # As LAPACK's xLARTG: the (0, 0) pair needs no rotation.
        for x, y in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)]:
            c, s = givens_params(x, y)
            assert (c, s) == (1.0, 0.0) and not np.signbit(s)

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

import numpy as np
import pytest

from orthokit import (
    NumericalError,
    QrMode,
    ShapeError,
    form_q,
    matrix_rank,
    qr_givens,
    qr_hessenberg,
    qr_householder,
    qr_pivoted,
)
from helpers import (
    SURVEY_A,
    SURVEY_Q_PRINTED,
    SURVEY_R_PRINTED,
    ZEROING_A,
    ZEROING_GIVENS,
    fro,
    random_rank_deficient,
)


def reconstruction_checks(a, q, r, rtol_recon=1e-11, rtol_orth=1e-12):
    m = a.shape[0]
    assert fro(q.T @ q - np.eye(m)) <= rtol_orth * m
    assert fro(q @ r - a) <= rtol_recon * max(fro(a), 1e-300)
    assert np.abs(np.tril(r, -1)).max() == 0.0


class TestHouseholderQr:
    def test_survey_golden_factors(self):
        f = qr_householder(SURVEY_A, QrMode.Q_AND_R)
        assert np.abs(np.diagonal(f.r) - [-1.7321, -1.6330, -1.4142]).max() <= 6e-5
        assert np.abs(f.q[:, 0] - [-0.5774, 0, 0, 0.5774, 0.5774, 0]).max() <= 6e-5
        assert np.abs(f.q - SURVEY_Q_PRINTED).max() <= 6e-5
        assert np.abs(f.r - SURVEY_R_PRINTED).max() <= 6e-5

    def test_already_triangular_is_fixed_point(self):
        a = np.triu(np.arange(1.0, 17.0).reshape(4, 4)) + np.eye(4)
        f = qr_householder(a, QrMode.Q_AND_R)
        assert np.array_equal(f.q, np.eye(4))
        assert np.array_equal(f.r, a)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((7, 4))
        f = qr_householder(a, QrMode.Q_AND_R)
        reconstruction_checks(a, f.q, f.r)

    def test_wide_matrix(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 5))
        f = qr_householder(a, QrMode.Q_AND_R)
        reconstruction_checks(a, f.q, f.r)

    def test_single_row(self):
        f = qr_householder(np.array([[1.0, 2.0, 3.0]]), QrMode.Q_AND_R)
        assert np.array_equal(f.q, np.eye(1))
        assert np.array_equal(f.r, [[1.0, 2.0, 3.0]])

    def test_mode_consistency_r_exact(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((6, 4))
        r_only = qr_householder(a, QrMode.R_ONLY).r
        full = qr_householder(a, QrMode.Q_AND_R)
        assert np.array_equal(r_only, full.r)
        assert qr_householder(a, "r").r is not None  # string alias accepted

    def test_mode_strings(self):
        assert QrMode.of("qr") is QrMode.Q_AND_R
        assert QrMode.of("r&u") is QrMode.R_AND_REFLECTORS
        with pytest.raises(ValueError, match="mode"):
            QrMode.of("banana")


class TestFormQ:
    def test_empty_reflector_list(self):
        assert np.array_equal(form_q([], 4), np.eye(4))

    def test_single_reflector_is_dense_materialization(self):
        rng = np.random.default_rng(44)
        from orthokit import householder_vector

        h = householder_vector(rng.standard_normal(5))
        dense = np.eye(5) - h.beta * np.outer(h.u, h.u)
        assert np.abs(form_q([h], 5) - dense).max() <= 1e-14

    def test_matches_explicit_q_mode(self):
        f = qr_householder(SURVEY_A, QrMode.R_AND_REFLECTORS)
        q = form_q(f.reflectors, SURVEY_A.shape[0])
        full = qr_householder(SURVEY_A, QrMode.Q_AND_R)
        assert np.abs(q - full.q).max() <= 1e-13

    def test_inconsistent_lengths_rejected(self):
        from orthokit import householder_vector

        h = householder_vector(np.ones(3))
        with pytest.raises(ShapeError, match="inconsistent"):
            form_q([h], 5)


class TestGivensQr:
    def test_zeroing_demo_column_golden(self):
        f = qr_givens(ZEROING_A)
        assert np.abs(f.r[:, 0] - [3.1623, 0.0, 0.0, 0.0]).max() <= 6e-5
        assert np.abs(f.r[0, :] - ZEROING_GIVENS[0, :]).max() <= 6e-5
        reconstruction_checks(ZEROING_A, f.q, f.r)

    def test_one_by_one(self):
        f = qr_givens(np.array([[5.0]]))
        assert np.array_equal(f.q, [[1.0]])
        assert np.array_equal(f.r, [[5.0]])

    def test_abs_r_matches_householder(self):
        rng = np.random.default_rng(45)
        a = rng.standard_normal((6, 4))
        rg = np.abs(qr_givens(a).r)
        rh = np.abs(qr_householder(a, QrMode.R_ONLY).r)
        assert np.abs(rg - rh).max() <= 1e-11


class TestHessenbergQr:
    def test_triangular_input_needs_no_rotations(self):
        h = np.triu(np.arange(1.0, 10.0).reshape(3, 3)) + np.eye(3)
        f = qr_hessenberg(h)
        assert f.rotation_count == 0
        assert np.array_equal(f.r, h)

    def test_4x4_pattern_uses_three_rotations(self):
        h = np.array(
            [
                [2.0, 1.0, 3.0, 4.0],
                [1.0, 5.0, 2.0, 1.0],
                [0.0, 3.0, 1.0, 2.0],
                [0.0, 0.0, 2.0, 6.0],
            ]
        )
        f = qr_hessenberg(h)
        assert f.rotation_count == 3
        assert np.abs(np.tril(f.r, -1)).max() == 0.0
        reconstruction_checks(h, f.q, f.r)

    def test_random_8x8(self):
        rng = np.random.default_rng(46)
        h = np.triu(rng.standard_normal((8, 8)), -1)
        f = qr_hessenberg(h)
        assert f.rotation_count == 7
        assert fro(f.q @ f.r - h) <= 1e-11 * fro(h)

    def test_subdiagonal_violation_reported(self):
        bad = np.zeros((4, 4))
        bad[3, 0] = 1.0
        with pytest.raises(ShapeError, match=r"\(3, 0\)"):
            qr_hessenberg(bad)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="square"):
            qr_hessenberg(np.ones((3, 4)))


class TestPivotedQr:
    def test_full_rank_survey(self):
        f = qr_pivoted(SURVEY_A)
        assert f.rank == 3 == matrix_rank(SURVEY_A)
        diag = np.abs(np.diagonal(f.r))[: f.rank]
        assert (np.diff(diag) <= 1e-14).all()

    def test_constructed_rank_deficiency(self):
        rng = np.random.default_rng(47)
        b = rng.standard_normal((6, 2))
        a = np.column_stack([b[:, 0], b[:, 1], b[:, 0] + b[:, 1]])
        f = qr_pivoted(a)
        assert f.rank == 2
        delta = 1e-12 * np.abs(a).sum(axis=1).max()
        assert fro(f.r[2:, 2:]) <= delta

    def test_zero_matrix(self):
        f = qr_pivoted(np.zeros((4, 3)))
        assert f.rank == 0
        assert np.array_equal(f.r, np.zeros((4, 3)))

    def test_permuted_reconstruction(self):
        rng = np.random.default_rng(48)
        for shape in [(6, 4), (4, 6), (5, 5)]:
            a = rng.standard_normal(shape)
            f = qr_pivoted(a)
            q = form_q(f.reflectors, shape[0])
            assert fro(q @ f.r - a[:, f.perm]) <= 1e-11 * fro(a)
            assert sorted(f.perm.tolist()) == list(range(shape[1]))

    def test_pivot_dominates_fresh_column_norms(self):
        # Residual column norms at step k equal ||R[k:, j]|| of the final R,
        # since later reflectors act orthogonally on rows k and below.  The
        # chosen pivot must dominate them up to the downdating tolerance.
        rng = np.random.default_rng(49)
        for trial in range(20):
            a = rng.standard_normal((10, 6))
            if trial % 2:
                a = random_rank_deficient(rng, 10, 6, 3)
            f = qr_pivoted(a)
            r = f.r
            for k in range(min(a.shape)):
                fresh = np.sqrt((r[k:, k:] ** 2).sum(axis=0))
                assert abs(r[k, k]) >= fresh.max() * (1 - 1e-6)

    def test_downdate_cancellation_guard(self):
        # Second column nearly parallel to the first: its downdated norm
        # collapses by ~14 orders of magnitude, forcing the exact recompute.
        rng = np.random.default_rng(50)
        u = rng.standard_normal(8)
        v = rng.standard_normal(8) * 1e-7
        a = np.column_stack([u, u + v, rng.standard_normal(8) * 1e-9])
        f = qr_pivoted(a)
        r = f.r
        for k in range(3):
            fresh = np.sqrt((r[k:, k:] ** 2).sum(axis=0))
            assert abs(r[k, k]) >= fresh.max() * (1 - 1e-6)

    def test_rank_matches_svd_on_random_mixes(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            r = int(rng.integers(1, 4))
            a = random_rank_deficient(rng, 6, 4, r)
            assert qr_pivoted(a).rank == matrix_rank(a) == r


    def test_entries_near_float64_max(self):
        # The prescale is capped at 2^1023; the rank threshold comes from
        # the scaled matrix, whose inf-norm row sums cannot overflow.
        a = np.array([[1e308, 1e308], [1e308, -1e308]])
        f = qr_pivoted(a)
        assert f.rank == 2 and np.isfinite(f.r).all()
        q = form_q(f.reflectors, 2)
        assert np.abs(q @ (f.r / 1e308) - a[:, f.perm] / 1e308).max() <= 1e-15
        assert abs(abs(f.r[0, 0]) - np.sqrt(2.0) * 1e308) <= 1e-15 * 1e308

    @pytest.mark.filterwarnings("error")
    def test_overflowing_r_raises_without_warnings(self):
        # |R[0, 0]| = 1.5e308 * sqrt(2) is past the float64 range.
        a = np.full((2, 2), 1.5e308)
        for factor in (qr_householder, qr_pivoted, qr_givens, qr_hessenberg):
            with pytest.raises(NumericalError):
                factor(a)


class TestFactorizationInvariants:
    def test_orthogonality_and_backward_error(self):
        rng = np.random.default_rng(52)
        shapes = [(5, 3), (3, 5), (8, 8), (20, 4)]
        for i in range(100):
            m, n = shapes[i % 4]
            a = rng.standard_normal((m, n))
            f = qr_householder(a, QrMode.Q_AND_R)
            assert fro(f.q.T @ f.q - np.eye(m)) <= 1e-12 * m
            assert fro(a - f.q @ f.r) <= 1e-13 * fro(a) * max(m, n)
            g = qr_givens(a)
            assert fro(g.q.T @ g.q - np.eye(m)) <= 1e-12 * m
            assert fro(a - g.q @ g.r) <= 1e-13 * fro(a) * max(m, n)

import numpy as np
import pytest

from orthokit import (
    NumericalError,
    QrMode,
    RankDeficiencyError,
    ShapeError,
    complement,
    is_projector,
    norm2,
    projector_from_orthonormal,
    projector_onto_range,
    qr_householder,
    qr_pivoted,
    split,
)
from orthokit import matrix, projectors
from helpers import KAHAN_SYSTEM, SURVEY_A, SURVEY_B, SURVEY_P, SURVEY_RESIDUAL, SURVEY_X, fro, random_rank_deficient


def oblique_projector(rng, m, k, skew=0.4):
    """Projector onto a k-dim subspace along a deliberately tilted
    complement, built from first principles: P = M [I 0; 0 0] M^-1."""
    q = qr_householder(rng.standard_normal((m, m)), QrMode.Q_AND_R).q
    b1 = q[:, :k]
    b2 = q[:, k:] + skew * b1 @ rng.standard_normal((k, m - k))
    m_full = np.column_stack([b1, b2])
    first_rows_of_inverse = np.linalg.inv(m_full)[:k, :]
    return b1 @ first_rows_of_inverse


class TestIsProjector:
    def test_identity(self):
        assert is_projector(np.eye(3), 1e-12).ok

    def test_coordinate_projector(self):
        assert is_projector(np.diag([1.0, 1.0, 0.0]), 1e-12).ok

    def test_survey_projector(self):
        check = is_projector(SURVEY_P, 1e-12)
        assert check.ok and check.defect <= 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="square"):
            is_projector(np.ones((2, 3)), 1e-10)

    def test_non_projector_reports_defect(self):
        check = is_projector(np.array([[2.0, 0.0], [0.0, 1.0]]), 1e-10)
        assert not check
        assert check.defect == pytest.approx(2.0, abs=1e-12)


class TestComplement:
    def test_identity_complement_is_zero(self):
        assert np.array_equal(complement(np.eye(4)), np.zeros((4, 4)))

    def test_involution(self):
        # Exact for dyadic entries (1 - x is computed without rounding).
        assert np.array_equal(complement(complement(SURVEY_P)), SURVEY_P)
        rng = np.random.default_rng(61)
        p = rng.standard_normal((5, 5))
        assert np.abs(complement(complement(p)) - p).max() <= 1e-15

    def test_survey_complement_golden(self):
        expected = (
            np.array(
                [
                    [2, -1, -1, 1, 1, 0],
                    [-1, 2, -1, -1, 0, 1],
                    [-1, -1, 2, 0, -1, -1],
                    [1, -1, 0, 2, -1, 1],
                    [1, 0, -1, -1, 2, -1],
                    [0, 1, -1, 1, -1, 2],
                ],
                dtype=float,
            )
            / 4.0
        )
        assert np.abs(complement(SURVEY_P) - expected).max() <= 1e-15

    def test_complement_is_projector(self):
        assert is_projector(complement(SURVEY_P), 1e-12).ok


class TestProjectorOntoRange:
    def test_single_axis(self):
        e1 = np.zeros((4, 1))
        e1[0, 0] = 1.0
        p = projector_onto_range(e1)
        assert np.allclose(p, np.diag([1.0, 0, 0, 0]), atol=1e-15)

    def test_survey_golden_entries(self):
        p = projector_onto_range(SURVEY_A)
        assert np.abs(p - SURVEY_P).max() <= 1e-12
        assert p[0, 0] == pytest.approx(0.5, abs=1e-13)
        assert p[0, 3] == pytest.approx(-0.25, abs=1e-13)

    def test_random_full_rank(self):
        rng = np.random.default_rng(62)
        a = rng.standard_normal((6, 3))
        p = projector_onto_range(a)
        assert fro(p @ p - p) <= 1e-11 * (1 + fro(p) ** 2)
        assert np.abs(p - p.T).max() <= 1e-12
        assert fro(p @ a - a) <= 1e-11 * fro(a)

    def test_ill_conditioned_full_rank_matches_qr_oracle(self):
        # cond 1e9 is full rank to the pivoted QR; a Gram route, with cond
        # 1e18 for A^T A, loses every digit here.
        rng = np.random.default_rng(64)
        u = np.linalg.qr(rng.standard_normal((40, 8)))[0]
        v = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        a = (u * np.logspace(0, -9, 8)) @ v.T
        q = np.linalg.qr(a)[0]
        assert np.abs(projector_onto_range(a) - q @ q.T).max() <= 1e-6

    def test_factors_once_through_pivoted_qr(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a.shape)
            return qr_pivoted(a)

        def forbidden(*args, **kwargs):
            raise AssertionError("projector_onto_range must not solve with a Gram factor")

        monkeypatch.setattr(projectors, "qr_pivoted", counted)
        for name in ("cholesky", "forward_sub", "back_sub"):
            monkeypatch.setattr(projectors, name, forbidden, raising=False)
            monkeypatch.setattr(matrix, name, forbidden)
        p = projector_onto_range(SURVEY_A)
        assert calls == [SURVEY_A.shape]
        assert np.abs(p - SURVEY_P).max() <= 1e-12

    def test_rank_deficient_recommends_svd(self):
        rng = np.random.default_rng(63)
        a = random_rank_deficient(rng, 6, 3, 2)
        with pytest.raises(RankDeficiencyError, match="SVD"):
            projector_onto_range(a)

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="projector_onto_range reads qr_pivoted's pivot-norm rank, 90 here, "
                              "not the singular values' rank, 89")
    def test_kahan_matrix_is_rank_deficient(self):
        with pytest.raises(RankDeficiencyError):
            projector_onto_range(KAHAN_SYSTEM[0])


class TestProjectorFromOrthonormal:
    def test_identity(self):
        assert np.allclose(projector_from_orthonormal(np.eye(3)), np.eye(3), atol=1e-15)

    def test_matches_gram_route_on_survey_basis(self):
        q1 = qr_householder(SURVEY_A, QrMode.Q_AND_R).q[:, :3]
        p = projector_from_orthonormal(q1)
        assert np.abs(p - projector_onto_range(SURVEY_A)).max() <= 1e-10

    def test_single_unit_column(self):
        q = np.array([[0.6], [0.8]])
        p = projector_from_orthonormal(q)
        assert np.allclose(p, np.outer(q, q), atol=1e-15)
        assert np.trace(p) == pytest.approx(1.0, abs=1e-14)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            projector_from_orthonormal(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestSplit:
    def test_survey_split_recovers_residual(self):
        pb, rb = split(SURVEY_B, SURVEY_P)
        assert np.abs(pb - SURVEY_A @ SURVEY_X).max() <= 1e-9
        assert np.abs(rb - SURVEY_RESIDUAL).max() <= 1e-9

    def test_vector_in_range(self):
        rng = np.random.default_rng(64)
        p = projector_onto_range(rng.standard_normal((5, 2)))
        b = p @ rng.standard_normal(5)
        pb, rb = split(b, p)
        assert np.abs(pb - b).max() <= 1e-12
        assert np.abs(rb).max() <= 1e-12

    def test_recomposition_and_pythagoras(self):
        rng = np.random.default_rng(65)
        p = projector_onto_range(rng.standard_normal((7, 3)))
        for _ in range(20):
            b = rng.standard_normal(7)
            pb, rb = split(b, p)
            assert np.abs(pb + rb - b).max() <= 1e-13
            lhs = np.linalg.norm(b) ** 2
            rhs = np.linalg.norm(pb) ** 2 + np.linalg.norm(rb) ** 2
            assert abs(lhs - rhs) <= 1e-11 * lhs
            assert abs(pb @ rb) <= 1e-11 * max(lhs, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            split(np.ones(3), np.eye(4))


class TestProjectorGeometry:
    def test_complement_range_is_null_space(self):
        rng = np.random.default_rng(66)
        p = oblique_projector(rng, 6, 2)
        for _ in range(20):
            v = rng.standard_normal(6)
            w = complement(p) @ v
            assert np.linalg.norm(p @ w) <= 1e-11 * max(np.linalg.norm(v), 1.0)

    def test_range_null_intersection_trivial(self):
        # v with Pv = v and Pv = 0 solves the stacked system [P - I; P] v = 0;
        # triviality of the intersection is full column rank of that stack.
        from orthokit import matrix_rank

        rng = np.random.default_rng(67)
        for _ in range(10):
            p = oblique_projector(rng, 5, 2)
            stacked = np.vstack([p - np.eye(5), p])
            assert matrix_rank(stacked) == 5

    def test_norm_at_least_one_equality_iff_symmetric(self):
        rng = np.random.default_rng(68)
        for _ in range(25):
            m = int(rng.integers(3, 7))
            k = int(rng.integers(1, m))
            q = qr_householder(rng.standard_normal((m, m)), QrMode.Q_AND_R).q[:, :k]
            orth = projector_from_orthonormal(q)
            assert norm2(orth) >= 1.0 - 1e-10
            assert abs(norm2(orth) - 1.0) <= 1e-10
            obl = oblique_projector(rng, m, k)
            assert is_projector(obl, 1e-8 * (1 + fro(obl) ** 2)).ok
            assert norm2(obl) >= 1.0 - 1e-10


BIG_P = 2.0**1020 * (np.eye(2) + 1.0)  # P @ P passes the float64 range
BIG_DEFECT = np.zeros((4, 4))  # P @ P = 0, and ||P @ P - P||_F passes the float64 range
BIG_DEFECT[0, 1] = BIG_DEFECT[2, 3] = 1.7e308


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: complement(np.ones((2, 3))), ShapeError, "square", id="complement-shape"),
    pytest.param(lambda: split(2.0**1020 * np.ones(2), BIG_P), NumericalError, "split", id="split-overflow"),
    pytest.param(lambda: is_projector(BIG_P, 1.0), NumericalError, "is_projector", id="product-overflow"),
    # P @ P is finite here; P @ P - P is not.
    pytest.param(
        lambda: is_projector([[-0.55, 1.5e308], [0.0, -0.55]], 1.0), NumericalError, "is_projector",
        id="difference-overflow",
    ),
    pytest.param(
        lambda: projector_from_orthonormal(2.0**1000 * np.ones((6, 2))), ValueError, "orthonormal",
        id="gram-overflow",
    ),
    # Q^T Q - I is finite here; its Frobenius norm is not.
    pytest.param(
        lambda: projector_from_orthonormal([[1.3e154, 0.0], [0.0, 1.3e154]]), ValueError, "not orthonormal",
        id="gram-norm-overflow",
    ),
    pytest.param(lambda: is_projector(BIG_DEFECT, 1.0), NumericalError, "^is_projector: ", id="defect-norm-overflow"),
])
def test_error_paths(call, error, match):
    with pytest.raises(error, match=match):
        call()

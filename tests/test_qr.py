import importlib

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
from orthokit.matrix import pow2_scale
from orthokit.reflectors import BLOCK, PANEL_CROSSOVER, annihilate, rotate
from helpers import (
    SURVEY_A,
    SURVEY_Q_PRINTED,
    SURVEY_R_PRINTED,
    ZEROING_A,
    ZEROING_GIVENS,
    fro,
    householder_qr_reference,
    layouts,
    pivoted_qr_reference,
    random_rank_deficient,
)

EPS = np.finfo(float).eps


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
        # each mode returns only its parts; string aliases accepted
        assert full.q.shape == (6, 6) and len(full.reflectors) == 4
        assert full.rotations is None and full.rotation_count == 0
        with_u = qr_householder(a, "r+u")
        assert with_u.q is None and len(with_u.reflectors) == 4
        r_alias = qr_householder(a, "r")
        assert r_alias.r is not None and r_alias.q is None and r_alias.reflectors is None

    def test_mode_strings(self):
        assert QrMode.of("qr") is QrMode.Q_AND_R
        assert QrMode.of(" R+U\t") is QrMode.R_AND_REFLECTORS
        assert QrMode.of("R") is QrMode.R_ONLY
        assert QrMode.of(QrMode.R_ONLY) is QrMode.R_ONLY
        for bad in ("banana", "r&u", "ru", "q&r"):
            with pytest.raises(ValueError, match=r"^unknown QR mode .*; expected one of r, r\+u, qr$"):
                QrMode.of(bad)


def _panel_starts(m, n):
    """Columns at which ``qr_householder`` starts a panel of BLOCK columns
    (fewer in the last panel of a wide matrix): the multiples of BLOCK below
    min(m - 1, n), up to the first at which the trailing matrix has fewer
    than PANEL_CROSSOVER entries."""
    starts = []
    for j0 in range(0, min(m - 1, n), BLOCK):
        if (m - j0) * (n - j0) < PANEL_CROSSOVER:
            break
        starts.append(j0)
    return starts


class TestBlockedHouseholderQr:
    """Shapes of one or more panels of BLOCK columns, ending in a partial
    panel or in the rank-1 tail, and shapes of more than BLOCK columns below
    the crossover; zero columns inside a panel and on both sides of a panel
    edge."""

    CASES = [(300, 100, []), (97, 97, []), (130, 65, [10, 31, 32]), (40, 90, [31, 32]), (1500, 24, [9]),
             (150, 70, [31, 32])]

    @pytest.mark.parametrize("m, n, zero_cols", CASES)
    def test_factors_against_numpy_oracle(self, m, n, zero_cols):
        rng = np.random.default_rng(m + n)
        a = rng.standard_normal((m, n))
        a[:, zero_cols] = 0.0
        f = qr_householder(a, QrMode.Q_AND_R)
        eps = np.finfo(float).eps
        tol = 20 * max(m, n) * eps
        assert np.all(np.tril(f.r, -1) == 0.0)
        assert np.all(f.r[:, zero_cols] == 0.0)
        assert fro(f.q.T @ f.q - np.eye(m)) <= tol * np.sqrt(m)
        assert fro(f.q @ f.r - a) <= tol * fro(a)
        k = min(m, n)
        r_np = np.linalg.qr(a, mode="r")
        assert np.abs(np.abs(f.r[:k]) - np.abs(r_np[:k])).max() <= tol * np.abs(a).max()
        assert [h.offset for h in f.reflectors] == [j for j in range(min(m - 1, n)) if j not in zero_cols]

    @pytest.mark.parametrize("m, n, panels", [(300, 20, 1), (200, 30, 1), (1500, 24, 1), (150, 70, 1),
                                              (600, 70, 2), (160, 160, 3), (40, 200, 1), (70, 1000, 3),
                                              (100, 49, 0), (60, 60, 0)])
    def test_panel_columns_are_eliminated_through_one_column_views(self, m, n, panels, monkeypatch):
        calls = []

        def spy(block, offset):
            calls.append((offset, block.shape[1]))
            return annihilate(block, offset)

        monkeypatch.setattr(importlib.import_module("orthokit.qr"), "annihilate", spy)
        qr_householder(np.random.default_rng(m + n).standard_normal((m, n)), QrMode.R_ONLY)
        starts = _panel_starts(m, n)
        assert starts == [BLOCK * i for i in range(panels)]
        # A panel column goes through a one-column view; from column
        # ``tail`` on, each column passes the whole trailing block.
        steps = min(m - 1, n)
        tail = min(starts[-1] + BLOCK, steps) if starts else 0
        assert calls == [(k, 1 if k < tail else n - k) for k in range(steps)]

    @pytest.mark.parametrize("m, n", [(70, 70), (100, 49), (64, 40), (20, 200), (4999, 1), (6, 4), (4, 6), (3, 1),
                                      (1, 1)])
    @pytest.mark.parametrize("exp", [-900, 0, 900])
    def test_bit_identical_to_the_rank1_sweep_below_the_crossover(self, m, n, exp):
        assert m * n < PANEL_CROSSOVER
        a = np.ldexp(np.random.default_rng(m + n).standard_normal((m, n)), exp)
        f = qr_householder(a, QrMode.R_AND_REFLECTORS)
        r, reflectors = householder_qr_reference(a)
        assert np.array_equal(f.r, r)
        assert len(f.reflectors) == len(reflectors)
        for h, g in zip(f.reflectors, reflectors):
            assert h.offset == g.offset and h.beta == g.beta and np.array_equal(h.u, g.u)

    def test_modes_share_r_and_reflectors(self):
        a = np.random.default_rng(65).standard_normal((150, 70))
        full = qr_householder(a, QrMode.Q_AND_R)
        assert np.array_equal(qr_householder(a, QrMode.R_ONLY).r, full.r)
        assert np.array_equal(form_q(full.reflectors, 150), full.q)


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

    @pytest.mark.parametrize("cols", [0, 7])
    def test_cols_outside_one_to_m_rejected(self, cols):
        f = qr_householder(SURVEY_A, QrMode.R_AND_REFLECTORS)
        with pytest.raises(ShapeError, match=rf"cols must be in \[1, 6\], got {cols}"):
            form_q(f.reflectors, 6, cols)


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

    def test_q_is_the_replay_of_the_rotations(self):
        # R and Q are accumulated during the sweep; replaying the recorded
        # rotations onto a copy of A (rows j and k from column j on, then
        # a zero at (k, j)) and onto the identity gives the same bits.
        rng = np.random.default_rng(53)
        for shape in [(9, 6), (6, 9), (12, 12)]:
            a = rng.standard_normal(shape)
            a[rng.random(shape) < 0.3] = 0.0
            f = qr_givens(a)
            r = a.copy()
            qt = np.eye(shape[0])
            for g in f.rotations:
                rotate(r[g.j, g.j :], r[g.k, g.j :], g.c, g.s)
                r[g.k, g.j] = 0.0
                rotate(qt[g.j], qt[g.k], g.c, g.s)
            assert np.array_equal(f.r, r)
            assert np.array_equal(np.signbit(f.r), np.signbit(r))
            assert np.array_equal(f.q, qt.T)
            assert np.array_equal(np.signbit(f.q), np.signbit(qt.T))

    @pytest.mark.parametrize("route", [qr_givens, qr_hessenberg])
    def test_one_rotate_call_per_rotation(self, route, monkeypatch):
        # Each rotation turns rows j and k of [A | I] from column j on, so
        # R and Q^T take it in one call.
        calls = []

        def spy(x, y, c, s):
            calls.append((x.shape, y.shape, c, s))
            rotate(x, y, c, s)

        rng = np.random.default_rng(54)
        n = 7
        a = np.triu(rng.standard_normal((n, n)), -1)
        if route is qr_givens:
            a = np.vstack([rng.standard_normal((n, n)), a[:2]])
        m = a.shape[0]
        ref = route(a)
        monkeypatch.setattr(importlib.import_module("orthokit.qr"), "rotate", spy)
        f = route(a)
        assert f.r.tobytes() == ref.r.tobytes() and f.q.tobytes() == ref.q.tobytes()
        assert f.rotations and calls == [((n + m - g.j,), (n + m - g.j,), g.c, g.s) for g in f.rotations]

    @pytest.mark.parametrize("m, n", [(1, 1), (6, 4), (4, 6), (9, 9)])
    def test_r_and_q_are_row_major(self, m, n):
        f = qr_givens(np.random.default_rng(55).standard_normal((m, n)))
        assert f.r.flags.c_contiguous and f.q.flags.c_contiguous

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

    def test_first_violation_in_row_order_reported(self):
        bad = np.zeros((5, 5))
        bad[4, 0] = bad[3, 1] = bad[2, 0] = 1.0
        with pytest.raises(ShapeError, match=r"entry \(2, 0\)"):
            qr_hessenberg(bad)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="square"):
            qr_hessenberg(np.ones((3, 4)))

    def test_one_validated_copy_is_checked_and_swept(self, monkeypatch):
        qr_mod = importlib.import_module("orthokit.qr")
        as_square, copies = qr_mod.as_square, []

        def spy(a, *args, **kwargs):
            copies.append(a)
            return as_square(a, *args, **kwargs)

        rng = np.random.default_rng(47)
        h = np.triu(rng.standard_normal((9, 9)), -1)
        h[4, 3] = -0.0
        g = qr_givens(h)
        monkeypatch.setattr(qr_mod, "as_square", spy)
        f = qr_hessenberg(h)
        assert len(copies) == 1
        for x, y in ((f.r, g.r), (f.q, g.q)):
            assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
        assert f.rotations == g.rotations


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


def _pivoted_cases() -> dict:
    rng = np.random.default_rng(70)
    dense = rng.standard_normal
    graded = dense((100, 80)) * np.logspace(0, -12, 80)
    zero_cols = dense((120, 70))
    zero_cols[:, [5, 31, 32]] = 0.0
    # Columns 3 and 50 are equal and the longest: the step-0 tie goes to 3.
    duplicate = dense((100, 70))
    duplicate[:, 50] = duplicate[:, 3] = 4.0 * dense(100)
    # Equal-norm orthogonal columns: every step is an exact tie.
    ties = np.eye(100)[:, rng.permutation(100)[:70]]
    return {
        "one panel": dense((40, 20)),
        "wide, m < 32": dense((20, 45)),
        "two panels": dense((90, 50)),
        "three panels": dense((150, 100)),
        "wide, three panels": dense((70, 110)),
        "zero columns": zero_cols,
        "rank-deficient": random_rank_deficient(rng, 120, 90, 40),
        "graded": graded,
        "duplicate columns": duplicate,
        "exact ties": ties,
        "two panels at 2^900": np.ldexp(dense((90, 50)), 900),
        "rank-deficient at 2^-900": np.ldexp(random_rank_deficient(rng, 110, 70, 50), -900),
    }


PIVOTED_CASES = _pivoted_cases()


class TestBlockedPivotedQr:
    """The panel sweep against the sequential rank-1 reference, on shapes of
    one, two and three or more panels of BLOCK columns."""

    @pytest.mark.parametrize("name", PIVOTED_CASES)
    def test_matches_sequential_reference(self, name):
        a = PIVOTED_CASES[name]
        ref, _ = pivoted_qr_reference(a)
        f = qr_pivoted(a)
        assert f.rank == ref.rank
        assert np.array_equal(f.perm[: f.rank], ref.perm[: ref.rank])
        assert sorted(f.perm.tolist()) == list(range(a.shape[1]))
        assert np.all(np.tril(f.r, -1) == 0.0)
        assert [h.offset for h in f.reflectors] == [h.offset for h in ref.reflectors]
        # Columns past the rank may be taken in another order; compared in
        # the original column order, R still agrees entry by entry.
        tol = 20 * max(a.shape) * EPS * np.abs(a).max()
        assert np.abs(f.r[:, np.argsort(f.perm)] - ref.r[:, np.argsort(ref.perm)]).max() <= tol

    def test_duplicate_and_tied_columns_take_the_lowest_index(self):
        f = qr_pivoted(PIVOTED_CASES["duplicate columns"])
        assert f.perm[0] == 3 and f.perm[-1] == 50 and f.rank == 69
        assert np.array_equal(qr_pivoted(PIVOTED_CASES["exact ties"]).perm, np.arange(70))

    def test_guard_trip_ends_the_panel(self, monkeypatch):
        # Column 41 nearly repeats column 40, and the columns are graded so
        # that column 40 is pivoted at step 40, inside the second panel:
        # column 41's downdated norm then collapses.
        rng = np.random.default_rng(80)
        a = rng.standard_normal((200, 80)) * np.logspace(0, -3, 80)
        a[:, 41] = a[:, 40] + 1e-7 * np.abs(a[:, 40]).max() * rng.standard_normal(200) / np.sqrt(200)
        ref, trips = pivoted_qr_reference(a)
        assert trips == [40] and BLOCK < 40 < 2 * BLOCK - 1
        # A panel starts where the trailing columns are up to date: only
        # then do their norms over rows k: equal those of the final R (the
        # later reflectors act orthogonally on those rows).
        seen = {}

        def spy(block, offset):
            r = block.base  # the sweep's working matrix
            seen[offset] = np.sort(np.sqrt((r[offset:, offset + 1 :] ** 2).sum(axis=0)))
            return annihilate(block, offset)

        monkeypatch.setattr(importlib.import_module("orthokit.qr"), "annihilate", spy)
        f = qr_pivoted(a)
        r = f.r / pow2_scale(float(np.abs(a).max()))
        n = a.shape[1]
        starts = [
            k
            for k in range(n - 1)
            if np.allclose(seen[k], np.sort(np.sqrt((r[k:, k + 1 :] ** 2).sum(axis=0))), rtol=1e-9, atol=0.0)
        ]
        assert starts == [0, BLOCK, 41, 41 + BLOCK]
        assert f.rank == ref.rank and np.array_equal(f.perm, ref.perm)
        for k in range(n):
            fresh = np.sqrt((f.r[k:, k:] ** 2).sum(axis=0))
            assert abs(f.r[k, k]) >= fresh.max() * (1 - 1e-6)


class TestInputLayout:
    """The sweeps copy A into their own column-major working array, so the
    input's layout moves no bit of the result, and R and Q come back
    row-major."""

    @pytest.mark.parametrize("m, n", [(200, 80), (70, 40), (30, 50), (6, 4), (1, 5), (5, 1)])
    def test_householder_and_pivoted_qr(self, m, n):
        rng = np.random.default_rng(m + 3 * n)
        a = random_rank_deficient(rng, m, n, max(1, min(m, n) - 3))
        results = {}
        for name, x in layouts(a).items():
            fs = [qr_householder(x, mode) for mode in QrMode] + [qr_pivoted(x)]
            for f in fs:
                assert f.r.flags.c_contiguous and (f.q is None or f.q.flags.c_contiguous)
            results[name] = fs
        ref = results.pop("C")
        for fs in results.values():
            for f, g in zip(fs, ref):
                assert np.array_equal(f.r, g.r) and f.rank == g.rank
                assert (f.q is None) == (g.q is None) and (f.q is None or np.array_equal(f.q, g.q))
                assert (f.perm is None) == (g.perm is None) and (f.perm is None or np.array_equal(f.perm, g.perm))
                assert len(f.reflectors or []) == len(g.reflectors or [])
                for h, k in zip(f.reflectors or [], g.reflectors or []):
                    assert h.offset == k.offset and h.beta == k.beta and np.array_equal(h.u, k.u)


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


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: qr_pivoted(np.eye(2), t_digits=0), ValueError, "t_digits must be >= 1", id="t_digits"),
])
def test_error_paths(call, error, match):
    with pytest.raises(error, match=match):
        call()

import sys
import tracemalloc

import numpy as np
import pytest

from orthokit import (
    Bidiagonal,
    ConvergenceError,
    NumericalError,
    RankDeficiencyError,
    ShapeError,
    SingularMatrixError,
    bidiag_svd,
    bidiagonalize,
    cond2,
    default_rank_threshold,
    distance_to_singular,
    jacobi_eig,
    low_rank,
    matrix_rank,
    nearest_orthogonal,
    norm2,
    numerical_rank,
    projector_onto_range,
    pseudoinverse,
    qr_householder,
    qr_pivoted,
    singular_values,
    solve,
    solve_qr,
    subspace_bases,
    svd,
)
from orthokit import bidiagonal as bd_mod
from orthokit.matrix import as_matrix
from orthokit.reflectors import BLOCK, reflect_all, rotate
from helpers import (
    RANK2_A,
    RANK2_PINV,
    SURVEY_A,
    SURVEY_PINV,
    SVD_3X2,
    SVD_5X3,
    SVD_5X3_SIGMA,
    bidiagonalize_reference,
    dense_reflector,
    fix_signs_reference,
    fro,
    jacobi_reference,
    layouts,
    random_rank_deficient,
    rank2_factors,
    spectral_norm_oracle,
)

# The package re-exports the function ``svd`` under the module's name.
svd_mod = sys.modules["orthokit.svd"]
EPS = np.finfo(float).eps


class TestBidiagonalize:
    def test_already_bidiagonal_untouched(self):
        a = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0], [0.0, 0.0, 5.0], [0.0, 0.0, 0.0]])
        left, bid, right = bidiagonalize(a)
        assert left == [] and right == []
        assert np.array_equal(bid.d, [1.0, 3.0, 5.0])
        assert np.array_equal(bid.e, [2.0, 4.0])

    def test_diagonal_input(self):
        left, bid, right = bidiagonalize(np.diag([3.0, 2.0, 1.0]))
        assert np.array_equal(bid.d, [3.0, 2.0, 1.0])
        assert np.array_equal(bid.e, [0.0, 0.0])

    def test_dense_accumulation_oracle(self):
        rng = np.random.default_rng(71)
        a = rng.standard_normal((6, 4))
        left, bid, right = bidiagonalize(a)
        # Independent oracle: multiply out dense reflector matrices.
        u_acc = np.eye(6)
        for h in left:
            u_acc = u_acc @ dense_reflector(h)
        v_acc = np.eye(4)
        for h in right:
            v_acc = v_acc @ dense_reflector(h)
        b_full = np.zeros((6, 4))
        b_full[np.arange(4), np.arange(4)] = bid.d
        b_full[np.arange(3), np.arange(1, 4)] = bid.e
        assert fro(u_acc @ b_full @ v_acc.T - a) <= 1e-11 * fro(a)

    def test_wide_rejected(self):
        with pytest.raises(ShapeError, match="transpose"):
            bidiagonalize(np.ones((2, 4)))


def _panel_starts(m, n):
    """Columns at which ``bidiagonalize`` starts a panel of BLOCK columns;
    the rank-1 sweep takes over at the next multiple of BLOCK."""
    starts = []
    for j0 in range(0, n, BLOCK):
        if (m - j0) * (n - j0) < svd_mod.PANEL_CROSSOVER:
            break
        starts.append(j0)
    return starts


def _embed(d, e, m):
    b = np.zeros((m, d.size))
    b[np.arange(d.size), np.arange(d.size)] = d
    b[np.arange(e.size), np.arange(1, d.size)] = e
    return b


def _reconstruct(left, d, e, right, m):
    """Q_L B Q_R^T, with both reflector products applied by ``reflect_all``."""
    b = _embed(d, e, m)
    reflect_all(left, b)
    bt = np.ascontiguousarray(b.T)
    reflect_all(right, bt)
    return bt.T


class TestBlockedBidiagonalization:
    # Tall, square and m = n + 1: two panels and no rank-1 tail, then two
    # or three panels followed by the rank-1 sweep.
    SHAPES = [(600, 60), (600, 70), (160, 160), (161, 160)]

    @pytest.mark.parametrize("m, n, panels", [(200, 40, 1), (600, 60, 2), (600, 70, 2), (160, 160, 3),
                                              (161, 160, 3)])
    def test_panel_columns_are_eliminated_through_one_column_views(self, m, n, panels, monkeypatch):
        calls = []
        real = svd_mod.annihilate

        def spy(block, offset):
            calls.append((offset, block.shape[1]))
            return real(block, offset)

        monkeypatch.setattr(svd_mod, "annihilate", spy)
        bidiagonalize(np.random.default_rng(m + n).standard_normal((m, n)))
        starts = _panel_starts(m, n)
        assert starts == [BLOCK * i for i in range(panels)]
        # Every panel column and row goes through a one-column view; the
        # rank-1 sweep from column ``tail`` on passes the whole trailing block.
        tail = min(starts[-1] + BLOCK, n)
        expected = []
        for k in range(n):
            expected.append((k, 1 if k < tail else n - k))
            if k < n - 2:
                expected.append((k + 1, 1 if k < tail else m - k))
        assert calls == expected

    @pytest.mark.parametrize("m, n", SHAPES)
    @pytest.mark.parametrize("kind", ["dense", "rank", "graded"])
    @pytest.mark.parametrize("exp", [-900, 0, 900])
    def test_matches_the_rank1_sweep_and_reconstructs(self, m, n, kind, exp):
        rng = np.random.default_rng(m * n + len(kind))
        if kind == "dense":
            unit = rng.standard_normal((m, n))
        elif kind == "rank":
            unit = random_rank_deficient(rng, m, n, n // 3)
        else:
            unit = rng.standard_normal((m, n)) * np.logspace(0, -12, n)
        a = np.ldexp(unit, exp)
        left, bid, right = bidiagonalize(a)
        ref_left, ref_d, ref_e, _ = bidiagonalize_reference(a)
        # Both sweeps are backward stable, to O(n eps ||A||_F); the last
        # entries of a square B differ by about that much (6.8e-12 at
        # 161 x 160, 40 times max|A| eps n), so max|A| is no scale for them.
        tol = 20 * max(m, n) * EPS * fro(unit)
        d, e = np.ldexp(bid.d, -exp), np.ldexp(bid.e, -exp)
        ref_d, ref_e = np.ldexp(ref_d, -exp), np.ldexp(ref_e, -exp)
        if kind == "rank":
            # Past the rank both sweeps eliminate rounding noise, so d and e
            # there are not determined by A (d[r] reaches about 1e-6 here);
            # the singular values of B are.
            sigma = np.linalg.svd(_embed(d, e, n), compute_uv=False)
            assert np.abs(sigma - np.linalg.svd(_embed(ref_d, ref_e, n), compute_uv=False)).max() <= tol
        else:
            assert np.abs(np.abs(d) - np.abs(ref_d)).max() <= tol
            assert np.abs(np.abs(e) - np.abs(ref_e)).max() <= tol
        assert fro(_reconstruct(left, d, e, right, m) - unit) <= tol
        if kind == "dense":
            assert [h.offset for h in left] == [h.offset for h in ref_left]

    @pytest.mark.parametrize("m, n", [(70, 70), (100, 49), (64, 40), (6, 4), (3, 1), (1, 1)])
    @pytest.mark.parametrize("exp", [-900, 0, 900])
    def test_bit_identical_to_the_rank1_sweep_below_the_crossover(self, m, n, exp):
        assert m * n < svd_mod.PANEL_CROSSOVER
        a = np.ldexp(np.random.default_rng(m + n).standard_normal((m, n)), exp)
        left, bid, right = bidiagonalize(a)
        ref_left, ref_d, ref_e, ref_right = bidiagonalize_reference(a)
        assert np.array_equal(bid.d, ref_d) and np.array_equal(bid.e, ref_e)
        for got, ref in ((left, ref_left), (right, ref_right)):
            assert len(got) == len(ref)
            for h, g in zip(got, ref):
                assert h.offset == g.offset and h.beta == g.beta and np.array_equal(h.u, g.u)

    def test_skipped_reflectors_inside_a_panel(self):
        # Block diagonal: the steps of the 10 x 10 block never touch the
        # other block, so the right reflectors of rows 8 and 9 and the left
        # one of column 9 are skipped mid-panel.  Columns 60 and beyond are
        # zero: from there every left and right reflector is skipped, in
        # the second panel.
        rng = np.random.default_rng(5)
        a = np.zeros((200, 100))
        a[:10, :10] = rng.standard_normal((10, 10))
        a[10:, 10:60] = rng.standard_normal((190, 50))
        left, bid, right = bidiagonalize(a)
        ref_left, ref_d, ref_e, ref_right = bidiagonalize_reference(a)
        assert _panel_starts(200, 100)[:2] == [0, BLOCK]
        left_steps = [h.offset for h in left]
        right_steps = [h.offset for h in right]
        assert left_steps == [h.offset for h in ref_left] and right_steps == [h.offset for h in ref_right]
        assert 9 not in left_steps and 9 not in right_steps and 10 not in right_steps
        assert left_steps[-1] == 59 and right_steps[-1] == 58
        assert np.all(bid.d[60:] == 0.0) and np.all(bid.e[59:] == 0.0) and bid.e[9] == 0.0
        tol = 20 * 200 * EPS * fro(a)
        assert np.abs(np.abs(bid.d) - np.abs(ref_d)).max() <= tol
        assert np.abs(np.abs(bid.e) - np.abs(ref_e)).max() <= tol
        assert fro(_reconstruct(left, bid.d, bid.e, right, 200) - a) <= tol

    def test_zero_leading_column(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((300, 60))
        a[:, 0] = 0.0
        left, bid, right = bidiagonalize(a)
        assert left[0].offset == 1 and right[0].offset == 1 and bid.d[0] == 0.0
        assert fro(_reconstruct(left, bid.d, bid.e, right, 300) - a) <= 20 * 300 * EPS * fro(a)

    def test_already_bidiagonal_input_past_the_crossover_is_untouched(self):
        rng = np.random.default_rng(7)
        d, e = rng.standard_normal(150), rng.standard_normal(149)
        left, bid, right = bidiagonalize(_embed(d, e, 200))
        assert _panel_starts(200, 150)
        assert left == [] and right == []
        assert np.array_equal(bid.d, d) and np.array_equal(bid.e, e)


class TestBidiagSvd:
    def test_diagonal_case_sorts_absolute_values(self):
        b = Bidiagonal(np.array([-2.0, 5.0, 1.0]), np.zeros(2))
        left, sigma, right = bidiag_svd(b)
        assert np.array_equal(sigma, [5.0, 2.0, 1.0])
        dense = left @ np.diag(sigma) @ right.T
        assert np.abs(dense - np.diag([-2.0, 5.0, 1.0])).max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_factors_are_row_major(self, n):
        rng = np.random.default_rng(86)
        left, _, right = bidiag_svd(Bidiagonal(rng.standard_normal(n), rng.standard_normal(n - 1)))
        assert left.flags.c_contiguous and right.flags.c_contiguous

    def test_3x2_demo_values(self):
        _, bid, _ = bidiagonalize(SVD_3X2)
        _, sigma, _ = bidiag_svd(bid)
        assert np.abs(sigma - [5.0, 3.0]).max() <= 1e-10

    def test_random_against_jacobi_oracle(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            bid = Bidiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
            left, sigma, right = bidiag_svd(bid)
            b_dense = np.diag(bid.d) + np.diag(bid.e, 1)
            lam, _ = jacobi_eig(b_dense.T @ b_dense)
            expected = np.sqrt(np.clip(lam, 0.0, None))
            assert np.abs(sigma - expected).max() <= 1e-9 * max(1.0, expected[0])
            assert fro(left @ np.diag(sigma) @ right.T - b_dense) <= 1e-12 * max(1.0, fro(b_dense))
            assert fro(left.T @ left - np.eye(n)) <= 1e-12 * n
            assert fro(right.T @ right - np.eye(n)) <= 1e-12 * n

    def test_sweep_budget_exhaustion_carries_partial(self, monkeypatch):
        rng = np.random.default_rng(73)
        bid = Bidiagonal(rng.standard_normal(12), rng.standard_normal(11))
        monkeypatch.setattr(bd_mod, "SWEEPS", 0)
        with pytest.raises(ConvergenceError, match="within 0 sweeps") as err:
            bidiag_svd(bid)
        partial = err.value.partial
        assert isinstance(partial, np.ndarray) and len(partial) == 12
        assert (np.diff(partial) <= 0.0).all()

    def test_two_dimensional_superdiagonal_rejected(self):
        with pytest.raises(ShapeError, match="1-D"):
            Bidiagonal([1.0, 2.0, 3.0], [[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_superdiagonal_is_an_input_error(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Bidiagonal([1.0, 2.0, 3.0], [1.0, bad])

    def test_validated_superdiagonal_is_a_copy(self):
        e = np.ones(2)
        b = Bidiagonal([1.0, 2.0, 3.0], e)
        e[0] = np.nan
        assert np.array_equal(b.e, [1.0, 1.0])

    def test_superdiagonal_length_checked(self):
        with pytest.raises(ShapeError, match="length"):
            Bidiagonal([1.0, 2.0, 3.0], [1.0])
        with pytest.raises(ShapeError, match="length"):
            Bidiagonal([4.0], [1.0])

    def test_one_entry_diagonal_takes_an_empty_superdiagonal(self):
        _, sigma, _ = bidiag_svd(Bidiagonal([-4.0], []))
        assert np.array_equal(sigma, [4.0])

    def test_sweep_budget_is_per_leaf_above_the_leaf_size(self, monkeypatch):
        # n = 60 goes through divide and conquer; a leaf without sweeps
        # fails, and the partial spectrum still covers all 60 values.
        n = 60
        assert n > bd_mod.LEAF
        rng = np.random.default_rng(95)
        bid = Bidiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
        monkeypatch.setattr(bd_mod, "SWEEPS", 0)
        with pytest.raises(ConvergenceError) as err:
            bidiag_svd(bid)
        partial = err.value.partial
        assert isinstance(partial, np.ndarray) and len(partial) == n
        assert (np.diff(partial) <= 0.0).all() and (partial >= 0.0).all()
        with pytest.raises(ConvergenceError):
            svd(np.diag(bid.d) + np.diag(bid.e, 1))

    def test_values_sweep_budget_is_per_leaf_above_the_leaf_size(self, monkeypatch):
        # The same check without vectors: the values run the same leaves.
        n = 60
        rng = np.random.default_rng(95)
        b = np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(n - 1), 1)
        monkeypatch.setattr(bd_mod, "SWEEPS", 0)
        with pytest.raises(ConvergenceError) as err:
            singular_values(b)
        partial = err.value.partial
        assert isinstance(partial, np.ndarray) and len(partial) == n
        assert (np.diff(partial) <= 0.0).all() and (partial >= 0.0).all()

    def test_secular_step_budget_raises_with_every_value(self, monkeypatch):
        # n = 60 merges on two levels; one middle-way step leaves roots
        # unconverged, and the partial spectrum still covers all 60 values.
        n = 60
        rng = np.random.default_rng(95)
        b = np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(n - 1), 1)
        monkeypatch.setattr(bd_mod, "STEPS", 1)
        for solve in (lambda: svd(b), lambda: singular_values(b)):
            with pytest.raises(ConvergenceError, match="within 1 steps") as err:
                solve()
            partial = err.value.partial
            assert isinstance(partial, np.ndarray) and len(partial) == n
            assert (np.diff(partial) <= 0.0).all() and (partial >= 0.0).all()

    @pytest.mark.parametrize("n, levels", [(80, 2), (156, 3)])
    @pytest.mark.parametrize("want_uv", [True, False])
    def test_one_secular_solve_per_tree_level(self, n, levels, want_uv, monkeypatch):
        # At LEAF 25, 80 rows split into leaves of about 20 under two merge
        # levels and 156 rows into leaves of about 19 under three.
        assert bd_mod.LEAF == 25
        sizes = []
        roots = bd_mod._secular_roots

        def spy(d, z, k):
            sizes.append(k.size)
            return roots(d, z, k)

        monkeypatch.setattr(bd_mod, "_secular_roots", spy)
        rng = np.random.default_rng(n)
        bd_mod.bidiagonal_svd(rng.standard_normal(n), rng.standard_normal(n - 1), want_uv)
        assert sizes == [2 ** (levels - 1 - h) for h in range(levels)]

    @pytest.mark.parametrize("m, n", [(26, 26), (60, 60), (156, 156), (400, 400), (200, 156), (120, 300)])
    def test_values_and_vectors_run_the_same_leaves(self, m, n, monkeypatch):
        # No implicit-QR run sees more than LEAF rows, and the values alone
        # are the bits of the SVD's values.
        rows = []
        qr_svd = bd_mod._qr_svd

        def spy(d, *args):
            rows.append(len(d))
            return qr_svd(d, *args)

        monkeypatch.setattr(bd_mod, "_qr_svd", spy)
        a = np.random.default_rng(m + n).standard_normal((m, n))
        sigma = svd(a).sigma
        assert rows and max(rows) <= bd_mod.LEAF
        rows.clear()
        values = singular_values(a)
        assert rows and max(rows) <= bd_mod.LEAF
        assert np.array_equal(values, sigma)


def _dense_block(d, e, sqre):
    """The m x (m + sqre) upper-bidiagonal block with diagonal d and
    superdiagonal e (its last entry in column m when sqre = 1)."""
    m = d.size
    b = np.zeros((m, m + sqre))
    b[np.arange(m), np.arange(m)] = d
    b[np.arange(e.size), np.arange(1, e.size + 1)] = e
    return b


class TestDivideAndConquer:
    L = bd_mod.LEAF

    @pytest.mark.parametrize("sqre", [0, 1])
    @pytest.mark.parametrize("kind", ["random", "repeated", "zero-d", "clustered", "graded", "small-z0"])
    def test_one_merge_against_a_dense_oracle(self, kind, sqre):
        # 2 LEAF rows split into two leaves: exactly one merge.
        m = 2 * self.L
        rng = np.random.default_rng([96, sqre, len(kind)])
        d, e = rng.standard_normal(m), rng.standard_normal(m - 1 + sqre)
        if kind == "repeated":
            # Identity halves: every pole repeats, so the merge rotates pairs.
            d, e = np.ones(m), np.zeros(m - 1 + sqre)
            e[m // 2] = 0.5
        elif kind == "zero-d":
            d[::3] = 0.0
        elif kind == "clustered":
            d, e = 1.0 + 1e-15 * d, 1e-9 * e
        elif kind == "graded":
            d *= np.logspace(0, -14, m)
            e *= np.logspace(0, -14, e.size)
        elif kind == "small-z0":
            # |e_i| >> |d_i| above the split: the upper null vector is ~10^-2m
            # in its last entry, so z_0 falls below the deflation tolerance.
            d[: m // 2] *= 1e-4
        u, sigma, v = bd_mod._dc(d, e, sqre)
        b = _dense_block(d, e, sqre)
        assert sigma.shape == (m,) and u.shape == (m, m) and v.shape == (m + sqre, m + sqre)
        assert (sigma >= 0.0).all()
        tol = 10 * m * EPS
        assert fro(u * sigma @ v[:, :m].T - b) <= tol * fro(b)
        assert fro(u.T @ u - np.eye(m)) <= tol
        assert fro(v.T @ v - np.eye(m + sqre)) <= tol
        if sqre:
            assert np.abs(b @ v[:, m]).max() <= tol * fro(b)
        ref = np.linalg.svd(b, compute_uv=False)
        assert np.abs(np.sort(sigma)[::-1] - ref).max() <= tol * ref[0]

    def test_a_leaf_chases_its_extra_column_out(self):
        rng = np.random.default_rng(97)
        m = self.L
        d, e = rng.standard_normal(m), rng.standard_normal(m)
        u, sigma, v = bd_mod._dc(d, e, 1)
        b = _dense_block(d, e, 1)
        assert fro(u * sigma @ v[:, :m].T - b) <= 10 * m * EPS * fro(b)
        assert np.abs(b @ v[:, m]).max() <= 10 * m * EPS * fro(b)

    def test_secular_roots_interlace_and_solve_the_equation(self):
        # Four arrows solved as one batch, in a merge's units: poles in
        # [0, 1] and ||z|| = 1, so every root is below 2.
        rng = np.random.default_rng(98)
        sizes = np.array([2, 3, 10, 60])
        arrows = [(np.concatenate(([0.0], np.sort(rng.uniform(0.01, 1.0, k - 1)))), rng.standard_normal(k))
                  for k in sizes]
        arrows = [(d, z / np.linalg.norm(z)) for d, z in arrows]
        org, tau = bd_mod._secular_roots(*map(np.concatenate, zip(*arrows)), sizes)
        for (d, z), k, start in zip(arrows, sizes, np.cumsum(sizes) - sizes):
            sigma, um, vm = bd_mod._arrow_svd(d, z, org[start : start + k], tau[start : start + k])
            assert (sigma > d).all() and (sigma[:-1] < d[1:]).all()
            arrow = np.diag(d)
            arrow[0] = z
            assert fro(um * sigma @ vm.T - arrow) <= 10 * k * EPS * fro(arrow)
            assert fro(um.T @ um - np.eye(k)) <= 10 * k * EPS
            assert fro(vm.T @ vm - np.eye(k)) <= 10 * k * EPS

    @pytest.mark.parametrize("n", [L + 1, 2 * L, 2 * L + 1, 4 * L + 3])
    def test_values_agree_with_the_implicit_qr(self, n):
        rng = np.random.default_rng(n)
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        _, sigma, _ = bidiag_svd(Bidiagonal(d, e))
        u, values, v = bd_mod.bidiagonal_svd(d, e, False)
        assert u is None and v is None
        assert np.abs(sigma - values).max() <= 10 * n * EPS * values[0]


def _sequential_chain(m, lo, c, s):
    for k in range(len(c)):
        rotate(m[:, lo + k], m[:, lo + k + 1], c[k], s[k])


def _random_chain(rng, length):
    theta = rng.uniform(-np.pi, np.pi, length)
    c, s = np.cos(theta), np.sin(theta)
    # exact identities and swaps, as the chase produces for zero entries
    c[1::7], s[1::7] = 1.0, 0.0
    c[4::7], s[4::7] = 0.0, 1.0
    return c.tolist(), s.tolist()


def _rotate_spy(monkeypatch):
    """Replace the leaves' ``rotate`` by one that logs its caller's name, and
    the zero-d chase's by its direction: "row" for an interior zero (turning
    u), "column" for a zero at the tail or the sqre pre-rotation (turning v)."""
    callers = []

    def spy(x, y, c, s):
        frame = sys._getframe(1)
        name = frame.f_code.co_name
        if name == "_chase_zero_d":
            name = "row" if frame.f_locals["end"] > frame.f_locals["f"] else "column"
        callers.append(name)
        rotate(x, y, c, s)

    monkeypatch.setattr(bd_mod, "rotate", spy)
    return callers


class TestBlockFarBelowTheLargestEntry:
    """diag(A1, rho A2) with rho far below 1: B splits between the blocks and
    each piece is scaled on its own.  One leaf (n = 6) and divide and
    conquer (n = 60, 120), in normwise and relative bounds.  A graded B that
    does not split relies on each implicit-QR step scaling its own block."""

    @pytest.mark.parametrize("n", [6, 60, 120])
    @pytest.mark.parametrize("rho", [1e-160, 1e-200, 1e-300])
    def test_converges_within_the_normwise_bounds(self, n, rho):
        rng = np.random.default_rng(n)
        h = n // 2
        a = np.zeros((n, n))
        a[:h, :h] = rng.standard_normal((h, h))
        a[h:, h:] = rho * rng.standard_normal((h, h))
        ref = np.linalg.svd(a, compute_uv=False)
        tol = 20 * n * EPS
        f = svd(a)
        assert fro((f.u * f.sigma) @ f.vt - a) <= tol * fro(a)
        assert fro(f.u.T @ f.u - np.eye(n)) <= tol * np.sqrt(n)
        assert fro(f.vt @ f.vt.T - np.eye(n)) <= tol * np.sqrt(n)
        for sigma in (f.sigma, singular_values(a)):
            assert np.abs(sigma - ref).max() <= tol * ref[0]

    @pytest.mark.parametrize("n", [60, 120])
    @pytest.mark.parametrize("rho", [1e-100, 1e-200, 1e-300, 1e-305, 1e-307])
    def test_each_block_keeps_its_relative_accuracy(self, n, rho):
        # B splits at the zero superdiagonal between the blocks, and each
        # piece is scaled on its own, with or without vectors.
        rng = np.random.default_rng(n)
        h = n // 2
        a1, a2 = rng.standard_normal((h, h)), rng.standard_normal((h, h))
        a = np.zeros((n, n))
        a[:h, :h], a[h:, h:] = a1, rho * a2
        ref = np.concatenate((np.linalg.svd(a1, compute_uv=False), rho * np.linalg.svd(a2, compute_uv=False)))
        ref = np.sort(ref)[::-1]
        for sigma in (svd(a).sigma, singular_values(a)):
            assert (np.abs(sigma - ref) <= 20 * n * EPS * ref).all()

    @pytest.mark.parametrize("n", [40, 120])
    def test_graded_bidiagonal_in_one_piece(self, n):
        # No superdiagonal entry is negligible, so B does not split: only
        # each step's own power of two keeps the shift of the tiny trailing
        # rows from underflowing.
        rng = np.random.default_rng(n)
        d = np.logspace(0, -300, n) * rng.uniform(0.5, 1.0, n)
        e = d[:-1] / 2 * rng.uniform(0.5, 1.0, n - 1)
        b = np.diag(d) + np.diag(e, 1)
        left, sigma, right = bidiag_svd(Bidiagonal(d, e))
        tol = 20 * n * EPS
        assert fro((left * sigma) @ right.T - b) <= tol * fro(b)
        assert fro(left.T @ left - np.eye(n)) <= tol * np.sqrt(n)
        assert fro(right.T @ right - np.eye(n)) <= tol * np.sqrt(n)
        ref = np.linalg.svd(b, compute_uv=False)
        for values in (sigma, singular_values(b)):
            assert np.abs(values - ref).max() <= tol * ref[0]

    @pytest.mark.parametrize("kind", ["d-peak", "e-peak", "d-falls", "d-rises"])
    def test_each_shift_is_taken_over_its_blocks_largest_entry(self, monkeypatch, kind):
        # Graded by 2^-8 a row away from the peak, so a scale taken from
        # another entry of the block is another power of two.
        n = 12
        rng = np.random.default_rng(len(kind))
        rows = np.arange(n)
        peak = -8 * np.abs(rows - n // 2)
        grade = {"d-peak": peak, "e-peak": 0 * rows, "d-falls": -8 * rows, "d-rises": 8 * rows - 100}[kind]
        d = np.ldexp(rng.uniform(0.5, 1.0, n), grade)
        if kind == "e-peak":  # e above d, peaking in the middle
            e = np.ldexp(rng.uniform(0.5, 1.0, n - 1), 8 + peak[:-1])
        else:
            e = d[:-1] * rng.uniform(0.25, 0.5, n - 1)
        steps = []
        step = bd_mod._implicit_step

        def spy(dl, el, lo, hi, w):
            steps.append((w, bd_mod.pow2_scale(max(map(abs, dl[lo : hi + 1] + el[lo:hi])))))
            return step(dl, el, lo, hi, w)

        monkeypatch.setattr(bd_mod, "_implicit_step", spy)
        bidiag_svd(Bidiagonal(d, e))
        assert steps and all(w == expected for w, expected in steps)

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_each_shift_is_the_wilkinson_shift_of_its_block(self, monkeypatch, n):
        # The eigenvalue of the trailing 2 x 2 of B^T B, B the block over w,
        # nearer its last diagonal entry.
        shifts = []
        mu = bd_mod._wilkinson_mu

        def spy(d, e, lo, hi, w):
            b = (np.diag(d[lo : hi + 1]) + np.diag(e[lo:hi], 1)) / w
            shifts.append((b, mu(d, e, lo, hi, w)))
            return shifts[-1][1]

        monkeypatch.setattr(bd_mod, "_wilkinson_mu", spy)
        rng = np.random.default_rng(n)
        bidiag_svd(Bidiagonal(rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n - 1)))
        assert shifts
        for b, shift in shifts:
            t = (b.T @ b)[-2:, -2:]
            eig = np.linalg.eigvalsh(t)
            assert abs(shift - eig[np.argmin(np.abs(eig - t[1, 1]))]) <= 1e-12 * eig[-1]

    def test_bidiagonal_with_a_tiny_trailing_block(self):
        d, e = np.array([1.0, 1.0, 1e-200, 2e-200, 3e-200]), np.array([0.5, 0.0, 1e-200, 1e-200])
        b = np.diag(d) + np.diag(e, 1)
        left, sigma, right = bidiag_svd(Bidiagonal(d, e))
        assert fro((left * sigma) @ right.T - b) <= 20 * 5 * EPS * fro(b)
        # One leaf: the tiny block's values are accurate relative to themselves.
        tiny = np.linalg.svd(b[2:, 2:] * 1e200, compute_uv=False) * 1e-200
        for values in (sigma[2:], singular_values(b)[2:]):
            assert np.abs(values - tiny).max() <= 20 * 5 * EPS * tiny[-1]


class TestRotationChains:
    # A leaf's chains have at most LEAF - 1 rotations, padded to the leaf's
    # width with identity rotations.
    @pytest.mark.parametrize("length", [1, 7, 8, 24])
    def test_each_padded_factor_equals_sequential_rotations(self, length):
        rng = np.random.default_rng(length)
        for width in (length + 1, length + 4):
            chains = [(lo, *_random_chain(rng, length)) for lo in range(width - length)]
            factors = bd_mod._chain_factors(chains, width)
            assert factors.shape == (len(chains), width, width)
            for h, (lo, c, s) in zip(factors, chains):
                expected = np.eye(width)
                _sequential_chain(expected, lo, c, s)
                assert np.array_equal(h, expected)

    @pytest.mark.parametrize("count", [1, 2, 7, bd_mod.LEAF])
    def test_a_record_applies_as_one_product(self, count):
        rng = np.random.default_rng(200 + count)
        n = bd_mod.LEAF
        full = rng.standard_normal((n + 1, n + 1))
        m = full[:, :n]  # like a leaf's v without its sqre column
        chains = []
        for _ in range(count):
            lo = int(rng.integers(0, n - 1))
            chains.append((lo, *_random_chain(rng, int(rng.integers(1, n - lo)))))
        expected = full.copy()
        for lo, c, s in chains:
            _sequential_chain(expected, lo, c, s)
        record = list(chains)
        bd_mod._apply_chains(m, record)
        assert record == []
        assert np.abs(full - expected).max() <= 10 * count * n * EPS * np.abs(expected).max()
        assert np.array_equal(full[:, n], expected[:, n])

    def test_an_empty_record_is_a_no_op(self):
        m = np.random.default_rng(201).standard_normal((5, 4))
        before = m.copy()
        bd_mod._apply_chains(m, [])
        assert np.array_equal(m, before)
        bd_mod._apply_chains(None, [])  # the values-only path has no accumulators

    @pytest.mark.parametrize("kind", ["zero-d", "nearly-singular"])
    def test_deflations_between_recorded_sweeps(self, monkeypatch, kind):
        m = bd_mod.LEAF
        rng = np.random.default_rng(203)
        d, e = rng.standard_normal(m), rng.standard_normal(m - 1)
        if kind == "zero-d":
            # e[12] = e[18] = 0 split the leaf into three blocks.  The lowest,
            # from a zero last d on, iterates first and records its sweeps;
            # then the zero middle d[15] of the next block and the zero last
            # d[12] of the top one rotate u and v directly.
            e[[12, 18]] = 0.0
            d[[12, 15, m - 1]] = 0.0
        else:
            # Small d against e: tiny singular values surface as negligible
            # d's during the iteration, in planes the recorded chains touch.
            d *= 0.1
        events = _rotate_spy(monkeypatch)
        apply_chains = bd_mod._apply_chains

        def flush_spy(acc, chains):
            events.append(len(chains))
            apply_chains(acc, chains)

        monkeypatch.setattr(bd_mod, "_apply_chains", flush_spy)
        u, sigma, v = bd_mod._dc(d, e, 0)
        kinds = {ev for ev in events if isinstance(ev, str)}
        assert kinds == {"column", "row"}
        for name in kinds:
            # the event before each deflation sweep is the flush of a record
            first = [i for i, ev in enumerate(events) if ev == name and events[i - 1] != name]
            assert any(isinstance(events[i - 1], int) and events[i - 1] > 0 for i in first)
        b = _dense_block(d, e, 0)
        tol = 10 * m * EPS
        assert fro(u * sigma @ v.T - b) <= tol * fro(b)
        assert fro(u.T @ u - np.eye(m)) <= tol
        assert fro(v.T @ v - np.eye(m)) <= tol
        ref = np.linalg.svd(b, compute_uv=False)
        assert np.abs(np.sort(sigma)[::-1] - ref).max() <= tol * ref[0]

    def test_a_long_leaf_multiplies_at_most_leaf_chains_at_once(self, monkeypatch):
        sizes = []
        chain_factors = bd_mod._chain_factors

        def spy(chains, n):
            sizes.append(len(chains))
            return chain_factors(chains, n)

        monkeypatch.setattr(bd_mod, "_chain_factors", spy)
        m = bd_mod.LEAF
        rng = np.random.default_rng(205)
        bd_mod._dc(rng.standard_normal(m), rng.standard_normal(m - 1), 0)
        assert sum(sizes) > 2 * bd_mod.LEAF  # one chain for u and one for v a sweep
        assert max(sizes) <= bd_mod.LEAF

    @pytest.mark.parametrize("sqre", [0, 1])
    def test_leaves_rotate_only_to_deflate(self, monkeypatch, sqre):
        callers = _rotate_spy(monkeypatch)
        m = bd_mod.LEAF
        rng = np.random.default_rng(203 + sqre)
        d, e = rng.standard_normal(m), rng.standard_normal(m - 1 + sqre)
        bd_mod._dc(d, e, sqre)
        # only the sqre pre-rotation: the random leaf never deflates
        assert callers == ["column"] * (m * sqre)


class TestSvd:
    def test_3x2_demo(self):
        f = svd(SVD_3X2, "reduced")
        assert np.abs(f.sigma - [5.0, 3.0]).max() <= 1e-10
        v_abs = np.abs(f.vt.T)
        assert np.abs(v_abs - np.full((2, 2), 1 / np.sqrt(2))).max() <= 1e-9

    def test_5x3_demo_values(self):
        f = svd(SVD_5X3, "full")
        assert np.abs(f.sigma - SVD_5X3_SIGMA).max() <= 5e-5

    def test_zero_matrix_gives_identity_factors(self):
        f = svd(np.zeros((4, 3)), "full")
        assert np.array_equal(f.sigma, np.zeros(3))
        assert np.array_equal(f.u, np.eye(4))
        assert np.array_equal(f.vt, np.eye(3))

    def test_type_invariants_across_shapes(self):
        rng = np.random.default_rng(74)
        shapes = [(5, 3), (3, 5), (8, 8), (20, 4), (1, 6), (6, 1)]
        for i in range(60):
            m, n = shapes[i % len(shapes)]
            a = rng.standard_normal((m, n))
            if i % 5 == 0 and min(m, n) > 1:
                a = random_rank_deficient(rng, m, n, int(rng.integers(1, min(m, n))))
            for shape in ("full", "reduced"):
                f = svd(a, shape)
                k = min(m, n)
                assert (np.diff(f.sigma) <= 0).all() and (f.sigma >= 0).all()
                assert fro(f.u.T @ f.u - np.eye(f.u.shape[1])) <= 1e-11 * m
                assert fro(f.vt @ f.vt.T - np.eye(f.vt.shape[0])) <= 1e-11 * n
                recon = (f.u[:, :k] * f.sigma) @ f.vt[:k, :]
                assert fro(recon - a) <= 1e-10 * max(fro(a), 1e-300)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(75)
        a = rng.standard_normal((6, 4))
        f1 = svd(a)
        f2 = svd(a.copy())
        assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.vt, f2.vt)
        for j in range(f1.vt.shape[0]):
            col = f1.vt.T[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_frobenius_identity(self):
        rng = np.random.default_rng(76)
        a = rng.standard_normal((7, 5))
        f = svd(a)
        assert abs(fro(a) - np.sqrt((f.sigma**2).sum())) <= 1e-11 * fro(a)

    def test_inverse_norm_is_reciprocal_smallest_sigma(self):
        rng = np.random.default_rng(77)
        a = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        sig = singular_values(a)
        inv_norm = norm2(np.linalg.inv(a))  # inverse from an external oracle
        assert abs(inv_norm - 1.0 / sig[-1]) <= 1e-10 * inv_norm

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(78)
        a = rng.standard_normal((5, 4))
        q = nearest_orthogonal(rng.standard_normal((5, 5)))
        s1 = singular_values(a)
        s2 = singular_values(q @ a)
        assert np.abs(s1 - s2).max() <= 1e-10 * max(1.0, s1[0])

    def test_extreme_matrix_scales(self):
        # power-of-two prescaling keeps tiny/huge matrices at full accuracy
        rng = np.random.default_rng(93)
        base = rng.standard_normal((6, 4))
        sig_base = singular_values(base)
        for scale in (1e-280, 1e-150, 1e150, 1e280):
            f = svd(base * scale)
            assert np.isfinite(f.sigma).all()
            assert np.abs(f.sigma - sig_base * scale).max() <= 1e-13 * sig_base[0] * scale
            recon = (f.u * f.sigma) @ f.vt
            assert np.abs(recon - base * scale).max() <= 1e-13 * np.abs(base * scale).max()


    @pytest.mark.parametrize("kind", ["random", "graded"])
    def test_blocked_chains_keep_backward_error_and_orthogonality(self, kind):
        # n = 200: several levels of divide and conquer above the leaves.
        n = 200
        rng = np.random.default_rng(94)
        a = rng.standard_normal((n, n))
        if kind == "graded":
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = (q1 * np.logspace(0, -12, n)) @ q2.T
        f = svd(a)
        assert fro((f.u * f.sigma) @ f.vt - a) <= 10 * n * EPS * fro(a)
        assert fro(f.u.T @ f.u - np.eye(n)) <= 10 * n * EPS
        assert fro(f.vt @ f.vt.T - np.eye(n)) <= 10 * n * EPS

    def test_overflowing_factors_raise_numerical_error(self):
        # sigma_1 = 1.5e308 * n is past the float64 range.
        for n in (2, 3):
            a = np.full((n, n), 1.5e308)
            with pytest.raises(NumericalError):
                svd(a)
            with pytest.raises(NumericalError):
                singular_values(a)

    def test_representable_factors_near_float64_max(self):
        # sigma = sqrt(2) * 1e308 and sigma_1 = 1.618e308 are representable.
        for a in (np.array([[1e308, 1e308], [1e308, -1e308]]), np.array([[1e308, 0.0], [1e308, 1e308]])):
            unit = np.ldexp(a, -1000)
            sigma = np.linalg.svd(unit, compute_uv=False)
            abs_r = np.abs(np.linalg.qr(unit)[1])
            tol = 4 * EPS * sigma[0]
            assert np.abs(np.ldexp(singular_values(a), -1000) - sigma).max() <= tol
            assert np.abs(np.ldexp(svd(a).sigma, -1000) - sigma).max() <= tol
            assert np.abs(np.ldexp(np.abs(qr_householder(a).r), -1000) - abs_r).max() <= tol


def _tie_matrices():
    """Square matrices whose columns have exactly equal largest magnitudes:
    a signed permutation, +-1/sqrt(2) pairs and a 4 x 4 Hadamard."""
    r = 1 / np.sqrt(2.0)
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    return {
        "permutation": np.eye(5)[[3, 0, 4, 1, 2]] * [1.0, -1.0, -1.0, 1.0, -1.0],
        "sqrt2": np.kron(np.eye(2), np.array([[-r, r], [r, r]])),
        "hadamard": np.kron(h2, h2) / 2.0,
    }


# (rows of u, columns of u, size of v): reduced and full tall (the full U
# has columns without a V partner), square, and full wide (V has columns
# without a U partner).
SIGN_SHAPES = [(4, 2, 2), (4, 4, 2), (4, 4, 4), (2, 2, 4), (5, 3, 3), (5, 5, 3), (3, 3, 5)]


class TestWorkingCopy:
    """Each call validates A once, where it makes its one working copy."""

    MALFORMED = [
        (np.zeros((0, 3)), ShapeError, r"\(0, 3\)"),
        (np.zeros((3, 0)), ShapeError, r"\(3, 0\)"),
        (np.ones(3), ShapeError, "ndim 1"),
        (np.ones((2, 2, 2)), ShapeError, "ndim 3"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), ValueError, "finite"),
        ([[1.0, 2.0], [3.0]], ValueError, "sequence"),
        ([["a", "b"]], ValueError, "could not convert string"),
    ]

    @pytest.mark.parametrize(
        "func",
        [svd, singular_values, cond2, matrix_rank, norm2, pseudoinverse, subspace_bases, projector_onto_range,
         pytest.param(lambda a: low_rank(a, 99), id="low_rank"), nearest_orthogonal, distance_to_singular],
    )
    @pytest.mark.parametrize("a, error, message", MALFORMED, ids=["0x3", "3x0", "1d", "3d", "nan", "ragged", "str"])
    def test_malformed_input(self, func, a, error, message):
        with pytest.raises(ValueError, match=message) as info:
            func(a)
        assert info.type is error

    @pytest.mark.parametrize("func", [lambda a: low_rank(a, 2), nearest_orthogonal, distance_to_singular, cond2,
                                      matrix_rank, pseudoinverse, subspace_bases],
                             ids=["low_rank", "nearest", "distance", "cond2", "rank", "pinv", "bases"])
    def test_checks_after_the_factorization(self, func, monkeypatch):
        # The factorization validates and copies A; the rank threshold
        # after it reads A without copying it again.
        calls = []
        monkeypatch.setattr(svd_mod, "as_matrix", lambda a, **kw: calls.append(1) or as_matrix(a, **kw))
        func(np.eye(3) + 0.1)
        assert len(calls) == 1

    @pytest.mark.parametrize("func, message", [
        (lambda a: low_rank(a, 3), r"k must be in \[1, 2\], got 3"),
        (nearest_orthogonal, r"nearest_orthogonal needs a square matrix, got \(2, 3\)"),
        (distance_to_singular, r"distance_to_singular needs a square matrix, got \(2, 3\)"),
    ], ids=["low_rank", "nearest", "distance"])
    def test_messages_after_the_factorization(self, func, message):
        for a in (np.ones((2, 3)), np.ones((2, 3)).tolist()):
            with pytest.raises(ValueError, match=f"^{message}$"):
                func(a)

    @pytest.mark.parametrize("m, n", [(200, 100), (70, 40), (6, 4), (1, 1)])
    def test_results_do_not_depend_on_the_input_layout(self, m, n):
        # bidiagonalize sweeps its own column-major copy, so the layout of
        # A moves no bit; svd's factors (of A and of the wide A^T) come
        # back row-major.
        a = np.random.default_rng(m * n).standard_normal((m, n))
        results = {name: (bidiagonalize(x), svd(x, "full"), svd(x.T)) for name, x in layouts(a).items()}
        for _, *factors in results.values():
            for f in factors:
                assert f.u.flags.c_contiguous and f.vt.flags.c_contiguous
        ref_left, ref_bid, ref_right = results.pop("C")[0]
        for (left, bid, right), *_ in results.values():
            assert np.array_equal(bid.d, ref_bid.d) and np.array_equal(bid.e, ref_bid.e)
            for got, ref in ((left, ref_left), (right, ref_right)):
                assert len(got) == len(ref)
                for h, g in zip(got, ref):
                    assert h.offset == g.offset and h.beta == g.beta and np.array_equal(h.u, g.u)

    def test_singular_values_peak_is_the_bidiagonalization(self):
        a = np.random.default_rng(96).standard_normal((600, 60))
        peaks = []
        for func in (bidiagonalize, singular_values):
            func(a)
            tracemalloc.start()
            try:
                func(a)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + a.nbytes / 4


class TestSignConvention:
    @pytest.mark.parametrize(
        "name, rows, cols, size",
        [(name, *shape) for name, tie in _tie_matrices().items() for shape in SIGN_SHAPES
         if max(shape) <= tie.shape[0]],
    )
    def test_vectorized_pass_is_the_column_loop_on_exact_ties(self, name, rows, cols, size):
        tie = _tie_matrices()[name]
        rng = np.random.default_rng(81)
        for _ in range(8):
            # Random column signs and row orders keep every tie exact.
            u = tie[rng.permutation(tie.shape[0])[:rows], :cols] * rng.choice([-1.0, 1.0], cols)
            v = tie[rng.permutation(tie.shape[0])[:size], :size] * rng.choice([-1.0, 1.0], size)
            u_ref, v_ref = u.copy(), v.copy()
            fix_signs_reference(u_ref, v_ref)
            svd_mod._fix_signs(u, v)
            assert u.tobytes() == u_ref.tobytes() and v.tobytes() == v_ref.tobytes()


class TestJacobi:
    def test_2x2_demo(self):
        lam, v = jacobi_eig(np.array([[17.0, 8.0], [8.0, 17.0]]))
        assert np.abs(lam - [25.0, 9.0]).max() <= 1e-12

    def test_negative_sweep_budget_rejected(self):
        # A negative budget would run no sweep and return the diagonal as the eigenvalues.
        with pytest.raises(ValueError, match="max_sweeps must be >= 0, got -1"):
            jacobi_eig(np.array([[2.0, 1.0], [1.0, 2.0]]), max_sweeps=-1)

    def test_diagonal_input(self):
        lam, v = jacobi_eig(np.diag([1.0, 7.0, 4.0]))
        assert np.array_equal(lam, [7.0, 4.0, 1.0])

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(79)
        m = rng.standard_normal((6, 6))
        s = m.T @ m
        lam, v = jacobi_eig(s)
        assert fro(v @ np.diag(lam) @ v.T - s) <= 1e-9 * fro(s)
        assert fro(s @ v - v @ np.diag(lam)) <= 1e-9 * fro(s)

    @pytest.mark.parametrize("e", [-600, 600])
    def test_extreme_scales(self, e):
        # The threshold comes from ||S||_F: at 2^600 an unscaled sum of
        # squares is inf and no rotation would run.
        lam, _ = jacobi_eig(np.ldexp(np.ones((2, 2)), e))
        assert np.array_equal(lam, np.ldexp([2.0, 0.0], e))
        b = np.random.default_rng(80).standard_normal((5, 5))
        s = b + b.T
        lam, v = jacobi_eig(np.ldexp(s, e))
        ref = np.sort(np.linalg.eigvalsh(s))[::-1]
        assert np.abs(np.ldexp(lam, -e) - ref).max() <= 1e-13 * np.abs(ref).max()
        assert fro(v.T @ v - np.eye(5)) <= 1e-13

    def test_entries_near_the_float64_maximum(self):
        # S + S^T and a_qq - a_pp pass the float64 maximum here; the
        # eigenvalues do not.
        lam, _ = jacobi_eig(np.array([[1.7e308, 0.0], [0.0, 1.0]]))
        assert np.array_equal(lam, [1.7e308, 1.0])
        s = np.array([[1e308, 1e308], [1e308, -1e308]])
        lam, v = jacobi_eig(s)
        ref = np.sort(np.linalg.eigvalsh(np.ldexp(s, -1000)))[::-1]
        assert np.abs(np.ldexp(lam, -1000) - ref).max() <= 4 * EPS * np.abs(ref).max()
        assert fro(v.T @ v - np.eye(2)) <= 4 * EPS
        with pytest.raises(ShapeError, match="symmetric"):
            jacobi_eig(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    def test_eigenvalues_past_the_float64_range_raise(self):
        with pytest.raises(NumericalError):
            jacobi_eig(np.full((3, 3), 1.5e308))

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError, match="symmetric"):
            jacobi_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_asymmetry_is_judged_relative_to_the_entries(self):
        # An off-diagonal pair 1e-12 apart is 1e8 times the entries here.
        with pytest.raises(ShapeError, match="symmetric"):
            jacobi_eig(np.array([[1e-20, 1e-12], [0.0, 1e-20]]))

    @pytest.mark.parametrize("e", [0, -300, 300, -600, 600, -1000, 1000])
    @pytest.mark.parametrize("kind", ["dense", "psd", "low-rank", "coupled"])
    def test_bit_identical_to_the_inline_rotation(self, kind, e):
        # Eigenvalues, eigenvectors and the partial spectrum of a sweep-limit
        # error all match the reference loop bit for bit.
        rng = np.random.default_rng([83, e + 1000, len(kind)])
        for sweeps in (1, 2, 30):
            n = int(rng.integers(1, 25))
            b = rng.standard_normal((n, n))
            if kind == "dense":
                s = b + b.T
            elif kind == "psd":
                s = b.T @ b
            elif kind == "low-rank":
                s = b[:, : max(1, n // 3)] @ b[:, : max(1, n // 3)].T
            else:
                s = np.diag(b[0])
                s[0, -1] = s[-1, 0] = b[-1, 0]
            s = np.ldexp(s, e)
            try:
                w_ref, v_ref = jacobi_reference(s, sweeps)
            except ConvergenceError as exc:
                with pytest.raises(ConvergenceError) as got:
                    jacobi_eig(s, sweeps)
                assert got.value.partial.tobytes() == exc.partial.tobytes()
                continue
            w, v = jacobi_eig(s, sweeps)
            assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()

    def test_rotations_go_through_rotate(self, monkeypatch):
        # Each rotation is one call, on rows p, q of [A | V^T] (length 2n),
        # with the reference loop's angles and bits.
        calls = []

        def spy(x, y, c, s):
            calls.append((x.shape, y.shape, c, s))
            rotate(x, y, c, s)

        s = np.random.default_rng(84).standard_normal((5, 5))
        s = s + s.T
        angles = []
        w_ref, v_ref = jacobi_reference(s, angles=angles)
        monkeypatch.setattr(svd_mod, "rotate", spy)
        w, v = jacobi_eig(s)
        assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()
        assert angles and calls == [((10,), (10,), c, s) for c, s in angles]

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_eigenvectors_are_row_major(self, n):
        b = np.random.default_rng(85).standard_normal((n, n))
        _, v = jacobi_eig(b + b.T)
        assert v.flags.c_contiguous


class TestNormsAndRank:
    def test_survey_norm_and_cond(self):
        assert norm2(SURVEY_A) == pytest.approx(2.0, abs=1e-10)
        assert cond2(SURVEY_A) == pytest.approx(2.0, abs=1e-10)

    def test_graded_columns_cond(self):
        eps = 1e-3
        a = np.array([[1.0, 1.0], [eps, -eps], [0.0, 0.0]])
        assert cond2(a) == pytest.approx(1000.0, abs=1e-6)

    def test_identity(self):
        assert norm2(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
        assert cond2(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_cond_zero_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            cond2(np.zeros((3, 2)))

    def test_numerical_rank_semantics(self):
        assert numerical_rank(np.array([5.0, 3.0, 0.0]), 1e-8) == 2
        assert numerical_rank(np.array([1.0, 1e-13]), 1e-12) == 1
        with pytest.raises(ValueError, match="descending"):
            numerical_rank(np.array([1.0, 2.0]), 0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            numerical_rank(np.array([1.0, -1.0]), 0.1)

    @pytest.mark.parametrize("sigma, threshold, match", [
        ([np.nan], 0.0, "finite"), ([np.inf, 1.0], 0.0, "finite"), ([1.0], np.nan, "threshold")])
    def test_numerical_rank_rejects_non_finite_input(self, sigma, threshold, match):
        with pytest.raises(ValueError, match=match):
            numerical_rank(np.array(sigma), threshold)

    @pytest.mark.parametrize("f", [matrix_rank, default_rank_threshold])
    def test_rank_threshold_needs_a_digit(self, f):
        # The one check, in matrix.rank_threshold, which qr_pivoted runs too.
        with pytest.raises(ValueError, match="t_digits must be >= 1, got 0"):
            f(np.eye(2), 0)

    def test_every_rank_decision_reads_the_one_threshold(self, monkeypatch):
        # With delta = inf, a full-rank A has rank 0 wherever the rank is
        # decided: the pivot norms, the singular values, and solve_qr's R.
        for name in ("qr", "svd", "lstsq"):
            monkeypatch.setattr(sys.modules[f"orthokit.{name}"], "rank_threshold", lambda a, t_digits=12: np.inf)
        rng = np.random.default_rng(83)
        a, b = rng.standard_normal((12, 6)), rng.standard_normal(12)
        assert qr_pivoted(a).rank == 0
        assert matrix_rank(a) == 0
        assert solve(a, b).rank == 0
        with pytest.raises(RankDeficiencyError):
            solve_qr(a, b)
        with pytest.raises(RankDeficiencyError):
            projector_onto_range(a)

    def test_rank_from_duplicated_columns_matches_pivoted_qr(self):
        rng = np.random.default_rng(80)
        b = rng.standard_normal((6, 2))
        a = np.column_stack([b[:, 0], b[:, 1], b[:, 0], b[:, 1]])
        f = svd(a)
        r = numerical_rank(f.sigma, default_rank_threshold(a))
        assert r == 2 == qr_pivoted(a).rank

    def test_rank_equals_nonzero_sigma_count(self):
        rng = np.random.default_rng(81)
        a = random_rank_deficient(rng, 8, 6, 3)
        sig = singular_values(a)
        assert matrix_rank(a) == 3
        assert (sig[3:] <= default_rank_threshold(a)).all()

    def test_rank_threshold_does_not_overflow(self):
        # sigma_1 = sqrt(2) 1e308 is representable; the row sum 2e308 is not.
        a = np.array([[1e308, 1e308]])
        assert np.isfinite(default_rank_threshold(a))
        assert matrix_rank(a) == 1
        assert cond2(a) == pytest.approx(1.0, abs=1e-15)
        pinv_unit = np.linalg.pinv(a / 2.0 ** 1000)
        assert np.abs(pseudoinverse(a) * 2.0 ** 1000 - pinv_unit).max() <= 1e-13 * np.abs(pinv_unit).max()


class TestPseudoinverse:
    def test_rank2_example_from_given_factors(self):
        u, sig, v = rank2_factors()
        a = u @ sig @ v.T
        assert np.abs(a - RANK2_A).max() <= 1e-14
        p = pseudoinverse(a)
        assert np.abs(p - RANK2_PINV).max() <= 1e-10
        assert np.abs(p[0] - [1 / 6, 0, 0, 1 / 6, 0]).max() <= 1e-10

    def test_survey_pseudoinverse_golden(self):
        p = pseudoinverse(SURVEY_A)
        assert np.abs(p - SURVEY_PINV).max() <= 1e-12

    def test_identity(self):
        assert np.abs(pseudoinverse(np.eye(4)) - np.eye(4)).max() <= 1e-13

    @pytest.mark.parametrize("a", [[[1e-310]], np.eye(3) * 1e-310, [[1e-309, 1e-309], [0.0, 1e-309]]])
    def test_entries_past_the_float64_range_raise(self, a):
        # 1 / sigma overflows, but every sigma is above the rank threshold.
        with pytest.raises(NumericalError, match="^pseudoinverse: "):
            pseudoinverse(a)

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(82)
        for trial in range(100):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            if trial % 3 == 0 and min(m, n) > 1:
                a = random_rank_deficient(rng, m, n, int(rng.integers(1, min(m, n))))
            elif trial % 7 == 0:
                a = np.zeros((m, n))
            else:
                a = rng.standard_normal((m, n))
            p = pseudoinverse(a)
            scale = max(1.0, fro(a))
            assert fro(a @ p @ a - a) <= 1e-9 * scale
            assert fro(p @ a @ p - p) <= 1e-9 * max(1.0, fro(p))
            assert fro((a @ p).T - a @ p) <= 1e-9
            assert fro((p @ a).T - p @ a) <= 1e-9


class TestLowRank:
    def test_full_rank_reproduces(self):
        rng = np.random.default_rng(83)
        a = rng.standard_normal((5, 4))
        assert fro(low_rank(a, 4) - a) <= 1e-10 * fro(a)

    def test_3x2_demo_error_norm(self):
        a1 = low_rank(SVD_3X2, 1)
        assert norm2(SVD_3X2 - a1) == pytest.approx(3.0, abs=1e-9)

    def test_beats_random_competitors(self):
        rng = np.random.default_rng(84)
        a = rng.standard_normal((6, 4))
        ak = low_rank(a, 2)
        best = spectral_norm_oracle(a - ak)
        for _ in range(200):
            b = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
            assert best <= spectral_norm_oracle(a - b) + 1e-9

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k must be"):
            low_rank(np.ones((3, 3)), 0)
        with pytest.raises(ValueError, match="k must be"):
            low_rank(np.ones((3, 3)), 4)


class TestSubspaceBases:
    def test_full_rank_square(self):
        rng = np.random.default_rng(85)
        a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        bases = subspace_bases(a)
        assert bases.null_basis.shape == (4, 0)
        assert bases.conull_basis.shape == (4, 0)

    def test_rank_one(self):
        u = np.array([3.0, 0.0, 4.0]) / 5.0
        v = np.array([1.0, 2.0]) / np.sqrt(5.0)
        a = np.outer(u, v)
        bases = subspace_bases(a)
        assert bases.range_basis.shape == (3, 1)
        direction = bases.range_basis[:, 0]
        assert min(np.linalg.norm(direction - u), np.linalg.norm(direction + u)) <= 1e-12

    def test_rank2_example_null_space(self):
        u, sig, v = rank2_factors()
        bases = subspace_bases(RANK2_A)
        assert bases.null_basis.shape == (4, 2)
        expected = v[:, 2:]  # columns 3 and 4 of the given V
        p_got = bases.null_basis @ bases.null_basis.T
        p_expected = expected @ expected.T
        assert np.abs(p_got - p_expected).max() <= 1e-9

    def test_defining_relations(self):
        rng = np.random.default_rng(86)
        a = random_rank_deficient(rng, 7, 5, 3)
        f = svd(a, "full")
        bases = subspace_bases(a)
        assert np.abs(a @ bases.null_basis).max() <= 1e-9 * fro(a)
        for j in range(3):
            av = a @ bases.corange_basis[:, j]
            assert np.linalg.norm(av - f.sigma[j] * bases.range_basis[:, j]) <= 1e-9 * fro(a)


class TestNearestOrthogonal:
    def test_orthogonal_fixed_point(self):
        rng = np.random.default_rng(87)
        q = nearest_orthogonal(rng.standard_normal((5, 5)))
        assert np.abs(nearest_orthogonal(q) - q).max() <= 1e-11

    def test_scaled_identity(self):
        assert np.abs(nearest_orthogonal(2.0 * np.eye(3)) - np.eye(3)).max() <= 1e-12

    def test_sampled_optimality(self):
        rng = np.random.default_rng(88)
        a = rng.standard_normal((4, 4))
        q_star = nearest_orthogonal(a)
        assert fro(q_star.T @ q_star - np.eye(4)) <= 1e-11
        best = fro(a - q_star)
        for _ in range(200):
            q = nearest_orthogonal(rng.standard_normal((4, 4)))
            assert best <= fro(a - q) + 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError, match="square"):
            nearest_orthogonal(np.ones((2, 3)))


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: svd(np.eye(2), shape="thin"), ValueError, "shape must be", id="svd-thin"),
    pytest.param(lambda: svd([[np.nan, 1.0]], shape="thin"), ValueError, "shape must be", id="svd-thin-malformed"),
    pytest.param(lambda: jacobi_eig(np.ones((2, 3))), ShapeError, "square", id="jacobi_eig-shape"),
    pytest.param(lambda: numerical_rank(np.ones((2, 2)), 0.1), ShapeError, "1-D", id="numerical_rank-2d"),
])
def test_error_paths(call, error, match):
    with pytest.raises(error, match=match) as info:
        call()
    assert info.type is error


class TestDistanceToSingular:
    def test_identity(self):
        d = distance_to_singular(np.eye(4))
        assert d.absolute == pytest.approx(1.0, abs=1e-12)
        assert d.relative == pytest.approx(1.0, abs=1e-12)

    def test_diag(self):
        d = distance_to_singular(np.diag([3.0, 2.0, 1.0]))
        assert d.absolute == pytest.approx(1.0, abs=1e-12)
        assert d.relative == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_constructive_witness(self):
        rng = np.random.default_rng(89)
        a = rng.standard_normal((5, 5)) + 2 * np.eye(5)
        f = svd(a, "full")
        d = distance_to_singular(a)
        witness = a - d.absolute * np.outer(f.u[:, -1], f.vt[-1, :])
        assert matrix_rank(witness) == 4
        assert d.relative == pytest.approx(1.0 / cond2(a), rel=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            distance_to_singular(np.diag([1.0, 0.0]))


class TestCrossValidation:
    def test_two_routes_agree_on_sigma(self):
        rng = np.random.default_rng(90)
        shapes = [(5, 3), (3, 5), (8, 8), (20, 4)]
        for i in range(100):
            m, n = shapes[i % 4]
            a = rng.standard_normal((m, n))
            sig = singular_values(a)
            lam, _ = jacobi_eig(a.T @ a if m >= n else a @ a.T)
            expected = np.sqrt(np.clip(lam, 0.0, None))[: min(m, n)]
            assert np.abs(sig - expected).max() <= 1e-9 * max(1.0, sig[0])

    def test_block_matrix_eigenvalues_are_plus_minus_sigma(self):
        rng = np.random.default_rng(91)
        a = rng.standard_normal((4, 2))
        sig = singular_values(a)
        block = np.zeros((6, 6))
        block[:2, 2:] = a.T
        block[2:, :2] = a
        lam, _ = jacobi_eig(block)
        expected = np.sort(np.concatenate([sig, -sig, np.zeros(2)]))[::-1]
        assert np.abs(np.sort(lam)[::-1] - expected).max() <= 1e-8

    def test_full_rank_preserved_under_small_perturbation(self):
        rng = np.random.default_rng(92)
        for _ in range(10):
            a = rng.standard_normal((6, 4))
            sig = singular_values(a)
            e = rng.standard_normal((6, 4))
            e *= 0.9 * sig[-1] / spectral_norm_oracle(e)
            assert matrix_rank(a + e) == 4

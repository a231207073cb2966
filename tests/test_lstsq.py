import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokit import (
    NumericalError,
    RankDeficiencyError,
    ShapeError,
    cond2,
    conditioning_report,
    mat_mul,
    matrix_rank,
    solve,
    solve_normal,
    solve_qr,
    solve_qr_pivoted,
    solve_svd,
    transpose,
)
from helpers import (
    BIG_SYSTEM,
    KAHAN_SYSTEM,
    RANK2_A,
    RANK2_MINNORM_X,
    SURVEY_A,
    SURVEY_ATB,
    SURVEY_B,
    SURVEY_GRAM,
    SURVEY_RESIDUAL,
    SURVEY_X,
    TALL_SYSTEM,
    TINY_SYSTEM,
    fro,
    layouts,
    random_rank_deficient,
)
from orthokit.apps import polyfit
from orthokit.matrix import as_matrix

ALL_SOLVERS = [solve_normal, solve_qr, solve_qr_pivoted, solve_svd]


class TestSolveNormal:
    def test_survey_solution(self):
        sol = solve_normal(SURVEY_A, SURVEY_B)
        assert np.abs(sol.x - SURVEY_X).max() <= 1e-9
        assert sol.method == "normal" and sol.rank == 3

    def test_survey_normal_system_integers(self):
        gram = mat_mul(transpose(SURVEY_A), SURVEY_A)
        atb = transpose(SURVEY_A) @ SURVEY_B
        assert np.array_equal(gram, SURVEY_GRAM)
        assert np.array_equal(atb, SURVEY_ATB)

    def test_square_consistent_system(self):
        rng = np.random.default_rng(101)
        a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        x_true = rng.standard_normal(4)
        b = a @ x_true
        sol = solve_normal(a, b)
        assert sol.residual_norm <= 1e-10 * np.linalg.norm(b)

    def test_rank_deficiency_redirects(self):
        rng = np.random.default_rng(102)
        a = random_rank_deficient(rng, 6, 3, 2)
        with pytest.raises(RankDeficiencyError, match="solve_qr_pivoted or solve_svd"):
            solve_normal(a, rng.standard_normal(6))


class TestSolveQr:
    def test_survey_solution_and_residual(self):
        sol = solve_qr(SURVEY_A, SURVEY_B)
        assert np.abs(sol.x - SURVEY_X).max() <= 1e-9
        # residual vector is [1,-2,1,4,-3,2]; its norm is sqrt(35)
        assert sol.residual_norm == pytest.approx(np.sqrt(35.0), abs=1e-9)
        assert np.abs(SURVEY_B - SURVEY_A @ sol.x - SURVEY_RESIDUAL).max() <= 1e-9

    def test_consistent_rhs(self):
        rng = np.random.default_rng(103)
        a = rng.standard_normal((6, 3))
        b = a @ rng.standard_normal(3)
        sol = solve_qr(a, b)
        assert sol.residual_norm <= 1e-10 * np.linalg.norm(b)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(104)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        x_qr = solve_qr(a, b).x
        x_ne = solve_normal(a, b).x
        assert np.linalg.norm(x_qr - x_ne) <= 1e-8 * np.linalg.norm(x_ne)

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(105)
        a = random_rank_deficient(rng, 6, 3, 2)
        with pytest.raises(RankDeficiencyError):
            solve_qr(a, rng.standard_normal(6))

    def test_underdetermined_rejected(self):
        with pytest.raises(RankDeficiencyError, match="underdetermined"):
            solve_qr(np.ones((2, 3)), np.ones(2))


class TestSolveQrPivoted:
    def test_full_rank_matches_qr(self):
        rng = np.random.default_rng(106)
        a = rng.standard_normal((7, 4))
        b = rng.standard_normal(7)
        xp = solve_qr_pivoted(a, b)
        xq = solve_qr(a, b)
        assert np.linalg.norm(xp.x - xq.x) <= 1e-9 * np.linalg.norm(xq.x)
        assert xp.free_params == 0

    def test_residual_invariant_over_solution_family(self):
        rng = np.random.default_rng(107)
        base = rng.standard_normal((6, 2))
        a = np.column_stack([base[:, 0], base[:, 1], base[:, 0] + base[:, 1]])
        b = rng.standard_normal(6)
        sol0 = solve_qr_pivoted(a, b)
        sol1 = solve_qr_pivoted(a, b, y_hat=[2.5])
        assert sol0.rank == sol1.rank == 2
        assert sol0.free_params == sol1.free_params == 1
        assert abs(sol0.residual_norm - sol1.residual_norm) <= 1e-10
        # both are genuine least-squares solutions
        for sol in (sol0, sol1):
            assert np.linalg.norm(a.T @ (b - a @ sol.x)) <= 1e-8 * fro(a) * np.linalg.norm(b)

    def test_zero_rhs(self):
        rng = np.random.default_rng(108)
        a = random_rank_deficient(rng, 5, 3, 2)
        sol = solve_qr_pivoted(a, np.zeros(5))
        assert np.abs(sol.x).max() <= 1e-12
        assert sol.residual_norm == 0.0

    def test_y_hat_length_validated(self):
        rng = np.random.default_rng(109)
        a = random_rank_deficient(rng, 5, 3, 2)
        with pytest.raises(ShapeError, match="y_hat"):
            solve_qr_pivoted(a, np.ones(5), y_hat=[1.0, 2.0])


class TestSolveSvd:
    def test_rank2_minimum_norm_solution(self):
        sol = solve_svd(RANK2_A, np.ones(5))
        assert np.abs(sol.x - RANK2_MINNORM_X).max() <= 1e-10
        assert sol.rank == 2 and sol.free_params == 2

    def test_survey(self):
        sol = solve_svd(SURVEY_A, SURVEY_B)
        assert np.abs(sol.x - SURVEY_X).max() <= 1e-8

    def test_equals_pseudoinverse_times_b(self):
        from orthokit import pseudoinverse

        rng = np.random.default_rng(110)
        a = random_rank_deficient(rng, 7, 5, 3)
        b = rng.standard_normal(7)
        sol = solve_svd(a, b)
        assert np.linalg.norm(sol.x - pseudoinverse(a) @ b) <= 1e-9 * max(1, np.linalg.norm(sol.x))

    def test_norm_minimality_against_sampled_family(self):
        rng = np.random.default_rng(111)
        a = random_rank_deficient(rng, 8, 5, 3)
        b = rng.standard_normal(8)
        svd_sol = solve_svd(a, b)
        for _ in range(100):
            y_hat = rng.standard_normal(2)
            piv = solve_qr_pivoted(a, b, y_hat=y_hat)
            assert np.linalg.norm(svd_sol.x) <= np.linalg.norm(piv.x) + 1e-9
            assert abs(svd_sol.residual_norm - piv.residual_norm) <= 1e-9


class TestDispatch:
    def test_full_rank_routes_to_qr(self):
        rng = np.random.default_rng(112)
        a = rng.standard_normal((6, 3))
        assert solve(a, rng.standard_normal(6)).method == "qr"

    def test_rank_deficient_routes_to_svd(self):
        rng = np.random.default_rng(113)
        a = random_rank_deficient(rng, 6, 3, 2)
        assert solve(a, rng.standard_normal(6)).method == "svd"

    KAHAN_REASON = "solve routes by qr_pivoted's pivot-norm rank, 90 here, not by the singular values' rank, 89"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=KAHAN_REASON)
    def test_kahan_rank_is_the_singular_value_rank(self):
        a, b = KAHAN_SYSTEM
        assert solve(a, b).rank == matrix_rank(a)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=KAHAN_REASON)
    def test_kahan_solution_is_the_minimum_norm_one(self):
        a, b = KAHAN_SYSTEM
        x, x_svd = solve(a, b).x, solve_svd(a, b).x
        assert np.linalg.norm(x - x_svd) <= 1e-10 * np.linalg.norm(x_svd)

    @pytest.mark.parametrize(
        "a, b, error, message",
        [
            (np.ones(3), np.ones(3), ShapeError, "expected a 2-D matrix, got array of ndim 1"),
            (np.ones((0, 2)), np.ones(1), ShapeError, r"matrix dimensions must be positive, got \(0, 2\)"),
            ([[1.0, np.nan], [1.0, 2.0]], np.ones(2), ValueError, r"matrix entries must be finite \(no NaN/Inf\)"),
            (np.ones((3, 2)), np.ones(4), ShapeError,
             r"matrix \(3, 2\) does not match right-hand side of length 4"),
            ([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]], [1.0, 2.0], ShapeError,
             r"matrix \(3, 2\) does not match right-hand side of length 2"),
            (np.ones((3, 2)), [[1.0, 2.0, 3.0]], ShapeError, "expected a 1-D vector, got array of ndim 2"),
            (np.ones((3, 2)), [1.0, np.inf, 2.0], ValueError, r"vector entries must be finite \(no NaN/Inf\)"),
            # a malformed A is reported before a wrong-length b
            (np.ones(3), np.ones(4), ShapeError, "expected a 2-D matrix, got array of ndim 1"),
            (np.ones((0, 2)), np.ones(5), ShapeError, r"matrix dimensions must be positive, got \(0, 2\)"),
            ([[np.inf, 1.0]], [1.0, 2.0], ValueError, r"matrix entries must be finite \(no NaN/Inf\)"),
        ],
    )
    def test_malformed_input_is_reported_as_by_the_checked_solvers(self, a, b, error, message):
        # solve leaves A's validation to the factorizations; the exception
        # and its message are those of solve_qr's up-front checks.
        with pytest.raises(error, match=f"^{message}$"):
            solve(a, b)
        with pytest.raises(error, match=f"^{message}$"):
            solve_qr(a, b)


class TestSharedInvariants:
    def test_residual_orthogonality_all_solvers(self):
        rng = np.random.default_rng(114)
        for trial in range(10):
            a = rng.standard_normal((7, 3))
            b = rng.standard_normal(7)
            for solver in ALL_SOLVERS:
                sol = solver(a, b)
                assert np.linalg.norm(a.T @ (b - a @ sol.x)) <= 1e-8 * fro(a) * np.linalg.norm(b)
                direct = np.linalg.norm(b - a @ sol.x)
                assert abs(sol.residual_norm - direct) <= 1e-10 * max(np.linalg.norm(b), 1.0)

    def test_method_agreement_on_well_conditioned(self):
        rng = np.random.default_rng(115)
        count = 0
        while count < 10:
            a = rng.standard_normal((9, 4))
            if cond2(a) >= 1e3:
                continue
            count += 1
            b = rng.standard_normal(9)
            xs = [solver(a, b).x for solver in (solve_normal, solve_qr, solve_svd)]
            for i in range(len(xs)):
                for j in range(i + 1, len(xs)):
                    assert np.linalg.norm(xs[i] - xs[j]) <= 1e-7 * np.linalg.norm(xs[i])

    def test_uniqueness_under_full_rank(self):
        rng = np.random.default_rng(116)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        sol = solve_qr(a, b)
        for _ in range(20):
            z = rng.standard_normal(3)
            if np.linalg.norm(a @ z) <= 1e-12:
                continue
            worse = np.linalg.norm(b - a @ (sol.x + z))
            assert worse > sol.residual_norm


class TestOneCopyOfA:
    """Every route but solve_normal leaves A's validation, and its one copy,
    to the factorizations, and reads A in place after them."""

    @pytest.mark.parametrize("route, copies", [
        ("qr", 1), ("qr_pivoted", 1), ("svd", 1), ("report", 1), ("solve", 2), ("solve-deficient", 2), ("polyfit", 2),
    ])
    def test_one_copy_per_factorization(self, route, copies, monkeypatch):
        rng = np.random.default_rng(120)
        t, b = rng.standard_normal(8), rng.standard_normal(8)
        a = np.vander(t, 3, increasing=True)
        deficient = random_rank_deficient(rng, 8, 3, 2)
        x = solve_qr(a, b).x
        call = {
            "qr": lambda: solve_qr(a, b),
            "qr_pivoted": lambda: solve_qr_pivoted(a, b),
            "svd": lambda: solve_svd(a, b),
            "report": lambda: conditioning_report(a, b, x),
            "solve": lambda: solve(a, b),
            "solve-deficient": lambda: solve(deficient, b),
            "polyfit": lambda: polyfit(t, b, 2),
        }[route]
        calls = []
        for name in ("orthokit.lstsq", "orthokit.qr", "orthokit.svd"):
            monkeypatch.setattr(importlib.import_module(name), "as_matrix",
                                lambda a, **kw: calls.append(1) or as_matrix(a, **kw))
        call()
        assert len(calls) == copies

    @pytest.mark.parametrize("rank", [4, 2])
    def test_input_layout_moves_no_bit(self, rank):
        rng = np.random.default_rng(121 + rank)
        a = random_rank_deficient(rng, 12, 4, rank)
        b = rng.standard_normal(12)
        x = rng.standard_normal(4)
        solvers = ALL_SOLVERS + [solve] if rank == 4 else [solve_qr_pivoted, solve_svd, solve]
        results = {}
        for name, view in layouts(a).items():
            sols = [solver(view, b) for solver in solvers]
            results[name] = ([(s.x.tobytes(), s.residual_norm, s.rank, s.method, s.free_params) for s in sols],
                             conditioning_report(view, b, x))
        ref = results.pop("C")
        assert all(got == ref for got in results.values())


class TestNormalEquationFragility:
    def test_gram_matrix_rounds_to_singular(self):
        eps = 1e-9
        a = np.array([[1.0, 1.0], [eps, 0.0], [0.0, eps]])
        gram = mat_mul(transpose(a), a)
        assert np.array_equal(gram, np.array([[1.0, 1.0], [1.0, 1.0]]))
        b = np.array([1.0, 0.0, eps])
        with pytest.raises(RankDeficiencyError):
            solve_normal(a, b)
        sol = solve_qr(a, b)
        assert np.linalg.norm(a.T @ (b - a @ sol.x)) <= 1e-8 * fro(a) * np.linalg.norm(b)

    def test_gram_conditioning_squares(self):
        eps = 1e-4
        a = np.array([[1.0, 1.0], [eps, 0.0], [0.0, eps]])
        ca = cond2(a)
        cg = cond2(a.T @ a)
        assert abs(ca - np.sqrt(2) * 1e4) <= 1e-2
        assert abs(cg - ca * ca) <= 1e-6 * cg


class TestConditioning:
    def test_survey_report(self):
        sol = solve_qr(SURVEY_A, SURVEY_B)
        rep = conditioning_report(SURVEY_A, SURVEY_B, sol.x)
        assert rep.cond == pytest.approx(2.0, abs=1e-10)
        assert rep.cos_theta == pytest.approx(0.99999868, abs=5e-8)
        assert rep.theta == pytest.approx(0.001625, abs=5e-6)

    def test_perturbed_matrix_solution(self):
        eps = 1e-3
        a = np.array([[1.0, 1.0], [eps, -eps], [0.0, 0.0]])
        e = np.array([[0.0, 0.0], [0.0, 0.0], [-eps, eps]])
        b = np.array([1.0, 0.0, eps])
        assert np.abs(solve_qr(a, b).x - [0.5, 0.5]).max() <= 1e-9
        assert np.abs(solve_qr(a + e, b).x - [0.25, 0.75]).max() <= 1e-9

    def test_relative_change_with_large_residual(self):
        eps = 1e-3
        a = np.array([[1.0, 1.0], [eps, -eps], [0.0, 0.0]])
        e = np.array([[0.0, 0.0], [0.0, 0.0], [-eps, eps]])
        b = np.array([1.0, 0.0, 1.0])
        x0 = solve_qr(a, b).x
        x1 = solve_qr(a + e, b).x
        change = np.linalg.norm(x1 - x0) / np.linalg.norm(x0)
        assert abs(change - 1.0 / (2.0 * eps)) <= 1e-6
        rep = conditioning_report(a, b, x0)
        assert rep.theta == pytest.approx(np.pi / 4.0, abs=1e-9)
        # with tan(theta) = 1 the squared-condition term dominates the bound
        assert rep.matrix_sensitivity_bound >= rep.cond**2
        assert change <= rep.matrix_sensitivity_bound * eps * 1.1

    def test_matrix_bound_observed_for_small_residual_case(self):
        eps = 1e-3
        a = np.array([[1.0, 1.0], [eps, -eps], [0.0, 0.0]])
        e = np.array([[0.0, 0.0], [0.0, 0.0], [-eps, eps]])
        b = np.array([1.0, 0.0, eps])
        x0 = solve_qr(a, b).x
        x1 = solve_qr(a + e, b).x
        change = np.linalg.norm(x1 - x0) / np.linalg.norm(x0)
        assert change == pytest.approx(0.5, abs=1e-9)
        rep = conditioning_report(a, b, x0)
        # bound evaluated with 10% slack for the dropped second-order term
        assert change <= rep.matrix_sensitivity_bound * eps * 1.1

    def test_consistent_system(self):
        rng = np.random.default_rng(117)
        a = rng.standard_normal((5, 3))
        x = rng.standard_normal(3)
        b = a @ x
        rep = conditioning_report(a, b, x)
        assert rep.cos_theta == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs_sensitivity_bound == pytest.approx(rep.cond, rel=1e-12)

    def test_rhs_orthogonal_to_the_range(self):
        # A x = 0, so cos(theta) = 0 and the right-hand-side bound is infinite.
        rep = conditioning_report(np.eye(3, 2), np.array([0.0, 0.0, 1.0]), np.zeros(2))
        assert rep.cos_theta == 0.0 and rep.theta == pytest.approx(np.pi / 2, rel=1e-15)
        assert rep.rhs_sensitivity_bound == np.inf and np.isfinite(rep.matrix_sensitivity_bound)

    @pytest.mark.parametrize("e", [660, -660])
    def test_report_is_exact_under_power_of_two_scaling(self, e):
        # ||b|| and ||Ax|| square entries near 2^(+-1320) unless prescaled.
        rng = np.random.default_rng(20)
        a = rng.standard_normal((20, 3))
        b = a @ np.array([1.0, 2.0, 3.0]) + 0.1 * rng.standard_normal(20)
        x = solve_qr(a, b).x
        s = 2.0**e
        rep = conditioning_report(a, b, x)
        assert rep.matrix_sensitivity_bound > 0.0
        assert conditioning_report(a * s, b * s, x) == rep

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(1, 8),
           st.floats(0.0, 3.0), st.floats(0.0, 1.0))
    def test_matrix_bound_holds_for_a_small_perturbation(self, seed, extra_rows, n, log_cond, tan_theta):
        # A = U diag(sigma) V^T with cond <= 1e3; b = A y + r, r orthogonal
        # to range(A) with ||r|| = tan(theta) ||A y||; ||E||_2 = 1e-9 ||A||_2.
        rng = np.random.default_rng(seed)
        m, eps = n + extra_rows, 1e-9
        q = np.linalg.qr(rng.standard_normal((m, n + 1)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        sigma = np.logspace(0.0, -log_cond, n)
        a = (q[:, :n] * sigma) @ v.T
        ay = a @ rng.standard_normal(n)
        b = ay + tan_theta * np.linalg.norm(ay) * q[:, n]
        e = rng.standard_normal((m, n))
        e *= eps * sigma[0] / np.linalg.norm(e, 2)
        x0 = solve_qr(a, b).x
        change = np.linalg.norm(solve_qr(a + e, b).x - x0) / np.linalg.norm(x0)
        assert change <= 1.1 * eps * conditioning_report(a, b, x0).matrix_sensitivity_bound

    def test_zero_rhs_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            conditioning_report(np.eye(2), np.zeros(2), np.zeros(2))

    def test_rhs_of_the_wrong_length_rejected(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ShapeError, match=r"\(3, 2\) does not match right-hand side of length 5"):
            conditioning_report(a, np.ones(5), np.ones(2))

    def test_solution_of_the_wrong_length_rejected(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ShapeError, match=r"solution of length 3 does not match matrix \(3, 2\)"):
            conditioning_report(a, np.ones(3), np.ones(3))


class TestSolutionPastTheFloat64Range:
    @pytest.mark.parametrize("route", [solve, solve_qr, solve_qr_pivoted, solve_svd])
    @pytest.mark.parametrize("a, b", [TINY_SYSTEM, TALL_SYSTEM], ids=["tiny", "tall"])
    def test_every_factoring_route_raises(self, route, a, b):
        with pytest.raises(NumericalError, match="overflowed the float64 range"):
            route(a, b)

    def test_normal_equations_past_the_float64_range_raise(self):
        a, b = BIG_SYSTEM
        with pytest.raises(NumericalError, match="^solve_normal: "):
            solve_normal(a, b)
        assert solve_qr(a, b).x == pytest.approx([1e-200, 1e-200], rel=1e-14)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: solve_qr_pivoted(np.ones((3, 2)), [1.0, 2.0, 3.0], y_hat=[np.inf]), ValueError,
                 "y_hat entries must be finite", id="y_hat-inf"),
])
def test_error_paths(call, error, match):
    with pytest.raises(error, match=match):
        call()

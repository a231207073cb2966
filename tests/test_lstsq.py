import numpy as np
import pytest

from orthokit import (
    RankDeficiencyError,
    ShapeError,
    cond2,
    conditioning_report,
    mat_mul,
    solve,
    solve_normal,
    solve_qr,
    solve_qr_pivoted,
    solve_svd,
    transpose,
)
from helpers import (
    RANK2_A,
    RANK2_MINNORM_X,
    SURVEY_A,
    SURVEY_ATB,
    SURVEY_B,
    SURVEY_GRAM,
    SURVEY_RESIDUAL,
    SURVEY_X,
    fro,
    random_rank_deficient,
)

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
        rep_eps = conditioning_report(a, b, x0, eps_a=eps)
        assert rep_eps.matrix_sensitivity_bound >= rep.cond**2 * eps
        assert change <= rep_eps.matrix_sensitivity_bound * 1.1

    def test_matrix_bound_observed_for_small_residual_case(self):
        eps = 1e-3
        a = np.array([[1.0, 1.0], [eps, -eps], [0.0, 0.0]])
        e = np.array([[0.0, 0.0], [0.0, 0.0], [-eps, eps]])
        b = np.array([1.0, 0.0, eps])
        x0 = solve_qr(a, b).x
        x1 = solve_qr(a + e, b).x
        change = np.linalg.norm(x1 - x0) / np.linalg.norm(x0)
        assert change == pytest.approx(0.5, abs=1e-9)
        rep = conditioning_report(a, b, x0, eps_a=eps)
        # bound evaluated with 10% slack for the dropped second-order term
        assert change <= rep.matrix_sensitivity_bound * 1.1

    def test_consistent_system(self):
        rng = np.random.default_rng(117)
        a = rng.standard_normal((5, 3))
        x = rng.standard_normal(3)
        b = a @ x
        rep = conditioning_report(a, b, x)
        assert rep.cos_theta == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs_sensitivity_bound == pytest.approx(rep.cond, rel=1e-12)

    @pytest.mark.parametrize("e", [660, -660])
    def test_report_is_exact_under_power_of_two_scaling(self, e):
        # ||b|| and ||Ax|| square entries near 2^(+-1320) unless prescaled.
        rng = np.random.default_rng(20)
        a = rng.standard_normal((20, 3))
        b = a @ np.array([1.0, 2.0, 3.0]) + 0.1 * rng.standard_normal(20)
        x = solve_qr(a, b).x
        s = 2.0**e
        assert conditioning_report(a * s, b * s, x, eps_a=1e-8) == conditioning_report(a, b, x, eps_a=1e-8)

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


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: solve_qr_pivoted(np.ones((3, 2)), [1.0, 2.0, 3.0], y_hat=[np.inf]), ValueError,
                 "y_hat entries must be finite", id="y_hat-inf"),
])
def test_error_paths(call, error, match):
    with pytest.raises(error, match=match):
        call()

import sys

import numpy as np
import pytest

from orthokit import (
    Bidiagonal,
    ConvergenceError,
    NumericalError,
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
    pseudoinverse,
    qr_householder,
    singular_values,
    subspace_bases,
    svd,
)
from orthokit.reflectors import rotate
from helpers import (
    RANK2_A,
    RANK2_PINV,
    SURVEY_A,
    SURVEY_PINV,
    SVD_3X2,
    SVD_5X3,
    SVD_5X3_SIGMA,
    dense_reflector,
    fix_signs_reference,
    fro,
    jacobi_reference,
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


class TestBidiagSvd:
    def test_diagonal_case_sorts_absolute_values(self):
        b = Bidiagonal(np.array([-2.0, 5.0, 1.0]), np.zeros(2))
        left, sigma, right = bidiag_svd(b)
        assert np.array_equal(sigma, [5.0, 2.0, 1.0])
        dense = left @ np.diag(sigma) @ right.T
        assert np.abs(dense - np.diag([-2.0, 5.0, 1.0])).max() <= 1e-14

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

    def test_sweep_budget_exhaustion_carries_partial(self):
        rng = np.random.default_rng(73)
        bid = Bidiagonal(rng.standard_normal(12), rng.standard_normal(11))
        with pytest.raises(ConvergenceError) as err:
            bidiag_svd(bid, max_sweeps=1)
        partial = err.value.partial
        assert isinstance(partial, np.ndarray) and len(partial) == 12
        assert (np.diff(partial) <= 0.0).all()

    def test_max_sweeps_validated(self):
        with pytest.raises(ValueError, match="max_sweeps"):
            bidiag_svd(Bidiagonal(np.ones(2), np.ones(1)), max_sweeps=0)


def _sequential_chain(m, lo, c, s):
    for k in range(len(c)):
        rotate(m[:, lo + k], m[:, lo + k + 1], c[k], s[k])


def _random_chain(rng, length):
    theta = rng.uniform(-np.pi, np.pi, length)
    c, s = np.cos(theta), np.sin(theta)
    # exact identities and swaps, as the chase produces for zero entries
    c[1::7], s[1::7] = 1.0, 0.0
    c[4::7], s[4::7] = 0.0, 1.0
    return c, s


class TestRotationChains:
    B = svd_mod.CHAIN_BLOCK
    X = svd_mod.CHAIN_CROSSOVER

    @pytest.mark.parametrize("length", [1, X - 1, X, B, B + 1, 3 * B + 5])
    def test_chain_matrix_equals_sequential_rotations(self, length):
        rng = np.random.default_rng(length)
        for _ in range(5):
            c, s = _random_chain(rng, length)
            expected = np.eye(length + 1)
            _sequential_chain(expected, 0, c, s)
            assert np.array_equal(svd_mod._chain_matrix(c, s), expected)

    @pytest.mark.parametrize("length", [1, X - 1, X, B, B + 1, 3 * B + 5])
    def test_apply_chain_matches_sequential_rotations(self, length):
        rng = np.random.default_rng(100 + length)
        m = rng.standard_normal((40, length + 7))
        c, s = _random_chain(rng, length)
        expected = m.copy()
        _sequential_chain(expected, 3, c, s)
        svd_mod._apply_chain(m, 3, list(c), list(s))
        if length < self.X:
            assert np.array_equal(m, expected)
        else:
            assert np.abs(m - expected).max() <= 10 * length * EPS * np.abs(expected).max()
        assert np.array_equal(m[:, :3], expected[:, :3])
        assert np.array_equal(m[:, length + 4 :], expected[:, length + 4 :])


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
        # n = 200: sweeps span several CHAIN_BLOCK blocks.
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
        # Each rotation turns rows p, q of A and columns p, q of V.
        calls = []

        def spy(x, y, c, s):
            calls.append((x.shape, c, s))
            rotate(x, y, c, s)

        s = np.random.default_rng(84).standard_normal((5, 5))
        s = s + s.T
        w_ref, v_ref = jacobi_eig(s)
        monkeypatch.setattr(svd_mod, "rotate", spy)
        w, v = jacobi_eig(s)
        assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()
        assert calls and len(calls) % 2 == 0 and calls[::2] == calls[1::2]


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

    def test_rank_from_duplicated_columns_matches_pivoted_qr(self):
        from orthokit import qr_pivoted

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

"""Property tests: factorization invariants across shapes, ranks and the
float64 exponent range.

A matrix is drawn as a seed, a shape up to 40 x 40 (1 x n and m x 1
included; with fewer examples, up to 160 x 100 for the blocked Householder
and pivoted QR paths and up to 120 x 120 for the SVD), a structure (dense,
prescribed rank, graded columns) and a scale 2^e with e in [-1000, 1000]
(the Jacobi cross-check, which squares A, stays in [-250, 250]).  Every
comparison is made in units of 2^e, so the oracle's own norms cannot
overflow.  The profile is derandomized, with bounded examples and no
example database, so tier-1 stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from orthokit import (
    GivensRotation,
    QrMode,
    RankDeficiencyError,
    default_rank_threshold,
    form_q,
    givens_apply,
    givens_params,
    householder_matrix,
    jacobi_eig,
    matrix_rank,
    projector_onto_range,
    qr_givens,
    qr_hessenberg,
    qr_householder,
    qr_pivoted,
    singular_values,
    solve_normal,
    solve_qr,
    solve_qr_pivoted,
    solve_svd,
    svd,
)
from orthokit.reflectors import BLOCK
from helpers import fro

EPS = np.finfo(float).eps
C = 20  # backward-error and orthogonality constant, in units of max(m, n) eps
MAX_DIM = 40

PROFILE = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Shapes that cross the reflector block size several times, and fewer of them.
LARGE = settings(PROFILE, max_examples=30)


@st.composite
def scaled_matrices(draw, min_rows=1, min_cols=1, kinds=("dense", "rank", "graded"), max_rows=MAX_DIM,
                    max_cols=MAX_DIM, max_exp=1000):
    """``(a, e)``: a matrix at scale 2^e, |e| <= max_exp."""
    m, n = draw(st.integers(min_rows, max_rows)), draw(st.integers(min_cols, max_cols))
    kind = draw(st.sampled_from(list(kinds)))
    rank = draw(st.integers(1, min(m, n)))
    e = draw(st.one_of(st.sampled_from([-max_exp, max_exp]), st.integers(-max_exp, max_exp)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        a = rng.standard_normal((m, n))
    elif kind == "rank":
        a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    else:
        a = rng.standard_normal((m, n)) * np.logspace(0, -12, n)
    return np.ldexp(a, e), e


def _check_qr(a, e, q, r, perm=None):
    m, n = a.shape
    unit = np.ldexp(a, -e)
    if perm is not None:
        unit = unit[:, perm]
    tol = C * max(m, n) * EPS
    assert np.all(np.tril(r, -1) == 0.0)
    assert fro(q.T @ q - np.eye(q.shape[1])) <= tol * np.sqrt(m)
    assert fro(q @ np.ldexp(r, -e) - unit) <= tol * fro(unit)


@PROFILE
@given(scaled_matrices())
def test_householder_qr(case):
    a, e = case
    f = qr_householder(a, QrMode.Q_AND_R)
    _check_qr(a, e, f.q, f.r)


@LARGE
@given(scaled_matrices(max_rows=160, max_cols=100))
def test_householder_qr_and_thin_q_past_one_block(case):
    a, e = case
    m, n = a.shape
    f = qr_householder(a, QrMode.Q_AND_R)
    _check_qr(a, e, f.q, f.r)
    k = min(m, n)
    _check_qr(a, e, form_q(f.reflectors, m, k), f.r[:k])


@PROFILE
@given(scaled_matrices(kinds=("dense",)), st.integers(0, 2**32 - 1))
def test_solve_qr_residual_orthogonal_to_range(case, seed):
    # Only x is checked, in units of 2^e: residual_norm is not scale-safe.
    a, e = case
    if a.shape[0] < a.shape[1]:
        a = a.T
    m, n = a.shape
    unit = np.ldexp(a, -e)
    b = np.random.default_rng(seed).standard_normal(m)
    with np.errstate(over="ignore"):  # in residual_norm at 2^1000
        x = solve_qr(a, np.ldexp(b, e)).x
    size = fro(unit) * (2 * fro(b) + fro(unit) * fro(x))
    assert fro(unit.T @ (b - unit @ x)) <= C * m * EPS * size


def _check_pivoted_qr(a, e):
    f = qr_pivoted(a)
    _check_qr(a, e, form_q(f.reflectors, a.shape[0]), f.r, f.perm)
    assert sorted(f.perm.tolist()) == list(range(a.shape[1]))
    # Pivot dominance: the residual column norms at step k are those of
    # the final R's rows k:, and the pivot is the largest of them.
    r = np.ldexp(f.r, -e)
    for k in range(min(a.shape)):
        fresh = np.sqrt((r[k:, k:] ** 2).sum(axis=0))
        assert abs(r[k, k]) >= fresh.max() * (1 - 1e-6)


@PROFILE
@given(scaled_matrices())
def test_pivoted_qr(case):
    _check_pivoted_qr(*case)


@LARGE
@given(scaled_matrices(max_rows=160, max_cols=100))
def test_pivoted_qr_past_one_block(case):
    _check_pivoted_qr(*case)


@PROFILE
@given(scaled_matrices())
def test_pivoted_qr_rank_is_the_svd_rank_away_from_the_threshold(case):
    a, e = case
    unit = np.ldexp(a, -e)
    sigma = np.linalg.svd(unit, compute_uv=False)
    delta = 1e-12 * np.abs(unit).sum(axis=1).max()
    r = int((sigma > delta).sum())
    assume((r == 0 or sigma[r - 1] >= 10 * delta) and (r == sigma.size or sigma[r] <= delta / 10))
    assert qr_pivoted(a).rank == matrix_rank(a) == r


@PROFILE
@given(scaled_matrices(kinds=("dense", "rank")), st.integers(0, 2**32 - 1))
def test_solve_qr_pivoted_residual_orthogonal_to_range(case, seed):
    # Only x is checked, in units of 2^e: residual_norm is not scale-safe.
    a, e = case
    m, n = a.shape
    unit = np.ldexp(a, -e)
    b = np.random.default_rng(seed).standard_normal(m)
    with np.errstate(over="ignore"):  # in residual_norm at 2^1000
        x = solve_qr_pivoted(a, np.ldexp(b, e)).x
    size = fro(unit) * (2 * fro(b) + fro(unit) * fro(x))
    assert fro(unit.T @ (b - unit @ x)) <= C * max(m, n) * EPS * size


@PROFILE
@given(scaled_matrices(kinds=("dense", "rank")), st.integers(0, 2**32 - 1))
def test_solve_svd_residual_orthogonal_to_range(case, seed):
    """The computed SVD is exact for A + E with ||E|| <= c eps ||A||, and x
    is the pseudoinverse solution of its truncation A_r.  The truncated
    part T = A + E - A_r has ||T|| <= delta, T x = 0 and A_r^T T = 0, so
    A^T r = T^T b + O(||E||) and
    ||A^T r|| <= C max(m, n) eps ||A|| (2 ||b|| + ||A|| ||x||) + delta ||b||,
    the first term as for the QR routes (rounding in x and in r included),
    delta = default_rank_threshold(A).  Only x is checked, in units of 2^e:
    residual_norm is not scale-safe."""
    a, e = case
    m, n = a.shape
    unit = np.ldexp(a, -e)
    b = np.random.default_rng(seed).standard_normal(m)
    with np.errstate(over="ignore"):  # in residual_norm at 2^1000
        x = solve_svd(a, np.ldexp(b, e)).x
    delta = np.ldexp(default_rank_threshold(a), -e)
    size = fro(unit) * (2 * fro(b) + fro(unit) * fro(x))
    assert fro(unit.T @ (b - unit @ x)) <= C * max(m, n) * EPS * size + delta * fro(b)


@PROFILE
@given(scaled_matrices(kinds=("dense",), max_exp=250), st.integers(0, 2**32 - 1))
def test_solve_normal_residual_orthogonal_to_range(case, seed):
    """Forming G = A^T A and c = A^T b errs by |dG| <= gamma_m |A|^T |A| and
    |dc| <= gamma_m |A|^T |b|; Cholesky and the two triangular solves give
    (fl(G) + H) x = fl(c) with |H| <= gamma_{3n+1} |L| |L^T| (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 10.4).  In the
    2-norm, |A|^T |A| and |L| |L^T| are both at most ||A||_F^2 (the trace
    of G), so A^T r = c - G x = (dG + H) x - dc gives
    ||A^T r|| <= (gamma_m + gamma_{3n+1}) ||A||_F^2 ||x|| + gamma_m ||A||_F ||b||.
    For m >= n that is inside C m eps ||A||_F (2 ||b|| + ||A||_F ||x||),
    which also covers the rounding of r in the check.  |e| <= 250 keeps
    A^T A representable; draws rejected as numerically rank deficient are
    skipped."""
    a, e = case
    if a.shape[0] < a.shape[1]:
        a = a.T
    m, n = a.shape
    unit = np.ldexp(a, -e)
    b = np.random.default_rng(seed).standard_normal(m)
    try:
        x = solve_normal(a, np.ldexp(b, e)).x
    except RankDeficiencyError:
        return
    size = fro(unit) * (2 * fro(b) + fro(unit) * fro(x))
    assert fro(unit.T @ (b - unit @ x)) <= C * m * EPS * size


@PROFILE
@given(scaled_matrices())
def test_givens_qr(case):
    a, e = case
    f = qr_givens(a)
    _check_qr(a, e, f.q, f.r)


def _check_svd(a, e, shape):
    m, n = a.shape
    f = svd(a, shape)
    k = min(m, n)
    tol = C * max(m, n) * EPS
    unit = np.ldexp(a, -e)
    sigma = np.ldexp(f.sigma, -e)
    assert np.all(sigma >= 0.0) and np.all(np.diff(sigma) <= 0.0)
    assert fro((f.u[:, :k] * sigma) @ f.vt[:k, :] - unit) <= tol * fro(unit)
    assert fro(f.u.T @ f.u - np.eye(f.u.shape[1])) <= tol * np.sqrt(m)
    assert fro(f.vt @ f.vt.T - np.eye(f.vt.shape[0])) <= tol * np.sqrt(n)


@PROFILE
@given(scaled_matrices(), st.sampled_from(["reduced", "full"]))
def test_svd_backward_error_and_orthogonality(case, shape):
    _check_svd(*case, shape)


@LARGE
@given(scaled_matrices(min_rows=BLOCK + 3, max_rows=120, min_cols=BLOCK + 3, max_cols=120),
       st.sampled_from(["reduced", "full"]))
def test_svd_past_one_reflector_block(case, shape):
    # More than BLOCK reflectors on each side.  Full U (tall) and full
    # V (wide) include the columns without a partner.
    _check_svd(*case, shape)


@LARGE
@given(scaled_matrices(max_rows=24, max_cols=12, max_exp=250))
def test_jacobi_and_two_phase_agree(case):
    # sigma(A)^2 against the eigenvalues of A^T A, in units of sigma_1^2.
    a, e = case
    m, n = a.shape
    s = a.T @ a
    w, _ = jacobi_eig(s)
    w = np.ldexp(w, -2 * e)
    sigma = np.ldexp(singular_values(a), -e)
    sq = np.zeros(n)
    sq[: sigma.size] = sigma**2
    # Rounding in A^T A and both solvers, plus the off-diagonal entries
    # below 1e-14 ||S||_F that Jacobi leaves in place.
    tol = C * max(m, n) * EPS * sigma[0] ** 2 + n * 1e-14 * fro(np.ldexp(s, -2 * e))
    assert np.abs(w - sq).max() <= tol


@PROFILE
@given(scaled_matrices(), st.integers(1, MAX_DIM))
def test_form_q_equals_product_of_reflectors(case, cols):
    a, _ = case
    m = a.shape[0]
    cols = min(cols, m)
    reflectors = qr_householder(a, QrMode.R_AND_REFLECTORS).reflectors
    dense = np.eye(m)
    for h in reflectors:
        assert h.offset + h.u.size == m
        dense = dense @ householder_matrix(h)
    tol = C * m * EPS
    assert np.abs(form_q(reflectors, m) - dense).max() <= tol
    assert np.abs(form_q(reflectors, m, cols) - dense[:, :cols]).max() <= tol


@PROFILE
@given(scaled_matrices(min_rows=2), st.integers(0, MAX_DIM), st.integers(0, MAX_DIM),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0).filter(bool))
def test_givens_apply_equals_dense_rotation(case, j, gap, x, y):
    a, e = case
    m = a.shape[0]
    j = j % (m - 1)
    k = j + 1 + gap % (m - 1 - j)
    c, s = givens_params(x, y)
    g = np.eye(m)
    g[j, j], g[j, k], g[k, j], g[k, k] = c, s, -s, c
    out = givens_apply(GivensRotation(c, s, j, k), a)
    rest = np.setdiff1d(np.arange(m), [j, k])
    assert np.array_equal(out[rest], a[rest])
    unit = np.ldexp(a, -e)
    assert np.abs(np.ldexp(out, -e) - g @ unit).max() <= 4 * EPS * np.abs(unit).max()


@PROFILE
@given(scaled_matrices(kinds=("dense", "graded")))
def test_range_projector(case):
    a, e = case
    if a.shape[0] < a.shape[1]:
        a = a.T
    m, n = a.shape
    if qr_pivoted(a).rank < n:
        with pytest.raises(RankDeficiencyError):
            projector_onto_range(a)
        return
    p = projector_onto_range(a)
    tol = C * m * EPS
    unit = np.ldexp(a, -e)
    assert np.array_equal(p, p.T)
    assert fro(p @ p - p) <= tol * np.sqrt(n)
    assert fro(p @ unit - unit) <= tol * fro(unit)
    assert abs(np.trace(p) - n) <= tol * n  # rank n: P fixes range(A) and nothing more


@PROFILE
@given(scaled_matrices(), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_hessenberg_qr_is_givens_qr(case, zero_frac, seed):
    a, _ = case
    n = min(a.shape)
    h = np.triu(a[:n, :n], -1)
    h[np.random.default_rng(seed).random((n, n)) < zero_frac] = 0.0
    f, g = qr_hessenberg(h), qr_givens(h)
    assert np.array_equal(f.r, g.r) and np.array_equal(f.q, g.q)
    assert f.rotations == g.rotations
    assert f.rotation_count <= n - 1

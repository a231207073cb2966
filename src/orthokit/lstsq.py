"""Least-squares solvers over a shared result contract, plus conditioning
diagnostics (residual angle and perturbation bounds).

Four routes are provided.  Normal equations are fast but square the
condition number and can lose rank information to rounding; the QR route
is the stable default for full-rank systems; pivoted QR and SVD handle
rank deficiency, the SVD route returning the norm-minimal solution.
Every route but the normal equations, and the conditioning report, leaves
A's validation and its one copy to its factorization and reads A in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, RankDeficiencyError, ShapeError
from .matrix import (
    DEFAULT_T_DIGITS, as_matrix, as_real, as_vector, back_sub, cholesky, forward_sub, rank_threshold, require_finite,
)
from .qr import QrMode, qr_householder, qr_pivoted
from .reflectors import reflect_all, stable_norm
from .svd import cond2, numerical_rank, svd

__all__ = [
    "LeastSquaresSolution",
    "ConditioningReport",
    "solve_normal",
    "solve_qr",
    "solve_qr_pivoted",
    "solve_svd",
    "solve",
    "conditioning_report",
]


@dataclass
class LeastSquaresSolution:
    x: np.ndarray
    residual_norm: float
    method: str
    rank: int
    free_params: int | None = None


@dataclass
class ConditioningReport:
    """Sensitivity of min ||Ax - b||: cond2(A), the angle theta between b
    and Ax, and the first-order factors by which a relative perturbation of
    b (cond / cos theta) or of A (cond^2 tan theta + cond) can grow in x.
    """

    cond: float
    cos_theta: float
    theta: float
    rhs_sensitivity_bound: float
    matrix_sensitivity_bound: float


def _matching(a, b):
    """A validated matrix ``a`` read in place, and ``b`` checked against it."""
    a, b = np.ascontiguousarray(a, dtype=float), as_vector(b)
    if a.shape[0] != b.size:
        raise ShapeError(f"matrix {a.shape} does not match right-hand side of length {b.size}")
    return a, b


def _solution(a, b, x, method, rank, free_params=None) -> LeastSquaresSolution:
    """The result of ``method`` with its residual norm ||b - A x||;
    ``NumericalError`` if x overflowed the float64 range."""
    require_finite(f"solve_{method}", x)
    return LeastSquaresSolution(x, float(np.linalg.norm(b - a @ x)), method, rank, free_params)


def solve_normal(a, b) -> LeastSquaresSolution:
    """Solve A^T A x = A^T b by Cholesky plus two triangular solves.

    Requires full column rank: a Cholesky breakdown is reported as rank
    deficiency with a pointer to the stable routes.
    """
    a, b = _matching(as_matrix(a), b)  # no factorization validates A here
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        ata, atb = a.T @ a, a.T @ b
    require_finite("solve_normal", ata, atb)
    try:
        l = cholesky(ata)
    except NotPositiveDefiniteError as exc:
        raise RankDeficiencyError(
            "normal equations are numerically singular (matrix not of full column rank "
            f"at pivot {exc.index}); use solve_qr_pivoted or solve_svd"
        ) from exc
    x = back_sub(l.T, forward_sub(l, atb))
    return _solution(a, b, x, "normal", a.shape[1])


def solve_qr(a, b) -> LeastSquaresSolution:
    """Solve min ||Ax - b|| for full-column-rank A via Householder QR:
    back-substitute R1 x = Q1^T b; the residual norm is ||Q2^T b||."""
    f = qr_householder(a, QrMode.R_AND_REFLECTORS)
    a, b = _matching(a, b)
    m, n = a.shape
    if m < n:
        raise RankDeficiencyError(
            f"system is underdetermined ({m} rows, {n} columns); use solve_qr_pivoted or solve_svd"
        )
    tol = rank_threshold(a)
    diag = np.abs(np.diagonal(f.r)[:n])
    if np.any(diag <= tol):
        i = int(np.argmax(diag <= tol))
        raise RankDeficiencyError(
            f"R diagonal entry {i} is negligible ({diag[i]:.3e} <= {tol:.3e}); "
            "use solve_qr_pivoted or solve_svd"
        )
    reflect_all(f.reflectors, b[:, None], transpose=True)  # b is _matching's copy
    x = back_sub(f.r[:n, :n], b[:n])
    residual = float(np.linalg.norm(b[n:]))
    return LeastSquaresSolution(x=x, residual_norm=residual, method="qr", rank=n)


def solve_qr_pivoted(a, b, y_hat=None, t_digits: int = DEFAULT_T_DIGITS) -> LeastSquaresSolution:
    """Solve min ||Ax - b|| for any rank via column-pivoted QR, its rank at ``matrix.rank_threshold``.

    With rank r < n the solution family has n - r free parameters ``y_hat``
    (default zero, the basic solution); every choice gives the same
    residual norm.
    """
    f = qr_pivoted(a, t_digits=t_digits)
    a, b = _matching(a, b)
    n = a.shape[1]
    r = f.rank
    y_hat = np.zeros(n - r) if y_hat is None else as_real(y_hat, "y_hat entries").reshape(-1)
    if y_hat.size != n - r:
        raise ShapeError(f"y_hat must have length n - rank = {n - r}, got {y_hat.size}")
    qtb = b.copy()
    reflect_all(f.reflectors, qtb[:, None], transpose=True)
    x = np.zeros(n)
    x[f.perm[r:]] = y_hat
    if r:
        x[f.perm[:r]] = back_sub(f.r[:r, :r], qtb[:r] - f.r[:r, r:] @ y_hat)
    return _solution(a, b, x, "qr_pivoted", r, n - r)


def solve_svd(a, b) -> LeastSquaresSolution:
    """Norm-minimal least-squares solution x = sum_{j<=r} (u_j^T b / sigma_j) v_j,
    truncated at the numerical rank; equals pseudoinverse(a) @ b."""
    f = svd(a, "reduced")
    a, b = _matching(a, b)
    n = a.shape[1]
    r = numerical_rank(f.sigma, rank_threshold(a))
    with np.errstate(over="ignore", invalid="ignore"):  # checked in _solution
        x = f.vt[:r].T @ ((f.u[:, :r].T @ b) / f.sigma[:r])  # zero at rank 0
    return _solution(a, b, x, "svd", r, n - r)


def solve(a, b) -> LeastSquaresSolution:
    """Default route: QR when the numerical rank is full, SVD otherwise.
    The pivoted QR only picks the route, which validates A and b itself."""
    full_rank = qr_pivoted(a).rank == np.shape(a)[1]
    return solve_qr(a, b) if full_rank else solve_svd(a, b)


def conditioning_report(a, b, x) -> ConditioningReport:
    """Evaluate the sensitivity of a computed least-squares solution.

    ``cos_theta = ||Ax|| / ||b||`` is clamped to [0, 1] before the arccos.
    The matrix bound is finite: cond < sqrt(m) 1e12, tan theta < 1.7e16.
    """
    cond = cond2(a)
    a, b = _matching(a, b)
    x = as_vector(x)
    if x.size != a.shape[1]:
        raise ShapeError(f"solution of length {x.size} does not match matrix {a.shape}")
    bnorm = stable_norm(b)
    if bnorm == 0.0:
        raise ValueError("conditioning report needs a nonzero right-hand side")
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        ax = a @ x
    require_finite("conditioning_report", ax)
    cos_theta = min(1.0, max(0.0, stable_norm(ax) / bnorm))
    theta = math.acos(cos_theta)
    rhs_bound = cond / cos_theta if cos_theta > 0.0 else math.inf
    matrix_bound = cond * cond * math.tan(theta) + cond
    return ConditioningReport(
        cond=cond,
        cos_theta=cos_theta,
        theta=theta,
        rhs_sensitivity_bound=rhs_bound,
        matrix_sensitivity_bound=matrix_bound,
    )

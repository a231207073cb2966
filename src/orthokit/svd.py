"""Two-phase singular value decomposition and everything derived from it.

Phase one reduces A (A^T if A is wide) to upper-bidiagonal form with
alternating left/right Householder reflectors: in panels of ``BLOCK``
columns whose updates are delayed and applied as one matrix product while
the trailing matrix has at least ``PANEL_CROSSOVER`` entries (LAPACK
xGEBRD/xLABRD), then one rank-1 update per reflector; phase two finds the
singular values, and vectors when wanted, of the bidiagonal B
(``orthokit.bidiagonal``: B split at its negligible superdiagonal entries,
then divide and conquer down to implicit-QR leaves of at most LEAF rows, for
the values alone too, so they are the bits ``svd`` gives).  The vectors of B
are then taken back through the stored reflectors in place, one
``reflect_all`` per side (LAPACK xORMBR), with no Q formed.

``jacobi_eig`` is a cyclic Jacobi eigensolver for symmetric matrices and
an independent cross-check of the two-phase route (singular values of A
are the square roots of the eigenvalues of A^T A).  Its rotation angles,
order and skip threshold are its own; it shares only the plane-rotation
kernel ``rotate``, which the property suite checks against a dense
rotation.  It sweeps one array [A | V^T], so each rotation is one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bidiagonal import bidiagonal_svd
from .errors import ConvergenceError, ShapeError, SingularMatrixError
from .matrix import (
    DEFAULT_T_DIGITS, as_matrix, as_square, as_vector, norm, norm_tol, pow2_scale, prescale, require_finite, unscale,
)
from .reflectors import BLOCK, HouseholderReflector, annihilate, reflect_all, rotate, subtract_product

__all__ = [
    "SvdFactorization",
    "Bidiagonal",
    "bidiagonalize",
    "bidiag_svd",
    "svd",
    "singular_values",
    "jacobi_eig",
    "norm2",
    "cond2",
    "numerical_rank",
    "default_rank_threshold",
    "matrix_rank",
    "pseudoinverse",
    "low_rank",
    "subspace_bases",
    "SubspaceBases",
    "nearest_orthogonal",
    "distance_to_singular",
    "SingularDistance",
]

# ``bidiagonalize`` sweeps panels of BLOCK columns while the trailing matrix
# has at least this many entries, and one rank-1 update per reflector below.
# Chosen by timing with one BLAS thread: from about 4000 entries on, the
# panel is faster; below that, its extra products cost what they save (the
# panel at every size made bidiagonalize 1.2-1.55x slower at 3^2 to 16^2).
PANEL_CROSSOVER = 5000


@dataclass
class SvdFactorization:
    """A = u @ diag(sigma) @ vt with orthonormal u/vt columns and sigma
    sorted nonincreasing.  ``shape`` is "full" (u is m x m, vt is n x n) or
    "reduced" (u is m x k, vt is k x n, k = min(m, n))."""

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray
    shape: str


@dataclass
class Bidiagonal:
    d: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        self.d = as_vector(self.d)
        self.e = np.array(self.e, dtype=float)
        if self.e.ndim != 1:
            raise ShapeError(f"superdiagonal must be a 1-D vector, got array of ndim {self.e.ndim}")
        if self.e.size != self.d.size - 1:
            raise ShapeError(f"superdiagonal length {self.e.size} != diagonal length {self.d.size} - 1")
        if not np.isfinite(self.e).all():
            raise ValueError("superdiagonal entries must be finite (no NaN/Inf)")


def bidiagonalize(a):
    """Reduce a tall matrix (m >= n) to upper-bidiagonal form.

    Returns ``(left, Bidiagonal, right)`` where the reflector lists satisfy
    A = (H_0 H_1 ...) * B * (P_0 P_1 ...)^T with B the m x n bidiagonal
    embedding.  Columns/rows that are already in the required form are
    skipped, so an already-bidiagonal input comes back untouched.

    While the trailing matrix has at least ``PANEL_CROSSOVER`` entries, the
    sweep runs over panels of ``BLOCK`` columns (``_panel``, LAPACK
    xGEBRD/xLABRD); the rest of the matrix, and every matrix below the
    crossover, takes one rank-1 update per reflector (xGEBD2).  The sweep
    runs on a column-major copy of A, as LAPACK's does; d and e are copied
    out of it.
    """
    b = as_matrix(a, order="F")  # a fresh column-major copy, swept in place
    m, n = b.shape
    if m < n:
        raise ShapeError(f"bidiagonalize needs m >= n, got {b.shape}; transpose first")
    # Exact power-of-two prescaling: the sweep cannot overflow, and d, e
    # overflow only if the singular values do.
    scale = prescale(b)
    left: list[HouseholderReflector] = []
    right: list[HouseholderReflector] = []
    j0 = 0
    while j0 < n and (m - j0) * (n - j0) >= PANEL_CROSSOVER:
        _panel(b[j0:, j0:], j0, min(BLOCK, n - j0), left, right)
        j0 += BLOCK
    for k in range(j0, n):
        h = annihilate(b[k:, k:], k)
        if h is not None:
            left.append(h)
        if k < n - 2:
            h = annihilate(b[k:, k + 1 :].T, k + 1)
            if h is not None:
                right.append(h)
    d, e = np.diagonal(b).copy(), np.diagonal(b, 1).copy()  # diagonal views are read-only
    unscale("bidiagonalize", scale, d, e)
    return left, Bidiagonal(d, e), right


def _panel(t: np.ndarray, j0: int, nb: int, left: list, right: list) -> None:
    """Bidiagonalize the first ``nb`` columns and rows of the trailing
    matrix ``t`` (the view ``b[j0:, j0:]``) in place, appending the
    reflectors to ``left`` and ``right``, then update the rest of ``t``.

    Until the panel ends, its reflectors act on ``t`` only through
    ``t <- t - U Y^T - X V^T`` (LAPACK xLABRD): column i of U (of V) is the
    i-th left (right) u, and Y and X carry the rest of each update.  Column
    i and row i are brought up to date just before they are eliminated;
    the other columns wait for one product at the end.  A skipped
    reflector leaves zero columns.
    """
    mt, nt = t.shape
    # Stored side by side, so [U X] [Y V]^T is one product; the columns
    # not yet formed are zero and add nothing.  Column-major, like t: each
    # step writes one column of each.
    ux = np.zeros((mt, 2 * nb), order="F")
    yv = np.zeros((nt, 2 * nb), order="F")
    for i in range(nb):
        t[i:, i] -= ux[i:] @ yv[i]
        h = annihilate(t[i:, i : i + 1], j0 + i)
        if h is not None:
            left.append(h)
            ux[i:, i] = h.u
            yv[i + 1 :, i] = h.beta * (h.u @ t[i:, i + 1 :] - yv[i + 1 :] @ (h.u @ ux[i:]))
        if i + 1 == nt:
            break
        t[i, i + 1 :] -= yv[i + 1 :] @ ux[i]
        if i + 2 == nt:
            continue  # one entry right of the diagonal: nothing to eliminate
        g = annihilate(t[i : i + 1, i + 1 :].T, j0 + i + 1)
        if g is not None:
            right.append(g)
            yv[i + 1 :, nb + i] = g.u
            ux[i + 1 :, nb + i] = g.beta * (t[i + 1 :, i + 1 :] @ g.u - ux[i + 1 :] @ (g.u @ yv[i + 1 :]))
    subtract_product(t[nb:, nb:], ux[nb:], yv[nb:].T)


def bidiag_svd(b: Bidiagonal, max_sweeps: int | None = None):
    """Singular values and rotation accumulations of a bidiagonal matrix.

    Returns ``(left, sigma, right)`` with orthogonal n x n ``left``/``right``
    such that B = left @ diag(sigma) @ right.T; sigma is nonnegative and
    sorted descending.  B is split at its negligible superdiagonal entries,
    and a piece of more than ``bidiagonal.LEAF`` rows goes through divide and
    conquer, whose leaves of at most LEAF rows run the implicit QR.
    ``max_sweeps`` is the sweep budget of each implicit-QR run (default 30
    per row of that run); when a run exhausts it, ``ConvergenceError``
    carries a partial spectrum of all n values, sorted descending: that
    run's current diagonal on its rows and |B|'s diagonal on the others.
    """
    left, sigma, right = bidiagonal_svd(b.d, b.e, want_uv=True, max_sweeps=max_sweeps)
    return np.ascontiguousarray(left), sigma, np.ascontiguousarray(right)


def _peak_sign(x: np.ndarray) -> np.ndarray:
    """-1.0 where a column's largest-magnitude entry (the first of ties) is negative, else 1.0."""
    peak = np.argmax(np.abs(x), axis=0)
    return np.where(x[peak, np.arange(x.shape[1])] < 0.0, -1.0, 1.0)


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    # Largest-magnitude entry of each right singular vector made positive;
    # the paired left vector flips with it, and a left vector without a
    # pair follows its own largest entry.  Multiplying by -1.0 is exact.
    k = min(u.shape[1], v.shape[1])
    sign = _peak_sign(v)
    v *= sign
    u[:, :k] *= sign[:k]
    if u.shape[1] > k:
        u[:, k:] *= _peak_sign(u[:, k:])


def svd(a, shape: str = "reduced", max_sweeps: int | None = None) -> SvdFactorization:
    """Singular value decomposition of any real matrix.

    ``shape`` selects the full (square u, vt) or reduced factors.  Wide
    matrices are handled by factoring the transpose and swapping the roles
    of u and v.  Column signs follow a deterministic convention so repeated
    runs (and golden tests) see identical factors.
    """
    if shape not in ("full", "reduced"):
        raise ValueError(f"shape must be 'full' or 'reduced', got {shape!r}")
    # bidiagonalize validates A and copies it once; 0 x n is not wide, so it reports (0, n).
    a = np.asarray(a, dtype=float)
    wide = a.ndim == 2 and 0 < a.shape[0] < a.shape[1]
    left, bid, right = bidiagonalize(a.T if wide else a)
    ub, sig, v = bidiagonal_svd(bid.d, bid.e, want_uv=True, max_sweeps=max_sweeps)
    m, n = max(a.shape), min(a.shape)
    # U = Q_L [U_B 0; 0 I] and V = Q_R V_B, for A^T if A is wide.
    u = np.eye(m, m if shape == "full" else n)
    u[:n, :n] = ub
    reflect_all(left, u)
    reflect_all(right, v)
    if wide:
        u, v = v, u
    _fix_signs(u, v)
    # For a wide A, u is the column-major v of bidiagonal_svd.
    return SvdFactorization(u=np.ascontiguousarray(u), sigma=sig, vt=np.ascontiguousarray(v.T), shape=shape)


def singular_values(a, max_sweeps: int | None = None) -> np.ndarray:
    """Singular values only (no factor accumulation)."""
    a = np.asarray(a, dtype=float)
    wide = a.ndim == 2 and 0 < a.shape[0] < a.shape[1]
    _, bid, _ = bidiagonalize(a.T if wide else a)
    _, sig, _ = bidiagonal_svd(bid.d, bid.e, want_uv=False, max_sweeps=max_sweeps)
    return sig


# ---------------------------------------------------------------------------
# Independent oracle: cyclic Jacobi for symmetric eigenproblems.


def jacobi_eig(s, max_sweeps: int = 30):
    """Eigendecomposition of a symmetric matrix by cyclic-by-row Jacobi
    rotations.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted descending and
    eigenvector columns in ``v`` (S v = v diag(w)).  S counts as symmetric
    when max|S - S^T| <= 1e-10 * ||S||_inf, a tolerance relative to the
    entries at every scale.  Off-diagonal entries below ``1e-14 * ||S||_F``
    are left untouched; the sweep stops when none remain above that
    threshold.  Entries within a factor 4n of the float64 maximum are
    divided by an exact power of two first, so S + S^T and the differences
    of diagonal entries stay finite; eigenvalues past the float64 range
    raise ``NumericalError``.
    """
    s = as_square(s, "jacobi_eig")
    n = s.shape[0]
    # |a_ij| <= ||S||_2 <= n max|S| throughout, so below the factor 4n
    # nothing can overflow and the sweep runs on S itself (not ``prescale``:
    # that would push entries far below max|S| into gradual underflow).
    top = float(np.abs(s).max())
    scale = pow2_scale(top) if top > np.finfo(float).max / (4 * n) else 1.0
    s /= scale  # as_square returned a fresh copy
    if np.abs(s - s.T).max() > norm_tol(s, 1e-10):
        raise ShapeError("jacobi_eig needs a symmetric matrix")
    av = np.hstack([0.5 * (s + s.T), np.eye(n)])
    a = av[:, :n]
    thresh = 1e-14 * norm(s, "frobenius")
    for sweep in range(max_sweeps + 1):
        if np.abs(np.triu(a, 1)).max() <= thresh:
            break
        if sweep == max_sweeps:
            with np.errstate(over="ignore"):
                partial = np.diagonal(a) * scale
            raise ConvergenceError(f"Jacobi sweep limit ({max_sweeps}) exceeded", partial=partial)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= thresh:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                sn = t * c
                app, aqq = a[p, p], a[q, q]
                # Rows p, q of [A | V^T], then A's columns p, q copied from
                # them, so A stays exactly symmetric; the 2x2 block is last.
                rotate(av[p], av[q], c, -sn)
                a[:, p] = a[p]
                a[:, q] = a[q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
    w = np.diagonal(a).copy()
    unscale("jacobi_eig", scale, w)
    order = np.argsort(-w, kind="stable")
    return w[order], np.ascontiguousarray(av[order, n:].T)


# ---------------------------------------------------------------------------
# Derived quantities.


def default_rank_threshold(a, t_digits: int = DEFAULT_T_DIGITS) -> float:
    """delta = 10^-t * ||A||_inf: singular values at or below delta count
    as zero (entries assumed accurate to t decimal digits)."""
    return rank_threshold(as_matrix(a), t_digits)


def rank_threshold(a, t_digits: int = DEFAULT_T_DIGITS) -> float:
    """``default_rank_threshold`` of an A its caller's factorization has
    already validated, read in place rather than copied again."""
    if t_digits < 1:
        raise ValueError(f"t_digits must be >= 1, got {t_digits}")
    return norm_tol(np.asarray(a, dtype=float), 10.0 ** (-t_digits))


def numerical_rank(sigma, threshold: float) -> int:
    """Number of singular values strictly above ``threshold``."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1:
        raise ShapeError("sigma must be a 1-D vector")
    if not np.isfinite(sigma).all():
        raise ValueError("singular values must be finite (no NaN/Inf)")
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    if np.any(sigma < 0.0):
        raise ValueError("singular values must be nonnegative")
    if np.any(np.diff(sigma) > 0.0):
        raise ValueError("singular values must be sorted descending")
    return int(np.sum(sigma > threshold))


def matrix_rank(a, t_digits: int = DEFAULT_T_DIGITS) -> int:
    return numerical_rank(singular_values(a), rank_threshold(a, t_digits))


def norm2(a) -> float:
    """Spectral norm: the largest singular value."""
    return float(singular_values(a)[0])


def cond2(a) -> float:
    """sigma_1 / sigma_r with r the numerical rank; errors on a zero matrix."""
    sig = singular_values(a)
    r = numerical_rank(sig, rank_threshold(a))
    if r == 0:
        raise SingularMatrixError("condition number of the zero matrix is undefined")
    return float(sig[0] / sig[r - 1])


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose inverse via the reduced SVD, truncated at the
    numerical rank.  Works for any shape and rank; the zero matrix maps to
    the zero matrix, and entries past the float64 range raise
    ``NumericalError``."""
    f = svd(a, "reduced")
    r = numerical_rank(f.sigma, rank_threshold(a))
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        p = (f.vt[:r].T / f.sigma[:r]) @ f.u[:, :r].T  # zero at rank 0
    require_finite("pseudoinverse", p)
    return p


def low_rank(a, k: int) -> np.ndarray:
    """Best rank-k approximation sum_{j<=k} sigma_j u_j v_j^T."""
    f = svd(a, "reduced")  # validates A first
    if not 1 <= k <= f.sigma.size:
        raise ValueError(f"k must be in [1, {f.sigma.size}], got {k}")
    return (f.u[:, :k] * f.sigma[:k]) @ f.vt[:k, :]


class SubspaceBases(NamedTuple):
    range_basis: np.ndarray
    null_basis: np.ndarray
    corange_basis: np.ndarray
    conull_basis: np.ndarray


def subspace_bases(a) -> SubspaceBases:
    """Orthonormal bases for range(A), null(A), range(A^T) and null(A^T),
    partitioned at the numerical rank."""
    f = svd(a, "full")
    r = numerical_rank(f.sigma, rank_threshold(a))
    v = f.vt.T
    return SubspaceBases(
        range_basis=f.u[:, :r].copy(),
        null_basis=v[:, r:].copy(),
        corange_basis=v[:, :r].copy(),
        conull_basis=f.u[:, r:].copy(),
    )


def nearest_orthogonal(a) -> np.ndarray:
    """The orthogonal matrix closest to a square A in Frobenius norm: the
    orthogonal polar factor U V^T."""
    f = svd(a, "full")  # validates A first
    if f.u.shape != f.vt.shape:
        raise ShapeError(f"nearest_orthogonal needs a square matrix, got {(f.u.shape[0], f.vt.shape[1])}")
    return f.u @ f.vt


class SingularDistance(NamedTuple):
    absolute: float
    relative: float


def distance_to_singular(a) -> SingularDistance:
    """Distance from a nonsingular square A to the nearest singular matrix:
    sigma_n absolutely, 1/cond2(A) relatively."""
    sig = singular_values(a)  # validates A first
    m, n = np.shape(a)
    if m != n:
        raise ShapeError(f"distance_to_singular needs a square matrix, got {(m, n)}")
    if sig[-1] <= rank_threshold(a):
        raise SingularMatrixError("matrix is numerically singular")
    return SingularDistance(float(sig[-1]), float(sig[-1] / sig[0]))

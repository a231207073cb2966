"""Two-phase singular value decomposition and everything derived from it.

Phase one reduces A (A^T if A is wide) to upper-bidiagonal form with
alternating left/right Householder reflectors; phase two drives the
superdiagonal to zero with implicit-shift QR steps (Wilkinson shift on the
trailing 2x2 of B^T B), deflating whenever a superdiagonal entry passes the
convergence test |e_i| <= eps * (|d_i| + |d_i+1|).  The singular vectors
of B are then taken back through the stored reflectors in place, one
``reflect_all`` per side (LAPACK xORMBR), with no Q formed.

Phase two chases the bulge on Python floats and records each sweep's right
and left rotations as chains of (c, s) pairs.  A chain is applied to its
singular-vector accumulator after the sweep: rotation by rotation below
CHAIN_CROSSOVER rotations, otherwise in blocks of up to CHAIN_BLOCK
rotations, each block multiplied in as one upper-Hessenberg GEMM (B. Lang,
"Using Level 3 BLAS in Rotation-Based Algorithms", SIAM J. Sci. Comput.
1998).  The rare deflation sweeps rotate the accumulators directly.

``jacobi_eig`` is a self-contained cyclic Jacobi eigensolver for symmetric
matrices.  It shares no code with the two-phase route and exists as an
independent cross-check (singular values of A are the square roots of the
eigenvalues of A^T A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ShapeError, SingularMatrixError
from .matrix import DEFAULT_T_DIGITS, as_matrix, as_vector, norm, norm_tol, pow2_scale, require_finite
from .reflectors import HouseholderReflector, annihilate, givens_params, reflect_all, rotate

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

# Phase 2 applies each sweep's rotation chain to the singular-vector
# accumulators in one go.  Chains shorter than CHAIN_CROSSOVER go rotation
# by rotation; longer ones in blocks of at most CHAIN_BLOCK rotations, each
# block one GEMM with its (b+1) x (b+1) Hessenberg product.  Both values
# were chosen by timing svd from n = 3 to 400.
CHAIN_CROSSOVER = 8
CHAIN_BLOCK = 32


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
        self.e = np.asarray(self.e, dtype=float)
        if self.e.size != self.d.size - 1:
            raise ShapeError(f"superdiagonal length {self.e.size} != diagonal length {self.d.size} - 1")


def bidiagonalize(a):
    """Reduce a tall matrix (m >= n) to upper-bidiagonal form.

    Returns ``(left, Bidiagonal, right)`` where the reflector lists satisfy
    A = (H_0 H_1 ...) * B * (P_0 P_1 ...)^T with B the m x n bidiagonal
    embedding.  Columns/rows that are already in the required form are
    skipped, so an already-bidiagonal input comes back untouched.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ShapeError(f"bidiagonalize needs m >= n, got {a.shape}; transpose first")
    # Exact power-of-two prescaling: the sweep cannot overflow, and d, e
    # overflow only if the singular values do.
    scale = pow2_scale(float(np.abs(a).max()))
    b = np.divide(a, scale, out=a)  # as_matrix returned a fresh copy
    left: list[HouseholderReflector] = []
    right: list[HouseholderReflector] = []
    for k in range(n):
        h = annihilate(b[k:, k:], k)
        if h is not None:
            left.append(h)
        if k < n - 2:
            h = annihilate(b[k:, k + 1 :].T, k + 1)
            if h is not None:
                right.append(h)
    with np.errstate(over="ignore"):  # reported just below
        d = np.diagonal(b) * scale
        e = np.diagonal(b, 1)[: n - 1] * scale
    require_finite("bidiagonalize", d, e)
    return left, Bidiagonal(d, e), right


def _chain_matrix(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Upper-Hessenberg product G_0 G_1 ... G_{b-1} of the rotations G_k in
    planes (k, k+1), built with vectorized ops.

    Column k < b is c_k times the carried column w_k, plus s_k on the
    subdiagonal; column b is w_b.  Row i of the carries is the running
    product c_{i-1} (-s_i) (-s_{i+1}) ..., taken left to right as a row-wise
    cumprod, so every entry equals the one sequential ``rotate`` of column pairs
    on the identity would give.
    """
    b = c.size
    i = np.arange(b + 1)
    below = i[:, None] > i
    t = np.where(below, 1.0, np.concatenate(([1.0], -s)))
    t.flat[:: b + 2] = np.concatenate(([1.0], c))
    h = np.cumprod(t, axis=1)
    h[:, :b] *= c
    h[below] = 0.0
    h.flat[b + 1 :: b + 2] = s
    return h


def _apply_chain(m: np.ndarray, lo: int, c, s) -> None:
    """m <- m G_lo G_lo+1 ... for the chain of rotations (c[k], s[k]) in
    column planes (lo+k, lo+k+1).  Short chains go rotation by rotation;
    longer ones in blocks of CHAIN_BLOCK rotations, one GEMM per block."""
    n = len(c)
    if n < CHAIN_CROSSOVER:
        for k in range(n):
            rotate(m[:, lo + k], m[:, lo + k + 1], c[k], s[k])
        return
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    for a in range(0, n, CHAIN_BLOCK):
        b = min(CHAIN_BLOCK, n - a)
        cols = slice(lo + a, lo + a + b + 1)
        m[:, cols] = m[:, cols] @ _chain_matrix(c[a : a + b], s[a : a + b])


def _wilkinson_mu(d, e, lo, hi):
    dm, dn = d[hi - 1], d[hi]
    em = e[hi - 1]
    em1 = e[hi - 2] if hi - 1 > lo else 0.0
    t11 = dm * dm + em1 * em1
    t12 = dm * em
    t22 = dn * dn + em * em
    if t12 == 0.0:
        return t22
    half = 0.5 * (t11 - t22)
    root = math.hypot(half, t12)
    denom = half + (root if half >= 0.0 else -root)
    if denom == 0.0:
        return t22
    # associated as t12 * (t12 / denom): t12^2 alone could underflow
    return t22 - t12 * (t12 / denom)


def _implicit_step(d: list, e: list, lo: int, hi: int):
    """One shifted QR step on the unreduced block [lo, hi]; chases the bulge
    down the superdiagonal with alternating right/left rotations.

    ``d`` and ``e`` are Python lists, updated in place.  Returns the chains
    ``(right_c, right_s, left_c, left_s)`` for the caller to apply to the
    singular-vector accumulators.
    """
    mu = _wilkinson_mu(d, e, lo, hi)
    y = d[lo] * d[lo] - mu
    z = d[lo] * e[lo]
    rc, rs, lc, ls = [], [], [], []
    for k in range(lo, hi):
        # A zero second entry needs no rotation, a zero first one a swap;
        # givens_params rejects the (0, 0) pair.
        if z == 0.0:
            c, s = 1.0, 0.0
        elif y == 0.0:
            c, s = 0.0, 1.0
        else:
            c, s = givens_params(y, z)
        if k > lo:
            e[k - 1] = c * y + s * z
        d0, e0, d1 = d[k], e[k], d[k + 1]
        dk = c * d0 + s * e0
        ek = -s * d0 + c * e0
        bulge = s * d1
        dk1 = c * d1
        if bulge == 0.0:
            c2, s2 = 1.0, 0.0
        elif dk == 0.0:
            c2, s2 = 0.0, 1.0
        else:
            c2, s2 = givens_params(dk, bulge)
        d[k] = c2 * dk + s2 * bulge
        e[k] = y = c2 * ek + s2 * dk1
        d[k + 1] = -s2 * ek + c2 * dk1
        if k < hi - 1:
            e1 = e[k + 1]
            z = s2 * e1
            e[k + 1] = c2 * e1
        rc.append(c)
        rs.append(s)
        lc.append(c2)
        ls.append(s2)
    return rc, rs, lc, ls


def _deflate_zero_diagonal(d, e, i, hi, u):
    """d[i] = 0 with i < hi: row rotations (i, j) sweep e[i] off to the
    right, zeroing row i entirely."""
    bulge = e[i]
    e[i] = 0.0
    for j in range(i + 1, hi + 1):
        r = math.hypot(d[j], bulge)
        if r == 0.0:
            break
        c = d[j] / r
        s = -bulge / r
        d[j] = r
        if u is not None:
            rotate(u[:, i], u[:, j], c, s)
        if j < hi:
            bulge = s * e[j]
            e[j] = c * e[j]


def _deflate_zero_tail(d, e, lo, hi, v):
    """d[hi] = 0: column rotations (j, hi) sweep e[hi-1] up and out,
    zeroing column hi entirely."""
    bulge = e[hi - 1]
    e[hi - 1] = 0.0
    for j in range(hi - 1, lo - 1, -1):
        r = math.hypot(d[j], bulge)
        if r == 0.0:
            break
        c = d[j] / r
        s = bulge / r
        d[j] = r
        if v is not None:
            rotate(v[:, j], v[:, hi], c, s)
        if j > lo:
            bulge = -s * e[j - 1]
            e[j - 1] = c * e[j - 1]


def _bidiag_svd_arrays(d, e, want_uv: bool, max_sweeps: int | None):
    n = d.size
    if max_sweeps is None:
        max_sweeps = 30 * max(n, 1)
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    require_finite("bidiagonal SVD", d, e)
    top = max(float(np.abs(d).max()), float(np.abs(e).max()) if e.size else 0.0)
    u = np.eye(n) if want_uv else None
    v = np.eye(n) if want_uv else None
    eps = float(np.finfo(float).eps)
    # Exact power-of-two prescaling keeps the squared quantities of the
    # shift computation inside the normal floating-point range.  The chase
    # runs on Python floats: per-element numpy indexing would dominate it.
    rescale = pow2_scale(top)
    d = (d / rescale).tolist()
    e = (e / rescale).tolist()
    sweeps = 0
    lo, hi = 0, n - 1
    while True:
        # Only e[lo:hi] can have changed since the last scan (all of it on
        # the first pass); entries above hi stay zero once zeroed.
        for i in range(lo, hi):
            if abs(e[i]) <= eps * (abs(d[i]) + abs(d[i + 1])):
                e[i] = 0.0
        while hi > 0 and e[hi - 1] == 0.0:
            hi -= 1
        if hi == 0:
            break
        lo = hi - 1
        while lo > 0 and e[lo - 1] != 0.0:
            lo -= 1
        scale = max(max(map(abs, d[lo : hi + 1])), max(map(abs, e[lo:hi])))
        if abs(d[hi]) <= eps * scale:
            d[hi] = 0.0
            _deflate_zero_tail(d, e, lo, hi, v)
            continue
        zero_i = next((i for i in range(lo, hi) if abs(d[i]) <= eps * scale), -1)
        if zero_i >= 0:
            d[zero_i] = 0.0
            _deflate_zero_diagonal(d, e, zero_i, hi, u)
            continue
        sweeps += 1
        if sweeps > max_sweeps:
            raise ConvergenceError(
                f"bidiagonal SVD did not converge within {max_sweeps} sweeps",
                partial=np.sort(np.abs(np.array(d)) * rescale)[::-1].copy(),
            )
        rc, rs, lc, ls = _implicit_step(d, e, lo, hi)
        if want_uv:
            _apply_chain(v, lo, rc, rs)
            _apply_chain(u, lo, lc, ls)
    d = np.array(d)
    neg = d < 0.0
    if want_uv:
        u[:, neg] = -u[:, neg]
    with np.errstate(over="ignore"):  # reported just below
        d = np.abs(d) * rescale
    require_finite("bidiagonal SVD", d)
    order = np.argsort(-d, kind="stable")
    d = d[order]
    if want_uv:
        u = u[:, order]
        v = v[:, order]
    return u, d, v


def bidiag_svd(b: Bidiagonal, max_sweeps: int | None = None):
    """Singular values and rotation accumulations of a bidiagonal matrix.

    Returns ``(left, sigma, right)`` with orthogonal n x n ``left``/``right``
    such that B = left @ diag(sigma) @ right.T; sigma is nonnegative and
    sorted descending.  Raises ``ConvergenceError`` (carrying the partial
    spectrum) if the sweep budget is exhausted.
    """
    return _bidiag_svd_arrays(b.d, b.e, want_uv=True, max_sweeps=max_sweeps)


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
    a = as_matrix(a)
    if shape not in ("full", "reduced"):
        raise ValueError(f"shape must be 'full' or 'reduced', got {shape!r}")
    wide = a.shape[0] < a.shape[1]
    left, bid, right = bidiagonalize(a.T if wide else a)
    ub, sig, v = _bidiag_svd_arrays(bid.d, bid.e, want_uv=True, max_sweeps=max_sweeps)
    m, n = max(a.shape), min(a.shape)
    # U = Q_L [U_B 0; 0 I] and V = Q_R V_B, for A^T if A is wide.
    u = np.eye(m, m if shape == "full" else n)
    u[:n, :n] = ub
    reflect_all(left, u)
    reflect_all(right, v)
    if wide:
        u, v = v, u
    _fix_signs(u, v)
    return SvdFactorization(u=u, sigma=sig, vt=np.ascontiguousarray(v.T), shape=shape)


def singular_values(a, max_sweeps: int | None = None) -> np.ndarray:
    """Singular values only (no factor accumulation)."""
    a = as_matrix(a)
    _, bid, _ = bidiagonalize(a.T if a.shape[0] < a.shape[1] else a)
    _, sig, _ = _bidiag_svd_arrays(bid.d, bid.e, want_uv=False, max_sweeps=max_sweeps)
    return sig


# ---------------------------------------------------------------------------
# Independent oracle: cyclic Jacobi for symmetric eigenproblems.


def jacobi_eig(s, max_sweeps: int = 30):
    """Eigendecomposition of a symmetric matrix by cyclic-by-row Jacobi
    rotations.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted descending and
    eigenvector columns in ``v`` (S v = v diag(w)).  Off-diagonal entries
    below ``1e-14 * ||S||_F`` are left untouched; the sweep stops when none
    remain above that threshold.
    """
    s = as_matrix(s)
    n = s.shape[0]
    if n != s.shape[1]:
        raise ShapeError(f"jacobi_eig needs a square matrix, got {s.shape}")
    if np.abs(s - s.T).max() > 1e-10 * max(1.0, norm(s, "frobenius")):
        raise ShapeError("jacobi_eig needs a symmetric matrix")
    a = 0.5 * (s + s.T)
    v = np.eye(n)
    thresh = 1e-14 * norm(s, "frobenius")
    for sweep in range(max_sweeps + 1):
        off = 0.0
        for p in range(n - 1):
            row = np.abs(a[p, p + 1 :])
            if row.size:
                off = max(off, float(row.max()))
        if off <= thresh:
            break
        if sweep == max_sweeps:
            raise ConvergenceError(
                f"Jacobi sweep limit ({max_sweeps}) exceeded", partial=np.diagonal(a).copy()
            )
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
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                mask = np.ones(n, dtype=bool)
                mask[[p, q]] = False
                aip = a[mask, p].copy()
                aiq = a[mask, q].copy()
                a[mask, p] = a[p, mask] = c * aip - sn * aiq
                a[mask, q] = a[q, mask] = sn * aip + c * aiq
                vp = v[:, p].copy()
                v[:, p] = c * vp - sn * v[:, q]
                v[:, q] = sn * vp + c * v[:, q]
    w = np.diagonal(a).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


# ---------------------------------------------------------------------------
# Derived quantities.


def default_rank_threshold(a, t_digits: int = DEFAULT_T_DIGITS) -> float:
    """delta = 10^-t * ||A||_inf: singular values at or below delta count
    as zero (entries assumed accurate to t decimal digits)."""
    return norm_tol(as_matrix(a), 10.0 ** (-t_digits))


def numerical_rank(sigma, threshold: float) -> int:
    """Number of singular values strictly above ``threshold``."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1:
        raise ShapeError("sigma must be a 1-D vector")
    if np.any(sigma < 0.0):
        raise ValueError("singular values must be nonnegative")
    if np.any(np.diff(sigma) > 0.0):
        raise ValueError("singular values must be sorted descending")
    return int(np.sum(sigma > threshold))


def matrix_rank(a, t_digits: int = DEFAULT_T_DIGITS) -> int:
    a = as_matrix(a)
    return numerical_rank(singular_values(a), default_rank_threshold(a, t_digits))


def norm2(a) -> float:
    """Spectral norm: the largest singular value."""
    return float(singular_values(a)[0])


def cond2(a) -> float:
    """sigma_1 / sigma_r with r the numerical rank; errors on a zero matrix."""
    a = as_matrix(a)
    sig = singular_values(a)
    r = numerical_rank(sig, default_rank_threshold(a))
    if r == 0:
        raise SingularMatrixError("condition number of the zero matrix is undefined")
    return float(sig[0] / sig[r - 1])


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose inverse via the reduced SVD, truncated at the
    numerical rank.  Works for any shape and rank; the zero matrix maps to
    the zero matrix."""
    a = as_matrix(a)
    f = svd(a, "reduced")
    r = numerical_rank(f.sigma, default_rank_threshold(a))
    if r == 0:
        return np.zeros((a.shape[1], a.shape[0]))
    v1 = f.vt[:r, :].T
    return (v1 / f.sigma[:r]) @ f.u[:, :r].T


def low_rank(a, k: int) -> np.ndarray:
    """Best rank-k approximation sum_{j<=k} sigma_j u_j v_j^T."""
    a = as_matrix(a)
    if not 1 <= k <= min(a.shape):
        raise ValueError(f"k must be in [1, {min(a.shape)}], got {k}")
    f = svd(a, "reduced")
    return (f.u[:, :k] * f.sigma[:k]) @ f.vt[:k, :]


class SubspaceBases(NamedTuple):
    range_basis: np.ndarray
    null_basis: np.ndarray
    corange_basis: np.ndarray
    conull_basis: np.ndarray


def subspace_bases(a) -> SubspaceBases:
    """Orthonormal bases for range(A), null(A), range(A^T) and null(A^T),
    partitioned at the numerical rank."""
    a = as_matrix(a)
    f = svd(a, "full")
    r = numerical_rank(f.sigma, default_rank_threshold(a))
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
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"nearest_orthogonal needs a square matrix, got {a.shape}")
    f = svd(a, "full")
    return f.u @ f.vt


class SingularDistance(NamedTuple):
    absolute: float
    relative: float


def distance_to_singular(a) -> SingularDistance:
    """Distance from a nonsingular square A to the nearest singular matrix:
    sigma_n absolutely, 1/cond2(A) relatively."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"distance_to_singular needs a square matrix, got {a.shape}")
    sig = singular_values(a)
    if sig[-1] <= default_rank_threshold(a):
        raise SingularMatrixError("matrix is numerically singular")
    return SingularDistance(float(sig[-1]), float(sig[-1] / sig[0]))

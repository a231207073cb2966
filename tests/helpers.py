"""Shared fixtures: golden matrices and independent oracle helpers."""

import math

import numpy as np

from orthokit.errors import ConvergenceError
from orthokit.matrix import norm, pow2_scale
from orthokit.qr import NORM_DOWNDATE_GUARD, QrFactorization
from orthokit.reflectors import annihilate

# Surveyor network: three hill heights measured directly and pairwise.
SURVEY_A = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [-1.0, 1.0, 0.0],
        [-1.0, 0.0, 1.0],
        [0.0, -1.0, 1.0],
    ]
)
SURVEY_B = np.array([1237.0, 1941.0, 2417.0, 711.0, 1177.0, 475.0])
SURVEY_X = np.array([1236.0, 1943.0, 2416.0])
SURVEY_RESIDUAL = np.array([1.0, -2.0, 1.0, 4.0, -3.0, 2.0])
SURVEY_GRAM = np.array([[3.0, -1.0, -1.0], [-1.0, 3.0, -1.0], [-1.0, -1.0, 3.0]])
SURVEY_ATB = np.array([-651.0, 2177.0, 4069.0])

# Its orthogonal projector onto range(A), exact rational entries over 4.
SURVEY_P = (
    np.array(
        [
            [2, 1, 1, -1, -1, 0],
            [1, 2, 1, 1, 0, -1],
            [1, 1, 2, 0, 1, 1],
            [-1, 1, 0, 2, 1, -1],
            [-1, 0, 1, 1, 2, 1],
            [0, -1, 1, -1, 1, 2],
        ],
        dtype=float,
    )
    / 4.0
)

# Pseudoinverse of the survey matrix, exact rational entries over 4.
SURVEY_PINV = (
    np.array(
        [
            [2, 1, 1, -1, -1, 0],
            [1, 2, 1, 1, 0, -1],
            [1, 1, 2, 0, 1, 1],
        ],
        dtype=float,
    )
    / 4.0
)

# Column-zeroing demo matrix and its two transformed versions (4 decimals).
ZEROING_A = np.array([[2.0, 3.0, 5.0], [1.0, 2.0, -1.0], [2.0, 5.0, 3.0], [1.0, -1.0, 0.0]])
ZEROING_HOUSEHOLDER = np.array(
    [
        [-3.1623, -5.3759, -4.7434],
        [0.0, 0.3775, -2.8874],
        [0.0, 1.7550, -0.7749],
        [0.0, -2.6225, -1.8874],
    ]
)
ZEROING_GIVENS = np.array(
    [
        [3.1623, 5.3759, 4.7434],
        [0.0, 0.3162, -2.6352],
        [0.0, 2.2361, -0.7454],
        [0.0, -2.2361, -2.2361],
    ]
)

# Printed QR factors of the survey matrix (4 decimals, sign-exact).
SURVEY_Q_PRINTED = np.array(
    [
        [-0.5774, -0.2041, -0.3536, 0.5113, 0.4878, -0.0235],
        [0.0, -0.6124, -0.3536, -0.4878, 0.0235, 0.5113],
        [0.0, 0.0, -0.7071, -0.0235, -0.5113, -0.4878],
        [0.5774, -0.4082, -0.0, 0.6664, -0.1786, 0.1551],
        [0.5774, 0.2041, -0.3536, -0.1551, 0.6664, -0.1786],
        [0.0, 0.6124, -0.3536, 0.1786, -0.1551, 0.6664],
    ]
)
SURVEY_R_PRINTED = np.array(
    [
        [-1.7321, 0.5774, 0.5774],
        [0.0, -1.6330, 0.8165],
        [0.0, 0.0, -1.4142],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]
)

# 3x2 SVD demo: singular values 5, 3; |V| = [[1,1],[1,-1]] / sqrt(2).
SVD_3X2 = np.array([[3.0, 2.0], [2.0, 3.0], [2.0, -2.0]])

# 5x3 SVD demo with sigma = [5.149, 4.3804, 1.5969] to 4 decimals.
SVD_5X3 = np.array(
    [[1.0, 3.0, 2.0], [4.0, 0.0, -1.0], [0.5, 2.0, 1.0], [1.0, 1.0, 1.0], [2.0, 1.0, -2.0]]
)
SVD_5X3_SIGMA = np.array([5.149, 4.3804, 1.5969])


def rank2_factors():
    """Hand-specified rank-2 SVD factors of a 5x4 matrix (exact surds)."""
    s2, s3, s6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)
    u = np.array(
        [
            [1 / s2, -1 / s2, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, -1.0, 0.0, 0.0],
            [1 / s2, 1 / s2, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    sig = np.zeros((5, 4))
    sig[0, 0] = 2 * s3
    sig[1, 1] = 2.0
    v = np.array(
        [
            [s6 / 3, 0.0, 0.0, -1 / s3],
            [0.0, 0.0, 1.0, 0.0],
            [1 / s6, -1 / s2, 0.0, 1 / s3],
            [1 / s6, 1 / s2, 0.0, 1 / s3],
        ]
    )
    return u, sig, v


# The matrix those factors define, and its pseudoinverse
# V1 diag(1/sigma) U1^T worked out in exact arithmetic and verified
# against the four Moore-Penrose identities.
RANK2_A = np.array(
    [
        [2.0, 0.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [2.0, 0.0, 0.0, 2.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)
RANK2_PINV = np.array(
    [
        [1 / 6, 0.0, 0.0, 1 / 6, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 3, 0.0, 0.0, -1 / 6, 0.0],
        [-1 / 6, 0.0, 0.0, 1 / 3, 0.0],
    ]
)
RANK2_MINNORM_X = np.array([1 / 3, 0.0, 1 / 6, 1 / 6])

# Least-squares systems (A, b) past the float64 range: x overflows in the
# first two, and A^T A in the third, though its x = (1e-200, 1e-200) does not.
TINY_SYSTEM = (np.diag([1e-310, 1e-310]), np.ones(2))
TALL_SYSTEM = (np.array([[1e-200, 0.0], [0.0, 1e-200], [1e-200, 1e-200]]), np.array([1e200, 1e200, 0.0]))
BIG_SYSTEM = (np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) * 1e200, np.array([1.0, 1.0, 2.0]))

# Kahan's matrix diag(s^i) (I - c * strictly upper ones) at n = 90, c = 0.285,
# and b = ones.  sigma_n = 8.8e-12 lies below the rank threshold 2.6e-11, so
# its numerical rank is 89, but no pivot norm of its pivoted QR falls below
# the threshold, so that factorization's rank is 90.
_KAHAN_C = 0.285
KAHAN_SYSTEM = (
    np.sqrt(1.0 - _KAHAN_C**2) ** np.arange(90)[:, None] * (np.eye(90) - _KAHAN_C * np.triu(np.ones((90, 90)), 1)),
    np.ones(90),
)


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    c = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            c[i, j] = acc
    return c


def dense_reflector(h):
    """Independent materialization I - beta u u^T from the stored fields,
    u acting on rows offset: of the (offset + len(u))-square identity."""
    k = h.offset
    d = np.eye(k + h.u.size)
    d[k:, k:] -= h.beta * np.outer(h.u, h.u)
    return d


def fro(a):
    return float(np.sqrt((np.asarray(a) ** 2).sum()))


def written(path, data):
    """Write ``data`` (bytes or text) to ``path`` and return the path."""
    (path.write_bytes if isinstance(data, bytes) else path.write_text)(data)
    return path


def layouts(a):
    """The entries of ``a`` in four memory layouts: row-major, column-major,
    every other row of a taller array, and the transpose of a row-major
    copy of ``a.T``."""
    rows = np.zeros((2 * a.shape[0], a.shape[1]))
    rows[::2] = a
    return {"C": np.array(a, order="C"), "F": np.array(a, order="F"), "rows": rows[::2], "T": a.T.copy().T}


def random_rank_deficient(rng, m, n, r):
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


def spectral_norm_oracle(a):
    """Reference 2-norm used only to judge results (independent of the
    package's own factorizations)."""
    return float(np.linalg.svd(a, compute_uv=False)[0])


def householder_qr_reference(a):
    """Householder QR with one rank-1 update of the whole trailing matrix
    per column.  Same prescaling, skip rule and column-major working copy
    as ``qr_householder``; returns ``(r, reflectors)``."""
    r = np.array(a, dtype=float, order="F")
    m, n = r.shape
    scale = pow2_scale(float(np.abs(r).max()))
    r /= scale
    reflectors = []
    for k in range(min(m - 1, n)):
        h = annihilate(r[k:, k:], k)
        if h is not None:
            reflectors.append(h)
    return r * scale, reflectors


def pivoted_qr_reference(a, t_digits=12):
    """Sequential column-pivoted QR: one rank-1 update of the whole trailing
    matrix per column, and the exact norm recompute at the step where the
    downdate guard trips.  Returns the factorization and those steps."""
    a = np.array(a, dtype=float)
    m, n = a.shape
    scale = pow2_scale(float(np.abs(a).max()))
    r = a / scale
    perm = np.arange(n)
    delta = 10.0 ** (-t_digits) * norm(r, "inf")
    kappa = (r * r).sum(axis=0)
    kappa_ref = kappa.copy()
    reflectors, trips = [], []
    rank = None
    steps = min(m, n)
    for k in range(steps):
        j = k + int(np.argmax(kappa[k:]))
        if j != k:
            r[:, [k, j]] = r[:, [j, k]]
            perm[[k, j]] = perm[[j, k]]
            kappa[[k, j]] = kappa[[j, k]]
            kappa_ref[[k, j]] = kappa_ref[[j, k]]
        if rank is None and np.sqrt(max(kappa[k], 0.0)) <= delta:
            rank = k
        h = annihilate(r[k:, k:], k)
        if h is not None:
            reflectors.append(h)
        if k + 1 < n:
            kappa[k + 1 :] -= r[k, k + 1 :] ** 2
            stale = kappa[k + 1 :] < NORM_DOWNDATE_GUARD * kappa_ref[k + 1 :]
            if stale.any() and k + 1 < m:
                trips.append(k)
                idx = k + 1 + np.flatnonzero(stale)
                fresh = (r[k + 1 :, idx] ** 2).sum(axis=0)
                kappa[idx] = fresh
                kappa_ref[idx] = fresh
    r *= scale
    rank = steps if rank is None else rank
    return QrFactorization(r=r, reflectors=reflectors, perm=perm, rank=rank), trips


def bidiagonalize_reference(a):
    """Householder bidiagonalization with one rank-1 update per reflector:
    the left reflector of column k and then the right reflector of row k,
    each applied to the whole trailing matrix at once.  Same prescaling,
    skip rule and column-major working copy as ``bidiagonalize`` (the
    layout decides the summation order of each ``u^T x``); returns
    ``(left, d, e, right)``."""
    b = np.array(a, dtype=float, order="F")
    m, n = b.shape
    scale = pow2_scale(float(np.abs(b).max()))
    b /= scale
    left, right = [], []
    for k in range(n):
        h = annihilate(b[k:, k:], k)
        if h is not None:
            left.append(h)
        if k < n - 2:
            h = annihilate(b[k:, k + 1 :].T, k + 1)
            if h is not None:
                right.append(h)
    return left, np.diagonal(b) * scale, np.diagonal(b, 1)[: n - 1] * scale, right


def fix_signs_reference(u, v):
    """Column by column: the largest-magnitude entry of each column of v
    (the first of equal magnitudes) made positive, the paired column of u
    flipping with it; columns of u past v's follow their own largest
    entry.  In place."""
    nsig = min(u.shape[1], v.shape[1])
    for j in range(v.shape[1]):
        col = v[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0.0:
            v[:, j] = -col
            if j < nsig:
                u[:, j] = -u[:, j]
    for j in range(v.shape[1], u.shape[1]):
        col = u[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0.0:
            u[:, j] = -col


def jacobi_reference(s, max_sweeps=30, angles=None):
    """Cyclic-by-row Jacobi on a symmetric ``s`` with the rotation written
    out inline: the columns off the (p, q) block gathered and scattered
    through a boolean mask, the row scan one row at a time, V accumulated
    by columns.  Same angles, order, threshold and sweep limit as
    ``jacobi_eig``; no input checks.  Each rotation's ``(c, -s)``, as
    passed to ``rotate``, is appended to the list ``angles`` if given."""
    s = np.array(s, dtype=float)
    n = s.shape[0]
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
                if angles is not None:
                    angles.append((c, -sn))
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

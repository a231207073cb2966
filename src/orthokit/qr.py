"""QR factorizations: Householder, Givens (also behind the upper-Hessenberg
structure check), and column-pivoted rank-revealing QR with incremental
column-norm downdating.

The Householder routes record the k-th reflector unpadded, with offset k,
and both sweep panels of ``BLOCK`` columns.  ``qr_householder`` (xGEQRF)
annihilates each column of a panel within the panel, and the trailing
columns then take the panel's reflectors as one blocked product;
``form_q`` applies the reflectors through the same blocked path.
``qr_pivoted`` (xGEQP3/xLAQPS) cannot annihilate a panel ahead of time,
since each pivot depends on the norms the previous columns leave, so it
delays only the trailing update (see its docstring).  Both sweep a
column-major copy of A, whose columns they read and update one at a time;
R comes back row-major, like every other result.  ``qr_givens`` (and so
``qr_hessenberg``) sweeps one array [A | I] into [R | Q^T].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ShapeError
from .matrix import DEFAULT_T_DIGITS, as_matrix, as_square, prescale, rank_threshold, require_finite, unscale
from .reflectors import (
    BLOCK,
    GivensRotation,
    HouseholderReflector,
    annihilate,
    check_length,
    givens_params,
    reflect_all,
    rotate,
    subtract_product,
)

__all__ = ["QrMode", "QrFactorization", "qr_householder", "form_q", "qr_givens", "qr_hessenberg", "qr_pivoted"]

# Downdated squared column norms are recomputed once they fall below this
# fraction of their reference value (cancellation guard).
NORM_DOWNDATE_GUARD = 1e-8


class QrMode(Enum):
    R_ONLY = "r"
    R_AND_REFLECTORS = "r+u"
    Q_AND_R = "qr"

    @classmethod
    def of(cls, mode) -> "QrMode":
        try:
            return mode if isinstance(mode, cls) else cls(str(mode).strip().lower())
        except ValueError:
            raise ValueError(f"unknown QR mode {mode!r}; expected one of r, r+u, qr") from None


@dataclass
class QrFactorization:
    """R plus (optionally) an explicit Q, the reflector or rotation sequence
    that generated it, a column permutation, and a detected numerical rank.

    ``perm[i]`` is the original index of the column standing at position i,
    so ``a[:, perm]`` equals ``q @ r`` for pivoted factorizations.
    """

    r: np.ndarray
    q: np.ndarray | None = None
    reflectors: list[HouseholderReflector] | None = None
    rotations: list[GivensRotation] | None = None
    perm: np.ndarray | None = None
    rank: int | None = None

    @property
    def rotation_count(self) -> int:
        return 0 if self.rotations is None else len(self.rotations)


def qr_householder(a, mode=QrMode.Q_AND_R) -> QrFactorization:
    """QR factorization by successive Householder reflections.

    Handles m >= n and m < n (the sweep runs min(m-1, n) steps).  The
    returned R carries exact zeros below the diagonal; Q is formed only
    when requested.
    """
    mode = QrMode.of(mode)
    r = as_matrix(a, order="F")  # a fresh column-major copy, swept in place
    m, n = r.shape
    # Exact power-of-two prescaling: the sweep cannot overflow, and R
    # overflows only if its true entries do.
    scale = prescale(r)
    reflectors = []
    steps = min(m - 1, n)
    for j0 in range(0, steps, BLOCK):
        j1 = min(j0 + BLOCK, n)
        panel = []
        # Columns whose subdiagonal part is already zero get no reflector.
        for k in range(j0, min(j1, steps)):
            h = annihilate(r[k:, k:j1], k)
            if h is not None:
                panel.append(h)
        if j1 < n:
            reflect_all(panel, r[:, j1:], transpose=True)
        reflectors += panel
    unscale("qr_householder", scale, r)
    q = form_q(reflectors, m) if mode is QrMode.Q_AND_R else None
    return QrFactorization(r=np.ascontiguousarray(r), q=q, reflectors=None if mode is QrMode.R_ONLY else reflectors)


def form_q(reflectors, m: int, cols: int | None = None) -> np.ndarray:
    """Accumulate ``H_1 H_2 ... H_s`` onto the identity, backward.

    ``cols`` restricts the result to the leading columns (thin Q).
    """
    if cols is not None and not 1 <= cols <= m:
        raise ShapeError(f"cols must be in [1, {m}], got {cols}")
    reflectors = list(reflectors)
    for h in reflectors:
        check_length(h, m, "rows")
    q = np.eye(m, cols)
    reflect_all(reflectors, q)
    return q


def qr_givens(a) -> QrFactorization:
    """QR factorization by plane rotations.

    Each column is cleared bottom-up against its diagonal entry, so the
    leading diagonal entries come out positive where the Householder route
    may produce negative ones; |R| agrees between the two routes.  Each
    rotation turns rows k and j of one array, [A | I] swept into [R | Q^T].
    """
    return _qr_givens(as_matrix(a))


def _qr_givens(a: np.ndarray) -> QrFactorization:
    m, n = a.shape
    w = np.hstack([a, np.eye(m)])
    rotations: list[GivensRotation] = []
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for k in range(min(m - 1, n)):
            # A rotation changes only rows k and j, so the nonzero entries
            # below the diagonal of column k can be listed up front.
            for j in (k + 1 + np.flatnonzero(w[k + 1 :, k])[::-1]).tolist():
                c, s = givens_params(w[k, k], w[j, k])
                rotate(w[k, k:], w[j, k:], c, s)
                w[j, k] = 0.0
                rotations.append(GivensRotation(c, s, k, j))
    require_finite("qr_givens", w[:, :n])
    return QrFactorization(r=w[:, :n].copy(), q=np.ascontiguousarray(w[:, n:].T), rotations=rotations)


def qr_hessenberg(h) -> QrFactorization:
    """QR of an upper-Hessenberg matrix using at most n-1 rotations.

    Raises ``ShapeError`` if any entry below the first subdiagonal is
    nonzero; otherwise this is ``qr_givens``, which rotates only the
    nonzero subdiagonal entries.  ``rotation_count`` on the result counts
    the non-identity rotations actually applied.
    """
    a = as_square(h, "Hessenberg QR")
    below = np.argwhere(np.tril(a, -2))
    if below.size:
        i, j = below[0]
        raise ShapeError(f"not upper Hessenberg: entry ({i}, {j}) = {a[i, j]!r} below subdiagonal")
    return _qr_givens(a)


def qr_pivoted(a, t_digits: int = DEFAULT_T_DIGITS) -> QrFactorization:
    """Column-pivoted QR with numerical rank detection.

    Pivoting greedily brings the remaining column of largest 2-norm to the
    front.  Only an exact tie (equal downdated norms) goes to the lowest
    index: columns tied mathematically, such as two equal columns, can be
    ordered by rounding in their norms.  Remaining norms are maintained by
    downdating kappa_j -= r_kj^2, with an exact recompute whenever the
    downdated square falls below 1e-8 of its reference value.  The rank is
    the number of pivot norms exceeding ``matrix.rank_threshold(a, t_digits)``.

    The sweep runs over panels of up to ``BLOCK`` columns (xGEQP3/xLAQPS:
    Quintana-Orti, Sun & Bischof, SIAM J. Sci. Comput. 1998).  Within a
    panel only the pivot column and the pivot row are brought up to date,
    through the auxiliary matrix F of the panel's update ``A <- A - V F^T``
    (V holds the panel's reflector vectors); the rest of the trailing
    matrix takes that update as one matrix product when the panel ends.
    A norm that needs the exact recompute ends the panel early, since the
    recompute reads the updated trailing columns.
    """
    r = as_matrix(a, order="F")  # a fresh column-major copy, swept in place
    m, n = r.shape
    # Exact power-of-two prescaling so the squared column norms stay in range.
    scale = prescale(r)
    delta = rank_threshold(r, t_digits)
    kappa = (r * r).sum(axis=0)
    floor = NORM_DOWNDATE_GUARD * kappa
    perm = np.arange(n)
    reflectors: list[HouseholderReflector] = []
    steps = rank = min(m, n)
    j0 = 0
    while j0 < steps:
        # ft holds F^T.  Row k of v and column k of ft belong to row and
        # column k of r, column i of v and row i of ft to step j0 + i; rows
        # of v above a reflector's offset stay zero.  v is column-major,
        # like r: each step writes one column of it.
        v = np.zeros((m, min(BLOCK, steps - j0)), order="F")
        ft = np.zeros((v.shape[1], n))
        for i in range(v.shape[1]):
            k = j0 + i
            j = k + int(np.argmax(kappa[k:]))
            if j != k:
                for x in (r.T, ft.T, perm, kappa, floor):
                    _swap(x, k, j)
            pivot_norm = math.sqrt(max(kappa[k], 0.0))
            if k < rank and pivot_norm <= delta:
                rank = k
            r[k:, k] -= v[k:, :i] @ ft[:i, k]
            h = annihilate(r[k:, k : k + 1], k)
            if h is not None:
                reflectors.append(h)
                v[k:, i] = h.u
                ft[i, k + 1 :] = h.beta * (h.u @ r[k:, k + 1 :] - (h.u @ v[k:, :i]) @ ft[:i, k + 1 :])
            r[k, k + 1 :] -= v[k, : i + 1] @ ft[: i + 1, k + 1 :]
            kappa[k + 1 :] -= r[k, k + 1 :] ** 2
            stale = kappa[k + 1 :] < floor[k + 1 :]
            if stale.any():
                break
        j1 = k + 1
        subtract_product(r[j1:, j1:], v[j1:, : i + 1], ft[: i + 1, j1:])
        if stale.any():
            idx = j1 + np.flatnonzero(stale)
            kappa[idx] = (r[j1:, idx] ** 2).sum(axis=0)
            floor[idx] = NORM_DOWNDATE_GUARD * kappa[idx]
        j0 = j1
    unscale("qr_pivoted", scale, r)
    return QrFactorization(r=np.ascontiguousarray(r), reflectors=reflectors, perm=perm, rank=rank)


def _swap(x: np.ndarray, k: int, j: int) -> None:
    """Exchange ``x[k]`` and ``x[j]`` in place."""
    t = x[k].copy()
    x[k] = x[j]
    x[j] = t

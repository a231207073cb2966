"""QR factorizations: Householder, Givens, upper-Hessenberg fast path, and
column-pivoted rank-revealing QR with incremental column-norm downdating.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ShapeError
from .matrix import as_matrix, norm, pow2_scale, require_finite
from .reflectors import (
    GivensRotation,
    HouseholderReflector,
    givens_params,
    householder_vector,
    stable_norm,
)

__all__ = ["QrMode", "QrFactorization", "qr_householder", "form_q", "qr_givens", "qr_hessenberg", "qr_pivoted"]

# Downdated squared column norms are recomputed once they fall below this
# fraction of their reference value (cancellation guard).
NORM_DOWNDATE_GUARD = 1e-8

DEFAULT_T_DIGITS = 12


class QrMode(Enum):
    R_ONLY = "r"
    R_AND_REFLECTORS = "r+u"
    Q_AND_R = "qr"

    @classmethod
    def of(cls, mode) -> "QrMode":
        if isinstance(mode, cls):
            return mode
        key = str(mode).strip().lower()
        aliases = {"r": cls.R_ONLY, "r+u": cls.R_AND_REFLECTORS, "r&u": cls.R_AND_REFLECTORS,
                   "ru": cls.R_AND_REFLECTORS, "qr": cls.Q_AND_R, "q&r": cls.Q_AND_R}
        if key not in aliases:
            raise ValueError(f"unknown QR mode {mode!r}; expected one of r, r+u, qr")
        return aliases[key]


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


def _pad_reflector(h: HouseholderReflector, offset: int, length: int) -> HouseholderReflector:
    # Zero-prefixed u acts as identity on the first `offset` rows.
    u = np.zeros(length)
    u[offset:] = h.u
    return HouseholderReflector(u, h.beta)


def _reflect_block(r: np.ndarray, k: int, h: HouseholderReflector) -> None:
    # In-place update of the trailing block, rank-1 form.
    block = r[k:, k:]
    w = h.u @ block
    block -= h.beta * np.outer(h.u, w)


def _householder_sweep(r: np.ndarray) -> list[HouseholderReflector]:
    """Triangularize ``r`` in place; returns full-length reflectors in
    application order.  Columns whose subdiagonal part is already zero are
    skipped (the reflector would be the identity up to a sign flip)."""
    m, n = r.shape
    reflectors = []
    for k in range(min(m - 1, n)):
        x = r[k:, k]
        if not np.any(x[1:]):
            continue
        h = householder_vector(x)
        alpha = -(1.0 if x[0] >= 0.0 else -1.0) * stable_norm(x)
        _reflect_block(r, k, h)
        r[k, k] = alpha
        r[k + 1 :, k] = 0.0
        reflectors.append(_pad_reflector(h, k, m))
    return reflectors


def qr_householder(a, mode=QrMode.Q_AND_R) -> QrFactorization:
    """QR factorization by successive Householder reflections.

    Handles m >= n and m < n (the sweep runs min(m-1, n) steps).  The
    returned R carries exact zeros below the diagonal; Q is formed only
    when requested.
    """
    mode = QrMode.of(mode)
    a = as_matrix(a)
    r = a.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        reflectors = _householder_sweep(r)
    require_finite("qr_householder", r)
    if mode is QrMode.R_ONLY:
        return QrFactorization(r=r)
    if mode is QrMode.R_AND_REFLECTORS:
        return QrFactorization(r=r, reflectors=reflectors)
    q = form_q(reflectors, a.shape[0])
    return QrFactorization(r=r, q=q, reflectors=reflectors)


def form_q(reflectors, m: int, cols: int | None = None) -> np.ndarray:
    """Accumulate ``H_1 H_2 ... H_s`` onto the identity, backward.

    ``cols`` restricts the result to the leading columns (thin Q).
    """
    if cols is None:
        cols = m
    q = np.eye(m, cols)
    for h in reversed(list(reflectors)):
        if h.u.size != m:
            raise ShapeError(f"reflector length {h.u.size} inconsistent with m = {m}")
        w = h.u @ q
        q -= h.beta * np.outer(h.u, w)
    return q


def _rotate_rows(r: np.ndarray, j: int, k: int, c: float, s: float, start: int = 0) -> None:
    rj = r[j, start:].copy()
    rk = r[k, start:]
    r[j, start:] = c * rj + s * rk
    r[k, start:] = -s * rj + c * rk


def qr_givens(a) -> QrFactorization:
    """QR factorization by plane rotations.

    Each column is cleared bottom-up against its diagonal entry, so the
    leading diagonal entries come out positive where the Householder route
    may produce negative ones; |R| agrees between the two routes.
    """
    a = as_matrix(a)
    m, n = a.shape
    r = a.copy()
    rotations: list[GivensRotation] = []
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for k in range(min(m - 1, n)):
            for j in range(m - 1, k, -1):
                if r[j, k] == 0.0:
                    continue
                c, s = givens_params(r[k, k], r[j, k])
                _rotate_rows(r, k, j, c, s, start=k)
                r[j, k] = 0.0
                rotations.append(GivensRotation(c, s, k, j))
    require_finite("qr_givens", r)
    q = np.eye(m)
    for g in rotations:
        _rotate_rows(q, g.j, g.k, g.c, g.s)
    return QrFactorization(r=r, q=np.ascontiguousarray(q.T), rotations=rotations)


def qr_hessenberg(h) -> QrFactorization:
    """QR of an upper-Hessenberg matrix using at most n-1 rotations.

    Raises ``ShapeError`` if any entry below the first subdiagonal is
    nonzero.  ``rotation_count`` on the result counts the non-identity
    rotations actually applied.
    """
    a = as_matrix(h)
    m, n = a.shape
    if m != n:
        raise ShapeError(f"Hessenberg QR needs a square matrix, got {a.shape}")
    for i in range(m):
        for j in range(i - 1):
            if a[i, j] != 0.0:
                raise ShapeError(f"not upper Hessenberg: entry ({i}, {j}) = {a[i, j]!r} below subdiagonal")
    r = a.copy()
    rotations: list[GivensRotation] = []
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for k in range(n - 1):
            if r[k + 1, k] == 0.0:
                continue
            c, s = givens_params(r[k, k], r[k + 1, k])
            _rotate_rows(r, k, k + 1, c, s, start=k)
            r[k + 1, k] = 0.0
            rotations.append(GivensRotation(c, s, k, k + 1))
    require_finite("qr_hessenberg", r)
    q = np.eye(n)
    for g in rotations:
        _rotate_rows(q, g.j, g.k, g.c, g.s)
    return QrFactorization(r=r, q=np.ascontiguousarray(q.T), rotations=rotations)


def qr_pivoted(a, t_digits: int = DEFAULT_T_DIGITS) -> QrFactorization:
    """Column-pivoted QR with numerical rank detection.

    Pivoting greedily brings the remaining column of largest 2-norm to the
    front (ties broken by lowest index).  Remaining norms are maintained by
    downdating kappa_j -= r_kj^2, with an exact recompute whenever the
    downdated square falls below 1e-8 of its reference value.  The rank is
    the number of pivot norms exceeding delta = 10^-t_digits * norm(a, inf).
    """
    a = as_matrix(a)
    if t_digits < 1:
        raise ValueError(f"t_digits must be >= 1, got {t_digits}")
    m, n = a.shape
    # Exact power-of-two prescaling so the squared column norms stay in range.
    scale = pow2_scale(float(np.abs(a).max()))
    r = a / scale
    perm = np.arange(n)
    delta = 10.0 ** (-t_digits) * norm(r, "inf")
    kappa = (r * r).sum(axis=0)
    kappa_ref = kappa.copy()
    reflectors: list[HouseholderReflector] = []
    rank = None
    steps = min(m, n)
    for k in range(steps):
        j = k + int(np.argmax(kappa[k:]))
        if j != k:
            r[:, [k, j]] = r[:, [j, k]]
            perm[[k, j]] = perm[[j, k]]
            kappa[[k, j]] = kappa[[j, k]]
            kappa_ref[[k, j]] = kappa_ref[[j, k]]
        pivot_norm = float(np.sqrt(max(kappa[k], 0.0)))
        if rank is None and pivot_norm <= delta:
            rank = k
        if k < min(m - 1, n):
            x = r[k:, k]
            if np.any(x[1:]):
                h = householder_vector(x)
                alpha = -(1.0 if x[0] >= 0.0 else -1.0) * stable_norm(x)
                _reflect_block(r, k, h)
                r[k, k] = alpha
                r[k + 1 :, k] = 0.0
                reflectors.append(_pad_reflector(h, k, m))
        if k + 1 < n:
            kappa[k + 1 :] -= r[k, k + 1 :] ** 2
            stale = kappa[k + 1 :] < NORM_DOWNDATE_GUARD * kappa_ref[k + 1 :]
            if stale.any() and k + 1 < m:
                idx = k + 1 + np.flatnonzero(stale)
                fresh = (r[k + 1 :, idx] ** 2).sum(axis=0)
                kappa[idx] = fresh
                kappa_ref[idx] = fresh
            elif k + 1 >= m:
                kappa[k + 1 :] = 0.0
    if rank is None:
        rank = steps
    with np.errstate(over="ignore"):  # reported just below
        r *= scale
    require_finite("qr_pivoted", r)
    return QrFactorization(r=r, reflectors=reflectors, perm=perm, rank=rank)

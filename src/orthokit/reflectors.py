"""Householder reflectors and Givens plane rotations as implicit operators.

A reflector ``H = I - beta * u u^T`` (beta = 2 / u^T u) is stored unpadded
as (offset, u, beta): it acts on rows ``offset:`` of an operator of
dimension ``offset + u.size`` (Golub & Van Loan, *Matrix Computations*,
5.1.6).  ``reflect_all`` is the one apply path of every reflector product
in the package: below ``CROSSOVER`` reflectors, or on a single column, it
loops over ``reflect``, the rank-1 update ``a -= beta u (u^T a)`` on rows
``offset:``; otherwise it applies groups of up to ``BLOCK`` reflectors in
compact WY form ``I - V T V^T`` as three matrix products (Schreiber & Van
Loan, SIAM J. Sci. Stat. Comput. 1989; LAPACK xLARFT/xLARFB).
``annihilate`` is the one elimination step of the sweeps,
``subtract_product`` the one delayed trailing update ``A -= X Y`` of the
blocked ones, ``givens_params`` the one rotation-parameter kernel (the
identity for the pair (0, 0)), and ``rotate`` the one plane-rotation update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .matrix import as_matrix, as_vector, prescale

__all__ = [
    "HouseholderReflector",
    "GivensRotation",
    "householder_vector",
    "householder_matrix",
    "householder_apply_left",
    "householder_apply_right",
    "givens_params",
    "givens_apply",
]

# Reflector products of at least CROSSOVER reflectors are applied in compact
# WY groups of at most BLOCK reflectors; shorter ones take the rank-1 loop.
# So does a one-column operand (Q^T b): for it, the Gram product V^T V
# behind T costs as much as the rank-1 updates, or more on tall inputs.
BLOCK = 32
CROSSOVER = 4


@dataclass
class HouseholderReflector:
    """``I - beta u u^T`` on rows ``offset:`` of an operator of dimension
    ``offset + u.size``; identity on the leading ``offset`` rows."""

    u: np.ndarray
    beta: float
    offset: int = 0


@dataclass
class GivensRotation:
    """Rotation in the (j, k) plane: rows j, k map to
    (c*row_j + s*row_k, -s*row_j + c*row_k)."""

    c: float
    s: float
    j: int
    k: int

    def __post_init__(self):
        if not 0 <= self.j < self.k:
            raise ValueError(f"need 0 <= j < k, got j={self.j}, k={self.k}")
        if abs(self.c * self.c + self.s * self.s - 1.0) > 1e-14:
            raise ValueError("rotation parameters must satisfy c^2 + s^2 = 1")


def _sign_nonneg(t: float) -> float:
    # sign(0) = +1 by convention; deterministic tie-break.
    return 1.0 if t >= 0.0 else -1.0


def stable_norm(x) -> float:
    """Euclidean norm with exact power-of-two prescaling, safe against
    overflow/underflow of the squared entries."""
    y = np.array(x, dtype=float)
    s = prescale(y)
    return float(s * np.sqrt(y @ y))


def _reflector(x: np.ndarray) -> tuple[HouseholderReflector, float]:
    """The reflector of ``householder_vector`` and ``||x||``, both from one
    prescaled copy of ``x``."""
    u = x.copy()
    s = prescale(u)
    nrm = float(np.sqrt(u @ u))
    if nrm == 0.0:  # after the prescale, a nonzero x has u @ u >= 1/4
        raise ValueError("cannot build a Householder reflector from the zero vector")
    u[0] += _sign_nonneg(u[0]) * nrm
    return HouseholderReflector(u, 2.0 / float(u @ u)), s * nrm


def householder_vector(x) -> HouseholderReflector:
    """Reflector that maps ``x`` to ``-sign(x[0]) * ||x|| * e1``.

    The first component of u is ``x[0] + sign(x[0]) * ||x||`` so the two
    terms never cancel.  The reflector is scale invariant, so x is first
    divided by a power of two near its largest entry (an exact operation)
    to keep the squared sums away from overflow and underflow.
    """
    return _reflector(as_vector(x))[0]


def reflect(h: HouseholderReflector, a: np.ndarray) -> None:
    """Apply ``h`` in place to the rows of the 2-D array (or view) ``a``:
    rows ``h.offset:`` take the rank-1 update ``a -= beta u (u^T a)``."""
    rows = a[h.offset :]
    # One temporary, laid out like ``rows`` (column-major in a sweep's
    # working copy, row-major for its transposed views) and scaled in
    # place, so the subtraction streams through memory.
    update = np.outer(h.u, h.u @ rows, out=np.empty_like(rows))
    update *= h.beta
    rows -= update


def subtract_product(target: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``target -= a @ b`` in place, with the product laid out like
    ``target`` (column-major in a sweep's working copy), so the
    subtraction streams through memory."""
    target -= np.matmul(a, b, out=np.empty_like(target))


def _compact_wy(group: list[HouseholderReflector], m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """``(k0, V, T)`` with ``H_1 H_2 ... H_b = I - V T V^T`` on rows ``k0:``
    of an m-row operand: column j of V is the j-th u, placed at row
    ``offset - k0``, and T is upper triangular, built column by column
    (xLARFT, forward): ``T[i, i] = beta_i``,
    ``T[:i, i] = -beta_i T[:i, :i] (V[:, :i]^T v_i)``."""
    k0 = min(h.offset for h in group)
    v = np.zeros((m - k0, len(group)))
    for j, h in enumerate(group):
        v[h.offset - k0 :, j] = h.u
    gram = v.T @ v
    t = np.zeros((len(group), len(group)))
    for i, h in enumerate(group):
        t[i, i] = h.beta
        t[:i, i] = -h.beta * (t[:i, :i] @ gram[:i, i])
    return k0, v, t


def reflect_all(reflectors, a: np.ndarray, transpose: bool = False) -> None:
    """Apply ``Q = H_1 H_2 ... H_s`` (``Q^T`` with ``transpose``) in place to
    the rows of the 2-D array (or view) ``a``.

    Fewer than ``CROSSOVER`` reflectors, or any list applied to a single
    column, are applied one rank-1 update at a time; otherwise in groups
    of at most ``BLOCK``, each as ``rows -= V (T (V^T rows))`` (``T^T``
    for the transpose)."""
    hs = list(reflectors)
    if len(hs) < CROSSOVER or a.shape[1] == 1:
        for h in hs if transpose else reversed(hs):
            reflect(h, a)
        return
    starts = range(0, len(hs), BLOCK)
    for i in starts if transpose else reversed(starts):
        k0, v, t = _compact_wy(hs[i : i + BLOCK], a.shape[0])
        rows = a[k0:]
        subtract_product(rows, v, (t.T if transpose else t) @ (v.T @ rows))


def annihilate(block: np.ndarray, offset: int) -> HouseholderReflector | None:
    """Reflect ``block`` in place so its first column becomes ``alpha e1``
    (alpha = -sign(x0) ||x||, exact zeros below); returns the reflector with
    ``offset``, or None if ``block[1:, 0]`` is already zero.  A row is
    eliminated through a transposed view."""
    x = block[:, 0]
    if not np.any(x[1:]):
        return None
    h, nrm = _reflector(x)
    alpha = -_sign_nonneg(x[0]) * nrm
    if block.shape[1] > 1:  # the first column is overwritten just below
        reflect(h, block)
    block[0, 0] = alpha
    block[1:, 0] = 0.0
    h.offset = offset
    return h


def check_length(h: HouseholderReflector, n: int, what: str) -> None:
    if h.offset + h.u.size != n:
        raise ShapeError(f"reflector length {h.offset + h.u.size} inconsistent with {n} {what}")


def householder_matrix(h: HouseholderReflector) -> np.ndarray:
    """Materialize ``H`` (for inspection; not used in products)."""
    out = np.eye(h.offset + h.u.size)
    reflect(h, out)
    return out


def householder_apply_left(h: HouseholderReflector, a) -> np.ndarray:
    """Compute ``H @ a`` as ``a - beta * u (u^T a)`` on rows ``offset:``."""
    a = as_matrix(a)
    check_length(h, a.shape[0], "rows")
    reflect(h, a)
    return a


def householder_apply_right(a, h: HouseholderReflector) -> np.ndarray:
    """Compute ``a @ H`` as ``a - beta * (a u) u^T`` on columns ``offset:``."""
    a = as_matrix(a)
    check_length(h, a.shape[1], "columns")
    reflect(h, a.T)
    return a


def givens_params(x: float, y: float) -> tuple[float, float]:
    """Rotation parameters (c, s) with c^2 + s^2 = 1 mapping (x, y) to
    (r, 0), r = +-sqrt(x^2 + y^2), and (1, 0) for (0, 0) as LAPACK's xLARTG
    (Bindel, Demmel, Kahan & Marques, ACM TOMS 28(2), 2002).

    Branches on |x| vs |y| so that no intermediate magnitude larger than
    one is ever squared (no overflow/underflow of x^2 + y^2).
    """
    if x == 0.0 and y == 0.0:
        return 1.0, 0.0
    x = float(x)
    y = float(y)
    if abs(x) > abs(y):
        t = y / x
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = c * t
    else:
        t = x / y
        s = 1.0 / math.sqrt(1.0 + t * t)
        c = s * t
    return c, s


def rotate(x: np.ndarray, y: np.ndarray, c: float, s: float) -> None:
    """Plane rotation in place on two equal-shape views:
    (x, y) <- (c x + s y, -s x + c y)."""
    t = c * x + s * y
    y[...] = -s * x + c * y
    x[...] = t


def givens_apply(g: GivensRotation, a) -> np.ndarray:
    """Apply a (j, k)-plane rotation to the rows of ``a``; only rows j and k
    change."""
    a = as_matrix(a)
    if g.k >= a.shape[0]:
        raise ShapeError(f"rotation indices ({g.j}, {g.k}) out of range for {a.shape[0]} rows")
    rotate(a[g.j], a[g.k], g.c, g.s)
    return a

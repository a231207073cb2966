"""Householder reflectors and Givens plane rotations as implicit operators.

A reflector ``H = I - beta * u u^T`` (beta = 2 / u^T u) is stored as its
vector ``u`` plus the cached ``beta``; it is never materialized.  Products
use the rank-1 update forms, costing O(mn) instead of O(m^2 n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .matrix import as_matrix, as_vector, pow2_scale

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


@dataclass
class HouseholderReflector:
    u: np.ndarray
    beta: float


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
    top = float(np.abs(x).max()) if len(x) else 0.0
    if top == 0.0:
        return 0.0
    s = pow2_scale(top)
    y = x / s
    return float(s * np.sqrt(y @ y))


def householder_vector(x) -> HouseholderReflector:
    """Reflector that maps ``x`` to ``-sign(x[0]) * ||x|| * e1``.

    The first component of u is ``x[0] + sign(x[0]) * ||x||`` so the two
    terms never cancel.  The reflector is scale invariant, so x is first
    divided by a power of two near its largest entry (an exact operation)
    to keep the squared sums away from overflow and underflow.
    """
    x = as_vector(x)
    top = float(np.abs(x).max())
    if top == 0.0:
        raise ValueError("cannot build a Householder reflector from the zero vector")
    u = x / pow2_scale(top)
    nrm = float(np.sqrt(u @ u))
    u[0] += _sign_nonneg(u[0]) * nrm
    return HouseholderReflector(u, 2.0 / float(u @ u))


def householder_matrix(h: HouseholderReflector) -> np.ndarray:
    """Materialize ``I - beta u u^T`` (for inspection; not used in products)."""
    u = h.u
    return np.eye(u.size) - h.beta * np.outer(u, u)


def householder_apply_left(h: HouseholderReflector, a) -> np.ndarray:
    """Compute ``H @ a`` as ``a - beta * u (u^T a)``."""
    a = as_matrix(a)
    if h.u.size != a.shape[0]:
        raise ShapeError(f"reflector length {h.u.size} does not match {a.shape[0]} rows")
    w = h.u @ a
    return a - h.beta * np.outer(h.u, w)


def householder_apply_right(a, h: HouseholderReflector) -> np.ndarray:
    """Compute ``a @ H`` as ``a - beta * (a u) u^T``."""
    a = as_matrix(a)
    if h.u.size != a.shape[1]:
        raise ShapeError(f"reflector length {h.u.size} does not match {a.shape[1]} columns")
    w = a @ h.u
    return a - h.beta * np.outer(w, h.u)


def apply_reflector_to_vector(h: HouseholderReflector, b) -> np.ndarray:
    b = as_vector(b)
    if h.u.size != b.size:
        raise ShapeError(f"reflector length {h.u.size} does not match vector length {b.size}")
    return b - (h.beta * (h.u @ b)) * h.u


def givens_params(x: float, y: float) -> tuple[float, float]:
    """Rotation parameters (c, s) with c^2 + s^2 = 1 mapping (x, y) to
    (r, 0), r = +-sqrt(x^2 + y^2).

    Branches on |x| vs |y| so that no intermediate magnitude larger than
    one is ever squared (no overflow/underflow of x^2 + y^2).
    """
    if x == 0.0 and y == 0.0:
        raise ValueError("givens_params needs a nonzero pair")
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


def givens_apply(g: GivensRotation, a) -> np.ndarray:
    """Apply a (j, k)-plane rotation to the rows of ``a``; only rows j and k
    change."""
    a = as_matrix(a)
    if g.k >= a.shape[0]:
        raise ShapeError(f"rotation indices ({g.j}, {g.k}) out of range for {a.shape[0]} rows")
    out = a.copy()
    rj = a[g.j, :]
    rk = a[g.k, :]
    out[g.j, :] = g.c * rj + g.s * rk
    out[g.k, :] = -g.s * rj + g.c * rk
    return out

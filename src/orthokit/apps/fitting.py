"""Polynomial least-squares curve fitting on a Vandermonde design matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lstsq import solve_qr
from ..matrix import as_vector, require_finite
from ..svd import cond2

__all__ = ["PolyFit", "polyfit"]


@dataclass
class PolyFit:
    coeffs: np.ndarray  # ascending powers, length degree + 1
    residual_norm: float
    cond: float


def polyfit(t, y, degree: int) -> PolyFit:
    """Fit sum_j c_j t^j to the points (t_k, y_k) in the least-squares sense.

    The reported ``cond`` is the 2-norm condition number of the Vandermonde
    matrix; it grows quickly with the degree, which is the practical limit
    of this basis.
    """
    t = as_vector(t)
    y = as_vector(y)
    if t.size != y.size:
        raise ValueError(f"t and y must have equal length, got {t.size} and {y.size}")
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if t.size < degree + 1:
        raise ValueError(f"need at least degree + 1 = {degree + 1} points, got {t.size}")
    if np.unique(t).size < degree + 1:
        raise ValueError("duplicate t nodes make the design matrix rank-deficient for this degree")
    with np.errstate(over="ignore"):  # reported just below
        a = np.vander(t, degree + 1, increasing=True)
    require_finite("polyfit", a)
    sol = solve_qr(a, y)
    return PolyFit(coeffs=sol.x, residual_norm=sol.residual_norm, cond=cond2(a))

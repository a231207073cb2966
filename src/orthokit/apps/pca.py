"""Principal component analysis through the SVD of the centered data matrix.

Data is a d x n matrix with samples as columns (pass samples_as="rows" to
transpose on the way in).  Components are left singular vectors of the
row-centered matrix; the variance along component j is sigma_j^2 / (n - 1),
i.e. the eigenvalues of the sample covariance X X^T / (n - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..matrix import as_matrix, prescale, require_finite, unscale
from ..svd import svd

__all__ = ["PcaModel", "pca_fit", "pca_reduce"]


@dataclass
class PcaModel:
    mean: np.ndarray        # per-dimension mean, length d
    components: np.ndarray  # d x k, orthonormal columns
    variances: np.ndarray   # length k, nonincreasing


def _oriented(x, samples_as):
    x = as_matrix(x)
    if samples_as == "rows":
        return np.ascontiguousarray(x.T)
    if samples_as == "cols":
        return x
    raise ValueError(f"samples_as must be 'cols' or 'rows', got {samples_as!r}")


def pca_fit(x, k: int, samples_as: str = "cols") -> PcaModel:
    x = _oriented(x, samples_as)
    d, n = x.shape
    if n < 2:
        raise ValueError(f"PCA needs at least 2 samples, got {n}")
    if not 1 <= k <= min(d, n):
        raise ValueError(f"k must be in [1, {min(d, n)}], got {k}")
    r = prescale(x, axis=1)  # each row's mean on that row's own scale
    mean = x.mean(axis=1)
    # Corrected two-pass mean, so a row of equal samples centres to exact zeros.
    c = x - mean[:, None]
    mean += c.mean(axis=1)
    s = float(r.max())  # sigma is global: the centred rows on the largest row scale
    np.subtract(x, mean[:, None], out=c)
    c *= r / s
    f = svd(c, "reduced")
    variances = (f.sigma[:k] ** 2) / (n - 1)
    unscale("pca_fit", r[:, 0], mean)
    unscale("pca_fit", s, variances)
    unscale("pca_fit", s, variances)  # the variances scale by s**2
    return PcaModel(mean=mean, components=f.u[:, :k].copy(), variances=variances)


def pca_reduce(model: PcaModel, x, samples_as: str = "cols") -> np.ndarray:
    """Rank-k reconstruction: center, project onto the components,
    reconstruct, and restore the mean.  Output keeps the input orientation."""
    x = _oriented(x, samples_as)
    if x.shape[0] != model.mean.size:
        raise ValueError(
            f"data dimension {x.shape[0]} does not match model dimension {model.mean.size}"
        )
    # Each row centred on its own scale and its mean's, then all on the
    # largest of them; the exact mean is added back at the end.
    xm = np.column_stack((x, model.mean))
    r = prescale(xm, axis=1)
    s = float(r.max())
    centred = (xm[:, :-1] - xm[:, -1:]) * (r / s)
    xk = model.components @ (model.components.T @ centred)
    with np.errstate(over="ignore"):  # reported just below
        xk = xk * s + model.mean[:, None]
    require_finite("pca_reduce", xk)
    return np.ascontiguousarray(xk.T) if samples_as == "rows" else xk

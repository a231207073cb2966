"""Seeded input generators for the benchmark workloads.

Matrices with a prescribed rank or spectrum are assembled from orthogonal
factors that numpy computes; that use of ``numpy.linalg`` is confined to the
benchmark, the program under test only ever receives the finished arrays.
"""

from __future__ import annotations

import numpy as np

# Entry scales: exponent centres of the scale dimension.  2^900 is about
# 8.5e270, inside the documented 1e-280..1e+280 accuracy range.
EXTREME_EXPONENTS = (-900, 0, 900)
# Least-squares solves and conditioning reports take their residual and
# right-hand-side norms with a plain vector 2-norm, which overflows or
# underflows past about 2^+-500 (ROADMAP item 2).  Those requests use
# these centres so that every request of a workload passes its check; the
# defect itself is pinned by an expected-failure test in test_bench.py.
MODERATE_EXPONENTS = (-300, 0, 300)


def rng_for(seed: int, workload: str, deck: int) -> np.random.Generator:
    """One independent stream per (seed, workload, deck)."""
    tag = sum((i + 1) * ord(ch) for i, ch in enumerate(workload))
    return np.random.default_rng([seed, tag, deck])


def jitter(rng, centre: int, spread: int, lo: int, hi: int) -> int:
    return int(min(hi, max(lo, centre + rng.integers(-spread, spread + 1))))


def orthonormal(rng, m: int, k: int) -> np.ndarray:
    """m x k matrix with orthonormal columns (numpy QR of a Gaussian)."""
    q, r = np.linalg.qr(rng.standard_normal((m, k)))
    return q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)


def spectrum(rng, kind: str, r: int) -> np.ndarray:
    """r positive singular values, sorted descending.

    ``random``: uniform in [1, 10]; ``graded``: geometric from 1 down to
    1e-6 with a random ratio jitter, so the condition number is ~1e6.
    """
    if kind == "random":
        s = rng.uniform(1.0, 10.0, r)
    elif kind == "graded":
        s = np.logspace(0.0, -6.0, r) * rng.uniform(0.8, 1.25, r)
    else:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    return np.sort(s)[::-1]


def matrix(rng, m: int, n: int, kind: str = "random", rank: int | None = None,
           exponent: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(a, sigma)``: an m x n matrix with a known spectrum.

    With an ``exponent`` the matrix is scaled by a random factor in
    [2^(exponent-20), 2^(exponent+21)).  ``sigma`` lists all min(m, n)
    singular values (scale applied), trailing zeros for a prescribed rank
    below full.
    """
    k = min(m, n)
    r = k if rank is None else rank
    s = spectrum(rng, kind, r)
    a = (orthonormal(rng, m, r) * s) @ orthonormal(rng, n, r).T
    if exponent is None:
        return a, np.concatenate([s, np.zeros(k - r)])
    scale = np.ldexp(rng.uniform(1.0, 2.0), int(exponent + rng.integers(-20, 21)))
    sigma = np.zeros(k)
    sigma[:r] = s
    return a * scale, sigma * scale


def spd(rng, n: int) -> np.ndarray:
    """Symmetric positive definite with condition number at most ~100."""
    q = orthonormal(rng, n, n)
    s = (q * rng.uniform(1.0, 100.0, n)) @ q.T
    return 0.5 * (s + s.T)


def hessenberg(rng, n: int) -> np.ndarray:
    return np.triu(rng.standard_normal((n, n)), -1)


def rhs_with_residual(rng, a: np.ndarray) -> np.ndarray:
    """Right-hand side b = A x + r with r a random vector of norm
    0.3 ||A x|| (mostly outside range(A) for tall A)."""
    m, n = a.shape
    ax = a @ rng.standard_normal(n)
    r = rng.standard_normal(m)
    # A power of two at the scale of A x keeps the norm finite and nonzero.
    s = np.ldexp(1.0, np.frexp(np.abs(ax).max())[1])
    return ax + 0.3 * s * np.linalg.norm(ax / s) / np.linalg.norm(r) * r


def quantized_image(rng, h: int, w: int, rank: int) -> np.ndarray:
    """Low-rank smooth image plus noise, quantized to integers 0..255."""
    u = np.cumsum(rng.standard_normal((h, rank)), axis=0)
    v = np.cumsum(rng.standard_normal((w, rank)), axis=0)
    img = u @ v.T
    img = (img - img.min()) / (img.max() - img.min()) * 200.0 + 20.0
    img += rng.normal(0.0, 4.0, (h, w))
    return np.rint(img).clip(0, 255)


def digit_classes(rng, per_class: int, dim: int = 784, subspace: int = 4) -> list[np.ndarray]:
    """Ten classes of samples (as columns) near random ``subspace``-dim
    affine subspaces around mid-grey, with pixel noise of 2 grey levels,
    quantized to integers 0..255 (pixel spread about 24 grey levels)."""
    out = []
    for _ in range(10):
        basis = orthonormal(rng, dim, subspace)
        x = 128.0 + 300.0 * basis @ rng.standard_normal((subspace, per_class))
        x += 2.0 * rng.standard_normal((dim, per_class))
        out.append(np.rint(x).clip(0, 255))
    return out

"""Answer checks against ``numpy.linalg``, which only the benchmark uses.

Every check returns ``None`` when the answer passes and a one-line reason
when it misses.  Inputs may carry entry scales near 2^+-900, so every
oracle call and norm works on the input divided by an exact power of two.

Tolerances are ``C * max(m, n) * eps`` relative to the problem's own norm,
times the condition number where the quantity checked is sensitive to it.
C = 20 is about ten times the worst ratio observed on the benchmark's own
inputs.
"""

from __future__ import annotations

import math
import re

import numpy as np

EPS = float(np.finfo(float).eps)
C = 20.0
BLOCK = 64


def pow2(a) -> float:
    """Power of two at or above the largest magnitude in ``a`` (1 if zero)."""
    top = float(np.max(np.abs(a))) if np.size(a) else 0.0
    return math.ldexp(1.0, math.frexp(top)[1]) if top > 0.0 else 1.0


def fro(a) -> float:
    """Frobenius (or 2-) norm without overflow or underflow."""
    s = pow2(a)
    return s * float(np.linalg.norm(np.asarray(a) / s))


def tol(m: int, n: int = 0) -> float:
    return C * max(m, n) * EPS


def orthonormal_cols(q, what: str):
    k = q.shape[1]
    # ||Q^T Q - I||_F by column blocks: the oracle's temporaries stay
    # k x BLOCK, well below the m x m factors the program forms.
    sq = 0.0
    for j in range(0, k, BLOCK):
        g = q.T @ q[:, j:j + BLOCK]
        g[j:j + BLOCK] -= np.eye(g.shape[1])
        sq += float(np.linalg.norm(g)) ** 2
    err = math.sqrt(sq)
    if not err <= tol(q.shape[0], k):
        return f"{what} columns not orthonormal: {err:.3e}"
    return None


def oracle_svd(a):
    """numpy reduced SVD of ``a``, scale restored."""
    s = pow2(a)
    u, sig, vt = np.linalg.svd(a / s, full_matrices=False)
    return u, sig * s, vt


def oracle_rank(sig, a) -> int:
    """Rank at orthokit's default threshold 1e-12 * ||A||_inf."""
    s = pow2(a)
    delta = 1e-12 * float(np.abs(a / s).sum(axis=1).max()) * s
    return int(np.sum(sig > delta))


def first(*reasons):
    for r in reasons:
        if r is not None:
            return r
    return None


# ---------------------------------------------------------------------------
# Factorizations.


def check_svd(a, f, full: bool):
    m, n = a.shape
    k = min(m, n)
    want_u = (m, m) if full else (m, k)
    want_vt = (n, n) if full else (k, n)
    if f.u.shape != want_u or f.vt.shape != want_vt or f.sigma.shape != (k,):
        return f"svd shapes u{f.u.shape} sigma{f.sigma.shape} vt{f.vt.shape}"
    if not np.all(np.isfinite(f.u)) or not np.all(np.isfinite(f.vt)) or not np.all(np.isfinite(f.sigma)):
        return "svd has non-finite entries"
    back = fro(a - (f.u[:, :k] * f.sigma) @ f.vt[:k, :]) / fro(a)
    if not back <= tol(m, n):
        return f"svd backward error {back:.3e}"
    _, sig, _ = oracle_svd(a)
    return first(
        orthonormal_cols(f.u, "U"),
        orthonormal_cols(f.vt.T, "V"),
        check_values(f.sigma, sig, m, n),
    )


def check_values(sigma, sig_oracle, m: int, n: int):
    """Singular values against numpy's, absolutely to C max(m,n) eps sigma_1."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != sig_oracle.shape:
        return f"{sigma.size} singular values, expected {sig_oracle.size}"
    s = pow2(sig_oracle)
    err = float(np.max(np.abs(sigma / s - sig_oracle / s))) / (sig_oracle[0] / s)
    if not err <= tol(m, n):
        return f"singular values off by {err:.3e} of sigma_1"
    return None


def check_qr(a, q, r, full: bool):
    """A = Q R with orthonormal Q and upper-triangular R."""
    m, n = a.shape
    cols = m if full else min(m, n)
    if q.shape != (m, cols) or r.shape[1] != n:
        return f"qr shapes q{q.shape} r{r.shape}"
    if np.any(np.tril(r[:cols], -1)):
        return "R is not upper triangular"
    back = fro(a - q @ r[:cols]) / fro(a)
    if not back <= tol(m, n):
        return f"qr backward error {back:.3e}"
    return orthonormal_cols(q, "Q")


def check_pinv(a, x):
    """Pseudoinverse against numpy's at the same rank threshold, to
    C max(m,n) eps kappa_r relative."""
    s = pow2(a)
    sig = np.linalg.svd(a / s, compute_uv=False) * s
    r = oracle_rank(sig, a)
    want = np.linalg.pinv(a / s, rcond=float(sig[r - 1] / sig[0]) * 0.5) / s
    err = fro(x - want) / fro(want)
    kappa = sig[0] / sig[r - 1]
    if not err <= tol(*a.shape) * kappa:
        return f"pseudoinverse off by {err:.3e} (kappa_r {kappa:.2e})"
    return None


def check_low_rank(a, approx, k: int):
    u, sv, vt = oracle_svd(a)
    want = (u[:, :k] * sv[:k]) @ vt[:k]
    gap = (sv[k - 1] - sv[k]) if k < sv.size else sv[k - 1]
    err = fro(approx - want) / fro(a)
    if not err <= tol(*a.shape) * sv[0] / gap:
        return f"low_rank off by {err:.3e}"
    return None


def check_nearest_orthogonal(a, q):
    n = a.shape[0]
    u, sv, vt = oracle_svd(a)
    err = fro(q - u @ vt)
    bound = tol(n) * sv[0] / (sv[-1] + sv[-2])
    return first(
        orthonormal_cols(q, "polar factor"),
        None if err <= bound else f"polar factor off by {err:.3e}",
    )


def check_subspaces(a, bases):
    m, n = a.shape
    r = oracle_rank(oracle_svd(a)[1], a)
    if bases.range_basis.shape != (m, r) or bases.null_basis.shape != (n, n - r) \
            or bases.corange_basis.shape != (n, r) or bases.conull_basis.shape != (m, m - r):
        return f"subspace bases sized for rank {bases.range_basis.shape[1]}, oracle rank {r}"
    s = pow2(a)
    an = a / s
    norm_a = float(np.linalg.norm(an))
    t = tol(m, n) * norm_a
    reasons = [orthonormal_cols(b, name) for name, b in zip(bases._fields, bases)]
    if n > r and not float(np.linalg.norm(an @ bases.null_basis)) <= t:
        reasons.append("A times null basis is not zero")
    if m > r and not float(np.linalg.norm(an.T @ bases.conull_basis)) <= t:
        reasons.append("A^T times left-null basis is not zero")
    rb = bases.range_basis
    if not float(np.linalg.norm(an - rb @ (rb.T @ an))) <= t:
        reasons.append("range basis does not span range(A)")
    return first(*reasons)


# ---------------------------------------------------------------------------
# Least squares.


def check_lstsq(a, b, sol, rank: int, min_norm: bool):
    """Residual against numpy's least-squares residual; the reported
    residual norm, rank and (for min_norm) x against numpy's x."""
    m, n = a.shape
    s = pow2(a)
    sb = pow2(b)
    an, bn = a / s, b / sb
    x_np = np.linalg.lstsq(an, bn, rcond=None)[0]
    res_np = float(np.linalg.norm(bn - an @ x_np))
    xn = sol.x * (s / sb)
    res = float(np.linalg.norm(bn - an @ xn))
    scale_t = tol(m, n) * float(np.linalg.norm(an)) * max(float(np.linalg.norm(xn)), 1.0)
    if sol.rank != rank:
        return f"rank {sol.rank}, oracle {rank}"
    if not res <= res_np + max(scale_t, 1e-10 * res_np):
        return f"residual {res:.6e} exceeds lstsq residual {res_np:.6e}"
    if not abs(sol.residual_norm / sb - res) <= 1e-8 * max(res, 1e-300) + scale_t:
        return f"reported residual {sol.residual_norm:.6e} does not match |b - Ax|"
    if min_norm:
        err = float(np.linalg.norm(xn - x_np)) / max(float(np.linalg.norm(x_np)), 1e-300)
        if not err <= 1e-8:
            return f"minimum-norm x off by {err:.3e}"
    return None


def check_conditioning(a, b, x, rep):
    s = pow2(a)
    sig = np.linalg.svd(a / s, compute_uv=False)
    r = oracle_rank(sig * s, a)
    cond = sig[0] / sig[r - 1]
    m, n = a.shape
    if not abs(rep.cond - cond) <= tol(m, n) * cond * cond:
        return f"cond {rep.cond:.9e}, oracle {cond:.9e}"
    cos = min(1.0, float(np.linalg.norm((a / s) @ x)) / float(np.linalg.norm(b / s)))
    if not abs(rep.cos_theta - cos) <= 1e-10:
        return f"cos_theta {rep.cos_theta!r}, oracle {cos!r}"
    if not abs(rep.rhs_sensitivity_bound - cond / cos) <= 1e-8 * cond / cos + tol(m, n) * cond * cond / cos:
        return "rhs sensitivity bound inconsistent"
    return None


def check_projector(a, p):
    m, n = a.shape
    q, _ = np.linalg.qr(a)
    sv = np.linalg.svd(a, compute_uv=False)
    kappa = sv[0] / sv[-1]
    # ||P - Q Q^T||_F and the symmetry of P by row blocks, as above.
    sq, symmetric = 0.0, True
    for i in range(0, m, BLOCK):
        sq += float(np.linalg.norm(p[i:i + BLOCK] - q[i:i + BLOCK] @ q.T)) ** 2
        symmetric = symmetric and np.array_equal(p[i:i + BLOCK], p[:, i:i + BLOCK].T)
    err = math.sqrt(sq)
    if not err <= tol(m, n) * kappa * kappa:
        return f"projector off by {err:.3e}"
    if not symmetric:
        return "projector is not symmetric"
    return None


def check_split(b, parts, p):
    pb, qb = parts
    nb = float(np.linalg.norm(b))
    if not float(np.linalg.norm(pb + qb - b)) <= tol(b.size) * nb:
        return "split parts do not add up to b"
    if not float(np.linalg.norm(pb - p @ b)) <= tol(b.size) * nb:
        return "range part is not P b"
    if not abs(float(pb @ qb)) <= tol(b.size) * nb * nb * 10.0:
        return "split parts are not orthogonal"
    return None


# ---------------------------------------------------------------------------
# CLI output, compared at print precision.

_NUM = re.compile(r"-?\d+\.\d+")


def numbers(line: str) -> np.ndarray:
    return np.array([float(v) for v in _NUM.findall(line)])


def field(stdout: str, name: str) -> str:
    """Text after ``name =`` on its line."""
    for line in stdout.splitlines():
        if line.startswith(name + " ="):
            return line[len(name) + 2:].strip()
    raise KeyError(name)


def matrix_block(stdout: str, name: str) -> np.ndarray:
    """Rows printed after a ``name =`` header line, up to the next header."""
    lines = stdout.splitlines()
    start = lines.index(f"{name} =") + 1
    rows = []
    for line in lines[start:]:
        if "=" in line or ":" in line:
            break
        rows.append(numbers(line))
    return np.array(rows)


def close(got, want, atol: float, what: str):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape}, expected {want.shape}"
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= atol:
        return f"{what}: off by {err:.3e} (allowed {atol:.1e})"
    return None


def read_pgm(path) -> np.ndarray:
    """Minimal P5 reader for the CLI's own output (no comments)."""
    with open(path, "rb") as f:
        data = f.read()
    head = data.split(maxsplit=4)
    if head[0] != b"P5":
        raise ValueError("not P5")
    w, h = int(head[1]), int(head[2])
    return np.frombuffer(data[-w * h:], dtype=np.uint8).reshape(h, w).astype(float)


def truncated(pixels, k: int) -> np.ndarray:
    u, s, vt = np.linalg.svd(pixels, full_matrices=False)
    return (u[:, :k] * s[:k]) @ vt[:k]


def check_pgm(path, want):
    """Rounded, clamped reconstruction: each pixel within one grey level."""
    got = read_pgm(path)
    return close(got, np.rint(np.clip(want, 0.0, 255.0)), 1.0, "pixels")

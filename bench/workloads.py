"""The four workloads: seeded request decks and their answer checks.

A deck is a fixed, stratified list of requests: the same kinds at the same
size classes every time, with the exact sizes, spectra, scales and entries
drawn from the deck's seed.  A run executes whole decks, so the request mix
is identical across seeds and runs.

Library requests call orthokit through module attributes at call time
(``ok.svd``, not a bound name), so the traced run's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import checks as ck
import gen

import orthokit as ok
import orthokit.apps as apps


@dataclass
class Request:
    """One closed-loop request.  Library requests set ``call``; CLI
    requests set ``argv`` (arguments after the program name) and their
    ``check`` takes ``(exit_code, stdout)``."""

    kind: str
    check: Callable[..., str | None]
    call: Callable[[], Any] | None = None
    argv: list[str] | None = None
    ceiling: Callable[[], Any] | None = None
    k_used: int = 0  # leading singular triplets the request's answer uses
    shape: tuple = ()
    exponent: int = 0  # entry scale 2^exponent of the input, where recorded


# ---------------------------------------------------------------------------
# svd-dense


def _svd_req(a, full):
    shape = "full" if full else "reduced"
    return Request(
        f"svd_{shape}",
        call=lambda: ok.svd(a, shape),
        check=lambda f: ck.check_svd(a, f, full),
        ceiling=lambda: np.linalg.svd(a, full_matrices=full),
        shape=a.shape,
    )


def _pinv_req(a):
    return Request("pseudoinverse", call=lambda: ok.pseudoinverse(a),
                   check=lambda x: ck.check_pinv(a, x),
                   ceiling=lambda: np.linalg.pinv(a), shape=a.shape)


def _low_rank_req(a, k):
    def ceiling():
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        return (u[:, :k] * s[:k]) @ vt[:k]
    return Request("low_rank", call=lambda: ok.low_rank(a, k),
                   check=lambda x: ck.check_low_rank(a, x, k), ceiling=ceiling, shape=a.shape)


def _nearest_req(a):
    def ceiling():
        u, _, vt = np.linalg.svd(a)
        return u @ vt
    return Request("nearest_orthogonal", call=lambda: ok.nearest_orthogonal(a),
                   check=lambda q: ck.check_nearest_orthogonal(a, q), ceiling=ceiling, shape=a.shape)


def _subspace_req(a):
    return Request("subspace_bases", call=lambda: ok.subspace_bases(a),
                   check=lambda b: ck.check_subspaces(a, b),
                   ceiling=lambda: np.linalg.svd(a), shape=a.shape)


def svd_dense(rng) -> list[Request]:
    """15 requests, n 40-160: square, tall (aspect 2.5 and 4) and wide;
    random, graded (cond ~1e6) and prescribed-rank spectra; entry scales
    2^-900, 1 and 2^900."""
    def j(c):
        return gen.jitter(rng, c, 2, 40, 160)

    def mat(m, n, kind="random", rank=None, e=0):
        return gen.matrix(rng, m, n, kind, rank, e)[0]

    def sq(c, kind="random", rank=None, e=0):
        n = j(c)
        return mat(n, n, kind, rank, e)

    lo, _, hi = gen.EXTREME_EXPONENTS
    return [
        _svd_req(sq(44), False),
        _svd_req(sq(80, "graded", e=hi), False),
        _svd_req(sq(120, e=lo), False),
        _svd_req(sq(156, "graded"), False),
        _svd_req(mat(j(140), j(56)), True),
        _svd_req(mat(j(156), j(44), rank=25, e=hi), False),
        _svd_req(sq(100, rank=60, e=lo), True),
        _pinv_req(sq(64, rank=40)),
        _pinv_req(mat(j(150), j(60), "graded", e=lo)),
        _low_rank_req(sq(100, "graded"), 10),
        _low_rank_req(mat(j(60), j(140), rank=20, e=hi), 5),
        _nearest_req(sq(48, e=hi)),
        _nearest_req(sq(96, "graded")),
        _subspace_req(mat(j(120), j(50), rank=30)),
        _subspace_req(mat(j(45), j(110), rank=20, e=lo)),
    ]


# ---------------------------------------------------------------------------
# lstsq-tall


def _solve_req(a, b, rank, min_norm):
    return Request("solve", call=lambda: ok.solve(a, b),
                   check=lambda s: ck.check_lstsq(a, b, s, rank, min_norm),
                   ceiling=lambda: np.linalg.lstsq(a, b, rcond=None), shape=a.shape)


def _pivoted_req(a, b, rank):
    return Request("solve_qr_pivoted", call=lambda: ok.solve_qr_pivoted(a, b),
                   check=lambda s: ck.check_lstsq(a, b, s, rank, False),
                   ceiling=lambda: np.linalg.lstsq(a, b, rcond=None), shape=a.shape)


def _qr_full_req(a):
    return Request("qr_householder", call=lambda: ok.qr_householder(a, "qr"),
                   check=lambda f: ck.check_qr(a, f.q, f.r, True),
                   ceiling=lambda: np.linalg.qr(a, mode="complete"), shape=a.shape)


def _thin_q_req(a):
    m, n = a.shape

    def call():
        f = ok.qr_householder(a, "r+u")
        return ok.form_q(f.reflectors, m, n), f.r

    return Request("form_q_thin", call=call, check=lambda qr: ck.check_qr(a, qr[0], qr[1], False),
                   ceiling=lambda: np.linalg.qr(a), shape=a.shape)


def _cond_req(a, b):
    s, sb = ck.pow2(a), ck.pow2(b)
    x = np.linalg.lstsq(a / s, b / sb, rcond=None)[0] * (sb / s)
    return Request("conditioning_report", call=lambda: ok.conditioning_report(a, b, x),
                   check=lambda r: ck.check_conditioning(a, b, x, r),
                   ceiling=lambda: np.linalg.svd(a, compute_uv=False), shape=a.shape)


def _projector_req(a, b):
    def call():
        p = ok.projector_onto_range(a)
        return p, ok.split(b, p)

    def ceiling():
        q = np.linalg.qr(a)[0]
        return q @ (q.T @ b)

    return Request("projector_onto_range", call=call,
                   check=lambda r: ck.first(ck.check_projector(a, r[0]), ck.check_split(b, r[1], r[0])),
                   ceiling=ceiling, shape=a.shape)


def lstsq_tall(rng) -> list[Request]:
    """15 requests, m 300-1500, n 20-120: full-rank and rank-deficient
    tall systems.  The nine solve and conditioning requests take entry
    scales 1, 2^-300 and 2^300 in turn, the four QR requests 1, 2^-900,
    2^900 and 1, so every deck has the same scale mix; the two projector
    requests are unscaled.  (Solves and conditioning reports stay within
    2^+-300 because of the norm defect noted in gen.py.)"""
    exponents = []

    def j(c, lo, hi):
        return gen.jitter(rng, c, max(1, c // 50), lo, hi)

    def tall(m, n, kind="random", rank=None, centres=gen.EXTREME_EXPONENTS):
        lo, mid, hi = centres
        exponents.append((mid, lo, hi)[len(exponents) % 3])
        return gen.matrix(rng, j(m, 300, 1500), j(n, 20, 120), kind, rank, exponents[-1])[0]

    def system(m, n, kind="random", rank=None):
        a = tall(m, n, kind, rank, gen.MODERATE_EXPONENTS)
        return a, gen.rhs_with_residual(rng, a)

    reqs = []
    a, b = system(300, 20)
    reqs.append(_solve_req(a, b, a.shape[1], False))
    a, b = system(800, 60, "graded")
    reqs.append(_solve_req(a, b, a.shape[1], False))
    a, b = system(1500, 120)
    reqs.append(_solve_req(a, b, a.shape[1], False))
    a, b = system(600, 50, rank=35)
    reqs.append(_solve_req(a, b, 35, True))
    a, b = system(600, 60, rank=40)
    reqs.append(_pivoted_req(a, b, 40))
    a, b = system(1200, 100, rank=70)
    reqs.append(_pivoted_req(a, b, 70))
    a, b = system(900, 80)
    reqs.append(_pivoted_req(a, b, a.shape[1]))
    reqs.append(_cond_req(*system(600, 60)))
    reqs.append(_cond_req(*system(1000, 100, "graded")))
    reqs.append(_qr_full_req(tall(400, 40)))
    reqs.append(_qr_full_req(tall(700, 70, "graded")))
    reqs.append(_thin_q_req(tall(500, 50)))
    reqs.append(_thin_q_req(tall(1000, 100)))
    a = rng.standard_normal((j(300, 300, 1500), j(20, 20, 120)))
    reqs.append(_projector_req(a, rng.standard_normal(a.shape[0])))
    a = rng.standard_normal((j(400, 300, 1500), j(30, 20, 120)))
    reqs.append(_projector_req(a, rng.standard_normal(a.shape[0])))
    for req, e in zip(reqs, exponents):
        req.exponent = e
    return reqs


# ---------------------------------------------------------------------------
# small-batch


SMALL_SIZES = (3, 6, 10, 16)


def _polyfit_req(rng, n):
    m = 3 * n
    t = np.sort(rng.uniform(-1.0, 1.0, m))
    deg = min(n - 1, 6)
    y = np.polyval(rng.standard_normal(deg + 1), t) + 0.05 * rng.standard_normal(m)
    v = np.vander(t, deg + 1, increasing=True)

    def check(fit):
        sol = SimpleNamespace(x=fit.coeffs, residual_norm=fit.residual_norm, rank=deg + 1)
        err = ck.check_lstsq(v, y, sol, deg + 1, True)
        cond = np.linalg.cond(v)
        if err is None and not abs(fit.cond - cond) <= 1e-9 * cond:
            err = f"polyfit cond {fit.cond!r}, oracle {cond!r}"
        return err

    return Request("polyfit", call=lambda: apps.polyfit(t, y, deg), check=check,
                   ceiling=lambda: np.linalg.lstsq(v, y, rcond=None), shape=v.shape)


def _givens_req(rng, n):
    a = rng.standard_normal((n + 2, n))
    return Request("qr_givens", call=lambda: ok.qr_givens(a),
                   check=lambda f: ck.check_qr(a, f.q, f.r, True),
                   ceiling=lambda: np.linalg.qr(a, mode="complete"), shape=a.shape)


def _hessenberg_req(rng, n):
    h = gen.hessenberg(rng, n)
    return Request("qr_hessenberg", call=lambda: ok.qr_hessenberg(h),
                   check=lambda f: ck.check_qr(h, f.q, f.r, True),
                   ceiling=lambda: np.linalg.qr(h), shape=h.shape)


def _jacobi_req(rng, n):
    s = gen.spd(rng, n) - 50.0 * np.eye(n)  # indefinite symmetric

    def check(res):
        w, v = res
        w_np = np.linalg.eigvalsh(s)[::-1]
        norm_s = float(np.linalg.norm(s))
        # jacobi_eig leaves off-diagonal entries below 1e-14 ||S||_F in place.
        t = (ck.tol(n) + n * 1e-14) * norm_s
        return ck.first(
            ck.close(w, w_np, t, "eigenvalues"),
            ck.orthonormal_cols(v, "eigenvectors"),
            None if float(np.linalg.norm(s @ v - v * w)) <= t else "S V != V W",
        )

    return Request("jacobi_eig", call=lambda: ok.jacobi_eig(s), check=check,
                   ceiling=lambda: np.linalg.eigh(s), shape=s.shape)


def _cholesky_req(rng, n):
    s = gen.spd(rng, n)
    b = rng.standard_normal(n)

    def call():
        l = ok.cholesky(s)
        return l, ok.back_sub(l.T, ok.forward_sub(l, b))

    def check(res):
        l, x = res
        norm_s = float(np.linalg.norm(s))
        x_np = np.linalg.solve(s, b)
        return ck.first(
            None if np.all(np.triu(l, 1) == 0.0) else "L is not lower triangular",
            None if float(np.linalg.norm(l @ l.T - s)) <= ck.tol(n) * norm_s else "L L^T != S",
            ck.close(x, x_np, ck.tol(n) * np.linalg.cond(s) * float(np.abs(x_np).max()), "x"),
        )

    def ceiling():
        l = np.linalg.cholesky(s)
        return np.linalg.solve(l.T, np.linalg.solve(l, b))

    return Request("cholesky_solve", call=call, check=check, ceiling=ceiling, shape=s.shape)


def _small_solve_req(rng, n):
    a = rng.standard_normal((2 * n, n))
    b = rng.standard_normal(2 * n)
    return _solve_req(a, b, n, False)


def _small_svd_req(rng, n):
    return _svd_req(rng.standard_normal((n, n)), False)


def _small_projector_req(rng, n):
    a = rng.standard_normal((2 * n, n))
    return _projector_req(a, rng.standard_normal(2 * n))


SMALL_KINDS = (_polyfit_req, _givens_req, _hessenberg_req, _jacobi_req, _cholesky_req,
               _small_solve_req, _small_svd_req, _small_projector_req)


def small_batch(rng) -> list[Request]:
    """35 requests: eight kinds at four size classes n 3-16 (sizes jittered
    by one, polyfit degree up to 6 on 3n points), plus Givens QR,
    Hessenberg QR and a Cholesky solve at n = 8."""
    reqs = []
    for n in SMALL_SIZES:
        for make in SMALL_KINDS:
            reqs.append(make(rng, gen.jitter(rng, n, 1, 3, 16)))
    for make in (_givens_req, _hessenberg_req, _cholesky_req):
        reqs.append(make(rng, 8))
    return reqs


# ---------------------------------------------------------------------------
# cli-apps.  Every request reads files written at deck generation and is
# checked from its stdout (and output file) at print precision.

ATOL = 2e-6  # print rounding (5e-7) plus numerical error on O(1..100) values

# Words that the CLI's tokenizer and stemmer leave unchanged (no -s, -ed,
# -ing or -e endings), so the oracle counts them as they are.
WORDS = ("alpha", "orbit", "matrix", "vector", "kernel", "lambda", "tensor",
         "signal", "prism", "quota", "radix", "plan", "cobalt", "delta", "omega", "graph")


def _write_csv(path: Path, a) -> str:
    np.savetxt(path, np.atleast_2d(a), delimiter=",", fmt="%.17g")
    return str(path)


def _write_pgm(path: Path, pixels) -> str:
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.astype(np.uint8).tobytes())
    return str(path)


def _cli(kind, argv, check, k_used=0):
    def guarded(code, out):
        if code != 0:
            return f"exit code {code}"
        try:
            return check(out)
        except (KeyError, ValueError, IndexError, OSError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"
    return Request(kind, argv=argv, check=guarded, k_used=k_used)


def _cli_svd_values(rng, d, n):
    n = gen.jitter(rng, n, 4, 40, 160)
    a = gen.matrix(rng, n, n)[0]
    sig = np.linalg.svd(a, compute_uv=False)
    return _cli("svd_values", ["svd", _write_csv(d / "svd.csv", a), "--values-only"],
                lambda out: ck.close(ck.numbers(out.strip()), sig, ATOL, "sigma"))


def _cli_svd_full(rng, d):
    a = gen.matrix(rng, gen.jitter(rng, 32, 3, 20, 40), gen.jitter(rng, 20, 2, 10, 30))[0]
    m, n = a.shape
    sig = np.linalg.svd(a, compute_uv=False)

    def check(out):
        u, vt = ck.matrix_block(out, "U"), ck.matrix_block(out, "Vt")
        return ck.first(
            None if u.shape == (m, m) and vt.shape == (n, n) else f"shapes U{u.shape} Vt{vt.shape}",
            ck.close(ck.numbers(ck.field(out, "sigma")), sig, ATOL, "sigma"),
            ck.close((u[:, :n] * sig) @ vt, a, 1e-3, "U S Vt - A"),
            ck.close(u.T @ u, np.eye(m), 1e-3, "U^T U - I"),
        )

    return _cli("svd_full", ["svd", _write_csv(d / "svd.csv", a)], check)


def _cli_solve(rng, d, rank=None):
    m, n = gen.jitter(rng, 200, 10, 150, 300), gen.jitter(rng, 30, 3, 20, 40)
    a = gen.matrix(rng, m, n, rank=rank)[0]
    b = gen.rhs_with_residual(rng, a)
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    res = np.linalg.norm(b - a @ x)
    sv = np.linalg.svd(a, compute_uv=False)
    r = n if rank is None else rank

    def check(out):
        return ck.first(
            None if ck.field(out, "method") == ("qr" if rank is None else "svd") else "auto route",
            ck.close(ck.numbers(ck.field(out, "x")), x, ATOL, "x"),
            ck.close(ck.numbers(ck.field(out, "residual_norm")), [res], ATOL, "residual"),
            ck.close(ck.numbers(ck.field(out, "cond")), [sv[0] / sv[r - 1]], ATOL, "cond"),
            None if ck.field(out, "rank") == str(r) else "rank",
        )

    kind = "solve" if rank is None else "solve_rank_deficient"
    return _cli(kind, ["solve", _write_csv(d / "a.csv", a), _write_csv(d / "b.csv", b[:, None])], check)


def _cli_qr(rng, d):
    a = gen.matrix(rng, gen.jitter(rng, 50, 4, 30, 80), gen.jitter(rng, 20, 2, 10, 30))[0]

    def check(out):
        q = ck.matrix_block(out, "Q")
        r = ck.matrix_block(out, "R")
        m = a.shape[0]
        return ck.first(
            None if q.shape == (m, m) and r.shape == a.shape else f"shapes Q{q.shape} R{r.shape}",
            ck.close(q @ r, a, 1e-3, "Q R - A"),
            ck.close(q.T @ q, np.eye(m), 1e-3, "Q^T Q - I"),
        )

    return _cli("qr", ["qr", _write_csv(d / "qr.csv", a), "--mode", "qr"], check)


def _cli_qr_pivoted(rng, d):
    m, n = gen.jitter(rng, 60, 4, 40, 80), gen.jitter(rng, 20, 2, 16, 24)
    rank = n - 6
    a = gen.matrix(rng, m, n, rank=rank)[0]

    def check(out):
        r = ck.matrix_block(out, "R")
        perm = [int(v) for v in ck.field(out, "perm").split(",")]
        ap = a[:, perm]
        return ck.first(
            None if ck.field(out, "rank") == str(rank) else f"rank {ck.field(out, 'rank')}, oracle {rank}",
            None if sorted(perm) == list(range(n)) else "perm is not a permutation",
            ck.close(r.T @ r, ap.T @ ap, 1e-3, "R^T R - (AP)^T AP"),
        )

    return _cli("qr_pivoted", ["qr", _write_csv(d / "qr.csv", a), "--method", "pivoted", "--mode", "r"], check)


def _cli_fit(rng, d):
    m = gen.jitter(rng, 60, 10, 30, 90)
    deg = int(rng.integers(3, 6))
    t = np.sort(rng.uniform(-1.0, 1.0, m))
    y = np.polyval(rng.standard_normal(deg + 1), t) + 0.05 * rng.standard_normal(m)
    v = np.vander(t, deg + 1, increasing=True)
    coef = np.linalg.lstsq(v, y, rcond=None)[0]
    return _cli("fit", ["fit", _write_csv(d / "fit.csv", np.c_[t, y]), "--degree", str(deg)],
                lambda out: ck.first(
                    ck.close(ck.numbers(ck.field(out, "coefficients")), coef, ATOL, "coefficients"),
                    ck.close(ck.numbers(ck.field(out, "cond")), [np.linalg.cond(v)], 1e-4, "cond")))


def _cli_pca(rng, d, rows=False):
    dim, n, k = gen.jitter(rng, 20, 2, 12, 30), gen.jitter(rng, 60, 6, 40, 80), 3
    x = gen.matrix(rng, dim, n, rank=6)[0] * 3.0 + rng.uniform(-5, 5, (dim, 1))
    xc = x - x.mean(axis=1, keepdims=True)
    u, s, _ = np.linalg.svd(xc, full_matrices=False)
    comps = u[:, :k]
    recon = comps @ (comps.T @ xc) + x.mean(axis=1, keepdims=True)

    def check(out):
        got = ck.matrix_block(out, "components")
        signs = np.sign(np.sum(got * comps, axis=0))
        return ck.first(
            ck.close(ck.numbers(ck.field(out, "variances")), s[:k] ** 2 / (n - 1), ATOL * 10, "variances"),
            ck.close(got * signs, comps, ATOL, "components"),
            ck.close(ck.matrix_block(out, "reduced"), recon.T if rows else recon, 5 * ATOL, "reduced"),
        )

    argv = ["pca", _write_csv(d / "pca.csv", x.T if rows else x), "--k", str(k)]
    if rows:
        argv += ["--samples-as", "rows"]
    return _cli("pca", argv, check, k_used=k)


def _cli_compress(rng, d):
    h, w = gen.jitter(rng, 64, 6, 40, 96), gen.jitter(rng, 64, 6, 40, 96)
    img = gen.quantized_image(rng, h, w, 4)
    k = int(rng.integers(4, 9))
    sig = np.linalg.svd(img, compute_uv=False)
    out_path = d / "compressed.pgm"

    def check(out):
        return ck.first(
            ck.close(ck.numbers(ck.field(out, "storage_ratio")), [(h + w + 1) * k / (h * w)], ATOL, "ratio"),
            ck.close(ck.numbers(ck.field(out, "sigma_tail")), sig[k:], 1e-4, "sigma_tail"),
            ck.check_pgm(out_path, ck.truncated(img, k)),
        )

    return _cli("compress", ["compress", _write_pgm(d / "img.pgm", img), str(out_path), "--k", str(k)],
                check, k_used=k)


def _cli_denoise(rng, d):
    h, w = gen.jitter(rng, 56, 6, 40, 96), gen.jitter(rng, 56, 6, 40, 96)
    img = gen.quantized_image(rng, h, w, 3)
    sig = np.linalg.svd(img, compute_uv=False)
    # Threshold in the widest relative gap among the leading values, so the
    # kept count is unambiguous.
    ratios = sig[1:8] / sig[:7]
    k = int(np.argmin(ratios)) + 1
    thr = float(np.sqrt(sig[k - 1] * sig[k]))
    out_path = d / "denoised.pgm"
    return _cli("denoise", ["denoise", str(_write_pgm(d / "noisy.pgm", img)), str(out_path),
                            "--threshold", repr(thr)],
                lambda out: ck.check_pgm(out_path, ck.truncated(img, k)), k_used=k)


def _cli_summarize(rng, d):
    n_sent = gen.jitter(rng, 30, 4, 20, 40)
    sentences = [" ".join(rng.choice(WORDS, int(rng.integers(5, 10)))) + f" s{j}" for j in range(n_sent)]
    terms: dict[str, int] = {}
    for s in sentences:
        for wd in s.split():
            terms.setdefault(wd, len(terms))
    a = np.zeros((len(terms), n_sent))
    for j, s in enumerate(sentences):
        for wd in s.split():
            a[terms[wd], j] += 1.0
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    sent_scores = np.abs(vt[0])
    term_scores = np.abs(u[:, 0])
    names = list(terms)
    top = 5
    path = d / "text.txt"
    path.write_text("\n".join(sentences) + "\n", encoding="utf-8")

    def check(out):
        printed = [t.strip() for t in ck.field(out, "top_terms").split(",")]
        cutoff = np.sort(term_scores)[::-1][top - 1] - 1e-9
        lines = out.splitlines()
        ranked = lines[lines.index("top_sentences:") + 1:]
        errs = [None if len(printed) == top else "top_terms count"]
        errs += [None if term_scores[names.index(t)] >= cutoff else f"term {t} not in top {top}" for t in printed]
        for line in ranked:
            _, score, text = line.split(": ", 2)
            errs.append(ck.close([float(score)], [sent_scores[sentences.index(text)]], ATOL, "sentence score"))
        return ck.first(*errs)

    return _cli("summarize", ["summarize", str(path), "--top", str(top)], check, k_used=1)


DIGIT_K = 5


def _digits_csv(path: Path, classes) -> str:
    rows = []
    for label, c in enumerate(classes):
        rows.append(np.c_[np.full(c.shape[1], label), c.T])
    np.savetxt(path, np.vstack(rows).astype(int), delimiter=",", fmt="%d")
    return str(path)


def _cli_train(rng, d):
    per = gen.jitter(rng, 16, 2, 10, 24)
    classes = gen.digit_classes(rng, per)
    model = d / "trained.okdm"
    want = [np.linalg.svd(c, full_matrices=False)[0][:, :DIGIT_K] for c in classes]

    def check(out):
        got = _read_model(model)
        errs = [None if ck.field(out, "k") == str(DIGIT_K) else "k"]
        for c, (g, w) in enumerate(zip(got, want)):
            errs.append(ck.close(g @ g.T, w @ w.T, 1e-8, f"class {c} subspace"))
        return ck.first(*errs)

    return _cli("digits_train", ["digits", "train", _digits_csv(d / "train.csv", classes), "--k", str(DIGIT_K),
                                 "--model", str(model)], check, k_used=10 * DIGIT_K)


def _read_model(path) -> list[np.ndarray]:
    raw = Path(path).read_bytes()
    k = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    blocks = np.frombuffer(raw[12:], dtype="<f8").reshape(10, 784, k)
    return list(blocks)


def _cli_classify(rng, d):
    per = gen.jitter(rng, 16, 2, 10, 24)
    classes = gen.digit_classes(rng, per + 3)
    bases = [np.linalg.svd(c[:, :per], full_matrices=False)[0][:, :DIGIT_K] for c in classes]
    model = d / "given.okdm"
    with open(model, "wb") as f:
        f.write(b"OKDM" + np.array([1, DIGIT_K], dtype="<u4").tobytes())
        for b in bases:
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    test = [c[:, per:] for c in classes]
    x = np.hstack(test)
    labels = np.repeat(np.arange(10), 3)
    resid = np.array([np.linalg.norm(x - b @ (b.T @ x), axis=0) for b in bases])
    pred = np.argmin(resid, axis=0)

    def check(out):
        got = [int(v) for v in ck.field(out, "labels").split(",")]
        acc = float(ck.numbers(ck.field(out, "accuracy"))[0])
        rows = np.array([ck.numbers(ck.field(out, f"residuals[{j}]")) for j in range(x.shape[1])]).T
        return ck.first(
            None if got == pred.tolist() else "labels differ from oracle classification",
            None if acc >= 0.9 else f"accuracy {acc} below 0.9",
            ck.close([acc], [np.mean(pred == labels)], ATOL, "accuracy"),
            ck.close(rows, resid, 1e-4, "residuals"),
        )

    return _cli("digits_classify", ["digits", "classify", "--model", str(model),
                                    _digits_csv(d / "test.csv", test)], check)


CLI_KINDS = (
    partial(_cli_svd_values, n=64), partial(_cli_svd_values, n=96), _cli_svd_full,
    _cli_solve, partial(_cli_solve, rank=18), _cli_qr, _cli_qr_pivoted, _cli_fit,
    _cli_pca, partial(_cli_pca, rows=True), _cli_compress, _cli_denoise, _cli_summarize,
    _cli_train, _cli_classify,
)


def cli_apps(rng, workdir: Path) -> list[Request]:
    """15 CLI requests, every command at least once, on files written to
    ``workdir``."""
    reqs = []
    for i, make in enumerate(CLI_KINDS):
        d = workdir / f"{i:02d}"
        d.mkdir(parents=True, exist_ok=True)
        reqs.append(make(rng, d))
    return reqs


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    deck: Callable  # (rng) -> requests, or (rng, workdir) for the CLI
    cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("svd-dense", svd_dense),
        Workload("lstsq-tall", lstsq_tall),
        Workload("small-batch", small_batch),
        Workload("cli-apps", cli_apps, cli=True),
    )
}

"""Compare the library's results bit for bit between the working tree and a
git revision.

    python3 scripts/lib_bits.py REV

Run from the repository root.  ``src/orthokit`` at REV is extracted with
``cli_bytes.package_source_at`` and imported beside the working tree as the
package ``orthokit_against``, as ``bench_layers.py --against`` does; BLAS
runs on one thread.  A fixed, seeded corpus then goes through every function
in the ``__all__`` of each core module (``CORE``), each called with its
default arguments (and the other ``norm`` kinds, ``svd``'s full shape, and
``T_DIGITS`` in ``qr_pivoted``, ``solve_qr_pivoted``, ``matrix_rank`` and
``default_rank_threshold``), so both sides accept the call:

- shapes from 1 x 1 to 300 x 120, tall, square and wide (``SHAPES``);
- five kinds of matrix (``KINDS``): dense standard-normal, rank-deficient
  (rank about half the smaller side), graded (rows and columns scaled down
  to 2^-60), zero-column (every third column zero) and clustered (U diag(sigma)
  V^T with the singular values in groups of four, each within 1e-13 relative
  of the others);
- four scales (``SCALES``): 2^0, 2^600, 2^-600 and 2^-1064, where every
  entry is subnormal.

The inputs each function takes beside A (a right-hand side, a square,
triangular, symmetric or Hessenberg block, a projector, a reflector, a
bidiagonal) are drawn or built with numpy from the same seed, not by the
library, so a change in one kernel shows only on the routines that run it.
A second, smaller corpus runs every function in ``orthokit.apps.__all__``
(``APP_CALLS``) on small inputs at the shapes ``APP_SHAPES``, at the same
four scales: polynomial fits, PCA, digit training and classification at 784
pixels, image compression and denoising, and text scoring.  The models,
images and term counts the apps take are built with numpy too.  The bytes
that ``save_digit_model``, ``write_digits_csv`` and ``write_pgm`` write are
compared, and each reader runs on what its own side's writer wrote.

Results are compared with ``bench_layers.same_bits``; a call that raises is
compared by the exception's type and message, and by
``ConvergenceError.partial``.  A ``RuntimeWarning`` is raised as an error,
so a leaked warning is compared too.  The script prints every call whose
results differ, and every core or app function the corpus does not call,
then the number of calls, and exits 1 if there is any difference.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from bench_layers import package_at, same_bits  # one BLAS thread, and the working tree's orthokit

import numpy as np

import orthokit
import orthokit.apps

CORE = ("matrix", "reflectors", "qr", "projectors", "svd", "lstsq")
SHAPES = ((1, 1), (1, 4), (4, 1), (2, 2), (3, 2), (2, 3), (6, 4), (4, 6), (10, 10), (25, 25), (26, 26),
          (40, 30), (30, 40), (60, 60), (60, 150), (300, 20), (300, 120))
KINDS = ("dense", "rank-deficient", "graded", "zero-column", "clustered")
SCALES = {"2^0": 0, "2^600": 600, "2^-600": -600, "2^-1064": -1064}
SEED = 2025
# jacobi_eig's cyclic sweep and qr_givens are Python loops over rotations:
# they take the leading block, or rows, of at most this many rows.
JACOBI_ROWS = 16
GIVENS_ROWS = 60
# The four functions that take the rank threshold's t_digits also run at
# these, beside the default 12; each refuses 0.
T_DIGITS = (0, 1, 6, 15)
APP_SHAPES = ((6, 4), (12, 8), (40, 24))
WORDS = ("the", "a", "of", "compute", "computing", "computed", "matrix", "matrices", "orthogonal",
         "rotation", "rotations", "reflected", "singular", "values", "value", "basis")
STOPWORDS = frozenset({"the", "a", "of"})


def base(m: int, n: int, kind: str, rng) -> np.ndarray:
    """An m x n matrix of the given kind with entries of order one."""
    a = rng.standard_normal((m, n))
    if kind == "rank-deficient":
        r = max(1, min(m, n) // 2)
        a = a[:, :r] @ rng.standard_normal((r, n))
    elif kind == "graded":
        a *= np.exp2(-np.linspace(0.0, 60.0, m))[:, None] * np.exp2(-np.linspace(0.0, 60.0, n))
    elif kind == "zero-column":
        a[:, ::3] = 0.0
    elif kind == "clustered":
        k = min(m, n)
        u, v = np.linalg.qr(a)[0], np.linalg.qr(rng.standard_normal((n, k)))[0]
        sigma = np.repeat(rng.uniform(1.0, 10.0, -(-k // 4)), 4)[:k] * (1.0 + 1e-13 * rng.uniform(-0.5, 0.5, k))
        a = (u * sigma) @ v.T
    return a


def inputs(m: int, n: int, kind: str, exponent: int, rng) -> SimpleNamespace:
    """A and everything the corpus passes beside it, scaled by 2^exponent
    where the function's result scales with its input."""
    a0 = base(m, n, kind, rng)
    k = min(m, n)
    sq = a0[:k, :k]
    b0, x = rng.standard_normal(m), rng.standard_normal(n)
    u = b0.copy()
    u[0] += np.copysign(np.linalg.norm(b0), b0[0])
    q = np.linalg.qr(a0)[0]  # m x k, orthonormal columns
    j = min(k, JACOBI_ROWS)
    s = 2.0**exponent
    return SimpleNamespace(
        a=a0 * s, b=b0 * s, x=x, k=k, sq=sq * s, sym=(sq + sq.T)[:j, :j] * s,
        spd=(sq.T @ sq + k * np.eye(k)) * s, tri=(np.triu(sq) + k * np.eye(k)) * s, rhs=x[:k] * s,
        hess=np.triu(sq, -1) * s, q=q, p=q @ q.T, d=np.diag(sq) * s, e=np.diag(sq, 1) * s,
        sigma=np.linalg.svd(a0, compute_uv=False) * s, u=u, beta=2.0 / float(u @ u),
        csv="".join(",".join(map(repr, row)) + "\n" for row in (a0 * s).tolist()),
        b_csv="".join(f"{t!r}\n" for t in (b0 * s).tolist()),
    )


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _written(ok, a, path: Path) -> bytes:
    ok.write_matrix_csv(a, path)
    return path.read_bytes()


# label -> call(ok, inputs); a label is the function's name, or the name and
# "-" and what its arguments select.
CALLS = {
    "as_matrix": lambda ok, v: ok.as_matrix(v.a),
    "as_vector": lambda ok, v: ok.as_vector(v.b),
    "mat_mul": lambda ok, v: ok.mat_mul(v.a, v.a.T),
    "transpose": lambda ok, v: ok.transpose(v.a),
    "norm": lambda ok, v: ok.norm(v.a),
    "norm-inf": lambda ok, v: ok.norm(v.a, "inf"),
    "norm-one": lambda ok, v: ok.norm(v.a, "one"),
    "back_sub": lambda ok, v: ok.back_sub(v.tri, v.rhs),
    "forward_sub": lambda ok, v: ok.forward_sub(v.tri.T, v.rhs),
    "cholesky": lambda ok, v: ok.cholesky(v.spd),
    "parse_matrix_csv": lambda ok, v: ok.parse_matrix_csv(v.csv),
    "read_matrix_csv": lambda ok, v: ok.read_matrix_csv(_write(v.tmp / "a.csv", v.csv)),
    "read_vector_csv": lambda ok, v: ok.read_vector_csv(_write(v.tmp / "b.csv", v.b_csv)),
    "write_matrix_csv": lambda ok, v: _written(ok, v.a, v.tmp / "out.csv"),
    "householder_vector": lambda ok, v: ok.householder_vector(v.b),
    "householder_matrix": lambda ok, v: ok.householder_matrix(ok.HouseholderReflector(v.u, v.beta)),
    "householder_apply_left": lambda ok, v: ok.householder_apply_left(ok.HouseholderReflector(v.u, v.beta), v.a),
    "householder_apply_right": lambda ok, v: ok.householder_apply_right(v.a.T, ok.HouseholderReflector(v.u, v.beta)),
    "givens_params": lambda ok, v: ok.givens_params(v.a[0, 0], v.a[-1, -1]),
    "givens_apply": lambda ok, v: ok.givens_apply(ok.GivensRotation(0.6, 0.8, 0, 1), v.a),
    "qr_householder": lambda ok, v: ok.qr_householder(v.a),
    "form_q": lambda ok, v: ok.form_q(ok.qr_householder(v.a, "r+u").reflectors, v.a.shape[0]),
    "qr_givens": lambda ok, v: ok.qr_givens(v.a[:GIVENS_ROWS]),
    "qr_hessenberg": lambda ok, v: ok.qr_hessenberg(v.hess),
    "qr_pivoted": lambda ok, v: ok.qr_pivoted(v.a),
    "is_projector": lambda ok, v: ok.is_projector(v.p, 1e-8),
    "complement": lambda ok, v: ok.complement(v.p),
    "projector_onto_range": lambda ok, v: ok.projector_onto_range(v.a),
    "projector_from_orthonormal": lambda ok, v: ok.projector_from_orthonormal(v.q),
    "split": lambda ok, v: ok.split(v.b, v.p),
    "bidiagonalize": lambda ok, v: ok.bidiagonalize(v.a),
    "bidiag_svd": lambda ok, v: ok.bidiag_svd(ok.Bidiagonal(v.d, v.e)),
    "svd": lambda ok, v: ok.svd(v.a),
    "svd-full": lambda ok, v: ok.svd(v.a, "full"),
    "singular_values": lambda ok, v: ok.singular_values(v.a),
    "jacobi_eig": lambda ok, v: ok.jacobi_eig(v.sym),
    "norm2": lambda ok, v: ok.norm2(v.a),
    "cond2": lambda ok, v: ok.cond2(v.a),
    "numerical_rank": lambda ok, v: ok.numerical_rank(v.sigma, 1e-10 * v.sigma[0]),
    "default_rank_threshold": lambda ok, v: ok.default_rank_threshold(v.a),
    "matrix_rank": lambda ok, v: ok.matrix_rank(v.a),
    "pseudoinverse": lambda ok, v: ok.pseudoinverse(v.a),
    "low_rank": lambda ok, v: ok.low_rank(v.a, max(1, v.k // 2)),
    "subspace_bases": lambda ok, v: ok.subspace_bases(v.a),
    "nearest_orthogonal": lambda ok, v: ok.nearest_orthogonal(v.sq),
    "distance_to_singular": lambda ok, v: ok.distance_to_singular(v.sq),
    "solve_normal": lambda ok, v: ok.solve_normal(v.a, v.b),
    "solve_qr": lambda ok, v: ok.solve_qr(v.a, v.b),
    "solve_qr_pivoted": lambda ok, v: ok.solve_qr_pivoted(v.a, v.b),
    "solve_svd": lambda ok, v: ok.solve_svd(v.a, v.b),
    "solve": lambda ok, v: ok.solve(v.a, v.b),
    "conditioning_report": lambda ok, v: ok.conditioning_report(v.a, v.b, v.x),
}
for _t in T_DIGITS:
    CALLS.update({
        f"qr_pivoted-t{_t}": lambda ok, v, t=_t: ok.qr_pivoted(v.a, t),
        f"solve_qr_pivoted-t{_t}": lambda ok, v, t=_t: ok.solve_qr_pivoted(v.a, v.b, t_digits=t),
        f"matrix_rank-t{_t}": lambda ok, v, t=_t: ok.matrix_rank(v.a, t),
        f"default_rank_threshold-t{_t}": lambda ok, v, t=_t: ok.default_rank_threshold(v.a, t),
    })


def app_inputs(m: int, n: int, exponent: int, rng) -> SimpleNamespace:
    """What the app corpus passes, scaled by 2^exponent where the data has a
    scale: ordinates, samples, pixels and term counts.  Digit samples and
    bases have the container's 784 rows."""
    s = 2.0**exponent
    k = max(1, min(m, n) // 2)
    x = rng.standard_normal((m, n))
    pixels = rng.uniform(0.0, 255.0, (m, n))
    counts = rng.integers(0, 3, (m, n)).astype(float)
    return SimpleNamespace(
        t=np.sort(rng.uniform(-1.0, 1.0, m)), y=rng.standard_normal(m) * s, degree=n // 2, x=x * s, k=k,
        components=np.linalg.qr(rng.standard_normal((m, k)))[0], mean=x.mean(axis=1) * s, variances=np.ones(k),
        classes=[rng.standard_normal((784, n)) * s for _ in range(10)],
        bases=[np.linalg.qr(rng.standard_normal((784, k)))[0] for _ in range(10)],
        digits=rng.standard_normal((784, m)) * s, labels=rng.integers(0, 10, m),
        pixels=pixels * s, threshold=float(np.median(np.linalg.svd(pixels, compute_uv=False))) * s,
        sentences=[" ".join(rng.choice(WORDS, m)) for _ in range(n)],
        terms=[f"t{i}" for i in range(m)], counts=counts * s,
    )


def _model_file(apps, v) -> Path:
    path = v.tmp / "model.okdm"
    apps.save_digit_model(apps.DigitModel(v.bases, v.k), path)
    return path


def _digits_file(apps, v) -> Path:
    path = v.tmp / "digits.csv"
    apps.write_digits_csv(path, v.digits, v.labels)
    return path


def _pgm_file(apps, v) -> Path:
    path = v.tmp / "image.pgm"
    apps.write_pgm(apps.GrayImage(v.pixels), path)
    return path


# label -> call(apps, inputs), as CALLS; ``apps`` is the package's apps module.
APP_CALLS = {
    "polyfit": lambda apps, v: apps.polyfit(v.t, v.y, v.degree),
    "pca_fit": lambda apps, v: apps.pca_fit(v.x, v.k),
    "pca_fit-rows": lambda apps, v: apps.pca_fit(v.x.T, v.k, "rows"),
    "pca_reduce": lambda apps, v: apps.pca_reduce(apps.PcaModel(v.mean, v.components, v.variances), v.x),
    "synth_digit_data": lambda apps, v: apps.synth_digit_data(2, classes=3, seed=v.k, dim=v.t.size),
    "digits_train": lambda apps, v: apps.digits_train(v.classes, v.k),
    "digits_classify": lambda apps, v: apps.digits_classify(apps.DigitModel(v.bases, v.k), v.digits),
    "save_digit_model": lambda apps, v: _model_file(apps, v).read_bytes(),
    "load_digit_model": lambda apps, v: apps.load_digit_model(_model_file(apps, v)),
    "write_digits_csv": lambda apps, v: _digits_file(apps, v).read_bytes(),
    "read_digits_csv": lambda apps, v: apps.read_digits_csv(_digits_file(apps, v)),
    "image_compress": lambda apps, v: apps.image_compress(apps.GrayImage(v.pixels), v.k),
    "image_denoise": lambda apps, v: apps.image_denoise(apps.GrayImage(v.pixels), v.threshold),
    "write_pgm": lambda apps, v: _pgm_file(apps, v).read_bytes(),
    "read_pgm": lambda apps, v: apps.read_pgm(_pgm_file(apps, v)),
    "tokenize": lambda apps, v: [apps.tokenize(sentence.upper()) for sentence in v.sentences],
    "stem": lambda apps, v: [apps.stem(word) for word in WORDS],
    "build_term_sentence": lambda apps, v: apps.build_term_sentence(v.sentences, STOPWORDS),
    "summarize_scores": lambda apps, v: apps.summarize_scores(apps.TermSentenceMatrix(v.terms, v.counts)),
}


def functions(*modules) -> set:
    """The functions in the ``__all__`` of each of ``modules``."""
    return {n for module in modules for n in module.__all__ if inspect.isfunction(getattr(module, n))}


@dataclass
class Raised:
    error: str
    message: str
    partial: object


def outcome(call, ok, v):
    """The call's result, or what it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return call(ok, v)
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return Raised(type(exc).__name__, str(exc), getattr(exc, "partial", None))


def describe(result) -> str:
    return f"raised {result.error}: {result.message}" if isinstance(result, Raised) else "returned"


def cases(ref):
    """``(calls, tree, against, inputs, where)`` for each input of the core
    corpus, then of the app corpus; ``tree`` and ``against`` are the modules
    the calls take."""
    for m, n in SHAPES:
        for kind in KINDS:
            for scale, exponent in SCALES.items():
                rng = np.random.default_rng([SEED, m, n, KINDS.index(kind), exponent + 2000])
                yield CALLS, orthokit, ref, inputs(m, n, kind, exponent, rng), f"{m}x{n} {kind} {scale}"
    apps, ref_apps = orthokit.apps, importlib.import_module(ref.__name__ + ".apps")
    for m, n in APP_SHAPES:
        for scale, exponent in SCALES.items():
            rng = np.random.default_rng([SEED, m, n, len(KINDS), exponent + 2000])
            yield APP_CALLS, apps, ref_apps, app_inputs(m, n, exponent, rng), f"{m}x{n} {scale}"


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[3].strip(), file=sys.stderr)
        return 2
    rev = sys.argv[1]
    called = {label.split("-")[0] for label in [*CALLS, *APP_CALLS]}
    core = [importlib.import_module(f"orthokit.{mod}") for mod in CORE]  # orthokit.svd is the function
    missing = sorted(functions(*core, orthokit.apps) - called)
    for name in missing:
        print(f"no corpus call for {name}")
    calls = diffs = 0
    with tempfile.TemporaryDirectory() as tmp:
        ref = package_at(rev, str(Path(tmp, "rev")))
        files = Path(tmp, "files")
        files.mkdir()
        for corpus, tree_module, ref_module, v, where in cases(ref):
            v.tmp = files
            for label, call in corpus.items():
                tree, old = outcome(call, tree_module, v), outcome(call, ref_module, v)
                calls += 1
                if not same_bits(tree, old):
                    diffs += 1
                    print(f"{label} {where}: tree {describe(tree)}; {rev} {describe(old)}")
    print(f"{calls - diffs} of {calls} calls bit-identical")
    return 1 if diffs or missing else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Layer timings of the Householder sweeps, the SVD and the two rotation
sweeps, written to ``BENCH_svd.json``.

    python3 scripts/bench_layers.py [--out BENCH_svd.json] [--repeats 5]

Run from the repository root; ``src`` is put on ``sys.path``.  BLAS runs on
one thread (the thread variables are set before numpy is imported).  Each
square size n in 44, 81, 118, 156 and 400 gets one standard-normal matrix
from the fixed seed 4242 + n, and each row times one layer on it:

- ``qr_householder``: Householder QR of A with its reflectors (mode
  ``r+u``), no Q formed
- ``qr_pivoted``: column-pivoted QR of A
- ``bidiagonalize``: phase one, Householder bidiagonalization of A
- ``phase2_values``: phase two on A's bidiagonal, singular values only
- ``phase2_vectors``: phase two with the singular vectors of B
  (``bidiag_svd``)
- ``svd``: the reduced ``svd`` of A, end to end
- ``numpy_svd``: ``numpy.linalg.svd`` of A, the ceiling

The single-leaf sizes n in 6, 16 and 25 (one divide-and-conquer leaf each,
the SVD path of the small-batch workload) get a ``phase2_vectors`` row
alone, from the seed 4242 + n, over twenty times ``--repeats`` calls.  The
sizes n in 60 and 100 (two merge levels at LEAF 25, the commonest size
class of the svd-dense workload) get ``phase2_values`` and
``phase2_vectors`` rows alone, from the seed 4242 + n.

The small sizes n in 6, 10 and 16 (the rotation sweeps, triangular
solves, Cholesky and projector splits of the small-batch workload) get
these rows, over twenty times ``--repeats`` calls each, from the seed
4242 + n:

- ``jacobi_eig``: a symmetric indefinite n x n matrix, S - 50 I with
  S = Q diag(d) Q^T, d uniform in [1, 100) and Q orthonormal
- ``qr_givens``: a standard-normal (n+2) x n matrix
- ``back_sub``: the n x n R of that matrix's Householder QR, with a
  standard-normal right-hand side drawn after it
- ``forward_sub``: the transpose of that R, the same right-hand side
- ``cholesky``: the symmetric positive definite S above
- ``qr_hessenberg``: the upper-Hessenberg part of a standard-normal n x n
  matrix drawn after the right-hand side
- ``split`` (n = 6 and 16 only): a standard-normal 2n-vector split by the
  ``projector_onto_range`` of a standard-normal 2n x n matrix, both drawn
  after the Hessenberg matrix

``solve_qr`` gets a row at 18 x 16 and 40 x 30, where the rule that picks
how Q^T b is applied would change (ROADMAP item 5), over twenty times
``--repeats`` calls each: a standard-normal m x n matrix and m-vector from
the seed 4242 + m + n.

``qr_pivoted`` gets a row at 6 x 3, 12 x 6, 20 x 10 and 32 x 16, the 2n x n
shapes on which the small-batch workload's ``solve`` and
``projector_onto_range`` requests run it, over twenty times ``--repeats``
calls each: a standard-normal m x n matrix from the seed 4242 + m + n.

``solve_qr_pivoted`` gets a row for each system that the lstsq-tall workload
sends it: 600 x 60 of rank 40, 1200 x 100 of rank 70 and 900 x 80 of full
rank, built as ``bench/workloads.py`` builds them (``gen.matrix`` with that
rank, unscaled, then ``gen.rhs_with_residual``) from the seed 4242 + m + n.

Each tall shape m x n in 600 x 60, 1000 x 100 and 1500 x 120 gets one
standard-normal matrix from the seed 4242 + m + n, timed in the rows
``qr_householder``, ``qr_pivoted``, ``form_q`` (the thin m x n Q from the
``r+u`` reflectors), ``back_sub`` (that R's n x n block, one standard-normal
right-hand side from the same seed), ``forward_sub`` (the transpose of that
block, the same right-hand side), ``solve`` (the default least-squares route
on A, a standard-normal m-vector drawn after A and b), ``split`` (that
m-vector split by the ``projector_onto_range`` of A), ``bidiagonalize``,
``singular_values`` and ``numpy_svdvals`` (``numpy.linalg.svd`` without
vectors, the ceiling).

Two more ``singular_values`` rows, at 60 x 60 and 300 x 120, take the
clustered kind of ``lib_bits.py`` (U diag(sigma) V^T with the singular values
in groups of four within 1e-13 relative) from the seed 4242 + m + n.

A row gives the minimum and the median wall time over ``--repeats`` calls
(a third as many, at least two, at n = 400).

    python3 scripts/bench_layers.py --against REV

compares the working tree with the git revision REV in one process instead,
and writes no file.  ``src/orthokit`` at REV is extracted with ``git
archive`` into a temporary directory as the package ``orthokit_against``
(the package imports only relatively, so the rename is enough).  For each
row, PAIRS = 61 pairs of calls alternate between the two copies, the order
swapped in every other pair, and the row prints the median ratio of the
tree's time to REV's with its quartiles, then ``identical`` if the two
copies' results are bit for bit the same (``same_bits``) and ``DIFFERENT``
if not.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "bench"))  # gen, the workloads' input generators

import numpy as np  # noqa: E402

import gen  # noqa: E402
import orthokit  # noqa: E402
from cli_bytes import package_source_at  # noqa: E402

SIZES = (44, 81, 118, 156, 400)
LEAF_SIZES = (6, 16, 25)
PHASE2_SIZES = (60, 100)
ROTATION_SIZES = (6, 10, 16)
TALL = ((600, 60), (1000, 100), (1500, 120))
SOLVE_QR = ((18, 16), (40, 30))
PIVOTED_SMALL = ((6, 3), (12, 6), (20, 10), (32, 16))
PIVOTED = ((600, 60, 40), (1200, 100, 70), (900, 80, 80))  # m, n, rank
CLUSTERED = ((60, 60), (300, 120))
SEED = 4242
# Alternating pairs per row with --against: at 61, an unchanged tree read
# within 1 +- 0.02 on 57 of 59 rows (within 1 +- 0.035 on all) on a noisy
# 2-core host.
PAIRS = 61


def _time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def cases(ok, repeats):
    """``(layer, m, n, call, calls)`` for every row, on the package ``ok``."""
    bidiagonal_svd = importlib.import_module(ok.__name__ + ".bidiagonal").bidiagonal_svd
    for n in LEAF_SIZES:
        a = np.random.default_rng(SEED + n).standard_normal((n, n))
        _, bid, _ = ok.bidiagonalize(a)
        yield "phase2_vectors", n, n, lambda: ok.bidiag_svd(bid), 20 * repeats
    for n in PHASE2_SIZES:
        a = np.random.default_rng(SEED + n).standard_normal((n, n))
        _, bid, _ = ok.bidiagonalize(a)
        yield "phase2_values", n, n, lambda: bidiagonal_svd(bid.d, bid.e, False), repeats
        yield "phase2_vectors", n, n, lambda: ok.bidiag_svd(bid), repeats
    for n in ROTATION_SIZES:
        rng = np.random.default_rng(SEED + n)
        q = ok.qr_householder(rng.standard_normal((n, n))).q
        s = (q * rng.uniform(1.0, 100.0, n)) @ q.T
        spd = 0.5 * (s + s.T)
        s = spd - 50.0 * np.eye(n)
        g = rng.standard_normal((n + 2, n))
        r, b = ok.qr_householder(g, "r+u").r[:n], rng.standard_normal(n)
        h = np.triu(rng.standard_normal((n, n)), -1)
        yield "jacobi_eig", n, n, lambda: ok.jacobi_eig(s), 20 * repeats
        yield "qr_givens", n + 2, n, lambda: ok.qr_givens(g), 20 * repeats
        yield "back_sub", n, n, lambda: ok.back_sub(r, b), 20 * repeats
        yield "forward_sub", n, n, lambda: ok.forward_sub(r.T, b), 20 * repeats
        yield "cholesky", n, n, lambda: ok.cholesky(spd), 20 * repeats
        yield "qr_hessenberg", n, n, lambda: ok.qr_hessenberg(h), 20 * repeats
        if n in (6, 16):
            p, v = ok.projector_onto_range(rng.standard_normal((2 * n, n))), rng.standard_normal(2 * n)
            yield "split", 2 * n, n, lambda: ok.split(v, p), 20 * repeats
    for m, n in SOLVE_QR:
        rng = np.random.default_rng(SEED + m + n)
        a, c = rng.standard_normal((m, n)), rng.standard_normal(m)
        yield "solve_qr", m, n, lambda: ok.solve_qr(a, c), 20 * repeats
    for m, n in PIVOTED_SMALL:
        a = np.random.default_rng(SEED + m + n).standard_normal((m, n))
        yield "qr_pivoted", m, n, lambda: ok.qr_pivoted(a), 20 * repeats
    for n in SIZES:
        a = np.random.default_rng(SEED + n).standard_normal((n, n))
        _, bid, _ = ok.bidiagonalize(a)
        layers = {
            "qr_householder": lambda: ok.qr_householder(a, "r+u"),
            "qr_pivoted": lambda: ok.qr_pivoted(a),
            "bidiagonalize": lambda: ok.bidiagonalize(a),
            "phase2_values": lambda: bidiagonal_svd(bid.d, bid.e, False),
            "phase2_vectors": lambda: ok.bidiag_svd(bid),
            "svd": lambda: ok.svd(a, "reduced"),
            "numpy_svd": lambda: np.linalg.svd(a, full_matrices=False),
        }
        for layer, fn in layers.items():
            yield layer, n, n, fn, repeats if n < 400 else max(2, repeats // 3)
    for m, n in TALL:
        rng = np.random.default_rng(SEED + m + n)
        a, b = rng.standard_normal((m, n)), rng.standard_normal(n)
        c = rng.standard_normal(m)
        f = ok.qr_householder(a, "r+u")
        p = ok.projector_onto_range(a)
        layers = {
            "qr_householder": lambda: ok.qr_householder(a, "r+u"),
            "qr_pivoted": lambda: ok.qr_pivoted(a),
            "form_q": lambda: ok.form_q(f.reflectors, m, cols=n),
            "back_sub": lambda: ok.back_sub(f.r[:n], b),
            "forward_sub": lambda: ok.forward_sub(f.r[:n].T, b),
            "solve": lambda: ok.solve(a, c),
            "split": lambda: ok.split(c, p),
            "bidiagonalize": lambda: ok.bidiagonalize(a),
            "singular_values": lambda: ok.singular_values(a),
            "numpy_svdvals": lambda: np.linalg.svd(a, compute_uv=False),
        }
        for layer, fn in layers.items():
            yield layer, m, n, fn, repeats
    for m, n, rank in PIVOTED:
        rng = np.random.default_rng(SEED + m + n)
        a = gen.matrix(rng, m, n, rank=rank)[0]
        c = gen.rhs_with_residual(rng, a)
        yield "solve_qr_pivoted", m, n, lambda: ok.solve_qr_pivoted(a, c), repeats
    from lib_bits import base  # lib_bits imports this module

    for m, n in CLUSTERED:
        a = base(m, n, "clustered", np.random.default_rng(SEED + m + n))
        yield "singular_values", m, n, lambda: ok.singular_values(a), repeats


def rows(repeats):
    for layer, m, n, fn, reps in cases(orthokit, repeats):
        fn()  # warm-up
        best, median = _time(fn, reps)
        yield {"layer": layer, "m": m, "n": n, "min_s": best, "median_s": median, "repeats": reps}


def same_bits(x, y) -> bool:
    """Whether two results hold the same bits: arrays and numbers byte for
    byte (so NaN payloads and the sign of zero count), None as None, and
    dataclasses, tuples and lists field by field.  Dataclasses from two
    package copies match by class name."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        names = [f.name for f in dataclasses.fields(x)]
        return type(x).__name__ == type(y).__name__ and same_bits(
            [getattr(x, f) for f in names], [getattr(y, f, None) for f in names])
    if isinstance(x, (tuple, list)):
        return isinstance(y, (tuple, list)) and len(x) == len(y) and all(map(same_bits, x, y))
    if x is None or y is None:
        return x is y
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def package_at(rev: str, into: str):
    """Import ``src/orthokit`` at the git revision ``rev``, extracted under
    ``into``, as the package ``orthokit_against``."""
    os.rename(package_source_at(rev, into) / "orthokit", Path(into, "orthokit_against"))
    sys.path.insert(0, into)
    return importlib.import_module("orthokit_against")


def compare(rev: str, pairs: int) -> None:
    """Print each row's ratio of the tree's time to ``rev``'s, the median and
    quartiles over ``pairs`` alternating pairs of calls, and whether the
    two results are bit for bit the same."""
    with tempfile.TemporaryDirectory() as tmp:
        ref = package_at(rev, tmp)
        gc.disable()  # a collection would land on one side of a pair
        print(f"time ratio, working tree / {rev}: median [q1, q3] over {pairs} pairs")
        for (layer, m, n, fn, _), (*_, fn_ref, _) in zip(cases(orthokit, 1), cases(ref, 1)):
            same = same_bits(fn(), fn_ref())  # also the warm-up
            ratios = []
            gc.collect()
            for i in range(pairs):
                t = {}
                for f in (fn, fn_ref) if i % 2 == 0 else (fn_ref, fn):
                    t0 = time.perf_counter()
                    f()
                    t[f] = time.perf_counter() - t0
                ratios.append(t[fn] / t[fn_ref])
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            print(f"{layer:15s} {m:4d}x{n:<4d}  {median:6.3f} [{q1:6.3f}, {q3:6.3f}]  "
                  f"{'identical' if same else 'DIFFERENT'}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_svd.json"))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--against", metavar="REV", help="compare the working tree with this git revision")
    args = parser.parse_args()
    if args.against:
        compare(args.against, PAIRS)
        return 0
    table = []
    for row in rows(args.repeats):
        table.append(row)
        print(f"{row['layer']:15s} {row['m']:4d}x{row['n']:<4d}  min {row['min_s'] * 1e3:9.2f} ms  "
              f"median {row['median_s'] * 1e3:9.2f} ms", flush=True)
    report = {
        "host": {"machine": platform.machine(), "cpu": _cpu_model(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__, "blas_threads": 1},
        "seed": SEED,
        "rows": table,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

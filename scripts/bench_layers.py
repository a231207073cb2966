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
alone, from the seed 4242 + n, over twenty times ``--repeats`` calls.

The small sizes n in 6, 10 and 16 (the rotation sweeps of the small-batch
workload) get two rows, over twenty times ``--repeats`` calls each, from
the seed 4242 + n:

- ``jacobi_eig``: a symmetric indefinite n x n matrix, Q diag(d) Q^T - 50 I
  with d uniform in [1, 100) and Q orthonormal
- ``qr_givens``: a standard-normal (n+2) x n matrix

Each tall shape m x n in 600 x 60, 1000 x 100 and 1500 x 120 gets one
standard-normal matrix from the seed 4242 + m + n, timed in the rows
``qr_householder``, ``qr_pivoted``, ``bidiagonalize``, ``singular_values``
and ``numpy_svdvals`` (``numpy.linalg.svd`` without vectors, the ceiling).

A row gives the minimum and the median wall time over ``--repeats`` calls
(a third as many, at least two, at n = 400).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import orthokit  # noqa: E402
from orthokit.bidiagonal import bidiagonal_svd  # noqa: E402

SIZES = (44, 81, 118, 156, 400)
LEAF_SIZES = (6, 16, 25)
ROTATION_SIZES = (6, 10, 16)
TALL = ((600, 60), (1000, 100), (1500, 120))
SEED = 4242


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


def _rows(m, n, layers, reps):
    for layer, fn in layers.items():
        fn()  # warm-up
        best, median = _time(fn, reps)
        yield {"layer": layer, "m": m, "n": n, "min_s": best, "median_s": median, "repeats": reps}


def rows(repeats):
    for n in LEAF_SIZES:
        a = np.random.default_rng(SEED + n).standard_normal((n, n))
        _, bid, _ = orthokit.bidiagonalize(a)
        yield from _rows(n, n, {"phase2_vectors": lambda: orthokit.bidiag_svd(bid)}, 20 * repeats)
    for n in ROTATION_SIZES:
        rng = np.random.default_rng(SEED + n)
        q = orthokit.qr_householder(rng.standard_normal((n, n))).q
        s = (q * rng.uniform(1.0, 100.0, n)) @ q.T
        s = 0.5 * (s + s.T) - 50.0 * np.eye(n)
        g = rng.standard_normal((n + 2, n))
        yield from _rows(n, n, {"jacobi_eig": lambda: orthokit.jacobi_eig(s)}, 20 * repeats)
        yield from _rows(n + 2, n, {"qr_givens": lambda: orthokit.qr_givens(g)}, 20 * repeats)
    for n in SIZES:
        a = np.random.default_rng(SEED + n).standard_normal((n, n))
        _, bid, _ = orthokit.bidiagonalize(a)
        layers = {
            "qr_householder": lambda: orthokit.qr_householder(a, "r+u"),
            "qr_pivoted": lambda: orthokit.qr_pivoted(a),
            "bidiagonalize": lambda: orthokit.bidiagonalize(a),
            "phase2_values": lambda: bidiagonal_svd(bid.d, bid.e, False, None),
            "phase2_vectors": lambda: orthokit.bidiag_svd(bid),
            "svd": lambda: orthokit.svd(a, "reduced"),
            "numpy_svd": lambda: np.linalg.svd(a, full_matrices=False),
        }
        yield from _rows(n, n, layers, repeats if n < 400 else max(2, repeats // 3))
    for m, n in TALL:
        a = np.random.default_rng(SEED + m + n).standard_normal((m, n))
        layers = {
            "qr_householder": lambda: orthokit.qr_householder(a, "r+u"),
            "qr_pivoted": lambda: orthokit.qr_pivoted(a),
            "bidiagonalize": lambda: orthokit.bidiagonalize(a),
            "singular_values": lambda: orthokit.singular_values(a),
            "numpy_svdvals": lambda: np.linalg.svd(a, compute_uv=False),
        }
        yield from _rows(m, n, layers, repeats)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_svd.json"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
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

"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with the BLAS thread variables already set in its
environment.  Prints provenance and diagnostic lines, then, as its last
line, the result object (see ``run.py``).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
import tracing
from workloads import WORKLOADS, Request

import orthokit.cli

ROOT = Path(__file__).resolve().parent.parent
# p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
SETUP_REPS = 11
IMPORT_PROBE = "import time; t = time.perf_counter(); import orthokit.cli; print(time.perf_counter() - t)"

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

FUNCTION_METRICS = (
    ("svd.svd.self_s", "s/req"),
    ("svd.bidiagonalize.self_s", "s/req"),
    ("svd.singular_values.self_s", "s/req"),
    ("svd.singular_values.calls", "calls/req"),
    ("svd.jacobi_eig.self_s", "s/req"),
    ("qr.qr_householder.self_s", "s/req"),
    ("qr.form_q.self_s", "s/req"),
    ("qr.form_q.gflops", "GFLOP/s"),
    ("qr.qr_pivoted.self_s", "s/req"),
    ("qr.qr_givens.self_s", "s/req"),
    ("qr.qr_hessenberg.self_s", "s/req"),
    ("lstsq.factorizations_per_request", "ratio"),
    ("lstsq.conditioning_report.self_s", "s/req"),
    ("matrix.as_matrix.calls", "calls/req"),
    ("matrix.as_matrix.self_s", "s/req"),
    ("matrix.back_sub.self_s", "s/req"),
    ("matrix.forward_sub.self_s", "s/req"),
    ("matrix.cholesky.self_s", "s/req"),
    ("matrix.parse_matrix_csv.self_s", "s/req"),
    ("reflectors.householder_vector.calls", "calls/req"),
    ("reflectors.givens_params.calls", "calls/req"),
    ("projectors.projector_onto_range.self_s", "s/req"),
    ("apps.read_digits_csv.self_s", "s/req"),
    ("apps.digits_train.self_s", "s/req"),
    ("apps.pca_fit.self_s", "s/req"),
    ("apps.svd_cols_used_frac", "ratio"),
    ("cli.run.self_s", "s/req"),
    ("cli.import_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in print order."""
    units = {}
    for layer in tracing.LAYER_NAMES:
        units[f"{layer}.self_s"] = "s/req"
        units[f"{layer}.calls"] = "calls/req"
        units[f"{layer}.errors"] = "count"
    units.update(FUNCTION_METRICS)
    return units


# ---------------------------------------------------------------------------
# Executing requests.


def call_library(req: Request):
    """Time one library request; returns ``(seconds, answer, error)``."""
    t0 = perf_counter()
    try:
        out = req.call()
    except Exception as exc:  # any exception is a failed request
        return perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, None


def call_cli(req: Request):
    """Time one CLI request as a subprocess."""
    t0 = perf_counter()
    p = subprocess.run([sys.executable, "-m", "orthokit.cli", *req.argv],
                       capture_output=True, text=True, check=False)
    dt = perf_counter() - t0
    if p.returncode != 0:
        return dt, None, f"exit code {p.returncode}: {p.stderr.strip()[-200:]}"
    return dt, (p.returncode, p.stdout), None


def call_cli_in_process(req: Request):
    """Replay a CLI request through ``orthokit.cli.run`` with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = orthokit.cli.run(req.argv)
    except Exception as exc:
        return perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - t0, (code, out.getvalue()), None


def check(req: Request, answer, error):
    if error is not None:
        return error
    try:
        return req.check(*answer) if req.argv is not None else req.check(answer)
    except Exception as exc:  # a check that cannot read the answer is a miss
        return f"check raised {type(exc).__name__}: {exc}"


def rotation_loop() -> float:
    """Seconds taken by 400 plane rotations of 64-long numpy columns with
    Python scalar work in between: interpreter-bound, like svd phase 2
    and the per-call overhead of small problems."""
    a = np.ones((64, 64))
    acc = 0.0
    t0 = perf_counter()
    for k in range(400):
        j = k % 63
        t = 0.6 * a[:, j] + 0.8 * a[:, j + 1]
        a[:, j + 1] = -0.8 * a[:, j] + 0.6 * a[:, j + 1]
        a[:, j] = t
        acc += abs(float(a[k % 64, j]))
    return perf_counter() - t0


_UNIT = np.full(600, 600 ** -0.5)


def rank1_loop() -> float:
    """Seconds taken by 20 rank-1 updates of a 600 x 60 array: memory-bound,
    like the Householder sweeps of tall least-squares problems."""
    a = np.ones((600, 60))
    t0 = perf_counter()
    for _ in range(20):
        a -= np.outer(_UNIT, _UNIT @ a)
    return perf_counter() - t0


# End-to-end times are reported at reference host speed: wall seconds times
# the loop's reference time over its time measured just before and after.
# On a shared host the same work can run at half speed for seconds at a
# time; each workload uses the loop whose time tracked its own best under
# that contention (baseline.json, "calibration", has the ten-seed
# comparison).  The reference is about the loop's time on an uncontended
# core of the 2-core x86-64 host the baseline was recorded on; it only
# sets the unit of the normalized times, which compare across commits.
CALIBRATION = {
    "svd-dense": (rotation_loop, 2.0e-3),
    "small-batch": (rotation_loop, 2.0e-3),
    "lstsq-tall": (rank1_loop, 1.3e-3),
    "cli-apps": (rank1_loop, 1.3e-3),
}


def host_speed(wl, before: float, after: float) -> float:
    """The loop's reference time over the mean of its two measured times."""
    return 2.0 * CALIBRATION[wl.name][1] / (before + after)


class Log:
    """Latencies and outcomes of the requests of one run.  Each latency
    carries ``speed``: the calibration loop's reference time over the mean
    of its times measured just before and just after the request."""

    def __init__(self):
        self.latency: list[float] = []
        self.speed: list[float] = []
        self.kinds: list[str] = []
        self.decks: list[int] = []
        self.ok: list[bool] = []
        self.failures: list[str] = []
        self.ceiling: list[float] = []
        self.ceiling_orthokit: list[float] = []

    def record(self, req: Request, deck: int, seconds: float, error, speed: float = 1.0) -> None:
        self.latency.append(seconds)
        self.speed.append(speed)
        self.kinds.append(req.kind)
        self.decks.append(deck)
        self.ok.append(error is None)
        if error is not None:
            self.failures.append(f"{req.kind} {req.shape} 2^{req.exponent}: {error}")

    def _per_deck(self, normalized: bool):
        decks = defaultdict(list)
        for d, t, f, good in zip(self.decks, self.latency, self.speed, self.ok):
            decks[d].append((t * f if normalized else t, good))
        return decks.values()

    def throughput(self, normalized: bool = True) -> float:
        """Completed requests per second of request time, per deck (each
        deck holds the whole request mix), median over decks: a burst of
        load on the host during part of the run moves it little."""
        return statistics.median(sum(g for _, g in d) / sum(t for t, _ in d)
                                 for d in self._per_deck(normalized))

    def latency_quantile(self, q: float, normalized: bool = True) -> float:
        """The q-quantile of request latency, per deck, median over decks."""
        return statistics.median(quantile([t for t, _ in d], q) for d in self._per_deck(normalized))

    @property
    def attempted(self) -> int:
        return len(self.latency)


def make_deck(wl, seed: int, index: int, workdir: Path) -> list[Request]:
    rng = gen.rng_for(seed, wl.name, index)
    return wl.deck(rng, workdir) if wl.cli else wl.deck(rng)


def import_seconds() -> float:
    """Time for a fresh interpreter to import the whole package."""
    p = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True)
    return float(p.stdout)


class Setup:
    """One set-up: import the package in a fresh interpreter, generate (and
    write) deck 0, and run a fixed warm-up request.  Repeated SETUP_REPS
    times, spread over the run so a burst of load on the host moves the
    medians little."""

    def __init__(self, wl, seed: int, workdir: Path):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.warm = make_deck(wl, 0, 0, workdir / "warmup")[0]
        self.imports: list[float] = []
        self.times: list[float] = []
        self.times_normalized: list[float] = []

    def rep(self) -> list[Request]:
        loop = CALIBRATION[self.wl.name][0]
        before = loop()
        t0 = perf_counter()
        self.imports.append(import_seconds())
        deck = make_deck(self.wl, self.seed, 0, self.workdir)
        _, answer, error = call_cli(self.warm) if self.wl.cli else call_library(self.warm)
        self.times.append(perf_counter() - t0)
        self.times_normalized.append(self.times[-1] * host_speed(self.wl, before, loop()))
        error = check(self.warm, answer, error)
        if error is not None:
            raise RuntimeError(f"warm-up request {self.warm.kind} failed: {error}")
        return deck


def decks(wl, seed: int, seconds: float, setup: Setup, workdir: Path, min_samples: int = 0):
    """Yield whole decks until the one whose end lies nearest to
    ``seconds`` of request-loop time (and at least ``min_samples``
    requests).  Set-up repeats run between decks, evenly in time, and are
    not counted in the loop time.  A finished deck is emptied before more
    inputs are made, so the run holds one deck's inputs at a time."""
    deck = setup.rep()
    start = perf_counter()
    paused = 0.0
    index, done = 0, 0
    while True:
        yield deck
        index += 1
        done += len(deck)
        deck.clear()
        elapsed = perf_counter() - start - paused
        if len(setup.times) < SETUP_REPS and elapsed >= len(setup.times) * seconds / SETUP_REPS:
            t0 = perf_counter()
            setup.rep()
            paused += perf_counter() - t0
        if done >= min_samples and elapsed + 0.5 * elapsed / index >= seconds:
            break
        deck = make_deck(wl, seed, index, workdir)
    while len(setup.times) < SETUP_REPS:
        setup.rep()


# ---------------------------------------------------------------------------
# The two kinds of run.


def timed_run(wl, seed, seconds, setup, workdir):
    log = Log()
    for n, deck in enumerate(decks(wl, seed, seconds, setup, workdir, MIN_SAMPLES)):
        timed_deck(wl, log, n, deck)
    return log


def timed_deck(wl, log: Log, n: int, deck: list[Request]) -> None:
    """Run and check one deck.  Its answers die with this frame, before the
    next deck is made."""
    loop = CALIBRATION[wl.name][0]
    before = loop()
    for req in deck:
        dt, answer, error = call_cli(req) if wl.cli else call_library(req)
        after = loop()
        log.record(req, n, dt, check(req, answer, error), host_speed(wl, before, after))
        before = after


def traced_run(wl, seed, seconds, setup, workdir):
    """Each deck runs twice in process, untraced and traced (alternating
    which goes first); the CLI's argv is replayed through ``cli.run``.
    The numpy ceiling is timed after each untraced library request that
    passed; it runs here, not in the timed run, so that its memory does not
    count in ``peak_rss_mib``."""
    log = Log()
    tracer = tracing.Tracer()
    totals = tracing.Totals()
    untraced = 0.0
    execute = call_cli_in_process if wl.cli else call_library
    for n, deck in enumerate(decks(wl, seed, seconds, setup, workdir)):
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                for req in deck:
                    if traced:
                        tracer.begin()
                    dt, answer, error = execute(req)
                    if traced:
                        totals.add(tracer.end(), tracer.counts, req.k_used)
                    else:
                        untraced += dt
                    log.record(req, n, dt, check(req, answer, error))
                    if not traced and req.ceiling is not None and log.ok[-1]:
                        t0 = perf_counter()
                        req.ceiling()
                        log.ceiling.append(perf_counter() - t0)
                        log.ceiling_orthokit.append(dt)
            finally:
                tracer.uninstall()
    return log, totals, untraced


def layer_metrics(totals: tracing.Totals, untraced: float, import_s: float, cli: bool) -> dict[str, float]:
    n = max(totals.requests, 1)
    out = {}
    for name, unit in per_layer_units().items():
        key, _, stat = name.rpartition(".")
        if stat == "self_s":
            out[name] = totals.self_s.get(key, 0.0) / n
        elif stat == "calls":
            out[name] = totals.calls.get(key, 0) / n
        elif stat == "errors":
            out[name] = totals.errors.get(key, 0)
    fq = totals.self_s.get("qr.form_q", 0.0)
    out["qr.form_q.gflops"] = totals.form_q_flops / fq / 1e9 if fq > 0.0 else 0.0
    out["lstsq.factorizations_per_request"] = totals.lstsq_factorizations / max(totals.lstsq_requests, 1)
    out["apps.svd_cols_used_frac"] = totals.k_used / totals.u_cols if totals.u_cols else 0.0
    out["cli.import_s"] = import_s if cli else 0.0
    out["trace.overhead_frac"] = totals.wall / untraced - 1.0 if untraced > 0.0 else 0.0
    out["trace.unattributed_frac"] = totals.unattributed / totals.wall if totals.wall > 0.0 else 0.0
    return out


# ---------------------------------------------------------------------------


def provenance(seed: int, log: Log) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "samples": log.attempted,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def quantile(values, q: float) -> float:
    """The latency of one request: the smallest value with at least a
    share q of the values at or below it."""
    return float(np.quantile(np.asarray(values), q, method="inverted_cdf"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = Setup(wl, args.seed, workdir)
        if args.trace:
            log, totals, untraced = traced_run(wl, args.seed, args.seconds, setup, workdir)
        else:
            log = timed_run(wl, args.seed, args.seconds, setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(log.failures)
    for line in log.failures[:20]:
        print("FAILED", line, file=sys.stderr)
    print("provenance", json.dumps(provenance(args.seed, log)))
    p90 = log.latency_quantile(0.9)
    print("requests", json.dumps({
        "attempted": log.attempted,
        "failed": failed,
        "failed_frac": failed / log.attempted,
        "beyond_p90": sum(t * f > p90 for t, f in zip(log.latency, log.speed)),
        "clients": 1,
        "loop": "closed",
    }))
    by_kind = {}
    for kind, t in zip(log.kinds, log.latency):
        by_kind.setdefault(kind, []).append(t)
    print("kinds", json.dumps({k: {"n": len(v), "p50_wall_s": statistics.median(v)} for k, v in by_kind.items()}))

    if args.trace:
        metrics = layer_metrics(totals, untraced, statistics.median(setup.imports), wl.cli)
        units = per_layer_units()
        wall = totals.wall
        shares = {layer: totals.self_s.get(layer, 0.0) / wall for layer in tracing.LAYER_NAMES}
        shares["unattributed"] = totals.unattributed / wall
        print("layer_shares", json.dumps(shares))
        print("lstsq_factorizations", json.dumps({
            "factorizations": totals.lstsq_factorizations, "lstsq_requests": totals.lstsq_requests}))
        print("svd_cols", json.dumps({"k_used": totals.k_used, "u_cols_formed": totals.u_cols}))
        if log.ceiling:
            print("ceiling", json.dumps({
                "numpy_ops_per_s": len(log.ceiling) / sum(log.ceiling),
                "numpy_p50_s": statistics.median(log.ceiling),
                "orthokit_over_numpy": sum(log.ceiling_orthokit) / sum(log.ceiling),
            }))
    else:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.cli else resource.RUSAGE_SELF)
        metrics = {
            "ops_per_s": log.throughput(),
            "op_p50_s": log.latency_quantile(0.5),
            "op_p90_s": p90,
            "setup_s": statistics.median(setup.times_normalized),
            "peak_rss_mib": usage.ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print("wall_clock", json.dumps({
            "ops_per_s": log.throughput(normalized=False),
            "op_p50_s": log.latency_quantile(0.5, normalized=False),
            "op_p90_s": log.latency_quantile(0.9, normalized=False),
            "setup_s": statistics.median(setup.times),
            "host_speed": statistics.median(log.speed),
        }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": log.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself:  PYTHONPATH=src python3 -m pytest bench"""

from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import orthokit as ok  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_request_of_a_deck_passes_its_check(name, tmp_path):
    wl = WORKLOADS[name]
    deck = worker.make_deck(wl, 7, 0, tmp_path)
    assert deck
    for req in deck:
        dt, answer, error = worker.call_cli(req) if wl.cli else worker.call_library(req)
        assert worker.check(req, answer, error) is None, (req.kind, req.exponent)
        assert dt > 0.0


def test_lstsq_scale_mix():
    deck = worker.make_deck(WORKLOADS["lstsq-tall"], 7, 0, None)
    lstsq = {"solve", "solve_qr_pivoted", "conditioning_report"}
    assert sorted(r.exponent for r in deck if r.kind in lstsq) == [-300] * 3 + [0] * 3 + [300] * 3
    assert sorted(r.exponent for r in deck if r.kind in {"qr_householder", "form_q_thin"}) == [-900, 0, 0, 900]


@pytest.mark.xfail(strict=True, reason="residual and conditioning norms are unscaled (ROADMAP item 2); "
                   "when this passes, move lstsq-tall's solves to gen.EXTREME_EXPONENTS")
@pytest.mark.parametrize("exponent", [-900, 900])
def test_lstsq_at_extreme_scale(exponent):
    """The defect that keeps lstsq-tall's solves within 2^+-300."""
    import checks

    rng = np.random.default_rng(5)
    a = gen.matrix(rng, 400, 40, exponent=exponent)[0]
    b = gen.rhs_with_residual(rng, a)
    assert checks.check_lstsq(a, b, ok.solve(a, b), 40, False) is None
    x = np.linalg.lstsq(a / checks.pow2(a), b / checks.pow2(a), rcond=None)[0]
    assert checks.check_conditioning(a, b, x, ok.conditioning_report(a, b, x)) is None


@pytest.mark.parametrize("name", ["svd-dense", "lstsq-tall", "small-batch"])
def test_oracle_memory_stays_below_the_program(name):
    """peak_rss_mib is the worker's high-water mark, so deck generation and
    the checks, which run in the same process, must peak below the program's
    own calls (numpy reports its arrays to tracemalloc)."""
    wl = WORKLOADS[name]
    peaks = {"call": 0, "check": 0, "make_deck": 0}
    tracemalloc.start()
    try:
        for index in range(2):
            tracemalloc.reset_peak()
            deck = worker.make_deck(wl, 7, index, None)
            peaks["make_deck"] = max(peaks["make_deck"], tracemalloc.get_traced_memory()[1])
            for req in deck:
                tracemalloc.reset_peak()
                _, answer, error = worker.call_library(req)
                peaks["call"] = max(peaks["call"], tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                worker.check(req, answer, error)
                peaks["check"] = max(peaks["check"], tracemalloc.get_traced_memory()[1])
                del answer
            deck.clear()
    finally:
        tracemalloc.stop()
    assert peaks["check"] < peaks["call"] and peaks["make_deck"] < peaks["call"], peaks


def test_cli_replay_in_process_traced(tmp_path):
    wl = WORKLOADS["cli-apps"]
    deck = worker.make_deck(wl, 7, 0, tmp_path)
    tracer, totals = tracing.Tracer(), tracing.Totals()
    tracer.install()
    try:
        for req in deck:
            tracer.begin()
            _, answer, error = worker.call_cli_in_process(req)
            totals.add(tracer.end(), tracer.counts, req.k_used)
            assert worker.check(req, answer, error) is None, req.kind
    finally:
        tracer.uninstall()
    assert totals.calls["cli.run"] == len(deck)
    assert totals.self_s["cli.run"] > 0.0
    # Two solves (pivoted QR, then QR or SVD, then the values for cond)
    # and fit (QR, then the values for cond).
    assert totals.lstsq_requests == 3
    assert totals.lstsq_factorizations == 8
    assert 0 < totals.k_used < totals.u_cols


def test_same_seed_same_inputs():
    wl = WORKLOADS["svd-dense"]
    a = worker.make_deck(wl, 3, 2, None)
    b = worker.make_deck(wl, 3, 2, None)
    c = worker.make_deck(wl, 4, 2, None)
    fa, fb, fc = a[0].call(), b[0].call(), c[0].call()
    assert np.array_equal(fa.sigma, fb.sigma)
    assert fa.sigma.shape != fc.sigma.shape or not np.array_equal(fa.sigma, fc.sigma)


def test_prescribed_spectrum_and_scale():
    rng = np.random.default_rng(0)
    a, sigma = gen.matrix(rng, 30, 12, "graded", rank=8, exponent=900)
    s = 2.0 ** 900
    got = np.linalg.svd(a / s, compute_uv=False) * s
    assert np.allclose(got[:8], sigma[:8], rtol=1e-10)
    assert np.all(got[8:] < 1e-12 * got[0])


def test_wrong_answers_count_as_failed(monkeypatch, capsys):
    """A broken jacobi_eig fails its four requests of the small-batch deck;
    the run still reports, with correct = false."""
    def wrong(s, max_sweeps=30):
        w, v = real(s, max_sweeps)
        return w * (1.0 + 1e-6), v

    real = ok.jacobi_eig
    monkeypatch.setattr(ok, "jacobi_eig", wrong)
    monkeypatch.setattr(worker, "MIN_SAMPLES", 0)
    monkeypatch.setattr(worker, "SETUP_REPS", 1)
    assert worker.main(["--workload", "small-batch", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    requests = json.loads(next(l for l in lines if l.startswith("requests "))[len("requests "):])
    assert result["correct"] is False
    assert result["failed"] == 4 and result["attempted"] == 35
    assert requests["failed_frac"] == 4 / 35
    assert set(result["metrics"]) == set(worker.END_TO_END)


def test_times_are_scaled_by_host_speed():
    log = worker.Log()
    req = worker.Request("k", check=None)
    for deck in range(3):
        log.record(req, deck, 0.2, None, speed=0.5)
        log.record(req, deck, 0.4, None, speed=0.5)
    log.record(req, 3, 9.0, "wrong", speed=0.5)
    assert log.throughput() == pytest.approx(2 / 0.3)
    assert log.throughput(normalized=False) == pytest.approx(2 / 0.6)
    assert log.latency_quantile(0.5) == pytest.approx(0.1)
    assert log.latency_quantile(0.9) == pytest.approx(0.2)
    assert len(log.failures) == 1


def test_cli_exit_code_is_checked(tmp_path):
    wl = WORKLOADS["cli-apps"]
    req = worker.make_deck(wl, 7, 0, tmp_path)[0]
    req.argv = req.argv + ["--no-such-flag"]
    _, answer, error = worker.call_cli(req)
    assert worker.check(req, answer, error).startswith("exit code 1: usage error")


def _span(name, start, end, parent):
    return [name, start, end, parent, False, None]


def test_self_times_on_a_hand_built_tree():
    spans = [
        _span("request", 0.0, 10.0, -1),
        _span("lstsq.solve", 1.0, 9.0, 0),
        _span("qr.qr_pivoted", 1.5, 3.5, 1),
        _span("matrix.as_matrix", 2.0, 2.5, 2),
        _span("qr.qr_householder", 4.0, 8.0, 1),
        _span("reflectors.householder_vector", 5.0, 5.5, 4),
        _span("reflectors.householder_vector", 6.0, 7.5, 4),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.5, 0.5, 2.0, 0.5, 1.5])

    totals = tracing.Totals()
    totals.add(spans, {"reflectors.givens_params": 3})
    assert totals.wall == 10.0
    assert totals.unattributed == pytest.approx(2.0)
    assert totals.self_s["qr"] == pytest.approx(3.5)
    assert totals.self_s["reflectors"] == pytest.approx(2.0)
    assert totals.calls["reflectors"] == 5
    assert totals.calls["reflectors.givens_params"] == 3
    assert totals.lstsq_requests == 1 and totals.lstsq_factorizations == 2
    layers = sum(totals.self_s[layer] for layer in tracing.LAYER_NAMES)
    assert layers + totals.unattributed == pytest.approx(totals.wall)


def test_overlapping_children_are_covered_once():
    spans = [
        _span("request", 0.0, 4.0, -1),
        _span("a.x", 0.5, 2.0, 0),
        _span("a.y", 1.5, 3.0, 0),
        _span("a.z", 3.5, 5.0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0 - 2.5 - 0.5)


def test_tracer_wraps_every_namespace_and_restores():
    import orthokit.lstsq as lstsq_mod
    import orthokit.svd as _  # noqa: F401  (the package attribute is the function)

    svd_mod = sys.modules["orthokit.svd"]
    original = svd_mod.svd
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ok.svd is not original and lstsq_mod.svd is ok.svd and svd_mod.svd is ok.svd
        tracer.begin()
        ok.pseudoinverse(np.random.default_rng(0).standard_normal((5, 4)))
        names = [s[0] for s in tracer.end()]
    finally:
        tracer.uninstall()
    assert ok.svd is original and lstsq_mod.svd is original
    assert names[1] == "svd.pseudoinverse" and "svd.svd" in names and "svd.bidiagonalize" in names
    assert tracer.counts["reflectors.givens_params"] > 0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.per_layer_units()

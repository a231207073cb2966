"""Command-line front end: factorizations, solvers, and the applications
over CSV/PGM/text files.

All numeric output is fixed-point at a configurable number of decimals
(default 6, overridable by --precision or the OK_PRECISION environment
variable) with a '.' separator, so identical inputs produce byte-identical
output.  Exit codes: 0 success, 1 usage or input-format problems, 2
numerical failure (one machine-parseable reason line on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, NumericalError, ShapeError
from .lstsq import conditioning_report, solve, solve_normal, solve_qr, solve_qr_pivoted, solve_svd
from .matrix import DEFAULT_T_DIGITS, read_matrix_csv, read_text, read_vector_csv
from .qr import QrMode, form_q, qr_givens, qr_householder, qr_pivoted
from .svd import singular_values, svd
from .apps.digits import (
    NUM_CLASSES,
    digits_classify,
    digits_train,
    load_digit_model,
    read_digits_csv,
    save_digit_model,
    synth_digit_data,
    write_digits_csv,
)
from .apps.fitting import polyfit
from .apps.image import GrayImage, image_denoise, read_pgm, write_pgm
from .apps.image import _compress as _image_compress
from .apps.pca import pca_fit, pca_reduce
from .apps.text import build_term_sentence, summarize_scores

__all__ = ["run", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(value: float, prec: int) -> str:
    v = float(value) + 0.0  # normalizes -0.0
    return f"{v:.{prec}f}"


def _fmt_vec(v, prec: int) -> str:
    return ", ".join(_fmt(x, prec) for x in np.asarray(v, dtype=float).ravel())


def _print_matrix(name: str, a, prec: int) -> None:
    print(f"{name} =")
    for row in np.asarray(a, dtype=float):
        print(_fmt_vec(row, prec))


def _build_parser() -> _Parser:
    p = _Parser(prog="orthokit", description="dense orthogonal factorizations and applications")
    p.add_argument("--precision", type=int, default=None, help="output decimals (1..17, default 6)")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("qr", help="QR factorization of a CSV matrix")
    q.add_argument("matrix")
    q.add_argument("--method", choices=["householder", "givens", "pivoted"], default="householder")
    q.add_argument("--mode", choices=["r", "qr"], default="qr")
    q.add_argument("--t-digits", type=int, default=DEFAULT_T_DIGITS)

    s = sub.add_parser("svd", help="singular value decomposition of a CSV matrix")
    s.add_argument("matrix")
    s.add_argument("--reduced", action="store_true")
    s.add_argument("--values-only", action="store_true")

    so = sub.add_parser("solve", help="least squares solve of A x ~= b")
    so.add_argument("matrix")
    so.add_argument("rhs")
    so.add_argument("--method", choices=["auto", "normal", "qr", "qr-pivoted", "svd"], default="auto")

    f = sub.add_parser("fit", help="polynomial fit to (t, y) rows of a CSV file")
    f.add_argument("data")
    f.add_argument("--degree", type=int, required=True)

    pc = sub.add_parser("pca", help="principal component analysis of a CSV data matrix")
    pc.add_argument("matrix")
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--samples-as", choices=["rows", "cols"], default="cols")

    c = sub.add_parser("compress", help="rank-k image compression (PGM in/out)")
    c.add_argument("input")
    c.add_argument("output")
    c.add_argument("--k", type=int, required=True)

    d = sub.add_parser("denoise", help="drop singular components at or below a threshold")
    d.add_argument("input")
    d.add_argument("output")
    d.add_argument("--threshold", type=float, required=True)

    sm = sub.add_parser("summarize", help="score terms and sentences of a text file")
    sm.add_argument("text")
    sm.add_argument("--stopwords", default=None)
    sm.add_argument("--top", type=int, default=5)

    dg = sub.add_parser("digits", help="digit classification (train/classify/synth)")
    dsub = dg.add_subparsers(dest="digits_command", required=True)
    dt = dsub.add_parser("train", help="train per-class singular bases")
    dt.add_argument("source", help="labeled CSV file, or directory with 0.csv .. 9.csv")
    dt.add_argument("--k", type=int, required=True)
    dt.add_argument("--model", required=True)
    dc = dsub.add_parser("classify", help="classify test vectors against a model")
    dc.add_argument("test")
    dc.add_argument("--model", required=True)
    ds = dsub.add_parser("synth", help="emit a synthetic labeled dataset")
    ds.add_argument("--classes", type=int, default=10)
    ds.add_argument("--per-class", type=int, required=True)
    ds.add_argument("--seed", type=int, default=0)
    ds.add_argument("--out", required=True)
    return p


def _resolve_precision(args) -> int:
    prec = args.precision
    if prec is None:
        env = os.environ.get("OK_PRECISION")
        prec = int(env) if env else 6
    if not 1 <= prec <= 17:
        raise UsageError(f"precision must be in [1, 17], got {prec}")
    return prec


def _cmd_qr(args, prec):
    a = read_matrix_csv(args.matrix)
    if args.method == "householder":
        fact = qr_householder(a, QrMode.Q_AND_R if args.mode == "qr" else QrMode.R_ONLY)
    elif args.method == "givens":
        fact = qr_givens(a)
    else:
        fact = qr_pivoted(a, t_digits=args.t_digits)
    _print_matrix("R", fact.r, prec)
    if args.mode == "qr":
        q = fact.q if fact.q is not None else form_q(fact.reflectors, a.shape[0])
        _print_matrix("Q", q, prec)
    if fact.perm is not None:
        print("perm =", ", ".join(str(int(i)) for i in fact.perm))
    if fact.rank is not None:
        print(f"rank = {fact.rank}")
    return 0


def _cmd_svd(args, prec):
    a = read_matrix_csv(args.matrix)
    if args.values_only:
        print(_fmt_vec(singular_values(a), prec))
        return 0
    f = svd(a, "reduced" if args.reduced else "full")
    print("sigma =", _fmt_vec(f.sigma, prec))
    _print_matrix("U", f.u, prec)
    _print_matrix("Vt", f.vt, prec)
    return 0


def _cmd_solve(args, prec):
    a = read_matrix_csv(args.matrix)
    b = read_vector_csv(args.rhs)
    solver = {
        "auto": solve,
        "normal": solve_normal,
        "qr": solve_qr,
        "qr-pivoted": solve_qr_pivoted,
        "svd": solve_svd,
    }[args.method]
    sol = solver(a, b)
    print(f"method = {sol.method}")
    print("x =", _fmt_vec(sol.x, prec))
    print("residual_norm =", _fmt(sol.residual_norm, prec))
    print(f"rank = {sol.rank}")
    if sol.free_params is not None:
        print(f"free_params = {sol.free_params}")
    if b.any():
        rep = conditioning_report(a, b, sol.x)
        print("cond =", _fmt(rep.cond, prec))
        print("cos_theta =", _fmt(rep.cos_theta, prec))
        print("theta =", _fmt(rep.theta, prec))
        print("rhs_sensitivity_bound =", _fmt(rep.rhs_sensitivity_bound, prec))
        print("matrix_sensitivity_bound =", _fmt(rep.matrix_sensitivity_bound, prec))
    return 0


def _cmd_fit(args, prec):
    data = read_matrix_csv(args.data)
    if data.shape[1] != 2:
        raise ShapeError(f"{args.data}: expected two columns (t, y), got {data.shape[1]}")
    fit = polyfit(data[:, 0], data[:, 1], args.degree)
    print("coefficients =", _fmt_vec(fit.coeffs, prec))
    print("residual_norm =", _fmt(fit.residual_norm, prec))
    print("cond =", _fmt(fit.cond, prec))
    return 0


def _cmd_pca(args, prec):
    x = read_matrix_csv(args.matrix)
    model = pca_fit(x, args.k, samples_as=args.samples_as)
    _print_matrix("components", model.components, prec)
    print("variances =", _fmt_vec(model.variances, prec))
    _print_matrix("reduced", pca_reduce(model, x, samples_as=args.samples_as), prec)
    return 0


def _cmd_compress(args, prec):
    img = read_pgm(args.input)
    recon, ratio, sigma = _image_compress(img.pixels, args.k)
    write_pgm(GrayImage(recon), args.output)
    print("storage_ratio =", _fmt(ratio, prec))
    tail = sigma[args.k :]
    print("sigma_tail =", _fmt_vec(tail, prec) if tail.size else "")
    return 0


def _cmd_denoise(args, prec):
    img = read_pgm(args.input)
    out = image_denoise(img, args.threshold)
    write_pgm(out, args.output)
    return 0


def _cmd_summarize(args, prec):
    sentences = [line for line in read_text(args.text).splitlines() if line.strip()]
    stopwords = set(read_text(args.stopwords).split()) if args.stopwords else set()
    try:
        ts = build_term_sentence(sentences, stopwords)
    except ValueError as exc:
        raise ValueError(f"{args.text}: {exc}") from None
    term_scores, sentence_scores = summarize_scores(ts)
    top = max(1, args.top)
    term_order = np.argsort(-term_scores, kind="stable")[:top]
    print("top_terms =", ", ".join(ts.terms[i] for i in term_order))
    sent_order = np.argsort(-sentence_scores, kind="stable")[:top]
    print("top_sentences:")
    for rank, j in enumerate(sent_order, start=1):
        print(f"{rank}: {_fmt(sentence_scores[j], prec)}: {sentences[j]}")
    return 0


def _load_training_classes(source):
    path = Path(source)
    if path.is_dir():
        classes = []
        for c in range(NUM_CLASSES):
            f = path / f"{c}.csv"
            if not f.exists():
                raise UsageError(f"missing class file {f}")
            classes.append(np.ascontiguousarray(read_matrix_csv(f).T))
        return classes
    x, labels = read_digits_csv(path)
    if labels is None:
        raise UsageError(f"{source}: training CSV must carry labels in the first field")
    counts = np.bincount(labels, minlength=NUM_CLASSES)
    if not counts.all():
        raise ValueError(f"{source}: no samples of class {int(np.argmin(counts))}")
    return [np.ascontiguousarray(x[:, labels == c]) for c in range(NUM_CLASSES)]


def _cmd_digits(args, prec):
    if args.digits_command == "train":
        classes = _load_training_classes(args.source)
        model = digits_train(classes, args.k)
        save_digit_model(model, args.model)
        print(f"classes = {len(classes)}")
        print(f"k = {model.k}")
        print("class_counts =", ", ".join(str(c.shape[1]) for c in classes))
        print(f"model = {args.model}")
        return 0
    if args.digits_command == "classify":
        model = load_digit_model(args.model)
        x, labels = read_digits_csv(args.test)
        pred, residuals = digits_classify(model, x)
        for j in range(x.shape[1]):
            print(f"residuals[{j}] =", _fmt_vec(residuals[:, j], prec))
        print("labels =", ", ".join(str(int(v)) for v in pred))
        if labels is not None:
            accuracy = float(np.mean(pred == labels))
            print("accuracy =", _fmt(accuracy, prec))
        return 0
    # synth
    x, labels = synth_digit_data(per_class=args.per_class, classes=args.classes, seed=args.seed)
    write_digits_csv(args.out, x, labels)
    print(f"samples = {x.shape[1]}")
    print(f"out = {args.out}")
    return 0


_COMMANDS = {
    "qr": _cmd_qr,
    "svd": _cmd_svd,
    "solve": _cmd_solve,
    "fit": _cmd_fit,
    "pca": _cmd_pca,
    "compress": _cmd_compress,
    "denoise": _cmd_denoise,
    "summarize": _cmd_summarize,
    "digits": _cmd_digits,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        prec = _resolve_precision(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args, prec)
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (CsvFormatError, ShapeError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Every public entry point that takes matrix data, at the edges of the
float64 range: seeded inputs with entries near 2^1015 and near 2^-1070.

Each call either returns finite results or raises ``LinAlgError`` or
``ValueError``; pyproject.toml's ``filterwarnings`` turns a
``RuntimeWarning`` on the way into an error.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import orthokit as ok
from orthokit import LinAlgError, QrMode
from orthokit.apps import GrayImage, digits_classify, digits_train, image_compress, image_denoise
from orthokit.apps import pca_fit, pca_reduce, polyfit

SCALES = {"2^1015": 2.0**1015, "2^-1070": 2.0**-1070}


def inputs(scale):
    rng = np.random.default_rng(1015)
    tall, sq = rng.standard_normal((6, 4)), rng.standard_normal((4, 4))
    x = SimpleNamespace(
        tall=tall, sq=sq, sym=sq + sq.T, spd=sq.T @ sq + np.eye(4),
        tri=np.triu(sq) + 4.0 * np.eye(4), hess=np.triu(sq, -1),
        v6=rng.standard_normal(6), v4=rng.standard_normal(4),
        classes=[rng.standard_normal((6, 4)) for _ in range(10)],
    )
    for name, value in vars(x).items():
        setattr(x, name, [c * scale for c in value] if name == "classes" else value * scale)
    x.solution = rng.standard_normal(4)  # a least-squares x has the scale of b / A, here 1
    return x


CALLS = {
    "as_matrix": lambda x: ok.as_matrix(x.tall),
    "mat_mul": lambda x: ok.mat_mul(x.tall.T, x.tall),
    "transpose": lambda x: ok.transpose(x.tall),
    "norm-frobenius": lambda x: ok.norm(x.tall),
    "norm-inf": lambda x: ok.norm(x.tall, "inf"),
    "norm-one": lambda x: ok.norm(x.tall, "one"),
    "back_sub": lambda x: ok.back_sub(x.tri, x.v4),
    "forward_sub": lambda x: ok.forward_sub(x.tri.T, x.v4),
    "cholesky": lambda x: ok.cholesky(x.spd),
    "householder_vector": lambda x: ok.householder_vector(x.v6),
    "householder_apply_left": lambda x: ok.householder_apply_left(ok.householder_vector(x.v6), x.tall),
    "householder_apply_right": lambda x: ok.householder_apply_right(x.tall.T, ok.householder_vector(x.v6)),
    "householder_matrix": lambda x: ok.householder_matrix(ok.householder_vector(x.v6)),
    "givens_params": lambda x: ok.givens_params(x.v4[0], x.v4[1]),
    "givens_apply": lambda x: ok.givens_apply(ok.GivensRotation(*ok.givens_params(x.v4[0], x.v4[1]), 0, 1), x.tall),
    "qr_householder": lambda x: ok.qr_householder(x.tall),
    "qr_givens": lambda x: ok.qr_givens(x.tall),
    "qr_hessenberg": lambda x: ok.qr_hessenberg(x.hess),
    "qr_pivoted": lambda x: ok.qr_pivoted(x.tall),
    "form_q": lambda x: ok.form_q(ok.qr_householder(x.tall, QrMode.R_AND_REFLECTORS).reflectors, 6),
    "is_projector": lambda x: ok.is_projector(x.sym, 1e-8),
    "complement": lambda x: ok.complement(x.sym),
    "projector_onto_range": lambda x: ok.projector_onto_range(x.tall),
    "projector_from_orthonormal": lambda x: ok.projector_from_orthonormal(x.tall),
    "split": lambda x: ok.split(x.v4, x.sym),
    "bidiagonalize": lambda x: ok.bidiagonalize(x.tall),
    "bidiag_svd": lambda x: ok.bidiag_svd(ok.Bidiagonal(x.v4, x.v4[1:])),
    "svd": lambda x: ok.svd(x.tall),
    "svd-full": lambda x: ok.svd(x.tall, "full"),
    "singular_values": lambda x: ok.singular_values(x.tall),
    "jacobi_eig": lambda x: ok.jacobi_eig(x.sym),
    "cond2": lambda x: ok.cond2(x.tall),
    "norm2": lambda x: ok.norm2(x.tall),
    "matrix_rank": lambda x: ok.matrix_rank(x.tall),
    "default_rank_threshold": lambda x: ok.default_rank_threshold(x.tall),
    "numerical_rank": lambda x: ok.numerical_rank(np.sort(np.abs(x.v4))[::-1], np.abs(x.v4).min()),
    "low_rank": lambda x: ok.low_rank(x.tall, 2),
    "pseudoinverse": lambda x: ok.pseudoinverse(x.tall),
    "nearest_orthogonal": lambda x: ok.nearest_orthogonal(x.sq),
    "distance_to_singular": lambda x: ok.distance_to_singular(x.sq),
    "subspace_bases": lambda x: ok.subspace_bases(x.tall),
    "solve": lambda x: ok.solve(x.tall, x.v6),
    "solve_normal": lambda x: ok.solve_normal(x.tall, x.v6),
    "solve_qr": lambda x: ok.solve_qr(x.tall, x.v6),
    "solve_qr_pivoted": lambda x: ok.solve_qr_pivoted(x.tall, x.v6),
    "solve_svd": lambda x: ok.solve_svd(x.tall, x.v6),
    "conditioning_report": lambda x: ok.conditioning_report(x.tall, x.v6, x.solution),
    "polyfit": lambda x: polyfit(np.linspace(-1.0, 1.0, 6), x.v6, 2),
    "pca_fit": lambda x: pca_fit(x.tall, 2),
    "pca_reduce": lambda x: pca_reduce(pca_fit(x.tall, 2), x.tall),
    "image_compress": lambda x: image_compress(GrayImage(x.tall), 2),
    "image_denoise": lambda x: image_denoise(GrayImage(x.tall), 1.0),
    "digits_train": lambda x: digits_train(x.classes, 2),
    "digits_classify": lambda x: digits_classify(digits_train(x.classes, 2), x.tall),
}

# The residual norm of these solvers is an unscaled np.linalg.norm (the
# CHANGES.md FOUND line on `residual_norm = inf`, ROADMAP item 7).
UNSCALED_RESIDUAL = {"solve", "solve_qr", "solve_qr_pivoted", "solve_svd", "polyfit"}


def nonfinite(result, path="result"):
    """Paths to the non-finite numbers in ``result``, searched through
    tuples, lists and dataclasses."""
    if dataclasses.is_dataclass(result):
        return [p for f in dataclasses.fields(result) for p in nonfinite(getattr(result, f.name), f"{path}.{f.name}")]
    if isinstance(result, (tuple, list)):
        return [p for i, r in enumerate(result) for p in nonfinite(r, f"{path}[{i}]")]
    if isinstance(result, (float, np.ndarray, np.floating)):
        return [] if np.isfinite(result).all() else [path]
    return []


def cases():
    for scale in SCALES:
        for name in CALLS:
            marks = ()
            if scale == "2^1015" and name in UNSCALED_RESIDUAL:
                reason = "residual_norm is an unscaled np.linalg.norm (CHANGES FOUND line, ROADMAP item 7)"
                marks = pytest.mark.xfail(strict=True, raises=RuntimeWarning, reason=reason)
            yield pytest.param(name, scale, id=f"{name}-{scale}", marks=marks)


@pytest.mark.parametrize("name, scale", cases())
def test_finite_result_or_a_library_error(name, scale):
    try:
        result = CALLS[name](inputs(SCALES[scale]))
    except (LinAlgError, ValueError):
        return
    assert nonfinite(result) == []

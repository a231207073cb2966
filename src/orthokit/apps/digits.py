"""Digit classification by per-class singular bases.

Training computes, for each of the ten classes, the first k left singular
vectors of that class's sample matrix (columns are vectorized images).  A
test vector is assigned to the class whose basis leaves the smallest
projection residual ||d - U_k (U_k^T d)||.

A deterministic synthetic generator (well-separated random subspaces plus
small noise) substitutes for a real handwriting corpus at desk scale; CSV
ingestion (label, 784 pixels per row) covers users who bring real data.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from ..matrix import as_matrix, read_matrix_csv, write_matrix_csv
from ..qr import form_q, qr_householder, QrMode
from ..svd import svd

__all__ = [
    "DigitModel",
    "digits_train",
    "digits_classify",
    "synth_digit_data",
    "read_digits_csv",
    "write_digits_csv",
    "save_digit_model",
    "load_digit_model",
]

NUM_CLASSES = 10
MODEL_MAGIC = b"OKDM"
MODEL_VERSION = 1
MODEL_DIM = 784  # the container format is fixed to 784-pixel images


@dataclass
class DigitModel:
    bases: list[np.ndarray]  # one d x k orthonormal basis per class
    k: int


def digits_train(classes, k: int) -> DigitModel:
    """Compute the k-dimensional singular basis of each class matrix."""
    if len(classes) != NUM_CLASSES:
        raise ValueError(f"expected {NUM_CLASSES} class matrices, got {len(classes)}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    mats = [as_matrix(c) for c in classes]
    dim = mats[0].shape[0]
    bases = []
    for label, mat in enumerate(mats):
        if mat.shape[0] != dim:
            raise ValueError(f"class {label} has {mat.shape[0]} rows, expected {dim}")
        if mat.shape[1] < k:
            raise ValueError(f"class {label} has only {mat.shape[1]} samples; k = {k} needs at least k")
        f = svd(mat, "reduced")
        bases.append(f.u[:, :k].copy())
    return DigitModel(bases=bases, k=k)


def digits_classify(model: DigitModel, d):
    """Classify the columns of ``d``.

    Returns ``(labels, residuals)`` where residuals is a 10 x t matrix of
    projection residual norms and labels picks the argmin per column (ties
    go to the smallest class index).
    """
    d = as_matrix(d)
    dim = model.bases[0].shape[0]
    if d.shape[0] != dim:
        raise ValueError(f"test vectors have {d.shape[0]} rows, model expects {dim}")
    residuals = np.zeros((NUM_CLASSES, d.shape[1]))
    for c, basis in enumerate(model.bases):
        rem = d - basis @ (basis.T @ d)
        residuals[c, :] = np.sqrt((rem * rem).sum(axis=0))
    labels = np.argmin(residuals, axis=0)
    return labels, residuals


def synth_digit_data(per_class: int, classes: int = NUM_CLASSES, seed: int = 0,
                     dim: int = MODEL_DIM, subspace_dim: int = 5, noise: float = 1e-3):
    """Deterministic synthetic dataset: each class lives on its own random
    ``subspace_dim``-dimensional subspace of R^dim, plus Gaussian noise.

    Returns ``(x, labels)`` with samples as the columns of ``x``, grouped
    by class.
    """
    if per_class < 1 or classes < 1:
        raise ValueError("per_class and classes must be positive")
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for c in range(classes):
        f = qr_householder(rng.standard_normal((dim, subspace_dim)), QrMode.R_AND_REFLECTORS)
        basis = form_q(f.reflectors, dim, cols=subspace_dim)
        coeff = rng.standard_normal((subspace_dim, per_class))
        block = basis @ coeff + noise * rng.standard_normal((dim, per_class))
        blocks.append(block)
        labels.extend([c] * per_class)
    return np.hstack(blocks), np.array(labels, dtype=int)


# ---------------------------------------------------------------------------
# CSV: one record per line, integer label 0-9 first, then 784 pixels 0-255.


def read_digits_csv(path):
    """Read a digits CSV; returns ``(x, labels)`` with samples as columns.

    Rows of 784 fields are accepted as unlabeled data (labels = None).
    """
    raw = read_matrix_csv(path)
    if raw.shape[1] == MODEL_DIM + 1:
        return np.ascontiguousarray(raw[:, 1:].T), _checked_labels(path, raw[:, 0])
    if raw.shape[1] == MODEL_DIM:
        return np.ascontiguousarray(raw.T), None
    raise ValueError(f"{path}: expected {MODEL_DIM} or {MODEL_DIM + 1} fields per row, got {raw.shape[1]}")


def write_digits_csv(path, x, labels, offset: float = 128.0, scale: float = 48.0) -> None:
    """Write samples in the labeled CSV format, quantized to 0..255.

    Raw synthetic samples are roughly unit scale, so they are mapped
    through ``offset + scale * value`` before rounding and clipping.
    """
    x = as_matrix(x)
    labels = np.asarray(labels, dtype=float)
    if labels.size != x.shape[1]:
        raise ValueError(f"{labels.size} labels for {x.shape[1]} samples")
    if x.shape[0] != MODEL_DIM:
        raise ValueError(f"digit CSV requires {MODEL_DIM}-pixel samples, got {x.shape[0]}")
    pixels = np.rint(offset + scale * x).clip(0, 255).astype(int)
    write_matrix_csv(np.column_stack((_checked_labels(path, labels), pixels.T)), path)


def _checked_labels(path, values: np.ndarray) -> np.ndarray:
    """``values`` as ints; raises unless every one is an integer in 0..9."""
    fractional = np.flatnonzero(np.floor(values) != values)
    if fractional.size:
        row = int(fractional[0])
        raise ValueError(f"{path}: row {row + 1}: label {values[row]:g} is not an integer")
    if np.any(values < 0) or np.any(values > 9):
        raise ValueError(f"{path}: labels must be in 0..9")
    return values.astype(int)


# ---------------------------------------------------------------------------
# Model container: magic "OKDM", u32 version, u32 k, ten row-major
# 784 x k blocks of little-endian float64.


def save_digit_model(model: DigitModel, path) -> None:
    for c, basis in enumerate(model.bases):
        if basis.shape != (MODEL_DIM, model.k):
            raise ValueError(
                f"class {c} basis has shape {basis.shape}; the container stores {MODEL_DIM} x {model.k}"
            )
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<II", MODEL_VERSION, model.k))
        for basis in model.bases:
            f.write(np.ascontiguousarray(basis, dtype="<f8").tobytes(order="C"))


def load_digit_model(path) -> DigitModel:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not a digit model file (bad magic {magic!r})")
        header = f.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated model file")
        version, k = struct.unpack("<II", header)
        if version != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported model version {version}")
        # k comes from the file: check the size before allocating any block.
        count = NUM_CLASSES * MODEL_DIM * k
        if os.fstat(f.fileno()).st_size < 12 + 8 * count:
            raise ValueError(f"{path}: truncated model file")
        data = np.fromfile(f, dtype="<f8", count=count)
    return DigitModel(bases=list(data.reshape(NUM_CLASSES, MODEL_DIM, k)), k=k)

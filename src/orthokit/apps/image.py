"""Grayscale images as matrices: truncated-SVD compression, small-singular-
value denoising, and PGM (P2/P5, maxval 255) input/output."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..matrix import as_matrix
from ..svd import svd

__all__ = ["GrayImage", "image_compress", "image_denoise", "read_pgm", "write_pgm"]


@dataclass
class GrayImage:
    """Pixel matrix with brightness values clamped into [0, 255] on
    construction."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.clip(as_matrix(self.pixels), 0.0, 255.0)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _truncated(k, f):
    return (f.u[:, :k] * f.sigma[:k]) @ f.vt[:k, :]


def image_compress(img: GrayImage, k: int):
    """Rank-k image and its storage ratio (m + n + 1) k / (m n).

    Storing the k leading singular triples beats raw pixels exactly when
    the ratio is below one.
    """
    recon, ratio, _ = _compress(img.pixels, k)
    return GrayImage(recon), ratio


def _compress(pixels, k):
    m, n = pixels.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k must be in [1, {min(m, n)}], got {k}")
    f = svd(pixels, "reduced")
    recon = _truncated(k, f)
    ratio = (m + n + 1) * k / (m * n)
    return recon, ratio, f.sigma


def image_denoise(img: GrayImage, threshold: float) -> GrayImage:
    """Drop every singular component at or below ``threshold`` and
    reconstruct.  A threshold at or above sigma_1 yields the flat zero
    image."""
    if not threshold >= 0:  # NaN too
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    f = svd(img.pixels, "reduced")
    k = int(np.sum(f.sigma > threshold))
    if k == 0:
        return GrayImage(np.zeros_like(img.pixels))
    return GrayImage(_truncated(k, f))


# ---------------------------------------------------------------------------
# PGM: P2 is ASCII, P5 binary; maxval must be 255.  The writer emits P5.
# The header is four tokens between whitespace and '#' comments, each comment
# running to the end of its line; a P5 raster starts one byte after maxval.
_PGM_TOKEN = re.compile(rb"#[^\r\n]*|[^\s#]+")


def _pgm_tokens(data: bytes):
    # The header tokens up to maxval, comments skipped, and the offset past them.
    tokens = []
    for match in _PGM_TOKEN.finditer(data):
        if not match[0].startswith(b"#"):
            tokens.append(match[0])
            if len(tokens) == 4:
                return tokens, match.end()
    return tokens, len(data)


def read_pgm(path) -> GrayImage:
    with open(path, "rb") as f:
        data = f.read()
    tokens, pos = _pgm_tokens(data)
    if len(tokens) < 4 or tokens[0] not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM (P2/P5) file")
    magic = tokens[0]
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ValueError(f"{path}: malformed PGM header") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: image dimensions must be positive, got {width} x {height}")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}; expected 255")
    count = width * height
    if magic == b"P5":
        raster = data[pos + 1 : pos + 1 + count]  # single whitespace byte after maxval
        if len(raster) < count:
            raise ValueError(f"{path}: truncated P5 raster")
        pixels = np.frombuffer(raster, dtype=np.uint8, count=count).astype(float)
    else:
        fields = data[pos:].split()
        if len(fields) < count:
            raise ValueError(f"{path}: truncated P2 raster")
        try:
            pixels = np.array([float(int(v)) for v in fields[:count]])
        except ValueError:
            raise ValueError(f"{path}: malformed P2 raster") from None
    return GrayImage(pixels.reshape(height, width))


def write_pgm(img: GrayImage, path) -> None:
    pixels = np.rint(img.pixels).clip(0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(pixels.tobytes(order="C"))

"""Projector predicates and orthogonal-projector constructions.

A projector is a square matrix with P @ P = P; it is orthogonal when also
symmetric.  An orthogonal projector splits any vector into mutually
orthogonal range and complement parts obeying the Pythagorean identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError, ShapeError
from .matrix import as_matrix, as_square, as_vector, frobenius, require_finite
from .qr import form_q, qr_pivoted

__all__ = [
    "ProjectorCheck",
    "is_projector",
    "complement",
    "projector_onto_range",
    "projector_from_orthonormal",
    "split",
]


@dataclass
class ProjectorCheck:
    ok: bool
    defect: float

    def __bool__(self) -> bool:
        return self.ok


def is_projector(p, tol: float) -> ProjectorCheck:
    """Test idempotency: true iff ||P @ P - P||_F <= tol; the defect value
    is reported either way."""
    p = as_square(p, "a projector")
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        d = p @ p - p
    defect = frobenius(d)  # Inf or NaN past the float64 range
    require_finite("is_projector", defect)
    return ProjectorCheck(defect <= tol, defect)


def complement(p) -> np.ndarray:
    """I - P: the complementary projector (range and null space swap)."""
    p = as_square(p, "a projector")
    return np.eye(p.shape[0]) - p


def projector_onto_range(a) -> np.ndarray:
    """Orthogonal projector onto range(A) for a matrix of full column rank:
    Q1 Q1^T with Q1 the leading n columns of the pivoted QR's Q, which
    equals A (A^T A)^-1 A^T without forming A^T A.

    Rank deficiency (detected by the same pivoted QR) raises
    ``RankDeficiencyError``; use the SVD subspace bases for the
    rank-deficient case.
    """
    f = qr_pivoted(a)
    m, n = f.r.shape
    if f.rank < n:
        raise RankDeficiencyError(
            "matrix is not of full column rank; build the projector from SVD subspace bases instead"
        )
    q1 = form_q(f.reflectors, m, n)
    return q1 @ q1.T


def projector_from_orthonormal(q1) -> np.ndarray:
    """Orthogonal projector Q1 @ Q1^T onto the span of orthonormal columns."""
    q1 = as_matrix(q1)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite defect is not orthonormal
        g = q1.T @ q1 - np.eye(q1.shape[1])
    gram_defect = frobenius(g)  # Inf or NaN past the float64 range
    if not gram_defect <= 1e-10:
        raise ValueError(f"columns are not orthonormal (||Q^T Q - I||_F = {gram_defect:.3e})")
    return q1 @ q1.T


def split(b, p) -> tuple[np.ndarray, np.ndarray]:
    """Decompose b into (P b, (I - P) b); for orthogonal P the parts are
    mutually orthogonal and their squared norms add up to ||b||^2."""
    b = as_vector(b)
    p = as_matrix(p)
    if p.shape[0] != p.shape[1] or p.shape[1] != b.size:
        raise ShapeError(f"projector {p.shape} does not match vector of length {b.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        pb = p @ b
        rest = b - pb
    require_finite("split", rest)  # an Inf or NaN in pb carries into rest
    return pb, rest

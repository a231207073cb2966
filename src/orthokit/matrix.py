"""Dense matrix/vector substrate: validation, arithmetic, norms, triangular
solves, Cholesky, power-of-two scaling (``prescale``/``unscale``) and CSV.

Matrices are 2-D row-major float64 numpy arrays; vectors are 1-D float64
arrays.  Public operations never mutate their inputs and never alias an
input in their output.  The one exception to the layout is internal: the
three Householder sweeps (``qr_householder``, ``qr_pivoted`` and
``bidiagonalize``) update a column-major copy of A in place, since they read
and update it a column at a time, and return their results row-major.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    CsvFormatError,
    NotPositiveDefiniteError,
    NumericalError,
    ShapeError,
    SingularTriangularError,
)

__all__ = [
    "as_matrix",
    "as_vector",
    "mat_mul",
    "transpose",
    "norm",
    "back_sub",
    "forward_sub",
    "cholesky",
    "read_matrix_csv",
    "parse_matrix_csv",
    "write_matrix_csv",
    "read_vector_csv",
]

# Relative scale below which a triangular pivot counts as zero.
TRIANGULAR_PIVOT_RTOL = 1e-14


def as_matrix(a, order: str = "C") -> np.ndarray:
    """Coerce ``a`` to a fresh 2-D row-major float64 array (column-major
    with ``order="F"``, the working copy of a Householder sweep).

    Rejects empty shapes, complex entries and non-finite entries; this is
    the validation gate for all externally supplied matrix data.
    """
    m = as_real(a, "matrix entries", order)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got array of ndim {m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {m.shape}")
    return m


def as_real(x, what: str, order: str = "C") -> np.ndarray:
    """A fresh float64 array of ``x``'s entries; ``ValueError`` naming ``what``
    for complex ones (a cast would drop their imaginary parts), NaN or Inf."""
    m = np.asarray(x)
    if m.dtype.kind == "c":
        raise ValueError(f"{what} must be real, not complex")
    m = np.array(m, dtype=float, order=order)
    if not np.logical_and.reduce(np.isfinite(m), axis=None):  # .all() without its Python wrapper
        raise ValueError(f"{what} must be finite (no NaN/Inf)")
    return m


def as_square(a, what: str) -> np.ndarray:
    """``as_matrix(a)``, or ``ShapeError`` naming ``what`` if it is not square."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{what} needs a square matrix, got {m.shape}")
    return m


def pow2_scale(top: float) -> float:
    """Power of two to divide by before squaring: the least 2^k >= ``top``,
    capped at 2^1023 so it never overflows (``top / scale`` then lies in
    (0.5, 2)); 1.0 for ``top == 0``.  Dividing by it is exact."""
    mant, exp = math.frexp(top)
    if mant == 0.5:
        exp -= 1
    return math.ldexp(1.0, min(exp, 1023))


# Decimal digits of data accuracy behind the default ``rank_threshold``,
# the one rank threshold of the pivoted QR and the SVD.
DEFAULT_T_DIGITS = 12


def norm_tol(a: np.ndarray, rtol: float) -> float:
    """``rtol * norm(a, "inf")`` taken on the prescaled ``|a|``, so a row
    sum past the float64 maximum cannot overflow it; on normal-range
    input, the same bits as the unscaled product."""
    mag = np.abs(a)
    s = pow2_scale(float(mag.max()))
    mag /= s
    return rtol * float(mag.sum(axis=1).max()) * s


def rank_threshold(a, t_digits: int = DEFAULT_T_DIGITS) -> float:
    """delta = 10^-t * ||A||_inf, at or below which pivot norms and singular values count as
    zero (entries accurate to t decimal digits); reads an A its caller has validated in place."""
    if t_digits < 1:
        raise ValueError(f"t_digits must be >= 1, got {t_digits}")
    return norm_tol(np.asarray(a, dtype=float), 10.0 ** (-t_digits))


def frobenius(a: np.ndarray) -> float:
    """||a||_F, summed after ``prescale`` divides ``a`` in place: Inf past the float64
    range, and Inf or NaN for a non-finite ``a``, with no warning, for the caller to report."""
    return prescale(a) * float(np.sqrt((a * a).sum()))


def prescale(a: np.ndarray, axis: int | None = None):
    """Divide ``a`` in place by s = pow2_scale(max|a|) and return s: exact,
    and the squares of the scaled entries cannot overflow.  With ``axis``,
    the max is taken along that axis only, so each row (axis=1) or column
    (axis=0) has its own s, returned as an array keeping that axis."""
    if axis is None:
        s = pow2_scale(float(np.abs(a).max()))
    else:
        s = np.vectorize(pow2_scale, otypes=[float])(np.abs(a).max(axis=axis, keepdims=True))
    a /= s
    return s


def unscale(what: str, s: float, *arrays) -> None:
    """Multiply ``arrays`` in place by ``s``; ``NumericalError`` naming
    ``what`` if a result overflowed."""
    with np.errstate(over="ignore"):  # reported just below
        for x in arrays:
            x *= s
    require_finite(what, *arrays)


def require_finite(what: str, *arrays) -> None:
    """Raise ``NumericalError`` if any entry of ``arrays`` overflowed to
    Inf or NaN (results past the float64 range)."""
    for x in arrays:
        if not np.isfinite(x).all():
            raise NumericalError(f"{what}: result overflowed the float64 range")


def as_vector(b) -> np.ndarray:
    """Coerce ``b`` to a fresh 1-D float64 array with real, finite entries."""
    v = as_real(b, "vector entries")
    if v.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got array of ndim {v.ndim}")
    if v.size < 1:
        raise ShapeError("vector length must be positive")
    return v


def mat_mul(a, b) -> np.ndarray:
    """Matrix product ``a @ b`` with eager shape validation; a product past
    the float64 range raises ``NumericalError``."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        p = a @ b
    require_finite("mat_mul", p)
    return p


def transpose(a) -> np.ndarray:
    a = as_matrix(a)
    return np.ascontiguousarray(a.T)


def norm(a, kind: str = "frobenius") -> float:
    """Matrix norm: ``frobenius``, ``inf`` (max abs row sum) or ``one``
    (max abs column sum).  Each is taken on ``a / pow2_scale(max|a|)``, so
    its sums cannot overflow or underflow; a norm past the float64 range
    raises ``NumericalError``."""
    a = as_matrix(a)
    if kind == "frobenius":
        value = frobenius(a)
    elif kind in ("inf", "one"):
        value = norm_tol(a if kind == "inf" else a.T, 1.0)
    else:
        raise ValueError(f"unknown norm kind {kind!r}; expected frobenius, inf or one")
    require_finite("norm", value)
    return value


def _triangular_solve(t, b, lower: bool) -> np.ndarray:
    """Solve ``T x = b`` reading only T's lower or upper triangle: the
    shared validation, pivot test and overflow check of both solves."""
    kind = "forward" if lower else "back"
    t = as_square(t, f"{kind} substitution solve")
    b = as_vector(b)
    n = t.shape[0]
    if b.size != n:
        raise ShapeError(f"right-hand side length {b.size} does not match matrix {t.shape}")
    below = np.tri(n, n, -1, dtype=bool)
    t[below.T if lower else below] = 0.0  # t is our copy, and the loops never read this triangle
    tol = norm_tol(t, TRIANGULAR_PIVOT_RTOL)
    small = np.abs(np.diagonal(t)) <= tol
    if small.any():
        i = int(np.argmax(small))
        raise SingularTriangularError(i, t[i, i], tol)
    x = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        if lower:
            for i in range(n):
                x[i] = (b[i] - t[i, :i] @ x[:i]) / t[i, i]
        else:
            for i in range(n - 1, -1, -1):
                x[i] = (b[i] - t[i, i + 1 :] @ x[i + 1 :]) / t[i, i]
    require_finite(f"{kind}_sub", x)
    return x


def back_sub(u, b) -> np.ndarray:
    """Solve the upper-triangular system ``U x = b``.

    Only the upper triangle of ``u`` is read.  Pivots within
    ``1e-14 * norm(U, inf)`` of zero raise ``SingularTriangularError``, and
    an x past the float64 range ``NumericalError``.
    """
    return _triangular_solve(u, b, lower=False)


def forward_sub(l, b) -> np.ndarray:
    """Solve the lower-triangular system ``L x = b`` (mirror of back_sub)."""
    return _triangular_solve(l, b, lower=True)


def cholesky(s) -> np.ndarray:
    """Factor a symmetric positive definite ``S`` as ``L @ L.T``.

    Raises ``NotPositiveDefiniteError`` with the failing pivot index when a
    diagonal pivot is not strictly positive, and ``ShapeError`` when ``S``
    is not symmetric to ``1e-12 * norm(S, inf)``.
    """
    s = as_square(s, "cholesky")
    n = s.shape[0]
    with np.errstate(over="ignore"):  # an infinite asymmetry fails the test below
        asym = np.abs(s - s.T).max()
    if asym > norm_tol(s, 1e-12):
        raise ShapeError("cholesky needs a symmetric matrix")
    l = np.zeros((n, n))
    for j in range(n):
        d = s[j, j] - l[j, :j] @ l[j, :j]
        if d <= 0.0:
            raise NotPositiveDefiniteError(j, d)
        l[j, j] = np.sqrt(d)
        if j + 1 < n:
            l[j + 1 :, j] = (s[j + 1 :, j] - l[j + 1 :, :j] @ l[j, :j]) / l[j, j]
    return l


# ---------------------------------------------------------------------------
# CSV interchange: plain decimal fields, one matrix row per line, no header.


def parse_matrix_csv(text: str, source: str = "<string>") -> np.ndarray:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise CsvFormatError(f"{source}: no data rows")
    try:
        return as_matrix(np.loadtxt(lines, delimiter=",", ndmin=2, comments=None))
    except ValueError as exc:
        # Report the first width or number error in file order, else the
        # error of loadtxt or of as_matrix (a non-finite entry).
        width = lines[0].count(",") + 1
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if raw.strip() == "":
                continue
            fields = raw.split(",")
            if len(fields) != width:
                raise CsvFormatError(
                    f"{source}: line {lineno}: expected {width} fields, found {len(fields)}"
                ) from None
            for col, field in enumerate(fields, start=1):
                try:
                    float(field)
                except ValueError:
                    raise CsvFormatError(
                        f"{source}: line {lineno}, column {col}: not a number: {field.strip()!r}"
                    ) from None
        raise CsvFormatError(f"{source}: {exc}") from None


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``; a decoding error names the path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_matrix_csv(path) -> np.ndarray:
    return parse_matrix_csv(read_text(path), source=str(path))


def read_vector_csv(path) -> np.ndarray:
    """Read a vector stored as a single CSV column (or a single row)."""
    m = read_matrix_csv(path)
    if 1 in m.shape:
        return m.ravel()
    raise ShapeError(f"{path}: expected a single row or column, got shape {m.shape}")


def write_matrix_csv(a, path) -> None:
    """Write ``a`` in the CSV interchange format, to 17 significant digits,
    which round-trip float64 exactly."""
    a = as_matrix(a)
    with open(path, "w", encoding="utf-8") as f:
        np.savetxt(f, a, fmt="%.17g", delimiter=",")

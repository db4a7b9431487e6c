"""Small dense complex linear algebra.

All heavier routines delegate to numpy.linalg; this module pins down the
deterministic conventions (eigenvalue ordering, residual reporting, pivot
thresholds) that the geometric layers rely on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, Singular

MAX_DIM = 8
INV_EPS = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigen-data of a small square complex matrix, or of a stack of them.

    eigenvalues are sorted lexicographically by (real, imag) so repeated
    calls label eigenvalues identically.  eigenvectors holds unit-norm
    column vectors paired with the eigenvalues; residual bounds
    max_k ||M v_k - lambda_k v_k||_2.  For a stack (N, m, m) every field
    gains a leading axis of length N, and residual is per matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def _check_square(M):
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {M.shape}")
    if M.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {M.shape[-1]} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def lex_order(values):
    """Indices sorting complex values lexicographically by (real, imag),
    along the last axis."""
    values = np.asarray(values)
    return np.lexsort((values.imag, values.real), axis=-1)


def solve_eig(M) -> EigenDecomposition:
    """Eigen-decomposition with deterministic (real, imag) eigenvalue order.

    M is one matrix or a stack (N, m, m), decomposed by one
    np.linalg.eig call; order, normalisation and residual are per matrix.
    The residual is reported rather than hidden so callers can detect
    defective (non-diagonalizable) inputs.
    """
    M = _check_square(M)
    stack = M.reshape((-1,) + M.shape[-2:])
    try:
        vals, vecs = np.linalg.eig(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in practice
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    n = np.arange(len(stack))[:, None]
    order = lex_order(vals)
    vals = vals[n, order]
    vecs = vecs[n[:, None], np.arange(M.shape[-1])[:, None], order[:, None, :]]
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    # Past ~1e154 the norm's squares overflow to inf, which fails every
    # residual test of the callers.
    with np.errstate(over="ignore"):
        residual = np.max(np.linalg.norm(stack @ vecs - vecs * vals[:, None, :], axis=1),
                          axis=-1, initial=0.0)
    if M.ndim == 2:
        return EigenDecomposition(vals[0], vecs[0], float(residual[0]))
    return EigenDecomposition(vals, vecs, residual)


def format_point(point):
    """A point as one line, "(re+imj, ...)", for error messages: numpy's
    array repr wraps long rows."""
    return "(" + ", ".join(f"{complex(z):.6g}" for z in np.ravel(point)) + ")"


def invert(M, name="matrix", points=None):
    """Inverse of a matrix, or of each in a stack, with an explicit
    determinant guard (raises Singular if any matrix fails it).

    The message names the matrix by name and, when points holds the point
    of each matrix (one point, or a stack of them), the first failing one.
    """
    M = _check_square(M)
    m = M.shape[-1]
    scale = np.max(np.sum(np.abs(M), axis=-1), axis=-1)  # infinity norm
    bad = (scale == 0.0) | (np.abs(np.linalg.det(M)) <= INV_EPS * scale**m)
    if np.any(bad):
        where = ""
        if points is not None:
            point = np.reshape(points, (-1, np.shape(points)[-1]))[int(np.argmax(np.ravel(bad)))]
            where = f" at {format_point(point)}"
        raise Singular(f"{name} is singular to working precision{where}")
    return np.linalg.inv(M)

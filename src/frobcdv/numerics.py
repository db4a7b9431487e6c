"""Small dense complex linear algebra and Wirtinger finite differences.

All heavier routines delegate to numpy.linalg; this module pins down the
deterministic conventions (eigenvalue ordering, residual reporting, pivot
thresholds) that the geometric layers rely on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationFailure, FrobCdvError, NoConvergence, Singular

MAX_DIM = 8
DEFAULT_FD_STEP = 1e-5
INV_EPS = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigen-data of a small square complex matrix.

    eigenvalues are sorted lexicographically by (real, imag) so repeated
    calls label eigenvalues identically.  eigenvectors holds unit-norm
    column vectors paired with the eigenvalues; residual bounds
    max_k ||M v_k - lambda_k v_k||_2.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


@dataclass(frozen=True)
class WirtingerDerivative:
    """Holomorphic and antiholomorphic parts of d/dz^j by central differences.

    holo = (1/2)(D_x - i D_y), anti = (1/2)(D_x + i D_y); each entry is an
    array matching the output shape of the differentiated function.
    """

    holo: np.ndarray
    anti: np.ndarray
    step: float
    order: int


def _check_square(M):
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {M.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def lex_order(values):
    """Indices sorting complex values lexicographically by (real, imag)."""
    values = np.asarray(values)
    return np.lexsort((values.imag, values.real))


def solve_eig(M) -> EigenDecomposition:
    """Eigen-decomposition with deterministic (real, imag) eigenvalue order.

    The residual is reported rather than hidden so callers can detect
    defective (non-diagonalizable) inputs.
    """
    M = _check_square(M)
    try:
        vals, vecs = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in practice
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    order = lex_order(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    residual = float(np.max(np.linalg.norm(M @ vecs - vecs * vals, axis=0))) if M.size else 0.0
    return EigenDecomposition(vals, vecs, residual)


def invert(M):
    """Inverse with an explicit determinant guard (raises Singular)."""
    M = _check_square(M)
    m = M.shape[0]
    scale = np.linalg.norm(M, ord=np.inf)
    if scale == 0.0 or abs(np.linalg.det(M)) <= INV_EPS * scale**m:
        raise Singular("matrix is singular to working precision")
    return np.linalg.inv(M)


_STENCILS = {
    2: ((-1.0, -0.5), (1.0, 0.5)),
    4: ((-2.0, 1.0 / 12.0), (-1.0, -8.0 / 12.0), (1.0, 8.0 / 12.0), (2.0, -1.0 / 12.0)),
}


def wirtinger_fd(f, point, direction, step=DEFAULT_FD_STEP, order=2) -> WirtingerDerivative:
    """Wirtinger derivatives of f: C^m -> C^k at point, along one coordinate.

    Central differences in the real and imaginary parts of the chosen
    coordinate are combined into holo = (D_x - i D_y)/2 and
    anti = (D_x + i D_y)/2.  A numerical failure of f at a stencil point
    (a FrobCdvError, ArithmeticError or ValueError, which includes
    np.linalg.LinAlgError) becomes EvaluationFailure; any other exception
    propagates unchanged.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if order not in _STENCILS:
        raise ValueError("order must be 2 or 4")
    point = np.asarray(point, dtype=complex)

    def shifted(delta):
        t = point.copy()
        t[direction] += delta
        try:
            return np.asarray(f(t), dtype=complex)
        except (FrobCdvError, ArithmeticError, ValueError) as exc:
            raise EvaluationFailure(
                f"function evaluation failed at stencil offset {delta!r}: {exc}"
            ) from exc

    dx = sum(w * shifted(c * step) for c, w in _STENCILS[order]) / step
    dy = sum(w * shifted(1j * c * step) for c, w in _STENCILS[order]) / step
    return WirtingerDerivative(
        holo=0.5 * (dx - 1j * dy), anti=0.5 * (dx + 1j * dy), step=step, order=order
    )

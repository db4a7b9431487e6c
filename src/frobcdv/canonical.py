"""Canonical (idempotent) frames at semi-simple points.

The canonical values u^alpha are the eigenvalues of the Euler
multiplication operator; eigenvectors are rescaled to idempotents, which
removes every gauge freedom except labeling.  Labels follow the
lexicographic order of the eigenvalues at each point on its own; the
verifiers read only label-invariant data, with exact derivatives from
each point's own frame, so no two frames need matching.

canonical_frame builds the frame at one point (m,) and the frames at a
stack of points (N, m) through the same code.  It forms each point's
flat first-order data once: A^{-1}, the Hermitian pairing h in the flat
basis with its exact derivatives (flat_frame_dh), h^{-1} and the fourth
partials of F.  Both inversions are guarded there, and every reader of a
frame takes them from it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DefectiveU, NotSemisimple
from .numerics import format_point, invert, solve_eig
from .potential import FlatPointEval, flat_eval, fourth_derivatives
from .report import VerificationReport

DEFAULT_EPS_SS = 1e-8
IDEMPOTENT_EPS = 1e-12


@dataclass(frozen=True)
class CanonicalFrame:
    """Eigen-data of the tangent algebra at one semi-simple point.

    Column alpha of A expresses the idempotent e_alpha in the flat basis;
    eta[alpha] = g(e_alpha, e_alpha); eta_d[alpha, beta] = e_alpha(eta_beta);
    dC[k, alpha, gamma] = F''''(d_k, e_alpha, e_alpha, e_gamma), i.e.
    g((d_k C)(e_alpha, e_alpha), e_gamma), the flat derivative of the
    multiplication that gives eta_d and the derivatives of the idempotents.
    ev holds the flat tensors at the point that the eigendecomposition used
    and F4 the fourth partials of F there.  A_inv = A^{-1} (row alpha =
    frame components of the flat vectors), h is the Hermitian pairing in
    the flat basis, dh[k] = d_k h (flat_frame_dh) and h_inv = h^{-1}.
    The frames at a stack of N points (canonical_frame on an (N, m)
    array) are one CanonicalFrame whose fields gain a leading axis of
    length N; gap is then an array, and a scalar at one point.
    """

    point: np.ndarray
    u: np.ndarray
    A: np.ndarray
    eta: np.ndarray
    eta_d: np.ndarray
    dC: np.ndarray
    gap: float
    ev: FlatPointEval
    F4: np.ndarray
    A_inv: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    h_inv: np.ndarray


def _pairwise_gap(u):
    """Smallest distance between two eigenvalues of u (m,), or in each row
    of a stack u (N, m)."""
    m = u.shape[-1]
    if m < 2:
        return np.full(u.shape[:-1], np.inf)[()]
    diff = np.abs(u[..., :, None] - u[..., None, :])
    return np.min(diff[..., ~np.eye(m, dtype=bool)], axis=-1)


def _at_first(bad, *per_point):
    """None if no point fails a check, else each array of per_point (one
    entry or one row per point) at the first point that fails it."""
    if not np.any(bad):
        return None
    i = np.argmax(np.ravel(bad))
    return [np.reshape(x, (bad.size,) + np.shape(x)[bad.ndim:])[i] for x in per_point]


def _bare_frame(spec, t, eps_ss):
    """Eigenvalues, idempotent matrices A, eta, gap and the flat tensors at
    a point t (m,) or a stack of points (N, m) -- no derivatives.  One
    eigen-solve call covers the stack; every check runs on every point,
    and the first point that fails it raises."""
    ev = flat_eval(spec, t)
    eig = solve_eig(ev.U)
    u = eig.eigenvalues
    gap = _pairwise_gap(u)
    scale = 1.0 + np.max(np.abs(u), axis=-1)
    failed = _at_first(gap <= eps_ss * scale, gap, eps_ss * scale, t)
    if failed is not None:
        gap_t, threshold, at = failed
        raise NotSemisimple(f"eigenvalue gap {gap_t:.3e} below threshold {threshold:.3e} "
                            f"at {format_point(at)}")
    failed = _at_first(eig.residual > 1e-8 * scale, eig.residual)
    if failed is not None:
        raise DefectiveU(f"eigenvector residual {failed[0]:.3e} too large")
    # Each eigenvector v, divided by c where v o v = c v, is an idempotent;
    # c is read off at the largest component of v.
    V = eig.eigenvectors
    vv = np.einsum("...ia,...ja,...ijk->...ka", V, V, ev.Cmix)
    pivot = np.argmax(np.abs(V), axis=-2)[..., None, :]
    c = np.take_along_axis(vv, pivot, axis=-2) / np.take_along_axis(V, pivot, axis=-2)
    if np.any(np.abs(c) < IDEMPOTENT_EPS):
        raise DefectiveU("eigenvector squares to ~0; algebra not semi-simple here")
    A = V / c
    eta = np.einsum("...ia,ij,...ja->...a", A, ev.g, A)
    return u, A, eta, gap, ev


def _derivative_data(spec, t, A):
    """The fourth partials F4 of F, dC (see CanonicalFrame) and eta_d at a
    point or a stack of points t, from one evaluation of F''''.

    eta_d[alpha, beta] = e_alpha(eta_beta) = -2 F''''(e_alpha, e_beta,
    e_beta, e_beta): eta_beta = F'''(e_beta, e_beta, e_beta), and
    F'''(v, e_beta, e_beta) = g(v, e_beta o e_beta) = g(v, e_beta).
    Differentiating along e_alpha, with v = e_alpha(e_beta) and g
    constant, gives e_alpha(eta_beta) = F''''(e_alpha, e_beta, e_beta,
    e_beta) + (3/2) e_alpha(eta_beta).
    """
    F4 = fourth_derivatives(spec, t)
    dC = np.einsum("...kijl,...ia,...ja,...lg->...kag", F4, A, A, A)
    eta_d = -2.0 * np.einsum("...ka,...kbb->...ab", A, dC)
    return F4, dC, eta_d


def flat_frame_dh(A_inv, eta, dC):
    """h in the flat basis and its exact derivatives dh[k] = d_k h, from
    the eigen-data of a frame (or of each frame of a stack).

    h = B^T diag|eta| conj(B) with B = A^{-1} (A_inv); it is
    label-invariant, and so is dh.  dbar_k h = dh[k]^dagger, as h is
    Hermitian.  d_k conj(B) = 0 and d_k B = -B (d_k A) B.  Differentiating
    e_alpha o e_alpha = e_alpha gives d_k e_alpha = sum_gamma x_gamma
    e_gamma with x_gamma = r_gamma for gamma != alpha and x_alpha =
    -r_alpha, where r_gamma = dC[k, alpha, gamma] / eta_gamma.  With d_k
    eta_alpha = -2 dC[k, alpha, alpha] and d_k|eta_alpha| = |eta_alpha|
    d_k eta_alpha / (2 eta_alpha) the diagonal terms cancel: d_k h = -B^T
    M_k conj(B), where M_k[alpha, gamma] = dC[k, alpha, gamma] |eta_gamma|
    / eta_gamma off the diagonal, 0 on it.
    """
    B = A_inv
    abs_eta = np.abs(eta)
    h = np.einsum("...ai,...aj,...a->...ij", B, np.conj(B), abs_eta)
    M = dC * (abs_eta / eta)[..., None, None, :]
    a = np.arange(eta.shape[-1])
    M[..., a, a] = 0.0
    dh = -np.einsum("...ai,...kag,...gj->...kij", B, M, np.conj(B))
    return h, dh


def canonical_frame(spec, t, eps_ss=DEFAULT_EPS_SS) -> CanonicalFrame:
    """Canonical frame at a point t (m,), or the frames at a stack of
    points t (N, m), with exact derivatives.

    One eigen-solve call and one evaluation of each partial of F cover the
    stack.  Each point's labels are its own (lexicographic order).  A and
    h are inverted once each, under a guard (numerics.invert) whose error
    names the matrix and the first point that fails it.
    """
    t = np.asarray(t, dtype=complex)
    u, A, eta, gap, ev = _bare_frame(spec, t, eps_ss)
    F4, dC, eta_d = _derivative_data(spec, t, A)
    A_inv = invert(A, "idempotent frame A", t)
    h, dh = flat_frame_dh(A_inv, eta, dC)
    return CanonicalFrame(point=t, u=u, A=A, eta=eta, eta_d=eta_d, dC=dC, gap=gap, ev=ev,
                          F4=F4, A_inv=A_inv, h=h, dh=dh, h_inv=invert(h, "flat pairing h", t))


def as_frame(spec, t) -> CanonicalFrame:
    """t itself if it is a CanonicalFrame (one built already, e.g. by
    sampling), else the canonical frame at the point t."""
    return t if isinstance(t, CanonicalFrame) else canonical_frame(spec, t)


def levi_civita_canonical(frame: CanonicalFrame):
    """Christoffel matrices Gamma[alpha, k, beta] of nabla_{e_alpha} e_beta.

    For alpha != beta:
        nabla_alpha e_beta = (e_beta eta_alpha)/(2 eta_alpha) e_alpha
                           + (e_alpha eta_beta)/(2 eta_beta) e_beta,
    and on the diagonal:
        nabla_alpha e_alpha = (e_alpha eta_alpha)/(2 eta_alpha) e_alpha
                            - sum_{g != alpha} (e_g eta_alpha)/(2 eta_g) e_g.
    """
    m = len(frame.u)
    a = np.arange(m)
    off = 1.0 - np.eye(m)
    q = frame.eta_d / (2.0 * frame.eta)  # q[b, a] = e_b(eta_a) / (2 eta_a)
    p = frame.eta_d / (2.0 * frame.eta[:, None])  # p[g, a] = e_g(eta_a) / (2 eta_g)
    G = np.zeros((m, m, m), dtype=complex)
    G[a, a, :] = q.T
    G[:, a, a] += q * off
    G[a, :, a] -= (p * off).T
    return G


def check_euler_eta(spec, frame: CanonicalFrame, tol) -> VerificationReport:
    """Scaling law E(eta_alpha) = -d * eta_alpha along the Euler field."""
    e_eta = frame.u @ frame.eta_d  # E eta_alpha = sum_beta u^beta e_beta(eta_alpha)
    residual = float(np.max(np.abs(e_eta + spec.d * frame.eta)))
    report = VerificationReport()
    report.add("euler_eta_scaling", residual, tol)
    return report

"""Canonical (idempotent) frames at semi-simple points.

The canonical values u^alpha are the eigenvalues of the Euler
multiplication operator; eigenvectors are rescaled to idempotents, which
removes every gauge freedom except labeling.  Labels are fixed
lexicographically at the base point and matched by nearest-eigenvalue
assignment when frames are recomputed on finite-difference stencils.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DefectiveU, FrameDiscontinuity, NotSemisimple
from .numerics import solve_eig
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
    ev holds the flat tensors at the point that the eigendecomposition used.
    The frames at a stack of N points (canonical_frames) are one
    CanonicalFrame whose fields gain a leading axis of length N; gap is
    then an array.
    """

    point: np.ndarray
    u: np.ndarray
    A: np.ndarray
    eta: np.ndarray
    eta_d: np.ndarray
    dC: np.ndarray
    gap: float
    ev: FlatPointEval


def _pairwise_gap(u):
    """Smallest distance between two eigenvalues in each row of u (N, m)."""
    m = u.shape[-1]
    if m < 2:
        return np.full(u.shape[:-1], np.inf)
    diff = np.abs(u[..., :, None] - u[..., None, :])
    return np.min(diff[..., ~np.eye(m, dtype=bool)], axis=-1)


def _first(bad):
    """Index of the first point of a stack that fails a check, or None."""
    return int(np.argmax(bad)) if np.any(bad) else None


def _bare_frame(spec, t, eps_ss):
    """Eigenvalues, idempotent matrices A, eta, gap and the flat tensors at
    a stack of points t (N, m) -- no derivatives.  One eigen-solve call
    covers the stack; every check runs on every point, and the first
    point that fails it raises."""
    ev = flat_eval(spec, t)
    eig = solve_eig(ev.U)
    u = eig.eigenvalues
    gap = _pairwise_gap(u)
    scale = 1.0 + np.max(np.abs(u), axis=-1)
    i = _first(gap <= eps_ss * scale)
    if i is not None:
        raise NotSemisimple(
            f"eigenvalue gap {gap[i]:.3e} below threshold {eps_ss * scale[i]:.3e} at {t[i]}"
        )
    i = _first(eig.residual > 1e-8 * scale)
    if i is not None:
        raise DefectiveU(f"eigenvector residual {eig.residual[i]:.3e} too large")
    # Each eigenvector v, divided by c where v o v = c v, is an idempotent;
    # c is read off at the largest component of v.
    V = eig.eigenvectors
    vv = np.einsum("nia,nja,nijk->nka", V, V, ev.Cmix)
    n, a = np.arange(len(V))[:, None], np.arange(V.shape[-1])
    pivot = np.argmax(np.abs(V), axis=1)
    c = vv[n, pivot, a] / V[n, pivot, a]
    if np.any(np.abs(c) < IDEMPOTENT_EPS):
        raise DefectiveU("eigenvector squares to ~0; algebra not semi-simple here")
    A = V / c[:, None, :]
    eta = np.einsum("nia,ij,nja->na", A, ev.g, A)
    return u, A, eta, gap, ev


def _matched_bare(spec, t, ref_u, gap, eps_ss):
    """Bare frames at a stack of points t with labels matched to the
    reference eigenvalues.

    At each point every reference eigenvalue takes its nearest
    eigenvalue.  Two labels claiming the same eigenvalue, or an eigenvalue
    that moves by more than a quarter of the reference gap, signal that
    the local labeling has become ambiguous.  When both checks pass the
    nearest match is the unique optimal assignment: every other
    eigenvalue lies at least 3 gap/4 away.
    """
    u, A, eta, gaps, ev = _bare_frame(spec, t, eps_ss)
    perm = np.argmin(np.abs(ref_u[:, None] - u[:, None, :]), axis=2)
    i = _first(np.any(np.diff(np.sort(perm, axis=1), axis=1) == 0, axis=1))
    if i is not None:
        raise FrameDiscontinuity(f"eigenvalue labels not one-to-one across stencil: {perm[i]}")
    n = np.arange(len(perm))[:, None]
    u = u[n, perm]
    moved = np.max(np.abs(u - ref_u), axis=1)
    i = _first(moved > gap / 4.0)
    if i is not None:
        raise FrameDiscontinuity(
            f"eigenvalue moved {moved[i]:.3e} across stencil, exceeding gap/4 = {gap / 4:.3e}"
        )
    return u, A[n[:, None], np.arange(len(ref_u))[:, None], perm[:, None, :]], eta[n, perm], gaps, ev


def _derivative_data(spec, t, A):
    """dC (see CanonicalFrame) and eta_d at a stack of points t, from one
    evaluation of F''''.

    eta_d[alpha, beta] = e_alpha(eta_beta) = -2 F''''(e_alpha, e_beta,
    e_beta, e_beta): eta_beta = F'''(e_beta, e_beta, e_beta), and
    F'''(v, e_beta, e_beta) = g(v, e_beta o e_beta) = g(v, e_beta).
    Differentiating along e_alpha, with v = e_alpha(e_beta) and g
    constant, gives e_alpha(eta_beta) = F''''(e_alpha, e_beta, e_beta,
    e_beta) + (3/2) e_alpha(eta_beta).
    """
    F4 = fourth_derivatives(spec, t)
    dC = np.einsum("nkijl,nia,nja,nlg->nkag", F4, A, A, A)
    eta_d = -2.0 * np.einsum("nka,nkbb->nab", A, dC)
    return dC, eta_d


def canonical_frames(spec, points, eps_ss=DEFAULT_EPS_SS, ref=None) -> CanonicalFrame:
    """Canonical frames at a stack of points (N, m), with exact derivatives.

    One eigen-solve call and one evaluation of each partial of F cover the
    stack.  With a reference frame ref, the labels at every point are
    matched to ref's: frame data recomputed on finite-difference stencils
    needs eigenvalue labels that vary continuously.
    """
    t = np.asarray(points, dtype=complex)
    if ref is None:
        u, A, eta, gap, ev = _bare_frame(spec, t, eps_ss)
    else:
        u, A, eta, gap, ev = _matched_bare(spec, t, ref.u, ref.gap, eps_ss)
    dC, eta_d = _derivative_data(spec, t, A)
    return CanonicalFrame(point=t, u=u, A=A, eta=eta, eta_d=eta_d, dC=dC, gap=gap, ev=ev)


def _single(frames: CanonicalFrame) -> CanonicalFrame:
    """The frame of a one-point stack."""
    ev = frames.ev
    ev = FlatPointEval(point=ev.point[0], C3=ev.C3[0], Cmix=ev.Cmix[0], g=ev.g,
                       g_inv=ev.g_inv, U=ev.U[0])
    return CanonicalFrame(
        point=frames.point[0], u=frames.u[0], A=frames.A[0], eta=frames.eta[0],
        eta_d=frames.eta_d[0], dC=frames.dC[0], gap=float(frames.gap[0]), ev=ev,
    )


def canonical_frame(spec, t, eps_ss=DEFAULT_EPS_SS) -> CanonicalFrame:
    """Full canonical frame at t, with exact derivatives (one eigendecomposition)."""
    return _single(canonical_frames(spec, np.asarray(t, dtype=complex)[None], eps_ss))


def matched_frame(spec, t, ref: CanonicalFrame) -> CanonicalFrame:
    """Canonical frame at t with labels matched to a reference frame."""
    return _single(canonical_frames(spec, np.asarray(t, dtype=complex)[None], ref=ref))


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

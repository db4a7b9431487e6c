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
    m = len(u)
    if m < 2:
        return np.inf
    diff = np.abs(u[:, None] - u[None, :])
    return float(np.min(diff[~np.eye(m, dtype=bool)]))


def _bare_frame(spec, t, eps_ss):
    """Eigenvalues, idempotent matrix A, eta, gap and the flat tensors at
    t -- no derivatives."""
    ev = flat_eval(spec, t)
    m = spec.dim
    eig = solve_eig(ev.U)
    u = eig.eigenvalues
    gap = _pairwise_gap(u)
    scale = 1.0 + float(np.max(np.abs(u))) if m else 1.0
    if gap <= eps_ss * scale:
        raise NotSemisimple(
            f"eigenvalue gap {gap:.3e} below threshold {eps_ss * scale:.3e} at {t}"
        )
    if eig.residual > 1e-8 * scale:
        raise DefectiveU(f"eigenvector residual {eig.residual:.3e} too large")
    A = np.zeros((m, m), dtype=complex)
    for alpha in range(m):
        v = eig.eigenvectors[:, alpha]
        vv = np.einsum("i,j,ijk->k", v, v, ev.Cmix)
        pivot = int(np.argmax(np.abs(v)))
        c = vv[pivot] / v[pivot]
        if abs(c) < IDEMPOTENT_EPS:
            raise DefectiveU("eigenvector squares to ~0; algebra not semi-simple here")
        A[:, alpha] = v / c
    eta = np.einsum("ia,ij,ja->a", A, ev.g, A)
    return u, A, eta, gap, ev


def _matched_bare(spec, t, ref_u, gap, eps_ss):
    """Bare frame at t with labels matched to the reference eigenvalues.

    Each reference eigenvalue takes its nearest eigenvalue at t.  Two
    labels claiming the same eigenvalue, or an eigenvalue that moves by
    more than a quarter of the reference gap, signal that the local
    labeling has become ambiguous.  When both checks pass the nearest
    match is the unique optimal assignment: every other eigenvalue lies
    at least 3 gap/4 away.
    """
    u, A, eta, _, ev = _bare_frame(spec, t, eps_ss)
    perm = np.argmin(np.abs(ref_u[:, None] - u[None, :]), axis=1)
    if len(np.unique(perm)) != len(perm):
        raise FrameDiscontinuity(f"eigenvalue labels not one-to-one across stencil: {perm}")
    moved = float(np.max(np.abs(u[perm] - ref_u)))
    if moved > gap / 4.0:
        raise FrameDiscontinuity(
            f"eigenvalue moved {moved:.3e} across stencil, exceeding gap/4 = {gap / 4:.3e}"
        )
    return u[perm], A[:, perm], eta[perm], ev


def _derivative_data(spec, t, A):
    """dC (see CanonicalFrame) and eta_d from one evaluation of F''''.

    eta_d[alpha, beta] = e_alpha(eta_beta) = -2 F''''(e_alpha, e_beta,
    e_beta, e_beta): eta_beta = F'''(e_beta, e_beta, e_beta), and
    F'''(v, e_beta, e_beta) = g(v, e_beta o e_beta) = g(v, e_beta).
    Differentiating along e_alpha, with v = e_alpha(e_beta) and g
    constant, gives e_alpha(eta_beta) = F''''(e_alpha, e_beta, e_beta,
    e_beta) + (3/2) e_alpha(eta_beta).
    """
    F4 = fourth_derivatives(spec, t)
    dC = np.einsum("kijl,ia,ja,lg->kag", F4, A, A, A)
    eta_d = -2.0 * np.einsum("ka,kbb->ab", A, dC)
    return dC, eta_d


def canonical_frame(spec, t, eps_ss=DEFAULT_EPS_SS) -> CanonicalFrame:
    """Full canonical frame at t, with exact derivatives (one eigendecomposition)."""
    t = np.asarray(t, dtype=complex)
    u, A, eta, gap, ev = _bare_frame(spec, t, eps_ss)
    dC, eta_d = _derivative_data(spec, t, A)
    return CanonicalFrame(point=t, u=u, A=A, eta=eta, eta_d=eta_d, dC=dC, gap=gap, ev=ev)


def matched_frame(spec, t, ref: CanonicalFrame, eps_ss=DEFAULT_EPS_SS) -> CanonicalFrame:
    """Canonical frame at t with labels matched to a reference frame.

    Used when frame data is recomputed on finite-difference stencils: the
    eigenvalue labels must vary continuously for derivatives of frame
    quantities to make sense.
    """
    t = np.asarray(t, dtype=complex)
    u, A, eta, ev = _matched_bare(spec, t, ref.u, ref.gap, eps_ss)
    dC, eta_d = _derivative_data(spec, t, A)
    return CanonicalFrame(point=t, u=u, A=A, eta=eta, eta_d=eta_d, dC=dC,
                          gap=_pairwise_gap(u), ev=ev)


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

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
from .potential import flat_eval, fourth_derivatives
from .report import VerificationReport

DEFAULT_EPS_SS = 1e-8
IDEMPOTENT_EPS = 1e-12


@dataclass(frozen=True)
class CanonicalFrame:
    """Eigen-data of the tangent algebra at one semi-simple point.

    Column alpha of A expresses the idempotent e_alpha in the flat basis;
    eta[alpha] = g(e_alpha, e_alpha); eta_d[alpha, beta] = e_alpha(eta_beta).
    """

    point: np.ndarray
    u: np.ndarray
    A: np.ndarray
    eta: np.ndarray
    eta_d: np.ndarray
    gap: float


def _pairwise_gap(u):
    m = len(u)
    if m < 2:
        return np.inf
    diff = np.abs(u[:, None] - u[None, :])
    return float(np.min(diff[~np.eye(m, dtype=bool)]))


def _bare_frame(spec, t, eps_ss):
    """Eigenvalues, idempotent matrix A, eta, and gap -- no derivatives."""
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
    return u, A, eta, gap


def _matched_bare(spec, t, ref_u, gap, eps_ss):
    """Bare frame at t with labels matched to the reference eigenvalues.

    Each reference eigenvalue takes its nearest eigenvalue at t.  Two
    labels claiming the same eigenvalue, or an eigenvalue that moves by
    more than a quarter of the reference gap, signal that the local
    labeling has become ambiguous.  When both checks pass the nearest
    match is the unique optimal assignment: every other eigenvalue lies
    at least 3 gap/4 away.
    """
    u, A, eta, _ = _bare_frame(spec, t, eps_ss)
    perm = np.argmin(np.abs(ref_u[:, None] - u[None, :]), axis=1)
    if len(np.unique(perm)) != len(perm):
        raise FrameDiscontinuity(f"eigenvalue labels not one-to-one across stencil: {perm}")
    moved = float(np.max(np.abs(u[perm] - ref_u)))
    if moved > gap / 4.0:
        raise FrameDiscontinuity(
            f"eigenvalue moved {moved:.3e} across stencil, exceeding gap/4 = {gap / 4:.3e}"
        )
    return u[perm], A[:, perm], eta[perm]


def _eta_d(spec, t, A):
    """eta_d[alpha, beta] = e_alpha(eta_beta) = -2 F''''(e_alpha, e_beta, e_beta, e_beta).

    eta_beta = F'''(e_beta, e_beta, e_beta), and F'''(v, e_beta, e_beta) =
    g(v, e_beta o e_beta) = g(v, e_beta).  Differentiating along e_alpha,
    with v = e_alpha(e_beta) and g constant, gives e_alpha(eta_beta) =
    F''''(e_alpha, e_beta, e_beta, e_beta) + (3/2) e_alpha(eta_beta).
    """
    F4 = fourth_derivatives(spec, t)
    return -2.0 * np.einsum("ijkl,ia,jb,kb,lb->ab", F4, A, A, A, A)


def canonical_frame(spec, t, eps_ss=DEFAULT_EPS_SS) -> CanonicalFrame:
    """Full canonical frame at t, with eta_d exact (one eigendecomposition)."""
    t = np.asarray(t, dtype=complex)
    u, A, eta, gap = _bare_frame(spec, t, eps_ss)
    return CanonicalFrame(point=t, u=u, A=A, eta=eta, eta_d=_eta_d(spec, t, A), gap=gap)


def matched_frame(spec, t, ref: CanonicalFrame, eps_ss=DEFAULT_EPS_SS) -> CanonicalFrame:
    """Canonical frame at t with labels matched to a reference frame.

    Used when frame data is recomputed on finite-difference stencils: the
    eigenvalue labels must vary continuously for derivatives of frame
    quantities to make sense.
    """
    t = np.asarray(t, dtype=complex)
    u, A, eta = _matched_bare(spec, t, ref.u, ref.gap, eps_ss)
    return CanonicalFrame(point=t, u=u, A=A, eta=eta, eta_d=_eta_d(spec, t, A),
                          gap=_pairwise_gap(u))


def levi_civita_canonical(frame: CanonicalFrame):
    """Christoffel matrices Gamma[alpha][k, beta] of nabla_{e_alpha} e_beta.

    For alpha != beta:
        nabla_alpha e_beta = (e_beta eta_alpha)/(2 eta_alpha) e_alpha
                           + (e_alpha eta_beta)/(2 eta_beta) e_beta,
    and on the diagonal:
        nabla_alpha e_alpha = (e_alpha eta_alpha)/(2 eta_alpha) e_alpha
                            - sum_{g != alpha} (e_g eta_alpha)/(2 eta_g) e_g.
    """
    m = len(frame.u)
    eta = frame.eta
    eta_d = frame.eta_d
    gammas = []
    for alpha in range(m):
        G = np.zeros((m, m), dtype=complex)
        for beta in range(m):
            if beta == alpha:
                G[alpha, alpha] += eta_d[alpha, alpha] / (2.0 * eta[alpha])
                for g in range(m):
                    if g != alpha:
                        G[g, alpha] -= eta_d[g, alpha] / (2.0 * eta[g])
            else:
                G[alpha, beta] += eta_d[beta, alpha] / (2.0 * eta[alpha])
                G[beta, beta] += eta_d[alpha, beta] / (2.0 * eta[beta])
        gammas.append(G)
    return gammas


def check_euler_eta(spec, frame: CanonicalFrame, tol) -> VerificationReport:
    """Scaling law E(eta_alpha) = -d * eta_alpha along the Euler field."""
    e_eta = frame.u @ frame.eta_d  # E eta_alpha = sum_beta u^beta e_beta(eta_alpha)
    residual = float(np.max(np.abs(e_eta + spec.d * frame.eta)))
    report = VerificationReport()
    report.add("euler_eta_scaling", residual, tol)
    return report

"""Canonical positive CDV-structures and the full axiom verifier.

All frame matrices use the column convention M[out, in] (matrix times
coefficient vector).  CdvStructure and HarmonicData work in the
canonical idempotent frame, as do connection_gap's two torsion gaps,
which read eta and eta_d alone.  flat_frame_h, flat_ttstar_data,
derivative_data, curvature_coefficients, pencil_curvature,
verify_harmonic, verify_cv_axioms and the Kaehler and real Levi-Civita
gaps of connection_gap work in the flat frame, where every matrix is
label-invariant, so no verifier matches eigenvalue labels.  The Kaehler
gap and both real Levi-Civita gaps read one array, the Chern torsion
d_k h_jl - d_j h_kl: the real Levi-Civita connection is the Chern one
plus terms in it.  Each reads A^{-1}, the pairing h, its derivatives,
h^{-1}, kappa's matrix g^{-1} h and the Chern connection d_k h h^{-1}
from the CanonicalFrame, which forms them once, at a point or at each of
a stack (a leading axis).  Every check hands VerificationReport.add its
residual at each point, which reads the worst of them.  derivative_data
gives all three verifiers (verify_cv_axioms, verify_harmonic and
pencil_curvature) the tt* data and its exact derivatives from that
frame, each first order in it, with d_j W_k up to its part symmetric in
(j, k), which no curvature component reads; no verifier takes a finite
difference.  curvature_coefficients forms the pencil's curvature as one
Cauchy product of its Laurent coefficients per point.  The Hermitian
pairing convention is h(u, v) = sum_ij u^i conj(v^j) h_ij, C-linear in
the first slot.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .canonical import CanonicalFrame, as_frame, canonical_frame
from .report import VerificationReport

ALG_TOL = 1e-10


def _diag(x):  # the matrices with the last axis of x on the diagonal
    return np.where(np.eye(x.shape[-1], dtype=bool), x[..., None, :], 0j)


@dataclass(frozen=True)
class CdvStructure:
    """The canonical structure at a semi-simple point, or at each of a stack.

    All matrices are in the canonical frame, each formed from frame on its
    first read: K is the matrix of the real involution kappa (antilinear
    action v -> K conj(v)), h the Hermitian pairing and omega[..., alpha,
    :, :] the Chern connection form evaluated on e_alpha.
    """

    frame: CanonicalFrame
    K = cached_property(lambda self: _diag(np.abs(self.frame.eta) / self.frame.eta))
    h = cached_property(lambda self: _diag(np.abs(self.frame.eta)))
    omega = cached_property(  # omega(e_alpha) = diag_beta(e_alpha(eta_beta) / (2 eta_beta))
        lambda self: _diag(self.frame.eta_d / (2.0 * self.frame.eta[..., None, :])))


@dataclass(frozen=True)
class HarmonicData:
    """Harmonic potential P, its adjoint P-dagger, and V = grad-Euler part."""

    P: np.ndarray
    Pdag: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class DerivativeData:
    """The flat data that verify_cv_axioms, verify_harmonic and
    pencil_curvature read at a point, or at each of a stack (derivative_data).

    S is the tt* data (flat_ttstar_data) at the point, dS its Wirtinger
    derivatives along the 2m directions, d/dt^j then d/dconj(t^j)
    (curvature_coefficients' order), and dP (if P was given) the
    holomorphic ones of P_flat = A P A^{-1}, P the harmonic potential.

    The hol-W block dS[..., :m, :m, :, :] holds d_j W_k only up to a part
    symmetric in (j, k): [j, k] is (-d_k h h^{-1} d_j h h^{-1})^T, which
    leaves out (d_j d_k h h^{-1})^T.  The block enters the curvature only
    as d_j W_k - d_k W_j (curvature_coefficients), where that part
    cancels, and no other check reads it.
    """

    S: np.ndarray
    dS: np.ndarray
    dP: np.ndarray


def construct_canonical_cdv(frame: CanonicalFrame, d: float) -> CdvStructure:
    """The canonical structure K = diag(|eta|/eta), h = diag(|eta|); d is unused."""
    return CdvStructure(frame)


def derivative_data(spec, frame: CanonicalFrame, P=None) -> DerivativeData:
    """The DerivativeData of the point(s) of frame, exact, for all three
    verifiers; dP given P = harmonic_potential(frame, d).P.

    h, its first derivatives, h^{-1}, K = g^{-1} h, d_k h h^{-1}, A^{-1}
    and the fourth partials of F come from the frame, and every derivative
    is first order in it.

    G = diag(sqrt eta) A^{-1} (any branch of the root) has h = G^T conj(G)
    and d_k G = N_k G, where N_k[a, c] = -dC[k, c, a] / sqrt(eta_a eta_c)
    off the diagonal and 0 on it.  So dbar_j d_k h = G^T N_k^T conj(N_j)
    conj(G), and the derivatives of W_k = (d_k h h^{-1})^T follow by the
    quotient rule.  The hol-W block leaves out (d_j d_k h h^{-1})^T, which
    is symmetric in (j, k) and so cancels from every curvature component
    (see DerivativeData).  Phidag_k and kappa U kappa = K conj(Y) conj(K)
    (Y = Phi_k, U) follow by the product rule, with d_j K = g^{-1} d_j h
    and dbar_j K = g^{-1} (d_j h)^dagger.  P_flat = A P A^{-1} has d_k
    P_flat = A ([X_k, P] + d_k P) A^{-1}, X_k the matrix of d_k e_alpha
    (canonical.flat_frame_dh), and P holds conj(eta_d), whose holomorphic
    derivative is 0.
    """
    S = flat_ttstar_data(frame)
    m = frame.u.shape[-1]
    a = np.arange(m)
    A, B, eta, dC, ev = frame.A, frame.A_inv, frame.eta, frame.dC, frame.ev
    h_inv, dh, K, F4 = frame.h_inv, frame.dh, frame.kappa, frame.F4

    # Against the pairs [j, k] (or [j, s], s a slot), an array over j is
    # indexed [..., :, None, :, :], one over k [..., None, :, :, :].
    s = np.sqrt(eta)
    G = s[..., :, None] * B
    N = -np.swapaxes(dC, -1, -2) / (s[..., None, :, None] * s[..., None, None, :])
    N[..., a, a] = 0.0
    N_j, N_k = N[..., :, None, :, :], N[..., None, :, :, :]

    G_T, G_conj = (np.expand_dims(M, (-3, -4)) for M in (np.swapaxes(G, -1, -2), np.conj(G)))
    dh_bar = np.conj(np.swapaxes(dh, -1, -2))  # dbar_j h
    anti_h = G_T @ (np.swapaxes(N_k, -1, -2) @ np.conj(N_j)) @ G_conj  # [j, k]: dbar_j d_k h
    dh_h = frame.chern[..., None, :, :, :]
    h_inv_jk = h_inv[..., None, None, :, :]
    hol_W = np.swapaxes(-(dh_h @ dh[..., :, None, :, :]) @ h_inv_jk, -1, -2)
    anti_W = np.swapaxes((anti_h - dh_h @ dh_bar[..., :, None, :, :]) @ h_inv_jk, -1, -2)

    # Phi_k = -C_k^T and U = sum_i E^i C_i^T, with d_j E^i = degree_i delta_ij.
    dCmix = F4 @ ev.g_inv
    dPhi = -np.swapaxes(dCmix, -1, -2)
    dU = (np.asarray(spec.degrees)[:, None, None] * np.swapaxes(ev.Cmix, -1, -2)
          + np.einsum("...i,...jikl->...jlk", spec.euler_components(frame.point), dCmix))
    Y = np.concatenate([S[..., m:2 * m, :, :], S[..., 3 * m:3 * m + 1, :, :]], axis=-3)
    dY = np.concatenate([dPhi, dU[..., None, :, :]], axis=-3)
    dK, dK_bar = (ev.g_inv @ M[..., :, None, :, :] for M in (dh, dh_bar))
    K_js, conj_K = K[..., None, None, :, :], np.conj(K)[..., None, None, :, :]
    conj_Y = np.conj(Y)[..., None, :, :, :]
    KY = K_js @ conj_Y
    hol_KY = dK @ conj_Y @ conj_K + KY @ np.conj(dK_bar)
    anti_KY = dK_bar @ conj_Y @ conj_K + K_js @ np.conj(dY) @ conj_K + KY @ np.conj(dK)
    zero = np.zeros_like(dY)
    holo = np.concatenate([hol_W, dY[..., :m, :, :], hol_KY[..., :m, :, :], dY[..., m:, :, :],
                           hol_KY[..., m:, :, :]], axis=-3)
    anti = np.concatenate([anti_W, zero[..., :m, :, :], anti_KY[..., :m, :, :],
                           zero[..., m:, :, :], anti_KY[..., m:, :, :]], axis=-3)
    dS = np.concatenate([holo, anti], axis=-4)
    if P is None:
        return DerivativeData(S=S, dS=dS, dP=None)

    q = dC[..., a, a] / eta[..., None, :]  # q[j, alpha] = -d_j eta_alpha / (2 eta_alpha)
    X = np.swapaxes(dC, -1, -2) / eta[..., None, :, None]  # X[k, c, a] = dC[k, a, c] / eta_c
    X[..., a, a] = -q
    P_k = P[..., None, :, :]
    dP = P_k * (q[..., :, :, None] - q[..., :, None, :])
    dP[..., a, a] = -np.einsum("...bi,...kij,...jb->...kb", B, dU, A)  # -d_k u_beta
    dP = A[..., None, :, :] @ (X @ P_k - P_k @ X + dP) @ B[..., None, :, :]
    return DerivativeData(S=S, dS=dS, dP=dP)


def _point_maxabs(M, n):
    """max |M| at each of n points: over all of M at one point, over each
    entry of its leading axis at a stack of n."""
    return np.max(np.abs(M).reshape(n, -1), axis=1)


def _relative(n, M, *scales):
    """max |M| over the product of max |S| for S in scales, each taken at
    each of n points (_point_maxabs): one ratio per point."""
    return _point_maxabs(M, n) / np.prod([_point_maxabs(S, n) for S in scales], axis=0)


def kappa_defect(K):
    """max |conj(K) K - I| for K = g^{-1} h, the matrix of kappa: zero when
    kappa is an involution.  For a stack of matrices, one per matrix."""
    return np.max(np.abs(np.conj(K) @ K - np.eye(K.shape[-1])), axis=(-2, -1))


def pairing_defect(h):
    """The non-Hermitian part of h and its most negative eigenvalue,
    relative to |h|: zero when h is Hermitian and positive semi-definite.
    For a stack of pairings, one per pairing."""
    negativity = np.maximum(0.0, -np.linalg.eigvalsh(h)[..., 0])
    asymmetry = np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2))), axis=(-2, -1))
    return np.maximum(asymmetry, negativity) / np.max(np.abs(h), axis=(-2, -1))


def verify_cv_axioms(spec, cdv: CdvStructure, tol, alg_tol=ALG_TOL, fd_step=None,
                     data: DerivativeData = None) -> VerificationReport:
    """One residual per structure axiom at the point(s) of cdv.frame.

    Every check reads the flat-frame tt* data there: h, h^{-1} and
    K = g^{-1} h from cdv.frame, and W_k, Phi_k, Phidag_k and kappa U kappa
    from data (derivative_data at cdv.frame, built here when it is None).
    The four algebraic checks (kappa_involution, hermitian_pairing,
    higgs_reality, q_reality) are compared against alg_tol, the five others
    against tol: unit_parallel is exact; kappa_parallel, higgs_parallel and
    ttstar_commutator are Laurent coefficients of the pencil's curvature
    (curvature_coefficients), and omega_holomorphy is one term of them.
    Those four read the exact Wirtinger derivatives of the flat data.
    fd_step is unused; the call keeps it.
    """
    frame = cdv.frame
    m, n = frame.u.shape[-1], frame.n_points
    if data is None:
        data = derivative_data(spec, frame)
    h, h_inv, K, S, dS = frame.h, frame.h_inv, frame.kappa, data.S, data.dS
    W, Phi, Phidag = S[..., :m, :, :], S[..., m:2 * m, :, :], S[..., 2 * m:3 * m, :, :]
    kUk = S[..., 3 * m + 1, :, :]
    report = VerificationReport()

    # (a) kappa is an involution: conj(K) K = I.
    report.add("kappa_involution", kappa_defect(K), alg_tol)

    # (b) h is Hermitian and positive definite, relative to its size.
    report.add("hermitian_pairing", pairing_defect(h), alg_tol)

    # (c) the kappa-conjugate of the Higgs field is its h-adjoint
    # conj(h^{-1} Phi^T h) (as h(u, v) = u^T h conj(v)), relative to |Phi|.
    higgs_adjoint = np.conj(h_inv[..., None, :, :] @ np.swapaxes(Phi, -1, -2) @ h[..., None, :, :])
    report.add("higgs_reality", _relative(n, Phidag - higgs_adjoint, Phi), alg_tol)

    # The curvature coefficients F[k][mu, nu] of z^k; i, j are holomorphic
    # flat directions, ibar, jbar antiholomorphic ones.
    F = curvature_coefficients(S, dS)
    hol, anti, both = slice(0, m), slice(m, 2 * m), slice(0, 2 * m)

    # (d) kappa is Chern-parallel: the z^1 coefficients of (i, jbar),
    # d_i Phidag_j + [W_i, Phidag_j], and of (ibar, jbar),
    # dbar_i Phidag_j - dbar_j Phidag_i.
    report.add("kappa_parallel", _point_maxabs(F[1][..., both, anti, :, :], n), tol)

    # (e) the Higgs field is Chern-parallel: the z^-1 coefficients of (i, j),
    # d_i Phi_j - d_j Phi_i + [W_i, Phi_j] - [W_j, Phi_i], and of (i, jbar),
    # -dbar_j Phi_i.
    report.add("higgs_parallel", _point_maxabs(F[-1][..., hol, both, :, :], n), tol)

    # (f) tt* commutator: the z^0 coefficient of (i, jbar),
    # -dbar_j W_i + [Phi_i, Phidag_j].
    report.add("ttstar_commutator", _point_maxabs(F[0][..., hol, anti, :, :], n), tol)

    # (g) Q is self-adjoint and kappa-odd.  Q is the least-norm solution of
    # [W_i, Q] = -[Phi_i, kappa U kappa], the z^-1 coefficient of the (i, z)
    # curvature, where commutators[i, a, b, c, d] is the coefficient of
    # Q[c, d] in [W_i, Q][a, b].  It is fixed up to the commutant of the
    # W_i, which holds the identity (criterion 6's blind spot), and measured
    # in units of |Phi| |kappa U kappa| / |W|, the size the equation gives it.
    I = np.eye(m)
    commutators = (np.einsum("...iac,bd->...iabcd", W, I)
                   - np.einsum("ac,...idb->...iabcd", I, W)).reshape(n, m**3, m**2)
    rhs = -(Phi @ kUk[..., None, :, :] - kUk[..., None, :, :] @ Phi).reshape(n, m**3)
    Q = np.reshape([np.linalg.lstsq(L, r, rcond=None)[0] for L, r in zip(commutators, rhs)],
                   kUk.shape)
    q_real = np.maximum(_point_maxabs(Q - np.conj(h_inv @ np.swapaxes(Q, -1, -2) @ h), n),
                        _point_maxabs(Q + K @ np.conj(Q) @ np.conj(K), n))
    report.add("q_reality", q_real * _point_maxabs(W, n)
               / (_point_maxabs(Phi, n) * _point_maxabs(kUk, n)), alg_tol)

    # (h) the unit field e = A 1, constant in flat coordinates, is
    # Chern-parallel along itself: D_e e = sum_k e^k W_k e = 0.
    e = frame.A.sum(axis=-1)
    report.add("unit_parallel", _point_maxabs(np.einsum("...k,...kij,...j->...i", e, W, e), n),
               tol)

    # (i) holomorphy of the Chern connection: dbar_j W_i, its curvature,
    # vanishes.
    report.add("omega_holomorphy", _point_maxabs(dS[..., m:, :m, :, :], n), tol)

    return report


def harmonic_potential(frame: CanonicalFrame, d: float) -> HarmonicData:
    """Harmonic potential from frame data (one frame, or each of a stack).

    P[alpha, beta] = conj(eta_d[alpha, beta]) eta_beta / (2 |eta_alpha
    eta_beta|) off the diagonal and -u^beta on it; Pdag[beta, alpha] =
    omega_beta^beta(e_alpha) off the diagonal and -conj(u^beta) on it;
    V[beta, alpha] = (u^beta - u^alpha) eta_d[alpha, beta]/(2 eta_beta).
    d is unused; the call keeps it.
    """
    u, eta = frame.u, frame.eta
    P = np.conj(frame.eta_d) * eta[..., None, :] / (
        2.0 * np.abs(eta[..., :, None] * eta[..., None, :]))
    Pdag = np.swapaxes(frame.eta_d / (2.0 * eta[..., None, :]), -1, -2)
    V = (u[..., :, None] - u[..., None, :]) * Pdag  # zero on the diagonal
    a = np.arange(u.shape[-1])
    P[..., a, a] = -u
    Pdag[..., a, a] = -np.conj(u)
    return HarmonicData(P=P, Pdag=Pdag, V=V)


def verify_harmonic(spec, frame: CanonicalFrame, hd: HarmonicData, cdv: CdvStructure, tol,
                    data: DerivativeData = None) -> VerificationReport:
    """Residuals of the harmonic-potential defining system, in the flat frame.

    hd is the harmonic data at the point(s) of frame.  Each of its matrices
    X is read as X_flat = A X A^{-1}, which does not depend on the labels,
    and checked against the flat tt* data W_k, Phi_k and U of data
    (derivative_data at frame, built here when it is None).  The check of
    D'P reads data's exact derivative of the frame's own P_flat, so that
    it sees a wrong hd.  The three other checks are identities of
    harmonic_potential's formulas, relative to the size of their terms at
    each point, so that their round-off does not grow with the data.  cdv
    is unused; the call keeps it.
    """
    m, n = frame.u.shape[-1], frame.n_points
    A, A_inv = frame.A, frame.A_inv
    P, Pdag, V = (A @ X @ A_inv for X in (hd.P, hd.Pdag, hd.V))
    if data is None:
        data = derivative_data(spec, frame, harmonic_potential(frame, spec.d).P)
    S, dP = data.S, data.dP
    W, Phi, U = S[..., :m, :, :], S[..., m:2 * m, :, :], S[..., 3 * m, :, :]
    P_k, Pdag_k = P[..., None, :, :], Pdag[..., None, :, :]

    report = VerificationReport()

    # (a) D'P = Phi: d_k P + [W_k, P] = Phi_k.
    report.add("dprime_p_equals_higgs", _point_maxabs(dP + W @ P_k - P_k @ W - Phi, n), tol)

    # (b) D' = nabla - [Pdag, Phi], where nabla is trivial in flat
    # coordinates: W_k = -[Pdag, Phi_k], relative to |Pdag| |Phi|.
    report.add("chern_from_levi_civita", _relative(n, W + Pdag_k @ Phi - Phi @ Pdag_k, Pdag, Phi),
               tol)

    # (c) P is g-self-adjoint: g^{-1} P^T g = P, relative to |P|.
    report.add("p_selfadjoint",
               _relative(n, frame.ev.g_inv @ np.swapaxes(P, -1, -2) @ frame.ev.g - P, P), tol)

    # (d) V + [Pdag, U] = 0, relative to |Pdag| |U|.
    report.add("v_commutator", _relative(n, V + Pdag @ U - U @ Pdag, Pdag, U), tol)

    return report


def flat_frame_h(spec, t):
    """The Hermitian pairing in the flat basis: h_ij = h(d_i, conj(d_j))."""
    return canonical_frame(spec, t).h


def _lc_torsion(f, tors, h_inv):
    """The real Levi-Civita connection of Re h minus the Chern connection.

    a = (k, f_a) and b = (j, f_b) run over the real directions x^k -> d_k
    (f_a = 1) and y^k -> i d_k (f_a = i), f = (1,.., i,..); output vectors
    are complexified as v_x + i v_y.  By the Koszul formula entry [a, b] is
    1/2 (-f_a f_b tors[k, j] + conj(f_a) f_b T[k, j] + f_a conj(f_b) T[j, k]) h^{-1},
    with tors[k, j, l] = d_k h_jl - d_j h_kl the Chern torsion lowered by h
    and T[k, j, l] = conj(tors[k, l, j]).  The conj(f_a) f_b term is X, and
    the f_a conj(f_b) term is X with a and b swapped.
    """
    T = np.conj(np.swapaxes(tors, -2, -1))
    X = np.multiply.outer(np.conj(f), f)[:, :, None] * np.tile(T, (2, 2, 1))
    ff_tors = np.multiply.outer(f, f)[:, :, None] * np.tile(tors, (2, 2, 1))
    return 0.5 * (X + np.swapaxes(X, -3, -2) - ff_tors) @ h_inv[..., None, :, :]


def connection_gap(spec, t, tol) -> VerificationReport:
    """Gaps between the flat, Chern, and real Levi-Civita connections.

    Entries read as distances: an entry "passes" exactly when the
    corresponding gap is below tol, i.e. when the structure behaves as in
    the trivial (flat) case.  t is a point, a stack or the CanonicalFrame
    there.  nabla_vs_chern and chern_torsion are one number (the metric is
    Egoroff), formed once from the frame's eta and eta_d and reported
    under both names.  kaehler_closedness, real_lc_vs_chern and
    real_lc_vs_nabla read one array, the Chern torsion in flat coordinates
    (see _lc_torsion), and no real metric is formed.  h, its exact
    derivatives, h^{-1} and the Chern connection come from the frame, so a
    call takes one eigendecomposition given points and none given a frame.
    """
    m = spec.dim
    frame = as_frame(spec, t)
    n = frame.n_points
    report = VerificationReport()

    # (a), (b) torsion of the Chern connection, 0 at m = 1: the off-diagonal
    # omega[alpha, beta] = omega_beta^beta(e_alpha) = e_alpha(eta_beta) / (2 eta_beta),
    # as construct_canonical_cdv forms it.  In the canonical frame the flat
    # Levi-Civita connection differs from the Chern one by these entries
    # up to sign, as eta_d is symmetric (the metric is Egoroff), so
    # nabla_vs_chern reads the same array.
    omega = frame.eta_d / (2.0 * frame.eta[..., None, :])
    torsion = np.max(np.abs(omega[..., ~np.eye(m, dtype=bool)]), axis=-1, initial=0.0)
    report.add("nabla_vs_chern", torsion, tol)
    report.add("chern_torsion", torsion, tol)

    # (c) closedness of the Kaehler form, flat coordinates:
    # max |d_k h_jl - d_j h_kl|, the torsion of (b) lowered by h.  At m = 2
    # it reads 2 * chern_torsion to <= 9.8e-16 relative; at m = 3 the ratio
    # varies.
    dh = frame.dh
    tors = dh - np.swapaxes(dh, -3, -2)
    report.add("kaehler_closedness", _point_maxabs(tors, n), tol)

    # (d) real Levi-Civita connection of Re h vs Chern and vs flat over the
    # 2m real directions: LC = f_a f_b chern[k, j] + _lc_torsion, where
    # chern[k, j, l] is D_{d_k} d_j along d_l, so tors = 0 gives LC = Chern.
    f = np.repeat([1.0, 1j], m)
    lc_minus_chern = _lc_torsion(f, tors, frame.h_inv)
    lc = np.multiply.outer(f, f)[:, :, None] * np.tile(frame.chern, (2, 2, 1)) + lc_minus_chern
    report.add("real_lc_vs_chern", _point_maxabs(lc_minus_chern, n), tol)
    report.add("real_lc_vs_nabla", _point_maxabs(lc, n), tol)

    return report


def flat_ttstar_data(frames: CanonicalFrame):
    """The tt* data in flat coordinates at a frame, or at each of a stack.

    The slots, on the axis before the last two (column convention), are
    [W_0.., Phi_0.., Phidag_0.., U, kappa U kappa]: W_k = (d_k h h^{-1})^T
    is the Chern connection along d_k, Phi_k = -C_k^T the Higgs field,
    Phidag_k = kappa Phi_k kappa = K conj(Phi_k) conj(K) with K = g^{-1} h
    the matrix of kappa, and U the Euler multiplication.  All of it is
    label-invariant, and K and d_k h h^{-1} are the frame's.
    """
    ev, K = frames.ev, frames.kappa
    W = np.swapaxes(frames.chern, -1, -2)
    Phi = -np.swapaxes(ev.Cmix, -1, -2)
    Phidag = K[..., None, :, :] @ np.conj(Phi) @ np.conj(K)[..., None, :, :]
    kUk = K @ np.conj(ev.U) @ np.conj(K)
    return np.concatenate([W, Phi, Phidag, ev.U[..., None, :, :], kUk[..., None, :, :]],
                          axis=-3)


def _connection_coefficients(S, Q):
    """a[p + 2, mu] = coefficient of z^p (p = -2..1) in the pencil's
    connection matrix A_mu for flat_ttstar_data S: A_i = W_i + Phi_i/z
    along the holomorphic directions, A_ibar = z Phidag_i along the
    antiholomorphic ones, A_z = U/z^2 - Q/z - kappa U kappa along z."""
    m = (S.shape[-3] - 2) // 3
    W, Phi, Phidag = S[..., :m, :, :], S[..., m:2 * m, :, :], S[..., 2 * m:3 * m, :, :]
    U, kUk = S[..., 3 * m:3 * m + 1, :, :], S[..., 3 * m + 1:, :, :]
    O, o = np.zeros_like(W), np.zeros_like(U)
    rows = ((O, O, U), (Phi, O, np.broadcast_to(-Q, U.shape)), (W, O, -kUk), (O, Phidag, o))
    return np.stack([np.concatenate(row, axis=-3) for row in rows])


def curvature_coefficients(S, dS, Q=0.0):
    """Laurent coefficients in z of the curvature of the pencil
    D + Phi/z + z Phidag + (U/z^2 - Q/z - kappa U kappa) dz.

    S is flat_ttstar_data at a point or at each of a stack, dS its
    Wirtinger derivatives there (DerivativeData.dS) and Q a constant.
    Returns {k: F_k} for k = -4..2, where F_k[..., mu, nu, :, :] is the
    coefficient of z^k in the curvature component F(d_mu, d_nu), with mu,
    nu over the m holomorphic flat directions, then the m antiholomorphic
    ones, then z.  With G[mu, nu] = d_mu A_nu + A_mu A_nu, F = G - G^T over
    (mu, nu), so F is exactly antisymmetric.  A_mu A_nu is the Cauchy
    product of A's Laurent coefficients a (_connection_coefficients),
    sum_q a[k - q]_mu a[q]_nu at z^k, formed in one matrix product per
    point, so a point's coefficients equal its stack's bit for bit.  On a
    random m = 8 stack of 16 points it peaks at 83 MB under tracemalloc.
    """
    stack, m = S.shape[:-3], S.shape[-1]
    S, dS = S.reshape((-1,) + S.shape[-3:]), dS.reshape((-1,) + dS.shape[-4:])
    N, n = dS.shape[:2]
    a = _connection_coefficients(S, Q)  # a[p + 2, point, mu]
    # rows[point, (mu, i, k + 4), (q + 2, j)] = a[k - q]_mu[i, j], 0 at k - q + 2 = -3..-1, 4..6
    padded = np.concatenate([a, np.zeros_like(a[:3])]).transpose(1, 2, 3, 0, 4)
    rows = padded[:, :, :, np.subtract.outer(np.arange(7), np.arange(4))].reshape(N, -1, 4 * m)
    cols = a.transpose(1, 0, 3, 2, 4).reshape(N, 4 * m, -1)  # [point, (q + 2, j), (nu, l)]
    G = (rows @ cols).reshape(N, n + 1, m, 7, n + 1, m).transpose(3, 0, 1, 4, 2, 5)  # G[k + 4]
    G[2:6, :, :n] += _connection_coefficients(dS, 0.0)  # [p + 2, point, mu, nu]: d_mu a_nu
    G[1:5, :, n] += np.arange(-2.0, 2.0)[:, None, None, None, None] * a  # d_z z^p = p z^(p-1)
    F = G - np.swapaxes(G, 2, 3)
    return {k - 4: F[k].reshape(stack + F.shape[2:]) for k in range(7)}


def pencil_curvature(spec, t, z_samples, tol, Q=None) -> VerificationReport:
    """Flatness of the one-parameter family of connections.

    The family is D + Phi/z + z Phidag + (U/z^2 - Q/z - kappa U kappa) dz
    (see curvature_coefficients); the residual is the largest curvature
    component over all direction pairs (including z), all z samples and
    all points.  Q defaults to zero; a constant override can be injected
    for corruption tests.

    Every component is read from the Laurent coefficients, F(z) = sum_k
    F_k z^k.  verify_cv_axioms reads kappa_parallel, higgs_parallel,
    ttstar_commutator and omega_holomorphy off the same coefficients,
    and solves the Q of its q_reality from the z^-1 coefficient of
    (i, z).  The tt* data (flat_ttstar_data) does not depend on z, so it
    and its Wirtinger derivatives come from derivative_data at t, a point,
    a stack or the CanonicalFrame there, as for both other verifiers; the
    part of d_j W_k that derivative_data leaves out is symmetric in (j,
    k), so no component moves with it.
    """
    frame = as_frame(spec, t)
    data = derivative_data(spec, frame)
    F = curvature_coefficients(data.S, data.dS, 0.0 if Q is None else np.asarray(Q, dtype=complex))
    z = np.asarray(list(z_samples), dtype=complex)
    coefficients = np.stack(list(F.values()), axis=-5)
    Fz = z[:, None] ** np.array(list(F)) @ coefficients.reshape(coefficients.shape[:-5] + (7, -1))

    report = VerificationReport()
    report.add("pencil_curvature", np.max(np.abs(Fz), axis=-1), tol)  # at each point and z
    return report

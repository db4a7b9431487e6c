"""Canonical positive CDV-structures and the full axiom verifier.

All frame matrices use the column convention M[out, in] (matrix times
coefficient vector), in the canonical idempotent frame unless a function
says otherwise.  The Hermitian pairing convention is h(u, v) =
sum_ij u^i conj(v^j) h_ij, C-linear in the first slot.
"""

from dataclasses import dataclass

import numpy as np

from .canonical import (
    CanonicalFrame,
    DEFAULT_EPS_SS,
    _bare_frame,
    canonical_frame,
    levi_civita_canonical,
    matched_frame,
)
from .numerics import DEFAULT_FD_STEP, invert, wirtinger_fd
from .potential import flat_eval, flat_metric
from .report import VerificationReport

ALG_TOL = 1e-10


@dataclass(frozen=True)
class CdvStructure:
    """The canonical structure at one semi-simple point.

    All matrices are in the canonical frame: K is the matrix of the real
    involution kappa (antilinear action v -> K conj(v)), h the Hermitian
    pairing, omega[alpha] the Chern connection form evaluated on
    e_alpha, Cmats[alpha] the multiplication matrix of e_alpha, and
    Ctilde its kappa-conjugate.
    """

    frame: CanonicalFrame
    K: np.ndarray
    h: np.ndarray
    omega: tuple
    Q: np.ndarray
    Umat: np.ndarray
    Cmats: tuple
    Ctilde: tuple
    d: float


@dataclass(frozen=True)
class HarmonicData:
    """Harmonic potential P, its adjoint P-dagger, and V = grad-Euler part."""

    P: np.ndarray
    Pdag: np.ndarray
    V: np.ndarray


def _omega_matrices(frame: CanonicalFrame):
    """omega(e_alpha) = diag_beta(e_alpha(eta_beta) / (2 eta_beta))."""
    m = len(frame.u)
    return tuple(np.diag(frame.eta_d[alpha] / (2.0 * frame.eta)) for alpha in range(m))


def construct_canonical_cdv(frame: CanonicalFrame, d: float) -> CdvStructure:
    """The canonical structure: K = diag(|eta|/eta), h = diag(|eta|), Q = 0."""
    m = len(frame.u)
    abs_eta = np.abs(frame.eta)
    K = np.diag(abs_eta / frame.eta)
    h = np.diag(abs_eta).astype(complex)
    omega = _omega_matrices(frame)
    Cmats = tuple(np.diag(np.eye(m)[alpha]).astype(complex) for alpha in range(m))
    Ctilde = tuple(K @ np.conj(C) @ np.conj(K) for C in Cmats)
    return CdvStructure(
        frame=frame,
        K=K,
        h=h,
        omega=omega,
        Q=np.zeros((m, m), dtype=complex),
        Umat=np.diag(frame.u),
        Cmats=Cmats,
        Ctilde=Ctilde,
        d=d,
    )


def _dir_holo(A, wds, alpha):
    """Directional derivative along e_alpha from per-coordinate Wirtinger data."""
    return sum(A[i, alpha] * wds[i].holo for i in range(A.shape[0]))


def _dir_anti(A, wds, beta):
    """Directional derivative along conj(e_beta)."""
    return sum(np.conj(A[i, beta]) * wds[i].anti for i in range(A.shape[0]))


def _maxabs(M):
    return float(np.max(np.abs(M)))


def verify_cv_axioms(spec, cdv: CdvStructure, tol, alg_tol=ALG_TOL,
                     fd_step=DEFAULT_FD_STEP, eps_ss=DEFAULT_EPS_SS) -> VerificationReport:
    """One residual per structure axiom at the point of cdv.

    Algebraic identities are compared against alg_tol; identities that
    need finite differences of frame data against tol.
    """
    frame = cdv.frame
    m = len(frame.u)
    t = frame.point
    report = VerificationReport()

    # (a) kappa is an involution: conj(K) K = I.
    report.add("kappa_involution", _maxabs(np.conj(cdv.K) @ cdv.K - np.eye(m)), alg_tol)

    # (b) pairing consistency: h^{-1} = conj(g)^{-1} conj(h) g^{-1} and
    # K = g^{-1} h, with g the frame metric diag(eta).
    g_f = np.diag(frame.eta)
    g_f_inv = np.diag(1.0 / frame.eta)
    pairing_identity = _maxabs(invert(cdv.h) - np.conj(g_f_inv) @ np.conj(cdv.h) @ g_f_inv)
    k_consistency = _maxabs(cdv.K - g_f_inv @ cdv.h)
    report.add("hermitian_pairing", max(pairing_identity, k_consistency), alg_tol)

    # (c) kappa-conjugated Higgs matrices coincide with the originals.
    report.add(
        "higgs_reality",
        max(_maxabs(Ct - C) for Ct, C in zip(cdv.Ctilde, cdv.Cmats)),
        alg_tol,
    )

    # K and omega from one matched frame per stencil point: slot 0 of the
    # stacked field is K, slots 1..m are omega(e_alpha).
    def frame_field(tp):
        fr = matched_frame(spec, tp, frame, eps_ss=eps_ss, fd_step=fd_step)
        return np.stack([np.diag(np.abs(fr.eta) / fr.eta), *_omega_matrices(fr)])

    wds = [wirtinger_fd(frame_field, t, i, step=fd_step) for i in range(m)]

    # (d) Chern compatibility of kappa: dK + K omega = 0 on frame directions.
    res_d = max(
        _maxabs(_dir_holo(frame.A, wds, alpha)[0] + cdv.K @ cdv.omega[alpha])
        for alpha in range(m)
    )
    report.add("kappa_parallel", res_d, tol)

    # (e) Higgs field parallel for the Chern connection, via the canonical
    # relation set: omega off-diagonal entries vanish on third directions
    # and on e_alpha + e_beta.
    res_e = 0.0
    for alpha in range(m):
        for beta in range(m):
            if alpha == beta:
                continue
            for gamma in range(m):
                if gamma not in (alpha, beta):
                    res_e = max(res_e, abs(cdv.omega[gamma][beta, alpha]))
            res_e = max(
                res_e, abs(cdv.omega[alpha][beta, alpha] + cdv.omega[beta][beta, alpha])
            )
    report.add("higgs_parallel", res_e, tol)

    # (f) tt* commutator: dbar_beta omega(e_alpha) = [Ctilde^(beta), C^(alpha)].
    res_f = 0.0
    for beta in range(m):
        domega = _dir_anti(frame.A, wds, beta)[1:]
        for alpha in range(m):
            comm = cdv.Ctilde[beta] @ cdv.Cmats[alpha] - cdv.Cmats[alpha] @ cdv.Ctilde[beta]
            res_f = max(res_f, _maxabs(domega[alpha] - comm))
    report.add("ttstar_commutator", res_f, tol)

    # (g) Q is self-adjoint and kappa-odd.
    Q = cdv.Q
    q_dag = invert(cdv.h) @ np.conj(Q).T @ cdv.h
    q_real = _maxabs(Q + cdv.K @ np.conj(Q) @ np.conj(cdv.K))
    report.add("q_reality", max(_maxabs(Q - q_dag), q_real), alg_tol)

    # (h) the unit field is Chern-parallel along itself: D'_e e = 0.
    ones = np.ones(m, dtype=complex)
    res_h = _maxabs(sum(cdv.omega[beta] @ ones for beta in range(m)))
    report.add("unit_parallel", res_h, tol)

    # (i) holomorphy of the connection form.
    res_i = max(_maxabs(wd.anti[1:]) for wd in wds)
    report.add("omega_holomorphy", res_i, tol)

    return report


def harmonic_potential(frame: CanonicalFrame, d: float) -> HarmonicData:
    """Harmonic potential from frame data.

    P[alpha, beta] = conj(eta_d[alpha, beta]) eta_beta / (2 |eta_alpha
    eta_beta|) off the diagonal and -u^beta on it; Pdag[beta, alpha] =
    omega_beta^beta(e_alpha) off the diagonal and -conj(u^beta) on it;
    V[beta, alpha] = (u^beta - u^alpha) eta_d[alpha, beta]/(2 eta_beta).
    """
    m = len(frame.u)
    eta = frame.eta
    eta_d = frame.eta_d
    P = np.zeros((m, m), dtype=complex)
    Pdag = np.zeros((m, m), dtype=complex)
    V = np.zeros((m, m), dtype=complex)
    for alpha in range(m):
        P[alpha, alpha] = -frame.u[alpha]
        Pdag[alpha, alpha] = -np.conj(frame.u[alpha])
        for beta in range(m):
            if beta == alpha:
                continue
            P[alpha, beta] = (
                np.conj(eta_d[alpha, beta]) * eta[beta]
                / (2.0 * abs(eta[alpha] * eta[beta]))
            )
            Pdag[beta, alpha] = eta_d[alpha, beta] / (2.0 * eta[beta])
            V[beta, alpha] = (frame.u[beta] - frame.u[alpha]) * eta_d[alpha, beta] / (
                2.0 * eta[beta]
            )
    return HarmonicData(P=P, Pdag=Pdag, V=V)


def verify_harmonic(spec, frame: CanonicalFrame, hd, cdv: CdvStructure, tol,
                    fd_step=DEFAULT_FD_STEP, eps_ss=DEFAULT_EPS_SS) -> VerificationReport:
    """Residuals of the harmonic-potential defining system.

    hd may be a HarmonicData value or a callable t -> HarmonicData used
    to evaluate P on finite-difference stencils (labels matched to
    frame); the callable form lets tests feed corrupted fields.
    """
    m = len(frame.u)
    t = frame.point

    if callable(hd):
        provider = hd
        center = provider(t)
    else:
        center = hd

        def provider(tp):
            return harmonic_potential(
                matched_frame(spec, tp, frame, eps_ss=eps_ss, fd_step=fd_step), cdv.d
            )

    report = VerificationReport()

    # (a) D'P = Phi: e_alpha(P) + [omega(e_alpha), P] = -C^(alpha).
    def P_field(tp):
        return provider(tp).P

    wds_P = [wirtinger_fd(P_field, t, i, step=fd_step) for i in range(m)]
    res_a = 0.0
    for alpha in range(m):
        dP = _dir_holo(frame.A, wds_P, alpha)
        comm = cdv.omega[alpha] @ center.P - center.P @ cdv.omega[alpha]
        res_a = max(res_a, _maxabs(dP + comm + cdv.Cmats[alpha]))
    report.add("dprime_p_equals_higgs", res_a, tol)

    # (b) D' = nabla - [Pdag, Phi] on every frame direction.
    gammas = levi_civita_canonical(frame)
    res_b = 0.0
    for alpha in range(m):
        comm = center.Pdag @ cdv.Cmats[alpha] - cdv.Cmats[alpha] @ center.Pdag
        res_b = max(res_b, _maxabs(gammas[alpha] + comm - cdv.omega[alpha]))
    report.add("chern_from_levi_civita", res_b, tol)

    # (c) P is g-self-adjoint.
    g_f = np.diag(frame.eta)
    p_star = np.diag(1.0 / frame.eta) @ center.P.T @ g_f
    report.add("p_selfadjoint", _maxabs(p_star - center.P), tol)

    # (d) V + [Pdag, U] = 0.
    comm = center.Pdag @ cdv.Umat - cdv.Umat @ center.Pdag
    report.add("v_commutator", _maxabs(center.V + comm), tol)

    return report


def flat_frame_h(spec, t, cdv: CdvStructure = None, eps_ss=DEFAULT_EPS_SS):
    """The Hermitian pairing in the flat basis: h_ij = h(d_i, conj(d_j)).

    Label-invariant (the sum runs over all idempotents), so no frame
    matching is needed.
    """
    if cdv is not None:
        frame = cdv.frame
        A, eta = frame.A, frame.eta
    else:
        _, A, eta, _ = _bare_frame(spec, np.asarray(t, dtype=complex), eps_ss)
    B = invert(A)  # row alpha = frame components of the flat vectors
    return np.einsum("ai,aj,a->ij", B, np.conj(B), np.abs(eta))


def _real_metric(h):
    """Real metric blocks of Re h on the basis (x^j -> d_j, y^j -> i d_j)."""
    re, im = h.real, h.imag
    top = np.hstack([re, im])
    bot = np.hstack([-im, re])
    return np.vstack([top, bot])


def connection_gap(spec, t, tol, fd_step=DEFAULT_FD_STEP,
                   eps_ss=DEFAULT_EPS_SS) -> VerificationReport:
    """Gaps between the flat, Chern, and real Levi-Civita connections.

    Entries read as distances: an entry "passes" exactly when the
    corresponding gap is below tol, i.e. when the structure behaves as in
    the trivial (flat) case.
    """
    t = np.asarray(t, dtype=complex)
    m = spec.dim
    frame = canonical_frame(spec, t, eps_ss=eps_ss, fd_step=fd_step)
    cdv = construct_canonical_cdv(frame, spec.d)
    report = VerificationReport()

    # (a) flat Levi-Civita vs Chern connection, canonical frame.
    gammas = levi_civita_canonical(frame)
    res_a = max(_maxabs(gammas[a] - cdv.omega[a]) for a in range(m))
    report.add("nabla_vs_chern", res_a, tol)

    # (b) torsion of the Chern connection (diagonal-omega reduction).
    res_b = max(
        abs(cdv.omega[alpha][beta, beta])
        for alpha in range(m)
        for beta in range(m)
        if alpha != beta
    )
    report.add("chern_torsion", res_b, tol)

    # (c) closedness of the Kaehler form, flat coordinates:
    # max |d_k h_ij - d_i h_kj|.
    def h_field(tp):
        return flat_frame_h(spec, tp, eps_ss=eps_ss)

    h0 = h_field(t)
    dh = np.stack([wirtinger_fd(h_field, t, k, step=fd_step).holo for k in range(m)])
    res_c = _maxabs(dh - np.swapaxes(dh, 0, 1))
    report.add("kaehler_closedness", res_c, tol)

    # (d) real Levi-Civita of Re h vs Chern and vs flat, after
    # complexifying real output vectors via v = v_x + i v_y.
    n = 2 * m

    def g_hat(s):
        tp = s[:m] + 1j * s[m:]
        return _real_metric(h_field(tp))

    s0 = np.concatenate([t.real, t.imag])
    step = fd_step
    dg = np.zeros((n, n, n))
    for a in range(n):
        sp, sm_ = s0.copy(), s0.copy()
        sp[a] += step
        sm_[a] -= step
        dg[a] = (g_hat(sp) - g_hat(sm_)) / (2.0 * step)
    ghat_inv = np.linalg.inv(_real_metric(h0))
    # gamma_hat[c, a, b] = Christoffel symbols of the real metric
    gamma_hat = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                total = 0.0
                for dd in range(n):
                    total += ghat_inv[c, dd] * (dg[a][b, dd] + dg[b][a, dd] - dg[dd][a, b])
                gamma_hat[c, a, b] = 0.5 * total

    # Chern connection in the flat basis: D_{d_i} d_j = sum_k W[i][j, k] d_k.
    h_inv = invert(h0)
    W = [dh[i] @ h_inv for i in range(m)]

    factor = {0: 1.0, 1: 1j}  # x-type vs y-type direction/section
    res_lc_chern = 0.0
    res_lc_nabla = 0.0
    for a_kind in (0, 1):
        for i in range(m):
            a = a_kind * m + i
            for b_kind in (0, 1):
                for j in range(m):
                    b = b_kind * m + j
                    v_hat = gamma_hat[:m, a, b] + 1j * gamma_hat[m:, a, b]
                    v_chern = factor[a_kind] * factor[b_kind] * W[i][j, :]
                    res_lc_chern = max(res_lc_chern, _maxabs(v_hat - v_chern))
                    res_lc_nabla = max(res_lc_nabla, _maxabs(v_hat))
    report.add("real_lc_vs_chern", res_lc_chern, tol)
    report.add("real_lc_vs_nabla", res_lc_nabla, tol)

    return report


def _kappa_flat(h, g_inv):
    """Matrix of the antilinear involution in the flat basis: v -> K conj(v)."""
    return g_inv @ h


def pencil_curvature(spec, t, z_samples, tol, fd_step=DEFAULT_FD_STEP,
                     eps_ss=DEFAULT_EPS_SS, Q=None) -> VerificationReport:
    """Flatness of the one-parameter family of connections.

    The family is D + C/z + z kappa C kappa in the base directions plus
    (U/z - Q - z kappa U kappa) dz/z; the residual is the largest
    finite-difference curvature component over all direction pairs
    (including z) and all z samples.  Q defaults to zero; a constant
    override can be injected for corruption tests.

    The base data (W, Phi, Phi-dagger, U, kappa U kappa) does not depend
    on z, so it is built once at the centre and at each Wirtinger stencil
    point: (4m+1)^2 eigendecompositions per call.  For every z sample the
    connection coefficients and their derivatives are then assembled
    linearly, e.g. d(W_i + Phi_i/z) = dW_i + dPhi_i/z; the constant Q has
    zero derivative.
    """
    t = np.asarray(t, dtype=complex)
    m = spec.dim
    n = 2 * m  # base directions: m holomorphic, m antiholomorphic
    g, g_inv = flat_metric(spec)
    if Q is None:
        Q = np.zeros((m, m), dtype=complex)
    Q = np.asarray(Q, dtype=complex)

    def h_at(tp):
        return flat_frame_h(spec, tp, eps_ss=eps_ss)

    def base_data(tp):
        """Stack [W_0.., Phi_0.., Phidag_0.., U, kappa-U-kappa] at tp (column convention)."""
        h = h_at(tp)
        dh = np.stack([wirtinger_fd(h_at, tp, i, step=fd_step).holo for i in range(m)])
        K = _kappa_flat(h, g_inv)
        ev = flat_eval(spec, tp)
        W = np.swapaxes(dh @ invert(h), 1, 2)
        Phi = -np.swapaxes(ev.Cmix, 1, 2)
        Phidag = K @ np.conj(Phi) @ np.conj(K)
        kUk = K @ np.conj(ev.U) @ np.conj(K)
        return np.concatenate([W, Phi, Phidag, ev.U[None], kUk[None]])

    def fields(S, z, Qz):
        """Coefficients [A_h.., A_a.., A_z] at z of the stacked base data S."""
        W, Phi, Phidag, U, kUk = S[:m], S[m:n], S[n:3 * m], S[3 * m], S[3 * m + 1]
        return np.concatenate([W + Phi / z, z * Phidag, (U / z**2 - Qz - kUk)[None]])

    S0 = base_data(t)
    wds = [wirtinger_fd(base_data, t, i, step=fd_step) for i in range(m)]
    dS = [wd.holo for wd in wds] + [wd.anti for wd in wds]

    worst = 0.0
    for z in z_samples:
        z = complex(z)
        c = fields(S0, z, Q / z)
        d = np.stack([fields(dk, z, 0.0) for dk in dS])  # d[mu, f] = mu-derivative of f
        cc = np.einsum("aij,bjk->abik", c, c)
        comm = cc - np.swapaxes(cc, 0, 1)  # comm[mu, nu] = [c_mu, c_nu]
        # base-base curvature components
        F = d[:, :n] - np.swapaxes(d[:, :n], 0, 1) + comm[:n, :n]
        # base-z components; dA_base/dz and dA_anti/dz are analytic in z.
        dz_of = np.concatenate([-S0[m:n] / z**2, S0[n:3 * m]])
        Fz = d[:, n] - dz_of + comm[:n, n]
        worst = max(worst, _maxabs(F), _maxabs(Fz))

    report = VerificationReport()
    report.add("pencil_curvature", worst, tol, points_checked=len(list(z_samples)))
    return report

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
    canonical_frame,
    canonical_frames,
    levi_civita_canonical,
)
from .numerics import (
    DEFAULT_FD_STEP,
    evaluate_stencil,
    invert,
    wirtinger_combine,
    wirtinger_points,
)
from .potential import flat_metric
from .report import VerificationReport

ALG_TOL = 1e-10


@dataclass(frozen=True)
class CdvStructure:
    """The canonical structure at one semi-simple point.

    All matrices are in the canonical frame: K is the matrix of the real
    involution kappa (antilinear action v -> K conj(v)), h the Hermitian
    pairing, omega[alpha] the Chern connection form evaluated on
    e_alpha, and Cmats[alpha] the multiplication matrix of e_alpha.
    """

    frame: CanonicalFrame
    K: np.ndarray
    h: np.ndarray
    omega: tuple
    Q: np.ndarray
    Umat: np.ndarray
    Cmats: tuple
    d: float


@dataclass(frozen=True)
class HarmonicData:
    """Harmonic potential P, its adjoint P-dagger, and V = grad-Euler part."""

    P: np.ndarray
    Pdag: np.ndarray
    V: np.ndarray


def _diag(v):
    """Diagonal matrices carrying the last axis of v on their diagonals."""
    out = np.zeros(v.shape + v.shape[-1:], dtype=complex)
    a = np.arange(v.shape[-1])
    out[..., a, a] = v
    return out


def _kappa_canonical(frame: CanonicalFrame):
    """K = diag(|eta|/eta), for one frame or for each frame of a stack."""
    return _diag(np.abs(frame.eta) / frame.eta)


def _omega_matrices(frame: CanonicalFrame):
    """omega(e_alpha) = diag_beta(e_alpha(eta_beta) / (2 eta_beta)), on an
    axis over alpha (after the stack axis of a frame stack)."""
    return _diag(frame.eta_d / (2.0 * frame.eta[..., None, :]))


def construct_canonical_cdv(frame: CanonicalFrame, d: float) -> CdvStructure:
    """The canonical structure: K = diag(|eta|/eta), h = diag(|eta|), Q = 0."""
    m = len(frame.u)
    K = _kappa_canonical(frame)
    h = np.diag(np.abs(frame.eta)).astype(complex)
    omega = tuple(_omega_matrices(frame))
    Cmats = tuple(np.diag(np.eye(m)[alpha]).astype(complex) for alpha in range(m))
    return CdvStructure(
        frame=frame,
        K=K,
        h=h,
        omega=omega,
        Q=np.zeros((m, m), dtype=complex),
        Umat=np.diag(frame.u),
        Cmats=Cmats,
        d=d,
    )


def _dir_holo(A, wd):
    """Directional derivatives along each e_alpha from the Wirtinger data
    of every coordinate."""
    return np.einsum("ia,i...->a...", A, wd.holo)


def _dir_anti(A, wd):
    """Directional derivatives along each conj(e_beta)."""
    return np.einsum("ib,i...->b...", np.conj(A), wd.anti)


def _stencil_derivatives(field, t, fd_step):
    """Wirtinger derivatives along every coordinate of a stacked field
    (see numerics.evaluate_stencil), from one call on all 4m stencil
    points."""
    points = wirtinger_points(t, fd_step)
    return wirtinger_combine(evaluate_stencil(field, t, points), fd_step)


def _maxabs(M):
    return float(np.max(np.abs(M)))


def _higgs_parallel(omega):
    """Residual of the canonical relation set for a parallel Higgs field.

    For alpha != beta the off-diagonal entry [beta, alpha] of
    omega(e_gamma) vanishes for every third direction gamma, and that of
    omega(e_alpha) + omega(e_beta) vanishes too.
    """
    W = np.asarray(omega)
    g, b, a = np.indices(W.shape)
    third = W[(g != a) & (g != b) & (b != a)]
    pair = (np.einsum("aba->ba", W) + np.einsum("bba->ba", W))[~np.eye(len(W), dtype=bool)]
    return float(np.max(np.abs(np.concatenate([third, pair])), initial=0.0))


def verify_cv_axioms(spec, cdv: CdvStructure, tol, alg_tol=ALG_TOL,
                     fd_step=DEFAULT_FD_STEP) -> VerificationReport:
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
    g_f_inv = np.diag(1.0 / frame.eta)
    pairing_identity = _maxabs(invert(cdv.h) - np.conj(g_f_inv) @ np.conj(cdv.h) @ g_f_inv)
    k_consistency = _maxabs(cdv.K - g_f_inv @ cdv.h)
    report.add("hermitian_pairing", max(pairing_identity, k_consistency), alg_tol)

    # (c) kappa-conjugated Higgs matrices coincide with the originals.
    Ctilde = [cdv.K @ np.conj(C) @ np.conj(cdv.K) for C in cdv.Cmats]
    report.add(
        "higgs_reality", max(_maxabs(Ct - C) for Ct, C in zip(Ctilde, cdv.Cmats)), alg_tol
    )

    # K and omega from the matched frames at the stencil points, built as
    # one stack: slot 0 of the field is K, slots 1..m are omega(e_alpha).
    def frame_field(points):
        fr = canonical_frames(spec, points, ref=frame)
        return np.concatenate([_kappa_canonical(fr)[:, None], _omega_matrices(fr)], axis=1)

    wd = _stencil_derivatives(frame_field, t, fd_step)
    d_holo = _dir_holo(frame.A, wd)
    d_anti = _dir_anti(frame.A, wd)

    # (d) Chern compatibility of kappa: dK + K omega = 0 on frame directions.
    res_d = max(_maxabs(d_holo[alpha][0] + cdv.K @ cdv.omega[alpha]) for alpha in range(m))
    report.add("kappa_parallel", res_d, tol)

    # (e) Higgs field parallel for the Chern connection.
    report.add("higgs_parallel", _higgs_parallel(cdv.omega), tol)

    # (f) tt* commutator: dbar_beta omega(e_alpha) = [Ctilde^(beta), C^(alpha)].
    res_f = 0.0
    for beta in range(m):
        domega = d_anti[beta][1:]
        for alpha in range(m):
            comm = Ctilde[beta] @ cdv.Cmats[alpha] - cdv.Cmats[alpha] @ Ctilde[beta]
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
    res_i = _maxabs(wd.anti[:, 1:])
    report.add("omega_holomorphy", res_i, tol)

    return report


def harmonic_potential(frame: CanonicalFrame, d: float) -> HarmonicData:
    """Harmonic potential from frame data (one frame, or each of a stack).

    P[alpha, beta] = conj(eta_d[alpha, beta]) eta_beta / (2 |eta_alpha
    eta_beta|) off the diagonal and -u^beta on it; Pdag[beta, alpha] =
    omega_beta^beta(e_alpha) off the diagonal and -conj(u^beta) on it;
    V[beta, alpha] = (u^beta - u^alpha) eta_d[alpha, beta]/(2 eta_beta).
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
                    fd_step=DEFAULT_FD_STEP) -> VerificationReport:
    """Residuals of the harmonic-potential defining system.

    hd is the harmonic data at the point of frame.  The check of D'P
    differences P from harmonic_potential at the matched frames of all
    stencil points, built as one stack.
    """
    m = len(frame.u)
    t = frame.point

    def P_field(points):
        return harmonic_potential(canonical_frames(spec, points, ref=frame), cdv.d).P

    report = VerificationReport()

    # (a) D'P = Phi: e_alpha(P) + [omega(e_alpha), P] = -C^(alpha).
    dP = _dir_holo(frame.A, _stencil_derivatives(P_field, t, fd_step))
    res_a = 0.0
    for alpha in range(m):
        comm = cdv.omega[alpha] @ hd.P - hd.P @ cdv.omega[alpha]
        res_a = max(res_a, _maxabs(dP[alpha] + comm + cdv.Cmats[alpha]))
    report.add("dprime_p_equals_higgs", res_a, tol)

    # (b) D' = nabla - [Pdag, Phi] on every frame direction.
    gammas = levi_civita_canonical(frame)
    res_b = 0.0
    for alpha in range(m):
        comm = hd.Pdag @ cdv.Cmats[alpha] - cdv.Cmats[alpha] @ hd.Pdag
        res_b = max(res_b, _maxabs(gammas[alpha] + comm - cdv.omega[alpha]))
    report.add("chern_from_levi_civita", res_b, tol)

    # (c) P is g-self-adjoint.
    g_f = np.diag(frame.eta)
    p_star = np.diag(1.0 / frame.eta) @ hd.P.T @ g_f
    report.add("p_selfadjoint", _maxabs(p_star - hd.P), tol)

    # (d) V + [Pdag, U] = 0.
    comm = hd.Pdag @ cdv.Umat - cdv.Umat @ hd.Pdag
    report.add("v_commutator", _maxabs(hd.V + comm), tol)

    return report


def flat_frame_h(spec, t):
    """The Hermitian pairing in the flat basis: h_ij = h(d_i, conj(d_j))."""
    return flat_frame_dh(canonical_frame(spec, t))[0]


def flat_frame_dh(frame: CanonicalFrame):
    """h in the flat basis and its exact derivatives dh[k] = d_k h.

    h = B^T diag|eta| conj(B) with B = A^{-1} (row alpha = frame
    components of the flat vectors); it is label-invariant, and so is dh.
    A frame stack gives h and dh for each of its points.
    dbar_k h = dh[k]^dagger, as h is Hermitian.  d_k conj(B) = 0 and d_k B
    = -B (d_k A) B.  Differentiating e_alpha o e_alpha = e_alpha gives
    d_k e_alpha = sum_gamma x_gamma e_gamma with x_gamma = r_gamma for
    gamma != alpha and x_alpha = -r_alpha, where r_gamma = dC[k, alpha,
    gamma] / eta_gamma.  With d_k eta_alpha = -2 dC[k, alpha, alpha] and
    d_k|eta_alpha| = |eta_alpha| d_k eta_alpha / (2 eta_alpha) the diagonal
    terms cancel: d_k h = -B^T M_k conj(B), where M_k[alpha, gamma] =
    dC[k, alpha, gamma] |eta_gamma| / eta_gamma off the diagonal, 0 on it.
    """
    B = invert(frame.A)
    abs_eta = np.abs(frame.eta)
    h = np.einsum("...ai,...aj,...a->...ij", B, np.conj(B), abs_eta)
    M = frame.dC * (abs_eta / frame.eta)[..., None, None, :]
    a = np.arange(frame.eta.shape[-1])
    M[..., a, a] = 0.0
    dh = -np.einsum("...ai,...kag,...gj->...kij", B, M, np.conj(B))
    return h, dh


def _real_metric(h):
    """Real metric blocks of Re h on the basis (x^j -> d_j, y^j -> i d_j)."""
    re, im = h.real, h.imag
    top = np.hstack([re, im])
    bot = np.hstack([-im, re])
    return np.vstack([top, bot])


def _real_metric_derivatives(dh):
    """dg[a] = derivative of _real_metric(h) along x^a (a < m), y^(a-m) (a >= m).

    Along x^k the derivative of h is d_k h + dbar_k h, along y^k it is
    i (d_k h - dbar_k h), with dbar_k h = (d_k h)^dagger; _real_metric is
    real-linear.
    """
    dbar = np.conj(np.swapaxes(dh, 1, 2))
    return np.stack([_real_metric(d) for d in np.concatenate([dh + dbar, 1j * (dh - dbar)])])


def connection_gap(spec, t, tol) -> VerificationReport:
    """Gaps between the flat, Chern, and real Levi-Civita connections.

    Entries read as distances: an entry "passes" exactly when the
    corresponding gap is below tol, i.e. when the structure behaves as in
    the trivial (flat) case.  Every derivative of h is exact
    (flat_frame_dh), so a call takes one eigendecomposition.
    """
    t = np.asarray(t, dtype=complex)
    m = spec.dim
    frame = canonical_frame(spec, t)
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
    h0, dh = flat_frame_dh(frame)
    res_c = _maxabs(dh - np.swapaxes(dh, 0, 1))
    report.add("kaehler_closedness", res_c, tol)

    # (d) real Levi-Civita of Re h vs Chern and vs flat, after
    # complexifying real output vectors via v = v_x + i v_y.
    dg = _real_metric_derivatives(dh)
    ghat_inv = np.linalg.inv(_real_metric(h0))
    # gamma_hat[a, b, c] = Christoffel symbol Gamma^c_ab of the real metric,
    # from dg[a, b, c] = d_a ghat_bc; v_hat complexifies its output index.
    lowered = dg + np.swapaxes(dg, 0, 1) - np.transpose(dg, (1, 2, 0))
    gamma_hat = 0.5 * np.einsum("cd,abd->abc", ghat_inv, lowered)
    v_hat = gamma_hat[..., :m] + 1j * gamma_hat[..., m:]

    # Chern connection in the flat basis: D_{d_i} d_j = sum_k W[i, j, k] d_k,
    # with factor 1 for an x-type and i for a y-type direction or section.
    W = dh @ invert(h0)
    factor = np.repeat([1.0, 1j], m)
    v_chern = np.tile(W, (2, 2, 1)) * np.multiply.outer(factor, factor)[:, :, None]
    report.add("real_lc_vs_chern", _maxabs(v_hat - v_chern), tol)
    report.add("real_lc_vs_nabla", _maxabs(v_hat), tol)

    return report


def _kappa_flat(h, g_inv):
    """Matrix of the antilinear involution in the flat basis: v -> K conj(v)."""
    return g_inv @ h


def pencil_curvature(spec, t, z_samples, tol, fd_step=DEFAULT_FD_STEP,
                     Q=None) -> VerificationReport:
    """Flatness of the one-parameter family of connections.

    The family is D + C/z + z kappa C kappa in the base directions plus
    (U/z - Q - z kappa U kappa) dz/z; the residual is the largest
    finite-difference curvature component over all direction pairs
    (including z) and all z samples.  Q defaults to zero; a constant
    override can be injected for corruption tests.

    The base data (W, Phi, Phi-dagger, U, kappa U kappa) does not depend
    on z and takes exact derivatives of h (flat_frame_dh), so it is built
    from the frames at the centre and at the 4m Wirtinger stencil points,
    all in one stack: one eigen-solve call of 4m+1 matrices and one
    evaluation of the third derivatives, which the frames carry.  The
    only finite differences are those of the base data.  For every z
    sample the connection coefficients and their derivatives are then
    assembled linearly, e.g. d(W_i + Phi_i/z) = dW_i + dPhi_i/z; the
    constant Q has zero derivative.
    """
    t = np.asarray(t, dtype=complex)
    m = spec.dim
    n = 2 * m  # base directions: m holomorphic, m antiholomorphic
    g, g_inv = flat_metric(spec)
    if Q is None:
        Q = np.zeros((m, m), dtype=complex)
    Q = np.asarray(Q, dtype=complex)

    def base_data(points):
        """[W_0.., Phi_0.., Phidag_0.., U, kappa-U-kappa] at each of a stack
        of points (column convention), on the axis after the stack's."""
        frames = canonical_frames(spec, points)
        h, dh = flat_frame_dh(frames)
        K = _kappa_flat(h, g_inv)
        ev = frames.ev
        W = np.swapaxes(dh @ invert(h)[:, None], -1, -2)
        Phi = -np.swapaxes(ev.Cmix, -1, -2)
        Phidag = K[:, None] @ np.conj(Phi) @ np.conj(K)[:, None]
        kUk = K @ np.conj(ev.U) @ np.conj(K)
        return np.concatenate([W, Phi, Phidag, ev.U[:, None], kUk[:, None]], axis=1)

    def fields(S, z, Qz):
        """Coefficients [A_h.., A_a.., A_z] at z of base data S (slots on axis -3)."""
        W, Phi, Phidag = S[..., :m, :, :], S[..., m:n, :, :], S[..., n:3 * m, :, :]
        U, kUk = S[..., 3 * m, :, :], S[..., 3 * m + 1, :, :]
        Az = (U / z**2 - Qz - kUk)[..., None, :, :]
        return np.concatenate([W + Phi / z, z * Phidag, Az], axis=-3)

    points = np.concatenate([t[None], wirtinger_points(t, fd_step)])
    S = evaluate_stencil(base_data, t, points)
    S0 = S[0]
    wd = wirtinger_combine(S[1:], fd_step)
    dS = np.concatenate([wd.holo, wd.anti])

    worst = 0.0
    for z in z_samples:
        z = complex(z)
        c = fields(S0, z, Q / z)
        d = fields(dS, z, 0.0)  # d[mu, f] = mu-derivative of f
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

"""Tests for the canonical structure, axiom verifier, harmonic data,
connection comparisons, and the flat family of connections."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcdv import (
    A3_POINT,
    CanonicalFrame,
    DerivativeData,
    HarmonicData,
    canonical_frame,
    catalog,
    check_euler_degree,
    check_relations,
    connection_gap,
    construct_canonical_cdv,
    flat_frame_h,
    flat_metric,
    from_canonical,
    harmonic_potential,
    pencil_curvature,
    verify_cv_axioms,
    verify_harmonic,
    write_spec,
)
from frobcdv import canonical as canonical_module
from frobcdv import cdv as cdv_module
from frobcdv.canonical import flat_frame_dh
from frobcdv.cdv import _lc_torsion
from frobcdv.cli import main, sample_points
from test_stacked_frames import _flat_data_loop

QPT = (0.0, 1.0)


def _fake_frame(eta):
    eta = np.asarray(eta, dtype=complex)
    m = len(eta)
    return CanonicalFrame(
        point=np.zeros(m, dtype=complex),
        u=np.arange(1, m + 1, dtype=complex),
        A=np.eye(m, dtype=complex),
        eta=eta,
        eta_d=np.zeros((m, m), dtype=complex),
        dC=np.zeros((m, m, m), dtype=complex),
        gap=1.0,
        ev=None,
        F4=None,
        A_inv=None,
        h=None,
        dh=None,
        h_inv=None,
        kappa=None,
        chern=None,
    )


def test_construction_real_eta():
    cdv = construct_canonical_cdv(_fake_frame([2.0, -3.0]), 0.0)
    assert np.allclose(cdv.K, np.diag([1.0, -1.0]))
    assert np.allclose(cdv.h, np.diag([2.0, 3.0]))


def test_construction_complex_eta():
    cdv = construct_canonical_cdv(_fake_frame([2.0j]), 0.0)
    assert cdv.K[0, 0] == pytest.approx(-1.0j)
    assert cdv.h[0, 0] == pytest.approx(2.0)


def test_pairing_positive_definite():
    for name, t in [("quartic2", QPT), ("a3_3d", A3_POINT)]:
        spec = catalog(name)
        cdv = construct_canonical_cdv(canonical_frame(spec, t), spec.d)
        vals = np.diag(cdv.h).real
        assert np.all(vals > 0)
        assert np.max(np.abs(np.diag(cdv.h).imag)) == 0.0


def test_axioms_quartic2():
    spec = catalog("quartic2")
    cdv = construct_canonical_cdv(canonical_frame(spec, QPT), spec.d)
    rep = verify_cv_axioms(spec, cdv, 1e-5)
    assert rep.passed, "\n".join(rep.summary_lines())
    for name in ("kappa_involution", "hermitian_pairing", "higgs_reality", "q_reality"):
        assert rep[name].residual <= 1e-12


def test_axioms_a3():
    spec = catalog("a3_3d")
    cdv = construct_canonical_cdv(canonical_frame(spec, A3_POINT), spec.d)
    rep = verify_cv_axioms(spec, cdv, 1e-5)
    assert rep.passed, "\n".join(rep.summary_lines())


def _patch_flat(monkeypatch, attr, mutate):
    """Replace <attr> (canonical.flat_frame_dh, which every frame built
    afterwards reads, or cdv.flat_ttstar_data) by mutate(*its arguments,
    its original value), and cdv.derivative_data by _fd_derivative_data of
    the mutated flat data."""
    module = canonical_module if attr == "flat_frame_dh" else cdv_module
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args: mutate(*args, original(*args)))
    _patch_derivative_data(monkeypatch)


def _axioms(spec, t):
    """verify_cv_axioms at the frame of t, built now."""
    return verify_cv_axioms(spec, construct_canonical_cdv(canonical_frame(spec, t), spec.d), 1e-5)


def _patch_derivative_data(monkeypatch):
    """Replace cdv.derivative_data by _fd_derivative_data of cdv's flat
    data (flat_ttstar_data) and harmonic potential as they stand, so that
    a mutant of either reaches every derivative the verifiers read (the
    P that verify_harmonic hands in is not read)."""
    def fd_data(spec, frame, P=None):
        return _fd_derivative_data(
            spec, frame.point, lambda tp: cdv_module.flat_ttstar_data(canonical_frame(spec, tp)))

    monkeypatch.setattr(cdv_module, "derivative_data", fd_data)


def _phidag_with_unconjugated_kappa(frames, S):
    # Phidag_k = K Phi_k conj(K) in place of K conj(Phi_k) conj(K).
    m = frames.A.shape[-1]
    S = S.copy()
    K = frames.kappa[..., None, :, :]
    S[..., 2 * m:3 * m, :, :] = K @ S[..., m:2 * m, :, :] @ np.conj(K)
    return S


def _shifted_chern_connection(frames, S):
    m = frames.A.shape[-1]
    S = S.copy()
    S[..., :m, :, :] += 0.1 * np.eye(m)  # W + 0.1 I
    return S


def _rolled_phidag(frames, S):
    # Phidag_j -> Phidag_(j-1): dbar_i Phidag_j is no longer symmetric in i, j.
    m = frames.A.shape[-1]
    S = S.copy()
    S[..., 2 * m:3 * m, :, :] = np.roll(S[..., 2 * m:3 * m, :, :], 1, axis=-3)
    return S


def _conjugated_phi(frames, S):
    # An antiholomorphic Higgs field: dbar_j Phi_i != 0.
    m = frames.A.shape[-1]
    S = S.copy()
    S[..., m:2 * m, :, :] = np.conj(S[..., m:2 * m, :, :])
    return S


def _dbar_h_for_dh(A_inv, eta, dC, h_dh):
    h, dh = h_dh
    return h, np.conj(np.swapaxes(dh, -1, -2))  # dbar_k h = (d_k h)^dagger


def _direction_and_row_swapped(A_inv, eta, dC, h_dh):
    h, dh = h_dh
    return h, np.swapaxes(dh, -3, -2)  # dh[i, k, j] in place of dh[k, i, j]


# (check, spec, point, patched function, mutant).  Each mutant reaches the
# verifier through the frame and derivative_data's output (_patch_flat).  On p1 the dbar h
# mutant leaves every check at round-off, hence a3_3d; d_e h = 0 exactly
# along the unit e, so no mutant of dh moves unit_parallel.  The rolled
# Phidag and the conjugated Phi move only the second term of their check.
FLAT_MUTANTS = [
    ("kappa_parallel", "quartic2", QPT, "flat_ttstar_data", _phidag_with_unconjugated_kappa),
    ("kappa_parallel", "quartic2", QPT, "flat_ttstar_data", _rolled_phidag),
    ("higgs_parallel", "a3_3d", A3_POINT, "flat_frame_dh", _direction_and_row_swapped),
    ("higgs_parallel", "a3_3d", A3_POINT, "flat_ttstar_data", _conjugated_phi),
    ("ttstar_commutator", "a3_3d", A3_POINT, "flat_frame_dh", _dbar_h_for_dh),
    ("omega_holomorphy", "a3_3d", A3_POINT, "flat_frame_dh", _dbar_h_for_dh),
    ("unit_parallel", "quartic2", QPT, "flat_ttstar_data", _shifted_chern_connection),
]


@pytest.mark.parametrize("check,name,t,attr,mutate", FLAT_MUTANTS,
                         ids=[f"{m[0]}-{m[4].__name__.strip('_')}" for m in FLAT_MUTANTS])
def test_derivative_check_fails_on_mutated_flat_data(monkeypatch, check, name, t, attr, mutate):
    spec = catalog(name)
    assert _axioms(spec, t)[check].residual <= 1e-5
    _patch_flat(monkeypatch, attr, mutate)
    assert _axioms(spec, t)[check].residual > 1e-3


ALG_NAMES = ("kappa_involution", "hermitian_pairing", "higgs_reality", "q_reality")


def _h_with_weights(weights):
    """A mutant of flat_frame_dh: h = B^T diag(weights(eta)) conj(B) in
    place of the weights |eta|, and dh unchanged."""
    def mutate(B, eta, dC, h_dh):
        h = np.einsum("...ai,...aj,...a->...ij", B, np.conj(B), weights(eta))
        return h, h_dh[1]
    return mutate


def _kuk_as_u_dagger(frames, S):
    m = frames.A.shape[-1]
    S = S.copy()
    S[..., 3 * m + 1, :, :] = np.conj(np.swapaxes(S[..., 3 * m, :, :], -1, -2))
    return S


def test_global_sign_flip_is_still_an_involution(monkeypatch):
    # h -> -h turns K into -K, which is still an involution, and leaves
    # W = (dh h^-1)^T and Phidag unchanged: only positivity sees it.
    spec = catalog("quartic2")
    _patch_flat(monkeypatch, "flat_frame_dh", lambda *args: (-args[-1][0], -args[-1][1]))
    rep = _axioms(spec, QPT)
    assert rep["kappa_involution"].residual <= 1e-12
    assert rep["hermitian_pairing"].residual >= 1.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["cubic2", "quartic2", "p1", "a3_3d"]), st.integers(0, 10**6))
def test_algebraic_checks_hold_and_h_is_positive(name, seed):
    spec = catalog(name)
    pts, _ = sample_points(spec, 1, seed=seed)
    frame = canonical_frame(spec, pts[0])
    rep = verify_cv_axioms(spec, construct_canonical_cdv(frame, spec.d), 1e-5)
    for check in ALG_NAMES:
        assert rep[check].residual <= 1e-12, check
    assert np.linalg.eigvalsh(frame.h)[0] > 0.0


@pytest.mark.parametrize("name,radius", [("quartic2", 1000.0), ("a3_3d", 100.0)])
def test_algebraic_checks_stay_at_roundoff_far_out(name, radius):
    # Far out the round-off of [Phi_i, kappa U kappa] grows with |Phi| |U|
    # and the least-norm Q divides it by the small |W|: in absolute terms
    # q_reality read up to 2e-5 at these points, and higgs_reality grows
    # with |Phi|.  Both are relative to the size of their data, as are
    # verify_harmonic's identities (v_commutator read 4.6e-3 at quartic2
    # (0.3+0.1i, 1000+1000i) in absolute terms).  With the derivatives
    # taken by finite differences, dprime_p_equals_higgs read up to 3.9e-4
    # here; exact, every check of both verifiers passes.
    spec = catalog(name)
    rng = np.random.default_rng(5)
    for _ in range(5):
        t = radius * (rng.uniform(-1, 1, spec.dim) + 1j * rng.uniform(-1, 1, spec.dim))
        frame = canonical_frame(spec, t)
        cdv = construct_canonical_cdv(frame, spec.d)
        rep = verify_cv_axioms(spec, cdv, 1e-5)
        assert rep["q_reality"].residual <= 1e-12
        assert rep["higgs_reality"].residual <= 1e-12
        assert rep.passed, "\n".join(rep.summary_lines())
        rep = verify_harmonic(spec, frame, harmonic_potential(frame, spec.d), cdv, 1e-5)
        assert rep.passed, "\n".join(rep.summary_lines())


# (check, patched function, mutant, the checks it leaves at round-off, its
# residual at A3_POINT).  A mutant changes the flat data
# of every frame, and so derivative_data's output (_patch_flat).
ALG_MUTANTS = [
    ("hermitian_pairing", "flat_frame_dh", _h_with_weights(lambda eta: eta),
     ("kappa_involution", "higgs_reality", "q_reality"), 1.0),
    ("higgs_reality", "flat_ttstar_data", _rolled_phidag,
     ("kappa_involution", "hermitian_pairing", "q_reality"), 1.0),
    ("q_reality", "flat_ttstar_data", _kuk_as_u_dagger,
     ("kappa_involution", "hermitian_pairing", "higgs_reality"), 0.8),
    ("kappa_involution", "flat_frame_dh", _h_with_weights(lambda eta: 2.0 * np.abs(eta)),
     ("hermitian_pairing",), 3.0),
]


@pytest.mark.parametrize("check,attr,mutate,unmoved,expected", ALG_MUTANTS,
                         ids=[m[0] for m in ALG_MUTANTS])
def test_algebraic_check_fails_on_mutated_flat_data(monkeypatch, check, attr, mutate,
                                                    unmoved, expected):
    spec = catalog("a3_3d")
    assert _axioms(spec, A3_POINT)[check].residual <= 1e-12
    _patch_flat(monkeypatch, attr, mutate)
    rep = _axioms(spec, A3_POINT)
    assert rep[check].residual == pytest.approx(expected, abs=0.06)
    for other in unmoved:
        assert rep[other].residual <= 1e-12, other


def _frame_checks(spec, frame):
    """The residuals of verify_cv_axioms and connection_gap at frame, and
    omega_antisymmetry of from_canonical's data, by name.  (lowdim's
    kappa_involution reads J h, not the frame's kappa.)"""
    reports = (verify_cv_axioms(spec, construct_canonical_cdv(frame, spec.d), 1e-5),
               connection_gap(spec, frame, 1e-5))
    residuals = {entry.name: entry.residual for rep in reports for entry in rep.entries}
    lowdim = check_relations(from_canonical(spec, frame), 1e-9)
    residuals["omega_antisymmetry"] = lowdim["omega_antisymmetry"].residual
    return residuals


@pytest.mark.parametrize("field,readers", [
    ("kappa", ("kappa_involution", "higgs_reality")),
    ("chern", ("omega_holomorphy", "real_lc_vs_nabla", "omega_antisymmetry")),
])
def test_checks_read_kappa_and_chern_from_the_frame(field, readers):
    # The frame forms kappa = g^-1 h and chern[k] = d_k h h^-1 once; a
    # check that formed its own would not see the frame's perturbed.
    spec = catalog("a3_3d")
    frame = canonical_frame(spec, A3_POINT)
    before = _frame_checks(spec, frame)
    after = _frame_checks(spec, dataclasses.replace(frame, **{field: getattr(frame, field) + 0.1}))
    for name in readers:
        assert abs(after[name] - before[name]) > 1e-3, name


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT)])
def test_q_reality_equation_is_the_z_inverse_curvature_coefficient(name, t):
    # For every constant Q the z^-1 coefficient of the (i, z) curvature is
    # -[W_i, Q] - [Phi_i, kappa U kappa]; q_reality solves it for Q.
    spec = catalog(name)
    m = spec.dim
    frame = canonical_frame(spec, t)
    S = cdv_module.flat_ttstar_data(frame)
    dS = cdv_module.derivative_data(spec, frame).dS
    Q = np.random.default_rng(4).normal(size=(m, m)) + 0j
    W, Phi, kUk = S[:m], S[m:2 * m], S[3 * m + 1]
    expected = -(W @ Q - Q @ W) - (Phi @ kUk - kUk @ Phi)
    coefficient = cdv_module.curvature_coefficients(S, dS, Q)[-1][:m, 2 * m]
    assert np.max(np.abs(coefficient - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_harmonic_quartic2_and_a3():
    for name, t in [("quartic2", QPT), ("a3_3d", A3_POINT)]:
        spec = catalog(name)
        frame = canonical_frame(spec, t)
        cdv = construct_canonical_cdv(frame, spec.d)
        hd = harmonic_potential(frame, spec.d)
        rep = verify_harmonic(spec, frame, hd, cdv, 1e-5)
        assert rep.passed, "\n".join(rep.summary_lines())


def test_harmonic_detects_corrupted_potential(monkeypatch):
    spec = catalog("quartic2")
    frame = canonical_frame(spec, QPT)
    cdv = construct_canonical_cdv(frame, spec.d)

    def corrupted(fr, d):
        hd = harmonic_potential(fr, d)
        P = hd.P.copy()
        a = np.arange(P.shape[-1])
        P[..., a, a] = 0.0  # drop the -u^alpha diagonal
        return HarmonicData(P=P, Pdag=hd.Pdag, V=hd.V)

    # derivative_data differentiates P from cdv.harmonic_potential.
    monkeypatch.setattr(cdv_module, "harmonic_potential", corrupted)
    _patch_derivative_data(monkeypatch)
    rep = verify_harmonic(spec, frame, corrupted(frame, spec.d), cdv, 1e-5)
    assert rep["dprime_p_equals_higgs"].residual > 0.5


def _scaled_entry(name, factor):
    """A mutant of HarmonicData: entry [0, 1] of its matrix name times factor."""
    def mutate(hd):
        M = getattr(hd, name).copy()
        M[0, 1] *= factor
        return dataclasses.replace(hd, **{name: M})
    return mutate


# (check, mutant of the centre's HarmonicData).  A diagonal mutant of Pdag
# commutes with every C_k and with U in the idempotent frame, so it cannot
# move chern_from_levi_civita or v_commutator.
HARMONIC_MUTANTS = [
    ("dprime_p_equals_higgs", "P01x1.5", _scaled_entry("P", 1.5)),
    ("p_selfadjoint", "P01x1.5", _scaled_entry("P", 1.5)),
    ("chern_from_levi_civita", "Pdag01x1.5", _scaled_entry("Pdag", 1.5)),
    ("v_commutator", "Pdag01x1.5", _scaled_entry("Pdag", 1.5)),
    ("v_commutator", "1.1V", lambda hd: dataclasses.replace(hd, V=1.1 * hd.V)),
]


@pytest.mark.parametrize("check,mutate", [(c, f) for c, _, f in HARMONIC_MUTANTS],
                         ids=[f"{c}-{label}" for c, label, _ in HARMONIC_MUTANTS])
def test_harmonic_check_fails_on_mutated_data(check, mutate):
    spec = catalog("a3_3d")
    frame = canonical_frame(spec, A3_POINT)
    cdv = construct_canonical_cdv(frame, spec.d)
    hd = harmonic_potential(frame, spec.d)
    assert verify_harmonic(spec, frame, hd, cdv, 1e-5)[check].residual <= 1e-5
    assert verify_harmonic(spec, frame, mutate(hd), cdv, 1e-5)[check].residual > 1e-3


def test_flat_frame_h_cubic2_is_identity():
    spec = catalog("cubic2")
    for t in [(0.3 + 0.2j, 0.8 - 0.1j), (0.0, 1.0)]:
        h = flat_frame_h(spec, t)
        assert np.max(np.abs(h - np.eye(2))) <= 1e-10


def test_flat_frame_h_hermitian_positive():
    spec = catalog("a3_3d")
    h = flat_frame_h(spec, A3_POINT)
    assert np.max(np.abs(h - np.conj(h).T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(h)) > 0.0


def test_flat_frame_h_a3_not_kaehler_flat():
    spec = catalog("a3_3d")
    h = flat_frame_h(spec, A3_POINT)
    off = h - np.diag(np.diag(h))
    assert np.max(np.abs(off)) > 1e-6 * np.linalg.norm(h)


def _wirtinger_order4(f, t, k, step):
    """Order-4 central Wirtinger difference of f, which takes one point at
    a time, along coordinate k: (holo, anti)."""
    e = np.eye(len(t))[k]

    def d(s):  # the derivative along s / step
        return (f(t - 2 * s * e) - 8 * f(t - s * e) + 8 * f(t + s * e) - f(t + 2 * s * e)) / (
            12.0 * step)

    dx, dy = d(step), d(1j * step)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def _fd_derivative_data(spec, t, flat_data):
    """A DerivativeData at t by finite differences: S = flat_data(t) at t,
    and an order-4 Wirtinger difference (step 1e-4) of flat_data and of
    P_flat = A P A^{-1} (cdv.harmonic_potential) over the frames of nearby
    points."""
    t = np.asarray(t, dtype=complex)
    n = 3 * spec.dim + 2

    def values(tp):
        frame = canonical_frame(spec, tp)
        P = frame.A @ cdv_module.harmonic_potential(frame, spec.d).P @ np.linalg.inv(frame.A)
        return np.concatenate([flat_data(tp), P[None]])

    holo, anti = (np.stack(d) for d in zip(*(_wirtinger_order4(values, t, k, 1e-4)
                                             for k in range(spec.dim))))
    return DerivativeData(S=flat_data(t), dS=np.concatenate([holo[:, :n], anti[:, :n]]),
                          dP=holo[:, n])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["cubic2", "quartic2", "p1", "a3_3d"]), st.integers(0, 10**6))
def test_derivative_data_against_fd_oracle(name, seed):
    # Oracle: an order-4 Wirtinger difference of the flat data of each
    # point (_flat_data_loop) and of P_flat.  A block's scale is the larger
    # of its value and its exact derivatives; the worst difference over 40
    # points per spec was 1e-10 of it.  derivative_data defines d_j W_k
    # only up to a part symmetric in (j, k), so the hol-W block is compared
    # as d_j W_k - d_k W_j.
    spec = catalog(name)
    m = spec.dim
    pts, _ = sample_points(spec, 1, seed=seed)
    frame = canonical_frame(spec, pts[0])
    exact = cdv_module.derivative_data(spec, frame, harmonic_potential(frame, spec.d).P)
    fd = _fd_derivative_data(spec, pts[0], lambda tp: _flat_data_loop(spec, tp))
    blocks = (slice(0, m), slice(m, 2 * m), slice(2 * m, 3 * m), slice(3 * m, 3 * m + 2))
    for b in blocks:
        scale = max(np.max(np.abs(exact.S[b])), np.max(np.abs(exact.dS[:, b])))
        ours, theirs = exact.dS[:, b], fd.dS[:, b]
        if b == blocks[0]:
            ours, theirs = (np.concatenate([D[:m] - np.swapaxes(D[:m], 0, 1), D[m:]])
                            for D in (ours, theirs))
        assert np.max(np.abs(ours - theirs)) <= 1e-8 * scale, b
    P = frame.A @ harmonic_potential(frame, spec.d).P @ np.linalg.inv(frame.A)
    scale = max(np.max(np.abs(P)), np.max(np.abs(exact.dP)))
    assert np.max(np.abs(exact.dP - fd.dP)) <= 1e-8 * scale


@pytest.mark.parametrize("name", ["quartic2", "p1", "a3_3d"])
def test_flat_frame_dh_against_fd_oracle(name):
    # Oracle: an order-4 Wirtinger difference of flat_frame_h, which takes
    # one eigendecomposition per stencil point and no derivative data.
    spec = catalog(name)
    pts, _ = sample_points(spec, 5, seed=3)
    for t in pts:
        dh = canonical_frame(spec, t).dh
        scale = np.max(np.abs(dh))
        for k in range(spec.dim):
            holo, anti = _wirtinger_order4(lambda tp: flat_frame_h(spec, tp), t, k, 1e-4)
            assert np.max(np.abs(dh[k] - holo)) <= 1e-8 * scale
            assert np.max(np.abs(np.conj(dh[k]).T - anti)) <= 1e-8 * scale


@st.composite
def _frame_and_permutation(draw):
    spec = catalog(draw(st.sampled_from(["a3_3d", "cubic2", "p1", "quartic2"])))
    pts, _ = sample_points(spec, 1, seed=draw(st.integers(0, 10**6)))
    return spec, canonical_frame(spec, pts[0]), np.array(draw(st.permutations(range(spec.dim))))


def _relabel(frame, pi):
    """The frame with its idempotents taken in the order pi."""
    return dataclasses.replace(
        frame, u=frame.u[pi], A=frame.A[:, pi], A_inv=frame.A_inv[pi], eta=frame.eta[pi],
        eta_d=frame.eta_d[np.ix_(pi, pi)], dC=frame.dC[:, pi][:, :, pi],
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_frame_and_permutation())
def test_flat_frame_dh_is_label_invariant(frame_and_pi):
    _, frame, pi = frame_and_pi
    relabelled = _relabel(frame, pi)
    for before, after in zip(flat_frame_dh(frame.A_inv, frame.eta, frame.dC),
                             flat_frame_dh(relabelled.A_inv, relabelled.eta, relabelled.dC)):
        assert np.max(np.abs(after - before)) <= 1e-12 * np.max(np.abs(before))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_frame_and_permutation())
def test_verify_harmonic_is_label_invariant(frame_and_pi):
    # Relabelling permutes the rows and columns of P, Pdag and V alike, so
    # their flat-frame matrices, and every residual, are unchanged.
    spec, frame, pi = frame_and_pi
    relabelled = _relabel(frame, pi)
    hd = harmonic_potential(frame, spec.d)
    hd_relabelled = harmonic_potential(relabelled, spec.d)
    for name in ("P", "Pdag", "V"):
        assert np.array_equal(getattr(hd_relabelled, name),
                              getattr(hd, name)[np.ix_(pi, pi)]), name
    cdv = construct_canonical_cdv(frame, spec.d)
    before = verify_harmonic(spec, frame, hd, cdv, 1e-5)
    after = verify_harmonic(spec, relabelled, hd_relabelled, cdv, 1e-5)
    # The differences are round-off: at most 6.7e-15 of scale over 15 seeds
    # of each spec and every permutation.
    scale = np.max(np.abs(frame.u)) + np.max(np.abs(frame.eta_d / frame.eta))
    for e in before.entries:
        assert abs(after[e.name].residual - e.residual) <= 1e-13 * scale, e.name


def test_flat_frame_dh_cubic2_is_exactly_zero():
    # The fourth derivatives of F vanish, so h is constant; an FD oracle
    # leaves ~1e-12 of round-off here.
    spec = catalog("cubic2")
    for t in [(0.3 + 0.2j, 0.8 - 0.1j), (0.0, 1.0)]:
        assert not np.any(canonical_frame(spec, t).dh)


# Points off the real slice, where h and d h are not real, so that a
# missing conjugation in the real Levi-Civita connection shows.
COMPLEX_POINTS = {
    "quartic2": (0.3 + 0.2j, 0.8 - 0.4j),
    "a3_3d": (0.3 + 0.1j, 0.7 - 0.2j, 1.1 + 0.3j),
    "p1": (0.2 - 0.1j, 0.4 + 0.7j),
}


def _real_metric(h):
    """Real metric blocks of Re h on the basis (x^j -> d_j, y^j -> i d_j)."""
    re, im = h.real, h.imag
    return np.block([[re, im], [-im, re]])


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT), ("p1", (0.2, 0.4))]
                         + sorted(COMPLEX_POINTS.items()))
def test_real_levi_civita_against_fd_christoffel_symbols(name, t):
    # connection_gap reports maxima that a wrong entry can leave unchanged,
    # so each entry of f_a f_b chern + _lc_torsion is checked against the
    # Christoffel symbols of Re h, from a central difference of the metric.
    spec = catalog(name)
    m = spec.dim
    t = np.asarray(t, dtype=complex)
    s0 = np.concatenate([t.real, t.imag])
    step = 1e-5
    dg = []
    for a in range(2 * m):
        ds = np.zeros(2 * m)
        ds[a] = step
        plus, minus = s0 + ds, s0 - ds
        dg.append((_real_metric(flat_frame_h(spec, plus[:m] + 1j * plus[m:]))
                   - _real_metric(flat_frame_h(spec, minus[:m] + 1j * minus[m:]))) / (2.0 * step))
    dg = np.array(dg)
    g_inv = np.linalg.inv(_real_metric(flat_frame_h(spec, t)))
    # gamma[a, b, c] = Gamma^c_ab; its output index complexified as v_x + i v_y.
    gamma = 0.5 * np.einsum("cd,abd->abc", g_inv,
                            dg + np.swapaxes(dg, 0, 1) - np.moveaxis(dg, 0, -1))
    expected = gamma[..., :m] + 1j * gamma[..., m:]

    frame = canonical_frame(spec, t)
    f = np.repeat([1.0, 1j], m)
    tors = frame.dh - np.swapaxes(frame.dh, -3, -2)
    lc = (np.multiply.outer(f, f)[:, :, None] * np.tile(frame.chern, (2, 2, 1))
          + _lc_torsion(f, tors, frame.h_inv))
    assert np.max(np.abs(lc - expected)) <= 1e-8 * np.max(np.abs(expected))


def test_connection_gap_trivial_case():
    spec = catalog("cubic2")
    rep = connection_gap(spec, (0.3 + 0.1j, 0.7), 1e-8)
    assert rep.passed, "\n".join(rep.summary_lines())


def test_connection_gap_quartic2_nonzero():
    spec = catalog("quartic2")
    rep = connection_gap(spec, QPT, 1e-5)
    for e in rep.entries:
        assert e.residual > 1e-3, e.name


# Gaps at fixed points from the former loop-by-loop implementation of
# connection_gap (Christoffel symbols summed entry by entry).
LOOP_GAPS = {
    "quartic2": (QPT, (0.02551551815383, 0.02551551815383, 0.05103103630638,
                       0.2499999999922, 0.2500000000126)),
    "a3_3d": (A3_POINT, (0.5929161748004, 0.5929161747887, 0.7852147431597,
                         0.9551851420603, 0.9551851420605)),
    "p1": ((0.2, 0.4), (0.1023413441424, 0.1023413441424, 0.2046826882526,
                        0.2499999999794, 0.2499999999855)),
}


# Gaps at COMPLEX_POINTS from the former real-metric implementation of
# connection_gap (Christoffel symbols of the 2m x 2m real metric of Re h).
PARENT_GAPS = {
    "quartic2": (0.030163858991882, 0.030163858991882, 0.06032771798376396,
                 0.24999999999999986, 0.2795084971874735),
    "a3_3d": (0.30866264754078193, 0.30866264754078193, 0.4193211666614433,
              0.3996138200268762, 0.45333005917501007),
    "p1": (0.10234134413474777, 0.10234134413474777, 0.20468268826949554,
           0.25000000000000006, 0.25000000000000006),
}


@pytest.mark.parametrize("name", sorted(LOOP_GAPS))
def test_connection_gap_matches_loop_values(name):
    t, expected = LOOP_GAPS[name]
    rep = connection_gap(catalog(name), t, 1e-5)
    assert [e.residual for e in rep.entries] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("name", sorted(PARENT_GAPS))
def test_connection_gap_matches_parent_values(name):
    rep = connection_gap(catalog(name), COMPLEX_POINTS[name], 1e-5)
    assert [e.residual for e in rep.entries] == pytest.approx(PARENT_GAPS[name], rel=1e-12)


@pytest.mark.parametrize("name", ["quartic2", "p1", "a3_3d", "cubic2"])
def test_nabla_vs_chern_equals_chern_torsion(name):
    # The metric is Egoroff in canonical coordinates, so eta_d[a, b] =
    # e_a(eta_b) is symmetric, and the entries of the flat minus the Chern
    # connection in the canonical frame are then the torsion's entries up
    # to sign: the two gaps are one number (0 on the flat cubic2), which
    # connection_gap forms once.
    spec = catalog(name)
    for seed in range(10):
        for t in sample_points(spec, 3, seed)[0]:
            frame = canonical_frame(spec, t)
            eta_d = frame.eta_d
            assert np.max(np.abs(eta_d - eta_d.T)) <= 1e-12 * np.max(np.abs(eta_d))
            rep = connection_gap(spec, frame, 1e-5)
            torsion = rep["chern_torsion"].residual
            assert (torsion > 0.0) == (name != "cubic2"), (seed, t)
            assert rep["nabla_vs_chern"].residual == torsion, (seed, t)


@pytest.mark.parametrize("name", ["quartic2", "p1", "cubic2"])
def test_kaehler_closedness_is_twice_chern_torsion_at_m2(name):
    # Both read the torsion of the Chern connection, kaehler_closedness in
    # flat coordinates; at m = 2 they differ by a factor 2 (0 on the flat
    # cubic2), at m = 3 by a ratio that varies (1.10-2.28 on a3_3d).
    spec = catalog(name)
    for seed in range(10):
        for t in sample_points(spec, 3, seed)[0]:
            rep = connection_gap(spec, canonical_frame(spec, t), 1e-5)
            torsion = rep["chern_torsion"].residual
            closedness = rep["kaehler_closedness"].residual
            assert abs(closedness - 2.0 * torsion) <= 1e-12 * closedness, (seed, t)


@pytest.mark.parametrize("name", sorted(LOOP_GAPS))
def test_connection_gap_inverts_nothing(monkeypatch, name):
    # Given its frame, connection_gap reads the frame's h^{-1}.
    # np.linalg.inv is counted around the call alone: flat_metric's cache
    # makes process-wide counts depend on test order.
    spec = catalog(name)
    frame = canonical_frame(spec, LOOP_GAPS[name][0])
    inv, calls = np.linalg.inv, []

    def counting(M):
        calls.append(np.shape(M))
        return inv(M)

    monkeypatch.setattr(np.linalg, "inv", counting)
    connection_gap(spec, frame, 1e-5)
    assert calls == []


def test_pencil_flat_quartic2():
    spec = catalog("quartic2")
    rep = pencil_curvature(spec, QPT, [1.0, 1.0j, 2.0], 1e-5)
    assert rep.passed, "\n".join(rep.summary_lines())


def test_pencil_flat_cubic2_tight():
    spec = catalog("cubic2")
    rep = pencil_curvature(spec, (0.2, 0.5), [1.0, 2.0], 1e-8)
    assert rep.passed, "\n".join(rep.summary_lines())


def test_pencil_scalar_grading_term_is_invisible():
    # A scalar multiple of the identity in the z-direction commutes with
    # everything and is constant in t, so it cannot change any curvature
    # component: the corruption is structurally undetectable here.
    spec = catalog("quartic2")
    base = pencil_curvature(spec, QPT, [1.0, 2.0], 1e-5)
    bad = pencil_curvature(spec, QPT, [1.0, 2.0], 1e-5, Q=np.eye(2))
    assert bad["pencil_curvature"].residual == pytest.approx(
        base["pencil_curvature"].residual, rel=1e-9
    )


@pytest.mark.parametrize("given", ["frame", "point"])
@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT)],
                         ids=["quartic2", "a3_3d"])
def test_pencil_reads_only_its_frame(eig_calls, derivative_calls, invert_calls, name, t, given):
    # derivative_data reads the frame at the point and evaluates no partial
    # of F.  Given a point, its frame takes one eigen-solve, one evaluation
    # of the third and fourth partials, and inverts A and h.
    spec = catalog(name)
    flat_metric(spec)  # cached once per spec; not part of the count
    t = canonical_frame(spec, t) if given == "frame" else t
    eig_calls.clear()
    derivative_calls.clear()
    invert_calls.clear()
    pencil_curvature(spec, t, [1.0, 1.0j, 2.0], 1e-5)
    built = given == "point"
    assert eig_calls == derivative_calls[3] == derivative_calls[4] == [1] * built
    assert invert_calls == ["idempotent frame A", "flat pairing h"] * built
    assert derivative_calls[5] == []


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT)],
                         ids=["quartic2", "a3_3d"])
def test_derivative_data_inverts_nothing_given_a_frame(invert_calls, derivative_calls,
                                                       name, t):
    # The frame holds A^{-1}, h^{-1} and the fourth partials of F, and every
    # derivative is first order in it.
    spec = catalog(name)
    frame = canonical_frame(spec, t)
    invert_calls.clear()
    derivative_calls.clear()
    cdv_module.derivative_data(spec, frame)
    assert invert_calls == []
    assert not derivative_calls


def _with_hol_w_added(data, R):
    """data with R[j, k] added to its hol-W block, d_j W_k."""
    m = R.shape[-1]
    dS = data.dS.copy()
    dS[..., :m, :m, :, :] += R
    return dataclasses.replace(data, dS=dS)


@pytest.mark.parametrize("name", ["quartic2", "p1", "a3_3d"])
def test_hol_w_block_enters_only_antisymmetrised(monkeypatch, name):
    # d_j W_k enters the curvature as d_j W_k - d_k W_j, so a part of it
    # symmetric in (j, k), like the d_j d_k h that derivative_data leaves
    # out, moves no coefficient beyond round-off, and an antisymmetric one
    # fails the pencil.  Both are of the size of dS.
    spec = catalog(name)
    m = spec.dim
    pts, _ = sample_points(spec, 3, seed=0)
    frames = canonical_frame(spec, pts)
    data = cdv_module.derivative_data(spec, frames)
    rng = np.random.default_rng(7)
    R = rng.normal(size=data.dS.shape[:-4] + (m,) * 4 + (2,)) @ [1.0, 1.0j]
    R *= np.max(np.abs(data.dS)) / np.max(np.abs(R))
    symmetric, antisymmetric = R + np.swapaxes(R, -3, -4), R - np.swapaxes(R, -3, -4)

    F = cdv_module.curvature_coefficients(data.S, data.dS)
    moved = cdv_module.curvature_coefficients(data.S, _with_hol_w_added(data, symmetric).dS)
    scale = max(np.max(np.abs(data.dS)), np.max(np.abs(data.S)) ** 2)
    for k in F:
        assert np.max(np.abs(moved[k] - F[k])) <= 1e-14 * scale, k

    assert pencil_curvature(spec, frames, [1.0, 1.0j, 2.0], 1e-5).passed
    derivative_data = cdv_module.derivative_data
    monkeypatch.setattr(cdv_module, "derivative_data", lambda *args: _with_hol_w_added(
        derivative_data(*args), antisymmetric))
    rep = pencil_curvature(spec, frames, [1.0, 1.0j, 2.0], 1e-5)
    assert rep["pencil_curvature"].residual > 1e-3


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT)])
def test_verifiers_take_no_eigen_solve_given_a_frame(eig_calls, name, t):
    # Every derivative is exact and comes from the frame at the point.
    spec = catalog(name)
    frame = canonical_frame(spec, t)
    cdv = construct_canonical_cdv(frame, spec.d)
    eig_calls.clear()
    verify_cv_axioms(spec, cdv, 1e-5)
    verify_harmonic(spec, frame, harmonic_potential(frame, spec.d), cdv, 1e-5)
    assert eig_calls == []


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT)])
def test_exact_dh_layers_take_one_eigendecomposition(eig_calls, name, t):
    spec = catalog(name)
    for check in (
        lambda: connection_gap(spec, t, 1e-5),
        lambda: from_canonical(spec, t),
        lambda: check_euler_degree(spec, t, 1e-10),
    ):
        eig_calls.clear()
        check()
        assert eig_calls == [1]


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT)])
def test_exact_dh_layers_take_a_frame_for_the_point(eig_calls, name, t):
    # Given the frame at t they build none, and read exactly the same.
    spec = catalog(name)
    frame = canonical_frame(spec, t)
    for check in (
        lambda at: connection_gap(spec, at, 1e-5).entries,
        lambda at: check_euler_degree(spec, at, 1e-10).entries,
        lambda at: [(f, getattr(from_canonical(spec, at), f).tolist()) for f in ("h", "omega")],
    ):
        at_point = check(t)
        eig_calls.clear()
        assert check(frame) == at_point
        assert eig_calls == []


@pytest.mark.parametrize("seed", [5, 47])
def test_pencil_a3_near_discriminant(tmp_path, seed):
    # Relative eigenvalue gaps 0.070/0.051.  With h differentiated by
    # finite differences inside the base data, pencil_curvature read
    # 2.0e-5 and 3.2e-5 here against the tolerance 1e-5.
    path = tmp_path / "a3_3d.json"
    write_spec(catalog("a3_3d"), path)
    assert main(["pencil", "--spec", str(path), "--points", "1", "--seed", str(seed)]) == 0


@pytest.mark.parametrize("seed", [5, 47])
def test_verify_a3_near_discriminant(tmp_path, seed):
    # These seeds sample a3_3d at a relative eigenvalue gap of 0.05-0.07.
    # With eta_d taken by finite differences of frames, ttstar_commutator
    # read 2-3e-5 here against the tolerance 1e-5.
    path = tmp_path / "a3_3d.json"
    write_spec(catalog("a3_3d"), path)
    assert main(["verify", "--spec", str(path), "--points", "1", "--seed", str(seed)]) == 0


def test_pencil_detects_non_scalar_grading_term():
    spec = catalog("quartic2")
    base = pencil_curvature(spec, QPT, [1.0, 1.0j, 2.0], 1e-5)
    bad = pencil_curvature(spec, QPT, [1.0, 1.0j, 2.0], 1e-5, Q=np.diag([0.5, -0.5]))
    assert base.passed
    assert bad["pencil_curvature"].residual > 1.0


def _harmonic_potential_loop(frame):
    """Reference: harmonic_potential entry by entry."""
    m = len(frame.u)
    eta, eta_d = frame.eta, frame.eta_d
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
                np.conj(eta_d[alpha, beta]) * eta[beta] / (2.0 * abs(eta[alpha] * eta[beta]))
            )
            Pdag[beta, alpha] = eta_d[alpha, beta] / (2.0 * eta[beta])
            V[beta, alpha] = (
                (frame.u[beta] - frame.u[alpha]) * eta_d[alpha, beta] / (2.0 * eta[beta])
            )
    return P, Pdag, V


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT), ("p1", (0.2, 0.4))])
def test_harmonic_potential_matches_loop(name, t):
    frame = canonical_frame(catalog(name), t)
    hd = harmonic_potential(frame, 0.0)
    P, Pdag, V = _harmonic_potential_loop(frame)
    assert np.array_equal(hd.P, P)
    assert np.array_equal(hd.Pdag, Pdag)
    # V multiplies in another order: round-off only.
    assert np.max(np.abs(hd.V - V)) <= 4 * np.finfo(float).eps * np.max(np.abs(V))

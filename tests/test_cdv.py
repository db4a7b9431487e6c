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
    HarmonicData,
    canonical_frame,
    catalog,
    connection_gap,
    check_euler_degree,
    construct_canonical_cdv,
    flat_frame_dh,
    flat_frame_h,
    flat_metric,
    from_canonical,
    harmonic_potential,
    pencil_curvature,
    verify_cv_axioms,
    verify_harmonic,
    write_spec,
)
from frobcdv import cdv as cdv_module
from frobcdv.cdv import _higgs_parallel, _real_metric, _real_metric_derivatives
from frobcdv.cli import main, sample_points
from frobcdv.numerics import wirtinger_fd

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
    )


def test_construction_real_eta():
    cdv = construct_canonical_cdv(_fake_frame([2.0, -3.0]), 0.0)
    assert np.allclose(cdv.K, np.diag([1.0, -1.0]))
    assert np.allclose(cdv.h, np.diag([2.0, 3.0]))
    assert np.allclose(cdv.Q, 0.0)


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


def test_corrupted_kappa_detected():
    spec = catalog("quartic2")
    cdv = construct_canonical_cdv(canonical_frame(spec, QPT), spec.d)
    K_bad = cdv.K.copy()
    K_bad[0, 0] *= np.sqrt(3.0)
    bad = dataclasses.replace(cdv, K=K_bad)
    rep = verify_cv_axioms(spec, bad, 1e-5)
    assert not rep.passed
    # |conj(sqrt(3) K00) sqrt(3) K00 - 1| = |3 - 1| = 2, exactly
    assert rep["kappa_involution"].residual == pytest.approx(2.0, abs=1e-12)
    # the kappa-conjugate of C^(0) = diag(1, 0) has entry |sqrt(3) K00|^2 = 3
    assert rep["higgs_reality"].residual == pytest.approx(2.0, abs=1e-12)


def test_global_sign_flip_is_still_an_involution():
    spec = catalog("quartic2")
    cdv = construct_canonical_cdv(canonical_frame(spec, QPT), spec.d)
    flipped = dataclasses.replace(cdv, K=-cdv.K)
    rep = verify_cv_axioms(spec, flipped, 1e-5)
    assert rep["kappa_involution"].residual <= 1e-12


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

    # verify_harmonic differences P from cdv.harmonic_potential at the
    # stencil points.
    monkeypatch.setattr(cdv_module, "harmonic_potential", corrupted)
    rep = verify_harmonic(spec, frame, corrupted(frame, spec.d), cdv, 1e-5)
    assert rep["dprime_p_equals_higgs"].residual > 0.5


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


@pytest.mark.parametrize("name", ["quartic2", "p1", "a3_3d"])
def test_flat_frame_dh_against_fd_oracle(name):
    # Oracle: an order-4 Wirtinger difference of flat_frame_h, which takes
    # one eigendecomposition per stencil point and no derivative data.
    spec = catalog(name)
    pts, _ = sample_points(spec, 5, seed=3)
    for t in pts:
        dh = flat_frame_dh(canonical_frame(spec, t))[1]
        scale = np.max(np.abs(dh))
        for k in range(spec.dim):
            wd = wirtinger_fd(lambda tp: flat_frame_h(spec, tp), t, k, step=1e-4, order=4)
            assert np.max(np.abs(dh[k] - wd.holo)) <= 1e-8 * scale
            assert np.max(np.abs(np.conj(dh[k]).T - wd.anti)) <= 1e-8 * scale


@st.composite
def _frame_and_permutation(draw):
    spec = catalog(draw(st.sampled_from(["a3_3d", "cubic2", "p1", "quartic2"])))
    pts, _ = sample_points(spec, 1, seed=draw(st.integers(0, 10**6)))
    return canonical_frame(spec, pts[0]), np.array(draw(st.permutations(range(spec.dim))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_frame_and_permutation())
def test_flat_frame_dh_is_label_invariant(frame_and_pi):
    frame, pi = frame_and_pi
    relabelled = dataclasses.replace(
        frame, u=frame.u[pi], A=frame.A[:, pi], eta=frame.eta[pi],
        eta_d=frame.eta_d[np.ix_(pi, pi)], dC=frame.dC[:, pi][:, :, pi],
    )
    for before, after in zip(flat_frame_dh(frame), flat_frame_dh(relabelled)):
        assert np.max(np.abs(after - before)) <= 1e-12 * np.max(np.abs(before))


def test_flat_frame_dh_cubic2_is_exactly_zero():
    # The fourth derivatives of F vanish, so h is constant; an FD oracle
    # leaves ~1e-12 of round-off here.
    spec = catalog("cubic2")
    for t in [(0.3 + 0.2j, 0.8 - 0.1j), (0.0, 1.0)]:
        _, dh = flat_frame_dh(canonical_frame(spec, t))
        assert not np.any(dh)


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT), ("p1", (0.2, 0.4))])
def test_real_metric_derivatives_against_fd(name, t):
    # connection_gap reports maxima that a wrong derivative of the real
    # metric can leave unchanged, so the derivative is checked directly.
    spec = catalog(name)
    m = spec.dim
    t = np.asarray(t, dtype=complex)
    dg = _real_metric_derivatives(flat_frame_dh(canonical_frame(spec, t))[1])
    s0 = np.concatenate([t.real, t.imag])
    step = 1e-5
    for a in range(2 * m):
        ds = np.zeros(2 * m)
        ds[a] = step
        plus, minus = s0 + ds, s0 - ds
        fd = (_real_metric(flat_frame_h(spec, plus[:m] + 1j * plus[m:]))
              - _real_metric(flat_frame_h(spec, minus[:m] + 1j * minus[m:]))) / (2.0 * step)
        assert np.max(np.abs(dg[a] - fd)) <= 1e-8 * np.max(np.abs(dg))


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


@pytest.mark.parametrize("name", sorted(LOOP_GAPS))
def test_connection_gap_matches_loop_values(name):
    t, expected = LOOP_GAPS[name]
    rep = connection_gap(catalog(name), t, 1e-5)
    assert [e.residual for e in rep.entries] == pytest.approx(expected, rel=1e-9)


def test_pencil_flat_quartic2():
    spec = catalog("quartic2")
    rep = pencil_curvature(spec, QPT, [1.0, 1.0j, 2.0], 1e-5)
    assert rep.passed, "\n".join(rep.summary_lines())


def test_pencil_flat_cubic2_tight():
    spec = catalog("cubic2")
    rep = pencil_curvature(spec, (0.2, 0.5), [1.0, 2.0], 1e-8, fd_step=1e-3)
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


@pytest.mark.parametrize("name,t,eigs", [("quartic2", QPT, 9), ("a3_3d", A3_POINT, 13)])
def test_pencil_builds_base_data_once_per_stencil_point(eig_calls, third_derivative_calls,
                                                        name, t, eigs):
    # 4m+1: base data at the centre and at 4m stencil points, each from
    # one frame, since the derivatives of h in it are exact.  All frames
    # are one stack: one eigen-solve call of 4m+1 matrices, and one
    # evaluation of the third derivatives at the same 4m+1 points.
    spec = catalog(name)
    flat_metric(spec)  # cached once per spec; not part of the count
    third_derivative_calls.clear()
    pencil_curvature(spec, t, [1.0, 1.0j, 2.0], 1e-5)
    assert eig_calls == third_derivative_calls == [eigs]


@pytest.mark.parametrize("name,t,eigs", [("quartic2", QPT, 8), ("a3_3d", A3_POINT, 12)])
def test_verifiers_take_one_frame_per_stencil_point(eig_calls, name, t, eigs):
    # 4m stencil points, one frame each, all in one eigen-solve call: a
    # matched frame's eta_d is exact, so it takes no stencil of its own.
    spec = catalog(name)
    frame = canonical_frame(spec, t)
    cdv = construct_canonical_cdv(frame, spec.d)
    eig_calls.clear()
    verify_cv_axioms(spec, cdv, 1e-5)
    assert eig_calls == [eigs]
    eig_calls.clear()
    verify_harmonic(spec, frame, harmonic_potential(frame, spec.d), cdv, 1e-5)
    assert eig_calls == [eigs]


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


def _higgs_parallel_loop(omega):
    """Reference: verify_cv_axioms check (e) index triple by index triple."""
    m = len(omega)
    res = 0.0
    for alpha in range(m):
        for beta in range(m):
            if alpha == beta:
                continue
            for gamma in range(m):
                if gamma not in (alpha, beta):
                    res = max(res, abs(omega[gamma][beta, alpha]))
            res = max(res, abs(omega[alpha][beta, alpha] + omega[beta][beta, alpha]))
    return res


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT), ("p1", (0.2, 0.4))])
def test_higgs_parallel_matches_loop(name, t):
    spec = catalog(name)
    omega = construct_canonical_cdv(canonical_frame(spec, t), spec.d).omega
    # The canonical omega is diagonal, so both read 0 there.  A dense omega
    # of the same size, one with a single nonzero entry per index triple,
    # and a dense one that satisfies the relations exercise every index.
    shape = np.shape(omega)
    rng = np.random.default_rng(len(omega))
    dense = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    parallel = dense.copy()
    for gamma, beta, alpha in np.ndindex(shape):
        if alpha != beta and gamma != alpha:
            parallel[gamma, beta, alpha] = -dense[alpha, beta, alpha] if gamma == beta else 0.0
    for W in (omega, dense, parallel, *np.eye(np.prod(shape)).reshape((-1,) + shape)):
        # numpy's vectorised complex abs may differ from the scalar one in the last bit.
        assert _higgs_parallel(W) == pytest.approx(
            _higgs_parallel_loop(W), rel=4 * np.finfo(float).eps, abs=0.0)
    assert _higgs_parallel(dense) > 0.0 == _higgs_parallel(parallel)

"""Tests for canonical frames, idempotents, and the canonical connection."""

import dataclasses

import numpy as np
import pytest

from frobcdv import (
    A3_POINT,
    FrameDiscontinuity,
    NotSemisimple,
    canonical_frame,
    catalog,
    check_euler_eta,
    flat_eval,
    levi_civita_canonical,
)
from frobcdv.canonical import _matched_bare, matched_frame

QPT = (0.0, 1.0)


def test_trivial2_not_semisimple():
    with pytest.raises(NotSemisimple):
        canonical_frame(catalog("trivial2"), (0.3, 0.7))


def test_quartic2_canonical_values():
    frame = canonical_frame(catalog("quartic2"), QPT)
    root = np.sqrt(32.0 / 3.0)
    assert np.allclose(frame.u, [-root, root], atol=1e-12)
    assert frame.gap == pytest.approx(2.0 * root, rel=1e-12)


def test_idempotents_square_and_sum_to_unit():
    for name, t in [("quartic2", QPT), ("a3_3d", A3_POINT), ("p1", (0.2, 0.4))]:
        spec = catalog(name)
        frame = canonical_frame(spec, t)
        ev = flat_eval(spec, t)
        m = spec.dim
        for a in range(m):
            v = frame.A[:, a]
            vv = np.einsum("i,j,ijk->k", v, v, ev.Cmix)
            assert np.max(np.abs(vv - v)) <= 1e-10
        # partition of unity: the idempotents sum to the unit vector field
        unit = np.zeros(m)
        unit[0] = 1.0
        assert np.max(np.abs(frame.A.sum(axis=1) - unit)) <= 1e-10


def test_frame_diagonalizes_multiplication_and_metric():
    spec = catalog("a3_3d")
    frame = canonical_frame(spec, A3_POINT)
    ev = flat_eval(spec, A3_POINT)
    Ainv = np.linalg.inv(frame.A)
    # Euler multiplication is diagonal with entries u in the frame
    Uf = Ainv @ ev.U @ frame.A
    assert np.max(np.abs(Uf - np.diag(frame.u))) <= 1e-9
    # metric is diagonal with entries eta
    gf = frame.A.T @ ev.g @ frame.A
    assert np.max(np.abs(gf - np.diag(frame.eta))) <= 1e-10


def test_metric_reconstruction_from_frame():
    spec = catalog("quartic2")
    frame = canonical_frame(spec, QPT)
    ev = flat_eval(spec, QPT)
    Ainv = np.linalg.inv(frame.A)
    g_rebuilt = Ainv.T @ np.diag(frame.eta) @ Ainv
    assert np.max(np.abs(g_rebuilt - ev.g)) <= 1e-10


def test_eta_derivative_against_direct_difference():
    # eta_d[alpha, beta] = e_alpha(eta_beta); verified against a central
    # difference along the idempotent direction computed by hand.
    spec = catalog("quartic2")
    t = np.array(QPT, dtype=complex)
    frame = canonical_frame(spec, t)
    step = 1e-6
    for alpha in range(2):
        direction = frame.A[:, alpha]
        plus = matched_frame(spec, t + step * direction, frame)
        minus = matched_frame(spec, t - step * direction, frame)
        fd = (plus.eta - minus.eta) / (2.0 * step)
        assert np.max(np.abs(fd - frame.eta_d[alpha])) <= 1e-6


def test_levi_civita_metric_compatibility():
    # e_alpha(g(e_b, e_c)) = g(nabla_a e_b, e_c) + g(e_b, nabla_a e_c)
    # in the frame: delta_{bc} eta_d[a, b] = Gamma[a][b, c] eta_b
    #                                      + Gamma[a][c, b] eta_c.
    spec = catalog("a3_3d")
    frame = canonical_frame(spec, A3_POINT)
    gammas = levi_civita_canonical(frame)
    m = 3
    worst = 0.0
    for a in range(m):
        for b in range(m):
            for c in range(m):
                lhs = frame.eta_d[a, b] if b == c else 0.0
                rhs = gammas[a][c, b] * frame.eta[c] + gammas[a][b, c] * frame.eta[b]
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


def test_levi_civita_torsion_free():
    # nabla_a e_b - nabla_b e_a = [e_a, e_b] = sum_k (e_a(A_kb) - e_b(A_ka)) dual
    # checked numerically through matched frames.
    spec = catalog("quartic2")
    t = np.array(QPT, dtype=complex)
    frame = canonical_frame(spec, t)
    gammas = levi_civita_canonical(frame)
    step = 1e-6
    m = 2
    # bracket [e_a, e_b] in flat coordinates via directional derivatives of A
    def dirderiv_A(direction):
        plus = matched_frame(spec, t + step * direction, frame)
        minus = matched_frame(spec, t - step * direction, frame)
        return (plus.A - minus.A) / (2.0 * step)

    dA = [dirderiv_A(frame.A[:, a]) for a in range(m)]
    for a in range(m):
        for b in range(m):
            bracket = dA[a][:, b] - dA[b][:, a]
            model = frame.A @ (gammas[a][:, b] - gammas[b][:, a])
            assert np.max(np.abs(bracket - model)) <= 1e-6


def test_euler_eta_scaling():
    for name, t in [("quartic2", QPT), ("a3_3d", A3_POINT), ("p1", (0.1, 0.3))]:
        spec = catalog(name)
        frame = canonical_frame(spec, t)
        assert check_euler_eta(spec, frame, 1e-8).passed


def test_euler_eta_scaling_detects_wrong_d():
    spec = catalog("quartic2")
    frame = canonical_frame(spec, QPT)
    bad = dataclasses.replace(spec, d=spec.d + 1.0, normal_form=False)
    rep = check_euler_eta(bad, frame, 1e-8)
    assert not rep.passed
    assert rep["euler_eta_scaling"].residual > 1e-3


def test_frame_deterministic():
    spec = catalog("a3_3d")
    f1 = canonical_frame(spec, A3_POINT)
    f2 = canonical_frame(spec, A3_POINT)
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.A, f2.A)
    assert np.array_equal(f1.eta_d, f2.eta_d)


def test_matching_rejects_labels_claiming_one_eigenvalue():
    spec = catalog("quartic2")
    frame = canonical_frame(spec, (0.0, 1.0))
    ref_u = np.array([frame.u[0], frame.u[0] + 1e-3])
    with pytest.raises(FrameDiscontinuity, match="one-to-one"):
        _matched_bare(spec, frame.point, ref_u, frame.gap, 1e-8)

"""Tests for canonical frames, idempotents, and the canonical connection."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcdv import (
    A3_POINT,
    NotSemisimple,
    canonical_frame,
    catalog,
    check_euler_eta,
    flat_eval,
    levi_civita_canonical,
)
from frobcdv.cli import sample_points

QPT = (0.0, 1.0)


def _matched_frame(spec, t, ref):
    """The canonical frame at t with u, A and eta relabelled to match ref:
    each of ref's eigenvalues takes the nearest one at t.  The
    finite-difference oracles below difference labelled data."""
    frame = canonical_frame(spec, t)
    perm = np.argmin(np.abs(ref.u[:, None] - frame.u[None, :]), axis=1)
    assert len(set(perm)) == len(perm), "labels not one-to-one"
    return dataclasses.replace(frame, u=frame.u[perm], A=frame.A[:, perm], eta=frame.eta[perm])


def test_trivial2_not_semisimple():
    with pytest.raises(NotSemisimple):
        canonical_frame(catalog("trivial2"), (0.3, 0.7))


FRAME_FIELDS = ("point", "u", "A", "eta", "eta_d", "dC", "F4", "A_inv", "h", "dh", "h_inv")
EV_FIELDS = ("point", "C3", "Cmix", "U")


@pytest.mark.parametrize("name", ["quartic2", "p1", "a3_3d", "cubic2"])
def test_point_frame_is_its_stack_of_one(name):
    # One routine builds both: the frame at t is the frame of the stack
    # [t] bit for bit, without the stack's leading axis.
    spec = catalog(name)
    t = sample_points(spec, 1, seed=3)[0][0]
    one, stack = canonical_frame(spec, t), canonical_frame(spec, t[None])
    for field in FRAME_FIELDS:
        a, b = getattr(one, field), getattr(stack, field)
        assert a.shape == b.shape[1:] and np.array_equal(a, b[0]), field
    for field in EV_FIELDS:
        a, b = getattr(one.ev, field), getattr(stack.ev, field)
        assert a.shape == b.shape[1:] and np.array_equal(a, b[0]), field
    assert np.ndim(one.gap) == 0 and np.shape(stack.gap) == (1,)
    assert float(one.gap) == stack.gap[0]


def test_not_semisimple_names_the_first_failing_point():
    spec = catalog("quartic2")
    with pytest.raises(NotSemisimple, match=r"threshold 1\.000e-08 at \(0\+0j, 0\+0j\)$"):
        canonical_frame(spec, (0.0, 0.0))
    # Of a stack, the first point that fails: (0.5, 0), not (0, 0).
    stack = [(0.0, 1.0), (0.5, 0.0), (0.0, 0.0)]
    with pytest.raises(NotSemisimple, match=r"threshold 1\.500e-08 at \(0\.5\+0j, 0\+0j\)$"):
        canonical_frame(spec, stack)


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
    # eta_d[alpha, beta] = e_alpha(eta_beta) comes from the fourth
    # derivatives of F; the oracle is a central difference of eta along
    # each idempotent direction, with frames matched to the centre.
    step = 1e-5
    for name, t in [("quartic2", QPT), ("a3_3d", A3_POINT), ("p1", (0.2, 0.4))]:
        spec = catalog(name)
        t = np.asarray(t, dtype=complex)
        frame = canonical_frame(spec, t)
        scale = np.max(np.abs(frame.eta_d))
        for alpha in range(spec.dim):
            direction = frame.A[:, alpha]
            plus = _matched_frame(spec, t + step * direction, frame)
            minus = _matched_frame(spec, t - step * direction, frame)
            fd = (plus.eta - minus.eta) / (2.0 * step)
            assert np.max(np.abs(fd - frame.eta_d[alpha])) <= 1e-8 * scale, name


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT)])
def test_canonical_frame_takes_one_eigendecomposition(eig_calls, name, t):
    canonical_frame(catalog(name), t)
    assert eig_calls == [1]


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
        plus = _matched_frame(spec, t + step * direction, frame)
        minus = _matched_frame(spec, t - step * direction, frame)
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["quartic2", "p1", "a3_3d"]), seed=st.integers(0, 10**6))
def test_euler_eta_scaling_at_random_points(name, seed):
    # E(eta_alpha) = -d eta_alpha is exact; the tolerance is round-off on
    # the scale of the terms (observed up to 1.2e-14 of it on 1200 points).
    spec = catalog(name)
    pts, _ = sample_points(spec, 1, seed=seed)
    frame = canonical_frame(spec, pts[0])
    scale = np.max(np.abs(frame.u)) * np.max(np.abs(frame.eta_d)) + abs(spec.d) * np.max(
        np.abs(frame.eta))
    assert check_euler_eta(spec, frame, 1e-12 * scale).passed


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


def _levi_civita_loop(frame):
    """Reference: levi_civita_canonical entry by entry."""
    m = len(frame.u)
    eta, eta_d = frame.eta, frame.eta_d
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
    return np.stack(gammas)


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT), ("p1", (0.2, 0.4))])
def test_levi_civita_matches_loop(name, t):
    frame = canonical_frame(catalog(name), t)
    assert np.array_equal(levi_civita_canonical(frame), _levi_civita_loop(frame))

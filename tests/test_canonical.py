"""Tests for canonical frames, idempotents, and the checks that read them."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcdv import (
    A3_POINT,
    DefectiveU,
    NotSemisimple,
    canonical_frame,
    catalog,
    check_euler_eta,
    check_homogeneity,
    check_wdvv,
    flat_eval,
    wdvv_reduced_m3,
    wdvv_residual,
)
from frobcdv.cli import sample_points
from frobcdv.potential import fourth_derivatives, homogeneity_defect, third_derivatives

QPT = (0.0, 1.0)


def homogeneity_residual(spec, t):
    """homogeneity_defect's residual maximised over t, one point or a stack
    of them, from the partials of F evaluated there: the point oracle of
    check_homogeneity, which reads them from the frame."""
    C3, F4 = third_derivatives(spec, t), fourth_derivatives(spec, t)
    return float(np.max(homogeneity_defect(spec, t, C3, F4)[0]))


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


FRAME_FIELDS = ("point", "u", "A", "eta", "eta_d", "dC", "F4", "A_inv", "h", "dh", "h_inv",
                "kappa", "chern")
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


@pytest.mark.parametrize("defect", ["residual", "square"])
def test_defective_u_names_the_first_failing_point(monkeypatch, defect):
    # Both DefectiveU errors used to name no point.  solve_eig is made to
    # fail at the second point of a stack: its residual reads 1, or its
    # eigenvectors shrink to 1e-14, so that they square to ~0.
    import frobcdv.canonical as canonical_module

    solve_eig = canonical_module.solve_eig

    def failing_at_second(M):
        eig = solve_eig(M)
        if defect == "residual":
            return dataclasses.replace(eig,
                                       residual=np.where(np.arange(3) == 1, 1.0, eig.residual))
        scale = np.where(np.arange(3) == 1, 1e-14, 1.0)[:, None, None]
        return dataclasses.replace(eig, eigenvectors=eig.eigenvectors * scale)

    monkeypatch.setattr(canonical_module, "solve_eig", failing_at_second)
    stack = [(0.0, 1.0), (0.5, 0.25), (0.25, 0.5)]
    message = (r"eigenvector residual 1\.000e\+00 too large" if defect == "residual"
               else r"eigenvector squares to ~0; algebra not semi-simple")
    with pytest.raises(DefectiveU, match=message + r" at \(0\.5\+0j, 0\.25\+0j\)$") as info:
        canonical_frame(catalog("quartic2"), stack)
    assert info.value.indices == [1]


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


def _frame_checks(spec, frame):
    """(residual, points_checked) per entry of the frame's three checks."""
    reports = [check_wdvv(spec, frame, 0.0), check_homogeneity(spec, frame, 0.0),
               check_euler_eta(spec, frame, 0.0)]
    return {e.name: (e.residual, e.points_checked) for rep in reports for e in rep.entries}


def _oracles(spec, t):
    """The point oracles of the frame checks at t, by entry name."""
    out = {"wdvv_associativity": wdvv_residual(spec, t)}
    if spec.dim == 3 and spec.normal_form:
        out["wdvv_reduced_m3"] = wdvv_reduced_m3(spec, t)
    out["euler_homogeneity"] = homogeneity_residual(spec, t)
    return out


@pytest.mark.parametrize("name", ["quartic2", "p1", "a3_3d", "cubic2", "broken_wdvv"])
def test_frame_checks_equal_the_point_oracles(name):
    # check_wdvv and check_homogeneity read the frame's C_ij^k, C_ijk and
    # F4, and the oracles evaluate them at the point, so the residuals
    # agree bit for bit.  On a stack every check, check_euler_eta too,
    # reads the per-point maxima: u @ eta_d used to be one matrix product
    # across the stack.
    spec = catalog(name)
    for seed in range(3):
        frames = [canonical_frame(spec, t) for t in sample_points(spec, 3, seed)[0]]
        per_point = [_frame_checks(spec, frame) for frame in frames]
        for frame, checks in zip(frames, per_point):
            oracles = _oracles(spec, frame.point)
            assert {k: checks[k] for k in oracles} == {k: (v, 1) for k, v in oracles.items()}
        stack = canonical_frame(spec, np.array([frame.point for frame in frames]))
        assert _frame_checks(spec, stack) == {
            k: (max(checks[k][0] for checks in per_point), len(frames)) for k in per_point[0]}


def test_frame_wdvv_check_fails_on_broken_wdvv():
    spec = catalog("broken_wdvv")
    for t in ((0.1, 0.2, 1.0), [(0.1, 0.2, 1.0), A3_POINT]):
        rep = check_wdvv(spec, canonical_frame(spec, t), 1e-5)
        assert rep["wdvv_associativity"].residual > 1e-3
        assert rep["wdvv_reduced_m3"].residual > 1e-3


def test_homogeneity_check_reads_the_frame_F4():
    # Only the frame's F4 is changed: a check that evaluated F again
    # would still pass.
    spec = catalog("p1")
    frame = canonical_frame(spec, (0.4, 0.7 - 0.3j))
    assert check_homogeneity(spec, frame, 1e-12).passed
    mutated = dataclasses.replace(frame, F4=frame.F4 + 1.0)
    assert check_homogeneity(spec, mutated, 1e-5)["euler_homogeneity"].residual > 1e-3


def test_frame_deterministic():
    spec = catalog("a3_3d")
    f1 = canonical_frame(spec, A3_POINT)
    f2 = canonical_frame(spec, A3_POINT)
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.A, f2.A)
    assert np.array_equal(f1.eta_d, f2.eta_d)

"""Frames built as one stack of nearby points, against the frames of those
points built one at a time, and the verifiers against per-point loops that difference the
flat data over the frames of nearby points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcdv import (
    A3_POINT,
    DerivativeData,
    canonical_frame,
    catalog,
    check_euler_degree,
    check_m2_relations,
    check_m3_relations,
    connection_gap,
    construct_canonical_cdv,
    flat_eval,
    flat_metric,
    from_canonical,
    harmonic_potential,
    pencil_curvature,
    verify_cv_axioms,
    verify_harmonic,
)
from frobcdv import cdv as cdv_module
from frobcdv.cli import POINTWISE_CHECKS, sample_points

NAMES = ("quartic2", "p1", "a3_3d")
TOL = 1e-5
Z_SAMPLES = (1.0, 1.0j, 2.0)
STEP = 1e-5
FIELDS = ("u", "A", "eta", "eta_d", "dC", "F4", "A_inv", "h", "dh", "h_inv")


def _maxabs(M):
    return float(np.max(np.abs(M)))


def _discriminant(spec, t):
    u = np.linalg.eigvals(flat_eval(spec, t).U)
    m = len(u)
    return np.prod([(u[i] - u[j]) ** 2 for i in range(m) for j in range(i + 1, m)])


def _solve_discriminant(spec, t, k, value=0.0):
    """Newton along coordinate k for a point where the holomorphic
    discriminant of U takes the given value; callers check the point."""
    e = np.eye(spec.dim)[k]
    for _ in range(40):
        D = _discriminant(spec, t) - value
        dD = (_discriminant(spec, t + 1e-6 * e) - _discriminant(spec, t - 1e-6 * e)) / 2e-6
        if D == 0.0:
            break
        t = t - D / dD * e
    return t


def _neighbours(t, step):
    """The 4m points t -+ step and t -+ 1j step along each coordinate, as
    one (4m, m) stack."""
    shifts = step * np.array([-1.0, 1.0, -1j, 1j])
    return (t + np.eye(len(t))[:, None, :] * shifts[:, None]).reshape(-1, len(t))


@st.composite
def _neighbour_stacks(draw):
    spec = catalog(draw(st.sampled_from(NAMES)))
    pts, _ = sample_points(spec, 1, seed=draw(st.integers(0, 10**6)))
    step = 10.0 ** draw(st.floats(-6.0, -2.5))
    return spec, _neighbours(pts[0], step)


def _assert_stack_equals_single_frames(spec, points):
    frames = canonical_frame(spec, points)
    for n, tp in enumerate(points):
        one = canonical_frame(spec, tp)
        for name in FIELDS:
            a, b = getattr(frames, name)[n], getattr(one, name)
            # Same labels: u in the same order, and every field close.
            assert _maxabs(a - b) <= 1e-12 * _maxabs(b), name
        assert frames.gap[n] == pytest.approx(one.gap, rel=1e-12)
        assert np.array_equal(frames.point[n], one.point)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_neighbour_stacks())
def test_stacked_frames_equal_single_point_frames(stack):
    _assert_stack_equals_single_frames(*stack)


# Starts near points where the two eigenvalues have equal real parts, so
# that their lexicographic order flips between nearby points.
LEX_CROSSINGS = {"quartic2": (0.1 - 0.3j, -0.4 + 0.2j), "p1": (0.3 + 0.1j, 0.2 + 3.0j)}


@pytest.mark.parametrize("name", sorted(LEX_CROSSINGS))
def test_stacked_labels_across_a_lex_order_crossing(name):
    # The discriminant (u_1 - u_2)^2 is a negative real number exactly where
    # Re u_1 = Re u_2.
    # verify_harmonic reads label-invariant flat-frame data, so it passes
    # there.
    spec = catalog(name)
    start = np.array(LEX_CROSSINGS[name])
    t = _solve_discriminant(spec, start, 1, -abs(_discriminant(spec, start)))
    frame = canonical_frame(spec, t)
    points = _neighbours(t, STEP)
    first = np.argmin(np.abs(canonical_frame(spec, points).u - frame.u[0]), axis=1)
    assert len(set(first)) == 2  # the stack's points order their eigenvalues differently
    _assert_stack_equals_single_frames(spec, points)
    hd = harmonic_potential(frame, spec.d)
    report = verify_harmonic(spec, frame, hd, construct_canonical_cdv(frame, spec.d), TOL)
    assert report.passed, "\n".join(report.summary_lines())


# Per-point loops, kept as oracles: one frame and one function call per
# nearby point, and an order-2 Wirtinger difference written out.

def _wirtinger_loop(f, t, k, step=STEP):
    e = np.eye(len(t))[k]
    dx = (f(t + step * e) - f(t - step * e)) / (2.0 * step)
    dy = (f(t + 1j * step * e) - f(t - 1j * step * e)) / (2.0 * step)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def _h_dh(frame):
    """h and its derivatives at a frame (patched by the dh mutants)."""
    return frame.h, frame.dh


def _flat_data_loop(spec, tp):
    """[W.., Phi.., Phidag.., U, kappa U kappa] in flat coordinates at one
    point, from its own frame."""
    g_inv = flat_metric(spec)[1]
    frame = canonical_frame(spec, tp)
    h, dh = _h_dh(frame)
    K = g_inv @ h
    W = np.swapaxes(dh @ np.linalg.inv(h), 1, 2)
    Phi = -np.swapaxes(frame.ev.Cmix, 1, 2)
    kUk = K @ np.conj(frame.ev.U) @ np.conj(K)
    return np.concatenate([W, Phi, K @ np.conj(Phi) @ np.conj(K), frame.ev.U[None], kUk[None]])


def _harmonic_loop(spec, t):
    """The checks of verify_harmonic, written out in the flat frame
    direction by direction, with P differenced over one frame per point."""
    m = spec.dim
    g, g_inv = flat_metric(spec)

    def flat(frame, X):
        return frame.A @ X @ np.linalg.inv(frame.A)

    def P_flat(tp):
        frame = canonical_frame(spec, tp)
        return flat(frame, harmonic_potential(frame, spec.d).P)

    frame = canonical_frame(spec, t)
    hd = harmonic_potential(frame, spec.d)
    P, Pdag, V = flat(frame, hd.P), flat(frame, hd.Pdag), flat(frame, hd.V)
    S = _flat_data_loop(spec, t)
    U = S[3 * m]
    res = dict.fromkeys(("dprime_p_equals_higgs", "chern_from_levi_civita"), 0.0)
    for k in range(m):
        W, Phi = S[k], S[m + k]
        dP = _wirtinger_loop(P_flat, t, k)[0]
        res["dprime_p_equals_higgs"] = max(res["dprime_p_equals_higgs"],
                                           _maxabs(dP + W @ P - P @ W - Phi))
        res["chern_from_levi_civita"] = max(res["chern_from_levi_civita"],
                                            _maxabs(W + Pdag @ Phi - Phi @ Pdag))
    res["p_selfadjoint"] = _maxabs(g_inv @ P.T @ g - P)
    res["v_commutator"] = _maxabs(V + Pdag @ U - U @ Pdag)
    return res


def _flat_derivatives_loop(spec, t):
    """Holomorphic and antiholomorphic derivatives of _flat_data_loop along
    each coordinate."""
    wds = [_wirtinger_loop(lambda tp: _flat_data_loop(spec, tp), t, k) for k in range(spec.dim)]
    return [wd[0] for wd in wds], [wd[1] for wd in wds]


def _cv_axioms_loop(spec, t):
    """The derivative checks of verify_cv_axioms, written out in the flat
    frame direction pair by direction pair."""
    m = spec.dim
    S = _flat_data_loop(spec, t)
    W, Phi, Phidag = S[:m], S[m:2 * m], S[2 * m:3 * m]
    d, dbar = _flat_derivatives_loop(spec, t)

    def comm(X, Y):
        return X @ Y - Y @ X

    res = dict.fromkeys(("kappa_parallel", "higgs_parallel", "ttstar_commutator",
                         "omega_holomorphy"), 0.0)
    for i in range(m):
        for j in range(m):
            kappa = (d[i][2 * m + j] + comm(W[i], Phidag[j]),
                     dbar[i][2 * m + j] - dbar[j][2 * m + i])
            higgs = (d[i][m + j] - d[j][m + i] + comm(W[i], Phi[j]) - comm(W[j], Phi[i]),
                     dbar[j][m + i])
            terms = {"kappa_parallel": kappa, "higgs_parallel": higgs,
                     "ttstar_commutator": (comm(Phi[i], Phidag[j]) - dbar[j][i],),
                     "omega_holomorphy": (dbar[j][i],)}
            for check, mats in terms.items():
                res[check] = max(res[check], *map(_maxabs, mats))
    # The unit is d/dt^1, as the flat metric is g = C_1.
    res["unit_parallel"] = _maxabs(W[0][:, 0])
    return res


def _pencil_loop(spec, t):
    """pencil_curvature with its flat data built point by point."""
    m, n = spec.dim, 2 * spec.dim

    def fields(S, z):
        W, Phi, Phidag, U, kUk = S[:m], S[m:n], S[n:3 * m], S[3 * m], S[3 * m + 1]
        return np.concatenate([W + Phi / z, z * Phidag, (U / z**2 - kUk)[None]])

    S0 = _flat_data_loop(spec, t)
    holo, anti = _flat_derivatives_loop(spec, t)
    dS = holo + anti
    worst = 0.0
    for z in Z_SAMPLES:
        c = fields(S0, z)
        d = np.stack([fields(dk, z) for dk in dS])
        cc = np.einsum("aij,bjk->abik", c, c)
        comm = cc - np.swapaxes(cc, 0, 1)
        F = d[:, :n] - np.swapaxes(d[:, :n], 0, 1) + comm[:n, :n]
        Fz = d[:, n] - np.concatenate([-S0[m:n] / z**2, S0[n:3 * m]]) + comm[:n, n]
        worst = max(worst, _maxabs(F), _maxabs(Fz))
    return {"pencil_curvature": worst}


@pytest.mark.parametrize("name", NAMES)
def test_stacked_verifiers_match_per_point_loops(name):
    spec = catalog(name)
    pts, _ = sample_points(spec, 4, seed=7)
    for t in pts:
        frame = canonical_frame(spec, t)
        cdv = construct_canonical_cdv(frame, spec.d)
        hd = harmonic_potential(frame, spec.d)
        for report, oracle in (
            (verify_cv_axioms(spec, cdv, TOL), _cv_axioms_loop(spec, t)),
            (verify_harmonic(spec, frame, hd, cdv, TOL), _harmonic_loop(spec, t)),
            (pencil_curvature(spec, t, Z_SAMPLES, TOL), _pencil_loop(spec, t)),
        ):
            for check, residual in oracle.items():
                assert abs(report[check].residual - residual) <= 1e-3 * TOL, check


def _stack_reports(spec, frame):
    """Every pointwise check the CLI makes, at frame (a point's or a stack's)."""
    cdv = construct_canonical_cdv(frame, spec.d)
    reports = [verify_cv_axioms(spec, cdv, TOL),
               verify_harmonic(spec, frame, harmonic_potential(frame, spec.d), cdv, TOL),
               connection_gap(spec, frame, TOL), pencil_curvature(spec, frame, Z_SAMPLES, TOL)]
    if spec.normal_form:
        relations = {2: check_m2_relations, 3: check_m3_relations}[spec.dim]
        reports += [relations(from_canonical(spec, frame), TOL),
                    check_euler_degree(spec, frame, TOL)]
    return {e.name: (e.residual, e.points_checked) for rep in reports for e in rep.entries}


@pytest.mark.parametrize("name", NAMES)
def test_stack_checks_equal_their_worst_point(name):
    # Each check of a stack reads the worst of its points' residuals, bit
    # for bit, each relative residual taken at its own point: a ratio of
    # maxima over the stack would be another number.  Scaling one point
    # out to radius ~2 spreads the points' scales.
    spec = catalog(name)
    pts = np.array(sample_points(spec, 4, seed=3)[0])
    pts[1] *= 2.0 / np.max(np.abs(pts[1]))
    singles = [_stack_reports(spec, canonical_frame(spec, t)) for t in pts]
    per_sample = {"pencil_curvature": len(Z_SAMPLES)}
    assert _stack_reports(spec, canonical_frame(spec, pts)) == {
        check: (max(single[check][0] for single in singles), per_sample.get(check, 1) * len(pts))
        for check in singles[0]}


@pytest.mark.parametrize("name", NAMES)
def test_permuting_the_points_leaves_every_entry_unchanged(name):
    # Each check hands its report one residual per point, which keeps their
    # max and count: neither depends on the order of the points.
    spec = catalog(name)
    pts = np.array(sample_points(spec, 4, seed=3)[0])
    pts[1] *= 2.0 / np.max(np.abs(pts[1]))

    def entries(points):
        frame = canonical_frame(spec, points)
        return [(command, e.name, e.residual, e.points_checked)
                for command, checks in POINTWISE_CHECKS.items()
                for rep in checks(spec, frame, TOL) for e in rep.entries]

    expected = entries(pts)
    for order in ([3, 2, 1, 0], [1, 3, 0, 2]):
        assert entries(pts[order]) == expected, order


# On true data every derivative check reads round-off, which any choice of
# curvature coefficients would match; these mutants of dh make them O(1).
DH_MUTANTS = {
    "dbar_h": lambda dh: np.conj(np.swapaxes(dh, -1, -2)),
    "direction_and_row_swapped": lambda dh: np.swapaxes(dh, -3, -2),
}


@pytest.mark.parametrize("mutant", sorted(DH_MUTANTS))
def test_flat_checks_match_loop_on_mutated_dh(monkeypatch, mutant):
    # derivative_data gives what the loops read: the mutated flat data at
    # the point and its differences over the frames of nearby points.
    original = _h_dh

    def mutated(frame):
        h, dh = original(frame)
        return h, DH_MUTANTS[mutant](dh)

    def loop_data(spec, frame):
        holo, anti = _flat_derivatives_loop(spec, frame.point)
        return DerivativeData(S=_flat_data_loop(spec, frame.point),
                              dS=np.concatenate([np.stack(holo), np.stack(anti)]), dP=None)

    monkeypatch.setitem(globals(), "_h_dh", mutated)
    monkeypatch.setattr(cdv_module, "derivative_data", loop_data)
    spec = catalog("a3_3d")
    cdv = construct_canonical_cdv(canonical_frame(spec, A3_POINT), spec.d)
    report = verify_cv_axioms(spec, cdv, TOL)
    oracle = _cv_axioms_loop(spec, np.asarray(A3_POINT, dtype=complex))
    assert max(oracle.values()) > 0.1
    for check, residual in oracle.items():
        assert report[check].residual == pytest.approx(residual, rel=1e-6, abs=1e-3 * TOL), check

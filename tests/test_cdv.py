"""Tests for the canonical structure, axiom verifier, harmonic data,
connection comparisons, and the flat family of connections."""

import dataclasses

import numpy as np
import pytest

from frobcdv import (
    A3_POINT,
    CanonicalFrame,
    HarmonicData,
    canonical_frame,
    catalog,
    connection_gap,
    construct_canonical_cdv,
    flat_frame_h,
    harmonic_potential,
    pencil_curvature,
    verify_cv_axioms,
    verify_harmonic,
    write_spec,
)
from frobcdv.cli import main

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
        gap=1.0,
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


def test_harmonic_detects_corrupted_potential():
    spec = catalog("quartic2")
    frame = canonical_frame(spec, QPT)
    cdv = construct_canonical_cdv(frame, spec.d)

    def corrupted(tp):
        from frobcdv.canonical import matched_frame

        fr = frame if np.allclose(tp, frame.point) else matched_frame(spec, tp, frame)
        hd = harmonic_potential(fr, spec.d)
        P = hd.P.copy()
        np.fill_diagonal(P, 0.0)  # drop the -u^alpha diagonal
        return HarmonicData(P=P, Pdag=hd.Pdag, V=hd.V)

    rep = verify_harmonic(spec, frame, corrupted, cdv, 1e-5)
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


@pytest.mark.parametrize("name,t,eigs", [("quartic2", QPT, 81), ("a3_3d", A3_POINT, 169)])
def test_pencil_builds_base_data_once_per_stencil_point(eig_calls, name, t, eigs):
    # (4m+1)^2: base data at the centre and at 4m stencil points, each
    # needing h at its own centre and 4m stencil points.
    pencil_curvature(catalog(name), t, [1.0, 1.0j, 2.0], 1e-5)
    assert len(eig_calls) == eigs


@pytest.mark.parametrize("name,t,eigs", [("quartic2", QPT, 8), ("a3_3d", A3_POINT, 12)])
def test_verifiers_take_one_frame_per_stencil_point(eig_calls, name, t, eigs):
    # 4m stencil points, one eigendecomposition each: a matched frame's
    # eta_d is exact, so it takes no stencil of its own.
    spec = catalog(name)
    frame = canonical_frame(spec, t)
    cdv = construct_canonical_cdv(frame, spec.d)
    eig_calls.clear()
    verify_cv_axioms(spec, cdv, 1e-5)
    assert len(eig_calls) == eigs
    eig_calls.clear()
    verify_harmonic(spec, frame, harmonic_potential(frame, spec.d), cdv, 1e-5)
    assert len(eig_calls) == eigs


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

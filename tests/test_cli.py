"""Tests for spec serialization, sampling, report output, and exit codes."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from frobcdv import (
    CATALOG_NAMES,
    DefectiveU,
    NotSemisimple,
    ParseError,
    PotentialSpec,
    ValidationError,
    canonical_frame,
    catalog,
    check_euler_degree,
    check_euler_eta,
    check_homogeneity,
    check_m2_relations,
    check_m3_relations,
    check_wdvv,
    connection_gap,
    construct_canonical_cdv,
    flat_metric,
    from_canonical,
    harmonic_potential,
    load_spec,
    pencil_curvature,
    solve_tt2d,
    spec_from_dict,
    spec_to_dict,
    verify_cv_axioms,
    verify_harmonic,
    write_spec,
)
from frobcdv import cli
from frobcdv.cli import (RESAMPLE_LIMIT, SAMPLING_EPS_SS, _draw_point, _parse_point, main,
                          sample_points)


def _dump(name, tmp_path):
    path = tmp_path / f"{name}.json"
    write_spec(catalog(name), path)
    return str(path)


def test_spec_round_trip_exact(tmp_path):
    for name in CATALOG_NAMES:
        spec = catalog(name)
        path = tmp_path / f"{name}.json"
        write_spec(spec, path)
        assert load_spec(path) == spec


def test_spec_dict_round_trip():
    spec = catalog("a3_3d")
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_unknown_key_rejected():
    doc = spec_to_dict(catalog("quartic2"))
    doc["surprise"] = 1
    with pytest.raises(ParseError):
        spec_from_dict(doc)


def test_missing_key_rejected():
    doc = spec_to_dict(catalog("quartic2"))
    del doc["euler"]
    with pytest.raises(ParseError):
        spec_from_dict(doc)


def test_load_spec_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_spec(path)


def test_parse_point():
    pt = _parse_point("0.5,-0.25;0,1", 2)
    assert np.allclose(pt, [0.5 - 0.25j, 1j])
    with pytest.raises(ParseError):
        _parse_point("1,0", 2)
    with pytest.raises(ParseError):
        _parse_point("1;2", 2)
    # An empty coordinate, inside or at either end, used to be dropped.
    for bad in ("a,b;0,0", "nan,0;0,0", "1e400,0;0,0", "0,-inf;0,1", "1,2,3;0,0",
                "0.1,0;;0.7,0", ";0.1,0;0.7,0", "0.1,0;0.7,0;"):
        with pytest.raises(ParseError):
            _parse_point(bad, 2)


BAD_POINTS = {
    "quartic2": ("", "a,b;0,0", "nan,0;0,0", "1e400,0;0,0", "1e200,0;0,1", "0,1e200;0.5,0",
                 "-inf,0;0,0", "--x", "0.1,0;;0.7,0", ";0.1,0;0.7,0", "0.1,0;0.7,0;"),
    # Not semi-simple, and overflowing: numpy's repr of a point of three
    # coordinates wrapped these messages onto two lines.
    "a3_3d": ("0.0,0.0;0.0,0.0;0.65625,2.6724083502506573e-164",
              "0.123456789,1e-300;0.5,0.25;1e200,3"),
}


@pytest.mark.parametrize("command", ["verify", "cdv", "connections", "pencil", "lowdim"])
def test_bad_point_is_one_line_error(tmp_path, capsys, command):
    # A non-numeric or non-finite coordinate used to end in a traceback;
    # pencil printed numpy's overflow warning at 1e200, argparse took a
    # point starting with "-" but not with a digit for an option, an
    # empty point was ignored, so that the command sampled its points, and
    # an empty coordinate was dropped.
    for name, points in BAD_POINTS.items():
        spec = _dump(name, tmp_path)
        for point in points:
            assert main([command, "--spec", spec, "--point", point]) == 2, point
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.count("\n") == 1 and out.err.startswith("error: "), point


def _points(command, n):
    """--points n, which cdv does not take: it samples the one point it
    reports."""
    return [] if command == "cdv" else ["--points", str(n)]


def test_cdv_rejects_points(tmp_path, capsys):
    spec = _dump("quartic2", tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["cdv", "--spec", spec, "--points", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cdv_samples_only_the_point_it_reports(tmp_path, eig_calls):
    # It used to sample --points (3 by default) and check only the first.
    pts, skipped = sample_points(catalog("a3_3d"), 1, seed=0)
    spec = _dump("a3_3d", tmp_path)
    report = tmp_path / "r.json"
    eig_calls.clear()
    assert main(["cdv", "--spec", spec, "--seed", "0", "--report", str(report)]) == 0
    assert eig_calls == [1]  # the sampled frame serves verify_cv_axioms too
    doc = json.loads(report.read_text())
    assert doc["points"] == [[[z.real, z.imag] for z in pts[0]]]
    assert doc["skipped"] == skipped == 0


def test_sample_points_deterministic_and_in_polydisk():
    spec = catalog("quartic2")
    pts1, sk1 = sample_points(spec, 5, seed=3)
    pts2, sk2 = sample_points(spec, 5, seed=3)
    assert sk1 == sk2 == 0
    for a, b in zip(pts1, pts2):
        assert np.array_equal(a, b)
        assert np.max(np.abs(a)) <= 1.0


def test_sample_points_skips_non_semisimple():
    pts, skipped = sample_points(catalog("trivial2"), 3, seed=0)
    assert pts == []
    assert skipped == 3


def test_verify_exit_codes(tmp_path):
    good = _dump("quartic2", tmp_path)
    assert main(["verify", "--spec", good, "--points", "2"]) == 0
    bad = _dump("broken_wdvv", tmp_path)
    assert main(["verify", "--spec", bad, "--points", "2"]) == 1
    assert main(["verify", "--spec", str(tmp_path / "missing.json")]) == 2


AXIOM_CHECKS = (
    "kappa_involution", "hermitian_pairing", "higgs_reality", "kappa_parallel",
    "higgs_parallel", "ttstar_commutator", "q_reality", "unit_parallel", "omega_holomorphy",
    "dprime_p_equals_higgs", "chern_from_levi_civita", "p_selfadjoint", "v_commutator",
    "euler_eta_scaling",
)


@pytest.mark.parametrize("name,wdvv", [
    ("quartic2", ("wdvv_associativity",)),
    ("p1", ("wdvv_associativity",)),
    ("a3_3d", ("wdvv_associativity", "wdvv_reduced_m3")),
])
def test_verify_report_check_names(tmp_path, name, wdvv):
    # The benchmark's verdict gate and the determinism criterion read
    # these names, in this order.
    report = tmp_path / "verify.json"
    assert main(["verify", "--spec", _dump(name, tmp_path), "--points", "1",
                 "--report", str(report)]) == 0
    names = tuple(c["name"] for c in json.loads(report.read_text())["checks"])
    assert names == wdvv + ("euler_homogeneity",) + AXIOM_CHECKS


# Matrices per eigen-solve call of one CLI call with --points 1 at seed 0,
# whose first draw is accepted on each spec: the sampled frame serves every
# check, and every derivative is exact, taken from that frame.
EIGS_PER_COMMAND = [
    ("verify", "quartic2", [1]),
    ("verify", "a3_3d", [1]),
    ("connections", "quartic2", [1]),
    ("connections", "a3_3d", [1]),
    ("lowdim", "quartic2", [1]),
    ("lowdim", "a3_3d", [1]),
    ("pencil", "quartic2", [1]),
    ("pencil", "a3_3d", [1]),
]


@pytest.mark.parametrize("command,name,eigs", EIGS_PER_COMMAND,
                         ids=[f"{c}-{n}" for c, n, _ in EIGS_PER_COMMAND])
def test_one_frame_per_point_per_command(tmp_path, eig_calls, command, name, eigs):
    spec = _dump(name, tmp_path)
    eig_calls.clear()
    main([command, "--spec", spec, "--points", "1", "--seed", "0"])
    assert eig_calls == eigs


@pytest.mark.parametrize("command", ["verify", "pencil"])
def test_verifiers_evaluate_f_only_in_the_frame_stack(tmp_path, derivative_calls, command):
    # Every derivative the verifiers read is first order in the frame, so
    # after flat_metric's spot check the partials of F are evaluated once
    # each, third and fourth, at the stack of all the points.
    flat_metric.cache_clear()
    spec = _dump("a3_3d", tmp_path)
    derivative_calls.clear()
    assert main([command, "--spec", spec, "--points", "3", "--seed", "0"]) == 0
    assert dict(derivative_calls) == {3: [2, 3], 4: [2, 3]}


@pytest.mark.parametrize("points", [1, 3])
@pytest.mark.parametrize("name", ["quartic2", "a3_3d"])
def test_lowdim_forms_h_once_per_point_in_its_frame(tmp_path, monkeypatch, name, points):
    # from_canonical and check_euler_degree read h and its derivatives from
    # the sampled frame stack, which forms them in one flat_frame_dh call.
    import frobcdv.canonical as canonical_module

    calls = []
    flat_frame_dh = canonical_module.flat_frame_dh

    def counting(A_inv, eta, dC):
        calls.append(int(np.prod(A_inv.shape[:-2])))  # points in the call
        return flat_frame_dh(A_inv, eta, dC)

    monkeypatch.setattr(canonical_module, "flat_frame_dh", counting)
    spec = _dump(name, tmp_path)
    assert main(["lowdim", "--spec", spec, "--points", str(points), "--seed", "0"]) == 0
    assert calls == [points]


@pytest.mark.parametrize("command", ["cdv", "connections", "lowdim", "pencil", "verify"])
def test_frame_forms_flat_data_once_per_point(tmp_path, invert_calls, derivative_calls,
                                              command):
    # The sampled frame inverts A and h and evaluates the third and fourth
    # partials once; every check reads them from it.  The other evaluation
    # of each is flat_metric's spot-check, once per spec, so the test
    # clears its cache.
    flat_metric.cache_clear()
    spec = _dump("p1", tmp_path)
    args = [command, "--spec", spec, "--seed", "0"]
    main(args if command == "cdv" else args + ["--points", "1"])
    assert invert_calls == ["idempotent frame A", "flat pairing h"]
    assert len(derivative_calls[3]) == 2
    assert len(derivative_calls[4]) == 2
    assert derivative_calls[5] == []


# Calls of cdv.harmonic_potential per CLI call, at any number of points:
# verify builds it for verify_harmonic and hands its P to derivative_data,
# cdv for its report; pencil reads no derivative of P.
HARMONIC_POTENTIALS = {"verify": 1, "cdv": 1, "pencil": 0, "connections": 0, "lowdim": 0}


@pytest.mark.parametrize("points", [1, 3])
@pytest.mark.parametrize("command", sorted(HARMONIC_POTENTIALS))
def test_harmonic_potential_is_built_once_per_command(tmp_path, monkeypatch, command, points):
    import frobcdv.cdv as cdv_module

    calls = []
    harmonic = cdv_module.harmonic_potential

    def counting(frame, d):
        calls.append(frame.n_points)
        return harmonic(frame, d)

    monkeypatch.setattr(cdv_module, "harmonic_potential", counting)
    args = [command, "--spec", _dump("p1", tmp_path), "--seed", "0"]
    assert main(args + _points(command, points)) == (1 if command == "connections" else 0)
    expected = 1 if command == "cdv" else points
    assert calls == [expected] * HARMONIC_POTENTIALS[command]


@pytest.mark.parametrize("name,seed", [("p1", 0), ("a3_3d", 9), ("a3_3d", 6)])
@pytest.mark.parametrize("command", ["verify", "connections", "pencil", "lowdim"])
def test_counts_do_not_grow_with_points(tmp_path, eig_calls, derivative_calls, command, name,
                                        seed):
    # Each command builds one frame stack and checks it once, so its
    # eigen-solve calls and its evaluations of the partials of F are those
    # of --points 1, plus one eigen-solve and one third-partials evaluation
    # per redraw round of the sampler (a3_3d seed 6 redraws).
    spec = _dump(name, tmp_path)
    counts = {}
    for points in (1, 16):
        flat_metric.cache_clear()
        eig_calls.clear()
        derivative_calls.clear()
        main([command, "--spec", spec, "--seed", str(seed), "--points", str(points)])
        rounds = len(eig_calls)
        assert eig_calls[-1] == points
        assert len(derivative_calls[3]) == rounds + 1  # + flat_metric's spot check
        counts[points] = [len(derivative_calls[order]) for order in (4, 5)]
    assert counts[16] == counts[1] == [2, 0]


def _sample_one_at_a_time(spec, n, seed):
    """Reference: each draw tested alone, as sample_points once did."""
    rng = np.random.default_rng(seed)
    points, skipped = [], 0
    for _ in range(n):
        for _attempt in range(RESAMPLE_LIMIT):
            t = _draw_point(rng, spec.dim)
            try:
                canonical_frame(spec, t, eps_ss=SAMPLING_EPS_SS)
            except (NotSemisimple, DefectiveU):
                continue
            points.append(t)
            break
        else:
            skipped += 1
    return points, skipped


@pytest.mark.parametrize("name", ["a3_3d", "trivial2", "quartic2"])
def test_sample_points_keeps_the_draws_of_one_at_a_time(name):
    # sample_points tests its draws as one stack, sets aside the first one
    # each error names and walks the draws again; a3_3d redraws at seeds 1,
    # 5, 6 and 7, and trivial2 skips every point.
    spec = catalog(name)
    for seed in range(10):
        for n in (1, 3, 8):
            frames = []
            points, skipped = sample_points(spec, n, seed, frames)
            expected, expected_skipped = _sample_one_at_a_time(spec, n, seed)
            assert skipped == expected_skipped
            assert np.array_equal(np.reshape(points, (-1, spec.dim)),
                                  np.reshape(expected, (-1, spec.dim)))
            if points:
                assert np.array_equal(frames[0].point, np.array(points))
            else:
                assert frames == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_points_sets_aside_every_draw_an_error_names(eig_calls, seed):
    # An error of the stack names every draw too close, and all of them are
    # set aside in one round; set aside one at a time, a3_3d's 64 points
    # took 7, 11 and 9 eigen-solve calls at these seeds.
    sample_points(catalog("a3_3d"), 64, seed)
    assert len(eig_calls) <= 3


@pytest.mark.parametrize("points", ["1", "3"])
def test_verify_evaluates_f_only_in_its_frames(tmp_path, derivative_calls, points):
    # verify's WDVV and homogeneity checks read the sampled frames, so it
    # evaluates the third and fourth partials exactly where connections
    # does; they used to evaluate both again at every point.
    spec = _dump("a3_3d", tmp_path)
    calls = {}
    for command in ("connections", "verify"):
        flat_metric.cache_clear()
        derivative_calls.clear()
        main([command, "--spec", spec, "--points", points, "--seed", "0"])
        calls[command] = (derivative_calls[3], derivative_calls[4])
    assert calls["verify"] == calls["connections"]


def _standalone_residuals(command, spec, pts, tol=1e-5):
    """The worst residual per check of the public calls that command makes,
    each at its own frame, over the points pts."""
    reports = []
    for t in pts:
        if command == "verify":
            frame = canonical_frame(spec, t)
            cdv = construct_canonical_cdv(frame, spec.d)
            reports += [check_wdvv(spec, frame, tol), check_homogeneity(spec, frame, tol),
                        verify_cv_axioms(spec, cdv, tol),
                        verify_harmonic(spec, frame, harmonic_potential(frame, spec.d), cdv, tol),
                        check_euler_eta(spec, frame, tol)]
        elif command == "connections":
            reports.append(connection_gap(spec, t, tol))
        elif command == "pencil":
            reports.append(pencil_curvature(spec, t, [1, 1j, 2], tol))
        else:
            relations = check_m2_relations if spec.dim == 2 else check_m3_relations
            reports += [relations(from_canonical(spec, t), tol), check_euler_degree(spec, t, tol)]
    worst = {}
    for rep in reports:
        for e in rep.entries:
            worst[e.name] = max(worst.get(e.name, e.residual), e.residual)
    return worst


@pytest.mark.parametrize("command", ["verify", "connections", "lowdim", "pencil"])
def test_reports_equal_standalone_calls_exactly(tmp_path, command):
    # The CLI hands each sampled frame on, and verify shares one
    # derivative_data between its verifiers; no residual may move by even
    # one bit.
    for name in ("quartic2", "p1", "a3_3d"):
        path = _dump(name, tmp_path)
        spec = catalog(name)
        for seed in range(10):
            report = tmp_path / "r.json"
            main([command, "--spec", path, "--seed", str(seed), "--report", str(report)])
            doc = json.loads(report.read_text())
            pts, _ = sample_points(spec, 3, seed)
            assert doc["points"] == [[[z.real, z.imag] for z in t] for t in pts]
            residuals = {c["name"]: c["residual"] for c in doc["checks"]}
            assert residuals == _standalone_residuals(command, spec, pts), (name, seed)


POINT_OF = {"quartic2": "0.3,0.1;0.2,-0.4", "a3_3d": "0.3,0.1;0.2,-0.4;0.1,0.2"}


@pytest.mark.parametrize("where", ["sampled", "explicit"])
@pytest.mark.parametrize("name", sorted(POINT_OF))
@pytest.mark.parametrize("command", ["verify", "connections", "pencil", "lowdim"])
def test_points_checked_sums_over_points(tmp_path, command, name, where):
    # Each check runs at each point's frame and aggregate sums its
    # points_checked; pencil_curvature counts its three z samples per point.
    report = tmp_path / "r.json"
    flags = ["--points", "3"] if where == "sampled" else ["--point", POINT_OF[name]]
    assert main([command, "--spec", _dump(name, tmp_path), *flags,
                 "--report", str(report)]) in (0, 1)
    doc = json.loads(report.read_text())
    assert len(doc["points"]) == (3 if where == "sampled" else 1)
    per_point = 3 if command == "pencil" else 1
    assert doc["checks"]
    for check in doc["checks"]:
        assert check["points_checked"] == per_point * len(doc["points"]), check["name"]


def test_singular_frame_error_names_matrix_and_point(tmp_path, capsys):
    # Far out on p1 the idempotent frame is singular to working precision;
    # the message used to name neither the matrix nor the point.
    spec = _dump("p1", tmp_path)
    assert main(["verify", "--spec", spec, "--point", "0.3,0;300,0"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: idempotent frame A is singular to working precision "
                   "at (0.3+0j, 300+0j)\n")


def test_singular_pairing_at_a_draw_is_an_error_not_a_skip(tmp_path, capsys):
    # The A_3 family (1/2) t1^2 t3 + (1/2) t1 t2^2 + (s/4) t2^2 t3^2 +
    # (s^2/60) t3^5 at s = 1e5: seed 0 draws a point off the discriminant
    # where h is singular.  Sampling used to draw again and end in "no
    # semi-simple point found"; only a draw near the discriminant is redrawn.
    s = 1e5
    spec = dataclasses.replace(catalog("a3_3d"), monomials=[
        (0.5, (2, 0, 1)), (0.5, (1, 2, 0)), (s / 4, (0, 2, 2)), (s * s / 60, (0, 0, 5))])
    path = tmp_path / "a3_family.json"
    write_spec(spec, path)
    assert main(["verify", "--spec", str(path), "--points", "1", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: flat pairing h is singular to working precision at (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "cdv", "pencil", "connections", "lowdim"])
def test_singular_pairing_error_names_matrix_and_point(tmp_path, capsys, command):
    # At radius 30 on p1 the frame's A passes its guard and h fails its
    # own; the message used to name neither the matrix nor the point.
    spec = _dump("p1", tmp_path)
    assert main([command, "--spec", spec, "--point", "0.1,0;30,0"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: flat pairing h is singular to working precision "
                   "at (0.1+0j, 30+0j)\n")


def test_explicit_point_flag(tmp_path):
    good = _dump("quartic2", tmp_path)
    assert main(["verify", "--spec", good, "--point", "0,0;1,0"]) == 0
    # A leading minus sign is part of the value, not an option.
    assert main(["verify", "--spec", good, "--point", "-0.3,0.1;0.2,0"]) == 0


def test_cdv_report_matrices(tmp_path):
    good = _dump("quartic2", tmp_path)
    report = tmp_path / "cdv.json"
    assert main(["cdv", "--spec", good, "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    mats = doc["matrices"]
    assert len(mats["K"]) == 2 and len(mats["omega"]) == 2
    assert doc["summary"]["pass"] is True


def test_connections_and_pencil_and_lowdim(tmp_path):
    good = _dump("quartic2", tmp_path)
    # connection gaps are nonzero for this potential: exit code 1
    assert main(["connections", "--spec", good, "--points", "1"]) == 1
    trivial = _dump("cubic2", tmp_path)
    assert main(["connections", "--spec", trivial, "--points", "1", "--tol", "1e-8"]) == 0
    assert main(["pencil", "--spec", good, "--points", "1"]) == 0
    assert main(["lowdim", "--spec", good, "--points", "2", "--tol", "1e-9"]) == 0


def test_one_dimensional_spec_runs_every_pointwise_command(tmp_path, capsys):
    # F = t^3/6 is the flat case, like cubic2: every connection gap is 0.
    path = tmp_path / "m1.json"
    write_spec(PotentialSpec(1, [(1 / 6, [3])], [], [1], [0], 0, 3, normal_form=True), path)
    for command in ("verify", "cdv", "connections", "pencil", "lowdim"):
        report = tmp_path / f"{command}.json"
        assert main([command, "--spec", str(path), "--report", str(report)]) == 0
        assert "Traceback" not in capsys.readouterr().err
    gaps = json.loads((tmp_path / "connections.json").read_text())["checks"]
    assert [c["name"] for c in gaps] == ["nabla_vs_chern", "chern_torsion", "kaehler_closedness",
                                         "real_lc_vs_chern", "real_lc_vs_nabla"]
    assert all(c["residual"] == 0.0 for c in gaps)


def test_tt2d_command(tmp_path):
    spec = _dump("cubic2", tmp_path)
    csv = tmp_path / "grid.csv"
    report = tmp_path / "tt2d.json"
    code = main([
        "tt2d", "--spec", spec, "--grid", "17", "--csv", str(csv),
        "--report", str(report), "--seed", "4", "--rect", "-1,-0.5,1,0.5",
    ])
    assert code == 0
    assert csv.read_text().startswith("x,y,h11,residual")
    doc = json.loads(report.read_text())
    assert doc["tt2d"]["converged"] is True
    assert doc["tt2d"]["rect"] == [-1.0, -0.5, 1.0, 0.5]
    assert doc["summary"]["seed"] == 4
    assert set(doc["summary"]) == {"pass", "seed"}


@pytest.mark.parametrize("csv", [False, True], ids=["report", "csv"])
def test_tt2d_evaluates_the_source_once_per_command(tmp_path, monkeypatch, csv):
    # The solution records the source |f'''|^2 it was solved with, and the
    # independent residual (and through it the CSV's residual column) reads
    # it from there: one evaluation per command (were 2, and 3 with --csv).
    from frobcdv import lowdim

    calls = []
    fppp_sq = lowdim._fppp_sq

    def counting(spec, X, Y):
        calls.append(np.shape(X))
        return fppp_sq(spec, X, Y)

    monkeypatch.setattr(lowdim, "_fppp_sq", counting)
    argv = ["tt2d", "--spec", _dump("p1", tmp_path), "--grid", "17"]
    if csv:
        argv += ["--csv", str(tmp_path / "grid.csv")]
    assert main(argv) == 0
    assert calls == [(17, 17)]


@pytest.mark.parametrize("csv", [False, True], ids=["report", "csv"])
def test_tt2d_evaluates_the_residual_grid_once_per_command(tmp_path, monkeypatch, csv):
    # The check and the CSV's residual column read one grid (were 2 with --csv).
    from frobcdv import lowdim

    calls = []
    residual_grid = lowdim.residual_grid

    def counting(spec, solution):
        calls.append(solution.n)
        return residual_grid(spec, solution)

    monkeypatch.setattr(lowdim, "residual_grid", counting)
    argv = ["tt2d", "--spec", _dump("p1", tmp_path), "--grid", "17"]
    if csv:
        argv += ["--csv", str(tmp_path / "grid.csv")]
    assert main(argv) == 0
    assert calls == [17]


def test_tt2d_csv_residual_is_the_checked_residual(tmp_path):
    # The CSV's residual column used to come from the solver's own stencil;
    # it is the independent residual, whose maximum the report checks.
    csv = tmp_path / "grid.csv"
    report = tmp_path / "tt2d.json"
    assert main(["tt2d", "--spec", _dump("p1", tmp_path), "--grid", "17", "--csv", str(csv),
                 "--report", str(report)]) == 0
    checked = {c["name"]: c["residual"] for c in json.loads(report.read_text())["checks"]}
    column = [float(row.split(",")[3]) for row in csv.read_text().splitlines()[1:]]
    assert max(column) == checked["tt2d_independent_residual"] > 0.0


def test_tt2d_failed_solve_fails_independent_check(tmp_path):
    # Boundary data 1e100 is finite, but Newton cannot bring the residual
    # (~1e178) down.  The independent check used to take 10x the solver's
    # own residual as its tolerance, and so passed.
    spec = _dump("p1", tmp_path)
    report = tmp_path / "r.json"
    argv = ["tt2d", "--spec", spec, "--grid", "9", "--boundary", "1e100",
            "--report", str(report)]
    assert main(argv) == 1
    doc = json.loads(report.read_text())
    assert doc["tt2d"]["converged"] is False
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == [
        "tt2d_solver_residual", "tt2d_independent_residual"]


def test_tt2d_unconverged_solve_fails_independent_check(tmp_path):
    # A solve cut short by --max-iter gets no 10x slack on the independent
    # residual.  Here both residuals lie within 10x of --tol, so with the
    # slack that only a converged solve gets it would pass.
    stopped = solve_tt2d(catalog("p1"), (-1, -1, 1, 1), 17, 1.0, max_iter=2,
                         raise_on_failure=False)
    tol = 0.5 * stopped.residual
    report = tmp_path / "r.json"
    argv = ["tt2d", "--spec", _dump("p1", tmp_path), "--grid", "17", "--max-iter", "2",
            "--tol", repr(tol), "--report", str(report)]
    assert main(argv) == 1
    doc = json.loads(report.read_text())
    assert doc["tt2d"]["converged"] is False
    solver, independent = doc["checks"]
    assert not solver["pass"] and not independent["pass"]
    assert independent["tolerance"] == solver["tolerance"] == tol
    assert tol < solver["residual"] < 10.0 * tol and independent["residual"] < 10.0 * tol


@pytest.mark.parametrize("grid,rect", [("17", "0,0,20,1"), ("33", "0,0,20,1"),
                                       ("17", "0,0,30,1"), ("33", "0,0,30,1")])
def test_tt2d_large_source_converges_at_roundoff_floor(tmp_path, grid, rect):
    # Where e^{2v} |f'''|^2 and e^{-2v} reach ~1e8-1e12 (|v| up to ~15),
    # Newton stops at the residual's round-off floor, far above tol =
    # 1e-10.  The floor used to leave out the rounding of v itself, which
    # e^{+-2v} amplify by 2|v|, and the stall lay above it: both checks
    # FAILed.
    report = tmp_path / "r.json"
    argv = ["tt2d", "--spec", _dump("p1", tmp_path), "--grid", grid, "--rect", rect,
            "--report", str(report)]
    assert main(argv) == 0
    doc = json.loads(report.read_text())
    assert doc["tt2d"]["converged"] is True
    assert all(c["pass"] for c in doc["checks"])


@pytest.mark.parametrize("flags", [
    ["--points", "7"],
    ["--point", "9,9;9,9"],
    ["--fd-step", "3"],
], ids=" ".join)
def test_tt2d_rejects_sampling_options(tmp_path, capsys, flags):
    # tt2d samples no points, so the options of the point-checking
    # subcommands would be accepted and ignored.
    spec = _dump("cubic2", tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["tt2d", "--spec", spec, "--grid", "9"] + flags)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "cdv", "connections", "pencil", "lowdim"])
def test_exact_subcommands_reject_fd_step(tmp_path, capsys, command):
    # Every derivative is exact: a step would be accepted and ignored.
    spec = _dump("quartic2", tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--spec", spec, *_points(command, 1), "--fd-step", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _negative_power(doc):
    doc["monomials"].append({"coeff": [1.0, 0.0], "powers": [0, -1]})


def _fractional_dim(doc):
    doc["dim"] = 2.7


def _float_dim(doc):
    doc["dim"] = 2.0


def _nan_coefficient(doc):
    doc["monomials"][1]["coeff"] = [float("nan"), 0.0]


def _huge_coefficient(doc):
    # Finite, but det C_1ij = -1e310 overflows.
    doc["monomials"][0]["coeff"] = [1e155, 0.0]


@pytest.mark.parametrize(
    "corrupt", [_negative_power, _fractional_dim, _float_dim, _nan_coefficient, _huge_coefficient],
    ids=["negative_power", "fractional_dim", "float_dim", "nan_coefficient", "huge_coefficient"],
)
def test_invalid_spec_is_one_line_error(tmp_path, capsys, corrupt):
    doc = spec_to_dict(catalog("quartic2"))
    corrupt(doc)
    _assert_one_line_spec_error(doc, tmp_path, capsys)


def _assert_one_line_spec_error(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--spec", str(path), "--points", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ")
    return out.err


# (path to the corrupted entry in the p1 spec, bad value, text the message names)
MALFORMED_ENTRIES = [
    (("monomials", 0, "coeff"), ["a", 0], "'a'"),
    (("monomials", 0, "coeff"), [None, 0], "None"),
    (("monomials", 0, "coeff"), [True, 0], "True"),
    (("monomials", 0, "coeff"), [10**400, 0], "out of range"),
    (("euler", "d"), "x", "'x'"),
    (("euler", "degrees"), 5, "5"),
    (("euler", "shifts"), "0,2", "'0,2'"),
    (("exponentials", 0, "linear_form"), 7, "7"),
    (("exponentials", 0, "linear_form", 1), [0, "1"], "'1'"),
    (("monomials",), "nope", "'nope'"),
    (("exponentials",), {"coeff": [1, 0]}, "list of terms"),
    (("monomials", 0), "term", "'term'"),
    (("euler",), [1.0, 0.0], "object"),
    (("normal_form",), "yes", "'yes'"),
]


@pytest.mark.parametrize("path, value, named", MALFORMED_ENTRIES,
                         ids=[f"{'.'.join(map(str, p))}={v!r}"[:40] for p, v, _ in MALFORMED_ENTRIES])
def test_malformed_spec_entry_is_one_line_parse_error(tmp_path, capsys, path, value, named):
    doc = spec_to_dict(catalog("p1"))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ParseError):
        spec_from_dict(doc)
    assert named in _assert_one_line_spec_error(doc, tmp_path, capsys)


def test_normal_form_spec_needs_antidiagonal_metric(tmp_path, capsys):
    # F = t1^2 t2 + 2 t2^4 with quartic2's Euler data has the metric 2J.
    doc = spec_to_dict(catalog("quartic2"))
    doc["monomials"] = [{"coeff": [1.0, 0.0], "powers": [2, 1]},
                        {"coeff": [2.0, 0.0], "powers": [0, 4]}]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_spec(path)
    for command in ("verify", "lowdim"):
        assert main([command, "--spec", str(path), "--points", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert "antidiag(1, ..., 1), got [[0., 2.], [2., 0.]]" in out.err
    for name in CATALOG_NAMES:
        if catalog(name).normal_form:
            spec = load_spec(_dump(name, tmp_path))
            assert np.array_equal(flat_metric(spec)[0], np.eye(spec.dim)[::-1])


def _homogeneous_on_the_diagonal_only():
    """F = 1/2 t1^2 t3 + 1/2 t1 t2^2 + (t2 - t3)^4 with degrees 1, 1, 1,
    d = 0 and d_F = 3: the defect of homogeneity is proportional to
    t2 - t3, so it reads 0 on the diagonal t1 = t2 = t3."""
    quartic = [(1.0, (0, 4, 0)), (-4.0, (0, 3, 1)), (6.0, (0, 2, 2)), (-4.0, (0, 1, 3)),
               (1.0, (0, 0, 4))]
    return PotentialSpec(3, [(0.5, (2, 0, 1)), (0.5, (1, 2, 0))] + quartic, [],
                         (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 0.0, 3.0, normal_form=True)


@pytest.mark.parametrize("command", ["verify", "cdv", "connections", "pencil", "lowdim"])
def test_spec_homogeneous_on_the_diagonal_only_is_refused_at_load(tmp_path, capsys, command):
    # A spot check on the diagonal let it load, and verify then failed
    # three checks with exit 1.
    path = tmp_path / "diagonal.json"
    write_spec(_homogeneous_on_the_diagonal_only(), path)
    assert main([command, "--spec", str(path), *_points(command, 1)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: declared Euler data fails the homogeneity spot-check\n"


def _nine_dimensional_cubic():
    """A valid spec one dimension above numerics.MAX_DIM: F = 1/2 t1^2 t9
    + t1 (t2 t8 + t3 t7 + t4 t6) + 1/2 t1 t5^2 + t9^3 / 6, all degrees 1."""
    def mono(coeff, *indices):
        powers = [0] * 9
        for i in indices:
            powers[i - 1] += 1
        return {"coeff": [coeff, 0.0], "powers": powers}

    return {
        "dim": 9,
        "monomials": [mono(0.5, 1, 1, 9), mono(1.0, 1, 2, 8), mono(1.0, 1, 3, 7),
                      mono(1.0, 1, 4, 6), mono(0.5, 1, 5, 5), mono(1.0 / 6.0, 9, 9, 9)],
        "exponentials": [],
        "euler": {"degrees": [1.0] * 9, "shifts": [0.0] * 9, "d": 0.0, "d_F": 3.0},
        "normal_form": True,
    }


def test_spec_above_max_dim_is_rejected():
    with pytest.raises(ValidationError, match="from 1 to 8, got 9"):
        spec_from_dict(_nine_dimensional_cubic())


@pytest.mark.parametrize("command", ["verify", "connections", "pencil", "cdv"])
def test_spec_above_max_dim_is_one_line_error(tmp_path, capsys, command):
    # Rejected when the spec loads, not by the eigen-solver's own limit mid-run.
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(_nine_dimensional_cubic()))
    assert main([command, "--spec", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ")
    assert "from 1 to 8, got 9" in out.err


@pytest.mark.parametrize("command", list(cli.OPTIONS))
def test_a_valid_call_builds_one_parser(tmp_path, monkeypatch, command):
    # At most one: a call of plain "--flag value" pairs builds none, and
    # the same call with "--flag=value" cli.build_parser's, once.
    built = []
    init = argparse.ArgumentParser.__init__

    def record(parser, *args, **kwargs):
        init(parser, *args, **kwargs)
        built.append(parser.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", record)
    if command == "tt2d":
        options = ["--spec", _dump("p1", tmp_path), "--grid", "9"]
    elif command == "catalog":
        options = ["--name", "p1", "--out-dir", str(tmp_path)]
    else:
        options = ["--spec", _dump("cubic2", tmp_path), *_points(command, 1)]
    assert main([command, *options]) == 0
    assert built == []
    assert main([command, f"{options[0]}={options[1]}", *options[2:]]) == 0
    assert built == ["frobcdv", *(f"frobcdv {name}" for name in cli.OPTIONS)]


def test_catalog_command(tmp_path):
    assert main(["catalog", "--out-dir", str(tmp_path)]) == 0
    for name in CATALOG_NAMES:
        assert (tmp_path / f"{name}.json").exists()
    assert load_spec(tmp_path / "a3_3d.json") == catalog("a3_3d")


def test_catalog_command_writes_one_named_entry(tmp_path, capsys):
    assert main(["catalog", "--name", "p1", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path}/p1.json\n"
    assert [p.name for p in tmp_path.iterdir()] == ["p1.json"]
    assert load_spec(tmp_path / "p1.json") == catalog("p1")


@pytest.mark.parametrize("out_dir, path", [("", "p1.json"), (".", "./p1.json"),
                                            ("specs/", "specs/p1.json")])
def test_catalog_joins_out_dir_and_name(tmp_path, monkeypatch, capsys, out_dir, path):
    # "--out-dir ''" is the current directory, as "." is; pasting the two
    # with "/" made it "/p1.json", at the root.  Nothing is written.
    monkeypatch.chdir(tmp_path)
    paths = []
    monkeypatch.setattr(cli, "write_spec", lambda spec, path: paths.append(path))
    assert main(["catalog", "--out-dir", out_dir, "--name", "p1"]) == 0
    assert paths == [path]
    assert capsys.readouterr().out == f"{path}\n"
    assert list(tmp_path.iterdir()) == []


def _one_line_error(capsys, argv):
    """The one stderr line of a call that must exit 2 with nothing else."""
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ")
    return out.err.rstrip("\n")


def test_unknown_catalog_name_is_one_line_error(capsys):
    assert _one_line_error(capsys, ["catalog", "--name", "nope"]) == (
        f"error: no catalog entry 'nope'; known: {', '.join(CATALOG_NAMES)}")


def test_catalog_into_missing_directory_is_one_line_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    err = _one_line_error(capsys, ["catalog", "--name", "p1", "--out-dir", str(missing)])
    assert err.endswith(f"No such file or directory: '{missing}/p1.json'")
    assert not missing.exists()


def test_spec_file_holding_a_list_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert _one_line_error(capsys, ["verify", "--spec", str(path)]) == (
        "error: spec file must contain a JSON object")


@pytest.mark.parametrize("name,options,message", [
    ("p1", ["--rect", "1,2,3"], "error: --rect expects x0,y0,x1,y1"),
    ("a3_3d", [], "error: the 2d tt* equation needs a 2-dimensional spec"),
], ids=["three_rect_numbers", "three_dimensional_spec"])
def test_tt2d_input_is_one_line_error(tmp_path, capsys, name, options, message):
    argv = ["tt2d", "--spec", _dump(name, tmp_path), *options]
    assert _one_line_error(capsys, argv) == message


@pytest.mark.parametrize("field,value,message", [
    ("degrees", [float("nan"), 1.0], "euler degrees, shifts, d and d_F must be finite"),
    ("degrees", [1.0, 0.5], "normal form requires d_i + d_{m+1-i} = 2 - d"),
    ("d_F", 2.5, "normal form requires d_F = 3 - d"),
], ids=["nan_degree", "unpaired_degrees", "wrong_d_F"])
def test_invalid_euler_data_is_one_line_error(tmp_path, capsys, field, value, message):
    doc = spec_to_dict(catalog("quartic2"))
    doc["euler"][field] = value
    assert _assert_one_line_spec_error(doc, tmp_path, capsys) == f"error: {message}\n"


def test_report_deterministic_modulo_timestamp(tmp_path):
    spec = _dump("quartic2", tmp_path)
    docs = []
    for i in range(2):
        report = tmp_path / f"rep{i}.json"
        assert main([
            "verify", "--spec", spec, "--points", "2", "--seed", "7",
            "--report", str(report),
        ]) == 0
        doc = json.loads(report.read_text())
        doc.pop("timestamp")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


@pytest.mark.parametrize("command", ["verify", "cdv", "connections", "pencil", "lowdim"])
def test_no_point_checked_is_an_error(tmp_path, capsys, command):
    # trivial2 is nowhere semi-simple: every draw is skipped.
    spec = _dump("trivial2", tmp_path)
    assert main([command, "--spec", spec, *_points(command, 2)]) == 2
    out = capsys.readouterr()
    assert "PASS" not in out.out
    assert out.err.count("\n") == 1 and "no semi-simple point" in out.err


def test_zero_points_rejected(tmp_path, capsys):
    spec = _dump("quartic2", tmp_path)
    assert main(["verify", "--spec", spec, "--points", "0"]) == 2
    assert "--points" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--tol", "nan"],
    ["connections", "--tol", "nan"],
    ["lowdim", "--tol", "inf"],
    ["pencil", "--tol", "-1"],
    ["verify", "--tol", "-1e-5"],
    ["connections", "--tol", "-.5"],
], ids=" ".join)
def test_bad_step_or_tolerance_is_one_line_error(tmp_path, capsys, argv):
    # A NaN tolerance used to end in a FAIL of every check.
    spec = _dump("quartic2", tmp_path)
    assert main(argv[:1] + ["--spec", spec, *_points(argv[0], 1)] + argv[1:]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith(f"error: {argv[1]} must be ")
    assert out.err.rstrip().endswith(f"got {float(argv[2])}")


@pytest.mark.parametrize("command", ["verify", "cdv", "pencil", "connections", "lowdim"])
def test_negative_seed_is_one_line_error(tmp_path, capsys, command):
    # Sampling used to end in a ValueError traceback with exit 1, the code
    # of a failed check.
    spec = _dump("quartic2", tmp_path)
    assert main([command, "--spec", spec, *_points(command, 1), "--seed", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --seed must be non-negative, got -1\n"


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_report_is_one_line_error(tmp_path, capsys, where):
    # The report used to be written outside the error handling: a
    # FileNotFoundError or IsADirectoryError traceback with exit 1.
    spec = _dump("quartic2", tmp_path)
    path = tmp_path / "missing" / "r.json" if where == "missing_dir" else tmp_path
    assert main(["verify", "--spec", spec, "--points", "1", "--report", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ") and str(path) in out.err


@pytest.mark.parametrize("command, options", [
    ("catalog", ["--name", ""]),
    ("verify", ["--points", "1", "--report", ""]),
    ("tt2d", ["--grid", "9", "--csv", ""]),
], ids=["catalog_name", "verify_report", "tt2d_csv"])
def test_empty_path_option_is_one_line_error(tmp_path, monkeypatch, capsys, command, options):
    # An empty --name, --report or --csv names no entry or file: it is an
    # error, not the option left out, and nothing is written.
    monkeypatch.chdir(tmp_path)
    spec = [] if command == "catalog" else ["--spec", _dump("p1", tmp_path)]
    _one_line_error(capsys, [command, *spec, *options])
    assert [p.name for p in tmp_path.iterdir()] == ["p1.json"] * bool(spec)


def test_tt2d_zero_tolerance_stops_at_roundoff_floor(tmp_path, capsys):
    spec = _dump("p1", tmp_path)
    report = tmp_path / "r.json"
    assert main(["tt2d", "--spec", spec, "--grid", "17", "--tol", "0",
                 "--report", str(report)]) == 0
    check = json.loads(report.read_text())["checks"][0]
    assert 0.0 < check["residual"] <= check["tolerance"] < 1e-12
    assert capsys.readouterr().err == ""


# p1's source |f'''|^2 = e^(2x) overflows at x = 400; cubic2's is constant.
OVERFLOWING_SOURCE = ["--rect", "0,0,400,1"]


@pytest.mark.parametrize("flags", [
    ["--grid", "2"],
    ["--grid", "1"],
    ["--grid", "0"],
    ["--grid", "-3"],
    ["--rect", "0,0,0,1"],
    ["--rect", "0,0,1,0"],
    ["--rect", "1,1,-1,-1"],
    ["--rect=-1,1,1,-1"],
    ["--rect", "0,0,nan,1"],
    ["--rect", "0,0,1e-300,1"],
    ["--rect", "0,0,1,1e-300"],
    ["--rect", "0,0,1e-160,1"],
    ["--rect", "0,0,1e160,1"],
    ["--rect", "a,b,c,d"],
    ["--max-iter", "-1"],
    ["--boundary", "0"],
    ["--boundary", "inf"],
    ["--boundary", "nan"],
    ["--boundary", "1e300"],
    ["--tol", "-1"],
    ["--tol", "nan"],
    ["--tol", "inf"],
    # 7.3 TiB per grid array: numpy refuses it without allocating.
    ["--grid", "1000000"],
    OVERFLOWING_SOURCE,
], ids=" ".join)
def test_tt2d_bad_grid_input_is_one_line_error(tmp_path, capsys, flags):
    spec = _dump("p1" if flags == OVERFLOWING_SOURCE else "cubic2", tmp_path)
    assert main(["tt2d", "--spec", spec, "--grid", "9"] + flags) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ")
    if flags == OVERFLOWING_SOURCE:
        assert "|f'''|^2" in out.err and "(0, 0, 400, 1)" in out.err


# Runs in a fresh interpreter, so that no module this test process has
# already imported can hide a load.
_IMPORT_GUARD = textwrap.dedent("""
    import sys

    import frobcdv
    import frobcdv.cli as cli
    from frobcdv.catalog import catalog, load_spec, write_spec

    def scipy_modules():
        return [m for m in sys.modules if m.split(".")[0] == "scipy"]

    out_dir = sys.argv[1]
    points = {"quartic2": "0.3,0.1;0.7,-0.2", "a3_3d": "0.3,0;0.7,0;1.1,0"}
    paths = {name: f"{out_dir}/{name}.json" for name in points}
    for name, path in paths.items():
        write_spec(catalog(name), path)
        assert load_spec(path) == catalog(name)
    assert "numpy.random" not in sys.modules
    codes = {}
    for name, path in paths.items():
        for command in ("verify", "connections", "lowdim", "pencil"):
            codes[command, name] = cli.main([command, "--spec", path, "--point", points[name]])
    assert "numpy.random" not in sys.modules
    for name, path in paths.items():
        for command in ("verify", "connections", "lowdim", "pencil"):
            codes[command, name, 1] = cli.main([command, "--spec", path, "--points", "1"])
    assert "numpy.random" in sys.modules
    assert set(codes.values()) <= {0, 1}, codes
    assert not scipy_modules(), scipy_modules()
    assert cli.main(["tt2d", "--spec", f"{out_dir}/quartic2.json", "--grid", "9"]) == 0
    assert "scipy.sparse.linalg" in sys.modules
""")


def test_pointwise_subcommands_do_not_import_scipy(tmp_path):
    # Only the tt* solve needs scipy; every other subcommand starts with numpy
    # alone.  Only sampling needs numpy.random: loading a spec and checking
    # an explicit --point leave it unimported.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr

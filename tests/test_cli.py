"""Tests for spec serialization, sampling, report output, and exit codes."""

import json

import numpy as np
import pytest

from frobcdv import (
    CATALOG_NAMES,
    ParseError,
    VerificationReport,
    catalog,
    load_spec,
    spec_from_dict,
    spec_to_dict,
    write_spec,
)
from frobcdv.cli import _parse_point, aggregate, main, sample_points


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


def test_aggregate_keeps_worst_residual():
    r1, r2 = VerificationReport(), VerificationReport()
    r1.add("a", 1e-9, 1e-5)
    r1.add("b", 2e-3, 1e-5)
    r2.add("a", 4e-8, 1e-5)
    merged = aggregate([r1, r2])
    assert merged["a"].residual == 4e-8
    assert merged["a"].points_checked == 2
    assert merged["b"].residual == 2e-3
    assert not merged.passed


def test_verify_exit_codes(tmp_path):
    good = _dump("quartic2", tmp_path)
    assert main(["verify", "--spec", good, "--points", "2"]) == 0
    bad = _dump("broken_wdvv", tmp_path)
    assert main(["verify", "--spec", bad, "--points", "2"]) == 1
    assert main(["verify", "--spec", str(tmp_path / "missing.json")]) == 2


def test_explicit_point_flag(tmp_path):
    good = _dump("quartic2", tmp_path)
    assert main(["verify", "--spec", good, "--point", "0,0;1,0"]) == 0


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


def test_tt2d_command(tmp_path):
    spec = _dump("cubic2", tmp_path)
    csv = tmp_path / "grid.csv"
    report = tmp_path / "tt2d.json"
    code = main([
        "tt2d", "--spec", spec, "--grid", "17", "--csv", str(csv),
        "--report", str(report),
    ])
    assert code == 0
    assert csv.read_text().startswith("x,y,h11,residual")
    doc = json.loads(report.read_text())
    assert doc["tt2d"]["converged"] is True


def test_catalog_command(tmp_path):
    assert main(["catalog", "--out-dir", str(tmp_path)]) == 0
    for name in CATALOG_NAMES:
        assert (tmp_path / f"{name}.json").exists()
    assert load_spec(tmp_path / "a3_3d.json") == catalog("a3_3d")


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
    assert main([command, "--spec", spec, "--points", "2"]) == 2
    out = capsys.readouterr()
    assert "PASS" not in out.out
    assert out.err.count("\n") == 1 and "no semi-simple point" in out.err


def test_zero_points_rejected(tmp_path, capsys):
    spec = _dump("quartic2", tmp_path)
    assert main(["verify", "--spec", spec, "--points", "0"]) == 2
    assert "--points" in capsys.readouterr().err

"""Tests for spec serialization, sampling, report output, and exit codes."""

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
        "--report", str(report), "--seed", "4",
    ])
    assert code == 0
    assert csv.read_text().startswith("x,y,h11,residual")
    doc = json.loads(report.read_text())
    assert doc["tt2d"]["converged"] is True
    assert doc["summary"]["seed"] == 4
    assert "fd_step" not in doc["summary"]  # tt2d takes no finite differences


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


@pytest.mark.parametrize("command", ["verify", "cdv", "pencil"])
def test_fd_step_is_reported(tmp_path, command):
    spec = _dump("quartic2", tmp_path)
    report = tmp_path / "r.json"
    assert main([command, "--spec", spec, "--points", "1", "--fd-step", "2e-5",
                 "--report", str(report)]) == 0
    assert json.loads(report.read_text())["summary"]["fd_step"] == 2e-5


@pytest.mark.parametrize("command", ["connections", "lowdim"])
def test_exact_subcommands_reject_fd_step(tmp_path, capsys, command):
    # Their derivatives are exact: a step would be accepted and ignored.
    spec = _dump("quartic2", tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--spec", spec, "--points", "1", "--fd-step", "7"])
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


@pytest.mark.parametrize("flags", [
    ["--grid", "2"],
    ["--grid", "1"],
    ["--grid", "0"],
    ["--grid", "-3"],
    ["--rect", "0,0,0,1"],
    ["--rect", "0,0,1,0"],
    ["--rect", "0,0,nan,1"],
    ["--rect", "a,b,c,d"],
    ["--max-iter", "-1"],
    ["--boundary", "0"],
    ["--boundary", "inf"],
    ["--boundary", "nan"],
    ["--boundary", "1e300"],
], ids=" ".join)
def test_tt2d_bad_grid_input_is_one_line_error(tmp_path, capsys, flags):
    spec = _dump("cubic2", tmp_path)
    assert main(["tt2d", "--spec", spec, "--grid", "9"] + flags) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ")


# Runs in a fresh interpreter, so that no module this test process has
# already imported can hide a load.
_IMPORT_GUARD = textwrap.dedent("""
    import sys

    import frobcdv
    import frobcdv.cli as cli
    from frobcdv.catalog import catalog, write_spec

    def scipy_modules():
        return [m for m in sys.modules if m.split(".")[0] == "scipy"]

    out_dir = sys.argv[1]
    codes = {}
    for name in ("quartic2", "a3_3d"):
        path = f"{out_dir}/{name}.json"
        write_spec(catalog(name), path)
        for command in ("verify", "connections", "lowdim", "pencil"):
            codes[command, name] = cli.main([command, "--spec", path, "--points", "1"])
    assert set(codes.values()) <= {0, 1}, codes
    assert not scipy_modules(), scipy_modules()
    assert cli.main(["tt2d", "--spec", f"{out_dir}/quartic2.json", "--grid", "9"]) == 0
    assert "scipy.sparse.linalg" in sys.modules
""")


def test_pointwise_subcommands_do_not_import_scipy(tmp_path):
    # Only the tt* solve needs scipy; every other subcommand starts with numpy alone.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr

"""Run the 200 default CLI reports, a fixed set of tt2d runs and the
CLI's help and usage errors in-process and write them as one JSON file.

Usage: python3 scripts/default_reports.py SRC_DIR OUT.json

SRC_DIR is the `src` directory of a checkout, from which frobcdv is
imported.  The default reports are seeds 0-9 x the catalog specs
quartic2, p1, a3_3d and cubic2 x the subcommands verify, cdv, pencil,
connections and lowdim, each with its default options.  The tt2d runs
(TT2D_RUNS) solve p1 on the default rect at --grid 33 and 128, quartic2
on 0.5,-0.5,1.5,0.5 at --grid 65 and p1 on the long rect 0,0,16,1 at
--grid 65, whose preconditioner is rebuilt on most Newton steps, and
write one grid as CSV.  The argparse calls (ARGPARSE_ARGVS) are written
in forms that cli._read_options refuses, so that argparse reads them:
"--flag=value", a unique prefix and a repeated option, and a value
starting with "-".  The CLI text calls (TEXT_ARGVS) print the
help of frobcdv and of each subcommand, or end in a usage error, which
argparse raises as SystemExit.  OUT.json holds, per call, its arguments,
exit code, stdout, stderr, JSON report without the timestamp and the
CSV's text (or null), so that `cmp` tells whether two trees give the
same results, help and error text included:

    python3 scripts/default_reports.py ../parent/src /tmp/parent.json
    python3 scripts/default_reports.py src /tmp/change.json
    cmp /tmp/parent.json /tmp/change.json
"""

import contextlib
import io
import json
import os
import sys
import tempfile

SPECS = ("quartic2", "p1", "a3_3d", "cubic2")
COMMANDS = ("verify", "cdv", "pencil", "connections", "lowdim")
SEEDS = range(10)
# (spec, options) of the tt2d runs.
TT2D_RUNS = (
    ("p1", ["--grid", "33"]),
    ("p1", ["--grid", "128"]),
    ("quartic2", ["--rect", "0.5,-0.5,1.5,0.5", "--grid", "65"]),
    ("p1", ["--rect", "0,0,16,1", "--grid", "65"]),
    ("p1", ["--grid", "33", "--csv", "grid.csv"]),
)
# Calls that argparse reads, not cli._read_options; the last exits 2 at
# its negative --tol, after parsing.
ARGPARSE_ARGVS = (
    ["verify", "--spec=quartic2.json", "--points=1"],
    ["pencil", "--spe", "a3_3d.json", "--points", "1", "--seed", "1", "--seed", "2"],
    ["tt2d", "--spec", "p1.json", "--grid", "9", "--tol", "-1e-5"],
)
# Calls that print help or a usage error, before any spec is read.
TEXT_ARGVS = (
    ["-h"],
    *([command, "-h"] for command in (*COMMANDS, "tt2d", "catalog")),
    [],
    ["nope"],
    ["--spec", "x", "verify"],
    ["verify"],
    ["verify", "--spec"],
    ["cdv", "--points", "3"],
    ["tt2d", "--points", "2"],
    ["-x"],
    ["verify", "--seed", "abc"],
    ["verify", "--spec", "x", "--bogus"],
    ["tt2d", "--spec", "x", "extra"],
    ["verify", "--spec", "x", "--poi", "1"],
)


def _take(path, read):
    """The contents of the file at path as read gives them, removing the
    file, or None if there is none."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        contents = read(fh)
    os.remove(path)
    return contents


def _record(frobcdv_main, argv):
    """Run one call and take the report and CSV it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = frobcdv_main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    report = _take("report.json", json.load)
    if report is not None:
        report.pop("timestamp")
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "report": report, "csv": _take("grid.csv", lambda fh: fh.read())}


def default_reports(frobcdv_main):
    """One record per call, run in the current directory."""
    for name in SPECS:
        with contextlib.redirect_stdout(io.StringIO()):
            frobcdv_main(["catalog", "--name", name, "--out-dir", "."])
    records = []
    for seed in SEEDS:
        for name in SPECS:
            for command in COMMANDS:
                records.append(_record(frobcdv_main, [
                    command, "--spec", f"{name}.json", "--seed", str(seed),
                    "--report", "report.json"]))
    for name, options in TT2D_RUNS:
        records.append(_record(frobcdv_main, [
            "tt2d", "--spec", f"{name}.json", *options, "--report", "report.json"]))
    records.extend(_record(frobcdv_main, argv) for argv in ARGPARSE_ARGVS + TEXT_ARGVS)
    return records


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    src, out = (os.path.abspath(path) for path in argv)
    sys.path.insert(0, src)
    from frobcdv.cli import main as frobcdv_main

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            records = default_reports(frobcdv_main)
        finally:
            os.chdir(here)
    with open(out, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])

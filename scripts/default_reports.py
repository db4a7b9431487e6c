"""Run the 200 default CLI reports in-process and write them as one JSON file.

Usage: python3 scripts/default_reports.py SRC_DIR OUT.json

SRC_DIR is the `src` directory of a checkout, from which frobcdv is
imported.  The calls are seeds 0-9 x the catalog specs quartic2, p1,
a3_3d and cubic2 x the subcommands verify, cdv, pencil, connections and
lowdim, each with its default options.  OUT.json holds, per call, its
arguments, exit code, stdout, stderr and JSON report without the
timestamp, so that `cmp` tells whether two trees give the same reports:

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


def default_reports(frobcdv_main):
    """One record per call, run in the current directory."""
    for name in SPECS:
        with contextlib.redirect_stdout(io.StringIO()):
            frobcdv_main(["catalog", "--name", name, "--out-dir", "."])
    records = []
    for seed in SEEDS:
        for name in SPECS:
            for command in COMMANDS:
                argv = [command, "--spec", f"{name}.json", "--seed", str(seed),
                        "--report", "report.json"]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = frobcdv_main(argv)
                report = None
                if os.path.exists("report.json"):
                    with open("report.json") as fh:
                        report = json.load(fh)
                    report.pop("timestamp")
                    os.remove("report.json")
                records.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                                "stderr": err.getvalue(), "report": report})
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

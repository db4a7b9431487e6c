"""The 200 default reports, the tt2d runs and the CLI text calls of
scripts/default_reports.py.

The script runs seeds 0-9 x quartic2, p1, a3_3d, cubic2 x verify, cdv,
pencil, connections and lowdim with their default options, five tt2d
runs, three calls that argparse reads and the calls that print help or a
usage error, in-process.  Here
their exit codes, check names and verdicts are pinned, and every passing
check of the pointwise subcommands must pass with margin (tolerance /
residual) at least MIN_MARGIN.  The text calls must print what
cli.build_parser's parser prints.  The script is loaded from its
file, as tests/test_bench_trace.py loads the tracer.
"""

import importlib.util
import sys
from pathlib import Path

from frobcdv import cli
from frobcdv.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "default_reports.py"

# The least margin of a passing check; the worst is 7.4e3 (q_reality on
# a3_3d at seed 4).
MIN_MARGIN = 100.0

ALGEBRAIC = ["kappa_involution", "hermitian_pairing", "higgs_reality"]
DERIVATIVE = ["kappa_parallel", "higgs_parallel", "ttstar_commutator", "q_reality",
              "unit_parallel", "omega_holomorphy"]
HARMONIC = ["dprime_p_equals_higgs", "chern_from_levi_civita", "p_selfadjoint", "v_commutator"]
GAPS = ["nabla_vs_chern", "chern_torsion", "kaehler_closedness", "real_lc_vs_chern",
        "real_lc_vs_nabla"]
RELATIONS = ["kappa_involution", "hermitian_pairing", "omega_antisymmetry"]
M3_RELATIONS = ["m3_dphi_relation_1", "m3_dphi_relation_2", "m3_dphi_relation_3",
                "m3_wdvv_scalar", "m3_implied_relation_23", "m3_implied_relation_13"]
TT2D = ["tt2d_solver_residual", "tt2d_independent_residual"]


def _check_names(command, name):
    """The check names of a default report, in order."""
    three = name == "a3_3d"
    return {
        "verify": ["wdvv_associativity"] + ["wdvv_reduced_m3"] * three + ["euler_homogeneity"]
                  + ALGEBRAIC + DERIVATIVE + HARMONIC + ["euler_eta_scaling"],
        "cdv": ALGEBRAIC + DERIVATIVE,
        "pencil": ["pencil_curvature"],
        "connections": GAPS,
        "lowdim": RELATIONS + (M3_RELATIONS if three else ["m2_positive_diagonal"])
                  + ["euler_degree_relation"],
    }[command]


def _load_script(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("default_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_reports(tmp_path, monkeypatch):
    script = _load_script(monkeypatch)
    monkeypatch.chdir(tmp_path)
    records = script.default_reports(main)
    n_tt2d, n_argparse = len(script.TT2D_RUNS), len(script.ARGPARSE_ARGVS)
    pointwise, tt2d, rest = records[:200], records[200:200 + n_tt2d], records[200 + n_tt2d:]
    by_argparse, text = rest[:n_argparse], rest[n_argparse:]
    assert len(pointwise) == 200 and len(tt2d) == n_tt2d
    assert [record["argv"] for record in by_argparse] == list(script.ARGPARSE_ARGVS)
    assert [record["argv"] for record in text] == list(script.TEXT_ARGVS)

    for record in pointwise:
        command, name = record["argv"][0], record["argv"][2].removesuffix(".json")
        checks = record["report"]["checks"]
        assert [c["name"] for c in checks] == _check_names(command, name), record["argv"]
        failing = [c["name"] for c in checks if not c["pass"]]
        # The three non-Kaehler specs fail every connection gap (the paper's
        # result); the flat cubic2 fails none.
        gaps_fail = command == "connections" and name != "cubic2"
        assert failing == (GAPS if gaps_fail else []), record["argv"]
        assert record["exit"] == (1 if gaps_fail else 0), record["argv"]
        for c in checks:
            if c["pass"]:
                assert c["residual"] * MIN_MARGIN <= c["tolerance"], (record["argv"], c)

    for record in tt2d:
        assert record["exit"] == 0, record["argv"]
        assert [c["name"] for c in record["report"]["checks"]] == TT2D
    assert tt2d[-1]["csv"] is not None
    assert [record["exit"] for record in by_argparse] == [0, 0, 2]
    assert by_argparse[1]["stdout"].startswith("PASS  pencil_curvature")
    assert by_argparse[2]["stderr"] == "error: --tol must be finite and non-negative, got -1e-05\n"
    for record in text:
        # Help exits 0 on stdout; a usage error exits 2 on stderr.
        assert record["exit"] == (0 if "-h" in record["argv"] else 2), record["argv"]
        assert bool(record["stdout"]) == (record["exit"] == 0), record["argv"]
        assert record["stderr"].startswith("usage: frobcdv") == (record["exit"] == 2)


def test_cli_text_equals_a_parser_with_every_option(tmp_path, monkeypatch):
    # main reads a plain call off cli.OPTIONS and hands any other to
    # cli.build_parser's parser, which has every subcommand's options; what
    # main prints, help and usage errors included, is what that parser prints.
    script = _load_script(monkeypatch)
    monkeypatch.chdir(tmp_path)
    parser = cli.build_parser()
    for argv in script.TEXT_ARGVS:
        assert script._record(main, argv) == script._record(parser.parse_args, argv)

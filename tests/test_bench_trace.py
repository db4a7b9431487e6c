"""The bench tracer still sees every layer that each workload must move.

``bench/tracing.py`` wraps the layer entry points, ``potential.
third_derivatives`` and numpy's eigen-solvers by name.  A refactor that
stops calling one of them leaves its counter at zero, and ``bench/run.py
--trace 1`` then exits 3.  Here one op of each workload runs through
``cli.main`` under the tracer, and its counter check must pass.  The
tracer is loaded from its file without writing anything under ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from frobcdv import catalog, write_spec
from frobcdv.cli import main

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# One op per workload, as bench/workloads.py builds them: (subcommand,
# spec, expected exit code).  connections exits 1 on the non-Kaehler gaps.
OPS = {
    "pointwise": [("verify", "a3_3d", 0), ("connections", "a3_3d", 1), ("lowdim", "a3_3d", 0)],
    "pencil": [("pencil", name, 0) for name in ("quartic2", "p1", "a3_3d")],
    "tt2d": [("tt2d", "p1", 0)],
}


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(OPS))
def test_tracer_sees_each_workloads_layers(workload, tmp_path, monkeypatch):
    tracing = _load_tracing(monkeypatch)
    calls = []
    for command, name, code in OPS[workload]:
        path = tmp_path / f"{name}.json"
        write_spec(catalog(name), path)
        argv = [command, "--spec", str(path), "--seed", "1"]
        argv += ["--grid", "128"] if command == "tt2d" else ["--points", "1"]
        calls.append((argv, code))
    # As in the bench, an untraced rotation first fills the caches (the
    # flat metric, the derivative tables), so that only per-op work counts.
    expected = [code for _, code in calls]
    assert [main(argv) for argv, _ in calls] == expected
    tracer = tracing.Tracer().install()
    try:
        codes = [main(argv) for argv, _ in calls]
    finally:
        tracer.remove()
    assert codes == expected
    tracer.check_activity(workload)

"""Workload definitions and the per-op correctness gate.

Every op is one ``frobcdv`` subcommand, or a fixed group of them, called
in-process through ``frobcdv.cli.main`` on spec files written from
``frobcdv.catalog``.  The op sequence is a pure function of the seed.

pointwise
    Each op runs ``verify``, ``connections`` and ``lowdim`` with
    ``--points 1 --seed k`` on one of quartic2, p1 and a3_3d, in a 1:1:1
    rotation.  This is the everyday verification path: nearly all of its
    time goes to ``canonical`` frames and the ``cdv`` FD verifiers, and it
    does no sparse work.  Exact frame derivatives and argmin matching
    should move it; a tt2d-only change should not.  With 1:1:1 the median
    op lies inside the m=2 cost mode and the tail inside the m=3 mode; a
    mix near the boundary of the two modes would make the median flip from
    run to run, so keep the rotation as it is.

pencil
    Each op is one ``pencil --points 1 --seed k`` on each of quartic2, p1
    and a3_3d.  ``pencil_curvature`` recomputes ``base_data`` inside every
    field closure (1242 eigendecompositions per m=2 point, 3588 per m=3
    point); in ``pointwise`` it would swamp every other cost, so it has its
    own workload.  It shows the rebuild of ``pencil_curvature``; ``tt2d``
    must stay unchanged by that rebuild.  An op covers all three specs,
    not one of them in rotation: with one call per op the median sat in
    the upper tail of the m=2 cost mode and spread by 10% between runs.

tt2d
    Each op is one ``tt2d --spec p1.json --grid 128`` at the CLI default
    tolerance 1e-10 with the constant boundary: the Newton solve plus the
    independent ``tt2d_residual``.  It is the only workload that does
    sparse LU and per-grid-node source evaluation, and it does no
    eigendecompositions.  It shows work on the tt* solver (true-Jacobian
    Newton, Newton-Krylov, vectorised sources) and is the control for
    every frame-layer change.

Sampled points are screened by their eigenvalue gap (``MIN_REL_GAP``):
the draw of ``k`` is repeated until the point that ``--points 1 --seed k``
samples on every spec of the op lies at a relative gap of at least 0.25
from the discriminant.  The CLI samples down to a gap of 0.05, and at the
seed commit its FD-of-FD verifiers give wrong verdicts near that limit:
``verify`` failed on 33 of 600 a3_3d points, all at gaps 0.05-0.11, and
``pencil`` on 11 of 163 a3_3d points and 1 of 500 quartic2 points, at
gaps 0.05-0.14.  ``pencil`` still reached 0.83x tolerance at a gap of
0.20.  At gaps of 0.25 and more the worst residual seen was 0.36x
tolerance for ``verify`` (1780 a3_3d points) and 0.68x for ``pencil``
(437 a3_3d and 1832 quartic2 points).  This is a known defect of the
program, not of the benchmark: the screen keeps the benchmark's ops on
points where the program answers correctly, and each run prints how many
draws it screened out.  Lower ``MIN_REL_GAP`` to 0.05 once the verifiers
pass there.
"""

import json
import os

ROTATION = ("quartic2", "p1", "a3_3d")

# Per workload: the specs of successive ops (cycled) and the subcommands
# each op runs on every spec it covers.
OPS = {
    "pointwise": ([(name,) for name in ROTATION], ("verify", "connections", "lowdim")),
    "pencil": ([ROTATION], ("pencil",)),
    "tt2d": ([("p1",)], ("tt2d",)),
}
TT2D_GRID = 128

# The five non-Kaehler obstructions.  They are nonzero on every non-flat
# catalog spec, so ``connections`` must report each of them as failing.
CONNECTION_GAPS = (
    "nabla_vs_chern",
    "chern_torsion",
    "kaehler_closedness",
    "real_lc_vs_chern",
    "real_lc_vs_nabla",
)

# Expected verdict per subcommand: exit code, and for ``connections`` the
# entries that must fail.  Any other check must pass.
EXPECTED = {
    "verify": {"exit": 0},
    "lowdim": {"exit": 0},
    "pencil": {"exit": 0},
    "tt2d": {"exit": 0},
    "connections": {"exit": 1, "failing": CONNECTION_GAPS},
}

WORKLOADS = tuple(OPS)

# Smallest relative eigenvalue gap (gap over 1 + max |u|, as in
# ``canonical``) of a sampled point; see the module docstring.
MIN_REL_GAP = 0.25

# Reference kernel (speed.py) whose work resembles each workload's ops.
SPEED_KERNEL = {"pointwise": "dense", "pencil": "dense", "tt2d": "sparse"}


def spec_names(workload):
    return sorted({name for specs in OPS[workload][0] for name in specs})


def cycle_length(workload):
    """Ops per full rotation; timed runs stop only at a rotation boundary."""
    return len(OPS[workload][0])


class Call:
    """One CLI invocation: its argv and where its JSON report goes."""

    def __init__(self, command, argv, report):
        self.command = command
        self.argv = argv
        self.report = report


def make_op(workload, index, rng, work_dir, gap):
    """The calls of op number ``index``, one list per spec, and the number
    of draws screened out.

    ``rng`` draws the sampling seed ``k``; ``gap(name, k)`` is the relative
    eigenvalue gap of the point that ``--points 1 --seed k`` samples on
    spec ``name``.  Spec files are ``<name>.json`` in ``work_dir``,
    written from the catalog.
    """
    rotation, commands = OPS[workload]
    names = rotation[index % len(rotation)]
    screened = 0
    while True:
        k = rng.randrange(1 << 31)
        if "tt2d" in commands or all(gap(name, k) >= MIN_REL_GAP for name in names):
            break
        screened += 1
    k = str(k)
    groups = []
    for name in names:
        spec = os.path.join(work_dir, f"{name}.json")
        calls = []
        for command in commands:
            report = os.path.join(work_dir, f"{command}-{name}.json")
            argv = [command, "--spec", spec, "--seed", k, "--report", report]
            if command == "tt2d":
                argv += ["--grid", str(TT2D_GRID)]
            else:
                argv += ["--points", "1"]
            calls.append(Call(command, argv, report))
        groups.append(calls)
    return groups, screened


def check_call(call, code):
    """Return None when the call's verdict matches EXPECTED, else the reason."""
    want = EXPECTED[call.command]
    if code != want["exit"]:
        return f"{call.command}: exit {code}, expected {want['exit']}"
    try:
        with open(call.report) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"{call.command}: unreadable report ({exc})"
    checks = {c["name"]: c for c in doc.get("checks", [])}
    if not checks:
        return f"{call.command}: report has no checks"
    failing = set(want.get("failing", ()))
    for name in failing:
        c = checks.get(name)
        if c is None:
            return f"{call.command}: missing check {name}"
        if c["pass"] or not c["residual"] > c["tolerance"]:
            return f"{call.command}: {name} passed, expected a nonzero gap"
    for name, c in checks.items():
        if name not in failing and not c["pass"]:
            return f"{call.command}: {name} failed (residual {c['residual']:.3e})"
    if call.command == "tt2d" and doc.get("tt2d", {}).get("converged") is not True:
        return "tt2d: Newton did not converge"
    return None

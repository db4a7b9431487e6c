"""Command-line interface: spec ingestion, check orchestration, reports.

Subcommands: verify, cdv, connections, pencil, lowdim, tt2d, catalog.
verify, connections, pencil and lowdim share one runner, cmd_pointwise:
the table POINTWISE_CHECKS gives the reports each makes, once, at the
stack of all its points' canonical frames (built once, and read by every
check, which evaluates nothing), each with the worst point's residual.
The table OPTIONS defines each subcommand's options.  A call of plain
"--flag value" pairs is read off it (_read_options) and builds no parser;
any other call (help, an error, "--flag=value") goes to the one argparse
parser built from the same table (build_parser).
Exit codes: 0 all checks pass, 1 a check failed, 2 error.
"""

import argparse
import datetime
import json
import os
import sys

import numpy as np

from . import cdv as cdvmod
from . import lowdim as ld
from .canonical import canonical_frame, check_euler_eta, check_homogeneity, check_wdvv
from .catalog import CATALOG_NAMES, _c, catalog as catalog_entry, load_spec, write_spec
from .errors import DefectiveU, FrobCdvError, NotSemisimple, ParseError
from .report import VerificationReport

# The smallest eigenvalue gap, relative to 1 + max|u|, of a sampled point.
# The verifiers' derivatives are exact, so nothing fails below it: at 400
# seeded points per spec at gaps 0.01-0.05 every check of verify and pencil
# passed, with margin (tolerance / residual) at least 504 (higgs_reality on
# a3_3d) and at least 1.6e6 for the derivative checks.  A smaller value
# would move the sampled points, and so every seeded report.
SAMPLING_EPS_SS = 0.05
RESAMPLE_LIMIT = 10


def _parse_point(text, dim):
    """Parse "re,im;re,im;..." into a complex vector of length dim."""
    parts = text.split(";")
    if len(parts) != dim:
        raise ParseError(f"point has {len(parts)} coordinates, spec has dimension {dim}")
    out = np.zeros(dim, dtype=complex)
    for i, part in enumerate(parts):
        try:
            re_part, im_part = (float(x) for x in part.split(","))
        except ValueError:
            raise ParseError(f"coordinate {part!r} is not of the form re,im") from None
        out[i] = complex(re_part, im_part)
    if not np.all(np.isfinite(out)):
        raise ParseError(f"point {text!r} has a coordinate that is not finite")
    return out


def _draw_point(rng, dim):
    r = np.sqrt(rng.uniform(0.0, 1.0, dim))
    th = rng.uniform(0.0, 2.0 * np.pi, dim)
    return r * np.exp(1j * th)


def sample_points(spec, n, seed, frames=None):
    """Seeded points on the unit polydisk, resampled off the discriminant.

    A draw is kept once canonical_frame accepts it with the eigenvalue
    gap SAMPLING_EPS_SS; one too close to the non-semi-simple locus
    (NotSemisimple, DefectiveU) is drawn again, up to RESAMPLE_LIMIT draws
    per point, and any other error is raised.  The draws are tested as one
    stack, whose error holds every draw too close; the walk is taken
    again without them, and so keeps the draws one at a time would.  Returns
    (points, skipped) where skipped counts the points whose draws all
    stayed too close.  If frames is a list, the stack frame of the kept
    points is appended to it, so that a caller need not build it again.
    """
    rng = np.random.default_rng(seed)
    draws, rejected = [], set()
    while True:
        # The walk of testing one draw at a time, each draw not set aside kept.
        kept, skipped, i = [], 0, -1
        for _ in range(n):
            for _attempt in range(RESAMPLE_LIMIT):
                i += 1
                if i == len(draws):
                    draws.append(_draw_point(rng, spec.dim))
                if i not in rejected:
                    kept.append(i)
                    break
            else:
                skipped += 1
        points = [draws[k] for k in kept]
        if not points:
            return points, skipped
        try:
            frame = canonical_frame(spec, np.array(points), eps_ss=SAMPLING_EPS_SS)
        except (NotSemisimple, DefectiveU) as exc:
            rejected.update(kept[i] for i in exc.indices)
            continue
        if frames is not None:
            frames.append(frame)
        return points, skipped


def _matrix_json(M):
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[_c(z) for z in row] for row in M]


def write_report(path, spec_path, points, report, seed, skipped, extra):
    """The JSON report."""
    doc = {
        "spec": str(spec_path),
        "points": [[_c(z) for z in np.atleast_1d(t)] for t in points],
        "checks": [
            {
                "name": e.name,
                "residual": e.residual,
                "tolerance": e.tolerance,
                "pass": e.passed,
                "points_checked": e.points_checked,
            }
            for e in report.entries
        ],
        "summary": {"pass": report.passed, "seed": seed},
        "skipped": skipped,
        "timestamp": datetime.datetime.now().isoformat(),
    }
    if extra:
        doc.update(extra)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def _points_for(spec, args):
    """(frame, skipped): the canonical frame stack of the points to check,
    built once here (by sample_points, or from --point as a stack of
    one).  A run that would check no point is an error, not a pass."""
    if args.point is not None:
        return canonical_frame(spec, _parse_point(args.point, spec.dim)[None]), 0
    if args.points < 1:
        raise ParseError(f"--points must be at least 1, got {args.points}")
    frames = []
    _, skipped = sample_points(spec, args.points, args.seed, frames)
    if not frames:
        raise FrobCdvError(f"no semi-simple point found: all {skipped} samples skipped after "
                           f"{RESAMPLE_LIMIT} draws each (seed {args.seed})")
    return frames[0], skipped


def _verify_at(spec, frame, tol):
    structure = cdvmod.construct_canonical_cdv(frame, spec.d)
    hd = cdvmod.harmonic_potential(frame, spec.d)
    data = cdvmod.derivative_data(spec, frame, hd.P)  # one for both verifiers
    return [check_wdvv(spec, frame, tol), check_homogeneity(spec, frame, tol),
            cdvmod.verify_cv_axioms(spec, structure, tol, data=data),
            cdvmod.verify_harmonic(spec, frame, hd, structure, tol, data=data),
            check_euler_eta(spec, frame, tol)]


def _lowdim_at(spec, frame, tol):
    relations = {2: ld.check_m2_relations, 3: ld.check_m3_relations}.get(
        spec.dim, ld.check_relations)
    return [relations(ld.from_canonical(spec, frame), tol),
            ld.check_euler_degree(spec, frame, tol)]


# Per subcommand that cmd_pointwise runs, the reports it makes at a frame stack.
POINTWISE_CHECKS = {
    "verify": _verify_at,
    "connections": lambda spec, frame, tol: [cdvmod.connection_gap(spec, frame, tol)],
    "pencil": lambda spec, frame, tol: [cdvmod.pencil_curvature(spec, frame, [1, 1j, 2], tol)],
    "lowdim": _lowdim_at,
}


def cmd_pointwise(args):
    spec = load_spec(args.spec)
    frame, skipped = _points_for(spec, args)
    reports = POINTWISE_CHECKS[args.command](spec, frame, args.tol)
    report = VerificationReport([e for rep in reports for e in rep.entries])
    return report, frame.point, skipped, None


def cmd_cdv(args):
    spec = load_spec(args.spec)
    frame, skipped = _points_for(spec, args)  # a stack of one
    structure = cdvmod.construct_canonical_cdv(frame, spec.d)
    extra = {
        "matrices": {
            "K": _matrix_json(structure.K[0]),
            "h": _matrix_json(structure.h[0]),
            "omega": [_matrix_json(w) for w in structure.omega[0]],
            "P": _matrix_json(cdvmod.harmonic_potential(frame, spec.d).P[0]),
            "u": [_c(z) for z in frame.u[0]],
        }
    }
    report = cdvmod.verify_cv_axioms(spec, structure, args.tol)
    return report, frame.point, skipped, extra


def cmd_tt2d(args):
    spec = load_spec(args.spec)
    try:
        rect = tuple(float(c) for c in args.rect.split(","))
    except ValueError:
        raise ParseError(f"--rect expects four numbers x0,y0,x1,y1, got {args.rect!r}") from None
    if len(rect) != 4:
        raise ParseError("--rect expects x0,y0,x1,y1")
    solution = ld.solve_tt2d(
        spec, rect, args.grid, args.boundary, max_iter=args.max_iter, tol=args.tol,
        raise_on_failure=False,
    )
    # With --csv, one residual grid serves the check and the CSV.
    grid = ld.residual_grid(spec, solution) if args.csv is not None else None
    pde, inv = ld.tt2d_residual(spec, solution, grid)
    report = VerificationReport()
    # Below the residual's round-off floor, tol cannot be met.  Both checks
    # share that target; the independent one allows 10x for the round-off
    # of its own code, but only on a converged solve: one that stopped
    # short (at --max-iter, or in a stalled line search) gets no slack.
    tol = max(args.tol, solution.floor)
    report.add("tt2d_solver_residual", solution.residual, tol)
    report.add("tt2d_independent_residual", pde, 10.0 * tol if solution.converged else tol)
    if args.csv is not None:
        ld.write_tt2d_csv(spec, solution, args.csv, grid)
    extra = {
        "tt2d": {
            "iterations": solution.iterations,
            "converged": solution.converged,
            "invariance_residual": inv,
            "grid": args.grid,
            "rect": list(rect),
        }
    }
    return report, [], 0, extra


def cmd_catalog(args):
    if args.name is not None:
        names = [args.name]
    else:
        names = list(CATALOG_NAMES)
    for name in names:
        spec = catalog_entry(name)
        path = os.path.join(args.out_dir, f"{name}.json")
        write_spec(spec, path)
        print(path)
    return None, [], 0, None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a word starting with "-" that names no
    option ("-1e-5", "-0.3,0.1;0,1", "-inf,0;0,0") as a value, so that
    the option before it takes it; argparse takes it for an unknown
    option, and exits with its usage when that option needs a value."""

    def _parse_optional(self, arg_string):
        parsed = super()._parse_optional(arg_string)
        # One (action, ...) tuple, or a list of them (Python >= 3.12);
        # a word that names no option comes back with action None.
        first = parsed[0] if isinstance(parsed, list) else parsed
        return None if parsed is not None and first[0] is None else parsed


# The options of every subcommand but catalog, and cdv's and the pointwise --point.
_COMMON = {
    "--spec": (str, None, "spec JSON file"),
    "--seed": (int, 0, "sampling seed"),
    "--tol": (float, 1e-5, "residual tolerance"),
    "--report": (str, None, "write JSON report here"),
}
_POINT = {"--point": (str, None, 'explicit point "re,im;re,im;..." (overrides sampling)')}
_POINTWISE = (
    {**_COMMON, "--points": (int, 3, "number of sample points"), **_POINT},
    ("--spec",),
    {"func": cmd_pointwise},
)

# Per subcommand, in the order of the usage line: its options, each flag's
# (type, default, help); the flags it requires; and the values it fixes.
# cdv reports the structure at one point, so it samples only that one.
OPTIONS = {
    "verify": _POINTWISE,
    "cdv": ({**_COMMON, **_POINT}, ("--spec",), {"func": cmd_cdv, "points": 1}),
    "connections": _POINTWISE,
    "pencil": _POINTWISE,
    "lowdim": _POINTWISE,
    "tt2d": ({**_COMMON,
              "--grid": (int, 64, "grid nodes per side"),
              "--rect": (str, "-1,-1,1,1", "rectangle x0,y0,x1,y1"),
              "--boundary": (float, 1.0, "constant boundary h11"),
              "--max-iter": (int, 50, "Newton iteration cap"),
              "--csv": (str, None, "write the grid as CSV here")},
             ("--spec",), {"func": cmd_tt2d, "tol": 1e-10}),
    "catalog": ({"--name": (str, None, "emit one entry (default: all)"),
                 "--out-dir": (str, ".", "directory for spec files")},
                (), {"func": cmd_catalog}),
}


def _read_options(name, words):
    """The options of subcommand name, as build_parser reads them, if
    words are "--flag value" pairs of its flags, each value converting
    with its flag's type and not starting with "-", and give every
    required flag; else None, and argparse reads them ("-h",
    "--flag=value", a prefix, "--", "-1e-5", a bad value)."""
    options, required, fixed = OPTIONS[name]
    if len(words) % 2 or not set(required) <= set(words[::2]):
        return None
    values = {flag[2:].replace("-", "_"): default for flag, (_, default, _) in options.items()}
    values.update(fixed, command=name)
    for flag, value in zip(words[::2], words[1::2]):
        if flag not in options or value.startswith("-"):
            return None
        try:
            values[flag[2:].replace("-", "_")] = options[flag][0](value)
        except ValueError:
            return None
    return argparse.Namespace(**values)


def build_parser():
    """The argparse parser of every call: one subparser per subcommand,
    with its options of OPTIONS.  main builds it only for the calls that
    _read_options does not read: help, errors and other spellings."""
    parser = _Parser(
        prog="frobcdv",
        description="Construct and verify canonical positive CDV-structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (options, required, fixed) in OPTIONS.items():
        subparser = sub.add_parser(name)
        for flag, (type_, default, help_) in options.items():
            subparser.add_argument(flag, type=type_, default=default, required=flag in required,
                                   help=help_)
        subparser.set_defaults(**fixed)
    return parser


def _check_numbers(args):
    """Reject a seed or tolerance no check can use."""
    seed = getattr(args, "seed", 0)
    if seed < 0:
        raise ParseError(f"--seed must be non-negative, got {seed}")
    tol = getattr(args, "tol", 0.0)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ParseError(f"--tol must be finite and non-negative, got {tol}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_options(argv[0], argv[1:]) if argv and argv[0] in OPTIONS else None
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        _check_numbers(args)
        # Arithmetic that overflows far out is an error, not a warning and
        # a residual read off inf or nan.
        with np.errstate(over="raise", invalid="raise"):
            report, pts, skipped, extra = args.func(args)
        if report is None:
            return 0
        doc = write_report(args.report, args.spec, pts, report, args.seed, skipped, extra)
    # numpy raises MemoryError for an array too large to allocate, such as
    # the grid of an oversized tt2d --grid.
    except (FrobCdvError, FloatingPointError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    print(f"summary: {'PASS' if doc['summary']['pass'] else 'FAIL'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

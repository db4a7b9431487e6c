"""Command-line interface: spec ingestion, check orchestration, reports.

Subcommands: verify, cdv, connections, pencil, lowdim, tt2d, catalog.
Exit codes: 0 all checks pass, 1 a check failed, 2 error.
"""

import argparse
import datetime
import json
import sys

import numpy as np

from . import cdv as cdvmod
from . import lowdim as ld
from .canonical import canonical_frame
from .catalog import CATALOG_NAMES, _c, catalog as catalog_entry, load_spec, write_spec
from .errors import FrobCdvError, NotSemisimple, ParseError
from .numerics import DEFAULT_FD_STEP
from .potential import check_homogeneity, check_wdvv
from .report import VerificationReport

SAMPLING_EPS_SS = 0.05  # generous gap so FD stencils stay well-conditioned
RESAMPLE_LIMIT = 10


def _parse_point(text, dim):
    """Parse "re,im;re,im;..." into a complex vector of length dim."""
    parts = [p for p in text.split(";") if p.strip()]
    if len(parts) != dim:
        raise ParseError(f"point has {len(parts)} coordinates, spec has dimension {dim}")
    out = np.zeros(dim, dtype=complex)
    for i, part in enumerate(parts):
        nums = part.split(",")
        if len(nums) != 2:
            raise ParseError(f"coordinate {part!r} is not of the form re,im")
        out[i] = complex(float(nums[0]), float(nums[1]))
    return out


def _draw_point(rng, dim):
    r = np.sqrt(rng.uniform(0.0, 1.0, dim))
    th = rng.uniform(0.0, 2.0 * np.pi, dim)
    return r * np.exp(1j * th)


def sample_points(spec, n, seed, require_semisimple=True):
    """Seeded points on the unit polydisk, resampled off the discriminant.

    Returns (points, skipped) where skipped counts draws that stayed too
    close to the non-semi-simple locus after the retry budget.
    """
    rng = np.random.default_rng(seed)
    points, skipped = [], 0
    for _ in range(n):
        for _attempt in range(RESAMPLE_LIMIT):
            t = _draw_point(rng, spec.dim)
            if not require_semisimple:
                points.append(t)
                break
            try:
                canonical_frame(spec, t, eps_ss=SAMPLING_EPS_SS)
            except FrobCdvError:
                continue
            points.append(t)
            break
        else:
            skipped += 1
    return points, skipped


def aggregate(reports):
    """Merge per-point reports: per name, the worst residual."""
    merged = {}
    order = []
    for rep in reports:
        for e in rep.entries:
            if e.name not in merged:
                merged[e.name] = [e.residual, e.tolerance, e.points_checked]
                order.append(e.name)
            else:
                slot = merged[e.name]
                slot[0] = max(slot[0], e.residual)
                slot[2] += e.points_checked
    out = VerificationReport()
    for name in order:
        res, tol, npts = merged[name]
        out.add(name, res, tol, points_checked=npts)
    return out


def _matrix_json(M):
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[_c(z) for z in row] for row in M]


def write_report(path, spec_path, points, report, seed, fd_step, skipped=0, extra=None):
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
        "summary": {"pass": report.passed, "seed": seed, "fd_step": fd_step},
        "skipped": skipped,
        "timestamp": datetime.datetime.now().isoformat(),
    }
    if extra:
        doc.update(extra)
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return doc


def _load(args):
    return load_spec(args.spec)


def _points_for(spec, args, require_semisimple=True):
    """Points to check; a run that would check none is an error, not a pass."""
    if args.point:
        return [_parse_point(args.point, spec.dim)], 0
    if args.points < 1:
        raise ParseError(f"--points must be at least 1, got {args.points}")
    pts, skipped = sample_points(spec, args.points, args.seed, require_semisimple)
    if not pts:
        raise FrobCdvError(
            f"no semi-simple point found: all {skipped} samples skipped after "
            f"{RESAMPLE_LIMIT} draws each (seed {args.seed})"
        )
    return pts, skipped


def cmd_verify(args):
    spec = _load(args)
    pts, skipped = _points_for(spec, args)
    reports = [check_wdvv(spec, pts, args.tol), check_homogeneity(spec, pts, args.tol)]
    for t in pts:
        frame = canonical_frame(spec, t, fd_step=args.fd_step)
        structure = cdvmod.construct_canonical_cdv(frame, spec.d)
        reports.append(
            cdvmod.verify_cv_axioms(spec, structure, args.tol, fd_step=args.fd_step)
        )
        hd = cdvmod.harmonic_potential(frame, spec.d)
        reports.append(
            cdvmod.verify_harmonic(spec, frame, hd, structure, args.tol,
                                   fd_step=args.fd_step)
        )
    report = aggregate(reports)
    return report, pts, skipped, None


def cmd_cdv(args):
    spec = _load(args)
    pts, skipped = _points_for(spec, args)
    t = pts[0]
    frame = canonical_frame(spec, t, fd_step=args.fd_step)
    structure = cdvmod.construct_canonical_cdv(frame, spec.d)
    hd = cdvmod.harmonic_potential(frame, spec.d)
    extra = {
        "matrices": {
            "K": _matrix_json(structure.K),
            "h": _matrix_json(structure.h),
            "omega": [_matrix_json(w) for w in structure.omega],
            "P": _matrix_json(hd.P),
            "u": [_c(z) for z in frame.u],
        }
    }
    report = cdvmod.verify_cv_axioms(spec, structure, args.tol, fd_step=args.fd_step)
    return report, [t], skipped, extra


def cmd_connections(args):
    spec = _load(args)
    pts, skipped = _points_for(spec, args)
    reports = [
        cdvmod.connection_gap(spec, t, args.tol, fd_step=args.fd_step) for t in pts
    ]
    return aggregate(reports), pts, skipped, None


def cmd_pencil(args):
    spec = _load(args)
    pts, skipped = _points_for(spec, args)
    z_samples = [1.0, 1.0j, 2.0]
    reports = [
        cdvmod.pencil_curvature(spec, t, z_samples, args.tol, fd_step=args.fd_step)
        for t in pts
    ]
    return aggregate(reports), pts, skipped, None


def cmd_lowdim(args):
    spec = _load(args)
    pts, skipped = _points_for(spec, args)
    reports = []
    for t in pts:
        inp = ld.from_canonical(spec, t)
        if spec.dim == 2:
            reports.append(ld.check_m2_relations(inp, args.tol))
        elif spec.dim == 3:
            reports.append(ld.check_m3_relations(inp, args.tol))
        else:
            raise ParseError("lowdim checks support dimensions 2 and 3 only")
        reports.append(ld.check_euler_degree(spec, t, args.tol))
    return aggregate(reports), pts, skipped, None


def cmd_tt2d(args):
    spec = _load(args)
    rect = tuple(float(c) for c in args.rect.split(","))
    if len(rect) != 4:
        raise ParseError("--rect expects x0,y0,x1,y1")
    solution = ld.solve_tt2d(
        spec, rect, args.grid, args.boundary, max_iter=args.max_iter, tol=args.tol,
        raise_on_failure=False,
    )
    pde, inv = ld.tt2d_residual(spec, solution)
    report = VerificationReport()
    report.add("tt2d_solver_residual", solution.residual, args.tol)
    report.add("tt2d_independent_residual", pde, 10.0 * max(solution.residual, args.tol))
    if args.csv:
        ld.write_tt2d_csv(spec, solution, args.csv)
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
    if args.name:
        names = [args.name]
    else:
        names = list(CATALOG_NAMES)
    for name in names:
        spec = catalog_entry(name)
        path = f"{args.out_dir}/{name}.json"
        write_spec(spec, path)
        print(path)
    return None, [], 0, None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frobcdv",
        description="Construct and verify canonical positive CDV-structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_spec=True):
        if needs_spec:
            p.add_argument("--spec", required=True, help="spec JSON file")
        p.add_argument("--points", type=int, default=3, help="number of sample points")
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--tol", type=float, default=1e-5, help="residual tolerance")
        p.add_argument("--fd-step", type=float, default=DEFAULT_FD_STEP,
                       help="finite-difference step")
        p.add_argument("--point", default=None,
                       help='explicit point "re,im;re,im;..." (overrides sampling)')
        p.add_argument("--report", default=None, help="write JSON report here")

    for name, fn in (
        ("verify", cmd_verify),
        ("cdv", cmd_cdv),
        ("connections", cmd_connections),
        ("pencil", cmd_pencil),
        ("lowdim", cmd_lowdim),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("tt2d")
    common(p)
    p.add_argument("--grid", type=int, default=64, help="grid nodes per side")
    p.add_argument("--rect", default="-1,-1,1,1", help="rectangle x0,y0,x1,y1")
    p.add_argument("--boundary", type=float, default=1.0, help="constant boundary h11")
    p.add_argument("--max-iter", type=int, default=50, help="Newton iteration cap")
    p.add_argument("--csv", default=None, help="write the grid as CSV here")
    p.set_defaults(func=cmd_tt2d, tol=1e-10)

    p = sub.add_parser("catalog")
    p.add_argument("--name", default=None, help="emit one entry (default: all)")
    p.add_argument("--out-dir", default=".", help="directory for spec files")
    p.set_defaults(func=cmd_catalog, report=None, seed=0, fd_step=DEFAULT_FD_STEP)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, pts, skipped, extra = args.func(args)
    except FrobCdvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is None:
        return 0
    doc = write_report(
        getattr(args, "report", None), getattr(args, "spec", ""), pts, report,
        getattr(args, "seed", 0), getattr(args, "fd_step", DEFAULT_FD_STEP),
        skipped=skipped, extra=extra,
    )
    for line in report.summary_lines():
        print(line)
    print(f"summary: {'PASS' if doc['summary']['pass'] else 'FAIL'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

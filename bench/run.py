"""frobcdv benchmark: CLI ops in a closed loop, one op in flight.

    python3 bench/run.py --workload pointwise --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``
of that checkout; spec files and reports go to a scratch directory under
``.bench_work/`` that is removed on exit.  Each op calls
``frobcdv.cli.main`` in-process (see ``workloads.py`` for what each
workload runs and why, and for how sampled points are kept away from the
discriminant).  Timed runs stop at the first rotation boundary
after ``--seconds``.

Times are normalised to a reference machine speed, because the machine
this benchmark was built on switches between speed states up to 1.5x apart
(see ``speed.py``).  A reference kernel runs next to every timed interval,
and each interval is scaled by the kernel's reference time over the kernel
times on either side of it.  Raw figures are printed as well.  The process
pins itself to one CPU, so the kernel and the interval it scales, and the
set-up interpreters it starts, run on the same CPU.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over fresh interpreters of ``import frobcdv.cli``
  plus loading the workload's spec files;
- ``ops_per_s``: ops per second of op time;
- ``op_ms.p50``: median op latency;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs ops untraced for half of ``--seconds``, then the same
ops traced (``tracing.py``), and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.  Exit code 0 means a result was printed; 2 means the
benchmark could not run; 3 means the traced run's counters did not move
as the workload requires.

Claims of a gain must also hold on the held-out seed HELD_OUT_SEED, which
is not used while a change is written.
"""

import os

# Pinned before numpy loads: the matrices are at most 8x8 and SuperLU is
# serial, so extra BLAS threads only add noise.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

HELD_OUT_SEED = 904321
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 60

SETUP_SCRIPT = """\
import sys
from time import perf_counter
t0 = perf_counter()
import frobcdv.cli
from frobcdv.catalog import load_spec
for path in sys.argv[1:]:
    load_spec(path)
print(perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (exit code 2, no result)."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(spec_paths):
    """Normalised and raw median set-up time of SETUP_REPEATS fresh interpreters."""
    meter = speed.SpeedMeter("dense")
    meter.sample()
    raw = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, *map(str, spec_paths)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S, check=False,
        )
        if out.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {out.stderr.strip()[-500:]}")
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        meter.sample()
    return statistics.median(meter.normalise(raw)), statistics.median(raw)


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s+)(\S+)")


def measure_imports():
    """Medians of ``python -X importtime`` figures for frobcdv and scipy.optimize."""
    totals, optimize = [], []
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import frobcdv.cli"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S, check=False,
        )
        if out.returncode != 0:
            raise BenchError(f"import of frobcdv.cli failed: {out.stderr.strip()[-500:]}")
        total = opt = 0.0
        for m in _IMPORTTIME.finditer(out.stderr):
            cumulative, indent, name = int(m.group(2)), len(m.group(3)), m.group(4)
            if indent == 1 and name.split(".")[0] == "frobcdv":
                total += cumulative * 1e-6
            if name == "scipy.optimize":
                opt = cumulative * 1e-6
        totals.append(total)
        optimize.append(opt)
    return {"import_s": statistics.median(totals),
            "scipy_optimize_import_s": statistics.median(optimize)}


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def import_package():
    if not (SRC / "frobcdv" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'frobcdv'}")
    sys.path.insert(0, str(SRC))
    import frobcdv.cli

    if Path(frobcdv.__file__).resolve().parent != (SRC / "frobcdv").resolve():
        raise BenchError(f"imported frobcdv from {frobcdv.__file__}, not from {SRC}")
    return frobcdv.cli


class Runner:
    """Generates the seeded op sequence and runs ops with the verdict gate."""

    def __init__(self, cli, workload, seed, work_dir):
        from frobcdv.catalog import catalog

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.specs = {name: catalog(name) for name in workloads.spec_names(workload)}
        self.failures = []
        self.screened = 0
        self._rng = random.Random(seed)
        # Ops are kept once drawn, so a second pass over them (the traced
        # run) repeats the same ops without screening them again.
        self._ops = []

    def gap(self, name, k):
        """Relative eigenvalue gap of the point ``--points 1 --seed k`` samples."""
        from frobcdv.canonical import canonical_frame

        spec = self.specs[name]
        points, _ = self.cli.sample_points(spec, 1, k)
        if not points:
            return 0.0
        u = canonical_frame(spec, points[0]).u
        gap = np.min(np.abs(u[:, None] - u[None, :]) + np.diag(np.full(len(u), np.inf)))
        return float(gap) / (1.0 + float(np.max(np.abs(u))))

    def op(self, index):
        """The calls of op number ``index`` of this seed, one list per spec."""
        while len(self._ops) <= index:
            groups, screened = workloads.make_op(
                self.workload, len(self._ops), self._rng, self.work_dir, self.gap)
            self._ops.append(groups)
            self.screened += screened
        return self._ops[index]

    def screen_line(self):
        drawn = len(self._ops) + self.screened
        return (f"screened out {self.screened} of {drawn} seed draws "
                f"(relative gap < {workloads.MIN_REL_GAP})")

    def _invoke(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return self.cli.main(argv)
            except SystemExit as exc:
                return exc.code
            except Exception as exc:  # an op that raises is a failed op
                return f"raised {type(exc).__name__}: {exc}"

    def run_op(self, groups, meter=None):
        """Run one op; return its seconds per spec.  Failed verdicts are recorded.

        With a ``meter``, the reference kernel runs after each spec's calls.
        """
        calls = [call for group in groups for call in group]
        for call in calls:
            with contextlib.suppress(FileNotFoundError):
                os.remove(call.report)
        codes, seconds = [], []
        for group in groups:
            t0 = perf_counter()
            for call in group:
                codes.append(self._invoke(call.argv))
            seconds.append(perf_counter() - t0)
            if meter is not None:
                meter.sample()
        for call, code in zip(calls, codes):
            reason = workloads.check_call(call, code)
            if reason is not None:
                self.failures.append(f"{' '.join(call.argv[:5])}: {reason}")
                break
        return seconds

    def timed(self, seconds=None, count=None, before_op=None, warm_up=True):
        """Warm up on the first rotation, then run whole rotations.

        Stops after ``count`` ops, or at the first rotation boundary once
        ``seconds`` have passed.  Without ``warm_up`` the first rotation is
        skipped, so the timed ops are the same either way.  The workload's
        reference kernel runs before the first timed op and after the calls
        on each spec, and each spec's calls are scaled by the kernel times
        on either side of them (see ``speed.py``): an op of ``pencil`` runs
        on three specs for over two seconds, and the machine's speed moves
        within that time.  Returns (raw op seconds, normalised op seconds,
        attempted ops, failed ops); warm-up ops count as attempted but are
        not timed.
        """
        cycle = workloads.cycle_length(self.workload)
        failed_before = len(self.failures)
        if warm_up:
            for index in range(cycle):
                self.run_op(self.op(index))
        per_spec = []
        meter = speed.SpeedMeter(workloads.SPEED_KERNEL[self.workload])
        meter.sample()
        t0 = perf_counter()
        while True:
            done = len(per_spec)
            if count is not None and done >= count:
                break
            if count is None and done % cycle == 0 and perf_counter() - t0 >= seconds:
                break
            if before_op is not None:
                before_op(done)
            per_spec.append(self.run_op(self.op(cycle + done), meter))
        scaled = iter(meter.normalise([t for op in per_spec for t in op]))
        raw = [sum(op) for op in per_spec]
        norm = [sum(next(scaled) for _ in op) for op in per_spec]
        attempted = len(raw) + (cycle if warm_up else 0)
        return raw, norm, attempted, len(self.failures) - failed_before


def tail(latencies):
    """(value, percentile) of the highest percentile with ten ops beyond it."""
    n = len(latencies)
    if n < 20:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def end_to_end(runner, seconds, spec_paths):
    raw, norm, attempted, failed = runner.timed(seconds=seconds)
    setup, setup_raw = measure_setup(spec_paths)
    n = len(raw)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (n / sum(norm), "1/s"),
        "op_ms.p50": (1e3 * statistics.median(norm), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_values = {
        "setup_s": setup_raw,
        "ops_per_s": n / sum(raw),
        "op_ms.p50": 1e3 * statistics.median(raw),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "op_ms.p50": f"n={n}",
    }
    lines = [f"{runner.workload} seed {runner.seed}: {n} ops timed, "
             f"{attempted} attempted with warm-up, {failed} failed"]
    for name, (value, unit) in metrics.items():
        extra = [notes[name]] if name in notes else []
        if name in raw_values:
            extra.append(f"raw {raw_values[name]:.6g}")
        lines.append(f"{name:<12} = {value:.6g} {unit}  ({', '.join(extra)})"
                     if extra else f"{name:<12} = {value:.6g} {unit}")
    t = tail(norm)
    if t is None:
        lines.append(f"op_ms.tail   = not reported ({n} ops are too few)")
    else:
        lines.append(f"op_ms.tail   = {1e3 * t[0]:.6g} ms  (p{t[1]:.1f}, 10 ops beyond, n={n})")
    lines.append(f"fail_ratio   = {failed / attempted:.6g}  ({failed}/{attempted})")
    return metrics, attempted, failed, lines


def per_layer(runner, seconds):
    # Half the time each, so a traced run takes about as long as an untraced one.
    _, untraced, attempted, failed = runner.timed(seconds=seconds / 2)
    n = len(untraced)
    tracer = tracing.Tracer().install()
    try:
        def mark(i):
            tracer.op = i

        raw, traced, traced_attempted, traced_failed = runner.timed(
            count=n, before_op=mark, warm_up=False)
    finally:
        tracer.remove()
    tracer.check_activity(runner.workload)
    setup = measure_imports()
    metrics = tracing.layer_metrics(tracer, n, sum(raw), setup)
    metrics["trace.overhead"] = (sum(traced) / sum(untraced) - 1.0, "ratio")
    lines = [f"{runner.workload} seed {runner.seed}: the same {n} ops untraced "
             f"({failed} failed) and traced ({traced_failed} failed)"]
    lines += [f"{name:<40} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, attempted + traced_attempted, failed + traced_failed, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and its children (see the module docstring).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        cli = import_package()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from frobcdv.catalog import catalog, write_spec

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        spec_paths = []
        for name in workloads.spec_names(args.workload):
            path = work / f"{name}.json"
            write_spec(catalog(name), str(path))
            spec_paths.append(path)
        runner = Runner(cli, args.workload, args.seed, str(work))
        if args.trace:
            metrics, attempted, failed, lines = per_layer(runner, args.seconds)
        else:
            metrics, attempted, failed, lines = end_to_end(runner, args.seconds, spec_paths)
        env = environment()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except tracing.TraceSanityError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    for reason in runner.failures[:5]:
        print(f"failed op: {reason}", file=sys.stderr)
    for line in lines + [runner.screen_line()]:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters around the public entry points of each layer.

The tracer changes no file of the package: it replaces module attributes
while it is installed and puts the originals back when it is removed.  A
function is replaced in its defining module and in every loaded
``frobcdv`` module that imported it by name, so both ``mod.f(...)`` and
``from mod import f`` call sites are seen.  A layer entry point that no
longer exists stops the traced run with an error instead of reading zero.
"""

import importlib
import itertools
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute); the spec is the first argument of each.
LAYER_SPANS = (
    ("cli.sample_points", "frobcdv.cli", "sample_points"),
    ("canonical.canonical_frame", "frobcdv.canonical", "canonical_frame"),
    ("cdv.verify_cv_axioms", "frobcdv.cdv", "verify_cv_axioms"),
    ("cdv.verify_harmonic", "frobcdv.cdv", "verify_harmonic"),
    ("cdv.connection_gap", "frobcdv.cdv", "connection_gap"),
    ("cdv.pencil_curvature", "frobcdv.cdv", "pencil_curvature"),
    ("lowdim.from_canonical", "frobcdv.lowdim", "from_canonical"),
    ("lowdim.check_euler_degree", "frobcdv.lowdim", "check_euler_degree"),
    ("lowdim.solve_tt2d", "frobcdv.lowdim", "solve_tt2d"),
    ("lowdim.tt2d_residual", "frobcdv.lowdim", "tt2d_residual"),
)

# Every eigen-solver of numpy.linalg counts as one eigendecomposition.
EIG_ENTRY_POINTS = ("eig", "eigh", "eigvals", "eigvalsh")

# Factor, solve and Krylov entry points of scipy.sparse.linalg.
SPARSE_ENTRY_POINTS = (
    "spsolve", "splu", "spilu", "factorized", "spsolve_triangular",
    "gmres", "lgmres", "gcrotmk", "bicg", "bicgstab", "cg", "cgs",
    "minres", "qmr", "tfqmr",
)

# Counters and spans each workload must move, and counters it must not.
EXPECTED_ACTIVITY = {
    "pointwise": {
        "nonzero": ("eig", "third_derivatives", "cli.sample_points",
                    "canonical.canonical_frame", "cdv.verify_cv_axioms",
                    "cdv.verify_harmonic", "cdv.connection_gap",
                    "lowdim.from_canonical", "lowdim.check_euler_degree"),
        "zero": ("sparse",),
    },
    "pencil": {
        "nonzero": ("eig", "third_derivatives", "cli.sample_points",
                    "cdv.pencil_curvature"),
        "zero": ("sparse",),
    },
    "tt2d": {
        "nonzero": ("sparse", "lowdim.solve_tt2d", "lowdim.tt2d_residual"),
        "zero": ("eig",),
    },
}

# Layers split by spec dimension, and the per-call quantities each reports.
SPLIT_LAYERS = (
    ("canonical.canonical_frame", ("ms", "eigs")),
    ("cdv.verify_cv_axioms", ("ms", "eigs", "margin")),
    ("cdv.verify_harmonic", ("ms", "eigs")),
    ("cdv.connection_gap", ("ms", "eigs")),
    ("cdv.pencil_curvature", ("ms", "eigs", "margin")),
    ("lowdim.from_canonical", ("ms", "eigs")),
    ("lowdim.check_euler_degree", ("ms",)),
)
DIMS = (2, 3)
UNITS = {"ms": "ms", "eigs": "count", "margin": "ratio"}


class TraceSanityError(RuntimeError):
    """A counter reads zero where its workload must move it, or the reverse."""


@dataclass
class Span:
    name: str
    op: int
    parent: int
    start: float
    end: float = 0.0
    dim: int = 0
    eigs: int = 0
    raised: bool = False
    info: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


def _margin(report):
    """Tolerance over residual for the worst entry (None if all are exact)."""
    ratios = [e.tolerance / e.residual for e in report.entries if e.residual > 0]
    return min(ratios) if ratios else None


SPAN_INFO = {
    "cli.sample_points": lambda result: {"points": len(result[0])},
    "cdv.verify_cv_axioms": lambda report: {"margin": _margin(report)},
    "cdv.pencil_curvature": lambda report: {"margin": _margin(report)},
    "lowdim.solve_tt2d": lambda solution: {"iterations": solution.iterations},
}


class _CountingFactor:
    """Proxy for a sparse factor object whose ``solve`` calls are counted."""

    def __init__(self, factor, tracer):
        self._factor = factor
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer._sparse_call(self._factor.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._factor, name)


class Tracer:
    """Records spans and counters while installed; one op in flight."""

    def __init__(self):
        self.spans = {}
        self.counts = {"eig": 0, "third_derivatives": 0, "sparse": 0}
        self.eig_s = 0.0
        self.sparse_s = 0.0
        self.op = -1
        self._ids = itertools.count()
        self._stack = []
        self._sparse_depth = 0
        self._undo = []

    # -- installation -------------------------------------------------------

    def _replace(self, owner, name, make):
        if not hasattr(owner, name):
            raise TraceSanityError(f"{owner.__name__}.{name} no longer exists")
        original = getattr(owner, name)
        wrapped = make(original)
        targets = [owner] + [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name.startswith("frobcdv") and mod is not owner
            and getattr(mod, name, None) is original
        ]
        for mod in targets:
            self._undo.append((mod, name, original))
            setattr(mod, name, wrapped)

    def install(self):
        for prefix, module, attr in LAYER_SPANS:
            self._replace(importlib.import_module(module), attr,
                          lambda fn, prefix=prefix: self._span_wrapper(prefix, fn))
        self._replace(importlib.import_module("frobcdv.potential"), "third_derivatives",
                      self._count_wrapper)
        for attr in EIG_ENTRY_POINTS:
            self._replace(np.linalg, attr, self._eig_wrapper)
        spla = importlib.import_module("scipy.sparse.linalg")
        for attr in SPARSE_ENTRY_POINTS:
            if hasattr(spla, attr):
                self._replace(spla, attr,
                              lambda fn, attr=attr: self._sparse_wrapper(attr, fn))
        return self

    def remove(self):
        while self._undo:
            mod, name, original = self._undo.pop()
            setattr(mod, name, original)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        info = SPAN_INFO.get(name)

        def wrapped(*args, **kwargs):
            spec = args[0] if args else kwargs.get("spec")
            span = Span(name, self.op, self._stack[-1] if self._stack else -1,
                        perf_counter(), dim=getattr(spec, "dim", 0))
            sid = next(self._ids)
            self._stack.append(sid)
            eigs = self.counts["eig"]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = perf_counter()
                span.eigs = self.counts["eig"] - eigs
                self._stack.pop()
                self.spans[sid] = span
            if info is not None:
                span.info = info(result)
            return result

        return wrapped

    def _count_wrapper(self, fn):
        def wrapped(*args, **kwargs):
            self.counts["third_derivatives"] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _eig_wrapper(self, fn):
        def wrapped(*args, **kwargs):
            self.counts["eig"] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.eig_s += perf_counter() - t0

        return wrapped

    def _sparse_call(self, fn, args, kwargs):
        if self._sparse_depth:
            return fn(*args, **kwargs)
        self.counts["sparse"] += 1
        self._sparse_depth += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.sparse_s += perf_counter() - t0
            self._sparse_depth -= 1

    def _sparse_wrapper(self, attr, fn):
        def wrapped(*args, **kwargs):
            result = self._sparse_call(fn, args, kwargs)
            if attr in ("splu", "spilu"):
                return _CountingFactor(result, self)
            if attr == "factorized":
                return lambda b: self._sparse_call(result, (b,), {})
            return result

        return wrapped

    # -- results ------------------------------------------------------------

    def calls(self, name, dim=None):
        """Spans of calls to ``name`` that returned (a draw that sampling
        rejects raises out of ``canonical_frame`` and is left out)."""
        return [s for s in self.spans.values()
                if s.name == name and not s.raised and (dim is None or s.dim == dim)]

    def check_activity(self, workload):
        """Raise TraceSanityError unless the workload moved what it must."""
        rules = EXPECTED_ACTIVITY[workload]

        def amount(key):
            return self.counts[key] if key in self.counts else len(self.calls(key))

        dead = [k for k in rules["nonzero"] if amount(k) == 0]
        live = [k for k in rules["zero"] if amount(k) != 0]
        if dead or live:
            raise TraceSanityError(
                f"{workload}: expected activity in {dead or '-'}, "
                f"expected none in {live or '-'}"
            )


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer, n_ops, op_seconds, setup):
    """Every per-layer metric but ``trace.overhead``, as {name: (value, unit)}.

    ``op_seconds`` is the traced ops' total time; ``setup`` holds the
    import times read from ``python -X importtime``.
    """
    out = {}
    sampling = tracer.calls("cli.sample_points")
    points = sum(s.info["points"] for s in sampling)
    out["cli.sample_points.ms"] = (1e3 * _median([s.seconds for s in sampling]), "ms")
    out["cli.sample_points.eigs_per_point"] = (
        sum(s.eigs for s in sampling) / points if points else 0.0, "count")
    out["potential.third_derivatives.per_op"] = (
        tracer.counts["third_derivatives"] / n_ops, "count")
    out["numerics.eig.per_op"] = (tracer.counts["eig"] / n_ops, "count")
    out["numerics.eig.time_share"] = (tracer.eig_s / op_seconds, "ratio")
    for name, quantities in SPLIT_LAYERS:
        for dim in DIMS:
            spans = tracer.calls(name, dim)
            for q in quantities:
                if q == "ms":
                    value = 1e3 * _median([s.seconds for s in spans])
                elif q == "eigs":
                    value = _mean([s.eigs for s in spans])
                else:
                    margins = [s.info["margin"] for s in spans
                               if s.info["margin"] is not None]
                    value = min(margins) if margins else 0.0
                out[f"{name}.{q}.m{dim}"] = (value, UNITS[q])
    solves = tracer.calls("lowdim.solve_tt2d")
    out["lowdim.solve_tt2d.s"] = (_median([s.seconds for s in solves]), "s")
    out["lowdim.newton_iters"] = (_mean([s.info["iterations"] for s in solves]), "count")
    out["lowdim.sparse.calls"] = (tracer.counts["sparse"] / n_ops, "count")
    out["lowdim.sparse.s"] = (tracer.sparse_s / n_ops, "s")
    out["lowdim.tt2d_residual.s"] = (
        _median([s.seconds for s in tracer.calls("lowdim.tt2d_residual")]), "s")
    out["setup.import_s"] = (setup["import_s"], "s")
    out["setup.scipy_optimize_import_s"] = (setup["scipy_optimize_import_s"], "s")
    return out

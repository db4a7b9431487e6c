"""Reference kernels that measure how fast the machine is running now.

The machine this benchmark was built on (a 2-vCPU Intel Xeon VM) switches
between speed states that differ by up to 1.5x and last from a few
seconds to a minute, in wall time and in CPU time alike.  Raw run medians
therefore spread by 15% or more.  A run times a fixed kernel before its
first timed interval and after each one, and scales each interval by the
kernel's reference time over the mean of the two kernel times on either
side of it.  On logged runs this cut the spread of 14-op medians of
``tt2d`` from 16% to 2%, and of 42-op medians of ``pencil`` from 8% to 3%;
scaling whole runs by their median kernel time did about half as well.
Speed also changes within a second.  A ``pencil`` op (three specs, over
two seconds) is therefore scaled spec by spec, with a 40 ms kernel.  On
two sets of ten logged 30 s runs this gave spreads of 5% for the 12-op
median and 2-4% for ops per second, against 7-10% and 7% when scaled op
by op with a 10 ms kernel, and 8-12% and 6-10% unscaled.
The kernels use no code of the package, so a program change moves
normalised times exactly as it moves raw ones.

Each workload uses the kernel whose work resembles its ops:

dense
    3x3 complex ``inv`` and ``einsum`` plus interpreted Python arithmetic,
    like the frame and verifier layers (``pointwise``, ``pencil``, and
    the set-up interpreters).
sparse
    one SuperLU solve of a 126x126-node 5-point operator, the size and
    shape of the ``tt2d`` Newton system, whose time is mostly sparse LU.
"""

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Bound at import, before a tracer can wrap the module attribute, so the
# kernel never shows in the sparse counters.
_spsolve = spla.spsolve

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3))
_T = _rng.standard_normal((3, 3, 3)) + 1j * _rng.standard_normal((3, 3, 3))
DENSE_REPS = 1600


def _dense():
    t0 = perf_counter()
    acc = 0.0
    for i in range(DENSE_REPS):
        inv = np.linalg.inv(_M + i * 1e-3)
        v = np.einsum("i,j,ijk->k", inv[0], inv[1], _T)
        acc += abs(v[0]) + sum(k * k for k in range(40))
    seconds = perf_counter() - t0
    if not np.isfinite(acc):
        raise ArithmeticError("dense reference kernel produced a non-finite value")
    return seconds


def _sparse_system(k=126):
    e = np.ones(k)
    D = sp.diags([e[:-1], -2.0 * e, e[:-1]], [-1, 0, 1]) * (k * k / 4.0)
    eye = sp.identity(k)
    A = 0.25 * (sp.kron(D, eye) + sp.kron(eye, D)) - sp.diags(np.linspace(1.0, 3.0, k * k))
    return A.tocsc(), np.ones(k * k)


def _sparse(A, b):
    t0 = perf_counter()
    x = _spsolve(A, b)
    seconds = perf_counter() - t0
    if not np.all(np.isfinite(x)):
        raise ArithmeticError("sparse reference kernel produced a non-finite value")
    return seconds


class SpeedMeter:
    """Kernel times taken between timed intervals, and the scaling they give.

    Reference times are the kernels' typical times on a 2-vCPU Intel Xeon
    VM (Python 3.11, numpy 2.4, scipy 1.17).
    """

    def __init__(self, kind):
        if kind == "dense":
            self.kernel, self.reference_s = _dense, 0.040
        elif kind == "sparse":
            A, b = _sparse_system()
            self.kernel, self.reference_s = (lambda: _sparse(A, b)), 0.090
        else:
            raise ValueError(f"unknown kernel {kind!r}")
        self.samples = []

    def sample(self):
        self.samples.append(self.kernel())

    def normalise(self, raw):
        """Scale interval ``i`` by the kernel times taken just before and after it."""
        if len(self.samples) != len(raw) + 1:
            raise ValueError("need one kernel sample before each interval and one after the last")
        return [
            seconds * 2.0 * self.reference_s / (before + after)
            for seconds, before, after in zip(raw, self.samples, self.samples[1:])
        ]

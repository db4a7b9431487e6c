"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """A list that gains one entry per eigen-solve call of the frame layer:
    the number of matrices that call decomposed."""
    import frobcdv.canonical as canonical

    calls = []
    solve_eig = canonical.solve_eig

    def counting(M):
        calls.append(len(M) if np.ndim(M) == 3 else 1)
        return solve_eig(M)

    monkeypatch.setattr(canonical, "solve_eig", counting)
    return calls


@pytest.fixture
def third_derivative_calls(monkeypatch):
    """A list that gains one entry per evaluation of the third derivatives
    of F, through any frobcdv module: the number of points evaluated."""
    import sys

    import frobcdv.potential as potential

    calls = []
    third_derivatives = potential.third_derivatives

    def counting(spec, t):
        calls.append(len(t) if np.ndim(t) == 2 else 1)
        return third_derivatives(spec, t)

    for name, module in list(sys.modules.items()):
        if (name.startswith("frobcdv")
                and getattr(module, "third_derivatives", None) is third_derivatives):
            monkeypatch.setattr(module, "third_derivatives", counting)
    return calls

"""Shared fixtures."""

import collections
import sys

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
def derivative_calls(monkeypatch):
    """A dict from each order to a list that gains one entry per evaluation
    of the partials of F of that order, through any frobcdv module: the
    number of points evaluated."""
    import frobcdv.potential as potential

    calls = collections.defaultdict(list)
    symmetric_derivatives = potential._symmetric_derivatives

    def counting(terms, m, t, order):
        calls[order].append(len(t) if np.ndim(t) == 2 else 1)
        return symmetric_derivatives(terms, m, t, order)

    monkeypatch.setattr(potential, "_symmetric_derivatives", counting)
    return calls


@pytest.fixture
def invert_calls(monkeypatch):
    """A list that gains the name of the matrix at each guarded inversion
    (numerics.invert), through any frobcdv module."""
    import frobcdv.numerics as numerics

    calls = []
    invert = numerics.invert

    def counting(M, name="matrix", points=None):
        calls.append(name)
        return invert(M, name, points)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("frobcdv") and getattr(module, "invert", None) is invert:
            monkeypatch.setattr(module, "invert", counting)
    return calls

"""Shared fixtures."""

import collections

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

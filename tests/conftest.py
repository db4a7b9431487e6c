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

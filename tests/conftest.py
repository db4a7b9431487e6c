"""Shared fixtures."""

import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """A list that gains one entry per eigendecomposition of the frame layer."""
    import frobcdv.canonical as canonical

    calls = []
    solve_eig = canonical.solve_eig

    def counting(M):
        calls.append(1)
        return solve_eig(M)

    monkeypatch.setattr(canonical, "solve_eig", counting)
    return calls

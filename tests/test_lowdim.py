"""Tests for the dimension-2/3 relation systems and the 2d PDE solver."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from frobcdv import (
    A3_POINT,
    LowDimInput,
    NoConvergence,
    NotNormalForm,
    ValidationError,
    catalog,
    check_euler_degree,
    check_m2_relations,
    check_m3_relations,
    flat_metric,
    from_canonical,
    invariant_boundary,
    solve_tt2d,
    tt2d_residual,
    write_spec,
    write_tt2d_csv,
)
from frobcdv.cli import main
from frobcdv.lowdim import (
    _fppp_sq,
    _omega_antisymmetry,
    _lap4_1d,
    _laplacian_matrix,
    _residual4,
    _source_jacobian,
    residual_grid,
)
from frobcdv.potential import third_derivatives

QPT = (0.0, 1.0)


def _inp(m, h, omega=None, C3=None, degrees=None, d=0.0):
    return LowDimInput(
        m=m,
        h=np.asarray(h, dtype=complex),
        omega=np.zeros((m, m, m), dtype=complex) if omega is None else omega,
        C3=np.zeros((m, m, m), dtype=complex) if C3 is None else C3,
        degrees=degrees or tuple([1.0] * m),
        d=d,
    )


def test_m2_positive_diagonal_branch():
    rep = check_m2_relations(_inp(2, np.diag([2.0, 0.5])), 1e-12)
    assert rep.passed
    assert rep["m2_positive_diagonal"].residual == 0.0


def test_m2_antidiagonal_phase():
    theta = 0.7
    h = np.array([[0.0, np.exp(1j * theta)], [np.exp(-1j * theta), 0.0]])
    rep = check_m2_relations(_inp(2, h), 1e-12)
    assert rep.passed
    with pytest.raises(KeyError):  # branch not triggered
        rep["m2_positive_diagonal"]


def test_m2_violating_pairing():
    rep = check_m2_relations(_inp(2, np.diag([2.0, 2.0])), 1e-12)
    assert rep["m2_kappa_relation_1"].residual == pytest.approx(3.0)
    assert not rep.passed


def test_m2_wrong_dimension_rejected():
    with pytest.raises(NotNormalForm):
        check_m2_relations(_inp(3, np.eye(3)), 1e-12)


def test_m2_from_construction():
    spec = catalog("quartic2")
    for t in [QPT, (0.2 + 0.1j, 0.8 - 0.3j)]:
        rep = check_m2_relations(from_canonical(spec, t), 1e-9)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert rep["m2_positive_diagonal"].passed


def test_m3_antidiagonal_identity():
    h = np.fliplr(np.eye(3))
    rep = check_m3_relations(_inp(3, h), 1e-12)
    assert rep.passed


def test_m3_from_construction():
    spec = catalog("a3_3d")
    rep = check_m3_relations(from_canonical(spec, A3_POINT), 1e-9)
    assert rep.passed, "\n".join(rep.summary_lines())


def test_m3_detects_perturbed_pairing():
    inp = from_canonical(catalog("a3_3d"), A3_POINT)
    h_bad = inp.h.copy()
    h_bad[0, 0] *= 1.1
    rep = check_m3_relations(dataclasses.replace(inp, h=h_bad), 1e-9)
    assert not rep.passed
    assert max(e.residual for e in rep.entries) > 0.01


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT), ("p1", (0.2, 0.4))])
def test_omega_antisymmetry_matches_loop(name, t):
    inp = from_canonical(catalog(name), t)
    rng = np.random.default_rng(5)
    for omega in (inp.omega, inp.omega + 1e-3 * rng.normal(size=inp.omega.shape)):
        m = inp.m
        loop = max(
            abs(omega[k, i, j] + omega[k, m - 1 - j, m - 1 - i])
            for k in range(m) for i in range(m) for j in range(m)
        )
        assert _omega_antisymmetry(dataclasses.replace(inp, omega=omega)) == loop


def test_euler_degree_scaling():
    assert check_euler_degree(catalog("quartic2"), QPT, 1e-10).passed
    assert check_euler_degree(catalog("a3_3d"), A3_POINT, 1e-10).passed
    assert check_euler_degree(catalog("p1"), (0.1, 0.4 + 0.2j), 1e-10).passed


@pytest.mark.parametrize("name,t", [("quartic2", QPT), ("a3_3d", A3_POINT)])
def test_from_canonical_evaluates_third_derivatives_once(third_derivative_calls, name, t):
    # LowDimInput.C3 is the C_ijk the frame was built from.
    spec = catalog(name)
    flat_metric(spec)  # cached once per spec; not part of the count
    third_derivative_calls.clear()
    inp = from_canonical(spec, t)
    assert third_derivative_calls == [1]
    assert np.allclose(inp.C3, third_derivatives(spec, t), rtol=1e-14, atol=0.0)


def test_normal_form_required():
    spec = dataclasses.replace(catalog("quartic2"), normal_form=False)
    with pytest.raises(NotNormalForm):
        from_canonical(spec, QPT)
    with pytest.raises(NotNormalForm):
        check_euler_degree(spec, QPT, 1e-10)


def test_tt2d_constant_source_exact():
    # f''' is the constant 1, so h_11 = 1 solves the equation exactly and
    # the solver should accept the initial iterate.
    spec = catalog("cubic2")
    sol = solve_tt2d(spec, (-1.0, -1.0, 1.0, 1.0), 33, 1.0)
    assert sol.converged
    assert sol.iterations == 0
    assert sol.residual == 0.0
    assert np.max(np.abs(sol.h11 - 1.0)) == 0.0


def test_tt2d_exponential_source():
    spec = catalog("p1")
    rect = (-1.0, -1.0, 1.0, 1.0)
    sol = solve_tt2d(spec, rect, 33, invariant_boundary(spec, rect, 33))
    assert sol.converged
    assert sol.residual <= 1e-10
    pde, inv = tt2d_residual(spec, sol)
    assert pde <= 10.0 * max(sol.residual, 1e-10)
    assert inv <= 1e-4


def test_tt2d_independent_residual_detects_perturbation():
    spec = catalog("cubic2")
    sol = solve_tt2d(spec, (-1.0, -1.0, 1.0, 1.0), 17, 1.0)
    bad = dataclasses.replace(sol, h11=sol.h11 * 1.1)
    pde, _ = tt2d_residual(spec, bad)
    assert pde > 0.01


def test_tt2d_boundary_must_be_positive():
    with pytest.raises(ValidationError):
        solve_tt2d(catalog("cubic2"), (-1.0, -1.0, 1.0, 1.0), 9, -1.0)


@pytest.mark.parametrize("boundary", [
    np.ones((9, 9)), "1.0", None, np.inf, np.nan, lambda X, Y: np.full_like(X, np.inf), 1e300,
])
def test_tt2d_rejects_bad_boundary(boundary):
    # A boundary is a finite positive number or a callable giving such
    # values; 1e300 overflows e^{2v} at the initial iterate.
    with pytest.raises(ValidationError):
        solve_tt2d(catalog("cubic2"), (-1.0, -1.0, 1.0, 1.0), 9, boundary)


def test_tt2d_iteration_cap():
    spec = catalog("p1")
    with pytest.raises(NoConvergence):
        solve_tt2d(spec, (-1.0, -1.0, 1.0, 1.0), 17, 1.0, max_iter=1)
    sol = solve_tt2d(
        spec, (-1.0, -1.0, 1.0, 1.0), 17, 1.0, max_iter=1, raise_on_failure=False
    )
    assert not sol.converged
    assert sol.iterations == 1


def test_tt2d_csv_round_trip(tmp_path):
    spec = catalog("cubic2")
    sol = solve_tt2d(spec, (-1.0, -1.0, 1.0, 1.0), 9, 1.0)
    path = tmp_path / "grid.csv"
    write_tt2d_csv(spec, sol, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,h11,residual"
    assert len(lines) == 1 + 9 * 9
    x, y, h11, res = (float(v) for v in lines[1].split(","))
    assert (x, y) == (-1.0, -1.0)
    assert h11 == 1.0 and res == 0.0


@pytest.mark.parametrize("n", [4, 5, 6, 17])
def test_tt2d_jacobian_matches_residual_derivative(n):
    # n = 4 has only first-ring rows (3-point formula); from n = 5 on the
    # deep rows use the 5-point-wide formula.
    rng = np.random.default_rng(n)
    hx, hy = 0.3, 0.2
    v = 0.5 * rng.standard_normal((n, n))
    c2 = rng.uniform(0.5, 2.0, (n, n))
    J = 0.25 * _laplacian_matrix(n, hx, hy, wide=True) + _source_jacobian(v, c2)
    delta = np.zeros((n, n))
    delta[1:-1, 1:-1] = rng.standard_normal((n - 2, n - 2))
    eps = 1e-6
    fd = (_residual4(v + eps * delta, c2, hx, hy)
          - _residual4(v - eps * delta, c2, hx, hy)) / (2 * eps)
    exact = J @ delta[1:-1, 1:-1].ravel()
    assert np.max(np.abs(exact - fd.ravel())) <= 1e-6 * np.max(np.abs(exact))


class _CountingSplu:
    """Stands in for scipy's splu and counts factors and their solves."""

    def __init__(self, splu):
        self.splu = splu
        self.factors = 0
        self.solves = 0

    def __call__(self, *args, **kwargs):
        self.factors += 1
        lu = self.splu(*args, **kwargs)

        def solve(b):
            self.solves += 1
            return lu.solve(b)

        return SimpleNamespace(solve=solve)


@pytest.fixture
def counting_splu(monkeypatch):
    counter = _CountingSplu(spla.splu)
    monkeypatch.setattr(spla, "splu", counter)
    return counter


def test_tt2d_newton_iterations(counting_splu):
    spec = catalog("p1")
    rect = (-1.0, -1.0, 1.0, 1.0)
    sol = solve_tt2d(spec, rect, 128, 1.0)
    assert sol.converged and sol.iterations == 4
    # The source diagonal hardly moves on p1: one LU serves every step.
    assert sol.factorizations == counting_splu.factors == 1
    # The round-off floor lies far below tol here, so it stops no step.
    assert sol.residual <= 1e-10 and sol.floor <= 0.1 * 1e-10
    sol = solve_tt2d(spec, rect, 64, invariant_boundary(spec, rect, 64))
    assert sol.converged and sol.iterations <= 6


def test_tt2d_stops_at_roundoff_floor(tmp_path):
    # On (0, 0, 16, 1) the source |f'''|^2 = e^{2x} of p1 reaches e^32,
    # and the residual's round-off floor (~1e-8) lies above tol = 1e-10.
    # Newton used to stall in the line search at 2.8e-9 and raise
    # NonPositiveIterate; the CLI reported a failed solve.
    spec = catalog("p1")
    rect = (0.0, 0.0, 16.0, 1.0)
    sol = solve_tt2d(spec, rect, 33, invariant_boundary(spec, rect, 33))
    assert sol.converged and 1e-10 < sol.residual <= sol.floor
    pde, _ = tt2d_residual(spec, sol)
    assert pde <= 10.0 * sol.residual
    path = tmp_path / "p1.json"
    write_spec(spec, path)
    report = tmp_path / "report.json"
    argv = ["tt2d", "--spec", str(path), "--rect", "0,0,16,1", "--grid", "33",
            "--report", str(report)]
    assert main(argv) == 0
    check = json.loads(report.read_text())["checks"][0]
    assert check["name"] == "tt2d_solver_residual"
    assert 1e-10 < check["residual"] <= check["tolerance"] < 1e-7


# h11 of quartic2 on (0, 0, 3, 1), boundary 5, n = 64, from the solver
# that refactored the preconditioner on every Newton step.
QUARTIC2_HARD_H11 = {
    (1, 1): 4.248656097838398,
    (10, 40): 0.2298325799900786,
    (32, 32): 0.1610633208650354,
    (55, 20): 0.12568413216393473,
    (62, 62): 0.5713548906074448,
}


def test_tt2d_refactors_on_diagonal_drift(counting_splu):
    sol = solve_tt2d(catalog("quartic2"), (0.0, 0.0, 3.0, 1.0), 64, 5.0)
    assert sol.converged and sol.iterations == 11
    assert 1 < sol.factorizations == counting_splu.factors < 11
    # A factor kept past a large drift costs thousands of GMRES steps
    # (2466 preconditioner solves with one factor for the whole solve).
    assert counting_splu.solves <= 150
    for node, h11 in QUARTIC2_HARD_H11.items():
        assert sol.h11[node] == pytest.approx(h11, rel=1e-12)


def test_tt2d_residual_agrees_with_residual_grid():
    # Two independent implementations of the same fourth-order residual,
    # compared on a converged field and on one far from converged.
    spec = catalog("p1")
    rect = (-1.0, -1.0, 1.0, 1.0)
    for max_iter in (50, 1):
        sol = solve_tt2d(spec, rect, 33, 1.0, max_iter=max_iter, raise_on_failure=False)
        pde, _ = tt2d_residual(spec, sol)
        assert pde == pytest.approx(np.max(residual_grid(spec, sol)), rel=1e-12)


@pytest.mark.parametrize("node", [(1, 8), (1, 1), (8, 8), (2, 14)])
def test_tt2d_residual_detects_single_node_perturbation(node):
    spec = catalog("cubic2")
    sol = solve_tt2d(spec, (-1.0, -1.0, 1.0, 1.0), 17, 1.0)
    assert tt2d_residual(spec, sol)[0] == 0.0
    h11 = sol.h11.copy()
    h11[node] *= np.exp(1e-3)
    pde, _ = tt2d_residual(spec, dataclasses.replace(sol, h11=h11))
    assert pde > 0.01


@pytest.mark.parametrize("kwargs", [
    {"n": 2}, {"n": 0}, {"rect": (0.0, 0.0, 0.0, 1.0)}, {"rect": (0.0, 1.0, 1.0, 1.0)},
    {"rect": (0.0, 0.0, np.inf, 1.0)}, {"max_iter": -1},
])
def test_tt2d_rejects_bad_grid(kwargs):
    args = {"rect": (-1.0, -1.0, 1.0, 1.0), "n": 9, "max_iter": 50} | kwargs
    with pytest.raises(ValidationError):
        solve_tt2d(catalog("cubic2"), args["rect"], args["n"], 1.0, max_iter=args["max_iter"])


@pytest.mark.parametrize("name, n", [("quartic2", 256), ("p1", 512)])
def test_invariant_boundary_fine_grid(name, n):
    # tol = 1e-12 is below the residual's round-off floor on these grids;
    # Newton stops at the floor instead of raising.
    spec = catalog(name)
    rect = (-1.0, -1.0, 1.0, 1.0)
    x = np.linspace(-1.0, 1.0, n)
    v = np.log(invariant_boundary(spec, rect, n)(x, 0.0))
    c2 = _fppp_sq(spec, x, np.zeros(n))[1:-1]
    vi = v[1:-1]
    R = 0.25 * _lap4_1d(v, 0, 2.0 / (n - 1)) - np.exp(2 * vi) * c2 + np.exp(-2 * vi)
    assert np.max(np.abs(R)) <= 1e-10


def test_invariant_boundary_divergence_raises():
    spec = catalog("p1")
    with pytest.raises(NoConvergence):
        invariant_boundary(spec, (0.0, 0.0, 200.0, 1.0), 64)
    with pytest.raises(NoConvergence):
        invariant_boundary(spec, (-1.0, -1.0, 1.0, 1.0), 64, max_iter=2)

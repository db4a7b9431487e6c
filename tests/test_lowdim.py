"""Tests for the relation checks at every dimension and the 2d PDE solver."""

import dataclasses
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from frobcdv import (
    A3_POINT,
    LowDimInput,
    NoConvergence,
    NotNormalForm,
    PotentialSpec,
    Singular,
    ValidationError,
    canonical_frame,
    catalog,
    check_euler_degree,
    check_m2_relations,
    check_m3_relations,
    check_relations,
    flat_metric,
    from_canonical,
    invariant_boundary,
    solve_tt2d,
    tt2d_residual,
    wdvv_reduced_m3,
    write_spec,
    write_tt2d_csv,
)
from frobcdv import lowdim
from frobcdv.cli import main, sample_points
from frobcdv.lowdim import (
    _d2_matrix,
    _exponentials,
    _fppp_sq,
    _omega_antisymmetry,
    _lap4_1d,
    _laplacian_matrix,
    _residual4,
    _source_jacobian,
    _transfers,
)
from frobcdv.potential import third_derivatives

QPT = (0.0, 1.0)


def _residual(v, c2, hx, hy):
    """The solver's residual _residual4 at v, with the source grid c2."""
    return _residual4(v, c2[1:-1, 1:-1], _exponentials(v[1:-1, 1:-1]), hx, hy)


def _source_diagonal(v, c2):
    """The solver's Jacobian diagonal _source_jacobian at v, with the
    source grid c2."""
    return _source_jacobian(c2[1:-1, 1:-1], _exponentials(v[1:-1, 1:-1]))


def _inp(m, h, omega=None, C3=None):
    return LowDimInput(
        m=m,
        h=np.asarray(h, dtype=complex),
        omega=np.zeros((m, m, m), dtype=complex) if omega is None else omega,
        C3=np.zeros((m, m, m), dtype=complex) if C3 is None else C3,
    )


def test_m2_positive_diagonal_branch():
    rep = check_m2_relations(_inp(2, np.diag([2.0, 0.5])), 1e-12)
    assert rep.passed
    assert rep["m2_positive_diagonal"].residual == 0.0


def test_m2_antidiagonal_phase():
    # An involution, but indefinite (eigenvalues +-1): not a positive pairing.
    theta = 0.7
    h = np.array([[0.0, np.exp(1j * theta)], [np.exp(-1j * theta), 0.0]])
    rep = check_m2_relations(_inp(2, h), 1e-12)
    assert rep["kappa_involution"].passed
    assert not rep["hermitian_pairing"].passed
    assert not rep["m2_positive_diagonal"].passed


def test_m2_violating_pairing():
    rep = check_m2_relations(_inp(2, np.diag([2.0, 2.0])), 1e-12)
    assert rep["kappa_involution"].residual == pytest.approx(3.0)
    assert not rep.passed


def test_m2_negative_diagonal_fails():
    # diag(-2, -1/2) meets the three relations; only the sign of h_11 tells
    # it from the positive pairing diag(2, 1/2).
    rep = check_m2_relations(_inp(2, np.diag([-2.0, -0.5])), 1e-12)
    assert not rep.passed
    assert rep["m2_positive_diagonal"].residual == 2.0


@pytest.mark.parametrize("name,args", [
    ("p1", ["--point", "0,0;24,0"]),  # h_11 = e^-12, below the default tol 1e-5
    ("quartic2", ["--points", "3", "--seed", "0", "--tol", "0.5"]),
])
def test_m2_diagonal_branch_follows_h_not_tol(tmp_path, name, args):
    spec = tmp_path / f"{name}.json"
    write_spec(catalog(name), spec)
    report = tmp_path / "r.json"
    assert main(["lowdim", "--spec", str(spec), "--report", str(report)] + args) == 0
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["m2_positive_diagonal"]["pass"]


def test_m2_wrong_dimension_rejected():
    with pytest.raises(NotNormalForm):
        check_m2_relations(_inp(3, np.eye(3)), 1e-12)


def test_m3_wrong_dimension_rejected():
    with pytest.raises(NotNormalForm, match="dimension-3 relations need m = 3"):
        check_m3_relations(_inp(2, np.eye(2)), 1e-12)


def test_reduced_wdvv_scalar_needs_dimension_3():
    with pytest.raises(ValidationError, match="defined for dim 3 only"):
        wdvv_reduced_m3(catalog("quartic2"), QPT)


def test_m2_from_construction():
    spec = catalog("quartic2")
    for t in [QPT, (0.2 + 0.1j, 0.8 - 0.3j)]:
        rep = check_m2_relations(from_canonical(spec, t), 1e-9)
        assert rep.passed, "\n".join(rep.summary_lines())
        assert rep["m2_positive_diagonal"].passed


def test_m3_antidiagonal_identity():
    # J itself is an involution, but indefinite (eigenvalues 1, 1, -1).
    h = np.fliplr(np.eye(3))
    rep = check_m3_relations(_inp(3, h), 1e-12)
    assert rep["kappa_involution"].passed
    assert not rep["hermitian_pairing"].passed
    assert [e.name for e in rep.entries if not e.passed] == ["hermitian_pairing"]


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


def _kappa_relations(h):
    """The hand-expanded kappa relations in normal form, which
    check_relations' kappa_involution replaces as a reference: the
    entries of h J h^T - J, those of m = 2 that are a doubled product
    halved."""
    if len(h) == 2:
        return (abs(h[0, 1]) ** 2 + h[0, 0] * h[1, 1] - 1.0, h[0, 0] * h[0, 1],
                h[1, 1] * h[0, 1])
    return (
        h[0, 0] * h[2, 2] + h[0, 1] * h[2, 1] + abs(h[0, 2]) ** 2 - 1.0,
        2.0 * h[1, 0] * h[1, 2] + h[1, 1] ** 2 - 1.0,
        h[0, 0] * h[1, 2] + h[0, 1] * h[1, 1] + h[0, 2] * h[1, 0],
        2.0 * h[0, 0] * h[0, 2] + h[0, 1] ** 2,
        h[0, 1] * h[2, 2] + h[1, 1] * h[1, 2] + h[0, 2] * h[2, 1],
        2.0 * h[0, 2] * h[2, 2] + h[1, 2] ** 2,
    )


@pytest.mark.parametrize("m, low, high", [(2, 1.0, 2.0), (3, 1.0, 1.0)])
def test_kappa_involution_matches_hand_expanded_relations(m, low, high):
    # For Hermitian h, conj(K) K - I = J (h^T J h - J) with K = J h, and
    # h^T J h = conj(h J h^T): the same entries as the relations, up to
    # the factor 2 of m = 2's halved ones.
    rng = np.random.default_rng(26)
    ratios = []
    for _ in range(1000):
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        h = 0.5 * (a + np.conj(a).T)
        new = check_relations(_inp(m, h), 1e-12)["kappa_involution"].residual
        ratios.append(new / max(abs(r) for r in _kappa_relations(h)))
    assert low - 1e-12 <= min(ratios) and max(ratios) <= high + 1e-12


def _residue_spec_m4():
    """C[x]/(x^4 - 2) with the residue pairing, as a normal-form spec:
    F = (1/6) sum c_ijk t_i t_j t_k over i, j, k in 0..3, with c_ijk = 1
    where i + j + k = 3 and 2 where i + j + k = 7, so F = t0^2 t3 / 2 +
    t0 t1 t2 + t1^3 / 6 + t1 t3^2 + t2^2 t3; all degrees 1, d = 0."""
    monomials = [(0.5, (2, 0, 0, 1)), (1.0, (1, 1, 1, 0)), (1.0 / 6.0, (0, 3, 0, 0)),
                 (1.0, (0, 1, 0, 2)), (1.0, (0, 0, 2, 1))]
    return PotentialSpec(dim=4, monomials=tuple((complex(c), p) for c, p in monomials),
                         exponentials=(), degrees=(1.0,) * 4, shifts=(0.0,) * 4, d=0.0,
                         d_F=3.0, normal_form=True)


def test_relations_four_dimensional_mutants_fail_their_check():
    inp = from_canonical(_residue_spec_m4(), (0.3 + 0.1j, 0.7, -0.2 + 0.4j, 0.5j))
    assert check_relations(inp, 1e-9).passed
    h_bad = inp.h.copy()
    h_bad[0, 0] *= 1.1
    omega_bad = inp.omega.copy()
    omega_bad[0, 0, 1] += 1e-3  # its mirror omega[0, 2, 3] stays
    mutants = {
        "kappa_involution": dataclasses.replace(inp, h=h_bad),
        # J is an involution, but indefinite.
        "hermitian_pairing": dataclasses.replace(inp, h=np.eye(4)[::-1].astype(complex)),
        "omega_antisymmetry": dataclasses.replace(inp, omega=omega_bad),
    }
    for name, mutant in mutants.items():
        rep = check_relations(mutant, 1e-9)
        assert not rep[name].passed, name


@pytest.mark.parametrize("name, relations", [
    ("quartic2", ["m2_positive_diagonal"]),
    ("a3_3d", ["m3_dphi_relation_1", "m3_dphi_relation_2", "m3_dphi_relation_3",
               "m3_wdvv_scalar", "m3_implied_relation_23", "m3_implied_relation_13"]),
    ("residue4", []),  # m = 4: the general checks alone
])
def test_lowdim_report_check_names(tmp_path, name, relations):
    # Exit 0: every check passes.
    spec = tmp_path / f"{name}.json"
    write_spec(_residue_spec_m4() if name == "residue4" else catalog(name), spec)
    report = tmp_path / "r.json"
    assert main(["lowdim", "--spec", str(spec), "--report", str(report)]) == 0
    names = [c["name"] for c in json.loads(report.read_text())["checks"]]
    assert names == (["kappa_involution", "hermitian_pairing", "omega_antisymmetry"] + relations
                     + ["euler_degree_relation"])


@pytest.mark.parametrize("name", ["a3_3d", "broken_wdvv"])
def test_m3_wdvv_scalar_is_verify_reduced_scalar(name):
    # One formula on the same third partials, so equal bit for bit; on
    # a3_3d the sampled points of seed 3 read round-off, not 0.
    spec = catalog(name)
    for t in [A3_POINT] + sample_points(spec, 3, 3)[0]:
        rep = check_m3_relations(from_canonical(spec, t), 1e-9)
        assert rep["m3_wdvv_scalar"].residual == wdvv_reduced_m3(spec, t)


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
def test_from_canonical_evaluates_third_derivatives_once(derivative_calls, name, t):
    # LowDimInput.C3 is the C_ijk the frame was built from.
    spec = catalog(name)
    flat_metric(spec)  # cached once per spec; not part of the count
    derivative_calls.clear()
    inp = from_canonical(spec, t)
    assert derivative_calls[3] == [1]
    assert np.allclose(inp.C3, third_derivatives(spec, t), rtol=1e-14, atol=0.0)


def test_normal_form_required():
    spec = dataclasses.replace(catalog("quartic2"), normal_form=False)
    with pytest.raises(NotNormalForm):
        from_canonical(spec, QPT)
    with pytest.raises(NotNormalForm):
        check_euler_degree(spec, QPT, 1e-10)


def test_python_built_normal_form_spec_needs_antidiagonal_metric():
    # F = t1^2 t2 + 2 t2^4 has the metric 2J, which the relation checks
    # would read as J; the spec is not loaded from a file.
    spec = dataclasses.replace(catalog("quartic2"), monomials=((1.0, (2, 1)), (2.0, (0, 4))))
    with pytest.raises(ValidationError, match=re.escape(
            "normal_form needs the metric C_1ij = antidiag(1, ..., 1), got [[0., 2.], [2., 0.]]")):
        from_canonical(spec, (0, 1))


def test_tt2d_needs_a_normal_form_spec(tmp_path, capsys):
    # The equation is derived in normal form: quartic2 unflagged, and
    # F = t1^2 t2 + 2 t2^4 (metric 2J) flagged or not, are refused.
    rect, n = (0.5, -0.5, 1.5, 0.5), 17
    quartic2 = catalog("quartic2")
    scaled = dataclasses.replace(quartic2, monomials=((1.0, (2, 1)), (2.0, (0, 4))),
                                 normal_form=False)
    sol = solve_tt2d(quartic2, rect, n, 1.0)
    for spec, error in ((dataclasses.replace(quartic2, normal_form=False), NotNormalForm),
                        (scaled, NotNormalForm),
                        (dataclasses.replace(scaled, normal_form=True), ValidationError)):
        with pytest.raises(error):
            solve_tt2d(spec, rect, n, 1.0)
        with pytest.raises(error):
            invariant_boundary(spec, rect, n)
        with pytest.raises(error):
            tt2d_residual(spec, sol)
        path = tmp_path / "spec.json"
        write_spec(spec, path)
        assert main(["tt2d", "--spec", str(path), "--grid", str(n),
                     "--rect", ",".join(map(str, rect))]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1


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


def wrong_shape(X, Y):
    return np.ones(3)


def complex_values(X, Y):
    return np.ones_like(X) + 1j


@pytest.mark.parametrize("boundary", [
    np.ones((9, 9)), "1.0", None, np.inf, np.nan, lambda X, Y: np.full_like(X, np.inf), 1e300,
    wrong_shape, complex_values,
])
def test_tt2d_rejects_bad_boundary(boundary):
    # A boundary is a finite positive number or a callable giving such
    # values on the grid; 1e300 overflows e^{2v} at the initial iterate.
    # A callable's values of the wrong shape used to end in a bare numpy
    # ValueError, and complex ones lost their imaginary part to a cast.
    with pytest.raises(ValidationError, match="boundary"):
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


@pytest.mark.parametrize("rect", [(0.0, 0.0, 1e-300, 1.0), (0.0, 0.0, 1.0, 1e-300),
                                  (0.0, 0.0, 1e-160, 1.0), (0.0, 0.0, 1e160, 1.0)])
def test_tt2d_rejects_spacing_out_of_range(rect):
    # h^2 underflows (or 1/h^2 overflows, or h^2 overflows): the stencil
    # would divide by zero or overflow.  One error names the rect and n.
    with pytest.raises(ValidationError) as err:
        solve_tt2d(catalog("cubic2"), rect, 9, 1.0)
    assert str(err.value).startswith(f"rect {rect} ") and " n = 9:" in str(err.value)


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


def _write_csv_loop(spec, solution, path):
    """The writer before it converted each array to Python floats: one
    formatted line per node, kept as the reference."""
    grid = lowdim.residual_grid(spec, solution)
    with open(path, "w") as fh:
        fh.write("x,y,h11,residual\n")
        for i in range(solution.n):
            for j in range(solution.n):
                fh.write(
                    f"{float(solution.x[i])!r},{float(solution.y[j])!r},"
                    f"{float(solution.h11[i, j])!r},{float(grid[i, j])!r}\n"
                )


@pytest.mark.parametrize("name, rect, n", [
    ("cubic2", (-1.0, -1.0, 1.0, 1.0), 9),
    ("p1", (-1.0, -1.0, 1.0, 1.0), 33),
    ("quartic2", (0.5, -0.5, 1.5, 0.5), 65),
])
def test_tt2d_csv_equals_the_loop_writer_byte_for_byte(tmp_path, name, rect, n):
    spec = catalog(name)
    sol = solve_tt2d(spec, rect, n, 1.0)
    write_tt2d_csv(spec, sol, tmp_path / "grid.csv")
    _write_csv_loop(spec, sol, tmp_path / "loop.csv")
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("n", [4, 5, 6, 17])
def test_tt2d_jacobian_matches_residual_derivative(n):
    # n = 4 has only first-ring rows (3-point formula); from n = 5 on the
    # deep rows use the 5-point-wide formula.
    rng = np.random.default_rng(n)
    hx, hy = 0.3, 0.2
    v = 0.5 * rng.standard_normal((n, n))
    c2 = rng.uniform(0.5, 2.0, (n, n))
    J = 0.25 * _laplacian_matrix(n, hx, hy, wide=True) + sp.diags(_source_diagonal(v, c2))
    delta = np.zeros((n, n))
    delta[1:-1, 1:-1] = rng.standard_normal((n - 2, n - 2))
    eps = 1e-6
    fd = (_residual(v + eps * delta, c2, hx, hy)
          - _residual(v - eps * delta, c2, hx, hy)) / (2 * eps)
    exact = J @ delta[1:-1, 1:-1].ravel()
    assert np.max(np.abs(exact - fd.ravel())) <= 1e-6 * np.max(np.abs(exact))


@pytest.mark.parametrize("wide", [True, False])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 17])
def test_laplacian_matrix_matches_kron(n, wide):
    # Oracle: the 2-d operator as the Kronecker sum of the 1-d ones, at
    # hx : hy = 3:2, 16:1 and 1:16.  The matrix is stored by diagonals,
    # so the values are compared, not the stored entries.
    eye = sp.identity(n - 2)
    for aspect in (1.5, 16.0, 1.0 / 16.0):
        hx, hy = 0.2 * aspect, 0.2
        oracle = sp.kron(_d2_matrix(n, hx, wide), eye) + sp.kron(eye, _d2_matrix(n, hy, wide))
        lap = _laplacian_matrix(n, hx, hy, wide)
        assert lap.format == "dia"
        assert np.array_equal(lap.toarray(), oracle.toarray())


def test_tt2d_newton_matrices_are_current(monkeypatch):
    # The solver assembles J and the preconditioner's matrix once, stored
    # by diagonals, and rewrites their main diagonals in place; at every
    # Newton step J must be the exact Jacobian at the current iterate (the
    # one whose residual the step solves for), and each matrix handed to
    # the V-cycle builder the 5-point Jacobian there.  The source diagonal
    # reads the exponentials that the iterate's residual formed: each is
    # traced back to the residual call, and so to the iterate, that made it.
    n, rect = 9, (0.0, 0.0, 3.0, 1.0)
    hx, hy = 3.0 / (n - 1), 1.0 / (n - 1)
    residuals, iterates, steps, built, off_diagonal = [], [], [], [], []
    residual4, source_jacobian = lowdim._residual4, lowdim._source_jacobian
    newton_step, multigrid = lowdim._newton_step, lowdim._Multigrid

    def record_residual(v, c2i, exps, hx, hy):
        residuals.append((v.copy(), c2i, exps))
        return residual4(v, c2i, exps, hx, hy)

    def record_iterate(c2i, exps):
        iterates.append(next((v, c2) for v, c2, made in residuals if made is exps))
        return source_jacobian(c2i, exps)

    def record_jacobian(J, mg, rhs, rtol):
        assert J.format == "dia"
        steps.append((J.toarray(), rhs.copy()))
        off_diagonal.append(J.data[J.offsets != 0].copy())
        return newton_step(J, mg, rhs, rtol)

    def record_build(P, transfers):
        assert P.format == "dia"
        built.append((len(iterates), P.toarray()))
        return multigrid(P, transfers)

    def exact(v, c2i, wide):
        d = source_jacobian(c2i, _exponentials(v[1:-1, 1:-1]))
        return (0.25 * _laplacian_matrix(n, hx, hy, wide=wide) + sp.diags(d)).toarray()

    monkeypatch.setattr(lowdim, "_residual4", record_residual)
    monkeypatch.setattr(lowdim, "_source_jacobian", record_iterate)
    monkeypatch.setattr(lowdim, "_newton_step", record_jacobian)
    monkeypatch.setattr(lowdim, "_Multigrid", record_build)
    sol = solve_tt2d(catalog("quartic2"), rect, n, 5.0)
    assert sol.converged and len(steps) == len(iterates) == sol.iterations
    assert 1 < len(built) < sol.iterations
    for (v, c2i), (J, rhs) in zip(iterates, steps):
        assert np.array_equal(J, exact(v, c2i, wide=True))
        assert np.array_equal(rhs, -residual4(v, c2i, _exponentials(v[1:-1, 1:-1]), hx, hy).ravel())
    for step, P in built:
        assert np.array_equal(P, exact(*iterates[step - 1], wide=False))
    # Only the main-diagonal row of J.data is rewritten.
    assert all(np.array_equal(rows, off_diagonal[0]) for rows in off_diagonal)


class _CountingMultigrid:
    """Stands in for lowdim._Multigrid and counts hierarchies and V-cycles."""

    def __init__(self, multigrid):
        self.multigrid = multigrid
        self.builds = 0
        self.solves = 0

    def __call__(self, P, transfers):
        self.builds += 1
        mg = self.multigrid(P, transfers)

        def solve(b):
            self.solves += 1
            return mg.solve(b)

        return SimpleNamespace(solve=solve)


@pytest.fixture
def counting_multigrid(monkeypatch):
    counter = _CountingMultigrid(lowdim._Multigrid)
    monkeypatch.setattr(lowdim, "_Multigrid", counter)
    return counter


def test_tt2d_newton_iterations(counting_multigrid):
    spec = catalog("p1")
    rect = (-1.0, -1.0, 1.0, 1.0)
    sol = solve_tt2d(spec, rect, 128, 1.0)
    assert sol.converged and sol.iterations == 4
    # The source diagonal hardly moves on p1: one hierarchy serves every step.
    assert sol.preconditioners == counting_multigrid.builds == 1
    # One V-cycle per Krylov iteration and none else: 12 here (1 + 2 + 4 + 5
    # over the four steps), against 24 with every step solved to 1e-6 and
    # 14 with the last step solved to 1e-6 rather than to 0.5 tol / res.
    assert counting_multigrid.solves <= 12
    # The round-off floor lies far below tol here, so it stops no step.
    assert sol.residual <= 1e-10 and sol.floor <= 0.1 * 1e-10
    sol = solve_tt2d(spec, rect, 64, invariant_boundary(spec, rect, 64))
    assert sol.converged and sol.iterations <= 6


def test_tt2d_stops_at_roundoff_floor(tmp_path):
    # On (0, 0, 16, 1) the source |f'''|^2 = e^{2x} of p1 reaches e^32,
    # and the residual's round-off floor (~1e-8) lies above tol = 1e-10.
    # Newton used to stall in the line search at 2.8e-9 and raise; the CLI
    # reported a failed solve.
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


def test_tt2d_stalled_line_search(tmp_path, monkeypatch):
    # A step that only raises the residual: no damping of it is accepted.
    newton_step = lowdim._newton_step
    monkeypatch.setattr(lowdim, "_newton_step", lambda *args: -newton_step(*args))
    spec = catalog("quartic2")
    rect = (0.5, -0.5, 1.5, 0.5)
    with pytest.raises(NoConvergence, match="line search stalled at residual 1.300e"):
        solve_tt2d(spec, rect, 17, 1.0)
    sol = solve_tt2d(spec, rect, 17, 1.0, raise_on_failure=False)
    assert not sol.converged and sol.iterations == 0
    assert sol.residual == pytest.approx(1299.5)
    path = tmp_path / "quartic2.json"
    write_spec(spec, path)
    report = tmp_path / "r.json"
    argv = ["tt2d", "--spec", str(path), "--rect", "0.5,-0.5,1.5,0.5", "--grid", "17",
            "--report", str(report)]
    assert main(argv) == 1
    doc = json.loads(report.read_text())
    assert doc["tt2d"]["converged"] is False
    solver, independent = doc["checks"]
    assert not solver["pass"] and not independent["pass"]
    assert independent["tolerance"] == solver["tolerance"]  # no 10x slack


# h11 of quartic2 on (0, 0, 3, 1), boundary 5, n = 64, from the solver
# that refactored a sparse LU preconditioner on every Newton step.
QUARTIC2_HARD_H11 = {
    (1, 1): 4.248656097838398,
    (10, 40): 0.2298325799900786,
    (32, 32): 0.1610633208650354,
    (55, 20): 0.12568413216393473,
    (62, 62): 0.5713548906074448,
}


def test_tt2d_rebuilds_on_diagonal_drift(counting_multigrid):
    sol = solve_tt2d(catalog("quartic2"), (0.0, 0.0, 3.0, 1.0), 64, 5.0)
    assert sol.converged and sol.iterations == 11
    assert 1 < sol.preconditioners == counting_multigrid.builds < 11
    # A preconditioner kept past a large drift costs thousands of GMRES
    # steps (2466 solves with one LU factor for the whole solve); 21 here.
    assert counting_multigrid.solves <= 30
    for node, h11 in QUARTIC2_HARD_H11.items():
        assert sol.h11[node] == pytest.approx(h11, rel=1e-12)


def _five_point_jacobian(n, hx, hy, seed):
    # The preconditioner's matrix 0.25 lap2 + D at a random iterate.
    rng = np.random.default_rng(seed)
    v = 0.5 * rng.standard_normal((n, n))
    c2 = rng.uniform(0.5, 2.0, (n, n))
    d = _source_diagonal(v, c2)
    return (0.25 * _laplacian_matrix(n, hx, hy, wide=False) + sp.diags(d)).tocsr(), rng


def test_newton_step_honours_forcing_term(counting_multigrid):
    # The Krylov solve stops at the relative 2-norm residual it is given,
    # and a loose forcing term costs fewer V-cycles than a tight one.
    n, hx, hy = 65, 1.0 / 64, 1.0 / 64
    P, rng = _five_point_jacobian(n, hx, hy, 7)
    J = P + 0.25 * (_laplacian_matrix(n, hx, hy, wide=True)
                    - _laplacian_matrix(n, hx, hy, wide=False))
    mg = counting_multigrid(P, _transfers(n - 2, hx, hy))
    rhs = rng.standard_normal(P.shape[0])
    cycles = {}
    for rtol in (0.1, 1e-6):
        counting_multigrid.solves = 0
        x = lowdim._newton_step(J, mg, rhs, rtol)
        assert np.linalg.norm(rhs - J @ x) <= rtol * np.linalg.norm(rhs)
        cycles[rtol] = counting_multigrid.solves
    assert 0 < cycles[0.1] < cycles[1e-6]


def test_forcing_term_sequence():
    # Eisenstat-Walker choice 2: 0.1 for the first step, then
    # 0.9 (res / prev)^2 kept within [1e-6, 0.1].  Kelley's safeguard
    # 0.5 tol / res lies below these terms at tol = 1e-10, is off at
    # tol = 0, and at res = 0 divides by nothing.
    for tol in (0.0, 1e-10):
        assert lowdim._forcing_term(1.0, None, tol) == 0.1
        assert lowdim._forcing_term(1.0, 1.0, tol) == 0.1
        assert lowdim._forcing_term(0.2, 1.0, tol) == pytest.approx(0.9 * 0.04, rel=1e-15)
        assert lowdim._forcing_term(1e-3, 1.0, tol) == 1e-6
        assert lowdim._forcing_term(0.0, 1.0, tol) == lowdim.FORCING_FLOOR
    # A last step that starts at residual 1.7e-8 against tol 1e-10 (on p1
    # at 128^2 the last starts at 2.5e-6, after 1.8e-2): solving it to a
    # relative 0.5 tol / res takes the linear model to half of tol, so the
    # term is 2.9e-3 rather than 1e-6 (2e-5 on p1).
    assert lowdim._forcing_term(1.7e-8, 2.1e-3, 1e-10) == 0.5e-10 / 1.7e-8
    assert lowdim._forcing_term(1.7e-8, 2.1e-3, 0.0) == 1e-6
    # Never looser than the first step's term.
    assert lowdim._forcing_term(1.5e-10, 1e-3, 1e-10) == 0.1


# (spec, rect, n, boundary, Newton steps, V-cycles) of solves whose steps
# the safeguard must leave alone; "invariant" is invariant_boundary.
SAFEGUARD_CASES = [
    ("p1", (-1.0, -1.0, 1.0, 1.0), 128, 1.0, 4, 13),
    ("quartic2", (0.0, 0.0, 3.0, 1.0), 64, 5.0, 11, 20),
    ("cubic2", (0.0, 0.0, 16.0, 1.0), 65, 2.0, 4, 13),
    ("p1", (-3.0, -1.0, 3.0, 1.0), 64, 1.0, 6, 14),
    ("p1", (0.0, 0.0, 16.0, 1.0), 33, "invariant", 16, 22),
]


@pytest.mark.parametrize("name,rect,n,boundary,steps,cycles", SAFEGUARD_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in SAFEGUARD_CASES])
def test_forcing_safeguard_keeps_steps_and_solution(monkeypatch, counting_multigrid, name, rect,
                                                     n, boundary, steps, cycles):
    # The safeguard saves V-cycles (14 -> 12 on the first case, 23 -> 20 on
    # the last) but no Newton step.  The solution is the one without it to
    # 1e-12, and the one a solve to the round-off floor (tol = 0, which
    # turns the safeguard off) gives to the precision tol = 1e-10 asks
    # for: cubic2 stops at residual 2.4e-11 with or without the safeguard,
    # 3.4e-12 (relative) from its tol = 0 solution.
    spec = catalog(name)
    if boundary == "invariant":
        boundary = invariant_boundary(spec, rect, n)
    sol = solve_tt2d(spec, rect, n, boundary)
    assert sol.converged and sol.iterations == steps
    assert counting_multigrid.solves <= cycles
    floor = solve_tt2d(spec, rect, n, boundary, tol=0.0)
    assert floor.converged
    assert sol.h11 == pytest.approx(floor.h11, rel=1e-11)
    forcing_term = lowdim._forcing_term
    monkeypatch.setattr(lowdim, "_forcing_term", lambda res, prev, tol: forcing_term(res, prev, 0.0))
    unguarded = solve_tt2d(spec, rect, n, boundary)
    assert unguarded.iterations == steps
    assert sol.h11 == pytest.approx(unguarded.h11, rel=1e-12)


@pytest.mark.parametrize("aspect", [1.0, 16.0, 1.0 / 16.0])
def test_lap_size_from_one_dimensional_factors(aspect):
    # solve_tt2d reads the lap_size of its floor off the assembled (1/4)
    # lap4.  Oracle: lap4 is the Kronecker sum of the 1-d matrices of x and
    # y, whose diagonals are negative, so its largest absolute row sum is
    # the sum of theirs.  The boundary 2 makes v = log 2 != 0 inside.
    spec = catalog("cubic2")
    for n in [*range(3, 18), 33, 64, 65, 128]:
        hx, hy = aspect / (n - 1), 1.0 / (n - 1)
        lap_size = 0.25 * sum(float(np.max(np.sum(np.abs(_d2_matrix(n, h, True)), axis=1)))
                              for h in (hx, hy))
        sol = solve_tt2d(spec, (0.0, 0.0, aspect, 1.0), n, 2.0, max_iter=0,
                         raise_on_failure=False)
        X, Y = np.meshgrid(sol.x, sol.y, indexing="ij")
        c2 = _fppp_sq(spec, X, Y)[1:-1, 1:-1]
        vi = np.log(sol.h11)[1:-1, 1:-1]
        floor = lowdim._residual_floor(lap_size, vi, c2, _exponentials(vi))
        assert sol.floor == pytest.approx(floor, rel=1e-14)


@pytest.mark.parametrize("n, fmt", [
    pytest.param(n, fmt, id=str(n) if fmt == "csr" else f"{n}-dia")
    for fmt in ("csr", "dia") for n in (3, 5, 10, 34)
])
def test_multigrid_without_coarse_level_is_exact(n, fmt):
    # At most COARSEST_NODES interior nodes (n = 34 has 1024): no V-cycle,
    # one banded Cholesky solve.  Its band is read from P as a Galerkin
    # product is stored (CSR) and as solve_tt2d stores it (DIA).
    P, rng = _five_point_jacobian(n, 0.3, 0.2, n)
    P = P.asformat(fmt)
    transfers = _transfers(n - 2, 0.3, 0.2)
    assert transfers == [] and (n - 2) ** 2 <= lowdim.COARSEST_NODES
    b = rng.standard_normal(P.shape[0])
    x = lowdim._Multigrid(P, transfers).solve(b)
    assert np.max(np.abs(P @ x - b)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("aspect", [1.0, 16.0, 1.0 / 16.0])
@pytest.mark.parametrize("n", [40, 65, 128])
def test_multigrid_cycle_contracts_residual(n, aspect):
    # One V-cycle takes a random right-hand side's residual down to
    # 0.05-0.12 of it here; with full coarsening on the 16:1 rectangles
    # it kept 0.26-0.31.
    hx, hy = aspect / (n - 1), 1.0 / (n - 1)
    P, rng = _five_point_jacobian(n, hx, hy, n)
    mg = lowdim._Multigrid(P, _transfers(n - 2, hx, hy))
    assert mg.levels
    b = rng.standard_normal(P.shape[0])
    assert np.linalg.norm(b - P @ mg.solve(b)) <= 0.15 * np.linalg.norm(b)


def test_multigrid_semi_coarsens_long_rectangles(counting_multigrid):
    # hx = 16 hy: only y is coarsened until the spacings are within a
    # factor of 2.  13 V-cycles here; with full coarsening 85.
    sol = solve_tt2d(catalog("cubic2"), (0.0, 0.0, 16.0, 1.0), 65, 2.0)
    assert sol.converged
    assert counting_multigrid.solves <= 20
    shapes = [R.shape for R, _ in _transfers(63, 0.25, 1.0 / 64)]
    assert shapes == [(63 * 63, 63 * 31), (63 * 31, 63 * 15)]
    # At 1000:1 only the direction of the fine spacing is coarsened, and
    # its lines reach 7 nodes before the level has at most COARSEST_NODES.
    for hx, hy in ((1000.0, 1.0), (1.0, 1000.0)):
        shapes = [R.shape for R, _ in _transfers(126, hx / 127, hy / 127)]
        assert shapes == [(126 * 126, 126 * 63), (126 * 63, 126 * 31),
                          (126 * 31, 126 * 15), (126 * 15, 126 * 7)]


def test_multigrid_coarsens_long_direction_after_single_line(monkeypatch):
    # With a coarsest level of at most 64 nodes, the 1000:1 lines run down
    # to one node first; the long direction is then coarsened alone (the
    # `or ky == 1` / `or kx == 1` branches), which is what ends the loop.
    # At COARSEST_NODES = 1024 this happens only from n = 1027 on.
    monkeypatch.setattr(lowdim, "COARSEST_NODES", 64)
    for hx, hy in ((1000.0, 1.0), (1.0, 1000.0)):
        shapes = [R.shape for R, _ in _transfers(126, hx / 127, hy / 127)]
        assert shapes[-2:] == [(378, 126), (126, 63)]


def test_multigrid_band_lies_along_shorter_side():
    # At 1000:1 the coarsest level is 7 x 126 or 126 x 7 nodes.  Numbered
    # along its shorter side, its 9-point operator has min(kx, ky) + 1 = 8
    # subdiagonals; in _laplacian_matrix's order one orientation has 127.
    n = 128
    for hx, hy in ((1000.0, 1.0), (1.0, 1000.0)):
        hx, hy = hx / (n - 1), hy / (n - 1)
        P, rng = _five_point_jacobian(n, hx, hy, n)
        mg = lowdim._Multigrid(P, _transfers(n - 2, hx, hy))
        assert mg.coarse_factor.shape == (8 + 1, 7 * 126)
        b = rng.standard_normal(P.shape[0])
        assert np.linalg.norm(b - P @ mg.solve(b)) <= 0.15 * np.linalg.norm(b)


def test_multigrid_small_grid_is_one_factorisation(monkeypatch):
    # Up to n = 34 (1024 interior nodes) the grid is its own coarsest
    # level: a hierarchy build is one banded Cholesky factorisation and no
    # Galerkin product.  p1 on (0, 0, 16, 1) at n = 33 rebuilds on 13 of
    # its 16 Newton steps, as its source diagonal drifts.  The factor is
    # taken in the lower layout: under OpenBLAS's default thread count (2
    # cores) the 961-node factorisation took 0.3-0.5 ms there against
    # about 2 ms in the upper layout, and with one thread both take
    # 0.25-0.5 ms.  A timing test would be flaky, so only the layout is pinned.
    import scipy.linalg

    spec, rect = catalog("p1"), (0.0, 0.0, 16.0, 1.0)
    boundary = invariant_boundary(spec, rect, 33)
    for n in (33, 34):
        assert _transfers(n - 2, 16.0 / (n - 1), 1.0 / (n - 1)) == []
    assert _transfers(35 - 2, 16.0 / 34, 1.0 / 34)
    factorisations = []
    cholesky_banded = scipy.linalg.cholesky_banded

    def record(ab, **kwargs):
        assert kwargs.get("lower") is True
        factorisations.append(ab.shape)
        return cholesky_banded(ab, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", record)
    sol = solve_tt2d(spec, rect, 33, boundary)
    assert sol.converged and sol.iterations == 16 and sol.preconditioners == 13
    # The 5-point operator on 31 x 31 nodes has 31 subdiagonals.
    assert factorisations == [(31 + 1, 31 * 31)] * 13


@pytest.mark.parametrize("n, coarsest", [(10, 64), (40, 361)])
def test_multigrid_rejects_positive_definite_matrix(n, coarsest):
    # -P is positive definite, so the Cholesky factorisation of minus its
    # coarsest level fails: a package error naming that level, not
    # LinAlgError, which the CLI would not catch.
    P, _ = _five_point_jacobian(n, 0.3, 0.2, n)
    with pytest.raises(Singular, match=rf"coarsest V-cycle level \({coarsest} nodes\)"):
        lowdim._Multigrid(-P, _transfers(n - 2, 0.3, 0.2))


# Max-norm error in v = log h_11 of the mid-row of the 2-d solution on
# (-1, -1, 1, 1) with invariant boundary data, against solve_bvp.
TT2D_MIDROW_ERRORS = {17: 5.881e-3, 33: 1.075e-3, 65: 1.292e-4, 129: 1.171e-5}


def test_tt2d_accuracy_against_bvp_oracle():
    # The 2-d solution with y-independent data is the 1-d solution of
    # (1/4) v'' = e^{2v} |f'''|^2 - e^{-2v}, v(+-1) = 0, which solve_bvp
    # gives to far below the discretisation error.  The error falls ever
    # faster, towards the fourth order of the deep stencil.
    from scipy.integrate import solve_bvp

    spec = catalog("p1")
    rect = (-1.0, -1.0, 1.0, 1.0)

    def ode(x, w):
        c2 = _fppp_sq(spec, x, np.zeros_like(x))
        return np.vstack([w[1], 4.0 * (np.exp(2.0 * w[0]) * c2 - np.exp(-2.0 * w[0]))])

    x = np.linspace(-1.0, 1.0, 11)
    bvp = solve_bvp(ode, lambda a, b: np.array([a[0], b[0]]), x, np.zeros((2, x.size)),
                    tol=1e-10, max_nodes=100000)
    assert bvp.success
    errors = []
    for n, pinned in TT2D_MIDROW_ERRORS.items():
        sol = solve_tt2d(spec, rect, n, invariant_boundary(spec, rect, n))
        assert sol.y[n // 2] == 0.0
        errors.append(np.max(np.abs(np.log(sol.h11[:, n // 2]) - bvp.sol(sol.x)[0])))
        assert errors[-1] == pytest.approx(pinned, rel=1e-3)
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert 5.0 < ratios[0] < ratios[1] < ratios[2] < 16.0


def test_tt2d_residual_agrees_with_residual_grid():
    # Two independent implementations of the same fourth-order residual,
    # tt2d_residual (the maximum of residual_grid) and the solver's
    # _residual4, compared on a converged field and on one far from
    # converged.
    spec = catalog("p1")
    rect = (-1.0, -1.0, 1.0, 1.0)
    for max_iter in (50, 1):
        sol = solve_tt2d(spec, rect, 33, 1.0, max_iter=max_iter, raise_on_failure=False)
        pde, _ = tt2d_residual(spec, sol)
        hx, hy = (rect[2] - rect[0]) / 32, (rect[3] - rect[1]) / 32
        X, Y = np.meshgrid(sol.x, sol.y, indexing="ij")
        solver = _residual(np.log(sol.h11), _fppp_sq(spec, X, Y), hx, hy)
        assert pde == pytest.approx(np.max(np.abs(solver)), rel=1e-12)


@pytest.mark.parametrize("node", [(1, 8), (1, 1), (8, 8), (2, 14)])
def test_tt2d_residual_detects_single_node_perturbation(node):
    spec = catalog("cubic2")
    sol = solve_tt2d(spec, (-1.0, -1.0, 1.0, 1.0), 17, 1.0)
    assert tt2d_residual(spec, sol)[0] == 0.0
    h11 = sol.h11.copy()
    h11[node] *= np.exp(1e-3)
    pde, _ = tt2d_residual(spec, dataclasses.replace(sol, h11=h11))
    assert pde > 0.01


def test_tt2d_residual_refuses_another_spec(tmp_path):
    # The independent residual reads the source the solution was solved
    # with, so it refuses a spec that the solution was not solved for,
    # after the checks of the spec itself (test_tt2d_needs_a_normal_form_spec).
    rect, n = (-1.0, -1.0, 1.0, 1.0), 9
    sol = solve_tt2d(catalog("cubic2"), rect, n, 1.0)
    assert tt2d_residual(catalog("cubic2"), sol)[0] == 0.0  # an equal spec is the same
    for call in (lambda spec: tt2d_residual(spec, sol),
                 lambda spec: write_tt2d_csv(spec, sol, tmp_path / "grid.csv")):
        with pytest.raises(ValidationError, match="solved for another spec"):
            call(catalog("p1"))
    assert not (tmp_path / "grid.csv").exists()


# The largest error in v = log h_11 against the canonical structure at
# n = 17, 33, 65 and 129, with the canonical h_11 as Dirichlet data.
CANONICAL_ORACLE_ERRORS = {
    ("quartic2", (0.5, -0.5, 1.5, 0.5)): [1.5e-5, 1.9e-6, 1.7e-7, 1.3e-8],
    ("quartic2", (-2.0, 0.3, 2.0, 2.3)): [9.4e-4, 1.7e-4, 1.8e-5, 1.5e-6],
}


def _canonical_h11(spec, X, Y):
    """h_11 of the canonical structure at the points t = (0, x + i y),
    from one canonical_frame stack."""
    t = np.stack([np.zeros(X.size), X + 1j * Y], axis=-1)
    return canonical_frame(spec, t).h[:, 0, 0].real


def _canonical_oracle_error(spec, rect, n):
    """The solve whose Dirichlet data is the canonical h_11 on the 4n - 4
    edge nodes (the interior of the data is 1.0 and is not read), and its
    max |log h_11 - log h_11^canonical| over the interior nodes."""
    x, y = np.linspace(rect[0], rect[2], n), np.linspace(rect[1], rect[3], n)
    X, Y = np.meshgrid(x, y, indexing="ij")
    edge = np.ones((n, n), dtype=bool)
    edge[1:-1, 1:-1] = False
    data = np.ones((n, n))
    data[edge] = _canonical_h11(spec, X[edge], Y[edge])
    sol = solve_tt2d(spec, rect, n, lambda X, Y: data)
    inner = _canonical_h11(spec, X[~edge], Y[~edge]).reshape(n - 2, n - 2)
    return sol, float(np.max(np.abs(np.log(sol.h11[1:-1, 1:-1]) - np.log(inner))))


@pytest.mark.parametrize("name, rect", list(CANONICAL_ORACLE_ERRORS))
def test_tt2d_against_canonical_structure(name, rect):
    # The paper's canonical structure solves the tt* equation: on quartic2
    # v = -log|f'''| / 2 is harmonic and e^{2v} |f'''|^2 = e^{-2v}.  With
    # its h_11 on the edges the solve recovers it to the discretisation
    # error, which falls ever faster, towards the fourth order of the deep
    # stencil.  These solves take 6-8 Newton steps and rebuild the
    # preconditioner on the way.
    spec = catalog(name)
    errors = []
    for n, pinned in zip((17, 33, 65, 129), CANONICAL_ORACLE_ERRORS[name, rect]):
        sol, error = _canonical_oracle_error(spec, rect, n)
        assert sol.converged
        assert pinned / 2.0 <= error <= 2.0 * pinned
        errors.append(error)
    assert sol.iterations >= 6 and sol.preconditioners > 1
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert ratios[0] < ratios[1] < ratios[2]


def test_tt2d_against_canonical_structure_p1():
    # On p1 v = -x/2 is linear, which every stencil differentiates exactly:
    # the error is what Newton's tolerance leaves, 2e-14 to 5e-13.
    spec = catalog("p1")
    for n in (17, 33, 65, 129):
        _, error = _canonical_oracle_error(spec, (-1.0, -1.0, 1.0, 1.0), n)
        assert error <= 1e-12


def test_tt2d_builds_each_one_dimensional_operator_once(monkeypatch):
    # Within a solve each 1-d second difference is built once per stencil
    # width and distinct spacing, and each 1-d interpolation once per
    # level and distinct line size: a square grid shares them between x
    # and y.  On p1 at 128^2 that is 2 and 2 calls (were 4 and 4); on the
    # 16:1 rectangle the spacings differ and only y is coarsened.
    d2_calls, interpolation_calls = [], []
    d2_matrix, interpolation_1d = lowdim._d2_matrix, lowdim._interpolation_1d

    def record_d2(n, hstep, wide):
        d2_calls.append((hstep, wide))
        return d2_matrix(n, hstep, wide)

    def record_interpolation(k):
        interpolation_calls.append(k)
        return interpolation_1d(k)

    monkeypatch.setattr(lowdim, "_d2_matrix", record_d2)
    monkeypatch.setattr(lowdim, "_interpolation_1d", record_interpolation)
    spec = catalog("p1")
    for rect, n, d2, interpolations in (((-1.0, -1.0, 1.0, 1.0), 128, 2, [126, 63]),
                                        ((0.0, 0.0, 16.0, 1.0), 65, 4, [63, 31])):
        d2_calls.clear()
        interpolation_calls.clear()
        assert solve_tt2d(spec, rect, n, 1.0).converged
        assert len(d2_calls) == len(set(d2_calls)) == d2
        assert interpolation_calls == interpolations


@pytest.mark.parametrize("kwargs", [
    {"n": 2}, {"n": 0}, {"rect": (0.0, 0.0, 0.0, 1.0)}, {"rect": (0.0, 1.0, 1.0, 1.0)},
    {"rect": (0.0, 0.0, np.inf, 1.0)}, {"max_iter": -1},
    {"rect": (1.0, 1.0, -1.0, -1.0)}, {"rect": (-1.0, 1.0, 1.0, -1.0)},
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


@pytest.mark.parametrize("rect", [(1.0, -1.0, -1.0, 1.0), (-1.0, 1.0, 1.0, -1.0)])
def test_invariant_boundary_rejects_reversed_rect(rect):
    # np.interp needs increasing x: on x0 > x1 it reads h_11 = 1 everywhere.
    with pytest.raises(ValidationError, match="x0 < x1 and y0 < y1"):
        invariant_boundary(catalog("p1"), rect, 33)


def test_invariant_boundary_divergence_raises():
    spec = catalog("p1")
    with pytest.raises(NoConvergence):
        invariant_boundary(spec, (0.0, 0.0, 200.0, 1.0), 64)

"""Dimension-2 and dimension-3 relation systems and the 2d PDE solver.

The relation checkers work in flat antidiagonal normal-form coordinates
(g = antidiag(1,...,1), unit field = d/dt^1).  The connection entries
use the classical index convention omega_i^j(d_k): lower index = input
vector, upper index = output component, stored as W[k, i, j].
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .canonical import DEFAULT_EPS_SS
from .cdv import flat_frame_h
from .errors import NoConvergence, NonPositiveIterate, NotNormalForm, ValidationError
from .numerics import invert, wirtinger_fd
from .potential import diff_terms, eval_terms, third_derivatives
from .report import VerificationReport

NORMAL_FORM_FD_STEP = 1e-4


@dataclass(frozen=True)
class LowDimInput:
    """Normal-form point data consumed by the relation checkers."""

    m: int
    h: np.ndarray        # pairing in the flat basis
    omega: np.ndarray    # omega[k, i, j] = omega_i^j(d/dt^k)
    C3: np.ndarray       # third derivatives at the same point
    degrees: tuple
    d: float


def _require_normal_form(spec):
    if not spec.normal_form:
        raise NotNormalForm("this check requires a spec in antidiagonal normal form")


def from_canonical(spec, t, fd_step=NORMAL_FORM_FD_STEP, order=4,
                   eps_ss=DEFAULT_EPS_SS) -> LowDimInput:
    """Build normal-form point data from the canonical construction.

    The Chern forms come from omega_i^j = sum_k (d h_ik) h^kj with the
    pairing differentiated by higher-order Wirtinger differences; the
    wider step keeps eigen-decomposition round-off out of the
    derivatives.
    """
    _require_normal_form(spec)
    t = np.asarray(t, dtype=complex)
    m = spec.dim

    def h_field(tp):
        return flat_frame_h(spec, tp, eps_ss=eps_ss)

    h = h_field(t)
    h_inv = invert(h)
    omega = np.zeros((m, m, m), dtype=complex)
    for k in range(m):
        dh = wirtinger_fd(h_field, t, k, step=fd_step, order=order).holo
        omega[k] = dh @ h_inv
    return LowDimInput(
        m=m, h=h, omega=omega, C3=third_derivatives(spec, t),
        degrees=spec.degrees, d=spec.d,
    )


def _omega_antisymmetry(inp: LowDimInput) -> float:
    """max |omega_i^j + omega^{m+1-i}_{m+1-j}| over all directions."""
    m = inp.m
    worst = 0.0
    for k in range(m):
        for i in range(m):
            for j in range(m):
                worst = max(
                    worst, abs(inp.omega[k, i, j] + inp.omega[k, m - 1 - j, m - 1 - i])
                )
    return worst


def check_m2_relations(inp: LowDimInput, tol) -> VerificationReport:
    """The three kappa-involution relations in dimension 2.

    The positive branch (h_11 real positive) additionally asserts the
    diagonal reconstruction h = diag(h_11, 1/h_11).
    """
    if inp.m != 2:
        raise NotNormalForm("dimension-2 relations need m = 2")
    h = inp.h
    report = VerificationReport()
    report.add("m2_kappa_relation_1", abs(abs(h[0, 1]) ** 2 + h[0, 0] * h[1, 1] - 1.0), tol)
    report.add("m2_kappa_relation_2", abs(h[0, 0] * h[0, 1]), tol)
    report.add("m2_kappa_relation_3", abs(h[1, 1] * h[0, 1]), tol)
    if h[0, 0].real > tol and h[1, 1].real > tol:
        res = max(abs(h[0, 0] * h[1, 1] - 1.0), abs(h[0, 1]), abs(h[1, 0]))
        report.add("m2_positive_diagonal", res, tol)
    report.add("m2_omega_antisymmetry", _omega_antisymmetry(inp), tol)
    return report


def check_m3_relations(inp: LowDimInput, tol) -> VerificationReport:
    """Dimension-3 system: six involution relations, three connection
    relations, the reduced associativity scalar, the antisymmetry grid,
    and the two relations implied by them."""
    if inp.m != 3:
        raise NotNormalForm("dimension-3 relations need m = 3")
    h = inp.h
    W = inp.omega
    C = inp.C3
    report = VerificationReport()

    kappa = (
        h[0, 0] * h[2, 2] + h[0, 1] * h[2, 1] + abs(h[0, 2]) ** 2 - 1.0,
        2.0 * h[1, 0] * h[1, 2] + h[1, 1] ** 2 - 1.0,
        h[0, 0] * h[1, 2] + h[0, 1] * h[1, 1] + h[0, 2] * h[1, 0],
        2.0 * h[0, 0] * h[0, 2] + h[0, 1] ** 2,
        h[0, 1] * h[2, 2] + h[1, 1] * h[1, 2] + h[0, 2] * h[2, 1],
        2.0 * h[0, 2] * h[2, 2] + h[1, 2] ** 2,
    )
    for idx, val in enumerate(kappa, start=1):
        report.add(f"m3_kappa_relation_{idx}", abs(val), tol)

    C222, C223, C233, C333 = C[1, 1, 1], C[1, 1, 2], C[1, 2, 2], C[2, 2, 2]
    dphi = (
        W[2, 0, 1] - W[1, 0, 0],
        C222 * W[1, 0, 0] + W[2, 0, 0] - C223 * W[1, 0, 1] - W[1, 1, 0],
        C223 * W[1, 0, 0] - C233 * W[1, 0, 1] - W[2, 1, 0],
    )
    for idx, val in enumerate(dphi, start=1):
        report.add(f"m3_dphi_relation_{idx}", abs(val), tol)

    report.add("m3_wdvv_scalar", abs(C223 ** 2 - C222 * C233 - C333), tol)
    report.add("m3_omega_antisymmetry", _omega_antisymmetry(inp), tol)

    implied_23 = C223 * W[2, 0, 0] - C333 * W[1, 0, 1] - C223 * W[1, 1, 0] + C222 * W[2, 1, 0]
    implied_13 = C333 * W[1, 0, 0] - C233 * W[2, 0, 0] + C233 * W[1, 1, 0] - C223 * W[2, 1, 0]
    report.add("m3_implied_relation_23", abs(implied_23), tol)
    report.add("m3_implied_relation_13", abs(implied_13), tol)
    return report


def check_euler_degree(spec, t, tol, fd_step=NORMAL_FORM_FD_STEP, order=4,
                  eps_ss=DEFAULT_EPS_SS) -> VerificationReport:
    """Degree relation (E - Ebar) h_ij = (d_j - d_i) h_ij in flat coordinates."""
    _require_normal_form(spec)
    t = np.asarray(t, dtype=complex)
    m = spec.dim

    def h_field(tp):
        return flat_frame_h(spec, tp, eps_ss=eps_ss)

    h = h_field(t)
    E = spec.euler_components(t)
    lhs = np.zeros((m, m), dtype=complex)
    for k in range(m):
        wd = wirtinger_fd(h_field, t, k, step=fd_step, order=order)
        lhs += E[k] * wd.holo - np.conj(E[k]) * wd.anti
    degrees = np.asarray(spec.degrees)
    rhs = (degrees[None, :] - degrees[:, None]) * h
    report = VerificationReport()
    report.add("euler_degree_relation", float(np.max(np.abs(lhs - rhs))), tol)
    return report


# ---------------------------------------------------------------------------
# The 2-dimensional tt* equation on a rectangle of the t^2-plane:
#     (1/4) Lap v = e^{2v} |f'''|^2 - e^{-2v},   v = log h_11,
# with Dirichlet boundary data for h_11.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TT2DSolution:
    rect: tuple          # (x0, y0, x1, y1)
    n: int
    x: np.ndarray
    y: np.ndarray
    h11: np.ndarray      # shape (n, n), indexed [ix, iy]
    residual: float
    iterations: int
    invariance_residual: float
    converged: bool


def _fppp_sq(spec, X, Y):
    """|d^3 F / d(t^2)^3|^2 on the grid, at t = (0, x + i y)."""
    if spec.dim != 2:
        raise ValidationError("the 2d tt* equation needs a 2-dimensional spec")
    terms = diff_terms(spec.terms, (0, 3))
    out = np.zeros(X.shape)
    for ix in range(X.shape[0]):
        for iy in range(X.shape[1]):
            val = eval_terms(terms, (0.0, X[ix, iy] + 1j * Y[ix, iy]))
            out[ix, iy] = abs(val) ** 2
    return out


def _lap4_1d(v, axis, hstep):
    """Second derivative along an axis: wide fourth-order stencil in the
    deep interior, central second-order on the first ring.  Returns the
    interior block (edges stripped)."""
    v = np.moveaxis(v, axis, 0)
    n = v.shape[0]
    out = np.empty_like(v[1:-1])
    # second-order everywhere first
    out[:] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / hstep**2
    if n >= 5:
        # overwrite deep interior with the fourth-order formula
        out[1:-1] = (
            -v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]
        ) / (12.0 * hstep**2)
    return np.moveaxis(out, 0, axis)


def _residual4(v, c2, hx, hy):
    """Interior residual of (1/4) Lap v - e^{2v} c2 + e^{-2v}, order 4."""
    lap = _lap4_1d(v, 0, hx)[:, 1:-1] + _lap4_1d(v, 1, hy)[1:-1, :]
    vi = v[1:-1, 1:-1]
    return 0.25 * lap - np.exp(2.0 * vi) * c2[1:-1, 1:-1] + np.exp(-2.0 * vi)


def _laplacian_matrix(n, hx, hy):
    """Sparse 5-point Laplacian on the (n-2) x (n-2) interior grid."""
    k = n - 2
    ex = np.ones(k)
    Dx = sp.diags([ex[:-1], -2.0 * ex, ex[:-1]], [-1, 0, 1]) / hx**2
    Dy = sp.diags([ex[:-1], -2.0 * ex, ex[:-1]], [-1, 0, 1]) / hy**2
    eye = sp.identity(k)
    return (sp.kron(Dx, eye) + sp.kron(eye, Dy)).tocsr()


def _boundary_values(boundary, X, Y):
    """Dirichlet h_11 on the full grid (only the edge entries are used)."""
    if callable(boundary):
        vals = np.asarray(boundary(X, Y), dtype=float)
        if vals.shape != X.shape:
            vals = np.broadcast_to(vals, X.shape).copy()
    elif np.ndim(boundary) == 0:
        vals = np.full(X.shape, float(boundary))
    else:
        vals = np.asarray(boundary, dtype=float)
        if vals.shape != X.shape:
            raise ValidationError("boundary array must match the grid shape")
    if np.min([vals[0, :].min(), vals[-1, :].min(), vals[:, 0].min(), vals[:, -1].min()]) <= 0:
        raise ValidationError("boundary values for h_11 must be positive")
    return vals


def _invariance(h11, hy):
    """Max derivative of h_11 along the imaginary t^2 axis."""
    if h11.shape[1] < 3:
        return 0.0
    return float(np.max(np.abs(h11[:, 2:] - h11[:, :-2])) / (2.0 * hy))


def solve_tt2d(spec, rect, n, boundary, max_iter=50, tol=1e-10,
               raise_on_failure=True) -> TT2DSolution:
    """Damped Newton solve of the tt* equation in v = log h_11.

    The Newton linearization uses the 5-point Laplacian; the residual
    that is driven below tol uses the fourth-order stencil, so the two
    act as a defect-correction pair.  Euler invariance (independence of
    Im t^2) is reported, never enforced.
    """
    x0, y0, x1, y1 = (float(c) for c in rect)
    x = np.linspace(x0, x1, n)
    y = np.linspace(y0, y1, n)
    hx = (x1 - x0) / (n - 1)
    hy = (y1 - y0) / (n - 1)
    X, Y = np.meshgrid(x, y, indexing="ij")
    c2 = _fppp_sq(spec, X, Y)

    bvals = _boundary_values(boundary, X, Y)
    v = np.log(bvals.mean()) * np.ones((n, n))
    v[0, :] = np.log(bvals[0, :])
    v[-1, :] = np.log(bvals[-1, :])
    v[:, 0] = np.log(bvals[:, 0])
    v[:, -1] = np.log(bvals[:, -1])

    L = _laplacian_matrix(n, hx, hy)
    k = n - 2
    iterations = 0
    converged = False
    R = _residual4(v, c2, hx, hy)
    res = float(np.max(np.abs(R)))
    for iterations in range(max_iter + 1):
        if res <= tol:
            converged = True
            break
        if iterations == max_iter:
            break
        vi = v[1:-1, 1:-1]
        diag = -2.0 * np.exp(2.0 * vi) * c2[1:-1, 1:-1] - 2.0 * np.exp(-2.0 * vi)
        J = 0.25 * L + sp.diags(diag.ravel())
        delta = spla.spsolve(J.tocsc(), -R.ravel()).reshape(k, k)
        lam = 1.0
        while True:
            trial = v.copy()
            trial[1:-1, 1:-1] = vi + lam * delta
            R_trial = _residual4(trial, c2, hx, hy)
            res_trial = float(np.max(np.abs(R_trial)))
            if res_trial <= (1.0 - 0.25 * lam) * res or res_trial <= tol:
                v, R, res = trial, R_trial, res_trial
                break
            lam *= 0.5
            if lam < 2.0**-30:
                if raise_on_failure:
                    raise NonPositiveIterate(
                        f"line search stalled at residual {res:.3e}"
                    )
                lam = 0.0
                break
        if lam == 0.0:
            break

    h11 = np.exp(v)
    solution = TT2DSolution(
        rect=(x0, y0, x1, y1), n=n, x=x, y=y, h11=h11, residual=res,
        iterations=iterations, invariance_residual=_invariance(h11, hy),
        converged=converged,
    )
    if not converged and raise_on_failure:
        raise NoConvergence(
            f"Newton stopped after {iterations} iterations at residual {res:.3e}"
        )
    return solution


def tt2d_residual(spec, solution: TT2DSolution):
    """Independent re-evaluation of the PDE and invariance residuals.

    Re-assembles the fourth-order residual from the stored h_11 field
    with explicit shifted slices rather than the solver's helpers.
    """
    n = solution.n
    x0, y0, x1, y1 = solution.rect
    hx = (x1 - x0) / (n - 1)
    hy = (y1 - y0) / (n - 1)
    X, Y = np.meshgrid(solution.x, solution.y, indexing="ij")
    c2 = _fppp_sq(spec, X, Y)
    v = np.log(solution.h11)

    # Explicit, loop-based fourth-order residual (slow but independent).
    pde = 0.0
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            if 2 <= i <= n - 3:
                vxx = (-v[i - 2, j] + 16 * v[i - 1, j] - 30 * v[i, j]
                       + 16 * v[i + 1, j] - v[i + 2, j]) / (12 * hx**2)
            else:
                vxx = (v[i - 1, j] - 2 * v[i, j] + v[i + 1, j]) / hx**2
            if 2 <= j <= n - 3:
                vyy = (-v[i, j - 2] + 16 * v[i, j - 1] - 30 * v[i, j]
                       + 16 * v[i, j + 1] - v[i, j + 2]) / (12 * hy**2)
            else:
                vyy = (v[i, j - 1] - 2 * v[i, j] + v[i, j + 1]) / hy**2
            r = 0.25 * (vxx + vyy) - np.exp(2 * v[i, j]) * c2[i, j] + np.exp(-2 * v[i, j])
            pde = max(pde, abs(r))

    inv_res = 0.0
    for i in range(n):
        for j in range(1, n - 1):
            inv_res = max(
                inv_res, abs(solution.h11[i, j + 1] - solution.h11[i, j - 1]) / (2 * hy)
            )
    return pde, inv_res


def residual_grid(spec, solution: TT2DSolution):
    """Per-node fourth-order residual, zero on the boundary."""
    X, Y = np.meshgrid(solution.x, solution.y, indexing="ij")
    c2 = _fppp_sq(spec, X, Y)
    n = solution.n
    x0, y0, x1, y1 = solution.rect
    hx = (x1 - x0) / (n - 1)
    hy = (y1 - y0) / (n - 1)
    grid = np.zeros((n, n))
    grid[1:-1, 1:-1] = np.abs(_residual4(np.log(solution.h11), c2, hx, hy))
    return grid


def write_tt2d_csv(spec, solution: TT2DSolution, path):
    """Grid dump for external plotting: one row per node."""
    grid = residual_grid(spec, solution)
    with open(path, "w") as fh:
        fh.write("x,y,h11,residual\n")
        for i in range(solution.n):
            for j in range(solution.n):
                fh.write(
                    f"{float(solution.x[i])!r},{float(solution.y[j])!r},"
                    f"{float(solution.h11[i, j])!r},{float(grid[i, j])!r}\n"
                )


def invariant_boundary(spec, rect, n, tol=1e-12, max_iter=60):
    """Boundary data from the 1-dimensional reduction of the equation.

    Solves (1/4) v''(x) = e^{2v} |f'''|^2 - e^{-2v} with h_11 = 1 at the
    rectangle's x-extremes and returns a callable boundary(X, Y) that is
    independent of y.  Meaningful when |f'''| depends only on Re t^2.
    """
    x0, _, x1, _ = (float(c) for c in rect)
    x = np.linspace(x0, x1, n)
    hstep = (x1 - x0) / (n - 1)
    c2 = _fppp_sq(spec, x.reshape(-1, 1), np.zeros((n, 1))).ravel()
    v = np.zeros(n)
    for _ in range(max_iter):
        # Same mixed-order second-derivative stencil as the 2-d solver, so
        # that the y-independent extension solves the 2-d system exactly.
        vxx = _lap4_1d(v, 0, hstep)
        R = 0.25 * vxx - np.exp(2 * v[1:-1]) * c2[1:-1] + np.exp(-2 * v[1:-1])
        if np.max(np.abs(R)) <= tol:
            break
        k = n - 2
        main = -2.0 * 0.25 / hstep**2 - 2 * np.exp(2 * v[1:-1]) * c2[1:-1] - 2 * np.exp(-2 * v[1:-1])
        off = 0.25 / hstep**2 * np.ones(k - 1)
        J = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        v[1:-1] += np.linalg.solve(J, -R)
    else:
        raise NoConvergence("1-d boundary reduction did not converge")
    h1d = np.exp(v)

    def boundary(X, Y):
        return np.interp(np.asarray(X, dtype=float), x, h1d)

    return boundary

"""Dimension-2 and dimension-3 relation systems and the 2d PDE solver.

The relation checkers work in flat antidiagonal normal-form coordinates
(g = antidiag(1,...,1), unit field = d/dt^1).  The connection entries
use the classical index convention omega_i^j(d_k): lower index = input
vector, upper index = output component, stored as W[k, i, j].

Only the tt* solve uses scipy, so its functions import scipy.sparse on
first use and the pointwise checks load numpy alone.  They call through
the module (spla.splu, spla.gmres), never a bound name, so that a
wrapper patched onto scipy.sparse.linalg sees every call.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .canonical import canonical_frame
from .cdv import flat_frame_dh
from .errors import NoConvergence, NonPositiveIterate, NotNormalForm, ValidationError
from .numerics import invert
from .potential import diff_terms, eval_terms
from .report import VerificationReport


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


def from_canonical(spec, t) -> LowDimInput:
    """Build normal-form point data from the canonical construction.

    The Chern forms are omega_i^j = sum_k (d h_ik) h^kj, with h and its
    derivatives exact from one canonical frame (flat_frame_dh); the third
    derivatives are the ones that frame was built from.
    """
    _require_normal_form(spec)
    frame = canonical_frame(spec, t)
    h, dh = flat_frame_dh(frame)
    return LowDimInput(
        m=spec.dim, h=h, omega=dh @ invert(h), C3=frame.ev.C3,
        degrees=spec.degrees, d=spec.d,
    )


def _omega_antisymmetry(inp: LowDimInput) -> float:
    """max |omega_i^j + omega^{m+1-i}_{m+1-j}| over all directions."""
    mirrored = np.swapaxes(inp.omega[:, ::-1, ::-1], 1, 2)
    return float(np.max(np.abs(inp.omega + mirrored)))


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


def check_euler_degree(spec, t, tol) -> VerificationReport:
    """Degree relation (E - Ebar) h_ij = (d_j - d_i) h_ij in flat coordinates."""
    _require_normal_form(spec)
    t = np.asarray(t, dtype=complex)
    h, dh = flat_frame_dh(canonical_frame(spec, t))
    Eh = np.einsum("k,kij->ij", spec.euler_components(t), dh)
    lhs = Eh - np.conj(Eh).T  # Ebar(h) = E(h)^dagger, as h is Hermitian
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


# The preconditioner lap2 + D is refactored once some entry of the source
# diagonal D has drifted by more than this relative amount from the D it
# was factored with: both operators are negative definite, so a drift of
# at most delta keeps the stale-to-fresh spectrum in [1 - delta, 1 + delta].
PRECONDITIONER_DRIFT = 0.25


@dataclass(frozen=True)
class TT2DSolution:
    rect: tuple          # (x0, y0, x1, y1)
    n: int
    x: np.ndarray
    y: np.ndarray
    h11: np.ndarray      # shape (n, n), indexed [ix, iy]
    residual: float
    iterations: int
    converged: bool
    factorizations: int  # sparse LU factors of the preconditioner made
    floor: float         # round-off floor of the residual at h11 (_residual_floor)


def _fppp_sq(spec, X, Y):
    """|d^3 F / d(t^2)^3|^2 on the grid, at t = (0, x + i y)."""
    if spec.dim != 2:
        raise ValidationError("the 2d tt* equation needs a 2-dimensional spec")
    Z = X + 1j * Y
    return np.abs(eval_terms(diff_terms(spec.terms, (0, 3)), (np.zeros_like(Z), Z))) ** 2


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


def _residual_floor(lap_size, vi, c2i):
    """Round-off floor of the residual (1/4) Lap v - e^{2v} c2 + e^{-2v}:
    4 eps times the sum of its largest terms, at the interior values vi
    with the source c2i there; lap_size is the largest absolute row sum
    of (1/4) Lap."""
    return 4.0 * np.finfo(float).eps * (
        lap_size * np.max(np.abs(vi)) + np.max(np.exp(2.0 * vi) * c2i)
        + np.max(np.exp(-2.0 * vi)))


def _at_roundoff_floor(res, prev, lap_size, vi, c2i):
    """Whether Newton has reached the round-off floor: a step from
    residual prev to res no longer halves it, and res is at most
    _residual_floor at the interior values vi it was taken to."""
    return res > 0.5 * prev and res <= _residual_floor(lap_size, vi, c2i)


def _source_jacobian(v, c2):
    """Diagonal matrix of the derivative of -e^{2v} c2 + e^{-2v} on the
    interior nodes; 0.25 times the wide Laplacian matrix plus this is the
    exact Jacobian of _residual4."""
    import scipy.sparse as sp

    vi = v[1:-1, 1:-1]
    diag = -2.0 * np.exp(2.0 * vi) * c2[1:-1, 1:-1] - 2.0 * np.exp(-2.0 * vi)
    return sp.diags(diag.ravel())


def _d2_matrix(n, hstep, wide):
    """Sparse second difference on the n - 2 interior nodes of a line.

    With ``wide`` it is the matrix of ``_lap4_1d``, read off from its
    action on the interior unit vectors; otherwise the 3-point formula
    is used on every row.
    """
    import scipy.sparse as sp

    k = n - 2
    if wide:
        unit = np.zeros((n, k))
        unit[1:-1] = np.eye(k)
        return sp.csr_matrix(_lap4_1d(unit, 0, hstep))
    return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(k, k)) / hstep**2


def _laplacian_matrix(n, hx, hy, wide):
    """Sparse Laplacian on the (n-2) x (n-2) interior grid (see _d2_matrix)."""
    import scipy.sparse as sp

    eye = sp.identity(n - 2)
    return (sp.kron(_d2_matrix(n, hx, wide), eye)
            + sp.kron(eye, _d2_matrix(n, hy, wide))).tocsr()


def _newton_step(J, lu, rhs):
    """Solve J x = rhs by GMRES, preconditioned by the sparse LU factor lu.

    The factor may be of the 5-point Jacobian of an earlier Newton step
    (see PRECONDITIONER_DRIFT).  A GMRES solve that stops short of rtol
    is still returned: the caller's line search judges the step by the
    residual it gives.
    """
    import scipy.sparse.linalg as spla

    M = spla.LinearOperator(J.shape, matvec=lu.solve, dtype=float)
    x, _ = spla.gmres(J, rhs, M=M, rtol=1e-8, atol=0.0)
    return x


def _check_grid(rect, n):
    """The corners of rect as floats, once an n x n grid on it is usable."""
    x0, y0, x1, y1 = (float(c) for c in rect)
    if n < 3:
        raise ValidationError(f"the grid needs at least 3 nodes per side, got {n}")
    if not np.all(np.isfinite((x0, y0, x1, y1))) or x0 == x1 or y0 == y1:
        raise ValidationError(f"rect {rect} must have finite, nonzero width and height")
    return x0, y0, x1, y1


def _boundary_values(boundary, X, Y):
    """Dirichlet h_11 on the full grid (only the edge entries are used),
    from a number or a callable boundary(X, Y)."""
    if callable(boundary):
        vals = np.broadcast_to(np.asarray(boundary(X, Y), dtype=float), X.shape)
    elif isinstance(boundary, numbers.Real):
        vals = np.full(X.shape, float(boundary))
    else:
        raise ValidationError(
            f"boundary must be a number or a callable, got {type(boundary).__name__}")
    edges = np.concatenate([vals[0, :], vals[-1, :], vals[:, 0], vals[:, -1]])
    if not (np.all(np.isfinite(edges)) and np.min(edges) > 0):
        raise ValidationError("boundary values for h_11 must be finite and positive")
    return vals


def solve_tt2d(spec, rect, n, boundary, max_iter=50, tol=1e-10,
               raise_on_failure=True) -> TT2DSolution:
    """Damped Newton-Krylov solve of the tt* equation in v = log h_11.

    Each Newton step solves with the exact Jacobian of the fourth-order
    residual: the mixed-order stencil matrix plus the diagonal D of the
    source's derivative.  GMRES does the solve, preconditioned by a
    sparse LU of the 5-point Jacobian lap2 + D.  Only D changes between
    steps, so the factor is kept and remade only when D has drifted from
    the diagonal it was made with (PRECONDITIONER_DRIFT); on p1 one
    factor serves the whole solve.  A damped line search on the max-norm
    residual accepts the step.

    boundary gives the Dirichlet data for h_11: a positive number, or a
    callable boundary(X, Y) on the grid such as invariant_boundary
    returns.  Data that is not finite and positive, or so large that the
    residual overflows, raises ValidationError.  Euler invariance
    (independence of Im t^2) is not enforced; tt2d_residual measures it.

    Newton stops at tol or, once a full step no longer halves the
    residual, at its round-off floor (as invariant_boundary does): where
    the source is large, tol can lie below that floor.  The solution
    records the floor, and the residual counts as converged at it.
    """
    import scipy.sparse.linalg as spla

    x0, y0, x1, y1 = _check_grid(rect, n)
    if max_iter < 0:
        raise ValidationError(f"max_iter must be >= 0, got {max_iter}")
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

    lap4 = 0.25 * _laplacian_matrix(n, hx, hy, wide=True)
    lap2 = 0.25 * _laplacian_matrix(n, hx, hy, wide=False)
    lap_size = float(np.max(abs(lap4).sum(axis=1)))
    c2i = c2[1:-1, 1:-1]
    k = n - 2
    iterations = 0
    factorizations = 0
    lu = d_factored = None
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        R = _residual4(v, c2, hx, hy)
    res = float(np.max(np.abs(R)))
    if not np.isfinite(res):
        raise ValidationError("the residual at the boundary data overflows; h_11 is too large")
    for iterations in range(max_iter + 1):
        if res <= tol:
            converged = True
            break
        if iterations == max_iter:
            break
        vi = v[1:-1, 1:-1]
        D = _source_jacobian(v, c2)
        d = D.diagonal()  # < 0 everywhere, so the quotient is defined
        if lu is None or np.max(np.abs(d / d_factored - 1.0)) > PRECONDITIONER_DRIFT:
            lu = None  # free the old factor before making the new one
            lu = spla.splu((lap2 + D).tocsc(), permc_spec="MMD_AT_PLUS_A")
            d_factored = d
            factorizations += 1
        delta = _newton_step(lap4 + D, lu, -R.ravel()).reshape(k, k)
        lam = 1.0
        while True:
            trial = v.copy()
            trial[1:-1, 1:-1] = vi + lam * delta
            R_trial = _residual4(trial, c2, hx, hy)
            res_trial = float(np.max(np.abs(R_trial)))
            if lam == 1.0 and _at_roundoff_floor(res_trial, res, lap_size,
                                                 trial[1:-1, 1:-1], c2i):
                if res_trial < res:
                    v, R, res = trial, R_trial, res_trial
                converged = True
                break
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
        if lam == 0.0 or converged:
            break

    h11 = np.exp(v)
    solution = TT2DSolution(
        rect=(x0, y0, x1, y1), n=n, x=x, y=y, h11=h11, residual=res,
        iterations=iterations, converged=converged, factorizations=factorizations,
        floor=_residual_floor(lap_size, v[1:-1, 1:-1], c2i),
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

    # Second derivatives: the 5-point-wide fourth-order formula on rows and
    # columns 2..n-3, the 3-point formula on the first interior ring.
    vxx = (v[:-2, 1:-1] - 2 * v[1:-1, 1:-1] + v[2:, 1:-1]) / hx**2
    vyy = (v[1:-1, :-2] - 2 * v[1:-1, 1:-1] + v[1:-1, 2:]) / hy**2
    if n >= 5:
        vxx[1:-1, :] = (-v[:-4, 1:-1] + 16 * v[1:-3, 1:-1] - 30 * v[2:-2, 1:-1]
                        + 16 * v[3:-1, 1:-1] - v[4:, 1:-1]) / (12 * hx**2)
        vyy[:, 1:-1] = (-v[1:-1, :-4] + 16 * v[1:-1, 1:-3] - 30 * v[1:-1, 2:-2]
                        + 16 * v[1:-1, 3:-1] - v[1:-1, 4:]) / (12 * hy**2)
    vc = v[1:-1, 1:-1]
    r = 0.25 * (vxx + vyy) - np.exp(2 * vc) * c2[1:-1, 1:-1] + np.exp(-2 * vc)
    pde = float(np.max(np.abs(r)))
    inv_res = float(np.max(np.abs(solution.h11[:, 2:] - solution.h11[:, :-2]) / (2 * hy)))
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

    Newton stops at tol or, once a step no longer halves the residual, at
    the residual's round-off floor (_at_roundoff_floor).  On fine grids
    (n >= 256 on [-1, 1]) that floor lies above tol = 1e-12.
    """
    x0, _, x1, _ = _check_grid(rect, n)
    x = np.linspace(x0, x1, n)
    hstep = (x1 - x0) / (n - 1)
    c2 = _fppp_sq(spec, x, np.zeros(n))
    # Same mixed-order second-derivative stencil as the 2-d solver, so
    # that the y-independent extension solves the 2-d system exactly.
    lap = 0.25 * _d2_matrix(n, hstep, wide=True).toarray()
    lap_size = np.max(np.sum(np.abs(lap), axis=1))
    v = np.zeros(n)
    res = prev = np.inf
    for _ in range(max_iter):
        vi = v[1:-1]
        grow = np.exp(2 * vi) * c2[1:-1]
        decay = np.exp(-2 * vi)
        R = 0.25 * _lap4_1d(v, 0, hstep) - grow + decay
        res = float(np.max(np.abs(R)))
        if not np.isfinite(res):
            break
        if res <= tol or _at_roundoff_floor(res, prev, lap_size, vi, c2[1:-1]):
            h1d = np.exp(v)

            def boundary(X, Y):
                return np.interp(np.asarray(X, dtype=float), x, h1d)

            return boundary
        prev = res
        v[1:-1] += np.linalg.solve(lap + np.diag(-2.0 * grow - 2.0 * decay), -R)
    raise NoConvergence(f"1-d boundary reduction stopped at residual {res:.3e}")

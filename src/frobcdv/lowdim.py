"""Relation checks of the pairing and connection, and the 2d PDE solver.

check_relations applies at every dimension, and the dimension-2 and
dimension-3 systems add their own relations to it.  The checkers work in
flat antidiagonal normal-form coordinates (g = antidiag(1,...,1), unit
field = d/dt^1), at one point or at a stack of points (a leading axis),
where each hands its report its residual at each point.  The connection
entries use the classical index convention omega_i^j(d_k): lower index =
input vector, upper index = output component, stored as W[k, i, j].

Only the tt* solve uses scipy, so its functions import scipy.sparse and
scipy.linalg on first use and the pointwise checks load numpy alone.
They call through the module (spla.gcrotmk), never a bound name, so that
a wrapper patched onto scipy.sparse.linalg sees every call.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .canonical import as_frame
from .cdv import kappa_defect, pairing_defect
from .errors import NoConvergence, NotNormalForm, Singular, ValidationError
from .potential import PotentialSpec, diff_terms, eval_terms, flat_metric, reduced_wdvv_scalar
from .report import VerificationReport


@dataclass(frozen=True)
class LowDimInput:
    """Normal-form point data consumed by the relation checkers (a stack's
    on a leading axis)."""

    m: int
    h: np.ndarray        # pairing in the flat basis
    omega: np.ndarray    # omega[k, i, j] = omega_i^j(d/dt^k)
    C3: np.ndarray       # third derivatives at the same point


def _require_normal_form(spec):
    if not spec.normal_form:
        raise NotNormalForm("this check requires a spec in antidiagonal normal form")


def from_canonical(spec, t) -> LowDimInput:
    """Build normal-form point data from the canonical construction.

    t is a point, a stack or the CanonicalFrame there.  The Chern forms
    omega_i^j = sum_k (d h_ik) h^kj are that one frame's chern, and h and
    the third derivatives are read from it too.
    """
    _require_normal_form(spec)
    frame = as_frame(spec, t)
    return LowDimInput(m=spec.dim, h=frame.h, omega=frame.chern, C3=frame.ev.C3)


def _omega_antisymmetry(inp: LowDimInput):
    """max |omega_i^j + omega^{m+1-i}_{m+1-j}| over all directions, at each
    point."""
    mirrored = np.swapaxes(inp.omega[..., ::-1, ::-1], -1, -2)
    return np.max(np.abs(inp.omega + mirrored), axis=(-3, -2, -1))


def check_relations(inp: LowDimInput, tol) -> VerificationReport:
    """The checks of the pairing and connection at every dimension: kappa
    is an involution for the normal-form metric J = antidiag(1, ..., 1)
    and h is positive definite (verify's kappa_defect and pairing_defect),
    and the Chern forms are J-antisymmetric."""
    report = VerificationReport()
    report.add("kappa_involution", kappa_defect(np.eye(inp.m)[::-1] @ inp.h), tol)
    report.add("hermitian_pairing", pairing_defect(inp.h), tol)
    report.add("omega_antisymmetry", _omega_antisymmetry(inp), tol)
    return report


def check_m2_relations(inp: LowDimInput, tol) -> VerificationReport:
    """check_relations and, in dimension 2, the positive diagonal pairing
    h = diag(h_11, 1/h_11) with Re h_11 >= 0."""
    if inp.m != 2:
        raise NotNormalForm("dimension-2 relations need m = 2")
    h = np.reshape(inp.h, (-1, 2, 2))  # one point: a stack of one
    report = check_relations(inp, tol)
    report.add("m2_positive_diagonal", np.maximum.reduce(
        [np.abs(h[:, 0, 0] * h[:, 1, 1] - 1.0), np.abs(h[:, 0, 1]), np.abs(h[:, 1, 0]),
         -h[:, 0, 0].real]), tol)
    return report


def check_m3_relations(inp: LowDimInput, tol) -> VerificationReport:
    """check_relations and, in dimension 3, three connection relations,
    the reduced associativity scalar and the two relations implied by
    them."""
    if inp.m != 3:
        raise NotNormalForm("dimension-3 relations need m = 3")
    W, C = (np.reshape(x, (-1, 3, 3, 3)) for x in (inp.omega, inp.C3))  # one point: a stack of one
    report = check_relations(inp, tol)

    C222, C223, C233, C333 = C[:, 1, 1, 1], C[:, 1, 1, 2], C[:, 1, 2, 2], C[:, 2, 2, 2]
    W100, W101, W110 = W[:, 1, 0, 0], W[:, 1, 0, 1], W[:, 1, 1, 0]
    W200, W201, W210 = W[:, 2, 0, 0], W[:, 2, 0, 1], W[:, 2, 1, 0]
    dphi = (
        W201 - W100,
        C222 * W100 + W200 - C223 * W101 - W110,
        C223 * W100 - C233 * W101 - W210,
    )
    for idx, val in enumerate(dphi, start=1):
        report.add(f"m3_dphi_relation_{idx}", np.abs(val), tol)

    report.add("m3_wdvv_scalar", reduced_wdvv_scalar(C), tol)

    implied_23 = C223 * W200 - C333 * W101 - C223 * W110 + C222 * W210
    implied_13 = C333 * W100 - C233 * W200 + C233 * W110 - C223 * W210
    report.add("m3_implied_relation_23", np.abs(implied_23), tol)
    report.add("m3_implied_relation_13", np.abs(implied_13), tol)
    return report


def check_euler_degree(spec, t, tol) -> VerificationReport:
    """Degree relation (E - Ebar) h_ij = (d_j - d_i) h_ij in flat coordinates,
    at a point t, a stack of points t or the CanonicalFrame t, with h and
    its derivatives read from the frame."""
    _require_normal_form(spec)
    frame = as_frame(spec, t)
    Eh = np.einsum("...k,...kij->...ij", spec.euler_components(frame.point), frame.dh)
    lhs = Eh - np.conj(np.swapaxes(Eh, -1, -2))  # Ebar(h) = E(h)^dagger, as h is Hermitian
    degrees = np.asarray(spec.degrees)
    rhs = (degrees[None, :] - degrees[:, None]) * frame.h
    report = VerificationReport()
    report.add("euler_degree_relation", np.max(np.abs(lhs - rhs), axis=(-2, -1)), tol)
    return report


# ---------------------------------------------------------------------------
# The 2-dimensional tt* equation on a rectangle of the t^2-plane:
#     (1/4) Lap v = e^{2v} |f'''|^2 - e^{-2v},   v = log h_11,
# with Dirichlet boundary data for h_11.
# ---------------------------------------------------------------------------


# The preconditioner's V-cycle on lap2 + D is rebuilt once some entry of
# the source diagonal D has drifted by more than this relative amount from
# the D it was built with: both operators are negative definite, so a
# drift of at most delta keeps the stale-to-fresh spectrum in
# [1 - delta, 1 + delta].
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
    preconditioners: int  # V-cycle hierarchies of the preconditioner built
    floor: float         # round-off floor of the residual at h11 (_residual_floor)
    spec: PotentialSpec  # the spec solved for
    source: np.ndarray   # its |f'''|^2 on the grid (_fppp_sq), shape (n, n)


def _require_tt2d_spec(spec):
    """The equation is derived in normal form, so the spec must be a
    2-dimensional normal-form spec whose metric is J (flat_metric checks
    it)."""
    if spec.dim != 2:
        raise ValidationError("the 2d tt* equation needs a 2-dimensional spec")
    _require_normal_form(spec)
    flat_metric(spec)


def _fppp_sq(spec, X, Y):
    """|d^3 F / d(t^2)^3|^2 on the grid, at t = (0, x + i y), of a spec that
    _require_tt2d_spec accepts; raises ValidationError, naming the grid's
    rect, where it overflows."""
    _require_tt2d_spec(spec)
    Z = X + 1j * Y
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = np.abs(eval_terms(diff_terms(spec.terms, (0, 3)), (np.zeros_like(Z), Z))) ** 2
    if not np.all(np.isfinite(c2)):
        rect = ", ".join(f"{bound(v):g}" for bound in (np.min, np.max) for v in (X, Y))
        raise ValidationError(f"the source |f'''|^2 of the tt* equation overflows on the "
                              f"rect ({rect})")
    return c2


def _lap4_1d(v, axis, hstep):
    """Second derivative along an axis: wide fourth-order stencil in the
    deep interior, central second-order on the first ring.  Returns the
    interior block (edges stripped)."""
    v = np.moveaxis(v, axis, 0)
    out = np.empty_like(v[1:-1])
    if len(out) >= 3:
        out[1:-1] = (
            -v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]
        ) / (12.0 * hstep**2)
    # The first ring: one row twice when n = 3.
    out[0] = (v[0] - 2.0 * v[1] + v[2]) / hstep**2
    out[-1] = (v[-3] - 2.0 * v[-2] + v[-1]) / hstep**2
    return np.moveaxis(out, 0, axis)


def _exponentials(vi):
    """e^{2v} and e^{-2v} at the interior values vi, formed once per Newton
    iterate for its residual (_residual4), its Jacobian's source diagonal
    (_source_jacobian) and its round-off floor (_residual_floor)."""
    return np.exp(2.0 * vi), np.exp(-2.0 * vi)


def _residual4(v, c2i, exps, hx, hy):
    """Interior residual of (1/4) Lap v - e^{2v} c2 + e^{-2v}, order 4, with
    the source c2i and exps = _exponentials(vi) on the interior nodes."""
    lap = _lap4_1d(v, 0, hx)[:, 1:-1] + _lap4_1d(v, 1, hy)[1:-1, :]
    grow, decay = exps
    return 0.25 * lap - grow * c2i + decay


def _residual_floor(lap_size, vi, c2i, exps):
    """Round-off floor of the residual R = (1/4) Lap v - e^{2v} c2 + e^{-2v}
    at the interior values vi, with the source c2i and exps = (e^{2v},
    e^{-2v}) there; lap_size is the largest absolute row sum of (1/4) Lap,
    so |(1/4) Lap v| <= lap_size max|v| =: L.

    A first-order bound at each node, in units of u = eps / 2, with c2 and
    the spacings taken as exact (the solver and tt2d_residual share them):
    - Storing v rounds each value by up to u |v|.  That moves R by up to
      u (L + 2|v| (e^{2v} c2 + e^{-2v})): e^{+-2v} amplify it by 2|v|,
      which dominates where the source is large.
    - Evaluating R (_residual4) errs by up to 11u L + 5u e^{2v} c2 +
      4u e^{-2v}.  The 5-point stencil rounds its product by 30, its four
      additions, 12 h^2 twice and the quotient (8u), the sum over both
      axes adds u, and the two additions of the three terms of R add 2u
      to each.  exp (taken as accurate to one ulp) adds 2u to each
      exponential, and the product with c2 one more u.
    A Newton step from v cancels R up to its evaluation error there, and
    the residual then read adds that error again: the floor is the first
    bound plus twice the second, maximised over the nodes.
    """
    u = 0.5 * np.finfo(float).eps
    av = np.abs(vi)
    grow, decay = exps
    return u * (23.0 * lap_size * np.max(av) + np.max(
        (10.0 + 2.0 * av) * grow * c2i + (8.0 + 2.0 * av) * decay))


def _at_roundoff_floor(res, prev, lap_size, vi, c2i, exps):
    """Whether Newton has reached the round-off floor: a step from
    residual prev to res no longer halves it, and res is at most
    _residual_floor at the interior values vi it was taken to."""
    return res > 0.5 * prev and res <= _residual_floor(lap_size, vi, c2i, exps)


def _source_jacobian(c2i, exps):
    """Derivative of -e^{2v} c2 + e^{-2v} on the interior nodes, with the
    source c2i and exps = _exponentials(vi) there, flattened in the
    Laplacian's node order: 0.25 times the wide Laplacian matrix plus this
    diagonal is the exact Jacobian of _residual4."""
    grow, decay = exps
    return (-2.0 * grow * c2i - 2.0 * decay).ravel()


def _d2_matrix(n, hstep, wide):
    """Dense second difference on the n - 2 interior nodes of a line: with
    ``wide`` the matrix of _lap4_1d, read off from its action on the
    interior unit vectors, otherwise the 3-point formula on every row."""
    k = n - 2
    if not wide:
        return (np.eye(k, k, -1) - 2.0 * np.eye(k) + np.eye(k, k, 1)) / hstep**2
    unit = np.zeros((n, k))
    unit[1:-1] = np.eye(k)
    return _lap4_1d(unit, 0, hstep)


def _laplacian_matrix(n, hx, hy, wide):
    """Sparse Laplacian on the (n-2) x (n-2) interior grid (see _d2_matrix),
    stored by diagonals (DIA) with node (ix, iy) at row ix (n-2) + iy.
    The 1-d matrices' diagonals (offsets o = -2..2) are broadcast over the
    grid: x's varies with ix and goes to offset (n-2) o, y's varies with
    iy and goes to offset o.  Each DIA row holds column j's entry, and the
    zeros that pad a 1-d diagonal to the matrix's width keep the grid
    lines apart."""
    import scipy.sparse as sp

    k = n - 2
    d2 = {hstep: _d2_matrix(n, hstep, wide) for hstep in {hx, hy}}  # once on a square grid
    parts = {}
    for hstep, stride, axis in ((hx, k, 0), (hy, 1, 1)):
        for offset in range(-2, 3):
            diag = np.diagonal(d2[hstep], offset)
            if diag.any():
                row = np.zeros(k)
                row[max(offset, 0):k + min(offset, 0)] = diag
                parts.setdefault(stride * offset, []).append(np.expand_dims(row, 1 - axis))
    # One block for all diagonals: a grid array per diagonal, copied into
    # one at the end, made the assembly about twice as slow.
    data = np.zeros((len(parts), k, k))
    for grid, rows in zip(data, parts.values()):
        for row in rows:
            grid += row
    return sp.dia_matrix((data.reshape(len(parts), k * k), list(parts)), shape=(k * k, k * k))


# The V-cycle preconditioner (_Multigrid): damped Jacobi with this weight,
# this many sweeps before and after each coarse correction, and a banded
# Cholesky solve once a level has at most COARSEST_NODES nodes.  Below
# about a thousand nodes a level's transfers and Galerkin product cost
# more in scipy's per-call overhead than in arithmetic, while the banded
# factor of a 31 x 31 level takes 0.25-0.5 ms in LAPACK's lower layout,
# with one BLAS thread or OpenBLAS's default count (the upper layout took
# 2 ms under the default count on 2 cores).
JACOBI_WEIGHT = 0.8
JACOBI_SWEEPS = 2
COARSEST_NODES = 1024


def _interpolation_1d(k):
    """Linear interpolation onto the k interior nodes of a line from the
    k // 2 coarse ones at fine indices 1, 3, 5, ..., with zero
    (Dirichlet) values beyond both ends."""
    import scipy.sparse as sp

    cols = np.repeat(np.arange(k // 2), 3)
    rows = 2 * cols + np.tile([0, 1, 2], k // 2)
    vals = np.tile([0.5, 1.0, 0.5], k // 2)
    keep = rows < k
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(k, k // 2))


def _transfers(k, hx, hy):
    """Interpolations R (and R^T, as CSR) from each level of a V-cycle
    on the k x k interior grid with spacings hx, hy to the level above,
    finest first, down to a level of at most COARSEST_NODES nodes; none
    when the grid itself is that small.

    R is the Kronecker product of the 1-d linear interpolations, in
    _laplacian_matrix's node order.  A direction is coarsened only while
    its spacing is at most twice the other's (semi-coarsening), so that
    on long thin rectangles Jacobi still smooths what the coarse level
    cannot see.  The last R numbers the coarsest kx x ky grid along its
    shorter side, so that the band of its operator, which _Multigrid
    factors, is min(kx, ky) + 1 wide.
    """
    import scipy.sparse as sp

    transfers = []
    kx = ky = k
    while kx * ky > COARSEST_NODES:
        cx = kx > 1 and (hx <= 2.0 * hy or ky == 1)
        cy = ky > 1 and (hy <= 2.0 * hx or kx == 1)
        Rx = _interpolation_1d(kx) if cx else sp.identity(kx)
        # Lines of one size, coarsened alike, share their 1-d factor.
        Ry = Rx if (ky, cy) == (kx, cx) else _interpolation_1d(ky) if cy else sp.identity(ky)
        R = sp.kron(Rx, Ry, format="csr")
        transfers.append((R, R.T.tocsr()))
        if cx:
            kx, hx = kx // 2, 2.0 * hx
        if cy:
            ky, hy = ky // 2, 2.0 * hy
    if kx < ky:
        # Coarse node (ix, iy) moves from ix ky + iy to iy kx + ix.
        R = transfers[-1][0][:, np.arange(kx * ky).reshape(kx, ky).T.ravel()]
        transfers[-1] = (R, R.T.tocsr())
    return transfers


def _lower_band(A):
    """The lower triangle of the symmetric sparse matrix A, in any scipy
    format, in LAPACK's banded layout: row o holds subdiagonal o."""
    A = A.tocoo()
    lower = A.row >= A.col
    rows, cols = A.row[lower], A.col[lower]
    band = np.zeros((int(np.max(rows - cols)) + 1, A.shape[1]))
    band[rows - cols, cols] = A.data[lower]
    return band


class _Multigrid:
    """Geometric multigrid V-cycle for the matrix P of a grid, on the
    levels that transfers (from _transfers) give.

    Each coarse operator is the Galerkin product R^T A R, so the source
    diagonal of P reaches every level.  P = 0.25 lap2 + D with D < 0 is
    negative definite, and so is every R^T A R: the V-cycle ends in a
    banded Cholesky solve with -A of the coarsest level, whose lower band
    (_lower_band) is factored once here, whether that level is P itself
    or a Galerkin product; a factorisation that fails raises Singular.
    The finest level smooths on P as given (DIA in solve_tt2d), which is
    converted to CSR once, for its product; the coarse levels are CSR.
    solve(b) applies one V-cycle of damped Jacobi.
    """

    def __init__(self, P, transfers):
        import scipy.linalg as la

        self.levels = []
        A = P
        for R, RT in transfers:
            self.levels.append((A, JACOBI_WEIGHT / A.diagonal(), R, RT))
            A = RT @ A.tocsr() @ R
        try:
            self.coarse_factor = la.cholesky_banded(-_lower_band(A), lower=True,
                                                    check_finite=False)
        except la.LinAlgError as exc:
            raise Singular(f"the coarsest V-cycle level ({A.shape[0]} nodes) is not "
                           f"negative definite: {exc}") from exc

    def solve(self, b):
        return self._cycle(0, b)

    def _cycle(self, level, b):
        if level == len(self.levels):
            import scipy.linalg as la

            return -la.cho_solve_banded((self.coarse_factor, True), b, check_finite=False)
        A, winv, R, RT = self.levels[level]
        x = winv * b
        for _ in range(JACOBI_SWEEPS - 1):
            x += winv * (b - A @ x)
        x += R @ self._cycle(level + 1, RT @ (b - A @ x))
        for _ in range(JACOBI_SWEEPS):
            x += winv * (b - A @ x)
        return x


# Forcing terms of Eisenstat and Walker (SIAM J. Sci. Comput. 17, 1996),
# choice 2 with gamma = 0.9, alpha = 2, on the max-norm residual: the
# first Newton step is solved to FORCING_CAP, and none more tightly than
# to FORCING_FLOOR.
FORCING_CAP, FORCING_FLOOR = 0.1, 1e-6


def _forcing_term(res, prev, tol):
    """Relative tolerance of the Newton step at residual res, after a
    step from residual prev (None before the first step).

    Kelley's safeguard (Iterative Methods for Linear and Nonlinear
    Equations, SIAM 1995, section 6.3) solves no step more tightly than
    to 0.5 tol / res, which brings the linearised residual to half the
    Newton tolerance tol, so the last step is not oversolved either.
    tol = 0 or res = 0 leaves the Eisenstat-Walker term alone.
    """
    if prev is None:
        return FORCING_CAP
    eta = max(FORCING_FLOOR, 0.9 * (res / prev) ** 2)
    if res > 0.0:
        eta = max(eta, 0.5 * tol / res)
    return min(FORCING_CAP, eta)


def _newton_step(J, mg, rhs, rtol):
    """Solve J x = rhs to the relative 2-norm residual rtol by flexible
    GMRES (scipy's GCROT(m,k)), right-preconditioned by the V-cycle mg,
    perhaps of an earlier step's Jacobian (PRECONDITIONER_DRIFT): one
    V-cycle per Krylov iteration and none else, as x is formed from the
    preconditioned basis and the true residual re-checked with J alone.
    rhs is scaled to max-norm 1 so that the Krylov norms cannot overflow.
    A solve short of rtol is returned for the line search to judge.
    """
    import scipy.sparse.linalg as spla

    scale = np.max(np.abs(rhs))
    M = spla.LinearOperator(J.shape, matvec=mg.solve, dtype=float)
    x, _ = spla.gcrotmk(J, rhs / scale, M=M, rtol=rtol, atol=0.0)
    return scale * x


def _check_grid(rect, n):
    """The corners of rect as floats, once an n x n grid on it is usable:
    x0 < x1 and y0 < y1, so that the spacings are positive, the squared
    spacings h^2 finite, and 1/h^2 small enough that the stencils'
    coefficients (row sums up to (16/3) / h^2) are too."""
    x0, y0, x1, y1 = (float(c) for c in rect)
    if n < 3:
        raise ValidationError(f"the grid needs at least 3 nodes per side, got {n}")
    if not (np.all(np.isfinite((x0, y0, x1, y1))) and x0 < x1 and y0 < y1):
        raise ValidationError(f"rect (x0, y0, x1, y1) = {rect} must be finite with x0 < x1 "
                              f"and y0 < y1")
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        h2 = np.square([(x1 - x0) / (n - 1), (y1 - y0) / (n - 1)])
        inv_h2 = 1.0 / h2
    if not (np.all(np.isfinite(h2)) and np.all(inv_h2 <= np.finfo(float).max / 16)):
        raise ValidationError(
            f"rect {rect} is too thin or too wide for a grid of n = {n}: the squared "
            f"spacings {h2[0]:.3g}, {h2[1]:.3g} are out of floating-point range")
    return x0, y0, x1, y1


def _boundary_values(boundary, X, Y):
    """Dirichlet h_11 on the full grid (only the edge entries are used),
    from a number or a callable boundary(X, Y)."""
    if callable(boundary):
        vals = np.asarray(boundary(X, Y))
        # Casting would drop an imaginary part or raise a bare TypeError.
        if vals.dtype.kind not in "iuf":
            raise ValidationError(
                f"boundary(X, Y) must return real numbers, got dtype {vals.dtype}")
        try:
            vals = np.broadcast_to(vals.astype(float), X.shape)
        except ValueError:
            raise ValidationError(f"boundary(X, Y) has shape {vals.shape}, which does not "
                                  f"broadcast to the grid's {X.shape}") from None
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
    residual (the mixed-order stencil matrix plus the diagonal D of the
    source's derivative) to the Eisenstat-Walker forcing term, with
    Kelley's safeguard for tol (_forcing_term), by flexible GMRES with
    one multigrid V-cycle (_Multigrid) on the 5-point Jacobian lap2 + D
    per Krylov iteration.
    Only D changes between steps: both matrices are assembled once and
    stored by diagonals, each step rewrites the main-diagonal row of J,
    and P's row and the V-cycle's levels are rebuilt only when D has
    drifted (PRECONDITIONER_DRIFT); on p1 one hierarchy serves the whole
    solve.  Each iterate's e^{+-2v} are formed once (_exponentials).  A
    damped line search on the max-norm residual accepts the step, and
    rejects one whose residual overflows.  The solution records the spec
    and the source |f'''|^2 it was solved with, which tt2d_residual reads.

    boundary gives the Dirichlet data for h_11: a positive number, or a
    callable boundary(X, Y) on the grid such as invariant_boundary
    returns.  Data that is not finite and positive, or so large that the
    residual overflows, raises ValidationError.  Euler invariance
    (independence of Im t^2) is not enforced; tt2d_residual measures it.

    Newton stops at tol or, once a full step no longer halves the
    residual, at its round-off floor (as invariant_boundary does): where
    the source is large, tol can lie below that floor.  The solution
    records the floor, and the residual counts as converged at it.  A
    solve that stops short, at max_iter or in a line search that accepts
    no damping of the step, raises NoConvergence, or is returned
    unconverged when raise_on_failure is False.
    """
    x0, y0, x1, y1 = _check_grid(rect, n)
    if max_iter < 0:
        raise ValidationError(f"max_iter must be >= 0, got {max_iter}")
    x = np.linspace(x0, x1, n)
    y = np.linspace(y0, y1, n)
    hx, hy = (x1 - x0) / (n - 1), (y1 - y0) / (n - 1)
    X, Y = np.meshgrid(x, y, indexing="ij")
    c2 = _fppp_sq(spec, X, Y)

    bvals = _boundary_values(boundary, X, Y)
    v = np.log(bvals.mean()) * np.ones((n, n))
    for edge in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        v[edge] = np.log(bvals[edge])

    # J = 0.25 lap4 + D and P = 0.25 lap2 + D, stored by diagonals: 0.25
    # scales their data in place (exactly, as a power of 2), and D goes
    # into their main-diagonal rows (offset 0), which diag_J and diag_P view.
    J = _laplacian_matrix(n, hx, hy, wide=True)
    P = _laplacian_matrix(n, hx, hy, wide=False)
    J.data *= 0.25
    P.data *= 0.25
    lap_size = float(np.max(abs(J) @ np.ones(J.shape[1])))  # before D goes in
    transfers = _transfers(n - 2, hx, hy)  # fixed by the grid, so made once
    diag_J, diag_P = (A.data[list(A.offsets).index(0)] for A in (J, P))
    lap4_diag, lap2_diag = diag_J.copy(), diag_P.copy()
    c2i = c2[1:-1, 1:-1]
    k = n - 2
    iterations = preconditioners = 0
    mg = d_built = prev = None
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        exps = _exponentials(v[1:-1, 1:-1])
        R = _residual4(v, c2i, exps, hx, hy)
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
        d = _source_jacobian(c2i, exps)  # < 0 everywhere, so the quotient is defined
        if mg is None or np.max(np.abs(d / d_built - 1.0)) > PRECONDITIONER_DRIFT:
            mg = None  # free the old hierarchy before building the new one
            np.add(lap2_diag, d, out=diag_P)
            mg = _Multigrid(P, transfers)
            d_built = d
            preconditioners += 1
        np.add(lap4_diag, d, out=diag_J)
        delta = _newton_step(J, mg, -R.ravel(), _forcing_term(res, prev, tol)).reshape(k, k)
        prev = res
        lam = 1.0
        while True:
            trial = v.copy()
            trial[1:-1, 1:-1] = vi + lam * delta
            with np.errstate(over="ignore", invalid="ignore"):
                exps_trial = _exponentials(trial[1:-1, 1:-1])
                R_trial = _residual4(trial, c2i, exps_trial, hx, hy)
            res_trial = float(np.max(np.abs(R_trial)))
            if lam == 1.0 and np.isfinite(res_trial) and _at_roundoff_floor(
                    res_trial, res, lap_size, trial[1:-1, 1:-1], c2i, exps_trial):
                if res_trial < res:
                    v, exps, R, res = trial, exps_trial, R_trial, res_trial
                converged = True
                break
            if res_trial <= (1.0 - 0.25 * lam) * res or res_trial <= tol:
                v, exps, R, res = trial, exps_trial, R_trial, res_trial
                break
            lam *= 0.5
            if lam < 2.0**-30:
                if raise_on_failure:
                    raise NoConvergence(f"line search stalled at residual {res:.3e}")
                lam = 0.0
                break
        if lam == 0.0 or converged:
            break

    h11 = np.exp(v)
    solution = TT2DSolution(
        rect=(x0, y0, x1, y1), n=n, x=x, y=y, h11=h11, residual=res,
        iterations=iterations, converged=converged, preconditioners=preconditioners,
        floor=_residual_floor(lap_size, v[1:-1, 1:-1], c2i, exps), spec=spec, source=c2,
    )
    if not converged and raise_on_failure:
        raise NoConvergence(f"Newton stopped after {iterations} iterations at residual {res:.3e}")
    return solution


def residual_grid(spec, solution: TT2DSolution):
    """Per-node |PDE residual| of the stored h_11 field, zero on the boundary.

    Re-assembles the fourth-order residual and its exponentials from
    log h_11 with explicit shifted slices rather than the solver's helpers,
    so it checks them independently.  The source is the one the solution
    was solved with: a spec that the equation does not admit, or that the
    solution was not solved for, raises.
    """
    _require_tt2d_spec(spec)
    if spec != solution.spec:
        raise ValidationError("the tt* solution was solved for another spec")
    n = solution.n
    x0, y0, x1, y1 = solution.rect
    hx, hy = (x1 - x0) / (n - 1), (y1 - y0) / (n - 1)
    c2 = solution.source
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
    grid = np.zeros((n, n))
    grid[1:-1, 1:-1] = np.abs(0.25 * (vxx + vyy) - np.exp(2 * vc) * c2[1:-1, 1:-1]
                              + np.exp(-2 * vc))
    return grid


def tt2d_residual(spec, solution: TT2DSolution, grid=None):
    """Independent re-evaluation of the PDE and invariance residuals: the
    maximum of residual_grid (grid, if the caller has evaluated it), and
    max |d h_11 / dy| by central differences."""
    _, y0, _, y1 = solution.rect
    hy = (y1 - y0) / (solution.n - 1)
    pde = float(np.max(residual_grid(spec, solution) if grid is None else grid))
    inv_res = float(np.max(np.abs(solution.h11[:, 2:] - solution.h11[:, :-2]) / (2 * hy)))
    return pde, inv_res


def write_tt2d_csv(spec, solution: TT2DSolution, path, grid=None):
    """Grid dump for external plotting: one row per node, its residual from
    residual_grid (grid, if the caller has evaluated it)."""
    grid = (residual_grid(spec, solution) if grid is None else grid).tolist()
    # Python floats, whose repr is the text; each coordinate's text is made once.
    xs, ys = ([repr(v) for v in a.tolist()] for a in (solution.x, solution.y))
    with open(path, "w") as fh:
        fh.write("x,y,h11,residual\n")
        for x, h_row, r_row in zip(xs, solution.h11.tolist(), grid):
            fh.writelines(f"{x},{y},{h!r},{r!r}\n" for y, h, r in zip(ys, h_row, r_row))


# Newton tolerance and iteration cap of the 1-d boundary reduction.
BOUNDARY_TOL = 1e-12
BOUNDARY_MAX_ITER = 60


def invariant_boundary(spec, rect, n):
    """Boundary data from the 1-dimensional reduction of the equation.

    Solves (1/4) v''(x) = e^{2v} |f'''|^2 - e^{-2v} with h_11 = 1 at the
    rectangle's x-extremes and returns a callable boundary(X, Y) that is
    independent of y.  Meaningful when |f'''| depends only on Re t^2.

    Newton stops at BOUNDARY_TOL or, once a step no longer halves the
    residual, at the residual's round-off floor (_at_roundoff_floor).  On
    fine grids (n >= 256 on [-1, 1]) that floor lies above BOUNDARY_TOL.
    """
    x0, _, x1, _ = _check_grid(rect, n)
    x = np.linspace(x0, x1, n)
    hstep = (x1 - x0) / (n - 1)
    c2 = _fppp_sq(spec, x, np.zeros(n))
    # Same mixed-order second-derivative stencil as the 2-d solver, so
    # that the y-independent extension solves the 2-d system exactly.
    lap = 0.25 * _d2_matrix(n, hstep, wide=True)
    lap_size = np.max(np.sum(np.abs(lap), axis=1))
    c2i = c2[1:-1]
    v = np.zeros(n)
    res = prev = np.inf
    for _ in range(BOUNDARY_MAX_ITER):
        vi = v[1:-1]
        exps = _exponentials(vi)
        grow, decay = exps[0] * c2i, exps[1]
        R = 0.25 * _lap4_1d(v, 0, hstep) - grow + decay
        res = float(np.max(np.abs(R)))
        if not np.isfinite(res):
            break
        if res <= BOUNDARY_TOL or _at_roundoff_floor(res, prev, lap_size, vi, c2i, exps):
            h1d = np.exp(v)

            def boundary(X, Y):
                return np.interp(np.asarray(X, dtype=float), x, h1d)

            return boundary
        prev = res
        v[1:-1] += np.linalg.solve(lap + np.diag(-2.0 * grow - 2.0 * decay), -R)
    raise NoConvergence(f"1-d boundary reduction stopped at residual {res:.3e}")

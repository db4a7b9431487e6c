"""Solve the 2-dimensional tt* equation on a rectangle.

The equation (1/4) Lap v = e^{2v} |F'''|^2 - e^{-2v} for v = log h_11 is
solved by damped Newton-Krylov on the exact Jacobian of its mixed-order
stencil.  For a constant source the constant field is the exact
solution; for the exponential potential the boundary comes from the
1-dimensional reduction, and the solution stays independent of Im t^2
(Euler invariance) without enforcing it.
"""

import numpy as np

from frobcdv import catalog, invariant_boundary, solve_tt2d, tt2d_residual

rect = (-1.0, -1.0, 1.0, 1.0)

spec = catalog("cubic2")
sol = solve_tt2d(spec, rect, 64, 1.0)
print("== cubic2, constant boundary 1 ==")
print(f"  iterations={sol.iterations}  residual={sol.residual:.3e}")
print(f"  max |h11 - 1| = {np.max(np.abs(sol.h11 - 1.0)):.3e}")
print()

spec = catalog("p1")
sol = solve_tt2d(spec, rect, 64, invariant_boundary(spec, rect, 64), tol=1e-10)
pde, inv = tt2d_residual(spec, sol)
print("== p1, boundary from the 1-d reduction ==")
print(f"  iterations={sol.iterations}  residual={sol.residual:.3e}")
print(f"  independent re-evaluation: pde={pde:.3e}  d/d(Im t2)={inv:.3e}")
print(f"  h11 range: [{sol.h11.min():.4f}, {sol.h11.max():.4f}]")

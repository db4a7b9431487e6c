"""Flat family of connections and the dimension-2/3 relation systems.

First checks that the one-parameter family of connections built from the
canonical data is flat at several values of the parameter; then runs the
relation checks of the pairing and connection, with the closed-form
systems of dimensions 2 and 3.
"""

from frobcdv import A3_POINT, catalog, check_euler_degree, pencil_curvature
from frobcdv.lowdim import check_m2_relations, check_m3_relations, from_canonical

spec = catalog("quartic2")
point = (0.0, 1.0)
report = pencil_curvature(spec, point, [1.0, 1.0j, 2.0], 1e-5)
print("== quartic2 pencil curvature over z in {1, i, 2} ==")
for line in report.summary_lines():
    print(" ", line)
print()

print("== quartic2 dimension-2 relations ==")
inp = from_canonical(spec, point)
for line in check_m2_relations(inp, 1e-9).summary_lines():
    print(" ", line)
print("  h diagonal:", inp.h[0, 0].real, inp.h[1, 1].real, "(product = 1)")
print()

spec3 = catalog("a3_3d")
print("== a3_3d dimension-3 relations ==")
inp3 = from_canonical(spec3, A3_POINT)
for line in check_m3_relations(inp3, 1e-9).summary_lines():
    print(" ", line)
for line in check_euler_degree(spec3, A3_POINT, 1e-10).summary_lines():
    print(" ", line)

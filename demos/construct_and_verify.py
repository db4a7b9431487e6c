"""Build the canonical structure at a semi-simple point and verify every axiom.

Walks through the whole pipeline for two catalog potentials: canonical
coordinates from the Euler operator, idempotent frame, the canonical
involution/pairing/connection, and the full residual report.
"""

import numpy as np

from frobcdv import (
    A3_POINT,
    canonical_frame,
    catalog,
    construct_canonical_cdv,
    flat_frame_h,
    harmonic_potential,
    verify_cv_axioms,
    verify_harmonic,
)

for name, point in [("quartic2", (0.0, 1.0)), ("a3_3d", A3_POINT)]:
    spec = catalog(name)
    frame = canonical_frame(spec, point)
    print(f"== {name} at t = {point} ==")
    print("canonical values u:", np.round(frame.u, 6))
    print("eta:", np.round(frame.eta, 6))

    cdv = construct_canonical_cdv(frame, spec.d)
    print("K =", np.round(np.diag(cdv.K), 6))
    print("h =", np.round(np.diag(cdv.h).real, 6))
    lam_min = np.linalg.eigvalsh(flat_frame_h(spec, point))[0]
    print(f"smallest eigenvalue of h in the flat basis: {lam_min:.6g}")

    report = verify_cv_axioms(spec, cdv, 1e-5)
    for line in report.summary_lines():
        print(" ", line)

    hd = harmonic_potential(frame, spec.d)
    report = verify_harmonic(spec, frame, hd, cdv, 1e-5)
    for line in report.summary_lines():
        print(" ", line)
    print()

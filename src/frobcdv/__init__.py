"""Canonical positive CDV-structures on semi-simple Frobenius manifolds."""

from .errors import (
    DefectiveU,
    DegenerateMetric,
    EvaluationFailure,
    FrobCdvError,
    NoConvergence,
    NotNormalForm,
    NotSemisimple,
    ParseError,
    Singular,
    UnknownName,
    ValidationError,
)
from .potential import (
    FlatPointEval,
    PotentialSpec,
    flat_eval,
    flat_metric,
    wdvv_reduced_m3,
    wdvv_residual,
)
from .canonical import (
    CanonicalFrame,
    canonical_frame,
    check_euler_eta,
    check_homogeneity,
    check_wdvv,
)
from .catalog import (
    A3_POINT,
    CATALOG_NAMES,
    catalog,
    load_spec,
    spec_from_dict,
    spec_to_dict,
    write_spec,
)
from .cdv import (
    CdvStructure,
    DerivativeData,
    HarmonicData,
    connection_gap,
    construct_canonical_cdv,
    derivative_data,
    flat_frame_h,
    harmonic_potential,
    pencil_curvature,
    verify_cv_axioms,
    verify_harmonic,
)
from .lowdim import (
    LowDimInput,
    TT2DSolution,
    check_euler_degree,
    check_m2_relations,
    check_m3_relations,
    check_relations,
    from_canonical,
    invariant_boundary,
    solve_tt2d,
    tt2d_residual,
    write_tt2d_csv,
)
from .report import CheckEntry, VerificationReport

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

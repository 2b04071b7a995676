"""Monodromy data of semisimple Frobenius manifolds.

The package computes twisted reflection vectors, the twisted pairing
h_m, Stokes matrices, central connection matrices and wall-crossing
matrices for constant Frobenius models (the quantum cohomology of
projective spaces built in, other models loaded from JSON).  Two
independent routes give the data, direct integration of the z-plane
ODE and assembly from reflection vectors in the spectral plane, and
consistency_report checks the identities it must satisfy.
"""

__version__ = "0.1.0"

from .numerics import (
    Jet,
    LogBranchPoint,
    rgamma,
    operator_power,
    calibrated_period,
    continue_linear_ode,
)
from .frobenius import (
    FrobeniusModel,
    ModelValidationError,
    SemisimpleData,
    qh_projective_space,
    save_model,
    load_model,
    canonical_data,
    calibration_series,
    rmatrix_series,
)
from .paths import (
    Direction,
    PathPlan,
    DistinguishedSystem,
    critical_directions,
    lexicographic_order,
    reference_system,
    simple_loop,
    braid_move,
    eta_sequences,
)

__all__ = [
    "__version__",
    "Jet",
    "LogBranchPoint",
    "rgamma",
    "operator_power",
    "calibrated_period",
    "continue_linear_ode",
    "FrobeniusModel",
    "ModelValidationError",
    "SemisimpleData",
    "qh_projective_space",
    "save_model",
    "load_model",
    "canonical_data",
    "calibration_series",
    "rmatrix_series",
    "Direction",
    "PathPlan",
    "DistinguishedSystem",
    "critical_directions",
    "lexicographic_order",
    "reference_system",
    "simple_loop",
    "braid_move",
    "eta_sequences",
]

"""Ricci flow of left-invariant diagonal metrics on the five closed
5-dimensional unimodular solvable contact Lie groups D1, D2, D3, D5, D11."""

from .asymptotics import (
    ClosedFormSolution,
    PowerLawFit,
    PreconditionViolation,
    fit_power_law,
    residual_check,
)
from .catalog import (
    InitialData,
    InvariantMonomial,
    ModelId,
    build_model,
    build_models,
    classify_case,
    constrained_params,
    describe,
    model_asymptotics,
    model_invariants,
)
from .curvature import (
    DiagonalityViolation,
    DiagonalMetric,
    NonpositiveMetricError,
    RicciForm,
    flow_rhs,
    ricci_forms,
    ricci_quadratic,
    ricci_tensor,
)
from .flow import (
    FlowProblem,
    Trajectory,
    integrate,
    integrate_many,
)
from .invariants import (
    RatioDiagnostic,
    detect_monomials,
    drift_report,
    ratio_diagnostics,
)
from .liecore import (
    BasisChange,
    StructureConstants,
    change_basis,
    jacobi_residual,
    jacobi_residuals,
    unimodularity_defect,
    unimodularity_defects,
)

__version__ = "0.1.0"

"""Solver and verification toolkit for the grouped symmetric ADMM.

The iteration runs two Jacobian block sweeps separated by two dual updates
(half stepsize tau, full stepsize s) on grouped multi-block separable convex
programs, and the surrounding harness certifies, per iteration, the
prediction-correction identity, the H-norm contraction, the O(1/t)
nonergodic envelope, the pointwise residual bounds, and the empirical
R-linear rate.
"""

from .diagnostics import (
    InsufficientTrace,
    NonergodicReport,
    PointwiseReport,
    RateConstants,
    RateReport,
    RegionNotCertified,
    error_map_residual,
    linear_rate_check,
    nonergodic_check,
    pointwise_residual_check,
    rate_constants,
    theta_hat,
)
from .engine import (
    CONVERGED,
    ITERATION_CAP,
    IterationRecord,
    NonFiniteIterate,
    Trace,
    solve,
)
from .generators import (
    DegenerateInstance,
    InstanceBundle,
    NonUniqueSolution,
    PatternExplosion,
    SplitMix64,
    default_config,
    gen_box_qp,
    gen_l1,
    gen_quadratic,
    standard_catalog,
)
from .model import (
    ALLOW_G,
    REQUIRE_D,
    Block,
    BlockProblem,
    Box,
    Free,
    Iterate,
    L1,
    Linear,
    Nonnegative,
    Quadratic,
    SolverConfig,
    ValidationReport,
    in_region_D,
    in_region_G,
    validate_config,
    validate_problem,
)
from .oracles import (
    Unbounded,
    UnsupportedCombination,
    project,
    prox_solve,
)
from .structure import (
    SingularM,
    StructuralMatrices,
    assemble,
    spectral_summary,
)

__all__ = [name for name in dir() if not name.startswith("_")]

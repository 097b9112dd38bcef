"""Numerical laboratory for low-rank symmetric matrix estimation in Gaussian
noise: replica-symmetric potentials and their fixed points, worst-noise
information inequalities, exact finite-size posteriors, and multiscale cavity
bookkeeping with growing rank."""

from .priors import (
    Prior,
    make_discretized_uniform,
    make_prior,
    make_rademacher,
    make_sparse_rademacher,
)
from .channel import (
    GaussQuadrature,
    check_mi_convexity,
    denoiser_scalar,
    gauss_hermite,
    mi_scalar_noise,
    mi_scalar_signal,
    mi_vector,
    mmse_scalar,
)
from .replica import (
    FixedPointResult,
    NonUniqueMaximizer,
    PhaseScan,
    PotentialEvaluation,
    f1_fixed_point,
    f1_rs,
    f1_sup,
    fm_fixed_point,
    fm_rs,
    fm_sup,
    mmse_prediction,
    phase_scan,
)
from .reduction import (
    ReductionReport,
    diagonal_trim_residual,
    noise_inequality_batch,
    random_psd,
    reduction_sweep,
    trace_noise_residual,
)
from .simulator import (
    BudgetError,
    ModelInstance,
    PerturbationParams,
    PosteriorSummary,
    free_entropy_mc,
    overlap_concentration,
    sample_instance,
)
from .cavity import (
    CavityIncrements,
    CavityReport,
    DimensionSchedule,
    FreeEntropyTable,
    build_table,
    cavity_report,
    cavity_weights,
    dims_schedule,
    increments,
    telescoping_check,
)

__version__ = "0.1.0"

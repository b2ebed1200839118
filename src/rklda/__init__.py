"""Reduced-rank linear discriminant subspaces at scale.

Fits the least-squares formulation of reduced-rank LDA with a randomized
row-projection (Kaczmarz) solver, alongside LSQR / pseudoinverse / ULDA
baselines, convergence diagnostics, and a kNN evaluation harness.
"""

__version__ = "0.1.0"

from .baselines import (
    Subspace,
    pinv_oracle,
    principal_angles,
    solve_lsqr,
    ulda_oracle,
)
from .diagnostics import (
    ConditionProfile,
    ConvergenceReport,
    condition_profile,
    error_bound,
    iterations_for_tolerance,
    residual_at,
    run_convergence_study,
)
from .errors import (
    ClassCoverageError,
    DataError,
    DegenerateLabels,
    DegenerateMatrix,
    DegenerateSubspace,
    InvalidData,
    NumericalDivergence,
    NumericalError,
    RkldaError,
    TooLarge,
    ZeroRowError,
)
from .evaluation import (
    ExperimentConfig,
    ExperimentReport,
    accuracy,
    fit_subspace,
    knn_classify,
    project,
    run_experiment,
    split,
)
from .labels import IndicatorMatrix, LabelVector, encode_labels, index_labels
from .matrix import CenteredMatrixView, build_centered_view, to_dense_centered
from .rk import SolveResult, SolverConfig, solve_rk
from .sampling import SamplingDistribution, build_sampler, sample_row, sample_rows
from .scatter import ScatterSet, scatter_matrices, scatter_traces

"""Convergence diagnostics for the randomized row-projection solver.

For the system Xc W = Y with least-norm solution W* and residual
R* = Y - Xc W*, the expected squared error of the k-th iterate obeys

    E ||W_k - W*||_F^2  <=  (1 - 1/kappa)^k ||W_0 - W*||_F^2 + beta ||R*||_F^2

with kappa = ||Xc||_F^2 / sigma_min_plus^2 a scaled condition number and
beta = 1 / sigma_min_plus^2 the residual-floor coefficient.  When the system
is consistent the floor vanishes and the decay is purely geometric.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import pinv_oracle
from .errors import DegenerateMatrix, InvalidData
from .labels import as_matrix
from .matrix import CenteredMatrixView
from .rk import SolverConfig, derive_seed, solve_rk
from .sampling import build_sampler

CONSISTENCY_RTOL = 1e-10


@dataclass(frozen=True)
class ConditionProfile:
    kappa: float
    sigma_plus_min: float
    frob_norm_sq: float

    @property
    def beta(self) -> float:
        return 1.0 / self.sigma_plus_min**2


@dataclass(frozen=True)
class Checkpoint:
    iteration: int
    empirical_mse: float
    bound: float
    std_error: float


@dataclass(frozen=True)
class ConvergenceReport:
    checkpoints: tuple[Checkpoint, ...]
    residual_floor: float
    consistent: bool
    relative_residual: float
    kappa: float
    beta: float
    initial_sq_error: float
    trials: int


def condition_profile(view: CenteredMatrixView) -> ConditionProfile:
    """kappa, smallest nonzero singular value, and squared Frobenius norm
    of the view's centered matrix Xc, from the singular values of its
    ``spectrum``; the ones below the rank cutoff would change frob_norm_sq
    by less than min(n, d) (max(n, d) eps)^2 relative."""
    s = view.spectrum[1]
    if len(s) == 0:
        raise DegenerateMatrix("matrix has numerical rank 0")
    frob_sq = float(np.sum(s**2))
    sigma_min = float(s[-1])
    return ConditionProfile(
        kappa=frob_sq / sigma_min**2,
        sigma_plus_min=sigma_min,
        frob_norm_sq=frob_sq,
    )


def error_bound(
    profile: ConditionProfile, eps0: float, resid_norm_sq: float, k: int
) -> float:
    """(1 - 1/kappa)^k * eps0 + beta * ||R*||_F^2 at iteration k."""
    if k < 0:
        raise InvalidData("iteration count must be >= 0")
    factor = 1.0 - 1.0 / profile.kappa
    return factor**k * eps0 + profile.beta * resid_norm_sq


def iterations_for_tolerance(eps: float, eps0: float, kappa: float) -> int:
    """Smallest k with (1 - 1/kappa)^k eps0 <= eps, i.e.

        k >= (log eps - log eps0) / log(1 - 1/kappa).

    Returns 0 when eps already exceeds eps0, and 1 when kappa <= 1 (a single
    projection annihilates the error term).  The denominator is taken as
    log1p(-1/kappa), which stays nonzero and accurate for large kappa; a
    count past the int64 range raises InvalidData.
    """
    if not all(map(math.isfinite, (eps, eps0, kappa))):
        raise InvalidData(f"eps, eps0 and kappa must be finite, got {eps}, {eps0}, {kappa}")
    if eps <= 0.0 or eps0 <= 0.0:
        raise InvalidData("tolerances must be positive")
    if eps >= eps0:
        return 0
    if kappa <= 1.0:
        return 1
    steps = (math.log(eps) - math.log(eps0)) / math.log1p(-1.0 / kappa)
    if not steps < 2.0**63:
        raise InvalidData(f"{steps:.3g} iterations for kappa = {kappa:g} exceed the int64 range")
    return math.ceil(steps)


def residual_at(W, view: CenteredMatrixView, Y) -> tuple[float, float]:
    """(||Y - Xc W||_F, relative to ||Y||_F) via streaming products."""
    Ym = as_matrix(Y, view.n)
    R = Ym - view.matmul(W)
    frob = float(np.linalg.norm(R))
    y_norm = float(np.linalg.norm(Ym))
    return frob, frob / y_norm if y_norm > 0 else float("inf")


def run_convergence_study(
    view: CenteredMatrixView,
    Y,
    trials: int,
    config: SolverConfig,
) -> ConvergenceReport:
    """Mean squared iterate error across independent solver restarts, paired
    with the theoretical bound at every checkpoint."""
    if trials < 1:
        raise InvalidData("trials must be >= 1")
    Ym = as_matrix(Y, view.n)
    profile = condition_profile(view)  # the profile, W* and R* share the view's spectrum
    w_star = pinv_oracle(view, Ym).matrix
    U = view.spectrum[0]
    # R* = Y - U U^T Y: exact at any offset, where a sparse view's lazy residual_at cancels
    resid_frob, y_norm = float(np.linalg.norm(Ym - U @ (U.T @ Ym))), float(np.linalg.norm(Ym))
    resid_rel = resid_frob / y_norm if y_norm > 0 else float("inf")
    resid_sq = resid_frob**2
    eps0 = float(np.linalg.norm(w_star) ** 2)  # every solve starts at W0 = 0

    dist = build_sampler(view)
    errs: dict[int, list[float]] = {}  # checkpoint k -> squared error of each trial

    def record(k: int, Wk: np.ndarray, _) -> None:
        errs.setdefault(k, []).append(np.linalg.norm(Wk - w_star) ** 2)

    for ss in np.random.SeedSequence(config.seed).spawn(trials):
        solve_rk(view, Ym, replace(config, seed=derive_seed(ss)), dist=dist, on_checkpoint=record)
    errors = np.column_stack(list(errs.values()))  # trials x checkpoints

    means = errors.mean(axis=0)
    if trials > 1:
        stderr = errors.std(axis=0, ddof=1) / np.sqrt(trials)
    else:
        stderr = np.zeros(len(errs))
    checkpoints = tuple(
        Checkpoint(
            iteration=k,
            empirical_mse=float(means[j]),
            bound=error_bound(profile, eps0, resid_sq, k),
            std_error=float(stderr[j]),
        )
        for j, k in enumerate(errs)
    )
    return ConvergenceReport(
        checkpoints=checkpoints,
        residual_floor=profile.beta * resid_sq,
        consistent=resid_rel < CONSISTENCY_RTOL,
        relative_residual=resid_rel,
        kappa=profile.kappa,
        beta=profile.beta,
        initial_sq_error=eps0,
        trials=trials,
    )

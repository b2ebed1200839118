"""Randomized Kaczmarz solver for the matrix least-squares system Xc W = Y.

Each iteration samples a row index i with probability proportional to the
squared centered row norm and projects the iterate onto the solution set of
that row's equation:

    W <- W + x_i c^T,   c = (y_i - W^T x_i) / ||x_i||^2,   x_i = s_i - mu

With W0 = 0 every iterate remains in the row space of Xc, which steers the
solve toward the least-norm solution without explicit regularization.

Dense bases center the sampled row into one reused buffer; a step costs
O(d g).  Sparse bases never form the d-length centered row.  The iterate is
kept as W = V - mu a^T with the g-vector p = mu^T V, and cross_i = s_i^T mu
is computed once per solve.  Then

    y_i - W^T x_i = y_i - V[cols]^T vals + (cross_i - ||mu||^2) a + p

and the step is V[cols] += vals c^T, a += c, p += cross_i c, so a step costs
O(nnz(s_i) g).  Tail averaging uses the lazy-sum identity: with W_b the
iterate before step b (the burn-in), the mean of the iterates after steps
b..K-1 is

    W_b + (U - mu A^T) / (K - b),  U = sum_k (K - k) vals_k c_k^T,  A = sum_k (K - k) c_k

where each term of U lands on the sampled row's columns only.  The lazy
form adds rounding of relative size about eps * n ||mu||^2 / ||Xc||_F^2
(``CenteredMatrixView.centering_ratio``) to each step.

RNG contract: the generator is NumPy's PCG64 seeded through SeedSequence;
replicate substreams come from SeedSequence.spawn.  Uniforms are consumed
strictly sequentially (two per draw for the alias method, one for the
cumulative method), so equal (seed, config, data) reproduce bit-identical
results.  Row indices are drawn in blocks of SAMPLE_BLOCK with
``sample_rows``, which consumes the stream exactly as sequential
``sample_row`` calls do, so block draws leave the trajectory unchanged.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidData, NumericalDivergence, ZeroRowError
from .labels import as_matrix
from .matrix import CenteredMatrixView
from .sampling import SamplingDistribution, build_sampler, sample_rows

DEFAULT_ITERS_PER_ROW = 20
# Row indices drawn per sample_rows call; bounds the draw buffer at any K.
SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int
    seed: int
    checkpoint_every: int = 0          # 0 disables the trace
    tail_average: float | None = None  # burn-in fraction in [0, 1)
    w0: np.ndarray | None = None       # must lie in the row space of Xc; zero always does
    sampler_method: str = "alias"
    trace_matrices: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidData(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tail_average is not None and not 0.0 <= self.tail_average < 1.0:
            raise InvalidData(
                f"tail_average burn-in fraction must be in [0, 1), got {self.tail_average}"
            )
        if self.checkpoint_every < 0:
            raise InvalidData("checkpoint_every must be >= 0")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    w_frob: float
    sampled_row_residual: float  # ||y_i^T - x_i^T W|| before the recorded step
    w: np.ndarray | None = None


@dataclass(frozen=True)
class SolveResult:
    W: np.ndarray
    iterations_run: int
    trace: tuple[TraceEntry, ...] | None
    rng_seed: int
    excluded_rows: int = 0  # zero-norm centered rows never sampled

    def __post_init__(self):
        if not np.all(np.isfinite(self.W)):
            raise NumericalDivergence("non-finite entries in solver result")


def default_iterations(n: int) -> int:
    return DEFAULT_ITERS_PER_ROW * n


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class _DenseIterate:
    """W stored as is; the sampled row is centered into one reused buffer."""

    def __init__(self, view: CenteredMatrixView, Y: np.ndarray, W: np.ndarray,
                 K: int, burn: int | None):
        self.base = view.base
        self.mu = view.column_means
        self.norms_sq = view.centered_row_norms_sq
        self.Y = Y
        self.W = W
        self.x = np.empty(view.d)
        self.x_col = self.x[:, None]  # column view of the buffer, for the outer product
        self.K = K
        self.burn = burn
        self.tail_sum = np.zeros_like(W) if burn is not None else None

    def step(self, k: int, i: int) -> np.ndarray:
        x = self.x
        np.subtract(self.base[i], self.mu, out=x)
        r = self.Y[i] - x @ self.W
        _check_finite(r, k)
        self.W += self.x_col * (r / self.norms_sq[i])
        if self.tail_sum is not None and k >= self.burn:
            self.tail_sum += self.W
        return r

    def current(self) -> np.ndarray:
        return self.W

    def result(self) -> np.ndarray:
        if self.tail_sum is None:
            return self.W
        return self.tail_sum / (self.K - self.burn)


class _SparseIterate:
    """W = V - mu a^T with p = mu^T V; a step touches the row's columns only."""

    def __init__(self, view: CenteredMatrixView, Y: np.ndarray, W: np.ndarray,
                 K: int, burn: int | None):
        base = view.base
        self.indptr, self.indices, self.data = base.indptr, base.indices, base.data
        self.data_col = self.data[:, None]
        self.mu = view.column_means
        self.norms_sq = view.centered_row_norms_sq
        self.cross = np.asarray(base @ self.mu).reshape(-1)
        self.shift = self.cross - float(self.mu @ self.mu)
        self.Y = Y
        self.V = W
        self.a = np.zeros(W.shape[1])
        self.p = self.mu @ W
        self.K = K
        self.burn = burn
        self.W_b = None
        self.U = np.zeros_like(W) if burn is not None else None
        self.A = np.zeros(W.shape[1])

    def step(self, k: int, i: int) -> np.ndarray:
        if k == self.burn:
            self.W_b = self.current()
        lo, hi = self.indptr[i], self.indptr[i + 1]
        cols, vals_col = self.indices[lo:hi], self.data_col[lo:hi]
        V_cols = self.V[cols]
        r = self.Y[i] - self.data[lo:hi] @ V_cols + self.shift[i] * self.a + self.p
        _check_finite(r, k)
        c = r / self.norms_sq[i]
        # CSR column indices within a row are unique, so assignment is safe
        self.V[cols] = V_cols + vals_col * c
        self.a += c
        self.p += self.cross[i] * c
        if self.W_b is not None:
            weighted = (self.K - k) * c
            self.U[cols] += vals_col * weighted
            self.A += weighted
        return r

    def current(self) -> np.ndarray:
        return self.V - np.outer(self.mu, self.a)

    def result(self) -> np.ndarray:
        if self.U is None:
            return self.current()
        return self.W_b + (self.U - np.outer(self.mu, self.A)) / (self.K - self.burn)


def _check_finite(r: np.ndarray, k: int) -> None:
    if not np.isfinite(r).all():
        raise NumericalDivergence(
            f"non-finite residual at iteration {k + 1}", iteration=k + 1
        )


def _draws(dist: SamplingDistribution, rng: np.random.Generator, K: int, method: str):
    """K row indices, drawn SAMPLE_BLOCK at a time."""
    for start in range(0, K, SAMPLE_BLOCK):
        yield from sample_rows(dist, rng, min(SAMPLE_BLOCK, K - start), method).tolist()


def solve_rk(
    view: CenteredMatrixView,
    Y,
    config: SolverConfig,
    dist: SamplingDistribution | None = None,
    on_checkpoint=None,
) -> SolveResult:
    """Run ``config.max_iters`` randomized projection steps from W0.

    ``on_checkpoint(k, W)`` is invoked at k = 0, every ``checkpoint_every``
    iterations, and at the final iterate (W may be the live array; callers
    must copy if they keep it).  With ``tail_average`` set, the returned W is
    the uniform average of the iterates after the burn-in point.
    """
    Ym = as_matrix(Y)
    n, d = view.shape
    if Ym.shape[0] != n:
        raise InvalidData(f"Y has {Ym.shape[0]} rows, data has {n}")
    g = Ym.shape[1]

    if dist is None:
        dist = build_sampler(view)
    elif dist.n != n:
        raise InvalidData(f"sampler covers {dist.n} rows, data has {n}")
    elif np.any(view.centered_row_norms_sq[dist.active_rows] <= 0.0):
        raise ZeroRowError("sampler draws rows with zero centered norm")
    if config.w0 is None:
        W = np.zeros((d, g))
    else:
        W = np.asarray(config.w0, dtype=np.float64).copy()
        if W.shape != (d, g):
            raise InvalidData(f"w0 must be {d}x{g}, got {W.shape}")

    rng = make_rng(config.seed)
    K = config.max_iters
    burn = int(math.floor(config.tail_average * K)) if config.tail_average is not None else None
    iterate = (_SparseIterate if view.is_sparse else _DenseIterate)(view, Ym, W, K, burn)

    cadence = config.checkpoint_every
    trace: list[TraceEntry] | None = [] if cadence > 0 else None

    def checkpoint(k: int, last_residual: float) -> None:
        W = iterate.current()
        if trace is not None:
            trace.append(
                TraceEntry(
                    iteration=k,
                    w_frob=float(np.linalg.norm(W)),
                    sampled_row_residual=last_residual,
                    w=W.copy() if config.trace_matrices else None,
                )
            )
        if on_checkpoint is not None:
            on_checkpoint(k, W)

    checkpoint(0, float("nan"))
    for k, i in enumerate(_draws(dist, rng, K, config.sampler_method)):
        r = iterate.step(k, i)
        done = k + 1
        if done == K or (cadence > 0 and done % cadence == 0):
            checkpoint(done, float(np.linalg.norm(r)))

    return SolveResult(
        W=iterate.result(),
        iterations_run=K,
        trace=tuple(trace) if trace is not None else None,
        rng_seed=config.seed,
        excluded_rows=n - len(dist.active_rows),
    )

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
O(nnz(s_i) g).  a and p are stored as rows d and d + 1 of V, and each CSR
row is extended once per solve by the columns d, d + 1 with weights 1 and
cross_i, so a step is one gather, one update and one scatter.  The
residual is still summed in the order above: folding the shift into the
same dot product loses the sparse/dense agreement near a degenerate
centering.  Tail averaging uses the lazy-sum identity: with W_b the
iterate before step b (the burn-in), the mean of the iterates after steps
b..K-1 is

    W_b + (U - mu A^T) / (K - b),  U = sum_k (K - k) vals_k c_k^T,  A = sum_k (K - k) c_k

where each term of U lands on the sampled row's columns only.  The lazy
form adds rounding of relative size about eps * n ||mu||^2 / ||Xc||_F^2
(``CenteredMatrixView.centering_ratio``) to each step.

The step loop runs inside the iterate, over stretches of a drawn block:
``solve_rk`` cuts each block at checkpoints and at the burn-in point, the
iterate writes each step's residual into a row of a block-sized buffer, and
the stretch's residuals are checked for finiteness once, after it ends and
before its checkpoint.  ``NumericalDivergence`` names the first step whose
residual is not finite, as a per-step check would; the steps after it in
the stretch only compute on the non-finite values.

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

    def run(self, k0: int, rows: list[int], R: np.ndarray) -> None:
        """Steps k0, k0 + 1, ... on the sampled ``rows``; step j's residual
        goes to R[j].  A stretch lies wholly before or after the burn-in."""
        base, mu, Y, W = self.base, self.mu, self.Y, self.W
        x, x_col, norms_sq = self.x, self.x_col, self.norms_sq
        tail_sum = self.tail_sum if self.burn is not None and k0 >= self.burn else None
        for i, r in zip(rows, R):
            np.subtract(base[i], mu, out=x)
            np.dot(x, W, out=r)
            np.subtract(Y[i], r, out=r)
            W += x_col * (r / norms_sq[i])
            if tail_sum is not None:
                tail_sum += W

    def current(self) -> np.ndarray:
        return self.W

    def result(self) -> np.ndarray:
        if self.tail_sum is None:
            return self.W
        return self.tail_sum / (self.K - self.burn)


class _SparseIterate:
    """W = V[:d] - mu a^T with a = V[d] and p = mu^T V[:d] = V[d + 1]; a step
    touches the row's columns and those two rows only."""

    def __init__(self, view: CenteredMatrixView, Y: np.ndarray, W: np.ndarray,
                 K: int, burn: int | None):
        base = view.base
        (n, d), g = base.shape, W.shape[1]
        self.mu = mu = view.column_means
        cross = np.asarray(base @ mu).reshape(-1)
        # augmented CSR: row i's stored entries, then column d (a) with
        # weight 1 and column d + 1 (p) with weight cross_i
        indptr = base.indptr + 2 * np.arange(n + 1)
        a_pos, p_pos = indptr[1:] - 2, indptr[1:] - 1
        stored = np.ones(indptr[-1], dtype=bool)
        stored[a_pos] = stored[p_pos] = False
        self.cols = np.empty(indptr[-1], dtype=np.intp)
        self.cols[stored], self.cols[a_pos], self.cols[p_pos] = base.indices, d, d + 1
        self.weights = np.empty(indptr[-1])
        self.weights[stored], self.weights[a_pos], self.weights[p_pos] = base.data, 1.0, cross
        self.weights_col = self.weights[:, None]
        self.indptr = indptr
        self.shift = cross - float(mu @ mu)
        self.norms_sq = view.centered_row_norms_sq
        self.Y = Y
        self.d = d
        self.V = np.zeros((d + 2, g))
        self.V[:d] = W
        self.V[d + 1] = mu @ W
        self.K = K
        self.burn = burn
        self.W_b = None
        # rows :d hold U, row d holds A; U gets no p row
        self.U = np.zeros((d + 1, g)) if burn is not None else None

    def run(self, k0: int, rows: list[int], R: np.ndarray) -> None:
        """Steps k0, k0 + 1, ... on the sampled ``rows``; step j's residual
        goes to R[j].  A stretch lies wholly before or after the burn-in."""
        if k0 == self.burn:
            self.W_b = self.current()
        V, Y, U, K = self.V, self.Y, self.U, self.K
        cols_all, weights, weights_col = self.cols, self.weights, self.weights_col
        indptr, shift, norms_sq = self.indptr, self.shift, self.norms_sq
        tail = self.W_b is not None
        for k, i, r in zip(range(k0, k0 + len(rows)), rows, R):
            lo, hi = indptr[i], indptr[i + 1]
            cols = cols_all[lo:hi]
            G = V.take(cols, axis=0)
            m = hi - lo - 2
            # y_i - vals . V[cols] + shift_i a + p, summed in this order
            np.dot(weights[lo:hi - 2], G[:m], out=r)
            np.subtract(Y[i], r, out=r)
            r += shift[i] * G[m]
            r += G[m + 1]
            c = r / norms_sq[i]
            w = weights_col[lo:hi]
            # CSR column indices within a row are unique, so assignment is safe
            G += w * c
            V[cols] = G
            if tail:
                weighted = (K - k) * c
                U[cols[:-1]] += w[:-1] * weighted

    def current(self) -> np.ndarray:
        d = self.d
        return self.V[:d] - np.outer(self.mu, self.V[d])

    def result(self) -> np.ndarray:
        if self.U is None:
            return self.current()
        d = self.d
        return self.W_b + (self.U[:d] - np.outer(self.mu, self.U[d])) / (self.K - self.burn)


def _check_finite(R: np.ndarray, k0: int) -> None:
    """Raise at the first non-finite residual row; row j is step k0 + j."""
    if not np.isfinite(R).all():
        k = k0 + int(np.argmin(np.isfinite(R).all(axis=1))) + 1
        raise NumericalDivergence(f"non-finite residual at iteration {k}", iteration=k)


def _stretch_end(k: int, stop: int, cadence: int, burn: int | None) -> int:
    """The end of the stretch from step k: the next checkpoint, the burn-in
    point or the end of the drawn block, whichever comes first."""
    end = stop
    if cadence > 0:
        end = min(end, (k // cadence + 1) * cadence)
    if burn is not None and k < burn:
        end = min(end, burn)
    return end


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
    R = np.empty((min(SAMPLE_BLOCK, K), g))
    for start in range(0, K, SAMPLE_BLOCK):
        rows = sample_rows(dist, rng, min(SAMPLE_BLOCK, K - start), config.sampler_method).tolist()
        k, stop = start, start + len(rows)
        while k < stop:
            end = _stretch_end(k, stop, cadence, burn)
            lo, hi = k - start, end - start
            # non-finite values surface through the check below, not as warnings
            with np.errstate(over="ignore", invalid="ignore"):
                iterate.run(k, rows[lo:hi], R[lo:hi])
            _check_finite(R[lo:hi], k)
            if end == K or (cadence > 0 and end % cadence == 0):
                checkpoint(end, float(np.linalg.norm(R[hi - 1])))
            k = end

    return SolveResult(
        W=iterate.result(),
        iterations_run=K,
        trace=tuple(trace) if trace is not None else None,
        rng_seed=config.seed,
        excluded_rows=n - len(dist.active_rows),
    )

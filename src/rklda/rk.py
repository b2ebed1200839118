"""Randomized Kaczmarz solver for the matrix least-squares system Xc W = Y.

Each iteration samples a row index i with probability proportional to the
squared centered row norm and projects the iterate onto the solution set of
that row's equation:

    W <- W + x_i c^T,   c = (y_i - W^T x_i) / ||x_i||^2,   x_i = s_i - mu

with x_i held by a dense view as it is, and by a sparse one as s_i and mu.

Every solve starts at W0 = 0, so every iterate remains in the row space of
Xc, which steers the solve toward the least-norm solution without explicit
regularization.

The steps run in stretches of a drawn block: ``solve_rk`` cuts each block
at checkpoints only, and the iterate writes each step's coefficient c into a
row of a block-sized buffer.  A checkpoint's one output is the caller's
``on_checkpoint(k, W, sampled_row_residual)``, the residual being that of
the last step's row before the step.

Dense bases run a stretch as forward substitution on the Gram matrix of
its rows, which is Kaczmarz read as Gauss-Seidel on Xc Xc^T (Bjorck and
Elfving, BIT 1979).  For the rows S = (i_0, ..., i_{s-1}) of a chunk, with
W0 the iterate before it, step j's residual is

    y_j - W_j^T x_j = y_j - W0^T x_j - sum_{l<j} (x_j . x_l) c_l

so the coefficients solve the lower-triangular system

    L C = Y_S - Xc_S W0,  L = tril(Xc_S Xc_S^T) with diagonal ||x_j||^2

and the chunk ends at W0 + Xc_S^T C.  The iterates are the per-step ones in
exact arithmetic; only the rounding differs.  A chunk holds gram_chunk(d) =
min(48, max(8, NORM_CHUNK_ELEMENTS // d)) rows: the Gram matrix costs s d
flops per step against the step's own d g, so chunks shrink as d grows.
Only Xc_S W0 depends on the chunks before, so one method gathers the
centered rows of a group of chunks, takes their targets and forms every
chunk's Gram block with one batched product; each chunk then costs one
product for its residuals, the dtrsm and the W update.  A stretch's whole
chunks go in groups of gram_group(d) rows, whose rows and Gram blocks each
hold at most NORM_CHUNK_ELEMENTS values (one chunk past d of about 680);
the rows after them go as one group of one shorter chunk.  A step's
residual is c_j ||x_j||^2, formed only for the row a checkpoint reports.

Sparse bases never form the d-length centered row.  The iterate is
kept as W = V - mu a^T with the g-vector p = mu^T V, and cross_i = s_i^T mu
is kept on the view.  Then

    y_i - W^T x_i = y_i - V[cols]^T vals + (cross_i - ||mu||^2) a + p

and the step is V[cols] += vals c^T, a += c, p += cross_i c, so a step costs
O(nnz(s_i) g).  a and p are stored as rows d and d + 1 of V, and rows
d + 2 .. d + 1 + n hold a copy of Y, so y_i is row d + 2 + i.  Each CSR row
is extended once per view (``CenteredMatrixView.augmented_rows``) by the
columns d, d + 1 and d + 2 + i, with residual weights
(vals, -(cross_i - ||mu||^2), -1, -1) scaled by -1/||x_i||^2 and update
weights (vals, 1, cross_i, 0).  A step is then four calls: the gather of
the row's rows of V, one dot of the residual weights with them, which is
the coefficient c itself, one BLAS rank-1 update (dger) of the gathered
rows by the update weights, which leaves the y_i row as it was, and the
scatter back into V.  The solve's W is formed in place in V[:d] by one
dger, W = V[:d] - mu a^T, and returned as a view of the iterate; a
checkpoint's W is formed by the same dger into a fresh array, so it holds
the returned W's bytes.  The lazy form's rounding grows with the view's
``centering_ratio``, so ``check_centering_ratio`` refuses it past a bound.

Tail averaging is one identity on either storage.  Step k (0-based) adds
x_{i_k} c_k^T, so with b the burn-in the mean of the iterates after steps
b..K-1 is

    W_K - Xc^T Z / (K - b),  Z[i] = sum over k > b with i_k = i of (k - b) c_k

``solve_rk`` adds each drawn block's coefficients into the F-ordered n x g
array Z, one scatter per block, and forms Xc^T Z once at the end by
``CenteredMatrixView.rmatmul``, which takes that layout as it is.

Each stretch's coefficients are checked for finiteness once, after it ends
and before its checkpoint.  ``NumericalDivergence`` names the first step
whose coefficient is not finite, as a per-step check would: a non-finite
c_j taints every later row of C in its column, through the substitution
and through W, so the steps after it only compute on non-finite values.

RNG contract: the generator is NumPy's PCG64 seeded through SeedSequence;
replicate substreams come from SeedSequence.spawn, and ``derive_seed`` turns
a substream into a solver seed.  Uniforms are consumed strictly
sequentially, two per draw (the alias table's slot and accept test), so
equal (seed, config, data) reproduce bit-identical results.  Row
indices are drawn in blocks of SAMPLE_BLOCK with ``sample_rows``, which
consumes the stream exactly as sequential ``sample_row`` calls do, so block
draws leave the trajectory unchanged.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger, dtrsm

from .errors import InvalidData, NumericalDivergence, ZeroRowError
from .labels import as_matrix
from .matrix import NORM_CHUNK_ELEMENTS, CenteredMatrixView, check_centering_ratio
from .sampling import SamplingDistribution, build_sampler, sample_rows

DEFAULT_ITERS_PER_ROW = 20
# Row indices drawn per sample_rows call; bounds the draw buffer at any K.
SAMPLE_BLOCK = 4096
# Bounds on the rows per Gram chunk of a dense stretch; see gram_chunk.
GRAM_CHUNK_MAX = 48
GRAM_CHUNK_MIN = 8


@dataclass(frozen=True)
class SolverConfig:
    """An RK solve's settings; every solve starts at W0 = 0, in the row
    space of Xc."""

    max_iters: int | None = None       # None: default_iterations(n), 20 per row
    seed: int = 0
    checkpoint_every: int = 0          # 0: checkpoints at k = 0 and K only
    tail_average: float | None = None  # burn-in fraction in [0, 1)

    def __post_init__(self):
        if self.max_iters is not None and self.max_iters < 1:
            raise InvalidData(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise InvalidData(f"seed must be >= 0, got {self.seed}")
        if self.tail_average is not None and not 0.0 <= self.tail_average < 1.0:
            raise InvalidData(
                f"tail_average burn-in fraction must be in [0, 1), got {self.tail_average}"
            )
        if self.checkpoint_every < 0:
            raise InvalidData("checkpoint_every must be >= 0")


@dataclass(frozen=True)
class SolveResult:
    W: np.ndarray
    iterations_run: int
    excluded_rows: int = 0  # zero-norm centered rows never sampled

    def __post_init__(self):
        if not np.all(np.isfinite(self.W)):
            raise NumericalDivergence("non-finite entries in solver result")


def default_iterations(n: int) -> int:
    return DEFAULT_ITERS_PER_ROW * n


def gram_chunk(d: int) -> int:
    """Rows per Gram chunk of a dense stretch at d columns."""
    return min(GRAM_CHUNK_MAX, max(GRAM_CHUNK_MIN, NORM_CHUNK_ELEMENTS // d))


def gram_group(d: int) -> int:
    """Rows per group of whole Gram chunks at d columns: the group's rows and
    its stacked Gram blocks each hold at most NORM_CHUNK_ELEMENTS values
    (one chunk when a chunk alone exceeds that)."""
    b = gram_chunk(d)
    return max(1, NORM_CHUNK_ELEMENTS // max(d, b) // b) * b


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def derive_seed(seed_seq: np.random.SeedSequence) -> int:
    """The solver seed of a spawned substream: its first 64-bit state word."""
    return int(seed_seq.generate_state(1, dtype=np.uint64)[0])


class _DenseIterate:
    """W stored as is; a stretch runs as forward substitution on the Gram
    matrix of its rows in chunks of ``gram_chunk(d)`` rows, ``gram_group(d)``
    rows to one gather and one batched Gram product; the rows after the last
    whole chunk go the same way, as one group of one shorter chunk."""

    def __init__(self, view: CenteredMatrixView, Y: np.ndarray):
        self.base = view.base  # Xc
        self.norms_sq = view.centered_row_norms_sq
        self.Y = Y
        self.W = W = np.zeros((view.d, Y.shape[1]))
        self.b = b = gram_chunk(view.d)
        self.group = group = gram_group(view.d)
        self.X = np.empty((group, view.d))  # the group's centered rows
        self.G = np.empty(group * b)        # flat Gram blocks, each contiguous
        self.XW = np.empty((b, W.shape[1]))
        self.dW = np.empty_like(W)

    def run(self, rows: np.ndarray, C: np.ndarray) -> None:
        """One step per sampled row; step j's coefficient c_j goes to C[j]."""
        b, group = self.b, self.group
        e = len(rows) // b * b
        for lo in range(0, e, group):
            hi = min(e, lo + group)
            self._group(rows[lo:hi], C[lo:hi], b)
        if e < len(rows):
            self._group(rows[e:], C[e:], len(rows) - e)

    def _group(self, S: np.ndarray, C: np.ndarray, b: int) -> None:
        """The rows S in chunks of b, their targets into C; every chunk's
        Gram block comes from one batched product."""
        full = len(S) // b
        X = self.X[:len(S)]
        self.base.take(S, axis=0, out=X)
        self.Y.take(S, axis=0, out=C)
        G = self.G[:full * b * b].reshape(full, b, b)
        if b > 1:  # a one-row block is its diagonal alone
            blocks = X.reshape(full, b, -1)
            np.matmul(blocks, blocks.transpose(0, 2, 1), out=G)
        # each step divides by the view's row norm, as a single step does
        G.reshape(full, b * b)[:, ::b + 1] = self.norms_sq[S].reshape(full, b)
        for lo in range(0, len(S), b):
            self._solve(X[lo:lo + b], G[lo // b], C[lo:lo + b])

    def _solve(self, X: np.ndarray, G: np.ndarray, c: np.ndarray) -> None:
        """Steps over the rows X from the targets in c, which end as the
        coefficients; G holds the rows' Gram matrix, its diagonal the row
        norms."""
        W = self.W
        c -= np.dot(X, W, out=self.XW[:len(c)])
        # read as Fortran arrays, G.T holds tril(G)^T in its upper triangle
        # and c.T is B^T: solving c.T tril(G)^T = B^T on the right is
        # tril(G) c = B, in place
        dtrsm(1.0, G.T, c.T, side=1, overwrite_b=1)
        W += np.dot(X.T, c, out=self.dW)

    def current(self) -> np.ndarray:
        return self.W

    finish = current


class _SparseIterate:
    """W = V[:d] - mu a^T with a = V[d] and p = mu^T V[:d] = V[d + 1]; V[d + 2:]
    holds a copy of Y.  A step touches the row's columns, those two rows
    and the row's target only."""

    def __init__(self, view: CenteredMatrixView, Y: np.ndarray):
        self.mu = view.column_means
        self.cols, self.weights, self.residual_weights, indptr = view.augmented_rows
        self.indptr = indptr.tolist()
        self.d = d = view.d
        self.V = np.zeros((d + 2 + view.n, Y.shape[1]))
        self.V[d + 2:] = Y

    def run(self, rows: np.ndarray, C: np.ndarray) -> None:
        """One step per sampled row; step j's coefficient c_j goes to C[j]."""
        V, indptr = self.V, self.indptr
        cols_all, weights, residual_weights = self.cols, self.weights, self.residual_weights
        for i, c in zip(rows.tolist(), C):
            lo, hi = indptr[i], indptr[i + 1]
            cols = cols_all[lo:hi]
            G = V.take(cols, axis=0)
            # (y_i - (vals, -shift_i, -1) . (V[cols], a, p)) / ||x_i||^2
            np.dot(residual_weights[lo:hi], G, out=c)
            # G += w c^T as the rank-1 update G^T += c w^T, in place; CSR
            # column indices within a row are unique, so assignment is safe
            V[cols] = dger(1.0, c, weights[lo:hi], a=G.T, overwrite_a=1).T

    def current(self) -> np.ndarray:
        """W in a fresh array, by the arithmetic of ``finish``."""
        d = self.d
        return dger(-1.0, self.V[d], self.mu, a=self.V[:d].T).T

    def finish(self) -> np.ndarray:
        """W formed in place in V[:d] and returned as a view; no step may follow."""
        d = self.d
        return dger(-1.0, self.V[d], self.mu, a=self.V[:d].T, overwrite_a=1).T


def _check_finite(C: np.ndarray, k0: int) -> None:
    """Raise at the first non-finite coefficient row; row j is step k0 + j.

    A sum of squares is non-finite when any term is, so one dot product
    screens the rows; it overflows only past |c| ~ 1e154, and then the full
    scan finds nothing."""
    flat = C.ravel()
    if math.isfinite(flat.dot(flat)) or np.isfinite(C).all():
        return
    k = k0 + int(np.argmin(np.isfinite(C).all(axis=1))) + 1
    raise NumericalDivergence(f"non-finite residual at iteration {k}", iteration=k)


def solve_rk(
    view: CenteredMatrixView,
    Y,
    config: SolverConfig,
    dist: SamplingDistribution | None = None,
    on_checkpoint=None,
) -> SolveResult:
    """Run ``config.max_iters`` (None: 20 per row) projection steps from W0 = 0.

    ``on_checkpoint(k, W, sampled_row_residual)`` is the one checkpoint
    output.  It is invoked at k = 0, every ``checkpoint_every`` iterations,
    and at the final iterate (W may be the live array; callers must copy if
    they keep it).  ``sampled_row_residual`` is ||y_i - W_{k-1}^T x_i||, the
    residual of the row step k sampled, before that step: c ||x_i||^2 from
    its coefficient c; nan at k = 0.  With ``tail_average`` set, the
    returned W is the uniform average of the iterates after the burn-in
    point; the checkpoints see the raw iterates.  A sparse view whose
    ``centering_ratio`` exceeds CENTERING_RATIO_MAX raises InvalidData.
    """
    check_centering_ratio(view, "RK steps")
    n = view.n
    Ym = as_matrix(Y, n)
    g = Ym.shape[1]

    if dist is None:
        dist = build_sampler(view)
    elif dist.n != n:
        raise InvalidData(f"sampler covers {dist.n} rows, data has {n}")
    elif np.any(view.centered_row_norms_sq[dist.active_rows] <= 0.0):
        raise ZeroRowError("sampler draws rows with zero centered norm")
    rng = make_rng(config.seed)
    K = default_iterations(n) if config.max_iters is None else config.max_iters
    iterate = (_SparseIterate if view.is_sparse else _DenseIterate)(view, Ym)
    burn = int(math.floor(config.tail_average * K)) if config.tail_average is not None else None
    # Z[i] sums (k - burn) c_k over the steps k > burn on row i; Z[i, j] is
    # Z_flat[i + n j], F order, the layout rmatmul takes
    Z_flat = np.zeros(n * g) if burn is not None else None

    cadence = config.checkpoint_every
    caller_errstate = np.geterr()

    def checkpoint(k: int, last_residual: float) -> None:
        if on_checkpoint is not None:
            with np.errstate(**caller_errstate):
                on_checkpoint(k, iterate.current(), last_residual)

    checkpoint(0, float("nan"))
    norms_sq = view.centered_row_norms_sq
    C = np.empty((min(SAMPLE_BLOCK, K), g))
    # non-finite values surface through the check below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, K, SAMPLE_BLOCK):
            rows = sample_rows(dist, rng, min(SAMPLE_BLOCK, K - start))
            k, stop = start, start + len(rows)
            while k < stop:
                # a stretch ends at the next checkpoint or the end of the block
                end = min(stop, (k // cadence + 1) * cadence) if cadence > 0 else stop
                lo, hi = k - start, end - start
                iterate.run(rows[lo:hi], C[lo:hi])
                _check_finite(C[lo:hi], k)
                if end == K or (cadence > 0 and end % cadence == 0):
                    # the step's residual y_i - W^T x_i is c_i ||x_i||^2
                    c = C[hi - 1]
                    checkpoint(end, math.sqrt(c.dot(c)) * float(norms_sq[rows[hi - 1]]))
                k = end
            if Z_flat is not None and stop > burn:
                # the block's steps after the burn-in, in one flat scatter,
                # which adds each cell's terms in step order, as a row-wise
                # one does, at less than half its cost
                t = max(start, burn)
                steps = np.arange(t - burn, stop - burn, dtype=np.float64)[:, None]
                cells = (rows[t - start:, None] + n * np.arange(g)).reshape(-1)
                np.add.at(Z_flat, cells, (steps * C[t - start:len(rows)]).reshape(-1))

    W = iterate.finish()
    if Z_flat is not None:
        W = W - view.rmatmul(Z_flat.reshape((n, g), order="F")) / (K - burn)
    return SolveResult(W=W, iterations_run=K, excluded_rows=n - len(dist.active_rows))

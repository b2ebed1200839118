"""Within-class, between-class, and total scatter matrices.

All three use the 1/n scaling:

    S_w = (1/n) sum_j sum_{i in class j} (x_i - c_j)(x_i - c_j)^T
    S_b = (1/n) sum_j n_j (c_j - c)(c_j - c)^T
    S_t = (1/n) sum_i (x_i - c)(x_i - c)^T = S_w + S_b

Inputs are raw (uncentered) observations; centroid subtraction happens
inside, so grand-mean pre-centering is a harmless no-op.  Input passes
``validate_raw``, so non-finite entries are refused on either storage.  The
three d x d forms sit behind the dense guard (3 d^2 elements), checked
from the shape before sparse input is densified; the trace variants never
form them.  Dense deviations from the centroids are formed a row chunk at a
time by ``centered_chunks``, never as an n x d copy.

The traces of sparse input come from the stored entries and the g x d
centroids alone, through

    trace S_w = (sum_i ||x_i||^2 - sum_j n_j ||c_j||^2) / n

The expansion cancels when the centroids dominate the within-class spread:
its relative error is about eps * sum_i ||x_i||^2 / (n trace S_w), and a
RuntimeWarning is raised when that ratio exceeds CENTERING_RATIO_WARN.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidData
from .labels import LabelVector
from .matrix import (CENTERING_RATIO_WARN, NORM_CHUNK_ELEMENTS, check_dense_size, column_means,
                     densify, validate_raw)


@dataclass(frozen=True)
class ScatterSet:
    s_w: np.ndarray
    s_b: np.ndarray
    s_t: np.ndarray
    centroids: np.ndarray       # g x d class means
    grand_centroid: np.ndarray  # length d


def centered_chunks(mat: np.ndarray, centers: np.ndarray, index=None):
    """Yield the rows of mat centered, NORM_CHUNK_ELEMENTS // d at a time, in
    one reused buffer: row i less ``centers``, or ``centers[index[i]]``."""
    n, d = mat.shape
    rows = max(1, NORM_CHUNK_ELEMENTS // d)
    buf = np.empty((min(rows, n), d))
    for lo in range(0, n, rows):
        chunk = buf[: min(rows, n - lo)]
        sub = centers if index is None else centers[index[lo : lo + rows]]
        np.subtract(mat[lo : lo + rows], sub, out=chunk)
        yield chunk


def _centroids(X, labels: LabelVector) -> tuple[np.ndarray, np.ndarray]:
    """The g x d class means and the grand mean of dense or CSR X; the class
    indicator's product sums each class's rows in row order."""
    n = X.shape[0]
    indicator = sp.csr_array((np.ones(n), (labels.indices, np.arange(n))), shape=(labels.g, n))
    sums = indicator @ X
    sums = sums.toarray() if sp.issparse(sums) else sums
    return sums / labels.counts[:, None], column_means(X)


def scatter_matrices(X_small, labels: LabelVector) -> ScatterSet:
    X = validate_raw(X_small)
    n, d = X.shape
    if n != labels.n:
        raise InvalidData(f"{n} observations vs {labels.n} labels")
    check_dense_size(3 * d * d, f"the three {d}x{d} scatter matrices")
    X = densify(X)
    cents, grand = _centroids(X, labels)

    s_w = sum(D.T @ D for D in centered_chunks(X, cents, labels.indices)) / n
    between_dev = (cents - grand) * np.sqrt(labels.counts)[:, None]
    s_b = between_dev.T @ between_dev / n
    s_t = sum(D.T @ D for D in centered_chunks(X, grand)) / n

    # symmetrize away rounding asymmetry from the gram products
    s_w = 0.5 * (s_w + s_w.T)
    s_b = 0.5 * (s_b + s_b.T)
    s_t = 0.5 * (s_t + s_t.T)
    return ScatterSet(s_w=s_w, s_b=s_b, s_t=s_t, centroids=cents, grand_centroid=grand)


def scatter_traces(X, labels: LabelVector) -> tuple[float, float]:
    """(trace S_w, trace S_b) via the norm identities, no d x d matrices.
    Sparse X is never densified; dense X is summed in row chunks."""
    X = validate_raw(X)
    n = X.shape[0]
    if n != labels.n:
        raise InvalidData(f"{n} observations vs {labels.n} labels")
    cents, grand = _centroids(X, labels)
    if sp.issparse(X):
        raw_sq = float(X.data @ X.data)
        within = raw_sq - float(labels.counts @ np.einsum("jk,jk->j", cents, cents))
        if raw_sq > CENTERING_RATIO_WARN * max(within, 0.0):
            warnings.warn(
                f"sparse within-class trace cancels: sum ||x_i||^2 = {raw_sq:.3g} exceeds "
                f"{CENTERING_RATIO_WARN:g} * n trace S_w = {CENTERING_RATIO_WARN * within:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
        trace_w = max(within, 0.0) / n
    else:
        devs = centered_chunks(X, cents, labels.indices)
        trace_w = sum(float(np.einsum("ij,ij->", D, D)) for D in devs) / n
    diff = cents - grand
    trace_b = float(np.einsum("j,jk,jk->", labels.counts.astype(np.float64), diff, diff)) / n
    return trace_w, trace_b

"""Within-class, between-class, and total scatter matrices.

All three use the 1/n scaling:

    S_w = (1/n) sum_j sum_{i in class j} (x_i - c_j)(x_i - c_j)^T
    S_b = (1/n) sum_j n_j (c_j - c)(c_j - c)^T
    S_t = (1/n) sum_i (x_i - c)(x_i - c)^T = S_w + S_b

Inputs are raw (uncentered) observations; centroid subtraction happens
inside, so grand-mean pre-centering is a harmless no-op.  The three d x d
forms sit behind the dense guard (3 d^2 elements); the trace variants
never form them.

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
from .matrix import CENTERING_RATIO_WARN, check_dense_size, validate_raw


@dataclass(frozen=True)
class ScatterSet:
    s_w: np.ndarray
    s_b: np.ndarray
    s_t: np.ndarray
    centroids: np.ndarray       # g x d class means
    grand_centroid: np.ndarray  # length d


def _centroids(X: np.ndarray, labels: LabelVector) -> tuple[np.ndarray, np.ndarray]:
    g, d = labels.g, X.shape[1]
    cents = np.zeros((g, d))
    np.add.at(cents, labels.indices, X)
    cents /= labels.counts[:, None]
    return cents, X.mean(axis=0)


def scatter_matrices(X_small, labels: LabelVector) -> ScatterSet:
    X = np.asarray(X_small, dtype=np.float64)
    n, d = X.shape
    if n != labels.n:
        raise InvalidData(f"{n} observations vs {labels.n} labels")
    check_dense_size(3 * d * d, f"the three {d}x{d} scatter matrices")
    cents, grand = _centroids(X, labels)

    within_dev = X - cents[labels.indices]
    s_w = within_dev.T @ within_dev / n
    between_dev = (cents - grand) * np.sqrt(labels.counts)[:, None]
    s_b = between_dev.T @ between_dev / n
    total_dev = X - grand
    s_t = total_dev.T @ total_dev / n

    # symmetrize away rounding asymmetry from the gram products
    s_w = 0.5 * (s_w + s_w.T)
    s_b = 0.5 * (s_b + s_b.T)
    s_t = 0.5 * (s_t + s_t.T)
    return ScatterSet(s_w=s_w, s_b=s_b, s_t=s_t, centroids=cents, grand_centroid=grand)


def scatter_traces(X, labels: LabelVector) -> tuple[float, float]:
    """(trace S_w, trace S_b) via the norm identities, no d x d matrices.
    Sparse X is never densified."""
    n = X.shape[0]
    if n != labels.n:
        raise InvalidData(f"{n} observations vs {labels.n} labels")
    if sp.issparse(X):
        X = validate_raw(X)
        indicator = sp.csr_array((np.ones(n), (labels.indices, np.arange(n))),
                                 shape=(labels.g, n))
        cents = (indicator @ X).toarray() / labels.counts[:, None]
        grand = np.asarray(X.sum(axis=0)).reshape(-1) / n
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
        X = np.asarray(X, dtype=np.float64)
        cents, grand = _centroids(X, labels)
        within_dev = X - cents[labels.indices]
        trace_w = float(np.einsum("ij,ij->", within_dev, within_dev)) / n
    diff = cents - grand
    trace_b = float(np.einsum("j,jk,jk->", labels.counts.astype(np.float64), diff, diff)) / n
    return trace_w, trace_b

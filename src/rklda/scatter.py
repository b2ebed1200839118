"""Within-class, between-class, and total scatter matrices.

All three use the 1/n scaling:

    S_w = (1/n) sum_j sum_{i in class j} (x_i - c_j)(x_i - c_j)^T
    S_b = (1/n) sum_j n_j (c_j - c)(c_j - c)^T
    S_t = (1/n) sum_i (x_i - c)(x_i - c)^T = S_w + S_b

Inputs are raw (uncentered) observations; centroid subtraction happens
inside, so grand-mean pre-centering is a harmless no-op.  The d x d forms
sit behind a small-instance guard; the trace variants never form them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidData, TooLarge
from .labels import LabelVector

SCATTER_GUARD = 10**8  # limit on n * d^2


@dataclass(frozen=True)
class ScatterSet:
    s_w: np.ndarray
    s_b: np.ndarray
    s_t: np.ndarray
    centroids: np.ndarray       # g x d class means
    grand_centroid: np.ndarray  # length d


def _check_guard(n: int, d: int) -> None:
    if n * d * d > SCATTER_GUARD:
        raise TooLarge(
            f"scatter matrices need n*d^2 = {n * d * d} work (guard: {SCATTER_GUARD})"
        )


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
    _check_guard(n, d)
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


def scatter_traces(X_small, labels: LabelVector) -> tuple[float, float]:
    """(trace S_w, trace S_b) via the norm identities, no d x d matrices."""
    X = np.asarray(X_small, dtype=np.float64)
    n = X.shape[0]
    if n != labels.n:
        raise InvalidData(f"{n} observations vs {labels.n} labels")
    cents, grand = _centroids(X, labels)
    within_dev = X - cents[labels.indices]
    trace_w = float(np.einsum("ij,ij->", within_dev, within_dev)) / n
    diff = cents - grand
    trace_b = float(np.einsum("j,jk,jk->", labels.counts.astype(np.float64), diff, diff)) / n
    return trace_w, trace_b

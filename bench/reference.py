"""Reference results computed apart from the program, for the output checks.

Nothing here calls rklda: each function restates a documented definition
(the indicator recoding, column centering, the RKM1 layout, the kNN tie
rule) directly in NumPy/SciPy.
"""

import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist


def read_rkm1(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    n, d = struct.unpack("<QQ", raw[4:20])
    return np.frombuffer(raw, dtype="<f8", offset=20).reshape(n, d)


def read_tokens(path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").split()


def class_indices(tokens) -> np.ndarray:
    """Class index per row, classes numbered in order of first appearance."""
    order: dict = {}
    return np.array([order.setdefault(t, len(order)) for t in tokens])


def indicator(tokens) -> np.ndarray:
    """Y[i, j] = sqrt(n/n_j) - sqrt(n_j/n) for members of class j, else -sqrt(n_j/n)."""
    idx = class_indices(tokens)
    n = len(idx)
    counts = np.bincount(idx).astype(np.float64)
    Y = np.tile(-np.sqrt(counts / n), (n, 1))
    Y[np.arange(n), idx] += np.sqrt(n / counts)[idx]
    return Y


def exact_column_means(X: np.ndarray) -> np.ndarray:
    """Column means from correctly rounded sums (math.fsum)."""
    return np.array([math.fsum(col) for col in X.T]) / X.shape[0]


def relative_residual(XcW: np.ndarray, Y: np.ndarray) -> float:
    """||Y - Xc W|| / ||Y||, given the product Xc W."""
    return float(np.linalg.norm(Y - XcW) / np.linalg.norm(Y))


def knn(train: np.ndarray, train_labels: np.ndarray, test: np.ndarray, k: int) -> np.ndarray:
    """Brute-force kNN with the documented tie rule.

    Neighbours are ordered by distance, then by smaller training index.  A
    vote tie goes to the tied class whose nearest neighbour is closest, then
    to the smaller class index.
    """
    dist = cdist(test, train, "sqeuclidean")
    index = np.arange(train.shape[0])
    preds = np.empty(test.shape[0], dtype=train_labels.dtype)
    for t in range(test.shape[0]):
        neigh = np.lexsort((index, dist[t]))[:k]
        votes = Counter(train_labels[neigh].tolist())
        best = max(votes.values())
        tied = [c for c, v in votes.items() if v == best]
        nearest = {c: min(dist[t, j] for j in neigh if train_labels[j] == c) for c in tied}
        preds[t] = min(tied, key=lambda c: (nearest[c], c))
    return preds


def nearest_centre_accuracy(X: np.ndarray, tokens, centres: np.ndarray) -> float:
    """Accuracy of assigning each row to its closest true class centre.

    Centre j belongs to class token ``c{j}``, as the generator writes them.
    """
    truth = np.array([int(t[1:]) for t in tokens])
    nearest = np.argmin(cdist(X, centres, "sqeuclidean"), axis=1)
    return float(np.mean(nearest == truth))

"""Class labels and their recoded indicator matrix.

The indicator matrix Y (n x g) recodes class membership as

    Y[i, j] = sqrt(n / n_j) - sqrt(n_j / n)   if observation i is in class j
    Y[i, j] = -sqrt(n_j / n)                  otherwise

where n_j is the size of class j.  Every column of Y sums to zero by the
identity n_j (sqrt(n/n_j) - sqrt(n_j/n)) - (n - n_j) sqrt(n_j/n) = 0, so Y
is already column-centered; construction verifies this instead of
re-centering.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, InvalidData

COLUMN_SUM_RTOL = 1e-10


@dataclass(frozen=True)
class LabelVector:
    class_index: dict
    g: int
    counts: np.ndarray
    indices: np.ndarray  # per-observation class index, length n

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def classes(self) -> tuple:
        """Class tokens in index order."""
        return tuple(self.class_index)


@dataclass(frozen=True)
class IndicatorMatrix:
    matrix: np.ndarray  # n x g dense


def as_matrix(Y, n: int) -> np.ndarray:
    """Coerce an IndicatorMatrix or array-like right-hand side to n x g;
    InvalidData when it does not have the data's n rows or is not finite."""
    arr = Y.matrix if isinstance(Y, IndicatorMatrix) else np.asarray(Y, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape[0] != n:
        raise InvalidData(f"Y has {arr.shape[0]} rows, data has {n}")
    if not np.isfinite(arr).all():
        raise InvalidData("Y contains non-finite entries")
    return arr


def index_labels(raw) -> LabelVector:
    """Map tokens to 0..g-1 in first-appearance order and count classes."""
    tokens = tuple(raw)
    if len(tokens) == 0:
        raise InvalidData("empty label sequence")
    class_index: dict = {}
    indices = np.empty(len(tokens), dtype=np.int64)
    for i, tok in enumerate(tokens):
        if tok not in class_index:
            class_index[tok] = len(class_index)
        indices[i] = class_index[tok]
    g = len(class_index)
    if g < 2:
        raise DegenerateLabels(f"need at least two classes, got {g}")
    counts = np.bincount(indices, minlength=g)
    return LabelVector(
        class_index=class_index,
        g=g,
        counts=counts,
        indices=indices,
    )


def encode_labels(labels: LabelVector) -> IndicatorMatrix:
    """Build the recoded indicator matrix and verify zero column sums."""
    n, g = labels.n, labels.g
    counts = labels.counts.astype(np.float64)
    nonmember = -np.sqrt(counts / n)  # per-class value for rows outside the class
    member = np.sqrt(n / counts) + nonmember
    Y = np.tile(nonmember, (n, 1))
    Y[np.arange(n), labels.indices] = member[labels.indices]

    col_sums = Y.sum(axis=0)
    tol = COLUMN_SUM_RTOL * np.sqrt(n)
    if np.abs(col_sums).max() > tol:
        raise InvalidData(
            f"indicator matrix columns do not sum to zero "
            f"(max |sum| = {np.abs(col_sums).max():.3e}, tol = {tol:.3e})"
        )
    return IndicatorMatrix(matrix=Y)

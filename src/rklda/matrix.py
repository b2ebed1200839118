"""Data matrix storage with implicit column centering.

The centered matrix Xc = X - 1 mu^T is never materialized: matrix products
apply the -mu offset on the fly.  Per-row centered norms are computed once
at construction.  Dense bases center NORM_CHUNK_ELEMENTS // d rows at a
time and sum the squares of the centered entries, so the norms stay exact
at any column offset and the extra memory is one chunk.  Sparse bases use

    ||x_i - mu||^2 = ||x_i||^2 - 2 <x_i, mu> + ||mu||^2

a single pass over the stored entries, since any explicit form would
densify the row.  The expansion cancels when the offset dominates the
spread: its relative error is about eps * n ||mu||^2 / ||Xc||_F^2 (the
view's ``centering_ratio``), and a RuntimeWarning is raised when that ratio
exceeds CENTERING_RATIO_WARN.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np
import scipy.sparse as sp

from .errors import InvalidData, TooLarge

# Dense small-scale guard shared by the SVD-based oracles.
DENSE_GUARD_ELEMENTS = 10**7
# Centered entries held at once while computing dense row norms.
NORM_CHUNK_ELEMENTS = 1 << 16
# Sparse centering ratio past which the norm expansion and the lazily
# centered RK step lose more than about eps * 1e6 ~ 2e-10 relative accuracy.
CENTERING_RATIO_WARN = 1e6

RawMatrix = Union[np.ndarray, sp.csr_matrix, sp.csr_array]


def validate_raw(base) -> RawMatrix:
    """Coerce to a canonical dense/CSR matrix, rejecting invalid input."""
    if sp.issparse(base):
        mat = sp.csr_array(base, dtype=np.float64)
        mat.sum_duplicates()
        mat.check_format(full_check=True)
        if mat.shape[0] < 1 or mat.shape[1] < 1:
            raise InvalidData(f"matrix must be at least 1x1, got {mat.shape}")
        if mat.nnz and not np.isfinite(mat.data).all():
            raise InvalidData("matrix contains non-finite entries")
        return mat
    arr = np.ascontiguousarray(np.asarray(base, dtype=np.float64))
    if arr.ndim != 2:
        raise InvalidData(f"matrix must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidData(f"matrix must be at least 1x1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidData("matrix contains non-finite entries")
    return arr


@dataclass(frozen=True)
class CenteredMatrixView:
    """Immutable view of a data matrix with implicit column centering.

    Safe to share across threads after construction.  The transpose used by
    ``rmatmul`` is built once, on first use; a race builds it twice.
    """

    base: RawMatrix
    column_means: np.ndarray
    centered_row_norms_sq: np.ndarray
    frob_norm_sq: float
    is_sparse: bool = field(default=False)
    cross: np.ndarray | None = field(default=None, repr=False)  # x_i . mu; sparse bases only

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def d(self) -> int:
        return self.base.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape

    @property
    def centering_ratio(self) -> float:
        """n ||mu||^2 / ||Xc||_F^2: how far the offset dominates the spread."""
        offset_sq = self.n * float(self.column_means @ self.column_means)
        if offset_sq == 0.0:
            return 0.0
        return offset_sq / self.frob_norm_sq if self.frob_norm_sq > 0.0 else float("inf")

    def matmul(self, v: np.ndarray) -> np.ndarray:
        """(X - 1 mu^T) @ v without densifying the base."""
        v = np.asarray(v, dtype=np.float64)
        shift = self.column_means @ v
        return self.base @ v - (shift if v.ndim == 1 else shift[None, :])

    @cached_property
    def _base_t(self) -> RawMatrix:
        """X^T, built on first use: a CSR copy for sparse bases, since
        ``base.T`` builds a new CSC wrapper on every call."""
        return self.base.T.tocsr() if self.is_sparse else self.base.T

    @cached_property
    def augmented_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(columns, weights, indptr) of a sparse base's rows, each extended
        by column d with weight 1 and column d + 1 with weight cross_i: the
        gather layout of the lazily centered RK step.  Built on first use;
        holds nnz + 2n indices and weights."""
        base = self.base
        n, d = base.shape
        indptr = base.indptr + 2 * np.arange(n + 1)
        a_pos, p_pos = indptr[1:] - 2, indptr[1:] - 1
        stored = np.ones(indptr[-1], dtype=bool)
        stored[a_pos] = stored[p_pos] = False
        cols = np.empty(indptr[-1], dtype=np.intp)
        cols[stored], cols[a_pos], cols[p_pos] = base.indices, d, d + 1
        weights = np.empty(indptr[-1])
        weights[stored], weights[a_pos], weights[p_pos] = base.data, 1.0, self.cross
        return cols, weights, indptr

    def rmatmul(self, u: np.ndarray) -> np.ndarray:
        """(X - 1 mu^T)^T @ u without densifying the base."""
        u = np.asarray(u, dtype=np.float64)
        col_sums = u.sum(axis=0)
        if u.ndim == 1:
            return self._base_t @ u - self.column_means * col_sums
        return self._base_t @ u - np.outer(self.column_means, col_sums)


def build_centered_view(base, assume_centered: bool = False) -> CenteredMatrixView:
    """Validate the base matrix and precompute the centering profile.

    With ``assume_centered`` the stored rows are taken as already centered
    (mu = 0); useful for synthetic systems built directly in centered form.
    """
    mat = validate_raw(base)
    n, d = mat.shape
    sparse = sp.issparse(mat)

    if assume_centered:
        mu = np.zeros(d)
    elif sparse:
        mu = np.asarray(mat.sum(axis=0)).reshape(-1) / n
    else:
        mu = mat.mean(axis=0)

    cross = None
    if sparse:
        raw_sq = np.asarray(mat.multiply(mat).sum(axis=1)).reshape(-1)
        cross = np.asarray(mat @ mu).reshape(-1)
        norms_sq = raw_sq - 2.0 * cross + float(mu @ mu)
        # cancellation can leave tiny negatives for rows that equal the mean
        np.maximum(norms_sq, 0.0, out=norms_sq)
    else:
        norms_sq = _centered_norms_sq(mat, mu)
    view = CenteredMatrixView(
        base=mat,
        column_means=mu,
        centered_row_norms_sq=norms_sq,
        frob_norm_sq=float(norms_sq.sum()),
        is_sparse=sparse,
        cross=cross,
    )
    ratio = view.centering_ratio
    if sparse and ratio > CENTERING_RATIO_WARN:
        warnings.warn(
            f"sparse centering ratio n*||mu||^2/||Xc||_F^2 = {ratio:.3g} exceeds "
            f"{CENTERING_RATIO_WARN:g}: centered row norms and solver steps carry "
            f"rounding of order eps * ratio = {ratio * np.finfo(float).eps:.1g} relative",
            RuntimeWarning,
            stacklevel=2,
        )
    return view


def centered_chunks(mat: np.ndarray, mu: np.ndarray):
    """Yield (lo, rows lo.. of mat - mu), NORM_CHUNK_ELEMENTS // d rows at a
    time, centered explicitly into one reused buffer."""
    n, d = mat.shape
    rows = max(1, NORM_CHUNK_ELEMENTS // d)
    buf = np.empty((min(rows, n), d))
    for lo in range(0, n, rows):
        chunk = buf[: min(rows, n - lo)]
        np.subtract(mat[lo : lo + rows], mu, out=chunk)
        yield lo, chunk


def _centered_norms_sq(mat: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """||x_i - mu||^2 per row from explicitly centered rows, a chunk at a time."""
    norms_sq = np.empty(mat.shape[0])
    for lo, chunk in centered_chunks(mat, mu):
        norms_sq[lo : lo + len(chunk)] = np.einsum("ij,ij->i", chunk, chunk)
    return norms_sq


def to_dense_centered(
    view: CenteredMatrixView, max_elements: int = DENSE_GUARD_ELEMENTS
) -> np.ndarray:
    """Materialize the centered matrix for small-scale oracles only."""
    n, d = view.shape
    if n * d > max_elements:
        raise TooLarge(
            f"dense centered matrix would hold {n * d} elements "
            f"(guard: {max_elements})"
        )
    dense = view.base.toarray() if view.is_sparse else np.array(view.base)
    return dense - view.column_means


def densify(data, max_elements: int = DENSE_GUARD_ELEMENTS) -> np.ndarray:
    """``data`` as a dense float64 array; sparse input only within the guard."""
    if not sp.issparse(data):
        return np.asarray(data, dtype=np.float64)
    n, d = data.shape
    if n * d > max_elements:
        raise TooLarge(
            f"densifying the {n}x{d} sparse matrix would hold {n * d} elements "
            f"(guard: {max_elements})"
        )
    return data.toarray()

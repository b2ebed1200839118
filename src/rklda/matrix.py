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
exceeds CENTERING_RATIO_WARN; ``solve_rk`` refuses a sparse view past
CENTERING_RATIO_MAX.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np
import scipy.sparse as sp

from .errors import InvalidData, TooLarge

# The one dense-size guard: the most elements a dense copy of the data or an
# SVD-based oracle's input may hold.  check_dense_size reads it at each check.
DENSE_GUARD_ELEMENTS = 10**7
# Centered entries held at once while computing dense row norms.
NORM_CHUNK_ELEMENTS = 1 << 16
# Sparse centering ratio past which the norm expansion and the lazily
# centered RK step lose more than about eps * 1e6 ~ 2e-10 relative accuracy.
CENTERING_RATIO_WARN = 1e6
# Sparse centering ratio past which solve_rk refuses the view (eps * 1e13 ~ 2e-3).
CENTERING_RATIO_MAX = 1e13

RawMatrix = Union[np.ndarray, sp.csr_matrix, sp.csr_array]


def validate_raw(base) -> RawMatrix:
    """Coerce to a canonical dense/CSR matrix, rejecting invalid input."""
    if sp.issparse(base):
        mat = sp.csr_array(base, dtype=np.float64)
        if not mat.has_canonical_format:  # sum_duplicates rewrites arrays it may share
            mat = mat.copy()
            mat.sum_duplicates()
        mat.check_format(full_check=True)
        values = mat.data
    else:
        mat = np.ascontiguousarray(np.asarray(base, dtype=np.float64))
        if mat.ndim != 2:
            raise InvalidData(f"matrix must be 2-dimensional, got ndim={mat.ndim}")
        values = mat.ravel()
    if mat.shape[0] < 1 or mat.shape[1] < 1:
        raise InvalidData(f"matrix must be at least 1x1, got {mat.shape}")
    square_sum = np.vdot(values, values)  # non-finite if any entry is, or past |x| ~ 1e154
    if not np.isfinite(square_sum) and not np.isfinite([values.min(), values.max()]).all():
        raise InvalidData("matrix contains non-finite entries")
    return mat


def column_means(mat: RawMatrix) -> np.ndarray:
    """The length-d column means of a dense or CSR matrix that passed ``validate_raw``."""
    return np.asarray(mat.sum(axis=0)).reshape(-1) / mat.shape[0]


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
        return self.base @ v - self.column_means @ v

    @cached_property
    def _base_t(self) -> RawMatrix:
        """X^T, built on first use: a CSR copy for sparse bases, since
        ``base.T`` builds a new CSC wrapper on every call."""
        return self.base.T.tocsr() if self.is_sparse else self.base.T

    @cached_property
    def augmented_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(columns, update weights, residual weights, indptr) of a sparse
        base's rows, each extended by the columns d, d + 1 and d + 2 + i:
        the gather layout of the lazily centered RK step.  Row i's update
        weights are (vals, 1, cross_i, 0) and its residual weights
        (vals, -shift_i, -1, -1) scaled by -1/||x_i||^2, with
        shift_i = cross_i - ||mu||^2; a zero-norm row, never sampled, has
        scale 0.  Built on first use; holds nnz + 3n indices and two sets
        of nnz + 3n weights, 8 (nnz + 3n) bytes a set (0.16 MB at
        500 x 4000 with 19,025 entries)."""
        base, norms_sq = self.base, self.centered_row_norms_sq
        n, d = base.shape
        indptr = base.indptr + 3 * np.arange(n + 1)
        a_pos, p_pos, y_pos = indptr[1:] - 3, indptr[1:] - 2, indptr[1:] - 1
        stored = np.ones(indptr[-1], dtype=bool)
        stored[a_pos] = stored[p_pos] = stored[y_pos] = False
        cols = np.empty(indptr[-1], dtype=np.intp)
        cols[stored], cols[a_pos], cols[p_pos] = base.indices, d, d + 1
        cols[y_pos] = d + 2 + np.arange(n)
        weights = np.empty(indptr[-1])
        weights[stored], weights[a_pos], weights[p_pos] = base.data, 1.0, self.cross
        weights[y_pos] = 0.0
        residual_weights = weights.copy()
        residual_weights[a_pos] = float(self.column_means @ self.column_means) - self.cross
        residual_weights[p_pos] = residual_weights[y_pos] = -1.0
        scale = np.divide(-1.0, norms_sq, out=np.zeros(n), where=norms_sq > 0.0)
        residual_weights *= np.repeat(scale, np.diff(indptr))
        return cols, weights, residual_weights, indptr

    def rmatmul(self, u: np.ndarray) -> np.ndarray:
        """(X - 1 mu^T)^T @ u without densifying the base."""
        u = np.asarray(u, dtype=np.float64)
        return self._base_t @ u - np.multiply.outer(self.column_means, u.sum(axis=0))


def build_centered_view(base, assume_centered: bool = False) -> CenteredMatrixView:
    """Validate the base matrix and precompute the centering profile.

    With ``assume_centered`` the stored rows are taken as already centered
    (mu = 0); useful for synthetic systems built directly in centered form.
    """
    mat = validate_raw(base)
    d = mat.shape[1]
    sparse = sp.issparse(mat)
    mu = np.zeros(d) if assume_centered else column_means(mat)

    cross = None
    if sparse:
        raw_sq = np.asarray(mat.multiply(mat).sum(axis=1)).reshape(-1)
        cross = np.asarray(mat @ mu).reshape(-1)
        norms_sq = raw_sq - 2.0 * cross + float(mu @ mu)
        # cancellation can leave tiny negatives for rows that equal the mean
        np.maximum(norms_sq, 0.0, out=norms_sq)
    else:
        chunks = centered_chunks(mat, mu)
        norms_sq = np.concatenate([np.einsum("ij,ij->i", D, D) for _, D in chunks])
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


def centered_chunks(mat: np.ndarray, centers: np.ndarray, index=None):
    """Yield (lo, rows lo.. of mat, centered), NORM_CHUNK_ELEMENTS // d rows
    at a time, into one reused buffer: row i less ``centers``, or less
    ``centers[index[i]]`` when ``index`` is given."""
    n, d = mat.shape
    rows = max(1, NORM_CHUNK_ELEMENTS // d)
    buf = np.empty((min(rows, n), d))
    for lo in range(0, n, rows):
        chunk = buf[: min(rows, n - lo)]
        sub = centers if index is None else centers[index[lo : lo + rows]]
        np.subtract(mat[lo : lo + rows], sub, out=chunk)
        yield lo, chunk


def check_dense_size(elements: int, what: str) -> None:
    """Raise TooLarge when ``what`` would hold more than DENSE_GUARD_ELEMENTS."""
    if elements > DENSE_GUARD_ELEMENTS:
        raise TooLarge(
            f"{what} would hold {elements} elements (guard: {DENSE_GUARD_ELEMENTS})"
        )


def to_dense_centered(view: CenteredMatrixView) -> np.ndarray:
    """Materialize the centered matrix for small-scale oracles only."""
    n, d = view.shape
    check_dense_size(n * d, "dense centered matrix")
    return densify(view.base) - view.column_means


def densify(data) -> np.ndarray:
    """``data`` as a dense float64 array; sparse input only within the guard."""
    if not sp.issparse(data):
        return np.asarray(data, dtype=np.float64)
    n, d = data.shape
    check_dense_size(n * d, f"densifying the {n}x{d} sparse matrix")
    return data.toarray()

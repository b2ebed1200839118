"""Data matrix storage, centered.

``build_centered_view`` is the one place that centers rows of data, at
their own column means or at given ones.  A dense base is centered once,
when the view is built, into a read-only Xc = X - 1 mu^T that the view
owns: its row norms and products are plain passes over Xc, exact at any
column offset.  A sparse base is never densified: its products apply the
-mu offset on the fly and its row norms use
||x_i - mu||^2 = ||x_i||^2 - 2 <x_i, mu> + ||mu||^2, one pass over the
stored entries.  That lazy form loses about eps * n ||mu||^2 / ||Xc||_F^2
relative (the view's ``centering_ratio``): a RuntimeWarning is raised past
CENTERING_RATIO_WARN, and ``check_centering_ratio`` refuses the view past
CENTERING_RATIO_MAX.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dger

from .errors import InvalidData, TooLarge

# The one dense-size guard: the most elements a dense copy of the data or an
# SVD-based oracle's input may hold.  check_dense_size reads it at each check.
DENSE_GUARD_ELEMENTS = 10**7
# Values held at once by a working block: a dense RK stretch's group of rows
# and its Gram blocks, and a chunk of scatter's centered rows.
NORM_CHUNK_ELEMENTS = 1 << 16
# Sparse centering ratio past which the norm expansion, products and RK step
# lose more than about eps * 1e6 ~ 2e-10 relative accuracy.
CENTERING_RATIO_WARN = 1e6
# Sparse centering ratio past which the solvers refuse the view (eps * 1e13 ~ 2e-3).
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


def default_rank_tol(matrix: np.ndarray, sigma_max: float) -> float:
    """max(n, d) * eps * sigma_max, the standard numerical-rank cutoff."""
    return max(matrix.shape) * np.finfo(np.float64).eps * sigma_max


def column_means(mat: RawMatrix) -> np.ndarray:
    """The length-d column means of a dense or CSR matrix that passed ``validate_raw``."""
    return np.asarray(mat.sum(axis=0)).reshape(-1) / mat.shape[0]


@dataclass(frozen=True)
class CenteredMatrixView:
    """Immutable centered view of a data matrix: ``base`` is Xc, read-only, if dense; X if sparse.

    Safe to share across threads after construction.  Like the transpose
    used by ``rmatmul`` and the sparse ``augmented_rows``, the view keeps
    the ``spectrum`` U, s, Vt of Xc, built once, on first use; a race
    builds it twice.
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
        """Xc @ v; a sparse base's product X v takes mu^T v off in place.

        ``v`` is taken C-ordered: any other layout (a transposed row block,
        a strided slice) is copied once, the copy SciPy's CSR product would
        make anyway.  So every layout gives the same bytes, and dense GEMM
        avoids its slow kernel for a transposed skinny operand.
        """
        v = np.ascontiguousarray(v, dtype=np.float64)
        out = self.base @ v
        if self.is_sparse:
            out -= self.column_means @ v
        return out

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

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD Xc = U S V^T cut to its numerical range: (U, s, Vt) with
        s > default_rank_tol(Xc, s_max), from ``to_dense_centered``, for an
        Xc within the dense guard; a refused build caches nothing.  The one
        source of Xc's spectrum for ``pinv_oracle``, ``ulda_oracle``,
        ``condition_profile`` and the convergence study."""
        check_dense_size(self.n * self.d, "dense centered matrix")
        Xc = to_dense_centered(self)
        U, s, Vt = np.linalg.svd(Xc, full_matrices=False)
        keep = s > default_rank_tol(Xc, s[0] if len(s) else 0.0)
        return U[:, keep], s[keep], Vt[keep]

    def rmatmul(self, u: np.ndarray) -> np.ndarray:
        """Xc^T @ u; a sparse base's product X^T u takes mu (1^T u) off in place.

        ``u`` is taken F-ordered, the transpose of a C-ordered g x n row
        block such as LSQR's: any other layout is copied once, so every
        layout gives the same bytes, and a sparse base's 1^T u sums
        contiguous columns (3-8x faster than across the rows of a C-ordered
        n x g block).  mu (1^T u) is taken off the C-ordered product X^T u
        in place by one BLAS rank-1 update (dger) of its transpose, a vector
        u counting as one column, so the call holds no second d x g array.
        """
        u = np.asfortranarray(u, dtype=np.float64)
        out = self._base_t @ u
        if not self.is_sparse:
            return out
        col_sums = np.atleast_1d(u.sum(axis=0))
        return dger(-1.0, col_sums, self.column_means, a=out.reshape(self.d, -1).T,
                    overwrite_a=1).T.reshape(out.shape)


def build_centered_view(base, means=None) -> CenteredMatrixView:
    """Validate the base matrix and precompute the centering profile.

    The rows are centered at ``means``: their own column means if None, else
    a length-d array or a scalar (a training view's means for held-out rows,
    0.0 for rows built centered).  A dense base is centered into a read-only
    copy; the caller's array is left as it was.
    """
    mat = validate_raw(base)
    sparse, d = sp.issparse(mat), mat.shape[1]
    mu = column_means(mat) if means is None else np.array(
        np.broadcast_to(means, d) if np.ndim(means) == 0 else means, dtype=np.float64).reshape(-1)
    if mu.size != d:
        raise InvalidData(f"means length {mu.size} vs {d} columns")
    if not np.isfinite(mu).all():
        raise InvalidData("means contain non-finite entries")

    cross = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        if sparse:
            raw_sq = np.asarray(mat.multiply(mat).sum(axis=1)).reshape(-1)
            cross = np.asarray(mat @ mu).reshape(-1)
            norms_sq = raw_sq - 2.0 * cross + float(mu @ mu)
            # cancellation can leave tiny negatives for rows that equal the mean
            np.maximum(norms_sq, 0.0, out=norms_sq)
        else:
            mat = np.subtract(mat, mu)
            mat.flags.writeable = False
            norms_sq = np.einsum("ij,ij->i", mat, mat)
        frob_norm_sq = float(norms_sq.sum())
    if not np.isfinite(frob_norm_sq):  # a sum of squares past about 1e308
        raise InvalidData(f"centered row norms overflow: ||Xc||_F^2 = {frob_norm_sq}")
    view = CenteredMatrixView(base=mat, column_means=mu, centered_row_norms_sq=norms_sq,
                              frob_norm_sq=frob_norm_sq, is_sparse=sparse, cross=cross)
    if sparse and (ratio := view.centering_ratio) > CENTERING_RATIO_WARN:
        warnings.warn(f"sparse centering ratio n*||mu||^2/||Xc||_F^2 = {ratio:.3g} exceeds "
                      f"{CENTERING_RATIO_WARN:g}: centered row norms and solver steps carry "
                      f"rounding of order eps * ratio = {ratio * np.finfo(float).eps:.1g} relative",
                      RuntimeWarning, stacklevel=2)
    return view


def check_centering_ratio(view: CenteredMatrixView, what: str) -> None:
    """InvalidData for a sparse view past CENTERING_RATIO_MAX, where its lazily
    centered ``what`` lose about eps * ratio relative; a dense view is exact."""
    if view.is_sparse and (ratio := view.centering_ratio) > CENTERING_RATIO_MAX:
        raise InvalidData(f"sparse centering ratio n*||mu||^2/||Xc||_F^2 = {ratio:.3g} exceeds "
                          f"{CENTERING_RATIO_MAX:g}: lazily centered {what} would lose about "
                          f"eps * ratio = {ratio * np.finfo(float).eps:.1g} relative")


def check_dense_size(elements: int, what: str) -> None:
    """Raise TooLarge when ``what`` would hold more than DENSE_GUARD_ELEMENTS."""
    if elements > DENSE_GUARD_ELEMENTS:
        raise TooLarge(
            f"{what} would hold {elements} elements (guard: {DENSE_GUARD_ELEMENTS})"
        )


def to_dense_centered(view: CenteredMatrixView) -> np.ndarray:
    """Xc: a dense view's read-only base, held already, or a sparse base
    densified, which raises TooLarge past the dense guard."""
    return densify(view.base) - view.column_means if view.is_sparse else view.base


def densify(data) -> np.ndarray:
    """``data`` as a dense float64 array; sparse input only within the guard."""
    if not sp.issparse(data):
        return np.asarray(data, dtype=np.float64)
    n, d = data.shape
    check_dense_size(n * d, f"densifying the {n}x{d} sparse matrix")
    return data.toarray()

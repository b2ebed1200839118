"""Reference subspace solvers and subspace comparison utilities.

``solve_lsqr`` is the scalable comparator: an operator-form bidiagonalization
least-squares solve per column that touches the data only through products
with Xc and Xc^T.  ``pinv_oracle`` and ``ulda_oracle`` are dense small-scale
oracles guarded against large instances.  Both take the thin SVD
Xc = U S V^T cut to its numerical range and form no d x d matrix: the
least-norm solution is V S^{-1} U^T Y, and ULDA's is sqrt(n) V S^{-1} P with
P from the r x g matrix U^T Y.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, lsqr

from .errors import DegenerateSubspace, InvalidData
from .labels import LabelVector, as_matrix, encode_labels
from .matrix import CenteredMatrixView, check_dense_size

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Subspace:
    matrix: np.ndarray           # d x c coefficient matrix
    origin: str                  # RK | LSQR | PINV | ULDA
    converged: bool | None = None       # LSQR's stopping test; None where none applies
    iterations_run: int | None = None   # RK's steps, or LSQR's most over the columns
    excluded_rows: int | None = None    # RK only: zero-norm rows, never sampled

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[1] < 1:
            raise InvalidData(f"subspace matrix must be d x c with c >= 1, got {self.matrix.shape}")
        if not np.all(np.isfinite(self.matrix)):
            raise InvalidData("subspace contains non-finite entries")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def default_rank_tol(matrix: np.ndarray, sigma_max: float) -> float:
    """max(n, d) * eps * sigma_max, the standard numerical-rank cutoff."""
    return max(matrix.shape) * np.finfo(np.float64).eps * sigma_max


def _centered_operator(view: CenteredMatrixView) -> LinearOperator:
    return LinearOperator(
        shape=view.shape,
        matvec=view.matmul,
        rmatvec=view.rmatmul,
        dtype=np.float64,
    )


def solve_lsqr(
    view: CenteredMatrixView,
    Y,
    tol: float = 1e-12,
    max_iters: int | None = None,
) -> Subspace:
    """Least-norm least-squares solution, one column of Y at a time.

    Starting from zero, the bidiagonalization iterates stay in the row space
    of Xc, so the converged solution per column is the least-norm one.
    """
    Ym = as_matrix(Y)
    n, d = view.shape
    if Ym.shape[0] != n:
        raise InvalidData(f"Y has {Ym.shape[0]} rows, data has {n}")
    if max_iters is None:
        max_iters = 10 * min(n, d) + 50
    op = _centered_operator(view)
    cols = []
    converged = True
    iterations = 0
    for j in range(Ym.shape[1]):
        sol = lsqr(op, Ym[:, j], atol=tol, btol=tol, conlim=0.0, iter_lim=max_iters)
        cols.append(sol[0])
        iterations = max(iterations, int(sol[2]))
        if sol[1] == 7:  # iteration limit reached
            converged = False
            logger.warning(
                "lsqr column %d stopped at the iteration limit (%d); "
                "returning the best iterate", j, max_iters,
            )
    return Subspace(matrix=np.column_stack(cols), origin="LSQR", converged=converged,
                    iterations_run=iterations)


def _truncated_svd(X: np.ndarray, rank_tol: float | None):
    """Thin SVD of X cut to its numerical range: (U, s, Vt) with s > rank_tol,
    by default default_rank_tol(X, s_max)."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if rank_tol is None:
        rank_tol = default_rank_tol(X, s[0] if len(s) else 0.0)
    keep = s > rank_tol
    return U[:, keep], s[keep], Vt[keep]


def pinv_oracle(
    X_small: np.ndarray,
    Y,
    rank_tol: float | None = None,
) -> Subspace:
    """Least-norm solution via dense SVD: sum over nonzero singular triplets
    of (1/s_j) v_j u_j^T Y.  The matrix is used exactly as given (callers
    center it first when needed)."""
    X = np.asarray(X_small, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidData("pinv_oracle expects a dense 2-d matrix")
    check_dense_size(X.size, "pinv_oracle's input")
    Ym = as_matrix(Y)
    if Ym.shape[0] != X.shape[0]:
        raise InvalidData(f"Y has {Ym.shape[0]} rows, data has {X.shape[0]}")
    U, s, Vt = _truncated_svd(X, rank_tol)
    return Subspace(matrix=Vt.T @ ((U.T @ Ym) / s[:, None]), origin="PINV")


def ulda_oracle(
    X_small: np.ndarray,
    labels: LabelVector,
    rank_tol: float | None = None,
) -> Subspace:
    """Eigenvectors of pinv(S_t) S_b with nonzero eigenvalues (at most g-1).

    X is the raw observations; Xc = U S V^T is its centered thin SVD, so
    S_t = V S^2 V^T / n, and Xc^T Y Y^T Xc = n^2 S_b for the indicator Y.
    Then S_t^{-1/2} S_b S_t^{-1/2} = V (U^T Y Y^T U / n) V^T, whose
    eigenvectors are V P with P the left singular vectors of U^T Y, and
    G = S_t^{-1/2} V P = sqrt(n) V S^{-1} P.  ``rank_tol`` cuts the singular
    values of Xc, as in ``pinv_oracle``.  P's cutoff scales with
    ||Y||_2 = sqrt(n), not with U^T Y's largest singular value, so it is
    independent of the data's scale and identical class means leave no
    column.
    """
    X = np.asarray(X_small, dtype=np.float64)
    check_dense_size(X.size, "ulda_oracle's input")
    n = X.shape[0]
    if n != labels.n:
        raise InvalidData(f"{n} observations vs {labels.n} labels")
    U, s, Vt = _truncated_svd(X - X.mean(axis=0), rank_tol)
    if not len(s):
        raise DegenerateSubspace("total scatter is numerically zero")
    UtY = U.T @ encode_labels(labels).matrix
    P, sy, _ = np.linalg.svd(UtY, full_matrices=False)
    keep = sy > default_rank_tol(UtY, np.sqrt(n))
    if not np.any(keep):
        raise DegenerateSubspace("between-class scatter is numerically zero")
    return Subspace(matrix=np.sqrt(n) * Vt.T @ (P[:, keep] / s[:, None]), origin="ULDA")


def orthonormal_basis(subspace: Subspace) -> np.ndarray:
    """Orthonormal basis of range(matrix) after numerical rank truncation,
    relative to the matrix's own largest singular value."""
    U, _, _ = _truncated_svd(subspace.matrix, None)
    if not U.shape[1]:
        raise DegenerateSubspace(f"{subspace.origin} subspace has numerical rank 0")
    return U


def principal_angles(A: Subspace, B: Subspace) -> np.ndarray:
    """Canonical angles (ascending, in [0, pi/2]) between the two ranges.

    The cosines are the singular values of Qa^T Qb; tiny angles are
    recovered through the sine-based companion formula because arccos alone
    cannot resolve angles near sqrt(machine eps).  The number of angles is
    the smaller of the two numerical ranks; all angles below 1e-8 rad means
    the subspaces coincide up to padding and rotation.
    """
    Qa = orthonormal_basis(A)
    Qb = orthonormal_basis(B)
    if Qa.shape[0] != Qb.shape[0]:
        raise InvalidData(
            f"ambient dimensions differ: {Qa.shape[0]} vs {Qb.shape[0]}"
        )
    if Qa.shape[1] > Qb.shape[1]:
        Qa, Qb = Qb, Qa
    angles = scipy.linalg.subspace_angles(Qa, Qb)
    return np.sort(angles)

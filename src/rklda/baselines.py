"""Reference subspace solvers and subspace comparison utilities.

``solve_lsqr`` is the scalable comparator: an operator-form bidiagonalization
least-squares solve per column that touches the data only through products
with Xc and Xc^T.  ``pinv_oracle`` and ``ulda_oracle`` are dense small-scale
oracles guarded against large instances.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, lsqr

from .errors import DegenerateSubspace, InvalidData, TooLarge
from .labels import LabelVector, as_matrix
from .matrix import DENSE_GUARD_ELEMENTS, CenteredMatrixView
from .scatter import scatter_matrices

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Subspace:
    matrix: np.ndarray           # d x c coefficient matrix
    origin: str                  # RK | LSQR | PINV | ULDA
    rank_tol: float | None = None
    converged: bool | None = None       # LSQR's stopping test; None where none applies
    iterations_run: int | None = None   # RK's steps, or LSQR's most over the columns
    excluded_rows: int | None = None    # RK only, as is the trace: zero-norm rows, never sampled
    trace: tuple | None = None          # rk.TraceEntry per checkpoint

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[1] < 1:
            raise InvalidData(f"subspace matrix must be d x c with c >= 1, got {self.matrix.shape}")
        if not np.all(np.isfinite(self.matrix)):
            raise InvalidData("subspace contains non-finite entries")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def default_rank_tol(matrix: np.ndarray, sigma_max: float | None = None) -> float:
    """max(n, d) * eps * sigma_max, the standard numerical-rank cutoff."""
    if sigma_max is None:
        sigma_max = float(np.linalg.norm(matrix, 2)) if matrix.size else 0.0
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


def pinv_oracle(
    X_small: np.ndarray,
    Y,
    rank_tol: float | None = None,
    max_elements: int = DENSE_GUARD_ELEMENTS,
) -> Subspace:
    """Least-norm solution via dense SVD: sum over nonzero singular triplets
    of (1/s_j) v_j u_j^T Y.  The matrix is used exactly as given (callers
    center it first when needed)."""
    X = np.asarray(X_small, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidData("pinv_oracle expects a dense 2-d matrix")
    if X.size > max_elements:
        raise TooLarge(f"{X.size} elements exceeds the dense guard {max_elements}")
    Ym = as_matrix(Y)
    if Ym.shape[0] != X.shape[0]:
        raise InvalidData(f"Y has {Ym.shape[0]} rows, data has {X.shape[0]}")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if rank_tol is None:
        rank_tol = default_rank_tol(X, s[0] if len(s) else 0.0)
    keep = s > rank_tol
    W = Vt[keep].T @ ((U[:, keep].T @ Ym) / s[keep, None])
    return Subspace(matrix=W, origin="PINV", rank_tol=rank_tol)


def ulda_oracle(
    X_small: np.ndarray,
    labels: LabelVector,
    rank_tol: float | None = None,
    max_elements: int = DENSE_GUARD_ELEMENTS,
) -> Subspace:
    """Eigenvectors of pinv(S_t) S_b with nonzero eigenvalues (at most g-1).

    Computed through the symmetric reduction B = S_t^{-1/2} S_b S_t^{-1/2}
    restricted to the range of S_t, which shares those eigenvectors.
    """
    X = np.asarray(X_small, dtype=np.float64)
    if X.size > max_elements:
        raise TooLarge(f"{X.size} elements exceeds the dense guard {max_elements}")
    scatter = scatter_matrices(X, labels)
    St, Sb = scatter.s_t, scatter.s_b

    evals_t, evecs_t = np.linalg.eigh(St)
    order = np.argsort(evals_t)[::-1]
    evals_t, evecs_t = evals_t[order], evecs_t[:, order]
    if rank_tol is None:
        rank_tol = default_rank_tol(St, float(evals_t[0]) if len(evals_t) else 0.0)
    keep_t = evals_t > rank_tol
    if not np.any(keep_t):
        raise DegenerateSubspace("total scatter is numerically zero")
    U1 = evecs_t[:, keep_t]
    inv_sqrt = 1.0 / np.sqrt(evals_t[keep_t])

    B = (U1 * inv_sqrt).T @ Sb @ (U1 * inv_sqrt)
    B = 0.5 * (B + B.T)
    evals_b, P = np.linalg.eigh(B)
    order = np.argsort(evals_b)[::-1]
    evals_b, P = evals_b[order], P[:, order]
    keep_b = evals_b > max(rank_tol, default_rank_tol(B, float(abs(evals_b[0]))))
    if not np.any(keep_b):
        raise DegenerateSubspace("between-class scatter is numerically zero")
    G = (U1 * inv_sqrt) @ P[:, keep_b]
    return Subspace(matrix=G, origin="ULDA", rank_tol=rank_tol)


def orthonormal_basis(subspace: Subspace) -> np.ndarray:
    """Orthonormal basis of range(matrix) after numerical rank truncation."""
    U, s, _ = np.linalg.svd(subspace.matrix, full_matrices=False)
    tol = subspace.rank_tol
    if tol is None:
        tol = default_rank_tol(subspace.matrix, s[0] if len(s) else 0.0)
    keep = s > tol
    if not np.any(keep):
        raise DegenerateSubspace(f"{subspace.origin} subspace has numerical rank 0")
    return U[:, keep]


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

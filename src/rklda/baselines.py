"""Reference subspace solvers and subspace comparison utilities.

``solve_lsqr`` is the scalable comparator: an operator-form bidiagonalization
least-squares solve per column that touches the data only through products
with Xc and Xc^T.  ``pinv_oracle`` and ``ulda_oracle`` are dense small-scale
oracles that form no d x d matrix.  Both start from ``centered_spectrum``:
the thin SVD Xc = U S V^T of ``to_dense_centered`` (the one dense-size
guard) cut to its numerical range.  The least-norm solution ``least_norm``
is V S^{-1} U^T Y, and ULDA's is sqrt(n) V S^{-1} P with P from the r x g
matrix U^T Y.  ``principal_angles`` compares two subspaces.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, lsqr

from .errors import DegenerateSubspace, InvalidData
from .labels import as_matrix
from .matrix import CenteredMatrixView, to_dense_centered

logger = logging.getLogger(__name__)
# LSQR's default stopping tolerance (atol = btol) in every caller.
LSQR_TOL = 1e-12


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


def check_lsqr(tol: float, max_iters: int | None) -> None:
    """InvalidData for a tol that is negative or not finite, or max_iters < 1."""
    if not 0.0 <= tol < np.inf:
        raise InvalidData(f"lsqr tol must be finite and >= 0, got {tol}")
    if max_iters is not None and max_iters < 1:
        raise InvalidData(f"lsqr max_iters must be >= 1, got {max_iters}")


def solve_lsqr(
    view: CenteredMatrixView,
    Y,
    tol: float = LSQR_TOL,
    max_iters: int | None = None,
) -> Subspace:
    """Least-norm least-squares solution, one column of Y at a time.

    Starting from zero, the bidiagonalization iterates stay in the row space
    of Xc, so the converged solution per column is the least-norm one.
    """
    n, d = view.shape
    Ym = as_matrix(Y, n)
    check_lsqr(tol, max_iters)
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


def centered_spectrum(view: CenteredMatrixView):
    """Thin SVD of the dense Xc cut to its numerical range: (U, s, Vt) with
    s > default_rank_tol(Xc, s_max)."""
    Xc = to_dense_centered(view)
    U, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    keep = s > default_rank_tol(Xc, s[0] if len(s) else 0.0)
    return U[:, keep], s[keep], Vt[keep]


def least_norm(U, s, Vt, Ym) -> Subspace:
    """V S^{-1} U^T Y from the spectrum ``centered_spectrum`` returns."""
    return Subspace(matrix=Vt.T @ ((U.T @ Ym) / s[:, None]), origin="PINV")


def pinv_oracle(view: CenteredMatrixView, Y, spectrum=None) -> Subspace:
    """Least-norm solution of Xc W = Y via the dense SVD: sum over nonzero
    singular triplets of (1/s_j) v_j u_j^T Y.  ``spectrum`` is
    ``centered_spectrum(view)`` when the caller has taken it."""
    Ym = as_matrix(Y, view.n)
    return least_norm(*(centered_spectrum(view) if spectrum is None else spectrum), Ym)


def ulda_oracle(view: CenteredMatrixView, Y, spectrum=None) -> Subspace:
    """Eigenvectors of pinv(S_t) S_b with nonzero eigenvalues (at most g-1).

    ``Y`` is the class indicator of the view's rows.  With Xc = U S V^T,
    S_t = V S^2 V^T / n, and Xc^T Y Y^T Xc = n^2 S_b.  Then
    S_t^{-1/2} S_b S_t^{-1/2} = V (U^T Y Y^T U / n) V^T, whose eigenvectors
    are V P with P the left singular vectors of U^T Y, and
    G = S_t^{-1/2} V P = sqrt(n) V S^{-1} P.  P's cutoff scales with
    ||Y||_2 = sqrt(n), not with U^T Y's largest singular value, so it is
    independent of the data's scale and identical class means leave no
    column.  ``spectrum`` is ``centered_spectrum(view)`` when the caller
    has taken it.
    """
    Ym = as_matrix(Y, view.n)
    U, s, Vt = centered_spectrum(view) if spectrum is None else spectrum
    if not len(s):
        raise DegenerateSubspace("total scatter is numerically zero")
    UtY = U.T @ Ym
    P, sy, _ = np.linalg.svd(UtY, full_matrices=False)
    keep = sy > default_rank_tol(UtY, np.sqrt(view.n))
    if not np.any(keep):
        raise DegenerateSubspace("between-class scatter is numerically zero")
    return Subspace(matrix=np.sqrt(view.n) * Vt.T @ (P[:, keep] / s[:, None]), origin="ULDA")


def principal_angles(A: Subspace, B: Subspace) -> np.ndarray:
    """Canonical angles (ascending, in [0, pi/2]) between the two ranges,
    from ``scipy.linalg.subspace_angles``.

    SciPy cuts each range's orthonormal basis at ``default_rank_tol`` of the
    matrix's own largest singular value, so only an all-zero matrix has
    rank 0 (DegenerateSubspace).  The cosines are the singular values of
    Qa^T Qb (Bjorck and Golub, 1973); tiny angles come from the sine-based
    companion formula, because arccos alone cannot resolve angles near
    sqrt(machine eps).  The number of angles is the smaller of the two
    numerical ranks; all angles below 1e-8 rad means the subspaces coincide
    up to padding and rotation.
    """
    for sub in (A, B):
        if not np.any(sub.matrix):
            raise DegenerateSubspace(f"{sub.origin} subspace has numerical rank 0")
    if len(A.matrix) != len(B.matrix):
        raise InvalidData(f"ambient dimensions differ: {len(A.matrix)} vs {len(B.matrix)}")
    return np.sort(scipy.linalg.subspace_angles(A.matrix, B.matrix))

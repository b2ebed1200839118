"""Reference subspace solvers and subspace comparison utilities.

``solve_lsqr`` is the scalable comparator: LSQR (Paige and Saunders, 1982)
on every column of Y at once, touching the data only through block products
with Xc and Xc^T.  ``pinv_oracle`` and ``ulda_oracle`` are dense
small-scale oracles that form no d x d matrix.  Both start from the view's
``spectrum``, the one source of Xc's spectrum: the thin SVD Xc = U S V^T of
``to_dense_centered`` (the one dense-size guard) cut to its numerical range,
taken once per view.  The least-norm solution is V S^{-1} U^T Y, and ULDA's
is sqrt(n) V S^{-1} P with P from the r x g matrix U^T Y.
``principal_angles`` compares two subspaces.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateSubspace, InvalidData
from .labels import as_matrix
from .matrix import CenteredMatrixView, check_centering_ratio, default_rank_tol

logger = logging.getLogger(__name__)
# LSQR's default stopping tolerance (atol = btol) in every caller.
LSQR_TOL = 1e-12
EPS, TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny


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


def check_lsqr(tol: float, max_iters: int | None) -> None:
    """InvalidData for a tol that is negative or not finite, or max_iters < 1."""
    if not 0.0 <= tol < np.inf:
        raise InvalidData(f"lsqr tol must be finite and >= 0, got {tol}")
    if max_iters is not None and max_iters < 1:
        raise InvalidData(f"lsqr max_iters must be >= 1, got {max_iters}")


class _Column:
    """One column's LSQR scalars: the Paige-Saunders recurrences and stopping
    tests of ``scipy.sparse.linalg.lsqr`` with damp = 0, conlim = 0 and
    atol = btol = tol.  ``converged`` is None while the column runs, then
    whether a test fired before the iteration cap."""

    __slots__ = ("j", "bnorm", "alfa", "rhobar", "phibar", "anorm", "ddnorm",
                 "xxnorm", "z", "cs2", "sn2", "itn", "converged")

    def __init__(self, j: int, beta: float, alfa: float):
        self.j, self.bnorm, self.alfa = j, beta, alfa
        self.rhobar, self.phibar = alfa, beta
        self.anorm = self.ddnorm = self.xxnorm = self.z = self.sn2 = 0.0
        self.cs2 = -1.0
        self.itn = 0
        self.converged = True if alfa * beta == 0.0 else None  # x = 0 is exact

    def step(self, beta: float, alfa: float, w_sq: float, tol: float, max_iters: int):
        """One iteration from the new beta and alfa and ||w||^2 of the old w:
        returns the x and w coefficients (phi / rho, -theta / rho)."""
        self.itn += 1
        if beta > 0.0:
            self.anorm = math.sqrt(self.anorm**2 + self.alfa**2 + beta**2)
        self.alfa = alfa
        rho = math.hypot(self.rhobar, beta)
        cs, sn = self.rhobar / rho, beta / rho
        theta = sn * alfa
        self.rhobar = -cs * alfa
        phi = cs * self.phibar
        self.phibar = sn * self.phibar
        self.ddnorm += w_sq / rho**2
        # a rotation on the right estimates ||x||
        delta, gambar = self.sn2 * rho, -self.cs2 * rho
        rhs = phi - delta * self.z
        xnorm = math.sqrt(self.xxnorm + (rhs / gambar)**2)
        gamma = math.hypot(gambar, theta)
        self.cs2, self.sn2, self.z = gambar / gamma, theta / gamma, rhs / gamma
        self.xxnorm += self.z**2

        rnorm = abs(self.phibar)
        test1 = rnorm / self.bnorm
        test2 = alfa * abs(sn * phi) / (self.anorm * rnorm + EPS)
        test3 = 1.0 / (self.anorm * math.sqrt(self.ddnorm) + EPS)
        scaled = self.anorm * xnorm / self.bnorm
        if (test1 <= tol + tol * scaled or test2 <= tol or 1.0 + test1 / (1.0 + scaled) <= 1.0
                or 1.0 + test2 <= 1.0 or 1.0 + test3 <= 1.0):
            self.converged = True
        elif self.itn >= max_iters:
            self.converged = False
        return phi / rho, -theta / rho


def _unit_rows(A: np.ndarray) -> np.ndarray:
    """Scale each row of A to unit length in place (a zero row stays 0);
    the row norms."""
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    A /= np.maximum(norms, TINY)[:, None]
    return norms


def solve_lsqr(
    view: CenteredMatrixView,
    Y,
    tol: float = LSQR_TOL,
    max_iters: int | None = None,
) -> Subspace:
    """Least-norm least-squares solution of Xc W = Y: LSQR on all columns in
    one block recurrence.

    Each column keeps its own scalars and stopping tests (``_Column``) and
    leaves the block when they stop it.  u, v, w and x are the rows of
    g x n and g x d C-ordered arrays, so a column's scaling is a contiguous
    row operation, and each iteration makes one ``view.matmul`` and one
    ``view.rmatmul`` on the block of live columns: 1 + 2 ``iterations_run``
    products in all, whatever g is.  Starting from zero, the
    bidiagonalization iterates stay in the row space of Xc, so the converged
    solution per column is the least-norm one.
    """
    check_centering_ratio(view, "LSQR products")
    n, d = view.shape
    Ym = as_matrix(Y, n)
    check_lsqr(tol, max_iters)
    if not np.isfinite(Ym).all():  # else the column runs to the cap first
        raise InvalidData("Y contains non-finite entries")
    if max_iters is None:
        max_iters = 10 * min(n, d) + 50
    W = np.zeros((d, Ym.shape[1]))
    U = np.array(Ym.T, order="C")
    beta = _unit_rows(U)
    V = np.ascontiguousarray(view.rmatmul(U.T).T)
    alfa = _unit_rows(V)
    columns = [_Column(j, b, a) for j, (b, a) in enumerate(zip(beta.tolist(), alfa.tolist()))]
    block, Wd, X = columns, V.copy(), np.zeros_like(V)
    while True:
        keep = [i for i, col in enumerate(block) if col.converged is None]
        if len(keep) < len(block):  # columns leave the block with their x
            for col, x in zip(block, X):
                if col.converged is not None:
                    W[:, col.j] = x
            block = [block[i] for i in keep]
            U, V, Wd, X, alfa = U[keep], V[keep], Wd[keep], X[keep], alfa[keep]
        if not block:
            break
        U *= -alfa[:, None]
        U += view.matmul(V.T).T
        beta = _unit_rows(U)
        V *= -beta[:, None]
        V += view.rmatmul(U.T).T
        alfa = _unit_rows(V)
        w_sq = np.einsum("ij,ij->i", Wd, Wd).tolist()
        t1, t2 = np.array([col.step(b, a, w, tol, max_iters) for col, b, a, w
                           in zip(block, beta.tolist(), alfa.tolist(), w_sq)]).T
        X += t1[:, None] * Wd
        Wd *= t2[:, None]
        Wd += V
    for col in columns:
        if not col.converged:
            logger.warning("lsqr column %d stopped at the iteration limit (%d); "
                           "returning the best iterate", col.j, max_iters)
    return Subspace(matrix=W, origin="LSQR", converged=all(col.converged for col in columns),
                    iterations_run=max(col.itn for col in columns))


def pinv_oracle(view: CenteredMatrixView, Y) -> Subspace:
    """Least-norm solution of Xc W = Y from the view's ``spectrum``: sum
    over nonzero singular triplets of (1/s_j) v_j u_j^T Y."""
    Ym = as_matrix(Y, view.n)
    U, s, Vt = view.spectrum
    return Subspace(matrix=Vt.T @ ((U.T @ Ym) / s[:, None]), origin="PINV")


def ulda_oracle(view: CenteredMatrixView, Y) -> Subspace:
    """Eigenvectors of pinv(S_t) S_b with nonzero eigenvalues (at most g-1).

    ``Y`` is the class indicator of the view's rows.  With Xc = U S V^T,
    S_t = V S^2 V^T / n, and Xc^T Y Y^T Xc = n^2 S_b.  Then
    S_t^{-1/2} S_b S_t^{-1/2} = V (U^T Y Y^T U / n) V^T, whose eigenvectors
    are V P with P the left singular vectors of U^T Y, and
    G = S_t^{-1/2} V P = sqrt(n) V S^{-1} P.  P's cutoff scales with
    ||Y||_2 = sqrt(n), not with U^T Y's largest singular value, so it is
    independent of the data's scale and identical class means leave no
    column.  U, s and Vt are the view's ``spectrum``.
    """
    Ym = as_matrix(Y, view.n)
    U, s, Vt = view.spectrum
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

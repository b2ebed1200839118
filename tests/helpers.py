"""Synthetic instances, a Monte-Carlo check of the expected RK step and a
memory probe, shared by the test modules."""

import tracemalloc

import numpy as np

from rklda.labels import as_matrix
from rklda.matrix import CenteredMatrixView, build_centered_view, to_dense_centered
from rklda.sampling import build_sampler, sample_rows


def two_gaussians(n: int = 200, d: int = 50, separation: float = 5.0,
                  rng: np.random.Generator | None = None):
    """Two balanced spherical Gaussian classes whose means sit
    ``separation`` noise standard deviations apart along the first axis."""
    if rng is None:
        rng = np.random.default_rng(0)
    half = separation / 2.0
    y = np.array([0] * (n // 2) + [1] * (n - n // 2))
    shift = np.zeros(d)
    shift[0] = half
    X = rng.standard_normal((n, d)) + np.where(y[:, None] == 0, shift, -shift)
    return X, y


def planted_consistent(n: int, d: int, g: int, rng: np.random.Generator):
    """Random data plus a right-hand side built to lie in range(Xc).

    Returns (view, Y, W_star) with W_star = pinv(Xc) Y exact by construction
    (the planted coefficient matrix already lives in the row space).
    """
    X = rng.standard_normal((n, d))
    view = build_centered_view(X)
    Xc = to_dense_centered(view)
    W_bar = Xc.T @ rng.standard_normal((n, g))
    Y = Xc @ W_bar
    return view, Y, W_bar


def planted_inconsistent(n: int, d: int, g: int, rank: int,
                         rng: np.random.Generator, resid_scale: float = 1.0):
    """Rank-deficient data with a right-hand side split into a consistent
    part and a component orthogonal to range(Xc).

    Returns (view, Y); the least-norm residual Y - Xc pinv(Xc) Y equals the
    orthogonal component.
    """
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    view = build_centered_view(X)
    Xc = to_dense_centered(view)
    W_bar = Xc.T @ rng.standard_normal((n, g))
    U = view.spectrum[0]
    noise = rng.standard_normal((n, g))
    perp = noise - U @ (U.T @ noise)
    Y = Xc @ W_bar + resid_scale * perp
    return view, Y


def expected_step_check(
    view: CenteredMatrixView,
    Y,
    W: np.ndarray,
    m: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Average of m independent single steps from W versus the analytic
    expectation of one step,

        E[W_{k+1} - W_k | W_k = W] = -Xc^T (Xc W - Y) / ||Xc||_F^2,

    a gradient step weighted by squared singular values, so the iterates
    remove large-singular-direction error first while staying in the row
    space of Xc.  Returns (empirical mean step, analytic step, Frobenius deviation); the
    deviation shrinks as O(1/sqrt(m)).
    """
    Ym = as_matrix(Y, view.n)
    Wm = np.asarray(W, dtype=np.float64)
    dist = build_sampler(view)
    idx = sample_rows(dist, rng, m)
    counts = np.bincount(idx, minlength=view.n).astype(np.float64)

    # mean of x_i r_i^T / ||x_i||^2 over draws, grouped by row index
    R = Ym - view.matmul(Wm)
    weights = np.zeros(view.n)
    active = view.centered_row_norms_sq > 0
    weights[active] = counts[active] / (m * view.centered_row_norms_sq[active])
    empirical = view.rmatmul(weights[:, None] * R)

    analytic = view.rmatmul(R) / view.frob_norm_sq
    deviation = float(np.linalg.norm(empirical - analytic))
    return empirical, analytic, deviation


def traced_peak(fn) -> int:
    """The most bytes tracemalloc saw allocated at once while ``fn()`` ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

"""Synthetic instances used by the test suite and the benchmark scripts."""

import numpy as np

from .baselines import centered_spectrum
from .matrix import build_centered_view, to_dense_centered


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
    U = centered_spectrum(view)[0]
    noise = rng.standard_normal((n, g))
    perp = noise - U @ (U.T @ noise)
    Y = Xc @ W_bar + resid_scale * perp
    return view, Y


"""Norm-proportional row sampling with O(1) draws.

Row i is drawn with probability p_i = ||x_i - mu||^2 / ||Xc||_F^2.  Draws go
through a Walker alias table by default (O(n) build, O(1) per draw, two
uniforms per draw: one for the slot, one for the accept test).  A cumulative
array with binary search is kept as a debug method (one uniform per draw);
its uniform-to-index mapping is easier to unit test.

Zero-norm centered rows are excluded from sampling entirely: their equation
carries no information and the projection step is undefined for them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrix, InvalidData
from .matrix import CenteredMatrixView


@dataclass(frozen=True)
class SamplingDistribution:
    probs: np.ndarray        # length n, sums to 1, exact zeros for zero rows
    active_rows: np.ndarray  # indices with p_i > 0
    cumulative: np.ndarray   # cumsum over active rows, last entry exactly 1.0
    alias_prob: np.ndarray   # alias-table accept thresholds over active rows
    alias_index: np.ndarray  # alias-table redirect targets over active rows

    @property
    def n(self) -> int:
        return len(self.probs)


def _build_alias(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Python floats and lists: the same IEEE arithmetic as float64 scalars,
    # without the per-element cost of indexing arrays in the loop
    m = len(probs)
    scaled = (probs * m).tolist()
    accept = [1.0] * m
    alias = list(range(m))
    small = [i for i, s in enumerate(scaled) if s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    # leftovers are pure rounding noise; they accept with probability 1
    return np.array(accept), np.array(alias, dtype=np.intp)


def build_sampler(view: CenteredMatrixView) -> SamplingDistribution:
    norms_sq = view.centered_row_norms_sq
    total = view.frob_norm_sq
    if total <= 0.0:
        raise DegenerateMatrix("all rows are zero after centering")
    probs = norms_sq / total
    active = np.flatnonzero(probs > 0.0)
    active_probs = probs[active] / probs[active].sum()
    cumulative = np.cumsum(active_probs)
    cumulative[-1] = 1.0
    accept, alias = _build_alias(active_probs)
    return SamplingDistribution(
        probs=probs,
        active_rows=active,
        cumulative=cumulative,
        alias_prob=accept,
        alias_index=alias,
    )


def sample_row(dist: SamplingDistribution, rng: np.random.Generator,
               method: str = "alias") -> int:
    """Draw one row index with probability p_i, advancing ``rng``."""
    if method == "alias":
        m = len(dist.active_rows)
        slot = int(rng.random() * m)
        u = rng.random()
        pos = slot if u < dist.alias_prob[slot] else dist.alias_index[slot]
        return int(dist.active_rows[pos])
    if method == "cumulative":
        u = rng.random()
        pos = int(np.searchsorted(dist.cumulative, u, side="left"))
        return int(dist.active_rows[min(pos, len(dist.active_rows) - 1)])
    raise InvalidData(f"unknown sampling method {method!r}")


def sample_rows(dist: SamplingDistribution, rng: np.random.Generator,
                size: int, method: str = "alias") -> np.ndarray:
    """Vectorized draws; consumes the uniform stream exactly like ``size``
    sequential :func:`sample_row` calls."""
    m = len(dist.active_rows)
    if method == "alias":
        u = rng.random(2 * size)
        slots = (u[0::2] * m).astype(np.int64)
        take = u[1::2] < dist.alias_prob[slots]
        pos = np.where(take, slots, dist.alias_index[slots])
    elif method == "cumulative":
        u = rng.random(size)
        pos = np.minimum(np.searchsorted(dist.cumulative, u, side="left"), m - 1)
    else:
        raise InvalidData(f"unknown sampling method {method!r}")
    return dist.active_rows[pos]

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rklda.errors import DegenerateMatrix
from rklda.matrix import build_centered_view
from rklda.rk import make_rng
from rklda.sampling import _build_alias, build_sampler, sample_row, sample_rows


def view_with_norms(norms_sq):
    """Diagonal pre-centered matrix whose squared row norms are as given."""
    X = np.diag(np.sqrt(np.asarray(norms_sq, dtype=np.float64)))
    return build_centered_view(X, assume_centered=True)


def array_alias(probs):
    """The alias-table loop run on NumPy arrays, element by element."""
    m = len(probs)
    scaled = probs * m
    accept = np.ones(m)
    alias = np.arange(m)
    small = [i for i in range(m) if scaled[i] < 1.0]
    large = [i for i in range(m) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    return accept, alias


@pytest.mark.parametrize("m", [1, 2, 200, 20_000])
@pytest.mark.parametrize("skew", [0.0, 1.0, 3.0])
def test_alias_table_matches_array_loop(m, skew):
    rng = np.random.default_rng(m)
    probs = rng.random(m) ** skew
    probs[rng.random(m) < 0.1] = 1.0  # repeated values give ties at scaled == 1
    probs /= probs.sum()
    accept, alias = _build_alias(probs)
    want_accept, want_alias = array_alias(probs)
    assert np.array_equal(accept, want_accept)
    assert np.array_equal(alias, want_alias)


def test_probs_normalize():
    dist = build_sampler(view_with_norms([1.0, 3.0]))
    assert np.allclose(dist.probs, [0.25, 0.75])


def test_zero_row_excluded():
    dist = build_sampler(view_with_norms([2.0, 0.0, 2.0]))
    assert np.allclose(dist.probs, [0.5, 0.0, 0.5])
    assert dist.probs[1] == 0.0
    assert list(dist.active_rows) == [0, 2]
    rng = make_rng(0)
    draws = sample_rows(dist, rng, 5000)
    assert 1 not in set(draws.tolist())


def test_uniform_when_equal():
    dist = build_sampler(view_with_norms([2.0] * 8))
    assert np.allclose(dist.probs, 1.0 / 8)


def test_all_zero_degenerate():
    v = build_centered_view(np.ones((3, 2)))  # identical rows center to zero
    with pytest.raises(DegenerateMatrix):
        build_sampler(v)


class _FixedUniforms:
    """Stands in for a Generator, replaying a fixed uniform stream."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        out = np.array(self._values[:size])
        del self._values[:size]
        return out


def test_alias_mapping():
    dist = build_sampler(view_with_norms([1.0, 3.0]))
    # scaled probs [0.5, 1.5]: slot 0 accepts below 0.5, else redirects to 1
    assert sample_row(dist, _FixedUniforms([0.2, 0.4])) == 0
    assert sample_row(dist, _FixedUniforms([0.2, 0.6])) == 1
    assert sample_row(dist, _FixedUniforms([0.7, 0.99])) == 1
    assert sample_rows(dist, _FixedUniforms([0.2, 0.4, 0.2, 0.6]), 2).tolist() == [0, 1]


def test_single_row_always_zero():
    dist = build_sampler(view_with_norms([4.0]))
    rng = make_rng(7)
    assert all(sample_row(dist, rng) == 0 for _ in range(20))


def test_scalar_and_vector_draws_agree():
    dist = build_sampler(view_with_norms([1.0, 2.0, 0.0, 5.0, 0.5]))
    rng_a, rng_b = make_rng(99), make_rng(99)
    scalar = [sample_row(dist, rng_a) for _ in range(500)]
    vector = sample_rows(dist, rng_b, 500)
    assert scalar == vector.tolist()


def test_empirical_frequencies():
    norms = [1.0, 3.0, 0.0, 10.0, 2.0]
    dist = build_sampler(view_with_norms(norms))
    n_draws = 10**6
    draws = sample_rows(dist, make_rng(2024), n_draws)
    freq = np.bincount(draws, minlength=len(norms)) / n_draws
    p = dist.probs
    sigma = np.sqrt(p * (1 - p) / n_draws)
    assert np.all(np.abs(freq - p) <= 3 * sigma + 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 10), st.integers(1, 6)),
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ),
    st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-3),
)
def test_scale_equivariance(X, c):
    view = build_centered_view(X)
    raw_mass = float(np.sum(X * X))
    if view.frob_norm_sq <= 1e-12 * max(raw_mass, 1e-300):
        return  # centered mass is pure cancellation dust; probs are undefined
    base = build_sampler(view)
    scaled = build_sampler(build_centered_view(c * X))
    assert np.allclose(base.probs, scaled.probs, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 10), st.integers(1, 6)),
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
)
def test_probs_sum_to_one(X):
    try:
        dist = build_sampler(build_centered_view(X))
    except DegenerateMatrix:
        return
    assert abs(dist.probs.sum() - 1.0) <= 1e-12
    assert np.all(dist.probs >= 0.0)

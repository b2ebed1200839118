import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rklda.errors import InvalidData, TooLarge
from rklda.matrix import (
    CENTERING_RATIO_WARN,
    NORM_CHUNK_ELEMENTS,
    build_centered_view,
    to_dense_centered,
)

finite_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 10)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def test_build_small_example():
    v = build_centered_view(np.array([[1.0, 1.0], [3.0, 3.0]]))
    assert np.allclose(v.column_means, [2.0, 2.0])
    assert np.allclose(v.centered_row_norms_sq, [2.0, 2.0])
    assert v.frob_norm_sq == pytest.approx(4.0)
    assert np.allclose(to_dense_centered(v), [[-1.0, -1.0], [1.0, 1.0]])


def test_build_zero_matrix():
    v = build_centered_view(np.zeros((2, 2)))
    assert np.allclose(v.column_means, 0.0)
    assert np.allclose(v.centered_row_norms_sq, 0.0)
    assert v.frob_norm_sq == 0.0


def test_single_row_centers_to_zero():
    v = build_centered_view(np.array([[5.0, -3.0, 2.0]]))
    assert np.allclose(to_dense_centered(v), 0.0)
    assert v.frob_norm_sq == 0.0


def test_identity_profile():
    v = build_centered_view(np.eye(2))
    assert np.allclose(v.column_means, [0.5, 0.5])
    assert np.allclose(v.centered_row_norms_sq, [0.5, 0.5])
    assert v.frob_norm_sq == pytest.approx(1.0)


def test_precentered_row_is_stored_row():
    X = np.array([[1.0, -2.0], [0.5, 3.0]])
    v = build_centered_view(X, assume_centered=True)
    assert np.array_equal(to_dense_centered(v)[1], X[1])
    assert np.allclose(v.centered_row_norms_sq, [5.0, 9.25])


def test_sparse_row_offset_expansion():
    d = 6
    X = np.zeros((3, d))
    X[0, d - 1] = 5.0
    X[1] = 1.0
    X[2] = 1.0
    v = build_centered_view(sp.csr_array(X))
    expected = X - X.mean(axis=0)
    assert np.allclose(to_dense_centered(v), expected)
    assert np.allclose(v.centered_row_norms_sq, np.sum(expected**2, axis=1))


def test_non_finite_rejected():
    with pytest.raises(InvalidData):
        build_centered_view(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidData):
        build_centered_view(sp.csr_array(np.array([[np.inf, 0.0]])))


def test_empty_rejected():
    with pytest.raises(InvalidData):
        build_centered_view(np.zeros((0, 3)))


@pytest.mark.filterwarnings("ignore:sparse centering ratio")
@settings(max_examples=40, deadline=None)
@given(finite_matrices)
def test_centered_rows_sum_to_zero(X):
    tol = 1e-10 * max(np.linalg.norm(X), 1.0)
    for v in (build_centered_view(X), build_centered_view(sp.csr_array(X))):
        total = to_dense_centered(v).sum(axis=0)
        assert np.abs(total).max() <= tol


@settings(max_examples=40, deadline=None)
@given(finite_matrices)
def test_frob_matches_dense_oracle(X):
    v = build_centered_view(X)
    dense = X - X.mean(axis=0)
    oracle = float(np.sum(dense * dense))
    assert v.frob_norm_sq == pytest.approx(oracle, rel=1e-9, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(finite_matrices)
def test_sparse_matches_dense(X):
    vd = build_centered_view(X)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        vs = build_centered_view(sp.csr_array(X))
    a = to_dense_centered(vd)
    b = to_dense_centered(vs)
    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a).max(axis=1, keepdims=True)))


def test_norms_never_negative():
    # rows equal to the mean cancel catastrophically in the norm identity
    X = np.full((4, 3), 1e8)
    v = build_centered_view(X)
    assert np.all(v.centered_row_norms_sq >= 0.0)


@settings(max_examples=60, deadline=None)
@given(
    X=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 10)),
                 elements=st.floats(-10, 10, allow_nan=False)),
    offset_exp=st.floats(0.0, 15.0),
    seed=st.integers(0, 2**16),
)
def test_dense_norms_exact_at_large_offsets(X, offset_exp, seed):
    rng = np.random.default_rng(seed)
    X = X + rng.choice([-1.0, 1.0], size=X.shape[1]) * 10.0**offset_exp * rng.random(X.shape[1])
    v = build_centered_view(X)
    Xc = X - v.column_means
    want = np.einsum("ij,ij->i", Xc, Xc)
    assert np.all(np.abs(v.centered_row_norms_sq - want) <= 1e-12 * want)
    assert v.frob_norm_sq == pytest.approx(want.sum(), rel=1e-12, abs=0.0)


def test_dense_norms_over_several_chunks():
    rng = np.random.default_rng(8)
    d = 50
    n = 2 * (NORM_CHUNK_ELEMENTS // d) + 7  # two full chunks and a partial one
    X = rng.standard_normal((n, d)) + 1e8
    v = build_centered_view(X)
    Xc = X - v.column_means
    want = np.einsum("ij,ij->i", Xc, Xc)
    assert np.all(np.abs(v.centered_row_norms_sq - want) <= 1e-12 * want)


def test_sparse_large_centering_ratio_warns():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((20, 5)) + 1e6  # every entry stored, offset dominates
    with pytest.warns(RuntimeWarning, match="centering ratio") as record:
        v = build_centered_view(sp.csr_array(X))
    assert v.centering_ratio > CENTERING_RATIO_WARN
    assert f"{v.centering_ratio:.3g}" in str(record[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_centered_view(X)  # dense norms are exact: no warning
        small = build_centered_view(sp.csr_array(rng.standard_normal((20, 5)) + 1.0))
    assert 0.0 < small.centering_ratio < CENTERING_RATIO_WARN


def test_matmul_rmatmul_match_dense():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((7, 5))
    for base in (X, sp.csr_array(X)):
        v = build_centered_view(base)
        dense = X - X.mean(axis=0)
        V = rng.standard_normal((5, 2))
        U = rng.standard_normal((7, 2))
        assert np.allclose(v.matmul(V), dense @ V)
        assert np.allclose(v.rmatmul(U), dense.T @ U)
        assert np.allclose(v.matmul(V[:, 0]), dense @ V[:, 0])
        assert np.allclose(v.rmatmul(U[:, 0]), dense.T @ U[:, 0])


def test_to_dense_centered_guard():
    v = build_centered_view(np.eye(4))
    assert np.allclose(to_dense_centered(v), np.eye(4) - 0.25)
    with pytest.raises(TooLarge):
        to_dense_centered(v, max_elements=8)

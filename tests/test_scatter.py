from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import traced_peak
from rklda import matrix
from rklda.errors import InvalidData, TooLarge
from rklda.evaluation import ExperimentConfig, run_experiment
from rklda.labels import index_labels
from rklda.scatter import scatter_matrices, scatter_traces

FOUR_POINT_X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
FOUR_POINT_LABELS = index_labels([1, 1, 2, 2])


def random_instance(seed, n_max=60, d_max=12, g_max=5):
    rng = np.random.default_rng(seed)
    g = int(rng.integers(2, g_max + 1))
    n = int(rng.integers(g, n_max))
    d = int(rng.integers(1, d_max))
    toks = [f"c{i % g}" for i in range(n)]
    X = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
    return X, index_labels(toks)


def test_four_point_hand_computed():
    ss = scatter_matrices(FOUR_POINT_X, FOUR_POINT_LABELS)
    assert np.allclose(ss.s_w, [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(ss.s_b, [[0.0, 0.0], [0.0, 1.0]])
    assert np.allclose(ss.s_t, np.eye(2))
    assert np.allclose(ss.centroids, [[1.0, 0.0], [1.0, 2.0]])
    assert np.allclose(ss.grand_centroid, [1.0, 1.0])


def test_identical_observations_zero_scatter():
    X = np.tile([2.0, -1.0, 3.0], (6, 1))
    labels = index_labels(["a", "a", "b", "b", "a", "b"])
    ss = scatter_matrices(X, labels)
    assert np.allclose(ss.s_w, 0.0)
    assert np.allclose(ss.s_b, 0.0)
    assert np.allclose(ss.s_t, 0.0)
    assert scatter_traces(X, labels) == (pytest.approx(0.0), pytest.approx(0.0))


def test_singleton_classes():
    X = np.array([[1.0, 0.0], [0.0, 3.0], [5.0, 5.0]])
    labels = index_labels(["a", "b", "c"])
    ss = scatter_matrices(X, labels)
    assert np.allclose(ss.s_w, 0.0)
    assert np.allclose(ss.s_t, ss.s_b)


def test_four_point_traces():
    tw, tb = scatter_traces(FOUR_POINT_X, FOUR_POINT_LABELS)
    assert tw == pytest.approx(1.0)
    assert tb == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_decomposition_and_rank(seed):
    X, labels = random_instance(seed)
    ss = scatter_matrices(X, labels)
    resid = np.linalg.norm(ss.s_t - ss.s_w - ss.s_b)
    assert resid <= 1e-10 * max(np.linalg.norm(ss.s_t), 1e-12)
    evals = np.linalg.eigvalsh(ss.s_b)
    tol = max(ss.s_b.shape) * np.finfo(float).eps * max(evals.max(), 1e-300)
    assert np.sum(evals > tol) <= labels.g - 1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_traces_match_matrix_traces(seed):
    X, labels = random_instance(seed)
    ss = scatter_matrices(X, labels)
    tw, tb = scatter_traces(X, labels)
    assert tw == pytest.approx(np.trace(ss.s_w), rel=1e-10, abs=1e-12)
    assert tb == pytest.approx(np.trace(ss.s_b), rel=1e-10, abs=1e-12)


@pytest.mark.filterwarnings("ignore:sparse within-class trace cancels")
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0))
def test_sparse_traces_match_dense(seed, density):
    X, labels = random_instance(seed)
    X[np.random.default_rng(seed).random(X.shape) >= density] = 0.0
    tw, tb = scatter_traces(X, labels)
    stw, stb = scatter_traces(sp.csr_array(X), labels)
    # the sparse within-class expansion loses about eps * sum ||x_i||^2
    scale = np.einsum("ij,ij->", X, X) / X.shape[0]
    assert stw == pytest.approx(tw, rel=1e-12, abs=1e-13 * scale)
    assert stb == pytest.approx(tb, rel=1e-12, abs=1e-13 * scale)


def test_sparse_traces_warn_on_cancellation():
    # every observation sits 1e-6 from a class centroid at distance ~1e3
    rng = np.random.default_rng(0)
    labels = index_labels(["a", "b"] * 10)
    X = 1e3 * rng.standard_normal((2, 4))[labels.indices] + 1e-6 * rng.standard_normal((20, 4))
    with pytest.warns(RuntimeWarning, match="within-class trace cancels"):
        tw, _ = scatter_traces(sp.csr_array(X), labels)
    assert tw >= 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_translation_invariance(seed):
    X, labels = random_instance(seed)
    shift = np.random.default_rng(seed + 1).normal(0, 10, X.shape[1])
    a = scatter_matrices(X, labels)
    b = scatter_matrices(X + shift, labels)
    scale = max(np.linalg.norm(a.s_t), 1.0)
    assert np.allclose(a.s_w, b.s_w, atol=1e-9 * scale)
    assert np.allclose(a.s_b, b.s_b, atol=1e-9 * scale)
    assert np.allclose(a.s_t, b.s_t, atol=1e-9 * scale)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_symmetry_and_psd(seed):
    X, labels = random_instance(seed)
    ss = scatter_matrices(X, labels)
    for M in (ss.s_w, ss.s_b, ss.s_t):
        assert np.allclose(M, M.T, atol=1e-12)
        evals = np.linalg.eigvalsh(M)
        assert evals.min() >= -1e-10 * max(np.trace(M), 1e-300)


def test_dense_traces_hold_no_n_by_d_temporary():
    # the within-class deviations are summed in row chunks; one whole-matrix
    # float64 temporary would alone reach X.nbytes
    rng = np.random.default_rng(4)
    X = rng.standard_normal((8000, 200))
    labels = index_labels([str(t) for t in rng.integers(0, 4, 8000)])
    assert traced_peak(lambda: scatter_traces(X, labels)) < X.nbytes / 2


def test_matrices_hold_no_n_by_d_temporary():
    # the deviations from the class and grand centroids are formed in row
    # chunks; one whole-matrix float64 temporary would alone reach X.nbytes
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20000, 60))
    labels = index_labels([str(t) for t in rng.integers(0, 4, 20000)])
    assert traced_peak(lambda: scatter_matrices(X, labels)) < X.nbytes / 2


def test_matrices_over_several_chunks_match_whole_deviations():
    rng = np.random.default_rng(6)
    d = 40
    n = 2 * (matrix.NORM_CHUNK_ELEMENTS // d) + 7  # two full chunks and a partial one
    labels = index_labels([str(t) for t in rng.integers(0, 3, n)])
    X = rng.standard_normal((n, d)) + 1e3
    ss = scatter_matrices(X, labels)
    within = X - ss.centroids[labels.indices]
    total = X - ss.grand_centroid
    assert np.allclose(ss.s_w, within.T @ within / n, rtol=0, atol=1e-13 * np.abs(ss.s_w).max())
    assert np.allclose(ss.s_t, total.T @ total / n, rtol=0, atol=1e-13 * np.abs(ss.s_t).max())
    assert np.trace(ss.s_w) == pytest.approx(scatter_traces(X, labels)[0], rel=1e-13)


def test_guard():
    X = np.zeros((20, 3000))
    labels = index_labels(["a", "b"] * 10)
    with pytest.raises(TooLarge):
        scatter_matrices(X, labels)
    # traces still fine at this shape
    tw, tb = scatter_traces(X, labels)
    assert tw == 0.0 and tb == 0.0
    # the one dense guard, on the 3 d^2 elements of the matrices, not on n
    scatter_matrices(np.zeros((700, 400)), index_labels(["a", "b"] * 350))  # n d^2 = 1.1e8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "DENSE_GUARD_ELEMENTS", 3 * 3000 * 3000 - 1)
        with pytest.raises(TooLarge, match="27000000 elements"):
            scatter_matrices(X, labels)


@pytest.mark.parametrize("fn", [scatter_matrices, scatter_traces,
                                partial(run_experiment, config=ExperimentConfig())])
def test_label_count_mismatch_is_invalid_data(fn):
    labels = index_labels(["a", "b"] * 5)
    with pytest.raises(InvalidData, match="12 observations vs 10 labels"):
        fn(np.ones((12, 3)), labels)


@pytest.mark.parametrize("fn", [scatter_matrices, scatter_traces])
def test_non_finite_data_is_invalid_data(fn):
    X = np.ones((4, 2))
    X[1, 1] = np.nan
    with pytest.raises(InvalidData, match="non-finite"):
        fn(X, index_labels(["a", "b"] * 2))

from collections import Counter
from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import bench_gen, traced_peak, two_gaussians
from rklda import evaluation, matrix
from rklda.baselines import pinv_oracle, solve_lsqr
from rklda.diagnostics import condition_profile, residual_at, run_convergence_study
from rklda.errors import ClassCoverageError, InvalidData, TooLarge
from rklda.evaluation import (
    ExperimentConfig,
    accuracy,
    fit_subspace,
    knn_classify,
    knn_search,
    knn_vote,
    project,
    run_experiment,
    split,
)
from rklda.labels import encode_labels, index_labels
from rklda.matrix import build_centered_view, densify, to_dense_centered
from rklda.rk import SolverConfig, make_rng


def test_split_sizes_and_partition():
    train, test = split(10, 0.7, make_rng(0))
    assert len(train) == 7 and len(test) == 3
    assert set(train) | set(test) == set(range(10))
    assert set(train) & set(test) == set()


def test_split_caps_train_below_n():
    train, test = split(5, 0.999, make_rng(0))
    assert len(train) == 4 and len(test) == 1
    train, test = split(5, 0.001, make_rng(0))
    assert len(train) == 1 and len(test) == 4


def test_split_deterministic():
    a = split(50, 0.7, make_rng(42))
    b = split(50, 0.7, make_rng(42))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_split_class_coverage():
    labels = np.array([0] * 98 + [1, 2])
    for seed in range(5):
        train, _ = split(100, 0.7, make_rng(seed), labels=labels)
        assert set(labels[train]) == {0, 1, 2}


def test_split_coverage_failure():
    # a class larger than the test capacity cannot be covered... invert:
    # one singleton class and train_fraction so small it is almost never drawn
    labels = np.array([0] * 99 + [1])
    with pytest.raises(ClassCoverageError):
        split(100, 0.01, make_rng(1), labels=labels)


def test_project_identity_columns():
    X = np.arange(12.0).reshape(4, 3)
    mu = X.mean(axis=0)
    B = np.eye(3)[:, :2]
    Z = project(X, B, mu)
    assert np.allclose(Z, (X - mu)[:, :2])


def test_project_zero_subspace():
    X = np.ones((3, 4))
    Z = project(X, np.zeros((4, 2)), np.zeros(4))
    assert np.allclose(Z, 0.0)


def test_project_full_is_centered_rows():
    X = np.arange(8.0).reshape(2, 4)
    mu = np.array([1.0, 0.0, -1.0, 2.0])
    assert np.allclose(project(X, None, mu), X - mu)


def test_project_consistent_with_residual_at():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 8))
    toks = ["a", "b", "c"] * 5
    Y = encode_labels(index_labels(toks))
    view = build_centered_view(X)
    W = pinv_oracle(view, Y).matrix
    Z = project(X, W, view.column_means)
    frob, _ = residual_at(W, view, Y)
    assert np.linalg.norm(Y.matrix - Z) == pytest.approx(frob, abs=1e-10)


def test_project_refuses_a_subspace_of_other_rows():
    with pytest.raises(InvalidData, match="subspace rows 3 vs 4 data columns"):
        project(np.ones((2, 4)), np.ones((3, 2)), None)


def test_held_out_rows_project_exactly_at_a_column_offset(monkeypatch):
    # the knn-experiment blobs shifted by 1e8: the held-out block is centered
    # at the training means once, not as X M - mu^T M, which cancels
    gen = bench_gen()
    X, tokens, _ = gen.blobs(gen.KNN_EXPERIMENT, 1)
    X += 1e8
    seen = {}
    for name in ("split", "fit_subspace", "knn_search"):
        def spy(*args, _name=name, _fn=getattr(evaluation, name), **kwargs):
            seen[_name] = (args, _fn(*args, **kwargs))
            return seen[_name][1]
        monkeypatch.setattr(evaluation, name, spy)
    run_experiment(X, index_labels(tokens), ExperimentConfig(
        methods=("lsqr",), replicates=1, seed=3, knn_ks=(1,), timing="none"))
    test = seen["split"][1][1]
    view, M = seen["fit_subspace"][0][1], seen["fit_subspace"][1].matrix
    Z_test = seen["knn_search"][0][1]
    want = (X[test] - view.column_means) @ M
    assert np.linalg.norm(Z_test - want) <= 1e-12 * np.linalg.norm(want)


def test_knn_nearest_neighbor():
    train = np.array([[0.0, 0.0], [1.0, 1.0]])
    pred = knn_classify(train, np.array([0, 1]), np.array([[0.1, 0.0]]), k=1)
    assert pred[0] == 0


def test_knn_majority():
    train = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    pred = knn_classify(train, np.array([0, 0, 1]), np.array([[0.0, 0.4]]), k=3)
    assert pred[0] == 0


def test_knn_k_equals_train_size():
    train = np.array([[0.0], [10.0], [20.0], [30.0]])
    labels = np.array([0, 1, 1, 1])
    pred = knn_classify(train, labels, np.array([[0.0], [29.0]]), k=4)
    assert np.array_equal(pred, [1, 1])  # global majority regardless of query


def test_knn_distance_tie_smaller_index():
    # both training points at distance 1; index 0 wins the k=1 slot
    train = np.array([[1.0, 0.0], [-1.0, 0.0]])
    pred = knn_classify(train, np.array([5, 9]), np.array([[0.0, 0.0]]), k=1)
    assert pred[0] == 5


def test_knn_vote_tie_nearest_member():
    # k=2: one vote each; class 7's member is nearer
    train = np.array([[0.5, 0.0], [2.0, 0.0], [9.0, 9.0]])
    pred = knn_classify(train, np.array([7, 3, 3]), np.array([[0.0, 0.0]]), k=2)
    assert pred[0] == 7


def test_knn_vote_tie_equal_distance_smaller_class():
    train = np.array([[1.0, 0.0], [-1.0, 0.0]])
    pred = knn_classify(train, np.array([9, 4]), np.array([[0.0, 0.0]]), k=2)
    assert pred[0] == 4


def test_knn_invalid_k():
    train = np.zeros((3, 2))
    with pytest.raises(InvalidData):
        knn_classify(train, np.zeros(3, dtype=int), np.zeros((1, 2)), k=4)


def _reference_knn(train, labels, test, k):
    """Brute force: order by (distance, index), then the documented vote rule."""
    dist = ((test[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    index = np.arange(train.shape[0])
    preds = []
    for t in range(test.shape[0]):
        neigh = np.lexsort((index, dist[t]))[:k]
        votes = Counter(labels[neigh].tolist())
        best = max(votes.values())
        tied = [c for c, v in votes.items() if v == best]
        nearest = {c: min(dist[t, j] for j in neigh if labels[j] == c) for c in tied}
        preds.append(min(tied, key=lambda c: (nearest[c], c)))
    return np.array(preds)


@st.composite
def tie_grids(draw):
    """Points on a small integer grid: many equal distances and split votes."""
    n_train = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    coords = st.integers(-2, 2).map(float)
    train = draw(hnp.arrays(np.float64, (n_train, d), elements=coords))
    test = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), d), elements=coords))
    labels = draw(hnp.arrays(np.int64, n_train, elements=st.integers(0, 3)))
    return train, labels, test


@pytest.mark.parametrize("chunk", [evaluation.KNN_CHUNK_ELEMENTS, 7])
@settings(max_examples=150, deadline=None)
@given(grid=tie_grids())
def test_knn_matches_brute_force_on_tie_grids(chunk, grid):
    train, labels, test = grid
    with mock.patch.object(evaluation, "KNN_CHUNK_ELEMENTS", chunk):
        for k in range(1, train.shape[0] + 1):
            got = knn_classify(train, labels, test, k)
            assert np.array_equal(got, _reference_knn(train, labels, test, k)), k


def test_knn_matches_brute_force_on_large_tie_grid():
    # past NumPy's small-array sorts; most rows tie across the cut at k=151
    rng = np.random.default_rng(12)
    train = rng.integers(-3, 4, (300, 2)).astype(float)
    test = rng.integers(-3, 4, (40, 2)).astype(float)
    labels = rng.integers(0, 5, 300)
    dist = ((test[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    index, dist2 = knn_search(train, test, 151)
    for t in range(test.shape[0]):
        assert np.array_equal(index[t], np.lexsort((np.arange(300), dist[t]))[:151])
    for k in (1, 7, 50, 151):
        got = knn_vote(index, dist2, labels, k)
        assert np.array_equal(got, _reference_knn(train, labels, test, k)), k
    got = knn_classify(train, labels, test, 300)
    assert np.array_equal(got, _reference_knn(train, labels, test, 300))


def test_knn_search_orders_by_distance_then_index():
    # five training points tie at distance 1 from the query; the partition
    # cut at k=3 falls inside the tie
    train = np.array([[1.0], [-1.0], [0.0], [1.0], [-1.0], [1.0], [3.0]])
    index, dist2 = knn_search(train, np.array([[0.0]]), 3)
    assert index.tolist() == [[2, 0, 1]]
    assert dist2.tolist() == [[0.0, 1.0, 1.0]]
    index, _ = knn_search(train, np.array([[0.0]]), 7)
    assert index.tolist() == [[2, 0, 1, 3, 4, 5, 6]]
    # large ties inside the k nearest, none across the cut at k=120
    x = np.random.default_rng(13).permutation(np.repeat([1.0, -2.0, 3.0], [60, 60, 180]))
    index, _ = knn_search(x[:, None], np.array([[0.0]]), 120)
    assert np.array_equal(index[0], np.lexsort((np.arange(300), x**2))[:120])


def _reference_search(train, test, k):
    """Brute force (index, dist2): every distance, ordered by (distance, index)."""
    dist = ((test[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
    index = np.array([np.lexsort((np.arange(train.shape[0]), row))[:k] for row in dist])
    return index, np.take_along_axis(dist, index, axis=1)


@st.composite
def duplicated_rows(draw):
    """Integer points, exact in the distance formula, whose training set
    repeats rows: a query's distances tie across the k-th place or not."""
    c = draw(st.integers(1, 6))
    coords = st.integers(-1000, 1000).map(float)
    base = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), c), elements=coords))
    n_train = draw(st.integers(1, 24))
    picks = draw(hnp.arrays(np.intp, n_train, elements=st.integers(0, base.shape[0] - 1)))
    test = draw(hnp.arrays(np.float64, (draw(st.integers(1, 10)), c), elements=coords))
    return base[picks], test


def _search_ks(n_train):
    return sorted({*range(1, min(n_train, 12) + 1), n_train})


@pytest.mark.parametrize("chunk", [7, 64, evaluation.KNN_CHUNK_ELEMENTS])
@settings(max_examples=100, deadline=None)
@given(points=duplicated_rows())
def test_knn_search_exact_on_integer_points(chunk, points):
    train, test = points
    with mock.patch.object(evaluation, "KNN_CHUNK_ELEMENTS", chunk):
        for k in _search_ks(train.shape[0]):
            index, dist2 = knn_search(train, test, k)
            ref_index, ref_dist2 = _reference_search(train, test, k)
            assert np.array_equal(index, ref_index), k
            assert np.array_equal(dist2, ref_dist2), k


@pytest.mark.parametrize("chunk", [7, 64, evaluation.KNN_CHUNK_ELEMENTS])
@settings(max_examples=50, deadline=None)
@given(points=duplicated_rows(), data=st.data())
def test_knn_search_nan_row_leaves_other_rows(chunk, points, data):
    # a huge point in both sets: its self product overflows, so ||a||^2 - 2 a.a
    # + ||a||^2 is inf - inf and the test row's distances hold NaN
    train, test = points
    c = train.shape[1]
    scales = st.sampled_from([-3.0, 1.0, 2.0])
    huge = 1e200 * data.draw(hnp.arrays(np.float64, c, elements=scales))
    train = np.insert(train, data.draw(st.integers(0, train.shape[0])), huge, axis=0)
    at = data.draw(st.integers(0, test.shape[0]))
    with_nan = np.insert(test, at, huge, axis=0)
    with mock.patch.object(evaluation, "KNN_CHUNK_ELEMENTS", chunk), \
            np.errstate(over="ignore", invalid="ignore"):
        for k in _search_ks(train.shape[0]):
            index, dist2 = knn_search(train, with_nan, k)
            assert k < train.shape[0] or np.isnan(dist2[at]).any()  # the huge pair
            ref_index, ref_dist2 = knn_search(train, test, k)
            assert np.array_equal(np.delete(index, at, axis=0), ref_index), k
            assert np.array_equal(np.delete(dist2, at, axis=0), ref_dist2), k


def test_knn_search_rejects_width_mismatch():
    with pytest.raises(InvalidData, match="3 columns.* 2"):
        knn_search(np.zeros((4, 2)), np.zeros((2, 3)), 1)
    with pytest.raises(InvalidData, match="1 columns.* 2"):
        knn_classify(np.zeros((4, 2)), np.zeros(4, dtype=int), np.zeros((2, 1)), 1)


def test_knn_search_memory_within_chunk_bound():
    # the two chunk buffers hold KNN_CHUNK_ELEMENTS entries; outputs and the
    # scaled test rows are the search's own size, not the chunk's
    rng = np.random.default_rng(31)
    n_test, n_train, c, k = 2000, 5000, 5, 10
    train = rng.standard_normal((n_train, c))
    test = rng.standard_normal((n_test, c))
    peak = traced_peak(lambda: knn_search(train, test, k))
    outputs = n_test * k * (np.dtype(np.intp).itemsize + 8)
    assert peak - outputs - test.nbytes <= 1.5 * 8 * evaluation.KNN_CHUNK_ELEMENTS


def test_knn_vote_rejects_k_past_search():
    index, dist2 = knn_search(np.zeros((4, 2)), np.zeros((2, 2)), 2)
    with pytest.raises(InvalidData):
        knn_vote(index, dist2, np.zeros(4, dtype=int), 3)


def test_replicate_shared_search_matches_knn_classify(monkeypatch):
    X, y = two_gaussians(n=70, d=3, separation=1.0, rng=np.random.default_rng(8))
    X = np.round(X)  # duplicate points, so distance and vote ties occur
    labels = index_labels([str(t) for t in y])
    config = _tiny_config(methods=("full", "rk", "lsqr"), replicates=1,
                          knn_ks=(1, 2, 5, 9), rk_iters=300)
    searched, voted = [], []
    search, vote = evaluation.knn_search, evaluation.knn_vote

    def spy_search(train_Z, test_Z, k):
        searched.append((train_Z, test_Z))
        return search(train_Z, test_Z, k)

    def spy_vote(index, dist2, labels, k):
        preds = vote(index, dist2, labels, k)
        voted.append((labels, k, preds))
        return preds

    monkeypatch.setattr(evaluation, "knn_search", spy_search)
    monkeypatch.setattr(evaluation, "knn_vote", spy_vote)
    rows, _, failures = evaluation._replicate(
        X, labels, config, 0, np.random.SeedSequence(config.seed))
    monkeypatch.undo()
    assert not failures and len(rows) == 3 * 4
    assert len(searched) == 3 and len(voted) == 3 * 4
    for m, (train_Z, test_Z) in enumerate(searched):
        for labels, k, preds in voted[4 * m: 4 * m + 4]:
            assert np.array_equal(preds, knn_classify(train_Z, labels, test_Z, k))


def test_accuracy_examples():
    assert accuracy(["A", "B", "B"], ["A", "B", "A"]) == pytest.approx(2 / 3)
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 1], [2, 2]) == 0.0
    with pytest.raises(InvalidData):
        accuracy([1, 2], [1, 2, 3])


def _tiny_config(**kw):
    defaults = dict(
        methods=("full", "rk", "lsqr", "pinv"),
        replicates=3,
        knn_ks=(1, 5),
        seed=7,
        rk_iters=800,
        timing="none",
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_experiment_well_separated():
    X, y = two_gaussians(n=120, d=20, separation=5.0, rng=np.random.default_rng(0))
    labels = index_labels([str(t) for t in y])
    report = run_experiment(X, labels, _tiny_config())
    for method in ("full", "rk", "lsqr", "pinv"):
        stats = report.methods[method]
        assert stats["failures"] == 0
        assert stats["per_k"]["5"]["accuracy_median"] >= 0.9
    assert len(report.rows) == 4 * 3 * 2


def test_run_experiment_counts_unconverged_lsqr_fits(monkeypatch):
    # two rows repeated four times under a column offset of 1e8, fit with a
    # cap of one iteration, so some replicates' LSQR fits stop at the cap
    rng = np.random.default_rng(1)
    X = np.array([[0.0, 0, 6, 6, 6], [6.0] * 5])[[0, 1] * 4]
    X += rng.choice([-1.0, 1.0], size=5) * 1e8 * rng.random(5)
    labels = index_labels([str(i % 2) for i in range(8)])
    statuses = []

    def spy(*args, **kwargs):
        sub = solve_lsqr(*args, **{**kwargs, "max_iters": 1})
        statuses.append(sub.converged)
        return sub

    monkeypatch.setattr(evaluation, "solve_lsqr", spy)
    report = run_experiment(X, labels, _tiny_config(methods=("full", "lsqr"), knn_ks=(1,), seed=1))
    assert len(statuses) == 3 and False in statuses
    assert report.methods["lsqr"]["unconverged"] == statuses.count(False)
    assert report.methods["lsqr"]["failures"] == 0
    assert "unconverged" not in report.methods["full"]
    monkeypatch.undo()  # the default cap from here on
    X, y = two_gaussians(n=40, d=5, rng=np.random.default_rng(1))
    well = run_experiment(X, index_labels([str(t) for t in y]),
                          _tiny_config(methods=("rk", "lsqr"), knn_ks=(1,)))
    assert well.methods["lsqr"]["unconverged"] == 0
    assert "unconverged" not in well.methods["rk"]


def test_run_experiment_counts_excluded_rk_rows(monkeypatch):
    # every split trains on the first five rows, whose mean is the last of
    # them, so that row's centered norm is zero and each RK fit excludes it
    X = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1], [0, 0], [2, 0], [-2, 0]])
    labels = index_labels(list("abbaaab"))
    monkeypatch.setattr(evaluation, "split",
                        lambda *args, **kwargs: (np.arange(5), np.arange(5, 7)))
    report = run_experiment(X, labels, _tiny_config(methods=("full", "rk", "lsqr"), knn_ks=(1,)))
    assert report.methods["rk"]["failures"] == 0
    assert report.methods["rk"]["excluded_rows"] == 3  # one a replicate
    assert "excluded_rows" not in report.methods["lsqr"]
    assert "excluded_rows" not in report.methods["full"]
    monkeypatch.undo()
    X, y = two_gaussians(n=40, d=5, rng=np.random.default_rng(1))
    well = run_experiment(X, index_labels([str(t) for t in y]),
                          _tiny_config(methods=("rk",), knn_ks=(1,)))
    assert well.methods["rk"]["excluded_rows"] == 0


def test_run_experiment_single_replicate_full_only():
    X, y = two_gaussians(n=40, d=5, rng=np.random.default_rng(1))
    report = run_experiment(
        X, index_labels([str(t) for t in y]),
        ExperimentConfig(methods=("full",), replicates=1, knn_ks=(1, 3), seed=0, timing="none"),
    )
    assert len(report.rows) == 2
    assert report.methods["full"]["per_k"]["1"]["accuracy_std"] == 0.0


def test_run_experiment_deterministic():
    X, y = two_gaussians(n=60, d=10, rng=np.random.default_rng(2))
    labels = index_labels([str(t) for t in y])
    cfg = _tiny_config(replicates=2, rk_iters=200)
    a = run_experiment(X, labels, cfg)
    b = run_experiment(X, labels, cfg)
    assert a.rows == b.rows
    assert a.methods == b.methods


def test_run_experiment_method_failure_recorded():
    X, y = two_gaussians(n=50, d=8, rng=np.random.default_rng(4))
    cfg = ExperimentConfig(
        methods=("full", "pinv"),
        replicates=2,
        knn_ks=(1,),
        seed=3,
        timing="none",
    )
    # a guard of 10 elements trips for pinv
    with mock.patch.object(matrix, "DENSE_GUARD_ELEMENTS", 10):
        report = run_experiment(X, index_labels([str(t) for t in y]), cfg)
    assert report.methods["pinv"]["failed"]
    assert report.methods["pinv"]["failures"] == 2
    [message] = report.methods["pinv"]["failure_messages"]
    assert message.startswith("TooLarge: ")
    assert not report.methods["full"]["failed"]
    assert "failure_messages" not in report.methods["full"]
    assert all(r[0] != "pinv" for r in report.rows)


def test_run_experiment_takes_one_svd_per_replicate(monkeypatch):
    X, y = two_gaussians(n=60, d=10, rng=np.random.default_rng(6))
    labels = index_labels([str(t) for t in y])
    cfg = _tiny_config(methods=("pinv", "rk", "ulda"), replicates=2)
    alone = {m: run_experiment(X, labels, _tiny_config(methods=(m,), replicates=2)).methods[m]
             for m in ("pinv", "ulda")}
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = run_experiment(X, labels, cfg)
    # ULDA's second SVD, of the r x 2 matrix U^T Y, is its own
    assert sum(shape[1] == X.shape[1] for shape in shapes) == cfg.replicates
    assert {m: report.methods[m] for m in alone} == alone
    # a spectrum past the guard fails each spectral method on each replicate
    with mock.patch.object(matrix, "DENSE_GUARD_ELEMENTS", 10):
        guarded = run_experiment(X, labels, cfg)
    for method in ("pinv", "ulda"):
        assert guarded.methods[method]["failures"] == cfg.replicates
        assert guarded.methods[method]["failure_messages"][0].startswith("TooLarge: ")
    assert guarded.methods["rk"]["failures"] == 0


def test_run_experiment_phase_timings():
    X, y = two_gaussians(n=60, d=10, rng=np.random.default_rng(9))
    labels = index_labels([str(t) for t in y])
    phases = ("fit_seconds_median", "project_seconds_median", "knn_seconds_median")
    quiet = run_experiment(X, labels, _tiny_config(replicates=2, rk_iters=200))
    for stats in quiet.methods.values():
        assert all(stats[p] == 0.0 for p in phases)
    assert all(r[4] == 0.0 for r in quiet.rows)
    timed = run_experiment(X, labels, _tiny_config(replicates=2, rk_iters=200, timing="wall"))
    assert [r[:4] for r in timed.rows] == [r[:4] for r in quiet.rows]
    for method, stats in timed.methods.items():
        assert stats["knn_seconds_median"] > 0.0
        assert all(stats[p] >= 0.0 for p in phases)
        # a row's seconds hold the fit, projection and search, plus one vote
        shared = stats["fit_seconds_median"] + stats["project_seconds_median"]
        secs = [r[4] for r in timed.rows if r[0] == method]
        assert min(secs) > 0.0 and np.median(secs) >= 0.5 * shared


def test_project_full_sparse_guard():
    X = sp.random(6, 50, density=0.1, format="csr", random_state=0)
    mu = np.zeros(50)
    assert np.allclose(project(X, None, mu), X.toarray())
    with mock.patch.object(matrix, "DENSE_GUARD_ELEMENTS", 299), \
            pytest.raises(TooLarge, match="300 elements"):
        project(X, None, mu)


def test_every_dense_path_reads_the_one_guard():
    # a 10 x 8 training set holds 80 elements once dense; a guard patched
    # below that must trip on every path that densifies or runs an oracle
    X, y = two_gaussians(n=10, d=8, rng=np.random.default_rng(12))
    labels = index_labels([str(t) for t in y])
    Y = encode_labels(labels)
    Xs = sp.csr_array(X)

    def calls():
        # fresh views: a view keeps the spectrum it built under the guard in force
        out = [partial(project, Xs, None, np.zeros(8)), partial(densify, Xs)]
        out.append(partial(to_dense_centered, build_centered_view(Xs)))
        for view in (build_centered_view(X), build_centered_view(Xs)):
            out += [partial(fit_subspace, m, view, Y) for m in ("pinv", "ulda")]
            out += [partial(condition_profile, view),
                    partial(run_convergence_study, view, Y, 1, SolverConfig(max_iters=10, seed=0))]
        return out

    for call in calls():
        call()
    with mock.patch.object(matrix, "DENSE_GUARD_ELEMENTS", 79):
        for call in calls():
            with pytest.raises(TooLarge, match=r"\b80 elements"):
                call()


def test_run_experiment_full_sparse_uses_dense_guard():
    X, y = two_gaussians(n=40, d=6, rng=np.random.default_rng(10))
    with mock.patch.object(matrix, "DENSE_GUARD_ELEMENTS", 50):
        report = run_experiment(
            sp.csr_array(X), index_labels([str(t) for t in y]),
            _tiny_config(methods=("full", "lsqr"), replicates=2, knn_ks=(1,)),
        )
    assert report.methods["full"]["failures"] == 2
    assert report.methods["lsqr"]["failures"] == 0


def test_rk_and_lsqr_accuracies_close_when_consistent():
    # d > n_train makes the centered training system exactly consistent
    # (indicator columns are orthogonal to the all-ones vector), so the RK
    # subspace converges to the same least-norm solution as the LSQR one
    X, y = two_gaussians(n=40, d=70, separation=5.0, rng=np.random.default_rng(5))
    labels = index_labels([str(t) for t in y])
    report = run_experiment(
        X, labels, _tiny_config(methods=("rk", "lsqr"), replicates=5, rk_iters=4000, knn_ks=(5,))
    )
    rk_med = report.methods["rk"]["per_k"]["5"]["accuracy_median"]
    ls_med = report.methods["lsqr"]["per_k"]["5"]["accuracy_median"]
    assert abs(rk_med - ls_med) <= 0.02


def test_training_means_used_for_test_projection():
    # projecting with the wrong (test-side) means must change the embedding
    rng = np.random.default_rng(6)
    X_train = rng.standard_normal((20, 6)) + 5.0
    X_test = rng.standard_normal((8, 6)) - 5.0
    B = np.eye(6)[:, :3]
    mu_train = X_train.mean(axis=0)
    mu_test = X_test.mean(axis=0)
    Z_right = project(X_test, B, mu_train)
    Z_wrong = project(X_test, B, mu_test)
    assert not np.allclose(Z_right, Z_wrong)


def test_config_validation():
    with pytest.raises(InvalidData):
        ExperimentConfig(train_fraction=1.0)
    with pytest.raises(InvalidData):
        ExperimentConfig(replicates=0)
    with pytest.raises(InvalidData):
        ExperimentConfig(methods=("bogus",))
    with pytest.raises(InvalidData):
        ExperimentConfig(methods=())
    with pytest.raises(InvalidData, match="repeated methods"):
        ExperimentConfig(methods=("rk", "lsqr", "rk"))
    with pytest.raises(InvalidData):
        ExperimentConfig(knn_ks=())
    with pytest.raises(InvalidData, match="repeated kNN k values"):
        ExperimentConfig(knn_ks=(1, 5, 1))
    with pytest.raises(InvalidData):
        ExperimentConfig(timing="fast")
    # solver settings by the solvers' own rules, when the config is built,
    # not as a failure of every replicate
    with pytest.raises(InvalidData, match="tail_average burn-in fraction must be in"):
        ExperimentConfig(rk_tail_average=1.5)
    for tol in (-1.0, float("nan")):
        with pytest.raises(InvalidData, match="lsqr tol must be finite and >= 0"):
            ExperimentConfig(lsqr_tol=tol)


def test_fit_subspace_rk_defaults_to_20_steps_per_row():
    X, y = two_gaussians(n=30, d=5, rng=np.random.default_rng(3))
    view = build_centered_view(X)
    Y = encode_labels(index_labels([str(t) for t in y]))
    assert fit_subspace("rk", view, Y, rk=SolverConfig()).iterations_run == 20 * view.n


def test_negative_seed_is_invalid():
    # SeedSequence refuses a negative seed; the configs say so first
    with pytest.raises(InvalidData, match="seed must be >= 0, got -1"):
        ExperimentConfig(seed=-1)
    with pytest.raises(InvalidData, match="seed must be >= 0, got -1"):
        SolverConfig(max_iters=10, seed=-1)
    assert SolverConfig(max_iters=10, seed=0).seed == 0

import logging
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, lsqr

from rklda import matrix
from rklda.baselines import (
    Subspace,
    pinv_oracle,
    principal_angles,
    solve_lsqr,
    ulda_oracle,
)
from rklda.errors import DegenerateSubspace, InvalidData, TooLarge
from rklda.labels import encode_labels, index_labels
from rklda.matrix import build_centered_view, to_dense_centered


def precentered(X):
    return build_centered_view(np.asarray(X, dtype=np.float64), assume_centered=True)


FOUR_POINT_X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
FOUR_POINT_LABELS = index_labels([1, 1, 2, 2])


def test_lsqr_identity_system():
    sub = solve_lsqr(precentered(np.eye(2)), np.array([[3.0], [4.0]]))
    assert np.allclose(sub.matrix, [[3.0], [4.0]], atol=1e-10)
    assert sub.origin == "LSQR"
    assert sub.converged
    assert sub.iterations_run == 1


def test_lsqr_least_norm_single_row():
    sub = solve_lsqr(precentered([[1.0, 1.0]]), np.array([[2.0]]))
    assert np.allclose(sub.matrix, [[1.0], [1.0]], atol=1e-10)


def test_lsqr_agrees_with_pinv_planted():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 120))
    view = build_centered_view(X)
    Xc = to_dense_centered(view)
    Y = Xc @ (Xc.T @ rng.standard_normal((30, 3)))
    a = solve_lsqr(view, Y).matrix
    b = pinv_oracle(view, Y).matrix
    assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b)


def test_lsqr_nonconvergence_flagged():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 60))
    view = build_centered_view(X)
    Y = rng.standard_normal((40, 1))
    sub = solve_lsqr(view, Y, tol=1e-14, max_iters=2)
    assert not sub.converged
    assert sub.iterations_run == 2


def test_lsqr_iterations_are_the_most_over_columns():
    # a left singular vector converges in one iteration, a generic column
    # takes several
    rng = np.random.default_rng(6)
    view = build_centered_view(rng.standard_normal((20, 8)))
    U = np.linalg.svd(to_dense_centered(view), full_matrices=False)[0]
    Y = np.column_stack([U[:, 0], rng.standard_normal(20)])
    per_column = [solve_lsqr(view, Y[:, [j]]).iterations_run for j in range(2)]
    assert per_column[0] < per_column[1]
    assert solve_lsqr(view, Y).iterations_run == per_column[1]


def scipy_lsqr_columns(view, Y, tol=1e-12):
    """Per-column ``scipy.sparse.linalg.lsqr`` with solve_lsqr's settings:
    [(x, iterations)] for each column of Y."""
    op = LinearOperator(view.shape, matvec=view.matmul, rmatvec=view.rmatmul, dtype=np.float64)
    cap = 10 * min(view.shape) + 50
    return [lsqr(op, y, atol=tol, btol=tol, conlim=0.0, iter_lim=cap)[0:3:2] for y in Y.T]


def lsqr_system(shape, kind, storage, seed):
    rng = np.random.default_rng(seed)
    n, d = shape
    if kind == "rank-deficient":
        X = rng.standard_normal((n, 3)) @ rng.standard_normal((3, d))
    else:
        X = rng.standard_normal((n, d))
        X[rng.random((n, d)) < 0.6] = 0.0
    Y = rng.standard_normal((n, 4))  # inconsistent unless the system is wide and full rank
    return build_centered_view(sp.csr_array(X) if storage == "csr" else X), Y


@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("shape", [(60, 25), (25, 60)], ids=["tall", "wide"])
@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient"])
def test_lsqr_block_matches_scipy_per_column(storage, shape, kind):
    view, Y = lsqr_system(shape, kind, storage, seed=31)
    reference = scipy_lsqr_columns(view, Y)
    block = solve_lsqr(view, Y)
    assert block.converged
    assert block.iterations_run <= max(itn for _, itn in reference) + 1
    for j, (x, itn) in enumerate(reference):
        assert np.linalg.norm(block.matrix[:, j] - x) <= 1e-9 * np.linalg.norm(x)
        alone = solve_lsqr(view, Y[:, [j]])
        assert np.linalg.norm(alone.matrix[:, 0] - x) <= 1e-9 * np.linalg.norm(x)
        assert abs(alone.iterations_run - itn) <= 1


def test_lsqr_edge_columns_raise_no_floating_point_warning():
    # columns: zero; orthogonal to range(X), so X^T y = 0; a left singular
    # vector, solved in one step where beta = 0; and a generic inconsistent one
    view = precentered([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    Y = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sub = solve_lsqr(view, Y)
        alone = [solve_lsqr(view, Y[:, [j]]) for j in range(4)]
    assert np.array_equal(sub.matrix[:, :2], np.zeros((2, 2)))
    assert np.allclose(sub.matrix[:, 2:], [[1.0, 1.0], [0.0, 0.5]], rtol=0, atol=1e-14)
    assert sub.converged and all(a.converged for a in alone)
    # the zero column and X^T y = 0 stop before the first iteration
    assert [a.iterations_run for a in alone] == [0, 0, 1, 2]


def test_lsqr_capped_column_beside_a_converged_one(caplog):
    # column 0 is a left singular vector (one iteration); column 1 needs more
    # than the cap of 2
    rng = np.random.default_rng(6)
    view = build_centered_view(rng.standard_normal((20, 8)))
    U = view.spectrum[0]
    Y = np.column_stack([U[:, 0], rng.standard_normal(20)])
    with caplog.at_level(logging.WARNING, logger="rklda.baselines"):
        sub = solve_lsqr(view, Y, max_iters=2)
    assert not sub.converged
    assert sub.iterations_run == 2
    assert [r.getMessage() for r in caplog.records] == [
        "lsqr column 1 stopped at the iteration limit (2); returning the best iterate"]
    assert np.allclose(sub.matrix[:, 0], solve_lsqr(view, Y[:, [0]]).matrix[:, 0], atol=1e-12)


class CountingView:
    """Delegates to a centered view and counts its products."""

    def __init__(self, view):
        self._view = view
        self.products = 0

    def __getattr__(self, name):
        return getattr(self._view, name)

    def matmul(self, v):
        self.products += 1
        return self._view.matmul(v)

    def rmatmul(self, u):
        self.products += 1
        return self._view.rmatmul(u)


@pytest.mark.parametrize("g", [1, 2, 5, 9])
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_lsqr_makes_one_product_pair_per_iteration(g, storage):
    rng = np.random.default_rng(g)
    X = rng.standard_normal((40, 30))
    counting = CountingView(build_centered_view(sp.csr_array(X) if storage == "csr" else X))
    sub = solve_lsqr(counting, rng.standard_normal((40, g)))
    assert sub.iterations_run > 1
    assert counting.products == 1 + 2 * sub.iterations_run


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_lsqr_refuses_a_non_finite_y_before_any_product(storage, bad):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((300, 200))
    Y = rng.standard_normal((300, 3))
    Y[17, 1] = bad
    counting = CountingView(build_centered_view(sp.csr_array(X) if storage == "csr" else X))
    with pytest.raises(InvalidData, match="non-finite"):
        solve_lsqr(counting, Y)
    assert counting.products == 0


@pytest.mark.filterwarnings("ignore:sparse centering ratio")
def test_lsqr_at_an_extreme_centering_ratio_reports_the_cap(caplog):
    # the first @example of test_rk.test_sparse_agrees_with_dense (ratio
    # 1.5e15): the dense view holds Xc, centered once, so LSQR converges
    # there as on any offset; the sparse view's lazily centered products
    # would cancel, so LSQR refuses it, as solve_rk does
    rng = np.random.default_rng(0)
    X = np.array([[0.0, 0, 6, 6, 6], [6.0] * 5, [6.0] * 5])
    X = X + rng.choice([-1.0, 1.0], size=5) * 1e8 * rng.random(5)
    rng.random(X.shape)  # the example's density draw, which keeps every entry
    Y = rng.standard_normal((3, 2))
    dense, sparse = build_centered_view(X), build_centered_view(sp.csr_array(X))
    assert dense.centering_ratio > 1e15 and sparse.centering_ratio > 1e15
    with caplog.at_level(logging.WARNING, logger="rklda.baselines"):
        sub = solve_lsqr(dense, Y)
    assert sub.converged and sub.iterations_run == 3
    assert not caplog.records
    W = pinv_oracle(dense, Y).matrix
    assert np.linalg.norm(sub.matrix - W) <= 1e-7 * np.linalg.norm(W)
    with pytest.raises(InvalidData, match=r"= 1\.\de\+15 exceeds 1e\+13: lazily centered LSQR"):
        solve_lsqr(sparse, Y)


def test_pinv_identity():
    Y = np.array([[1.0, 2.0], [3.0, 4.0]])
    sub = pinv_oracle(precentered(np.eye(2)), Y)
    assert np.allclose(sub.matrix, Y)
    assert sub.origin == "PINV"


def test_pinv_single_row():
    sub = pinv_oracle(precentered([[1.0, 1.0]]), np.array([[2.0]]))
    assert np.allclose(sub.matrix, [[1.0], [1.0]])


def test_pinv_rank_truncation():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    sub = pinv_oracle(precentered(X), np.array([[1.0], [1.0]]))
    assert np.allclose(sub.matrix, [[1.0], [0.0]])


@pytest.mark.parametrize("settings", [
    {"max_iters": 0}, {"max_iters": -5},
    {"tol": float("nan")}, {"tol": -1.0}, {"tol": float("inf")},
], ids=["cap-0", "cap-negative", "tol-nan", "tol-negative", "tol-inf"])
def test_lsqr_rejects_a_cap_or_tolerance_that_does_nothing(settings):
    with pytest.raises(InvalidData, match="lsqr"):
        solve_lsqr(precentered(np.eye(2)), np.array([[3.0], [4.0]]), **settings)


def test_pinv_guard():
    with mock.patch.object(matrix, "DENSE_GUARD_ELEMENTS", 99), \
            pytest.raises(TooLarge, match="10000 elements"):
        pinv_oracle(precentered(np.eye(100)), np.ones((100, 1)))


def test_pinv_rejects_y_row_count_mismatch():
    with pytest.raises(InvalidData, match="Y has 10 rows, data has 12"):
        pinv_oracle(precentered(np.ones((12, 3))), np.ones((10, 2)))


def test_ulda_rejects_y_row_count_mismatch():
    with pytest.raises(InvalidData, match="Y has 3 rows, data has 4"):
        ulda_oracle(build_centered_view(FOUR_POINT_X), np.eye(3)[:, :2])


def test_pinv_matches_numpy_pinv():
    rng = np.random.default_rng(8)
    for n, d in [(10, 25), (25, 10), (12, 12)]:
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, 2))
        assert np.allclose(pinv_oracle(precentered(X), Y).matrix, np.linalg.pinv(X) @ Y, atol=1e-10)


def test_ulda_four_point():
    sub = ulda_oracle(build_centered_view(FOUR_POINT_X), encode_labels(FOUR_POINT_LABELS))
    assert sub.matrix.shape[1] == 1
    direction = sub.matrix[:, 0] / np.linalg.norm(sub.matrix[:, 0])
    assert abs(direction[1]) == pytest.approx(1.0, abs=1e-12)
    assert abs(direction[0]) == pytest.approx(0.0, abs=1e-12)


def test_ulda_one_dimensional():
    X = np.array([[0.0], [0.1], [5.0], [5.1]])
    sub = ulda_oracle(build_centered_view(X), encode_labels(index_labels(["a", "a", "b", "b"])))
    assert sub.matrix.shape == (1, 1)


def test_ulda_identical_means_degenerate():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    labels = index_labels(["a", "a", "b", "b"])  # both class means at origin
    with pytest.raises(DegenerateSubspace):
        ulda_oracle(build_centered_view(X), encode_labels(labels))


def test_ulda_at_most_g_minus_1_columns():
    # n = d + 1: the centered rows span all of 1-perp, so S_t^{-1/2} S_b
    # S_t^{-1/2} has g - 1 equal eigenvalues and the rest exactly zero
    rng = np.random.default_rng(10)
    for n, d in ((40, 12), (11, 10)):
        for g in (2, 3, 5):
            toks = [f"c{i % g}" for i in range(n)]
            X = rng.standard_normal((n, d)) + 4.0 * rng.standard_normal((g, d))[
                [i % g for i in range(n)]
            ]
            sub = ulda_oracle(build_centered_view(X), encode_labels(index_labels(toks)))
            assert sub.matrix.shape[1] <= g - 1


def test_ulda_eigenvector_property():
    # returned columns satisfy pinv(S_t) S_b g = lambda g with lambda > 0
    rng = np.random.default_rng(3)
    from rklda.scatter import scatter_matrices

    g = 3
    toks = [f"c{i % g}" for i in range(30)]
    centers = 3.0 * rng.standard_normal((g, 8))
    X = centers[[i % g for i in range(30)]] + rng.standard_normal((30, 8))
    lv = index_labels(toks)
    sub = ulda_oracle(build_centered_view(X), encode_labels(lv))
    ss = scatter_matrices(X, lv)
    M = np.linalg.pinv(ss.s_t) @ ss.s_b
    for col in sub.matrix.T:
        image = M @ col
        lam = col @ image / (col @ col)
        assert lam > 1e-10
        assert np.allclose(image, lam * col, atol=1e-8 * max(1.0, abs(lam)))
    # ULDA's columns are S_t-orthonormal
    G = sub.matrix
    assert np.allclose(G.T @ ss.s_t @ G, np.eye(G.shape[1]), atol=1e-10)


def test_principal_angles_identical_and_orthogonal():
    e1 = Subspace(matrix=np.array([[1.0], [0.0]]), origin="PINV")
    e2 = Subspace(matrix=np.array([[0.0], [1.0]]), origin="PINV")
    assert principal_angles(e1, e1) == pytest.approx([0.0], abs=1e-12)
    assert principal_angles(e1, e2) == pytest.approx([np.pi / 2], abs=1e-12)


def test_principal_angles_four_point_equivalence():
    view = build_centered_view(FOUR_POINT_X)
    Y = encode_labels(FOUR_POINT_LABELS)
    Xc = to_dense_centered(view)
    # hand computation: Xc^T Y has columns (0, -/+ 2*sqrt(2))
    assert np.allclose(
        Xc.T @ Y.matrix, [[0.0, 0.0], [-2.8284271247461903, 2.8284271247461903]]
    )
    w_ln = pinv_oracle(view, Y)
    g_u = ulda_oracle(view, Y)
    angles = principal_angles(w_ln, g_u)
    assert np.all(angles < 1e-8)


def test_principal_angles_empty_subspace():
    zero = Subspace(matrix=np.zeros((3, 2)), origin="RK")
    good = Subspace(matrix=np.eye(3)[:, :1], origin="RK")
    with pytest.raises(DegenerateSubspace):
        principal_angles(zero, good)


def test_principal_angles_rank_truncates():
    # second column is a sub-roundoff perturbation of the first: rank 1, so
    # against a rank-2 basis that holds its range there is one angle, 0
    M = np.array([[1.0, 1.0 + 1e-16], [1.0, 1.0], [0.0, 0.0]])
    angles = principal_angles(Subspace(matrix=M, origin="PINV"),
                              Subspace(matrix=np.eye(3)[:, :2], origin="ULDA"))
    assert angles.shape == (1,)
    assert angles[0] == 0.0


def test_least_norm_minimality():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((8, 20))
    Y = X @ (X.T @ rng.standard_normal((8, 2)))
    W = pinv_oracle(precentered(X), Y).matrix
    _, s, Vt = np.linalg.svd(X, full_matrices=True)
    null = Vt[8:].T  # basis of the null space
    for _ in range(10):
        other = W + null @ rng.standard_normal((null.shape[1], 2)) * 0.5
        assert np.allclose(X @ other, Y, atol=1e-8)
        assert np.linalg.norm(other) > np.linalg.norm(W)


def test_lsqr_pinv_agree_including_inconsistent():
    rng = np.random.default_rng(23)
    for trial in range(12):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(5, 60))
        if trial % 3 == 0:
            r = max(1, min(n, d) // 2)
            X = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
        else:
            X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, 2))
        view = build_centered_view(X)
        a = solve_lsqr(view, Y).matrix
        b = pinv_oracle(view, Y).matrix
        assert np.linalg.norm(a - b) <= 1e-6 * max(np.linalg.norm(b), 1e-12)


def test_subspace_equivalence_linearly_independent_observations():
    # every rank cutoff is relative, so the data's scale changes nothing
    for scale in (1.0, 1e6, 1e8):
        rng = np.random.default_rng(29)
        for _ in range(5):
            n = int(rng.integers(6, 16))
            d = n + int(rng.integers(2, 30))
            g = int(rng.integers(2, 4))
            toks = [f"c{i % g}" for i in range(n)]
            X = scale * rng.standard_normal((n, d))
            lv = index_labels(toks)
            Y = encode_labels(lv)
            view = build_centered_view(X)
            w_ln = pinv_oracle(view, Y)
            g_u = ulda_oracle(view, Y)
            angles = principal_angles(w_ln, g_u)
            assert np.all(angles < 1e-8), f"scale {scale}: angles {angles}"

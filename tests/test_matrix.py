import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import traced_peak
from rklda import matrix
from rklda.errors import InvalidData, TooLarge
from rklda.matrix import (
    CENTERING_RATIO_WARN,
    NORM_CHUNK_ELEMENTS,
    build_centered_view,
    to_dense_centered,
    validate_raw,
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
    v = build_centered_view(X, means=0.0)
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


def test_finiteness_screen_survives_overflow():
    # the entries' sum of squares overflows past |x| ~ 1e154; min and max
    # then decide, and NaN or an infinity among huge entries is still found
    huge = np.array([[1e200, -1e300], [3.0, 1e-300]])
    for base in (huge, sp.csr_array(huge)):
        assert validate_raw(base) is not None
    for bad in (np.nan, np.inf, -np.inf):
        X = huge.copy()
        X[1, 0] = bad
        for base in (X, sp.csr_array(X)):
            with pytest.raises(InvalidData, match="non-finite"):
                validate_raw(base)


def test_validate_raw_leaves_callers_csr_arrays_alone():
    data, indices, indptr = np.array([1.0, 2, 3, 4]), np.array([2, 0, 2, 1]), np.array([0, 3, 4])
    X = sp.csr_matrix((data, indices, indptr))  # row 0 stores column 2 twice
    v = build_centered_view(X)
    assert np.array_equal(data, [1.0, 2, 3, 4])
    assert np.array_equal(indices, [2, 0, 2, 1])
    assert np.array_equal(indptr, [0, 3, 4])
    assert np.array_equal(to_dense_centered(v) + v.column_means, [[2.0, 0, 4], [0, 4, 0]])


def test_validate_raw_holds_no_n_by_d_temporary():
    # a boolean mask of the entries alone would be X.nbytes / 8
    X = np.random.default_rng(6).standard_normal((8000, 200))
    assert traced_peak(lambda: validate_raw(X)) < X.nbytes / 16


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


# The example is a constant column: the dense (pairwise) and sparse (in-order)
# sums of its mean differ by one ulp of 3.4e5, 5.8e-11, and the entries are 0.
@settings(max_examples=40, deadline=None)
@given(finite_matrices)
@example(np.full((8, 1), 342808.0423874833))
def test_sparse_matches_dense(X):
    vd = build_centered_view(X)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        vs = build_centered_view(sp.csr_array(X))
    a = to_dense_centered(vd)
    b = to_dense_centered(vs)
    # the two means may round differently: by up to n * eps * max|X[:, j]|
    mean_rounding = X.shape[0] * np.finfo(float).eps * np.abs(X).max(axis=0)
    tol = 1e-12 * np.maximum(1.0, np.abs(a).max(axis=1, keepdims=True)) + mean_rounding
    assert np.all(np.abs(a - b) <= tol)


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


def test_dense_products_exact_at_a_large_centering_ratio():
    # the view holds Xc, centered once, so its products do not cancel the
    # way the lazy X v - mu^T v does at a column offset of 1e8
    rng = np.random.default_rng(40)
    X = rng.standard_normal((50, 8)) + 1e8 * rng.random(8)
    v = build_centered_view(X)
    assert v.centering_ratio > 1e15
    Xc = X - v.column_means
    V, U = rng.standard_normal((8, 3)), rng.standard_normal((50, 3))
    for got, want in ((v.matmul(V), Xc @ V), (v.rmatmul(U), Xc.T @ U)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("means", [None, 0.0])
def test_dense_view_leaves_the_callers_array_and_owns_a_read_only_copy(means):
    X = np.random.default_rng(41).standard_normal((9, 4)) + 5.0
    before = X.tobytes()
    v = build_centered_view(X, means=means)
    assert X.tobytes() == before and X.flags.writeable
    assert not np.shares_memory(v.base, X)
    Xc = to_dense_centered(v)
    assert Xc is v.base
    with pytest.raises(ValueError, match="read-only"):
        Xc[0, 0] = 1.0


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_means_zero_keeps_the_stored_rows(storage):
    # means=0.0 takes the rows as centered: the view holds the stored rows,
    # zero means, no cross terms and the raw row norms, as given explicitly
    X = np.random.default_rng(42).standard_normal((9, 4)) + 5.0
    base = sp.csr_array(X) if storage == "csr" else X
    v, explicit = build_centered_view(base, means=0.0), build_centered_view(base, means=np.zeros(4))
    stored = v.base.toarray() if storage == "csr" else v.base
    assert stored.tobytes() == X.tobytes()
    assert v.column_means.tobytes() == np.zeros(4).tobytes()
    raw_sq = (np.asarray(base.multiply(base).sum(axis=1)).reshape(-1) if storage == "csr"
              else np.einsum("ij,ij->i", X, X))
    assert v.centered_row_norms_sq.tobytes() == raw_sq.tobytes()
    for name in ("column_means", "centered_row_norms_sq", "frob_norm_sq", "cross"):
        assert np.asarray(getattr(v, name)).tobytes() == \
            np.asarray(getattr(explicit, name)).tobytes(), name


@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("means, refusal", [
    (np.zeros(3), "means length 3 vs 4 columns"),
    (np.zeros((1, 5)), "means length 5 vs 4 columns"),
    (np.array([0.0, np.nan, 0.0, 0.0]), "means contain non-finite entries"),
    (np.inf, "means contain non-finite entries"),
])
def test_means_of_another_length_or_not_finite_refused(storage, means, refusal):
    X = np.arange(12.0).reshape(3, 4)
    with pytest.raises(InvalidData, match=refusal):
        build_centered_view(sp.csr_array(X) if storage == "csr" else X, means=means)


def test_means_given_center_the_rows_at_them():
    X = np.arange(12.0).reshape(3, 4)
    mu = np.array([1.0, -2.0, 0.5, 4.0])
    for base in (X, sp.csr_array(X)):
        v = build_centered_view(base, means=mu)
        assert np.array_equal(v.column_means, mu) and v.column_means is not mu
        assert np.allclose(to_dense_centered(v), X - mu)
        assert np.allclose(v.centered_row_norms_sq, ((X - mu) ** 2).sum(axis=1))


@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("X", [
    [[1e193, 0.0], [0.0, 1.0], [0.0, 2.0]],  # one row norm past the range
    [[1.1e154, 0.0], [-1.1e154, 0.0]],       # each row finite, their sum not
])
def test_overflowing_centered_norms_refused(storage, X):
    X = np.array(X)
    with pytest.raises(InvalidData, match="centered row norms overflow"):
        build_centered_view(sp.csr_array(X) if storage == "csr" else X)


def operand_layouts(block):
    """``block`` (C-ordered, rows x g) as C, F, a transposed row block and a
    strided slice, and its first column as a contiguous and a strided vector."""
    wide = np.repeat(block, 2, axis=0)
    return {
        "C": block, "F": np.asfortranarray(block), "transposed": np.ascontiguousarray(block.T).T,
        "strided": wide[::2], "vector": block[:, 0].copy(), "strided vector": wide[::2, 0],
    }


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_matmul_and_rmatmul_give_the_same_bytes_for_every_operand_layout(storage):
    # GEMM kernels round differently by operand layout, so each product
    # takes one layout and copies any other
    rng = np.random.default_rng(30)
    X = rng.standard_normal((120, 100)) + 3.0
    view = build_centered_view(sp.csr_array(X) if storage == "csr" else X)
    for product, rows, out_rows in ((view.matmul, 100, 120), (view.rmatmul, 120, 100)):
        operands = operand_layouts(rng.standard_normal((rows, 5)))
        block, vector = product(operands["C"]), product(operands["vector"])
        assert block.shape == (out_rows, 5) and vector.shape == (out_rows,)
        for name, operand in operands.items():
            expected = vector if "vector" in name else block
            assert product(operand).tobytes() == expected.tobytes(), (product.__name__, name)


@pytest.mark.parametrize("order", ["C", "F"])
def test_sparse_rmatmul_holds_no_second_result_sized_array(order):
    # the offset mu (1^T u) comes off the product in place: no d x g outer
    # product and no difference array besides the result
    rng = np.random.default_rng(31)
    n, d, g = 60, 3000, 8
    X = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.02)
    view = build_centered_view(sp.csr_array(X))
    u = np.asarray(rng.standard_normal((n, g)), order=order)
    view.rmatmul(u)  # builds the cached transpose outside the trace
    assert traced_peak(lambda: view.rmatmul(u)) < 1.5 * d * g * 8


def test_to_dense_centered_guard():
    # a dense view's Xc is held already; densifying a sparse one is guarded
    v = build_centered_view(sp.csr_array(np.eye(4)))
    assert np.allclose(to_dense_centered(v), np.eye(4) - 0.25)
    with mock.patch.object(matrix, "DENSE_GUARD_ELEMENTS", 8), \
            pytest.raises(TooLarge, match="16 elements"):
        to_dense_centered(v)


def test_spectrum_refused_at_the_guard_is_not_cached():
    X = np.random.default_rng(2).standard_normal((5, 4))
    v = build_centered_view(X)
    with mock.patch.object(matrix, "DENSE_GUARD_ELEMENTS", 19):
        for _ in range(2):  # nothing was kept, so the second read checks again
            with pytest.raises(TooLarge, match=r"\b20 elements"):
                v.spectrum
    U, s, Vt = v.spectrum
    assert v.spectrum is v.spectrum  # kept once built
    assert len(s) == 4  # rank min(n - 1, d) after centering
    assert np.allclose((U * s) @ Vt, X - X.mean(axis=0))

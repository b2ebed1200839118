import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bench_gen
from rklda.errors import DegenerateLabels, InvalidData
from rklda.labels import encode_labels, index_labels

label_lists = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e"]), min_size=2, max_size=40
).filter(lambda toks: len(set(toks)) >= 2)


def indicator_entry(n: int, n_j: int, member: bool) -> float:
    if member:
        return math.sqrt(n / n_j) - math.sqrt(n_j / n)
    return -math.sqrt(n_j / n)


def test_index_basic():
    lv = index_labels(["a", "a", "b"])
    assert lv.g == 2
    assert list(lv.counts) == [2, 1]
    assert lv.class_index == {"a": 0, "b": 1}


def test_index_first_appearance_order():
    lv = index_labels(["x", "y", "x", "z"])
    assert lv.g == 3
    assert list(lv.counts) == [2, 1, 1]
    assert lv.classes == ("x", "y", "z")


def test_index_matches_a_per_token_loop():
    # knn-experiment's 1,200 labels, as strings and as the integer indices a
    # replicate re-indexes, against a loop that assigns each new token the
    # next index
    gen = bench_gen()
    tokens = gen.blobs(gen.KNN_EXPERIMENT, 1)[1]
    for raw in (tokens, index_labels(tokens).indices[::-1]):
        want = {}
        for tok in raw:
            want.setdefault(tok, len(want))
        lv = index_labels(raw)
        assert list(lv.class_index.items()) == list(want.items())
        assert [type(tok) for tok in lv.class_index] == [type(tok) for tok in want]
        assert lv.g == len(want)
        assert lv.indices.dtype == np.int64
        assert lv.indices.tolist() == [want[tok] for tok in raw]
        assert lv.counts.tolist() == np.bincount(lv.indices).tolist()


def test_index_single_class_rejected():
    with pytest.raises(DegenerateLabels):
        index_labels(["a"])
    with pytest.raises(DegenerateLabels):
        index_labels(["a", "a", "a"])
    with pytest.raises(InvalidData):
        index_labels([])


def test_encode_balanced_two_class():
    Y = encode_labels(index_labels([1, 1, 2, 2])).matrix
    member = indicator_entry(4, 2, True)
    assert member == pytest.approx(0.70710678, abs=1e-8)
    expected = np.array(
        [[member, -member], [member, -member], [-member, member], [-member, member]]
    )
    assert np.allclose(Y, expected)


def test_encode_unbalanced():
    Y = encode_labels(index_labels([1, 1, 1, 2])).matrix
    assert Y[0, 0] == pytest.approx(0.28867513, abs=1e-8)
    assert Y[3, 0] == pytest.approx(-0.86602540, abs=1e-8)
    assert Y[3, 1] == pytest.approx(1.5)
    assert Y[0, 1] == pytest.approx(-0.5)
    assert np.abs(Y.sum(axis=0)).max() < 1e-12


def test_encode_balanced_many_classes():
    g, per = 4, 3
    toks = [j for j in range(g) for _ in range(per)]
    Y = encode_labels(index_labels(toks)).matrix
    member = math.sqrt(g) - 1.0 / math.sqrt(g)
    rows, cols = np.arange(len(toks)), np.repeat(np.arange(g), per)
    assert np.allclose(Y[rows, cols], member)


@settings(max_examples=60, deadline=None)
@given(label_lists)
def test_column_sums_zero(toks):
    lv = index_labels(toks)
    Y = encode_labels(lv).matrix
    assert np.abs(Y.sum(axis=0)).max() <= 1e-10 * math.sqrt(lv.n)


@settings(max_examples=60, deadline=None)
@given(label_lists, st.randoms(use_true_random=False))
def test_permutation_equivariance(toks, rnd):
    perm = list(range(len(toks)))
    rnd.shuffle(perm)
    lv = index_labels(toks)
    Y = encode_labels(lv).matrix
    permuted_toks = [toks[p] for p in perm]
    # map the permuted encoding back through its own class order
    lv2 = index_labels(permuted_toks)
    Y2 = encode_labels(lv2).matrix
    col_map = [lv2.class_index[c] for c in lv.classes]
    assert np.allclose(Y2[:, col_map], Y[perm])


@settings(max_examples=60, deadline=None)
@given(label_lists, st.randoms(use_true_random=False))
def test_frobenius_depends_only_on_counts(toks, rnd):
    shuffled = list(toks)
    rnd.shuffle(shuffled)
    a = np.linalg.norm(encode_labels(index_labels(toks)).matrix)
    b = np.linalg.norm(encode_labels(index_labels(shuffled)).matrix)
    assert a == pytest.approx(b, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(label_lists)
def test_entries_match_direct_formula(toks):
    lv = index_labels(toks)
    Y = encode_labels(lv).matrix
    for i, tok in enumerate(toks):
        for j in range(lv.g):
            expected = indicator_entry(lv.n, int(lv.counts[j]), lv.class_index[tok] == j)
            assert Y[i, j] == pytest.approx(expected, rel=1e-12)

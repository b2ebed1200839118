import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.blas import dger, dtrsm

from helpers import bench_gen, planted_consistent, traced_peak
from rklda.errors import InvalidData, NumericalDivergence, ZeroRowError
from rklda.labels import as_matrix, encode_labels, index_labels
from rklda.matrix import (CENTERING_RATIO_MAX, CenteredMatrixView, build_centered_view,
                          to_dense_centered)
from rklda.rk import (SAMPLE_BLOCK, SolverConfig, _SparseIterate, gram_chunk, gram_group,
                      make_rng, solve_rk)
from rklda.sampling import build_sampler, sample_row, sample_rows

EPS = np.finfo(float).eps


def precentered(X):
    return build_centered_view(np.asarray(X, dtype=np.float64), means=0.0)


def reference_solve(view, Y, config, dist=None, on_checkpoint=None):
    """The solver loop without block draws or lazy centering: one sample_row
    call and one explicitly centered row per step."""
    Ym = as_matrix(Y, view.n)
    dist = build_sampler(view) if dist is None else dist
    rng = make_rng(config.seed)
    Xc = to_dense_centered(view)
    W = np.zeros((view.d, Ym.shape[1]))
    K = config.max_iters
    burn = math.floor(config.tail_average * K) if config.tail_average is not None else None
    cadence = config.checkpoint_every
    tail = np.zeros_like(W)
    count = 0
    if on_checkpoint is not None:
        on_checkpoint(0, W)
    for k in range(K):
        i = sample_row(dist, rng)
        x = Xc[i]
        r = Ym[i] - x @ W
        W += np.outer(x, r / view.centered_row_norms_sq[i])
        if burn is not None and k >= burn:
            tail += W
            count += 1
        done = k + 1
        if on_checkpoint is not None and (done == K or (cadence and done % cadence == 0)):
            on_checkpoint(done, W)
    return tail / count if count else W


def largest_iterate(solve, view, Y, config):
    """max_k ||W_k||_F over the trajectory of ``solve``, W_0 included."""
    norms = []
    solve(view, Y, replace(config, checkpoint_every=1),
          on_checkpoint=lambda k, W, *_: norms.append(np.linalg.norm(W)))
    return max(norms)


def reference_tolerance(view, Y, config):
    """Bound on the gap between solve_rk's W (or any checkpoint) and
    reference_solve's.  The Gram stretch rounds each step's residual in
    another order, about eps relative to the iterates it is formed from, and
    each step is non-expansive, so the gap grows at most linearly in the
    step count.  The lazily centered sparse step adds rounding that grows
    with the centering ratio.  The scale is the largest iterate on the
    reference trajectory: a tail average can be far smaller than the
    iterates it averages."""
    scale = largest_iterate(reference_solve, view, Y, config)
    if view.is_sparse:
        scale *= 1.0 + view.centering_ratio
    return 100.0 * config.max_iters * EPS * scale


def assert_near_reference(view, Y, config, W, checkpoints=None):
    """W, and the checkpoints if given, are within reference_tolerance of
    reference_solve's."""
    tol = reference_tolerance(view, Y, config)
    want, record = recorder()
    assert np.linalg.norm(W - reference_solve(view, Y, config, on_checkpoint=record)) <= tol
    if checkpoints is not None:
        assert [k for k, _ in checkpoints] == [k for k, _ in want]
        for (_, Wa), (_, Wb) in zip(checkpoints, want):
            assert np.linalg.norm(Wa - Wb) <= tol


def lazy_sparse_solve(view, Y, config, dist=None, on_checkpoint=None):
    """The lazily centered sparse loop step by step, with a and p = mu^T V
    kept as separate vectors and the tail sums U, A apart.  A step's
    coefficient is one dot of (vals, -shift_i, -1, -1) scaled by
    -1/||x_i||^2 against the stacked (V[cols], a, p, y_i), and its update
    one dger of the stacked (V[cols], a, p) by (vals, 1, cross_i); W is
    V - mu a^T by one dger: the solver's order of rounding."""
    Ym = as_matrix(Y, view.n)
    dist = build_sampler(view) if dist is None else dist
    base, mu = view.base, view.column_means
    indptr, indices, data = base.indptr, base.indices, base.data
    cross = np.asarray(base @ mu).reshape(-1)
    mu_sq = float(mu @ mu)
    V = np.zeros((view.d, Ym.shape[1]))
    a, p = np.zeros(V.shape[1]), np.zeros(V.shape[1])
    K = config.max_iters
    burn = math.floor(config.tail_average * K) if config.tail_average is not None else None
    cadence = config.checkpoint_every
    W_b, U, A = None, np.zeros_like(V), np.zeros(V.shape[1])
    rows = sample_rows(dist, make_rng(config.seed), K).tolist()

    def current():
        return dger(-1.0, a, mu, a=V.T).T

    if on_checkpoint is not None:
        on_checkpoint(0, current())
    for k, i in enumerate(rows):
        if k == burn:
            W_b = current()
        lo, hi = indptr[i], indptr[i + 1]
        cols, vals_col = indices[lo:hi], data[lo:hi, None]
        stacked = np.vstack([V[cols], a, p, Ym[i]])
        scale = -1.0 / view.centered_row_norms_sq[i]
        c = (np.concatenate([data[lo:hi], [mu_sq - cross[i], -1.0, -1.0]]) * scale) @ stacked
        updated = dger(1.0, c, np.concatenate([data[lo:hi], [1.0, cross[i]]]),
                       a=stacked[:-1].T).T
        V[cols], a, p = updated[:-2], updated[-2], updated[-1]
        if W_b is not None:
            weighted = (K - k) * c
            U[cols] += vals_col * weighted
            A += weighted
        done = k + 1
        if on_checkpoint is not None and (done == K or (cadence and done % cadence == 0)):
            on_checkpoint(done, current())
    if burn is None:
        return current()
    return W_b + (U - np.outer(mu, A)) / (K - burn)


def recorder():
    """An on_checkpoint callback that keeps copies, and the list it fills;
    reference_solve and lazy_sparse_solve pass no residual."""
    seen = []
    return seen, lambda k, W, *_: seen.append((k, W.copy()))


def assert_same_checkpoints(a, b):
    assert [k for k, _ in a] == [k for k, _ in b]
    for (_, Wa), (_, Wb) in zip(a, b):
        assert np.array_equal(Wa, Wb)


def steps_from_zero(view, Y, rows):
    """The solver's W after one step from zero on each of ``rows`` in turn,
    from a seed whose first draws are those rows."""
    dist = build_sampler(view)
    for seed in range(100_000):
        if sample_rows(dist, make_rng(seed), len(rows)).tolist() == list(rows):
            return solve_rk(view, Y, SolverConfig(max_iters=len(rows), seed=seed)).W
    raise AssertionError(f"no seed draws the rows {rows} first")


def both_storages(X, **kwargs):
    X = np.asarray(X, dtype=np.float64)
    return [build_centered_view(X, **kwargs), build_centered_view(sp.csr_array(X), **kwargs)]


def test_step_from_zero():
    Y = np.array([[1.0, -1.0], [0.0, 0.0]])
    for view in both_storages([[2.0, 0.0], [0.0, 1.0]], means=0.0):
        W1 = steps_from_zero(view, Y, [0])
        assert np.allclose(W1, [[0.5, -0.5], [0.0, 0.0]])


def test_step_satisfies_sampled_equation():
    for view in both_storages([[1.0, 1.0]], means=0.0):
        W1 = solve_rk(view, np.array([[4.0]]), SolverConfig(max_iters=1, seed=0)).W
        assert np.allclose(W1, [[2.0], [2.0]])
        assert to_dense_centered(view)[0] @ W1 == pytest.approx(4.0)


def test_step_fixed_point():
    # W* = x_0 t^T satisfies every equation of Y = Xc W*, and a step from
    # zero on row 0 lands on it; the next step, on any row, leaves it there
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 6)) + 3.0
    for view in both_storages(X):
        Xc = to_dense_centered(view)
        w_star = np.outer(Xc[0], rng.standard_normal(2))
        Y = Xc @ w_star
        assert np.allclose(steps_from_zero(view, Y, [0]), w_star, atol=1e-12)
        for i in range(4):
            assert np.allclose(steps_from_zero(view, Y, [0, i]), w_star, atol=1e-12)


def test_step_zero_row_error():
    view = build_centered_view(np.ones((2, 2)))  # centers to all-zero rows
    other = build_sampler(build_centered_view(np.eye(2)))
    with pytest.raises(ZeroRowError):
        solve_rk(view, np.array([[1.0], [2.0]]), SolverConfig(max_iters=1, seed=0), dist=other)


def test_sampler_for_other_rows_rejected():
    view = build_centered_view(np.eye(3))
    other = build_sampler(build_centered_view(np.eye(4)))
    with pytest.raises(InvalidData):
        solve_rk(view, np.ones((3, 1)), SolverConfig(max_iters=1, seed=0), dist=other)


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("row", [9, -1])
def test_sampler_rows_outside_the_data_refused(storage, row):
    # a sampler covering the data's 6 rows whose last active row lies
    # outside them: refused before any step, never gathered or wrapped
    X = np.random.default_rng(0).standard_normal((6, 3))
    view = dict(zip(["dense", "sparse"], both_storages(X)))[storage]
    dist = build_sampler(view)
    bad = replace(dist, active_rows=np.array([0, 1, 2, 3, 4, row]))
    seen = []
    with pytest.raises(InvalidData, match=rf"sampler draws row {row}, outside"):
        solve_rk(view, np.ones((6, 1)), SolverConfig(max_iters=50, seed=0), dist=bad,
                 on_checkpoint=lambda *args: seen.append(args))
    assert seen == []


def test_dense_solve_peaks_within_its_working_set():
    # knn-experiment's shape, 1200 x 100 with g = 5, for 1,000 steps: the
    # working set is the group buffer (624 x 100), its Gram blocks
    # (624 x 48), the stretch buffer C (1000 x 5) and W (100 x 5), 764 KiB.
    # The draws and the per-chunk temporaries stay under a quarter of the
    # group buffer; a gather buffered through a hidden copy of the group
    # (NumPy's take with out= under mode="raise") adds the whole of it
    gen = bench_gen()
    X, tokens, _ = gen.blobs(gen.KNN_EXPERIMENT, 1)
    view = build_centered_view(X)
    Y = encode_labels(index_labels(tokens))
    dist = build_sampler(view)
    n, d = X.shape
    g, K = Y.matrix.shape[1], 1000
    group = gram_group(d) * d * 8
    working_set = group + gram_group(d) * gram_chunk(d) * 8 + K * g * 8 + d * g * 8
    peak = traced_peak(lambda: solve_rk(view, Y, SolverConfig(max_iters=K, seed=1), dist=dist))
    assert peak < working_set + group / 4


def test_sparse_solve_peaks_within_its_working_set():
    # sparse-text, 500 x 4000 with g = 10, for 1,000 steps, on a view whose
    # augmented rows are built: the working set is the iterate V
    # ((d + 2 + n) x g, W formed in place in it) and the stretch buffer C
    # (1000 x g), 430 KiB.  The draws and the gather buffer (one longest
    # augmented row of g values) stay under half a d x g block; a second
    # d x g array, such as a W formed outside V, would cross it
    gen = bench_gen()
    X, tokens = gen.text_like(gen.SPARSE_TEXT, 1)
    view = build_centered_view(X)
    Y = encode_labels(index_labels(tokens))
    view.augmented_rows
    dist = build_sampler(view)
    n, d = X.shape
    g, K = Y.matrix.shape[1], 1000
    working_set = (d + 2 + n) * g * 8 + K * g * 8
    peak = traced_peak(lambda: solve_rk(view, Y, SolverConfig(max_iters=K, seed=1), dist=dist))
    assert peak < working_set + d * g * 8 / 2


def test_sparse_step_allocates_nothing_per_row():
    # sparse-text, 500 x 4000 with g = 10, one 4,096-row block on a warm
    # iterate: each step gathers into and scatters from the iterate's one
    # buffer and reads the rows through a memoryview, so the block's peak
    # holds a few array headers, not a gathered block or a list per row
    gen = bench_gen()
    X, tokens = gen.text_like(gen.SPARSE_TEXT, 1)
    view = build_centered_view(X)
    Y = as_matrix(encode_labels(index_labels(tokens)), view.n)
    iterate = _SparseIterate(view, Y)
    rows = sample_rows(build_sampler(view), make_rng(1), SAMPLE_BLOCK)
    C = np.empty((SAMPLE_BLOCK, Y.shape[1]))
    iterate.run(rows, C)
    assert traced_peak(lambda: iterate.run(rows, C)) < 8 * 1024


def test_sparse_step_views_built_once_per_row_length():
    # a step takes its three views of the gather buffer from a table indexed
    # by the augmented row length, built by the first step on each length:
    # after one block the table holds the drawn lengths, each entry views the
    # buffer's first m rows, and a second block over the same rows builds none
    gen = bench_gen()
    X, tokens = gen.text_like(gen.SPARSE_TEXT, 1)
    view = build_centered_view(X)
    Y = as_matrix(encode_labels(index_labels(tokens)), view.n)
    iterate = _SparseIterate(view, Y)
    rows = sample_rows(build_sampler(view), make_rng(1), SAMPLE_BLOCK)
    C = np.empty((SAMPLE_BLOCK, Y.shape[1]))
    iterate.run(rows, C)
    lengths = set(np.diff(view.augmented_rows[3])[rows].tolist())
    built = [m for m, views in enumerate(iterate.views) if views is not None]
    assert set(built) == lengths
    for m in built:
        G_rows, G, G_T = iterate.views[m]
        assert G_rows.shape == (m,) and G.shape == (m, Y.shape[1]) and G_T.shape == G.shape[::-1]
        assert all(np.shares_memory(v, iterate.G) for v in (G_rows, G, G_T))
        assert G.flags.c_contiguous and G_T.flags.f_contiguous
    table = list(iterate.views)
    iterate.run(rows, C)
    assert all(a is b for a, b in zip(table, iterate.views, strict=True))


DGER_FLAGS = ("incx", "incy", "a", "overwrite_x", "overwrite_y", "overwrite_a")
DTRSM_FLAGS = ("side", "lower", "trans_a", "diag", "overwrite_b")


def test_dger_positional_arguments_bind_as_their_keywords():
    # the sparse step passes dger's arguments after y by position; with each
    # name bound as DGER_FLAGS says, the positional call gives the keyword
    # call's bytes and updates the F-ordered array passed in, in place
    # (f2py takes increments of +-1 only; -1 reads the vector backwards)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(3), rng.standard_normal(5)
    a0 = np.asfortranarray(rng.standard_normal((3, 5)))
    outcomes = set()
    for incx, incy in [(1, 1), (1, -1), (-1, 1)]:
        a_pos, a_kw = a0.copy(order="F"), a0.copy(order="F")
        got = dger(1.0, x, y, incx, incy, a_pos, 1, 1, 1)
        want = dger(1.0, x, y, **dict(zip(DGER_FLAGS, (incx, incy, a_kw, 1, 1, 1))))
        assert got.tobytes() == want.tobytes() == a_pos.tobytes() == a_kw.tobytes()
        assert np.shares_memory(got, a_pos)
        np.testing.assert_allclose(a_pos, a0 + np.outer(x[::incx], y[::incy]), rtol=1e-14)
        outcomes.add(got.tobytes())
    assert len(outcomes) == 3


def test_dtrsm_positional_arguments_bind_as_their_keywords():
    # the dense chunk passes dtrsm's flags by position; on a non-symmetric
    # lower-triangular A, every flag read another way solves another system,
    # so each positional call must give its keyword call's bytes and solve
    # in place in the F-ordered B passed in
    rng = np.random.default_rng(1)
    A = np.tril(rng.standard_normal((4, 4))) + 4.0 * np.eye(4)
    B0 = np.asfortranarray(rng.standard_normal((4, 4)))
    outcomes = set()
    for flags in [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (1, 1, 1, 0),
                  (0, 1, 0, 1)]:
        B_pos, B_kw = B0.copy(order="F"), B0.copy(order="F")
        got = dtrsm(1.0, A, B_pos, *flags, 1)
        want = dtrsm(1.0, A, B_kw, **dict(zip(DTRSM_FLAGS, flags + (1,))))
        assert got.tobytes() == want.tobytes() == B_pos.tobytes() == B_kw.tobytes()
        assert np.shares_memory(got, B_pos)
        outcomes.add(got.tobytes())
    assert len(outcomes) == 6
    # the call _DenseIterate._solve makes: tril(G) C = B through G.T, C.T
    G, C = A + np.triu(rng.standard_normal((4, 4)), 1), rng.standard_normal((4, 2))
    want = np.linalg.solve(A, C)
    dtrsm(1.0, G.T, C.T, 1, 0, 0, 0, 1)
    np.testing.assert_allclose(C, want, rtol=1e-12)


def test_orthogonal_rows_exact_after_coverage():
    view = precentered(np.eye(2))
    Y = np.array([[3.0], [4.0]])
    result = solve_rk(view, Y, SolverConfig(max_iters=32, seed=5))
    assert np.array_equal(result.W, np.array([[3.0], [4.0]]))


def test_k1_is_single_step():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 4))
    view = build_centered_view(X)
    Y = rng.standard_normal((5, 2))
    cfg = SolverConfig(max_iters=1, seed=123)
    result = solve_rk(view, Y, cfg)
    assert_near_reference(view, Y, cfg, result.W)
    assert result.iterations_run == 1


@pytest.mark.parametrize("tail_average", [None, 0.3])
def test_dense_matches_reference_loop(tail_average):
    rng = np.random.default_rng(40)
    X = rng.standard_normal((12, 8)) * 2.0 + 50.0
    Y = rng.standard_normal((12, 3))
    view = build_centered_view(X)
    cfg = SolverConfig(max_iters=400, seed=9, tail_average=tail_average)
    assert_near_reference(view, Y, cfg, solve_rk(view, Y, cfg).W)


def test_dense_matches_reference_across_block_boundary():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((9, 5))
    Y = rng.standard_normal((9, 2))
    view = build_centered_view(X)
    cfg = SolverConfig(max_iters=SAMPLE_BLOCK + 37, seed=2, tail_average=0.5)
    assert_near_reference(view, Y, cfg, solve_rk(view, Y, cfg).W)


@pytest.mark.filterwarnings("ignore:sparse centering ratio")
def test_dense_matches_reference_with_checkpoints_and_tail():
    # sparse storage too: its tail average is held to the definition, not
    # only to the lazy_sparse_solve copy of the implementation
    rng = np.random.default_rng(42)
    X = rng.standard_normal((9, 5)) + 1e3
    Y = rng.standard_normal((9, 2))
    for view in both_storages(X):
        for tail_average in (0.3, 0.0):
            cfg = SolverConfig(max_iters=SAMPLE_BLOCK + 37, seed=3, tail_average=tail_average,
                               checkpoint_every=1000)
            got, record = recorder()
            W = solve_rk(view, Y, cfg, on_checkpoint=record).W
            assert [k for k, _ in got] == [0, 1000, 2000, 3000, 4000, SAMPLE_BLOCK + 37]
            assert_near_reference(view, Y, cfg, W, checkpoints=got)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    d=st.integers(1, 8),
    parallel_exp=st.one_of(st.none(), st.floats(2.0, 12.0)),
    heavy=st.floats(1.0, 1e3),
    offset_exp=st.floats(0.0, 6.0),
    K=st.integers(1, 3 * gram_chunk(8)),
    cadence=st.sampled_from([0, 1, 7]),
    tail_average=st.sampled_from([None, 0.0, 0.3, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_dense_near_reference_property(n, d, parallel_exp, heavy, offset_exp, K, cadence,
                                       tail_average, seed):
    # near-parallel rows (spread 10^-parallel_exp about one direction), one
    # row `heavy` times longer so that it is drawn many times in a row,
    # column offsets up to 1e6, stretches of length 1 (cadence 1), and K past
    # a chunk boundary with the burn-in inside the one drawn block
    rng = np.random.default_rng(seed)
    if parallel_exp is None:
        X = rng.standard_normal((n, d))
    else:
        X = np.outer(rng.standard_normal(n) + 3.0, rng.standard_normal(d))
        X += 10.0 ** -parallel_exp * rng.standard_normal((n, d))
    X[0] *= heavy
    X += rng.choice([-1.0, 1.0], size=d) * 10.0 ** offset_exp * rng.random(d)
    view = build_centered_view(X)
    assume(np.all(view.centered_row_norms_sq > 0.0))
    Y = rng.standard_normal((n, 2))
    cfg = SolverConfig(max_iters=K, seed=seed, checkpoint_every=cadence,
                       tail_average=tail_average)
    got, record = recorder()
    W = solve_rk(view, Y, cfg, on_checkpoint=record).W
    assert_near_reference(view, Y, cfg, W, checkpoints=got)


@pytest.mark.parametrize("d", [10, 100])
@pytest.mark.parametrize("tail_average", [None, 0.5])
def test_dense_near_reference_across_groups(d, tail_average):
    # in the first block, 2,000-row stretches span more than one group of
    # chunks and end on a partial chunk, and the last 96 rows are whole
    # chunks; the second block is a one-row stretch.  Seven rows are each
    # drawn hundreds of times, so the tail sums add into every row's cells
    # again and again.
    cadence, K = 2000, SAMPLE_BLOCK + 1
    b = gram_chunk(d)
    assert gram_group(d) < cadence and cadence % b != 0 and (SAMPLE_BLOCK - 2 * cadence) % b == 0
    rng = np.random.default_rng(d)
    X = rng.standard_normal((7, d)) + 100.0
    Y = rng.standard_normal((7, 3))
    view = build_centered_view(X)
    cfg = SolverConfig(max_iters=K, seed=d, checkpoint_every=cadence, tail_average=tail_average)
    got, record = recorder()
    W = solve_rk(view, Y, cfg, on_checkpoint=record).W
    assert [k for k, _ in got] == [0, 2000, 4000, K]
    assert_near_reference(view, Y, cfg, W, checkpoints=got)
    assert solve_rk(view, Y, cfg).W.tobytes() == W.tobytes()


@pytest.mark.filterwarnings("ignore:sparse centering ratio")
@pytest.mark.parametrize("cadence", [1, 7])
def test_checkpoint_residual_is_the_sampled_rows(cadence):
    # the residual at checkpoint k is ||Y[i_k] - Xc[i_k] W_{k-1}||, with i_k
    # the row step k drew and W_{k-1} the iterate before it; at cadence 7
    # it comes from the last step of a longer stretch
    rng = np.random.default_rng(44)
    X = rng.standard_normal((9, 5)) + 100.0
    X[rng.random(X.shape) < 0.3] = 0.0
    Y = rng.standard_normal((9, 2))
    cfg = SolverConfig(max_iters=60, seed=7, checkpoint_every=cadence, tail_average=0.5)
    for view in both_storages(X):
        dist = build_sampler(view)
        got = []
        solve_rk(view, Y, cfg, dist=dist, on_checkpoint=lambda k, W, r: got.append((k, r)))
        iterates, record = recorder()
        reference_solve(view, Y, replace(cfg, checkpoint_every=1), dist=dist,
                        on_checkpoint=record)
        rng_ref, Xc = make_rng(cfg.seed), to_dense_centered(view)
        rows = [sample_row(dist, rng_ref) for _ in range(cfg.max_iters)]
        # a residual sees the iterate's gap through one row
        tol = reference_tolerance(view, Y, cfg) * math.sqrt(view.centered_row_norms_sq.max())
        assert got[0][0] == 0 and math.isnan(got[0][1])
        assert [k for k, _ in got[1:]] == [*range(cadence, cfg.max_iters, cadence), cfg.max_iters]
        for k, r in got[1:]:
            i, W_before = rows[k - 1], iterates[k - 1][1]
            assert abs(r - np.linalg.norm(Y[i] - Xc[i] @ W_before)) <= tol


@pytest.mark.parametrize("d", [10, 3000])
def test_fixed_seed_same_bytes(d):
    # at d = 3000 the chunk's products are large enough for a threaded BLAS
    # to split them
    rng = np.random.default_rng(d)
    X = rng.standard_normal((50, d)) + 1e3
    Y = rng.standard_normal((50, 4))
    view = build_centered_view(X)
    cfg = SolverConfig(max_iters=1000, seed=12, checkpoint_every=300, tail_average=0.5)
    traces = [[], []]
    a, b = (solve_rk(view, Y, cfg, on_checkpoint=lambda k, W, r, t=t: t.append(
        (np.linalg.norm(W), r))) for t in traces)
    assert a.W.tobytes() == b.W.tobytes()
    assert np.array(traces[0]).tobytes() == np.array(traces[1]).tobytes()


def test_k0_forbidden():
    with pytest.raises(InvalidData):
        SolverConfig(max_iters=0, seed=0)
    with pytest.raises(InvalidData, match="checkpoint_every must be >= 0"):
        SolverConfig(checkpoint_every=-1)


def test_planted_convergence():
    rng = np.random.default_rng(11)
    view, Y, w_star = planted_consistent(20, 100, 2, rng)
    result = solve_rk(view, Y, SolverConfig(max_iters=6000, seed=3))
    rel = np.linalg.norm(result.W - w_star) / np.linalg.norm(w_star)
    assert rel < 1e-3


def test_determinism_bit_identical():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 30))
    Y = rng.standard_normal((10, 3))
    for view in both_storages(X):
        for tail_average in (None, 0.5):
            cfg = SolverConfig(max_iters=500, seed=77, checkpoint_every=100,
                               tail_average=tail_average)
            norms = [[], []]
            a, b = (solve_rk(view, Y, cfg, on_checkpoint=lambda k, W, _, f=f: f.append(
                np.linalg.norm(W))) for f in norms)
            assert a.W.tobytes() == b.W.tobytes()
            assert norms[0] == norms[1]


def test_seed_changes_trajectory():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 30))
    Y = rng.standard_normal((10, 3))
    view = build_centered_view(X)
    a = solve_rk(view, Y, SolverConfig(max_iters=50, seed=1))
    b = solve_rk(view, Y, SolverConfig(max_iters=50, seed=2))
    assert not np.array_equal(a.W, b.W)


def test_monotone_non_expansiveness():
    rng = np.random.default_rng(9)
    view, Y, w_star = planted_consistent(8, 30, 2, rng)
    cfg = SolverConfig(max_iters=200, seed=0, checkpoint_every=1)
    for v in (view, build_centered_view(sp.csr_array(view.base))):
        prev = np.linalg.norm(w_star)
        seen, record = recorder()
        solve_rk(v, Y, cfg, on_checkpoint=record)
        for _, Wk in seen[1:]:
            now = np.linalg.norm(Wk - w_star)
            assert now <= prev + 1e-12 * max(prev, 1.0)
            prev = now


def test_expected_one_step_contraction():
    # from W1, where a step from zero on row 0 lands, one more step
    # contracts the expected error by at least 1 - 1/kappa
    rng = np.random.default_rng(21)
    view, Y, w_star = planted_consistent(10, 40, 2, rng)
    Xc = to_dense_centered(view)
    s = np.linalg.svd(Xc, compute_uv=False)
    nonzero = s[s > max(Xc.shape) * EPS * s[0]]
    kappa = view.frob_norm_sq / nonzero[-1] ** 2
    err = np.linalg.norm(steps_from_zero(view, Y, [0]) - w_star) ** 2
    # exact expectation over the sampling distribution
    expected = sum(
        p * np.linalg.norm(steps_from_zero(view, Y, [0, i]) - w_star) ** 2
        for i, p in enumerate(build_sampler(view).probs)
    )
    assert expected <= (1.0 - 1.0 / kappa) * err + 1e-10 * err


def test_row_space_confinement():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((12, 40))
    Y = rng.standard_normal((12, 3))
    view = build_centered_view(X)
    Xc = to_dense_centered(view)
    _, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    V = Vt[s > max(Xc.shape) * EPS * s[0]].T
    seen, record = recorder()
    solve_rk(view, Y, SolverConfig(max_iters=300, seed=8, checkpoint_every=50),
             on_checkpoint=record)
    assert [k for k, _ in seen] == [0, 50, 100, 150, 200, 250, 300]
    for _, Wk in seen:
        out_of_space = Wk - V @ (V.T @ Wk)
        assert np.linalg.norm(out_of_space) <= 1e-8 * max(1.0, np.linalg.norm(Wk))


@pytest.mark.filterwarnings("ignore:sparse centering ratio")
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 12),
    d=st.integers(2, 12),
    rank_frac=st.floats(0.0, 1.0),
    empty_cols=st.floats(0.0, 0.5),
    offset_exp=st.floats(0.0, 4.0),
    K=st.integers(1, 150),
    cadence=st.sampled_from([0, 1, 7]),
    tail_average=st.sampled_from([None, 0.0, 0.5]),
    seed=st.integers(0, 2**16),
)
def test_row_space_confinement_property(n, d, rank_frac, empty_cols, offset_exp, K, cadence,
                                        tail_average, seed):
    # X = A B of rank r < min(n, d) on either side of n = d, some columns
    # empty and the others offset by up to 1e4.  With r <= n - 1 the
    # centered (I - 11^T/n) A keeps rank r, so Xc's row space is B's, of
    # dimension rank(B): every checkpoint and the returned W must lie in the
    # span of the top rank(B) right singular vectors of the explicitly
    # centered X, on both storages.
    rng = np.random.default_rng(seed)
    r = 1 + int(rank_frac * (min(n, d) - 2))
    B = rng.standard_normal((r, d))
    B[:, 1:][:, rng.random(d - 1) < empty_cols] = 0.0
    X = rng.standard_normal((n, r)) @ B
    X += (B != 0).any(axis=0) * 10.0 ** offset_exp * rng.random(d)
    Y = rng.standard_normal((n, 2))
    cfg = SolverConfig(max_iters=K, seed=seed, checkpoint_every=cadence,
                       tail_average=tail_average)
    for view in both_storages(X):
        _, _, Vt = np.linalg.svd(to_dense_centered(view))
        V = Vt[:np.linalg.matrix_rank(B)].T
        got, record = recorder()
        W = solve_rk(view, Y, cfg, on_checkpoint=record).W
        tol = agreement_tolerance(view, K) * largest_iterate(solve_rk, view, Y, cfg)
        for Wk in [W, *(Wk for _, Wk in got)]:
            assert np.linalg.norm(Wk - V @ (V.T @ Wk)) <= tol


def test_tail_average_matches_manual_replay():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((6, 10))
    Y = rng.standard_normal((6, 2))
    K, frac = 40, 0.5
    cfg = SolverConfig(max_iters=K, seed=5, tail_average=frac)
    for view in both_storages(X):
        res = solve_rk(view, Y, cfg)
        assert np.allclose(res.W, reference_solve(view, Y, cfg), atol=1e-12)


def test_tail_sum_reaches_rmatmul_in_its_layout(monkeypatch):
    # the tail sum Z is built F-ordered, the layout rmatmul takes, so the
    # one product Xc^T Z at the end copies no operand
    rng = np.random.default_rng(15)
    X, Y = rng.standard_normal((30, 8)) + 2.0, rng.standard_normal((30, 3))
    rmatmul = CenteredMatrixView.rmatmul
    operands = []

    def spy(self, u):
        operands.append((u.flags.f_contiguous, u.dtype, u.shape))
        return rmatmul(self, u)

    monkeypatch.setattr(CenteredMatrixView, "rmatmul", spy)
    for view in both_storages(X):
        solve_rk(view, Y, SolverConfig(max_iters=200, seed=3, tail_average=0.5))
    assert operands == [(True, np.float64, (30, 3))] * 2


def test_zero_norm_rows_skipped_in_solve():
    X = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, -1.0], [-3.0, 2.0]])
    # rows 0 and 1 are identical; after centering neither is zero, so build a
    # case with an exactly duplicated mean row instead
    X = np.vstack([X, X.mean(axis=0)])
    view = build_centered_view(X)
    assert view.centered_row_norms_sq[-1] == pytest.approx(0.0, abs=1e-20)
    Y = np.arange(X.shape[0], dtype=float).reshape(-1, 1)
    res = solve_rk(view, Y, SolverConfig(max_iters=100, seed=0))
    assert res.excluded_rows >= 1
    assert np.all(np.isfinite(res.W))


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_reports_iteration():
    # two copies of one row with targets +-1e308: a step on one copy lands
    # at 1e308 along it.  Dense forms the residual of the first step on the
    # other copy, -+2e308, which overflows; sparse forms only the coefficient
    # (y_i - W^T x_i) / ||x_i||^2 = -+1e308, which is finite, and the
    # iterate swings between +-5e307 per entry
    Y = np.array([[1e308], [-1e308]])
    dense, sparse = both_storages([[1.0, 1.0], [1.0, 1.0]], means=0.0)
    rows = sample_rows(build_sampler(dense), make_rng(0), 10).tolist()
    with pytest.raises(NumericalDivergence) as err:
        solve_rk(dense, Y, SolverConfig(max_iters=10, seed=0))
    assert err.value.iteration == rows.index(1 - rows[0]) + 1
    W = solve_rk(sparse, Y, SolverConfig(max_iters=10, seed=0)).W
    assert np.array_equal(np.abs(W), np.full((2, 1), 5e307))


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_of_the_coefficient_on_both_storages():
    # at ||x_i||^2 = 1 the coefficient is the residual, so the first step on
    # the second copy overflows on either storage
    Y = np.array([[1e308], [-1e308]])
    views = both_storages([[1.0, 0.0], [1.0, 0.0]], means=0.0)
    rows = sample_rows(build_sampler(views[0]), make_rng(0), 10).tolist()
    for view in views:
        with pytest.raises(NumericalDivergence) as err:
            solve_rk(view, Y, SolverConfig(max_iters=10, seed=0))
        assert err.value.iteration == rows.index(1 - rows[0]) + 1


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_non_finite_y_refused_before_any_step(storage):
    # a NaN target on a row that five steps never draw: refused as data,
    # not returned in a finite W nor reported later as a divergence
    X = np.random.default_rng(7).standard_normal((20, 5))
    Y = np.random.default_rng(8).standard_normal((20, 2))
    Y[3, 1] = np.nan
    view = build_centered_view(sp.csr_array(X) if storage == "sparse" else X)
    with pytest.raises(InvalidData, match="Y contains non-finite entries"):
        solve_rk(view, Y, SolverConfig(max_iters=5, seed=0))


def row_first_drawn_at(dist, seed, k):
    """The row drawn at step k when no earlier step drew it, else None."""
    rows = sample_rows(dist, make_rng(seed), k + 1).tolist()
    return rows[k] if rows[k] not in rows[:k] else None


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("step, cadence, tail_average", [
    (SAMPLE_BLOCK + 1500, 0, None),  # mid-block, in the second block
    (1999, 1000, None),              # the last step before a checkpoint
    (2000, 1000, None),              # the first step after a checkpoint
    (2457, 0, 0.3),                  # the first step of the tail (burn-in = 2457)
    (3333, 1000, 0.3),               # after the burn-in, mid-stretch
])
@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_names_the_first_non_finite_step(storage, step, cadence, tail_average):
    # the largest finite target on a row of centered norm below 1 overflows
    # the coefficient the first time the row is drawn (a NaN target is
    # refused up front)
    rng = np.random.default_rng(step)
    X = rng.standard_normal((4000, 3))
    dense = build_centered_view(X)
    view = dense if storage == "dense" else build_centered_view(sp.csr_array(X))
    dist = build_sampler(dense)
    row, seed = next((r, s) for s in range(1000)
                     if (r := row_first_drawn_at(dist, s, step)) is not None
                     and dense.centered_row_norms_sq[r] < 0.9)
    Y = rng.standard_normal((4000, 2))
    Y[row, 1] = np.finfo(np.float64).max
    cfg = SolverConfig(max_iters=2 * SAMPLE_BLOCK, seed=seed, checkpoint_every=cadence,
                       tail_average=tail_average)
    seen = []
    with pytest.raises(NumericalDivergence) as err:
        solve_rk(view, Y, cfg, dist=dist,
                 on_checkpoint=lambda k, W, _: seen.append((k, bool(np.isfinite(W).all()))))
    assert err.value.iteration == step + 1
    assert seen == [(k, True) for k in range(0, step + 1, cadence or step + 1)]


def test_trace_cadence_and_final_checkpoint():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 8))
    Y = rng.standard_normal((5, 1))
    view = build_centered_view(X)
    seen = []
    solve_rk(view, Y, SolverConfig(max_iters=25, seed=0, checkpoint_every=10),
             on_checkpoint=lambda k, W, _: seen.append(k))
    assert seen == [0, 10, 20, 25]


def test_scale_equivariance_of_sampling_through_solve():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((8, 12))
    Y = rng.standard_normal((8, 2))
    va, vb = build_centered_view(X), build_centered_view(3.0 * X)
    assert np.allclose(build_sampler(va).probs, build_sampler(vb).probs)


# ---- sparse storage against dense storage ---------------------------------


def sparse_with_offsets(seed):
    """A sparse matrix whose columns carry offsets up to 1e8: some columns
    are fully stored around their offset, some mostly zero, some empty."""
    rng = np.random.default_rng(seed)
    n, d = 15, 12
    X = rng.standard_normal((n, d)) + 10.0 ** rng.uniform(0, 8, size=d)
    X[rng.random((n, d)) < np.linspace(0.0, 0.9, d)] = 0.0
    X[:, -2:] = 0.0
    return X


@pytest.mark.filterwarnings("ignore:sparse centering ratio")
@pytest.mark.parametrize("tail_average", [None, 0.5])
def test_sparse_unused_columns_stay_zero(tail_average):
    X = sparse_with_offsets(3)
    view = build_centered_view(sp.csr_array(X))
    Y = np.random.default_rng(3).standard_normal((X.shape[0], 3))
    cfg = SolverConfig(max_iters=300, seed=1, tail_average=tail_average)
    W = solve_rk(view, Y, cfg).W
    assert np.all(W[-2:] == 0.0)


@pytest.mark.filterwarnings("ignore:sparse centering ratio")
@pytest.mark.parametrize("seed", [3, 5, 8])
@pytest.mark.parametrize("tail_average, cadence", [(None, 0), (0.3, 1000), (0.0, 0)])
def test_sparse_matches_lazy_step_loop(seed, tail_average, cadence):
    X = sparse_with_offsets(seed)
    X[seed % X.shape[0]] = 0.0  # an empty stored row, drawn for its -mu
    view = build_centered_view(sp.csr_array(X))
    Y = np.random.default_rng(seed).standard_normal((X.shape[0], 3))
    cfg = SolverConfig(max_iters=SAMPLE_BLOCK + 37, seed=seed, tail_average=tail_average,
                       checkpoint_every=cadence)
    (got, record_got), (want, record_want) = recorder(), recorder()
    W = solve_rk(view, Y, cfg, on_checkpoint=record_got).W
    W_lazy = lazy_sparse_solve(view, Y, cfg, on_checkpoint=record_want)
    if tail_average is None:
        assert np.array_equal(W, W_lazy)
    else:
        # solve_rk sums the tail in another order than the loop's U and A
        tol = 100.0 * cfg.max_iters * EPS * (1.0 + view.centering_ratio)
        assert np.linalg.norm(W - W_lazy) <= tol * largest_iterate(lazy_sparse_solve, view, Y, cfg)
    assert_same_checkpoints(got, want)


@pytest.mark.filterwarnings("ignore:sparse centering ratio")
@pytest.mark.parametrize("g", [1, 3, 16])
def test_sparse_matches_lazy_step_loop_at_every_record_width(g):
    # a step moves rows of V as records of 8 g bytes (8, 24 and 128 here)
    # through one buffer sized by the longest augmented row; the draws reach
    # that row, every column stored, and a row of its three augmented
    # entries alone, and a dger that updated a copy of the buffer would
    # scatter the rows back unchanged
    X = sparse_with_offsets(6)
    X[2] = 0.0
    X[7] = np.random.default_rng(6).standard_normal(X.shape[1]) + 3.0
    view = build_centered_view(sp.csr_array(X))
    Y = np.random.default_rng(g).standard_normal((X.shape[0], g))
    cfg = SolverConfig(max_iters=SAMPLE_BLOCK + 37, seed=6, checkpoint_every=97)
    drawn = set(sample_rows(build_sampler(view), make_rng(cfg.seed), cfg.max_iters).tolist())
    assert {2, 7} <= drawn and np.diff(view.base.indptr).argmax() == 7
    (got, record_got), (want, record_want) = recorder(), recorder()
    W = solve_rk(view, Y, cfg, on_checkpoint=record_got).W
    assert W.tobytes() == lazy_sparse_solve(view, Y, cfg, on_checkpoint=record_want).tobytes()
    assert_same_checkpoints(got, want)


@pytest.mark.filterwarnings("ignore:sparse centering ratio")
def test_sparse_w_independent_of_checkpoints():
    # checkpoints form W in a fresh array and the solve forms the returned W
    # in place, by one arithmetic: the bytes are those the last checkpoint saw
    X = sparse_with_offsets(4)
    view = build_centered_view(sp.csr_array(X))
    Y = np.random.default_rng(4).standard_normal((X.shape[0], 3))
    cfg = SolverConfig(max_iters=SAMPLE_BLOCK + 96, seed=4)
    W = solve_rk(view, Y, cfg).W
    assert cfg.max_iters % 32 == 0
    for cadence in (0, 32):
        seen, record = recorder()
        got = solve_rk(view, Y, replace(cfg, checkpoint_every=cadence), on_checkpoint=record).W
        assert got.tobytes() == W.tobytes() == seen[-1][1].tobytes()
        assert seen[-1][0] == cfg.max_iters


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_checkpoint_w_equals_the_truncated_solve(sparse):
    # at one SolverConfig, a callback does not move the returned W, and the
    # W a checkpoint sees at k is the W of a k-step solve at the same
    # cadence, byte for byte, on either side of a sample block's end
    rng = np.random.default_rng(9)
    X = rng.standard_normal((30, 12)) + 5.0
    X[rng.random(X.shape) < 0.5] = 0.0
    view = build_centered_view(sp.csr_array(X) if sparse else X)
    Y = rng.standard_normal((30, 3))
    cadence = 97
    cfg = SolverConfig(max_iters=SAMPLE_BLOCK + 2 * cadence, seed=5, checkpoint_every=cadence)
    seen, record = recorder()
    W = solve_rk(view, Y, cfg, on_checkpoint=record).W
    assert W.tobytes() == solve_rk(view, Y, cfg).W.tobytes()
    before = SAMPLE_BLOCK // cadence * cadence
    ks = (cadence, before, before + cadence, cfg.max_iters)
    assert ks[1] < SAMPLE_BLOCK < ks[2] < ks[3]
    assert set(ks) <= {k for k, _ in seen}
    for k, Wk in seen:
        if k in ks:
            assert solve_rk(view, Y, replace(cfg, max_iters=k)).W.tobytes() == Wk.tobytes(), k


FILL = -8.613432074679531  # most entries of an @example below


def agreement_tolerance(view, K):
    """Bound on the relative sparse/dense gap: the lazy step's rounding grows
    with the centering ratio and at most linearly in the step count, since
    each step is non-expansive."""
    return 100.0 * K * EPS * (1.0 + view.centering_ratio)


@pytest.mark.filterwarnings("ignore:sparse centering ratio")
@settings(max_examples=60, deadline=None)
@given(
    X=hnp.arrays(np.float64, st.tuples(st.integers(2, 10), st.integers(1, 8)),
                 elements=st.floats(-10, 10, allow_nan=False)),
    density=st.floats(0.0, 1.0),
    offset_exp=st.floats(0.0, 8.0),
    tail_average=st.sampled_from([None, 0.5]),
    seed=st.integers(0, 2**16),
)
# a ratio of 1.8e15: the sparse norms of rows 1 and 2 come out as 4, not 8
@example(X=np.array([[0.0, 0, 6, 6, 6], [6.0] * 5, [6.0] * 5]), density=1.0, offset_exp=8.0,
         tail_average=None, seed=0)
# the largest gap, 0.40 of the tolerance, over 6,003 cases drawn as below
@example(X=np.array([[FILL, FILL, FILL, FILL], [FILL, 4.1213995738148025e-81, FILL, FILL],
                     [-2.6242322580044055, 2.959248738625579, FILL, FILL],
                     [8.270265622488214, -8.032558814618133, FILL, FILL],
                     [FILL, FILL, FILL, FILL], [4.005761565779602, FILL, FILL, FILL],
                     [FILL, FILL, -6.526302773564291, 4.903178425134113],
                     [-5.960464477539063e-08, FILL, FILL, FILL]]),
         density=0.8744155666116855, offset_exp=6.332754435601258, tail_average=None, seed=8)
def test_sparse_agrees_with_dense(X, density, offset_exp, tail_average, seed):
    rng = np.random.default_rng(seed)
    n, d = X.shape
    X = X + rng.choice([-1.0, 1.0], size=d) * 10.0 ** offset_exp * rng.random(d)
    X[rng.random((n, d)) >= density] = 0.0
    dense = build_centered_view(X)
    sparse = build_centered_view(sp.csr_array(X))
    assume(dense.frob_norm_sq > 0.0)
    dist = build_sampler(dense)
    assume(np.all(sparse.centered_row_norms_sq[dist.active_rows] > 0.0))
    Y = rng.standard_normal((n, 2))
    K = 60
    cfg = SolverConfig(max_iters=K, seed=seed, tail_average=tail_average)
    Wd = solve_rk(dense, Y, cfg, dist=dist).W
    if sparse.centering_ratio > CENTERING_RATIO_MAX:
        with pytest.raises(InvalidData, match=re.escape(f"= {sparse.centering_ratio:.3g} exceeds")):
            solve_rk(sparse, Y, cfg, dist=dist)
        return
    Ws = solve_rk(sparse, Y, cfg, dist=dist).W
    gap = np.linalg.norm(Ws - Wd)
    assert gap <= agreement_tolerance(sparse, K) * max(np.linalg.norm(Wd), 1e-300)


@pytest.mark.filterwarnings("ignore:sparse centering ratio")
def test_checkpoints_see_the_same_iterate_on_both_storages():
    X = sparse_with_offsets(5)
    Y = np.random.default_rng(5).standard_normal((X.shape[0], 2))
    dense, sparse = both_storages(X)
    dist = build_sampler(dense)
    cfg = SolverConfig(max_iters=90, seed=4, checkpoint_every=20, tail_average=0.5)
    seen = {"dense": [], "sparse": []}
    for name, view in (("dense", dense), ("sparse", sparse)):
        # the live W's norm, as the CLI's trace takes it, beside a copy
        solve_rk(view, Y, cfg, dist=dist, on_checkpoint=lambda k, W, _, calls=seen[name]:
                 calls.append((k, W.copy(), np.linalg.norm(W))))
    tol = agreement_tolerance(sparse, cfg.max_iters)
    assert [c[0] for c in seen["dense"]] == [c[0] for c in seen["sparse"]] == [0, 20, 40, 60, 80, 90]
    for (_, Wd, fd), (_, Ws, fs) in zip(seen["dense"], seen["sparse"]):
        scale = max(np.linalg.norm(Wd), 1e-300)
        assert np.linalg.norm(Ws - Wd) <= tol * scale
        assert fd == np.linalg.norm(Wd) and fs == np.linalg.norm(Ws)
        assert fs == pytest.approx(fd, rel=tol, abs=tol)

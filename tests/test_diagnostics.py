import math

import numpy as np
import pytest

from helpers import expected_step_check, planted_consistent, planted_inconsistent
from rklda.baselines import pinv_oracle, ulda_oracle
from rklda.diagnostics import (
    condition_profile,
    error_bound,
    iterations_for_tolerance,
    residual_at,
    run_convergence_study,
)
from rklda.errors import DegenerateMatrix, InvalidData
from rklda.labels import encode_labels, index_labels
from rklda.matrix import build_centered_view, to_dense_centered
from rklda.rk import SolverConfig, make_rng


def test_condition_profile_diag():
    p = condition_profile(build_centered_view(np.diag([2.0, 1.0]), means=0.0))
    assert p.frob_norm_sq == pytest.approx(5.0)
    assert p.sigma_plus_min == pytest.approx(1.0)
    assert p.kappa == pytest.approx(5.0)
    assert p.beta == pytest.approx(1.0)


def test_condition_profile_identity():
    for n in (2, 5, 9):
        assert condition_profile(build_centered_view(np.eye(n), means=0.0)).kappa == pytest.approx(n)


def test_condition_profile_rank_one():
    u = np.array([[1.0], [2.0], [-1.0]])
    v = np.array([[3.0, 0.5, -2.0, 1.0]])
    p = condition_profile(build_centered_view(u @ v, means=0.0))
    assert p.kappa == pytest.approx(1.0)


def test_condition_profile_zero_matrix():
    with pytest.raises(DegenerateMatrix):
        condition_profile(build_centered_view(np.zeros((3, 3)), means=0.0))


def test_condition_profile_kappa_at_least_rank():
    rng = np.random.default_rng(0)
    for _ in range(10):
        X = rng.standard_normal((6, 9))
        p = condition_profile(build_centered_view(X, means=0.0))
        rank = np.linalg.matrix_rank(X)
        assert p.kappa >= rank - 1e-9


def test_error_bound_values():
    p = condition_profile(build_centered_view(np.diag([1.0, 1.0]), means=0.0))  # kappa = 2
    assert error_bound(p, eps0=1.0, resid_norm_sq=0.0, k=3) == pytest.approx(0.125)
    assert error_bound(p, eps0=4.0, resid_norm_sq=2.0, k=0) == pytest.approx(
        4.0 + p.beta * 2.0
    )


def test_error_bound_kappa_one():
    u = np.array([[1.0], [0.0]])
    v = np.array([[2.0, 0.0]])
    p = condition_profile(build_centered_view(u @ v, means=0.0))  # single nonzero singular value
    assert p.kappa == pytest.approx(1.0)
    floor = p.beta * 3.0
    assert error_bound(p, eps0=9.0, resid_norm_sq=3.0, k=0) == pytest.approx(9.0 + floor)
    for k in (1, 2, 10):
        assert error_bound(p, eps0=9.0, resid_norm_sq=3.0, k=k) == pytest.approx(floor)


def test_error_bound_monotone_to_floor():
    p = condition_profile(build_centered_view(np.diag([3.0, 1.0, 0.5]), means=0.0))
    floor = p.beta * 0.7
    values = [error_bound(p, 2.0, 0.7, k) for k in range(0, 4000, 20)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(floor, rel=1e-6)


def test_iterations_for_tolerance_examples():
    assert iterations_for_tolerance(0.01, 1.0, 2.0) == 7
    # 1 - 1/kappa rounds to 1.0 at 1e17; the count is still kappa * log(eps0 / eps)
    for kappa in (1e15, 1e17):
        assert iterations_for_tolerance(0.01, 1.0, kappa) == pytest.approx(
            kappa * math.log(100.0), rel=1e-12)
    assert iterations_for_tolerance(1.0, 1.0, 2.0) == 0
    assert iterations_for_tolerance(2.0, 1.0, 2.0) == 0
    assert iterations_for_tolerance(math.exp(-1), 1.0, 100.0) == 100
    assert iterations_for_tolerance(0.5, 1.0, 1.0) == 1
    assert iterations_for_tolerance(0.5, 1.0, 0.5) == 1
    with pytest.raises(InvalidData):
        iterations_for_tolerance(0.0, 1.0, 2.0)


@pytest.mark.parametrize("eps, eps0, kappa", [
    (0.01, 1.0, math.nan), (0.01, 1.0, math.inf), (0.01, math.inf, 4.0),
    (math.nan, 1.0, 4.0), (0.01, math.nan, 4.0),
])
def test_iterations_for_tolerance_rejects_non_finite(eps, eps0, kappa):
    with pytest.raises(InvalidData, match="finite"):
        iterations_for_tolerance(eps, eps0, kappa)


def test_iterations_bound_is_sufficient():
    # after the returned k, the contraction term really is below eps
    for kappa in (1.5, 3.0, 42.0):
        for eps in (1e-2, 1e-5):
            k = iterations_for_tolerance(eps, 1.0, kappa)
            assert (1.0 - 1.0 / kappa) ** k <= eps * (1 + 1e-12)
            assert k == 0 or (1.0 - 1.0 / kappa) ** (k - 1) > eps


def test_residual_at_solution_and_zero():
    rng = np.random.default_rng(2)
    view, Y, w_star = planted_consistent(12, 30, 2, rng)
    frob, rel = residual_at(w_star, view, Y)
    assert frob == pytest.approx(0.0, abs=1e-8)
    assert rel == pytest.approx(0.0, abs=1e-8)
    frob0, rel0 = residual_at(np.zeros_like(w_star), view, Y)
    assert frob0 == pytest.approx(np.linalg.norm(Y))
    assert rel0 == pytest.approx(1.0)


def test_residual_and_expected_step_check_y_row_count():
    rng = np.random.default_rng(3)
    view, Y, w_star = planted_consistent(12, 30, 2, rng)
    with pytest.raises(InvalidData, match="Y has 11 rows, data has 12"):
        residual_at(w_star, view, Y[:11])
    with pytest.raises(InvalidData, match="Y has 11 rows, data has 12"):
        expected_step_check(view, Y[:11], w_star, m=10, rng=make_rng(0))


def test_expected_step_single_row_deterministic():
    view = build_centered_view(np.array([[3.0, 4.0]]), means=0.0)
    Y = np.array([[2.0, -1.0]])
    W = np.zeros((2, 2))
    emp, ana, dev = expected_step_check(view, Y, W, m=25, rng=make_rng(0))
    assert dev <= 1e-12
    step = np.outer([3.0, 4.0], Y[0]) / 25.0
    assert np.allclose(emp, step)


def test_expected_step_zero_at_solution():
    rng = np.random.default_rng(5)
    view, Y, w_star = planted_consistent(10, 25, 2, rng)
    emp, ana, dev = expected_step_check(view, Y, w_star, m=200, rng=make_rng(1))
    assert np.linalg.norm(ana) <= 1e-10
    assert np.linalg.norm(emp) <= 0.2  # shrinks with m; just sanity here


def test_expected_step_analytic_formula():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((10, 30))
    Y = rng.standard_normal((10, 3))
    view = build_centered_view(X)
    W = rng.standard_normal((30, 3))
    _, ana, _ = expected_step_check(view, Y, W, m=1, rng=make_rng(3))
    Xc = to_dense_centered(view)
    oracle = -Xc.T @ (Xc @ W - Y) / np.sum(Xc * Xc)
    assert np.allclose(ana, oracle, atol=1e-10)


def test_expected_step_matches_singular_expansion():
    # the analytic step equals -(1/||X||_F^2) sum_j s_j^2 v_j gamma_j^T
    # where gamma_j^T = v_j^T (W - W*)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 20))
    Y = rng.standard_normal((8, 2))
    view = build_centered_view(X)
    Xc = to_dense_centered(view)
    w_star = pinv_oracle(view, Y).matrix
    W = w_star + Xc.T @ rng.standard_normal((8, 2))  # perturb inside the row space
    _, ana, _ = expected_step_check(view, Y, W, m=1, rng=make_rng(4))
    U, s, Vt = np.linalg.svd(Xc, full_matrices=False)
    keep = s > max(Xc.shape) * np.finfo(float).eps * s[0]
    s, Vt = s[keep], Vt[keep]
    gamma = Vt @ (W - w_star)
    expansion = -(Vt.T * s**2) @ gamma / np.sum(Xc * Xc)
    assert np.allclose(ana, expansion, atol=1e-10)


def test_expected_step_deviation_scales_with_sqrt_m():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((10, 30))
    Y = rng.standard_normal((10, 2))
    view = build_centered_view(X)
    W = rng.standard_normal((30, 2))
    _, _, dev_small = expected_step_check(view, Y, W, m=100, rng=make_rng(21))
    _, _, dev_big = expected_step_check(view, Y, W, m=10_000, rng=make_rng(22))
    ratio = dev_small / dev_big
    assert 10.0 / 3.0 <= ratio <= 30.0


def test_study_consistent_bound_holds():
    rng = np.random.default_rng(17)
    view, Y, _ = planted_consistent(15, 60, 2, rng)
    config = SolverConfig(max_iters=400, seed=5, checkpoint_every=50)
    report = run_convergence_study(view, Y, trials=60, config=config)
    assert report.consistent
    assert report.relative_residual < 1e-10
    assert report.residual_floor == pytest.approx(0.0, abs=1e-12)
    for cp in report.checkpoints:
        assert cp.empirical_mse <= cp.bound + 3 * cp.std_error + 1e-12 * report.initial_sq_error
    assert report.checkpoints[0].empirical_mse == pytest.approx(report.initial_sq_error)


def test_study_consistent_at_a_dense_column_offset():
    # n < d, so the centered label system is consistent; R* taken through a
    # lazily centered X W* - mu^T W* would cancel to about 1e-10 here
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 120)) + 1e6
    Y = encode_labels(index_labels([str(i % 3) for i in range(40)]))
    report = run_convergence_study(build_centered_view(X), Y, trials=2,
                                   config=SolverConfig(max_iters=400, seed=1, checkpoint_every=200))
    assert report.consistent
    assert report.relative_residual < 1e-13
    assert report.residual_floor < 1e-10 * report.initial_sq_error


def test_study_inconsistent_plateau():
    rng = np.random.default_rng(19)
    view, Y = planted_inconsistent(20, 60, 2, rank=8, rng=rng)
    profile = condition_profile(view)
    iters = iterations_for_tolerance(0.05, 1.0, profile.kappa) * 3
    config = SolverConfig(max_iters=max(iters, 200), seed=9, checkpoint_every=max(iters // 8, 25))
    report = run_convergence_study(view, Y, trials=40, config=config)
    assert not report.consistent
    assert report.residual_floor > 0
    last = report.checkpoints[-1]
    assert last.empirical_mse <= report.residual_floor + 3 * last.std_error
    assert last.empirical_mse >= 0.0


def test_study_orthonormal_rows_coupon_collector():
    rng = np.random.default_rng(23)
    n, d = 12, 30
    rows, _ = np.linalg.qr(rng.standard_normal((d, n)))
    view = build_centered_view(rows.T, means=0.0)
    Y = rows.T @ rng.standard_normal((d, 2))  # consistent: full row rank
    K = int(np.ceil(6 * n * np.log(n)))
    report = run_convergence_study(
        view, Y, trials=50, config=SolverConfig(max_iters=K, seed=3, checkpoint_every=K)
    )
    eps0 = report.initial_sq_error
    assert report.checkpoints[-1].empirical_mse < 1e-20 * eps0


def test_study_with_labels_pipeline():
    rng = np.random.default_rng(29)
    toks = ["a", "b", "c"] * 8
    X = rng.standard_normal((24, 40))
    Y = encode_labels(index_labels(toks))
    view = build_centered_view(X)
    report = run_convergence_study(
        view, Y, trials=10, config=SolverConfig(max_iters=100, seed=1, checkpoint_every=50)
    )
    assert [cp.iteration for cp in report.checkpoints] == [0, 50, 100]
    assert report.trials == 10


def test_study_deterministic():
    rng = np.random.default_rng(31)
    view, Y, _ = planted_consistent(10, 30, 2, rng)
    cfg = SolverConfig(max_iters=120, seed=2, checkpoint_every=40)
    a = run_convergence_study(view, Y, trials=8, config=cfg)
    b = run_convergence_study(view, Y, trials=8, config=cfg)
    assert [c.empirical_mse for c in a.checkpoints] == [c.empirical_mse for c in b.checkpoints]


def svd_shapes(monkeypatch):
    """Patch np.linalg.svd to record the shape of each input; returns the
    list it appends to."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_study_takes_one_svd(monkeypatch):
    rng = np.random.default_rng(37)
    view, Y = planted_inconsistent(20, 50, 2, rank=8, rng=rng)
    view = build_centered_view(view.base)  # planted_inconsistent took its view's spectrum
    calls = svd_shapes(monkeypatch)
    profile = condition_profile(view)
    report = run_convergence_study(
        view, Y, trials=3, config=SolverConfig(max_iters=60, seed=4, checkpoint_every=30)
    )
    assert calls == [view.shape]  # the profile, W* and R* share the view's spectrum
    assert report.kappa == pytest.approx(profile.kappa, rel=1e-12)
    assert report.beta == pytest.approx(profile.beta, rel=1e-12)


@pytest.mark.parametrize("job", [
    "condition_profile", "pinv_oracle", "ulda_oracle", "run_convergence_study",
    "planted_inconsistent",
])
def test_each_spectrum_comes_from_one_centered_spectrum_call(monkeypatch, job):
    # one SVD of the n x d input per view: the job takes it on a fresh view,
    # and the job again and every other one on that view take none
    rng = np.random.default_rng(38)
    view, Y = planted_inconsistent(12, 30, 3, rank=6, rng=rng)
    view = build_centered_view(view.base)
    calls = svd_shapes(monkeypatch)
    runs = {
        "condition_profile": lambda v: condition_profile(v),
        "pinv_oracle": lambda v: pinv_oracle(v, Y),
        "ulda_oracle": lambda v: ulda_oracle(v, Y),
        "run_convergence_study": lambda v: run_convergence_study(
            v, Y, trials=2, config=SolverConfig(max_iters=30, seed=1)),
    }
    if job == "planted_inconsistent":
        view, Y = planted_inconsistent(12, 30, 3, rank=6, rng=rng)
    else:
        runs[job](view)
    assert calls.count(view.shape) == 1
    for run in runs.values():
        run(view)
    assert calls.count(view.shape) == 1

"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
enforces the criterion's runtime budget.  The two dataset-reference checks
at the end are gated on user-supplied data via environment variables and
skip by default.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rklda.baselines import pinv_oracle, principal_angles, solve_lsqr, ulda_oracle
from rklda.cli import dispatch
from rklda.diagnostics import (
    condition_profile,
    expected_step_check,
    iterations_for_tolerance,
    residual_at,
    run_convergence_study,
)
from rklda.evaluation import ExperimentConfig, run_experiment
from rklda.io import write_rkm1
from rklda.labels import encode_labels, index_labels
from rklda.matrix import build_centered_view, to_dense_centered
from rklda.rk import SolverConfig, make_rng, solve_rk
from rklda.scatter import scatter_matrices
from rklda.synthetic import planted_consistent, planted_inconsistent, two_gaussians


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {num:02d} {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < budget_s
    print(f"[acceptance] {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeded the {budget_s}s budget"


def test_c01_encoding_identity():
    with criterion(1, "encoding identity", budget_s=1.0):
        rng = np.random.default_rng(101)
        for _ in range(50):
            g = int(rng.integers(2, 11))
            n = int(rng.integers(g, 501))
            assign = rng.integers(0, g, size=n)
            assign[:g] = np.arange(g)  # every class present
            lv = index_labels([f"c{a}" for a in assign])
            Y = encode_labels(lv).matrix
            assert np.abs(Y.sum(axis=0)).max() <= 1e-10 * math.sqrt(n)
            counts = lv.counts.astype(float)
            member = np.sqrt(n / counts) - np.sqrt(counts / n)
            nonmember = -np.sqrt(counts / n)
            direct = np.tile(nonmember, (n, 1))
            direct[np.arange(n), lv.indices] = member[lv.indices]
            assert np.array_equal(Y, direct)


def test_c02_scatter_decomposition():
    with criterion(2, "scatter decomposition", budget_s=10.0):
        rng = np.random.default_rng(202)
        for _ in range(100):
            g = int(rng.integers(2, 6))
            n = int(rng.integers(g, 201))
            d = int(rng.integers(1, 51))
            assign = rng.integers(0, g, size=n)
            assign[:g] = np.arange(g)
            X = rng.normal(0, rng.uniform(0.5, 4.0), size=(n, d))
            lv = index_labels([f"c{a}" for a in assign])
            ss = scatter_matrices(X, lv)
            defect = np.linalg.norm(ss.s_t - ss.s_w - ss.s_b)
            assert defect <= 1e-10 * max(np.linalg.norm(ss.s_t), 1e-300)
            evals = np.linalg.eigvalsh(ss.s_b)
            tol = max(d, 1) * np.finfo(float).eps * max(evals.max(), 1e-300)
            assert int(np.sum(evals > tol)) <= g - 1


def test_c03_least_norm_agreement():
    with criterion(3, "least-norm agreement", budget_s=30.0):
        rng = np.random.default_rng(303)
        for trial in range(50):
            kind = trial % 4
            n = int(rng.integers(5, 60))
            d = int(rng.integers(5, 120))
            g = int(rng.integers(1, 4))
            if kind == 0:      # underdetermined, consistent after centering
                n = min(n, d - 1) if d > 5 else n
                X = rng.standard_normal((n, d))
            elif kind == 1:    # overdetermined, inconsistent
                n = max(n, d + 1)
                X = rng.standard_normal((n, d))
            elif kind == 2:    # rank-deficient, inconsistent
                r = max(1, min(n, d) // 2)
                X = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
            else:              # badly row-scaled
                X = rng.standard_normal((n, d)) * np.exp(rng.normal(0, 2, (n, 1)))
            Y = rng.standard_normal((n, g))
            view = build_centered_view(X)
            a = solve_lsqr(view, Y).matrix
            b = pinv_oracle(to_dense_centered(view), Y).matrix
            scale = max(np.linalg.norm(b), 1e-12)
            assert np.linalg.norm(a - b) <= 1e-6 * scale, f"trial {trial} kind {kind}"


def test_c04_rk_convergence_consistent():
    with criterion(4, "RK convergence on a consistent instance", budget_s=60.0):
        rng = np.random.default_rng(404)
        view, Y, _ = planted_consistent(40, 200, 3, rng)
        Xc = to_dense_centered(view)
        w_star = pinv_oracle(Xc, Y).matrix
        eps0 = float(np.linalg.norm(w_star) ** 2)
        kappa = condition_profile(Xc).kappa
        K = iterations_for_tolerance(1e-6 * eps0, eps0, kappa)
        seeds = [int(s.generate_state(1, dtype=np.uint64)[0])
                 for s in np.random.SeedSequence(40404).spawn(100)]
        hits = 0
        for seed in seeds:
            result = solve_rk(view, Y, SolverConfig(max_iters=K, seed=seed))
            if np.linalg.norm(result.W - w_star) ** 2 <= 1e-4 * eps0:
                hits += 1
        assert hits >= 95, f"only {hits}/100 trials reached the target error"


def test_c05_error_bound_and_floor():
    with criterion(5, "expected-error bound with residual floor", budget_s=300.0):
        rng = np.random.default_rng(505)

        view, Y, _ = planted_consistent(40, 200, 3, rng)
        kappa = condition_profile(to_dense_centered(view)).kappa
        eps0_scale = 1.0  # bound is relative; any scale works
        K = iterations_for_tolerance(1e-4 * eps0_scale, eps0_scale, kappa)
        report = run_convergence_study(
            view, Y, trials=200,
            config=SolverConfig(max_iters=K, seed=55, checkpoint_every=max(K // 12, 1)),
        )
        assert report.consistent
        for cp in report.checkpoints:
            slack = 3 * cp.std_error + 1e-12 * report.initial_sq_error
            assert cp.empirical_mse <= cp.bound + slack, f"k={cp.iteration}"

        view_i, Y_i = planted_inconsistent(40, 200, 3, rank=20, rng=rng)
        kappa_i = condition_profile(to_dense_centered(view_i)).kappa
        K_i = int(math.ceil(kappa_i * math.log(200.0))) * 2
        report_i = run_convergence_study(
            view_i, Y_i, trials=200,
            config=SolverConfig(max_iters=K_i, seed=56, checkpoint_every=max(K_i // 12, 1)),
        )
        assert not report_i.consistent
        assert report_i.residual_floor > 0
        for cp in report_i.checkpoints:
            slack = 3 * cp.std_error + 1e-12 * report_i.initial_sq_error
            assert cp.empirical_mse <= cp.bound + slack, f"k={cp.iteration}"
        last = report_i.checkpoints[-1]
        assert last.empirical_mse <= report_i.residual_floor + 3 * last.std_error
        assert last.empirical_mse >= 0.0


def test_c06_expected_step_identity():
    with criterion(6, "expected-step identity and sqrt(m) scaling", budget_s=30.0):
        rng = np.random.default_rng(606)
        X = rng.standard_normal((10, 30))
        Y = rng.standard_normal((10, 2))
        view = build_centered_view(X)
        W = rng.standard_normal((30, 2))

        # per-sample variance of one step, computed from dense oracle pieces
        Xc = to_dense_centered(view)
        R = Y - Xc @ W
        frob_sq = float(np.sum(Xc * Xc))
        analytic = Xc.T @ R / frob_sq
        second_moment = float(np.sum(R * R)) / frob_sq
        trace_cov = second_moment - float(np.sum(analytic * analytic))

        _, _, dev_big = expected_step_check(view, Y, W, m=10_000, rng=make_rng(61))
        predicted = math.sqrt(trace_cov / 10_000)
        assert dev_big <= 5.0 * predicted, f"{dev_big} vs predicted {predicted}"

        _, _, dev_small = expected_step_check(view, Y, W, m=100, rng=make_rng(62))
        ratio = dev_small / dev_big
        assert 10.0 / 3.0 <= ratio <= 30.0, f"deviation ratio {ratio}"


def test_c07_row_space_confinement():
    with criterion(7, "row-space confinement of traced iterates", budget_s=30.0):
        rng = np.random.default_rng(707)
        for _ in range(20):
            n = int(rng.integers(5, 20))
            d = int(rng.integers(n + 1, 60))
            g = int(rng.integers(1, 4))
            X = rng.standard_normal((n, d))
            Y = rng.standard_normal((n, g))
            view = build_centered_view(X)
            Xc = to_dense_centered(view)
            _, s, Vt = np.linalg.svd(Xc, full_matrices=False)
            V = Vt[s > max(Xc.shape) * np.finfo(float).eps * s[0]].T
            seen = []
            solve_rk(
                view, Y,
                SolverConfig(max_iters=200, seed=int(rng.integers(0, 2**32)),
                             checkpoint_every=25),
                on_checkpoint=lambda k, W, _: seen.append(W.copy()),
            )
            assert len(seen) == 9
            for Wk in seen:
                out = np.linalg.norm(Wk - V @ (V.T @ Wk))
                assert out <= 1e-8 * max(1.0, np.linalg.norm(Wk))


def test_c08_subspace_equivalence():
    with criterion(8, "least-norm / eigenvector subspace equivalence", budget_s=30.0):
        rng = np.random.default_rng(808)
        for _ in range(20):
            g = int(rng.integers(2, 6))
            n = int(rng.integers(g + 2, 24))
            d = n + int(rng.integers(2, 40))
            assign = rng.integers(0, g, size=n)
            assign[:g] = np.arange(g)
            X = rng.standard_normal((n, d))  # rows independent w.p. 1
            lv = index_labels([f"c{a}" for a in assign])
            Y = encode_labels(lv)
            w_ln = pinv_oracle(to_dense_centered(build_centered_view(X)), Y)
            g_u = ulda_oracle(X, lv)
            angles = principal_angles(w_ln, g_u)
            assert np.all(angles < 1e-8), f"angles {angles}"


def test_c09_end_to_end_classification():
    with criterion(9, "end-to-end classification on separated Gaussians", budget_s=120.0):
        X, y = two_gaussians(n=200, d=50, separation=5.0, rng=np.random.default_rng(909))
        tokens = [f"c{t}" for t in y]
        # the 140x50 training systems are overdetermined and inconsistent, so
        # the raw final iterate wanders inside the residual floor; averaging
        # the post-burn-in iterates recovers the least-norm target
        config = ExperimentConfig(
            methods=("rk", "lsqr", "pinv"),
            replicates=30,
            train_fraction=0.7,
            knn_ks=(5,),
            seed=90909,
            rk_iters=8000,
            rk_tail_average=0.5,
            timing="none",
        )
        report = run_experiment(X, tokens, config)
        medians = {
            m: report.methods[m]["per_k"]["5"]["accuracy_median"]
            for m in ("rk", "lsqr", "pinv")
        }
        for method, med in medians.items():
            assert med >= 0.95, f"{method} median accuracy {med}"
        assert abs(medians["rk"] - medians["lsqr"]) <= 0.02, medians


def test_c10_experiment_determinism(tmp_path):
    with criterion(10, "byte-identical reports under a fixed seed", budget_s=120.0):
        X, y = two_gaussians(n=80, d=12, rng=np.random.default_rng(10))
        data = tmp_path / "X.rkm1"
        labels = tmp_path / "y.txt"
        write_rkm1(data, X)
        labels.write_text("".join(f"c{t}\n" for t in y))

        def run(tag: str, timing: str) -> tuple[bytes, bytes]:
            out = tmp_path / f"report_{tag}.json"
            csv_out = tmp_path / f"rows_{tag}.csv"
            code = dispatch([
                "experiment", "--data", str(data), "--labels", str(labels),
                "--methods", "full,rk,lsqr", "--replicates", "5",
                "--train-frac", "0.7", "--knn", "1,5", "--seed", "1234",
                "--rk-iters", "400", "--timing", timing,
                "--out", str(out), "--csv-out", str(csv_out),
            ])
            assert code == 0
            return out.read_bytes(), csv_out.read_bytes()

        a = run("a", "none")
        b = run("b", "none")
        assert a == b, "reports with timing disabled must be byte-identical"

        # with wall-clock timing enabled, everything except the measured
        # seconds is still identical
        wa = run("wa", "wall")
        wb = run("wb", "wall")

        def mask_json(raw: bytes) -> dict:
            payload = json.loads(raw)
            for row in payload["rows"]:
                row[4] = None
            for m in payload["methods"].values():
                for phase in ("fit", "project", "knn"):
                    m[f"{phase}_seconds_median"] = None
                for stats in m["per_k"].values():
                    stats["seconds_median"] = None
                    stats["seconds_std"] = None
            return payload

        def mask_csv(raw: bytes) -> list[str]:
            lines = raw.decode().splitlines()
            return [",".join(line.split(",")[:4]) for line in lines]

        assert mask_json(wa[0]) == mask_json(wb[0])
        assert mask_csv(wa[1]) == mask_csv(wb[1])


NEWSGROUPS_ENV = "RKLDA_NEWSGROUPS_DIR"
OASIS_ENV = "RKLDA_OASIS_DIR"


@pytest.mark.skipif(NEWSGROUPS_ENV not in os.environ,
                    reason=f"set {NEWSGROUPS_ENV} to a directory with data.mtx + labels.txt")
def test_c11a_newsgroups_residual_reference():
    """Reference-only: relative residual at the least-norm solution over 10
    training draws has median near 0.11 (sd near 0.01) on the TF-IDF data."""
    from rklda.evaluation import split
    from rklda.io import load_matrix, read_labels_file

    root = os.environ[NEWSGROUPS_ENV]
    X, _ = load_matrix(os.path.join(root, "data.mtx"))
    tokens = read_labels_file(os.path.join(root, "labels.txt"))
    lv_all = index_labels(tokens)
    rels = []
    rng = make_rng(2011)
    for _ in range(10):
        train, _test = split(X.shape[0], 0.7, rng, labels=lv_all.indices)
        Xtr = X[train]
        lv = index_labels([tokens[i] for i in train])
        Y = encode_labels(lv)
        view = build_centered_view(Xtr)
        W = solve_lsqr(view, Y, tol=1e-8)
        _, rel = residual_at(W.matrix, view, Y)
        rels.append(rel)
    med, sd = float(np.median(rels)), float(np.std(rels, ddof=1))
    print(f"[acceptance] 11a newsgroups relative residual: median={med:.3f} sd={sd:.3f}")
    assert 0.08 <= med <= 0.14
    assert sd <= 0.03


@pytest.mark.skipif(OASIS_ENV not in os.environ,
                    reason=f"set {OASIS_ENV} to a directory with data.rkm1 + labels.txt")
def test_c11b_oasis_knn_reference():
    """Reference-only: kNN-10 accuracy of the randomized solver's subspace
    lands near 0.82 +/- 0.05 on the MRI feature matrix."""
    from rklda.io import load_matrix, read_labels_file

    root = os.environ[OASIS_ENV]
    X, _ = load_matrix(os.path.join(root, "data.rkm1"))
    tokens = read_labels_file(os.path.join(root, "labels.txt"))
    config = ExperimentConfig(methods=("rk",), replicates=10, knn_ks=(10,),
                              seed=2012, timing="none")
    report = run_experiment(X, tokens, config)
    med = report.methods["rk"]["per_k"]["10"]["accuracy_median"]
    print(f"[acceptance] 11b oasis kNN-10 median accuracy: {med:.3f}")
    assert 0.77 <= med <= 0.87

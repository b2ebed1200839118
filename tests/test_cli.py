import gzip
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from helpers import two_gaussians
from rklda.baselines import Subspace, principal_angles
from rklda.cli import STATUS_FIELDS, dispatch
from rklda.evaluation import fit_subspace
from rklda.io import read_rkm1, write_rkm1
from rklda.labels import encode_labels, index_labels
from rklda.matrix import build_centered_view
from rklda.rk import SolverConfig


@pytest.fixture()
def dataset(tmp_path):
    X, y = two_gaussians(n=40, d=6, rng=np.random.default_rng(0))
    data = tmp_path / "X.rkm1"
    labels = tmp_path / "y.txt"
    write_rkm1(data, X)
    labels.write_text("".join(f"c{t}\n" for t in y))
    return data, labels, X, y


def test_solve_rk_happy_path(dataset, tmp_path):
    data, labels, X, y = dataset
    out = tmp_path / "W.rkm1"
    code = dispatch([
        "solve", "--method", "rk", "--data", str(data), "--labels", str(labels),
        "--iters", "500", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    W = read_rkm1(out)
    assert W.shape == (6, 2)
    manifest = json.loads((tmp_path / "W.rkm1.manifest.json").read_text())
    assert manifest["subcommand"] == "solve"
    assert manifest["seed"] == 7
    assert str(data) in manifest["inputs"]
    assert len(manifest["inputs"][str(data)]) == 16
    assert str(out) in manifest["outputs"]
    assert manifest["iterations_run"] == 500
    assert manifest["excluded_rows"] == 0


def test_solve_manifest_counts_excluded_rows(tmp_path):
    X = np.array([[0.0, 1.0], [2.0, 1.0], [1.0, 1.0], [1.0, 3.0], [1.0, -1.0]])
    data, labels, out = tmp_path / "X.rkm1", tmp_path / "y.txt", tmp_path / "W.rkm1"
    write_rkm1(data, X)  # row 2 equals the column means
    labels.write_text("a\na\nb\nb\nb\n")
    assert dispatch(["solve", "--method", "rk", "--data", str(data), "--labels", str(labels),
                     "--iters", "40", "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "W.rkm1.manifest.json").read_text())
    assert manifest["iterations_run"] == 40
    assert manifest["excluded_rows"] == 1


def test_solve_missing_labels_usage_error(dataset, tmp_path, capsys):
    data, _, _, _ = dataset
    code = dispatch(["solve", "--method", "rk", "--data", str(data),
                     "--out", str(tmp_path / "W.rkm1")])
    assert code == 1
    assert "labels" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "rk"],
    ["scatter"],
    ["diagnose", "--trials", "2", "--iters", "10"],
    ["experiment"],
    ["encode"],
], ids=["solve", "scatter", "diagnose", "experiment", "encode"])
def test_missing_label_source_refused_before_any_input_is_read(tmp_path, capsys, monkeypatch,
                                                               argv):
    # neither --labels nor --label-column: a usage error from the flags
    # alone, so the missing --data file is never opened
    import rklda.cli as cli

    monkeypatch.setattr(cli, "load_matrix", lambda *a, **k: pytest.fail("input was read"))
    code = dispatch([*argv, "--data", str(tmp_path / "X.csv"), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "labels required" in err and f"usage: rklda {argv[0]} " in err
    assert not any(tmp_path.iterdir())  # nothing written


def test_unknown_flag_usage_error(dataset, tmp_path, capsys):
    data, labels, _, _ = dataset
    io = ["--data", str(data), "--labels", str(labels), "--out", str(tmp_path / "W.rkm1")]
    # unknown flags (no subcommand takes --rank-tol, --format or --pre-centered)
    # and a refused flag value
    for argv in (["solve", "--method", "rk", *io, "--bogus-flag", "1"],
                 ["solve", "--method", "pinv", *io, "--rank-tol", "1e-8"],
                 ["solve", "--method", "rk", "--format", "rkm1", *io],
                 ["solve", "--method", "rk", *io, "--pre-centered"],
                 ["diagnose", "--trials", "2", "--iters", "10", *io, "--pre-centered"],
                 ["diagnose", "--trials", "2", "--iters", "10", *io, "--checkpoint-every", "-1"],
                 ["experiment", *io, "--knn", "1,x"],
                 ["experiment", *io, "--knn", "1.5"]):
        code = dispatch(argv)
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage: rklda {argv[0]} " in err  # the failing subcommand's usage
    assert sorted(tmp_path.iterdir()) == sorted([data, labels])  # nothing written


@pytest.mark.parametrize("trace_name", ["missing/t.csv", "a_directory"])
def test_unwritable_output_writes_nothing(dataset, tmp_path, capsys, trace_name):
    data, labels, _, _ = dataset
    (tmp_path / "a_directory").mkdir()
    before = sorted(tmp_path.iterdir())
    trace = tmp_path / trace_name
    code = dispatch(["solve", "--method", "rk", "--data", str(data), "--labels", str(labels),
                     "--means-out", str(tmp_path / "mu.rkm1"), "--checkpoint-every", "100",
                     "--trace-out", str(trace), "--out", str(tmp_path / "W.rkm1")])
    assert code == 2
    assert str(trace) + "'" in capsys.readouterr().err  # the output path, not a temp file
    assert sorted(tmp_path.iterdir()) == before  # no output, manifest or temp file
    assert not any((tmp_path / "a_directory").iterdir())


@pytest.mark.parametrize("case", ["means-out", "trace-out", "csv-out", "manifest"])
def test_two_outputs_on_one_path_usage_error(dataset, tmp_path, capsys, case):
    data, labels, _, _ = dataset
    io = ["--data", str(data), "--labels", str(labels)]
    out = str(tmp_path / "W.rkm1")
    argv = {
        # the same path in another spelling
        "means-out": ["solve", "--method", "rk", *io, "--means-out", f"{tmp_path}/./W.rkm1"],
        "trace-out": ["solve", "--method", "rk", *io, "--checkpoint-every", "50",
                      "--trace-out", out],
        "csv-out": ["experiment", *io, "--replicates", "2", "--csv-out", out],
        "manifest": ["solve", "--method", "rk", *io, "--means-out", out + ".manifest.json"],
    }[case]
    assert dispatch([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "two outputs share the path" in err and "W.rkm1" in err
    assert f"usage: rklda {argv[0]} " in err
    assert sorted(tmp_path.iterdir()) == sorted([data, labels])  # nothing written


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "rk", "--iters", "3000000", "--means-out", "W.rkm1", "--out", "W.rkm1"],
    ["experiment", "--out", "r.csv"],
    ["diagnose", "--trials", "2", "--iters", "10", "--out", "d.csv"],
    ["encode", "--classes-out", "y.rkm1", "--out", "y.rkm1"],
], ids=["solve-means-out", "experiment-default-csv", "diagnose-default-csv", "encode"])
def test_shared_output_path_refused_before_any_input_is_read(dataset, tmp_path, capsys,
                                                             monkeypatch, argv):
    import rklda.cli as cli

    for loader in ("load_matrix", "read_labels_file"):
        monkeypatch.setattr(cli, loader, lambda *a, **k: pytest.fail("input was read"))
    data, labels, _, _ = dataset
    argv = [str(tmp_path / a) if "." in a else a for a in argv]
    assert dispatch([*argv, "--data", str(data), "--labels", str(labels)]) == 1
    assert "two outputs share the path" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([data, labels])  # nothing written


@pytest.mark.parametrize("argv", [
    ["transform", "--means", "mu.rkm1"],
    ["transform", "--no-center"],
    ["scatter"],
    ["scatter", "--traces-only"],
], ids=["transform-means", "transform-no-center", "scatter", "scatter-traces-only"])
def test_non_finite_data_is_data_error(tmp_path, capsys, argv):
    data = tmp_path / "X.csv"
    data.write_text("1,2\n3,nan\n5,6\n7,9\n")
    labels = tmp_path / "y.txt"
    labels.write_text("a\nb\na\nb\n")
    write_rkm1(tmp_path / "W.rkm1", np.eye(2))
    write_rkm1(tmp_path / "mu.rkm1", np.zeros((1, 2)))
    before = sorted(tmp_path.iterdir())
    argv = [str(tmp_path / a) if a.endswith(".rkm1") else a for a in argv]
    code = dispatch([*argv, "--data", str(data), "--out", str(tmp_path / "out"),
                     *(["--labels", str(labels)] if argv[0] == "scatter"
                       else ["--subspace", str(tmp_path / "W.rkm1")])])
    assert code == 2
    assert "matrix contains non-finite entries" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before  # nothing written


@pytest.mark.parametrize("argv", [
    ["solve", "--method", "rk"],
    ["solve", "--method", "lsqr"],
    ["solve", "--method", "pinv"],
    ["diagnose", "--trials", "1", "--iters", "10"],
    ["experiment", "--replicates", "1"],
], ids=["rk", "lsqr", "pinv", "diagnose", "experiment"])
def test_overflowing_centered_norms_are_data_error(tmp_path, capsys, argv):
    # finite entries whose squares pass the float64 range: the view refuses
    # them, before a sampler sees NaN probabilities; ten such rows of 30
    # leave some in any 70% training split
    X = np.random.default_rng(2).standard_normal((30, 3))
    X[::3, 1] = 1e193
    write_rkm1(tmp_path / "X.rkm1", X)
    (tmp_path / "y.txt").write_text("a\nb\nc\n" * 10)
    before = sorted(tmp_path.iterdir())
    code = dispatch([*argv, "--data", str(tmp_path / "X.rkm1"),
                     "--labels", str(tmp_path / "y.txt"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "centered row norms overflow" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before  # nothing written


@pytest.mark.parametrize("argv", [["--no-center"], ["--means", "mu.rkm1"]],
                         ids=["nan-subspace", "inf-means"])
def test_non_finite_subspace_or_means_is_data_error(tmp_path, capsys, argv):
    data = tmp_path / "X.csv"
    data.write_text("1,2,3\n4,5,6\n7,8,10\n1,0,2\n")
    W, mu = np.ones((3, 1)), np.zeros((1, 3))
    if argv[0] == "--no-center":
        W[1, 0] = np.nan
    else:
        mu[0, 2] = np.inf
    write_rkm1(tmp_path / "W.rkm1", W)
    write_rkm1(tmp_path / "mu.rkm1", mu)
    before = sorted(tmp_path.iterdir())
    argv = [str(tmp_path / a) if a.endswith(".rkm1") else a for a in argv]
    code = dispatch(["transform", *argv, "--data", str(data),
                     "--subspace", str(tmp_path / "W.rkm1"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "matrix contains non-finite entries" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before  # nothing written


@pytest.mark.parametrize("argv, code, refusal", [
    (["experiment", "--replicates", "0"], 1, "--replicates: must be >= 1, got 0"),
    (["experiment", "--methods", "rk", "--rk-iters", "0"], 1, "--rk-iters: must be >= 1, got 0"),
    (["experiment", "--knn", "0"], 2, "every kNN k must be >= 1"),
    (["diagnose", "--trials", "2", "--iters", "0"], 1, "--iters: must be >= 1, got 0"),
    (["diagnose", "--trials", "0", "--iters", "10"], 1, "--trials: must be >= 1, got 0"),
    (["solve", "--method", "rk", "--iters", "0"], 1, "--iters: must be >= 1, got 0"),
    (["solve", "--method", "lsqr", "--max-iters", "0"], 1, "--max-iters: must be >= 1, got 0"),
    (["solve", "--method", "lsqr", "--max-iters", "-5"], 1, "--max-iters: must be >= 1, got -5"),
    (["experiment", "--rk-tail-average", "1.5"], 2,
     "tail_average burn-in fraction must be in [0, 1), got 1.5"),
    (["experiment", "--lsqr-tol", "-1"], 2, "lsqr tol must be finite and >= 0, got -1.0"),
    (["solve", "--method", "rk", "--tail-average", "1.5"], 2,
     "tail_average burn-in fraction must be in [0, 1), got 1.5"),
    (["solve", "--method", "lsqr", "--tol", "nan"], 2, "lsqr tol must be finite and >= 0, got nan"),
    (["solve", "--method", "rk", "--iters-from-kappa", "0", "1", "10"], 2,
     "tolerances must be positive"),
], ids=["experiment-replicates-0", "experiment-rk-iters-0", "experiment-knn-0",
        "diagnose-iters-0", "diagnose-trials-0", "solve-iters-0", "solve-max-iters-0",
        "solve-max-iters-negative", "experiment-tail-average", "experiment-lsqr-tol-negative",
        "solve-tail-average", "solve-tol-nan", "solve-iters-from-kappa-eps-0"])
def test_settings_refused_before_any_input_is_read(tmp_path, capsys, monkeypatch, argv, code,
                                                   refusal):
    # the input does not exist, so a run that reads it first reports the
    # file; a count below 1 is a usage error (exit 1), another setting that
    # the library refuses a data error (exit 2)
    import rklda.cli as cli

    for loader in ("load_matrix", "read_labels_file"):
        monkeypatch.setattr(cli, loader, lambda *a, **k: pytest.fail("input was read"))
    assert dispatch([*argv, "--data", str(tmp_path / "X.csv"), "--labels",
                     str(tmp_path / "y.txt"), "--out", str(tmp_path / "out.json")]) == code
    assert refusal in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # nothing written


@pytest.mark.parametrize("subcommand", [
    ["solve", "--method", "rk"],
    ["diagnose", "--trials", "2", "--iters", "10"],
    ["experiment", "--replicates", "2"],
], ids=["solve", "diagnose", "experiment"])
def test_negative_seed_usage_error(dataset, tmp_path, capsys, subcommand):
    data, labels, _, _ = dataset
    code = dispatch([*subcommand, "--data", str(data), "--labels", str(labels),
                     "--seed", "-1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"usage: rklda {subcommand[0]} " in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([data, labels])  # nothing written


@pytest.mark.parametrize("flags", [
    ["solve", "--method", "lsqr", "--tol", "nan"],
    ["solve", "--method", "lsqr", "--tol", "-1"],
    ["experiment", "--methods", "lsqr", "--replicates", "2", "--lsqr-tol", "nan"],
], ids=["tol-nan", "tol-negative", "experiment-tol-nan"])
def test_lsqr_cap_or_tolerance_that_does_nothing_is_data_error(dataset, tmp_path, capsys,
                                                                flags):
    data, labels, _, _ = dataset
    code = dispatch([*flags, "--data", str(data), "--labels", str(labels),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "InvalidData: lsqr " in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([data, labels])  # nothing written


@pytest.mark.parametrize("seed", range(6))
def test_experiment_refuses_a_non_finite_test_row(tmp_path, capsys, seed):
    # the whole input passes validate_raw, not only each replicate's
    # training rows, so the split that puts row 5 in the test set fails too
    X, y = two_gaussians(n=40, d=6, rng=np.random.default_rng(0))
    X[5, 3] = np.nan
    write_rkm1(tmp_path / "X.rkm1", X)
    (tmp_path / "y.txt").write_text("".join(f"c{t}\n" for t in y))
    before = sorted(tmp_path.iterdir())
    code = dispatch(["experiment", "--data", str(tmp_path / "X.rkm1"),
                     "--labels", str(tmp_path / "y.txt"), "--methods", "full,rk,lsqr",
                     "--replicates", "1", "--rk-iters", "500", "--seed", str(seed),
                     "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert "matrix contains non-finite entries" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before  # nothing written


def test_manifest_digests_match_files(dataset, tmp_path):
    data, labels, _, _ = dataset
    io = ["--data", str(data), "--labels", str(labels)]
    commands = {
        "W.rkm1": ["solve", "--method", "rk", *io, "--iters", "200", "--checkpoint-every", "50",
                   "--trace-out", str(tmp_path / "t.csv"), "--means-out", str(tmp_path / "mu.rkm1")],
        "report.json": ["experiment", *io, "--replicates", "2", "--timing", "none"],
        "diagnose.json": ["diagnose", *io, "--trials", "2", "--iters", "40"],
        "Y.rkm1": ["encode", "--labels", str(labels), "--classes-out", str(tmp_path / "c.json")],
    }
    expected = {"W.rkm1": {"W.rkm1", "t.csv", "mu.rkm1"},
                "report.json": {"report.json", "report.csv"},
                "diagnose.json": {"diagnose.json", "diagnose.csv"},
                "Y.rkm1": {"Y.rkm1", "c.json"}}
    for out, argv in commands.items():
        assert dispatch([*argv, "--out", str(tmp_path / out)]) == 0
        manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
        assert {p.rsplit("/", 1)[-1] for p in manifest["outputs"]} == expected[out]
        for path, digest in manifest["outputs"].items():
            with open(path, "rb") as fh:
                assert digest == hashlib.sha256(fh.read()).hexdigest()[:16]


def test_single_class_data_error(dataset, tmp_path, capsys):
    data, _, _, _ = dataset
    labels = tmp_path / "one.txt"
    labels.write_text("same\n" * 40)
    code = dispatch(["solve", "--method", "rk", "--data", str(data),
                     "--labels", str(labels), "--out", str(tmp_path / "W.rkm1")])
    assert code == 2
    assert "DegenerateLabels" in capsys.readouterr().err
    assert not (tmp_path / "W.rkm1").exists()


def test_solve_all_methods_agree_on_consistent(dataset, tmp_path):
    data, labels, X, y = dataset
    lv = index_labels([f"c{t}" for t in y])
    view, Y = build_centered_view(X), encode_labels(lv)
    status = {"rk": {"iterations_run": 20000, "excluded_rows": 0},
              "lsqr": {"converged": True}, "pinv": {}, "ulda": {}}
    outs = {}
    for method in ("rk", "lsqr", "pinv", "ulda"):
        out = tmp_path / f"W_{method}.rkm1"
        argv = ["solve", "--method", method, "--data", str(data),
                "--labels", str(labels), "--out", str(out), "--seed", "1"]
        if method == "rk":
            argv += ["--iters", "20000"]
        assert dispatch(argv) == 0
        outs[method] = read_rkm1(out)
        # the CLI is fit_subspace plus file output
        direct = fit_subspace(method, view, Y, rk=SolverConfig(max_iters=20000, seed=1))
        assert np.array_equal(outs[method], direct.matrix)
        manifest = json.loads((tmp_path / f"W_{method}.rkm1.manifest.json").read_text())
        if method == "lsqr":
            assert direct.iterations_run > 0
            status["lsqr"]["iterations_run"] = direct.iterations_run
        assert {f: manifest[f] for f in STATUS_FIELDS if f in manifest} == status[method]
    # n=40 > d=6: overdetermined; lsqr and pinv agree tightly
    assert np.allclose(outs["lsqr"], outs["pinv"], atol=1e-8)
    # two classes: ULDA's one direction spans the same line as the
    # least-squares solution's column difference
    angles = principal_angles(Subspace(outs["ulda"], "ULDA"),
                              Subspace(outs["pinv"] @ [[1.0], [-1.0]], "PINV"))
    assert angles.max() < 1e-6


def test_encode_subcommand(dataset, tmp_path):
    _, labels, _, y = dataset
    out = tmp_path / "Y.rkm1"
    classes = tmp_path / "classes.json"
    assert dispatch(["encode", "--labels", str(labels), "--out", str(out),
                     "--classes-out", str(classes)]) == 0
    Y = read_rkm1(out)
    expected = encode_labels(index_labels([f"c{t}" for t in y])).matrix
    assert np.array_equal(Y, expected)
    meta = json.loads(classes.read_text())
    assert meta["classes"] == ["c0", "c1"]
    assert sum(meta["counts"]) == 40


def test_encode_labels_from_a_csv_label_column(tmp_path):
    csv, out = tmp_path / "X.csv", tmp_path / "Y.rkm1"
    csv.write_text("1,a,2\n3,b,4\n5,a,6\n")
    assert dispatch(["encode", "--data", str(csv), "--label-column", "1",
                     "--out", str(out)]) == 0
    assert np.array_equal(read_rkm1(out), encode_labels(index_labels(["a", "b", "a"])).matrix)


def test_transform_roundtrip(dataset, tmp_path):
    data, labels, X, _ = dataset
    W_path = tmp_path / "W.rkm1"
    means_path = tmp_path / "mu.rkm1"
    assert dispatch(["solve", "--method", "pinv", "--data", str(data),
                     "--labels", str(labels), "--out", str(W_path),
                     "--means-out", str(means_path)]) == 0
    Z_path = tmp_path / "Z.rkm1"
    assert dispatch(["transform", "--data", str(data), "--subspace", str(W_path),
                     "--means", str(means_path), "--out", str(Z_path)]) == 0
    Z = read_rkm1(Z_path)
    W = read_rkm1(W_path)
    mu = read_rkm1(means_path).reshape(-1)
    assert np.allclose(Z, (X - mu) @ W)


def test_transform_centers_at_the_data_means_by_default(dataset, tmp_path):
    data, _, X, _ = dataset
    W_path, out = tmp_path / "W.rkm1", tmp_path / "Z.rkm1"
    W = np.random.default_rng(1).standard_normal((6, 2))
    write_rkm1(W_path, W)
    assert dispatch(["transform", "--data", str(data), "--subspace", str(W_path),
                     "--out", str(out)]) == 0
    assert np.allclose(read_rkm1(out), (X - X.mean(axis=0)) @ W)


@pytest.mark.parametrize("case", ["means-length", "subspace-rows"])
def test_transform_shape_mismatch_is_data_error(dataset, tmp_path, capsys, case):
    data, labels, _, _ = dataset
    W_path, mu_path, out = tmp_path / "W.rkm1", tmp_path / "mu.rkm1", tmp_path / "Z.rkm1"
    write_rkm1(W_path, np.ones((6 if case == "means-length" else 5, 2)))
    write_rkm1(mu_path, np.zeros(5 if case == "means-length" else 6))
    code = dispatch(["transform", "--data", str(data), "--subspace", str(W_path),
                     "--means", str(mu_path), "--out", str(out)])
    assert code == 2
    want = {"means-length": "means length 5 vs 6 columns",
            "subspace-rows": "subspace rows 5 vs 6 data columns"}[case]
    assert want in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([data, labels, W_path, mu_path])  # nothing written


@pytest.mark.parametrize("conflict", ["iters-and-kappa", "no-center-and-means"])
def test_conflicting_flags_usage_error(dataset, tmp_path, capsys, conflict):
    data, labels, _, _ = dataset
    argv = {
        "iters-and-kappa": ["solve", "--method", "rk", "--labels", str(labels),
                            "--iters", "5", "--iters-from-kappa", "0.01", "1", "10"],
        "no-center-and-means": ["transform", "--subspace", str(data),
                                "--no-center", "--means", str(data)],
    }[conflict]
    code = dispatch([*argv, "--data", str(data), "--out", str(tmp_path / "out.rkm1")])
    assert code == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([data, labels])  # nothing written


@pytest.mark.parametrize("bad", [
    "data", "gzip-data", "labels", "empty-csv", "header-only-csv", "unknown-label-column",
    "label-column-out-of-range", "ragged-rows", "bad-matrix-market", "empty-labels",
    "label-column-on-rkm1",
])
def test_undecodable_text_is_data_error(dataset, tmp_path, capsys, bad):
    # an input that cannot be read as its flags say is a data error that
    # names the file and writes nothing
    data, labels, _, _ = dataset
    junk = tmp_path / "junk.bin"
    not_utf8 = b"\xff\xfe" + bytes(range(98))  # neither RKM1, MM nor UTF-8
    as_data, as_labels = ["--data", junk, "--labels", labels], ["--data", data, "--labels", junk]
    contents, flags, refusal = {
        "data": (not_utf8, as_data, "not UTF-8 text"),
        # a compressed Matrix Market file is not read as one
        "gzip-data": (gzip.compress(b"%%MatrixMarket matrix coordinate real general\n"),
                      as_data, "not UTF-8 text"),
        "labels": (not_utf8, as_labels, "not UTF-8 text"),
        "empty-csv": (b"", as_data, "empty CSV"),
        "header-only-csv": (b"a,b\n", [*as_data, "--csv-header"],
                            "CSV has a header but no data rows"),
        "unknown-label-column": (b"a,b\n1,x\n", ["--data", junk, "--csv-header",
                                                 "--label-column", "c"], "no column named 'c'"),
        "label-column-out-of-range": (b"1,x\n2,y\n", ["--data", junk, "--label-column", "2"],
                                      "label column 2 out of range"),
        "ragged-rows": (b"1,2\n3\n", as_data, "ragged rows"),
        "bad-matrix-market": (b"%%MatrixMarket matrix coordinate real general\nno size line\n",
                              as_data, "failed to parse Matrix Market file"),
        "empty-labels": (b"", as_labels, "empty label file"),
        "label-column-on-rkm1": (data.read_bytes(), ["--data", junk, "--label-column", "0"],
                                 "--label-column needs CSV data"),
    }[bad]
    junk.write_bytes(contents)
    code = dispatch(["solve", "--method", "rk", *map(str, flags),
                     "--out", str(tmp_path / "W.rkm1")])
    assert code == 2
    assert f"{junk}: {refusal}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([data, labels, junk])  # nothing written


def test_transform_csv_with_label_column(tmp_path):
    # a labeled CSV must be transformable by dropping the label column
    csv = tmp_path / "data.csv"
    csv.write_text("a,b,cls\n1,2,x\n3,4,y\n5,6,x\n")
    W_path = tmp_path / "W.rkm1"
    write_rkm1(W_path, np.eye(2))
    out = tmp_path / "Z.rkm1"
    assert dispatch(["transform", "--data", str(csv), "--csv-header",
                     "--label-column", "cls", "--subspace", str(W_path),
                     "--no-center", "--out", str(out)]) == 0
    assert np.array_equal(read_rkm1(out), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_scatter_subcommand(dataset, tmp_path):
    data, labels, X, y = dataset
    out = tmp_path / "scatter.json"
    assert dispatch(["scatter", "--data", str(data), "--labels", str(labels),
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    s_w = np.array(payload["s_w"])
    s_b = np.array(payload["s_b"])
    s_t = np.array(payload["s_t"])
    assert np.allclose(s_t, s_w + s_b, atol=1e-10)
    assert payload["trace_w"] == pytest.approx(np.trace(s_w))

    traces = tmp_path / "traces.json"
    assert dispatch(["scatter", "--data", str(data), "--labels", str(labels),
                     "--traces-only", "--out", str(traces)]) == 0
    tr = json.loads(traces.read_text())
    assert "s_w" not in tr
    assert tr["trace_t"] == pytest.approx(tr["trace_w"] + tr["trace_b"])


@pytest.mark.parametrize("traces_only", [False, True], ids=["matrices", "traces-only"])
def test_scatter_validates_and_forms_centroids_once(dataset, tmp_path, monkeypatch,
                                                    traces_only):
    import rklda.scatter as scatter

    data, labels, _, _ = dataset
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    for name in ("validate_raw", "_centroids"):  # _centroids forms the indicator product
        monkeypatch.setattr(scatter, name, counted(name, getattr(scatter, name)))
    assert dispatch(["scatter", "--data", str(data), "--labels", str(labels),
                     "--out", str(tmp_path / "s.json"),
                     *(["--traces-only"] if traces_only else [])]) == 0
    assert sorted(calls) == ["_centroids", "validate_raw"]


def test_scatter_without_out_prints_and_writes_nothing(dataset, tmp_path, capsys):
    data, labels, X, _ = dataset
    assert dispatch(["scatter", "--data", str(data), "--labels", str(labels),
                     "--traces-only"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["n"], payload["d"], payload["g"]) == (40, 6, 2)
    assert payload["trace_t"] == pytest.approx(np.sum((X - X.mean(axis=0)) ** 2) / 40)
    assert sorted(tmp_path.iterdir()) == sorted([data, labels])  # no manifest either


def test_scatter_sparse_dense_guard(tmp_path, capsys):
    # 10 x 2,000,000: the three 2,000,000-square matrices (1.2e13 elements)
    # are refused from the shape, before the data is densified; the traces
    # come from the stored entries
    data = tmp_path / "X.mtx"
    labels = tmp_path / "y.txt"
    scipy.io.mmwrite(str(data), sp.csr_array(
        (np.ones(10), (np.arange(10), np.arange(10) * 1000)), shape=(10, 2_000_000)))
    labels.write_text("a\nb\n" * 5)
    argv = ["scatter", "--data", str(data), "--labels", str(labels),
            "--out", str(tmp_path / "s.json")]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "TooLarge" in err and "12000000000000 elements" in err
    assert not (tmp_path / "s.json").exists()
    assert dispatch([*argv, "--traces-only"]) == 0
    out = json.loads((tmp_path / "s.json").read_text())
    # ten unit entries in distinct columns: each class centroid holds five
    # entries of 1/5, so trace S_w = (10 - 2 * 5 * 5/25) / 10 and the
    # centroids sit 1/10 from the grand mean in each of the ten columns
    assert out["trace_w"] == pytest.approx(0.8)
    assert out["trace_b"] == pytest.approx(0.1)


def test_ulda_on_wide_sparse_input(tmp_path):
    # 60 x 1500: the dense copy (9e4 elements) is within the dense guard, and
    # ULDA's thin-SVD route serves this d > n shape as pinv does, forming no
    # d x d scatter matrix
    rng = np.random.default_rng(12)
    n, d, g = 60, 1500, 4
    assign = np.arange(n) % g
    X = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.02)
    X[np.arange(n), 10 * assign] += 1.0  # one marker column per class
    data, labels = tmp_path / "X.mtx", tmp_path / "y.txt"
    scipy.io.mmwrite(str(data), sp.csr_array(X), precision=17)
    labels.write_text("".join(f"c{a}\n" for a in assign))
    outs = {}
    for method in ("pinv", "ulda"):
        out = tmp_path / f"W_{method}.rkm1"
        assert dispatch(["solve", "--method", method, "--data", str(data),
                         "--labels", str(labels), "--out", str(out)]) == 0
        outs[method] = Subspace(read_rkm1(out), method.upper())
    assert outs["ulda"].matrix.shape[1] == g - 1
    assert principal_angles(outs["pinv"], outs["ulda"]).max() < 1e-8
    report = tmp_path / "report.json"
    assert dispatch(["experiment", "--data", str(data), "--labels", str(labels),
                     "--methods", "pinv,ulda", "--replicates", "2", "--knn", "1",
                     "--timing", "none", "--out", str(report)]) == 0
    methods = json.loads(report.read_text())["methods"]
    assert {m: methods[m]["failures"] for m in ("pinv", "ulda")} == {"pinv": 0, "ulda": 0}


@pytest.mark.parametrize("subcommand", [
    ["solve", "--method", "pinv"],
    ["scatter"],
    ["diagnose", "--trials", "2", "--iters", "20"],
], ids=["solve", "scatter", "diagnose"])
def test_label_count_mismatch_is_data_error(tmp_path, capsys, subcommand):
    data, labels = tmp_path / "X.rkm1", tmp_path / "y.txt"
    write_rkm1(data, np.random.default_rng(3).standard_normal((12, 4)))
    labels.write_text("a\nb\n" * 5)
    code = dispatch([*subcommand, "--data", str(data), "--labels", str(labels),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "12 data rows vs 10 labels" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_diagnose_subcommand(dataset, tmp_path):
    data, labels, _, _ = dataset
    out = tmp_path / "report.json"
    assert dispatch(["diagnose", "--data", str(data), "--labels", str(labels),
                     "--trials", "5", "--iters", "200", "--seed", "3",
                     "--checkpoint-every", "100",
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [c["iteration"] for c in payload["checkpoints"]] == [0, 100, 200]
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "k,empirical,bound"
    assert len(csv_lines) == 4


def test_experiment_subcommand_and_determinism(dataset, tmp_path):
    data, labels, _, _ = dataset
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        csv_out = tmp_path / f"rows_{tag}.csv"
        assert dispatch([
            "experiment", "--data", str(data), "--labels", str(labels),
            "--methods", "full,rk", "--replicates", "2", "--train-frac", "0.7",
            "--knn", "1,5", "--seed", "11", "--rk-iters", "150",
            "--timing", "none",
            "--out", str(out), "--csv-out", str(csv_out),
        ]) == 0
        pairs.append((out.read_bytes(), csv_out.read_bytes()))
    assert pairs[0] == pairs[1]
    payload = json.loads(pairs[0][0])
    assert set(payload["methods"]) == {"full", "rk"}
    assert payload["config"]["seed"] == 11


def test_experiment_without_any_accuracy_is_data_error(dataset, tmp_path, capsys):
    data, labels, _, _ = dataset
    # k = 2000 exceeds the training rows, so every method fails every replicate
    code = dispatch(["experiment", "--data", str(data), "--labels", str(labels),
                     "--replicates", "2", "--knn", "1,2000", "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "no method completed a replicate" in err
    for method in ("full", "rk", "lsqr"):
        assert f"{method}: InvalidData: k must be in [1, " in err
    assert sorted(tmp_path.iterdir()) == sorted([data, labels])  # nothing written


def test_lsqr_flags_reach_the_solver(dataset, tmp_path):
    data, labels, _, _ = dataset
    io = ["solve", "--method", "lsqr", "--data", str(data), "--labels", str(labels)]

    def manifest(*flags):
        out = tmp_path / "W.rkm1"
        assert dispatch([*io, *flags, "--out", str(out)]) == 0
        return json.loads((tmp_path / "W.rkm1.manifest.json").read_text())

    capped = manifest("--max-iters", "1")
    assert capped["converged"] is False
    assert capped["iterations_run"] == 1
    default, loose = manifest(), manifest("--tol", "1e-2")
    manifest("--tol", "0")  # a zero tolerance stays valid
    assert default["converged"] is True
    assert loose["converged"] is True
    assert loose["iterations_run"] <= default["iterations_run"]


def test_experiment_solver_flags_reach_the_report(dataset, tmp_path):
    data, labels, _, _ = dataset
    out = tmp_path / "report.json"
    assert dispatch(["experiment", "--data", str(data), "--labels", str(labels),
                     "--replicates", "2", "--lsqr-tol", "1e-3", "--rk-tail-average", "0.5",
                     "--timing", "none", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["lsqr_tol"] == 1e-3
    assert config["rk_tail_average"] == 0.5


def test_version_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "rklda", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "rklda 0.1.0" in proc.stdout
    assert "RKM1" in proc.stdout


def test_numerical_failure_exit_code(dataset, tmp_path, monkeypatch, capsys):
    import rklda.cli as cli
    from rklda.errors import NumericalDivergence

    def boom(args):
        raise NumericalDivergence("iterate blew up", iteration=12)

    monkeypatch.setattr(cli, "_cmd_scatter", boom)
    data, labels, _, _ = dataset
    code = dispatch(["scatter", "--data", str(data), "--labels", str(labels)])
    assert code == 3
    assert "NumericalDivergence" in capsys.readouterr().err


def test_missing_file_is_data_error(tmp_path, capsys):
    code = dispatch(["solve", "--method", "rk", "--data", str(tmp_path / "nope.rkm1"),
                     "--labels", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "W.rkm1")])
    assert code == 2


@pytest.mark.parametrize("kappa_args", [
    ["0.01", "1", "nan"], ["0.01", "1", "inf"], ["0.01", "inf", "4"], ["0.01", "1", "1e300"],
], ids=["kappa-nan", "kappa-inf", "eps0-inf", "count-past-int64"])
def test_non_finite_iters_from_kappa_is_data_error(dataset, tmp_path, kappa_args):
    data, labels, _, _ = dataset
    code = dispatch(["solve", "--method", "rk", "--data", str(data), "--labels", str(labels),
                     "--iters-from-kappa", *kappa_args, "--out", str(tmp_path / "W.rkm1")])
    assert code == 2
    assert sorted(tmp_path.iterdir()) == sorted([data, labels])  # nothing written


@pytest.mark.parametrize("lists", [
    ["--methods", ","], ["--methods", "rk,rk"], ["--methods", "rk", "--knn", "1,1"],
], ids=["no-methods", "repeated-method", "repeated-k"])
def test_experiment_method_and_k_lists_must_be_distinct(dataset, tmp_path, lists):
    data, labels, _, _ = dataset
    code = dispatch(["experiment", *lists, "--replicates", "2", "--data", str(data),
                     "--labels", str(labels), "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert sorted(tmp_path.iterdir()) == sorted([data, labels])  # nothing written


def test_ragged_csv_label_column_is_data_error(tmp_path, capsys):
    data = tmp_path / "X.csv"
    data.write_text("1,2,a\n3,4\n5,6,b\n")
    code = dispatch(["solve", "--method", "rk", "--data", str(data), "--label-column", "2",
                     "--out", str(tmp_path / "W.rkm1")])
    assert code == 2
    assert "X.csv:2" in capsys.readouterr().err


def test_iters_from_kappa(dataset, tmp_path, capsys):
    data, labels, _, _ = dataset
    out = tmp_path / "W.rkm1"
    code = dispatch(["solve", "--method", "rk", "--data", str(data),
                     "--labels", str(labels), "--out", str(out),
                     "--iters-from-kappa", "0.01", "1.0", "2.0"])
    assert code == 0
    assert "7" in capsys.readouterr().err  # ceil(log(0.01)/log(0.5))
    manifest = json.loads((tmp_path / "W.rkm1.manifest.json").read_text())
    assert manifest["flags"]["iters_from_kappa"] == [0.01, 1.0, 2.0]


def test_solve_trace_output(dataset, tmp_path):
    data, labels, _, _ = dataset
    out = tmp_path / "W.rkm1"
    trace = tmp_path / "trace.csv"
    assert dispatch(["solve", "--method", "rk", "--data", str(data),
                     "--labels", str(labels), "--iters", "100",
                     "--checkpoint-every", "50", "--trace-out", str(trace),
                     "--out", str(out)]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,w_frob,sampled_row_residual"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [0, 50, 100]
    assert float(lines[-1].split(",")[1]) == np.linalg.norm(read_rkm1(out))


@pytest.mark.parametrize("flags, named", [
    (["--method", "rk", "--trace-out", "trace.csv"], "--trace-out"),
    (["--method", "lsqr", "--checkpoint-every", "50", "--trace-out", "trace.csv"],
     "--checkpoint-every"),
    (["--method", "rk", "--checkpoint-every", "-50"], "--checkpoint-every"),
    (["--method", "rk", "--max-iters", "0", "--tol", "nan"], "--tol"),
    (["--method", "lsqr", "--tail-average", "0.9", "--iters", "5"], "--iters"),
    (["--method", "pinv", "--iters", "7"], "--iters"),
    (["--method", "ulda", "--max-iters", "7"], "--max-iters"),
    (["--method", "rk", "--checkpoint-every", "5"], "--checkpoint-every"),
], ids=["rk-without-checkpoints", "lsqr", "negative-cadence", "rk-with-lsqr-flags",
        "lsqr-with-rk-flags", "pinv-with-iters", "ulda-with-max-iters",
        "rk-checkpoints-without-trace"])
def test_solve_trace_flags_usage_error(dataset, tmp_path, capsys, monkeypatch, flags, named):
    import rklda.cli as cli

    monkeypatch.setattr(cli, "load_matrix", lambda *a, **k: pytest.fail("input was read"))
    data, labels, _, _ = dataset
    flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
    code = dispatch(["solve", *flags, "--data", str(data), "--labels", str(labels),
                     "--out", str(tmp_path / "W.rkm1")])
    assert code == 1
    assert named in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([data, labels])  # nothing written


def test_checkpoints_without_trace_out_build_no_trace(dataset, tmp_path, monkeypatch):
    import rklda.evaluation as evaluation

    cadences = []
    solve_rk = evaluation.solve_rk

    def recording_solve_rk(view, Y, config, on_checkpoint=None):
        cadences.append((config.checkpoint_every, on_checkpoint))
        return solve_rk(view, Y, config, on_checkpoint=on_checkpoint)

    monkeypatch.setattr(evaluation, "solve_rk", recording_solve_rk)
    data, labels, _, _ = dataset
    argv = ["solve", "--method", "rk", "--data", str(data), "--labels", str(labels),
            "--iters", "100", "--out", str(tmp_path / "W.rkm1")]
    # a cadence without a trace is refused before the solve
    assert dispatch([*argv, "--checkpoint-every", "50"]) == 1
    assert cadences == []
    assert dispatch(argv) == 0
    assert cadences == [(0, None)]


def test_dispatch_builds_the_parser_once(dataset, tmp_path, monkeypatch):
    import rklda.cli as cli

    builds = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "rklda":  # the subcommand parsers are "rklda <name>"
            builds.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    data, labels, _, _ = dataset
    for seed in ("1", "2"):
        assert dispatch(["solve", "--method", "rk", "--data", str(data), "--labels", str(labels),
                         "--iters", "50", "--seed", seed, "--out", str(tmp_path / "W.rkm1")]) == 0
    assert builds == ["rklda"]


def test_dispatch_keeps_no_state_across_calls(dataset, tmp_path, capsys):
    from rklda.cli import build_parser

    data, labels, _, _ = dataset
    io = ["--data", str(data), "--labels", str(labels)]
    W, report = str(tmp_path / "W.rkm1"), str(tmp_path / "report.json")
    commands = [
        ["solve", "--method", "rk", *io, "--bogus-flag", "--out", W],
        ["--version"],
        ["solve", "--method", "rk", *io, "--csv-header", "--iters", "200", "--seed", "3",
         "--checkpoint-every", "50", "--trace-out", str(tmp_path / "trace.csv"), "--out", W],
        ["solve", "--method", "rk", *io, "--iters", "200", "--seed", "3", "--out", W],
        ["solve", "--method", "lsqr", *io, "--out", W],
        ["experiment", *io, "--replicates", "2", "--timing", "none", "--out", report],
    ]

    def run(argv):
        """Exit code, captured output, the bytes written and the manifest flags."""
        code = dispatch(argv)
        outputs = sorted(p for p in tmp_path.iterdir() if p not in (data, labels))
        written = {p.name: p.read_bytes() for p in outputs
                   if not p.name.endswith(".manifest.json")}
        flags = {p.name: json.loads(p.read_text())["flags"] for p in outputs
                 if p.name.endswith(".manifest.json")}
        for p in outputs:
            p.unlink()
        return code, tuple(capsys.readouterr()), written, flags

    in_one_process = [run(argv) for argv in commands]
    assert [code for code, *_ in in_one_process] == [1, 0, 0, 0, 0, 0]
    assert [sorted(written) for _, _, written, _ in in_one_process] == [
        [], [], ["W.rkm1", "trace.csv"], ["W.rkm1"], ["W.rkm1"], ["report.csv", "report.json"]]
    for argv, seen in zip(commands, in_one_process):
        build_parser.cache_clear()  # the command on its own, with a parser of its own
        assert run(argv) == seen

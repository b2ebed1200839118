"""Command-line interface.

Subcommands: encode, solve, transform, scatter, diagnose, experiment.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.

A handler stages its output files in memory and returns them.  ``dispatch``
then writes them with ``<out>.manifest.json``, which records the
subcommand, resolved flags, 64-bit content digests of the inputs and of the
staged outputs, seed, tool version, and timestamps, so an artifact can be
reproduced from its manifest.  ``solve`` adds the fitted subspace's status:
``iterations_run`` and ``excluded_rows`` (rows with zero centered norm,
never sampled) for ``rk``, ``converged`` (every column met LSQR's stopping
test) and ``iterations_run`` (the most any column took) for ``lsqr``.
All of a run's files are written or none (``io.write_files``), so a failing
run leaves no output; only a rename failing part-way, after every file is
written, can leave some.  Files get the mode ``open(path, "wb")`` gives
under the process umask.  Two outputs on one path, in any spelling, a
``solve`` flag that only another method reads and a labelled command given
neither ``--labels`` nor ``--label-column`` are usage errors, found from
the flags before any input is read, as is a count below 1 or a negative
seed.  Every solver setting is then checked by the solver's own rule
(``SolverConfig``, ``check_lsqr``) before any input is read.

``dispatch`` may be called repeatedly in one process. It builds the parser
once (``build_parser`` is cached) and looks up the handler of each call by
its subcommand name, ``_cmd_<subcommand>`` in this module, when the call
runs, so a handler replaced after the first call is the one that runs. Each
call parses into a fresh namespace, so no flag value crosses calls.

The only environment override is the platform temp directory.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import LSQR_TOL, check_lsqr
from .diagnostics import iterations_for_tolerance, run_convergence_study
from .errors import DataError, InvalidData, NumericalError
from .evaluation import KNOWN_METHODS, ExperimentConfig, fit_subspace, project, run_experiment
from .io import (
    FORMAT_VERSION,
    encode_csv,
    encode_rkm1,
    load_matrix,
    read_labels_file,
    read_rkm1,
    write_files,
)
from .labels import encode_labels, index_labels
from .matrix import build_centered_view, column_means, validate_raw
from .rk import SolverConfig
from .scatter import scatter_matrices, scatter_traces

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
# Subspace fields that ``solve`` records in its manifest when they are set.
STATUS_FIELDS = ("iterations_run", "excluded_rows", "converged")
# The ``solve`` flags that one method reads; the others are shared.
SOLVE_METHOD_FLAGS = {
    "rk": ("iters", "iters_from_kappa", "tail_average", "checkpoint_every", "trace_out"),
    "lsqr": ("tol", "max_iters"),
}


class _UsageError(Exception):
    """A usage error, printed with ``parser``'s usage, else the subcommand's."""

    def __init__(self, message, parser=None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so dispatch controls codes."""

    def error(self, message):
        raise _UsageError(message, self)


def int_at_least(low: int):
    """argparse type of an integer >= ``low``; a smaller one is a usage error."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return count


non_negative_int, positive_int = int_at_least(0), int_at_least(1)


def knn_list(text: str) -> str:
    """argparse type of a comma list of ints, kept as text for the manifest."""
    for k in filter(str.strip, text.split(",")):
        int(k)  # a ValueError is a usage error
    return text


def _digest(path) -> str:
    """First 64 bits of the SHA-256 of the file contents, as 16 hex chars."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Run:
    """One subcommand's inputs and staged outputs, which ``dispatch`` writes
    with the manifest ``<--out>.manifest.json``."""

    def __init__(self, args: argparse.Namespace):
        self.flags = {k: v for k, v in sorted(vars(args).items()) if v is not None}
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, bytes] = {}  # path -> staged contents
        self.results: dict = {}  # what the run did, e.g. the solver's status
        self.started = _utc_now()

    def track_input(self, path) -> None:
        if path is not None:
            self.inputs[str(path)] = _digest(path)

    def manifest(self) -> bytes:
        manifest = {
            "subcommand": self.flags["subcommand"],
            "flags": self.flags,
            "inputs": self.inputs,
            "outputs": {p: hashlib.sha256(b).hexdigest()[:16] for p, b in self.outputs.items()},
            "seed": self.flags.get("seed"),
            "tool_version": __version__,
            "format_version": FORMAT_VERSION,
            "started_utc": self.started,
            "finished_utc": _utc_now(),
            **self.results,
        }
        return _json_text(manifest).encode()


def _csv_path(args) -> str:
    """``--csv-out``, else ``--out`` with the suffix ``.csv``."""
    return args.csv_out or str(Path(args.out).with_suffix(".csv"))


def _check_output_paths(args) -> None:
    """Refuse two outputs on one path, in any spelling; scatter to stdout writes none."""
    if args.out is not None:
        paths = [args.out, f"{args.out}.manifest.json", "csv_out" in args and _csv_path(args),
                 *(getattr(args, f, None) for f in ("means_out", "trace_out", "classes_out"))]
        paths = [os.path.abspath(p) for p in paths if p]
        if shared := next((p for p in paths if paths.count(p) > 1), None):
            raise _UsageError(f"two outputs share the path {shared}")


def _check_solve_flags(args) -> None:
    """Refuse another method's flag set off its default, and a trace or a cadence alone."""
    solve = build_parser().subcommands["solve"]
    for method, flags in SOLVE_METHOD_FLAGS.items():
        if given := [f for f in flags if method != args.method
                     and getattr(args, f) != solve.get_default(f)]:
            raise _UsageError(f"--{given[0].replace('_', '-')} is read by --method {method} only")
    if bool(args.trace_out) != bool(args.checkpoint_every):
        raise _UsageError("--trace-out and --checkpoint-every C > 0 go together")


def _load_data(run: _Run, args) -> tuple:
    """(matrix, tokens of its ``--label-column`` or None), in the format its
    first bytes name; only a CSV has a label column."""
    run.track_input(args.data)
    data, tokens = load_matrix(args.data, csv_header=args.csv_header,
                               label_column=args.label_column)
    if args.label_column is not None and tokens is None:
        raise InvalidData(f"{args.data}: --label-column needs CSV data")
    return data, tokens


def _load_labeled(run: _Run, args) -> tuple:
    """(matrix, or None without ``--data``; LabelVector): the labels of
    ``--labels``, else of ``--data``'s label column, one per matrix row.
    Their absence is a usage error, found before any input is read."""
    if not args.labels and (args.label_column is None or not args.data):
        raise _UsageError("labels required: pass --labels FILE or --label-column COL")
    data, tokens = _load_data(run, args) if args.data else (None, None)
    if args.labels:
        run.track_input(args.labels)
        tokens = read_labels_file(args.labels)
    if data is not None and len(tokens) != data.shape[0]:
        raise InvalidData(f"{data.shape[0]} data rows vs {len(tokens)} labels")
    return data, index_labels(tokens)


def _add_data_flags(p: _Parser, with_labels: bool = True):
    p.add_argument("--data", required=True, help="matrix file: RKM1, Matrix Market or CSV")
    p.add_argument("--csv-header", action="store_true",
                   help="first CSV row is a header")
    p.add_argument("--label-column",
                   help="CSV column holding labels (excluded from the matrix)")
    if with_labels:
        p.add_argument("--labels", help="label file, one token per line")


def _cmd_encode(args) -> _Run:
    run = _Run(args)
    _, lv = _load_labeled(run, args)
    Y = encode_labels(lv)
    run.outputs[args.out] = encode_rkm1(Y.matrix)
    if args.classes_out:
        classes = {
            "classes": [str(c) for c in lv.classes],
            "counts": [int(c) for c in lv.counts],
            "n": lv.n,
        }
        run.outputs[args.classes_out] = _json_text(classes).encode()
    return run


def _cmd_solve(args) -> _Run:
    _check_solve_flags(args)
    run = _Run(args)
    iters = args.iters
    if args.iters_from_kappa:
        eps, eps0, kappa = args.iters_from_kappa
        iters = max(1, iterations_for_tolerance(eps, eps0, kappa))
        print(f"iterations from condition number: {iters}", file=sys.stderr)
    rk = SolverConfig(max_iters=iters, seed=args.seed, checkpoint_every=args.checkpoint_every,
                      tail_average=args.tail_average)
    check_lsqr(args.tol, args.max_iters)
    data, lv = _load_labeled(run, args)
    view = build_centered_view(data)
    del data  # a dense view holds its own centered copy
    trace = []  # the CSV rows: (k, ||W_k||_F, sampled-row residual)

    def record(k, W, r):
        flat = W.ravel(order="K")  # np.linalg.norm's arithmetic, without its per-call cost
        trace.append((k, math.sqrt(flat.dot(flat)), r))

    subspace = fit_subspace(
        args.method, view, encode_labels(lv), rk=rk,
        on_checkpoint=record if args.trace_out else None,
        lsqr_tol=args.tol, lsqr_max_iters=args.max_iters,
    )
    run.results.update({f: v for f in STATUS_FIELDS
                        if (v := getattr(subspace, f)) is not None})

    run.outputs[args.out] = encode_rkm1(subspace.matrix)
    if args.means_out:
        run.outputs[args.means_out] = encode_rkm1(view.column_means)
    if args.trace_out:
        run.outputs[args.trace_out] = encode_csv(
            ["iteration", "w_frob", "sampled_row_residual"], trace)
    return run


def _cmd_transform(args) -> _Run:
    run = _Run(args)
    data = validate_raw(_load_data(run, args)[0])
    run.track_input(args.subspace)
    W = validate_raw(read_rkm1(args.subspace))
    if args.no_center:
        mu = np.zeros(data.shape[1])
    elif args.means:
        run.track_input(args.means)
        mu = validate_raw(read_rkm1(args.means)).reshape(-1)
        if mu.shape[0] != data.shape[1]:
            raise InvalidData(f"means length {mu.shape[0]} vs {data.shape[1]} columns")
    else:
        mu = column_means(data)
    if W.shape[0] != data.shape[1]:
        raise InvalidData(f"subspace rows {W.shape[0]} vs {data.shape[1]} data columns")
    run.outputs[args.out] = encode_rkm1(project(data, W, mu))
    return run


def _cmd_scatter(args) -> _Run:
    run = _Run(args)
    data, lv = _load_labeled(run, args)
    payload = {"n": int(data.shape[0]), "d": int(data.shape[1]), "g": lv.g}
    if args.traces_only:
        trace_w, trace_b = scatter_traces(data, lv)
    else:
        ss = scatter_matrices(data, lv)
        trace_w, trace_b = float(np.trace(ss.s_w)), float(np.trace(ss.s_b))
        payload.update(
            s_w=ss.s_w.tolist(),
            s_b=ss.s_b.tolist(),
            s_t=ss.s_t.tolist(),
            centroids=ss.centroids.tolist(),
            grand_centroid=ss.grand_centroid.tolist(),
        )
    payload.update(trace_w=trace_w, trace_b=trace_b, trace_t=trace_w + trace_b)
    text = _json_text(payload)
    if args.out:
        run.outputs[args.out] = text.encode()
    else:
        sys.stdout.write(text)
    return run


def _cmd_diagnose(args) -> _Run:
    run = _Run(args)
    cadence = args.checkpoint_every or max(1, args.iters // 20)
    config = SolverConfig(max_iters=args.iters, seed=args.seed, checkpoint_every=cadence)
    data, lv = _load_labeled(run, args)
    view = build_centered_view(data)
    del data  # a dense view holds its own centered copy
    report = run_convergence_study(view, encode_labels(lv), trials=args.trials, config=config)
    run.outputs[args.out] = _json_text(asdict(report)).encode()
    run.outputs[_csv_path(args)] = encode_csv(
        ["k", "empirical", "bound"],
        [(c.iteration, c.empirical_mse, c.bound) for c in report.checkpoints],
    )
    return run


def _cmd_experiment(args) -> _Run:
    run = _Run(args)
    config = ExperimentConfig(
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        replicates=args.replicates,
        train_fraction=args.train_frac,
        knn_ks=tuple(int(k) for k in args.knn.split(",") if k.strip()),
        seed=args.seed,
        rk_iters=args.rk_iters,
        rk_tail_average=args.rk_tail_average,
        lsqr_tol=args.lsqr_tol,
        timing=args.timing,
    )
    data, lv = _load_labeled(run, args)
    report = run_experiment(data, lv, config)
    if not report.rows:
        raise InvalidData("no method completed a replicate:" + "".join(
            f"\n  {method}: {message}" for method, summary in report.methods.items()
            for message in summary["failure_messages"]))
    run.outputs[args.out] = _json_text(asdict(report)).encode()
    run.outputs[_csv_path(args)] = encode_csv(
        ["method", "replicate", "k", "accuracy", "seconds"], report.rows)
    return run


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="rklda", description=__doc__)
    parser.add_argument(
        "--version", action="version",
        version=f"rklda {__version__} (matrix format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = sub.choices  # name -> subcommand parser

    p = sub.add_parser("encode", help="recode labels into the indicator matrix")
    p.add_argument("--labels", help="label file, one token per line")
    p.add_argument("--data", help="CSV holding the label column")
    p.add_argument("--label-column", help="CSV column with the labels")
    p.add_argument("--csv-header", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--classes-out", help="also write the class map as JSON")

    p = sub.add_parser("solve", help="compute a reduced-dimension subspace")
    _add_data_flags(p)
    p.add_argument("--method", required=True,
                   choices=[m for m in KNOWN_METHODS if m != "full"])
    p.add_argument("--out", required=True)
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--iters", type=positive_int,
                        help="RK iteration budget (default 20 per row)")
    budget.add_argument("--iters-from-kappa", nargs=3, type=float,
                        metavar=("EPS", "EPS0", "KAPPA"),
                        help="derive the RK iteration count from a known condition number")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--tail-average", type=float,
                   help="burn-in fraction; average the iterates after it")
    p.add_argument("--checkpoint-every", type=non_negative_int, default=0)
    p.add_argument("--trace-out", help="CSV of checkpoint summaries")
    p.add_argument("--means-out", help="write training column means (1 x d RKM1)")
    p.add_argument("--tol", type=float, default=LSQR_TOL, help="lsqr stopping tolerance")
    p.add_argument("--max-iters", type=positive_int, help="lsqr iteration cap")

    p = sub.add_parser("transform", help="project data through a subspace")
    _add_data_flags(p, with_labels=False)
    p.add_argument("--subspace", required=True, help="d x c RKM1 file")
    centering = p.add_mutually_exclusive_group()
    centering.add_argument("--means", help="1 x d RKM1 of training column means")
    centering.add_argument("--no-center", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("scatter", help="scatter matrices / traces as JSON")
    _add_data_flags(p)
    p.add_argument("--traces-only", action="store_true")
    p.add_argument("--out", help="JSON path (stdout when omitted)")

    p = sub.add_parser("diagnose", help="empirical error decay vs the theory bound")
    _add_data_flags(p)
    p.add_argument("--trials", type=positive_int, required=True)
    p.add_argument("--iters", type=positive_int, required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--checkpoint-every", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--csv-out")

    p = sub.add_parser("experiment", help="split/fit/project/classify protocol")
    _add_data_flags(p)
    defaults = ExperimentConfig()
    p.add_argument("--methods", default=",".join(defaults.methods),
                   help=f"comma list from {','.join(KNOWN_METHODS)}")
    p.add_argument("--replicates", type=positive_int, default=defaults.replicates)
    p.add_argument("--train-frac", type=float, default=defaults.train_fraction)
    p.add_argument("--knn", type=knn_list, default=",".join(map(str, defaults.knn_ks)),
                   help="comma list of k values")
    p.add_argument("--seed", type=non_negative_int, default=defaults.seed)
    p.add_argument("--rk-iters", type=positive_int, default=defaults.rk_iters)
    p.add_argument("--rk-tail-average", type=float, default=defaults.rk_tail_average)
    p.add_argument("--lsqr-tol", type=float, default=defaults.lsqr_tol)
    p.add_argument("--timing", default=defaults.timing, choices=["wall", "none"],
                   help="'none' writes zero seconds for byte-reproducible reports")
    p.add_argument("--out", required=True)
    p.add_argument("--csv-out")
    return parser


def dispatch(argv) -> int:
    """Run one rklda command line (without the program name); returns the exit code."""
    parser = build_parser()
    usage = parser  # whose usage a usage error prints: the subcommand's, once known
    try:
        args, unknown = parser.parse_known_args(argv)
        usage = parser.subcommands[args.subcommand]
        if unknown:
            usage.error(f"unrecognized arguments: {' '.join(unknown)}")
        _check_output_paths(args)
        run = globals()[f"_cmd_{args.subcommand}"](args)
        if run.outputs:
            run.outputs[f"{args.out}.manifest.json"] = run.manifest()
            write_files(run.outputs)
        return EXIT_OK
    except SystemExit as exc:  # --version / --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        (exc.parser or usage).print_usage(sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # an input that cannot be read, an output that cannot be written
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

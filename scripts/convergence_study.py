#!/usr/bin/env python3
"""Empirical iterate error of the randomized solver against the theory bound.

Builds a consistent and an inconsistent planted instance, runs independent
solver restarts, and tabulates mean squared error vs the expected-error
bound at each checkpoint.  Optionally writes plot-ready CSVs.

Example:
    python scripts/convergence_study.py --trials 200 --out-prefix /tmp/study
"""

import argparse
import csv
import math
import sys

import numpy as np

from rklda.diagnostics import condition_profile, run_convergence_study
from rklda.rk import SolverConfig
from rklda.synthetic import planted_consistent, planted_inconsistent


def show(tag, report):
    print(f"\n== {tag}: kappa={report.kappa:.1f}  "
          f"relative residual={report.relative_residual:.2e}  "
          f"floor={report.residual_floor:.4g}  trials={report.trials}")
    print(f"{'k':>8s} {'mean sq error':>16s} {'bound':>16s} {'3*stderr':>12s}")
    for cp in report.checkpoints:
        print(f"{cp.iteration:8d} {cp.empirical_mse:16.6e} {cp.bound:16.6e} "
              f"{3 * cp.std_error:12.3e}")


def dump_csv(path, report):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "empirical", "bound", "std_error"])
        for cp in report.checkpoints:
            w.writerow([cp.iteration, cp.empirical_mse, cp.bound, cp.std_error])
    print(f"wrote {path}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=40)
    ap.add_argument("--d", type=int, default=200)
    ap.add_argument("--g", type=int, default=3)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-prefix", help="write <prefix>_consistent.csv etc.")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)

    view, Y, _ = planted_consistent(args.n, args.d, args.g, rng)
    kappa = condition_profile(view).kappa
    K = int(math.ceil(kappa * math.log(1e4)))
    report = run_convergence_study(
        view, Y, trials=args.trials,
        config=SolverConfig(max_iters=K, seed=args.seed, checkpoint_every=max(K // 10, 1)),
    )
    show("consistent", report)
    if args.out_prefix:
        dump_csv(f"{args.out_prefix}_consistent.csv", report)

    view_i, Y_i = planted_inconsistent(args.n, args.d, args.g,
                                       rank=max(args.n // 2, 2), rng=rng)
    kappa_i = condition_profile(view_i).kappa
    K_i = 2 * int(math.ceil(kappa_i * math.log(200.0)))
    report_i = run_convergence_study(
        view_i, Y_i, trials=args.trials,
        config=SolverConfig(max_iters=K_i, seed=args.seed + 1,
                            checkpoint_every=max(K_i // 10, 1)),
    )
    show("inconsistent", report_i)
    if args.out_prefix:
        dump_csv(f"{args.out_prefix}_inconsistent.csv", report_i)
    return 0


if __name__ == "__main__":
    sys.exit(main())

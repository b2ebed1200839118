#!/usr/bin/env python3
"""Run the split/fit/project/classify protocol on the two-Gaussian benchmark.

Example:
    python scripts/synthetic_benchmark.py --replicates 30 --seed 7 \
        --methods full,rk,lsqr,pinv --out /tmp/benchmark.json
"""

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from rklda.evaluation import ExperimentConfig, run_experiment
from rklda.synthetic import two_gaussians


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--d", type=int, default=50)
    ap.add_argument("--separation", type=float, default=5.0)
    ap.add_argument("--methods", default="full,rk,lsqr,pinv")
    ap.add_argument("--replicates", type=int, default=30)
    ap.add_argument("--train-frac", type=float, default=0.7)
    ap.add_argument("--knn", default="1,5,10")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rk-iters", type=int, default=None)
    ap.add_argument("--rk-tail-average", type=float, default=None)
    ap.add_argument("--out", help="write the full report as JSON")
    args = ap.parse_args()

    X, y = two_gaussians(args.n, args.d, args.separation,
                         rng=np.random.default_rng(args.seed))
    tokens = [f"c{t}" for t in y]
    config = ExperimentConfig(
        methods=tuple(args.methods.split(",")),
        replicates=args.replicates,
        train_fraction=args.train_frac,
        knn_ks=tuple(int(k) for k in args.knn.split(",")),
        seed=args.seed,
        rk_iters=args.rk_iters,
        rk_tail_average=args.rk_tail_average,
    )
    report = run_experiment(X, tokens, config)

    header = f"{'method':8s} {'k':>3s} {'acc (median ± sd)':>20s} {'time (median ± sd)':>22s}"
    print(header)
    print("-" * len(header))
    for method in config.methods:
        stats = report.methods[method]
        for k in config.knn_ks:
            s = stats["per_k"][str(k)]
            print(
                f"{method:8s} {k:3d} "
                f"{s['accuracy_median']:10.4f} ± {s['accuracy_std']:.4f} "
                f"{s['seconds_median']:12.4f}s ± {s['seconds_std']:.4f}"
            )
        if stats["failures"]:
            print(f"{method:8s} failed replicates: {stats['failures']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(asdict(report), fh, indent=2, sort_keys=True)
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

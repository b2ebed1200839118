#!/usr/bin/env python3
"""Compare two result sets of the rklda benchmark.

    python3 bench/compare.py BASE_DIR NEW_DIR

A result set is a directory with one subdirectory per workload, holding the
standard output of each run of bench/run.py as a file (the last line of
each file is the run's JSON result).  For every (workload, metric) pair the
command prints the median of each set, the change, the larger of the two
run-to-run spreads (interquartile range over median) and a verdict, using
the bounds in BENCHMARK.json:

  worse         the median got worse by more than the bound
  better        the median got better by more than the bound
  within bound  neither
  unresolved    a spread is wider than the bound, and not every new run
                beats (or trails) every base run

Per-layer metrics have no bound; their rows show the change only.  The
exit code is 1 when any metric reads worse or the share of failed
operations changed.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_set(directory: Path) -> dict:
    """workload -> list of run results."""
    runs: dict = {}
    for workload_dir in sorted(p for p in directory.iterdir() if p.is_dir()):
        for path in sorted(workload_dir.iterdir()):
            lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
            if lines:
                runs.setdefault(workload_dir.name, []).append(json.loads(lines[-1]))
    return runs


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(base: list, new: list, better: str, bound) -> str:
    if bound is None:
        return "no bound"
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (statistics.median(new) - statistics.median(base)) / abs(
        statistics.median(base))
    if max(spread(base), spread(new)) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        if all(sign * n > sign * b for n in new for b in base):
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within bound"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [(m["name"], m["unit"], m["better"], None) for m in spec["per_layer"]]
    base, new = (load_set(Path(a)) for a in argv)
    status = 0
    print(f"{'workload':16s} {'metric':32s} {'unit':6s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'spread':>7s}  verdict")
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        for runs, label in ((b_runs, "base"), (n_runs, "new")):
            if not all(r["correct"] for r in runs):
                print(f"{workload}: a {label} run reports incorrect output")
                status = 1
        b_share = {r["failed"] / r["attempted"] for r in b_runs}
        n_share = {r["failed"] / r["attempted"] for r in n_runs}
        if b_share != n_share:
            print(f"{workload}: failed share changed from {sorted(b_share)} to {sorted(n_share)}")
            status = 1
        for name, unit, better, bound in metrics:
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / abs(mb) if mb else float("inf")
            v = verdict(b, n, better, bound)
            status |= v == "worse"
            print(f"{workload:16s} {name:32s} {unit:6s} {mb:12.6g} {mn:12.6g} "
                  f"{change:+8.1%} {max(spread(b), spread(n)):7.3f}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

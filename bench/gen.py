"""Seeded input generators for the rklda benchmark.

    python3 bench/gen.py --workload dense-tall --seed 7 --out DIR

writes the workload's inputs into DIR: data matrices as RKM1 (dense) or
Matrix Market (sparse) files and labels as one token per line.  The same
workload and seed always give byte-identical files.  The benchmark runs this
in a process of its own, so the generator's memory does not count towards
the peak resident memory of the process that runs the program.
"""

import argparse
import struct
import sys
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

# Input shapes of every workload.
DENSE_TALL = {"n": 200, "d": 10, "g": 4, "spread": 3.0}
# The offset-setup input does not depend on the seed: it is the dense-tall
# shape drawn from this fixed seed, shifted by a common column offset.
OFFSET_SEED = 0
OFFSET = 1e8
SPARSE_TEXT = {
    "n": 500,            # documents
    "d": 4000,           # vocabulary
    "g": 10,             # classes
    "terms_per_doc": 48, # draws per row; repeats merge to about 40 entries
    "used_vocab": 3000,  # columns at or past this index are never used
    "topic_terms": 150,  # terms per class topic
    "topic_share": 0.3,  # share of a document's terms drawn from its topic
    "zipf_exponent": 1.1,
}
KNN_EXPERIMENT = {"n": 1200, "d": 100, "g": 5, "spread": 0.35}


def write_rkm1(path, X: np.ndarray) -> None:
    """RKM1: magic, u64 rows, u64 columns, row-major float64, little-endian."""
    X = np.ascontiguousarray(X, dtype="<f8")
    Path(path).write_bytes(b"RKM1" + struct.pack("<QQ", *X.shape) + X.tobytes())


def write_labels(path, tokens) -> None:
    Path(path).write_text("".join(f"{t}\n" for t in tokens), encoding="utf-8")


def blobs(shape: dict, seed: int):
    """Gaussian blobs: (X, class tokens, class centres).

    Unit-variance noise around centres drawn from N(0, spread^2) per
    coordinate.  The centres are written out for the accuracy floor of the
    kNN check; the program never sees them.
    """
    rng = np.random.default_rng(seed)
    n, d, g = shape["n"], shape["d"], shape["g"]
    assign = rng.integers(0, g, size=n)
    assign[:g] = np.arange(g)
    centres = rng.normal(0.0, shape["spread"], size=(g, d))
    X = centres[assign] + rng.standard_normal((n, d))
    return X, [f"c{j}" for j in assign], centres


def text_like(shape: dict, seed: int):
    """A TF-IDF-like CSR matrix built directly from indptr/indices/data.

    Column popularity follows a Zipf law over the used vocabulary, each
    class mixes in its own topic terms, and the columns past ``used_vocab``
    are never used.  Memory is O(nnz); nothing of size n*d is allocated.
    """
    rng = np.random.default_rng(seed)
    n, d, g = shape["n"], shape["d"], shape["g"]
    used, per_doc = shape["used_vocab"], shape["terms_per_doc"]

    assign = rng.integers(0, g, size=n)
    assign[:g] = np.arange(g)
    ranks = np.arange(1, used + 1, dtype=np.float64)
    popularity = np.cumsum(ranks ** -shape["zipf_exponent"])
    popularity /= popularity[-1]
    topics = rng.choice(used, size=(g, shape["topic_terms"]), replace=False)

    lengths = rng.poisson(per_doc, size=n).clip(min=5)
    rows = np.repeat(np.arange(n), lengths)
    total = len(rows)
    cols = np.minimum(np.searchsorted(popularity, rng.random(total)), used - 1)
    from_topic = rng.random(total) < shape["topic_share"]
    topic_pick = rng.integers(0, shape["topic_terms"], size=total)
    cols = np.where(from_topic, topics[assign[rows], topic_pick], cols)

    # term counts per (document, term); keys come out sorted by row, then column
    keys, counts = np.unique(rows * np.int64(d) + cols, return_counts=True)
    doc, term = np.divmod(keys, d)
    doc_freq = np.bincount(term, minlength=d)
    idf = np.log((1.0 + n) / (1.0 + doc_freq[term])) + 1.0
    values = (1.0 + np.log(counts)) * idf
    indptr = np.concatenate(([0], np.cumsum(np.bincount(doc, minlength=n))))
    row_norm = np.sqrt(np.add.reduceat(values**2, indptr[:-1]))
    values /= np.repeat(row_norm, np.diff(indptr))
    X = sp.csr_array((values, term.astype(np.int32), indptr), shape=(n, d))
    return X, [f"topic{j}" for j in assign]


def generate(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "dense-tall":
        X, tokens, centres = blobs(DENSE_TALL, seed)
        write_rkm1(out / "X.rkm1", X)
        write_labels(out / "y.txt", tokens)
        write_rkm1(out / "centres.rkm1", centres)
        X_off, _, _ = blobs(DENSE_TALL, OFFSET_SEED)
        write_rkm1(out / "X_offset.rkm1", X_off + OFFSET)
    elif workload == "sparse-text":
        X, tokens = text_like(SPARSE_TEXT, seed)
        scipy.io.mmwrite(str(out / "X.mtx"), X, precision=17)
        write_labels(out / "y.txt", tokens)
    elif workload == "knn-experiment":
        X, tokens, centres = blobs(KNN_EXPERIMENT, seed)
        write_rkm1(out / "X.rkm1", X)
        write_labels(out / "y.txt", tokens)
        write_rkm1(out / "centres.rkm1", centres)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

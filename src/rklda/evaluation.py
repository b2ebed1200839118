"""Downstream-classification evaluation: repeated random splits, subspace
fits on training data, projection of held-out data, kNN accuracy, timing.

kNN runs in two parts.  The neighbour search finds each test row's
max(knn_ks) nearest training rows once per (replicate, method), ordered by
(squared distance, training index); the vote then classifies from the
first k of them for every k.  A row's ``seconds`` is the shared fit +
projection + neighbour search, plus that k's vote.  Each method's summary
also carries the medians over replicates of the three phases
(``fit_seconds_median``, ``project_seconds_median``, ``knn_seconds_median``,
the last being the search plus every k's vote), and a method that failed
on any replicate lists its distinct failure messages in
``failure_messages``.  Under ``timing="none"``
every timing is 0.0, so reports are byte-reproducible.  ``pinv`` and
``ulda`` share one dense SVD of a replicate's training rows, which counts
in the fit time of whichever of them runs first.
"""

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .baselines import (LSQR_TOL, Subspace, centered_spectrum, check_lsqr, pinv_oracle,
                        solve_lsqr, ulda_oracle)
from .errors import ClassCoverageError, InvalidData, RkldaError
from .labels import LabelVector, encode_labels, index_labels
from .matrix import build_centered_view, densify, validate_raw
from .rk import SolverConfig, derive_seed, solve_rk

KNOWN_METHODS = ("full", "rk", "lsqr", "pinv", "ulda")
# Methods fit from the dense SVD of the training rows, which a replicate takes once.
SPECTRAL_METHODS = ("pinv", "ulda")
# Entries held at once by the kNN: test rows x training rows of squared
# distances in the search, test rows x classes of counts in the vote.
KNN_CHUNK_ELEMENTS = 1 << 17
# Splits drawn before split gives up on covering every class in training.
SPLIT_MAX_RESAMPLES = 100


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[str, ...] = ("full", "rk", "lsqr")
    replicates: int = 30
    train_fraction: float = 0.7
    knn_ks: tuple[int, ...] = (1, 5, 10)
    seed: int = 0
    rk_iters: int | None = None        # default: 20 iterations per training row
    rk_tail_average: float | None = None
    lsqr_tol: float = LSQR_TOL
    timing: str = "wall"               # "wall" | "none" (report zeros)

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidData(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.replicates < 1:
            raise InvalidData("replicates must be >= 1")
        self.rk  # SolverConfig checks rk_iters, rk_tail_average and seed
        check_lsqr(self.lsqr_tol, None)
        if not self.knn_ks or any(k < 1 for k in self.knn_ks):
            raise InvalidData("every kNN k must be >= 1")
        if not self.methods:
            raise InvalidData(f"no methods; choose from {KNOWN_METHODS}")
        for name, values in (("methods", self.methods), ("kNN k values", self.knn_ks)):
            if len(set(values)) != len(values):
                raise InvalidData(f"repeated {name} in {list(values)}")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise InvalidData(f"unknown methods {unknown}; choose from {KNOWN_METHODS}")
        if self.timing not in ("wall", "none"):
            raise InvalidData(f"timing must be 'wall' or 'none', got {self.timing!r}")

    @property
    def rk(self) -> SolverConfig:
        """The RK settings of every fit, before each method's derived seed."""
        return SolverConfig(max_iters=self.rk_iters, seed=self.seed,
                            tail_average=self.rk_tail_average)


@dataclass(frozen=True)
class ExperimentReport:
    methods: dict            # method -> {completed, failures, failed, per_k,
                             #            fit/project/knn_seconds_median, and
                             #            failure_messages when failures > 0}
    rows: tuple              # (method, replicate, k, accuracy, seconds)
    config: dict = field(default_factory=dict)


def split(n: int, train_fraction: float, rng: np.random.Generator, labels=None):
    """Uniform random partition into (train, test) index arrays.

    |train| = round(train_fraction * n), clamped so both sides are nonempty.
    When ``labels`` is given, resamples until every class appears in the
    training set (up to SPLIT_MAX_RESAMPLES attempts).
    """
    if n < 2:
        raise InvalidData("need at least two observations to split")
    n_train = int(round(train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    label_arr = None if labels is None else np.asarray(labels)
    classes = None if label_arr is None else np.unique(label_arr)
    for _ in range(SPLIT_MAX_RESAMPLES):
        perm = rng.permutation(n)
        train = np.sort(perm[:n_train])
        test = np.sort(perm[n_train:])
        if classes is None or len(np.unique(label_arr[train])) == len(classes):
            return train, test
    raise ClassCoverageError(
        f"failed to cover all classes in training after {SPLIT_MAX_RESAMPLES} resamples"
    )


def project(data, B, train_column_means: np.ndarray) -> np.ndarray:
    """Center rows with the *training* column means, then apply B.

    ``B=None`` keeps the full centered rows (no dimension reduction); sparse
    data is then densified, which raises TooLarge past the dense guard.
    """
    mu = np.asarray(train_column_means, dtype=np.float64)
    if B is None:
        return densify(data) - mu
    M = B.matrix if isinstance(B, Subspace) else np.asarray(B, dtype=np.float64)
    return np.asarray(data @ M) - mu @ M


def knn_search(train_Z: np.ndarray, test_Z: np.ndarray, k: int):
    """The k nearest training rows of every test row.

    Returns ``(index, dist2)``, both n_test x k: training indices ordered by
    (squared distance, training index), and their squared distances
    ``max(||a||^2 - 2 a.b + ||b||^2, 0)``.  Test rows are searched
    KNN_CHUNK_ELEMENTS // n_train at a time.
    """
    train_Z = np.atleast_2d(np.asarray(train_Z, dtype=np.float64))
    test_Z = np.atleast_2d(np.asarray(test_Z, dtype=np.float64))
    n_train = train_Z.shape[0]
    if n_train == 0:
        raise InvalidData("empty training set")
    if not 1 <= k <= n_train:
        raise InvalidData(f"k must be in [1, {n_train}], got {k}")

    n_test = test_Z.shape[0]
    train_sq = np.einsum("ij,ij->i", train_Z, train_Z)
    test_sq = np.einsum("ij,ij->i", test_Z, test_Z)
    index = np.empty((n_test, k), dtype=np.intp)
    dist2 = np.empty((n_test, k))
    rows = max(1, KNN_CHUNK_ELEMENTS // n_train)
    for lo in range(0, n_test, rows):
        hi = min(lo + rows, n_test)
        d2 = test_sq[lo:hi, None] - 2.0 * test_Z[lo:hi] @ train_Z.T + train_sq[None, :]
        np.maximum(d2, 0.0, out=d2)
        index[lo:hi] = _k_nearest(d2, k)
        dist2[lo:hi] = np.take_along_axis(d2, index[lo:hi], axis=1)
    return index, dist2


def _k_nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest entries, by (value, index)."""
    part = np.argpartition(d2, k - 1, axis=1)[:, :k]
    part_d2 = np.take_along_axis(d2, part, axis=1)
    index = np.take_along_axis(part, np.lexsort((part, part_d2), axis=1), axis=1)
    # A tie at the k-th distance that continues past the cut: the partition
    # kept an arbitrary subset of the tied indices, not the smallest ones.
    kth = np.take_along_axis(d2, index[:, -1:], axis=1)
    for t in np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) > k):
        index[t] = np.argsort(d2[t], kind="stable")[:k]
    return index


def knn_vote(index: np.ndarray, dist2: np.ndarray, train_labels, k: int) -> np.ndarray:
    """Majority class among the first k neighbours of ``knn_search``.

    A vote tie goes to the tied class whose nearest member is closest, then
    to the smaller class index.
    """
    if not 1 <= k <= index.shape[1]:
        raise InvalidData(f"k must be in [1, {index.shape[1]}], got {k}")
    classes, codes = np.unique(np.asarray(train_labels), return_inverse=True)
    g = len(classes)
    n_test = index.shape[0]
    winner = np.empty(n_test, dtype=np.intp)
    rows = max(1, KNN_CHUNK_ELEMENTS // g)
    for lo in range(0, n_test, rows):
        hi = min(lo + rows, n_test)
        # flat (row, class) cell of every neighbour
        cells = codes[index[lo:hi, :k]] + g * np.arange(hi - lo)[:, None]
        votes = np.bincount(cells.ravel(), minlength=(hi - lo) * g).reshape(-1, g)
        nearest = np.full((hi - lo) * g, np.inf)
        np.minimum.at(nearest, cells.ravel(), dist2[lo:hi, :k].ravel())
        nearest = np.where(votes == votes.max(axis=1, keepdims=True),
                           nearest.reshape(-1, g), np.inf)
        # first (smallest) class among the tied ones at the smallest distance
        winner[lo:hi] = np.argmax(nearest == nearest.min(axis=1, keepdims=True), axis=1)
    return classes[winner]


def knn_classify(train_Z: np.ndarray, train_labels, test_Z: np.ndarray, k: int) -> np.ndarray:
    """Euclidean kNN with fully specified tie-breaking.

    Distance ties are broken by smaller training index; vote ties by the
    class whose nearest member (within the k-neighborhood) is closest, then
    by smaller class index.
    """
    index, dist2 = knn_search(train_Z, test_Z, k)
    return knn_vote(index, dist2, train_labels, k)


def accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise InvalidData(
            f"prediction/truth shape mismatch: {predicted.shape} vs {truth.shape}"
        )
    return float(np.mean(predicted == truth))


def fit_subspace(method: str, view, Y, *, rk: SolverConfig = SolverConfig(),
                 on_checkpoint=None, lsqr_tol: float = LSQR_TOL,
                 lsqr_max_iters: int | None = None, spectrum=None) -> Subspace | None:
    """The subspace of ``method`` (one of KNOWN_METHODS) fit on the centered
    ``view`` with the class indicator ``Y`` of its rows; None for ``full``.

    An RK fit is ``solve_rk`` with the settings ``rk`` and ``on_checkpoint``
    and carries its iterations_run and excluded_rows; an LSQR fit whether
    every column converged and the most iterations a column took.  ``pinv``
    and ``ulda`` densify within the dense guard, or start from
    ``spectrum``, the view's ``centered_spectrum``, when it is given.
    """
    if method == "full":
        return None
    if method == "rk":
        result = solve_rk(view, Y, rk, on_checkpoint=on_checkpoint)
        return Subspace(matrix=result.W, origin="RK", iterations_run=result.iterations_run,
                        excluded_rows=result.excluded_rows)
    if method == "lsqr":
        return solve_lsqr(view, Y, tol=lsqr_tol, max_iters=lsqr_max_iters)
    if method == "pinv":
        return pinv_oracle(view, Y, spectrum)
    if method == "ulda":
        return ulda_oracle(view, Y, spectrum)
    raise InvalidData(f"unknown method {method!r}")


def _replicate(data, labels: LabelVector, config: ExperimentConfig, replicate: int,
               seed_seq: np.random.SeedSequence):
    """One replicate: split, fit every method, classify for every k.

    Returns (rows, phases, failures): phases maps method -> (fit, project,
    knn) seconds, failures maps method -> error message.
    """
    n = data.shape[0]
    children = seed_seq.spawn(1 + len(config.methods))
    split_rng = np.random.Generator(np.random.PCG64(children[0]))
    train, test = split(n, config.train_fraction, split_rng, labels=labels.indices)

    X_train = data[train]
    X_test = data[test]
    labels_tr = index_labels(labels.indices[train])  # classes in training order
    Y = encode_labels(labels_tr)
    # split puts every class in training, so argsort maps a class to its training index
    truth = np.argsort(labels_tr.classes)[labels.indices[test]]
    view = build_centered_view(X_train)
    clock = time.perf_counter if config.timing == "wall" else (lambda: 0.0)

    rows = []
    phases = {}
    failures = {}
    spectrum = None
    for m_pos, method in enumerate(config.methods):
        m_seed = derive_seed(children[1 + m_pos])
        try:
            t0 = clock()
            if method in SPECTRAL_METHODS and spectrum is None:
                spectrum = centered_spectrum(view)
            B = fit_subspace(method, view, Y, rk=replace(config.rk, seed=m_seed),
                             lsqr_tol=config.lsqr_tol, spectrum=spectrum)
            t1 = clock()
            Z_train = project(X_train, B, view.column_means)
            Z_test = project(X_test, B, view.column_means)
            t2 = clock()
            index, dist2 = knn_search(Z_train, Z_test, max(config.knn_ks))
            t3 = clock()
        except RkldaError as exc:
            failures[method] = f"{type(exc).__name__}: {exc}"
            continue
        vote_total = 0.0
        for k in config.knn_ks:
            t4 = clock()
            preds = knn_vote(index, dist2, labels_tr.indices, k)
            vote = clock() - t4
            vote_total += vote
            rows.append((method, replicate, k, accuracy(preds, truth), (t3 - t0) + vote))
        phases[method] = (t1 - t0, t2 - t1, (t3 - t2) + vote_total)
    return rows, phases, failures


def run_experiment(data, labels: LabelVector, config: ExperimentConfig) -> ExperimentReport:
    """The full protocol over ``config.replicates`` random splits of the rows
    of ``data``, whose classes ``labels`` gives."""
    data = validate_raw(data)  # test rows included
    if data.shape[0] != labels.n:
        raise InvalidData(f"{data.shape[0]} observations vs {labels.n} labels")
    rep_seqs = np.random.SeedSequence(config.seed).spawn(config.replicates)

    rows = []
    phases = {m: [] for m in config.methods}
    fail_messages = {m: [] for m in config.methods}
    for r in range(config.replicates):
        rep_rows, rep_phases, failures = _replicate(data, labels, config, r, rep_seqs[r])
        rows.extend(rep_rows)
        for m, times in rep_phases.items():
            phases[m].append(times)
        for m, message in failures.items():
            fail_messages[m].append(message)

    methods_summary = {}
    for method in config.methods:
        per_k = {}
        for k in config.knn_ks:
            accs = [r[3] for r in rows if r[0] == method and r[2] == k]
            secs = [r[4] for r in rows if r[0] == method and r[2] == k]
            if accs:
                per_k[str(k)] = {
                    "accuracy_median": float(np.median(accs)),
                    "accuracy_std": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0,
                    "seconds_median": float(np.median(secs)),
                    "seconds_std": float(np.std(secs, ddof=1)) if len(secs) > 1 else 0.0,
                }
        messages = fail_messages[method]
        completed = config.replicates - len(messages)
        medians = np.median(phases[method], axis=0) if phases[method] else np.zeros(3)
        methods_summary[method] = {
            "completed": completed,
            "failures": len(messages),
            "failed": completed == 0,
            "per_k": per_k,
            "fit_seconds_median": float(medians[0]),
            "project_seconds_median": float(medians[1]),
            "knn_seconds_median": float(medians[2]),
        }
        if messages:  # distinct, in order of first appearance
            methods_summary[method]["failure_messages"] = list(dict.fromkeys(messages))

    return ExperimentReport(methods=methods_summary, rows=tuple(rows), config=asdict(config))

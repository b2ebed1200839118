"""Downstream-classification evaluation: repeated random splits, subspace
fits on training data, projection of held-out data, kNN accuracy, timing.
Held-out rows are centered at the training means by a view of their own, so
both blocks project by one expression, exact at any column offset.

kNN runs in two parts.  The neighbour search finds each test row's
max(knn_ks) nearest training rows once per (replicate, method), ordered by
(squared distance, training index); the vote then classifies from the
first k of them for every k.  The search takes a chunk of test rows at a
time through two buffers allocated once per search: the chunk's squared
distances are built in the first, a value partition of a copy in the second
gives each row's k-th smallest distance, and one scan for the entries at or
below it finds the candidates.  A row with exactly k candidates sorts just
those; a row whose tie runs past the k-th place, or whose NaN distances
leave fewer than k, sorts its whole row.

A row's ``seconds`` is the shared fit + projection + neighbour search, plus
that k's vote.  Each method's summary also carries the medians over
replicates of the three phases (``fit_seconds_median``,
``project_seconds_median``, ``knn_seconds_median``, the last being the
search plus every k's vote), and a method that failed on any replicate
lists its distinct failure messages in ``failure_messages``.  The ``lsqr``
summary counts in ``unconverged`` the replicates whose fit stopped a column
at the iteration cap, and the ``rk`` summary in ``excluded_rows`` the
zero-norm training rows its fits never sampled, summed over the replicates.
Under ``timing="none"`` every timing is 0.0, so
reports are byte-reproducible.  ``pinv`` and ``ulda`` share one dense SVD
of a replicate's training rows, the view's ``spectrum``, which counts in
the fit time of whichever of them runs first.
"""

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .baselines import LSQR_TOL, Subspace, check_lsqr, pinv_oracle, solve_lsqr, ulda_oracle
from .errors import ClassCoverageError, InvalidData, RkldaError
from .labels import LabelVector, encode_labels, index_labels
from .matrix import build_centered_view, to_dense_centered, validate_raw
from .rk import SolverConfig, derive_seed, solve_rk

KNOWN_METHODS = ("full", "rk", "lsqr", "pinv", "ulda")
# Entries held at once by the kNN: in the search, two buffers of test rows x
# training rows (the squared distances and their partitioned copy); in the
# vote, test rows x classes of counts.
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
                             #            fit/project/knn_seconds_median,
                             #            unconverged for lsqr,
                             #            excluded_rows for rk, and
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


def project(data, B, means) -> np.ndarray:
    """Rows of ``data`` centered at ``means`` by ``build_centered_view`` (the
    *training* column means, a scalar, or None for their own) times the d x c
    array B; ``B=None`` keeps the full centered rows, and sparse data is then
    densified, which raises TooLarge past the dense guard."""
    view = build_centered_view(data, means=means)
    if B is not None and np.shape(B)[0] != view.d:
        raise InvalidData(f"subspace rows {np.shape(B)[0]} vs {view.d} data columns")
    return to_dense_centered(view) if B is None else view.matmul(B)


def knn_search(train_Z: np.ndarray, test_Z: np.ndarray, k: int):
    """The k nearest training rows of every test row.

    Returns ``(index, dist2)``, both n_test x k: training indices ordered by
    (squared distance, training index), and their squared distances
    ``max(||a||^2 - 2 a.b + ||b||^2, 0)``.  Test rows are searched
    KNN_CHUNK_ELEMENTS // (2 n_train) at a time, in two buffers allocated
    once per search.
    """
    train_Z = np.atleast_2d(np.asarray(train_Z, dtype=np.float64))
    test_Z = np.atleast_2d(np.asarray(test_Z, dtype=np.float64))
    n_train = train_Z.shape[0]
    if n_train == 0:
        raise InvalidData("empty training set")
    if not 1 <= k <= n_train:
        raise InvalidData(f"k must be in [1, {n_train}], got {k}")
    if test_Z.shape[1] != train_Z.shape[1]:
        raise InvalidData(f"test rows have {test_Z.shape[1]} columns, "
                          f"training rows {train_Z.shape[1]}")

    n_test = test_Z.shape[0]
    train_sq = np.einsum("ij,ij->i", train_Z, train_Z)
    test_sq = np.einsum("ij,ij->i", test_Z, test_Z)
    # (-2 a).b is exactly -((2 a).b), so d2 keeps the bits of ||a||^2 - (2 a).b + ||b||^2
    neg2_test = -2.0 * test_Z
    index = np.empty((n_test, k), dtype=np.intp)
    dist2 = np.empty((n_test, k))
    rows = max(1, KNN_CHUNK_ELEMENTS // (2 * n_train))
    d2_buffer = np.empty((min(rows, n_test), n_train))
    part_buffer = np.empty_like(d2_buffer)
    for lo in range(0, n_test, rows):
        hi = min(lo + rows, n_test)
        d2 = d2_buffer[:hi - lo]
        np.matmul(neg2_test[lo:hi], train_Z.T, out=d2)
        d2 += test_sq[lo:hi, None]
        d2 += train_sq
        np.maximum(d2, 0.0, out=d2)
        _k_nearest(d2, k, part_buffer[:hi - lo], index[lo:hi], dist2[lo:hi])
    return index, dist2


def _k_nearest(d2: np.ndarray, k: int, part: np.ndarray, index: np.ndarray,
               dist2: np.ndarray) -> None:
    """Write each row's k smallest entries of d2, by (value, column index),
    into ``index`` and ``dist2``; ``part`` is scratch of d2's shape."""
    n = d2.shape[1]
    np.copyto(part, d2)
    part.partition(k - 1, axis=1)
    # every entry at or below its row's k-th smallest value, row by row and
    # in column order within a row; NaN never qualifies
    flat = np.flatnonzero(d2 <= part[:, k - 1:k])
    row_of = flat // n
    exact = np.bincount(row_of, minlength=d2.shape[0]) == k
    cand = flat[exact[row_of]].reshape(-1, k)
    cand_d2 = d2.ravel()[cand]
    # columns ascend within a row, so a stable sort by value orders by (value, index)
    order = np.argsort(cand_d2, axis=1, kind="stable")
    index[exact] = np.take_along_axis(cand % n, order, axis=1)
    dist2[exact] = np.take_along_axis(cand_d2, order, axis=1)
    # A tie at the k-th value that continues past the cut, or NaN distances
    # (fewer than k candidates): order the whole row.
    for t in np.flatnonzero(~exact):
        index[t] = np.argsort(d2[t], kind="stable")[:k]
        dist2[t] = d2[t, index[t]]


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
                 lsqr_max_iters: int | None = None) -> Subspace | None:
    """The subspace of ``method`` (one of KNOWN_METHODS) fit on the centered
    ``view`` with the class indicator ``Y`` of its rows; None for ``full``.

    An RK fit is ``solve_rk`` with the settings ``rk`` and ``on_checkpoint``
    and carries its iterations_run and excluded_rows; an LSQR fit whether
    every column converged and the most iterations a column took.  ``pinv``
    and ``ulda`` read the view's ``spectrum``, within the dense guard.
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
        return pinv_oracle(view, Y)
    if method == "ulda":
        return ulda_oracle(view, Y)
    raise InvalidData(f"unknown method {method!r}")


def _replicate(data, labels: LabelVector, config: ExperimentConfig, replicate: int,
               seed_seq: np.random.SeedSequence):
    """One replicate: split, fit every method, classify for every k.

    Returns (rows, fits, failures): fits maps method -> (fit, project,
    knn seconds, the Subspace, None for ``full``), failures maps method ->
    error message.
    """
    n = data.shape[0]
    children = seed_seq.spawn(1 + len(config.methods))
    split_rng = np.random.Generator(np.random.PCG64(children[0]))
    train, test = split(n, config.train_fraction, split_rng, labels=labels.indices)

    labels_tr = index_labels(labels.indices[train])  # classes in training order
    Y = encode_labels(labels_tr)
    # split puts every class in training, so argsort maps a class to its training index
    truth = np.argsort(labels_tr.classes)[labels.indices[test]]
    view = build_centered_view(data[train])  # the one copy of the training rows
    test_view = build_centered_view(data[test], means=view.column_means)
    clock = time.perf_counter if config.timing == "wall" else (lambda: 0.0)

    rows = []
    fits = {}
    failures = {}
    for m_pos, method in enumerate(config.methods):
        m_seed = derive_seed(children[1 + m_pos])
        try:
            t0 = clock()
            B = fit_subspace(method, view, Y, rk=replace(config.rk, seed=m_seed),
                             lsqr_tol=config.lsqr_tol)
            t1 = clock()
            Z_train, Z_test = (to_dense_centered(v) if B is None else v.matmul(B.matrix)
                               for v in (view, test_view))
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
        fits[method] = (t1 - t0, t2 - t1, (t3 - t2) + vote_total, B)
    return rows, fits, failures


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
    unconverged = dict.fromkeys(config.methods, 0)
    excluded = dict.fromkeys(config.methods, 0)
    for r in range(config.replicates):
        rep_rows, fits, failures = _replicate(data, labels, config, r, rep_seqs[r])
        rows.extend(rep_rows)
        for m, (*times, sub) in fits.items():
            phases[m].append(times)
            if sub is not None:
                unconverged[m] += sub.converged is False
                excluded[m] += sub.excluded_rows or 0
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
        if method == "lsqr":
            methods_summary[method]["unconverged"] = unconverged[method]
        if method == "rk":
            methods_summary[method]["excluded_rows"] = excluded[method]
        if messages:  # distinct, in order of first appearance
            methods_summary[method]["failure_messages"] = list(dict.fromkeys(messages))

    return ExperimentReport(methods=methods_summary, rows=tuple(rows), config=asdict(config))

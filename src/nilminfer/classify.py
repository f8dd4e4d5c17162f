"""From-scratch classifiers and the household-characteristic experiment.

kNN and a bagged random forest, both with deterministic tie-breaking so every
experiment is reproducible from its seed, plus the class taxonomy used to turn
numeric household metadata into labels.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right

import numpy as np

from .events import DetectorConfig
from .features import build_feature_table, chi2_select

# characteristic -> (manifest key, least value labelled, cuts, classes lowest
# first, the side a value equal to a cut falls on: ">=" the class above, so
# age 30 is Old; "<=" the class below, so rooms 6 is LE6), in experiment order
TAXONOMY = {
    "age": ("age_years", 0, (30,), ("New", "Old"), ">="),
    "area": ("area_sqft", 900, (1800,), ("Medium", "High"), ">="),
    "income": ("income_usd_per_year", 0, (150_000,), ("Below150k", "Above150k"),
               "<="),
    "floors": ("floors", 1, (1,), ("One", "TwoPlus"), "<="),
    "rooms": ("rooms", 0, (6, 8), ("LE6", "SevenToEight", "GT8"), "<="),
    "occupants": ("occupants", 0, (2,), ("LE2", "GT2"), "<="),
}


def label_characteristics(characteristics: dict) -> dict:
    """Map numeric household metadata to a label (or None) per
    characteristic of TAXONOMY: a value below the least labelled one (area
    under 900 sq ft, floors under 1) or a missing key maps to None. Any
    value that is not finite and >= 0 is a ValueError naming its key.
    """
    labels = {}
    for name, (key, least, cuts, classes, side) in TAXONOMY.items():
        v = characteristics.get(key)
        if v is not None and not 0 <= v < math.inf:
            raise ValueError(f"{key} must be finite and >= 0, got {v!r}")
        labels[name] = None if v is None or v < least else classes[
            (bisect_right if side == ">=" else bisect_left)(cuts, v)]
    return labels


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------

KNN_K = 5
N_TREES = 25
MAX_DEPTH = 6
# chi-squared feature counts the inner scan tries; None keeps every feature
CHI2_K_CANDIDATES = (2, 4, 6, 8, None)
CLASSIFIERS = ("knn", "rf")


def _encode_labels(train_y):
    """(classes, codes, rank): the training classes sorted by str, each
    training label's index into classes, and each class's tie rank (more
    frequent in training first, then by str)."""
    classes = sorted(set(train_y), key=str)
    index = {c: i for i, c in enumerate(classes)}
    codes = np.array([index[v] for v in train_y], dtype=np.intp)
    freq = np.bincount(codes, minlength=len(classes))
    rank = np.empty(len(classes), dtype=np.intp)
    rank[np.lexsort((np.arange(len(classes)), -freq))] = np.arange(len(classes))
    return classes, codes, rank


def _vote(votes, classes, rank):
    """Per row of class-index votes, the class with the most votes; ties go
    to the lower rank."""
    n_rows, n_classes = votes.shape[0], len(classes)
    offsets = np.arange(n_rows, dtype=np.intp)[:, None] * n_classes
    counts = np.bincount((offsets + votes).ravel(),
                         minlength=n_rows * n_classes).reshape(n_rows, n_classes)
    winners = np.argmax(counts * n_classes - rank, axis=1)
    return np.array([classes[i] for i in winners], dtype=object)


def _check_xy(train_X, train_y, test_X):
    """(train_X, train_y, test_X) as float matrices and a label list.
    ValueError unless both matrices are 2-D, finite and of one width, with
    one label per training row and at least one training row."""
    train_X = np.asarray(train_X, dtype=float)
    test_X = np.asarray(test_X, dtype=float)
    train_y = list(train_y)
    if train_X.ndim != 2 or test_X.ndim != 2:
        raise ValueError("train_X and test_X must be 2-D")
    if len(train_y) != train_X.shape[0]:
        raise ValueError("train_y must have one label per training row")
    if train_X.shape[0] == 0:
        raise ValueError("training set is empty")
    if test_X.shape[1] != train_X.shape[1]:
        raise ValueError("feature dimensionality mismatch")
    if not (np.isfinite(train_X).all() and np.isfinite(test_X).all()):
        raise ValueError("features must be finite")
    return train_X, train_y, test_X


def knn_classify(train_X, train_y, test_X, k: int = KNN_K):
    """k-nearest-neighbours with z-scored features and Euclidean distance.

    Zero-variance features are dropped from the distance. Neighbours are
    found by selection: only the candidates at or below the k-th smallest
    distance (`np.partition`) are stably sorted, so equidistant neighbours
    resolve to the lower training index. Vote ties resolve to the most
    frequent training class, then lexicographically.
    """
    train_X, train_y, test_X = _check_xy(train_X, train_y, test_X)
    if not 1 <= k <= train_X.shape[0]:
        raise ValueError(f"k={k} out of range for {train_X.shape[0]} rows")

    mu = train_X.mean(axis=0)
    sd = train_X.std(axis=0)
    keep = sd > 0  # with no feature kept, every distance is 0
    Xtr = (train_X[:, keep] - mu[keep]) / sd[keep]
    Xte = (test_X[:, keep] - mu[keep]) / sd[keep]

    classes, codes, rank = _encode_labels(train_y)
    votes = np.empty((Xte.shape[0], k), dtype=np.intp)
    for i, x in enumerate(Xte):
        d2 = ((Xtr - x) ** 2).sum(axis=1)
        near = np.flatnonzero(d2 <= np.partition(d2, k - 1)[k - 1])
        votes[i] = codes[near[np.argsort(d2[near], kind="stable")[:k]]]
    return _vote(votes, classes, rank)


def _best_split(X, hot, orders, counts, feats, mark):
    """(feature, threshold, go_left, left class counts) of the lowest-Gini cut
    between distinct values of a drawn feature, or None; go_left marks the
    rows of `orders` that go left, and `mark` is all False again on return."""
    rows = orders[feats]
    vals = X[rows, feats[:, None]]
    n = rows.shape[1]
    # exact class counts left of each cut, as a (class, feature, cut) block
    sq_l = hot.take(rows, axis=1)[:, :, :-1].cumsum(axis=2)
    sq_r = np.array(counts, dtype=float)[:, None, None] - sq_l
    nl = np.arange(1.0, n)
    for sq, size in ((sq_l, nl), (sq_r, n - nl)):  # size * Gini of each side
        sq /= size
        sq *= sq
        for c in range(1, len(counts)):  # summed in class order
            sq[0] += sq[c]
        np.subtract(1.0, sq[0], out=sq[0])
        sq[0] *= size
    imp = np.where(vals[:, 1:] > vals[:, :-1], (sq_l[0] + sq_r[0]) / n, np.inf)
    r, j = divmod(int(imp.argmin()), n - 1)
    if imp[r, j] == np.inf:
        return None
    thr = float((vals[r, j] + vals[r, j + 1]) / 2)
    # not j + 1: rows equal to vals[r, j + 1] go left if the midpoint rounds to it
    kk = int(vals[r].searchsorted(thr, side="right"))
    mark[rows[r, :kk]] = True
    go_left = mark[orders]
    mark[rows[r, :kk]] = False
    return feats[r], thr, go_left, hot[:, rows[r, :kk]].sum(axis=1).astype(int).tolist()


def _grow_tree(X, hot, orders, counts, depth, max_depth, rng, m_features, mark):
    """A leaf is a class index; an inner node is (feature, threshold, left,
    right), rows with X[:, feature] <= threshold going left. Row f of
    `orders` holds the node's rows sorted by X[:, f], ties in any order (class
    counts are only taken between distinct values); children keep the order.
    `hot` holds each class's 0/1 row over X, `counts` the node's counts."""
    top = max(counts)
    if depth >= max_depth or top == orders.shape[1]:
        return counts.index(top)
    feats = rng.choice(X.shape[1], size=m_features, replace=False)
    feats.sort()
    split = _best_split(X, hot, orders, counts, feats, mark)  # temporaries freed here
    if split is None:
        return counts.index(top)
    f, thr, go_left, lc = split
    left, right = (_grow_tree(X, hot, orders[side].reshape(len(orders), -1), c,
                              depth + 1, max_depth, rng, m_features, mark)
                   for side, c in ((go_left, lc),  # left subtree drawn first
                                   (~go_left, [a - b for a, b in zip(counts, lc)])))
    return (f, thr, left, right)


def _route(tree, X, rows, out):
    """Write the leaf class index of each row of X[rows] into out[rows]."""
    if isinstance(tree, int):
        out[rows] = tree
        return
    f, thr, left, right = tree
    go_left = X[rows, f] <= thr
    _route(left, X, rows[go_left], out)
    _route(right, X, rows[~go_left], out)


def rf_classify(train_X, train_y, test_X, seed: int = 0):
    """N_TREES bagged Gini decision trees of depth at most MAX_DEPTH over
    sqrt(d) feature subsets per node.

    Each tree sorts its bootstrap once per feature and grows depth first on
    those presorted lists. A node searches its drawn features as one
    (feature, position) block: exact class counts at every cut by one
    cumsum, the Gini of every cut between distinct values, and the block's
    first minimum, so the earliest feature's earliest best cut wins.
    Deterministic for a given seed; vote ties use the same rules as kNN.
    """
    train_X, train_y, test_X = _check_xy(train_X, train_y, test_X)
    classes, y_idx, rank = _encode_labels(train_y)
    n, d = train_X.shape
    m_features = max(1, int(round(np.sqrt(d))))
    rows = np.arange(test_X.shape[0])
    votes = np.empty((test_X.shape[0], N_TREES), dtype=np.intp)
    mark = np.zeros(n, dtype=bool)
    for t in range(N_TREES):
        rng = np.random.default_rng([seed, t])
        boot = rng.integers(0, n, size=n)
        X, y = train_X[boot], y_idx[boot]
        hot = (y == np.arange(len(classes))[:, None]).astype(float)
        tree = _grow_tree(X, hot, np.argsort(X.T, axis=1),
                          np.bincount(y, minlength=len(classes)).tolist(), 0,
                          MAX_DEPTH, rng, m_features, mark)
        _route(tree, test_X, rows, votes[:, t])
    return _vote(votes, classes, rank)


def majority_baseline(train_y, test_size: int):
    """Predict the modal training class everywhere (ties lexicographic)."""
    train_y = list(train_y)
    if not train_y:
        raise ValueError("training labels are empty")
    classes, codes, rank = _encode_labels(train_y)
    label = _vote(codes[None, :], classes, rank)[0]
    return np.array([label] * test_size, dtype=object)


# ---------------------------------------------------------------------------
# Cross-validation harness
# ---------------------------------------------------------------------------

def stratified_folds(labels, n_folds: int, seed: int) -> list[np.ndarray]:
    """Index folds with per-class counts differing by at most one."""
    labels = np.asarray(labels, dtype=object)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in sorted(set(labels.tolist()), key=str):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            folds[j % n_folds].append(int(i))
    return [np.array(sorted(f), dtype=int) for f in folds]


def _complement(n: int, fold: np.ndarray) -> np.ndarray:
    """The indices of range(n) outside a fold, ascending: np.setdiff1d's
    result without the numpy.ma import np.setdiff1d makes."""
    return np.delete(np.arange(n), fold)


def classifier_predict(classifier: str, train_X, train_y, test_X,
                       seed: int = 0):
    """Labels of test_X from "knn" (k = KNN_K, capped at the training size)
    or "rf" (with this seed) trained on (train_X, train_y)."""
    if classifier == "knn":
        return knn_classify(train_X, train_y, test_X,
                            k=min(KNN_K, len(train_y)))
    if classifier == "rf":
        return rf_classify(train_X, train_y, test_X, seed)
    raise ValueError(f"unknown classifier {classifier!r}")


def _scan_k(X, y, classifier, seed):
    """Pick the chi-squared k by an inner stratified 2-fold scan on the
    training fold; ties go to the smallest k. Each candidate's features are
    a prefix of one chi-squared ordering per inner fold."""
    y = np.asarray(y, dtype=object)
    d = X.shape[1]
    cands = sorted({d if k is None else min(k, d) for k in CHI2_K_CANDIDATES})
    accs = {kk: [] for kk in cands}
    for te in stratified_folds(y, 2, seed + 1):
        tr = _complement(len(y), te)
        if len(set(y[tr].tolist())) < 2 or te.size == 0:
            continue
        order, _ = chi2_select(X[tr], y[tr], d)
        for kk in cands:
            sel = order[:kk]
            pred = classifier_predict(classifier, X[tr][:, sel], y[tr],
                                      X[te][:, sel], seed)
            accs[kk].append(float(np.mean(pred == y[te])))
    return max(cands, key=lambda kk: float(np.mean(accs[kk])) if accs[kk] else 0.0)


def characteristics_experiment(manifest, feature_sources=("both",),
                               classifier: str = "knn", folds: int = 2,
                               seed: int = 7, det=DetectorConfig()) -> list[dict]:
    """Stratified k-fold prediction of household characteristics.

    For each characteristic and feature source: pick the chi-squared feature
    count by an inner scan on the training fold, select features, train the
    classifier, and report mean test accuracy along with the majority-class
    baseline. Characteristics with any class under 2 homes are skipped.
    """
    table = build_feature_table(manifest, feature_sources, det=det, seed=seed)
    labels = [label_characteristics(e.characteristics) for e in manifest.homes]

    results = []
    for characteristic in TAXONOMY:
        labelled = [i for i, home in enumerate(labels)
                    if home[characteristic] is not None]
        y_all = np.array([labels[i][characteristic] for i in labelled],
                         dtype=object)
        class_counts = {c: int((y_all == c).sum()) for c in sorted(set(y_all.tolist()))}
        if len(class_counts) < 2 or min(class_counts.values()) < folds:
            warnings.warn(f"skipping {characteristic}: class counts "
                          f"{class_counts} too small for {folds}-fold CV",
                          stacklevel=2)
            continue
        fold_idx = stratified_folds(y_all, folds, seed)
        for source in feature_sources:
            ids, X = table[source]
            X = X[labelled]
            fold_accs, base_accs, selected = [], [], set()
            best_ks = []
            for f in range(folds):
                te = fold_idx[f]
                tr = _complement(len(labelled), te)
                k_best = _scan_k(X[tr], y_all[tr], classifier, seed)
                sel, _ = chi2_select(X[tr], y_all[tr], k_best)
                pred = classifier_predict(classifier, X[tr][:, sel],
                                          y_all[tr], X[te][:, sel], seed)
                fold_accs.append(float(np.mean(pred == y_all[te])))
                base = majority_baseline(y_all[tr], te.size)
                base_accs.append(float(np.mean(base == y_all[te])))
                selected.update(ids[i] for i in sel)
                best_ks.append(k_best)
            results.append({
                "characteristic": characteristic,
                "source": source,
                "classifier": classifier,
                "accuracy_pct": 100.0 * float(np.mean(fold_accs)),
                "baseline_accuracy_pct": 100.0 * float(np.mean(base_accs)),
                "selected_features": sorted(selected),
                "chi2_k": best_ks,
                "n_homes": len(labelled),
            })
    return results

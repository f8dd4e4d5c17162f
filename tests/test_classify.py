"""Label taxonomy, from-scratch classifiers, CV harness."""
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilminfer import classify
from nilminfer.classify import (characteristics_experiment, knn_classify,
                                label_characteristics, majority_baseline,
                                rf_classify, stratified_folds)


# ---------------------------------------------------------------------------
# label taxonomy
# ---------------------------------------------------------------------------

def test_label_examples():
    labels = label_characteristics({"area_sqft": 2000, "occupants": 2})
    assert labels["area"] == "High"
    assert labels["occupants"] == "LE2"


def test_label_boundaries():
    labels = label_characteristics({"age_years": 30, "area_sqft": 1800,
                                    "income_usd_per_year": 150_000})
    assert labels["age"] == "Old"          # ties go to the >= class
    assert labels["area"] == "High"
    assert labels["income"] == "Below150k"


def test_label_full_taxonomy():
    labels = label_characteristics({
        "age_years": 12, "area_sqft": 1200, "income_usd_per_year": 200_000,
        "floors": 2, "rooms": 7, "occupants": 4})
    assert labels == {"age": "New", "area": "Medium", "income": "Above150k",
                      "floors": "TwoPlus", "rooms": "SevenToEight",
                      "occupants": "GT2"}
    assert label_characteristics({"rooms": 6})["rooms"] == "LE6"
    assert label_characteristics({"rooms": 9})["rooms"] == "GT8"


def test_label_missing_and_out_of_range():
    labels = label_characteristics({})
    assert all(v is None for v in labels.values())
    assert label_characteristics({"area_sqft": 800})["area"] is None


def test_label_negative_rejected():
    with pytest.raises(ValueError):
        label_characteristics({"area_sqft": -1})


def labels_by_if_chain(c):
    """The taxonomy as one if-chain per characteristic, as it was written
    before TAXONOMY: the reference the table is held to."""
    labels = {}
    age = c.get("age_years")
    labels["age"] = None if age is None else ("Old" if age >= 30 else "New")
    area = c.get("area_sqft")
    if area is None or area < 900:
        labels["area"] = None
    else:
        labels["area"] = "High" if area >= 1800 else "Medium"
    income = c.get("income_usd_per_year")
    labels["income"] = None if income is None else (
        "Below150k" if income <= 150_000 else "Above150k")
    floors = c.get("floors")
    if floors is None or floors < 1:
        labels["floors"] = None
    else:
        labels["floors"] = "One" if floors == 1 else "TwoPlus"
    rooms = c.get("rooms")
    if rooms is None:
        labels["rooms"] = None
    elif rooms <= 6:
        labels["rooms"] = "LE6"
    elif rooms <= 8:
        labels["rooms"] = "SevenToEight"
    else:
        labels["rooms"] = "GT8"
    occ = c.get("occupants")
    labels["occupants"] = None if occ is None else ("LE2" if occ <= 2 else "GT2")
    return labels


KEYS = [key for key, *_ in classify.TAXONOMY.values()]
EDGES = {edge for _, least, cuts, _, _ in classify.TAXONOMY.values()
         for edge in (least, *cuts)}
# every cut and least value with its neighbouring floats, the integers 0-12
# and their halves, and large values; negatives are refused, not labelled
LABEL_GRID = sorted(
    v for v in EDGES | {float(np.nextafter(edge, to)) for edge in EDGES
                        for to in (-np.inf, np.inf)}
    | set(range(13)) | {i / 2 for i in range(25)}
    | {1e6, 1e9, 2.0 ** 63, 1e300, sys.float_info.max} if v >= 0)


@pytest.mark.parametrize("key", KEYS)
def test_taxonomy_table_labels_as_the_if_chain(key):
    for v in LABEL_GRID:
        assert label_characteristics({key: v}) == labels_by_if_chain({key: v}), v
    every = {k: 7 for k in KEYS}
    for missing in KEYS:
        c = {k: v for k, v in every.items() if k != missing}
        assert label_characteristics(c) == labels_by_if_chain(c)
    assert label_characteristics({}) == labels_by_if_chain({})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   -1, -0.5])
@pytest.mark.parametrize("key", KEYS)
def test_label_refuses_a_value_not_finite_and_non_negative(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite and >= 0"):
        label_characteristics({key: value})


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------

def knn_oracle(train_X, train_y, test_X, k):
    """Sort-all-distances reimplementation with the documented tie rules."""
    train_X = np.asarray(train_X, dtype=float)
    test_X = np.asarray(test_X, dtype=float)
    mu, sd = train_X.mean(0), train_X.std(0)
    keep = sd > 0
    tr = (train_X[:, keep] - mu[keep]) / sd[keep]
    te = (test_X[:, keep] - mu[keep]) / sd[keep]
    out = []
    freq = {}
    for v in train_y:
        freq[v] = freq.get(v, 0) + 1
    for x in te:
        ranked = sorted(range(len(tr)),
                        key=lambda i: (float(((tr[i] - x) ** 2).sum()), i))[:k]
        votes = {}
        for i in ranked:
            votes[train_y[i]] = votes.get(train_y[i], 0) + 1
        top = max(votes.values())
        cands = sorted([v for v, c in votes.items() if c == top],
                       key=lambda v: (-freq.get(v, 0), str(v)))
        out.append(cands[0])
    return np.array(out, dtype=object)


def test_knn_zero_distance_wins():
    X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    y = ["a", "b", "c"]
    pred = knn_classify(X, y, np.array([[5.0, 5.0]]), k=1)
    assert pred[0] == "b"


def test_knn_unanimous_vote():
    X = np.array([[0, 0], [0.1, 0], [0, 0.1], [9, 9.0]])
    y = ["a", "a", "a", "b"]
    pred = knn_classify(X, y, np.array([[0.05, 0.05]]), k=3)
    assert pred[0] == "a"


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(16)
    for _ in range(6):
        train_X = rng.normal(0, 3, (30, 5))
        train_y = [str(c) for c in rng.integers(0, 3, 30)]
        test_X = rng.normal(0, 3, (12, 5))
        got = knn_classify(train_X, train_y, test_X, k=5)
        want = knn_oracle(train_X, train_y, test_X, k=5)
        assert list(got) == list(want)


def test_knn_scale_invariance():
    rng = np.random.default_rng(17)
    train_X = rng.normal(0, 1, (24, 4))
    train_y = [str(c) for c in rng.integers(0, 2, 24)]
    test_X = rng.normal(0, 1, (8, 4))
    base = knn_classify(train_X, train_y, test_X, k=5)
    scaled_tr, scaled_te = train_X.copy(), test_X.copy()
    scaled_tr[:, 2] *= 1000.0
    scaled_te[:, 2] *= 1000.0
    assert list(knn_classify(scaled_tr, train_y, scaled_te, k=5)) == list(base)


def test_knn_argument_errors():
    with pytest.raises(ValueError):
        knn_classify(np.empty((0, 2)), [], np.ones((1, 2)), k=1)
    with pytest.raises(ValueError):
        knn_classify(np.ones((3, 2)), ["a"] * 3, np.ones((1, 2)), k=4)


CLASSIFIERS = {
    "knn": lambda X, y, T: knn_classify(X, y, T, k=1),
    "rf": rf_classify,
}
_X, _Y, _T = np.arange(8.0).reshape(4, 2), ["a", "b"] * 2, np.ones((1, 2))
BAD_ARGUMENTS = {
    "1-D training matrix": ((_X[:, 0], _Y, _T[:, :1]), "2-D"),
    "3-D test matrix": ((_X, _Y, _T[None]), "2-D"),
    "6 labels for 4 rows": ((_X, _Y + _Y[:2], _T), "one label per training row"),
    "empty training set": ((_X[:0], [], _T), "empty"),
    "4 test columns against 2": ((_X, _Y, np.ones((1, 4))), "dimensionality"),
    "nan in training": ((np.where(_X == 3, np.nan, _X), _Y, _T), "finite"),
    "inf in training": ((np.where(_X == 3, np.inf, _X), _Y, _T), "finite"),
    "nan test row": ((_X, _Y, np.array([[np.nan, 1.0]])), "finite"),
    "-inf test row": ((_X, _Y, np.array([[1.0, -np.inf]])), "finite"),
}


@pytest.mark.parametrize("classifier", sorted(CLASSIFIERS))
@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_classifiers_reject_bad_arguments(classifier, case):
    (train_X, train_y, test_X), message = BAD_ARGUMENTS[case]
    with pytest.raises(ValueError, match=message):
        CLASSIFIERS[classifier](train_X, train_y, test_X)
    assert len(CLASSIFIERS[classifier](_X, _Y, _T)) == 1


def knn_neighbours_by_full_sort(train_X, test_X, k):
    """Training indices of each test row's k neighbours by a stable argsort
    of every distance: the reference that kNN's selection must reproduce."""
    mu, sd = train_X.mean(axis=0), train_X.std(axis=0)
    keep = sd > 0
    if keep.any():
        Xtr = (train_X[:, keep] - mu[keep]) / sd[keep]
        Xte = (test_X[:, keep] - mu[keep]) / sd[keep]
    else:
        Xtr = np.zeros((train_X.shape[0], 1))
        Xte = np.zeros((test_X.shape[0], 1))
    return np.array([np.argsort(((Xtr - x) ** 2).sum(axis=1), kind="stable")[:k]
                     for x in Xte])


@st.composite
def tie_heavy_tables(draw):
    """(train_X, train_y, test_X, k) on a 3-value integer grid: duplicate
    rows, equal distances, often a constant column, test rows that repeat
    training rows, and k anywhere in 1..n."""
    n, d = draw(st.integers(1, 14)), draw(st.integers(1, 3))
    grid = st.lists(st.integers(0, 2), min_size=d, max_size=d)
    train_X = np.array(draw(st.lists(grid, min_size=n, max_size=n)), dtype=float)
    if draw(st.booleans()):
        train_X[:, draw(st.integers(0, d - 1))] = draw(st.integers(0, 2))
    test_X = np.array(draw(st.lists(
        st.one_of(grid, st.sampled_from(train_X.tolist())),
        min_size=1, max_size=6)), dtype=float)
    train_y = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    return train_X, train_y, test_X, draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(tie_heavy_tables())
def test_knn_selection_matches_full_stable_sort(table):
    train_X, train_y, test_X, k = table
    want = knn_neighbours_by_full_sort(train_X, test_X, k)
    # Distinct labels sorted as the row order make each vote a row index.
    row_labels = [f"{i:02d}" for i in range(len(train_y))]
    seen = []
    vote = classify._vote
    with mock.patch.object(classify, "_vote",
                           lambda votes, *rest: seen.append(votes) or vote(votes, *rest)):
        knn_classify(train_X, row_labels, test_X, k)
    assert seen[0].tolist() == want.tolist()
    classes, codes, rank = classify._encode_labels(train_y)
    assert list(knn_classify(train_X, train_y, test_X, k)) == list(
        classify._vote(codes[want], classes, rank))


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def separable_fixture(n=40, seed=18):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0, 0.5, (n // 2, 3))
    X1 = rng.normal(10, 0.5, (n // 2, 3))
    X = np.vstack([X0, X1])
    y = ["lo"] * (n // 2) + ["hi"] * (n // 2)
    return X, y


def test_rf_single_class_training():
    X = np.ones((5, 2))
    pred = rf_classify(X, ["only"] * 5, np.zeros((3, 2)))
    assert list(pred) == ["only"] * 3


def test_rf_deterministic_given_seed():
    X, y = separable_fixture()
    test = np.random.default_rng(19).normal(5, 3, (10, 3))
    a = rf_classify(X, y, test, seed=123)
    b = rf_classify(X, y, test, seed=123)
    assert list(a) == list(b)


def test_rf_separable_fixture_perfect():
    X, y = separable_fixture()
    rng = np.random.default_rng(20)
    test_X = np.vstack([rng.normal(0, 0.5, (10, 3)),
                        rng.normal(10, 0.5, (10, 3))])
    want = ["lo"] * 10 + ["hi"] * 10
    pred = rf_classify(X, y, test_X, seed=0)
    assert list(pred) == want


def test_rf_even_forest_tie_goes_to_frequent_then_lexicographic_class():
    # Constant features leave each tree a single leaf: the majority class of
    # its bootstrap, drawn by default_rng([seed, tree]), ties to the lower str.
    def leaf(y, seed, tree):
        boot = np.random.default_rng([seed, tree]).integers(0, len(y), len(y))
        return max(sorted(set(y)), key=lambda c: sum(y[i] == c for i in boot))

    for y, winner in ((["B"] * 4 + ["A"] * 3, "B"),   # more frequent wins
                      (["b"] * 3 + ["a"] * 3, "a")):  # then lexicographic
        X = np.zeros((len(y), 2))
        split = [s for s in range(40) if leaf(y, s, 0) != leaf(y, s, 1)]
        assert split
        for seed in split:
            with mock.patch.object(classify, "N_TREES", 2):
                pred = rf_classify(X, y, np.zeros((1, 2)), seed)
            assert pred[0] == winner


def test_rf_classifies_each_row_as_alone():
    X, y = separable_fixture()
    test_X = np.random.default_rng(22).normal(5, 4, (15, 3))
    together = rf_classify(X, y, test_X, seed=5)
    assert set(together) == {"lo", "hi"}
    assert list(together) == [rf_classify(X, y, row[None, :], seed=5)[0]
                              for row in test_X]


def gini_best_split_one_hot(X, y_idx, n_classes, features):
    """The forest's best split before presorting: a fresh stable argsort of
    each candidate column, and class counts as the cumsum of a float one-hot
    matrix summed with `.sum(axis=1)`. The reference for the presorted split."""
    n = y_idx.size
    best = None
    for f in features:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        cs, ys = col[order], y_idx[order]
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys] = 1.0
        left = np.cumsum(onehot, axis=0)
        total = left[-1]
        boundaries = np.flatnonzero(cs[1:] > cs[:-1])
        if boundaries.size == 0:
            continue
        nl = (boundaries + 1).astype(float)
        nr = n - nl
        lc = left[boundaries]
        rc = total - lc
        gini_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
        imp = (nl * gini_l + nr * gini_r) / n
        j = int(np.argmin(imp))
        cand = (float(imp[j]), f, float((cs[boundaries[j]] + cs[boundaries[j] + 1]) / 2))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def build_tree_copying_rows(X, y_idx, n_classes, depth, max_depth, rng,
                            m_features):
    """The forest's tree builder before presorting: the one-hot split above
    at every node, and copies X[mask], X[~mask] for the children."""
    counts = np.bincount(y_idx, minlength=n_classes)
    if depth >= max_depth or counts.max() == y_idx.size or y_idx.size < 2:
        return int(np.argmax(counts))
    feats = rng.choice(X.shape[1], size=m_features, replace=False)
    feats.sort()
    best = gini_best_split_one_hot(X, y_idx, n_classes, feats)
    if best is None:
        return int(np.argmax(counts))
    _, f, thr = best
    mask = X[:, f] <= thr
    left = build_tree_copying_rows(X[mask], y_idx[mask], n_classes, depth + 1,
                                   max_depth, rng, m_features)
    right = build_tree_copying_rows(X[~mask], y_idx[~mask], n_classes,
                                    depth + 1, max_depth, rng, m_features)
    return (f, thr, left, right)


@st.composite
def forest_tables(draw):
    """(X, class codes, n_classes): up to 40 rows on a 4-value integer grid,
    so columns tie often, with 1 to 7 classes."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    n_classes = draw(st.integers(1, 7))
    X = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float)
    y_idx = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                                   min_size=n, max_size=n)), dtype=np.intp)
    return X, y_idx, n_classes


def forest_votes(X, y, test_X, seed, max_depth):
    """The (test rows, trees) vote array rf_classify hands to its vote, for
    a forest of 3 trees of depth at most max_depth."""
    seen, cast = [], classify._vote

    def vote(votes, classes, rank):
        seen.append(votes.copy())
        return cast(votes, classes, rank)

    with mock.patch.object(classify, "_vote", vote), \
            mock.patch.object(classify, "N_TREES", 3), \
            mock.patch.object(classify, "MAX_DEPTH", max_depth):
        labels = rf_classify(X, y, test_X, seed)
    return seen[0], labels


def grown_tree(X, y_idx, n_classes, orders, seed, max_depth, m_features):
    """The forest's tree, grown from the given row orders."""
    hot = (y_idx == np.arange(n_classes)[:, None]).astype(float)
    counts = np.bincount(y_idx, minlength=n_classes).tolist()
    return classify._grow_tree(X, hot, orders, counts, 0, max_depth,
                               np.random.default_rng(seed), m_features,
                               np.zeros(len(y_idx), dtype=bool))


def copying_rows(X, hot, orders, counts, *rest):
    """_grow_tree's signature over the copying-rows reference builder."""
    return build_tree_copying_rows(X, hot.argmax(axis=0), len(counts), *rest[:-1])


def assert_forest_matches_oracle(X, y_idx, n_classes, test_X, seed, max_depth):
    """rf_classify casts the votes, and so gives the labels, of a forest of
    reference trees."""
    y = [f"c{v}" for v in y_idx]
    votes, labels = forest_votes(X, y, test_X, seed, max_depth)
    with mock.patch.object(classify, "_grow_tree", copying_rows):
        ref_votes, ref_labels = forest_votes(X, y, test_X, seed, max_depth)
    np.testing.assert_array_equal(votes, ref_votes)
    assert list(labels) == list(ref_labels)


@settings(max_examples=300, deadline=None)
@given(forest_tables(), st.integers(0, 2 ** 16), st.integers(1, 6))
def test_forest_trees_match_one_hot_split_oracle(table, seed, max_depth):
    """The presorted forest grows, node for node, the trees of a builder that
    stably sorts each node's rows afresh, whatever order equal values come in,
    and rf_classify casts the same votes. Its split search picks the oracle's
    feature and threshold, marks the rows X[:, f] <= threshold as going left,
    counts their classes, and leaves its row mark clear."""
    X, y_idx, n_classes = table
    n, d = X.shape
    m_features = max(1, int(round(np.sqrt(d))))
    reference = build_tree_copying_rows(X, y_idx, n_classes, 0, max_depth,
                                        np.random.default_rng(seed), m_features)
    hot = (y_idx == np.arange(n_classes)[:, None]).astype(float)
    counts = np.bincount(y_idx, minlength=n_classes).tolist()
    ties = np.random.default_rng(seed).permutation(n)
    for orders in (np.argsort(X.T, axis=1, kind="stable"),
                   np.array([np.lexsort((ties, col)) for col in X.T])):
        assert grown_tree(X, y_idx, n_classes, orders, seed, max_depth,
                          m_features) == reference
        if n < 2:  # the tree is a leaf; no node of one row is searched
            continue
        mark = np.zeros(n, dtype=bool)
        split = classify._best_split(X, hot, orders, counts, np.arange(d), mark)
        want = gini_best_split_one_hot(X, y_idx, n_classes, range(d))
        assert not mark.any()
        if want is None:
            assert split is None
            continue
        f, thr, go_left, left_counts = split
        assert (f, thr) == want[1:]
        np.testing.assert_array_equal(go_left, X[orders, f] <= thr)
        assert left_counts == np.bincount(y_idx[X[:, f] <= thr],
                                          minlength=n_classes).tolist()

    test_X = np.vstack([X, np.indices((4,) * d).reshape(d, -1).T[::7] - 0.5])
    assert_forest_matches_oracle(X, y_idx, n_classes, test_X, seed, max_depth)


@pytest.mark.parametrize("n_classes", [2, 3])
def test_forest_trees_match_the_oracle_on_a_loho_sized_table(n_classes):
    """3000 rows of three features rounded to 0.1, so every column ties
    often and rows repeat, as the occupancy forest's 2688-row tables are
    sized: whole trees (from quicksort orders, ties in any order) and the
    votes of a full-depth forest match the reference builder's."""
    rng = np.random.default_rng(n_classes)
    X = np.round(rng.normal(size=(3000, 3)), 1)
    score = X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(0, 0.5, 3000)
    y_idx = np.digitize(score, np.quantile(score, np.arange(1, n_classes) / n_classes))
    assert len(np.unique(X, axis=0)) < 3000
    orders = np.argsort(X.T, axis=1)
    for seed in (0, 1):
        assert grown_tree(X, y_idx, n_classes, orders, seed, classify.MAX_DEPTH, 2) == \
            build_tree_copying_rows(X, y_idx, n_classes, 0, classify.MAX_DEPTH,
                                    np.random.default_rng(seed), 2)
    test_X = np.round(rng.normal(size=(200, 3)), 1)
    assert_forest_matches_oracle(X, y_idx, n_classes, test_X, 5, classify.MAX_DEPTH)


def test_split_at_a_midpoint_that_rounds_up_sends_equal_rows_left():
    """The midpoint of nextafter(1, 0) and 1.0 rounds to 1.0, so X <= 1.0
    sends the 1.0 rows left with the smaller ones: the split is not at the
    cut position, the left child cuts there again, and that cut's right
    child is empty, a leaf of class 0. Trees and votes match the reference
    builder's."""
    below = np.nextafter(1.0, 0.0)
    assert (below + 1.0) / 2 == 1.0
    X = np.array([[below]] * 6 + [[1.0]] * 5 + [[2.0]] * 4)
    y_idx = np.array([0] * 6 + [1] * 5 + [1] * 4)
    hot = (y_idx == np.arange(2)[:, None]).astype(float)
    f, thr, go_left, left_counts = classify._best_split(
        X, hot, np.argsort(X.T, axis=1), [6, 9], np.arange(1), np.zeros(15, dtype=bool))
    assert (f, thr, left_counts) == (0, 1.0, [6, 5])
    assert go_left.sum() == 11
    assert grown_tree(X, y_idx, 2, np.argsort(X.T, axis=1), 0, 2, 1) == \
        (0, 1.0, (0, 1.0, 0, 0), 1)
    for max_depth in (1, 2, 6):
        assert grown_tree(X, y_idx, 2, np.argsort(X.T, axis=1), 0, max_depth, 1) == \
            build_tree_copying_rows(X, y_idx, 2, 0, max_depth, np.random.default_rng(0), 1)
        assert_forest_matches_oracle(X, y_idx, 2, np.array([[below], [1.0], [1.5], [2.0]]),
                                     0, max_depth)


def test_rf_traced_peak_on_a_loho_sized_table():
    """One forest on 2688 x 3 rows, as each occupancy LOHO fold trains, peaks
    under 1.15 MiB of traced allocations (1.5 x the 0.77 MiB the per-feature
    search peaked at), so no split search's temporaries stay alive while the
    children are grown."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2688, 3))
    y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(0, 0.5, 2688) > 0).astype(int).tolist()
    test_X = rng.normal(size=(896, 3))
    rf_classify(X[:50], y[:50], test_X[:5])  # first-call allocations are not the forest's
    tracemalloc.start()
    try:
        rf_classify(X, y, test_X, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * 2 ** 20


# ---------------------------------------------------------------------------
# majority baseline
# ---------------------------------------------------------------------------

def test_majority_basics():
    assert list(majority_baseline(["A", "A", "B"], 3)) == ["A"] * 3
    assert list(majority_baseline(["B", "A"], 2)) == ["A"] * 2  # lexicographic


def test_majority_cv_identity():
    # cross-validated accuracy equals the test-fold frequency of the modal
    # training class
    rng = np.random.default_rng(21)
    y = np.array([str(v) for v in rng.integers(0, 3, 30)], dtype=object)
    folds = stratified_folds(y, 2, seed=0)
    for f in range(2):
        te = folds[f]
        tr = np.setdiff1d(np.arange(30), te)
        pred = majority_baseline(y[tr], te.size)
        acc = float(np.mean(pred == y[te]))
        modal = pred[0]
        assert acc == pytest.approx(float(np.mean(y[te] == modal)))


def test_fold_complement_is_setdiff1d():
    rng = np.random.default_rng(8)
    for trial in range(300):
        n, n_folds = int(rng.integers(2, 40)), int(rng.integers(2, 6))
        y = rng.integers(0, 3, n).astype(str)
        for fold in stratified_folds(y, n_folds, seed=trial):  # some empty
            got = classify._complement(n, fold)
            want = np.setdiff1d(np.arange(n), fold)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_stratified_folds_balanced():
    y = ["a"] * 7 + ["b"] * 5 + ["c"] * 4
    folds = stratified_folds(y, 2, seed=1)
    assert sorted(np.concatenate(folds).tolist()) == list(range(16))
    for cls in ("a", "b", "c"):
        counts = [sum(1 for i in f if y[i] == cls) for f in folds]
        assert abs(counts[0] - counts[1]) <= 1


# ---------------------------------------------------------------------------
# characteristics experiment
# ---------------------------------------------------------------------------

def test_perfect_information_fixture():
    # feature == class index -> any classifier is perfect
    y = ["x"] * 10 + ["y"] * 10
    X = np.array([[0.0]] * 10 + [[1.0]] * 10)
    for clf in (lambda: knn_classify(X, y, X, 5),
                lambda: rf_classify(X, y, X, seed=2)):
        assert list(clf()) == y


def test_characteristics_experiment_rows(default_corpus):
    manifest = default_corpus.manifest
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = characteristics_experiment(manifest,
                                          feature_sources=("aggregate-only",),
                                          classifier="knn", seed=7)
    chars = {r["characteristic"] for r in rows}
    assert chars == {"age", "area", "income", "floors", "rooms", "occupants"}
    for r in rows:
        assert 0 <= r["accuracy_pct"] <= 100
        assert 0 <= r["baseline_accuracy_pct"] <= 100
        assert r["selected_features"]
        assert r["n_homes"] == 20


def test_characteristics_experiment_deterministic(default_corpus):
    manifest = default_corpus.manifest
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = characteristics_experiment(manifest, ("aggregate-only",),
                                       classifier="knn", seed=7)
        b = characteristics_experiment(manifest, ("aggregate-only",),
                                       classifier="knn", seed=7)
    assert a == b


def test_characteristics_experiment_rejects_repeated_source(small_corpus):
    with pytest.raises(ValueError, match="feature source 'both' is given twice"):
        characteristics_experiment(small_corpus.manifest, ("both", "both"))


def test_characteristics_experiment_skips_small_classes(small_corpus):
    # 5 homes: some classes have < 2 members and must be skipped with warning
    with pytest.warns(UserWarning) as caught:
        rows = characteristics_experiment(small_corpus.manifest,
                                          ("aggregate-only",), seed=0)
    assert all(r["n_homes"] <= 5 for r in rows)
    # class counts print in sorted order, whatever the hash seed
    messages = [str(w.message) for w in caught]
    assert ("skipping rooms: class counts {'GT8': 1, 'LE6': 2, "
            "'SevenToEight': 2} too small for 2-fold CV") in messages

"""Label taxonomy, from-scratch classifiers, CV harness."""
import warnings

import numpy as np
import pytest

from nilminfer.classify import (RandomForestConfig, characteristics_experiment,
                                knn_classify, label_characteristics,
                                majority_baseline, rf_classify,
                                stratified_folds)


# ---------------------------------------------------------------------------
# label taxonomy
# ---------------------------------------------------------------------------

def test_label_examples():
    rec = label_characteristics({"area_sqft": 2000, "occupants": 2})
    assert rec.labels["area"] == "High"
    assert rec.labels["occupants"] == "LE2"


def test_label_boundaries():
    labels = label_characteristics({"age_years": 30, "area_sqft": 1800,
                                    "income_usd_per_year": 150_000}).labels
    assert labels["age"] == "Old"          # ties go to the >= class
    assert labels["area"] == "High"
    assert labels["income"] == "Below150k"


def test_label_full_taxonomy():
    labels = label_characteristics({
        "age_years": 12, "area_sqft": 1200, "income_usd_per_year": 200_000,
        "floors": 2, "rooms": 7, "occupants": 4}).labels
    assert labels == {"age": "New", "area": "Medium", "income": "Above150k",
                      "floors": "TwoPlus", "rooms": "SevenToEight",
                      "occupants": "GT2"}
    assert label_characteristics({"rooms": 6}).labels["rooms"] == "LE6"
    assert label_characteristics({"rooms": 9}).labels["rooms"] == "GT8"


def test_label_missing_and_out_of_range():
    labels = label_characteristics({}).labels
    assert all(v is None for v in labels.values())
    assert label_characteristics({"area_sqft": 800}).labels["area"] is None


def test_label_negative_rejected():
    with pytest.raises(ValueError):
        label_characteristics({"area_sqft": -1})


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
    cfg = RandomForestConfig(n_trees=10, max_depth=4, seed=123)
    a = rf_classify(X, y, test, cfg)
    b = rf_classify(X, y, test, cfg)
    assert list(a) == list(b)


def test_rf_separable_fixture_perfect():
    X, y = separable_fixture()
    rng = np.random.default_rng(20)
    test_X = np.vstack([rng.normal(0, 0.5, (10, 3)),
                        rng.normal(10, 0.5, (10, 3))])
    want = ["lo"] * 10 + ["hi"] * 10
    pred = rf_classify(X, y, test_X, RandomForestConfig(n_trees=25, max_depth=4,
                                                        seed=0))
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
            pred = rf_classify(X, y, np.zeros((1, 2)),
                               RandomForestConfig(n_trees=2, seed=seed))
            assert pred[0] == winner


def test_rf_classifies_each_row_as_alone():
    X, y = separable_fixture()
    test_X = np.random.default_rng(22).normal(5, 4, (15, 3))
    cfg = RandomForestConfig(n_trees=6, max_depth=4, seed=5)
    together = rf_classify(X, y, test_X, cfg)
    assert set(together) == {"lo", "hi"}
    assert list(together) == [rf_classify(X, y, row[None, :], cfg)[0]
                              for row in test_X]


def test_rf_rejects_bad_config():
    with pytest.raises(ValueError):
        rf_classify(np.ones((3, 2)), ["a", "b", "a"], np.ones((1, 2)),
                    RandomForestConfig(n_trees=0))


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
                lambda: rf_classify(X, y, X, RandomForestConfig(seed=2))):
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

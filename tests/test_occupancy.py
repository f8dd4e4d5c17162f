"""Occupancy predictors, evaluation protocol and experiment harness."""
import warnings
from datetime import datetime
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilminfer.errors import AlignmentError, ConfigurationError, EmptyWindowError
from nilminfer import occupancy, series
from nilminfer.events import DetectorConfig
from nilminfer.occupancy import (_merge_intervals, _split_half,
                                 evaluate_occupancy, foreground_pairs,
                                 occupancy_experiment, predict_occupancy_events,
                                 predict_occupancy_night_threshold,
                                 window_grid, window_stats)
from nilminfer.series import (WINDOW_S, HomeData, PowerSeries,
                              local_clock_hours, window_occupancy,
                              write_occupancy_csv)
from nilminfer.synth import DEFAULT_START, HomeSpec, gen_corpus, gen_home

HOUR = 3600


def day_series(loads, period=60, days=1, base=100.0, start=DEFAULT_START):
    """Flat base plus rectangular loads given as (start_hour, end_hour,
    watts); noiseless, so the event pipeline sees exactly these pairs."""
    n = days * 86400 // period
    t = np.arange(n) * period
    vals = np.full(n, base)
    for h0, h1, w in loads:
        vals[(t >= h0 * HOUR) & (t < h1 * HOUR)] += w
    return PowerSeries(start, period, vals)


def flags_between(pred, h0, h1):
    """Expected flag vector of pred's length: occupied exactly inside
    [h0, h1) hours since series start (window grid == day grid here)."""
    starts = np.arange(len(pred)) * WINDOW_S
    return (starts >= h0 * HOUR) & (starts < h1 * HOUR)


def event_flags(s, **kwargs):
    """The event pipeline's flags for s at the default thresholds."""
    return predict_occupancy_events(s, foreground_pairs(s, DetectorConfig()),
                                    **kwargs)


def night_flags(s, stat):
    """The night-threshold flags for s by stat ('max' or 'median')."""
    return predict_occupancy_night_threshold(s, window_stats(s), stat)


# ---------------------------------------------------------------------------
# event-pipeline predictor
# ---------------------------------------------------------------------------

def test_day_with_no_foreground_pairs_is_unoccupied():
    s = day_series([], days=2)
    pred = event_flags(s)
    assert not pred.any()


def test_event_pipeline_hand_simulation():
    s = day_series([(9.0, 9.5, 500.0), (18.0, 19.0, 300.0)])
    pred = event_flags(s)
    expected = flags_between(pred, 0.0, 9.5) | flags_between(pred, 18.0, 24.0)
    assert np.array_equal(pred, expected)


def test_event_pipeline_optimised_variant():
    s = day_series([(9.0, 9.5, 500.0), (18.0, 19.0, 300.0)])
    pred = event_flags(s, mark_start_of_day=False)
    expected = flags_between(pred, 9.0, 9.5) | flags_between(pred, 18.0, 24.0)
    assert np.array_equal(pred, expected)


def test_event_pipeline_gap_fill_bridges_short_gaps():
    # 45 min between pair end and next pair start: bridged (< 3600 s), and
    # the day is marked from its last event to midnight
    s = day_series([(9.0, 9.5, 500.0), (10.25, 10.75, 400.0)])
    pred = event_flags(s, mark_start_of_day=False)
    assert np.array_equal(pred, flags_between(pred, 9.0, 24.0))
    # 90 min gap: not bridged
    s2 = day_series([(9.0, 9.5, 500.0), (11.0, 11.5, 400.0)])
    pred2 = event_flags(s2, mark_start_of_day=False)
    expected2 = flags_between(pred2, 9.0, 9.5) | flags_between(pred2, 11.0, 24.0)
    assert np.array_equal(pred2, expected2)


@pytest.mark.parametrize("load, occupied_hours", [
    # the OFF edge at midnight is day 2's only edge: day 2 is marked to its end
    ((23.0, 24.0, 500.0), (0.0, 48.0)),
    # the ON edge at midnight belongs to day 2: day 1 has no edge at all
    ((24.0, 25.0, 500.0), (24.0, 48.0)),
])
def test_event_pipeline_edge_at_local_midnight_opens_the_next_day(
        load, occupied_hours):
    pred = event_flags(day_series([load], days=2))
    assert np.array_equal(pred, flags_between(pred, *occupied_hours))


def mark_windows(n_windows, intervals):
    """The window marking of predict_occupancy_events on a grid anchored
    at 0: each interval marks the windows [floor, ceil) it overlaps."""
    flags = np.zeros(n_windows, dtype=bool)
    for a, b in intervals:
        a = max(a, 0)
        if b > a:
            flags[a // WINDOW_S:min(-(-b // WINDOW_S), n_windows)] = True
    return flags


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-1000, 12000), st.integers(-1000, 12000)),
                max_size=10),
       st.integers(1, 16))
def test_marking_each_interval_marks_their_union(intervals, n_windows):
    merged = []
    for a, b in sorted((a, b) for a, b in intervals if b > a):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    assert np.array_equal(mark_windows(n_windows, intervals),
                          mark_windows(n_windows, merged))


def test_merge_bridges_gaps_shorter_than_pair_gap_fill():
    assert occupancy.PAIR_GAP_FILL_S == 3600
    assert _merge_intervals([(7200, 9000), (0, 3600), (3600 + 3599, 7300)]) == \
        [(0, 9000)]
    assert _merge_intervals([(0, 3600), (7200, 7300), (5, 5)]) == \
        [(0, 3600), (7200, 7300)]


def test_event_pipeline_monotone_in_pairs():
    # dropping an interior pair (same first/last events) never adds windows
    more = day_series([(9.0, 9.5, 500.0), (12.0, 12.5, 400.0),
                       (18.0, 19.0, 300.0)])
    fewer = day_series([(9.0, 9.5, 500.0), (18.0, 19.0, 300.0)])
    p_more = event_flags(more)
    p_fewer = event_flags(fewer)
    assert not (p_fewer & ~p_more).any()


def test_event_pipeline_background_removed(default_corpus):
    # a home with zero occupant activity predicts all-unoccupied even though
    # fridge and hvac cycle all day
    home = gen_home(HomeSpec(seed=41, days=2, occupant_rate_per_hour=0.0))
    pred = event_flags(home.aggregate)
    m = evaluate_occupancy(pred, *window_occupancy(home.aggregate, *home.occupancy))
    assert m["tp"] + m["fp"] == 0


# ---------------------------------------------------------------------------
# night-threshold predictor
# ---------------------------------------------------------------------------

def test_night_threshold_constant_day_unoccupied():
    s = day_series([], base=120.0)
    pred = night_flags(s, "max")
    assert not pred.any()


def test_night_threshold_single_pulse_window():
    # night is flat; one 500 W pulse inside the 10:00 window trips range/std
    s = day_series([(10.0, 10.1, 500.0)])
    pred = night_flags(s, "max")
    idx = int(10.0 * HOUR // WINDOW_S)
    expected = np.zeros(len(pred), dtype=bool)
    expected[idx] = True
    assert np.array_equal(pred, expected)


def test_night_threshold_matches_bruteforce(default_corpus):
    home = default_corpus.homes["home_03"]
    s = home.aggregate
    for stat, agg in (("max", np.max), ("median", np.median)):
        pred = night_flags(s, stat)
        # independent per-window reimplementation
        ts = s.timestamps()
        anchor = window_grid(s)[0]
        starts = anchor + np.arange(len(pred)) * WINDOW_S
        expected = np.zeros(len(pred), dtype=bool)
        zone = ZoneInfo(s.timezone)
        for d0 in range(0, len(pred) * WINDOW_S, 86400):
            day_lo = anchor + d0
            day_hi = day_lo + 86400
            feats = {}
            for w, w0 in enumerate(starts):
                if not day_lo <= w0 < day_hi:
                    continue
                seg = s.values[(ts >= w0) & (ts < w0 + 900)]
                if seg.size == 0:
                    continue
                feats[w] = (seg.max() - seg.min(), seg.std(), seg.mean())
            night = [feats[w] for w in feats
                     if 1 <= datetime.fromtimestamp(starts[w], zone).hour < 5]
            if sum(1 for _ in night) < 1:
                continue
            thr = tuple(agg([f[i] for f in night]) for i in range(3))
            for w, f in feats.items():
                expected[w] = (f[0] > thr[0]) or (f[1] > thr[1]) or (f[2] > thr[2])
        assert np.array_equal(pred, expected), stat


@pytest.mark.parametrize("first_day", [(2024, 3, 8), (2024, 11, 1)])
def test_night_threshold_matches_bruteforce_across_dst(first_day):
    # Six New York days around a transition, one of them 23 or 25 hours long.
    # The series starts at 00:07 and ends inside the last night, so its edge
    # windows are partial and the grid's first window precedes its start.
    zone = ZoneInfo("America/New_York")
    start = int(datetime(*first_day, 0, 7, tzinfo=zone).timestamp())
    n = 5 * 1440 + 265
    rng = np.random.default_rng(11)
    values = 100.0 + rng.gamma(2.0, 10.0, n) * rng.integers(1, 4, n)
    s = PowerSeries(start, 60, values, "America/New_York")
    ts = s.timestamps()
    for stat, agg in (("max", np.max), ("median", np.median)):
        pred = night_flags(s, stat)
        starts = window_grid(s)[0] + np.arange(len(pred)) * WINDOW_S
        # the local day and hour of each window from datetime, not 86400 s steps
        local = [datetime.fromtimestamp(int(w0), zone) for w0 in starts]
        expected = np.zeros(len(pred), dtype=bool)
        for date in sorted({d.date() for d in local}):
            feats, n_night, night = {}, 0, []
            for w, (w0, d) in enumerate(zip(starts, local)):
                seg = s.values[(ts >= w0) & (ts < w0 + 900)]
                if d.date() != date or seg.size == 0:
                    continue
                feats[w] = (seg.max() - seg.min(), seg.std(), seg.mean())
                if 1 <= d.hour < 5:
                    n_night += seg.size
                    night.append(feats[w])
            assert n_night >= 2, date
            thr = tuple(agg([f[i] for f in night]) for i in range(3))
            for w, f in feats.items():
                expected[w] = (f[0] > thr[0]) or (f[1] > thr[1]) or (f[2] > thr[2])
        assert expected.any() and not expected.all()
        assert np.array_equal(pred, expected), (first_day, stat)


def test_night_threshold_median_flags_superset_of_max(default_corpus):
    for hid in ("home_01", "home_05"):
        s = default_corpus.homes[hid].aggregate
        p_max = night_flags(s, "max")
        p_med = night_flags(s, "median")
        assert not (p_max & ~p_med).any()


def test_night_threshold_skips_day_without_night():
    # series starting 06:00: first day has no night window
    start = DEFAULT_START + 6 * HOUR
    s = PowerSeries(start, 60, np.full(36 * 60, 100.0))  # 06:00 -> 18:00 next day
    with pytest.warns(UserWarning, match="skipped 1 day"):
        pred = night_flags(s, "max")
    starts = window_grid(s)[0] + np.arange(len(pred)) * WINDOW_S
    first_day = starts < DEFAULT_START + 86400
    assert not pred[first_day].any()


def test_night_threshold_rejects_unknown_stat():
    s = day_series([])
    with pytest.raises(ValueError):
        predict_occupancy_night_threshold(s, window_stats(s), "mean")


# ---------------------------------------------------------------------------
# window features
# ---------------------------------------------------------------------------

def window_features(s):
    """(starts, [mean, std, range] rows) of the non-empty windows of s, read
    from the columns of window_stats."""
    starts, counts, mean, std, rng = window_stats(s)
    full = counts > 0
    return starts[full], np.column_stack([mean, std, rng])[full]


def test_window_features_constant():
    s = day_series([], base=1000.0)
    starts, X = window_features(s)
    assert X.shape == (96, 3)
    np.testing.assert_allclose(X[0], [1000.0, 0.0, 0.0])


def test_window_features_two_point():
    vals = np.tile([0.0, 1000.0], 43200)
    s = PowerSeries(DEFAULT_START, 1, vals)
    _, X = window_features(s)
    np.testing.assert_allclose(X[0], [500.0, 500.0, 1000.0])


def test_window_features_match_bruteforce(default_corpus):
    s = default_corpus.homes["home_02"].aggregate
    starts, X = window_features(s)
    ts = s.timestamps()
    for i in np.random.default_rng(0).choice(len(starts), 25, replace=False):
        seg = s.values[(ts >= starts[i]) & (ts < starts[i] + 900)]
        np.testing.assert_allclose(
            X[i], [seg.mean(), seg.std(), seg.max() - seg.min()], atol=1e-9)


def window_stats_by_loop(s):
    """Reference window_stats: one masked segment per 900 s window."""
    anchor, n_windows = window_grid(s)
    ts = s.timestamps()
    starts = anchor + np.arange(n_windows, dtype=np.int64) * 900
    counts = np.zeros(n_windows, dtype=np.int64)
    stats = np.full((3, n_windows), np.nan)
    for w, start in enumerate(starts):
        seg = s.values[(ts >= start) & (ts < start + 900)]
        counts[w] = seg.size
        if seg.size:
            stats[:, w] = seg.mean(), seg.std(), seg.max() - seg.min()
    return starts, counts, *stats


@pytest.mark.parametrize("start, period, n, tz", [
    # across the spring-forward night, so the grid is not 96 windows a day
    (1710043200 + 17 * 60 + 30, 30, 3 * 2880 + 41, "America/New_York"),
    (DEFAULT_START + 7 * 60, 60, 1000, "UTC"),   # starts and ends mid-window
    (DEFAULT_START + 5 * 900, 900, 300, "UTC"),  # one sample per window
    (DEFAULT_START + 13, 7, 1000, "UTC"),        # period does not divide it
])
def test_window_stats_match_per_window_loop(start, period, n, tz):
    vals = np.random.default_rng(period).gamma(2.0, 300.0, n)
    s = PowerSeries(start, period, vals, tz)
    got, want = window_stats(s), window_stats_by_loop(s)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def on_grid(flags, start=DEFAULT_START):
    """(flags, scored) by window_occupancy of one sample per window from
    start, on the grid of a series over those windows."""
    s = PowerSeries(start, WINDOW_S, np.zeros(len(flags)))
    return window_occupancy(s, s.timestamps(), np.asarray(flags, dtype=bool))


def test_evaluate_identity_is_perfect():
    truth, scored = on_grid([1, 1, 0, 0], start=DEFAULT_START + 6 * HOUR)
    m = evaluate_occupancy(truth, truth, scored)
    assert (m["fp"], m["fn"]) == (0, 0) and m["accuracy_pct"] == 100.0


def test_evaluate_hand_count():
    start = DEFAULT_START + 6 * HOUR  # inside evaluation hours
    truth, scored = on_grid([1, 1, 0, 0], start=start)
    pred, _ = on_grid([1, 0, 1, 0], start=start)
    assert evaluate_occupancy(pred, truth, scored) == {
        "tp": 1, "tn": 1, "fp": 1, "fn": 1, "n_windows": 4,
        "accuracy_pct": 50.0, "energy_proxy": 2, "miss_time": 1}


def test_evaluate_matches_bruteforce_loop():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = 64
        start = DEFAULT_START + int(rng.integers(0, 96)) * 900
        pred_flags, truth_flags = rng.integers(0, 2, n), rng.integers(0, 2, n)
        pred, _ = on_grid(pred_flags, start=start)
        truth, scored = on_grid(truth_flags, start=start)
        m = evaluate_occupancy(pred, truth, scored)
        zone = ZoneInfo("UTC")
        tp = tn = fp = fn = 0
        for i in range(n):
            h = datetime.fromtimestamp(start + i * 900, zone)
            hour = h.hour + h.minute / 60
            if not (6 <= hour < 22):
                continue
            p, t = bool(pred_flags[i]), bool(truth_flags[i])
            tp += p and t
            tn += (not p) and (not t)
            fp += p and not t
            fn += (not p) and t
        n_eval = tp + tn + fp + fn
        assert m == {"tp": tp, "tn": tn, "fp": fp, "fn": fn, "n_windows": n_eval,
                     "accuracy_pct": 100.0 * (tp + tn) / n_eval,
                     "energy_proxy": tp + fp, "miss_time": fn}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.booleans(), min_size=8, max_size=96),
       st.lists(st.booleans(), min_size=8, max_size=96),
       st.integers(0, 95))
def test_metric_identity(pred_flags, truth_flags, offset_windows):
    n = min(len(pred_flags), len(truth_flags))
    start = DEFAULT_START + offset_windows * 900
    pred, _ = on_grid(pred_flags[:n], start=start)
    truth, scored = on_grid(truth_flags[:n], start=start)
    try:
        m = evaluate_occupancy(pred, truth, scored)
    except EmptyWindowError:  # spans entirely outside evaluation hours
        m = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    starts = np.arange(n) * 900 + start
    hours = local_clock_hours(starts, "UTC")
    n_eval = int(((hours >= 6) & (hours < 22)).sum())
    assert m["tp"] + m["tn"] + m["fp"] + m["fn"] == n_eval


def test_evaluate_length_mismatch_is_an_alignment_error():
    truth, scored = on_grid([1, 0, 1, 0], start=DEFAULT_START + 6 * HOUR)
    for args in [(truth[:-1], truth, scored), (truth, truth[1:], scored),
                 (truth, truth, scored[:-1])]:
        with pytest.raises(AlignmentError, match="windows"):
            evaluate_occupancy(*args)
    with pytest.raises(EmptyWindowError):
        evaluate_occupancy(truth, truth, np.zeros_like(scored))


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

def test_split_half_structure(small_corpus):
    manifest = small_corpus.manifest
    res = occupancy_experiment(manifest, "split-half", ("ours", "chen"))
    assert len(res["per_home"]) == 2 * len(manifest.homes)
    for row in res["per_home"]:
        assert set(row) >= {"home_id", "algorithm", "tp", "tn", "fp", "fn",
                            "accuracy_pct", "energy_proxy", "miss_time"}
    # summary accuracy is the mean of the per-home accuracies
    for s in res["summary"]:
        accs = [r["accuracy_pct"] for r in res["per_home"]
                if r["algorithm"] == s["algorithm"]]
        assert s["accuracy_pct"] == pytest.approx(float(np.mean(accs)))


def test_split_half_single_home_two_rows(small_corpus):
    from nilminfer.series import DatasetManifest
    m = small_corpus.manifest
    single = DatasetManifest(homes=m.homes[:1], base_dir=m.base_dir)
    res = occupancy_experiment(single, "split-half", ("ours", "chen"))
    assert len(res["per_home"]) == 2
    assert {r["algorithm"] for r in res["per_home"]} == {"ours", "chen"}
    for row in res["per_home"]:
        assert row["tp"] + row["tn"] + row["fp"] + row["fn"] == row["n_windows"]


def test_rf_and_optimised_variant_run(small_corpus):
    from nilminfer.series import DatasetManifest
    m = small_corpus.manifest
    two = DatasetManifest(homes=m.homes[:2], base_dir=m.base_dir)
    res = occupancy_experiment(two, "split-half", ("ours-optimised", "rf"))
    assert len(res["per_home"]) == 4
    # the optimised variant is the event pipeline without start-of-day marking
    for entry in two.homes:
        home = HomeData(two, entry)
        _, test_half = _split_half(home.aggregate)
        pred = event_flags(test_half, mark_start_of_day=False)
        truth = window_occupancy(test_half, *home.occupancy)
        row, = [r for r in res["per_home"] if r["home_id"] == entry.home_id
                and r["algorithm"] == "ours-optimised"]
        assert row == {"home_id": entry.home_id, "algorithm": "ours-optimised",
                       **evaluate_occupancy(pred, *truth)}


def test_ours_and_optimised_share_one_event_pipeline_per_home(small_corpus,
                                                              monkeypatch):
    """Both event algorithms of one run take each test half's foreground
    pairs from one foreground_pairs call, and score as each does alone."""
    manifest = small_corpus.manifest
    halves = []

    def spy(s, det):
        halves.append((s.start_time, s.values.tobytes()))
        return foreground_pairs(s, det)

    monkeypatch.setattr(occupancy, "foreground_pairs", spy)
    both = occupancy_experiment(manifest, "split-half",
                                ("ours", "ours-optimised"))
    test_halves = [_split_half(HomeData(manifest, entry).aggregate)[1]
                   for entry in manifest.homes]
    assert halves == [(s.start_time, s.values.tobytes()) for s in test_halves]
    monkeypatch.undo()
    alone = [row for algorithm in ("ours", "ours-optimised") for row in
             occupancy_experiment(manifest, "split-half", (algorithm,))["per_home"]]
    assert both["per_home"] == sorted(
        alone, key=lambda r: (r["home_id"], r["algorithm"]))


@pytest.mark.parametrize("protocol, algorithms, per_home", [
    ("split-half", ("chen", "chen-median"), 1),
    ("split-half", ("chen", "knn"), 2),  # the test half, then the train half
    ("loho", ("chen", "knn"), 1),
], ids=["split-half-night-stats", "split-half-supervised", "loho-supervised"])
def test_each_half_is_windowed_once(small_corpus, monkeypatch, protocol,
                                    algorithms, per_home):
    """The night statistics and the supervised features of one run share
    each half's window_stats, and score as each algorithm does alone."""
    manifest = small_corpus.manifest
    windowed = []

    def counted(s):
        windowed.append(s)
        return window_stats(s)

    monkeypatch.setattr(occupancy, "window_stats", counted)
    both = occupancy_experiment(manifest, protocol, algorithms)
    assert len(windowed) == per_home * len(manifest.homes)
    assert len({(s.start_time, s.values.tobytes()) for s in windowed}) == \
        len(windowed)
    monkeypatch.undo()
    alone = [row for algorithm in algorithms for row in
             occupancy_experiment(manifest, protocol, (algorithm,))["per_home"]]
    assert both["per_home"] == sorted(
        alone, key=lambda r: (r["home_id"], r["algorithm"]))


def test_loho_each_home_tested_once(small_corpus):
    res = occupancy_experiment(small_corpus.manifest, "loho",
                               ("ours", "knn"))
    homes = [h.home_id for h in small_corpus.manifest.homes]
    for algorithm in ("ours", "knn"):
        tested = [r["home_id"] for r in res["per_home"]
                  if r["algorithm"] == algorithm]
        assert sorted(tested) == sorted(homes)


def test_loho_supervised_rows_lie_inside_the_truth(small_corpus, tmp_path,
                                                   monkeypatch):
    import copy
    manifest = copy.deepcopy(small_corpus.manifest)
    late = manifest.homes[0]
    ts, occupied = HomeData(manifest, late).occupancy
    keep = ts >= ts[0] + 86400  # the truth starts a day after the power
    write_occupancy_csv(ts[keep], occupied[keep], tmp_path / "late.csv")
    late.occupancy_path = str(tmp_path / "late.csv")
    sizes, classify = [], occupancy.classifier_predict

    def spy(algorithm, train_X, train_y, test_X, seed):
        sizes.append((len(train_X), len(test_X)))
        return classify(algorithm, train_X, train_y, test_X, seed)

    monkeypatch.setattr(occupancy, "classifier_predict", spy)
    res = occupancy_experiment(manifest, "loho", ("knn",))
    # rows of a home: its eval-hour windows (UTC, 30 s, so none empty) from
    # its first truth sample's window to its last
    rows = {}
    for entry in manifest.homes:
        home = HomeData(manifest, entry)
        starts, _ = window_features(home.aggregate)
        t = home.occupancy[0]
        hours = starts % 86400 / HOUR
        inside = (starts >= t[0] - t[0] % WINDOW_S) & (starts <= t[-1])
        rows[entry.home_id] = int(((hours >= 6) & (hours < 22) & inside).sum())
    total = sum(rows.values())
    assert sizes == [(total - rows[h.home_id], rows[h.home_id])
                     for h in manifest.homes]
    assert [r["n_windows"] for r in res["per_home"]] == \
        [rows[h.home_id] for h in manifest.homes]


@pytest.fixture(scope="module")
def new_york_corpus(tmp_path_factory):
    """Homes whose first sample, 00:00 UTC, is 19:00 local time."""
    return gen_corpus(6, seed=7, days=14, timezone="America/New_York",
                      out_dir=tmp_path_factory.mktemp("new_york"))


def test_loho_scores_the_windows_of_the_generated_truth(new_york_corpus):
    with pytest.warns(UserWarning, match="night-threshold predictor skipped"):
        res = occupancy_experiment(new_york_corpus.manifest, "loho",
                                   ("ours", "chen", "knn"))
    for row in res["per_home"]:
        home = new_york_corpus.homes[row["home_id"]]
        truth = window_occupancy(home.aggregate, *home.occupancy)
        if row["algorithm"] == "knn":
            m = evaluate_occupancy(event_flags(home.aggregate), *truth)
            assert row["n_windows"] == m["n_windows"]
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # chen skips the first, partial day
            pred = (event_flags(home.aggregate) if row["algorithm"] == "ours"
                    else night_flags(home.aggregate, "max"))
        assert row == {"home_id": row["home_id"], "algorithm": row["algorithm"],
                       **evaluate_occupancy(pred, *truth)}
    assert {r["n_windows"] for r in res["per_home"]} == {896}
    ours, = [s for s in res["summary"] if s["algorithm"] == "ours"]
    assert round(ours["accuracy_pct"], 2) == 92.39


def test_split_half_takes_one_path_per_concept(new_york_corpus, monkeypatch):
    """A split-half run of the four unsupervised algorithms on 6 homes works
    out each test half's local hours 4 times (the truth's scored windows,
    the background's night and each night statistic's night), calls each
    public predictor once per home and algorithm, and takes each home's
    foreground pairs once."""
    calls = []

    def spy(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, key(*args, **kwargs)))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    spy(series, "local_clock_hours", lambda ts, tzname: None)
    spy(occupancy, "foreground_pairs", lambda s, det: s.values.tobytes())
    spy(occupancy, "predict_occupancy_events",
        lambda s, foreground, *, mark_start_of_day: (s.values.tobytes(),
                                                     mark_start_of_day))
    spy(occupancy, "predict_occupancy_night_threshold",
        lambda s, stats, stat: (s.values.tobytes(), stat))
    occupancy_experiment(new_york_corpus.manifest, "split-half",
                         ("ours", "ours-optimised", "chen", "chen-median"))
    halves = {key for name, key in calls if name == "foreground_pairs"}
    assert len(halves) == 6
    assert sorted(calls) == sorted(
        [("local_clock_hours", None)] * 24
        + [("foreground_pairs", h) for h in halves]
        + [("predict_occupancy_events", (h, mark)) for h in halves
           for mark in (True, False)]
        + [("predict_occupancy_night_threshold", (h, stat)) for h in halves
           for stat in ("max", "median")])


def test_supervised_beats_chance_on_corpus(small_corpus):
    res = occupancy_experiment(small_corpus.manifest, "loho", ("knn",))
    acc = res["summary"][0]["accuracy_pct"]
    assert acc > 60.0


def test_supervised_requires_ground_truth(small_corpus, tmp_path):
    import copy
    manifest = copy.deepcopy(small_corpus.manifest)
    for h in manifest.homes:
        h.occupancy_path = None
    with pytest.raises(ConfigurationError):
        occupancy_experiment(manifest, "loho", ("knn",))


def test_experiment_rejects_unknown_algorithm(small_corpus):
    with pytest.raises(ValueError):
        occupancy_experiment(small_corpus.manifest, "split-half", ("svm",))


def test_experiment_rejects_repeated_algorithm(small_corpus):
    with pytest.raises(ValueError, match="algorithm 'chen' is given twice"):
        occupancy_experiment(small_corpus.manifest, "split-half",
                             ("chen", "ours", "chen"))


"""Occupancy prediction from aggregate power, plus the evaluation protocol.

Three algorithm families:

* event pipeline ("ours"): detect events, strike the background-load
  magnitudes learned from the night trace, pair the remaining edges, and
  signal occupancy over the retained ON intervals with day-edge marking;
* night-threshold ("chen" / "chen-median"): per day, a window is occupied if
  its power range, standard deviation or mean exceeds the night-time
  statistic of that feature;
* supervised ("knn" / "rf"): per-window [mean, std, range] features fed to the
  classifiers in nilminfer.classify.

Every prediction and the truth are bool flags on the series' window grid
(series.window_grid). Evaluation scores the WINDOW_S (15-minute) windows that
series.window_occupancy marks scored (inside the truth's span, local start in
series.EVAL_HOURS), occupied being the positive class. energy_proxy
(TP+FP) approximates HVAC runtime cost of acting on the prediction and
miss_time (FN) approximates occupant discomfort.
"""
from __future__ import annotations

import warnings
from bisect import bisect_left
from functools import cache, partial

import numpy as np

from .classify import CLASSIFIERS, classifier_predict
from .errors import (AlignmentError, ConfigurationError, CoverageError,
                     EmptyWindowError, check_choices)
from .events import (NIGHT_HOURS, DetectorConfig, detect_events,
                     learn_background, pair_events, remove_background)
from .series import (HomeData, PowerSeries, SECONDS_PER_DAY, WINDOW_S,
                     in_clock_hours, local_day_bounds, median, window_grid,
                     window_occupancy)
from .series import load_power_csv  # noqa: F401 (perfbench/test_tracer.py)
from .workers import map_in_workers

EVENT_ALGORITHMS = ("ours", "ours-optimised")  # one event pipeline, two markings
NIGHT_STATS = {"chen": "max", "chen-median": "median"}  # one windowing, two stats
UNSUPERVISED_ALGORITHMS = EVENT_ALGORITHMS + tuple(NIGHT_STATS)
PROTOCOLS = ("split-half", "loho")
PAIR_GAP_FILL_S = 3600  # occupied intervals closer than this are bridged


# ---------------------------------------------------------------------------
# Window statistics
# ---------------------------------------------------------------------------

def window_stats(s: PowerSeries):
    """Per-window sample count, mean, population std and range on the
    midnight-aligned grid. Empty windows report NaN statistics."""
    anchor, n_windows = window_grid(s)
    ts = s.timestamps()
    widx = (ts - anchor) // WINDOW_S
    bounds = np.searchsorted(widx, np.arange(n_windows + 1))
    counts = np.diff(bounds)
    mean = np.full(n_windows, np.nan)
    std = np.full(n_windows, np.nan)
    rng = np.full(n_windows, np.nan)
    v = s.values
    # On the uniform grid the full windows are one run: reduce it as a block
    # and loop only over the partial windows at its edges.
    per_window, rest = divmod(WINDOW_S, s.period_s)
    full = np.flatnonzero((counts == per_window) & (rest == 0))
    w0, w1 = (int(full[0]), int(full[-1]) + 1) if full.size else (0, 0)
    if full.size:
        block = v[bounds[w0]:bounds[w1]].reshape(w1 - w0, per_window)
        mean[w0:w1] = block.mean(axis=1)
        std[w0:w1] = block.std(axis=1)
        rng[w0:w1] = block.max(axis=1) - block.min(axis=1)
    for w in np.flatnonzero(counts):
        if w0 <= w < w1:
            continue
        seg = v[bounds[w]:bounds[w + 1]]
        mean[w] = seg.mean()
        std[w] = seg.std()
        rng[w] = seg.max() - seg.min()
    starts = anchor + np.arange(n_windows, dtype=np.int64) * WINDOW_S
    return starts, counts, mean, std, rng


# ---------------------------------------------------------------------------
# Unsupervised predictors
# ---------------------------------------------------------------------------

def _merge_intervals(intervals):
    """Merge (start, end) intervals separated by less than PAIR_GAP_FILL_S."""
    ivs = sorted((a, b) for a, b in intervals if b > a)
    out = []
    for a, b in ivs:
        if out and a - out[-1][1] < PAIR_GAP_FILL_S:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def foreground_pairs(s: PowerSeries, det: DetectorConfig):
    """The event pairs of s that are not background load: detect events,
    learn the night background, pair the edges (no pair is longer than
    MAX_PAIR_S) and drop the pairs of background magnitude."""
    if s.span_s < SECONDS_PER_DAY:
        raise CoverageError("need at least one full day of data")
    events = detect_events(s, det)
    profile = learn_background(s, det)
    return remove_background(pair_events(events), profile)


def predict_occupancy_events(s: PowerSeries, foreground, *,
                             mark_start_of_day: bool = True) -> np.ndarray:
    """Occupancy flags on s's window grid from its foreground pairs
    (foreground_pairs(s, det)): occupied intervals are the union of the ON
    intervals, with gaps shorter than PAIR_GAP_FILL_S bridged. Each day with
    any foreground activity is also marked occupied from its last event to
    midnight and, unless mark_start_of_day is off, from midnight to its first
    event. A day with no foreground pairs stays unoccupied throughout."""
    on, off = foreground["on_time"].tolist(), foreground["off_time"].tolist()
    intervals = _merge_intervals(zip(on, off))

    times = sorted(on + off)
    extra = []
    for ds, de in local_day_bounds(s.start_time, s.end_time, s.timezone):
        # the day's edges are times[first:end], those in [ds, de)
        first, end = bisect_left(times, ds), bisect_left(times, de)
        if first == end:
            continue
        if mark_start_of_day:
            extra.append((ds, times[first]))
        extra.append((times[end - 1], de))

    # A window is occupied when it overlaps any interval, so the windows of
    # each interval, [floor, ceil), together are those of their union.
    anchor, n_windows = window_grid(s)
    flags = np.zeros(n_windows, dtype=bool)
    for a, b in intervals + extra:
        a = max(a, anchor)
        if b <= a:
            continue
        w0 = (a - anchor) // WINDOW_S
        # ceil; the window starting exactly at b is excluded
        w1 = -(-(b - anchor) // WINDOW_S)
        flags[int(w0):min(int(w1), n_windows)] = True
    return flags


def predict_occupancy_night_threshold(s: PowerSeries, stats,
                                      stat: str) -> np.ndarray:
    """Night-threshold occupancy flags on s's window grid from its
    window_stats(s): a window is occupied when its power range, std or mean
    strictly exceeds the chosen statistic (max or median) of that feature
    over the same day's NIGHT_HOURS windows. Days without a usable night
    window are skipped with a warning."""
    check_choices((stat,), NIGHT_STATS.values(), "night statistic")
    starts, counts, mean, std, rng = stats
    agg = np.max if stat == "max" else median
    night = in_clock_hours(starts, s.timezone, NIGHT_HOURS) & (counts > 0)
    flags = np.zeros(starts.size, dtype=bool)
    skipped = []
    # each local day's windows are one slice of the sorted starts; an empty
    # window's NaN statistics compare False, so it stays unoccupied
    days = local_day_bounds(s.start_time, s.end_time, s.timezone)
    for (ds, _), (a, b) in zip(days, np.searchsorted(starts, days).tolist()):
        at_night = night[a:b]
        if counts[a:b][at_night].sum() < 2:
            skipped.append(ds)
            continue
        r, sd, m = rng[a:b], std[a:b], mean[a:b]
        flags[a:b] = ((r > agg(r[at_night])) | (sd > agg(sd[at_night]))
                      | (m > agg(m[at_night])))
    if skipped:
        warnings.warn(f"night-threshold predictor skipped {len(skipped)} "
                      f"day(s) without a preceding night window", stacklevel=2)
    return flags


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate_occupancy(pred: np.ndarray, truth: np.ndarray,
                       scored: np.ndarray) -> dict:
    """The metric row of the flags pred against truth over the scored
    windows, all three on one window grid (window_occupancy gives truth and
    scored): the counts tp, tn, fp, fn and n_windows, accuracy_pct,
    energy_proxy (TP + FP, the windows the HVAC would run for) and miss_time
    (FN, occupied windows predicted empty)."""
    if not len(pred) == len(truth) == len(scored):
        raise AlignmentError(f"pred, truth and scored cover {len(pred)}, "
                             f"{len(truth)} and {len(scored)} windows")
    if not scored.any():
        raise EmptyWindowError("no windows inside the evaluation hours")
    tp = int((pred & truth & scored).sum())
    tn = int((~pred & ~truth & scored).sum())
    fp = int((pred & ~truth & scored).sum())
    fn = int((~pred & truth & scored).sum())
    n_windows = tp + tn + fp + fn
    return {"tp": tp, "tn": tn, "fp": fp, "fn": fn, "n_windows": n_windows,
            "accuracy_pct": 100.0 * (tp + tn) / n_windows,
            "energy_proxy": tp + fp, "miss_time": fn}


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

def _supervised_xy(stats, truth, scored):
    """The rows (a mask of the grid), [mean, std, range] features and
    occupancy labels of the non-empty scored windows of stats, the
    window_stats of a series on the grid of its truth and scored."""
    _, counts, mean, std, rng = stats
    rows = scored & (counts > 0)
    X = np.column_stack([mean[rows], std[rows], rng[rows]])
    return rows, X, truth[rows].astype(int)


def _classify_rows(algorithm, parts, test_X, seed):
    """classifier_predict's labels of test_X, trained on the _supervised_xy
    parts stacked here, in the task: a process holds one stacked training
    set at a time, not one per home (11 MB more at the peak for 20 x 14
    loho)."""
    return classifier_predict(algorithm, np.vstack([X for _, X, _ in parts]),
                              np.concatenate([y for _, _, y in parts]),
                              test_X, seed)


def _split_half(series: PowerSeries):
    """Split at the local midnight closest to the middle of the span."""
    days = local_day_bounds(series.start_time, series.end_time, series.timezone)
    if len(days) < 2:
        raise CoverageError("split-half needs at least two days")
    cut = days[len(days) // 2][0]
    i = (cut - series.start_time) // series.period_s
    return series.slice(0, int(i)), series.slice(int(i), len(series))


def occupancy_experiment(manifest, protocol: str = "split-half",
                         algorithms=("ours", "chen"),
                         det: DetectorConfig = DetectorConfig(),
                         seed: int = 0) -> dict:
    """Run the per-home occupancy comparison.

    split-half trains on the first half of each home and scores everything on
    the second half; leave-one-home-out scores each full home with the other
    homes as training material. Unsupervised algorithms ignore the training
    side. Returns per-home metric rows plus per-algorithm means.
    """
    check_choices((protocol,), PROTOCOLS, "protocol")
    check_choices(algorithms, UNSUPERVISED_ALGORITHMS + CLASSIFIERS, "algorithm")
    supervised = [a for a in algorithms if a in CLASSIFIERS]
    windowed = supervised or any(a in NIGHT_STATS for a in algorithms)

    # Pass 1 reads, splits and windows each home once (the test half's
    # window_stats only for a night statistic or a classifier) and builds its
    # supervised rows, the test half's then the train half's.
    homes, train_xys = [], []
    for entry in manifest.homes:
        home = HomeData(manifest, entry)
        series = home.aggregate
        train, test = (_split_half(series) if protocol == "split-half"
                       else (series, series))
        truth = window_occupancy(test, *home.occupancy)
        stats = window_stats(test) if windowed else None
        train_xy = test_xy = None
        if supervised:
            test_xy = _supervised_xy(stats, *truth)
            train_xy = test_xy if protocol == "loho" else _supervised_xy(
                window_stats(train), *window_occupancy(train, *home.occupancy))
        homes.append((entry.home_id, test, truth, stats, test_xy))
        train_xys.append(train_xy)

    # Pass 2 fits one classifier per home and supervised algorithm across
    # the CPUs, the labels coming back in task order, then scores each home,
    # running its event pipeline once, on first need.
    tasks = []  # _classify_rows's arguments per fit
    for i, (*_, test_xy) in enumerate(homes if supervised else []):
        parts = ([train_xys[i]] if protocol == "split-half"
                 else train_xys[:i] + train_xys[i + 1:])
        if not parts:
            raise ConfigurationError(
                "supervised algorithms require occupancy-labelled "
                "training data from another home")
        tasks += [(a, parts, test_xy[1], seed) for a in supervised]
    fitted = iter(map_in_workers(_classify_rows, *zip(*tasks)))
    all_rows = []
    for home_id, test, truth, stats, test_xy in homes:
        foreground = cache(partial(foreground_pairs, test, det))
        for algorithm in algorithms:
            if algorithm in supervised:
                keep = test_xy[0]
                pred = np.zeros(keep.size, dtype=bool)
                pred[keep] = np.asarray(next(fitted), dtype=int) == 1
            elif algorithm in EVENT_ALGORITHMS:
                pred = predict_occupancy_events(test, foreground(),
                                                mark_start_of_day=algorithm == "ours")
            else:
                pred = predict_occupancy_night_threshold(test, stats,
                                                         NIGHT_STATS[algorithm])
            all_rows.append({"home_id": home_id, "algorithm": algorithm,
                             **evaluate_occupancy(pred, *truth)})
    all_rows.sort(key=lambda r: (r["home_id"], r["algorithm"]))

    summary = []
    for algorithm in algorithms:
        rows = [r for r in all_rows if r["algorithm"] == algorithm]
        summary.append({"algorithm": algorithm, "n_homes": len(rows),
                        **{k: float(np.mean([r[k] for r in rows]))
                           for k in rows[0] if k not in ("home_id", "algorithm")}})
    return {"protocol": protocol, "per_home": all_rows, "summary": summary}

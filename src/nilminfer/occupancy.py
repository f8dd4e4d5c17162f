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

Evaluation scores 15-minute windows whose local start time falls inside the
configured daytime band, occupied being the positive class. energy_proxy
(TP+FP) approximates HVAC runtime cost of acting on the prediction and
miss_time (FN) approximates occupant discomfort.
"""
from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .classify import RandomForestConfig, classifier_predict
from .errors import (AlignmentError, ConfigurationError, CoverageError,
                     EmptyWindowError)
from .events import (DetectorConfig, detect_events, learn_background,
                     pair_events, remove_background)
from .series import (OccupancySeries, PowerSeries, SECONDS_PER_DAY,
                     load_home, local_clock_hours, local_day_bounds,
                     local_midnight_before, window_occupancy)
from .series import load_power_csv  # noqa: F401 (perfbench/test_tracer.py)

UNSUPERVISED_ALGORITHMS = ("ours", "ours-optimised", "chen", "chen-median")
SUPERVISED_ALGORITHMS = ("knn", "rf")


@dataclass
class OccupancyConfig:
    eval_start_hour: int = 6
    eval_end_hour: int = 22
    window_s: int = 900
    pair_gap_fill_s: float = 3600.0
    mark_start_of_day: bool = True
    mark_end_of_day: bool = True
    night_start_hour: float = 1.0
    night_end_hour: float = 5.0

    def __post_init__(self):
        if not self.eval_start_hour < self.eval_end_hour:
            raise ValueError("eval_start_hour must be < eval_end_hour")
        if SECONDS_PER_DAY % self.window_s != 0:
            raise ValueError("window_s must divide 86400")


@dataclass(frozen=True)
class OccupancyMetrics:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def n_windows(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def accuracy_pct(self) -> float:
        return 100.0 * (self.tp + self.tn) / self.n_windows

    @property
    def energy_proxy(self) -> int:
        """Windows the HVAC would run for: TP + FP."""
        return self.tp + self.fp

    @property
    def miss_time(self) -> int:
        """Occupied windows predicted empty: FN."""
        return self.fn

    def as_dict(self) -> dict:
        return {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn,
                "n_windows": self.n_windows,
                "accuracy_pct": self.accuracy_pct,
                "energy_proxy": self.energy_proxy,
                "miss_time": self.miss_time}


# ---------------------------------------------------------------------------
# Window statistics
# ---------------------------------------------------------------------------

def window_grid(s: PowerSeries, window_s: int) -> tuple[int, int]:
    """(anchor, n_windows) for the local-midnight-aligned window grid that
    covers the series."""
    anchor = local_midnight_before(s.start_time, s.timezone)
    n_windows = -(-(s.end_time - anchor) // window_s)
    return anchor, int(n_windows)


def window_stats(s: PowerSeries, window_s: int):
    """Per-window sample count, mean, population std and range on the
    midnight-aligned grid. Empty windows report NaN statistics."""
    anchor, n_windows = window_grid(s, window_s)
    ts = s.timestamps()
    widx = (ts - anchor) // window_s
    bounds = np.searchsorted(widx, np.arange(n_windows + 1))
    counts = np.diff(bounds)
    mean = np.full(n_windows, np.nan)
    std = np.full(n_windows, np.nan)
    rng = np.full(n_windows, np.nan)
    v = s.values
    # On the uniform grid the full windows are one run: reduce it as a block
    # and loop only over the partial windows at its edges.
    per_window, rest = divmod(window_s, s.period_s)
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
    starts = anchor + np.arange(n_windows, dtype=np.int64) * window_s
    return starts, counts, mean, std, rng


def window_power_features(s: PowerSeries, window_s: int = 900):
    """Per-window [mean, population std, range] feature rows, time-ordered.

    Returns (window_starts, X); windows without samples are omitted.
    """
    if SECONDS_PER_DAY % window_s != 0:
        raise ValueError("window_s must divide the day")
    starts, counts, mean, std, rng = window_stats(s, window_s)
    valid = counts > 0
    X = np.column_stack([mean[valid], std[valid], rng[valid]])
    return starts[valid], X


# ---------------------------------------------------------------------------
# Unsupervised predictors
# ---------------------------------------------------------------------------

def _merge_intervals(intervals, gap: float):
    """Merge (start, end) intervals whose separation is < gap (gap=1 with
    integer endpoints is a plain union)."""
    ivs = sorted((a, b) for a, b in intervals if b > a)
    out = []
    for a, b in ivs:
        if out and a - out[-1][1] < gap:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def predict_occupancy_events(s: PowerSeries, cfg: OccupancyConfig | None = None,
                             det: DetectorConfig | None = None) -> OccupancySeries:
    """Signal occupancy from foreground event pairs.

    Pipeline: detect events -> learn night background -> pair edges (no
    pair is longer than max_duration_s) -> drop background magnitudes ->
    occupied intervals are the union of the surviving ON intervals, with
    gaps shorter than pair_gap_fill_s bridged. Each day with any foreground
    activity is also marked occupied from midnight to the first event and
    from the last event to midnight (each half independently configurable).
    A day with no foreground pairs stays unoccupied throughout.
    """
    cfg = cfg or OccupancyConfig()
    det = det or DetectorConfig()
    if s.span_s < SECONDS_PER_DAY:
        raise CoverageError("need at least one full day of data")

    events = detect_events(s, det.steady_tol_w, det.min_event_w)
    profile = learn_background(s, cfg.night_start_hour, cfg.night_end_hour,
                               det.steady_tol_w, det.min_event_w)
    pairs = pair_events(events, det.match_tol_frac, det.max_duration_s)
    foreground = remove_background(pairs, profile)

    intervals = _merge_intervals(
        [(p.on_time, p.off_time) for p in foreground], gap=cfg.pair_gap_fill_s)

    times = sorted(t for p in foreground for t in (p.on_time, p.off_time))
    extra = []
    for ds, de in local_day_bounds(s):
        # the day's edges are times[first:end], those in [ds, de)
        first, end = bisect_left(times, ds), bisect_left(times, de)
        if first == end:
            continue
        if cfg.mark_start_of_day:
            extra.append((ds, times[first]))
        if cfg.mark_end_of_day:
            extra.append((times[end - 1], de))
    occupied = _merge_intervals(intervals + extra, gap=1)

    anchor, n_windows = window_grid(s, cfg.window_s)
    flags = np.zeros(n_windows, dtype=bool)
    w = cfg.window_s
    for a, b in occupied:
        a = max(a, anchor)
        if b <= a:
            continue
        w0 = (a - anchor) // w
        w1 = -(-(b - anchor) // w)  # ceil; window starting exactly at b excluded
        flags[int(w0):min(int(w1), n_windows)] = True
    return OccupancySeries(anchor, cfg.window_s, flags, s.timezone)


def predict_occupancy_night_threshold(s: PowerSeries,
                                      cfg: OccupancyConfig | None = None,
                                      stat: str = "max") -> OccupancySeries:
    """Night-threshold occupancy: a window is occupied when its power range,
    std or mean strictly exceeds the chosen statistic (max or median) of that
    feature over the same day's night sub-windows. Days without a usable
    night window are skipped with a warning."""
    cfg = cfg or OccupancyConfig()
    if stat not in ("max", "median"):
        raise ValueError("stat must be 'max' or 'median'")
    agg = np.max if stat == "max" else np.median

    starts, counts, mean, std, rng = window_stats(s, cfg.window_s)
    whours = local_clock_hours(starts, s.timezone)
    valid = counts > 0
    flags = np.zeros(starts.size, dtype=bool)
    skipped = []
    for ds, de in local_day_bounds(s):
        day = (starts >= ds) & (starts < de) & valid
        night = day & (whours >= cfg.night_start_hour) & (whours < cfg.night_end_hour)
        if counts[night].sum() < 2:
            skipped.append(ds)
            continue
        t_rng, t_std, t_mean = agg(rng[night]), agg(std[night]), agg(mean[night])
        flags[day] = ((rng[day] > t_rng) | (std[day] > t_std)
                      | (mean[day] > t_mean))
    if skipped:
        warnings.warn(f"night-threshold predictor skipped {len(skipped)} "
                      f"day(s) without a preceding night window", stacklevel=2)
    return OccupancySeries(int(starts[0]), cfg.window_s, flags, s.timezone)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _in_eval_hours(starts: np.ndarray, timezone: str,
                   cfg: OccupancyConfig) -> np.ndarray:
    """Mask of the windows whose local start hour lies in
    [eval_start_hour, eval_end_hour)."""
    hours = local_clock_hours(starts, timezone)
    return (hours >= cfg.eval_start_hour) & (hours < cfg.eval_end_hour)


def evaluate_occupancy(pred: OccupancySeries, truth: OccupancySeries,
                       cfg: OccupancyConfig | None = None) -> OccupancyMetrics:
    """Confusion counts over windows both series cover, restricted to windows
    whose local start hour lies in [eval_start_hour, eval_end_hour)."""
    cfg = cfg or OccupancyConfig()
    if pred.window_s != truth.window_s:
        raise AlignmentError(
            f"window widths differ: {pred.window_s} vs {truth.window_s}")
    if pred.timezone != truth.timezone:
        raise AlignmentError("timezones differ")
    if (truth.window_start - pred.window_start) % pred.window_s != 0:
        raise AlignmentError("window grids are offset")
    w = pred.window_s
    t0 = max(pred.window_start, truth.window_start)
    t1 = min(pred.end_time, truth.end_time)
    if t1 <= t0:
        raise AlignmentError("series do not overlap")
    n = (t1 - t0) // w
    p = pred.flags[(t0 - pred.window_start) // w:][:n]
    t = truth.flags[(t0 - truth.window_start) // w:][:n]
    m = _in_eval_hours(t0 + np.arange(n, dtype=np.int64) * w, pred.timezone,
                       cfg)
    if not m.any():
        raise EmptyWindowError("no windows inside the evaluation hours")
    tp = int((p & t & m).sum())
    tn = int((~p & ~t & m).sum())
    fp = int((p & ~t & m).sum())
    fn = int((~p & t & m).sum())
    return OccupancyMetrics(tp=tp, tn=tn, fp=fp, fn=fn)


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

def _window_truth(series: PowerSeries, truth, window_s: int) -> OccupancySeries:
    """The (timestamps, flags) ground truth on the series' window grid."""
    anchor, n_windows = window_grid(series, window_s)
    return window_occupancy(*truth, window_start=anchor, window_s=window_s,
                            n_windows=n_windows, timezone=series.timezone)


def _supervised_xy(series: PowerSeries, truth_w: OccupancySeries,
                   cfg: OccupancyConfig):
    """Start times, [mean, std, range] features and occupancy labels of the
    series' non-empty eval-hour windows; truth_w is on the series' grid."""
    starts, X = window_power_features(series, cfg.window_s)
    keep = _in_eval_hours(starts, series.timezone, cfg)
    starts, X = starts[keep], X[keep]
    y = truth_w.flags[(starts - truth_w.window_start) // cfg.window_s].astype(int)
    return starts, X, y


def predict_with_algorithm(algorithm: str, test_series: PowerSeries,
                           cfg: OccupancyConfig,
                           det: DetectorConfig) -> OccupancySeries:
    """Occupancy of test_series by one unsupervised algorithm."""
    if algorithm == "ours":
        return predict_occupancy_events(test_series, cfg, det)
    if algorithm == "ours-optimised":
        return predict_occupancy_events(
            test_series, replace(cfg, mark_start_of_day=False), det)
    if algorithm == "chen":
        return predict_occupancy_night_threshold(test_series, cfg, "max")
    if algorithm == "chen-median":
        return predict_occupancy_night_threshold(test_series, cfg, "median")
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _split_half(series: PowerSeries):
    """Split at the local midnight closest to the middle of the span."""
    days = local_day_bounds(series)
    if len(days) < 2:
        raise CoverageError("split-half needs at least two days")
    cut = days[len(days) // 2][0]
    i = (cut - series.start_time) // series.period_s
    return series.slice(0, int(i)), series.slice(int(i), len(series))


def occupancy_experiment(manifest, protocol: str = "split-half",
                         algorithms=("ours", "chen"),
                         cfg: OccupancyConfig | None = None,
                         det: DetectorConfig | None = None,
                         rf_cfg: RandomForestConfig | None = None) -> dict:
    """Run the per-home occupancy comparison.

    split-half trains on the first half of each home and scores everything on
    the second half; leave-one-home-out scores each full home with the other
    homes as training material. Unsupervised algorithms ignore the training
    side. Returns per-home metric rows plus per-algorithm means.
    """
    cfg = cfg or OccupancyConfig()
    det = det or DetectorConfig()
    if protocol not in ("split-half", "loho"):
        raise ValueError("protocol must be 'split-half' or 'loho'")
    for a in algorithms:
        if a not in UNSUPERVISED_ALGORITHMS + SUPERVISED_ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
    needs_training = any(a in SUPERVISED_ALGORITHMS for a in algorithms)

    # Each home is read, split, windowed and featurised once; its truth
    # windows score every algorithm and its supervised arrays serve every
    # held-out home.
    homes = []
    for entry in sorted(manifest.homes, key=lambda e: e.home_id):
        home = load_home(manifest, entry)
        series = home.aggregate
        train_series, test_series = (_split_half(series) if protocol == "split-half"
                                     else (series, series))
        truth_w = _window_truth(test_series, home.occupancy, cfg.window_s)
        train_xy = test_xy = None
        if needs_training:
            test_xy = _supervised_xy(test_series, truth_w, cfg)
            train_xy = test_xy if protocol == "loho" else _supervised_xy(
                train_series,
                _window_truth(train_series, home.occupancy, cfg.window_s), cfg)
        homes.append((entry.home_id, test_series, truth_w, train_xy, test_xy))

    all_rows = []
    for home_id, test_series, truth_w, train_xy, test_xy in homes:
        if needs_training:
            parts = [train_xy] if protocol == "split-half" else \
                [h[3] for h in homes if h[0] != home_id]
            if not parts:
                raise ConfigurationError(
                    "supervised algorithms require occupancy-labelled "
                    "training data from another home")
            train_X = np.vstack([X for _, X, _ in parts])
            train_y = np.concatenate([y for _, _, y in parts])
        for algorithm in algorithms:
            if algorithm in SUPERVISED_ALGORITHMS:
                starts, X_te, _ = test_xy
                labels = classifier_predict(algorithm, train_X, train_y, X_te,
                                            rf_cfg)
                flags = np.zeros(len(truth_w), dtype=bool)
                flags[(starts - truth_w.window_start) // cfg.window_s] = \
                    np.asarray(labels, dtype=int) == 1
                pred = replace(truth_w, flags=flags)
            else:
                pred = predict_with_algorithm(algorithm, test_series, cfg, det)
            metrics = evaluate_occupancy(pred, truth_w, cfg)
            all_rows.append({"home_id": home_id, "algorithm": algorithm,
                             **metrics.as_dict()})
    all_rows.sort(key=lambda r: (r["home_id"], r["algorithm"]))

    summary = []
    for algorithm in algorithms:
        rows = [r for r in all_rows if r["algorithm"] == algorithm]
        summary.append({
            "algorithm": algorithm,
            "n_homes": len(rows),
            **{k: float(np.mean([r[k] for r in rows]))
               for k in ("tp", "tn", "fp", "fn", "accuracy_pct",
                         "energy_proxy", "miss_time", "n_windows")},
        })
    return {"protocol": protocol, "per_home": all_rows, "summary": summary}

"""Household feature extraction, chi-squared selection and correlation
diagnostics.

The consumption catalog (22 features: consumption means, ratios, temporal
proportions, variance and day-lag autocorrelation) can be computed on any
power stream and is prefixed with a stream tag. The appliance catalog adds
HVAC- and event-derived features: max HVAC power, switch counts, circuit
count, ON-time and energy fractions, and the power statistics of the highest
power appliance found by event-pair clustering. Each catalog is a plain dict
of non-negative floats, which the chi-squared scorer requires.
"""
from __future__ import annotations

from functools import cache, partial

import numpy as np

from .disagg import (ON_THRESHOLD_W, fhmm_disaggregate, hart_reconstruct,
                     train_appliance_models)
from .errors import (ConfigurationError, CoverageError, UndefinedStatisticError,
                     check_choices)
from .events import (HVAC_MIN_W, DetectorConfig, cluster_magnitudes,
                     detect_events, pair_events)
from .series import (HomeData, PowerSeries, SECONDS_PER_DAY, check_same_axis,
                     local_clock_hours, local_weekdays, median, write_csv)
from .series import load_power_csv  # noqa: F401 (perfbench/test_tracer.py)

CLOCK_WINDOWS = {
    "mean_day": (6, 22),
    "mean_evening": (18, 22),
    "mean_morning": (6, 10),
    "mean_night": (1, 5),
    "mean_noon": (10, 14),
}


def extract_consumption_features(s: PowerSeries, prefix: str) -> dict:
    """The 22-feature consumption catalog over one stream.

    Requires at least one full week so weekday/weekend means are defined.
    Ratios with zero denominators map to 0; autocorrelation is the Pearson
    correlation of the stream with itself shifted one day, 0 when either
    side is constant and clamped at 0 to keep the vector non-negative.
    """
    if s.span_s < 7 * SECONDS_PER_DAY:
        raise CoverageError(
            f"need at least one full week, got {s.span_s / SECONDS_PER_DAY:.2f} days")
    fv = {}
    v = s.values
    ts = s.timestamps()
    hours = local_clock_hours(ts, s.timezone)
    wd = local_weekdays(ts, s.timezone)

    def put(name, value):
        fv[f"{prefix}_{name}"] = float(value)

    mean_total = float(v.mean())
    put("mean_total", mean_total)
    weekday, weekend = float(v[wd < 5].mean()), float(v[wd >= 5].mean())
    put("mean_weekday", weekday)
    put("mean_weekend", weekend)
    window_means = {}
    for name, (h0, h1) in CLOCK_WINDOWS.items():
        m = float(v[(hours >= h0) & (hours < h1)].mean())
        window_means[name] = m
        put(name, m)
    vmax, vmin = float(v.max()), float(v.min())
    put("max", vmax)
    put("min", vmin)

    def ratio(name, num, den):
        put(name, 0.0 if den == 0 else num / den)

    ratio("mean_over_max", mean_total, vmax)
    ratio("min_over_mean", vmin, mean_total)
    ratio("morning_over_noon", window_means["mean_morning"], window_means["mean_noon"])
    ratio("evening_over_noon", window_means["mean_evening"], window_means["mean_noon"])
    ratio("noon_over_total", window_means["mean_noon"], mean_total)
    ratio("night_over_day", window_means["mean_night"], window_means["mean_day"])
    ratio("weekday_over_weekend", weekday, weekend)

    put("frac_above_mean", float((v > mean_total).mean()))
    put("frac_above_500w", float((v > 500.0).mean()))
    put("frac_above_1kw", float((v > 1000.0).mean()))

    put("variance", float(v.var()))
    lag = SECONDS_PER_DAY // s.period_s
    a, b = v[lag:], v[:-lag]
    constant = a.std() == 0 or b.std() == 0
    put("autocorr_day", 0.0 if constant else max(float(np.corrcoef(a, b)[0, 1]), 0.0))
    return fv


def extract_appliance_features(hvac: PowerSeries, aggregate: PowerSeries,
                               events, clusters: list) -> dict:
    """HVAC and event-stream features over a home.

    hvac_circuits is the count of the event-pair magnitude clusters
    (cluster_magnitudes) at or above HVAC_MIN_W. The highest-power-appliance
    statistics come from the magnitudes of the top cluster, the last one,
    and are 0 with no pairs. HVAC is ON above ON_THRESHOLD_W.
    """
    check_same_axis(hvac, aggregate, "hvac", "aggregate")
    agg_energy = float(aggregate.values.sum())
    if agg_energy <= 0:
        raise UndefinedStatisticError(
            "aggregate has zero energy; fractions are undefined")

    top = clusters[-1]["values"] if clusters else [0.0]
    return {
        "hvac_max_power": float(hvac.values.max()),
        "appliance_switches": float(len(events)),
        "hvac_on_fraction": float((hvac.values > ON_THRESHOLD_W).mean()),
        "hvac_energy_fraction": min(float(hvac.values.sum()) / agg_energy, 1.0),
        "hvac_circuits": float(sum(1 for c in clusters if c["center"] >= HVAC_MIN_W)),
        "top_appliance_mean": float(np.mean(top)),
        "top_appliance_max": float(np.max(top)),
        "top_appliance_median": float(median(top)),
    }


# ---------------------------------------------------------------------------
# Selection and correlation
# ---------------------------------------------------------------------------

def chi2_select(X, y, k: int):
    """Chi-squared k-best feature selection over non-negative features.

    Per feature, the class-wise sums of the feature act as observed counts and
    the column sum split by class priors as expected counts; the score is the
    usual sum of (obs-exp)^2/exp. Returns (indices of the top k by score,
    score ties broken toward the lower index; full score vector).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=object)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    neg = np.argwhere(X < 0)
    if neg.size:
        i, j = neg[0]
        raise ValueError(
            f"chi-squared selection requires non-negative features; "
            f"X[{i}, {j}] = {X[i, j]}")
    classes = sorted(set(y.tolist()), key=str)
    if len(classes) < 2:
        raise ValueError("need at least 2 classes")
    n, d = X.shape
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range for {d} features")

    col_sum = X.sum(axis=0)
    scores = np.zeros(d)
    for cls in classes:
        mask = y == cls
        observed = X[mask].sum(axis=0)
        expected = col_sum * (mask.sum() / n)
        nz = expected > 0
        scores[nz] += (observed[nz] - expected[nz]) ** 2 / expected[nz]
    order = np.lexsort((np.arange(d), -scores))
    return order[:k].copy(), scores


def pearson(a, b) -> tuple[float, float]:
    """Pearson correlation from np.corrcoef (clipped to [-1, 1]), as in
    autocorr_day, and its square. Raises when either input has zero variance."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length 1-D sequences of length >= 2")
    if a.std() == 0 or b.std() == 0:
        raise UndefinedStatisticError("correlation undefined for zero variance")
    r = float(np.corrcoef(a, b)[0, 1])
    return r, r * r


# ---------------------------------------------------------------------------
# Per-home feature assembly
# ---------------------------------------------------------------------------

FEATURE_SOURCES = ("aggregate-only", "hvac-only", "both", "disagg-hart",
                   "disagg-fhmm")


def build_home_features(home: HomeData, sources,
                        det: DetectorConfig = DetectorConfig(), *,
                        seed: int = 0) -> dict:
    """Feature dict per requested source for one home. Each shared input (the
    aggregate catalog; events, pairs and clusters; the submetered HVAC bundle)
    is computed once, on first need. disagg-fhmm decodes the whole aggregate
    with models trained with this seed on the first half of each submeter."""
    entry = home.entry
    aggregate = home.aggregate
    agg = cache(partial(extract_consumption_features, aggregate, "aggregate"))

    @cache
    def edges():
        pairs = pair_events(events := detect_events(aggregate, det))
        return events, pairs, cluster_magnitudes(pairs["magnitude_w"])

    def hvac_bundle(hvac):
        events, _, clusters = edges()
        return (extract_consumption_features(hvac, "hvac")
                | extract_appliance_features(hvac, aggregate, events, clusters))

    @cache
    def submetered():
        if "hvac" not in entry.appliance_paths:
            raise ConfigurationError(f"home {entry.home_id} has no submetered hvac")
        return hvac_bundle(home.appliance("hvac"))

    out = {}
    for source in sources:
        if source == "aggregate-only":
            out[source] = agg()
        elif source == "hvac-only":
            out[source] = submetered()
        elif source == "both":
            out[source] = agg() | submetered()
        elif source == "disagg-hart":
            _, pairs, clusters = edges()
            hvac = hart_reconstruct(aggregate, pairs, clusters)["hvac"]
            out[source] = agg() | hvac_bundle(hvac)
        else:  # "disagg-fhmm"
            cut = max(len(aggregate) // 2, 1)
            models = train_appliance_models(home, cut, seed=seed)
            if not any(m.name == "hvac" for m in models):
                raise ConfigurationError(f"home {entry.home_id}: no usable hvac model")
            hvac = fhmm_disaggregate(aggregate, models)["hvac"]
            out[source] = agg() | hvac_bundle(hvac)
    return out


def build_feature_table(manifest, sources, det: DetectorConfig = DetectorConfig(),
                        *, seed: int = 0) -> dict:
    """{source: (ids, X)}: the sorted feature ids (the extract_* catalogs fix
    them) as an object array and one row per manifest home, in manifest
    order, read one home's files at a time. A source unknown or given twice
    is a ValueError naming it, before any file is read, and a value not
    finite and >= 0 one naming the home and the feature."""
    check_choices(sources, FEATURE_SOURCES, "feature source")
    homes = {source: [] for source in sources}
    for entry in manifest.homes:
        for source, features in build_home_features(
                HomeData(manifest, entry), sources, det, seed=seed).items():
            homes[source].append(features)
    table = {}
    for source, rows in homes.items():
        ids = sorted(rows[0])
        X = np.array([[features[i] for i in ids] for features in rows])
        bad = np.argwhere(~np.isfinite(X) | (X < 0))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"home {manifest.homes[i].home_id}: feature {ids[j]!r} "
                             f"must be finite and >= 0, got {X[i, j]}")
        table[source] = (np.array(ids, dtype=object), X)
    return table


def write_feature_csv(home_ids, ids, X, path) -> None:
    """CSV with a home_id column, then one column per feature id (a row of X)."""
    rows = np.asarray(X, dtype=float).tolist()
    write_csv(path, ["home_id", *ids], ([h, *row] for h, row in zip(home_ids, rows)))

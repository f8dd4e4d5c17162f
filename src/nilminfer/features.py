"""Household feature extraction, chi-squared selection and correlation
diagnostics.

The consumption catalog (22 features: consumption means, ratios, temporal
proportions, variance and day-lag autocorrelation) can be computed on any
power stream and is prefixed with a stream tag. The appliance catalog adds
HVAC- and event-derived features: max HVAC power, switch counts, circuit
count, ON-time and energy fractions, and the power statistics of the highest
power appliance found by event-pair clustering. Every feature value is
non-negative by construction, which the chi-squared scorer requires.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .disagg import (ON_THRESHOLD_W, fhmm_disaggregate, hart_reconstruct,
                     train_appliance_models)
from .errors import ConfigurationError, CoverageError, UndefinedStatisticError
from .events import (HVAC_MIN_W, DetectorConfig, cluster_magnitudes,
                     detect_events, pair_events)
from .series import (HomeData, PowerSeries, SECONDS_PER_DAY, check_same_axis,
                     local_clock_hours, local_weekdays, median)
from .series import load_power_csv  # noqa: F401 (perfbench/test_tracer.py)

CLOCK_WINDOWS = {
    "mean_day": (6, 22),
    "mean_evening": (18, 22),
    "mean_morning": (6, 10),
    "mean_night": (1, 5),
    "mean_noon": (10, 14),
}


@dataclass
class FeatureVector:
    """Named feature values, each finite and non-negative."""
    values: dict = field(default_factory=dict)

    def add(self, name: str, value: float):
        value = float(value)
        if not np.isfinite(value) or value < 0:
            raise ValueError(f"feature {name!r} must be finite and >= 0, "
                             f"got {value}")
        self.values[name] = value

    def merge(self, other: "FeatureVector") -> "FeatureVector":
        out = FeatureVector(dict(self.values))
        for name in other.values:
            if name in out.values:
                raise ValueError(f"duplicate feature {name!r}")
            out.values[name] = other.values[name]
        return out


def extract_consumption_features(s: PowerSeries, prefix: str) -> FeatureVector:
    """The 22-feature consumption catalog over one stream.

    Requires at least one full week so weekday/weekend means are defined.
    Ratios with zero denominators map to 0; autocorrelation is the Pearson
    correlation of the stream with itself shifted one day, 0 when either
    side is constant and clamped at 0 to keep the vector non-negative.
    """
    if s.span_s < 7 * SECONDS_PER_DAY:
        raise CoverageError(
            f"need at least one full week, got {s.span_s / SECONDS_PER_DAY:.2f} days")
    fv = FeatureVector()
    v = s.values
    ts = s.timestamps()
    hours = local_clock_hours(ts, s.timezone)
    wd = local_weekdays(ts, s.timezone)

    def put(name, value):
        fv.add(f"{prefix}_{name}", value)

    mean_total = float(v.mean())
    put("mean_total", mean_total)
    weekday = v[wd < 5]
    weekend = v[wd >= 5]
    put("mean_weekday", weekday.mean())
    put("mean_weekend", weekend.mean())
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
    ratio("weekday_over_weekend", float(weekday.mean()), float(weekend.mean()))

    put("frac_above_mean", float((v > mean_total).mean()))
    put("frac_above_500w", float((v > 500.0).mean()))
    put("frac_above_1kw", float((v > 1000.0).mean()))

    put("variance", float(v.var()))
    lag = SECONDS_PER_DAY // s.period_s
    a, b = v[lag:], v[:-lag]
    if a.std() == 0 or b.std() == 0:
        put("autocorr_day", 0.0)
    else:
        put("autocorr_day", max(float(np.corrcoef(a, b)[0, 1]), 0.0))
    return fv


def extract_appliance_features(hvac: PowerSeries, aggregate: PowerSeries,
                               events, clusters: list) -> FeatureVector:
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

    fv = FeatureVector()
    fv.add("hvac_max_power", float(hvac.values.max()))
    fv.add("appliance_switches", float(len(events)))
    fv.add("hvac_on_fraction", float((hvac.values > ON_THRESHOLD_W).mean()))
    frac = float(hvac.values.sum()) / agg_energy
    fv.add("hvac_energy_fraction", min(frac, 1.0))

    fv.add("hvac_circuits",
           float(sum(1 for c in clusters if c["center"] >= HVAC_MIN_W)))
    top = clusters[-1]["values"] if clusters else [0.0]
    fv.add("top_appliance_mean", float(np.mean(top)))
    fv.add("top_appliance_max", float(np.max(top)))
    fv.add("top_appliance_median", float(median(top)))
    return fv


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
    """Pearson correlation and its square. Raises when either input has zero
    variance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length 1-D sequences of length >= 2")
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        raise UndefinedStatisticError("correlation undefined for zero variance")
    r = float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))
    r = max(-1.0, min(1.0, r))
    return r, r * r


# ---------------------------------------------------------------------------
# Per-home feature assembly
# ---------------------------------------------------------------------------

FEATURE_SOURCES = ("aggregate-only", "hvac-only", "both", "disagg-hart",
                   "disagg-fhmm")


@dataclass
class FeatureTable:
    home_ids: list
    vectors: dict  # source -> {home_id -> FeatureVector}

    def matrix(self, source: str):
        """(feature_ids, X) with rows ordered like home_ids and columns by
        sorted feature id."""
        vecs = self.vectors[source]
        ids = sorted(vecs[self.home_ids[0]].values)
        for h in self.home_ids:
            if sorted(vecs[h].values) != ids:
                raise ValueError(f"home {h} has inconsistent feature ids")
        X = np.array([[vecs[h].values[i] for i in ids] for h in self.home_ids])
        return np.array(ids, dtype=object), X


def build_home_features(home: HomeData, sources,
                        det: DetectorConfig = DetectorConfig(), *,
                        seed: int = 0) -> dict:
    """FeatureVector per requested source for one home. Shared inputs
    (aggregate stream, events, pairs and their clusters) are computed once.
    disagg-fhmm decodes the whole aggregate with models trained with this
    seed on the first half of each submetered trace."""
    entry = home.entry
    aggregate = home.aggregate
    agg_fv = extract_consumption_features(aggregate, "aggregate")
    events = detect_events(aggregate, det)
    pairs = pair_events(events)
    clusters = cluster_magnitudes(np.array([p.magnitude_w for p in pairs]))

    def hvac_bundle(hvac_stream):
        fv = extract_consumption_features(hvac_stream, "hvac")
        return fv.merge(extract_appliance_features(hvac_stream, aggregate,
                                                   events, clusters))

    out = {}
    for source in sources:
        if source == "aggregate-only":
            out[source] = agg_fv
        elif source in ("hvac-only", "both"):
            if "hvac" not in entry.appliance_paths:
                raise ConfigurationError(f"home {entry.home_id} has no submetered hvac")
            bundle = hvac_bundle(home.appliance("hvac"))
            out[source] = bundle if source == "hvac-only" else agg_fv.merge(bundle)
        elif source == "disagg-hart":
            hvac = hart_reconstruct(aggregate, pairs, clusters).appliances["hvac"]
            out[source] = agg_fv.merge(hvac_bundle(hvac))
        elif source == "disagg-fhmm":
            cut = max(len(aggregate) // 2, 1)
            models = train_appliance_models(home, cut, seed=seed)
            if not any(m.name == "hvac" for m in models):
                raise ConfigurationError(f"home {entry.home_id}: no usable hvac model")
            hvac = fhmm_disaggregate(aggregate, models).appliances["hvac"]
            out[source] = agg_fv.merge(hvac_bundle(hvac))
        else:
            raise ValueError(f"unknown feature source {source!r}")
    return out


def build_feature_table(manifest, sources, det: DetectorConfig = DetectorConfig(),
                        **kwargs) -> FeatureTable:
    """Each home's vectors, one home's files at a time."""
    vectors: dict = {source: {} for source in sources}
    for entry in manifest.homes:
        per_source = build_home_features(HomeData(manifest, entry), sources,
                                         det, **kwargs)
        for source, fv in per_source.items():
            vectors[source][entry.home_id] = fv
    return FeatureTable(home_ids=[e.home_id for e in manifest.homes],
                        vectors=vectors)


def write_feature_csv(table: FeatureTable, source: str, path) -> None:
    """CSV with a home_id column followed by the sorted feature ids."""
    ids, X = table.matrix(source)
    with open(path, "w", newline="") as f:
        f.write("home_id," + ",".join(ids) + "\n")
        for home_id, row in zip(table.home_ids, X):
            f.write(home_id + "," + ",".join(repr(float(v)) for v in row) + "\n")

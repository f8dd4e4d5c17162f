"""Feature catalogs, chi-squared selection, correlation."""
import copy
import warnings
from datetime import datetime
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilminfer.errors import (AlignmentError, ConfigurationError, CoverageError,
                              UndefinedStatisticError)
from nilminfer.events import (PAIR_DTYPE, DetectorConfig, cluster_magnitudes,
                              detect_events, pair_events)
from nilminfer.features import (FEATURE_SOURCES, build_feature_table,
                                build_home_features, chi2_select,
                                extract_appliance_features,
                                extract_consumption_features, pearson,
                                write_feature_csv)
from nilminfer.series import (DatasetManifest, HomeData, PowerSeries,
                              local_weekdays, write_power_csv)
from nilminfer.synth import DEFAULT_START

WEEK = 7 * 86400


def week_series(values, period=900, start=DEFAULT_START):
    return PowerSeries(start, period, np.asarray(values, dtype=float))


def constant_week(level=1000.0, period=900):
    return week_series(np.full(WEEK // period, level), period)


# ---------------------------------------------------------------------------
# consumption catalog
# ---------------------------------------------------------------------------

def test_constant_week_features():
    v = extract_consumption_features(constant_week(), "aggregate")
    assert len(v) == 22
    for name in ("mean_total", "mean_weekday", "mean_weekend", "mean_day",
                 "mean_evening", "mean_morning", "mean_night", "mean_noon",
                 "max", "min"):
        assert v[f"aggregate_{name}"] == pytest.approx(1000.0)
    for name in ("mean_over_max", "min_over_mean", "morning_over_noon",
                 "evening_over_noon", "noon_over_total", "night_over_day",
                 "weekday_over_weekend"):
        assert v[f"aggregate_{name}"] == pytest.approx(1.0)
    assert v["aggregate_frac_above_mean"] == 0.0   # strict >
    assert v["aggregate_frac_above_500w"] == 1.0
    assert v["aggregate_frac_above_1kw"] == 0.0    # strict >
    assert v["aggregate_variance"] == 0.0
    assert v["aggregate_autocorr_day"] == 0.0


def test_weekday_weekend_ratio():
    period = 900
    n = WEEK // period
    s0 = week_series(np.zeros(n), period)
    wd = local_weekdays(s0.timestamps(), "UTC")
    vals = np.where(wd < 5, 2000.0, 1000.0)
    fv = extract_consumption_features(week_series(vals, period), "agg")
    assert fv["agg_weekday_over_weekend"] == pytest.approx(2.0)
    assert fv["agg_mean_weekday"] == pytest.approx(2000.0)
    assert fv["agg_mean_weekend"] == pytest.approx(1000.0)


def test_consumption_features_match_bruteforce(default_corpus):
    s = default_corpus.homes["home_07"].aggregate
    fv = extract_consumption_features(s, "x")
    v, ts, zone = s.values, s.timestamps(), ZoneInfo(s.timezone)
    local = [datetime.fromtimestamp(int(t), zone) for t in ts.tolist()]
    hours = np.array([d.hour + d.minute / 60 + d.second / 3600 for d in local])
    wd = np.array([d.weekday() for d in local])

    def mean_window(h0, h1):
        return float(v[(hours >= h0) & (hours < h1)].mean())

    expect = {
        "x_mean_total": float(v.mean()),
        "x_mean_weekday": float(v[wd < 5].mean()),
        "x_mean_weekend": float(v[wd >= 5].mean()),
        "x_mean_day": mean_window(6, 22),
        "x_mean_evening": mean_window(18, 22),
        "x_mean_morning": mean_window(6, 10),
        "x_mean_night": mean_window(1, 5),
        "x_mean_noon": mean_window(10, 14),
        "x_max": float(v.max()),
        "x_min": float(v.min()),
        "x_mean_over_max": float(v.mean() / v.max()),
        "x_min_over_mean": float(v.min() / v.mean()),
        "x_morning_over_noon": mean_window(6, 10) / mean_window(10, 14),
        "x_evening_over_noon": mean_window(18, 22) / mean_window(10, 14),
        "x_noon_over_total": mean_window(10, 14) / float(v.mean()),
        "x_night_over_day": mean_window(1, 5) / mean_window(6, 22),
        "x_weekday_over_weekend": float(v[wd < 5].mean() / v[wd >= 5].mean()),
        "x_frac_above_mean": float((v > v.mean()).mean()),
        "x_frac_above_500w": float((v > 500).mean()),
        "x_frac_above_1kw": float((v > 1000).mean()),
        "x_variance": float(v.var()),
    }
    lag = 86400 // s.period_s
    r = float(np.corrcoef(v[lag:], v[:-lag])[0, 1])
    expect["x_autocorr_day"] = max(r, 0.0)
    for name, want in expect.items():
        assert fv[name] == pytest.approx(want, abs=1e-9), name


def test_short_series_rejected():
    s = week_series(np.ones(100), period=900)
    with pytest.raises(CoverageError):
        extract_consumption_features(s, "agg")


def test_scaling_behavior():
    rng = np.random.default_rng(13)
    vals = rng.uniform(10, 2000, WEEK // 900)
    a = extract_consumption_features(week_series(vals), "s")
    b = extract_consumption_features(week_series(vals * 3.0), "s")
    for name in ("mean_total", "max", "min", "mean_night"):
        assert b[f"s_{name}"] == pytest.approx(3 * a[f"s_{name}"])
    for name in ("mean_over_max", "night_over_day", "frac_above_mean",
                 "autocorr_day"):
        assert b[f"s_{name}"] == pytest.approx(a[f"s_{name}"],
                                                      abs=1e-12)
    assert b["s_variance"] == pytest.approx(9 * a["s_variance"])


def test_zero_denominator_flagged():
    fv = extract_consumption_features(constant_week(0.0), "z")
    assert fv["z_mean_over_max"] == 0.0


# ---------------------------------------------------------------------------
# appliance catalog
# ---------------------------------------------------------------------------

def hvac_square(level=3000.0, period=900):
    n = WEEK // period
    half_hours = (np.arange(n) * period // 1800) % 2 == 0
    return week_series(np.where(half_hours, level, 0.0), period)


def clusters_of(pairs):
    return cluster_magnitudes(pairs["magnitude_w"])


def test_appliance_features_closed_form():
    hvac = hvac_square()
    det = DetectorConfig()
    events = detect_events(hvac, det)
    pairs = pair_events(events)
    fv = extract_appliance_features(hvac, hvac, events, clusters_of(pairs))
    assert fv["hvac_max_power"] == 3000.0
    assert fv["hvac_on_fraction"] == pytest.approx(0.5)
    assert fv["hvac_energy_fraction"] == pytest.approx(1.0)
    assert fv["appliance_switches"] == len(events)
    assert fv["top_appliance_median"] == pytest.approx(3000.0)


def test_appliance_features_zero_hvac():
    aggregate = constant_week(100.0)
    hvac = constant_week(0.0)
    fv = extract_appliance_features(hvac, aggregate, [], [])
    assert fv["hvac_max_power"] == 0.0
    assert fv["hvac_on_fraction"] == 0.0
    assert fv["hvac_energy_fraction"] == 0.0
    for stat in ("mean", "max", "median"):
        assert fv[f"top_appliance_{stat}"] == 0.0


def test_appliance_features_circuit_metadata():
    """hvac_circuits counts the pair clusters at or above HVAC_MIN_W; no
    metadata feeds it."""
    hvac = hvac_square()
    fv = extract_appliance_features(hvac, hvac, [], [])
    assert fv["hvac_circuits"] == 0.0  # no pairs, so no cluster
    mags = (300.0, 300.0, 1500.0, 3000.0, 3000.0)
    pairs = np.array([(DEFAULT_START + 900 * k, DEFAULT_START + 900 * (k + 1), mag)
                      for k, mag in enumerate(mags)], dtype=PAIR_DTYPE)
    fv = extract_appliance_features(hvac, hvac, [], clusters_of(pairs))
    assert fv["hvac_circuits"] == 2.0  # 1500 W and 3000 W, not 300 W


def test_manifest_hvac_circuits_feeds_no_feature(small_corpus):
    manifest = small_corpus.manifest
    one = type(manifest)(homes=manifest.homes[:1], base_dir=manifest.base_dir)
    relabelled = copy.deepcopy(one)
    relabelled.homes[0].hvac_circuits = 7
    sources = ("both", "disagg-hart")
    for source in sources:
        _, X = build_feature_table(one, sources)[source]
        _, X_relabelled = build_feature_table(relabelled, sources)[source]
        assert X.tobytes() == X_relabelled.tobytes()


@pytest.mark.parametrize("shift", [0, 900])
def test_appliance_features_need_the_aggregate_time_axis(shift):
    hvac = hvac_square()
    aggregate = week_series(hvac.values[:-1] if shift == 0 else hvac.values,
                            start=DEFAULT_START + shift)
    with pytest.raises(AlignmentError, match="hvac: .* is not the aggregate's"):
        extract_appliance_features(hvac, aggregate, [], [])


def test_appliance_features_zero_aggregate_energy():
    zero = constant_week(0.0)
    with pytest.raises(UndefinedStatisticError):
        extract_appliance_features(zero, zero, [], [])


# ---------------------------------------------------------------------------
# chi-squared selection
# ---------------------------------------------------------------------------

def chi2_oracle(X, y):
    """Independent two-loop recomputation of the score."""
    X = np.asarray(X, dtype=float)
    classes = sorted(set(y), key=str)
    n, d = X.shape
    scores = np.zeros(d)
    for j in range(d):
        for cls in classes:
            rows = [i for i in range(n) if y[i] == cls]
            observed = sum(X[i, j] for i in rows)
            expected = sum(X[i, j] for i in range(n)) * len(rows) / n
            if expected > 0:
                scores[j] += (observed - expected) ** 2 / expected
    return scores


def test_chi2_hand_example():
    X = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
    y = np.array([0, 0, 1, 1])
    selected, scores = chi2_select(X, y, 1)
    np.testing.assert_allclose(scores, [2.0, 2.0])
    assert list(selected) == [0]  # tie broken toward the lower index


def test_chi2_constant_column_scores_zero():
    X = np.array([[5.0, 1.0], [5.0, 0.0], [5.0, 1.0], [5.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    _, scores = chi2_select(X, y, 2)
    assert scores[0] == pytest.approx(0.0)


def test_chi2_matches_oracle():
    rng = np.random.default_rng(14)
    for _ in range(5):
        X = rng.uniform(0, 10, (20, 10))
        y = rng.integers(0, 3, 20)
        sel, scores = chi2_select(X, y, 4)
        np.testing.assert_allclose(scores, chi2_oracle(X, list(y)), atol=1e-9)
        # ranking consistent with scores
        order = np.lexsort((np.arange(10), -scores))
        assert list(sel) == list(order[:4])


def test_chi2_rejects_negative_with_location():
    X = np.array([[1.0, 2.0], [3.0, -4.0]])
    with pytest.raises(ValueError, match=r"X\[1, 1\]"):
        chi2_select(X, np.array([0, 1]), 1)


def test_chi2_requires_two_classes():
    with pytest.raises(ValueError):
        chi2_select(np.ones((3, 2)), np.array([0, 0, 0]), 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_chi2_row_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 5, (12, 6))
    y = rng.integers(0, 2, 12)
    if len(set(y.tolist())) < 2:
        return
    perm = rng.permutation(12)
    sel_a, scores_a = chi2_select(X, y, 3)
    sel_b, scores_b = chi2_select(X[perm], y[perm], 3)
    np.testing.assert_allclose(scores_a, scores_b, atol=1e-9)
    assert list(sel_a) == list(sel_b)


# ---------------------------------------------------------------------------
# pearson
# ---------------------------------------------------------------------------

def test_pearson_identity_and_anti_identity():
    a = np.array([1.0, 2.0, 5.0, 7.0])
    r, r2 = pearson(a, a)
    assert r == pytest.approx(1.0) and r2 == pytest.approx(1.0)
    r, _ = pearson(a, -a)
    assert r == pytest.approx(-1.0)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(15)
    a, b = rng.normal(0, 1, 50), rng.normal(0, 1, 50)
    r0, _ = pearson(a, b)
    r1, _ = pearson(3.0 * a + 7.0, 0.5 * b - 2.0)
    assert r1 == pytest.approx(r0, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_pearson_is_np_corrcoef(seed):
    """One correlation formula: autocorr_day's np.corrcoef, clipped to
    [-1, 1] where rounding would take r past it."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1, 30)
    for b in (rng.normal(0, 1, 30), a, -a, 1e-3 * a + 1e6):
        r, r2 = pearson(a, b)
        assert r == float(np.corrcoef(a, b)[0, 1]) and r2 == r * r
        assert -1.0 <= r <= 1.0


def test_pearson_zero_variance_rejected():
    with pytest.raises(UndefinedStatisticError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# table assembly / CSV export
# ---------------------------------------------------------------------------

def test_feature_table_and_csv(default_corpus, tmp_path):
    manifest = default_corpus.manifest
    sub = type(manifest)(homes=manifest.homes[:3], base_dir=manifest.base_dir)
    table = build_feature_table(sub, ("aggregate-only", "both"))
    ids, X = table["aggregate-only"]
    assert X.shape == (3, 22)
    ids_b, X_b = table["both"]
    assert X_b.shape == (3, 52)  # 22 aggregate + 22 hvac + 8 appliance-level
    assert (X >= 0).all() and (X_b >= 0).all()

    out = tmp_path / "features.csv"
    home_ids = [e.home_id for e in sub.homes]
    write_feature_csv(home_ids, ids_b, X_b, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(["home_id", *ids_b])
    assert [line.split(",")[0] for line in lines[1:]] == home_ids
    assert [[float(v) for v in line.split(",")[1:]] for line in lines[1:]] == \
        X_b.tolist()


def test_disagg_fhmm_source_depends_on_seed(small_corpus):
    manifest = small_corpus.manifest
    one = type(manifest)(homes=manifest.homes[:1], base_dir=manifest.base_dir)
    _, X0 = build_feature_table(one, ("disagg-fhmm",), seed=0)["disagg-fhmm"]
    _, X0_again = build_feature_table(one, ("disagg-fhmm",), seed=0)["disagg-fhmm"]
    _, X7 = build_feature_table(one, ("disagg-fhmm",), seed=7)["disagg-fhmm"]
    assert X0.shape == (1, 52) and (X0 >= 0).all()
    assert np.array_equal(X0, X0_again)
    assert not np.array_equal(X0, X7)


def test_disagg_hart_source_detects_the_aggregate_once(small_corpus,
                                                       monkeypatch):
    import nilminfer.disagg
    import nilminfer.features

    calls = []

    def counting_detect_events(s, *args):
        calls.append(len(s))
        return detect_events(s, *args)

    for module in (nilminfer.disagg, nilminfer.features):
        monkeypatch.setattr(module, "detect_events", counting_detect_events)
    manifest = small_corpus.manifest
    one = type(manifest)(homes=manifest.homes[:1], base_dir=manifest.base_dir)
    _, X = build_feature_table(one, ("disagg-hart",))["disagg-hart"]
    assert X.shape == (1, 52)
    assert calls == [len(small_corpus.homes[one.homes[0].home_id].aggregate)]


@pytest.mark.parametrize("source", ["both", "disagg-fhmm"])
def test_home_without_usable_hvac_is_a_configuration_error(source, tmp_path,
                                                           small_corpus):
    src = small_corpus.manifest
    entry = copy.deepcopy(src.homes[0])
    entry.aggregate_path = str(src.resolve(entry.aggregate_path))
    paths = {name: str(src.resolve(p)) for name, p in entry.appliance_paths.items()}
    if source == "both":
        del paths["hvac"]
        fault = "has no submetered hvac"
    else:  # an hvac that never runs cannot be fitted, so it is skipped
        agg = small_corpus.homes[entry.home_id].aggregate
        write_power_csv(PowerSeries(agg.start_time, agg.period_s,
                                    np.zeros(len(agg))), tmp_path / "hvac.csv")
        paths["hvac"] = str(tmp_path / "hvac.csv")
        fault = "no usable hvac model"
    entry.appliance_paths = paths
    manifest = DatasetManifest([entry], base_dir=tmp_path)
    with pytest.raises(ConfigurationError,
                       match=f"home {entry.home_id}.*{fault}"):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "skipping degenerate appliance hvac")
            build_feature_table(manifest, (source,))


def test_feature_table_matches_each_home(small_corpus):
    """Oracle: each source's matrix is build_home_features home by home, rows
    in manifest order and columns in sorted feature id order."""
    manifest = small_corpus.manifest
    table = build_feature_table(manifest, FEATURE_SOURCES)
    assert list(table) == list(FEATURE_SOURCES)
    per_home = [build_home_features(HomeData(manifest, entry), FEATURE_SOURCES)
                for entry in manifest.homes]
    for source, (ids, X) in table.items():
        assert ids.dtype == object
        assert ids.tolist() == sorted(per_home[0][source])
        want = [[home[source][i] for i in ids] for home in per_home]
        assert X.shape == (len(manifest.homes), len(ids))
        assert X.tolist() == want, source


def spy(monkeypatch, names):
    """Wrap each named nilminfer.features global; return its calls' args."""
    import nilminfer.features
    calls = {name: [] for name in names}
    for name in names:
        def counting(*args, _name=name, _fn=getattr(nilminfer.features, name),
                     **kwargs):
            calls[_name].append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(nilminfer.features, name, counting)
    return calls


def edit_nth_appliance_catalog(monkeypatch, n, edit):
    """The nth extract_appliance_features call (1-based; the nth home for a
    single-source table) returns its catalog after edit(catalog)."""
    import nilminfer.features
    extract = nilminfer.features.extract_appliance_features
    calls = []

    def edited(*args):
        calls.append(args)
        features = extract(*args)
        if len(calls) == n:
            edit(features)
        return features

    monkeypatch.setattr(nilminfer.features, "extract_appliance_features", edited)


@pytest.mark.parametrize("value", [float("nan"), -1.0])
def test_feature_table_names_the_home_and_feature_of_a_bad_value(
        small_corpus, monkeypatch, value):
    manifest = small_corpus.manifest
    edit_nth_appliance_catalog(monkeypatch, 2, lambda features: features.update(
        hvac_on_fraction=value))
    with pytest.raises(ValueError, match=rf"home {manifest.homes[1].home_id}: "
                       r"feature 'hvac_on_fraction' must be finite and >= 0"):
        build_feature_table(manifest, ("both",))


@pytest.mark.parametrize("sources, message", [
    (("aggregate-only", "bogus"), "unknown feature source 'bogus'"),
    (("both", "both"), "feature source 'both' is given twice"),
], ids=["unknown", "twice"])
def test_feature_table_checks_its_sources_before_reading_a_file(
        small_corpus, monkeypatch, sources, message):
    import nilminfer.series
    loads = []
    load = nilminfer.series.load_power_csv
    monkeypatch.setattr(nilminfer.series, "load_power_csv",
                        lambda *a, **k: loads.append(a) or load(*a, **k))
    with pytest.raises(ValueError, match=message):
        build_feature_table(small_corpus.manifest, sources)
    assert loads == []


@pytest.mark.parametrize("sources, prefixes, appliance, edges", [
    (("aggregate-only",), ["aggregate"], 0, 0),  # no event pipeline
    (("hvac-only",), ["hvac"], 1, 1),  # no aggregate catalog
    (("hvac-only", "both"), ["aggregate", "hvac"], 1, 1),  # one hvac bundle
    (("aggregate-only", "both", "disagg-hart"), ["aggregate", "hvac", "hvac"], 2, 1),
], ids=["aggregate-only", "hvac-only", "hvac-only,both",
        "aggregate-only,both,disagg-hart"])
def test_each_home_computes_only_what_its_sources_read(
        small_corpus, monkeypatch, sources, prefixes, appliance, edges):
    """Per home: the consumption catalogs by stream, appliance catalogs and
    runs of detection, pairing and clustering that the sources need."""
    calls = spy(monkeypatch, ["extract_consumption_features",
                              "extract_appliance_features", "detect_events",
                              "pair_events", "cluster_magnitudes"])
    build_feature_table(small_corpus.manifest, sources)
    n = len(small_corpus.manifest.homes)
    assert sorted(args[1] for args in calls["extract_consumption_features"]) == \
        sorted(prefixes * n)
    assert len(calls["extract_appliance_features"]) == appliance * n
    for name in ("detect_events", "pair_events", "cluster_magnitudes"):
        assert len(calls[name]) == edges * n, name

"""Event detection, pairing and background removal."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilminfer.errors import EmptyWindowError
from nilminfer.events import (BackgroundProfile, Event, EventPair,
                              cluster_magnitudes, detect_events,
                              learn_background, pair_events, remove_background)
from nilminfer.series import PowerSeries
from nilminfer.synth import DEFAULT_START, HomeSpec, HvacSpec, gen_home


def make_series(values, period=1, start=DEFAULT_START):
    return PowerSeries(start, period, np.asarray(values, dtype=float))


def planted_edge_fixture():
    """One day, fridge + occupant loads only, additive noise sigma=5: every
    edge is isolated by construction, so the detector must recover all of
    them."""
    spec = HomeSpec(seed=11, days=1, hvac=HvacSpec(power_w=0.0),
                    appliance_noise_sigma_w=0.0)
    spec.occupant_load.rate_per_occupied_hour = 2.0
    return gen_home(spec)


def match_events(detected, planted, period, tol_w=15.0):
    """planted edges recovered within +-1 sample and +-tol_w."""
    by_time = {}
    for e in detected:
        by_time.setdefault(e.time, []).append(e)
    hits = []
    for pe in planted:
        ok = any(abs(de.delta_w - pe.delta_w) <= tol_w
                 for t in (pe.time - period, pe.time, pe.time + period)
                 for de in by_time.get(t, []))
        hits.append(ok)
    return hits


# ---------------------------------------------------------------------------
# detect_events
# ---------------------------------------------------------------------------

def test_constant_series_has_no_events():
    assert detect_events(make_series(np.full(120, 100.0))) == []


def test_two_clean_edges():
    vals = np.concatenate([np.zeros(60), np.full(60, 500.0), np.zeros(60)])
    events = detect_events(make_series(vals), steady_tol_w=15, min_event_w=70)
    assert len(events) == 2
    assert events[0].time == DEFAULT_START + 60 and events[0].delta_w == 500.0
    assert events[1].time == DEFAULT_START + 120 and events[1].delta_w == -500.0
    assert events[0].pre_level_w == 0.0
    assert events[1].pre_level_w == 500.0


def test_small_steps_below_threshold_ignored():
    vals = np.concatenate([np.zeros(60), np.full(60, 50.0), np.zeros(60)])
    assert detect_events(make_series(vals), 15, 70) == []


def test_planted_edges_all_recovered():
    home = planted_edge_fixture()
    planted = [e for e in home.provenance if abs(e.delta_w) >= 70]
    assert len(planted) >= 40
    detected = detect_events(home.aggregate)
    hits = match_events(detected, planted, home.aggregate.period_s)
    assert all(hits), f"missed {hits.count(False)} of {len(hits)} planted edges"
    # and nothing spurious: every detection maps back to a planted edge
    by = {}
    for pe in planted:
        by.setdefault(pe.time, []).append(pe)
    for de in detected:
        ok = any(abs(de.delta_w - pe.delta_w) <= 15
                 for t in (de.time - 30, de.time, de.time + 30)
                 for pe in by.get(t, []))
        assert ok, f"spurious event {de}"


def test_no_events_on_constant_plus_noise():
    rng = np.random.default_rng(3)
    for level in (0.0, 80.0, 300.0):
        vals = np.maximum(level + rng.normal(0, 5, 2880), 0.0)
        assert detect_events(make_series(vals, period=30)) == []


def test_translation_invariance():
    rng = np.random.default_rng(4)
    vals = np.concatenate([np.full(50, 100.0), np.full(40, 700.0),
                           np.full(60, 250.0)]) + rng.normal(0, 5, 150)
    vals = np.maximum(vals, 0)
    base = detect_events(make_series(vals))
    shifted = detect_events(make_series(vals + 137.0))
    assert [e.time for e in base] == [e.time for e in shifted]
    np.testing.assert_allclose([e.delta_w for e in base],
                               [e.delta_w for e in shifted], atol=1e-9)


def test_reconstruction_matches_state_means():
    # clean staircase: every transition emits; cumulative deltas rebuild levels
    levels = [0.0, 300.0, 800.0, 200.0, 1000.0, 0.0]
    vals = np.concatenate([np.full(30, lv) for lv in levels])
    events = detect_events(make_series(vals), 15, 70)
    assert len(events) == len(levels) - 1
    rebuilt = [events[0].pre_level_w]
    for e in events:
        assert e.pre_level_w == pytest.approx(rebuilt[-1])
        rebuilt.append(e.pre_level_w + e.delta_w)
    assert rebuilt == pytest.approx(levels)


def test_detect_events_argument_errors():
    with pytest.raises(ValueError):
        detect_events(make_series([1.0]))
    with pytest.raises(ValueError):
        detect_events(make_series([1.0, 2.0]), steady_tol_w=15, min_event_w=10)
    with pytest.raises(ValueError):
        detect_events(make_series([1.0, 2.0]), steady_tol_w=0)


# ---------------------------------------------------------------------------
# pair_events
# ---------------------------------------------------------------------------

def test_pair_single_match():
    events = [Event(60, 500.0, 0.0), Event(120, -500.0, 500.0)]
    pairs = pair_events(events, 0.2, 3600)
    assert pairs == [EventPair(60, 120, 500.0)]
    assert pairs[0].duration_s == 60


def test_unmatched_rising_edge_dropped():
    assert pair_events([Event(60, 500.0, 0.0)]) == []


def test_interleaved_two_appliances():
    events = [Event(10, 500.0, 0.0), Event(20, 200.0, 500.0),
              Event(50, -200.0, 700.0), Event(80, -500.0, 500.0)]
    pairs = pair_events(events, 0.2, 3600)
    assert pairs == [EventPair(10, 80, 500.0), EventPair(20, 50, 200.0)]


def test_pair_respects_duration_cap():
    events = [Event(0, 500.0, 0.0), Event(9000, -500.0, 500.0)]
    assert pair_events(events, 0.2, max_duration_s=7200) == []


def test_pair_respects_magnitude_tolerance():
    events = [Event(0, 500.0, 0.0), Event(60, -380.0, 500.0)]
    assert pair_events(events, 0.2, 3600) == []
    assert len(pair_events(events, 0.3, 3600)) == 1


def test_pair_requires_time_order():
    events = [Event(60, 500.0, 0.0), Event(10, -500.0, 500.0)]
    with pytest.raises(ValueError):
        pair_events(events)


def test_same_magnitude_pairing_is_fifo():
    rng = np.random.default_rng(5)
    times = np.sort(rng.choice(np.arange(1, 2000), size=12, replace=False))
    events = []
    for i, t in enumerate(times):
        events.append(Event(int(t), 400.0 if i < 6 else -400.0, 0.0))
    pairs = pair_events(events, 0.2, 1e9)
    offs = [p.off_time for p in pairs]  # sorted by on_time already
    assert offs == sorted(offs)
    for p in pairs:
        assert p.on_time < p.off_time


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5000), st.sampled_from([1, -1]),
                          st.integers(100, 1000)), min_size=0, max_size=16))
def test_pair_output_predicates(event_specs):
    events = [Event(t, sign * mag, 0.0)
              for t, sign, mag in sorted(event_specs)]
    pairs = pair_events(events, 0.2, 1800)
    for p in pairs:
        assert p.on_time < p.off_time
        assert p.duration_s <= 1800
        assert p.magnitude_w > 0


def pair_events_unbounded(events, match_tol_frac, max_duration_s):
    """Reference: the scan that keeps every unmatched rise open for the
    whole trace and skips the stale ones at each fall."""
    open_rises, pairs = [], []
    for e in events:
        if e.delta_w > 0:
            open_rises.append(e)
            continue
        for i, rise in enumerate(open_rises):
            gap = e.time - rise.time
            if gap <= 0 or gap > max_duration_s:
                continue
            if abs(rise.delta_w + e.delta_w) <= match_tol_frac * rise.delta_w:
                pairs.append(EventPair(rise.time, e.time, rise.delta_w))
                del open_rises[i]
                break
    pairs.sort(key=lambda pr: (pr.on_time, pr.off_time))
    return pairs


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0, 0, 1, 4, 9, 10, 11, 30]),
                          st.sampled_from([1, -1]),
                          st.sampled_from([100.0, 115.0, 130.0, 400.0])),
                max_size=40))
def test_pair_events_matches_unbounded_scan(specs):
    # gaps of 0 give equal timestamps; 9/10/11 sit on both sides of the cap
    events, t = [], 0
    for gap, sign, mag in specs:
        t += gap
        events.append(Event(t, sign * mag, 0.0))
    assert pair_events(events, 0.2, 10.0) == \
        pair_events_unbounded(events, 0.2, 10.0)


# ---------------------------------------------------------------------------
# learn_background / remove_background
# ---------------------------------------------------------------------------

def test_learn_background_ideal_fridge():
    spec = HomeSpec(seed=21, days=2, hvac=HvacSpec(power_w=0.0))
    spec.occupant_load.rate_per_occupied_hour = 0.0
    home = gen_home(spec)
    profile = learn_background(home.aggregate)
    assert len(profile.cluster_centers_w) == 1
    assert profile.cluster_centers_w[0] == pytest.approx(
        spec.fridge.power_w, abs=15)


def test_learn_background_flat_night_is_empty():
    s = make_series(np.full(2 * 86400 // 30, 80.0), period=30)
    profile = learn_background(s)
    assert profile.cluster_centers_w == ()


def test_learn_background_two_loads():
    spec = HomeSpec(seed=22, days=2,
                    hvac=HvacSpec(power_w=1200.0, duty_fraction=0.5,
                                  cycle_s=2400.0))
    spec.occupant_load.rate_per_occupied_hour = 0.0
    home = gen_home(spec)
    profile = learn_background(home.aggregate)
    assert len(profile.cluster_centers_w) == 2
    assert profile.cluster_centers_w[0] == pytest.approx(150.0, rel=0.1)
    assert profile.cluster_centers_w[1] == pytest.approx(1200.0, rel=0.1)


def test_learn_background_requires_night_samples():
    # series covering 06:00..07:00 only
    s = PowerSeries(DEFAULT_START + 6 * 3600, 30, np.full(120, 50.0))
    with pytest.raises(EmptyWindowError):
        learn_background(s)


def test_remove_background_matches_center():
    pairs = [EventPair(0, 60, 150.0), EventPair(100, 160, 700.0)]
    profile = BackgroundProfile((150.0,), 0.1)
    assert remove_background(pairs, profile) == [EventPair(100, 160, 700.0)]


def test_remove_background_empty_profile_is_identity():
    pairs = [EventPair(0, 60, 150.0)]
    assert remove_background(pairs, BackgroundProfile((), 0.1)) == pairs


def test_remove_background_idempotent():
    pairs = [EventPair(0, 60, 140.0), EventPair(10, 80, 900.0),
             EventPair(20, 120, 152.0)]
    profile = BackgroundProfile((150.0, 1000.0), 0.1)
    once = remove_background(pairs, profile)
    assert remove_background(once, profile) == once


def test_foreground_pairs_are_occupant_driven():
    from nilminfer.events import DetectorConfig
    spec = HomeSpec(seed=31, days=2, appliance_noise_sigma_w=0.0)
    home = gen_home(spec)
    det = DetectorConfig()
    events = detect_events(home.aggregate, det.steady_tol_w, det.min_event_w)
    pairs = pair_events(events, det.match_tol_frac, det.max_duration_s)
    profile = learn_background(home.aggregate)
    kept = remove_background(pairs, profile)
    assert kept, "expected foreground pairs"
    per = home.aggregate.period_s
    on_edges = {e.time for e in home.provenance
                if e.source == "occupant_load" and e.delta_w > 0}
    for p in kept:
        near = {p.on_time - per, p.on_time, p.on_time + per}
        assert near & on_edges, f"pair {p} does not match an occupant ON edge"


def test_cluster_magnitudes_relative_gap():
    clusters = cluster_magnitudes(np.array([100, 102, 98, 500, 510]), 0.1)
    assert len(clusters) == 2
    assert clusters[0]["center"] == pytest.approx(100.0)
    assert clusters[1]["center"] == pytest.approx(505.0)
    assert cluster_magnitudes(np.array([]), 0.1) == []


def test_cluster_min_support_filters():
    clusters = cluster_magnitudes(np.array([100, 101, 99, 700.0]), 0.1,
                                  min_support=3)
    assert len(clusters) == 1
    assert clusters[0]["center"] == pytest.approx(100.0)


def cluster_magnitudes_scanned(mags, rel_gap, min_support):
    """Reference: the gap scan one sorted value at a time, with the clusters
    sorted by center afterwards."""
    mags = np.asarray(mags, dtype=float)
    if mags.size == 0:
        return []
    order = np.argsort(mags, kind="stable")
    sorted_vals = mags[order]
    breaks = [0]
    for i in range(1, sorted_vals.size):
        if sorted_vals[i] - sorted_vals[i - 1] > rel_gap * sorted_vals[i - 1]:
            breaks.append(i)
    breaks.append(sorted_vals.size)
    clusters = [{"center": float(np.median(sorted_vals[a:b])),
                 "indices": order[a:b], "values": sorted_vals[a:b].copy()}
                for a, b in zip(breaks[:-1], breaks[1:]) if b - a >= min_support]
    clusters.sort(key=lambda c: c["center"])
    return clusters


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, 100.0, 109.0, 110.0, 121.0, 1000.0]),
                          st.floats(0, 5000)), max_size=40),
       st.integers(1, 4))
def test_cluster_magnitudes_come_in_ascending_order(mags, min_support):
    """Zeros, duplicates and values one gap apart: every value of a cluster
    lies below every value of the next, the centers strictly rise, and the
    clusters are the scan's, unsorted."""
    clusters = cluster_magnitudes(np.array(mags), min_support=min_support)
    for lo, hi in zip(clusters, clusters[1:]):
        assert lo["values"].max() < hi["values"].min()
        assert lo["center"] < hi["center"]
    reference = cluster_magnitudes_scanned(mags, 0.1, min_support)
    assert len(clusters) == len(reference)
    for got, want in zip(clusters, reference):
        assert got["center"] == want["center"]
        assert got["indices"].tolist() == want["indices"].tolist()
        assert got["values"].tobytes() == want["values"].tobytes()


def remove_background_per_pair(pairs, profile):
    """Reference: each pair compared with every center on its own."""
    if not profile.cluster_centers_w:
        return list(pairs)
    centers = np.array(profile.cluster_centers_w)
    tol = profile.match_tol_frac
    return [p for p in pairs
            if not np.any(np.abs(p.magnitude_w - centers) <= tol * centers)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1, 5000), max_size=4, unique=True),
       st.sampled_from([0.0, 0.1, 0.25]),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from([-1, 0, 1, None]),
                          st.floats(1, 5000)), max_size=30))
def test_remove_background_matches_per_pair_loop(centers, tol, specs):
    """Empty pair lists, empty profiles, and magnitudes exactly at c, at
    c - tol*c and at c + tol*c."""
    centers = sorted(centers)
    pairs = []
    for k, (which, edge, free) in enumerate(specs):
        if centers and edge is not None:
            c = centers[which % len(centers)]
            free = c + edge * (tol * c)
        pairs.append(EventPair(10 * k, 10 * k + 5, free))
    profile = BackgroundProfile(tuple(centers), tol)
    assert remove_background(pairs, profile) == \
        remove_background_per_pair(pairs, profile)

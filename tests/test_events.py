"""Event detection, pairing and background removal."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilminfer.errors import EmptyWindowError
from nilminfer.events import (BACKGROUND_MIN_SUPPORT, CLUSTER_GAP_FRAC,
                              EVENT_DTYPE, MAX_PAIR_S, PAIR_DTYPE,
                              PAIR_TOL_FRAC, DetectorConfig,
                              cluster_magnitudes, detect_events,
                              learn_background, pair_events, remove_background)
from nilminfer.series import PowerSeries
from nilminfer.synth import DEFAULT_START, HomeSpec, gen_home


def make_series(values, period=1, start=DEFAULT_START):
    return PowerSeries(start, period, np.asarray(values, dtype=float))


def events_of(*rows):
    """EVENT_DTYPE records of (time, delta_w) rows."""
    return np.array(list(rows), dtype=EVENT_DTYPE)


def pairs_of(*rows):
    """PAIR_DTYPE records of (on_time, off_time, magnitude_w) rows."""
    return np.array(list(rows), dtype=PAIR_DTYPE)


def planted_edge_fixture():
    """One day, fridge + occupant loads only, additive noise sigma=5: every
    edge is isolated by construction, so the detector must recover all of
    them."""
    return gen_home(HomeSpec(seed=11, days=1, hvac_power_w=0.0,
                             appliance_noise_sigma_w=0.0,
                             occupant_rate_per_hour=2.0))


def match_events(detected, planted, period, tol_w=15.0):
    """For each planted EVENT_DTYPE edge, whether a detected one lies within
    +-1 sample and +-tol_w of it."""
    dt = np.abs(planted["time"][:, None] - detected["time"][None, :])
    dw = np.abs(planted["delta_w"][:, None] - detected["delta_w"][None, :])
    return ((dt <= period) & (dw <= tol_w)).any(axis=1)


# ---------------------------------------------------------------------------
# detect_events
# ---------------------------------------------------------------------------

def test_constant_series_has_no_events():
    events = detect_events(make_series(np.full(120, 100.0)))
    assert events.dtype == EVENT_DTYPE and len(events) == 0


def test_two_clean_edges():
    vals = np.concatenate([np.zeros(60), np.full(60, 500.0), np.zeros(60)])
    events = detect_events(make_series(vals), DetectorConfig(15, 70))
    assert events.dtype == EVENT_DTYPE
    assert events.tolist() == [(DEFAULT_START + 60, 500.0),
                               (DEFAULT_START + 120, -500.0)]


def test_small_steps_below_threshold_ignored():
    vals = np.concatenate([np.zeros(60), np.full(60, 50.0), np.zeros(60)])
    assert len(detect_events(make_series(vals), DetectorConfig(15, 70))) == 0


def test_planted_edges_all_recovered():
    home = planted_edge_fixture()
    planted = np.concatenate(list(home.provenance.values()))
    planted = planted[np.abs(planted["delta_w"]) >= 70]
    assert len(planted) >= 40
    detected = detect_events(home.aggregate)
    hits = match_events(detected, planted, home.aggregate.period_s)
    assert hits.all(), f"missed {(~hits).sum()} of {len(hits)} planted edges"
    # and nothing spurious: every detection maps back to a planted edge
    found = match_events(planted, detected, home.aggregate.period_s)
    assert found.all(), f"spurious events: {detected[~found].tolist()}"


def test_no_events_on_constant_plus_noise():
    rng = np.random.default_rng(3)
    for level in (0.0, 80.0, 300.0):
        vals = np.maximum(level + rng.normal(0, 5, 2880), 0.0)
        assert len(detect_events(make_series(vals, period=30))) == 0


def test_translation_invariance():
    rng = np.random.default_rng(4)
    vals = np.concatenate([np.full(50, 100.0), np.full(40, 700.0),
                           np.full(60, 250.0)]) + rng.normal(0, 5, 150)
    vals = np.maximum(vals, 0)
    base = detect_events(make_series(vals))
    shifted = detect_events(make_series(vals + 137.0))
    assert base["time"].tolist() == shifted["time"].tolist()
    np.testing.assert_allclose(base["delta_w"], shifted["delta_w"], atol=1e-9)


def test_reconstruction_matches_state_means():
    # clean staircase: every transition emits at the first sample of its new
    # level, and the cumulative deltas rebuild the levels from the first
    levels = [0.0, 300.0, 800.0, 200.0, 1000.0, 0.0]
    vals = np.concatenate([np.full(30, lv) for lv in levels])
    events = detect_events(make_series(vals), DetectorConfig(15, 70))
    assert events["time"].tolist() == [DEFAULT_START + 30 * k
                                       for k in range(1, len(levels))]
    rebuilt = levels[0] + np.cumsum(events["delta_w"])
    assert rebuilt.tolist() == pytest.approx(levels[1:])


def test_detect_events_argument_errors():
    with pytest.raises(ValueError):
        detect_events(make_series([1.0]))
    for bad in ({"steady_tol_w": 15, "min_event_w": 10}, {"steady_tol_w": 0},
                {"steady_tol_w": -5}, {"steady_tol_w": float("nan")},
                {"min_event_w": float("inf")}, {"min_event_w": float("nan")}):
        with pytest.raises(ValueError):
            DetectorConfig(**bad)


# ---------------------------------------------------------------------------
# pair_events
# ---------------------------------------------------------------------------

def test_pair_single_match():
    pairs = pair_events(events_of((60, 500.0), (120, -500.0)))
    assert pairs.dtype == PAIR_DTYPE
    assert pairs.tolist() == [(60, 120, 500.0)]


def test_unmatched_rising_edge_dropped():
    pairs = pair_events(events_of((60, 500.0)))
    assert pairs.dtype == PAIR_DTYPE and len(pairs) == 0


def test_interleaved_two_appliances():
    events = events_of((10, 500.0), (20, 200.0), (50, -200.0), (80, -500.0))
    assert pair_events(events).tolist() == [(10, 80, 500.0), (20, 50, 200.0)]


def test_pair_respects_duration_cap():
    assert MAX_PAIR_S == 7200
    for off, n_pairs in ((7200, 1), (7201, 0), (9000, 0)):
        events = events_of((0, 500.0), (off, -500.0))
        assert len(pair_events(events)) == n_pairs


def test_pair_respects_magnitude_tolerance():
    assert PAIR_TOL_FRAC == 0.2
    for fall, n_pairs in ((-380.0, 0), (-400.0, 1), (-420.0, 1), (-600.0, 1),
                          (-620.0, 0)):
        events = events_of((0, 500.0), (60, fall))
        assert len(pair_events(events)) == n_pairs


def test_pair_requires_time_order():
    with pytest.raises(ValueError, match="events must be time-ordered"):
        pair_events(events_of((60, 500.0), (10, -500.0)))


def test_same_magnitude_pairing_is_fifo():
    rng = np.random.default_rng(5)
    times = np.sort(rng.choice(np.arange(1, 2000), size=12, replace=False))
    events = events_of(*((int(t), 400.0 if i < 6 else -400.0)
                         for i, t in enumerate(times)))
    pairs = pair_events(events)
    offs = pairs["off_time"].tolist()  # sorted by on_time already
    assert offs == sorted(offs)
    assert (pairs["on_time"] < pairs["off_time"]).all()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20000), st.sampled_from([1, -1]),
                          st.integers(100, 1000)), min_size=0, max_size=16))
def test_pair_output_predicates(event_specs):
    events = events_of(*((t, sign * mag) for t, sign, mag in sorted(event_specs)))
    pairs = pair_events(events)
    duration = pairs["off_time"] - pairs["on_time"]
    assert ((0 < duration) & (duration <= MAX_PAIR_S)).all()
    assert (pairs["magnitude_w"] > 0).all()


def pair_events_unbounded(events, match_tol_frac, max_duration_s):
    """Reference: the scan that keeps every unmatched rise open for the
    whole trace and skips the stale ones at each fall."""
    open_rises, pairs = [], []
    for time, delta in events.tolist():
        if delta > 0:
            open_rises.append((time, delta))
            continue
        for i, (on, rise) in enumerate(open_rises):
            gap = time - on
            if gap <= 0 or gap > max_duration_s:
                continue
            if abs(rise + delta) <= match_tol_frac * rise:
                pairs.append((on, time, rise))
                del open_rises[i]
                break
    pairs.sort(key=lambda pr: (pr[0], pr[1]))
    return np.array(pairs, dtype=PAIR_DTYPE)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0, 0, 1, 2880, MAX_PAIR_S - 1,
                                           MAX_PAIR_S, MAX_PAIR_S + 1, 21600]),
                          st.sampled_from([1, -1]),
                          st.sampled_from([100.0, 115.0, 130.0, 400.0])),
                max_size=40))
def test_pair_events_matches_unbounded_scan(specs):
    # gaps of 0 give equal timestamps; MAX_PAIR_S - 1, MAX_PAIR_S and
    # MAX_PAIR_S + 1 (and 1 + (MAX_PAIR_S - 1)) sit on both sides of the cap
    rows, t = [], 0
    for gap, sign, mag in specs:
        t += gap
        rows.append((t, sign * mag))
    events = events_of(*rows)
    got = pair_events(events)
    want = pair_events_unbounded(events, PAIR_TOL_FRAC, MAX_PAIR_S)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# learn_background / remove_background
# ---------------------------------------------------------------------------

def test_learn_background_ideal_fridge():
    spec = HomeSpec(seed=21, days=2, hvac_power_w=0.0, occupant_rate_per_hour=0.0)
    home = gen_home(spec)
    centers = learn_background(home.aggregate)
    assert len(centers) == 1
    assert centers[0] == pytest.approx(spec.fridge_power_w, abs=15)


def test_learn_background_flat_night_is_empty():
    s = make_series(np.full(2 * 86400 // 30, 80.0), period=30)
    centers = learn_background(s)
    assert centers.dtype == float and centers.size == 0


def test_learn_background_two_loads():
    home = gen_home(HomeSpec(seed=22, days=2, hvac_power_w=1200.0,
                             hvac_duty_fraction=0.5, hvac_cycle_s=2400.0,
                             occupant_rate_per_hour=0.0))
    centers = learn_background(home.aggregate)
    assert len(centers) == 2
    assert centers[0] == pytest.approx(150.0, rel=0.1)
    assert centers[1] == pytest.approx(1200.0, rel=0.1)


def test_learn_background_requires_night_samples():
    # series covering 06:00..07:00 only
    s = PowerSeries(DEFAULT_START + 6 * 3600, 30, np.full(120, 50.0))
    with pytest.raises(EmptyWindowError):
        learn_background(s)


def test_remove_background_matches_center():
    pairs = pairs_of((0, 60, 150.0), (100, 160, 700.0))
    kept = remove_background(pairs, np.array([150.0]))
    assert kept.dtype == PAIR_DTYPE and kept.tolist() == [(100, 160, 700.0)]


def test_remove_background_empty_profile_is_identity():
    pairs = pairs_of((0, 60, 150.0))
    assert remove_background(pairs, np.array([])).tolist() == pairs.tolist()


def test_remove_background_idempotent():
    pairs = pairs_of((0, 60, 140.0), (10, 80, 900.0), (20, 120, 152.0))
    centers = np.array([150.0, 1000.0])
    once = remove_background(pairs, centers)
    assert remove_background(once, centers).tolist() == once.tolist()


def test_foreground_pairs_are_occupant_driven():
    spec = HomeSpec(seed=31, days=2, appliance_noise_sigma_w=0.0)
    home = gen_home(spec)
    det = DetectorConfig()
    events = detect_events(home.aggregate, det)
    pairs = pair_events(events)
    kept = remove_background(pairs, learn_background(home.aggregate))
    assert len(kept), "expected foreground pairs"
    per = home.aggregate.period_s
    occupant = home.provenance["occupant_load"]
    on_edges = set(occupant["time"][occupant["delta_w"] > 0].tolist())
    for on, off, _ in kept.tolist():
        near = {on - per, on, on + per}
        assert near & on_edges, f"pair ({on}, {off}) does not match an occupant ON edge"


def test_cluster_magnitudes_relative_gap():
    clusters = cluster_magnitudes(np.array([100, 102, 98, 500, 510]))
    assert len(clusters) == 2
    assert clusters[0]["center"] == pytest.approx(100.0)
    assert clusters[1]["center"] == pytest.approx(505.0)
    assert cluster_magnitudes(np.array([])) == []


def night_events_series(nights):
    """Two UTC days at 60 s on a flat 100 W. Night d gets, from 01:10, the
    pulses of nights[d][0] (a rise and a fall each) and then the steps of
    nights[d][1] (a rise each, held until 05:00, when the night ends)."""
    values = np.full(2 * 1440, 100.0)
    for day, (pulses, steps) in enumerate(nights):
        i, night_end = day * 1440 + 70, day * 1440 + 300
        for m in pulses:
            values[i:i + 10] += m
            i += 20
        for m in steps:
            values[i:night_end] += m
            i += 20
    return make_series(values, period=60)


def test_cluster_min_support_filters():
    """cluster_magnitudes keeps every cluster; learn_background keeps those
    with at least BACKGROUND_MIN_SUPPORT night events."""
    assert BACKGROUND_MIN_SUPPORT == 3
    for nights, centers in [
            # 200 W: 3 night events, 600 W: 2, 1000 W: 1, 2000 W: 4
            ([([2000.0, 600.0], [200.0]), ([2000.0, 200.0], [1000.0])],
             [200.0, 2000.0]),
            ([([600.0], [1000.0]), ([], [])], [])]:
        assert learn_background(night_events_series(nights)).tolist() == centers
    clusters = cluster_magnitudes(np.array([100, 101, 99, 700.0]))
    assert [c["center"] for c in clusters] == [100.0, 700.0]
    assert [c["values"].size for c in clusters] == [3, 1]


def cluster_magnitudes_scanned(mags, rel_gap):
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
                for a, b in zip(breaks[:-1], breaks[1:])]
    clusters.sort(key=lambda c: c["center"])
    return clusters


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, 100.0, 109.0, 110.0, 121.0, 1000.0]),
                          st.floats(0, 5000)), max_size=40))
def test_cluster_magnitudes_come_in_ascending_order(mags):
    """Zeros, duplicates and values one gap apart: every value of a cluster
    lies below every value of the next, the centers strictly rise, and the
    clusters are the scan's, unsorted."""
    clusters = cluster_magnitudes(np.array(mags))
    for lo, hi in zip(clusters, clusters[1:]):
        assert lo["values"].max() < hi["values"].min()
        assert lo["center"] < hi["center"]
    reference = cluster_magnitudes_scanned(mags, CLUSTER_GAP_FRAC)
    assert len(clusters) == len(reference)
    for got, want in zip(clusters, reference):
        assert got["center"] == want["center"]
        assert got["indices"].tolist() == want["indices"].tolist()
        assert got["values"].tobytes() == want["values"].tobytes()


def remove_background_per_pair(pairs, centers):
    """Reference: each pair compared with every center on its own."""
    return [p for p in pairs.tolist()
            if not any(abs(p[2] - c) <= CLUSTER_GAP_FRAC * c
                       for c in centers.tolist())]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1, 5000), max_size=4, unique=True),
       st.lists(st.tuples(st.integers(0, 3), st.sampled_from([-1, 0, 1, None]),
                          st.floats(1, 5000)), max_size=30))
def test_remove_background_matches_per_pair_loop(centers, specs):
    """Empty pair lists, empty profiles, and magnitudes exactly at c, at
    c - CLUSTER_GAP_FRAC*c and at c + CLUSTER_GAP_FRAC*c."""
    centers = sorted(centers)
    rows = []
    for k, (which, edge, free) in enumerate(specs):
        if centers and edge is not None:
            c = centers[which % len(centers)]
            free = c + edge * (CLUSTER_GAP_FRAC * c)
        rows.append((10 * k, 10 * k + 5, free))
    pairs, centers = pairs_of(*rows), np.array(centers, dtype=float)
    assert remove_background(pairs, centers).tolist() == \
        remove_background_per_pair(pairs, centers)

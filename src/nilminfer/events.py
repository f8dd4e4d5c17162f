"""Steady-state event detection, edge pairing and background-load removal.

The detector segments the trace into maximal steady states (each sample within
a tolerance of the running state mean) and emits one signed event per
transition whose level change clears the minimum-event threshold. Rising and
falling edges of similar magnitude are then paired into appliance ON
intervals, and magnitudes that recur at night are learned as background loads
and struck from the pair list.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindowError
from .series import PowerSeries, local_clock_hours

HVAC_MIN_W = 1000.0  # a pair cluster centered at or above this is HVAC
CLUSTER_GAP_FRAC = 0.1  # magnitude cluster gap, and background match tolerance
BACKGROUND_MIN_SUPPORT = 3  # night events a background cluster needs


@dataclass(frozen=True)
class Event:
    """Signed step change between adjacent steady states."""
    time: int
    delta_w: float
    pre_level_w: float


@dataclass(frozen=True)
class EventPair:
    """Matched rising/falling edge pair: one appliance ON interval."""
    on_time: int
    off_time: int
    magnitude_w: float

    def __post_init__(self):
        if self.off_time <= self.on_time:
            raise ValueError("off_time must be after on_time")
        if self.magnitude_w <= 0:
            raise ValueError("magnitude_w must be positive")

    @property
    def duration_s(self) -> int:
        return self.off_time - self.on_time


@dataclass(frozen=True)
class BackgroundProfile:
    """Recurring night-time event magnitudes treated as background loads."""
    cluster_centers_w: tuple
    match_tol_frac: float = CLUSTER_GAP_FRAC

    def __post_init__(self):
        centers = tuple(float(c) for c in self.cluster_centers_w)
        if any(c <= 0 for c in centers):
            raise ValueError("cluster centers must be positive")
        if list(centers) != sorted(centers):
            raise ValueError("cluster centers must be sorted ascending")
        object.__setattr__(self, "cluster_centers_w", centers)


@dataclass
class DetectorConfig:
    """Thresholds for detecting and pairing events; clustering uses the module
    constants. Defaults follow common practice for 1 Hz-to-1/60 Hz residential
    data: 15 W steady tolerance, 70 W minimum event."""
    steady_tol_w: float = 15.0
    min_event_w: float = 70.0
    match_tol_frac: float = 0.2
    max_duration_s: float = 7200.0


def detect_events(s: PowerSeries,
                  steady_tol_w: float = DetectorConfig.steady_tol_w,
                  min_event_w: float = DetectorConfig.min_event_w) -> list[Event]:
    """Detect signed step events in a power trace.

    A steady state is a maximal run of samples each within steady_tol_w of the
    running mean of the state so far. Transitions between adjacent states with
    |mean difference| >= min_event_w become events timed at the first sample
    of the new state.
    """
    if len(s) < 2:
        raise ValueError("need at least 2 samples to detect events")
    if steady_tol_w <= 0:
        raise ValueError("steady_tol_w must be positive")
    if min_event_w < steady_tol_w:
        raise ValueError("min_event_w must be >= steady_tol_w")

    x = s.values.tolist()
    tol = float(steady_tol_w)
    starts = [0]
    means = []
    cur = x[0]
    cnt = 1
    for i in range(1, len(x)):
        d = x[i] - cur
        if -tol <= d <= tol:
            cnt += 1
            cur += d / cnt
        else:
            means.append(cur)
            starts.append(i)
            cur = x[i]
            cnt = 1
    means.append(cur)

    events = []
    t0, p = s.start_time, s.period_s
    for k in range(1, len(means)):
        delta = means[k] - means[k - 1]
        if abs(delta) >= min_event_w:
            events.append(Event(time=t0 + starts[k] * p, delta_w=delta,
                                pre_level_w=means[k - 1]))
    return events


def pair_events(events: list[Event], match_tol_frac: float = 0.2,
                max_duration_s: float = 7200.0) -> list[EventPair]:
    """Greedily pair falling edges to earlier rising edges.

    Scanning in time order, each falling edge matches the earliest unmatched
    rising edge of similar magnitude (|d_on + d_off| <= tol * d_on) within
    max_duration_s. Unmatched events are dropped. Pairs come back sorted by
    on_time. Open rises older than max_duration_s can match no later fall
    and are dropped as the scan passes them, so the state stays bounded.
    """
    times = [e.time for e in events]
    if times != sorted(times):
        raise ValueError("events must be time-ordered")

    open_rises: deque[Event] = deque()
    pairs: list[EventPair] = []
    for e in events:
        while open_rises and e.time - open_rises[0].time > max_duration_s:
            open_rises.popleft()
        if e.delta_w > 0:
            open_rises.append(e)
            continue
        for i, rise in enumerate(open_rises):
            if e.time == rise.time:
                continue
            if abs(rise.delta_w + e.delta_w) <= match_tol_frac * rise.delta_w:
                pairs.append(EventPair(rise.time, e.time, rise.delta_w))
                del open_rises[i]
                break
    pairs.sort(key=lambda pr: (pr.on_time, pr.off_time))
    return pairs


def cluster_magnitudes(mags: np.ndarray, rel_gap: float = CLUSTER_GAP_FRAC,
                       min_support: int = 1) -> list[dict]:
    """Single-linkage 1-D clustering with a relative gap criterion.

    Sorted magnitudes split wherever the gap to the previous value exceeds
    rel_gap of it. Returns clusters with >= min_support members, each as
    {"center": median, "indices": member indices, "values": member values},
    in ascending order: each is a run of the sorted magnitudes, split only at
    a gap > 0 (for non-negative magnitudes), so every value of a cluster is
    below every value of the next and the centers strictly rise.
    """
    mags = np.asarray(mags, dtype=float)
    if mags.size == 0:
        return []
    order = np.argsort(mags, kind="stable")
    sorted_vals = mags[order]
    splits = np.flatnonzero(np.diff(sorted_vals) > rel_gap * sorted_vals[:-1]) + 1
    bounds = [0, *splits.tolist(), sorted_vals.size]

    clusters = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a >= min_support:
            clusters.append({
                "center": float(np.median(sorted_vals[a:b])),
                "indices": order[a:b],
                "values": sorted_vals[a:b].copy(),
            })
    return clusters


def learn_background(s: PowerSeries, night_start_hour: float = 1.0,
                     night_end_hour: float = 5.0,
                     steady_tol_w: float = DetectorConfig.steady_tol_w,
                     min_event_w: float = DetectorConfig.min_event_w) -> BackgroundProfile:
    """Learn background-load magnitudes from the night-time trace.

    Events are detected on each contiguous night run; absolute magnitudes are
    clustered (CLUSTER_GAP_FRAC) and the medians of clusters with at least
    BACKGROUND_MIN_SUPPORT members become the profile centers, matched within
    CLUSTER_GAP_FRAC. One-off night usage thus never qualifies.
    """
    hours = local_clock_hours(s.timestamps(), s.timezone)
    night = (hours >= night_start_hour) & (hours < night_end_hour)
    if not night.any():
        raise EmptyWindowError(
            f"series has no samples in the [{night_start_hour}, "
            f"{night_end_hour}) night window")
    # a night run [i, j) starts and ends where the padded mask changes
    edges = np.flatnonzero(np.diff(np.concatenate(([False], night, [False]))))
    mags = []
    for i, j in zip(edges[0::2].tolist(), edges[1::2].tolist()):
        if j - i < 2:
            continue
        for e in detect_events(s.slice(i, j), steady_tol_w, min_event_w):
            mags.append(abs(e.delta_w))
    clusters = cluster_magnitudes(np.array(mags), CLUSTER_GAP_FRAC,
                                  BACKGROUND_MIN_SUPPORT)
    return BackgroundProfile(cluster_centers_w=tuple(c["center"] for c in clusters),
                             match_tol_frac=CLUSTER_GAP_FRAC)


def remove_background(pairs: list[EventPair],
                      profile: BackgroundProfile) -> list[EventPair]:
    """Drop pairs whose magnitude matches any background cluster center within
    the profile tolerance; everything else passes through in order."""
    centers = np.array(profile.cluster_centers_w)
    mags = np.array([p.magnitude_w for p in pairs])
    struck = (np.abs(mags[:, None] - centers)
              <= profile.match_tol_frac * centers).any(axis=1)
    return [p for p, gone in zip(pairs, struck.tolist()) if not gone]

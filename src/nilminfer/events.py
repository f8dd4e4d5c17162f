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
    match_tol_frac: float = 0.1

    def __post_init__(self):
        centers = tuple(float(c) for c in self.cluster_centers_w)
        if any(c <= 0 for c in centers):
            raise ValueError("cluster centers must be positive")
        if list(centers) != sorted(centers):
            raise ValueError("cluster centers must be sorted ascending")
        object.__setattr__(self, "cluster_centers_w", centers)


@dataclass
class DetectorConfig:
    """Thresholds for the event pipeline. Defaults follow common practice for
    1 Hz-to-1/60 Hz residential data: 15 W steady tolerance, 70 W minimum
    event."""
    steady_tol_w: float = 15.0
    min_event_w: float = 70.0
    match_tol_frac: float = 0.2
    max_duration_s: float = 7200.0
    background_cluster_tol: float = 0.1
    background_min_support: int = 3


def detect_events(s: PowerSeries, steady_tol_w: float = 15.0,
                  min_event_w: float = 70.0) -> list[Event]:
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


def cluster_magnitudes(mags: np.ndarray, rel_gap: float = 0.1,
                       min_support: int = 1) -> list[dict]:
    """Single-linkage 1-D clustering with a relative gap criterion.

    Sorted magnitudes split wherever the gap to the previous value exceeds
    rel_gap of it. Returns clusters with >= min_support members, each as
    {"center": median, "indices": member indices, "values": member values},
    sorted by center.
    """
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

    clusters = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a < min_support:
            continue
        clusters.append({
            "center": float(np.median(sorted_vals[a:b])),
            "indices": order[a:b],
            "values": sorted_vals[a:b].copy(),
        })
    clusters.sort(key=lambda c: c["center"])
    return clusters


def night_runs(s: PowerSeries, night_start_hour: float,
               night_end_hour: float) -> list[tuple[int, int]]:
    """Index ranges [i, j) of contiguous sample runs inside the local night
    window."""
    hours = local_clock_hours(s.timestamps(), s.timezone)
    mask = (hours >= night_start_hour) & (hours < night_end_hour)
    if not mask.any():
        return []
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return [(int(edges[k]), int(edges[k + 1])) for k in range(0, edges.size, 2)]


def learn_background(s: PowerSeries, night_start_hour: float = 1.0,
                     night_end_hour: float = 5.0,
                     steady_tol_w: float = 15.0, min_event_w: float = 70.0,
                     cluster_tol_frac: float = 0.1,
                     min_support: int = 3) -> BackgroundProfile:
    """Learn background-load magnitudes from the night-time trace.

    Events are detected on each contiguous night run; absolute magnitudes are
    clustered and the medians of clusters with at least min_support members
    become the profile centers. One-off night usage thus never qualifies.
    """
    runs = night_runs(s, night_start_hour, night_end_hour)
    if not runs:
        raise EmptyWindowError(
            f"series has no samples in the [{night_start_hour}, "
            f"{night_end_hour}) night window")
    mags = []
    for i, j in runs:
        if j - i < 2:
            continue
        for e in detect_events(s.slice(i, j), steady_tol_w, min_event_w):
            mags.append(abs(e.delta_w))
    clusters = cluster_magnitudes(np.array(mags), cluster_tol_frac, min_support)
    centers = tuple(c["center"] for c in clusters)
    return BackgroundProfile(cluster_centers_w=centers,
                             match_tol_frac=cluster_tol_frac)


def remove_background(pairs: list[EventPair],
                      profile: BackgroundProfile) -> list[EventPair]:
    """Drop pairs whose magnitude matches any background cluster center within
    the profile tolerance; everything else passes through in order."""
    if not profile.cluster_centers_w:
        return list(pairs)
    centers = np.array(profile.cluster_centers_w)
    tol = profile.match_tol_frac
    kept = []
    for p in pairs:
        if not np.any(np.abs(p.magnitude_w - centers) <= tol * centers):
            kept.append(p)
    return kept


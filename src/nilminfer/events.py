"""Steady-state event detection, edge pairing and background-load removal.

The detector segments the trace into maximal steady states (each sample within
a tolerance of the running state mean) and emits one signed event per
transition whose level change clears the minimum-event threshold. Rising and
falling edges of similar magnitude are then paired into appliance ON
intervals, and magnitudes that recur at night are learned as background loads
and struck from the pair list.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindowError
from .series import PowerSeries, in_clock_hours, median

HVAC_MIN_W = 1000.0  # a pair cluster centered at or above this is HVAC
CLUSTER_GAP_FRAC = 0.1  # magnitude cluster gap, and background match tolerance
BACKGROUND_MIN_SUPPORT = 3  # night events a background cluster needs
NIGHT_HOURS = (1, 5)  # local [start, end) hours background loads are learned in
PAIR_TOL_FRAC = 0.2  # a fall pairs a rise within this fraction of its magnitude
MAX_PAIR_S = 7200  # no ON interval is longer


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

    def __post_init__(self):
        centers = tuple(float(c) for c in self.cluster_centers_w)
        if any(c <= 0 for c in centers):
            raise ValueError("cluster centers must be positive")
        if list(centers) != sorted(centers):
            raise ValueError("cluster centers must be sorted ascending")
        object.__setattr__(self, "cluster_centers_w", centers)


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds for detecting events, checked once here:
    0 < steady_tol_w <= min_event_w < inf. Pairing and clustering use the
    module constants. Defaults follow common practice for 1 Hz-to-1/60 Hz
    residential data: 15 W steady tolerance, 70 W minimum event."""
    steady_tol_w: float = 15.0
    min_event_w: float = 70.0

    def __post_init__(self):
        if not 0 < self.steady_tol_w <= self.min_event_w < math.inf:
            raise ValueError(
                f"need 0 < steady_tol_w <= min_event_w < inf, got "
                f"{self.steady_tol_w} and {self.min_event_w}")


def detect_events(s: PowerSeries, det: DetectorConfig = DetectorConfig()) -> list[Event]:
    """Detect signed step events in a power trace.

    A steady state is a maximal run of samples each within det.steady_tol_w
    of the running mean of the state so far. Transitions between adjacent
    states with |mean difference| >= det.min_event_w become events timed at
    the first sample of the new state.
    """
    if len(s) < 2:
        raise ValueError("need at least 2 samples to detect events")

    x = s.values.tolist()
    tol = float(det.steady_tol_w)
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
        if abs(delta) >= det.min_event_w:
            events.append(Event(time=t0 + starts[k] * p, delta_w=delta,
                                pre_level_w=means[k - 1]))
    return events


def pair_events(events: list[Event]) -> list[EventPair]:
    """Greedily pair falling edges to earlier rising edges.

    Scanning in time order, each falling edge matches the earliest unmatched
    rising edge of similar magnitude (|d_on + d_off| <= PAIR_TOL_FRAC * d_on)
    within MAX_PAIR_S. Unmatched events are dropped. Pairs come back sorted
    by on_time. Open rises older than MAX_PAIR_S can match no later fall and
    are dropped as the scan passes them, so the state stays bounded.
    """
    times = [e.time for e in events]
    if times != sorted(times):
        raise ValueError("events must be time-ordered")

    open_rises: deque[Event] = deque()
    pairs: list[EventPair] = []
    for e in events:
        while open_rises and e.time - open_rises[0].time > MAX_PAIR_S:
            open_rises.popleft()
        if e.delta_w > 0:
            open_rises.append(e)
            continue
        for i, rise in enumerate(open_rises):
            if e.time == rise.time:
                continue
            if abs(rise.delta_w + e.delta_w) <= PAIR_TOL_FRAC * rise.delta_w:
                pairs.append(EventPair(rise.time, e.time, rise.delta_w))
                del open_rises[i]
                break
    pairs.sort(key=lambda pr: (pr.on_time, pr.off_time))
    return pairs


def cluster_magnitudes(mags: np.ndarray) -> list[dict]:
    """Single-linkage 1-D clustering with a relative gap criterion.

    Sorted magnitudes split wherever the gap to the previous value exceeds
    CLUSTER_GAP_FRAC of it. Returns every cluster, each as {"center":
    median, "indices": member indices, "values": member values}, in
    ascending order: each is a run of the sorted magnitudes, split
    only at a gap > 0 (for non-negative magnitudes), so every value of a
    cluster is below every value of the next and the centers strictly rise.
    """
    mags = np.asarray(mags, dtype=float)
    if mags.size == 0:
        return []
    order = np.argsort(mags, kind="stable")
    sorted_vals = mags[order]
    gaps = np.diff(sorted_vals)
    splits = np.flatnonzero(gaps > CLUSTER_GAP_FRAC * sorted_vals[:-1]) + 1
    bounds = [0, *splits.tolist(), sorted_vals.size]

    return [{"center": float(median(sorted_vals[a:b])),
             "indices": order[a:b], "values": sorted_vals[a:b].copy()}
            for a, b in zip(bounds[:-1], bounds[1:])]


def learn_background(s: PowerSeries,
                     det: DetectorConfig = DetectorConfig()) -> BackgroundProfile:
    """Learn background-load magnitudes from the night-time trace.

    Events are detected on each contiguous run of NIGHT_HOURS; absolute
    magnitudes are clustered (CLUSTER_GAP_FRAC) and the medians of clusters
    with at least BACKGROUND_MIN_SUPPORT members become the profile centers,
    matched within CLUSTER_GAP_FRAC. One-off night usage thus never qualifies.
    """
    night = in_clock_hours(s.timestamps(), s.timezone, NIGHT_HOURS)
    if not night.any():
        raise EmptyWindowError(
            f"series has no samples in the [{NIGHT_HOURS[0]}, "
            f"{NIGHT_HOURS[1]}) night window")
    # a night run [i, j) starts and ends where the padded mask changes
    edges = np.flatnonzero(np.diff(np.concatenate(([False], night, [False]))))
    mags = []
    for i, j in zip(edges[0::2].tolist(), edges[1::2].tolist()):
        if j - i < 2:
            continue
        for e in detect_events(s.slice(i, j), det):
            mags.append(abs(e.delta_w))
    return BackgroundProfile(tuple(
        c["center"] for c in cluster_magnitudes(np.array(mags))
        if c["values"].size >= BACKGROUND_MIN_SUPPORT))


def remove_background(pairs: list[EventPair],
                      profile: BackgroundProfile) -> list[EventPair]:
    """Drop pairs whose magnitude matches any background cluster center within
    CLUSTER_GAP_FRAC of it; everything else passes through in order."""
    centers = np.array(profile.cluster_centers_w)
    mags = np.array([p.magnitude_w for p in pairs])
    struck = (np.abs(mags[:, None] - centers)
              <= CLUSTER_GAP_FRAC * centers).any(axis=1)
    return [p for p, gone in zip(pairs, struck.tolist()) if not gone]

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


# One record per event: its time and the signed step between the means of
# the steady states either side. One record per pair: an ON interval and the
# rise's magnitude (> 0, off_time > on_time).
EVENT_DTYPE = np.dtype([("time", np.int64), ("delta_w", np.float64)])
PAIR_DTYPE = np.dtype([("on_time", np.int64), ("off_time", np.int64),
                       ("magnitude_w", np.float64)])


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


def detect_events(s: PowerSeries, det: DetectorConfig = DetectorConfig()) -> np.ndarray:
    """Detect signed step events in a power trace, as EVENT_DTYPE records.

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

    delta = np.diff(means)
    keep = np.abs(delta) >= det.min_event_w
    events = np.empty(int(keep.sum()), EVENT_DTYPE)
    events["time"] = s.start_time + np.array(starts)[1:][keep] * s.period_s
    events["delta_w"] = delta[keep]
    return events


def pair_events(events: np.ndarray) -> np.ndarray:
    """Greedily pair falling edges to earlier rising edges: EVENT_DTYPE
    records in, PAIR_DTYPE records out.

    Scanning in time order, each falling edge matches the earliest unmatched
    rising edge of similar magnitude (|d_on + d_off| <= PAIR_TOL_FRAC * d_on)
    within MAX_PAIR_S. Unmatched events are dropped. Pairs come back sorted
    by on_time. Open rises older than MAX_PAIR_S can match no later fall and
    are dropped as the scan passes them, so the state stays bounded.
    """
    if np.any(np.diff(events["time"]) < 0):
        raise ValueError("events must be time-ordered")

    open_rises, pairs = deque(), []  # (time, delta) and (on, off, magnitude)
    for t, d in events.tolist():
        while open_rises and t - open_rises[0][0] > MAX_PAIR_S:
            open_rises.popleft()
        if d > 0:
            open_rises.append((t, d))
            continue
        for i, (on, rise) in enumerate(open_rises):
            if t == on:
                continue
            if abs(rise + d) <= PAIR_TOL_FRAC * rise:
                pairs.append((on, t, rise))
                del open_rises[i]
                break
    pairs.sort(key=lambda pr: pr[:2])
    return np.array(pairs, dtype=PAIR_DTYPE)


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
                     det: DetectorConfig = DetectorConfig()) -> np.ndarray:
    """Learn background-load magnitudes from the night-time trace.

    Events are detected on each contiguous run of NIGHT_HOURS; absolute
    magnitudes are clustered (CLUSTER_GAP_FRAC) and the medians of clusters
    with at least BACKGROUND_MIN_SUPPORT members, in ascending order, are
    the background centers, matched within CLUSTER_GAP_FRAC. One-off night
    usage thus never qualifies.
    """
    night = in_clock_hours(s.timestamps(), s.timezone, NIGHT_HOURS)
    if not night.any():
        raise EmptyWindowError(
            f"series has no samples in the [{NIGHT_HOURS[0]}, "
            f"{NIGHT_HOURS[1]}) night window")
    # a night run [i, j) starts and ends where the padded mask changes
    edges = np.flatnonzero(np.diff(np.concatenate(([False], night, [False]))))
    deltas = [detect_events(s.slice(i, j), det)["delta_w"]
              for i, j in zip(edges[0::2].tolist(), edges[1::2].tolist())
              if j - i >= 2]
    clusters = cluster_magnitudes(np.abs(np.concatenate([[], *deltas])))
    return np.array([c["center"] for c in clusters
                     if c["values"].size >= BACKGROUND_MIN_SUPPORT])


def remove_background(pairs: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Drop pairs whose magnitude matches any background center within
    CLUSTER_GAP_FRAC of it; everything else passes through in order."""
    struck = (np.abs(pairs["magnitude_w"][:, None] - centers)
              <= CLUSTER_GAP_FRAC * centers).any(axis=1)
    return pairs[~struck]

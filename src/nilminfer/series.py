"""Time-series data model: uniform power traces, ingestion, local
clock-window arithmetic and dataset manifests.

All power values are active power in watts on a uniform grid. Timestamps are
UTC epoch seconds; anything calendar-related (night windows, weekdays, day
boundaries) is computed in the series' IANA timezone.
"""
from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone as _utc_tz
from functools import cached_property
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

from .errors import (AlignmentError, ConfigurationError, CoverageError,
                     EmptyWindowError, GapError, ManifestError, ParseError)

SECONDS_PER_DAY = 86400
WINDOW_S = 900  # occupancy window width; divides the day
MAX_GAP_PERIODS = 10  # longest run of missing samples ingest forward-fills


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Uniformly sampled active-power trace.

    values are stored as a read-only float array; they must be finite and
    non-negative (ingestion clamps metering artifacts before construction).
    """

    start_time: int
    period_s: int
    values: np.ndarray
    timezone: str = "UTC"
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if int(self.period_s) <= 0:
            raise ValueError("period_s must be a positive integer")
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("values must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must be finite")
        if np.any(arr < 0):
            raise ValueError("values must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "start_time", int(self.start_time))
        object.__setattr__(self, "period_s", int(self.period_s))
        ZoneInfo(self.timezone)  # fail fast on unknown zone names

    def __len__(self):
        return int(self.values.size)

    @property
    def end_time(self) -> int:
        """Time one period past the last sample (half-open span)."""
        return self.start_time + len(self) * self.period_s

    @property
    def span_s(self) -> int:
        return len(self) * self.period_s

    def timestamps(self) -> np.ndarray:
        return self.start_time + np.arange(len(self), dtype=np.int64) * self.period_s

    def slice(self, i: int, j: int) -> "PowerSeries":
        """Sub-series over sample index range [i, j)."""
        if not 0 <= i < j <= len(self):
            raise ValueError(f"bad slice [{i}, {j}) for length {len(self)}")
        return PowerSeries(self.start_time + i * self.period_s, self.period_s,
                           self.values[i:j], self.timezone)


def check_same_axis(s: PowerSeries, ref: PowerSeries, name: str, ref_name: str,
                    path: str | None = None) -> None:
    """The one time-axis rule for a pair of series: AlignmentError unless s
    has ref's (start, period, samples)."""
    axes = [(x.start_time, x.period_s, len(x)) for x in (s, ref)]
    if axes[0] != axes[1]:
        raise AlignmentError(f"{name}: (start, period, samples) {axes[0]} is "
                             f"not the {ref_name}'s {axes[1]}", path=path)


# ---------------------------------------------------------------------------
# Local-clock helpers
# ---------------------------------------------------------------------------

def _offset_at(t: int, tz: ZoneInfo) -> int:
    return int(datetime.fromtimestamp(t, tz).utcoffset().total_seconds())


def utc_offsets(ts: np.ndarray, tzname: str) -> np.ndarray:
    """Per-timestamp UTC offset in seconds.

    Timestamps must be ascending. Offsets are resolved chunk-wise (6 h chunks)
    so DST transitions are honored without a per-sample datetime conversion.
    """
    tz = ZoneInfo(tzname)
    ts = np.asarray(ts, dtype=np.int64)
    out = np.empty(ts.size, dtype=np.int64)
    i = 0
    while i < ts.size:
        j = int(np.searchsorted(ts, ts[i] + 6 * 3600, side="left"))
        j = max(j, i + 1)
        o0 = _offset_at(int(ts[i]), tz)
        o1 = _offset_at(int(ts[j - 1]), tz)
        if o0 == o1:
            out[i:j] = o0
        else:
            for k in range(i, j):
                out[k] = _offset_at(int(ts[k]), tz)
        i = j
    return out


def local_clock_hours(ts: np.ndarray, tzname: str) -> np.ndarray:
    """Fractional local clock hour in [0, 24) of each timestamp."""
    off = utc_offsets(ts, tzname)
    return ((np.asarray(ts, dtype=np.int64) + off) % SECONDS_PER_DAY) / 3600.0


def local_weekdays(ts: np.ndarray, tzname: str) -> np.ndarray:
    """Local day of week, Monday=0, of each timestamp."""
    off = utc_offsets(ts, tzname)
    return ((np.asarray(ts, dtype=np.int64) + off) // SECONDS_PER_DAY + 3) % 7


def local_midnight_before(t: int, tzname: str) -> int:
    """Epoch of the local midnight at or before t."""
    tz = ZoneInfo(tzname)
    d = datetime.fromtimestamp(int(t), tz).date()
    return int(datetime(d.year, d.month, d.day, tzinfo=tz).timestamp())


def local_day_bounds(s: PowerSeries) -> list[tuple[int, int]]:
    """Half-open [day_start, day_end) epochs of every local day the series
    touches. DST days come out 23 or 25 hours long, as the zone dictates."""
    tz = ZoneInfo(s.timezone)
    d = datetime.fromtimestamp(s.start_time, tz).date()
    out = []
    while True:
        ds = int(datetime(d.year, d.month, d.day, tzinfo=tz).timestamp())
        nd = d + timedelta(days=1)
        de = int(datetime(nd.year, nd.month, nd.day, tzinfo=tz).timestamp())
        out.append((ds, de))
        if de >= s.end_time:
            break
        d = nd
    return out


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def clock_window_mean(s: PowerSeries, start_hour: float, end_hour: float) -> float:
    """Mean power over samples whose local clock time falls in
    [start_hour, end_hour), pooled across all covered days."""
    if not 0 <= start_hour < end_hour <= 24:
        raise ValueError("need 0 <= start_hour < end_hour <= 24")
    hours = local_clock_hours(s.timestamps(), s.timezone)
    mask = (hours >= start_hour) & (hours < end_hour)
    if not mask.any():
        raise EmptyWindowError(
            f"no samples in local window [{start_hour}, {end_hour})")
    return float(s.values[mask].mean())


def load_power_csv(path, *, timezone: str = "UTC") -> PowerSeries:
    """Ingest a `timestamp,power_w` CSV onto a uniform grid.

    Duplicate timestamps collapse to their mean. The period is the
    smallest spacing between the remaining timestamps when every spacing is
    a multiple of it, so a recording that lost many readings is still read
    at its own period; otherwise it is the most common spacing, and a
    timestamp off that grid raises ParseError. Negative readings are
    clamped to 0 and counted in the returned series' meta; gaps of at most
    MAX_GAP_PERIODS missing samples are then forward-filled and counted, and
    longer gaps raise GapError (interpolating across a long outage would
    fabricate downstream evidence).
    """
    path = Path(path)
    ts, vals = _read_csv(path, "power_w", _parse_reading)

    if (ts[1:] == ts[:-1]).any():  # ts is sorted, so a duplicate is adjacent
        ts, inverse, counts = np.unique(ts, return_inverse=True, return_counts=True)
        sums = np.zeros(ts.size)
        np.add.at(sums, inverse, vals)
        vals = sums / counts

    period_s = _infer_period(ts)

    rel = ts - ts[0]
    if np.any(rel % period_s != 0):
        bad = int(ts[np.nonzero(rel % period_s)[0][0]])
        raise ParseError(f"{path}: timestamp {bad} is off the {period_s}s grid",
                         path=str(path))

    n_clamped = int((vals < 0).sum())
    if n_clamped:
        warnings.warn(f"{path}: clamped {n_clamped} negative power readings to 0",
                      stacklevel=2)
        vals = np.maximum(vals, 0.0)

    pos = rel // period_s
    n = int(pos[-1]) + 1
    grid = np.full(n, np.nan)
    grid[pos] = vals

    n_filled = 0
    missing = np.isnan(grid)
    if missing.any():
        idx = np.flatnonzero(missing)
        # split into consecutive runs and forward-fill short ones
        run_starts = idx[np.flatnonzero(np.concatenate(([True], np.diff(idx) > 1)))]
        run_ends = idx[np.flatnonzero(np.concatenate((np.diff(idx) > 1, [True])))]
        for a, b in zip(run_starts, run_ends):
            run_len = int(b - a + 1)
            if run_len > MAX_GAP_PERIODS:
                t_a = int(ts[0] + a * period_s)
                t_b = int(ts[0] + b * period_s)
                raise GapError(
                    f"{path}: {run_len} consecutive samples missing between "
                    f"{t_a} and {t_b} (max {MAX_GAP_PERIODS})", path=str(path))
            grid[a:b + 1] = grid[a - 1]
            n_filled += run_len

    return PowerSeries(int(ts[0]), period_s, grid, timezone,
                       meta={"source": str(path), "n_gap_filled": n_filled,
                             "n_negative_clamped": n_clamped})


def write_power_csv(s: PowerSeries, path) -> None:
    """Write the `timestamp,power_w` CSV form. Floats use repr so a
    write -> load -> write cycle is byte-identical. A series with at most
    half as many runs of equal bits (0.0 is not -0.0) as rows, such as a
    decoded trace, is written a run at a time; noisy readings row by row."""
    bits = s.values.view(np.int64)
    changes = bits[1:] != bits[:-1]
    t0, per = s.start_time, s.period_s
    with open(path, "w", newline="") as f:
        f.write("timestamp,power_w\n")
        if 2 * (np.count_nonzero(changes) + 1) <= len(s):
            starts = [0, *(np.flatnonzero(changes) + 1).tolist()]
            for a, b, v in zip(starts, starts[1:] + [len(s)],
                               s.values[starts].tolist()):
                tail = f",{v!r}\n"
                f.write(tail.join(map(str, range(t0 + a * per, t0 + b * per, per))))
                f.write(tail)
        else:
            t = t0
            for v in s.values.tolist():
                f.write(f"{t},{v!r}\n")
                t += per


def _parse_timestamp(text: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    iso = text.replace("Z", "+00:00")
    dt = datetime.fromisoformat(iso)
    if dt.tzinfo is None:
        return int(dt.replace(tzinfo=_utc_tz.utc).timestamp())
    # fromisoformat reads +05:99 as +06:39; the offset follows the last sign
    offset = iso[max(iso.rfind("+"), iso.rfind("-")) + 1:].replace(":", "")
    if offset[2:4] > "59" or offset[4:6] > "59":
        raise ValueError(f"offset field over 59 in {text!r}")
    return int(dt.timestamp())


def _parse_reading(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite reading {text.strip()!r}")
    return value


def _parse_flag(text: str) -> bool:
    flag = int(text)
    if flag not in (0, 1):
        raise ValueError("occupied must be 0 or 1")
    return bool(flag)


def _read_csv(path: Path, value_col: str, parse_value) -> tuple[np.ndarray, np.ndarray]:
    """The one reader behind every CSV loader.

    Finds `timestamp` and value_col by header name, skips blank rows, parses
    each timestamp (epoch or ISO-8601) and each value, and returns both as
    arrays stably sorted by time. A file `_read_csv_arrays` can vouch for
    (stamps all epoch, or all `YYYY-MM-DDTHH:MM:SS±HH:MM`) is parsed a whole
    column at a time; every other file goes through the row loop
    `_read_csv_rows`, the grammar of record and the only source of a
    ParseError, so both give the same arrays.
    """
    arrays = _read_csv_arrays(path, value_col, parse_value)
    return arrays if arrays is not None else _read_csv_rows(path, value_col, parse_value)


def _read_csv_rows(path: Path, value_col: str, parse_value) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row `_read_csv` of UTF-8 text. Any bad input is a ParseError
    naming the file and, for a bad row or byte, its 1-based line."""
    ts, vals = [], []
    try:
        with open(path, "r", newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file", line=1, path=str(path))
            header = [h.strip() for h in header]
            try:
                t_idx = header.index("timestamp")
                v_idx = header.index(value_col)
            except ValueError:
                raise ParseError(
                    f"{path}: header must contain 'timestamp' and '{value_col}', "
                    f"got {header}", line=1, path=str(path)) from None
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                try:
                    t = _parse_timestamp(row[t_idx])
                    v = parse_value(row[v_idx])
                except (ValueError, IndexError) as exc:
                    line = reader.line_num  # a quoted field may span lines
                    raise ParseError(f"{path}:{line}: malformed row {row!r} "
                                     f"({exc})", line=line, path=str(path)) from exc
                ts.append(t)
                vals.append(v)
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}",
                         line=reader.line_num, path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raw = path.read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:  # exc counts bytes from its chunk
            exc = whole
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: not UTF-8 text ({exc.reason})",
                         line=line, path=str(path)) from exc
    if not ts:
        raise ParseError(f"{path}: no data rows", line=2, path=str(path))
    return _by_time(np.array(ts, dtype=np.int64), np.array(vals))


def _by_time(ts: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(ts, kind="stable")
    return ts[order], vals[order]


# loadtxt dtype, the per-value test and the result dtype of each value parser
_COLUMN_PARSERS = {_parse_reading: (np.float64, np.isfinite, np.float64),
                   _parse_flag: (np.int64, lambda v: (v == 0) | (v == 1), bool)}

_ISO_DTYPE = "S26"  # one byte past the offset form, so a longer stamp shows


def _iso_epochs(stamps: np.ndarray) -> np.ndarray:
    """Epoch seconds of `_ISO_DTYPE` stamps `YYYY-MM-DDTHH:MM:SS±HH:MM`, the
    form of `datetime.isoformat()`. ValueError unless every stamp has that
    form, with fields that `datetime.fromisoformat` accepts."""
    parts = stamps.view([("head", "S19"), ("tail", "S7")])  # a view, not a copy
    head, tail = parts["head"], parts["tail"].copy()
    t = tail[:, None].view(np.uint8)
    negative = t[:, 0] == ord("-")
    t[negative, 0] = ord("+")  # so one template fits both signs
    # "0" is any digit (uint8 wraps below "0"); the NUL shows a longer stamp
    for got, want in zip([*head[:, None].view(np.uint8).T, *t.T],
                         b"0000-00-00T00:00:00+00:00\0"):
        if not (got - np.uint8(ord("0")) <= 9 if want == ord("0") else got == want).all():
            raise ValueError("timestamp not in the fixed ISO form")
    # numpy checks month, day of month, hour, minute and second, not year 0
    epochs = head.astype("datetime64[s]").view(np.int64)
    hours, minutes = (10 * t[:, i].astype(np.int64) + t[:, i + 1] - 11 * ord("0")
                      for i in (1, 4))
    if (head < b"0001").any() or (hours > 23).any() or (minutes > 59).any():
        raise ValueError("ISO timestamp field out of range")
    offset = hours * 3600 + minutes * 60
    offset[negative] *= -1
    epochs -= offset
    return epochs


def _plain_columns(path: Path, value_col: str) -> tuple[int, int, bool] | None:
    """Indices of `timestamp` and value_col, and whether the first data
    line's stamp has a ":" (the ISO form; an epoch stamp has none), when a
    split of each line on "," gives the rows `csv.reader` gives, else None."""
    raw = path.read_bytes()
    # Quotes, a CR outside CRLF, and NUL before Python 3.11 are where csv's
    # rows differ from lines split on ","; non-ASCII bytes are where decoding
    # could. loadtxt itself refuses a change in column count.
    if (not raw.isascii() or b'"' in raw or b"\0" in raw
            or b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n")):
        return None
    # csv also refuses a field longer than its limit; no line is that long.
    # From each line start, the last newline within the limit is the next
    # line start to check, so no array the size of the file is built.
    start, limit = 0, csv.field_size_limit()
    while len(raw) - start >= limit:
        newline = raw.rfind(b"\n", start, start + limit)
        if newline < 0:
            return None
        start = newline + 1
    second = raw.find(b"\n", raw.find(b"\n") + 1)
    header, first = (raw[:second] if second >= 0 else raw + b"\n").split(b"\n")[:2]
    header = [h.strip() for h in header.decode().split(",")]
    if "timestamp" not in header or value_col not in header:
        return None
    t_idx = header.index("timestamp")
    stamp = b"".join(first.split(b",")[t_idx:t_idx + 1])
    return t_idx, header.index(value_col), b":" in stamp


def _read_csv_arrays(path: Path, value_col: str, parse_value):
    """`_read_csv` by `np.loadtxt`, for files whose stamps are all epoch
    integers or all in the fixed ISO form of `_iso_epochs`. None for any file
    it cannot vouch reads as `_read_csv_rows` would read it."""
    # loadtxt reads the file again: holding its bytes meanwhile costs peak RSS
    columns = _plain_columns(path, value_col)
    if columns is None:
        return None
    # the first stamp picks the one form tried; any other file is the row loop's
    stamp_dtype, epochs = (_ISO_DTYPE, _iso_epochs) if columns[2] else (np.int64, np.asarray)
    value_dtype, valid, result_dtype = _COLUMN_PARSERS[parse_value]
    try:
        with open(path, "rb") as f, warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. a header-only file
            cols = np.loadtxt(
                f, dtype=[("t", stamp_dtype), ("v", value_dtype)],
                delimiter=",", comments=None, quotechar=None, skiprows=1,
                usecols=columns[:2], ndmin=1, encoding="ascii")
        ts = epochs(cols["t"])
    except (ValueError, Warning):
        return None
    vals = cols["v"]
    if not valid(vals).all():
        return None
    return _by_time(ts, vals.astype(result_dtype, copy=False))


def _infer_period(ts: np.ndarray) -> int:
    """The smallest spacing of the sorted, distinct ts when every spacing is
    a multiple of it (missing samples), else the most common spacing, ties
    to the smallest (jitter, which the grid check then refuses)."""
    if ts.size < 2:
        return 1
    uniq, counts = np.unique(np.diff(ts), return_counts=True)
    if np.all(uniq % uniq[0] == 0):
        return int(uniq[0])
    return int(uniq[np.argmax(counts)])


# ---------------------------------------------------------------------------
# Occupancy series
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OccupancySeries:
    """Boolean occupancy per WINDOW_S window.

    Carries the timezone so evaluation can restrict itself to local clock
    hours without outside context.
    """

    window_start: int
    flags: np.ndarray
    timezone: str = "UTC"

    def __post_init__(self):
        arr = np.array(self.flags, dtype=bool)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("flags must be a non-empty 1-D sequence")
        arr.setflags(write=False)
        object.__setattr__(self, "flags", arr)
        object.__setattr__(self, "window_start", int(self.window_start))
        ZoneInfo(self.timezone)

    def __len__(self):
        return int(self.flags.size)

    @property
    def end_time(self) -> int:
        return self.window_start + len(self) * WINDOW_S

    def window_starts(self) -> np.ndarray:
        return self.window_start + np.arange(len(self), dtype=np.int64) * WINDOW_S


def load_occupancy_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read the `timestamp` and `occupied` columns. Returns (timestamps, bool
    flags), sorted by time. Sampling rate is arbitrary; window downstream."""
    return _read_csv(Path(path), "occupied", _parse_flag)


def window_grid(s: PowerSeries) -> tuple[int, int]:
    """(anchor, n_windows) of the one occupancy window grid: WINDOW_S windows
    from the local midnight at or before the series' start, covering it."""
    anchor = local_midnight_before(s.start_time, s.timezone)
    n_windows = -(-(s.end_time - anchor) // WINDOW_S)
    return anchor, int(n_windows)


def window_occupancy(s: PowerSeries, ts: np.ndarray,
                     occupied: np.ndarray) -> OccupancySeries:
    """Occupancy samples (ts, occupied) on s's window grid: a window is
    occupied if any sample in it is. The result spans the windows from the
    one holding the first on-grid sample to the one holding the last; if no
    sample falls on the grid, CoverageError."""
    anchor, n_windows = window_grid(s)
    idx = (np.asarray(ts, dtype=np.int64) - anchor) // WINDOW_S
    on_grid = (idx >= 0) & (idx < n_windows)
    if not on_grid.any():
        raise CoverageError("no occupancy sample falls on the series' windows")
    first, last = int(idx[on_grid].min()), int(idx[on_grid].max())
    flags = np.zeros(last - first + 1, dtype=bool)
    flags[idx[on_grid & np.asarray(occupied, dtype=bool)] - first] = True
    return OccupancySeries(anchor + first * WINDOW_S, flags, s.timezone)


def write_occupancy_csv(ts: np.ndarray, occupied: np.ndarray, path) -> None:
    with open(path, "w", newline="") as f:
        f.write("timestamp,occupied\n")
        for t, o in zip(np.asarray(ts).tolist(), np.asarray(occupied).tolist()):
            f.write(f"{t},{1 if o else 0}\n")


# ---------------------------------------------------------------------------
# Dataset manifest
# ---------------------------------------------------------------------------

@dataclass
class HomeEntry:
    home_id: str
    aggregate_path: str
    appliance_paths: dict = field(default_factory=dict)
    occupancy_path: str | None = None
    timezone: str = "UTC"
    characteristics: dict = field(default_factory=dict)
    hvac_circuits: int | None = None


@dataclass
class DatasetManifest:
    homes: list
    base_dir: Path | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.homes = sorted(self.homes, key=lambda h: h.home_id)
        for a, b in zip(self.homes, self.homes[1:]):
            if a.home_id == b.home_id:
                raise ValueError(f"home {a.home_id}: home_id is not unique")

    def resolve(self, rel_path: str) -> Path:
        p = Path(rel_path)
        if not p.is_absolute() and self.base_dir is not None:
            p = self.base_dir / p
        return p


def load_manifest(path) -> DatasetManifest:
    """Read a manifest and check it once: `meta`, when given, an object, and
    for each home a unique `home_id` that is one plain path component and one
    unquoted CSV field, an `aggregate_path`, paths naming existing files, a
    known timezone, finite characteristics >= 0 and an integer
    `hvac_circuits` >= 0 when given. Any fault is a ManifestError naming the
    manifest and the home."""
    path = Path(path)
    with open(path) as f:
        return _checked_manifest(f, path)


def _checked_manifest(f, path: Path) -> DatasetManifest:
    """The manifest that the JSON text file f, to be found at path,
    describes, by load_manifest's checks; a fault is a ManifestError."""
    try:
        doc = json.load(f)
        homes = doc.get("homes") if isinstance(doc, dict) else None
        if not isinstance(homes, list) or not homes:
            raise ValueError("'homes' must be a non-empty list")
        meta = doc.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError("'meta' must be an object")
        return DatasetManifest([_home_entry(h, i, path.parent)
                                for i, h in enumerate(homes)],
                               path.parent, meta)
    except ValueError as exc:  # json.JSONDecodeError is one
        raise ManifestError(f"{path}: {exc}", path=str(path)) from exc


def _home_entry(h, i: int, base_dir: Path) -> HomeEntry:
    """The i-th home of a manifest; a ValueError names it and its fault."""
    if not (isinstance(h, dict) and "home_id" in h):
        raise ValueError(f"home #{i + 1} is not an object with a 'home_id'")
    home_id = str(h["home_id"])
    home = f"home {home_id}"
    # the id names the home's output directory and its row of a feature CSV
    if home_id in ("", ".", "..") or any(c in home_id for c in '/\\\0,"\r\n'):
        raise ValueError(f"home {home_id!r}: home_id must be one plain path "
                         "component and one unquoted CSV field")
    if "aggregate_path" not in h:
        raise ValueError(f"{home}: no 'aggregate_path'")
    e = HomeEntry(home_id, h["aggregate_path"],
                  h.get("appliance_paths", {}), h.get("occupancy_path"),
                  h.get("timezone", "UTC"), h.get("characteristics", {}),
                  h.get("hvac_circuits"))
    if not (isinstance(e.appliance_paths, dict) and isinstance(e.characteristics, dict)):
        raise ValueError(f"{home}: 'appliance_paths' and 'characteristics' must be objects")
    for p in [e.aggregate_path, e.occupancy_path, *e.appliance_paths.values()]:
        if p is not None and not (isinstance(p, str) and (base_dir / p).is_file()):
            raise ValueError(f"{home}: no file {p!r}")
    try:
        ZoneInfo(e.timezone)
    except (KeyError, TypeError, ValueError):  # ZoneInfoNotFoundError is a KeyError
        raise ValueError(f"{home}: unknown timezone {e.timezone!r}") from None
    for key, v in e.characteristics.items():
        if not (type(v) in (int, float) and math.isfinite(v) and v >= 0):
            raise ValueError(f"{home}: characteristic {key!r} must be a finite "
                             f"number >= 0, got {v!r}")
    if e.hvac_circuits is not None and not (type(e.hvac_circuits) is int
                                            and e.hvac_circuits >= 0):
        raise ValueError(f"{home}: hvac_circuits must be an integer >= 0, "
                         f"got {e.hvac_circuits!r}")
    return e


@dataclass
class HomeData:
    """One manifest home's series. Each file is read on first use and kept:
    a run parses it at most once and never reads a file it does not use."""
    manifest: DatasetManifest
    entry: HomeEntry
    _power: dict = field(default_factory=dict, repr=False)

    @property
    def aggregate(self) -> PowerSeries:
        return self._load_power(self.entry.aggregate_path)

    def appliance(self, name: str) -> PowerSeries:
        """The named submeter. It must share the aggregate's time axis (start,
        period and length), else an AlignmentError names its file."""
        rel_path = self.entry.appliance_paths[name]
        s = self._load_power(rel_path)
        path = str(self.manifest.resolve(rel_path))
        check_same_axis(s, self.aggregate, path, "aggregate", path)
        return s

    @cached_property
    def occupancy(self) -> tuple[np.ndarray, np.ndarray]:
        """(timestamps, flags) of the occupancy ground truth."""
        if self.entry.occupancy_path is None:
            raise ConfigurationError(
                f"home {self.entry.home_id} has no occupancy ground truth")
        return load_occupancy_csv(self.manifest.resolve(self.entry.occupancy_path))

    def _load_power(self, rel_path: str) -> PowerSeries:
        if rel_path not in self._power:
            self._power[rel_path] = load_power_csv(
                self.manifest.resolve(rel_path), timezone=self.entry.timezone)
        return self._power[rel_path]


def save_manifest(m: DatasetManifest, path) -> None:
    """Write m as JSON at path, unless load_manifest would refuse those bytes
    there: then raise its ManifestError and write nothing."""
    path = Path(path)
    # an absent occupancy_path or hvac_circuits is left out, not written null
    doc = {"meta": m.meta, "homes": [{k: v for k, v in vars(h).items() if v is not None}
                                     for h in m.homes]}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _checked_manifest(io.StringIO(text), path)
    with open(path, "w") as f:
        f.write(text)

"""Core series model: ingestion, clock windows, manifests."""
import csv
import io
import json
import os
import pwd
import warnings
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nilminfer import series
from nilminfer.errors import (CoverageError, EmptyWindowError, GapError,
                             ManifestError, ParseError)
from nilminfer.series import (DatasetManifest, HomeEntry,
                              PowerSeries, clock_window_mean, load_manifest,
                              load_occupancy_csv, load_power_csv,
                              local_clock_hours, median, save_manifest,
                              window_occupancy, write_power_csv)
from nilminfer.synth import DEFAULT_START, HomeSpec, gen_home


def make_series(values, period=1, start=DEFAULT_START, tz="UTC"):
    return PowerSeries(start, period, np.asarray(values, dtype=float), tz)


def n_filled(s, path) -> int:
    """Samples ingest forward-filled into s: its length less the distinct
    stamps of the file at path (each instant written as one text)."""
    rows = path.read_text().splitlines()[1:]
    return len(s) - len({row.split(",")[0] for row in rows if row})


# ---------------------------------------------------------------------------
# PowerSeries invariants
# ---------------------------------------------------------------------------

def test_series_rejects_bad_values():
    with pytest.raises(ValueError):
        make_series([])
    with pytest.raises(ValueError):
        make_series([1.0, -2.0])
    with pytest.raises(ValueError):
        make_series([1.0, float("nan")])
    with pytest.raises(ValueError):
        PowerSeries(0, 0, np.ones(3))


def test_series_values_immutable():
    s = make_series([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 5.0


# ---------------------------------------------------------------------------
# load_power_csv
# ---------------------------------------------------------------------------

def test_identity_ingestion(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n0,100.0\n1,100.0\n2,100.0\n")
    s = load_power_csv(p)
    assert len(s) == 3 and s.period_s == 1 and s.start_time == 0
    assert np.array_equal(s.values, [100.0, 100.0, 100.0])


def test_gap_forward_fill(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n0,100\n1,100\n3,100\n")
    s = load_power_csv(p)
    assert np.array_equal(s.values, [100.0, 100.0, 100.0, 100.0])
    assert n_filled(s, p) == 1


def test_gap_too_long_raises(tmp_path):
    assert series.MAX_GAP_PERIODS == 10
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n0,100\n1,100\n13,100\n")
    with pytest.raises(GapError) as exc:
        load_power_csv(p)
    assert "11" in str(exc.value)  # names the run length
    assert exc.value.path == str(p)


def test_gap_fill_holds_each_reading_and_names_the_first_long_gap(tmp_path):
    assert series.MAX_GAP_PERIODS == 10
    # 30 s slots with short gaps of 2, 1 and 3 missing samples, then the same
    # readings with long gaps of 12 and 15 opened after slots 8 and 14
    short = [0, 1, 2, 5, 6, 8, 9, 10, 14, 15, 16]
    long = [k + 12 * (k > 8) + 15 * (k > 14) for k in short]
    p = tmp_path / "a.csv"

    def write(slots):
        p.write_text("timestamp,power_w\n" + "".join(
            f"{1000 + 30 * k},{10 * i}\n" for i, k in enumerate(slots)))

    write(long)
    with pytest.raises(GapError) as exc:
        load_power_csv(p)
    assert str(exc.value) == (f"{p}: 12 consecutive samples missing between "
                              "1270 and 1600 (max 10)")
    write(short)  # every reading holds until the next one
    s = load_power_csv(p)
    assert s.start_time == 1000 and s.period_s == 30
    assert s.values.tolist() == [0, 10, 20, 20, 20, 30, 40, 40, 50, 60,
                                 70, 70, 70, 70, 80, 90, 100]
    assert n_filled(s, p) == 6


def test_period_is_the_smallest_spacing_that_divides_every_spacing(tmp_path):
    # more spacings of 60 s than of 30 s: the 30 s grid still holds them all
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n"
                 + "".join(f"{t},{t}\n" for t in (0, 30, 60, 120, 180, 240, 300)))
    s = load_power_csv(p)
    assert s.period_s == 30 and len(s) == 11
    assert n_filled(s, p) == 4
    assert s.values.tolist() == [0, 30, 60, 60, 120, 120, 180, 180, 240, 240, 300]


def test_a_stray_row_half_a_period_off_reads_at_the_smaller_period(tmp_path):
    # a 60 s file with one extra row at 150 s: every spacing is a multiple
    # of 30 s, so the file is read at 30 s with the 60 s rows forward-filled
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n"
                 + "".join(f"{t},{t}\n" for t in (0, 60, 120, 150, 180, 240, 300)))
    s = load_power_csv(p)
    assert s.period_s == 30 and n_filled(s, p) == 4
    assert s.values.tolist() == [0, 0, 60, 60, 120, 150, 180, 180, 240, 240, 300]


def test_a_stray_row_one_second_off_is_a_gap_at_one_second(tmp_path):
    # a 60 s file with one extra row at 121 s: every spacing is a multiple
    # of 1 s, and at 1 s the 60 s spacings are gaps of 59 samples
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n"
                 + "".join(f"{t},{t}\n" for t in (0, 60, 120, 121, 180, 240, 300)))
    with pytest.raises(GapError, match="59 consecutive samples missing") as exc:
        load_power_csv(p)
    assert exc.value.path == str(p)


def test_jittered_spacings_are_off_the_grid(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n0,1\n30,1\n61,1\n91,1\n121,1\n")
    with pytest.raises(ParseError, match="timestamp 61 is off the 30s grid") as exc:
        load_power_csv(p)
    assert exc.value.path == str(p)


def test_malformed_row_has_line_number(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n0,100\n1,oops\n")
    with pytest.raises(ParseError) as exc:
        load_power_csv(p)
    assert exc.value.line == 3


def test_duplicate_timestamps_collapse_to_mean(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n0,100\n0,200\n1,100\n")
    s = load_power_csv(p)
    assert np.array_equal(s.values, [150.0, 100.0])


def test_negative_readings_clamped_with_warning(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n0,-5\n1,100\n")
    with pytest.warns(UserWarning, match="clamped 1 negative") as caught:
        s = load_power_csv(p)
    assert np.array_equal(s.values, [0.0, 100.0])
    assert [str(w.message) for w in caught] == \
        [f"{p}: clamped 1 negative power readings to 0"]


def test_negative_count_excludes_gap_fill_copies(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n0,100\n1,-5\n4,100\n")
    with pytest.warns(UserWarning, match="clamped 1 negative") as caught:
        s = load_power_csv(p)
    assert np.array_equal(s.values, [100.0, 0.0, 0.0, 0.0, 100.0])
    assert [str(w.message) for w in caught] == \
        [f"{p}: clamped 1 negative power readings to 0"]
    assert n_filled(s, p) == 2


@pytest.mark.parametrize("reading", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_reading_is_a_parse_error(tmp_path, reading):
    p = tmp_path / "a.csv"
    p.write_text(f"timestamp,power_w\n0,100\n\n2,{reading}\n3,100\n")
    with pytest.raises(ParseError) as exc:
        load_power_csv(p)
    assert exc.value.line == 4 and exc.value.path == str(p)
    assert f"{p}:4:" in str(exc.value)


def test_iso_timestamps_accepted(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n2024-01-01T00:00:00Z,50\n"
                 "2024-01-01T00:00:30Z,60\n")
    s = load_power_csv(p)
    assert s.start_time == DEFAULT_START and s.period_s == 30
    assert np.array_equal(s.values, [50.0, 60.0])


def test_rows_sorted_before_gridding(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n2,300\n0,100\n1,200\n")
    s = load_power_csv(p)
    assert np.array_equal(s.values, [100.0, 200.0, 300.0])


def test_round_trip_is_byte_identical(tmp_path):
    # a full synthetic day written by the generator survives write+load+write
    home = gen_home(HomeSpec(seed=5, days=1))
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_power_csv(home.aggregate, p1)
    loaded = load_power_csv(p1)
    write_power_csv(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _row_by_row_csv(s):
    """write_power_csv's bytes as its row loop writes them."""
    return "timestamp,power_w\n" + "".join(
        f"{s.start_time + i * s.period_s},{v!r}\n"
        for i, v in enumerate(s.values.tolist()))


@pytest.mark.parametrize("values", [
    np.full(50, 42.5),
    [7.25],
    [0.0, -0.0, -0.0, 0.0, 0.0, 0.0, 5.0, 5.0],
    [1.0, 1.0, 2.0, 2.0, 3.0, 3.0],   # runs = rows / 2: written a run at a time
    [1.0, 1.0, 2.0, 2.0, 3.0, 4.0],   # one run more: written row by row
    np.random.default_rng(3).random(500) * 1000.0,
], ids=["one-value", "single-row", "signed-zeros", "half-rows-runs",
        "one-run-past-half", "noisy"])
def test_write_power_csv_matches_row_by_row_form(tmp_path, values):
    s = make_series(values, period=30)
    path = tmp_path / "s.csv"
    write_power_csv(s, path)
    assert path.read_text() == _row_by_row_csv(s)


def test_load_after_write_identity(tmp_path):
    s = make_series([0.0, 1.5, 3.25, 100.0], period=30)
    path = tmp_path / "s.csv"
    write_power_csv(s, path)
    t = load_power_csv(path)
    assert t.start_time == s.start_time and t.period_s == s.period_s
    assert np.array_equal(t.values, s.values)


ISO_OFFSETS = [timezone(timedelta(minutes=m)) for m in (-300, 0, 60, 330)]


def expected_ingest(rows, period, max_gap):
    """Plain-Python model of load_power_csv on integer readings: (start,
    values, samples gap-filled, readings clamped), or None for a gap too long."""
    by_slot = {}
    for slot, value in rows:
        by_slot.setdefault(slot, []).append(value)
    means = {k: sum(v) / len(v) for k, v in by_slot.items()}
    first, last = min(means), max(means)
    values, filled, run = [], 0, 0
    for slot in range(first, last + 1):
        if slot in means:
            values.append(max(means[slot], 0.0))
            run = 0
        else:
            run += 1
            if run > max_gap:
                return None
            values.append(values[-1])
            filled += 1
    clamped = sum(m < 0 for m in means.values())
    return DEFAULT_START + first * period, values, filled, clamped


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), period=st.sampled_from([1, 30]))
def test_ingest_matches_model_or_raises_typed_error(tmp_path, data, period):
    # Runs of consecutive slots, split by gaps of missing slots on both sides
    # of MAX_GAP_PERIODS. A run of n >= 2 slots gives spacings of one period,
    # the smallest, and every gap's spacing is a multiple of it, so ingest
    # takes period as the period.
    max_gap = series.MAX_GAP_PERIODS
    runs = data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    slots, slot = [], 0
    for k, n in enumerate(runs):
        if k:
            slot += data.draw(st.sampled_from([1, 2, max_gap, max_gap + 1]))
        slots.extend(range(slot, slot + n))
        slot += n
    rows = [(slot, value) for slot in slots
            for value in data.draw(st.lists(st.integers(-40, 400),
                                            min_size=1, max_size=2))]
    rows = data.draw(st.permutations(rows))
    texts = [str(v) for _, v in rows]
    n_bad = data.draw(st.sampled_from([0, 0, 0, 1, 2]))
    for _ in range(n_bad):
        i = data.draw(st.integers(0, len(rows) - 1))
        texts[i] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
    lines, data_lines = ["timestamp,power_w"], []
    for (slot, _), text in zip(rows, texts):
        if data.draw(st.integers(0, 3)) == 0:
            lines.append("")
        t = DEFAULT_START + slot * period
        if data.draw(st.booleans()):
            tz = data.draw(st.sampled_from(ISO_OFFSETS))
            stamp = datetime.fromtimestamp(t, tz).isoformat()
        else:
            stamp = str(t)
        lines.append(f"{stamp},{text}")
        data_lines.append(len(lines))
    path = tmp_path / "power.csv"
    path.write_text("\n".join(lines) + "\n")

    bad = [n for n, text in zip(data_lines, texts)
           if text in ("nan", "inf", "-inf")]
    expected = expected_ingest(rows, period, max_gap)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if bad:
            with pytest.raises(ParseError) as exc:
                load_power_csv(path)
            assert exc.value.path == str(path) and exc.value.line == bad[0]
            return
        if expected is None:
            with pytest.raises(GapError) as exc:
                load_power_csv(path)
            assert exc.value.path == str(path)
            return
        s = load_power_csv(path)
    start, values, filled, clamped = expected
    assert s.start_time == start and s.period_s == period
    assert s.values.tolist() == values
    assert len(s) - len({slot for slot, _ in rows}) == filled
    notes = [str(w.message) for w in caught]  # the clamp count is in the text
    assert notes == ([f"{path}: clamped {clamped} negative power readings to 0"]
                     if clamped else [])


# ---------------------------------------------------------------------------
# _read_csv: the array path against the row loop
# ---------------------------------------------------------------------------

FIXED_OFFSETS = [timezone(timedelta(minutes=m))
                 for m in (-1439, -300, 0, 60, 330, 1439)]
VALUE_COLUMNS = ("power_w", "occupied")


def odd_stamps(t, iso):
    """Stamp forms the array path must leave to the row loop, for an epoch
    row (iso None) and for an ISO row; most of them still parse there."""
    if iso is None:
        return [f"+{t}", f"{str(t)[:1]}_{str(t)[1:]}", f" {t}", f"{t}.0"]
    naive = datetime.fromtimestamp(t, timezone.utc).replace(tzinfo=None).isoformat()
    fraction = datetime.fromtimestamp(t + 0.25, timezone.utc).isoformat()
    return [
        naive + "Z", naive, naive + "z", naive + "Zx", naive + "+00:00Z",
        naive + " ", fraction, fraction.replace("+00:00", "Z"),
        f"{iso} ", f"{iso}0", iso.replace("T", " "), "0000" + iso[4:],
        f"{iso[:4]}/{iso[5:7]}/{iso[8:]}", iso[:3] + "x" + iso[4:],
        iso[:5] + "13" + iso[7:], iso[:5] + "00" + iso[7:],     # month
        iso[:8] + "32" + iso[10:], iso[:8] + "00" + iso[10:],   # day
        iso[:5] + "02-30" + iso[10:],
        iso[:11] + "24" + iso[13:], iso[:14] + "60" + iso[16:],  # hour, minute
        iso[:17] + "60" + iso[19:],                              # second
        iso[:20] + "24" + iso[22:], iso[:23] + "60", iso[:20] + "23:60",  # offset
    ]


ODD_VALUES = {"power_w": ["nan", "inf", "-inf", "1e500", "+30", "3_0", " 5 ",
                          "-0", "", "x"],
              "occupied": ["2", "-1", " 1", "1.0", "+1"]}
ODD_LINES = ["", "   ", "#", "\t", ","]
# Quoted commas shift the columns of a plain split on ","; "\udcff" is
# written as the byte 0xff, which is not UTF-8.
ODD_NOTES = ['"a,7,8,b"', '"1,2"', '"3"', "a\rb", "\0", "é", "\udcff"]


def csv_row(t, tz, form, col, value):
    """A clean row: its stamp in `form`, the ones it may be swapped for, and
    its value and note."""
    iso = datetime.fromtimestamp(t, tz).isoformat()
    return {"form": form, "stamp": str(t) if form == "epoch" else iso,
            "odd_stamps": odd_stamps(t, None if form == "epoch" else iso),
            "value": value, "note": "a"}


def csv_text(rows, col, note_at=None, swap=False, newline="\n"):
    """The file of `rows`, with a `note` column at index note_at (if any)
    and the value column first when swap."""
    header = [col, "timestamp"] if swap else ["timestamp", col]
    if note_at is not None:
        header.insert(note_at, "note")
    lines = [",".join(header)]
    for row in rows:
        fields = [row["value"], row["stamp"]] if swap else [row["stamp"], row["value"]]
        if note_at is not None:
            fields.insert(note_at, row["note"])
        lines.append(",".join(fields))
        if "line_after" in row:
            lines.append(row["line_after"])
    return newline.join(lines) + newline


@st.composite
def csv_files(draw):
    """(text, value column, clean) of a CSV the loaders might be given:
    epoch or fixed-offset ISO rows with up to two faults (an odd stamp,
    value, line, note or quoting). The array path must take a clean file."""
    col = draw(st.sampled_from(sorted(VALUE_COLUMNS)))
    tz = draw(st.sampled_from(FIXED_OFFSETS))
    forms = draw(st.sampled_from([["epoch"], ["iso"]] * 2 + [["epoch", "iso"]]))
    rows = [csv_row(DEFAULT_START + 30 * slot, tz, draw(st.sampled_from(forms)),
                    col, repr(draw(st.floats(-1e4, 1e7, allow_nan=False)))
                    if col == "power_w" else draw(st.sampled_from("01")))
            for slot in draw(st.lists(st.integers(0, 20), max_size=12))]
    n_faults = draw(st.sampled_from([0, 1, 1, 1, 2])) if rows else 0
    for _ in range(n_faults):
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(
            ["stamp"] * 3 + ["value"] * 3 + ["note", "quote", "line"]))
        if kind == "stamp":
            row["stamp"] = draw(st.sampled_from(row["odd_stamps"]))
        elif kind == "value":
            row["value"] = draw(st.sampled_from(ODD_VALUES[col]))
        elif kind == "note":
            row["note"] = draw(st.sampled_from(ODD_NOTES))
        elif kind == "quote":
            key = draw(st.sampled_from(["stamp", "value"]))
            row[key] = f'"{row[key]}"'
        else:
            row["line_after"] = draw(st.sampled_from(ODD_LINES))
    newline = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    text = csv_text(rows, col, draw(st.sampled_from([None, 0, 1, 2])),
                    draw(st.booleans()), newline)
    clean = (bool(rows) and n_faults == 0 and newline != "\r"
             and len({row["form"] for row in rows}) == 1)
    return text, col, clean


def read_outcome(read, path, col):
    """What a reader gives for one file: its arrays as bytes and dtypes, or
    its error; with any warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ts, vals = read(path, col)
            result = (ts.dtype, ts.tobytes(), vals.dtype, vals.tobytes())
        except ParseError as exc:
            result = (exc.line, exc.path, str(exc))
    return result, [str(w.message) for w in caught]


def assert_read_csv_equals_row_loop(path, col):
    assert (read_outcome(series._read_csv, path, col)
            == read_outcome(series._read_csv_rows, path, col))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
def test_read_csv_equals_row_loop(tmp_path, file):
    text, col, clean = file
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert_read_csv_equals_row_loop(path, col)
    if clean:
        assert series._read_csv_arrays(path, col) is not None


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_read_csv_reads_a_compressed_suffix_as_plain_text(tmp_path, suffix):
    """np.loadtxt decompresses a path by its suffix; a file is plain text."""
    rows = [csv_row(DEFAULT_START + 30 * i, timezone.utc, "epoch", "power_w",
                    "1.5") for i in range(3)]
    path = tmp_path / f"in.csv{suffix}"
    path.write_text(csv_text(rows, "power_w"))
    assert_read_csv_equals_row_loop(path, "power_w")
    assert series.load_power_csv(path).values.tolist() == [1.5] * 3


@pytest.mark.parametrize("form", ["epoch", "iso"])
@pytest.mark.parametrize("col", sorted(VALUE_COLUMNS))
def test_read_csv_equals_row_loop_on_each_odd_field(tmp_path, form, col):
    """Every fault of the strategy above, alone in the middle of a clean
    file, header-only files, and the file each form gives clean."""
    tz = FIXED_OFFSETS[-2]
    def clean():
        return [csv_row(DEFAULT_START + 30 * i, tz, form, col, "1")
                for i in range(3)]
    path = tmp_path / "in.csv"
    path.write_text(csv_text(clean(), col))
    assert series._read_csv_arrays(path, col) is not None
    quoted = clean()
    for row in quoted:
        row["note"] = ODD_NOTES[0]
    files = [(clean(), None), ([], None), ([], 0), (quoted, 0)]
    for key, odd in [("stamp", s) for s in clean()[1]["odd_stamps"]] + [
            ("value", v) for v in ODD_VALUES[col]] + [
            ("note", n) for n in ODD_NOTES] + [
            ("line_after", line) for line in ODD_LINES]:
        rows = clean()
        rows[1][key] = odd
        files.append((rows, 0))
    for rows, note_at in files:
        path.write_bytes(csv_text(rows, col, note_at).encode(
            "utf-8", "surrogateescape"))
        assert_read_csv_equals_row_loop(path, col)


def test_read_csv_leaves_an_overlong_field_to_the_row_loop(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("timestamp,power_w,note\n0,1.0,"
                    + "x" * (csv.field_size_limit() + 1) + "\n")
    assert read_outcome(series._read_csv, path, "power_w")[0] == (
        2, str(path),
        f"{path}:2: field larger than field limit ({csv.field_size_limit()})")
    assert_read_csv_equals_row_loop(path, "power_w")


@pytest.mark.parametrize("tail", ["", "\n", "\n2,3\n"])
@pytest.mark.parametrize("length", [15, 16])
def test_plain_columns_leaves_a_line_as_long_as_the_field_limit_to_the_row_loop(
        tmp_path, monkeypatch, length, tail):
    monkeypatch.setattr(series.csv, "field_size_limit", lambda: 16)
    path = tmp_path / "in.csv"
    path.write_text("timestamp,v\n0,1\n1," + "9" * (length - 2) + tail)
    assert (series._plain_columns(path, "v") is None) == (length >= 16)


@pytest.mark.parametrize("col, value", [("power_w", "nan"), ("power_w", "inf"),
                                        ("occupied", "2"), ("occupied", "-1"),
                                        ("power_w", "abc"), ("occupied", "x")])
def test_array_path_declines_a_bad_value_after_one_parse(tmp_path, monkeypatch,
                                                        col, value):
    """An epoch file is parsed in the epoch form alone: a bad value, even
    one that is no number at all, leaves it to the row loop without a parse
    in the ISO form, and the error is the row loop's."""
    path = tmp_path / "in.csv"
    path.write_text(f"timestamp,{col}\n0,1\n30,{value}\n60,1\n")
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    with pytest.raises(ParseError) as exc:
        series._read_csv(path, col)
    assert (exc.value.line, exc.value.path) == (3, str(path))
    assert len(calls) == 1
    assert_read_csv_equals_row_loop(path, col)


@pytest.mark.parametrize("offset", FIXED_OFFSETS)
def test_array_path_reads_epoch_and_fixed_iso_files(tmp_path, offset):
    """The forms `write_power_csv`, `write_occupancy_csv` and
    `datetime.isoformat()` write take the array path."""
    rng = np.random.default_rng(0)
    ts = DEFAULT_START + 30 * rng.permutation(500)
    vals = rng.gamma(2.0, 300.0, ts.size)
    epoch, iso, occ = (tmp_path / n for n in ("e.csv", "i.csv", "o.csv"))
    write_power_csv(PowerSeries(DEFAULT_START, 30, vals), epoch)
    iso.write_text("power_w,timestamp\n" + "".join(
        f"{v!r},{datetime.fromtimestamp(t, offset).isoformat()}\n"
        for t, v in zip(ts.tolist(), vals.tolist())))
    series.write_occupancy_csv(ts, rng.integers(0, 2, ts.size), occ)
    for path, col in ((epoch, "power_w"), (iso, "power_w"), (occ, "occupied")):
        fast = series._read_csv_arrays(path, col)
        assert fast is not None, path
        for a, b in zip(fast, series._read_csv_rows(path, col)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


YEARS = st.one_of(st.sampled_from([1, 1900, 2000, 2100, 9999]), st.integers(1, 9999))
# day 1-31 of any month, or a day past the end of a short month
MONTH_DAYS = st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 31)),
                       st.sampled_from([(2, 29), (2, 30), (4, 31), (6, 31),
                                        (9, 31), (11, 31)]))


@settings(max_examples=2000, deadline=None)
@given(year=YEARS, month_day=MONTH_DAYS,
       clock=st.tuples(st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)),
       offset=st.tuples(st.sampled_from("+-"), st.integers(0, 23),
                        st.integers(0, 99), st.integers(0, 99)),
       form=st.sampled_from(["iso", "Z", "naive", "compact", "seconds"]))
def test_iso_epochs_equals_parse_timestamp(year, month_day, clock, offset, form):
    """Across the calendar and every offset, the array decoder gives
    `_parse_timestamp`'s epoch, or raises where it raises; it leaves the `Z`,
    naive, `±HHMM` and `±HH:MM:SS` forms, which `_parse_timestamp` also reads,
    to the row loop. Both refuse an offset minute or second over 59."""
    sign, hours, minutes, seconds = offset
    stamp = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}".format(year, *month_day, *clock)
    stamp += {"iso": f"{sign}{hours:02d}:{minutes:02d}", "Z": "Z", "naive": "",
              "compact": f"{sign}{hours:02d}{minutes:02d}",
              "seconds": f"{sign}{hours:02d}:{minutes:02d}:{seconds:02d}"}[form]
    stamps = np.array([stamp.encode()], dtype=series._ISO_DTYPE)
    try:
        expected = series._parse_timestamp(stamp)
    except ValueError:
        expected = None
    if form in ("iso", "compact", "seconds") and minutes > 59 or (
            form == "seconds" and seconds > 59):
        assert expected is None
    if form != "iso" or expected is None:
        with pytest.raises(ValueError):
            series._iso_epochs(stamps)
    else:
        assert series._iso_epochs(stamps).tolist() == [expected]


# ---------------------------------------------------------------------------
# The parse cache behind _read_csv (its directory is per test, see conftest)
# ---------------------------------------------------------------------------

def count_parses(monkeypatch) -> list:
    """Spy on both parsers of _read_csv; the list grows by one per parse."""
    calls = []
    for name in ("_read_csv_arrays", "_read_csv_rows"):
        parse = getattr(series, name)
        monkeypatch.setattr(series, name, lambda *a, _p=parse, _n=name:
                            calls.append(_n) or _p(*a))
    return calls


def epoch_power_text():
    rng = np.random.default_rng(5)
    return "timestamp,power_w\n" + "".join(
        f"{DEFAULT_START + 30 * i},{v!r}\n"
        for i, v in enumerate((rng.random(300) * 900).tolist()))


def iso_power_text():
    tz = timezone(timedelta(hours=-5))
    return "timestamp,power_w\n" + "".join(
        f"{datetime.fromtimestamp(DEFAULT_START + 30 * i, tz).isoformat()},"
        f"{50 + i % 7 * 0.25!r}\n" for i in range(300))


def occupancy_text():
    return "timestamp,occupied\n" + "".join(
        f"{DEFAULT_START + 60 * i},{i // 11 % 2}\n" for i in range(300))


def load_by_column(path, col):
    if col == "power_w":
        s = load_power_csv(path)  # a clamp warning would fail the test
        return [s.start_time, s.period_s, s.values.dtype, s.values.tobytes(),
                n_filled(s, path)]
    ts, flags = load_occupancy_csv(path)
    return [ts.dtype, ts.tobytes(), flags.dtype, flags.tobytes()]


@pytest.mark.parametrize("text, col", [
    (epoch_power_text(), "power_w"), (iso_power_text(), "power_w"),
    (occupancy_text(), "occupied"),
], ids=["epoch-power", "iso-offset-power", "occupancy"])
def test_cache_hit_is_bitwise_a_fresh_parse(tmp_path, monkeypatch,
                                            private_parse_cache, text, col):
    # a hit must return exactly what the parsers return, dtype and bytes
    path = tmp_path / "in.csv"
    path.write_text(text)
    parses = count_parses(monkeypatch)
    first = load_by_column(path, col)
    assert parses == ["_read_csv_arrays"] and len(list(private_parse_cache.iterdir())) == 1
    assert load_by_column(path, col) == first and len(parses) == 1
    (tmp_path / "copy.csv").write_bytes(path.read_bytes())  # keyed by content, not path
    assert load_by_column(tmp_path / "copy.csv", col) == first and len(parses) == 1
    monkeypatch.setenv("XDG_CACHE_HOME", str(path))  # a file: no usable cache
    assert load_by_column(path, col) == first and len(parses) == 2


def test_cache_one_byte_edit_misses(tmp_path, monkeypatch, private_parse_cache):
    # the key is the file's bytes, so an edit that keeps size and mtime still misses
    path = tmp_path / "in.csv"
    path.write_text("timestamp,power_w\n0,10\n30,20\n60,30\n")
    assert load_power_csv(path).values.tolist() == [10, 20, 30]
    parses = count_parses(monkeypatch)
    mtime = path.stat().st_mtime_ns
    path.write_text("timestamp,power_w\n0,10\n30,29\n60,30\n")
    os.utime(path, ns=(mtime, mtime))
    assert load_power_csv(path).values.tolist() == [10, 29, 30]
    assert parses == ["_read_csv_arrays"]
    assert len(list(private_parse_cache.iterdir())) == 2


@pytest.mark.parametrize("hit", [False, True], ids=["no-hit", "hit-on-oldest"])
def test_cache_evicts_least_recently_used_first(tmp_path, monkeypatch,
                                               private_parse_cache, hit):
    # entries a (used long ago) and b (later), and a stale temporary file
    # that a killed writer left; the cap holds two entries
    paths = [tmp_path / f"{name}.csv" for name in "abc"]
    for k, p in enumerate(paths):
        p.write_text(f"timestamp,power_w\n0,{k}\n30,{k}\n")
    entries = [series._cache_entry(p, "power_w")[0] for p in paths]
    for p, e, t in zip(paths[:2], entries, (1000, 2000)):
        load_power_csv(p)
        os.utime(e, (t, t))
    stale = private_parse_cache / "stale.tmp"
    stale.write_bytes(b"x")
    os.utime(stale, (0, 0))
    if hit:
        monkeypatch.setattr(series, "CACHE_MAX_BYTES", 0)
        parses = count_parses(monkeypatch)
        assert load_power_csv(paths[0]).values.tolist() == [0, 0]
        assert parses == []  # a hit: it marks a used now and evicts nothing
        assert len(list(private_parse_cache.iterdir())) == 3
    monkeypatch.setattr(series, "CACHE_MAX_BYTES", 2 * entries[0].stat().st_size)
    load_power_csv(paths[2])  # a miss: storing c evicts down to the cap
    kept = [entries[0], entries[2]] if hit else entries[1:]
    assert sorted(private_parse_cache.iterdir()) == sorted(kept)


def npy_bytes(*arrays):
    buf = io.BytesIO()
    for a in arrays:
        np.save(buf, a)
    return buf.getvalue()


# cache entries that no parse writes, made from the parse (ts, vals)
BAD_ENTRIES = {
    "truncated": lambda ts, vals: npy_bytes(ts, vals)[:-5],
    "empty": lambda ts, vals: b"",
    "float-stamps": lambda ts, vals: npy_bytes(ts.astype(float), vals),
    "int-values": lambda ts, vals: npy_bytes(ts, vals.astype(np.int64)),
    "big-endian-values": lambda ts, vals: npy_bytes(ts, vals.astype(">f8")),
    "short-values": lambda ts, vals: npy_bytes(ts, vals[:-1]),
    "2-d-stamps": lambda ts, vals: npy_bytes(ts[:, None], vals[:, None]),
    "one-array": lambda ts, vals: npy_bytes(ts),
    "not-npy": lambda ts, vals: b"timestamp,power_w\n",
}


@pytest.mark.parametrize("kind", sorted(BAD_ENTRIES))
def test_cache_bad_entry_is_reparsed_and_rewritten(tmp_path, monkeypatch,
                                                   private_parse_cache, kind):
    # a damaged or foreign entry is a miss, never a wrong series or an error
    path = tmp_path / "in.csv"
    path.write_text(epoch_power_text())
    first = load_by_column(path, "power_w")
    [entry] = private_parse_cache.iterdir()
    good = entry.read_bytes()
    ts, vals = series._read_csv_rows(path, "power_w")
    entry.write_bytes(BAD_ENTRIES[kind](ts, vals))
    parses = count_parses(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_by_column(path, "power_w") == first
    assert parses == ["_read_csv_arrays"] and entry.read_bytes() == good
    assert list(private_parse_cache.iterdir()) == [entry]


@pytest.mark.parametrize("where", ["regular-file", "under-a-file", "relative", "no-home"])
def test_unusable_cache_home_leaves_ingest_working_without_warning(
        tmp_path, monkeypatch, where):
    # a cache that cannot be read or written is no cache, and says nothing
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    if where == "no-home":  # expanduser("~") then returns "~", a relative path
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.delenv("HOME", raising=False)
        monkeypatch.setattr(pwd, "getpwuid", lambda uid: (_ for _ in ()).throw(KeyError(uid)))
        assert os.path.expanduser("~") == "~"
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", {
            "regular-file": str(blocker), "under-a-file": str(blocker / "cache"),
            "relative": "rel"}[where])
        monkeypatch.setenv("HOME", str(blocker))  # the default ~/.cache too
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "in.csv"
    path.write_text(epoch_power_text())
    parses = count_parses(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = [load_by_column(path, "power_w") for _ in range(2)]
    assert loaded[0] == loaded[1] and len(parses) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "in.csv"]


@pytest.mark.parametrize("rewrite", ["in-place-longer", "replaced-same-size"])
def test_file_rewritten_during_the_parse_gets_no_entry(tmp_path, monkeypatch,
                                                       private_parse_cache, rewrite):
    # the key is the bytes hashed before the parse; a parse of other bytes
    # stored under it would be returned for the old content from then on
    path = tmp_path / "in.csv"
    old, new = "timestamp,power_w\n0,10\n30,20\n", "timestamp,power_w\n0,10\n30,29\n"
    if rewrite == "in-place-longer":
        new += "60,30\n"
    path.write_text(old)
    parse = series._read_csv_arrays

    def rewrite_then_parse(*args):
        if rewrite == "in-place-longer":
            path.write_text(new)
        else:
            (tmp_path / "next.csv").write_text(new)
            os.replace(tmp_path / "next.csv", path)
        monkeypatch.setattr(series, "_read_csv_arrays", parse)
        return parse(*args)

    monkeypatch.setattr(series, "_read_csv_arrays", rewrite_then_parse)
    assert load_power_csv(path).values[:2].tolist() == [10, 29]
    assert not any(private_parse_cache.iterdir())
    path.write_text(old)
    assert load_power_csv(path).values.tolist() == [10, 20]


@pytest.mark.parametrize("text, col", [
    ("timestamp,power_w\n0,1\n30,nan\n", "power_w"),
    ("timestamp,power_w\n", "power_w"),
    ("timestamp,occupied\n0,1\n60,2\n", "occupied"),
], ids=["nan-reading", "no-rows", "bad-flag"])
def test_refused_file_gets_no_entry_and_raises_alike(tmp_path, private_parse_cache,
                                                     text, col):
    # only a parse the reader returns is cached; an error is raised afresh
    path = tmp_path / "in.csv"
    path.write_text(text)
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as exc:
            load_by_column(path, col)
        errors.append((str(exc.value), exc.value.line, exc.value.path))
    assert errors[0] == errors[1]
    assert not private_parse_cache.exists() or not any(private_parse_cache.iterdir())


def test_clamp_warning_and_gap_error_fire_on_a_hit(tmp_path, monkeypatch,
                                                   private_parse_cache):
    # the cache holds only _read_csv's arrays; every check after it reruns
    clamped, gap = tmp_path / "clamped.csv", tmp_path / "gap.csv"
    clamped.write_text("timestamp,power_w\n0,5\n30,-2\n60,7\n")
    gap.write_text("timestamp,power_w\n0,5\n30,6\n390,7\n")

    def load_both():
        with pytest.warns(UserWarning) as caught:
            s = load_power_csv(clamped)
        assert [str(w.message) for w in caught] == \
            [f"{clamped}: clamped 1 negative power readings to 0"]
        assert s.values.tolist() == [5, 0, 7]
        with pytest.raises(GapError, match="11 consecutive samples missing"):
            load_power_csv(gap)

    load_both()
    assert len(list(private_parse_cache.iterdir())) == 2
    parses = count_parses(monkeypatch)
    load_both()
    assert parses == []


# ---------------------------------------------------------------------------
# clock_window_mean
# ---------------------------------------------------------------------------

def test_clock_window_mean_constant_day():
    s = make_series(np.full(86400, 1000.0))
    assert clock_window_mean(s, 1, 5) == pytest.approx(1000.0)


def test_clock_window_mean_piecewise():
    ts = np.arange(86400)
    vals = np.where((ts >= 18 * 3600) & (ts < 22 * 3600), 500.0, 0.0)
    s = make_series(vals)
    assert clock_window_mean(s, 18, 22) == pytest.approx(500.0)
    assert clock_window_mean(s, 0, 18) == pytest.approx(0.0)


def test_clock_window_mean_matches_bruteforce_with_dst():
    # spans the 2024-03-10 US spring-forward; oracle filters sample by sample
    tz = "America/New_York"
    start = int(datetime(2024, 3, 9, 12, 0, tzinfo=ZoneInfo(tz)).timestamp())
    rng = np.random.default_rng(2)
    s = PowerSeries(start, 300, rng.uniform(0, 500, 3 * 288), tz)
    got = clock_window_mean(s, 1, 5)
    zone = ZoneInfo(tz)
    picked = [v for t, v in zip(s.timestamps().tolist(), s.values.tolist())
              if 1 <= datetime.fromtimestamp(t, zone).hour < 5]
    assert got == pytest.approx(float(np.mean(picked)), abs=1e-9)


def test_clock_window_mean_empty_window():
    s = make_series(np.ones(100), period=1)  # covers 100 s past midnight
    with pytest.raises(EmptyWindowError):
        clock_window_mean(s, 5, 6)


def test_clock_window_mean_bad_bounds():
    s = make_series(np.ones(10))
    with pytest.raises(ValueError):
        clock_window_mean(s, 5, 5)


def test_local_clock_hours_handles_fixed_offset():
    ts = np.array([DEFAULT_START, DEFAULT_START + 3600])
    hours = local_clock_hours(ts, "Asia/Kolkata")  # UTC+5:30
    assert hours[0] == pytest.approx(5.5)
    assert hours[1] == pytest.approx(6.5)


# ---------------------------------------------------------------------------
# occupancy series + CSV
# ---------------------------------------------------------------------------

def test_window_occupancy_any_rule():
    # three windows from 06:00 UTC, on the grid from midnight
    s = make_series(np.ones(27), period=100, start=6 * 3600)
    ts = s.start_time + np.array([0, 200, 900, 1000])
    occ = np.array([False, True, False, False])
    flags, scored = window_occupancy(s, ts, occ)
    assert flags.size == scored.size == 27
    assert np.flatnonzero(flags).tolist() == [24]
    # the truth is scored over its first and last sample's windows, not the third
    assert np.flatnonzero(scored).tolist() == [24, 25]


# local midnights of a winter day, the US spring-forward night, and the
# Lord Howe (30-minute DST) fall-back and spring-forward nights
GRID_DAYS = (DEFAULT_START, 1710043200, 1712448000, 1728172800)


def local_midnight(t, tz):
    local = datetime.fromtimestamp(t, ZoneInfo(tz))
    return int(local.replace(hour=0, minute=0, second=0).timestamp())


def window_occupancy_by_brute_force(s, ts, occupied):
    """(flags, scored) by scanning the series' local-midnight grid window by
    window, or None when no sample falls on it: scored from the first held
    window to the last, where the window's local start hour is 6 to 21."""
    zone = ZoneInfo(s.timezone)
    windows = range(local_midnight(s.start_time, s.timezone), s.end_time, 900)
    held = [w for w in windows if ((ts >= w) & (ts < w + 900)).any()]
    if not held:
        return None
    flags = [bool(occupied[(ts >= w) & (ts < w + 900)].any()) for w in windows]
    scored = [held[0] <= w <= held[-1] and 6 <= datetime.fromtimestamp(w, zone).hour < 22
              for w in windows]
    return flags, scored


@settings(max_examples=200, deadline=None)
@given(tz=st.sampled_from(["UTC", "America/New_York", "Asia/Kathmandu",
                           "Australia/Lord_Howe"]),
       day=st.sampled_from(GRID_DAYS),
       period=st.sampled_from([7, 30, 60, 900, 1000]),
       start_periods=st.integers(-200, 200),
       n=st.integers(1, 400),
       truth_period=st.sampled_from([60, 300, 450, 1111]),
       m=st.integers(1, 400),
       p_occupied=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_window_occupancy_matches_brute_force(tz, day, period, start_periods, n,
                                              truth_period, m, p_occupied, seed,
                                              data):
    # the series starts anywhere on its period grid; the truth starts or
    # ends near the grid's first window, the series' start or its end, or
    # anywhere, so it may start late, end early or overhang either end
    s = make_series(np.ones(n), period=period, start=day + start_periods * period,
                    tz=tz)
    edge = data.draw(st.sampled_from([local_midnight(s.start_time, tz),
                                      s.start_time, s.end_time]))
    t0 = data.draw(st.one_of(
        st.integers(edge - 3000, edge + 3000),
        st.integers(edge - 3000, edge + 3000).map(lambda t: t - (m - 1) * truth_period),
        st.integers(s.start_time - 2 * 86400, s.start_time + 2 * 86400)))
    ts = t0 + np.arange(m, dtype=np.int64) * truth_period
    occupied = np.random.default_rng(seed).random(m) < p_occupied
    want = window_occupancy_by_brute_force(s, ts, occupied)
    if want is None:
        with pytest.raises(CoverageError):
            window_occupancy(s, ts, occupied)
        return
    flags, scored = window_occupancy(s, ts, occupied)
    assert (flags.tolist(), scored.tolist()) == want


@pytest.mark.parametrize("shift", [-86400, 86400])
def test_truth_off_the_series_windows_is_a_coverage_error(shift):
    s = make_series(np.ones(2880), period=30)  # one UTC day, midnight to midnight
    ts = s.start_time + shift + np.arange(0, 86400, 60)
    with pytest.raises(CoverageError, match="no occupancy sample"):
        window_occupancy(s, ts, np.ones(ts.size, dtype=bool))


def test_occupancy_csv_round_trip(tmp_path):
    from nilminfer.series import write_occupancy_csv
    ts = np.arange(0, 3600, 60)
    occ = (ts // 600) % 2 == 0
    p = tmp_path / "occ.csv"
    write_occupancy_csv(ts, occ, p)
    ts2, occ2 = load_occupancy_csv(p)
    assert np.array_equal(ts, ts2) and np.array_equal(occ, occ2)


@pytest.mark.parametrize("n_ts, n_flags", [(60, 59), (59, 60)])
def test_occupancy_csv_writer_rejects_unequal_lengths(tmp_path, n_ts, n_flags):
    from nilminfer.series import write_occupancy_csv
    p = tmp_path / "occ.csv"
    with pytest.raises(ValueError, match=f"{n_ts} timestamps but {n_flags}"):
        write_occupancy_csv(np.arange(n_ts) * 60, np.ones(n_flags, dtype=bool), p)
    assert not p.exists()


def test_occupancy_csv_rejects_bad_flag(tmp_path):
    p = tmp_path / "occ.csv"
    p.write_text("timestamp,occupied\n0,2\n")
    with pytest.raises(ParseError):
        load_occupancy_csv(p)


def test_occupancy_csv_columns_found_by_name(tmp_path):
    p = tmp_path / "occ.csv"
    p.write_text("occupied,note,timestamp\n1,x,60\n\n0,y,0\n")
    ts, occ = load_occupancy_csv(p)
    assert ts.tolist() == [0, 60] and occ.tolist() == [False, True]


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("timestamp,flag\n0,1\n", 1),
    ("timestamp,occupied\n", 2),
    ("timestamp,occupied\n0,1\n60,yes\n", 3),
    # a Latin-1 byte in an unused column, past the decoder's first chunk
    pytest.param("timestamp,occupied,note\n" + "0,1,é\n" * 3000 + "60,1,\udce9\n",
                 3002, id="not-utf8"),
    pytest.param("timestamp,occupied,note\n0,1," + "x" * 140_000 + "\n", 2,
                 id="overlong-field"),
    # a quoted newline in an earlier row: the bad row is on line 4, not row 3
    pytest.param('timestamp,occupied,note\n0,1,"a\nb"\n60,x,c\n', 4,
                 id="quoted-newline"),
])
def test_occupancy_csv_errors_name_file_and_line(tmp_path, text, line):
    p = tmp_path / "occ.csv"
    p.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as exc:
        load_occupancy_csv(p)
    assert exc.value.line == line and exc.value.path == str(p)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path, small_corpus):
    m = small_corpus.manifest
    path = tmp_path / "m.json"
    # re-point at the corpus files
    save_manifest(m, m.base_dir / "copy.json")
    loaded = load_manifest(m.base_dir / "copy.json")
    assert [h.home_id for h in loaded.homes] == [h.home_id for h in m.homes]
    assert loaded.homes[0].characteristics == m.homes[0].characteristics
    assert loaded.homes[0].hvac_circuits == m.homes[0].hvac_circuits


def test_manifest_missing_file_rejected(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps(
        {"homes": [{"home_id": "h1", "aggregate_path": "nope.csv"}]}))
    with pytest.raises(ManifestError) as exc:
        load_manifest(tmp_path / "m.json")
    assert exc.value.path == str(tmp_path / "m.json")
    assert "home h1" in str(exc.value) and "nope.csv" in str(exc.value)


def test_save_manifest_refuses_what_load_refuses_and_writes_nothing(
        tmp_path, small_corpus):
    entry = HomeEntry("a,b", str(small_corpus.manifest.resolve(
        small_corpus.manifest.homes[0].aggregate_path)))
    path = tmp_path / "m.json"
    with pytest.raises(ManifestError, match="home 'a,b'") as exc:
        save_manifest(DatasetManifest([entry]), path)
    assert exc.value.path == str(path)
    assert not path.exists()


def test_manifest_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        DatasetManifest(homes=[HomeEntry("h1", "a.csv"), HomeEntry("h1", "b.csv")])


def test_manifest_homes_come_sorted_by_id():
    m = DatasetManifest(homes=[HomeEntry("h2", "b.csv"), HomeEntry("h10", "c.csv"),
                               HomeEntry("h1", "a.csv")])
    assert [h.home_id for h in m.homes] == ["h1", "h10", "h2"]


_HOME_KEYS = ("home_id", "aggregate_path", "appliance_paths", "occupancy_path",
              "timezone", "characteristics", "hvac_circuits")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.sampled_from(["", "a.csv", "UTC", "Mars/Base", "3", "../a.csv", "\0"])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(home=st.integers(0, 1),
       where=st.sampled_from(_HOME_KEYS + ("home", "characteristics.occupants",
                                           "appliance_paths.hvac")),
       drop=st.booleans(), value=_json_values)
def test_mutated_manifest_loads_or_raises_manifest_error(tmp_path, home, where,
                                                         drop, value):
    """A valid manifest with one home's key dropped or given another value
    either loads, with every home checked, or fails as a ManifestError."""
    for name in ("a.csv", "b.csv", "occ.csv"):
        (tmp_path / name).write_text("timestamp,power_w\n0,1\n")
    doc = {"meta": {}, "homes": [
        {"home_id": f"h{i}", "aggregate_path": "a.csv",
         "appliance_paths": {"hvac": "b.csv"}, "occupancy_path": "occ.csv",
         "timezone": "America/New_York", "hvac_circuits": 1,
         "characteristics": {"occupants": 2, "area_sqft": 1500.5}}
        for i in range(2)]}
    if where == "home":
        doc["homes"][home] = value
    else:
        parent, _, key = where.rpartition(".")
        target = doc["homes"][home][parent] if parent else doc["homes"][home]
        if drop:
            target.pop(key)
        else:
            target[key] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    try:
        m = load_manifest(path)
    except ManifestError as exc:
        assert exc.path == str(path)
        return
    assert [h.home_id for h in m.homes] == sorted({h.home_id for h in m.homes})
    for h in m.homes:
        assert all(type(v) in (int, float) and v >= 0
                   for v in h.characteristics.values())
        assert h.hvac_circuits is None or type(h.hvac_circuits) is int


def _same_float(got, want) -> bool:
    """Bitwise equality of two float64 scalars, type included."""
    return (type(got) is type(want)
            and np.float64(got).tobytes() == np.float64(want).tobytes())


@pytest.mark.parametrize("values", [
    [5.0], [-0.0], [0.0, -0.0], [-0.0, -0.0], [-0.0, 1.0, 0.0],
    [-0.0, 0.0, -0.0], [3.0, 1.0, 2.0, 2.0], [np.nan], [1.0, np.nan],
    [np.nan, 1.0, 2.0], [-np.nan, 0.0, -0.0], [np.inf, -np.inf, 1.0],
    [np.inf, -np.inf]])
def test_median_is_np_median_bit_for_bit(values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the mean of inf and -inf warns
        assert _same_float(median(np.array(values)), np.median(values))


def test_median_is_np_median_on_random_draws():
    """Odd and even sizes, heavy ties, mixed 0.0/-0.0 and a NaN anywhere."""
    rng = np.random.default_rng(11)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 2.5, np.nan, -np.inf])
    for trial in range(20000):
        n = int(rng.integers(1, 40))
        values = (rng.choice(pool, size=n) if trial % 2
                  else rng.normal(size=n).round(1))
        assert _same_float(median(values), np.median(values)), values

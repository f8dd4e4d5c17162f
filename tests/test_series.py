"""Core series model: ingestion, clock windows, manifests."""
import csv
import json
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
                              local_clock_hours, save_manifest,
                              window_occupancy, write_power_csv)
from nilminfer.synth import DEFAULT_START, HomeSpec, gen_home


def make_series(values, period=1, start=DEFAULT_START, tz="UTC"):
    return PowerSeries(start, period, np.asarray(values, dtype=float), tz)


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
    assert s.meta["n_gap_filled"] == 1


def test_gap_too_long_raises(tmp_path):
    assert series.MAX_GAP_PERIODS == 10
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n0,100\n1,100\n13,100\n")
    with pytest.raises(GapError) as exc:
        load_power_csv(p)
    assert "11" in str(exc.value)  # names the run length
    assert exc.value.path == str(p)


def test_period_is_the_smallest_spacing_that_divides_every_spacing(tmp_path):
    # more spacings of 60 s than of 30 s: the 30 s grid still holds them all
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n"
                 + "".join(f"{t},{t}\n" for t in (0, 30, 60, 120, 180, 240, 300)))
    s = load_power_csv(p)
    assert s.period_s == 30 and len(s) == 11
    assert s.meta["n_gap_filled"] == 4
    assert s.values.tolist() == [0, 30, 60, 60, 120, 120, 180, 180, 240, 240, 300]


def test_a_stray_row_half_a_period_off_reads_at_the_smaller_period(tmp_path):
    # a 60 s file with one extra row at 150 s: every spacing is a multiple
    # of 30 s, so the file is read at 30 s with the 60 s rows forward-filled
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n"
                 + "".join(f"{t},{t}\n" for t in (0, 60, 120, 150, 180, 240, 300)))
    s = load_power_csv(p)
    assert s.period_s == 30 and s.meta["n_gap_filled"] == 4
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
    with pytest.warns(UserWarning, match="clamped 1 negative"):
        s = load_power_csv(p)
    assert np.array_equal(s.values, [0.0, 100.0])
    assert s.meta["n_negative_clamped"] == 1


def test_negative_count_excludes_gap_fill_copies(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("timestamp,power_w\n0,100\n1,-5\n4,100\n")
    with pytest.warns(UserWarning, match="clamped 1 negative"):
        s = load_power_csv(p)
    assert np.array_equal(s.values, [100.0, 0.0, 0.0, 0.0, 100.0])
    assert s.meta["n_negative_clamped"] == 1
    assert s.meta["n_gap_filled"] == 2


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
    values, n_gap_filled, n_negative_clamped), or None for a gap too long."""
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
    assert s.meta["n_gap_filled"] == filled
    assert s.meta["n_negative_clamped"] == clamped
    notes = [str(w.message) for w in caught]
    assert notes == ([f"{path}: clamped {clamped} negative power readings to 0"]
                     if clamped else [])


# ---------------------------------------------------------------------------
# _read_csv: the array path against the row loop
# ---------------------------------------------------------------------------

FIXED_OFFSETS = [timezone(timedelta(minutes=m))
                 for m in (-1439, -300, 0, 60, 330, 1439)]
VALUE_COLUMNS = {"power_w": series._parse_reading,
                 "occupied": series._parse_flag}


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
            ts, vals = read(path, col, VALUE_COLUMNS[col])
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
        assert series._read_csv_arrays(path, col, VALUE_COLUMNS[col]) is not None


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
    assert series._read_csv_arrays(path, col, VALUE_COLUMNS[col]) is not None
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
        series._read_csv(path, col, VALUE_COLUMNS[col])
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
        parse = VALUE_COLUMNS[col]
        fast = series._read_csv_arrays(path, col, parse)
        assert fast is not None, path
        for a, b in zip(fast, series._read_csv_rows(path, col, parse)):
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
    s = make_series(np.ones(27), period=100, start=0)  # three windows
    ts = np.array([0, 200, 900, 1000])
    occ = np.array([False, True, False, False])
    w = window_occupancy(s, ts, occ)
    # the truth spans its first and last sample's windows, not the third
    assert (w.window_start, list(w.flags)) == (0, [True, False])


# local midnights of a winter day, the US spring-forward night, and the
# Lord Howe (30-minute DST) fall-back and spring-forward nights
GRID_DAYS = (DEFAULT_START, 1710043200, 1712448000, 1728172800)


def local_midnight(t, tz):
    local = datetime.fromtimestamp(t, ZoneInfo(tz))
    return int(local.replace(hour=0, minute=0, second=0).timestamp())


def window_occupancy_by_brute_force(s, ts, occupied):
    """(window_start, flags) by scanning the series' local-midnight grid
    window by window, or None when no sample falls on it."""
    windows = range(local_midnight(s.start_time, s.timezone), s.end_time, 900)
    held = [w for w in windows if ((ts >= w) & (ts < w + 900)).any()]
    if not held:
        return None
    span = range(held[0], held[-1] + 900, 900)
    return held[0], [bool(occupied[(ts >= w) & (ts < w + 900)].any()) for w in span]


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
    got = window_occupancy(s, ts, occupied)
    assert (got.window_start, got.flags.tolist(), got.timezone) == (*want, tz)


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

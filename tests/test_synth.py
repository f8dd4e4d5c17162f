"""Synthetic-home generator: determinism, ground-truth bookkeeping,
corpus construction."""
import os
import sys
import threading
import warnings
from datetime import datetime
from zoneinfo import ZoneInfo

import numpy as np
import pytest

from nilminfer.classify import TAXONOMY, label_characteristics
from nilminfer.events import EVENT_DTYPE
from nilminfer.series import MAX_GAP_PERIODS, HomeData, load_power_csv
from nilminfer.synth import NOISE_SIGMA_W, HomeSpec, gen_corpus, gen_home


def test_same_seed_bit_identical(tmp_path):
    spec = HomeSpec(seed=50, days=2)
    a, b = gen_home(spec), gen_home(HomeSpec(seed=50, days=2))
    assert np.array_equal(a.aggregate.values, b.aggregate.values)
    assert a.provenance.keys() == b.provenance.keys()
    for source, edges in a.provenance.items():
        assert edges.tobytes() == b.provenance[source].tobytes()
    assert np.array_equal(a.occupancy, b.occupancy)
    from nilminfer.series import write_power_csv
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_power_csv(a.aggregate, p1)
    write_power_csv(b.aggregate, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seed_differs():
    a = gen_home(HomeSpec(seed=1, days=1))
    b = gen_home(HomeSpec(seed=2, days=1))
    assert not np.array_equal(a.aggregate.values, b.aggregate.values)


def test_zero_occupant_rate_leaves_background_only():
    home = gen_home(HomeSpec(seed=51, days=2, occupant_rate_per_hour=0.0))
    assert len(home.provenance["occupant_load"]) == 0
    assert len(home.provenance["fridge"]) and len(home.provenance["hvac"])
    # occupancy truth is still nontrivial
    _, flags = home.occupancy
    assert flags.any() and not flags.all()


def test_provenance_is_the_edges_of_each_clean_load():
    """Each source's EVENT_DTYPE edges, in time order, are the steps of its
    noise-free trace: with no appliance noise, the fridge and HVAC
    submeters; the occupant trace is noise-free as generated."""
    home = gen_home(HomeSpec(seed=55, days=2, appliance_noise_sigma_w=0.0))
    for source, trace in (("fridge", "fridge"), ("hvac", "hvac"),
                          ("occupant_load", "occupant")):
        edges = home.provenance[source]
        assert edges.dtype == EVENT_DTYPE and len(edges)
        s = home.appliances[trace]
        step = np.flatnonzero(np.diff(s.values)) + 1
        assert edges["time"].tolist() == s.timestamps()[step].tolist()
        assert np.allclose(edges["delta_w"], np.diff(s.values)[step - 1])


def test_generated_truth_has_the_form_of_home_data_truth(small_corpus):
    """The generated truth is per sample, (timestamps, flags) as
    HomeData.occupancy reads it back, so window_occupancy means the same for
    either kind of home."""
    manifest = small_corpus.manifest
    for entry in manifest.homes:
        generated = small_corpus.homes[entry.home_id]
        ts, flags = generated.occupancy
        assert ts.size == flags.size == len(generated.aggregate)
        loaded_ts, loaded_flags = HomeData(manifest, entry).occupancy
        assert np.array_equal(ts, loaded_ts)
        assert np.array_equal(flags, loaded_flags)


def test_residual_is_the_noise_term():
    spec = HomeSpec(seed=52, days=3)
    home = gen_home(spec)
    total = sum(a.values for a in home.appliances.values())
    noise = home.aggregate.values - total
    n = noise.size
    assert abs(noise.mean()) <= 3 * NOISE_SIGMA_W / np.sqrt(n)
    assert noise.std() == pytest.approx(NOISE_SIGMA_W, rel=0.1)


def test_provenance_edges_visible_in_aggregate():
    spec = HomeSpec(seed=53, days=2)
    home = gen_home(spec)
    per = home.aggregate.period_s
    t0 = home.aggregate.start_time
    edges = np.concatenate(list(home.provenance.values()))
    times, counts = np.unique(edges["time"], return_counts=True)
    unique_times = set(times[counts == 1].tolist())
    sigma_step = np.sqrt(2) * np.sqrt(NOISE_SIGMA_W ** 2
                                      + spec.appliance_noise_sigma_w ** 2)
    checked = 0
    for time, delta_w in edges.tolist():
        if abs(delta_w) < 70 or time not in unique_times:
            continue
        i = (time - t0) // per
        step = home.aggregate.values[i] - home.aggregate.values[i - 1]
        assert abs(step - delta_w) <= 5 * sigma_step
        checked += 1
    assert checked >= 100


def test_occupancy_independent_of_background():
    home = gen_home(HomeSpec(seed=54, days=14))
    fridge_on = home.appliances["fridge"].values > 50
    _, occ = home.occupancy
    r = np.corrcoef(fridge_on.astype(float), occ.astype(float))[0, 1]
    assert abs(r) < 0.1


@pytest.mark.parametrize("tz", ["UTC", "America/New_York", "Asia/Tokyo",
                                "Asia/Kolkata"])
def test_schedule_follows_the_local_weekday(tz):
    # A weekday away block starts by 9:00 and runs past 10:00; a weekend one
    # starts at 10:00 or later. So from 9:00 to 10:00 local time every local
    # Monday to Friday is away, and until 10:00 every Saturday and Sunday is
    # at home.
    zone = ZoneInfo(tz)
    for seed in range(4):
        home = gen_home(HomeSpec(seed=seed, days=8, period_s=300, timezone=tz))
        ts, flags = home.occupancy
        local = [datetime.fromtimestamp(t, zone) for t in ts.tolist()]
        hour = np.array([d.hour for d in local])
        weekday = np.array([d.weekday() < 5 for d in local])
        away, at_home = (hour == 9) & weekday, (hour < 10) & ~weekday
        assert away.any() and at_home.any()
        assert not flags[away].any(), (tz, seed)
        assert flags[at_home].all(), (tz, seed)


def test_home_spec_validation():
    """Each value out of range is a ValueError naming its field, whether it
    would have meant something else (occupants 0), failed deep inside the
    generator (an inf cycle duration), passed as no-op (a NaN sigma) or is
    not a number at all (a string)."""
    inf, nan = float("inf"), float("nan")
    for name, value, match in [
        ("seed", -1, "seed must be an integer >= 0"),
        ("seed", 1.5, "seed must be an integer >= 0"),
        ("seed", True, "seed must be an integer >= 0"),
        ("days", 0, "days must be an integer >= 1"),
        ("days", 1.5, "days must be an integer >= 1"),
        ("period_s", 7, "divide"),  # does not divide the day
        ("occupants", -3, "occupants must be an integer >= 1"),
        ("occupants", 0, "occupants must be an integer >= 1"),
        ("occupants", 2.5, "occupants must be an integer >= 1"),
        ("hvac_duty_fraction", 1.2, "hvac_duty_fraction"),
        ("occupant_rate_per_hour", -1.0, "occupant_rate_per_hour"),
        ("occupant_rate_per_hour", nan, "occupant_rate_per_hour"),
        ("fridge_power_w", -150.0, "fridge_power_w must be >= 0"),
        ("fridge_power_w", inf, "fridge_power_w must be >= 0 and finite"),
        ("hvac_power_w", -2000.0, "hvac_power_w must be >= 0"),
        ("hvac_power_w", nan, "hvac_power_w must be >= 0"),
        ("hvac_power_w", inf, "hvac_power_w must be >= 0 and finite"),
        ("baseline_w", -5.0, "baseline_w must be >= 0"),
        ("baseline_w", inf, "baseline_w must be >= 0 and finite"),
        ("appliance_noise_sigma_w", nan, "appliance_noise_sigma_w"),
        ("appliance_noise_sigma_w", inf, "appliance_noise_sigma_w"),
        *((name, value, f"{name} must be > 0 and finite")
          for name in ("fridge_on_s", "fridge_off_s", "hvac_cycle_s")
          for value in (inf, nan)),
        ("occupant_power_range_w", (100.0, inf), "occupant_power_range_w"),
        ("occupant_power_range_w", (100.0,), "occupant_power_range_w must be a pair"),
        ("occupant_power_range_w", ("a", "b"), "occupant_power_range_w must be a pair"),
        ("fridge_power_w", "150", "fridge_power_w must be >= 0 and finite"),
        ("timezone", "Nowhere/Zone", "timezone must be a known zone"),
    ]:
        with pytest.raises(ValueError, match=match):
            gen_home(HomeSpec(**{"seed": 0, "days": 1, name: value}))


def test_corpus_class_coverage(default_corpus):
    records = [label_characteristics(h.characteristics)
               for h in default_corpus.manifest.homes]
    for characteristic, (_, _, _, classes, _) in TAXONOMY.items():
        counts = {c: 0 for c in classes}
        for r in records:
            label = r[characteristic]
            assert label is not None
            counts[label] += 1
        assert min(counts.values()) >= 4, (characteristic, counts)


def test_corpus_occupant_rate_coupling(default_corpus):
    rates = {"LE2": [], "GT2": []}
    for h in default_corpus.manifest.homes:
        home = default_corpus.homes[h.home_id]
        label = "LE2" if h.characteristics["occupants"] <= 2 else "GT2"
        rates[label].append(home.spec.occupant_rate_per_hour)
    assert np.mean(rates["GT2"]) > np.mean(rates["LE2"])
    assert min(rates["GT2"]) > max(rates["LE2"])  # strict by construction


def test_corpus_round_trips_without_warnings(default_corpus):
    manifest = default_corpus.manifest
    entry = manifest.homes[0]  # homes are sorted by id
    assert entry.home_id == "home_00"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = load_power_csv(manifest.resolve(entry.aggregate_path),
                           timezone=entry.timezone)
    home = default_corpus.homes["home_00"]
    assert np.array_equal(s.values, home.aggregate.values)
    # no reading clamped (its warning would have raised) and none gap-filled
    rows = manifest.resolve(entry.aggregate_path).read_text().splitlines()[1:]
    assert len(s) == len({row.split(",")[0] for row in rows})


def test_manifest_states_the_gap_policy_ingest_applies():
    assert MAX_GAP_PERIODS == 10
    meta = gen_corpus(2, seed=1, days=1).manifest.meta
    assert meta["gap_policy"] == "forward-fill <= 10 periods, error beyond"


def test_corpus_deterministic():
    a = gen_corpus(4, seed=9, days=2)
    b = gen_corpus(4, seed=9, days=2)
    for hid in a.homes:
        assert np.array_equal(a.homes[hid].aggregate.values,
                              b.homes[hid].aggregate.values)
    assert [h.characteristics for h in a.manifest.homes] == \
           [h.characteristics for h in b.manifest.homes]


def test_corpus_minimum_size():
    with pytest.raises(ValueError):
        gen_corpus(1, seed=0)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the CPUs from os.sched_getaffinity")
def test_a_worker_error_reaches_the_caller_as_on_the_serial_path(
        tmp_path, monkeypatch, forks):
    """An out_dir under a regular file fails in the forked child on two
    CPUs as it fails in this process on one CPU: the same exception type
    and message, and no child process left behind."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    raised = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        with pytest.raises(OSError) as info:
            gen_corpus(3, days=1, out_dir=blocker / "corpus")
        raised.append((type(info.value), str(info.value)))
        with pytest.raises(ChildProcessError):  # no child left, live or not
            os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 1
    assert raised[0] == raised[1]
    assert raised[0][0] is NotADirectoryError


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the CPUs from os.sched_getaffinity")
def test_a_second_thread_keeps_the_homes_in_process(monkeypatch, forks):
    """Forking a process that runs another thread can deadlock the child, so
    while one runs gen_corpus builds every home in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        corpus = gen_corpus(2, days=1)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forks == []
    assert sorted(corpus.homes) == ["home_00", "home_01"]

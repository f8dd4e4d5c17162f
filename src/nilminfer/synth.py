"""Seeded synthetic-home generator.

Produces aggregate traces with known ground truth: per-appliance sub-traces,
an occupancy schedule, a provenance log of every switching edge, and
household-characteristics metadata. Background loads (fridge, HVAC) cycle
around the clock independently of occupants; occupant-driven loads arrive as
a Poisson process during occupied waking hours only, so nights carry nothing
but background signal.

Occupant load edges are placed at least 3 samples away from every other edge
so that each planted edge appears as a clean, individually recoverable step
in the aggregate.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

from .events import EVENT_DTYPE
from .series import (MAX_GAP_PERIODS, PowerSeries, SECONDS_PER_DAY,
                     DatasetManifest, HomeEntry, local_clock_hours,
                     local_day_bounds, local_weekdays, save_manifest,
                     write_csv, write_occupancy_csv, write_power_csv)
from .workers import map_in_workers

# 2024-01-01 00:00 UTC, a Monday; keeps weekday arithmetic easy to reason about
DEFAULT_START = 1704067200
NOISE_SIGMA_W = 5.0  # additive Gaussian meter noise on the aggregate
OCCUPANT_DURATION_RANGE_S = (300.0, 2700.0)  # occupant load ON time, uniform

AWAKE_START_HOUR = 6.0
AWAKE_END_HOUR = 23.5
EDGE_MARGIN_SAMPLES = 2


@dataclass
class HomeSpec:
    seed: int = 0
    days: int = 14
    period_s: int = 30
    occupants: int = 2
    fridge_power_w: float = 150.0
    fridge_on_s: float = 1200.0
    fridge_off_s: float = 2400.0
    hvac_power_w: float = 2800.0
    hvac_duty_fraction: float = 0.45
    hvac_cycle_s: float = 2700.0
    occupant_rate_per_hour: float = 1.5  # arrivals per occupied waking hour
    occupant_power_range_w: tuple = (100.0, 1200.0)
    baseline_w: float = 100.0
    appliance_noise_sigma_w: float = 2.0
    timezone: str = "UTC"

    def validate(self):
        """A ValueError naming the first field out of range: integer seed >= 0
        and days, period_s, occupants >= 1; a known timezone; the rest real
        numbers (not bools) in range."""
        for name, least in dict(seed=0, days=1, period_s=1, occupants=1).items():
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
        if SECONDS_PER_DAY % self.period_s != 0:
            raise ValueError("period_s must divide 86400")
        try:
            ZoneInfo(self.timezone)
        except (KeyError, TypeError, ValueError):  # ZoneInfoNotFoundError is a KeyError
            raise ValueError("timezone must be a known zone, got "
                             f"{self.timezone!r}") from None
        try:
            lo, hi = self.occupant_power_range_w
        except (TypeError, ValueError):
            lo = hi = None
        checks = [(n, _real_in(getattr(self, n), 0, math.inf, closed=True),
                   ">= 0 and finite")
                  for n in ("fridge_power_w", "hvac_power_w", "baseline_w",
                            "appliance_noise_sigma_w", "occupant_rate_per_hour")]
        checks += [(n, _real_in(getattr(self, n), 0, math.inf), "> 0 and finite")
                   for n in ("fridge_on_s", "fridge_off_s", "hvac_cycle_s")]
        checks += [("hvac_duty_fraction", _real_in(self.hvac_duty_fraction, 0, 1),
                    "in (0, 1)"),
                   ("occupant_power_range_w",
                    _real_in(lo, 0, math.inf) and _real_in(hi, lo, math.inf, closed=True),
                    "a pair > 0, ordered and finite")]
        for name, ok, need in checks:
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)!r}")


def _real_in(v, lo, hi, closed=False) -> bool:
    """Whether v is a real number (not a bool) above lo, or at lo if closed,
    and below hi; NaN is not."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    return (lo <= v if closed else lo < v) and v < hi


@dataclass
class GeneratedHome:
    spec: HomeSpec
    aggregate: PowerSeries
    appliances: dict  # name -> PowerSeries, includes baseline/occupant
    occupancy: tuple  # (timestamps, flags) per sample, as HomeData.occupancy
    provenance: dict  # "fridge", "hvac", "occupant_load" -> EVENT_DTYPE edges


def _cyclic_state(t_rel: np.ndarray, phase: float, on_s: float,
                  cycle_s: float) -> np.ndarray:
    return ((t_rel + phase) % cycle_s) < on_s


def _edges_from_levels(levels: np.ndarray, ts: np.ndarray) -> np.ndarray:
    d = np.diff(levels)
    idx = np.flatnonzero(d)
    edges = np.empty(idx.size, EVENT_DTYPE)
    edges["time"], edges["delta_w"] = ts[idx + 1], d[idx]
    return edges


def _near(i: int) -> slice:
    """The samples within EDGE_MARGIN_SAMPLES of sample i."""
    return slice(max(0, i - EDGE_MARGIN_SAMPLES), i + EDGE_MARGIN_SAMPLES + 1)


def gen_home(spec: HomeSpec) -> GeneratedHome:
    """Generate one home. Identical spec (including seed) gives bit-identical
    output."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    period = spec.period_s
    n = spec.days * SECONDS_PER_DAY // period
    ts = DEFAULT_START + np.arange(n, dtype=np.int64) * period
    t_rel = (ts - DEFAULT_START).astype(float)

    hours = local_clock_hours(ts, spec.timezone)

    # --- occupancy schedule: home except for away blocks, per local day -----
    occupied = np.ones(n, dtype=bool)
    days = np.array(local_day_bounds(int(ts[0]), int(ts[-1]) + period, spec.timezone))
    for wd, (a, b) in zip(local_weekdays(days[:, 0], spec.timezone).tolist(),
                          np.searchsorted(ts, days).tolist()):
        day = slice(a, b)
        h = hours[day]
        if wd < 5:
            away_start = 8.0 + rng.uniform(0.0, 1.0)
            base_end = 16.5 + rng.uniform(0.0, 1.5)
            scale = max(0.35, 1.0 - 0.15 * (spec.occupants - 1))
            away_end = away_start + (base_end - away_start) * scale
            occupied[day] &= ~((h >= away_start) & (h < away_end))
        else:
            if rng.random() < 0.6:
                away_start = 10.0 + rng.uniform(0.0, 4.0)
                away_end = away_start + rng.uniform(1.5, 3.5)
                occupied[day] &= ~((h >= away_start) & (h < away_end))

    # --- background loads (cycle independently of occupancy) ---------------
    fridge_cycle = spec.fridge_on_s + spec.fridge_off_s
    fridge_on = _cyclic_state(t_rel, rng.uniform(0, fridge_cycle),
                              spec.fridge_on_s, fridge_cycle)
    fridge_clean = np.where(fridge_on, spec.fridge_power_w, 0.0)

    hvac_on_s = spec.hvac_duty_fraction * spec.hvac_cycle_s
    hvac_on = _cyclic_state(t_rel, rng.uniform(0, spec.hvac_cycle_s),
                            hvac_on_s, spec.hvac_cycle_s)
    hvac_clean = np.where(hvac_on, spec.hvac_power_w, 0.0)

    baseline = np.full(n, spec.baseline_w)

    provenance = {"fridge": _edges_from_levels(fridge_clean, ts),
                  "hvac": _edges_from_levels(hvac_clean, ts)}

    # occupant edges must not butt up against background edges
    edge_taken = np.zeros(n, dtype=bool)
    for edges in provenance.values():
        for i in ((edges["time"] - DEFAULT_START) // period).tolist():
            edge_taken[_near(i)] = True

    # --- occupant-driven loads during occupied waking hours ----------------
    occupant_clean = np.zeros(n)
    occupant_edges = []
    awake = occupied & (hours >= AWAKE_START_HOUR) & (hours < AWAKE_END_HOUR)
    if spec.occupant_rate_per_hour > 0:
        padded = np.concatenate(([False], awake, [False]))
        bounds = np.flatnonzero(np.diff(padded.astype(np.int8)))
        for a, b in zip(bounds[::2], bounds[1::2]):
            run_len = int(b - a)
            if run_len < 6:
                continue
            k = rng.poisson(spec.occupant_rate_per_hour * (run_len * period / 3600.0))
            for _ in range(k):
                for _try in range(12):
                    on_i = int(a + rng.integers(0, run_len))
                    dur = rng.uniform(*OCCUPANT_DURATION_RANGE_S)
                    off_i = on_i + max(2, int(round(dur / period)))
                    if off_i >= b:
                        continue
                    if edge_taken[_near(on_i)].any() or edge_taken[_near(off_i)].any():
                        continue
                    power = rng.uniform(*spec.occupant_power_range_w)
                    occupant_clean[on_i:off_i] += power
                    edge_taken[_near(on_i)] = edge_taken[_near(off_i)] = True
                    occupant_edges += [(ts[on_i], power), (ts[off_i], -power)]
                    break
    provenance["occupant_load"] = np.sort(np.array(occupant_edges, EVENT_DTYPE),
                                          order="time")

    # --- assemble traces ----------------------------------------------------
    app_sigma = spec.appliance_noise_sigma_w
    fridge_trace = np.maximum(fridge_clean + rng.normal(0, app_sigma, n), 0.0) \
        if app_sigma > 0 else fridge_clean
    hvac_trace = np.maximum(hvac_clean + rng.normal(0, app_sigma, n), 0.0) \
        if app_sigma > 0 else hvac_clean

    total = (fridge_trace + hvac_trace + baseline + occupant_clean
             + rng.normal(0, NOISE_SIGMA_W, n))
    aggregate = PowerSeries(DEFAULT_START, period, np.maximum(total, 0.0),
                            spec.timezone)

    appliances = {
        "fridge": PowerSeries(DEFAULT_START, period, fridge_trace, spec.timezone),
        "hvac": PowerSeries(DEFAULT_START, period, hvac_trace, spec.timezone),
        "baseline": PowerSeries(DEFAULT_START, period, baseline, spec.timezone),
        "occupant": PowerSeries(DEFAULT_START, period, occupant_clean, spec.timezone),
    }

    return GeneratedHome(spec=spec, aggregate=aggregate, appliances=appliances,
                         occupancy=(ts, occupied), provenance=provenance)


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------

@dataclass
class Corpus:
    manifest: DatasetManifest
    homes: dict  # home_id -> GeneratedHome


def _class_counts(n: int, fractions: tuple) -> list[int]:
    counts = [int(round(n * f)) for f in fractions]
    counts[-1] = n - sum(counts[:-1])
    if n >= 4 * len(fractions):
        # keep every class represented well enough for 2-fold CV
        for i in range(len(counts)):
            while counts[i] < 4:
                j = int(np.argmax(counts))
                counts[j] -= 1
                counts[i] += 1
    return counts


def _assign(rng, n, options, fractions):
    labels = np.array([opt for opt, c in zip(options, _class_counts(n, fractions))
                       for _ in range(c)], dtype=object)
    rng.shuffle(labels)
    return labels


def gen_corpus(n: int = 20, seed: int = 7, days: int = 14, period_s: int = 30,
               out_dir=None, timezone: str = "UTC") -> Corpus:
    """Generate a corpus of homes whose characteristics correlate with their
    electrical behavior (more occupants -> more switching, larger area ->
    bigger HVAC, older home -> longer HVAC duty), then optionally write CSVs
    plus a manifest to out_dir. HVAC circuits, drawn to follow floors, exist
    only as manifest metadata (hvac_circuits): no trace depends on them.
    Every spec is drawn before any home is built, so the output is the same
    whether the homes are built in this process or in worker processes.
    """
    if n < 2:
        raise ValueError("need at least 2 homes")
    rng = np.random.default_rng(seed)
    base = Path(out_dir) if out_dir is not None else None

    occ_class = _assign(rng, n, ("LE2", "GT2"), (0.55, 0.45))
    area_class = _assign(rng, n, ("Medium", "High"), (0.5, 0.5))
    floors_class = _assign(rng, n, ("One", "TwoPlus"), (0.55, 0.45))
    rooms_class = _assign(rng, n, ("LE6", "SevenToEight", "GT8"), (0.35, 0.35, 0.3))
    income_class = _assign(rng, n, ("Below150k", "Above150k"), (0.6, 0.4))
    age_class = _assign(rng, n, ("Old", "New"), (0.5, 0.5))

    specs, entries = [], []
    for i in range(n):
        occupants = int(rng.integers(1, 3)) if occ_class[i] == "LE2" \
            else int(rng.integers(3, 6))
        rate = rng.uniform(1.4, 2.0) if occ_class[i] == "LE2" \
            else rng.uniform(2.8, 3.8)
        area = rng.uniform(1000, 1750) if area_class[i] == "Medium" \
            else rng.uniform(1900, 3400)
        # bigger homes and fuller homes both need more conditioning; keep the
        # smallest HVAC well above the largest occupant load so magnitude
        # clustering separates them
        hvac_power = 800.0 + 0.3 * area + 700.0 * occupants + rng.uniform(-50, 50)
        floors = 1 if floors_class[i] == "One" else int(rng.integers(2, 4))
        circuits = 1 if floors == 1 else int(rng.integers(2, 4))
        rooms = {"LE6": (4, 7), "SevenToEight": (7, 9), "GT8": (9, 12)}[rooms_class[i]]
        rooms = int(rng.integers(*rooms))
        income = rng.uniform(40_000, 140_000) if income_class[i] == "Below150k" \
            else rng.uniform(155_000, 300_000)
        power_hi = 1000.0 if income_class[i] == "Below150k" else 1500.0
        age = rng.uniform(31, 70) if age_class[i] == "Old" else rng.uniform(3, 28)
        duty = rng.uniform(0.50, 0.68) if age_class[i] == "Old" \
            else rng.uniform(0.30, 0.45)

        home_id = f"home_{i:02d}"
        specs.append(HomeSpec(
            seed=seed * 1009 + i,
            days=days,
            period_s=period_s,
            occupants=occupants,
            fridge_power_w=rng.uniform(130, 175),
            fridge_on_s=1200 + rng.uniform(-120, 120),
            fridge_off_s=2400 + rng.uniform(-240, 240),
            hvac_power_w=hvac_power,
            hvac_duty_fraction=duty,
            hvac_cycle_s=rng.uniform(1800, 3600),
            occupant_rate_per_hour=rate,
            occupant_power_range_w=(100.0, power_hi),
            baseline_w=40.0 + 10.0 * rooms,
            timezone=timezone,
        ))
        entries.append(HomeEntry(
            home_id=home_id,
            aggregate_path=f"{home_id}/aggregate.csv",
            appliance_paths={name: f"{home_id}/{name}.csv" for name in ("fridge", "hvac")},
            occupancy_path=f"{home_id}/occupancy.csv",
            timezone=timezone,
            characteristics={
                "age_years": round(age, 1),
                "area_sqft": round(area, 1),
                "income_usd_per_year": round(income, 2),
                "floors": floors,
                "rooms": rooms,
                "occupants": occupants,
            },
            hvac_circuits=circuits,
        ))

    # Each home depends only on its spec, so the homes are built side by
    # side, across the CPUs this process may run on.
    built = map_in_workers(_build_home, specs, entries, [base] * n)
    homes = {entry.home_id: home for entry, home in zip(entries, built)}

    manifest = DatasetManifest(
        homes=entries, base_dir=base,
        meta={"seed": seed, "generator": "nilminfer.synth",
              "gap_policy": f"forward-fill <= {MAX_GAP_PERIODS} periods, error beyond"})
    if base is not None:
        save_manifest(manifest, base / "manifest.json")
    return Corpus(manifest=manifest, homes=homes)


def _build_home(spec: HomeSpec, entry: HomeEntry, base: Path | None) -> GeneratedHome:
    """gen_home(spec), its files written under base unless base is None."""
    home = gen_home(spec)
    if base is not None:
        _write_home(home, entry, base)
    return home


def _write_home(home: GeneratedHome, entry: HomeEntry, base: Path) -> None:
    """The home's CSVs at the entry's paths under base, and every planted
    edge in <home_id>/provenance.csv, sorted by time and then by source."""
    (base / entry.home_id).mkdir(parents=True, exist_ok=True)
    write_power_csv(home.aggregate, base / entry.aggregate_path)
    for name, rel in entry.appliance_paths.items():
        write_power_csv(home.appliances[name], base / rel)
    write_occupancy_csv(*home.occupancy, base / entry.occupancy_path)
    rows = sorted((t, src, d) for src, edges in home.provenance.items()
                  for t, d in zip(edges["time"].tolist(), edges["delta_w"].tolist()))
    write_csv(base / entry.home_id / "provenance.csv", ("time", "delta_w", "source"),
              ((t, d, src) for t, src, d in rows))

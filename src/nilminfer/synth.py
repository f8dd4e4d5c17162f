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

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .series import (OccupancySeries, PowerSeries, SECONDS_PER_DAY,
                     DatasetManifest, HomeEntry, local_clock_hours,
                     local_weekdays, save_manifest, window_occupancy,
                     write_occupancy_csv, write_power_csv)

# 2024-01-01 00:00 UTC, a Monday; keeps weekday arithmetic easy to reason about
DEFAULT_START = 1704067200

AWAKE_START_HOUR = 6.0
AWAKE_END_HOUR = 23.5
EDGE_MARGIN_SAMPLES = 2


@dataclass
class CyclicLoadSpec:
    power_w: float = 150.0
    on_s: float = 1200.0
    off_s: float = 2400.0


@dataclass
class HvacSpec:
    power_w: float = 2800.0
    duty_fraction: float = 0.45
    cycle_s: float = 2700.0
    circuits: int = 1


@dataclass
class OccupantLoadSpec:
    rate_per_occupied_hour: float = 1.5
    power_range_w: tuple = (100.0, 1200.0)
    duration_range_s: tuple = (300.0, 2700.0)


@dataclass
class HomeSpec:
    seed: int = 0
    days: int = 14
    period_s: int = 30
    occupants: int = 2
    area_sqft: float = 1500.0
    floors: int = 1
    rooms: int = 6
    income_usd: float = 90000.0
    age_years: float = 20.0
    fridge: CyclicLoadSpec = field(default_factory=CyclicLoadSpec)
    hvac: HvacSpec = field(default_factory=HvacSpec)
    occupant_load: OccupantLoadSpec = field(default_factory=OccupantLoadSpec)
    baseline_w: float = 100.0
    noise_sigma_w: float = 5.0
    appliance_noise_sigma_w: float = 2.0
    timezone: str = "UTC"
    start_time: int = DEFAULT_START

    def validate(self):
        if self.days < 1 or self.period_s < 1:
            raise ValueError("days and period_s must be positive")
        if SECONDS_PER_DAY % self.period_s != 0:
            raise ValueError("period_s must divide 86400")
        if not 0 < self.hvac.duty_fraction < 1:
            raise ValueError("hvac duty_fraction must be in (0, 1)")
        if self.noise_sigma_w < 0 or self.appliance_noise_sigma_w < 0:
            raise ValueError("noise sigma must be >= 0")
        if self.occupant_load.rate_per_occupied_hour < 0:
            raise ValueError("occupant load rate must be >= 0")
        for lo, hi in (self.occupant_load.power_range_w,
                       self.occupant_load.duration_range_s):
            if not 0 < lo <= hi:
                raise ValueError("ranges must be positive and ordered")
        if min(self.fridge.on_s, self.fridge.off_s, self.hvac.cycle_s) <= 0:
            raise ValueError("cycle durations must be positive")


@dataclass(frozen=True)
class ProvenanceEdge:
    time: int
    delta_w: float
    source: str


@dataclass
class GeneratedHome:
    spec: HomeSpec
    aggregate: PowerSeries
    appliances: dict          # name -> PowerSeries, includes baseline/occupant
    occupancy_ts: np.ndarray  # per-sample timestamps
    occupancy_flags: np.ndarray
    occupancy: OccupancySeries  # truth at 900 s windows
    provenance: list

    def foreground_edges(self) -> list:
        return [e for e in self.provenance if e.source == "occupant_load"]


def _cyclic_state(t_rel: np.ndarray, phase: float, on_s: float,
                  cycle_s: float) -> np.ndarray:
    return ((t_rel + phase) % cycle_s) < on_s


def _edges_from_levels(levels: np.ndarray, ts: np.ndarray, source: str) -> list:
    d = np.diff(levels)
    idx = np.flatnonzero(d)
    return [ProvenanceEdge(int(ts[i + 1]), float(d[i]), source) for i in idx]


def gen_home(spec: HomeSpec) -> GeneratedHome:
    """Generate one home. Identical spec (including seed) gives bit-identical
    output."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    period = spec.period_s
    spd = SECONDS_PER_DAY // period
    n = spec.days * spd
    ts = spec.start_time + np.arange(n, dtype=np.int64) * period
    t_rel = (ts - spec.start_time).astype(float)

    hours = local_clock_hours(ts, spec.timezone)
    weekdays = local_weekdays(ts, spec.timezone)

    # --- occupancy schedule: home except for away blocks -------------------
    occupied = np.ones(n, dtype=bool)
    for d in range(spec.days):
        day = slice(d * spd, (d + 1) * spd)
        h = hours[day]
        if weekdays[d * spd] < 5:
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
    fridge_cycle = spec.fridge.on_s + spec.fridge.off_s
    fridge_on = _cyclic_state(t_rel, rng.uniform(0, fridge_cycle),
                              spec.fridge.on_s, fridge_cycle)
    fridge_clean = np.where(fridge_on, spec.fridge.power_w, 0.0)

    hvac_on_s = spec.hvac.duty_fraction * spec.hvac.cycle_s
    hvac_on = _cyclic_state(t_rel, rng.uniform(0, spec.hvac.cycle_s),
                            hvac_on_s, spec.hvac.cycle_s)
    hvac_clean = np.where(hvac_on & (spec.hvac.power_w > 0),
                          spec.hvac.power_w, 0.0)

    baseline = np.full(n, spec.baseline_w)

    provenance = (_edges_from_levels(fridge_clean, ts, "fridge")
                  + _edges_from_levels(hvac_clean, ts, "hvac"))

    # occupant edges must not butt up against background edges
    edge_taken = np.zeros(n, dtype=bool)
    for e in provenance:
        i = int((e.time - spec.start_time) // period)
        edge_taken[max(0, i - EDGE_MARGIN_SAMPLES):i + EDGE_MARGIN_SAMPLES + 1] = True

    # --- occupant-driven loads during occupied waking hours ----------------
    occupant_clean = np.zeros(n)
    awake = occupied & (hours >= AWAKE_START_HOUR) & (hours < AWAKE_END_HOUR)
    load_spec = spec.occupant_load
    if load_spec.rate_per_occupied_hour > 0:
        padded = np.concatenate(([False], awake, [False]))
        bounds = np.flatnonzero(np.diff(padded.astype(np.int8)))
        for a, b in zip(bounds[::2], bounds[1::2]):
            run_len = int(b - a)
            if run_len < 6:
                continue
            run_hours = run_len * period / 3600.0
            k = rng.poisson(load_spec.rate_per_occupied_hour * run_hours)
            for _ in range(k):
                for _try in range(12):
                    on_i = int(a + rng.integers(0, run_len))
                    dur = rng.uniform(*load_spec.duration_range_s)
                    off_i = on_i + max(2, int(round(dur / period)))
                    if off_i >= b:
                        continue
                    if edge_taken[max(0, on_i - EDGE_MARGIN_SAMPLES):
                                  on_i + EDGE_MARGIN_SAMPLES + 1].any():
                        continue
                    if edge_taken[max(0, off_i - EDGE_MARGIN_SAMPLES):
                                  off_i + EDGE_MARGIN_SAMPLES + 1].any():
                        continue
                    power = rng.uniform(*load_spec.power_range_w)
                    occupant_clean[on_i:off_i] += power
                    for i in (on_i, off_i):
                        edge_taken[max(0, i - EDGE_MARGIN_SAMPLES):
                                   i + EDGE_MARGIN_SAMPLES + 1] = True
                    provenance.append(
                        ProvenanceEdge(int(ts[on_i]), power, "occupant_load"))
                    provenance.append(
                        ProvenanceEdge(int(ts[off_i]), -power, "occupant_load"))
                    break

    provenance.sort(key=lambda e: (e.time, e.source))

    # --- assemble traces ----------------------------------------------------
    app_sigma = spec.appliance_noise_sigma_w
    fridge_trace = np.maximum(fridge_clean + rng.normal(0, app_sigma, n), 0.0) \
        if app_sigma > 0 else fridge_clean
    hvac_trace = np.maximum(hvac_clean + rng.normal(0, app_sigma, n), 0.0) \
        if app_sigma > 0 else hvac_clean

    total = fridge_trace + hvac_trace + baseline + occupant_clean
    if spec.noise_sigma_w > 0:
        total = total + rng.normal(0, spec.noise_sigma_w, n)
    aggregate = PowerSeries(spec.start_time, period, np.maximum(total, 0.0),
                            spec.timezone)

    appliances = {
        "fridge": PowerSeries(spec.start_time, period, fridge_trace, spec.timezone),
        "hvac": PowerSeries(spec.start_time, period, hvac_trace, spec.timezone),
        "baseline": PowerSeries(spec.start_time, period, baseline, spec.timezone),
        "occupant": PowerSeries(spec.start_time, period, occupant_clean, spec.timezone),
    }

    occupancy = window_occupancy(
        ts, occupied, window_start=spec.start_time, window_s=900,
        n_windows=spec.days * SECONDS_PER_DAY // 900, timezone=spec.timezone)

    return GeneratedHome(spec=spec, aggregate=aggregate, appliances=appliances,
                         occupancy_ts=ts, occupancy_flags=occupied,
                         occupancy=occupancy, provenance=provenance)


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
    labels = []
    for opt, c in zip(options, _class_counts(n, fractions)):
        labels.extend([opt] * c)
    labels = np.array(labels, dtype=object)
    rng.shuffle(labels)
    return labels


def gen_corpus(n: int = 20, seed: int = 7, days: int = 14, period_s: int = 30,
               out_dir=None, timezone: str = "UTC") -> Corpus:
    """Generate a corpus of homes whose characteristics correlate with their
    electrical behavior (more occupants -> more switching, larger area ->
    bigger HVAC, older home -> longer HVAC duty, more floors -> more HVAC
    circuits), then optionally write CSVs plus a manifest to out_dir.
    """
    if n < 2:
        raise ValueError("need at least 2 homes")
    rng = np.random.default_rng(seed)

    occ_class = _assign(rng, n, ("LE2", "GT2"), (0.55, 0.45))
    area_class = _assign(rng, n, ("Medium", "High"), (0.5, 0.5))
    floors_class = _assign(rng, n, ("One", "TwoPlus"), (0.55, 0.45))
    rooms_class = _assign(rng, n, ("LE6", "SevenToEight", "GT8"), (0.35, 0.35, 0.3))
    income_class = _assign(rng, n, ("Below150k", "Above150k"), (0.6, 0.4))
    age_class = _assign(rng, n, ("Old", "New"), (0.5, 0.5))

    homes = {}
    entries = []
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

        spec = HomeSpec(
            seed=seed * 1009 + i,
            days=days,
            period_s=period_s,
            occupants=occupants,
            area_sqft=round(area, 1),
            floors=floors,
            rooms=rooms,
            income_usd=round(income, 2),
            age_years=round(age, 1),
            fridge=CyclicLoadSpec(power_w=rng.uniform(130, 175),
                                  on_s=1200 + rng.uniform(-120, 120),
                                  off_s=2400 + rng.uniform(-240, 240)),
            hvac=HvacSpec(power_w=hvac_power, duty_fraction=duty,
                          cycle_s=rng.uniform(1800, 3600), circuits=circuits),
            occupant_load=OccupantLoadSpec(rate_per_occupied_hour=rate,
                                           power_range_w=(100.0, power_hi),
                                           duration_range_s=(300.0, 2700.0)),
            baseline_w=40.0 + 10.0 * rooms,
            timezone=timezone,
        )
        home_id = f"home_{i:02d}"
        homes[home_id] = gen_home(spec)
        entries.append((home_id, spec))

    manifest = _build_manifest(entries, homes, seed, out_dir)
    return Corpus(manifest=manifest, homes=homes)


def _build_manifest(entries, homes, seed, out_dir) -> DatasetManifest:
    home_entries = []
    base = Path(out_dir) if out_dir is not None else None
    for home_id, spec in entries:
        gh = homes[home_id]
        rel_agg = f"{home_id}/aggregate.csv"
        rel_apps = {name: f"{home_id}/{name}.csv" for name in ("fridge", "hvac")}
        rel_occ = f"{home_id}/occupancy.csv"
        if base is not None:
            d = base / home_id
            d.mkdir(parents=True, exist_ok=True)
            write_power_csv(gh.aggregate, base / rel_agg)
            for name, rel in rel_apps.items():
                write_power_csv(gh.appliances[name], base / rel)
            write_occupancy_csv(gh.occupancy_ts, gh.occupancy_flags, base / rel_occ)
            with open(d / "provenance.csv", "w") as f:
                f.write("time,delta_w,source\n")
                for e in gh.provenance:
                    f.write(f"{e.time},{e.delta_w!r},{e.source}\n")
        home_entries.append(HomeEntry(
            home_id=home_id,
            aggregate_path=rel_agg,
            appliance_paths=rel_apps,
            occupancy_path=rel_occ,
            timezone=spec.timezone,
            characteristics={
                "age_years": spec.age_years,
                "area_sqft": spec.area_sqft,
                "income_usd_per_year": spec.income_usd,
                "floors": spec.floors,
                "rooms": spec.rooms,
                "occupants": spec.occupants,
            },
            hvac_circuits=spec.hvac.circuits,
        ))
    manifest = DatasetManifest(
        homes=home_entries, base_dir=base,
        meta={"seed": seed, "generator": "nilminfer.synth",
              "gap_policy": "forward-fill <= 10 periods, error beyond"})
    if base is not None:
        save_manifest(manifest, base / "manifest.json")
    return manifest

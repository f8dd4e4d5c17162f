"""Appliance disaggregation: supervised factorial HMM with exact Viterbi
decoding, unsupervised event-cluster trace reconstruction, and the standard
NILM accuracy metrics.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DegenerateModelError
from .events import (HVAC_MIN_W, DetectorConfig, cluster_magnitudes,
                     detect_events, pair_events)
from .series import PowerSeries

PRODUCT_STATE_CAP = 4096
OFF_SNAP_W = 15.0
VAR_FLOOR_W2 = 1.0
ON_THRESHOLD_W = 50.0  # a trace is ON where its power is strictly above this


@dataclass(frozen=True)
class ApplianceHMM:
    """Discrete-state power model with Gaussian emissions.

    State 0 is OFF (mean forced to 0 when the lowest centroid sits below
    15 W); means are sorted ascending; rows of the transition matrix and the
    initial distribution are simplexes.
    """
    name: str
    state_means_w: np.ndarray
    state_vars: np.ndarray
    transition: np.ndarray
    initial: np.ndarray
    period_s: int

    def __post_init__(self):
        means = np.asarray(self.state_means_w, dtype=float)
        if means.size < 2:
            raise ValueError("need at least 2 states")
        if np.any(np.diff(means) < 0):
            raise ValueError("state means must be sorted ascending")
        trans = np.asarray(self.transition, dtype=float)
        init = np.asarray(self.initial, dtype=float)
        if not np.allclose(trans.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition rows must sum to 1")
        if not np.isclose(init.sum(), 1.0, atol=1e-9):
            raise ValueError("initial distribution must sum to 1")
        object.__setattr__(self, "state_means_w", means)
        object.__setattr__(self, "state_vars",
                           np.asarray(self.state_vars, dtype=float))
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "initial", init)

    @property
    def n_states(self) -> int:
        return int(self.state_means_w.size)


@dataclass
class DisaggResult:
    appliances: dict            # name -> PowerSeries
    residual: PowerSeries
    flags: dict = field(default_factory=dict)


def _kmeans_1d(values: np.ndarray, k: int, seed: int, restarts: int):
    """Plain Lloyd's k-means on 1-D data with several seeded restarts; returns
    the centers with the best inertia, sorted ascending."""
    rng = np.random.default_rng(seed)
    uniq = np.unique(values)
    if uniq.size < k:
        raise DegenerateModelError(
            f"only {uniq.size} distinct values for {k} states")
    best_centers, best_inertia = None, np.inf
    for _ in range(restarts):
        centers = np.sort(rng.choice(uniq, size=k, replace=False))
        for _it in range(100):
            assign = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
            new = centers.copy()
            for j in range(k):
                sel = values[assign == j]
                if sel.size:
                    new[j] = sel.mean()
            new = np.sort(new)
            if np.allclose(new, centers):
                centers = new
                break
            centers = new
        inertia = float(((values - centers[np.argmin(
            np.abs(values[:, None] - centers[None, :]), axis=1)]) ** 2).sum())
        if inertia < best_inertia:
            best_inertia, best_centers = inertia, centers
    return best_centers


def train_hmm(appliance: PowerSeries, n_states: int = 2, *, name: str = "",
              seed: int = 0) -> ApplianceHMM:
    """Fit a per-appliance HMM from its submetered trace.

    Levels come from seeded 1-D k-means (n_states restarts, best inertia);
    the lowest level snaps to 0 when below 15 W. Transitions are empirical
    counts with add-one smoothing so short training halves cannot produce
    zero-probability lockups; per-state emission variance is floored at
    1 W^2.
    """
    if n_states < 2:
        raise ValueError("need at least 2 states")
    if len(appliance) < 10 * n_states:
        raise ValueError(f"need at least {10 * n_states} samples")
    values = appliance.values.astype(float)

    centers = _kmeans_1d(values, n_states, seed, restarts=n_states)
    if centers[0] < OFF_SNAP_W:
        centers = centers.copy()
        centers[0] = 0.0
    if np.any(np.diff(centers) < 1e-9):
        raise DegenerateModelError(
            f"state levels collapsed to duplicates: {centers}")

    assign = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
    counts = np.zeros((n_states, n_states))
    np.add.at(counts, (assign[:-1], assign[1:]), 1.0)
    transition = (counts + 1.0) / (counts + 1.0).sum(axis=1, keepdims=True)
    initial = np.bincount(assign, minlength=n_states).astype(float)
    initial /= initial.sum()
    variances = np.empty(n_states)
    for j in range(n_states):
        sel = values[assign == j]
        variances[j] = max(sel.var(), VAR_FLOOR_W2) if sel.size else VAR_FLOOR_W2

    return ApplianceHMM(name=name or appliance.meta.get("source", "appliance"),
                        state_means_w=centers, state_vars=variances,
                        transition=transition, initial=initial,
                        period_s=appliance.period_s)


def train_appliance_models(traces: dict, *, seed: int,
                           home_id: str) -> list[ApplianceHMM]:
    """One HMM per submetered appliance of a home, in name order: 3 states
    for hvac and 2 for anything else. An hvac fit that collapses is retried
    at 2 states; an appliance that cannot be fitted at 2 states is skipped
    with a warning. traces maps appliance name -> training series."""
    models = []
    for name, trace in sorted(traces.items()):
        for k in ((3, 2) if name == "hvac" else (2,)):
            try:
                models.append(train_hmm(trace, k, name=name, seed=seed))
                break
            except DegenerateModelError:
                continue
        else:
            warnings.warn(f"skipping degenerate appliance {name} for home "
                          f"{home_id}", stacklevel=2)
    return models


def _product_space(models: list[ApplianceHMM]):
    ks = [m.n_states for m in models]
    total = int(np.prod(ks))
    if total > PRODUCT_STATE_CAP:
        raise CapacityError(
            f"product state space {total} exceeds {PRODUCT_STATE_CAP}; reduce "
            f"state counts or the number of appliances")
    # appliance 0 owns the most significant digit of the product index
    return total, np.indices(ks).reshape(len(ks), -1).T


def _viterbi(log_init, log_trans, log_emit):
    """(MAP path, final log scores) of a dense HMM; ties to the lowest state."""
    n, total = log_emit.shape
    delta = log_init + log_emit[0]
    psi = np.empty((n, total), dtype=np.int32)
    scores = np.empty((total, total))
    for t in range(1, n):
        np.add(delta[:, None], log_trans, out=scores)
        psi[t] = scores.argmax(axis=0)
        scores.max(axis=0, out=delta)
        delta += log_emit[t]
    path = np.empty(n, dtype=np.int32)
    path[-1] = int(np.argmax(delta))
    for t in range(n - 1, 0, -1):
        path[t - 1] = psi[t, path[t]]
    return path, delta


def fhmm_disaggregate(aggregate: PowerSeries,
                      models: list[ApplianceHMM]) -> DisaggResult:
    """Exact MAP decoding of the additive factorial model.

    Viterbi over the product state space with Gaussian emissions (mean and
    variance both sum over appliances) and factorized transitions. Ties take
    the lowest product-state index. Each appliance's trace reads out its
    state mean along the MAP path; the residual is the aggregate minus the
    sum of predictions, clamped at zero.
    """
    if not models:
        raise ValueError("need at least one appliance model")
    for m in models:
        if m.period_s != aggregate.period_s:
            raise ValueError(
                f"model {m.name} was trained at period {m.period_s}s but the "
                f"aggregate has period {aggregate.period_s}s")
    total, digits = _product_space(models)

    means = np.zeros(total)
    variances = np.zeros(total)
    log_init = np.zeros(total)
    log_trans = np.zeros((total, total))
    for i, m in enumerate(models):
        means += m.state_means_w[digits[:, i]]
        variances += m.state_vars[digits[:, i]]
        log_init += np.log(m.initial[digits[:, i]])
        log_trans += np.log(m.transition[np.ix_(digits[:, i], digits[:, i])])

    x = aggregate.values
    log_emit = (-0.5 * np.log(2 * np.pi * variances)[None, :]
                - (x[:, None] - means[None, :]) ** 2 / (2 * variances)[None, :])

    path, _ = _viterbi(log_init, log_trans, log_emit)

    appliances = {}
    pred_sum = np.zeros(x.size)
    for i, m in enumerate(models):
        trace = m.state_means_w[digits[path, i]]
        pred_sum += trace
        appliances[m.name] = PowerSeries(aggregate.start_time,
                                         aggregate.period_s, trace,
                                         aggregate.timezone)
    residual = PowerSeries(aggregate.start_time, aggregate.period_s,
                           np.maximum(x - pred_sum, 0.0), aggregate.timezone)
    return DisaggResult(appliances=appliances, residual=residual)


def hart_disaggregate(aggregate: PowerSeries,
                      det: DetectorConfig | None = None) -> DisaggResult:
    """Unsupervised disaggregation: hart_reconstruct on the aggregate's pairs."""
    det = det or DetectorConfig()
    events = detect_events(aggregate, det.steady_tol_w, det.min_event_w)
    pairs = pair_events(events, det.match_tol_frac, det.max_duration_s)
    return hart_reconstruct(aggregate, pairs)


def hart_reconstruct(aggregate: PowerSeries, pairs: list) -> DisaggResult:
    """Hart's event-pair clustering (Proc. IEEE, 1992) of the aggregate's pairs.

    The top magnitude cluster, the last of cluster_magnitudes, becomes
    "highest_power_appliance": rectangular pulses over its pairs' ON
    intervals. That same series is "hvac" when its center is at least
    HVAC_MIN_W; otherwise "hvac" is all zeros, flagged hvac_absent. The
    residual is the aggregate less the top trace, clamped at 0.
    """
    clusters = cluster_magnitudes(np.array([p.magnitude_w for p in pairs]))
    t0, per, tz = aggregate.start_time, aggregate.period_s, aggregate.timezone
    trace = np.zeros(len(aggregate))
    flags: dict = {}
    if clusters:
        top = clusters[-1]
        for idx in top["indices"]:
            p = pairs[int(idx)]
            a = (p.on_time - t0) // per
            b = (p.off_time - t0) // per
            trace[a:b] += p.magnitude_w
        flags["highest_center_w"] = top["center"]
        flags["top_cluster_magnitudes"] = [float(v) for v in top["values"]]
    else:
        flags["no_clusters"] = True
    highest = PowerSeries(t0, per, trace, tz)
    if clusters and top["center"] >= HVAC_MIN_W:
        hvac = highest
        flags["hvac_center_w"] = top["center"]
        flags["highest_power_is_hvac"] = True
    else:
        hvac = PowerSeries(t0, per, np.zeros_like(trace), tz)
        flags["hvac_absent"] = True
    residual = PowerSeries(t0, per, np.maximum(aggregate.values - trace, 0.0), tz)
    return DisaggResult(appliances={"hvac": hvac, "highest_power_appliance": highest},
                        residual=residual, flags=flags)


@dataclass(frozen=True)
class NilmMetrics:
    """error_energy_pct is None when the truth carries zero energy (the
    metric is undefined there); rmse and F-score are always computed."""
    error_energy_pct: float | None
    rmse_w: float
    fscore: float

    def as_dict(self) -> dict:
        return {"error_energy_pct": self.error_energy_pct,
                "rmse_w": self.rmse_w, "fscore": self.fscore}


def nilm_metrics(pred: PowerSeries, truth: PowerSeries,
                 on_threshold_w: float = ON_THRESHOLD_W) -> NilmMetrics:
    """Percent energy error, RMSE power, and F-score on the ON indicator
    (power strictly above on_threshold_w)."""
    if len(pred) != len(truth) or pred.period_s != truth.period_s:
        raise ValueError("pred and truth must share length and period")
    p, t = pred.values, truth.values
    rmse = float(np.sqrt(np.mean((p - t) ** 2)))

    truth_energy = float(t.sum())
    if truth_energy > 0:
        error_energy = abs(float(p.sum()) - truth_energy) * 100.0 / truth_energy
    else:
        error_energy = None

    p_on = p > on_threshold_w
    t_on = t > on_threshold_w
    tp = float((p_on & t_on).sum())
    precision = tp / p_on.sum() if p_on.sum() else 0.0
    recall = tp / t_on.sum() if t_on.sum() else 0.0
    fscore = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
    return NilmMetrics(error_energy_pct=error_energy, rmse_w=rmse, fscore=fscore)

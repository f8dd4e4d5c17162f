"""Appliance disaggregation: supervised factorial HMM with exact Viterbi
decoding, unsupervised event-cluster trace reconstruction, and the standard
NILM accuracy metrics.
"""
from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateModelError
from .events import (HVAC_MIN_W, DetectorConfig, cluster_magnitudes,
                     detect_events, pair_events)
from .series import HomeData, PowerSeries, check_same_axis

# Dense decoding of one day at 30 s, 4-state appliances, 2-core VM, numpy 2.4:
# 0.02 s at 64 states, 0.15 s at 256, 3.1-3.2 s at 1024 (80-81 MB peak RSS).
# At 4096 states each (S, S) score matrix would be 128 MiB.
PRODUCT_STATE_CAP = 1024
EMIT_BLOCK = 1024  # steps of log emissions computed at a time
OFF_SNAP_W = 15.0
VAR_FLOOR_W2 = 1.0
ON_THRESHOLD_W = 50.0  # a trace is ON where its power is strictly above this


@dataclass(frozen=True)
class ApplianceHMM:
    """Discrete-state power model with Gaussian emissions.

    State 0 is OFF (mean forced to 0 when the lowest centroid sits below
    15 W); means are sorted ascending; rows of the transition matrix and the
    initial distribution are simplexes; variances are finite and positive.
    A model that breaks any of these raises a ValueError naming it.
    """
    name: str
    state_means_w: np.ndarray
    state_vars: np.ndarray
    transition: np.ndarray
    initial: np.ndarray
    period_s: int

    def __post_init__(self):
        def fail(problem: str):
            raise ValueError(f"appliance model {self.name}: {problem}")

        means = np.asarray(self.state_means_w, dtype=float)
        if means.ndim != 1 or means.size < 2:
            fail("need at least 2 states")
        if np.any(np.diff(means) < 0):
            fail("state means must be sorted ascending")
        k = means.size
        variances = np.asarray(self.state_vars, dtype=float)
        trans = np.asarray(self.transition, dtype=float)
        init = np.asarray(self.initial, dtype=float)
        for label, arr, shape in (("state_vars", variances, (k,)),
                                  ("initial", init, (k,)),
                                  ("transition", trans, (k, k))):
            if arr.shape != shape:
                fail(f"{label} has shape {arr.shape}, need {shape}")
        if not (np.all(np.isfinite(variances)) and np.all(variances > 0)):
            fail(f"variances must be finite and > 0, got {variances}")
        if np.any(trans < 0) or np.any(init < 0):
            fail("probabilities must be >= 0")
        if not np.allclose(trans.sum(axis=1), 1.0, atol=1e-9):
            fail("transition rows must sum to 1")
        if not np.isclose(init.sum(), 1.0, atol=1e-9):
            fail("initial distribution must sum to 1")
        object.__setattr__(self, "state_means_w", means)
        object.__setattr__(self, "state_vars", variances)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "initial", init)

    @property
    def n_states(self) -> int:
        return int(self.state_means_w.size)


@dataclass
class DisaggResult:
    appliances: dict            # name -> PowerSeries
    residual: PowerSeries


def _nearest(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each value's nearest center, ties to the lower index:
    np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1), by the
    same float operations, in one pass over values per center instead of a
    (values, centers) matrix. Values and centers must not be NaN."""
    best = np.abs(values - centers[0])
    assign = np.zeros(values.size, dtype=np.intp)
    for j in range(1, centers.size):
        d = np.abs(values - centers[j])
        assign[d < best] = j  # strict, so the first minimum is kept
        np.minimum(best, d, out=best)
    return assign


def _kmeans_1d(values: np.ndarray, k: int, seed: int):
    """Plain Lloyd's k-means on 1-D data with k seeded restarts; returns the
    centers with the best inertia, sorted ascending."""
    rng = np.random.default_rng(seed)
    uniq = np.unique(values)
    if uniq.size < k:
        raise DegenerateModelError(
            f"only {uniq.size} distinct values for {k} states")
    best_centers, best_inertia = None, np.inf
    for _ in range(k):
        centers = np.sort(rng.choice(uniq, size=k, replace=False))
        for _it in range(100):
            assign = _nearest(values, centers)
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
        inertia = float(((values - centers[_nearest(values, centers)]) ** 2).sum())
        if inertia < best_inertia:
            best_inertia, best_centers = inertia, centers
    return best_centers


def train_hmm(appliance: PowerSeries, n_states: int = 2, *, name: str,
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

    centers = _kmeans_1d(values, n_states, seed)
    if centers[0] < OFF_SNAP_W:
        centers = centers.copy()
        centers[0] = 0.0
    if np.any(np.diff(centers) < 1e-9):
        raise DegenerateModelError(
            f"state levels collapsed to duplicates: {centers}")

    assign = _nearest(values, centers)
    counts = np.zeros((n_states, n_states))
    np.add.at(counts, (assign[:-1], assign[1:]), 1.0)
    transition = (counts + 1.0) / (counts + 1.0).sum(axis=1, keepdims=True)
    initial = np.bincount(assign, minlength=n_states).astype(float)
    initial /= initial.sum()
    variances = np.empty(n_states)
    for j in range(n_states):
        sel = values[assign == j]
        variances[j] = max(sel.var(), VAR_FLOOR_W2) if sel.size else VAR_FLOOR_W2

    return ApplianceHMM(name=name,
                        state_means_w=centers, state_vars=variances,
                        transition=transition, initial=initial,
                        period_s=appliance.period_s)


def train_appliance_models(home: HomeData, cut: int, *,
                           seed: int) -> list[ApplianceHMM]:
    """One HMM per submetered appliance of a home, trained on its samples
    [0, cut), in name order: 3 states for hvac and 2 for anything else. An
    hvac fit that collapses is retried at 2 states; an appliance that cannot
    be fitted at 2 states is skipped with a warning. A home left with no
    model is a DegenerateModelError."""
    models = []
    for name in sorted(home.entry.appliance_paths):
        trace = home.appliance(name).slice(0, cut)
        for k in ((3, 2) if name == "hvac" else (2,)):
            try:
                models.append(train_hmm(trace, k, name=name, seed=seed))
                break
            except DegenerateModelError:
                continue
        else:
            warnings.warn(f"skipping degenerate appliance {name} for home "
                          f"{home.entry.home_id}", stacklevel=2)
    if not models:
        raise DegenerateModelError(
            f"home {home.entry.home_id}: no trainable appliances")
    return models


def _product_space(aggregate: PowerSeries, models: list[ApplianceHMM]):
    """The product states' digits, one column per appliance."""
    if not models:
        raise ValueError("need at least one appliance model")
    for m in models:
        if m.period_s != aggregate.period_s:
            raise ValueError(
                f"model {m.name} was trained at period {m.period_s}s but the "
                f"aggregate has period {aggregate.period_s}s")
    ks = [m.n_states for m in models]
    total = int(np.prod(ks))
    if total > PRODUCT_STATE_CAP:
        raise CapacityError(
            f"product state space {total} exceeds {PRODUCT_STATE_CAP}; reduce "
            f"state counts or the number of appliances")
    # appliance 0 owns the most significant digit of the product index
    return np.indices(ks).reshape(len(ks), -1).T


def _viterbi(log_init, log_trans, emit, n: int):
    """(MAP paths (n, H), final log scores (H, S)) of H dense HMMs of S
    states over the same n steps, decoded together; ties to the lowest state.

    log_trans[h, to, from] is transposed so that each step reduces over the
    contiguous axis. emit(t0, t1) returns the (H, t1 - t0, S) log emissions
    of steps [t0, t1), asked for in blocks of at most EMIT_BLOCK steps.
    Each score is read at its first argmax rather than taken as a max: a max
    over a tie of 0.0 and -0.0 may return either zero.
    """
    n_homes, total = log_init.shape
    delta = log_init + emit(0, 1)[:, 0]
    psi = np.empty((n, n_homes, total),
                   dtype=np.uint8 if total <= 256 else np.int16)
    scores = np.empty((n_homes, total, total))
    flat_scores = scores.reshape(-1)
    row_starts = np.arange(n_homes * total).reshape(n_homes, total) * total
    best = np.empty((n_homes, total), dtype=np.intp)
    from_scores = delta[:, None, :]  # a view: delta is updated in place
    for t0 in range(1, n, EMIT_BLOCK):
        block = emit(t0, min(t0 + EMIT_BLOCK, n))
        for t in range(t0, t0 + block.shape[1]):
            np.add(from_scores, log_trans, out=scores)
            scores.argmax(axis=2, out=psi[t])
            np.add(psi[t], row_starts, out=best)
            flat_scores.take(best, out=delta)
            delta += block[:, t - t0]
    psi = psi.reshape(n, n_homes * total)
    offsets = np.arange(n_homes) * total
    path = np.empty((n, n_homes), dtype=psi.dtype)
    path[-1] = delta.argmax(axis=1)
    for t in range(n - 1, 0, -1):
        path[t - 1] = psi[t].take(path[t] + offsets)
    return path, delta


def _decode_group(jobs, digits) -> list[np.ndarray]:
    """MAP product-state paths of jobs that share one product-state count
    and one length, in a single Viterbi loop."""
    n_homes, total = len(jobs), len(digits[0])
    means, variances, log_init = np.zeros((3, n_homes, total))
    log_trans = np.zeros((n_homes, total, total))  # [home, to, from]
    for h, ((_, models), d) in enumerate(zip(jobs, digits)):
        for i, m in enumerate(models):
            means[h] += m.state_means_w[d[:, i]]
            variances[h] += m.state_vars[d[:, i]]
            log_init[h] += np.log(m.initial[d[:, i]])
            log_trans[h] += np.log(m.transition.T[np.ix_(d[:, i], d[:, i])])
    x = np.stack([aggregate.values for aggregate, _ in jobs])
    norm = -0.5 * np.log(2 * np.pi * variances)[:, None, :]
    twice_var = (2 * variances)[:, None, :]

    def emit(t0, t1):
        return norm - (x[:, t0:t1, None] - means[:, None, :]) ** 2 / twice_var

    path, _ = _viterbi(log_init, log_trans, emit, x.shape[1])
    return list(path.T)


def fhmm_decode(jobs) -> Iterator[DisaggResult]:
    """fhmm_disaggregate of each (aggregate, models) job, in order, each
    built as it is asked for, so that a caller that uses one home's result
    before the next holds one home's traces at a time.

    Jobs with the same product-state count S and the same length decode
    together in one Viterbi loop, in groups of at most PRODUCT_STATE_CAP // S
    homes, so that no score, emission or back-pointer buffer outgrows one
    home's at the cap. Each home's path and trace are exactly those of
    decoding it alone.
    """
    digits = [_product_space(aggregate, models) for aggregate, models in jobs]
    groups: dict = {}
    for i, (aggregate, _) in enumerate(jobs):
        groups.setdefault((len(digits[i]), len(aggregate)), []).append(i)
    paths = {}
    for (total, _), members in groups.items():
        size = PRODUCT_STATE_CAP // total
        for k in range(0, len(members), size):
            chunk = members[k:k + size]
            paths.update(zip(chunk, _decode_group([jobs[i] for i in chunk],
                                                  [digits[i] for i in chunk])))
    for i, (aggregate, models) in enumerate(jobs):
        x = aggregate.values
        appliances = {}
        pred_sum = np.zeros(x.size)
        for j, m in enumerate(models):
            trace = m.state_means_w[digits[i][paths[i], j]]
            pred_sum += trace
            appliances[m.name] = PowerSeries(aggregate.start_time,
                                             aggregate.period_s, trace,
                                             aggregate.timezone)
        residual = PowerSeries(aggregate.start_time, aggregate.period_s,
                               np.maximum(x - pred_sum, 0.0), aggregate.timezone)
        yield DisaggResult(appliances=appliances, residual=residual)


def fhmm_disaggregate(aggregate: PowerSeries,
                      models: list[ApplianceHMM]) -> DisaggResult:
    """Exact MAP decoding of the additive factorial model.

    Viterbi over the product state space with Gaussian emissions (mean and
    variance both sum over appliances) and factorized transitions. Ties take
    the lowest product-state index. Each appliance's trace reads out its
    state mean along the MAP path; the residual is the aggregate minus the
    sum of predictions, clamped at zero.
    """
    return next(fhmm_decode([(aggregate, models)]))


def hart_disaggregate(aggregate: PowerSeries,
                      det: DetectorConfig = DetectorConfig()) -> DisaggResult:
    """Unsupervised disaggregation: hart_reconstruct on the aggregate's pairs."""
    return hart_reconstruct(aggregate, pair_events(detect_events(aggregate, det)))


def hart_reconstruct(aggregate: PowerSeries, pairs: list) -> DisaggResult:
    """Hart's event-pair clustering (Proc. IEEE, 1992) of the aggregate's pairs.

    The top magnitude cluster, the last of cluster_magnitudes, becomes
    "highest_power_appliance": rectangular pulses over its pairs' ON
    intervals. That same series is "hvac" when its center is at least
    HVAC_MIN_W; otherwise "hvac" is all zeros. The residual is the aggregate
    less the top trace, clamped at 0.
    """
    clusters = cluster_magnitudes(np.array([p.magnitude_w for p in pairs]))
    t0, per, tz = aggregate.start_time, aggregate.period_s, aggregate.timezone
    trace = np.zeros(len(aggregate))
    for idx in clusters[-1]["indices"] if clusters else ():
        p = pairs[int(idx)]
        trace[(p.on_time - t0) // per:(p.off_time - t0) // per] += p.magnitude_w
    highest = PowerSeries(t0, per, trace, tz)
    if clusters and clusters[-1]["center"] >= HVAC_MIN_W:
        hvac = highest
    else:
        hvac = PowerSeries(t0, per, np.zeros_like(trace), tz)
    residual = PowerSeries(t0, per, np.maximum(aggregate.values - trace, 0.0), tz)
    return DisaggResult(appliances={"hvac": hvac, "highest_power_appliance": highest},
                        residual=residual)


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
    check_same_axis(pred, truth, "pred", "truth")
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

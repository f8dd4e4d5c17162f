"""Appliance disaggregation: supervised factorial HMM with exact Viterbi
decoding, unsupervised event-cluster trace reconstruction, and the standard
NILM accuracy metrics.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateModelError
from .events import (HVAC_MIN_W, DetectorConfig, cluster_magnitudes,
                     detect_events, pair_events)
from .series import HomeData, PowerSeries, check_same_axis

# Dense decoding of one day at 30 s, 4-state appliances, shared 2-core VM,
# numpy 2.4.6: 0.05 s at 64 states, 0.21-0.24 s at 256, 5.5-6.2 s at 1024
# (60 MB peak RSS). At 4096 states each (S, S) score matrix would be 128 MiB.
PRODUCT_STATE_CAP = 1024
# floats of log emissions computed at a time: blocks of EMIT_BLOCK // S
# steps; a guessed block of leader steps is (EMIT_BLOCK // S) // S steps long
EMIT_BLOCK = 32768
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


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of 1-D values without NaN, bit for bit: its own float path,
    the default sort and then the first of each run of equal values (so the
    same one of 0.0 and -0.0), without the numpy.ma import np.unique makes."""
    s = np.sort(values)
    return np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))


def _kmeans_1d(values: np.ndarray, k: int, seed: int):
    """Plain Lloyd's k-means on 1-D data with k seeded restarts; returns the
    centers with the best inertia, sorted ascending."""
    rng = np.random.default_rng(seed)
    uniq = _distinct(values)
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
    values = appliance.values

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


def _viterbi(log_init, log_trans, emit, n: int):
    """(MAP path (n,), final log scores (S,)) of a dense HMM of S states
    over n steps; ties to the lowest state.

    log_trans[to, from] is transposed so that each step reduces over the
    contiguous axis. emit(t0, t1) returns the (t1 - t0, S) log emissions of
    steps [t0, t1), asked for in blocks of at most EMIT_BLOCK // S steps,
    so that no block holds more than EMIT_BLOCK floats. Each score is read
    at its first argmax rather than taken as a max: a max over a tie of 0.0
    and -0.0 may return either zero.

    Nearly every step of a sticky model is a leader step: every state's best
    predecessor is one state, the leader, nearly always the argmax of the
    previous step's log emissions. Blocks of up to (EMIT_BLOCK // S) // S
    steps, so that the check is no larger than an emission block, are
    guessed to be leader steps (_leader_steps) and kept up to the first step
    that the exact scores refute. That step is taken alone, and so are 1, 2,
    4, ... more steps after each further miss, until a block is kept whole.
    A block's check runs along its steps and a single step along the
    states, so blocks shorter than S steps (every block from S = 33 on) are
    not guessed: they would cost more than the steps they save.
    """
    total = log_init.size
    delta = log_init + emit(0, 1)[0]
    psi = np.empty((n, total), dtype=np.uint8 if total <= 256 else np.int16)
    scores = np.empty((total, total))
    flat_scores = scores.reshape(-1)
    row_starts = np.arange(total) * total
    best = np.empty(total, dtype=np.intp)
    from_scores = delta[None, :]  # a view: delta is updated in place
    steps = EMIT_BLOCK // total
    span, shortest = steps // total, max(total, 2)
    alone, backoff = (0 if span >= shortest else n), 1  # steps to take singly
    for t0 in range(1, n, steps):
        block = emit(t0, min(t0 + steps, n))
        t, t1 = t0, t0 + len(block)
        while t < t1:
            m = min(span, t1 - t)
            if not alone and m >= shortest:
                taken = _leader_steps(delta, log_trans,
                                      block[t - t0:t - t0 + m], psi[t:t + m])
                t += taken
                if taken == m:
                    backoff = 1
                    continue
                alone, backoff = backoff, 2 * backoff
            run = min(max(alone, 1), t1 - t)
            alone = max(alone - run, 0)
            for t in range(t, t + run):
                np.add(from_scores, log_trans, out=scores)
                scores.argmax(axis=1, out=psi[t])
                np.add(psi[t], row_starts, out=best)
                flat_scores.take(best, out=delta)
                delta += block[t - t0]
            t += 1
    path = np.empty(n, dtype=psi.dtype)
    path[-1] = delta.argmax()
    # a psi row naming one predecessor for every state (as a leader step's
    # does) sets the previous path step whatever the current one; walk the rest
    path[:-1] = psi[1:, 0]
    for t in (np.flatnonzero((psi[1:] != psi[1:, :1]).any(axis=1)) + 1)[::-1]:
        path[t - 1] = psi[t, path[t]]
    return path, delta


def _leader_steps(delta, log_trans, emissions, psi) -> int:
    """Steps of _viterbi taken as leader steps, while the exact scores
    confirm that every state's first argmax is the leader: returns how many
    of the m steps of emissions (m, S) it took, after writing their rows of
    psi (m, S) and moving delta past them in place. The first step is led
    by delta's argmax, each later one by its previous step's most likely
    emission.

    The leader's score before each step is a running sum, delta[k_0] +
    T[k_1, k_0] + E[0, k_1] + T[k_2, k_1] + ..., taken by np.cumsum, which
    adds in order; the scores after step s are (that score + T[:, k_s]) +
    E[s]. These are the additions of the step-by-step loop in its order, so
    every score kept has its bytes. A step is confirmed when, for every
    state, each other predecessor's score is strictly below the leader's:
    then the leader is the first argmax, and a tie, a NaN or a leader score
    of -inf only sends the step to the step-by-step loop. Scores are laid
    out [to, from, step] so that each operation runs along the steps.
    """
    m = len(emissions)
    steps = np.arange(m)
    lead = np.empty(m, dtype=np.intp)
    lead[0] = delta.argmax()
    lead[1:] = emissions[:-1].argmax(axis=1)
    terms = np.empty(2 * m - 1)
    terms[0] = delta[lead[0]]
    terms[1::2] = log_trans[lead[1:], lead[:-1]]
    terms[2::2] = emissions[steps[:-1], lead[1:]]
    via_leader = np.cumsum(terms)[::2] + log_trans[:, lead]  # (to, step)
    after = via_leader + emissions.T
    prev = np.empty_like(after)
    prev[:, 0] = delta
    prev[:, 1:] = after[:, :-1]
    prev[lead, steps] = -np.inf  # the leader itself passes
    below = prev + log_trans[..., None] < via_leader[:, None, :]
    hit = np.logical_and.reduce(below.reshape(-1, m), axis=0)
    taken = m if hit.all() else int(hit.argmin())
    if taken:
        psi[:taken] = lead[:taken, None]
        delta[:] = after[:, taken - 1]
    return taken


def fhmm_disaggregate(aggregate: PowerSeries,
                      models: list[ApplianceHMM]) -> dict:
    """Exact MAP decoding of the additive factorial model: {name: trace}.

    Viterbi over the product state space with Gaussian emissions (mean and
    variance both sum over appliances) and factorized transitions. Ties take
    the lowest product-state index. Each appliance's trace reads out its
    state mean along the MAP path.
    """
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
    digits = np.indices(ks).reshape(len(ks), -1).T
    means, variances, log_init = np.zeros((3, total))
    log_trans = np.zeros((total, total))  # [to, from]
    for i, m in enumerate(models):
        d = digits[:, i]
        means += m.state_means_w[d]
        variances += m.state_vars[d]
        log_init += np.log(m.initial[d])
        log_trans += np.log(m.transition.T[np.ix_(d, d)])
    x = aggregate.values
    norm = -0.5 * np.log(2 * np.pi * variances)

    def emit(t0, t1):
        return norm - (x[t0:t1, None] - means) ** 2 / (2 * variances)

    path, _ = _viterbi(log_init, log_trans, emit, x.size)
    return {m.name: PowerSeries(aggregate.start_time, aggregate.period_s,
                                m.state_means_w[digits[path, i]],
                                aggregate.timezone)
            for i, m in enumerate(models)}


def hart_disaggregate(aggregate: PowerSeries,
                      det: DetectorConfig = DetectorConfig()) -> dict:
    """Unsupervised disaggregation: hart_reconstruct on the aggregate's pairs."""
    pairs = pair_events(detect_events(aggregate, det))
    return hart_reconstruct(aggregate, pairs,
                            cluster_magnitudes(pairs["magnitude_w"]))


def hart_reconstruct(aggregate: PowerSeries, pairs: np.ndarray,
                     clusters: list) -> dict:
    """Hart's event-pair clustering (Proc. IEEE, 1992) of the aggregate's pairs.

    clusters is cluster_magnitudes of the pairs' magnitudes. Its top cluster,
    the last, becomes "highest_power_appliance": rectangular pulses over its
    pairs' ON intervals, added in index order. That same series is "hvac"
    when its center is at least HVAC_MIN_W; otherwise "hvac" is all zeros.
    """
    t0, per, tz = aggregate.start_time, aggregate.period_s, aggregate.timezone
    trace = np.zeros(len(aggregate))
    top = pairs[clusters[-1]["indices"]] if clusters else pairs[:0]
    for on, off, magnitude in top.tolist():
        trace[(on - t0) // per:(off - t0) // per] += magnitude
    highest = PowerSeries(t0, per, trace, tz)
    if clusters and clusters[-1]["center"] >= HVAC_MIN_W:
        hvac = highest
    else:
        hvac = PowerSeries(t0, per, np.zeros_like(trace), tz)
    return {"hvac": hvac, "highest_power_appliance": highest}


def nilm_metrics(pred: PowerSeries, truth: PowerSeries,
                 on_threshold_w: float = ON_THRESHOLD_W) -> dict:
    """Percent energy error, RMSE power and F-score on the ON indicator (power
    strictly above on_threshold_w) as error_energy_pct, rmse_w and fscore.
    error_energy_pct is None when the truth carries zero energy (the metric
    is undefined there); rmse and F-score are always computed."""
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
    return {"error_energy_pct": error_energy, "rmse_w": rmse, "fscore": fscore}

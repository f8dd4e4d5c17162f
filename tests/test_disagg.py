"""FHMM training/decoding, event-cluster disaggregation, NILM metrics."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilminfer import disagg
from nilminfer.disagg import (ApplianceHMM, fhmm_disaggregate,
                              hart_disaggregate, nilm_metrics, train_hmm)
from nilminfer.errors import AlignmentError, CapacityError, DegenerateModelError
from nilminfer.events import EventPair, cluster_magnitudes
from nilminfer.series import PowerSeries
from nilminfer.synth import DEFAULT_START, HomeSpec, HvacSpec, gen_home


def series(values, period=30, start=DEFAULT_START):
    return PowerSeries(start, period, np.asarray(values, dtype=float))


def square_wave(level, on, off, cycles, period=30):
    one = np.concatenate([np.full(on, float(level)), np.zeros(off)])
    return series(np.tile(one, cycles), period=period)


def random_model(name, k, rng, period=1):
    means = np.concatenate([[0.0], np.sort(rng.uniform(50, 600, k - 1))])
    variances = rng.uniform(1, 50, k)
    trans = rng.uniform(0.05, 1.0, (k, k))
    trans /= trans.sum(axis=1, keepdims=True)
    init = rng.uniform(0.05, 1.0, k)
    init /= init.sum()
    return ApplianceHMM(name, means, variances, trans, init, period_s=period)


def brute_force_map(x, models):
    """Exhaustive argmax over all joint state sequences (oracle)."""
    ks = [m.n_states for m in models]
    total = int(np.prod(ks))
    T = len(x)
    strides = []
    acc = 1
    for k in reversed(ks):
        strides.insert(0, acc)
        acc *= k
    digits = np.stack([(np.arange(total) // s) % k
                       for s, k in zip(strides, ks)], axis=1)
    means = sum(m.state_means_w[digits[:, i]] for i, m in enumerate(models))
    var = sum(m.state_vars[digits[:, i]] for i, m in enumerate(models))
    linit = sum(np.log(m.initial[digits[:, i]]) for i, m in enumerate(models))
    ltr = sum(np.log(m.transition[np.ix_(digits[:, i], digits[:, i])])
              for i, m in enumerate(models))
    lemit = (-0.5 * np.log(2 * np.pi * var)[None, :]
             - (x[:, None] - means[None, :]) ** 2 / (2 * var)[None, :])
    seqs = (np.arange(total ** T)[:, None]
            // (total ** np.arange(T - 1, -1, -1))[None, :]) % total
    scores = linit[seqs[:, 0]] + lemit[0, seqs[:, 0]]
    for t in range(1, T):
        scores += ltr[seqs[:, t - 1], seqs[:, t]] + lemit[t, seqs[:, t]]
    return seqs[int(np.argmax(scores))]


def decoded_product_path(result, models):
    ks = [m.n_states for m in models]
    strides = []
    acc = 1
    for k in reversed(ks):
        strides.insert(0, acc)
        acc *= k
    T = len(result.residual)
    path = np.zeros(T, dtype=int)
    for i, m in enumerate(models):
        trace = result.appliances[m.name].values
        states = np.argmin(np.abs(trace[:, None] - m.state_means_w[None, :]),
                           axis=1)
        path += states * strides[i]
    return path


# ---------------------------------------------------------------------------
# train_hmm
# ---------------------------------------------------------------------------

def test_train_two_level_trace():
    s = square_wave(200.0, 30, 30, 10)
    model = train_hmm(s, 2, name="dev")
    np.testing.assert_allclose(model.state_means_w, [0.0, 200.0], atol=5)
    # transition probabilities track the duty cycle (one flip per 30 samples)
    assert model.transition[0, 1] == pytest.approx(1 / 30, abs=0.05)
    assert model.transition[1, 0] == pytest.approx(1 / 30, abs=0.05)
    assert model.initial.sum() == pytest.approx(1.0)
    assert (model.state_vars >= 1.0).all()


def test_train_all_zero_trace_degenerate():
    with pytest.raises(DegenerateModelError):
        train_hmm(series(np.zeros(100)), 2, name="dev")


def test_train_noisy_two_level():
    rng = np.random.default_rng(7)
    s = square_wave(200.0, 30, 30, 10)
    noisy = series(np.maximum(s.values + rng.normal(0, 5, len(s)), 0))
    model = train_hmm(noisy, 2, name="dev")
    assert model.state_means_w[0] == pytest.approx(0.0, abs=10)
    assert model.state_means_w[1] == pytest.approx(200.0, abs=10)


def test_train_needs_enough_samples():
    with pytest.raises(ValueError):
        train_hmm(series(np.arange(10.0)), 2, name="dev")


def test_off_state_snaps_to_zero():
    rng = np.random.default_rng(8)
    vals = np.where(np.arange(400) % 40 < 20,
                    rng.uniform(3, 8, 400), 200 + rng.normal(0, 3, 400))
    model = train_hmm(series(np.maximum(vals, 0)), 2, name="dev")
    assert model.state_means_w[0] == 0.0


def hmm_fields(**changes):
    """A valid 2-state model's fields, with changes."""
    return {"name": "dev", "state_means_w": [0.0, 200.0],
            "state_vars": [4.0, 9.0], "transition": [[0.9, 0.1], [0.2, 0.8]],
            "initial": [0.5, 0.5], "period_s": 30, **changes}


@pytest.mark.parametrize("field, value", [
    ("state_vars", [4.0, 9.0, 1.0]),
    ("initial", [[0.5, 0.5]]),
    ("transition", [0.5, 0.5]),
])
def test_model_with_a_misshapen_array_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"model dev: {field} has shape"):
        ApplianceHMM(**hmm_fields(**{field: value}))


@pytest.mark.parametrize("field, value", [
    ("transition", [[1.2, -0.2], [0.2, 0.8]]),
    ("initial", [1.5, -0.5]),
])
def test_model_with_a_negative_probability_is_rejected(field, value):
    with pytest.raises(ValueError, match="model dev: probabilities must be >= 0"):
        ApplianceHMM(**hmm_fields(**{field: value}))


@pytest.mark.parametrize("variance", [0.0, -1.0, np.inf, np.nan])
def test_model_with_a_bad_variance_is_rejected(variance):
    with pytest.raises(ValueError, match="model dev: variances must be finite and > 0"):
        ApplianceHMM(**hmm_fields(state_vars=[4.0, variance]))


def test_nearest_is_argmin_with_ties_and_equal_centers():
    rng = np.random.default_rng(0)
    grid = np.arange(0.0, 10.0, 0.5)  # values on the grid tie exactly
    for trial in range(2000):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        if trial % 2:
            values, centers = rng.choice(grid, size=n), rng.choice(grid, size=k)
        else:
            values, centers = rng.random(n) * 10, rng.random(k) * 10
        centers = np.sort(centers)  # drawn with replacement: equal centers too
        want = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
        assert np.array_equal(disagg._nearest(values, centers), want)
    # 3.5 is as near to 2 as to 5, and the two centers at 2 are equal
    assert disagg._nearest(np.array([2.0, 3.5, 5.0]),
                           np.array([2.0, 2.0, 5.0])).tolist() == [0, 0, 2]


# ---------------------------------------------------------------------------
# fhmm_disaggregate
# ---------------------------------------------------------------------------

def test_single_appliance_identity():
    s = square_wave(200.0, 30, 30, 10)
    model = train_hmm(s, 2, name="dev")
    result = fhmm_disaggregate(s, [model])
    # decoding the training signal reproduces the level-quantized trace
    np.testing.assert_array_equal(result.appliances["dev"].values, s.values)
    assert result.residual.values.max() == 0.0


def test_viterbi_matches_exhaustive_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n_app = int(rng.integers(1, 4))
        ks = [int(rng.integers(2, 4)) for _ in range(n_app)]
        T = int(rng.integers(2, 9))
        while int(np.prod(ks)) ** T > 200_000:
            T -= 1
        models = [random_model(f"a{i}", k, rng) for i, k in enumerate(ks)]
        x = rng.uniform(0, 700, T)
        result = fhmm_disaggregate(series(x, period=1), models)
        got = decoded_product_path(result, models)
        expected = brute_force_map(x, models)
        np.testing.assert_array_equal(got, expected)


def viterbi_fresh_scores(log_init, log_trans, log_emit):
    """The dense Viterbi loop before the in-place step: a new score matrix
    each step, and the next scores read back at the argmax by fancy index."""
    n, total = log_emit.shape
    delta = log_init + log_emit[0]
    psi = np.empty((n, total), dtype=np.int32)
    for t in range(1, n):
        scores = delta[:, None] + log_trans
        psi[t] = np.argmax(scores, axis=0)
        delta = scores[psi[t], np.arange(total)] + log_emit[t]
    path = np.empty(n, dtype=np.int32)
    path[-1] = int(np.argmax(delta))
    for t in range(n - 1, 0, -1):
        path[t - 1] = psi[t, path[t]]
    return path, delta


def chain_log_arrays(draw, ks, n):
    """(log_init, log_trans, log_emit) on the product space of chains of ks
    states, combined as fhmm_disaggregate combines them, over n steps. Log
    probabilities come mostly from a small grid, so scores tie exactly, and
    include -inf (probability zero) in the initial, transition and emission
    terms, and -0.0, so that scores can tie between 0.0 and -0.0."""
    logp = st.sampled_from([-np.inf, -2.0, -1.0, 0.0, -0.0]) | st.floats(-4, 0)

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(logp, min_size=size, max_size=size))).reshape(shape)

    digits = np.indices(ks).reshape(len(ks), -1).T
    total = len(digits)
    log_init, log_trans = np.zeros(total), np.zeros((total, total))
    for i, k in enumerate(ks):
        log_init += array(k)[digits[:, i]]
        log_trans += array(k, k)[np.ix_(digits[:, i], digits[:, i])]
    return log_init, log_trans, array(n, total)


chain_shapes = st.tuples(st.lists(st.integers(2, 3), min_size=1, max_size=3),
                         st.integers(1, 12))


@st.composite
def chain_log_models(draw):
    """One chain_log_arrays model of 1 to 3 chains of 2 or 3 states."""
    return chain_log_arrays(draw, *draw(chain_shapes))


@st.composite
def stacked_chain_log_models(draw):
    """1 to 4 chain_log_arrays models of one shape."""
    ks, n = draw(chain_shapes)
    return [chain_log_arrays(draw, ks, n) for _ in range(draw(st.integers(1, 4)))]


def batched_viterbi(models):
    """disagg._viterbi of the stacked (log_init, log_trans, log_emit)
    models, with the transitions transposed as it takes them."""
    log_emit = np.stack([e for _, _, e in models])
    return disagg._viterbi(np.stack([i for i, _, _ in models]),
                           np.stack([t.T for _, t, _ in models]),
                           lambda t0, t1: log_emit[:, t0:t1], log_emit.shape[1])


@settings(max_examples=300, deadline=None)
@given(chain_log_models())
def test_viterbi_step_in_place_matches_fresh_scores(model):
    path, delta = batched_viterbi([model])
    ref_path, ref_delta = viterbi_fresh_scores(*model)
    np.testing.assert_array_equal(path[:, 0], ref_path)
    assert delta[0].tobytes() == ref_delta.tobytes()


@settings(max_examples=300, deadline=None)
@given(stacked_chain_log_models(), st.integers(1, 5))
def test_batched_viterbi_matches_each_home_alone(models, block):
    """Homes decoded together, with emission blocks that split the sequence
    anywhere, get each home's own path and final score bytes."""
    with mock.patch.object(disagg, "EMIT_BLOCK", block):
        path, delta = batched_viterbi(models)
    for h, model in enumerate(models):
        ref_path, ref_delta = viterbi_fresh_scores(*model)
        np.testing.assert_array_equal(path[:, h], ref_path)
        assert delta[h].tobytes() == ref_delta.tobytes()


def test_viterbi_signed_zero_ties_keep_the_first_argmax_score():
    """Every term 0.0 or -0.0, so every score ties; the final scores carry
    the sign of the zero at each first argmax, as the reference reads them."""
    rng = np.random.default_rng(14)
    zeros = np.array([0.0, -0.0])
    for total in (2, 3, 4, 8):
        models = [(rng.choice(zeros, total), rng.choice(zeros, (total, total)),
                   rng.choice(zeros, (4, total))) for _ in range(20)]
        path, delta = batched_viterbi(models)
        for h, model in enumerate(models):
            ref_path, ref_delta = viterbi_fresh_scores(*model)
            np.testing.assert_array_equal(path[:, h], ref_path)
            assert delta[h].tobytes() == ref_delta.tobytes()


def test_viterbi_over_256_states_keeps_wide_back_pointers():
    """At 300 states a back-pointer does not fit in a uint8."""
    rng = np.random.default_rng(13)
    total, n = 300, 20
    models = [(np.log(rng.dirichlet(np.ones(total))),
               np.log(rng.dirichlet(np.ones(total), size=total)),
               rng.normal(0, 3, (n, total))) for _ in range(2)]
    path, delta = batched_viterbi(models)
    for h, model in enumerate(models):
        ref_path, ref_delta = viterbi_fresh_scores(*model)
        np.testing.assert_array_equal(path[:, h], ref_path)
        assert delta[h].tobytes() == ref_delta.tobytes()
    assert path.max() > 255


def test_absent_appliance_decodes_to_zero():
    app1 = square_wave(300.0, 20, 20, 12)
    app2 = square_wave(800.0, 25, 15, 12)
    m1 = train_hmm(app1, 2, name="present")
    m2 = train_hmm(app2, 2, name="absent")
    result = fhmm_disaggregate(app1, [m1, m2])
    assert result.appliances["absent"].values.max() == 0.0
    np.testing.assert_array_equal(result.appliances["present"].values,
                                  app1.values)


def test_predictions_bounded_by_aggregate_plus_noise(default_corpus):
    # clean mixture: the aggregate is exactly the modeled appliances + noise
    home = default_corpus.homes["home_04"]
    fridge, hvac = home.appliances["fridge"], home.appliances["hvac"]
    rng = np.random.default_rng(12)
    mix = series(np.maximum(fridge.values + hvac.values
                            + rng.normal(0, 5, len(fridge)), 0))
    models = [train_hmm(t.slice(0, len(t) // 2), 2, name=n)
              for n, t in (("fridge", fridge), ("hvac", hvac))]
    result = fhmm_disaggregate(mix, models)
    total = sum(a.values for a in result.appliances.values())
    sigma = np.sqrt(sum(m.state_vars.max() for m in models) + 25.0)
    # soft bound: noise tails may poke past 3 sigma on a handful of samples
    assert (total <= mix.values + 3 * sigma).mean() > 0.998


def test_capacity_cap_enforced():
    rng = np.random.default_rng(10)
    models = [random_model(f"m{i}", 4, rng) for i in range(7)]  # 4^7 = 16384
    with pytest.raises(CapacityError):
        fhmm_disaggregate(series(np.zeros(5), period=1), models)


def test_capacity_cap_is_1024_product_states():
    assert disagg.PRODUCT_STATE_CAP == 1024
    rng = np.random.default_rng(11)
    models = [random_model(f"m{i}", 4, rng) for i in range(6)]  # 4^6 = 4096
    with pytest.raises(CapacityError, match="4096 exceeds 1024"):
        fhmm_disaggregate(series(np.zeros(5), period=1), models)
    # 4^5 = 1024 states is at the cap, and decodes
    result = fhmm_disaggregate(series(np.zeros(3), period=1), models[:5])
    assert sorted(result.appliances) == [f"m{i}" for i in range(5)]


def test_period_mismatch_rejected():
    s = square_wave(200.0, 30, 30, 5, period=30)
    model = train_hmm(s, 2, name="dev")
    with pytest.raises(ValueError):
        fhmm_disaggregate(series(np.zeros(10), period=60), [model])


# ---------------------------------------------------------------------------
# hart_disaggregate
# ---------------------------------------------------------------------------

def test_hart_single_square_wave_exact():
    # starts and ends OFF so every ON interval has both its edges visible
    one = np.concatenate([np.zeros(30), np.full(60, 3000.0), np.zeros(30)])
    s = series(np.tile(one, 6))
    result = hart_disaggregate(s)
    np.testing.assert_array_equal(result.appliances["hvac"].values, s.values)
    assert result.appliances["hvac"] is result.appliances["highest_power_appliance"]


def test_hart_fridge_hvac_mixture():
    spec = HomeSpec(seed=42, days=2,
                    hvac=HvacSpec(power_w=3000.0, duty_fraction=0.5,
                                  cycle_s=3000.0))
    spec.occupant_load.rate_per_occupied_hour = 0.0
    home = gen_home(spec)
    result = hart_disaggregate(home.aggregate)
    hvac = result.appliances["hvac"].values
    assert hvac[hvac > 0] == pytest.approx(3000.0, rel=0.1)
    truth = home.appliances["hvac"]
    got_on = result.appliances["hvac"].values > 1500
    true_on = truth.values > 1500
    assert (got_on == true_on).mean() > 0.95


def test_hart_zero_events_flagged():
    s = series(np.full(200, 80.0))
    result = hart_disaggregate(s)
    for trace in result.appliances.values():
        assert not trace.values.any()


def test_hart_no_cluster_above_hvac_threshold():
    # one 300 W load: highest cluster exists but no hvac-sized one
    s = square_wave(300.0, 40, 40, 5)
    result = hart_disaggregate(s)
    assert not result.appliances["hvac"].values.any()
    assert result.appliances["highest_power_appliance"].values.max() > 0


def test_hart_traces_nonnegative(default_corpus):
    home = default_corpus.homes["home_06"]
    result = hart_disaggregate(home.aggregate)
    for trace in result.appliances.values():
        assert (trace.values >= 0).all()


def hart_reconstruct_by_identity(aggregate, pairs, hvac_min_w=1000.0):
    """Reference: the largest-center cluster at or above hvac_min_w is hvac
    and the largest-center cluster overall is the highest power appliance,
    each found by max; the residual counts each distinct cluster once."""
    mags = np.array([p.magnitude_w for p in pairs])
    clusters = sorted(cluster_magnitudes(mags),
                      key=lambda c: c["center"])
    n = len(aggregate)
    t0, per = aggregate.start_time, aggregate.period_s

    def cluster_trace(cluster):
        trace = np.zeros(n)
        for idx in cluster["indices"]:
            p = pairs[int(idx)]
            trace[(p.on_time - t0) // per:(p.off_time - t0) // per] += p.magnitude_w
        return trace

    appliances, used, zeros = {}, [], np.zeros(n)
    hvac_cands = [c for c in clusters if c["center"] >= hvac_min_w]
    if hvac_cands:
        hvac_cluster = max(hvac_cands, key=lambda c: c["center"])
        appliances["hvac"] = PowerSeries(t0, per, cluster_trace(hvac_cluster))
        used.append(id(hvac_cluster))
    else:
        appliances["hvac"] = PowerSeries(t0, per, zeros)
    if clusters:
        top = max(clusters, key=lambda c: c["center"])
        if id(top) in used:
            appliances["highest_power_appliance"] = appliances["hvac"]
        else:
            appliances["highest_power_appliance"] = PowerSeries(
                t0, per, cluster_trace(top))
    else:
        appliances["highest_power_appliance"] = PowerSeries(t0, per, zeros)
    distinct = {id(v): v for v in appliances.values()}
    pred_sum = np.sum([v.values for v in distinct.values()], axis=0)
    residual = PowerSeries(t0, per, np.maximum(aggregate.values - pred_sum, 0.0))
    return disagg.DisaggResult(appliances, residual)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 58), st.integers(1, 20),
                          st.one_of(st.sampled_from([150.0, 300.0, 990.0, 999.9,
                                                     1000.0, 1010.0, 2500.0]),
                                    st.floats(1, 4000))),
                max_size=25),
       st.lists(st.floats(0, 5000), min_size=60, max_size=60))
def test_hart_reconstruct_matches_search_by_identity(specs, values):
    """No pairs, only sub-hvac centers, a top center of exactly 1000 W, many
    clusters and repeated magnitudes: the same traces and residual,
    and hvac is the highest power appliance exactly when the reference
    found them to be one cluster."""
    aggregate = series(values)
    pairs = [EventPair(DEFAULT_START + 30 * on, DEFAULT_START + 30 * (on + d), mag)
             for on, d, mag in specs]
    got = disagg.hart_reconstruct(aggregate, pairs)
    want = hart_reconstruct_by_identity(aggregate, pairs)
    assert got.residual.values.tobytes() == want.residual.values.tobytes()
    assert got.appliances.keys() == want.appliances.keys()
    for name, trace in want.appliances.items():
        assert got.appliances[name].values.tobytes() == trace.values.tobytes()
    assert (got.appliances["hvac"] is got.appliances["highest_power_appliance"]) == \
        (want.appliances["hvac"] is want.appliances["highest_power_appliance"])


def test_hart_top_center_of_exactly_hvac_min_is_hvac():
    aggregate = series(np.full(40, 1200.0))
    pairs = [EventPair(DEFAULT_START + 30 * k, DEFAULT_START + 30 * (k + 2), mag)
             for k, mag in ((0, 990.0), (5, 1000.0), (10, 1010.0))]
    mags = np.array([p.magnitude_w for p in pairs])
    assert cluster_magnitudes(mags)[-1]["center"] == disagg.HVAC_MIN_W == 1000.0
    result = disagg.hart_reconstruct(aggregate, pairs)
    assert result.appliances["hvac"] is result.appliances["highest_power_appliance"]


# ---------------------------------------------------------------------------
# nilm_metrics
# ---------------------------------------------------------------------------

def test_nilm_identity():
    s = square_wave(200.0, 10, 10, 4)
    m = nilm_metrics(s, s)
    assert (m.error_energy_pct, m.rmse_w, m.fscore) == (0.0, 0.0, 1.0)


def test_nilm_hand_example():
    truth = series([100.0, 0.0], period=1)
    pred = series([50.0, 50.0], period=1)
    m = nilm_metrics(pred, truth, on_threshold_w=10)
    assert m.error_energy_pct == pytest.approx(0.0)
    assert m.rmse_w == pytest.approx(50.0)
    assert m.fscore == pytest.approx(2 / 3)


def test_nilm_zero_truth_energy():
    truth = series([0.0, 0.0], period=1)
    pred = series([50.0, 0.0], period=1)
    m = nilm_metrics(pred, truth)
    assert m.error_energy_pct is None
    assert m.rmse_w == pytest.approx(50.0 / np.sqrt(2))
    assert m.fscore == 0.0


def test_nilm_symmetry_and_scale_covariance():
    rng = np.random.default_rng(11)
    a = series(rng.uniform(0, 500, 100), period=1)
    b = series(rng.uniform(0, 500, 100), period=1)
    assert nilm_metrics(a, b).rmse_w == pytest.approx(nilm_metrics(b, a).rmse_w)
    c = 3.0
    scaled = nilm_metrics(series(a.values * c, period=1),
                          series(b.values * c, period=1),
                          on_threshold_w=50 * c)
    base = nilm_metrics(a, b, on_threshold_w=50)
    assert scaled.error_energy_pct == pytest.approx(base.error_energy_pct)
    assert scaled.fscore == pytest.approx(base.fscore)


def test_nilm_length_mismatch():
    with pytest.raises(ValueError):
        nilm_metrics(series([1.0]), series([1.0, 2.0]))


def test_nilm_metrics_refuses_a_trace_on_another_clock():
    pulse = np.r_[np.zeros(10), np.full(10, 500.0), np.zeros(10)]
    axes = r"\(0, 30, 30\) is not the truth's \(30, 30, 30\)"
    with pytest.raises(AlignmentError, match=axes):
        nilm_metrics(series(pulse, start=0), series(pulse, start=30))

"""FHMM training/decoding, event-cluster disaggregation, NILM metrics."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nilminfer import disagg
from nilminfer.disagg import (ApplianceHMM, fhmm_disaggregate,
                              hart_disaggregate, nilm_metrics, train_hmm)
from nilminfer.errors import AlignmentError, CapacityError, DegenerateModelError
from nilminfer.events import (PAIR_DTYPE, cluster_magnitudes, detect_events,
                              pair_events)
from nilminfer.series import PowerSeries
from nilminfer.synth import DEFAULT_START, HomeSpec, gen_home


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


def decoded_product_path(traces, models):
    ks = [m.n_states for m in models]
    strides = []
    acc = 1
    for k in reversed(ks):
        strides.insert(0, acc)
        acc *= k
    path = np.zeros(len(traces[models[0].name]), dtype=int)
    for i, m in enumerate(models):
        trace = traces[m.name].values
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


def test_distinct_is_np_unique_with_signed_zeros():
    """Bit for bit, sign of zero included, on sizes past the sort's
    16-element insertion-sort cutoff, where which of 0.0 and -0.0 leads
    depends on the sort algorithm (a stable sort differs)."""
    rng = np.random.default_rng(5)
    pool = np.array([0.0, -0.0, 1.5, -1.5, 3.0, 250.0, -0.0, 0.0])
    for trial in range(3000):
        n = int(rng.integers(0, 200))
        if trial % 3:
            values = rng.choice(pool, size=n)
        else:
            values = np.round(rng.normal(size=n), 1) * rng.choice([1.0, -1.0])
        got, want = disagg._distinct(values), np.unique(values)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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
    np.testing.assert_array_equal(result["dev"].values, s.values)


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
        return draw(arrays(np.float64, shape, elements=logp))

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


def viterbi(model):
    """disagg._viterbi of one (log_init, log_trans, log_emit) model, with
    the transitions transposed as it takes them."""
    log_init, log_trans, log_emit = model
    return disagg._viterbi(log_init, np.ascontiguousarray(log_trans.T),
                           lambda t0, t1: log_emit[t0:t1], len(log_emit))


def assert_matches_fresh_scores(model, path, delta):
    ref_path, ref_delta = viterbi_fresh_scores(*model)
    np.testing.assert_array_equal(path, ref_path)
    assert delta.tobytes() == ref_delta.tobytes()


@settings(max_examples=400, deadline=None)
@given(chain_log_models(), st.integers(0, 5), st.integers(0, 26))
@example((np.array([-0.6, -0.9]), np.array([[-2.4, -2.0], [-2.3, -1.9]]),
          np.array([[-3.1, -0.8], [-3.7, -2.3], [-2.9, -1.0]])), 0, 0)
def test_viterbi_step_in_place_matches_fresh_scores(model, steps, spare):
    """Path and final score bytes of the reference, at the default
    EMIT_BLOCK (steps 0) and with emission blocks of 1 to 5 steps, plus
    floats short of one more step, that split the sequence anywhere. Drawn
    arrays repeat one value in most places, so the example pins a guessed
    block whose sums round: adding a step's emission before its transition
    changes the final scores' bytes."""
    total = len(model[0])
    block = steps * total + spare % total if steps else disagg.EMIT_BLOCK
    with mock.patch.object(disagg, "EMIT_BLOCK", block):
        path, delta = viterbi(model)
    assert_matches_fresh_scores(model, path, delta)


def test_viterbi_signed_zero_ties_keep_the_first_argmax_score():
    """Every term 0.0 or -0.0, so every score ties; the final scores carry
    the sign of the zero at each first argmax, as the reference reads them."""
    rng = np.random.default_rng(14)
    zeros = np.array([0.0, -0.0])
    for total in (2, 3, 4, 8):
        for _ in range(20):
            model = (rng.choice(zeros, total), rng.choice(zeros, (total, total)),
                     rng.choice(zeros, (4, total)))
            assert_matches_fresh_scores(model, *viterbi(model))


def random_log_model(total, n, rng):
    """Log initial and transition probabilities drawn from flat Dirichlets,
    and standard normal log emissions times 3."""
    return (np.log(rng.dirichlet(np.ones(total))),
            np.log(rng.dirichlet(np.ones(total), size=total)),
            rng.normal(0, 3, (n, total)))


def test_viterbi_over_256_states_keeps_wide_back_pointers():
    """At 300 states a back-pointer does not fit in a uint8."""
    model = random_log_model(300, 20, np.random.default_rng(13))
    path, delta = viterbi(model)
    assert_matches_fresh_scores(model, path, delta)
    assert path.max() > 255


def test_cumsum_adds_in_order():
    """_leader_steps takes each leader's score as np.cumsum of the terms the
    step-by-step loop adds, so cumsum must be that loop's left fold, bit for
    bit, through signed zeros, -inf and magnitudes far apart."""
    rng = np.random.default_rng(17)
    specials = np.array([0.0, -0.0, -np.inf])
    for _ in range(2000):
        rows, size = int(rng.integers(1, 4)), int(rng.integers(1, 40))
        a = rng.choice([-1.0, 1.0], (rows, size)) * 10.0 ** rng.uniform(-20, 20, (rows, size))
        special = rng.random((rows, size)) < 0.2
        a[special] = rng.choice(specials, int(special.sum()))
        want = np.empty_like(a)
        for r in range(rows):
            acc = a[r, 0]
            want[r, 0] = acc
            for i in range(1, size):
                acc = acc + a[r, i]
                want[r, i] = acc
        assert np.cumsum(a, axis=1).tobytes() == want.tobytes()


def counting_leader_steps():
    """A patch of disagg._leader_steps that records, per guessed block, how
    many steps it kept."""
    kept = []
    leader_steps = disagg._leader_steps

    def counting(*args):
        kept.append(leader_steps(*args))
        return kept[-1]

    return mock.patch.object(disagg, "_leader_steps", counting), kept


@st.composite
def sticky_models(draw):
    """One product space of sticky chains (each stays put with probability
    0.9 to 0.999), with product-state means 100 apart and readings drawn
    from the chains with noise of sd 5, over 100 to 300 steps, as (model,
    EMIT_BLOCK): emission blocks of S guessed blocks of span >= S leader
    steps plus a remainder, and floats short of one more step, so that both
    kinds of block end anywhere."""
    ks = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)
              .filter(lambda ks: np.prod(ks) <= 12))
    n = draw(st.integers(100, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    digits = np.indices(ks).reshape(len(ks), -1).T
    total = len(digits)
    means = 100.0 * np.arange(total)
    log_init, log_trans = np.zeros(total), np.zeros((total, total))
    chains = np.zeros((n, len(ks)), dtype=int)
    for i, k in enumerate(ks):
        stay = rng.uniform(0.9, 0.999)
        trans = (1 - stay) * rng.dirichlet(np.ones(k - 1), size=k)
        trans = np.insert(trans.ravel(), np.arange(k) * k, stay).reshape(k, k)
        init = rng.dirichlet(np.ones(k))
        log_init += np.log(init)[digits[:, i]]
        log_trans += np.log(trans)[np.ix_(digits[:, i], digits[:, i])]
        chains[0, i] = rng.choice(k, p=init)
        for t in range(1, n):
            chains[t, i] = rng.choice(k, p=trans[chains[t - 1, i]])
    state = np.ravel_multi_index(chains.T, ks)
    x = means[state] + rng.normal(0, 5, n)
    log_emit = -0.5 * np.log(2 * np.pi * 25) - (x[:, None] - means) ** 2 / 50
    steps = total * draw(st.integers(max(total, 2), 40)) + draw(st.integers(0, total - 1))
    block = total * steps + draw(st.integers(0, total - 1))
    return (log_init, log_trans, log_emit), block


@settings(max_examples=100, deadline=None)
@given(sticky_models())
def test_viterbi_leader_steps_match_fresh_scores(drawn):
    """Sticky models decode as leader steps, bit for bit: nearly every step
    is kept from a guessed block, not taken alone."""
    model, block = drawn
    patch, kept = counting_leader_steps()
    with patch, mock.patch.object(disagg, "EMIT_BLOCK", block):
        path, delta = viterbi(model)
    assert_matches_fresh_scores(model, path, delta)
    assert sum(kept) >= 3 * (len(path) - 1) // 4


def test_viterbi_guesses_that_all_miss_back_off():
    """Emissions favour state 0, but from state 0 the chain nearly always
    moves to state 1, so no step has one best predecessor for every state
    and every guess misses. The decode is still the reference's, and the
    back-off keeps the guessed blocks to about log2(n)."""
    n = 3000
    trans = np.array([[1e-12, 1 - 2e-12, 1e-12],
                      [1 / 3, 1 / 3, 1 / 3],
                      [1 / 3, 1 / 3, 1 / 3]])
    model = (np.log(np.full(3, 1 / 3)), np.log(trans),
             np.tile(np.log([0.6, 0.2, 0.2]), (n, 1)))
    patch, kept = counting_leader_steps()
    with patch:
        path, delta = viterbi(model)
    assert_matches_fresh_scores(model, path, delta)
    assert 1 <= len(kept) <= np.log2(n) + 2
    assert not any(kept)


@pytest.mark.parametrize("total", [2, 6, 32, 33, 1024])
def test_emission_blocks_hold_at_most_emit_block_floats(total):
    """Emissions are asked for in blocks of EMIT_BLOCK // S steps, over two
    full blocks and a part, and the decode is the reference's. Blocks of
    leader steps are guessed up to S = 32, and not from S = 33 on."""
    steps = disagg.EMIT_BLOCK // total
    n = 2 * steps + 3
    model = random_log_model(total, n, np.random.default_rng(total))
    log_init, log_trans, log_emit = model
    asked = []

    def emit(t0, t1):
        asked.append((t0, t1))
        return log_emit[t0:t1]

    patch, kept = counting_leader_steps()
    with patch:
        path, delta = disagg._viterbi(log_init, np.ascontiguousarray(log_trans.T),
                                      emit, n)
    assert_matches_fresh_scores(model, path, delta)
    assert asked == [(0, 1), (1, 1 + steps), (1 + steps, 1 + 2 * steps),
                     (1 + 2 * steps, n)]
    assert max(t1 - t0 for t0, t1 in asked) * total <= disagg.EMIT_BLOCK
    assert bool(kept) == (total <= 32)


def test_absent_appliance_decodes_to_zero():
    app1 = square_wave(300.0, 20, 20, 12)
    app2 = square_wave(800.0, 25, 15, 12)
    m1 = train_hmm(app1, 2, name="present")
    m2 = train_hmm(app2, 2, name="absent")
    result = fhmm_disaggregate(app1, [m1, m2])
    assert result["absent"].values.max() == 0.0
    np.testing.assert_array_equal(result["present"].values,
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
    total = sum(a.values for a in result.values())
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
    assert sorted(result) == [f"m{i}" for i in range(5)]


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
    np.testing.assert_array_equal(result["hvac"].values, s.values)
    assert result["hvac"] is result["highest_power_appliance"]


def test_hart_fridge_hvac_mixture():
    home = gen_home(HomeSpec(seed=42, days=2, hvac_power_w=3000.0,
                             hvac_duty_fraction=0.5, hvac_cycle_s=3000.0,
                             occupant_rate_per_hour=0.0))
    result = hart_disaggregate(home.aggregate)
    hvac = result["hvac"].values
    assert hvac[hvac > 0] == pytest.approx(3000.0, rel=0.1)
    truth = home.appliances["hvac"]
    got_on = result["hvac"].values > 1500
    true_on = truth.values > 1500
    assert (got_on == true_on).mean() > 0.95


def test_hart_zero_events_flagged():
    s = series(np.full(200, 80.0))
    result = hart_disaggregate(s)
    for trace in result.values():
        assert not trace.values.any()


def test_hart_no_cluster_above_hvac_threshold():
    # one 300 W load: highest cluster exists but no hvac-sized one
    s = square_wave(300.0, 40, 40, 5)
    result = hart_disaggregate(s)
    assert not result["hvac"].values.any()
    assert result["highest_power_appliance"].values.max() > 0


def test_hart_traces_nonnegative(default_corpus):
    home = default_corpus.homes["home_06"]
    result = hart_disaggregate(home.aggregate)
    for trace in result.values():
        assert (trace.values >= 0).all()


def test_hart_disaggregate_is_hart_reconstruct_of_its_clustered_pairs(
        default_corpus):
    aggregate = default_corpus.homes["home_06"].aggregate
    pairs = pair_events(detect_events(aggregate))
    want = disagg.hart_reconstruct(aggregate, pairs,
                                   cluster_magnitudes(pairs["magnitude_w"]))
    got = hart_disaggregate(aggregate)
    assert want["hvac"].values.any()
    assert got.keys() == want.keys()
    for name, trace in want.items():
        assert got[name].values.tobytes() == trace.values.tobytes()


def hart_reconstruct_by_identity(aggregate, pairs, hvac_min_w=1000.0):
    """Reference: the largest-center cluster at or above hvac_min_w is hvac
    and the largest-center cluster overall is the highest power appliance,
    each found by max."""
    clusters = sorted(cluster_magnitudes(pairs["magnitude_w"]),
                      key=lambda c: c["center"])
    n = len(aggregate)
    t0, per = aggregate.start_time, aggregate.period_s

    def cluster_trace(cluster):
        trace = np.zeros(n)
        for idx in cluster["indices"]:
            on, off, magnitude = pairs[int(idx)].tolist()
            trace[(on - t0) // per:(off - t0) // per] += magnitude
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
    return appliances


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 58), st.integers(1, 20),
                          st.one_of(st.sampled_from([150.0, 300.0, 990.0, 999.9,
                                                     1000.0, 1010.0, 2500.0]),
                                    st.floats(1, 4000))),
                max_size=25),
       st.lists(st.floats(0, 5000), min_size=60, max_size=60))
def test_hart_reconstruct_matches_search_by_identity(specs, values):
    """No pairs, only sub-hvac centers, a top center of exactly 1000 W, many
    clusters and repeated magnitudes: the same traces, and hvac is the
    highest power appliance exactly when the reference found them to be one
    cluster."""
    aggregate = series(values)
    pairs = np.array([(DEFAULT_START + 30 * on, DEFAULT_START + 30 * (on + d), mag)
                      for on, d, mag in specs], dtype=PAIR_DTYPE)
    got = disagg.hart_reconstruct(aggregate, pairs,
                                  cluster_magnitudes(pairs["magnitude_w"]))
    want = hart_reconstruct_by_identity(aggregate, pairs)
    assert got.keys() == want.keys()
    for name, trace in want.items():
        assert got[name].values.tobytes() == trace.values.tobytes()
    assert (got["hvac"] is got["highest_power_appliance"]) == \
        (want["hvac"] is want["highest_power_appliance"])


def test_hart_top_center_of_exactly_hvac_min_is_hvac():
    aggregate = series(np.full(40, 1200.0))
    pairs = np.array([(DEFAULT_START + 30 * k, DEFAULT_START + 30 * (k + 2), mag)
                      for k, mag in ((0, 990.0), (5, 1000.0), (10, 1010.0))],
                     dtype=PAIR_DTYPE)
    clusters = cluster_magnitudes(pairs["magnitude_w"])
    assert clusters[-1]["center"] == disagg.HVAC_MIN_W == 1000.0
    result = disagg.hart_reconstruct(aggregate, pairs, clusters)
    assert result["hvac"] is result["highest_power_appliance"]


# ---------------------------------------------------------------------------
# nilm_metrics
# ---------------------------------------------------------------------------

def test_nilm_identity():
    s = square_wave(200.0, 10, 10, 4)
    assert nilm_metrics(s, s) == {"error_energy_pct": 0.0, "rmse_w": 0.0,
                                  "fscore": 1.0}


def test_nilm_hand_example():
    truth = series([100.0, 0.0], period=1)
    pred = series([50.0, 50.0], period=1)
    m = nilm_metrics(pred, truth, on_threshold_w=10)
    assert m["error_energy_pct"] == pytest.approx(0.0)
    assert m["rmse_w"] == pytest.approx(50.0)
    assert m["fscore"] == pytest.approx(2 / 3)


def test_nilm_zero_truth_energy():
    truth = series([0.0, 0.0], period=1)
    pred = series([50.0, 0.0], period=1)
    m = nilm_metrics(pred, truth)
    assert m["error_energy_pct"] is None
    assert m["rmse_w"] == pytest.approx(50.0 / np.sqrt(2))
    assert m["fscore"] == 0.0


def test_nilm_symmetry_and_scale_covariance():
    rng = np.random.default_rng(11)
    a = series(rng.uniform(0, 500, 100), period=1)
    b = series(rng.uniform(0, 500, 100), period=1)
    assert nilm_metrics(a, b)["rmse_w"] == pytest.approx(nilm_metrics(b, a)["rmse_w"])
    c = 3.0
    scaled = nilm_metrics(series(a.values * c, period=1),
                          series(b.values * c, period=1),
                          on_threshold_w=50 * c)
    base = nilm_metrics(a, b, on_threshold_w=50)
    assert scaled["error_energy_pct"] == pytest.approx(base["error_energy_pct"])
    assert scaled["fscore"] == pytest.approx(base["fscore"])


def test_nilm_length_mismatch():
    with pytest.raises(ValueError):
        nilm_metrics(series([1.0]), series([1.0, 2.0]))


def test_nilm_metrics_refuses_a_trace_on_another_clock():
    pulse = np.r_[np.zeros(10), np.full(10, 500.0), np.zeros(10)]
    axes = r"\(0, 30, 30\) is not the truth's \(30, 30, 30\)"
    with pytest.raises(AlignmentError, match=axes):
        nilm_metrics(series(pulse, start=0), series(pulse, start=30))

"""The tracer must reach every caller of a traced function and leave its
behaviour unchanged.

    python3 -m pytest -q perfbench/test_tracer.py
"""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import nilminfer.cli  # noqa: E402,F401  (loads every nilminfer module)
from tracer import Tracer, layer_metrics, self_times  # noqa: E402


@pytest.fixture
def tracer():
    modules = {n: m for n, m in sys.modules.items()
               if n == "nilminfer" or n.startswith("nilminfer.")}
    saved = {n: dict(vars(m)) for n, m in modules.items()}
    t = Tracer("test")
    t.install()
    yield t
    for n, m in modules.items():
        vars(m).update(saved[n])


def test_every_module_binding_is_rebound(tracer):
    import nilminfer
    from nilminfer import cli, features, occupancy, series

    wrapped = series.load_power_csv
    assert wrapped.__wrapped__ is not None
    assert cli.load_power_csv is wrapped
    assert features.load_power_csv is wrapped
    assert occupancy.load_power_csv is wrapped
    assert nilminfer.load_power_csv is wrapped
    # a local import inside a function body reads the module attribute
    from nilminfer.features import chi2_select
    assert chi2_select is features.chi2_select
    assert hasattr(chi2_select, "__wrapped__")


def test_exceptions_are_counted_and_reraised_unchanged(tracer, tmp_path):
    from nilminfer import series

    missing = tmp_path / "missing.csv"
    with pytest.raises(FileNotFoundError) as info:
        series.load_power_csv(missing)
    assert info.value.filename == str(missing)
    metrics = layer_metrics([tracer.spans])
    assert metrics["series.load_power_csv.calls"] == 1
    assert metrics["series.load_power_csv.raised"] == 1


def test_nested_calls_record_parents_and_counts(tracer):
    from nilminfer import classify, disagg
    from nilminfer.series import PowerSeries

    values = np.full(400, 100.0)
    for start in range(20, 380, 60):
        values[start:start + 20] += 1500.0
    disagg.hart_disaggregate(PowerSeries(0, 30, values))
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "disagg.hart_disaggregate"
    assert {"events.detect_events", "events.pair_events",
            "events.cluster_magnitudes"} <= set(names[1:])
    assert all(s["parent"] == 0 for s in tracer.spans[1:])
    assert all(s["run"] == "test" for s in tracer.spans)

    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(12, 3)), np.array([0, 1] * 6)
    assert len(classify.knn_classify(X[:8], y[:8], X[8:], k=3)) == 4
    metrics = layer_metrics([tracer.spans])
    assert metrics["events.detect_events.samples"] == 400
    assert metrics["events.detect_events.events"] == 12
    assert metrics["events.pair_events.pairs"] == 6
    assert metrics["events.pair_events.pair_yield"] == 1.0
    assert metrics["classify.knn_classify.pairs_scored"] == 8 * 4
    assert metrics["disagg.hart_disaggregate.self_s"] < \
        tracer.spans[0]["end"] - tracer.spans[0]["start"]


def test_self_time_subtracts_direct_children():
    spans = [{"start": 0.0, "end": 10.0, "parent": None},
             {"start": 1.0, "end": 4.0, "parent": 0},
             {"start": 2.0, "end": 3.0, "parent": 1},
             {"start": 5.0, "end": 6.0, "parent": 0}]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]

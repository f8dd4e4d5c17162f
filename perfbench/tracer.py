"""Span tracer for nilminfer's public functions, installed from outside the
package.

`Tracer.install()` wraps each function in TRACED and rebinds every attribute of
every loaded `nilminfer.*` module that refers to the original function object.
That covers callers that imported a function by name (`from .series import
load_power_csv`) and local imports inside function bodies, which read the
module attribute at call time.

Each call records one span: name, start, end, parent span, run id, whether it
raised, and the work counts of COUNTERS. Spans stay in memory and are written
out once, by `dump`, when the run ends. `layer_metrics` turns the spans of one
or more runs into the per-layer metrics of the benchmark.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import threading
import time
from pathlib import Path

TRACED = {
    "series": ("load_power_csv", "load_occupancy_csv", "write_power_csv",
               "window_occupancy", "local_clock_hours"),
    "events": ("detect_events", "pair_events", "learn_background",
               "remove_background", "cluster_magnitudes"),
    "occupancy": ("window_stats", "predict_occupancy_events",
                  "predict_occupancy_night_threshold", "evaluate_occupancy",
                  "occupancy_experiment"),
    "disagg": ("train_hmm", "fhmm_disaggregate", "hart_disaggregate",
               "nilm_metrics"),
    "features": ("build_feature_table", "extract_consumption_features",
                 "extract_appliance_features", "chi2_select"),
    "classify": ("knn_classify", "rf_classify", "characteristics_experiment"),
    "synth": ("gen_corpus", "gen_home"),
    "cli": ("cmd_synth", "cmd_occupancy", "cmd_disaggregate", "cmd_classify"),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _series_key(s) -> str:
    h = hashlib.blake2b(s.values.tobytes(), digest_size=16)
    h.update(f"{s.start_time}/{s.period_s}".encode())
    return h.hexdigest()


# Work counts taken from a call's arguments and result, after its span ended.
# A counter returns (counts, key); distinct keys / calls gives `unique_frac`.
COUNTERS = {
    "series.load_power_csv": lambda a, k, r: (
        {"rows": len(r)}, str(Path(_arg(a, k, 0, "path")).resolve())),
    "series.load_occupancy_csv": lambda a, k, r: ({"rows": len(r[0])}, None),
    "series.write_power_csv": lambda a, k, r: (
        {"rows": len(_arg(a, k, 0, "s"))}, None),
    "events.detect_events": lambda a, k, r: (
        {"samples": len(_arg(a, k, 0, "s")), "events": len(r)}, None),
    "events.pair_events": lambda a, k, r: (
        {"events_in": len(_arg(a, k, 0, "events")), "pairs": len(r)}, None),
    "occupancy.window_stats": lambda a, k, r: (
        {}, _series_key(_arg(a, k, 0, "s"))),
    "classify.knn_classify": lambda a, k, r: (
        {"pairs_scored": len(_arg(a, k, 0, "train_X"))
         * len(_arg(a, k, 2, "test_X"))}, None),
    "classify.rf_classify": lambda a, k, r: (
        {"train_rows": len(_arg(a, k, 0, "train_X"))}, None),
    "disagg.fhmm_disaggregate": lambda a, k, r: (
        {"samples": len(_arg(a, k, 0, "aggregate")),
         "product_states": math.prod(m.n_states
                                     for m in _arg(a, k, 1, "models"))}, None),
}


class Tracer:
    """Records spans of one traced run. The span stack is per thread, so a
    span's parent is the innermost open span of the thread that made it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "run": self.run_id,
                    "parent": stack[-1] if stack else None, "raised": False}
            span_id = len(self.spans)
            self.spans.append(span)
            stack.append(span_id)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["raised"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span["counts"], span["key"] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function and rebind, by identity, each
        `nilminfer.*` module attribute that refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "nilminfer" or n.startswith("nilminfer."))
                   and m is not None]
        for module, names in TRACED.items():
            home = sys.modules[f"nilminfer.{module}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{module}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover. Spans of one
    thread nest without overlap, so the children's durations add up."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(runs: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics over the spans of several traced runs (each list is
    one process, with parent indices local to it). Ratios whose base is 0
    read 0; a function that was never called reports 0 for every stat."""
    calls, self_s, raised, counts, keys = {}, {}, {}, {}, {}
    for spans in runs:
        for s, own in zip(spans, self_times(spans)):
            n = s["name"]
            calls[n] = calls.get(n, 0) + 1
            self_s[n] = self_s.get(n, 0.0) + own
            raised[n] = raised.get(n, 0) + s["raised"]
            for c, v in s.get("counts", {}).items():
                if c == "product_states":
                    counts.setdefault(n, {})[c] = max(
                        counts.get(n, {}).get(c, 0), v)
                else:
                    counts.setdefault(n, {})[c] = counts.get(n, {}).get(c, 0) + v
            if s.get("key") is not None:
                keys.setdefault(n, set()).add(s["key"])

    out = {}
    for module, names in TRACED.items():
        for fname in names:
            n = f"{module}.{fname}"
            out[f"{n}.calls"] = calls.get(n, 0)
            out[f"{n}.self_s"] = self_s.get(n, 0.0)
            out[f"{n}.raised"] = raised.get(n, 0)

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    def unique_frac(name):
        return _ratio(len(keys.get(name, ())), calls.get(name, 0))

    for n in ("series.load_power_csv", "series.load_occupancy_csv",
              "series.write_power_csv"):
        out[f"{n}.rows"] = c(n, "rows")
        out[f"{n}.us_per_row"] = _ratio(self_s.get(n, 0.0), c(n, "rows"), 1e6)
    out["series.load_power_csv.unique_frac"] = unique_frac("series.load_power_csv")
    out["events.detect_events.samples"] = c("events.detect_events", "samples")
    out["events.detect_events.events"] = c("events.detect_events", "events")
    out["events.pair_events.pairs"] = c("events.pair_events", "pairs")
    out["events.pair_events.pair_yield"] = _ratio(
        2 * c("events.pair_events", "pairs"),
        c("events.pair_events", "events_in"))
    out["occupancy.window_stats.unique_frac"] = unique_frac("occupancy.window_stats")
    n = "classify.knn_classify"
    out[f"{n}.pairs_scored"] = c(n, "pairs_scored")
    out[f"{n}.ns_per_pair"] = _ratio(self_s.get(n, 0.0), c(n, "pairs_scored"), 1e9)
    out["classify.rf_classify.train_rows"] = c("classify.rf_classify", "train_rows")
    n = "disagg.fhmm_disaggregate"
    out[f"{n}.samples"] = c(n, "samples")
    out[f"{n}.product_states"] = c(n, "product_states")
    out[f"{n}.us_per_step"] = _ratio(self_s.get(n, 0.0), c(n, "samples"), 1e6)
    return out

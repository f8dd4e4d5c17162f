"""CLI harness: subcommands, artifacts, determinism, exit codes."""
import copy
import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from nilminfer.cli import run
from nilminfer.series import (DatasetManifest, PowerSeries, save_manifest,
                              write_power_csv)


def manifest_path(corpus):
    return str(corpus.manifest.base_dir / "manifest.json")


def test_synth_then_occupancy_end_to_end(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert run(["synth", "--homes", "2", "--days", "7", "--seed", "5",
                "--out", str(corpus_dir)]) == 0
    assert (corpus_dir / "manifest.json").exists()
    out = tmp_path / "occ.json"
    assert run(["occupancy", "--manifest", str(corpus_dir / "manifest.json"),
                "--algo", "ours,chen", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["per_home"]) == 4  # 2 homes x 2 algorithms
    assert payload["tool_version"]
    assert payload["seed"] == 7  # default seed
    assert payload["config_hash"]
    for row in payload["per_home"]:
        assert set(row) >= {"tp", "tn", "fp", "fn", "accuracy_pct"}


def test_report_produces_valid_svg(tmp_path, small_corpus):
    occ_out = tmp_path / "occ.json"
    assert run(["occupancy", "--manifest", manifest_path(small_corpus),
                "--algo", "ours,chen-median", "--out", str(occ_out)]) == 0
    charts = tmp_path / "charts"
    assert run(["report", "--results", str(occ_out),
                "--out", str(charts)]) == 0
    for name in ("occupancy_metrics.svg", "energy_vs_miss_time.svg"):
        tree = ET.parse(charts / name)  # raises on malformed XML
        assert tree.getroot().tag.endswith("svg")


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_2(capsys):
    assert run(["synth", "--bogus", "1", "--out", "x"]) == 2
    # synth has no detector, so it takes no detector flags
    assert run(["synth", "--steady-tol", "20", "--out", "x"]) == 2


def test_runtime_failure_exits_1_with_json_error(tmp_path, capsys):
    assert run(["occupancy", "--manifest", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    record = json.loads(err)
    assert record["subcommand"] == "occupancy"
    assert record["error"]


def test_occupancy_rerun_is_byte_identical(tmp_path, small_corpus):
    out = tmp_path / "occ.json"
    args = ["occupancy", "--manifest", manifest_path(small_corpus),
            "--algo", "ours", "--seed", "7", "--out", str(out)]
    assert run(args) == 0
    first = out.read_bytes()
    assert run(args) == 0
    assert out.read_bytes() == first


def test_detect_events_csvs(tmp_path, small_corpus):
    out = tmp_path / "events"
    assert run(["detect-events", "--manifest", manifest_path(small_corpus),
                "--out", str(out)]) == 0
    events = (out / "events_home_00.csv").read_text().splitlines()
    assert events[0] == "time,delta_w"
    assert len(events) > 10
    pairs = (out / "pairs_home_00.csv").read_text().splitlines()
    assert pairs[0] == "on_time,off_time,magnitude_w"
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["counts"]["home_00"]["events"] == len(events) - 1


def test_disaggregate_fhmm_writes_traces_and_metrics(tmp_path, small_corpus):
    out = tmp_path / "traces"
    assert run(["disaggregate", "--manifest", manifest_path(small_corpus),
                "--algo", "fhmm", "--train-split", "0.5",
                "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    home_metrics = metrics["metrics"]["home_00"]
    assert "hvac" in home_metrics and "fridge" in home_metrics
    assert home_metrics["hvac"]["fscore"] > 0.9
    assert (out / "home_00" / "hvac.csv").exists()


def test_disaggregate_hart_runs(tmp_path, small_corpus):
    out = tmp_path / "hart"
    assert run(["disaggregate", "--manifest", manifest_path(small_corpus),
                "--algo", "hart", "--out", str(out)]) == 0
    assert (out / "home_00" / "hvac.csv").exists()
    assert (out / "home_00" / "highest_power_appliance.csv").exists()


def test_features_csv(tmp_path, small_corpus):
    out = tmp_path / "features.csv"
    assert run(["features", "--manifest", manifest_path(small_corpus),
                "--source", "aggregate-only", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("home_id,")
    assert len(lines) == 6  # header + 5 homes
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["n_homes"] == 5


def test_classify_subcommand(tmp_path, small_corpus):
    out = tmp_path / "table.json"
    assert run(["classify", "--manifest", manifest_path(small_corpus),
                "--source", "aggregate-only", "--classifier", "knn",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert all({"characteristic", "source", "classifier", "accuracy_pct",
                "selected_features"} <= set(r) for r in payload["rows"])
    charts = tmp_path / "clf_charts"
    assert run(["report", "--results", str(out), "--out", str(charts)]) == 0
    ET.parse(charts / "characteristics_accuracy.svg")


def test_config_file_provides_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"days": 7, "homes": 2}))
    out = tmp_path / "corpus"
    assert run(["synth", "--config", str(cfg), "--out", str(out),
                "--homes", "3"]) == 0  # flag beats file; file beats default
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["config"]["days"] == 7
    assert meta["config"]["homes"] == 3
    assert len(json.loads((out / "manifest.json").read_text())["homes"]) == 3


def test_equals_spelled_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"homes": 2, "days": 1}))
    out = tmp_path / "corpus"
    assert run(["synth", "--config", str(cfg), "--homes=3",
                "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["config"]["homes"] == 3 and meta["config"]["days"] == 1
    assert len(json.loads((out / "manifest.json").read_text())["homes"]) == 3


def test_config_file_supplies_required_flags(tmp_path, capsys):
    file_out, flag_out = tmp_path / "from_file", tmp_path / "from_flag"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"homes": 2, "days": 1, "out": str(file_out)}))
    assert run(["synth", "--config", str(cfg)]) == 0
    assert json.loads((file_out / "run_meta.json").read_text())["config"][
        "out"] == str(file_out)
    # a flag still beats the file's value
    assert run(["synth", "--config", str(cfg), "--out", str(flag_out)]) == 0
    assert (flag_out / "manifest.json").exists()
    # a required flag that neither gives is still a usage error
    cfg.write_text(json.dumps({"homes": 2, "days": 1}))
    assert run(["synth", "--config", str(cfg)]) == 2
    assert "--out" in capsys.readouterr().err


def test_config_file_and_flags_record_the_same_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"homes": 2, "days": 1, "period": 60,
                               "seed": 3}))
    out = tmp_path / "corpus"
    metas = []
    for argv in (["--config", str(cfg)],
                 ["--homes=2", "--days", "1", "--period=60", "--seed", "3"]):
        assert run(["synth", *argv, "--out", str(out)]) == 0
        metas.append((out / "run_meta.json").read_bytes())
    assert metas[0] == metas[1]


def test_config_file_values_are_checked_and_converted_like_flags(
        tmp_path, small_corpus):
    cfg = tmp_path / "cfg.json"
    # a float where the flag takes an int is a usage error, not a crash
    cfg.write_text(json.dumps({"homes": 2, "days": 1, "period": 60.0}))
    assert run(["synth", "--config", str(cfg),
                "--out", str(tmp_path / "corpus")]) == 2
    # a value outside the flag's choices is a usage error
    cfg.write_text(json.dumps({"protocol": "bogus"}))
    assert run(["occupancy", "--config", str(cfg),
                "--manifest", manifest_path(small_corpus),
                "--out", str(tmp_path / "occ.json")]) == 2
    # an int where the flag takes a float records the float, as the flag does
    cfg.write_text(json.dumps({"steady_tol": 40}))
    out = tmp_path / "events"
    metas = []
    for extra in (["--config", str(cfg)], ["--steady-tol", "40"]):
        assert run(["detect-events", "--manifest", manifest_path(small_corpus),
                    "--out", str(out), *extra]) == 0
        metas.append((out / "run_meta.json").read_bytes())
    assert metas[0] == metas[1]
    assert json.loads(metas[0])["config"]["steady_tol"] == 40.0


@pytest.mark.parametrize("command, flag, value", [
    ("classify", "folds", "0"), ("classify", "folds", "1"),
    ("classify", "folds", "abc"), ("disaggregate", "train-split", "0"),
    ("disaggregate", "train-split", "1.0"), ("disaggregate", "train-split", "1.5"),
    ("disaggregate", "train-split", "x")])
@pytest.mark.parametrize("spelling", ["separate", "equals", "config"])
def test_out_of_range_numbers_are_usage_errors(tmp_path, small_corpus, capsys,
                                               command, flag, value, spelling):
    """--folds below 2 and --train-split outside (0, 1) or not a number exit
    2 naming the flag, given on the command line either way or in a config
    file, with a message of their own, not argparse's "invalid <type>"."""
    if spelling == "separate":
        given = [f"--{flag}", value]
    elif spelling == "equals":
        given = [f"--{flag}={value}"]
    else:
        cfg = tmp_path / "cfg.json"
        number = value if value.isalpha() else json.loads(value)
        cfg.write_text(json.dumps({flag.replace("-", "_"): number}))
        given = ["--config", str(cfg)]
    assert run([command, "--manifest", manifest_path(small_corpus),
                "--out", str(tmp_path / "out"), *given]) == 2
    err = capsys.readouterr().err
    assert f"argument --{flag}:" in err and "invalid" not in err


def test_subcommands_do_not_mutate_inputs(tmp_path, small_corpus):
    base = small_corpus.manifest.base_dir
    before = {p: p.read_bytes() for p in sorted(base.rglob("*.csv"))}
    before[base / "manifest.json"] = (base / "manifest.json").read_bytes()
    assert run(["occupancy", "--manifest", manifest_path(small_corpus),
                "--algo", "ours", "--out", str(tmp_path / "o.json")]) == 0
    for p, blob in before.items():
        assert p.read_bytes() == blob


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("DISAGG_SEED", "99")
    out = tmp_path / "corpus"
    assert run(["synth", "--homes", "2", "--days", "1",
                "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["seed"] == 99


def test_occupancy_jobs_flag_is_accepted_and_ignored(tmp_path, small_corpus):
    out = tmp_path / "occ.json"
    args = ["occupancy", "--manifest", manifest_path(small_corpus),
            "--algo", "ours", "--out", str(out)]
    assert run(args) == 0
    serial = out.read_bytes()
    assert run(args + ["--jobs", "3"]) == 0
    assert out.read_bytes() == serial
    assert "jobs" not in json.loads(serial)["config"]


def test_config_file_detector_settings_reach_detection(tmp_path, small_corpus):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steady_tol": 40.0, "min_event": 400.0}))
    counts = {}
    for name, extra in (("default", []), ("file", ["--config", str(cfg)])):
        out = tmp_path / name
        assert run(["detect-events", "--manifest", manifest_path(small_corpus),
                    "--out", str(out), *extra]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        counts[name] = sum(c["events"] for c in meta["counts"].values())
    assert meta["config"]["steady_tol"] == 40.0
    assert meta["config"]["min_event"] == 400.0
    assert counts["file"] < counts["default"]


def test_config_hash_ignores_out(tmp_path, small_corpus):
    metas = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["occupancy", "--manifest", manifest_path(small_corpus),
                    "--algo", "chen", "--out", str(out)]) == 0
        metas.append(json.loads(out.read_text()))
    assert metas[0]["config"]["out"] != metas[1]["config"]["out"]
    assert metas[0]["config_hash"] == metas[1]["config_hash"]


def test_degenerate_appliance_warns_alike_in_disaggregate_and_features(
        tmp_path, small_corpus):
    src = small_corpus.manifest
    entry = copy.deepcopy(src.homes[0])
    entry.aggregate_path = str(src.resolve(entry.aggregate_path))
    entry.occupancy_path = str(src.resolve(entry.occupancy_path))
    entry.appliance_paths = {
        "hvac": str(src.resolve(entry.appliance_paths["hvac"])),
        "fridge": str(tmp_path / "fridge.csv")}
    agg = small_corpus.homes[entry.home_id].aggregate
    write_power_csv(PowerSeries(agg.start_time, agg.period_s,
                                np.full(len(agg), 80.0)), tmp_path / "fridge.csv")
    manifest = tmp_path / "manifest.json"
    save_manifest(DatasetManifest([entry], base_dir=tmp_path), manifest)

    messages = {}
    for name, argv in (
            ("disaggregate", ["disaggregate", "--algo", "fhmm",
                              "--out", str(tmp_path / "traces")]),
            ("features", ["features", "--source", "disagg-fhmm",
                          "--out", str(tmp_path / "features.csv")])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([*argv, "--manifest", str(manifest)]) == 0
        messages[name] = [str(w.message) for w in caught
                          if "degenerate" in str(w.message)]
    want = [f"skipping degenerate appliance fridge for home {entry.home_id}"]
    assert messages == {"disaggregate": want, "features": want}

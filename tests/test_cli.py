"""CLI harness: subcommands, artifacts, determinism, exit codes."""
import copy
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import nilminfer
from nilminfer.cli import _config, _write_json, build_parser, run
from nilminfer.errors import AlignmentError, ManifestError
from nilminfer.series import (DatasetManifest, PowerSeries, load_manifest,
                              save_manifest, write_power_csv)
from nilminfer.synth import gen_corpus


def manifest_path(corpus):
    return str(corpus.manifest.base_dir / "manifest.json")


def corpus_doc(corpus, n_homes):
    """The corpus manifest's JSON with its first n_homes homes, each path
    made absolute so the document may be written anywhere."""
    base = corpus.manifest.base_dir
    doc = json.loads((base / "manifest.json").read_text())
    doc["homes"] = doc["homes"][:n_homes]
    for h in doc["homes"]:
        h["aggregate_path"] = str(base / h["aggregate_path"])
        h["occupancy_path"] = str(base / h["occupancy_path"])
        h["appliance_paths"] = {name: str(base / p)
                                for name, p in h["appliance_paths"].items()}
    return doc


def error_record(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


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


@pytest.mark.parametrize("argv", [
    ["disaggregate", "--help"], ["synth", "--help"], ["report", "-h"],
    ["synth", "--config", "no-such-file.json", "--help"]])
def test_help_shows_required_flags_as_required(argv, capsys):
    assert run(argv) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    flags = {"disaggregate": ["--manifest MANIFEST", "--out OUT"],
             "synth": ["--out OUT"],
             "report": ["--results RESULTS", "--out OUT"]}[argv[0]]
    for flag in flags:
        assert f" {flag}" in usage and f"[{flag}]" not in usage


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


def test_fhmm_homes_decoded_together_match_each_home_alone(tmp_path,
                                                          small_corpus):
    """Homes of two test lengths (7 and 3 days) and two product-state counts
    (one home has no hvac submeter), run together: each home's traces and
    metrics are those of a run on a manifest of that home alone."""
    short = gen_corpus(2, seed=4, days=3, out_dir=tmp_path / "short")
    doc = corpus_doc(small_corpus, 3)
    del doc["homes"][1]["appliance_paths"]["hvac"]
    extra = corpus_doc(short, 1)["homes"][0]
    extra["home_id"] = "short_00"
    doc["homes"].append(extra)

    def disaggregate(homes, name):
        manifest = tmp_path / f"{name}.json"
        manifest.write_text(json.dumps({**doc, "homes": homes}))
        out = tmp_path / name
        assert run(["disaggregate", "--algo", "fhmm", "--manifest",
                    str(manifest), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())["metrics"]
        return metrics, {p.relative_to(out): p.read_bytes()
                         for p in out.rglob("*.csv")}

    metrics, traces = disaggregate(doc["homes"], "together")
    for h in doc["homes"]:
        alone_metrics, alone_traces = disaggregate([h], h["home_id"])
        assert alone_metrics == {h["home_id"]: metrics[h["home_id"]]}
        assert alone_traces == {p: b for p, b in traces.items()
                                if p.parts[0] == h["home_id"]}
    assert len(traces) == 7  # 2 + 1 + 2 + 2 appliance traces


def test_disaggregate_hart_runs(tmp_path, small_corpus):
    out = tmp_path / "hart"
    assert run(["disaggregate", "--manifest", manifest_path(small_corpus),
                "--algo", "hart", "--out", str(out)]) == 0
    assert (out / "home_00" / "hvac.csv").exists()
    assert (out / "home_00" / "highest_power_appliance.csv").exists()


def test_disaggregate_rerun_leaves_only_homes_and_metrics(tmp_path, small_corpus):
    """No staging directory is left behind, and a rerun into the first
    run's output writes the same bytes."""
    out = tmp_path / "hart"
    argv = ["disaggregate", "--manifest", manifest_path(small_corpus),
            "--algo", "hart", "--out", str(out)]
    assert run(argv) == 0
    first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert sorted(p.name for p in out.iterdir()) == \
        [*sorted(small_corpus.homes), "metrics.json"]
    assert run(argv) == 0
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == first


@pytest.mark.parametrize("algo", ["hart", "fhmm"])
def test_failed_disaggregate_changes_no_file_under_out(tmp_path, small_corpus,
                                                        capsys, algo):
    """The second home's hvac submeter is shifted one period: the run fails
    there and leaves out as it was, with no trace of the first home, no
    metrics.json, no staging directory, and an earlier file untouched."""
    doc = corpus_doc(small_corpus, 2)
    hvac = small_corpus.homes[doc["homes"][1]["home_id"]].appliances["hvac"]
    bad = tmp_path / "hvac.csv"
    write_power_csv(PowerSeries(hvac.start_time + hvac.period_s, hvac.period_s,
                                hvac.values), bad)
    doc["homes"][1]["appliance_paths"]["hvac"] = str(bad)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "traces"
    earlier = out / doc["homes"][0]["home_id"] / "hvac.csv"
    earlier.parent.mkdir(parents=True)
    earlier.write_text("an earlier run's trace\n")
    assert run(["disaggregate", "--algo", algo, "--manifest", str(manifest),
                "--out", str(out)]) == 1
    assert error_record(capsys)["error"] == "AlignmentError"
    assert sorted(out.rglob("*")) == [earlier.parent, earlier]
    assert earlier.read_text() == "an earlier run's trace\n"


def files_under(out) -> dict:
    return {p.relative_to(out): p.read_bytes() if p.is_file() else None
            for p in out.rglob("*")}


@pytest.mark.parametrize("command", [["detect-events"],
                                     ["disaggregate", "--algo", "hart"]])
@pytest.mark.parametrize("earlier", [False, True], ids=["empty-out", "earlier-run"])
def test_failed_run_changes_no_file_under_out(tmp_path, small_corpus, capsys,
                                             command, earlier):
    """The third home's aggregate has a malformed row: the run fails there,
    into an empty out or one an earlier run with another config wrote, and
    leaves every file under out as it was, with nothing of the first two
    homes and no staging directory."""
    doc = corpus_doc(small_corpus, 3)
    bad = tmp_path / "aggregate.csv"
    with open(doc["homes"][2]["aggregate_path"]) as f:
        bad.write_text(f.read() + "x,1\n")
    doc["homes"][2]["aggregate_path"] = str(bad)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    if earlier:
        assert run([*command, "--manifest", manifest_path(small_corpus),
                    "--out", str(out), "--steady-tol", "40"]) == 0
    before = files_under(out)
    assert run([*command, "--manifest", str(manifest), "--out", str(out)]) == 1
    assert error_record(capsys)["error"] == "ParseError"
    assert files_under(out) == before
    assert bool(before) == earlier


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
    with pytest.warns(UserWarning, match="skipping rooms"):
        assert run(["classify", "--manifest", manifest_path(small_corpus),
                    "--source", "aggregate-only", "--classifier", "knn",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert all({"characteristic", "source", "classifier", "accuracy_pct",
                "selected_features"} <= set(r) for r in payload["rows"])
    charts = tmp_path / "clf_charts"
    assert run(["report", "--results", str(out), "--out", str(charts)]) == 0
    ET.parse(charts / "characteristics_accuracy.svg")


def test_report_of_a_classification_with_no_rows_renders_no_chart(tmp_path):
    """Two homes leave every characteristic too few per class for 2-fold CV,
    so classify writes no rows; report on that draws no chart, as it does
    for an occupancy payload with an empty summary."""
    corpus, table, charts = tmp_path / "c", tmp_path / "t.json", tmp_path / "ch"
    assert run(["synth", "--homes", "2", "--days", "7", "--out", str(corpus)]) == 0
    with pytest.warns(UserWarning, match="too small for 2-fold CV"):
        assert run(["classify", "--manifest", str(corpus / "manifest.json"),
                    "--source", "aggregate-only", "--out", str(table)]) == 0
    assert json.loads(table.read_text())["rows"] == []
    assert run(["report", "--results", str(table), "--out", str(charts)]) == 0
    assert json.loads((charts / "run_meta.json").read_text())["charts"] == []
    assert sorted(p.name for p in charts.iterdir()) == ["run_meta.json"]


NOT_AN_OBJECT = {"empty": ("", "not JSON (Expecting value)", 1),
                 "broken": ('{"homes": 2,\n "days": }', "not JSON (Expecting value)", 2),
                 "list": ("[1]", "not a JSON object", None),
                 "string": ('"rows"', "not a JSON object", None),
                 "not-utf8": (b"\xff\xfe{}", "not UTF-8 text (byte 0: invalid "
                              "start byte)", None)}


@pytest.mark.parametrize("flag, text, message, line", [
    *[pytest.param(flag, *case, id=f"{flag[2:]}-{name}")
      for flag in ("--config", "--results") for name, case in NOT_AN_OBJECT.items()],
    pytest.param("--results", '{"homes": 2}', "not an occupancy or "
                 "classification results payload", None, id="results-other-object")])
def test_a_json_file_that_is_not_an_object_is_a_parse_error_naming_it(
        tmp_path, capsys, flag, text, message, line):
    """--config and --results are read by one reader: a file that is not
    UTF-8 text, not JSON, or JSON but not an object, exits 1 with a
    ParseError naming the file (and the line where the JSON breaks); for
    --results, so is an object that is no known payload. Nothing is written
    under --out."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    argv = (["synth", "--config", str(bad), "--out", str(out)]
            if flag == "--config" else
            ["report", "--results", str(bad), "--out", str(out)])
    assert run(argv) == 1
    record = error_record(capsys)
    where = f"{bad}:{line}:" if line else f"{bad}:"
    assert record["error"] == "ParseError"
    assert record["message"].startswith(where) and message in record["message"]
    assert not out.exists()


SUMMARY_ROW = {"algorithm": "ours", "accuracy_pct": 90.0, "n_windows": 10,
               "tp": 4, "tn": 5, "fp": 1, "fn": 0, "energy_proxy": 5,
               "miss_time": 0}


@pytest.mark.parametrize("payload, message", [
    ({"rows": [{"source": "both"}]}, "rows row 0 has no 'characteristic'"),
    ({"rows": [{"characteristic": "c", "source": "both", "accuracy_pct": 50.0}]},
     "rows row 0 has no 'baseline_accuracy_pct'"),
    ({"rows": [1]}, "rows row 0 has no 'characteristic'"),
    ({"rows": {"characteristic": "c"}}, "rows is not a list"),
    ({"per_home": [], "summary": [
        SUMMARY_ROW, {k: v for k, v in SUMMARY_ROW.items() if k != "accuracy_pct"}]},
     "summary row 1 has no 'accuracy_pct'"),
    ({"per_home": [], "summary": "ours"}, "summary is not a list"),
], ids=["no-characteristic", "no-baseline", "row-not-object", "rows-not-list",
        "no-accuracy", "summary-not-list"])
def test_report_on_rows_without_the_keys_drawn_is_a_parse_error(
        tmp_path, capsys, payload, message):
    """report checks every row it draws for the keys its chart reads, and
    names the file, the row and the first missing key; nothing is written."""
    results = tmp_path / "results.json"
    results.write_text(json.dumps(payload))
    out = tmp_path / "charts"
    assert run(["report", "--results", str(results), "--out", str(out)]) == 1
    assert error_record(capsys) == {"error": "ParseError", "subcommand": "report",
                                    "message": f"{results}: {message}"}
    assert not out.exists()


CLASSIFICATION_ROW = {"characteristic": "c", "source": "s", "accuracy_pct": 60.0,
                      "baseline_accuracy_pct": 50.0}


@pytest.mark.parametrize("payload, message", [
    ({"rows": [{**CLASSIFICATION_ROW, "accuracy_pct": "high"}]},
     "rows row 0 'accuracy_pct' must be a finite number, got \"high\""),
    ({"per_home": [], "summary": [SUMMARY_ROW, {**SUMMARY_ROW, "n_windows": "ten"}]},
     "summary row 1 'n_windows' must be a finite number, got \"ten\""),
    ({"per_home": [], "summary": [{**SUMMARY_ROW, "tp": True}]},
     "summary row 0 'tp' must be a finite number, got true"),
    ({"per_home": [], "summary": [{**SUMMARY_ROW, "fn": None}]},
     "summary row 0 'fn' must be a finite number, got null"),
    ({"rows": [{**CLASSIFICATION_ROW, "baseline_accuracy_pct": math.inf}]},
     "rows row 0 'baseline_accuracy_pct' must be a finite number, got Infinity"),
    ({"rows": [{**CLASSIFICATION_ROW, "source": 2}]},
     "rows row 0 'source' must be a string, got 2"),
    ({"per_home": [], "summary": [{**SUMMARY_ROW, "algorithm": ["ours"]}]},
     "summary row 0 'algorithm' must be a string, got [\"ours\"]"),
], ids=["accuracy-text", "n-windows-text", "bool", "null", "infinite",
        "source-number", "algorithm-list"])
def test_report_on_a_value_of_the_wrong_kind_is_a_parse_error(
        tmp_path, capsys, payload, message):
    """A drawn number must be a finite JSON integer or real, not a bool, and
    a drawn label a string; anything else exits 1 with a ParseError naming
    the file, the table, the row and the key, and nothing is written."""
    results = tmp_path / "results.json"
    results.write_text(json.dumps(payload))
    out = tmp_path / "charts"
    assert run(["report", "--results", str(results), "--out", str(out)]) == 1
    assert error_record(capsys) == {"error": "ParseError", "subcommand": "report",
                                    "message": f"{results}: {message}"}
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["occupancy", "--algo", "chen,chen"], "algorithm 'chen' is given twice"),
    (["classify", "--source", "both,both"],
     "feature source 'both' is given twice"),
], ids=["occupancy", "classify"])
def test_repeated_names_exit_1_naming_the_name(tmp_path, small_corpus, capsys,
                                               argv, message):
    out = tmp_path / "out.json"
    assert run([*argv, "--manifest", manifest_path(small_corpus),
                "--out", str(out)]) == 1
    assert error_record(capsys) == {"error": "ValueError", "message": message,
                                    "subcommand": argv[0]}
    assert not out.exists()


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
        tmp_path, small_corpus, capsys, monkeypatch):
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
    # null, a boolean, a list or an object has no text of a flag value: a
    # usage error naming the key, not a corpus written to ./None
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for key, value in (("out", None), ("out", True), ("out", ["a"]),
                       ("out", {"a": 1}), ("homes", False), ("seed", None)):
        cfg.write_text(json.dumps({"homes": 2, "days": 1, "out": "corpus",
                                   key: value}))
        assert run(["synth", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"argument --{key}: need a number or a string in --config" in err
    assert list(cwd.iterdir()) == []
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
    ("disaggregate", "train-split", "x"),
    ("detect-events", "steady-tol", "nan"), ("occupancy", "steady-tol", "inf"),
    ("disaggregate", "steady-tol", "-5"), ("features", "steady-tol", "0"),
    ("detect-events", "min-event", "inf"), ("classify", "min-event", "nan"),
    ("occupancy", "min-event", "0"), ("disaggregate", "on-threshold", "nan"),
    ("disaggregate", "on-threshold", "-1"), ("disaggregate", "on-threshold", "inf"),
    ("occupancy", "seed", "-3"), ("detect-events", "seed", "abc"),
    ("classify", "seed", "-1")])
@pytest.mark.parametrize("spelling", ["separate", "equals", "config"])
def test_out_of_range_numbers_are_usage_errors(tmp_path, small_corpus, capsys,
                                               command, flag, value, spelling):
    """--folds below 2, --train-split outside (0, 1), --steady-tol and
    --min-event not finite and > 0, --on-threshold not finite and >= 0,
    --seed below 0, or any of them not a number, exit 2 naming the flag, given on the command
    line either way or in a config file, with a message of their own, not
    argparse's "invalid <type>"."""
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


@pytest.mark.parametrize("flag, value", [
    ("homes", "1"), ("homes", "0"), ("homes", "two"), ("days", "0"),
    ("days", "-1"), ("days", "1.5"), ("period", "7"), ("period", "0"),
    ("period", "-30"), ("period", "30.0"), ("period", "172800"),
    ("seed", "-1"), ("seed", "1.5")])
@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_synth_out_of_range_numbers_are_usage_errors(tmp_path, capsys, flag,
                                                     value, spelling):
    """--homes below 2, --days below 1, a --period that is not a positive
    divisor of 86400 and a --seed below 0 exit 2 naming the flag, on the command line or from a
    config file, and write nothing."""
    out = tmp_path / "corpus"
    argv = ["synth", "--out", str(out)]
    for other, small in (("homes", "2"), ("days", "1")):
        if other != flag:
            argv += [f"--{other}", small]
    if spelling == "flag":
        argv += [f"--{flag}", value]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: value if value.isalpha()
                                   else json.loads(value)}))
        argv += ["--config", str(cfg)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"argument --{flag}:" in err and "invalid" not in err
    assert not out.exists()


def test_subcommands_do_not_mutate_inputs(tmp_path, small_corpus):
    base = small_corpus.manifest.base_dir
    before = {p: p.read_bytes() for p in sorted(base.rglob("*.csv"))}
    before[base / "manifest.json"] = (base / "manifest.json").read_bytes()
    assert run(["occupancy", "--manifest", manifest_path(small_corpus),
                "--algo", "ours", "--out", str(tmp_path / "o.json")]) == 0
    for p, blob in before.items():
        assert p.read_bytes() == blob


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
def test_malformed_env_seed_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                             value):
    """DISAGG_SEED is checked as --seed is, when a subcommand needs it: exit
    2 naming --seed, while --version still works."""
    monkeypatch.setenv("DISAGG_SEED", value)
    assert run(["--version"]) == 0
    out = tmp_path / "corpus"
    assert run(["synth", "--homes", "2", "--days", "1", "--out", str(out)]) == 2
    assert "argument --seed: need an integer of at least 0" in capsys.readouterr().err
    assert not out.exists()
    # a flag given on the command line wins over a malformed default
    assert run(["synth", "--homes", "2", "--days", "1", "--seed", "3",
                "--out", str(out)]) == 0


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


@pytest.mark.parametrize("mutate, names_home", [
    pytest.param(lambda d: d["homes"][0].pop("aggregate_path"), True,
                 id="no-aggregate-path"),
    pytest.param(lambda d: d["homes"][0].update(timezone="Mars/Base"), True,
                 id="unknown-timezone"),
    pytest.param(lambda d: d.update(homes=[]), False, id="homes-empty-list"),
    pytest.param(lambda d: d.update(homes={}), False, id="homes-object"),
    pytest.param(lambda d: d["homes"][0]["characteristics"].update(occupants="3"),
                 True, id="string-characteristic"),
    pytest.param(lambda d: d["homes"][0]["characteristics"].update(
        area_sqft=math.nan), True, id="nan-characteristic"),
    pytest.param(lambda d: d["homes"].append(copy.deepcopy(d["homes"][0])), True,
                 id="duplicate-home-id"),
    pytest.param(lambda d: d.update(meta=5), False, id="meta-not-object"),
])
def test_manifest_faults_are_manifest_errors_naming_manifest_and_home(
        tmp_path, small_corpus, capsys, mutate, names_home):
    doc = corpus_doc(small_corpus, 2)
    home_id = doc["homes"][0]["home_id"]
    mutate(doc)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ManifestError) as exc:
        load_manifest(manifest)
    assert exc.value.path == str(manifest)
    assert run(["occupancy", "--manifest", str(manifest), "--algo", "chen",
                "--out", str(tmp_path / "occ.json")]) == 1
    record = error_record(capsys)
    assert record["error"] == "ManifestError"
    assert str(manifest) in record["message"]
    assert (f"home {home_id}:" in record["message"]) == names_home
    assert not (tmp_path / "occ.json").exists()


@pytest.mark.parametrize("algo", ["hart", "fhmm"])
@pytest.mark.parametrize("fault", ["one-sample-short", "shifted-one-period"])
def test_misaligned_submeter_is_an_alignment_error_naming_its_file(
        tmp_path, small_corpus, capsys, algo, fault):
    doc = corpus_doc(small_corpus, 1)
    hvac = small_corpus.homes[doc["homes"][0]["home_id"]].appliances["hvac"]
    bad = tmp_path / "hvac.csv"
    write_power_csv(hvac.slice(0, len(hvac) - 1) if fault == "one-sample-short"
                    else PowerSeries(hvac.start_time + hvac.period_s,
                                     hvac.period_s, hvac.values), bad)
    doc["homes"][0]["appliance_paths"]["hvac"] = str(bad)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    argv = ["disaggregate", "--algo", algo, "--manifest", str(manifest),
            "--out", str(tmp_path / "traces")]
    args = build_parser().parse_args(argv)
    with pytest.raises(AlignmentError) as exc:
        args.func(_config(args))
    assert exc.value.path == str(bad)
    assert run(argv) == 1
    record = error_record(capsys)
    assert record["error"] == "AlignmentError" and str(bad) in record["message"]
    assert not (tmp_path / "traces" / "metrics.json").exists()
    # the home is scored before any of its traces is written
    assert not (tmp_path / "traces" / doc["homes"][0]["home_id"]).exists()


@pytest.mark.parametrize("home_id", ["", ".", "..", "a/b", "/abs", "a\\b",
                                     "a\0b", "a,b", 'a"b', "a\rb", "a\nb"])
def test_home_id_must_be_one_path_component_and_one_csv_field(
        tmp_path, small_corpus, home_id):
    doc = corpus_doc(small_corpus, 2)
    doc["homes"][0]["home_id"] = home_id
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ManifestError) as exc:
        load_manifest(manifest)
    assert exc.value.path == str(manifest)
    assert f"home {home_id!r}: home_id must be" in str(exc.value)


@pytest.mark.parametrize("home_id", ["home_00", "house 7-b.v2"])
def test_plain_home_ids_load(tmp_path, small_corpus, home_id):
    doc = corpus_doc(small_corpus, 1)
    doc["homes"][0]["home_id"] = home_id
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    assert [e.home_id for e in load_manifest(manifest).homes] == [home_id]


def test_disaggregate_with_an_absolute_home_id_writes_nothing(
        tmp_path, small_corpus, capsys):
    escaped = tmp_path / "escaped"
    doc = corpus_doc(small_corpus, 2)
    doc["homes"][0]["home_id"] = str(escaped)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    assert run(["disaggregate", "--algo", "hart", "--manifest", str(manifest),
                "--out", str(tmp_path / "traces")]) == 1
    assert error_record(capsys)["error"] == "ManifestError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_home_with_only_constant_submeters_fails_alike_in_both_fhmm_callers(
        tmp_path, small_corpus, capsys):
    """Every submeter of the home is constant, so no appliance model trains:
    disaggregate and the disagg-fhmm features fail with the same error."""
    doc = corpus_doc(small_corpus, 2)
    home = doc["homes"][0]
    agg = small_corpus.homes[home["home_id"]].aggregate
    for name in home["appliance_paths"]:
        flat = tmp_path / f"{name}.csv"
        write_power_csv(PowerSeries(agg.start_time, agg.period_s,
                                    np.full(len(agg), 80.0)), flat)
        home["appliance_paths"][name] = str(flat)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    for argv in (["disaggregate", "--algo", "fhmm", "--out", str(tmp_path / "traces")],
                 ["features", "--source", "disagg-fhmm",
                  "--out", str(tmp_path / "features.csv")]):
        with pytest.warns(UserWarning, match="skipping degenerate appliance"):
            assert run([*argv, "--manifest", str(manifest)]) == 1
        assert error_record(capsys) == {
            "error": "DegenerateModelError", "subcommand": argv[0],
            "message": f"home {home['home_id']}: no trainable appliances"}


@pytest.mark.parametrize("rows", ["1704067200,5\n", "1704067200,5\n1704067200,7\n"],
                         ids=["one-row", "duplicates"])
def test_aggregate_with_one_distinct_stamp_is_a_parse_error_naming_it(
        tmp_path, small_corpus, capsys, rows):
    """One stamp fixes no period; every subcommand that reads the aggregate
    fails at ingest, naming the file."""
    doc = corpus_doc(small_corpus, 2)
    bad = tmp_path / "aggregate.csv"
    bad.write_text("timestamp,power_w\n" + rows)
    doc["homes"][0]["aggregate_path"] = str(bad)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    for argv in (["detect-events", "--out", str(tmp_path / "events")],
                 ["disaggregate", "--out", str(tmp_path / "traces")],
                 ["occupancy", "--out", str(tmp_path / "occ.json")],
                 ["features", "--out", str(tmp_path / "features.csv")]):
        assert run([*argv, "--manifest", str(manifest)]) == 1
        assert error_record(capsys) == {
            "error": "ParseError", "subcommand": argv[0],
            "message": f"{bad}: one distinct timestamp (1704067200); a power "
                       "series needs two to fix its period"}


# where a fresh interpreter finds this nilminfer
SRC = os.path.dirname(os.path.dirname(nilminfer.__file__))
STARTUP_PROBE = """
import json, os, sys
from nilminfer.cli import run
pool_modules = sorted({"concurrent.futures", "multiprocessing"} & set(sys.modules))
codes = [run(argv) for argv in json.loads(sys.argv[1])]
try:
    os.waitpid(-1, os.WNOHANG)  # raises only when no child is left, live or not
    children = True
except ChildProcessError:
    children = False
print(json.dumps({"codes": codes, "numpy_ma": "numpy.ma" in sys.modules,
                  "pool_modules_at_import": pool_modules, "children": children,
                  "threads": len(os.listdir("/proc/self/task"))}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the threads in /proc/self/task")
def test_cli_runs_import_no_numpy_ma_and_keep_one_thread(tmp_path,
                                                         small_corpus):
    """The benchmark's set-up (synth) and its occupancy-split, disagg-fhmm
    and characteristics-iso commands, run in a fresh interpreter with
    OPENBLAS_NUM_THREADS unset, load no numpy.ma (np.median, np.unique or
    np.setdiff1d would) and leave the process with its one thread and no
    child process: importing nilminfer before numpy keeps OpenBLAS from
    starting a worker pool, and synth joins the workers it forks. Importing
    the CLI loads neither concurrent.futures nor multiprocessing; only
    synth's home generation does."""
    m = manifest_path(small_corpus)
    runs = [["synth", "--homes", "3", "--days", "1"],
            ["occupancy", "--protocol", "split-half", "--algo",
             "ours,ours-optimised,chen,chen-median"],
            ["disaggregate", "--algo", "fhmm"],
            ["classify", "--classifier", "knn",
             "--source", "aggregate-only,both,disagg-hart"]]
    argvs = [[*argv, *(["--manifest", m] if i else []),
              "--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(runs)]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE,
                           json.dumps(argvs)], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got == {"codes": [0, 0, 0, 0], "numpy_ma": False,
                   "pool_modules_at_import": [], "children": False, "threads": 1}


def test_features_csv_is_the_same_bytes_under_an_ascii_locale(tmp_path,
                                                             small_corpus):
    """Every file is read and written as UTF-8, whatever the host's locale:
    a manifest with a non-ASCII home_id gives the same feature CSV under the
    C locale with UTF-8 mode off as under UTF-8 mode."""
    doc = corpus_doc(small_corpus, 2)
    doc["homes"][0]["home_id"] = "h\u00f4me_00"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    csvs = []
    for name, env in [("utf8", {"PYTHONUTF8": "1"}),
                      ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0"})]:
        out = tmp_path / f"{name}.csv"
        subprocess.run(
            [sys.executable, "-c", "import sys; from nilminfer.cli import run; "
             "sys.exit(run(sys.argv[1:]))", "features", "--manifest",
             str(manifest), "--out", str(out)],
            env={**os.environ, **env, "PYTHONPATH": SRC}, capture_output=True,
            timeout=300, check=True)
        csvs.append(out.read_bytes())
    assert "\nh\u00f4me_00,".encode() in csvs[0]
    assert csvs[1] == csvs[0]


def test_write_json_refuses_a_value_json_has_no_form_for(tmp_path):
    """A numpy integer is a TypeError, not silently written as a string."""
    with pytest.raises(TypeError):
        _write_json(tmp_path / "out.json", {"a": np.int64(3)})


def test_write_json_that_fails_leaves_the_file_as_it_was(tmp_path):
    """The JSON text is built before the path is opened: a payload that
    cannot be encoded neither truncates an existing file nor leaves a
    partial one."""
    out = tmp_path / "out.json"
    out.write_text('{"kept": true}\n')
    with pytest.raises(TypeError):
        _write_json(out, {"a": 1, "b": np.int64(3)})
    assert out.read_text() == '{"kept": true}\n'
    with pytest.raises(TypeError):
        _write_json(tmp_path / "new.json", {"a": 1, "b": np.int64(3)})
    assert not (tmp_path / "new.json").exists()


def test_import_keeps_a_callers_openblas_num_threads():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", "import os, nilminfer; "
         "print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "2"

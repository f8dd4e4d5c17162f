"""Experiment harness CLI.

Subcommands: synth, detect-events, occupancy, disaggregate, features,
classify, report. JSON is the single machine-readable result format; CSV and
SVG outputs are derived views. Every JSON artifact embeds the tool version,
the seed and a hash of the resolved configuration, and contains no
timestamps, so identical configs reproduce identical bytes.

Config precedence: CLI flags > --config file > defaults; the file's values
are parsed as flags placed before the command line's own, so the file may
also supply a required flag. The default seed comes from the DISAGG_SEED
environment variable when set.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .classify import RandomForestConfig, characteristics_experiment
from .disagg import (ON_THRESHOLD_W, fhmm_disaggregate, hart_disaggregate,
                     nilm_metrics, train_appliance_models)
from .errors import DegenerateModelError
from .events import (DetectorConfig, detect_events, pair_events)
from .features import (FEATURE_SOURCES, build_feature_table, write_feature_csv)
from .occupancy import occupancy_experiment
from .series import load_home, load_manifest, write_power_csv
from .series import load_power_csv  # noqa: F401 (perfbench/test_tracer.py)
from .synth import gen_corpus
from .report import render_classification_report, render_occupancy_report


def _default_seed() -> int:
    return int(os.environ.get("DISAGG_SEED", "7"))


def _checked(kind, ok, need: str):
    """An argparse type: the text as kind (int or float) when ok accepts
    it, else a usage error that says what the flag needs."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{need}, got {text!r}")
        return value
    return convert


def _config(args: argparse.Namespace) -> dict:
    """The resolved config: every parsed setting of the subcommand."""
    return {k: v for k, v in vars(args).items()
            if k not in ("func", "subcommand", "config", "jobs")}


def _config_hash(cfg: dict) -> str:
    """Hash of the keys that change results; `out` only says where they go."""
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    blob = json.dumps(hashed, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _envelope(cfg: dict, payload: dict) -> dict:
    return {"tool_version": __version__, "seed": cfg.get("seed"),
            "config": cfg, "config_hash": _config_hash(cfg), **payload}


def _write_json(path, obj) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _detector(cfg: dict) -> DetectorConfig:
    return DetectorConfig(steady_tol_w=cfg["steady_tol"],
                          min_event_w=cfg["min_event"])


def cmd_synth(cfg: dict) -> int:
    gen_corpus(n=cfg["homes"], seed=cfg["seed"], days=cfg["days"],
               period_s=cfg["period"], out_dir=cfg["out"])
    _write_json(Path(cfg["out"]) / "run_meta.json",
                _envelope(cfg, {"subcommand": "synth"}))
    print(f"wrote corpus of {cfg['homes']} homes to {cfg['out']}")
    return 0


def cmd_detect_events(cfg: dict) -> int:
    manifest = load_manifest(cfg["manifest"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    det = _detector(cfg)
    counts = {}
    for entry in sorted(manifest.homes, key=lambda e: e.home_id):
        series = load_home(manifest, entry).aggregate
        events = detect_events(series, det.steady_tol_w, det.min_event_w)
        pairs = pair_events(events, det.match_tol_frac, det.max_duration_s)
        with open(out / f"events_{entry.home_id}.csv", "w") as f:
            f.write("time,delta_w\n")
            for e in events:
                f.write(f"{e.time},{e.delta_w!r}\n")
        with open(out / f"pairs_{entry.home_id}.csv", "w") as f:
            f.write("on_time,off_time,magnitude_w\n")
            for p in pairs:
                f.write(f"{p.on_time},{p.off_time},{p.magnitude_w!r}\n")
        counts[entry.home_id] = {"events": len(events), "pairs": len(pairs)}
    _write_json(out / "run_meta.json",
                _envelope(cfg, {"subcommand": "detect-events",
                                "counts": counts}))
    print(f"wrote event/pair CSVs for {len(counts)} homes to {out}")
    return 0


def cmd_occupancy(cfg: dict) -> int:
    manifest = load_manifest(cfg["manifest"])
    algorithms = tuple(cfg["algo"].split(","))
    results = occupancy_experiment(
        manifest, protocol=cfg["protocol"], algorithms=algorithms,
        det=_detector(cfg), rf_cfg=RandomForestConfig(seed=cfg["seed"]))
    _write_json(cfg["out"], _envelope(cfg, results))
    print(f"wrote occupancy results for {len(results['per_home'])} rows "
          f"to {cfg['out']}")
    return 0


def cmd_disaggregate(cfg: dict) -> int:
    manifest = load_manifest(cfg["manifest"])
    out = Path(cfg["out"])
    det = _detector(cfg)
    all_metrics = {}
    for entry in sorted(manifest.homes, key=lambda e: e.home_id):
        home = load_home(manifest, entry)
        aggregate = home.aggregate
        cut = max(1, int(len(aggregate) * cfg["train_split"]))
        test = aggregate.slice(cut, len(aggregate))
        if cfg["algo"] == "hart":
            result = hart_disaggregate(test, det)
        elif cfg["algo"] == "fhmm":
            models = train_appliance_models(
                {name: home.appliance(name).slice(0, cut)
                 for name in entry.appliance_paths},
                seed=cfg["seed"], home_id=entry.home_id)
            if not models:
                raise DegenerateModelError(
                    f"home {entry.home_id}: no trainable appliances")
            result = fhmm_disaggregate(test, models)
        else:
            raise ValueError(f"unknown disaggregation algorithm {cfg['algo']!r}")

        home_dir = out / entry.home_id
        home_dir.mkdir(parents=True, exist_ok=True)
        home_metrics = {}
        for name, trace in sorted(result.appliances.items()):
            write_power_csv(trace, home_dir / f"{name}.csv")
            if name in entry.appliance_paths:
                truth = home.appliance(name).slice(cut, len(aggregate))
                home_metrics[name] = nilm_metrics(
                    trace, truth, cfg["on_threshold"]).as_dict()
        all_metrics[entry.home_id] = home_metrics
    _write_json(out / "metrics.json",
                _envelope(cfg, {"subcommand": "disaggregate",
                                "algo": cfg["algo"], "metrics": all_metrics}))
    print(f"wrote {cfg['algo']} traces for {len(all_metrics)} homes to {out}")
    return 0


def cmd_features(cfg: dict) -> int:
    manifest = load_manifest(cfg["manifest"])
    table = build_feature_table(manifest, (cfg["source"],), det=_detector(cfg),
                                seed=cfg["seed"])
    Path(cfg["out"]).parent.mkdir(parents=True, exist_ok=True)
    write_feature_csv(table, cfg["source"], cfg["out"])
    _write_json(Path(cfg["out"]).with_suffix(".meta.json"),
                _envelope(cfg, {"subcommand": "features",
                                "n_homes": len(table.home_ids)}))
    print(f"wrote {cfg['source']} features for {len(table.home_ids)} homes "
          f"to {cfg['out']}")
    return 0


def cmd_classify(cfg: dict) -> int:
    manifest = load_manifest(cfg["manifest"])
    rows = characteristics_experiment(
        manifest, feature_sources=tuple(cfg["source"].split(",")),
        classifier=cfg["classifier"], folds=cfg["folds"], seed=cfg["seed"],
        det=_detector(cfg))
    _write_json(cfg["out"], _envelope(cfg, {"rows": rows}))
    print(f"wrote {len(rows)} classification rows to {cfg['out']}")
    return 0


def cmd_report(cfg: dict) -> int:
    with open(cfg["results"]) as f:
        payload = json.load(f)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    if "per_home" in payload:
        charts = render_occupancy_report(payload)
    elif "rows" in payload:
        charts = render_classification_report(payload["rows"])
    else:
        raise ValueError("unrecognized results payload; expected occupancy "
                         "or classification output")
    for name, svg in sorted(charts.items()):
        with open(out / name, "w") as f:
            f.write(svg)
    _write_json(out / "run_meta.json",
                _envelope(cfg, {"subcommand": "report",
                                "charts": sorted(charts)}))
    print(f"wrote {len(charts)} chart(s) to {out}")
    return 0


def build_parser(required: bool = True) -> argparse.ArgumentParser:
    """The CLI parser; with required=False no flag is required."""
    parser = argparse.ArgumentParser(
        prog="nilminfer",
        description="Energy-disaggregation experiments: occupancy and "
                    "household-characteristic inference from smart-meter data")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=_default_seed())
        p.add_argument("--config", help="JSON config file (flags win)")

    def common_and_detector(p):
        common(p)
        p.add_argument("--steady-tol", dest="steady_tol", type=float,
                       default=DetectorConfig.steady_tol_w)
        p.add_argument("--min-event", dest="min_event", type=float,
                       default=DetectorConfig.min_event_w)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--homes", type=int, default=20)
    p.add_argument("--days", type=int, default=14)
    p.add_argument("--period", type=int, default=30)
    p.add_argument("--out", required=required)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect-events", help="export event/pair CSVs")
    p.add_argument("--manifest", required=required)
    p.add_argument("--out", required=required)
    common_and_detector(p)
    p.set_defaults(func=cmd_detect_events)

    p = sub.add_parser("occupancy", help="occupancy prediction experiment")
    p.add_argument("--manifest", required=required)
    p.add_argument("--algo", default="ours,chen",
                   help="comma list: ours,ours-optimised,chen,chen-median,knn,rf")
    p.add_argument("--protocol", choices=("split-half", "loho"),
                   default="split-half")
    # accepted so existing command lines keep working; homes run serially
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--out", required=required)
    common_and_detector(p)
    p.set_defaults(func=cmd_occupancy)

    p = sub.add_parser("disaggregate", help="appliance disaggregation")
    p.add_argument("--manifest", required=required)
    p.add_argument("--algo", choices=("fhmm", "hart"), default="fhmm")
    p.add_argument("--train-split", dest="train_split", default=0.5,
                   type=_checked(float, lambda x: 0 < x < 1, "need a number in (0, 1)"))
    p.add_argument("--on-threshold", dest="on_threshold", type=float,
                   default=ON_THRESHOLD_W)
    p.add_argument("--out", required=required)
    common_and_detector(p)
    p.set_defaults(func=cmd_disaggregate)

    p = sub.add_parser("features", help="export a feature matrix CSV")
    p.add_argument("--manifest", required=required)
    p.add_argument("--source", choices=FEATURE_SOURCES, default="both")
    p.add_argument("--out", required=required)
    common_and_detector(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("classify", help="household-characteristic experiment")
    p.add_argument("--manifest", required=required)
    p.add_argument("--source", default="both",
                   help=f"comma list from {FEATURE_SOURCES}")
    p.add_argument("--classifier", choices=("knn", "rf"), default="knn")
    p.add_argument("--folds", default=2,
                   type=_checked(int, lambda n: n >= 2, "need an integer of at least 2"))
    p.add_argument("--out", required=required)
    common_and_detector(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="render SVG charts from results JSON")
    p.add_argument("--results", required=required)
    p.add_argument("--out", required=required)
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def run(argv) -> int:
    args = None
    try:
        # A parse that requires no flag finds the subcommand, its settings
        # and --config. The file's values then go in as flags ahead of the
        # command line's own, so argparse converts and checks them like any
        # flag, a flag given on the command line wins however it is spelled,
        # and a required flag may come from the file.
        args = build_parser(required=False).parse_args(argv)
        if args.config:
            with open(args.config) as f:
                file_cfg = json.load(f)
            keys = _config(args)
            i = argv.index(args.subcommand) + 1
            argv = [*argv[:i], *(f"--{k.replace('_', '-')}={v}"
                                 for k, v in file_cfg.items() if k in keys),
                    *argv[i:]]
        args = build_parser().parse_args(argv)
        return args.func(_config(args))
    except SystemExit as exc:  # usage errors, --help and --version
        return int(exc.code) if exc.code is not None else 0
    except Exception as exc:  # structured failure record on stderr
        record = {"error": type(exc).__name__, "message": str(exc),
                  "subcommand": getattr(args, "subcommand", None)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

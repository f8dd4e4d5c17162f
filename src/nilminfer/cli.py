"""Experiment harness CLI.

Subcommands: synth, detect-events, occupancy, disaggregate, features,
classify, report. JSON is the single machine-readable result format; CSV and
SVG outputs are derived views. Every JSON artifact embeds the tool version,
the seed and a hash of the resolved configuration, and contains no
timestamps, so identical configs reproduce identical bytes.

Config precedence: CLI flags > --config file > defaults; the file's values
are parsed as flags placed before the command line's own, so the file may
also supply a required flag. The default seed comes from the DISAGG_SEED
environment variable when set, checked as --seed is.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .classify import CLASSIFIERS, characteristics_experiment
from .disagg import (ON_THRESHOLD_W, fhmm_disaggregate, hart_disaggregate,
                     nilm_metrics, train_appliance_models)
from .errors import ParseError
from .events import (DetectorConfig, detect_events, pair_events)
from .features import (FEATURE_SOURCES, build_feature_table, write_feature_csv)
from .occupancy import PROTOCOLS, UNSUPERVISED_ALGORITHMS, occupancy_experiment
from .series import HomeData, load_manifest, write_power_csv
from .series import load_power_csv  # noqa: F401 (perfbench/test_tracer.py)
from .synth import gen_corpus
from .report import (CLASSIFICATION_KEYS, OCCUPANCY_KEYS,
                     render_classification_report, render_occupancy_report)


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


def _int_at_least(lo: int):
    return _checked(int, lambda n: n >= lo, f"need an integer of at least {lo}")


def _config(args: argparse.Namespace) -> dict:
    """The resolved config: every parsed setting of the subcommand."""
    return {k: v for k, v in vars(args).items()
            if k not in ("func", "subcommand", "config", "jobs")}


def _config_hash(cfg: dict) -> str:
    """Hash of the keys that change results; `out` only says where they go."""
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    blob = json.dumps(hashed, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _envelope(cfg: dict, payload: dict) -> dict:
    return {"tool_version": __version__, "seed": cfg.get("seed"),
            "config": cfg, "config_hash": _config_hash(cfg), **payload}


def _json_object(path) -> dict:
    """The JSON object a --config or --results file holds, else a ParseError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: "
                         f"{exc.reason})", path=str(path)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: not JSON ({exc.msg})",
                         line=exc.lineno, path=str(path)) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a JSON object", path=str(path))
    return doc


def _write_json(path, obj) -> None:
    """obj as indented JSON at path. The text is built before the file is
    opened, so a value JSON has no form for leaves no partial file."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


@contextmanager
def _staged(out: Path):
    """A directory inside out whose files move to the same paths in out only
    once the block ends without an error: a failed run changes no file there."""
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".staging-", dir=out) as staging:
        yield Path(staging)
        for f in sorted(Path(staging).rglob("*")):
            if f.is_file():
                dest = out / f.relative_to(staging)
                dest.parent.mkdir(exist_ok=True)
                f.replace(dest)


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
    det = _detector(cfg)
    counts = {}
    with _staged(out) as staging:
        for entry in manifest.homes:
            events = detect_events(HomeData(manifest, entry).aggregate, det)
            pairs = pair_events(events)
            with open(staging / f"events_{entry.home_id}.csv", "w", encoding="utf-8") as f:
                f.write("time,delta_w\n")
                for t, d in events.tolist():
                    f.write(f"{t},{d!r}\n")
            with open(staging / f"pairs_{entry.home_id}.csv", "w", encoding="utf-8") as f:
                f.write("on_time,off_time,magnitude_w\n")
                for on, off, m in pairs.tolist():
                    f.write(f"{on},{off},{m!r}\n")
            counts[entry.home_id] = {"events": len(events), "pairs": len(pairs)}
        _write_json(staging / "run_meta.json",
                    _envelope(cfg, {"subcommand": "detect-events",
                                    "counts": counts}))
    print(f"wrote event/pair CSVs for {len(counts)} homes to {out}")
    return 0


def cmd_occupancy(cfg: dict) -> int:
    manifest = load_manifest(cfg["manifest"])
    algorithms = tuple(cfg["algo"].split(","))
    results = occupancy_experiment(
        manifest, protocol=cfg["protocol"], algorithms=algorithms,
        det=_detector(cfg), seed=cfg["seed"])
    _write_json(cfg["out"], _envelope(cfg, results))
    print(f"wrote occupancy results for {len(results['per_home'])} rows "
          f"to {cfg['out']}")
    return 0


def cmd_disaggregate(cfg: dict) -> int:
    """Homes are loaded, decoded, scored and staged one at a time, so one
    home is held at a time; staging keeps a failed run from changing out."""
    manifest = load_manifest(cfg["manifest"])
    out = Path(cfg["out"])
    det = _detector(cfg)
    all_metrics = {}
    with _staged(out) as staging:
        for entry in manifest.homes:
            home = HomeData(manifest, entry)
            aggregate = home.aggregate
            cut = max(1, int(len(aggregate) * cfg["train_split"]))
            test = aggregate.slice(cut, len(aggregate))
            if cfg["algo"] == "hart":
                traces = hart_disaggregate(test, det)
            else:
                models = train_appliance_models(home, cut, seed=cfg["seed"])
                traces = fhmm_disaggregate(test, models)
            home_dir = staging / entry.home_id
            home_dir.mkdir()
            all_metrics[entry.home_id] = scores = {}
            for name, trace in sorted(traces.items()):
                if name in entry.appliance_paths:  # scored against its submeter
                    truth = home.appliance(name).slice(cut, len(aggregate))
                    scores[name] = nilm_metrics(trace, truth, cfg["on_threshold"])
                write_power_csv(trace, home_dir / f"{name}.csv")
        _write_json(staging / "metrics.json",
                    _envelope(cfg, {"subcommand": "disaggregate",
                                    "algo": cfg["algo"], "metrics": all_metrics}))
    print(f"wrote {cfg['algo']} traces for {len(all_metrics)} homes to {out}")
    return 0


def cmd_features(cfg: dict) -> int:
    manifest = load_manifest(cfg["manifest"])
    ids, X = build_feature_table(manifest, (cfg["source"],), det=_detector(cfg),
                                 seed=cfg["seed"])[cfg["source"]]
    home_ids = [e.home_id for e in manifest.homes]
    Path(cfg["out"]).parent.mkdir(parents=True, exist_ok=True)
    write_feature_csv(home_ids, ids, X, cfg["out"])
    _write_json(Path(cfg["out"]).with_suffix(".meta.json"),
                _envelope(cfg, {"subcommand": "features",
                                "n_homes": len(home_ids)}))
    print(f"wrote {cfg['source']} features for {len(home_ids)} homes "
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
    """Charts of a results payload's rows, each checked for the keys drawn
    and the kind of each key's value."""
    path = cfg["results"]
    payload = _json_object(path)
    if "per_home" in payload:
        table, keys, render = "summary", OCCUPANCY_KEYS, render_occupancy_report
    elif "rows" in payload:
        table, keys, render = "rows", CLASSIFICATION_KEYS, render_classification_report
    else:
        raise ParseError(f"{path}: not an occupancy or classification "
                         f"results payload", path=path)
    rows = payload.get(table, [])
    if not isinstance(rows, list):
        raise ParseError(f"{path}: {table} is not a list", path=path)
    for i, row in enumerate(rows):
        for key, kind in keys.items():
            if not isinstance(row, dict) or key not in row:
                raise ParseError(f"{path}: {table} row {i} has no {key!r}",
                                 path=path)
            v = row[key]
            if not (isinstance(v, str) if kind is str else
                    type(v) in (int, float) and math.isfinite(v)):
                need = "a string" if kind is str else "a finite number"
                raise ParseError(f"{path}: {table} row {i} {key!r} must be "
                                 f"{need}, got {json.dumps(v)}", path=path)
    charts = render(rows)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, svg in sorted(charts.items()):
        (out / name).write_text(svg, encoding="utf-8")
    _write_json(out / "run_meta.json", _envelope(
        cfg, {"subcommand": "report", "charts": sorted(charts)}))
    print(f"wrote {len(charts)} chart(s) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser."""
    parser = argparse.ArgumentParser(
        prog="nilminfer",
        description="Energy-disaggregation experiments: occupancy and "
                    "household-characteristic inference from smart-meter data")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    positive = _checked(float, lambda x: 0 < x < math.inf,
                        "need a finite number > 0")

    def command(name, func, help, source="--manifest", detector=True):
        """A subcommand that reads source (if any) and writes --out, with the
        flags every subcommand takes and, if detector, the two thresholds."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if source:
            p.add_argument(source, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=_int_at_least(0),
                       default=os.environ.get("DISAGG_SEED", "7"))
        p.add_argument("--config", help="JSON config file (flags win)")
        if detector:
            p.add_argument("--steady-tol", dest="steady_tol", type=positive,
                           default=DetectorConfig.steady_tol_w)
            p.add_argument("--min-event", dest="min_event", type=positive,
                           default=DetectorConfig.min_event_w)
        return p

    p = command("synth", cmd_synth, "generate a synthetic corpus",
                source=None, detector=False)
    p.add_argument("--homes", type=_int_at_least(2), default=20)
    p.add_argument("--days", type=_int_at_least(1), default=14)
    p.add_argument("--period", default=30, type=_checked(
        int, lambda n: n >= 1 and 86400 % n == 0, "need a positive divisor of 86400"))

    command("detect-events", cmd_detect_events, "export event/pair CSVs")

    p = command("occupancy", cmd_occupancy, "occupancy prediction experiment")
    p.add_argument("--algo", default="ours,chen", help="comma list: " + ",".join(
        UNSUPERVISED_ALGORITHMS + CLASSIFIERS))
    p.add_argument("--protocol", choices=PROTOCOLS, default="split-half")
    # accepted so existing command lines keep working; homes run serially
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)

    p = command("disaggregate", cmd_disaggregate, "appliance disaggregation")
    p.add_argument("--algo", choices=("fhmm", "hart"), default="fhmm")
    p.add_argument("--train-split", dest="train_split", default=0.5,
                   type=_checked(float, lambda x: 0 < x < 1, "need a number in (0, 1)"))
    p.add_argument("--on-threshold", dest="on_threshold", default=ON_THRESHOLD_W,
                   type=_checked(float, lambda x: 0 <= x < math.inf,
                                 "need a finite number >= 0"))

    p = command("features", cmd_features, "export a feature matrix CSV")
    p.add_argument("--source", choices=FEATURE_SOURCES, default="both")

    p = command("classify", cmd_classify, "household-characteristic experiment")
    p.add_argument("--source", default="both",
                   help=f"comma list from {FEATURE_SOURCES}")
    p.add_argument("--classifier", choices=CLASSIFIERS, default="knn")
    p.add_argument("--folds", type=_int_at_least(2), default=2)

    command("report", cmd_report, "render SVG charts from results JSON",
            source="--results", detector=False)
    return parser


def run(argv) -> int:
    args = None
    try:
        # One parser. A first pass, given a placeholder for every flag a
        # subcommand requires, finds the subcommand, its settings and
        # --config; its --help and usage errors are the parser's own. The
        # file's values, each a number or a string, then go in as flags ahead
        # of the command line's own, so argparse converts and checks them like
        # any flag, a flag given on the command line wins however it is
        # spelled, and a required flag may come from the file.
        parser = build_parser()
        args, _ = parser.parse_known_args(
            [*argv, "--manifest=", "--results=", "--out="])
        if args.config:
            keys = _config(args)
            flags = {f"--{k.replace('_', '-')}": v
                     for k, v in _json_object(args.config).items() if k in keys}
            for flag, v in flags.items():
                if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                    parser.error(f"argument {flag}: need a number or a string "
                                 f"in --config, got {json.dumps(v)}")
            i = argv.index(args.subcommand) + 1
            argv = [*argv[:i], *(f"{flag}={v}" for flag, v in flags.items()),
                    *argv[i:]]
        args = parser.parse_args(argv)
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

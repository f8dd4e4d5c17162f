"""Benchmark of the nilminfer CLI experiments.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 20] [--trace 0|1]

Run from the root of a checkout. The benchmark generates a seeded corpus with
`nilminfer synth` (the set-up, timed SETUP_REPS times), then runs the
workload's experiment command again and again for `--seconds`, each time as a
fresh process through `nilminfer.cli.run(argv)` with `--jobs 1`: a closed
loop of one client, where a run starts only when the previous one has ended.
Every run's output is checked. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are end to end, medians over the runs. Times
are scaled to a reference host speed: each run's seconds are divided by the
`probe()` readings taken just before and after it and multiplied by
PROBE_REF_S, so other load on a shared host does not show as a change of the
program. The raw seconds and probes are printed on the line before the
result. With `--trace 1` the set-up runs once, traced, and traced runs
alternate with untraced ones; the metrics are per layer (see tracer.py),
unscaled medians over the traced runs, plus the tracing overhead, the median
of traced minus untraced wall time over adjacent runs.

A run fails on a non-zero exit, on a structured error record on stderr, or
when its output check fails. Output checks: invariants on every seed; on the
default seed, the payload and corpus digests recorded in digests.json; on
every seed, all runs of one invocation give the same digests.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from iso import rewrite_corpus  # noqa: E402
from tracer import layer_metrics  # noqa: E402

DEFAULT_SEED = 7
SETUP_REPS = 3
MIN_RUNS = 3
DIGESTS = HERE / "digests.json"
# Keys every CLI result JSON shares; they describe the invocation (the
# config embeds the output path), not the result.
ENVELOPE = ("tool_version", "seed", "config", "config_hash")
TIMED_SUFFIXES = (".self_s", ".us_per_row", ".ns_per_pair", ".us_per_step")
# What `probe()` reads on a quiet 2-vCPU Xeon host; the scale of the times
# reported, which are "seconds at that host speed".
PROBE_REF_S = 0.05


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; empty means the run passed.
# ---------------------------------------------------------------------------

def check_occupancy(payload, homes, algorithms) -> list[str]:
    rows = payload["per_home"]
    problems = []
    want = {(h["home_id"], a) for h in homes for a in algorithms}
    got = [(r["home_id"], r["algorithm"]) for r in rows]
    if sorted(got) != sorted(want):
        problems.append(f"occupancy rows {sorted(got)} != homes x algorithms")
    for r in rows:
        if r["tp"] + r["tn"] + r["fp"] + r["fn"] != r["n_windows"]:
            problems.append(f"{r['home_id']}/{r['algorithm']}: "
                            f"tp+tn+fp+fn != n_windows")
    return problems


def check_split(payload, homes, algorithms) -> list[str]:
    problems = check_occupancy(payload, homes, algorithms)
    acc = {s["algorithm"]: s["accuracy_pct"] for s in payload["summary"]}
    if not (acc["ours"] >= acc["chen"] + 10 and acc["ours"] >= 85):
        problems.append(f"mean accuracy ours {acc['ours']:.2f} vs chen "
                        f"{acc['chen']:.2f}: want ours >= chen + 10 and >= 85")
    return problems


def check_fhmm(payload, homes, _algorithms) -> list[str]:
    metrics = payload["metrics"]
    appliances = {h["home_id"]: sorted(h["appliance_paths"]) for h in homes}
    problems = []
    if sorted(metrics) != sorted(appliances):
        problems.append(f"fhmm homes {sorted(metrics)} != {sorted(appliances)}")
    for home, per_app in metrics.items():
        if sorted(per_app) != appliances.get(home):
            problems.append(f"{home}: appliances {sorted(per_app)}")
        for app, m in per_app.items():
            if not (math.isfinite(m["rmse_w"]) and math.isfinite(m["fscore"])):
                problems.append(f"{home}/{app}: non-finite rmse_w or fscore")
    return problems


def check_classify(payload, homes, sources) -> list[str]:
    rows = payload["rows"]
    problems = [] if rows else ["no classification rows"]
    by_char = {}
    for r in rows:
        by_char.setdefault(r["characteristic"], []).append(r["source"])
        if not 0 <= r["accuracy_pct"] <= 100 or r["n_homes"] > len(homes):
            problems.append(f"{r['characteristic']}/{r['source']}: "
                            f"accuracy {r['accuracy_pct']}, n_homes {r['n_homes']}")
    for char, got in by_char.items():
        if sorted(got) != sorted(sources):
            problems.append(f"{char}: sources {sorted(got)} != {sorted(sources)}")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    homes: int
    days: int
    argv: tuple            # CLI arguments, without --manifest/--seed/--out
    check: Callable        # (payload, manifest homes, --algo/--source list)
    out_is_dir: bool = False
    iso: bool = False

    @property
    def selection(self) -> list[str]:
        flag = "--algo" if "--algo" in self.argv else "--source"
        return self.argv[self.argv.index(flag) + 1].split(",")


# Home counts are scaled down from the 20-home corpus the paper's tables use,
# so that about 90 runs of 20 s fit the benchmark's time budget; each
# workload keeps its layer mix (README.md, "Workloads").
WORKLOADS = {
    "occupancy-split": Workload(
        8, 14, ("occupancy", "--protocol", "split-half", "--jobs", "1",
                "--algo", "ours,ours-optimised,chen,chen-median"),
        check_split),
    "occupancy-loho": Workload(
        4, 14, ("occupancy", "--protocol", "loho", "--jobs", "1",
                "--algo", "knn,rf"),
        check_occupancy),
    "disagg-fhmm": Workload(
        4, 14, ("disaggregate", "--algo", "fhmm", "--train-split", "0.5"),
        check_fhmm, out_is_dir=True),
    "characteristics-iso": Workload(
        12, 7, ("classify", "--classifier", "knn",
                "--source", "aggregate-only,both,disagg-hart"),
        check_classify, iso=True),
}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str
    probe_s: float = PROBE_REF_S  # host speed probe around this run

    def scaled(self, seconds: float) -> float:
        return seconds * PROBE_REF_S / self.probe_s

    def problems(self) -> list[str]:
        out = [] if self.rc == 0 else [f"exit code {self.rc}"]
        for line in self.stderr.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "error" in record:
                out.append(f"error record {line}")
        return out + ([f"stderr: {self.stderr[-2000:]}"] if out else [])


def run_stage(cli_argv: list[str], log_dir: Path, spans: Path | None = None,
              run_id: str = "") -> Proc:
    """Run one CLI command in a fresh interpreter; CPU time from wait4, peak
    RSS as the child reports it. (wait4's ru_maxrss is no good here: a child
    started with vfork inherits the parent's high-water mark.)"""
    log_dir.mkdir(parents=True, exist_ok=True)
    rss_file = log_dir / "peak_rss_kb"
    rss_file.unlink(missing_ok=True)
    opts = ["--rss-out", str(rss_file)]
    if spans:
        opts += ["--spans", str(spans), "--run-id", run_id]
    argv = [sys.executable, str(HERE / "stage.py"), *opts, "--", *cli_argv]
    with open(log_dir / "stdout", "w") as out, open(log_dir / "stderr", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_kb = int(rss_file.read_text()) if rss_file.is_file() else usage.ru_maxrss
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                peak_kb / 1024, (log_dir / "stderr").read_text())


_PROBE_CSV = "".join(f"{1704067200 + 30 * i},{100 + i % 997 / 7.0!r}\n"
                     for i in range(10_000))


def _probe_once() -> float:
    """Interpreter loop, CSV parsing into lists and arrays, numpy on arrays in
    cache and streaming through memory: the kinds of work the workloads do."""
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    stamps, values = [], []
    for row in csv.reader(io.StringIO(_PROBE_CSV)):
        stamps.append(int(row[0]))
        values.append(float(row[1]))
    np.array(stamps), np.array(values)
    a = np.arange(200_000, dtype=float)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    big = np.arange(4_000_000, dtype=float)
    for _ in range(2):
        (big * 1.0001 + 1.0).sum()
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work (the fastest
    of three tries), taken in this process between runs. On a shared host
    the speed a run gets drifts by tens of percent over minutes; a run's
    times divided by the probes around it, times PROBE_REF_S, do not."""
    return min(_probe_once() for _ in range(3))


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def _hash_files(h, base: Path, files) -> None:
    for path in sorted(files):
        h.update(str(path.relative_to(base)).encode() + b"\0")
        h.update(path.read_bytes())


def corpus_digest(corpus: Path) -> str:
    """Every generated file except run_meta.json, whose config names the
    output directory."""
    h = hashlib.sha256()
    _hash_files(h, corpus, (p for p in corpus.rglob("*")
                            if p.is_file() and p.name != "run_meta.json"))
    return h.hexdigest()


def payload_digest(out: Path, out_is_dir: bool) -> tuple[str, dict]:
    """Digest of the result without its envelope, plus, for a directory
    output, every CSV it holds."""
    payload = json.loads(((out / "metrics.json") if out_is_dir else out).read_text())
    for key in ENVELOPE:
        payload.pop(key, None)
    h = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    if out_is_dir:
        _hash_files(h, out, out.glob("*/*.csv"))
    return h.hexdigest(), payload


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------

def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    for suffix, unit in ((".us_per_row", "us"), (".us_per_step", "us"),
                         (".ns_per_pair", "ns"), ("_frac", "ratio"),
                         (".pair_yield", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def environment(seed: int, wl: Workload, corpus: Path) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed, "homes": wl.homes, "days": wl.days,
            "corpus_bytes": sum(p.stat().st_size for p in corpus.rglob("*")
                                if p.is_file())}


class Bench:
    """One invocation: set-up, the measurement loop, output checks and the
    failure count."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, expected: dict):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.work, self.expected = work, expected
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.last_probe = probe()

    def _run(self, cli_argv: list[str], spans: Path | None, run_id: str) -> Proc:
        before = self.last_probe
        proc = run_stage(cli_argv, self.work / "logs", spans, run_id)
        self.last_probe = probe()
        proc.probe_s = (before + self.last_probe) / 2
        return proc

    def _digest_ok(self, kind: str, digest: str) -> list[str]:
        want = self.expected.get(kind) or self.digests.setdefault(kind, digest)
        return [] if digest == want else [f"{kind} digest {digest} != {want}"]

    def _count(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def setup(self) -> tuple[Path, list[Proc], list | None]:
        wl = self.wl
        procs, spans = [], None
        corpus = self.work / "corpus"
        for i in range(1 if self.trace else SETUP_REPS):
            out = self.work / f"setup{i}"
            span_file = self.work / "setup.spans.json" if self.trace else None
            proc = self._run(["synth", "--homes", str(wl.homes), "--days",
                              str(wl.days), "--seed", str(self.seed),
                              "--out", str(out)], span_file, "setup")
            if proc.problems():
                self._count(proc.problems(), f"setup {i}")
                raise RuntimeError("; ".join(self.problems))
            procs.append(proc)
            self._count(self._digest_ok("corpus", corpus_digest(out)),
                        f"setup {i}")
            if i == 0:
                out.rename(corpus)
            else:
                shutil.rmtree(out)
        if self.trace:
            spans = json.loads(span_file.read_text())
        if wl.iso:
            rewrite_corpus(corpus)
        return corpus, procs, spans

    def stage(self, corpus: Path, traced: bool, i: int) -> tuple[Proc, list | None]:
        wl = self.wl
        run_dir = self.work / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        out = run_dir if wl.out_is_dir else run_dir / "result.json"
        span_file = self.work / f"stage{i}.spans.json" if traced else None
        proc = self._run([*wl.argv, "--manifest", str(corpus / "manifest.json"),
                          "--seed", str(self.seed), "--out", str(out)],
                         span_file, f"stage{i}")
        problems = proc.problems()
        if not problems:
            try:
                digest, payload = payload_digest(out, wl.out_is_dir)
                problems = self._digest_ok("payload", digest)
                problems += wl.check(payload, self.homes, wl.selection)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        self._count(problems, f"run {i}{' traced' if traced else ''}")
        spans = json.loads(span_file.read_text()) if traced and not problems else None
        return proc, spans

    def run(self) -> dict:
        corpus, setup, setup_spans = self.setup()
        self.homes = json.loads((corpus / "manifest.json").read_text())["homes"]
        self.env = environment(self.seed, self.wl, corpus)

        plain, traced, order = [], [], []
        start = time.perf_counter()
        i = 0
        while True:
            is_traced = self.trace and i % 2 == 1
            proc, spans = self.stage(corpus, is_traced, i)
            if proc.rc == 0 and (spans is not None or not is_traced):
                (traced if is_traced else plain).append((proc, spans))
                order.append((is_traced, proc.wall_s))
            i += 1
            enough = len(plain) >= MIN_RUNS and (not self.trace
                                                 or len(traced) >= MIN_RUNS)
            elapsed = time.perf_counter() - start
            if enough and elapsed + proc.wall_s > self.seconds:
                break
            if self.failed and elapsed > 3 * self.seconds:
                break
        if not plain or (self.trace and not traced):
            raise RuntimeError("; ".join(self.problems) or "no successful run")

        runs = [p for p, _ in plain]
        self.samples = {"wall_s": [p.wall_s for p in runs],
                        "cpu_s": [p.cpu_s for p in runs],
                        "probe_s": [p.probe_s for p in runs],
                        "setup_s": [p.wall_s for p in setup],
                        "setup_probe_s": [p.probe_s for p in setup]}
        if not self.trace:
            values = {
                "wall_s": statistics.median(p.scaled(p.wall_s) for p in runs),
                "cpu_s": statistics.median(p.scaled(p.cpu_s) for p in runs),
                "setup_s": statistics.median(p.scaled(p.wall_s) for p in setup),
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in runs),
            }
        else:
            per_run = [layer_metrics([setup_spans, spans]) for _, spans in traced]
            values = {}
            for metric in per_run[0]:
                series = [m[metric] for m in per_run]
                if not metric.endswith(TIMED_SUFFIXES) and len(set(series)) > 1:
                    self.problems.append(f"count {metric} differs between "
                                         f"traced runs: {series}")
                values[metric] = statistics.median(series)
            self.samples["traced_wall_s"] = [p.wall_s for p, _ in traced]
            # adjacent runs see the same host load, so pair them
            values["trace.overhead_s"] = statistics.median(
                b - a for (a_traced, a), (b_traced, b) in zip(order, order[1:])
                if b_traced and not a_traced)
        return {"correct": not self.problems,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": unit_of(k)}
                            for k, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's digests as the expected ones "
                             "for the workload (default seed only)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: the running child is killed and reaped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "nilminfer" / "cli.py").is_file():
        print(f"no nilminfer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error("--record-digests needs the default seed")

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = {} if args.record_digests or args.seed != DEFAULT_SEED \
        else recorded.get(args.workload, {})
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), work, expected)
    try:
        result = bench.run()
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for problem in bench.problems:
        print(problem, file=sys.stderr)
    if args.record_digests and result["correct"]:
        recorded[args.workload] = bench.digests
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"workload": args.workload, "env": bench.env,
                      "samples": bench.samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

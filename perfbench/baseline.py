"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--out perfbench/baseline.json]

For each workload: one `run.py --trace 0` per seed, then one `--trace 1` run
on the default seed. Per end-to-end metric it records the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
interquartile distance as a share of the median, beside the metric's bound
from BENCHMARK.json, and each run's median unscaled wall time and host probe.
The traced run adds the per-layer metrics and the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate()
    except BaseException:
        proc.terminate()  # run.py then stops its own child and cleans up
        proc.wait()
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv, stdout)
    *_, record, result = stdout.strip().splitlines()
    return json.loads(record), json.loads(result)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {}
    for workload in args.workloads.split(","):
        runs, raw = [], {"wall_s": [], "probe_s": []}
        for seed in _seeds(args.seeds):
            record, result = bench(workload, seed, seconds, 0)
            runs.append(result)
            for key, values in raw.items():
                values.append(statistics.median(record["samples"][key]))
            print(workload, seed, result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  file=sys.stderr)
        row = {"env": record["env"], "seeds": args.seeds,
               "correct": all(r["correct"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs), "end_to_end": {},
               "unscaled_run_medians": raw}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            row["end_to_end"][metric] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bound, "values": values}
        _, traced = bench(workload, DEFAULT_SEED, seconds, 1)
        row["traced_correct"] = traced["correct"]
        row["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary[workload] = row
        print(workload, {m: round(v["spread"], 4)
                         for m, v in row["end_to_end"].items()}, file=sys.stderr)

    Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

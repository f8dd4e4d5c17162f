"""Run one nilminfer CLI command in this process through
`nilminfer.cli.run(argv)`, optionally traced, and exit with its return code.

    python3 perfbench/stage.py [--rss-out FILE] [--spans SPANS.json --run-id ID] -- <nilminfer args>

The package is imported from the `src/` directory of the checkout that holds
this file, never from anywhere else on the path. `--rss-out` writes this
process's peak resident set size in kB (VmHWM) when the command ends.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _peak_rss_kb() -> str:
    with open("/proc/self/status") as f:
        return next(line.split()[1] for line in f if line.startswith("VmHWM:"))


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    cli_argv = argv[sep + 1:]
    sys.path.insert(0, str(ROOT / "src"))
    import nilminfer.cli

    if not Path(nilminfer.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"nilminfer imported from {nilminfer.cli.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if "--spans" in opts:
        from tracer import Tracer

        tracer = Tracer(opts["--run-id"])
        tracer.install()
    try:
        return nilminfer.cli.run(cli_argv)
    finally:
        if tracer is not None:
            tracer.dump(opts["--spans"])
        if "--rss-out" in opts:
            Path(opts["--rss-out"]).write_text(_peak_rss_kb())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

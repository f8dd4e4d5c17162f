"""Pinned output bytes: the sha256 of every file a run writes, against one
committed table (`pinned_sha256.json`), case by case.

A case is a name and a function that writes files into an empty directory,
given the directory of the CLI corpus (see `write_cli_corpus`). Every
warning a case raises is written, in order, to its `warnings.txt`, so the
warnings are pinned with the files. A JSON artifact is hashed without its
envelope (`tool_version`, `seed`, `config`, `config_hash`), whose config
holds the run's paths.

A refactor that must keep its outputs byte-identical runs green here; one
that moves a pin rewrites the table (run this file as a script) and names
each moved entry and its reason in CHANGES.md.
"""
import hashlib
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from nilminfer.cli import run
from nilminfer.features import FEATURE_SOURCES
from nilminfer.synth import gen_corpus

TABLE_PATH = Path(__file__).with_name("pinned_sha256.json")
ENVELOPE = ("tool_version", "seed", "config", "config_hash")

# `utc` is the small_corpus shape; `new_york` moves every local day and
# occupancy schedule off UTC midnight.
CORPORA = {
    "utc": dict(n=5, seed=3, days=7),
    "new_york": dict(n=3, seed=3, days=3, timezone="America/New_York"),
}

# Every subcommand as command lines run in turn through cli.run; {out} is
# the case's directory and {manifest} the manifest it runs on.
ALL_ALGORITHMS = "ours,ours-optimised,chen,chen-median,knn,rf"
COMMANDS = {
    "detect-events": [["detect-events", "--out", "{out}"]],
    **{f"occupancy-{protocol}": [
        ["occupancy", "--protocol", protocol, "--algo", ALL_ALGORITHMS,
         "--out", "{out}/results.json"]] for protocol in ("split-half", "loho")},
    **{f"disaggregate-{algo}": [["disaggregate", "--algo", algo, "--out", "{out}"]]
       for algo in ("hart", "fhmm")},
    **{f"features-{source}": [["features", "--source", source,
                               "--out", "{out}/features.csv"]]
       for source in FEATURE_SOURCES},
    **{f"classify-{classifier}": [
        ["classify", "--classifier", classifier,
         "--source", ",".join(FEATURE_SOURCES), "--out", "{out}/results.json"]]
       for classifier in ("knn", "rf")},
    "report-occupancy": [
        ["occupancy", "--algo", "ours,chen", "--out", "{out}/results.json"],
        ["report", "--results", "{out}/results.json", "--out", "{out}/charts"]],
    "report-classify": [
        ["classify", "--source", "aggregate-only", "--out", "{out}/results.json"],
        ["report", "--results", "{out}/results.json", "--out", "{out}/charts"]],
}
# the utc corpus's manifest, and one beside it with every home in New York
MANIFESTS = {"utc": "manifest.json", "new_york": "manifest_new_york.json"}


def write_cli_corpus(root: Path) -> Path:
    """The 5-home x 7-day seed-3 corpus in root, with both MANIFESTS."""
    gen_corpus(out_dir=root, **CORPORA["utc"])
    doc = json.loads((root / MANIFESTS["utc"]).read_text())
    for home in doc["homes"]:
        home["timezone"] = "America/New_York"
    (root / MANIFESTS["new_york"]).write_text(json.dumps(doc, indent=2))
    return root


def cli_case(commands, manifest):
    def write(out, corpus):
        for argv in commands:
            argv = [a.format(out=out) for a in argv]
            if argv[0] != "report":
                argv += ["--manifest", str(corpus / manifest)]
            assert run(argv) == 0, argv
    return write


CASES = {
    **{f"synth-{name}": (lambda out, corpus, kw=kw: gen_corpus(out_dir=out, **kw))
       for name, kw in CORPORA.items()},
    **{f"{command}-{name}": cli_case(commands, manifest)
       for command, commands in COMMANDS.items()
       for name, manifest in MANIFESTS.items()},
}


def run_case(case: str, out: Path, corpus: Path) -> None:
    """Run a case into out, writing its warnings to out/warnings.txt."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        CASES[case](out, corpus)
    if caught:
        (out / "warnings.txt").write_text("".join(
            f"{w.category.__name__}: {w.message}\n" for w in caught))


def file_digest(path: Path) -> str:
    """The sha256 hex of a file's bytes; of a JSON artifact's, without its
    envelope."""
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        if isinstance(doc, dict) and "config_hash" in doc:
            data = json.dumps({k: v for k, v in doc.items() if k not in ENVELOPE},
                              sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def written_digests(root: Path) -> dict:
    """{path relative to root: file_digest} of every file under root."""
    return {p.relative_to(root).as_posix(): file_digest(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    return write_cli_corpus(tmp_path_factory.mktemp("cli_corpus"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_written_bytes_match_the_pinned_table(case, tmp_path, cli_corpus):
    run_case(case, tmp_path, cli_corpus)
    pinned = json.loads(TABLE_PATH.read_text())[case]
    assert written_digests(tmp_path) == pinned


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the CPUs from os.sched_getaffinity")
@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("case", [c for c in sorted(CASES) if c.startswith("synth-")])
def test_synth_writes_the_pinned_bytes_on_any_cpu_count(case, cpus, tmp_path,
                                                       monkeypatch, pools):
    """With one CPU gen_corpus builds every home in this process; with two,
    in a pool of two forked workers. Both write the pinned bytes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    run_case(case, tmp_path, None)
    assert pools == ([] if len(cpus) == 1 else [(2,)])
    assert written_digests(tmp_path) == json.loads(TABLE_PATH.read_text())[case]


def test_every_pinned_case_is_defined():
    """A pin outlives no case: the table holds exactly the cases defined."""
    assert sorted(json.loads(TABLE_PATH.read_text())) == sorted(CASES)


if __name__ == "__main__":
    # python tests/test_pinned_bytes.py OUT_DIR: rewrite the table from the
    # code as it stands, running each case in a subdirectory of OUT_DIR
    root = Path(sys.argv[1])
    with tempfile.TemporaryDirectory() as corpus:
        corpus = write_cli_corpus(Path(corpus))
        table = {}
        for case in sorted(CASES):
            (root / case).mkdir(parents=True)
            run_case(case, root / case, corpus)
            table[case] = written_digests(root / case)
    TABLE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

"""Pinned output bytes: the sha256 of every file a run writes, against one
committed table (`pinned_sha256.json`), case by case.

A case is a name and a function that writes files into an empty directory.
A refactor that must keep its outputs byte-identical runs green here; one
that moves a pin rewrites the table (run this file as a script) and names
each moved entry and its reason in CHANGES.md.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from nilminfer.synth import gen_corpus

TABLE_PATH = Path(__file__).with_name("pinned_sha256.json")

# `utc` is the small_corpus shape; `new_york` moves every local day and
# occupancy schedule off UTC midnight.
CORPORA = {
    "utc": dict(n=5, seed=3, days=7),
    "new_york": dict(n=3, seed=3, days=3, timezone="America/New_York"),
}

CASES = {f"synth-{name}": (lambda out, kw=kw: gen_corpus(out_dir=out, **kw))
         for name, kw in CORPORA.items()}


def written_digests(root: Path) -> dict:
    """{path relative to root: sha256 hex} of every file under root."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_written_bytes_match_the_pinned_table(case, tmp_path):
    CASES[case](tmp_path)
    pinned = json.loads(TABLE_PATH.read_text())[case]
    assert written_digests(tmp_path) == pinned


if __name__ == "__main__":
    # python tests/test_pinned_bytes.py OUT_DIR: rewrite the table from the
    # code as it stands, running each case in a subdirectory of OUT_DIR
    root = Path(sys.argv[1])
    table = {}
    for case, write in sorted(CASES.items()):
        (root / case).mkdir(parents=True)
        write(root / case)
        table[case] = written_digests(root / case)
    TABLE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

"""Rewrite a corpus's power CSVs with ISO-8601 timestamps that carry an
explicit UTC offset, so ingest takes its per-row ISO parse path.

Each home gets one offset from OFFSETS_MIN, in home order. A timestamp keeps
its instant: epoch 1704067200 with offset +05:30 becomes
2024-01-01T05:30:00+05:30. Power values are copied as text, so every file
loads to the same series as before.
"""
import json
from pathlib import Path

import numpy as np

OFFSETS_MIN = (-300, 330, 60, 0)


def _suffix(offset_min: int) -> str:
    sign = "+" if offset_min >= 0 else "-"
    hours, minutes = divmod(abs(offset_min), 60)
    return f"{sign}{hours:02d}:{minutes:02d}"


def rewrite_power_csv(path: Path, offset_min: int) -> None:
    header, *rows = path.read_text().splitlines()
    epoch_text, values = zip(*(row.split(",", 1) for row in rows))
    local = np.array(epoch_text, dtype=np.int64) + offset_min * 60
    stamps = np.datetime_as_string(local.astype("datetime64[s]"), unit="s")
    suffix = _suffix(offset_min)
    path.write_text(header + "\n" + "".join(
        f"{t}{suffix},{v}\n" for t, v in zip(stamps.tolist(), values)))


def rewrite_corpus(corpus: Path) -> list[Path]:
    """Rewrite the aggregate and submeter CSVs of every home in the
    manifest; returns the rewritten paths."""
    manifest = json.loads((corpus / "manifest.json").read_text())
    done = []
    for i, home in enumerate(manifest["homes"]):
        offset = OFFSETS_MIN[i % len(OFFSETS_MIN)]
        for rel in (home["aggregate_path"], *home["appliance_paths"].values()):
            rewrite_power_csv(corpus / rel, offset)
            done.append(corpus / rel)
    return done

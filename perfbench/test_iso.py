"""The ISO rewrite must not change what ingest sees.

    python3 -m pytest -q perfbench/test_iso.py
"""
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from iso import OFFSETS_MIN, rewrite_corpus  # noqa: E402
from nilminfer.series import load_power_csv  # noqa: E402
from nilminfer.synth import gen_corpus  # noqa: E402


def test_rewritten_files_load_to_the_epoch_series(tmp_path):
    iso_dir, epoch_dir = tmp_path / "iso", tmp_path / "epoch"
    gen_corpus(n=len(OFFSETS_MIN), seed=3, days=2, out_dir=iso_dir)
    shutil.copytree(iso_dir, epoch_dir)

    rewritten = rewrite_corpus(iso_dir)

    assert len(rewritten) == 3 * len(OFFSETS_MIN)
    offsets_seen = set()
    for path in rewritten:
        first_row = path.read_text().splitlines()[1]
        assert first_row[19] in "+-" and first_row[22] == ":", first_row
        offsets_seen.add(first_row[19:25])
        iso = load_power_csv(path)
        epoch = load_power_csv(epoch_dir / path.relative_to(iso_dir))
        assert iso.start_time == epoch.start_time
        assert iso.period_s == epoch.period_s
        np.testing.assert_array_equal(iso.values, epoch.values)
    assert len(offsets_seen) == len(OFFSETS_MIN)

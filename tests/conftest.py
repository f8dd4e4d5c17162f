import concurrent.futures
import os
import time

import pytest

from nilminfer.synth import gen_corpus


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory):
    """The 20-home x 14-day seed-7 corpus, with CSVs and manifest on disk."""
    out = tmp_path_factory.mktemp("default_corpus")
    return gen_corpus(20, seed=7, days=14, out_dir=out)


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """A 5-home x 7-day corpus for protocol and CLI tests (one full week so
    every module accepts it)."""
    out = tmp_path_factory.mktemp("small_corpus")
    return gen_corpus(5, seed=3, days=7, out_dir=out)


@pytest.fixture
def pools(monkeypatch):
    """The argument tuples of every ProcessPoolExecutor made during the
    test. It starts once this process runs only its main thread: the
    helper threads of a pool that an earlier test shut down, though
    joined, can take a few milliseconds to leave /proc/self/task, and
    gen_corpus forks no pool while a second thread runs."""
    made, real = [], concurrent.futures.ProcessPoolExecutor

    def spy(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    deadline = time.monotonic() + 5
    while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    return made

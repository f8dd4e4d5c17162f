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
def forks(monkeypatch):
    """The pid of every child this process forks during the test. It starts
    once this process runs only its main thread: a thread that an earlier
    test joined can take a few milliseconds to leave /proc/self/task, and
    map_in_workers forks nothing while a second thread runs."""
    made, real = [], os.fork

    def spy():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    deadline = time.monotonic() + 5
    while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    return made

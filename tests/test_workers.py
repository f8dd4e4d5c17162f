import os
import sys

import pytest

from nilminfer.workers import map_in_workers


# map_in_workers(fn, [1, 2, 3, 4]) on two CPUs: calls 3 and 4 run in the child
def _exit_in_the_child(x):
    if x > 2:
        os._exit(3)
    return x


def _unpicklable_in_the_child(x):
    return x if x <= 2 else (lambda: x)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the CPUs from os.sched_getaffinity")
@pytest.mark.parametrize("fn", [_exit_in_the_child, _unpicklable_in_the_child])
def test_a_child_that_sends_no_results_is_an_error(fn, monkeypatch, forks):
    """A forked child that dies, or whose results pickle cannot carry, is a
    ChildProcessError here, not a hang or a bare EOFError, and it is
    reaped."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ChildProcessError, match="ended without sending its results"):
        map_in_workers(fn, [1, 2, 3, 4])
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # no child left, live or not
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the CPUs from os.sched_getaffinity")
@pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2}], ids=["1", "2", "3"])
def test_results_come_back_in_argument_order(cpus, monkeypatch, forks):
    """Each CPU beyond the first forks one child, and the results are map's,
    in argument order, for any number of calls."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    for n in (0, 1, 2, 5):
        assert map_in_workers(pow, range(n), [2] * n) == [i * i for i in range(n)]
    assert len(forks) == sum(max(1, min(n, len(cpus))) - 1 for n in (0, 1, 2, 5))

"""The package's one parallel code path: a function mapped over its arguments
by this process and forked copies of it, one per CPU this process may run
on. It builds `synth.gen_corpus`'s homes and fits
`occupancy.occupancy_experiment`'s classifiers; results come back in
argument order, so no output depends on the CPU count."""
import os
import pickle
import signal


def map_in_workers(fn, *iterables) -> list:
    """list(map(fn, *iterables)), the calls cut into one run of consecutive
    calls per CPU: this process makes the first run, and a forked child
    each other run, sending its results back pickled through a pipe. With
    one CPU, no fork, or a second thread already running in this process
    (forking it can deadlock the child; Python 3.12 and later warn of it),
    this process makes every call. The first call to fail, in argument
    order, raises its exception here, as map would, and no child outlives
    the call."""
    calls = list(zip(*iterables))
    runs = max(1, min(len(calls), _worker_cpus()))
    cuts = [len(calls) * i // runs for i in range(runs + 1)]
    children = []  # (pid, read end of its pipe), in call order
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            children.append(_fork(fn, calls[lo:hi]))
        results = [fn(*args) for args in calls[:cuts[1]]]
        while children:
            pid, fd = children[0]
            with open(fd, "rb", closefd=False) as pipe:
                try:
                    part, exc = pickle.load(pipe)
                except EOFError:  # it died, or could not pickle its outcome
                    part, exc = None, ChildProcessError(
                        f"worker {pid} ended without sending its results")
            os.close(fd)
            os.waitpid(pid, 0)
            children.pop(0)
            if exc is not None:
                raise exc
            results += part
        return results
    finally:
        for pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(fn, calls):
    """(pid, read end) of a forked child that writes to the pipe the pickled
    (results, None) of fn over calls, or (None, exception) of the first call
    to fail, and exits without returning to the caller."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    try:
        os.close(read)
        try:
            outcome = [fn(*args) for args in calls], None
        except Exception as exc:
            outcome = None, exc
        data = pickle.dumps(outcome)
        with open(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _worker_cpus() -> int:
    """How many CPUs this process may run on, or 1 where it cannot fork or
    tell, or where it already runs a second thread (an OpenBLAS pool, a
    caller's thread)."""
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return 1
    return cpus if hasattr(os, "fork") and threads == 1 else 1

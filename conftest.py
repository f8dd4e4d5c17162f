"""Fixtures for every test session in this repository: tests/ and perfbench/."""
import pytest


@pytest.fixture(autouse=True)
def private_parse_cache(tmp_path_factory):
    """Each test's CSV parse cache is a directory of its own, beside (not
    in) its tmp_path: no test reads another's entries or writes into the
    user's home, and subprocesses inherit it. Set apart from the
    `monkeypatch` fixture, so a test's `monkeypatch.undo()` keeps it."""
    cache_home = tmp_path_factory.mktemp("xdg_cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(cache_home))
        yield cache_home / "nilminfer"

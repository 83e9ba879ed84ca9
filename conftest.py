"""Settings for every test under this directory: ``tests/`` and ``bench/`` alike."""

from __future__ import annotations

import shutil
import tempfile

import pytest


def pytest_configure(config):
    """Cache parsed datasets in a directory of this session, never in the user's cache.

    A hook in the root conftest rather than a fixture, so that it holds for any
    selection of tests, ``pytest bench/`` included, for session fixtures, and for
    every process a test starts.  The directory is shared by the session: a test
    may load a file an earlier test parsed, and gets the cached columns, which
    ``tests/test_dataset.py`` checks equal a parse bit for bit.
    """
    cache = tempfile.mkdtemp(prefix="logitlab-cache-")
    env = pytest.MonkeyPatch()
    env.setenv("XDG_CACHE_HOME", cache)
    config.add_cleanup(lambda: shutil.rmtree(cache, ignore_errors=True))
    config.add_cleanup(env.undo)  # cleanups run last in, first out

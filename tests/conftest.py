"""Fixtures shared by every test module."""

import faulthandler
import os
import sys

import pytest

# Wall seconds one test may run.  The slowest test, acceptance criterion
# 7, takes about 20-30 s; a test past this limit is stuck (a loop whose
# bound broke), so it dumps every thread's stack and ends the run rather
# than stalling CI until the job's timeout.
TEST_WALL_LIMIT_S = 300

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended while plugins configure, so fd 2 is
    # still the terminal's stderr here.  A test runs with fd 2 sent to a
    # capture file, where a dump would be lost with the process.
    config.stash[_STDERR_FD] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _wall_limit(pytestconfig):
    faulthandler.dump_traceback_later(
        TEST_WALL_LIMIT_S, exit=True, file=pytestconfig.stash[_STDERR_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()

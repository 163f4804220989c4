"""Settings for the whole suite.

Under CI (GitHub Actions sets ``CI``) Hypothesis draws its examples from a
fixed seed, so a slow draw recurs on every run; the example counts stay as
each test sets them.  Each test runs under a time limit: a test still running
after ``TIME_LIMIT_S`` seconds dumps the traceback of every thread, which
names it, and ends the run.
"""

import faulthandler
import os

import pytest
from hypothesis import settings

TIME_LIMIT_S = 60

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

_STDERR = pytest.StashKey()


def pytest_configure(config):
    # output capture takes over fd 2 during each test, and what it captured
    # is lost when the time limit ends the process: keep the real stderr
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def time_limit(request):
    faulthandler.dump_traceback_later(TIME_LIMIT_S, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
